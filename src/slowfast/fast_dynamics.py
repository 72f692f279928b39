"""Frozen-fast simulation and ergodic time averaging.

With the slow state frozen at x, the fast field solves
dv = [A2 v + g(x, v)] dt + Q2 dW.  Under the dissipativity gap
omega = alpha_{2,1} - L2 > 0 this chain mixes exponentially and has a
unique stationary law; its integrals are estimated here by time averages
over replica ensembles with batch-means standard errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .model import ModelSpec
from .noise import RngStream, derive_stream, make_plan
from .reactions import ReactionSpec, fast_coefficients
from .spectral import (GridSpec, SpectralOperator, as_modal_field,
                       kahan_add, matvec, synthesize)

__all__ = [
    "FrozenFastParams",
    "FastStepper",
    "step_frozen_fast",
    "estimate_invariant_average",
]

N_BATCHES = 20  # batch-means blocks per replica
DRAW_CHUNK_STEPS = 64  # steps drawn, and observed, per replica chunk


@dataclass(frozen=True)
class FrozenFastParams:
    """The micro-solver budget of one frozen-fast estimate: the step h, the
    burn-in t_burn, the averaging window t_avg and the replica count."""

    h: float
    t_burn: float
    t_avg: float
    n_replicas: int

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        for name, ok, rule in (
                ("h", 0 < self.h < math.inf, "finite and positive"),
                ("t_burn", 0 <= self.t_burn < math.inf,
                 "finite and nonnegative"),
                ("t_avg", 0 < self.t_avg < math.inf, "finite and positive"),
                ("n_replicas", self.n_replicas >= 1, "at least 1")):
            if not ok:
                raise InvalidParameterError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}",
                    name=name)


class FastStepper:
    """The exponential integrator of the fast field, prepared once for
    (reaction, grid, operator, step h, time scale eps_eff).

    The linear part -(alpha_k + b_c) v_k and the noise are exact per mode:
    the OU plan is made on alpha_k + b_c.  The rest of g is explicit:
    drive(rho_phys) = drift_weight * analyze(a_c*rho), held over a frozen
    slow field, and (c_s*drift_weight) * analyze(sin sigma) per step, so a
    linear reaction (c_s None or 0) takes no transform per step.  A row of
    a block is bit-identical to that field advanced alone.  Nothing is
    checked: callers check at their step boundary.
    """

    __slots__ = ("a_c", "sin_weight", "mat", "quad_weight", "decay",
                 "drift_weight", "noise_std")

    def __init__(self, reaction: ReactionSpec, grid: GridSpec,
                 op: SpectralOperator, h: float, eps_eff: float):
        self.a_c, b_c, c_s = fast_coefficients(reaction)
        plan = make_plan(replace(op, alphas=op.alphas + b_c), h, eps_eff)
        self.sin_weight = c_s * plan.drift_weight if c_s else None
        self.mat = grid.sine_matrix
        self.quad_weight = grid.quad_weight
        self.decay = plan.decay
        self.drift_weight = plan.drift_weight
        self.noise_std = plan.noise_std

    def drive(self, rho_phys: np.ndarray) -> np.ndarray:
        """The modal forcing of a frozen nodal slow field, or of a block."""
        return self.drift_weight * (
            self.quad_weight * matvec(self.mat.T, self.a_c * rho_phys))

    def noise(self, xi: np.ndarray) -> np.ndarray:
        """Noise increments noise_std*xi of a block of standard normals."""
        return self.noise_std * xi

    def advance(self, v: np.ndarray, v_phys: np.ndarray, drive: np.ndarray,
                noise: np.ndarray, nodes: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Advance v, one field or a block (..., N) with nodal values
        v_phys, one step per row of noise (n, ..., N); returns the modal and
        nodal states after each step, shapes (n, ..., N) and (n, ..., M).
        The nodal states are written into nodes when it is given, and that
        array is returned."""
        states = drive + noise
        if nodes is None:
            nodes = np.empty(states.shape[:-1] + self.mat.shape[:1])
        if self.sin_weight is None:
            for state in states:
                state += self.decay * v
                v = state
            # matvec's stacked product, written in place.
            np.matmul(self.mat, states[..., None], out=nodes[..., None])
            return states, nodes
        for state, node in zip(states, nodes):
            state += self.decay * v
            state += self.sin_weight * (
                self.quad_weight * matvec(self.mat.T, np.sin(v_phys)))
            v = state
            node[...] = v_phys = matvec(self.mat, v)
        return states, nodes


def step_frozen_fast(v: np.ndarray, model: ModelSpec, x: np.ndarray,
                     params: FrozenFastParams, stream: RngStream,
                     x_phys: np.ndarray | None = None) -> np.ndarray:
    """One exponential-integrator step of the fast field frozen at slow
    state x: linear part and noise exact, the rest of g frozen."""
    grid = model.grid
    if x_phys is None:
        x_phys = synthesize(x, grid)
    v = as_modal_field(v, grid.n_modes)
    stepper = FastStepper(model.reaction_fast, grid, model.op2, params.h, 1.0)
    noise = stepper.noise(stream.normals(grid.n_modes)[None])
    states, _ = stepper.advance(v, synthesize(v, grid),
                                stepper.drive(x_phys), noise)
    return states[0]


def _run_replicas(model: ModelSpec, x: np.ndarray, params: FrozenFastParams,
                  observable, streams: list,
                  x_phys: np.ndarray) -> np.ndarray:
    """Burn in, then return the per-batch time averages of the observable,
    one row per stream: shape (R, N_BATCHES) or (R, N_BATCHES, K).

    The R replicas advance together as an (R, N) block.  Replica r draws
    only from streams[r], in chunks of DRAW_CHUNK_STEPS steps; the streams
    are concatenation-consistent, so these are the draws of one step at a
    time.  The nodal blocks of a chunk's steps are kept, and after the
    chunk the observable is called once on the rows of its post-burn-in
    steps: an (n*R, M) array whose row s*R + r is replica r at the chunk's
    s-th averaged step.  It must return one value per row, shape (n*R,),
    or one vector per row, shape (n*R, K), and must not depend on a row's
    position; the row count is checked on every call.  A replica whose
    field turns non-finite raises StateExplosionError at the end of its
    draw chunk, before the observable sees any row of that chunk.
    """
    h = params.h
    n_burn = int(round(params.t_burn / h))
    n_avg = N_BATCHES * max(1, int(math.ceil(params.t_avg / (N_BATCHES * h))))
    batch_len = n_avg // N_BATCHES
    n_modes = model.grid.n_modes
    n_quad = model.grid.n_quad
    n_rep = len(streams)
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
    drive = stepper.drive(x_phys)

    v = np.zeros((n_rep, n_modes))
    v_phys = np.zeros((n_rep, n_quad))
    batches = []
    acc = comp = None
    n_total = n_burn + n_avg
    for start in range(0, n_total, DRAW_CHUNK_STEPS):
        steps = min(DRAW_CHUNK_STEPS, n_total - start)
        noise = stepper.noise(np.stack(
            [s.normals(steps * n_modes).reshape(steps, n_modes)
             for s in streams], axis=1))
        states, nodes = stepper.advance(v, v_phys, drive, noise)
        v, v_phys = states[-1], nodes[-1]
        # A non-finite field stays non-finite, so one check per chunk finds
        # it before any of its values reach the observable.
        finite = np.isfinite(nodes).all(axis=(0, 2))
        if not finite.all():
            bad = int(np.argmin(finite))
            raise StateExplosionError(
                (start + steps) * h, float(np.linalg.norm(x)),
                float(np.linalg.norm(v[bad])), math.inf,
                where=f" in frozen-fast replica {bad}")
        first = max(0, n_burn - start)
        if first >= steps:
            continue
        rows = (steps - first) * n_rep
        values = np.asarray(
            observable(nodes[first:].reshape(rows, n_quad)), dtype=float)
        if (values.ndim not in (1, 2) or values.shape[0] != rows
                or (acc is not None and values.shape[1:] != acc.shape[1:])):
            raise InvalidParameterError(
                f"observable must map nodal rows of shape ({rows}, {n_quad}) "
                f"to shape ({rows},) or ({rows}, K), got {values.shape}")
        values = values.reshape((steps - first, n_rep) + values.shape[1:])
        if acc is None:
            acc = comp = np.zeros(values.shape[1:])
        # Kahan accumulation in time order keeps batch sums independent
        # of the replica count and of the chunk size.
        for i, value in enumerate(values, start=start + first - n_burn):
            acc, comp = kahan_add(acc, comp, value)
            if (i + 1) % batch_len == 0:
                batches.append(acc / batch_len)
                acc = comp = np.zeros_like(acc)
    return np.stack(batches, axis=1)


def batch_std_error(batches: np.ndarray) -> np.ndarray:
    """Standard error of the mean of (R, B) or (R, B, K) batch means: R
    replicas of B consecutive, AR(1)-correlated batches.  The lag-1
    correlation rho, bias-corrected by (1 + 4 rho) / B and clipped to
    [0, 0.9], inflates the variance of the plain spread by (1+rho)/(1-rho).
    """
    n_rep, n_batches = batches.shape[:2]
    plain = batches.std(axis=(0, 1), ddof=1) / math.sqrt(n_rep * n_batches)
    dev = batches - batches.mean(axis=1, keepdims=True)
    lagged = np.asarray((dev[:, 1:] * dev[:, :-1]).sum(axis=(0, 1)))
    spread = np.asarray((dev * dev).sum(axis=(0, 1)))
    rho = np.divide(lagged, spread, out=np.zeros_like(spread),
                    where=spread > 0)
    rho = np.clip(rho + (1.0 + 4.0 * rho) / n_batches, 0.0, 0.9)
    return plain * np.sqrt((1.0 + rho) / (1.0 - rho))


def estimate_invariant_average(model: ModelSpec, x, params: FrozenFastParams,
                               observable, master_seed: int = 0,
                               key: tuple = ()) -> tuple:
    """Time average of observable(v_phys) over [t_burn, t_burn + t_avg] of
    model's fast field frozen at slow state x, and its standard error.

    The observable maps rows to rows: it is called on an (n, M) array of
    nodal fields, where a row is one (step, replica) pair, and must return
    one value per row, shape (n,), or one vector per row, shape (n, K); any
    other shape raises InvalidParameterError.  It is called once per draw
    chunk on all of the chunk's averaged steps of all params.n_replicas
    replicas, so it must not depend on a row's position or on n.  The mean
    and standard error are floats or (K,) arrays accordingly.  Replicas use
    independent frozen_fast_noise streams derived from (master_seed,
    replica) and the trailing key.  The standard error comes from the
    correlated per-batch means (batch_std_error) and shrinks like
    1/sqrt(n_replicas * t_avg).  A burn-in shorter than 5/omega warns.
    """
    omega = model.omega
    if params.t_burn < 5.0 / omega:
        warnings.warn(
            f"t_burn={params.t_burn:g} is below the recommended floor "
            f"5/omega={5.0 / omega:g}; stationary averages may be biased",
            stacklevel=2,
        )
    x = as_modal_field(x, model.n_modes)
    x_phys = synthesize(x, model.grid)
    streams = [derive_stream(master_seed, replica, "frozen_fast_noise", key)
               for replica in range(params.n_replicas)]
    batches = _run_replicas(model, x, params, observable, streams, x_phys)
    # Replica-major rows: the pooled mean sums the batches in this order.
    stacked = batches.reshape((-1,) + batches.shape[2:])
    mean, std_error = stacked.mean(axis=0), batch_std_error(batches)
    if mean.ndim == 0:
        return float(mean), float(std_error)
    return mean, std_error
