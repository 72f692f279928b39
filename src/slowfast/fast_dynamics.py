"""Frozen-fast simulation and ergodic time averaging.

With the slow state frozen at x, the fast field solves
dv = [A2 v + g(x, v)] dt + Q2 dW.  Under the dissipativity gap
omega = alpha_{2,1} - L2 > 0 this chain mixes exponentially and has a
unique stationary law; its integrals are estimated here by time averages
over replica ensembles with batch-means standard errors, optionally
against each replica's Gaussian companion, whose stationary law is known.
"""

from __future__ import annotations

import math
import warnings
from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .model import MAX_STEPS, ModelSpec
from .noise import RngStream, derive_stream, make_plan
from .reactions import ReactionSpec, fast_coefficients
from .spectral import (GridSpec, SpectralOperator, as_modal_field, matvec,
                       synthesize)

__all__ = [
    "FrozenFastParams",
    "FastStepper",
    "step_frozen_fast",
    "companion_law",
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
        # Each test is written so that NaN fails it; h is tested first.
        for name, ok, rule in (
                ("h", 0 < self.h < math.inf, "finite and positive"),
                ("t_burn", 0 <= self.t_burn <= MAX_STEPS * self.h,
                 f"in [0, {MAX_STEPS:.0e} h]"),
                ("t_avg", 0 < self.t_avg <= MAX_STEPS * self.h,
                 f"in (0, {MAX_STEPS:.0e} h]"),
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

    def gaussian_companion(self) -> "FastStepper":
        """This step without its explicit sine term: the exact OU step on
        alpha_k + b_c, whose stationary law under a frozen drive is
        Gaussian per mode (companion_law)."""
        companion = copy(self)
        companion.sin_weight = None
        return companion

    def stationary_law(self, drive: np.ndarray) -> tuple:
        """Modal mean and variance of the stationary law of the Gaussian
        companion under the frozen drive.  Per mode the chain is AR(1):
        mean drive/(1 - decay) and variance noise_std^2/(1 - decay^2), exact
        for the discrete chain."""
        decay = self.decay
        return (drive / (1.0 - decay),
                self.noise_std ** 2 / (1.0 - decay * decay))

    def advance(self, v: np.ndarray, v_phys: np.ndarray, drive: np.ndarray,
                noise: np.ndarray, nodes: np.ndarray | None = None,
                states: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Advance v, one field or a block (..., N) with nodal values
        v_phys, one step per row of noise (n, ..., N); returns the modal and
        nodal states after each step, shapes (n, ..., N) and (n, ..., M).
        The states and nodal states are written into states and nodes when
        those are given, and those arrays are returned."""
        states = np.add(drive, noise, out=states)
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
                  observable, streams: list, x_phys: np.ndarray,
                  companion: bool = False) -> np.ndarray:
    """Burn in, then return the per-batch time averages of the observable,
    one row per stream: shape (R, N_BATCHES) or (R, N_BATCHES, K).

    The R replicas advance together as an (R, N) block.  Replica r draws
    only from streams[r]: first its start, from the Gaussian companion's
    stationary law, then its steps, in chunks of DRAW_CHUNK_STEPS; the
    streams are concatenation-consistent, so these are the draws of one
    step at a time.  The nodal blocks of a chunk's steps are kept, and
    after the chunk the observable is called once on the rows of its
    post-burn-in steps: an (n*R, M) array whose row s*R + r is replica r
    at the chunk's s-th averaged step.  It must return one value per row,
    shape (n*R,), or one vector per row, shape (n*R, K), and must not
    depend on a row's position; the row count is checked on every call.
    A replica whose field turns non-finite raises StateExplosionError at
    the end of its draw chunk, before the observable sees any row of that
    chunk.

    With companion, each replica also drives a Gaussian companion (the
    stepper's gaussian_companion) from its start with its own drive and
    noise rows, and the batches average observable(v) - observable(v_lin):
    per chunk the replicas advance and are observed, then the companions.
    The state and node stacks are allocated once per call and shared by
    the two.  A batch is summed in time order, so the batches depend on
    neither the replica count nor the chunk size.
    """
    h = params.h
    n_burn = int(round(params.t_burn / h))
    n_avg = N_BATCHES * max(1, int(math.ceil(params.t_avg / (N_BATCHES * h))))
    batch_len = n_avg // N_BATCHES
    n_modes = model.grid.n_modes
    n_quad = model.grid.n_quad
    n_rep = len(streams)
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
    # The replicas' chain first, then their companions'; they share the
    # state and node stacks, one chain at a time.
    chains = ((stepper, stepper.gaussian_companion()) if companion
              else (stepper,))
    drive = stepper.drive(x_phys)
    mean, variance = stepper.stationary_law(drive)
    initial = mean + np.sqrt(variance) * np.stack(
        [s.normals(n_modes) for s in streams])
    n_total = n_burn + n_avg
    chunk = min(DRAW_CHUNK_STEPS, n_total)
    state_stack = np.empty((chunk, n_rep, n_modes))
    node_stack = np.empty((chunk, n_rep, n_quad))
    v = np.array([initial] * len(chains))
    v_phys = np.array([matvec(stepper.mat, initial)] * len(chains))

    batches = []
    row_shape = open_sum = None
    n_open = 0  # steps summed in open_sum, the open batch
    for start in range(0, n_total, chunk):
        steps = min(chunk, n_total - start)
        noise = stepper.noise(np.stack(
            [s.normals(steps * n_modes).reshape(steps, n_modes)
             for s in streams], axis=1))
        first = max(0, n_burn - start)
        n_seen = steps - first
        rows = n_seen * n_rep
        observed = []
        for j, chain in enumerate(chains):
            states, nodes = chain.advance(v[j], v_phys[j], drive, noise,
                                          nodes=node_stack[:steps],
                                          states=state_stack[:steps])
            v[j], v_phys[j] = states[-1], nodes[-1]
            # A non-finite field stays non-finite, so one check per chunk
            # finds it before any of its values reach the observable.
            finite = np.isfinite(nodes).all(axis=(0, 2))
            if not finite.all():
                bad = int(np.argmin(finite))
                raise StateExplosionError(
                    (start + steps) * h, float(np.linalg.norm(x)),
                    float(np.linalg.norm(v[j, bad])), math.inf,
                    where=f" in frozen-fast replica {bad}")
            if n_seen <= 0:
                continue
            values = np.asarray(observable(nodes[first:].reshape(rows, n_quad)),
                                dtype=float)
            if (values.ndim not in (1, 2) or values.shape[0] != rows or (
                    row_shape is not None and values.shape[1:] != row_shape)):
                raise InvalidParameterError(
                    f"observable must map nodal rows of shape "
                    f"({rows}, {n_quad}) to shape ({rows},) or ({rows}, K), "
                    f"got {values.shape}")
            row_shape = values.shape[1:]
            observed.append(values.reshape((n_seen, n_rep) + row_shape))
        if not observed:
            continue
        values = observed[0] - observed[1] if companion else observed[0]
        # accumulate, not reduce: reduce pairs the terms when a step has
        # one value, and the sums would then depend on the replica count.
        i = 0
        while i < n_seen:
            take = min(batch_len - n_open, n_seen - i)
            part = values[i:i + take]
            if n_open:
                part = np.concatenate((open_sum[None], part))
            open_sum = np.add.accumulate(part, axis=0)[-1]
            i += take
            n_open = (n_open + take) % batch_len
            if not n_open:
                batches.append(open_sum / batch_len)
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


def companion_law(model: ModelSpec, x_phys: np.ndarray, h: float) -> tuple:
    """Nodal mean and standard deviation, shape (M,) each, of the
    stationary law of the Gaussian companion of the step h frozen at the
    nodal slow field x_phys (FastStepper.stationary_law per mode).  The
    modes are independent, so node j is Gaussian with mean
    sum_k mean_k e_k(xi_j) and variance sum_k var_k e_k(xi_j)^2.
    """
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
    mean, variance = stepper.stationary_law(stepper.drive(x_phys))
    mat = model.grid.sine_matrix
    return mat.dot(mean), np.sqrt((mat * mat).dot(variance))


def estimate_invariant_average(model: ModelSpec, x, params: FrozenFastParams,
                               observable, master_seed: int,
                               key: tuple = (), companion: bool = False
                               ) -> tuple:
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
    replica) and the trailing key; each starts in its Gaussian companion's
    stationary law, the linear kind's own.  The standard error comes from
    the correlated per-batch means (batch_std_error) and shrinks like
    1/sqrt(n_replicas * t_avg).

    With companion the average is of observable(v) - observable(v_lin),
    v_lin each replica's Gaussian companion on the same draws and from the
    same start: a control variate, to which the caller adds the exact
    expectation of observable(v_lin) under companion_law.  A plain estimate
    with a burn-in shorter than 5/omega warns.  A control-variate one does
    not: its companion is stationary from the start and only the
    difference relaxes, so its burn-in is certified by measuring the bias.
    """
    omega = model.omega
    if not companion and params.t_burn < 5.0 / omega:
        warnings.warn(
            f"t_burn={params.t_burn:g} is below the recommended floor "
            f"5/omega={5.0 / omega:g}; stationary averages may be biased",
            stacklevel=2,
        )
    x = as_modal_field(x, model.n_modes)
    x_phys = synthesize(x, model.grid)
    streams = [derive_stream(master_seed, replica, "frozen_fast_noise", key)
               for replica in range(params.n_replicas)]
    batches = _run_replicas(model, x, params, observable, streams, x_phys,
                            companion)
    # Replica-major rows: the pooled mean sums the batches in this order.
    stacked = batches.reshape((-1,) + batches.shape[2:])
    mean, std_error = stacked.mean(axis=0), batch_std_error(batches)
    if mean.ndim == 0:
        return float(mean), float(std_error)
    return mean, std_error
