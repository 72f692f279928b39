"""Frozen-fast simulation and ergodic time averaging.

With the slow state frozen at x, the fast field solves
dv = [A2 v + g(x, v)] dt + Q2 dW.  Under the dissipativity gap
omega = alpha_{2,1} - L2 > 0 this chain mixes exponentially and has a
unique stationary law; its integrals are estimated here by time averages
over replica ensembles with batch-means standard errors, a step with a
sine term against each replica's Gaussian companion, whose law is known.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .model import MAX_STEPS, ModelSpec
from .noise import RngStream, derive_stream, make_plan
from .reactions import ReactionSpec, fast_coefficients
from .spectral import (GridSpec, SpectralOperator, as_modal_field,
                       as_modal_states, matvec, synthesize)

__all__ = [
    "FrozenFastParams",
    "FastStepper",
    "step_frozen_fast",
    "companion_law",
    "estimate_invariant_average",
]

N_BATCHES = 20  # batch-means blocks per replica
DRAW_CHUNK_STEPS = 64  # steps drawn, and observed, per replica chunk
DRAW_CHUNK_ROWS = 16384  # (step, state, replica) rows per chunk, at most


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
    the OU plan is made on alpha_k + b_c.  The rest of g is explicit, each
    of its constant scalings folded into one operator here:

    - drive(x) = drive_weight * x, drive_weight = drift_weight * a_c, the
      forcing of a frozen modal slow field x, held over the steps.  It is
      drift_weight * analyze(a_c * synthesize(x)) up to rounding, since
      analyze after synthesize is the identity on the N modes;
    - sin_op @ sin(sigma) per step, sin_op = (c_s * drift_weight)[:, None]
      * grid.analysis_matrix, which is (c_s * drift_weight) *
      analyze(sin sigma) up to rounding.

    So a sine substep takes six numpy calls, and a linear reaction (c_s
    None or 0) takes no transform per step.  A row of a block is
    bit-identical to that field advanced alone.  Without a sine term, n
    steps under a frozen drive also compose into one affine map
    (affine_map, convolve, apply_map), which the coupled path and its
    block-frozen replay take; advance stays the update of a sine step and
    of the frozen-fast replicas.  Nothing is checked: callers check at
    their step boundary.
    """

    __slots__ = ("drive_weight", "sin_op", "mat", "decay", "noise_std")

    def __init__(self, reaction: ReactionSpec, grid: GridSpec,
                 op: SpectralOperator, h: float, eps_eff: float):
        a_c, b_c, c_s = fast_coefficients(reaction)
        plan = make_plan(replace(op, alphas=op.alphas + b_c), h, eps_eff)
        self.mat = grid.sine_matrix
        self.drive_weight = plan.drift_weight * a_c
        self.sin_op = ((c_s * plan.drift_weight)[:, None]
                       * grid.analysis_matrix if c_s else None)
        self.decay = plan.decay
        self.noise_std = plan.noise_std

    def drive(self, x: np.ndarray) -> np.ndarray:
        """The modal forcing of a frozen modal slow field, or of a block."""
        return self.drive_weight * x

    def noise(self, xi: np.ndarray) -> np.ndarray:
        """Noise increments noise_std*xi of a block of standard normals."""
        return self.noise_std * xi

    def gaussian_companion(self) -> "FastStepper":
        """This step without its explicit sine term: the exact OU step on
        alpha_k + b_c, whose stationary law under a frozen drive is
        Gaussian per mode (companion_law)."""
        companion = copy(self)
        companion.sin_op = None
        return companion

    def stationary_law(self, drive: np.ndarray) -> tuple:
        """Modal mean and variance of the stationary law of the Gaussian
        companion under the frozen drive.  Per mode the chain is AR(1):
        mean drive/(1 - decay) and variance noise_std^2/(1 - decay^2), exact
        for the discrete chain."""
        decay = self.decay
        return (drive / (1.0 - decay),
                self.noise_std ** 2 / (1.0 - decay * decay))

    def affine_map(self, n: int) -> tuple | None:
        """n steps under a frozen drive as one affine map, or None for a
        step with a sine term, which only the recursion (advance) takes.

        Returns (gains, powers), shape (n, N) each: after step j the state
        is (gains[j] * x + z[j]) + powers[j] * v (apply_map), x the frozen
        modal slow field, v the start and z the steps' noise convolved
        along the step axis (convolve).  powers[j] = decay^(j+1) by
        repeated multiplication, gains[j] = drive_weight * sum_{k<=j}
        decay^k.  At n = 1 this is advance's update, bit for bit; beyond,
        the two agree to rounding: after step j, within 2j + 5 machine
        epsilons of the map on absolute values (tests/test_properties.py
        derives the bound).
        """
        if self.sin_op is not None:
            return None
        powers = np.multiply.accumulate(
            np.broadcast_to(self.decay, (n, self.decay.size)), axis=0)
        sums = np.add.accumulate(
            np.concatenate((np.ones((1, self.decay.size)), powers[:-1])),
            axis=0)
        return self.drive_weight * sums, powers

    def convolve(self, z: np.ndarray) -> np.ndarray:
        """The noise of affine_map from a block (..., n, N) of noise
        increments, in place: z[..., j, :] += decay * z[..., j-1, :] for
        j = 1..n-1, every leading index (a path's macro steps) at once."""
        for j in range(1, z.shape[-2]):
            z[..., j, :] += self.decay * z[..., j - 1, :]
        return z

    @staticmethod
    def apply_map(coefficients: tuple, x: np.ndarray, z: np.ndarray,
                  v: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
        """(gains * x + z) + powers * v, in that order, for the coefficients
        (gains, powers) of affine_map, or rows of them; written into out
        when it is given."""
        gains, powers = coefficients
        out = np.multiply(gains, x, out=out)
        out += z
        out += powers * v
        return out

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
        if self.sin_op is None:
            for state in states:
                state += self.decay * v
                v = state
            matvec(self.mat, states, out=nodes)
            return states, nodes
        for state, node in zip(states, nodes):
            state += self.decay * v
            state += matvec(self.sin_op, np.sin(v_phys))
            v, v_phys = state, matvec(self.mat, state, out=node)
        return states, nodes


def step_frozen_fast(v: np.ndarray, model: ModelSpec, x: np.ndarray,
                     params: FrozenFastParams, stream: RngStream
                     ) -> np.ndarray:
    """One exponential-integrator step of the fast field frozen at slow
    state x: linear part and noise exact, the rest of g frozen."""
    grid = model.grid
    x = as_modal_field(x, grid.n_modes)
    v = as_modal_field(v, grid.n_modes)
    stepper = FastStepper(model.reaction_fast, grid, model.op2, params.h, 1.0)
    noise = stepper.noise(stream.normals(grid.n_modes)[None])
    states, _ = stepper.advance(v, synthesize(v, grid), stepper.drive(x),
                                noise)
    return states[0]


def _run_replicas(model: ModelSpec, x: np.ndarray, params: FrozenFastParams,
                  observable, streams: list) -> tuple:
    """Burn in, then return the per-batch time averages of the observable
    at each row of a stack x of S modal slow states, shape (S, N): shape
    (S, R, N_BATCHES) or (S, R, N_BATCHES, K), one row per stream, and the
    Gaussian companion's stationary modal law (mean, variance), mean shaped
    as x, when the batches average against it, else None.

    streams holds R streams per state, state-major, and the replicas of
    every state advance together as one (S*R, N) block in that order, each
    under its state's frozen drive.  Replica r of state s draws only from
    streams[s*R + r]: first its start, from its state's Gaussian
    companion's stationary law, then its steps, in chunks of at most
    DRAW_CHUNK_STEPS steps and, unless a single step holds more,
    DRAW_CHUNK_ROWS (step, state, replica) rows, which bounds the block's
    memory for any stack; the streams are concatenation-consistent, so
    these are the draws of one step at a time, and a state's rows are
    those of that state run alone.  The nodal blocks of a chunk's steps
    are kept, and after the chunk the observable is called once on the
    rows of its post-burn-in steps, ordered (step, state, replica): an
    (n*S*R, M) array.  It must return one value per row, shape (n*S*R,),
    or one vector per row, shape (n*S*R, K), and must not depend on a
    row's position unless it reshapes the rows to that order; the row
    count is checked on every call.  A replica whose field turns
    non-finite raises StateExplosionError at the end of its draw chunk,
    before the observable sees any row of that chunk, naming the replica
    and, in a stack of several states, its state.

    A step with a sine term (c_s != 0) also drives each replica's Gaussian
    companion (gaussian_companion) from its start with its own drive and
    noise rows, and the batches average observable(v) - observable(v_lin):
    per chunk the replicas advance and are observed, then the companions.
    The state and node stacks are allocated once per call and shared by
    the two.  A batch is summed in time order, so the batches depend on
    neither the replica count, the state count nor the chunk size.
    """
    h = params.h
    n_burn = int(round(params.t_burn / h))
    n_avg = N_BATCHES * max(1, int(math.ceil(params.t_avg / (N_BATCHES * h))))
    batch_len = n_avg // N_BATCHES
    n_modes, n_quad = model.grid.n_modes, model.grid.n_quad
    n_rep, n_rows = len(streams) // len(x), len(streams)
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
    # The replicas' chain first, then their companions'; they share the
    # state and node stacks, one chain at a time.
    companion = stepper.sin_op is not None
    chains = ((stepper, stepper.gaussian_companion()) if companion
              else (stepper,))
    # One drive row per stream: each replica under its state's drive.
    drive = stepper.drive(x).repeat(n_rep, axis=0)
    mean, variance = stepper.stationary_law(drive)
    initial = mean + np.sqrt(variance) * np.stack(
        [s.normals(n_modes) for s in streams])
    n_total = n_burn + n_avg
    chunk = min(n_total, DRAW_CHUNK_STEPS, DRAW_CHUNK_ROWS // n_rows or 1)
    state_stack = np.empty((chunk, n_rows, n_modes))
    node_stack = np.empty((chunk, n_rows, n_quad))
    v = np.array([initial] * len(chains))
    v_phys = np.array([matvec(stepper.mat, initial)] * len(chains))

    batches = []
    row_shape = open_sum = None
    n_open = 0  # steps summed in open_sum, the open batch
    for start in range(0, n_total, chunk):
        steps = min(chunk, n_total - start)
        noise = stepper.noise(np.stack([s.normals(steps * n_modes).reshape(
            steps, n_modes) for s in streams], axis=1))
        first = max(0, n_burn - start)
        n_seen = steps - first
        rows = n_seen * n_rows
        observed = []
        for j, chain in enumerate(chains):
            states, nodes = chain.advance(v[j], v_phys[j], drive, noise,
                                          nodes=node_stack[:steps],
                                          states=state_stack[:steps])
            v[j], v_phys[j] = states[-1], nodes[-1]
            # A non-finite field stays non-finite, so one check per chunk
            # finds it before any of its values reach the observable.
            finite = np.isfinite(nodes).all(axis=(0, -1))
            if not finite.all():
                s, r = divmod(int(np.argmin(finite)), n_rep)
                raise StateExplosionError(
                    (start + steps) * h, float(np.linalg.norm(x[s])),
                    float(np.linalg.norm(v[j][s * n_rep + r])), math.inf,
                    where=f" in frozen-fast replica {r}"
                    + (f" of state {s}" if len(x) > 1 else ""))
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
            observed.append(values.reshape((n_seen, n_rows) + row_shape))
        if not observed:
            continue
        values = observed[0] - observed[1] if companion else observed[0]
        # accumulate, not reduce: reduce pairs the terms when a step has
        # one value, and the sums would then depend on the replica count.
        # Every part but the last closes a batch: the first part fills the
        # open batch, the next ones are whole batches.
        for lo in (0, *range(batch_len - n_open, n_seen, batch_len)):
            part = values[lo:lo + batch_len - n_open]
            open_sum = np.add.accumulate(np.concatenate(
                (open_sum[None], part)) if n_open else part, axis=0)[-1]
            n_open = (n_open + len(part)) % batch_len
            if not n_open:
                batches.append(open_sum / batch_len)
    return (np.stack(batches, 1).reshape(len(x), n_rep, -1, *row_shape),
            (mean[::n_rep], variance) if companion else None)


def batch_std_error(batches: np.ndarray) -> np.ndarray:
    """Standard error of the mean of (S, R, B) or (S, R, B, K) batch means,
    per state: R replicas of B consecutive, AR(1)-correlated batches at
    each of S states, shape (S,) or (S, K), a state's row bit-equal to that
    state alone.  The lag-1 correlation rho, bias-corrected by
    (1 + 4 rho) / B and clipped to [0, 0.9], inflates the variance of the
    plain spread by (1+rho)/(1-rho).
    """
    n_rep, n_batches = batches.shape[1:3]
    plain = batches.std(axis=(1, 2), ddof=1) / math.sqrt(n_rep * n_batches)
    dev = batches - batches.mean(axis=2, keepdims=True)
    lagged = (dev[:, :, 1:] * dev[:, :, :-1]).sum(axis=(1, 2))
    spread = (dev * dev).sum(axis=(1, 2))
    rho = np.divide(lagged, spread, out=np.zeros_like(spread),
                    where=spread > 0)
    rho = np.clip(rho + (1.0 + 4.0 * rho) / n_batches, 0.0, 0.9)
    return plain * np.sqrt((1.0 + rho) / (1.0 - rho))


def companion_law(model: ModelSpec, x: np.ndarray, h: float,
                  law: tuple | None = None) -> tuple:
    """Nodal mean and standard deviation of the stationary law of the
    Gaussian companion of the step h frozen at the modal slow field x (its
    modal law, unless given: FastStepper.stationary_law): shape (M,) each,
    or for a stack x of shape (n, N) the means (n, M) and the same (M,)
    deviations.  The modes are independent, so node j is Gaussian with
    mean sum_k mean_k e_k(xi_j) and variance sum_k var_k e_k(xi_j)^2.
    """
    if law is None:
        stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
        law = stepper.stationary_law(stepper.drive(x))
    mean, variance = law
    mat = model.grid.sine_matrix
    return matvec(mat, mean), np.sqrt((mat * mat).dot(variance))


def estimate_invariant_average(model: ModelSpec, x, params: FrozenFastParams,
                               observable, master_seed: int,
                               key: tuple = (), gaussian_mean=None) -> tuple:
    """Time average of observable(v_phys) over [t_burn, t_burn + t_avg] of
    model's fast field frozen at slow state x, and its standard error; or,
    for a stack x of shape (S, N) and key a tuple of S keys, one per state,
    the averages and errors at each state, a row bit-equal to that state
    alone.  One state runs as a stack of one; an empty stack, or a key that
    is not one tuple per state, raises InvalidParameterError.

    The observable maps rows to rows: it is called on an (n, M) array of
    nodal fields, where a row is one (step, state, replica) triple, in that
    order (_run_replicas), and must return one value per row, shape (n,),
    or one vector per row, shape (n, K); any other shape raises
    InvalidParameterError.  It is called once per draw chunk on all of the
    chunk's averaged steps of all params.n_replicas replicas of every
    state, so it must not depend on n, nor on a row's position unless it
    reshapes the rows to that order.  The mean and standard error are
    floats or (K,) arrays accordingly, with a leading state axis for a
    stack.  Replicas use independent frozen_fast_noise streams derived from
    (master_seed, replica) and their state's trailing key; each starts in
    its Gaussian companion's stationary law.  The standard error comes from
    the correlated per-batch means (batch_std_error) and shrinks like
    1/sqrt(n_replicas * t_avg).

    A step with a sine term takes a control variate: the estimate is the
    mean of observable(v) - observable(v_lin), v_lin each replica's Gaussian
    companion on the same draws and from the same start, plus the caller's
    gaussian_mean(mean, variance), which such a step requires: the exact
    expectation of the observable under the companion's stationary modal
    law (FastStepper.stationary_law), mean shaped as x; without it such a
    step raises InvalidParameterError before any replica runs.  Any other
    step (the linear kind, or c_s = 0) is its own companion; its estimate
    is the plain mean.
    """
    x = as_modal_states(x, model.n_modes)
    # One state is a stack of one, its key a tuple of one key.
    xs, keys = x.reshape(-1, x.shape[-1]), (key,) if x.ndim == 1 else key
    # The set is {1} only for a non-empty tuple of key tuples.
    if len(keys) != len(xs) or {np.ndim(k) for k in keys} != {1}:
        raise InvalidParameterError(f"key must hold one key tuple per slow "
                                    f"state of a non-empty stack: got "
                                    f"{len(keys)} for {len(xs)} state(s)")
    if gaussian_mean is None and fast_coefficients(model.reaction_fast)[2]:
        raise InvalidParameterError(
            "a fast step with a sine term needs gaussian_mean")
    streams = [derive_stream(master_seed, replica, "frozen_fast_noise", k)
               for k in keys for replica in range(params.n_replicas)]
    batches, law = _run_replicas(model, xs, params, observable, streams)
    # Every state's batches pooled in one reduction, a state's mean summed
    # replica-major.
    shape = x.shape[:-1] + batches.shape[3:]
    mean = batches.reshape(len(xs), -1, *batches.shape[3:]).mean(axis=1)
    std_error = batch_std_error(batches)
    mean, std_error = mean.reshape(shape), std_error.reshape(shape)
    if law is not None:
        mean = mean + gaussian_mean(law[0].reshape(x.shape), law[1])
    if mean.ndim == 0:
        return float(mean), float(std_error)
    return mean, std_error
