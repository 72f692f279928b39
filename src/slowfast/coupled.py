"""Coupled slow-fast simulation and the block-frozen auxiliary processes.

The slow field advances by one exponential-Euler macro step per h_macro in
slow_path, the one slow loop, which the averaged equation shares with a
drift of its own; on the coupled path, the fast field takes model.n_sub
substeps of at most ratio * eps of an exponential integrator per macro
step (step_coupled), its OU plan on A2 - b_c absorbing the 1/eps drift and
1/sqrt(eps) noise scalings, so no step restriction comes from the scale
separation.  Without a sine term in g those substeps are exact OU steps
under a drive frozen over the macro step, and compose into one affine map
per macro step, whose noise part is convolved once for the whole path.
What the paths of a model share (the fast stepper, the trapezoid weights,
the affine map, the slow OU plan) is made once per model
(ModelSpec.coupled_plans, ModelSpec.slow_plan); each path writes only
buffers of its own.

The auxiliary pair (u_aux, v_aux) freezes the slow argument of the fast
drift on blocks of length delta and replays the identical fast noise
increments, which makes the comparison with the original path pathwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .fast_dynamics import FastStepper
from .model import ModelSpec
from .noise import RngStream, derive_stream
from .reactions import eval_V, lyapunov_norms, nemytskii_drift
from .spectral import (kahan_mean_vectors, kahan_totals, matvec, mean_se,
                       scalar_power, synthesize)

__all__ = [
    "SlowFastTrajectory",
    "CoupledPlans",
    "khasminskii_delta",
    "snap_block",
    "compute_rho0",
    "slow_path",
    "step_coupled",
    "simulate_slowfast",
    "path_functionals",
    "build_auxiliary",
    "freezing_deviations",
    "block_freezing_errors",
]


@dataclass
class SlowFastTrajectory:
    """Path at the macro nodes model.times, with the fast normals that drove
    it (for the block-frozen replay) and each step's averaged slow drift."""

    u: np.ndarray                 # (n_nodes, N)
    v: np.ndarray                 # (n_nodes, N)
    trajectory_id: int
    fast_noise: np.ndarray        # (n_steps, n_sub, N) standard normals
    slow_drift: np.ndarray        # (n_steps, N) per-step averaged drift


def khasminskii_delta(epsilon: float, lambda_exp: float, c_const: float) -> float:
    """Block-length schedule (2/c) * eps * |ln eps|^(lambda/2).

    Along any eps -> 0 sequence the block length shrinks while the number of
    fast relaxation times per block delta/eps grows.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameterError(
            f"epsilon must be in (0,1) for the block schedule, got {epsilon}")
    if c_const <= 0:
        raise InvalidParameterError("c_const must be positive")
    return (2.0 / c_const) * epsilon * abs(math.log(epsilon)) ** (lambda_exp / 2.0)


def snap_block(delta: float, h: float) -> tuple[int, float]:
    """Whole macro steps per block of length delta, and the snapped length."""
    steps_per_block = max(1, int(round(delta / h)))
    return steps_per_block, steps_per_block * h


def compute_rho0(s: float, t: float, beta: float, gamma1_star: float) -> float:
    """Increment modulus (ln(t/s))^2 + (t-s)^beta + (t-s)^(2*gamma1_star)."""
    if s <= 0:
        raise InvalidParameterError("s must be positive (log term diverges at 0)")
    if t < s:
        raise InvalidParameterError("need s <= t")
    dt = t - s
    return math.log(t / s) ** 2 + dt ** beta + dt ** (2.0 * gamma1_star)


class CoupledPlans(NamedTuple):
    """What every coupled path of a model reads besides its noise, made
    once per model (ModelSpec.coupled_plans): the substeps per macro step,
    the fast stepper, the trapezoid weights of the substep nodes
    j = 0..n_sub and the substeps' affine map (FastStepper.affine_map;
    None for a step with a sine term).  Nothing here is written after it
    is made.  for_path adds the buffers that step_coupled writes, made per
    path, so no state crosses paths: the (n_sub + 1, M) nodal fast field
    at the substep nodes and the (n_sub, N) modal states after each
    substep."""

    n_sub: int
    stepper: FastStepper
    weights: np.ndarray
    affine: tuple | None
    v_nodes: np.ndarray | None = None
    states: np.ndarray | None = None

    @classmethod
    def build(cls, model: ModelSpec) -> "CoupledPlans":
        n_sub = model.n_sub
        stepper = FastStepper(model.reaction_fast, model.grid, model.op2,
                              model.h_macro / n_sub, model.epsilon)
        weights = np.full(n_sub + 1, 1.0 / n_sub)
        weights[0] = weights[-1] = 0.5 / n_sub
        return cls(n_sub, stepper, weights, stepper.affine_map(n_sub))

    def for_path(self) -> "CoupledPlans":
        """These plans with fresh buffers for one path."""
        n_quad, n_modes = self.stepper.mat.shape
        return self._replace(v_nodes=np.empty((self.n_sub + 1, n_quad)),
                             states=np.empty((self.n_sub, n_modes)))

    def increments(self, xi: np.ndarray) -> np.ndarray:
        """The noise input of step_coupled from a path's standard normals
        (n_steps, n_sub, N): the scaled increments, convolved along the
        substep axis when the substeps take the affine map."""
        increments = self.stepper.noise(xi)
        return (increments if self.affine is None
                else self.stepper.convolve(increments))


def slow_path(model: ModelSpec, stream: RngStream, forcing,
              where: str = "") -> np.ndarray:
    """The (n_steps + 1, N) slow path from model.u0 on model.times by
    exponential Euler (model.slow_plan), the drift frozen over each step;
    each new state is written into its row of the path, and forcing sees
    it there.

    forcing(i, t, u) returns step i's modal drift and the norm of the field
    that moves with u (0.0 if none does).  The stream's normals are drawn
    for the whole path at once: the same numbers as one step at a time.  A
    new state with |u| + |v| non-finite or above model.explosion_bound
    raises StateExplosionError at its node, with where in its message.
    """
    n_steps = model.n_steps
    times = model.times.tolist()
    plan = model.slow_plan
    decay, drift_weight = plan.decay, plan.drift_weight
    noise = plan.noise_std * stream.normals(
        n_steps * model.n_modes).reshape(n_steps, model.n_modes)
    path = np.empty((n_steps + 1, model.n_modes))
    path[0] = u = model.u0
    forced = np.empty(model.n_modes)
    # A finite state whose squared norm overflows trips the guard as
    # non-finite; the guard's report is the only message.
    with np.errstate(over="ignore"):
        for i in range(n_steps):
            f, norm_v = forcing(i, times[i], u)
            # decay * u + drift_weight * f + noise[i], in that order,
            # written into the path's next row.
            u = np.multiply(decay, u, out=path[i + 1])
            u += np.multiply(drift_weight, f, out=forced)
            u += noise[i]
            # np.linalg.norm's own formula for a 1-D float array.
            norm_u = math.sqrt(u.dot(u))
            # Written so that a NaN norm also trips the guard.
            if not (norm_u + norm_v <= model.explosion_bound):
                raise StateExplosionError(times[i + 1], norm_u, norm_v,
                                          model.explosion_bound, where=where)
    return path


def step_coupled(v: np.ndarray, u: np.ndarray, v_phys: np.ndarray,
                 model: ModelSpec, noise_fast: np.ndarray,
                 plans: CoupledPlans) -> tuple:
    """Advance the fast field v, with nodal values v_phys, over one macro
    step, the slow field held at u.

    The fast field takes n_sub exponential-integrator substeps, its linear
    part and noise exact and the rest of g(u, v)/eps explicit.  Without a
    sine term they are exact OU steps under a drive frozen over the macro
    step, and take one affine map (FastStepper.affine_map) instead of the
    recursion.  The slow drift b_theta(u, .) is averaged along the fast
    substep path (trapezoid over the substep nodes): the fast field
    crosses its relaxation layer inside a single macro step, and sampling
    it at the left endpoint alone would turn that O(eps) layer into an
    O(h_macro) bias of the slow motion.  The fast stepper's drive reads u,
    the slow drift its nodal values, and the drift is projected as
    grid.analysis_matrix @ (weights @ b).

    plans is model.coupled_plans.for_path().  noise_fast, shape
    (n_sub, N), is the step's rows of plans.increments(xi): noise
    increments already scaled by the fast stepper's noise_std, and
    convolved for the affine map.  Returns the new (v, v_phys) and the
    averaged modal slow drift of the step, the forcing of slow_path; the
    new v and v_phys are rows of the plans' buffers, overwritten by the
    next step.  Nothing is checked here: b_theta is nemytskii_drift, which
    checks nothing, since the model validated the reaction and theta,
    and slow_path's explosion guard on the new state also catches a
    non-finite field.  With the affine map the step makes 9 numpy calls
    at any n_sub, the map's 4 among them, besides its reaction (none for
    the linear kind, whose b is the nodal fast field itself).  A macro
    step of the linear benchmark, slow update included, takes about
    13 us at n_sub = 1 and 21 us at n_sub = 13, against 16 us and 25 us
    with plans made per path and checked reactions (best of in-process
    runs on one core of a shared 2-vCPU x86-64 VM).
    """
    n_sub, stepper, weights, affine, v_nodes, states = plans
    u_phys = stepper.mat.dot(u)
    v_nodes[0] = v_phys
    # u is frozen over the substeps: the slow part of g once per macro step.
    if affine is None:
        stepper.advance(v, v_nodes[0], stepper.drive(u), noise_fast,
                        nodes=v_nodes[1:], states=states)
    else:
        stepper.apply_map(affine, u, noise_fast, v, out=states)
        # matvec's stacked product, written into the node buffer.
        np.matmul(stepper.mat, states[..., None], out=v_nodes[1:, :, None])
    drift = nemytskii_drift(model.reaction_slow, model.theta, u_phys,
                            v_nodes)
    return (states[-1], v_nodes[-1],
            model.grid.analysis_matrix.dot(weights.dot(drift)))


def simulate_slowfast(model: ModelSpec, master_seed: int,
                      trajectory_id: int) -> SlowFastTrajectory:
    """Run one trajectory over [0, horizon]: slow_path on the id's
    slow_noise stream, forced by step_coupled's averaged drift; records the
    path at macro nodes, the fast standard normals (drawn for the whole
    path at once) and each step's averaged slow drift."""
    plans = model.coupled_plans.for_path()
    n_steps = model.n_steps
    n = model.n_modes
    fast_noise = derive_stream(master_seed, trajectory_id, "fast_noise"
                               ).normals(n_steps * plans.n_sub * n).reshape(
                                   n_steps, plans.n_sub, n)
    increments = plans.increments(fast_noise)
    v_path = np.empty((n_steps + 1, n))
    v_path[0] = model.v0
    drifts = np.empty((n_steps, n))
    v_phys = synthesize(model.v0, model.grid)

    def forcing(i, t, u):
        nonlocal v_phys
        v, v_phys, drifts[i] = step_coupled(v_path[i], u, v_phys, model,
                                            increments[i], plans)
        v_path[i + 1] = v
        return drifts[i], math.sqrt(v.dot(v))

    u_path = slow_path(model, derive_stream(master_seed, trajectory_id,
                                            "slow_noise"), forcing)
    return SlowFastTrajectory(
        u=u_path, v=v_path, trajectory_id=trajectory_id,
        fast_noise=fast_noise, slow_drift=drifts,
    )


def path_functionals(traj: SlowFastTrajectory, model: ModelSpec) -> dict:
    """The Lyapunov-type functionals of one path at its macro nodes, with
    each L^p norm taken over all nodes at once:

    - v_integral: left-endpoint integral of V(u, v) dt, V at each node but
      the last, Kahan-summed in node order;
    - sup_u: max over the nodes of |u|_{L^{4 m1}}^{4 m1};
    - sup_v: max over the nodes of |v|_{L^{q_bar}}^{q_bar};
    - vbar_proxy: left-endpoint integral of c_V (1 + |u|_{L^{4 m1}}^{4 m1}).

    Every root and power is the scalar one of its node (scalar_power), so
    each node's values are bit-equal to those of the node alone.
    """
    grid = model.grid
    lyap = model.lyapunov
    p_u = 4.0 * lyap.m1
    q_bar = lyap.q_bar
    if p_u <= 0 or q_bar <= 0:
        raise InvalidParameterError(
            "the path functionals need m1 > 0 and q_bar > 0")
    # q_bar is the larger of V's two v orders, 4 m2 and 2 kappa1 m1.
    q_index = 1 if q_bar == 4.0 * lyap.m2 else 2
    h = model.h_macro
    # (n_nodes, M) nodal blocks; each row is bit-equal to a 1-D synthesize.
    u_phys = synthesize(traj.u, grid)
    v_phys = synthesize(traj.v, grid)
    norms = lyapunov_norms(u_phys, v_phys, lyap, grid)
    u_terms = scalar_power(norms[0], p_u).tolist()
    # The maxima a running max from 0.0 would take, in node order.
    sup_u = max([0.0, *u_terms])
    sup_v = max([0.0, *scalar_power(norms[q_index], q_bar).tolist()])
    values = eval_V(u_phys[:-1], v_phys[:-1], lyap, grid,
                    tuple(None if norm is None else norm[:-1]
                          for norm in norms))
    proxy_weight = h * lyap.c_V
    v_int = kahan_totals(h * value for value in values.tolist())[-1]
    proxy = kahan_totals(proxy_weight * (1.0 + u_term)
                         for u_term in u_terms[:-1])[-1]
    return {"v_integral": v_int, "sup_u": sup_u, "sup_v": sup_v,
            "vbar_proxy": proxy}


def build_auxiliary(traj: SlowFastTrajectory, delta: float,
                    model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Re-simulate the fast path with the slow drift argument frozen at the
    last block boundary, driven by the identical fast noise increments;
    returns (u_aux, v_aux), u_aux the path's u at each node's block start.

    The block length is snapped to a whole number of macro steps; each block
    restarts from the true fast state at its left endpoint.  A block's first
    macro step freezes u where the path's own step does and takes the same
    noise, so it is the path's own step, bit for bit: v_aux starts as a copy
    of the path, and only the later steps of a block are replayed, from the
    path's state after its first (a block of one macro step replays
    nothing).  The blocks are independent, so they replay together, one
    row per block of an (n_blocks, N) stack: the full blocks as one group
    and a shorter last block as a second.  A step with a sine term replays
    a group's in-block substeps in one FastStepper.advance; without one,
    each in-block macro step is one application, to every block at once,
    of the last row of the substeps' affine map, the row the path's own
    step ends on, so replaying an unchanged u reproduces the path bit for
    bit at any n_sub.  A row is bit-equal to its block replayed alone:
    advance's stacked products are matvec's row-exact ones and apply_map
    is elementwise.  A replay that turns non-finite raises
    StateExplosionError at the first such node, checked once after the
    replay.
    """
    if not delta > 0:
        raise InvalidParameterError("delta must be positive")
    n_steps = model.n_steps
    n_modes = model.n_modes
    steps_per_block, _ = snap_block(delta, model.h_macro)
    plans = model.coupled_plans
    n_sub, stepper, affine = plans.n_sub, plans.stepper, plans.affine
    if traj.fast_noise.shape[:2] != (n_steps, n_sub):
        raise InvalidParameterError(
            "substep layout mismatch: trajectory is not replayable under this model")

    increments = plans.increments(traj.fast_noise)
    if affine is not None:
        # A macro step's end state: the map's last row, the last column of
        # the convolved noise.
        last = (affine[0][-1], affine[1][-1])
    v_aux = traj.v.copy()
    n_full, short = divmod(n_steps, steps_per_block)
    # (first step, blocks, steps per block): the full blocks, then the
    # shorter last one.
    groups = ((0, n_full, steps_per_block),
              (n_full * steps_per_block, 1, short))
    # A replay that overflows is reported by the check below alone.
    with np.errstate(over="ignore", invalid="ignore"):
        for first, n_blocks, length in groups:
            if n_blocks == 0 or length < 2:
                continue
            stop = first + n_blocks * length
            # Views with one row per block: its nodes after each of its
            # steps, its frozen u and its steps' increments.
            blocks = v_aux[first + 1:stop + 1].reshape(n_blocks, length,
                                                       n_modes)
            frozen = traj.u[first:stop:length]
            noise = increments[first:stop].reshape(n_blocks, length, n_sub,
                                                   n_modes)
            if affine is None:
                start = blocks[:, 0]
                # The in-block substeps along the first axis.
                states, _ = stepper.advance(
                    start, matvec(stepper.mat, start), stepper.drive(frozen),
                    noise[:, 1:].reshape(n_blocks, -1, n_modes).swapaxes(0, 1))
                blocks[:, 1:] = states[n_sub - 1::n_sub].swapaxes(0, 1)
            else:
                for j in range(1, length):
                    stepper.apply_map(last, frozen, noise[:, j, -1],
                                      blocks[:, j - 1], out=blocks[:, j])
        # The path's own nodes passed its guard, so the first non-finite
        # node is a replayed one.
        finite = np.isfinite(v_aux).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            start = (bad - 1) // steps_per_block * steps_per_block
            raise StateExplosionError(float(model.times[bad]),
                                      float(np.linalg.norm(traj.u[start])),
                                      float(np.linalg.norm(v_aux[bad])),
                                      model.explosion_bound,
                                      where=" in the block-frozen replay")
    # Node i holds the snapshot at the start of its block.
    nodes = np.arange(len(v_aux))
    return traj.u[nodes // steps_per_block * steps_per_block], v_aux


def freezing_deviations(traj: SlowFastTrajectory, aux: tuple,
                        model: ModelSpec) -> tuple[np.ndarray, float]:
    """Squared slow deviation at each macro node, and the L2(0, T) squared
    fast deviation, of one path from its block-frozen replay
    aux = build_auxiliary(traj, delta, model)."""
    u_aux, v_aux = aux
    return (np.sum((traj.u - u_aux) ** 2, axis=1),
            model.h_macro * float(np.sum((traj.v - v_aux) ** 2)))


def block_freezing_errors(slow_sq: list, fast_dev: list
                          ) -> tuple[float, float, float, float]:
    """Ensemble reduction of per-path freezing deviations, in path order:
    the sup over macro nodes of the mean squared slow deviation with its
    standard error at the worst node, then the mean and standard error of
    the fast deviation.  NaN for an empty ensemble."""
    if slow_sq:
        node_means = kahan_mean_vectors(slow_sq)
        worst = int(np.argmax(node_means))
        sup_mean = float(node_means[worst])
        _, slow_se = mean_se([float(s[worst]) for s in slow_sq])
    else:
        sup_mean = slow_se = math.nan
    fast_mean, fast_se = mean_se(fast_dev)
    return sup_mean, slow_se, fast_mean, fast_se
