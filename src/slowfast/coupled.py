"""Coupled slow-fast simulation and the block-frozen auxiliary processes.

The slow field advances by one exponential-Euler macro step per h_macro in
slow_path, the one slow loop, which the averaged equation shares with a
drift of its own; on the coupled path, the fast field takes model.n_sub
substeps of at most ratio * eps of an exponential integrator per macro
step (step_coupled), its OU plan on A2 - b_c absorbing the 1/eps drift and
1/sqrt(eps) noise scalings, so no step restriction comes from the scale
separation.

The auxiliary pair (u_aux, v_aux) freezes the slow argument of the fast
drift on blocks of length delta and replays the identical fast noise
increments, which makes the comparison with the original path pathwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .fast_dynamics import FastStepper
from .model import ModelSpec
from .noise import RngStream, derive_stream, make_plan
from .reactions import eval_b, eval_V, lyapunov_norms, truncate_b
from .spectral import (kahan_add, kahan_mean_vectors, mean_se, scalar_power,
                       synthesize)

__all__ = [
    "SlowFastTrajectory",
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


def _plans(model: ModelSpec):
    """Substeps per macro step, the fast stepper, the trapezoid weights of
    the substep nodes j = 0..n_sub as an (n_sub + 1, 1) column, and an
    (n_sub + 1, M) buffer for the nodal fast field at those nodes."""
    n_sub = model.n_sub
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2,
                          model.h_macro / n_sub, model.epsilon)
    weights = np.full((n_sub + 1, 1), 1.0 / n_sub)
    weights[0] = weights[-1] = 0.5 / n_sub
    v_nodes = np.empty((n_sub + 1, model.grid.n_quad))
    return n_sub, stepper, weights, v_nodes


def slow_path(model: ModelSpec, stream: RngStream, forcing,
              where: str = "") -> np.ndarray:
    """The (n_steps + 1, N) slow path from model.u0 on model.times by
    exponential Euler, the drift frozen over each step.

    forcing(i, t, u) returns step i's modal drift and the norm of the field
    that moves with u (0.0 if none does).  The stream's normals are drawn
    for the whole path at once: the same numbers as one step at a time.  A
    new state with |u| + |v| non-finite or above model.explosion_bound
    raises StateExplosionError at its node, with where in its message.
    """
    n_steps = model.n_steps
    times = model.times
    plan = make_plan(model.op1, model.h_macro, 1.0)
    noise = plan.noise_std * stream.normals(
        n_steps * model.n_modes).reshape(n_steps, model.n_modes)
    path = np.empty((n_steps + 1, model.n_modes))
    path[0] = u = model.u0
    # A finite state whose squared norm overflows trips the guard as
    # non-finite; the guard's report is the only message.
    with np.errstate(over="ignore"):
        for i in range(n_steps):
            f, norm_v = forcing(i, float(times[i]), u)
            u = plan.decay * u + plan.drift_weight * f + noise[i]
            # np.linalg.norm's own formula for a 1-D float array.
            norm_u = math.sqrt(u.dot(u))
            # Written so that a NaN norm also trips the guard.
            if not (norm_u + norm_v <= model.explosion_bound):
                raise StateExplosionError(float(times[i + 1]), norm_u,
                                          norm_v, model.explosion_bound,
                                          where=where)
            path[i + 1] = u
    return path


def step_coupled(v: np.ndarray, u_phys: np.ndarray, v_phys: np.ndarray,
                 t: float, model: ModelSpec, noise_fast: np.ndarray,
                 plans: tuple) -> tuple:
    """Advance the fast field v, with nodal values v_phys, over one macro
    step from time t, the slow field held at its nodal values u_phys.

    The fast field takes n_sub exponential-integrator substeps, its linear
    part and noise exact and the rest of g(u, v)/eps explicit.  The slow
    drift b_theta(t, u, .) is averaged along the fast substep path
    (trapezoid over the substep nodes): the fast field crosses its
    relaxation layer inside a single macro step, and sampling it at the
    left endpoint alone would turn that O(eps) layer into an O(h_macro)
    bias of the slow motion.

    plans is _plans(model).  noise_fast, shape (n_sub, N), is the step's
    noise increments, already scaled by the fast stepper's noise_std.
    Returns the new (v, v_phys) and the averaged modal slow drift of the
    step, the forcing of slow_path; the new v_phys is a row of the plans'
    node buffer, overwritten by the next step.  Nothing is checked here:
    slow_path's explosion guard on the new state also catches a
    non-finite field.
    """
    n_sub, stepper, weights, v_nodes = plans
    grid = model.grid
    v_nodes[0] = v_phys
    # u is frozen over the substeps: the slow part of g once per macro step.
    states, _ = stepper.advance(v, v_nodes[0], stepper.drive(u_phys),
                                noise_fast, nodes=v_nodes[1:])
    if model.theta > 0:
        drift = truncate_b(model.reaction_slow, model.theta, t, grid.nodes,
                           u_phys, v_nodes)
    else:
        drift = eval_b(model.reaction_slow, t, grid.nodes, u_phys, v_nodes)
    # Summed over the substep nodes in order, as a running sum would.
    f1_phys = np.add.reduce(weights * drift, axis=0)
    return (states[-1], v_nodes[-1],
            grid.quad_weight * grid.sine_matrix.T.dot(f1_phys))


def simulate_slowfast(model: ModelSpec, master_seed: int,
                      trajectory_id: int) -> SlowFastTrajectory:
    """Run one trajectory over [0, horizon]: slow_path on the id's
    slow_noise stream, forced by step_coupled's averaged drift; records the
    path at macro nodes, the fast standard normals (drawn for the whole
    path at once) and each step's averaged slow drift."""
    plans = _plans(model)
    n_sub, stepper = plans[:2]
    n_steps = model.n_steps
    n = model.n_modes
    mat = model.grid.sine_matrix
    fast_noise = derive_stream(master_seed, trajectory_id, "fast_noise"
                               ).normals(n_steps * n_sub * n).reshape(
                                   n_steps, n_sub, n)
    increments = stepper.noise(fast_noise)
    v_path = np.empty((n_steps + 1, n))
    v_path[0] = model.v0
    drifts = np.empty((n_steps, n))
    v_phys = synthesize(model.v0, model.grid)

    def forcing(i, t, u):
        nonlocal v_phys
        v, v_phys, drifts[i] = step_coupled(v_path[i], mat.dot(u), v_phys, t,
                                            model, increments[i], plans)
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
    v_int = v_comp = proxy = proxy_comp = 0.0
    for value, u_term in zip(values.tolist(), u_terms):
        v_int, v_comp = kahan_add(v_int, v_comp, h * value)
        proxy, proxy_comp = kahan_add(proxy, proxy_comp,
                                      h * lyap.c_V * (1.0 + u_term))
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
    nothing).  A replay that turns non-finite raises StateExplosionError at
    the first such node.
    """
    if not delta > 0:
        raise InvalidParameterError("delta must be positive")
    n_steps = model.n_steps
    steps_per_block, _ = snap_block(delta, model.h_macro)
    n_sub, stepper = _plans(model)[:2]
    if traj.fast_noise.shape[:2] != (n_steps, n_sub):
        raise InvalidParameterError(
            "substep layout mismatch: trajectory is not replayable under this model")

    mat = model.grid.sine_matrix
    noise = stepper.noise(traj.fast_noise).reshape(-1, model.n_modes)
    v_aux = traj.v.copy()
    # The state and node stacks of the longest replay, allocated once.
    n_replay = max(0, min(steps_per_block, n_steps) - 1) * n_sub
    state_stack = np.empty((n_replay, model.n_modes))
    node_stack = np.empty((n_replay, model.grid.n_quad))
    for start in range(0, n_steps, steps_per_block):
        stop = min(start + steps_per_block, n_steps)
        if stop == start + 1:
            continue
        n = (stop - start - 1) * n_sub
        states, _ = stepper.advance(
            traj.v[start + 1], mat.dot(traj.v[start + 1]),
            stepper.drive(mat.dot(traj.u[start])),
            noise[(start + 1) * n_sub:stop * n_sub],
            nodes=node_stack[:n], states=state_stack[:n])
        replayed = v_aux[start + 2:stop + 1]
        replayed[...] = states[n_sub - 1::n_sub]
        # Only replayed nodes are checked: the path's passed its guard.
        finite = np.isfinite(replayed).all(axis=1)
        if not finite.all():
            first = start + 2 + int(np.argmin(finite))
            raise StateExplosionError(float(model.times[first]),
                                      float(np.linalg.norm(traj.u[start])),
                                      float(np.linalg.norm(v_aux[first])),
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
