"""Coupled slow-fast simulation and the block-frozen auxiliary processes.

The slow field advances by one exponential-Euler macro step per h_macro;
the fast field takes n_sub = ceil(h_macro / (ratio * eps)) substeps of an
exponential integrator per macro step, its OU plan on A2 - b_c absorbing the
1/eps drift and 1/sqrt(eps) noise scalings, so no step restriction comes
from the scale separation.

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
from .noise import derive_stream, make_plan
from .reactions import eval_b, eval_V, lyapunov_norms, truncate_b
from .spectral import (kahan_add, kahan_mean_vectors, mean_se, scalar_power,
                       synthesize)

__all__ = [
    "SlowFastTrajectory",
    "khasminskii_delta",
    "snap_block",
    "compute_rho0",
    "step_coupled",
    "simulate_slowfast",
    "path_functionals",
    "AuxiliaryResult",
    "build_auxiliary",
    "freezing_deviations",
    "block_freezing_errors",
]


@dataclass
class SlowFastTrajectory:
    """Path at the macro nodes plus recorded functionals and replay data."""

    times: np.ndarray             # (n_nodes,)
    u: np.ndarray                 # (n_nodes, N)
    v: np.ndarray                 # (n_nodes, N)
    n_sub: int
    trajectory_id: int
    fast_noise: np.ndarray | None = None   # (n_steps, n_sub, N) recorded draws
    slow_drift: np.ndarray | None = None   # (n_steps, N) per-step averaged drift


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


NOISE_CHUNK_STEPS = 16  # macro steps of noise drawn per stream at once


def _plans(model: ModelSpec, h_macro: float):
    """Substeps per macro step, the slow OU plan, the fast stepper, the
    trapezoid weights of the substep nodes j = 0..n_sub as an (n_sub + 1, 1)
    column, and an (n_sub + 1, M) buffer for the nodal fast field at those
    nodes."""
    if h_macro <= 0:
        raise InvalidParameterError("h_macro must be positive")
    n_sub = max(1, math.ceil(h_macro / (model.substep_ratio * model.epsilon)))
    h_sub = h_macro / n_sub
    plan_slow = make_plan(model.op1, h_macro, 1.0)
    stepper = FastStepper(model.reaction_fast, model.grid, model.op2, h_sub,
                          model.epsilon)
    weights = np.full((n_sub + 1, 1), 1.0 / n_sub)
    weights[0] = weights[-1] = 0.5 / n_sub
    v_nodes = np.empty((n_sub + 1, model.grid.n_quad))
    return n_sub, plan_slow, stepper, weights, v_nodes


def step_coupled(u: np.ndarray, v: np.ndarray, u_phys: np.ndarray,
                 v_phys: np.ndarray, t: float, model: ModelSpec,
                 h_macro: float, noise_slow: np.ndarray,
                 noise_fast: np.ndarray, plans: tuple) -> tuple:
    """Advance the pair (u, v), with nodal values (u_phys, v_phys), by one
    macro step from time t.

    The fast field takes n_sub exponential-integrator substeps, its linear
    part and noise exact and the rest of g(u, v)/eps explicit, with u held
    at the macro-step start.  The slow drift b_theta(t, u, .) is averaged
    along the fast substep path (trapezoid over the substep nodes): the
    fast field crosses its relaxation layer inside a single macro step, and
    sampling it at the left endpoint alone would turn that O(eps) layer
    into an O(h_macro) bias of the slow motion.

    plans is _plans(model, h_macro).  noise_slow, shape (N,), and
    noise_fast, shape (n_sub, N), are the step's noise increments, already
    scaled by the slow plan's and the fast stepper's noise_std.  Returns the
    new (u, v, u_phys, v_phys) and the averaged modal slow drift used for
    the step (the integrand of the drift functionals); the new v_phys is a
    row of the plans' node buffer, overwritten by the next step.  Nothing
    is checked here: the caller's explosion guard on the new state also
    catches a non-finite field.
    """
    n_sub, plan_slow, stepper, weights, v_nodes = plans
    grid = model.grid
    mat = grid.sine_matrix
    v_nodes[0] = v_phys
    # u is frozen over the substeps: the slow part of g once per macro step.
    states, _ = stepper.advance(v, v_nodes[0], stepper.drive(u_phys),
                                noise_fast, nodes=v_nodes[1:])
    v = states[-1]
    if model.theta > 0:
        drift = truncate_b(model.reaction_slow, model.theta, t, grid.nodes,
                           u_phys, v_nodes)
    else:
        drift = eval_b(model.reaction_slow, t, grid.nodes, u_phys, v_nodes)
    # Summed over the substep nodes in order, as a running sum would.
    f1_phys = np.add.reduce(weights * drift, axis=0)
    f1 = grid.quad_weight * mat.T.dot(f1_phys)
    u = plan_slow.decay * u + plan_slow.drift_weight * f1 + noise_slow
    return u, v, mat.dot(u), v_nodes[-1], f1


def simulate_slowfast(model: ModelSpec, master_seed: int, trajectory_id: int,
                      record_noise: bool = False,
                      record_drift: bool = False) -> SlowFastTrajectory:
    """Run one trajectory over [0, horizon], recording the path at macro
    nodes.

    Each stream's normals are drawn, and scaled into noise increments,
    NOISE_CHUNK_STEPS macro steps at a time; the streams are
    concatenation-consistent, so these are the draws of one substep at a
    time.  record_noise keeps the fast standard normals.  An explosion is
    reported at the macro node it reached, an element of times."""
    h = model.h_macro
    plans = _plans(model, h)
    # A horizon shorter than one macro step yields the initial state only.
    n_steps = int(round(model.horizon / h))
    n_sub, plan_slow, stepper = plans[:3]
    slow_stream = derive_stream(master_seed, trajectory_id, "slow_noise")
    fast_stream = derive_stream(master_seed, trajectory_id, "fast_noise")

    n = model.n_modes
    grid = model.grid
    times = np.arange(n_steps + 1) * h
    u_path = np.empty((n_steps + 1, n))
    v_path = np.empty((n_steps + 1, n))
    u_path[0] = model.u0
    v_path[0] = model.v0
    noise = np.empty((n_steps, n_sub, n)) if record_noise else None
    drifts = np.empty((n_steps, n)) if record_drift else None

    u, v = model.u0, model.v0
    u_phys, v_phys = synthesize(u, grid), synthesize(v, grid)
    # A finite state whose squared norm overflows trips the guard as
    # non-finite; the guard's report is the only message.
    with np.errstate(over="ignore"):
        for start in range(0, n_steps, NOISE_CHUNK_STEPS):
            steps = min(NOISE_CHUNK_STEPS, n_steps - start)
            xi_fast = fast_stream.normals(steps * n_sub * n).reshape(
                steps, n_sub, n)
            noise_fast = stepper.noise(xi_fast)
            noise_slow = plan_slow.noise_std * slow_stream.normals(
                steps * n).reshape(steps, n)
            if noise is not None:
                noise[start:start + steps] = xi_fast
            for k in range(steps):
                i = start + k
                u, v, u_phys, v_phys, f1 = step_coupled(
                    u, v, u_phys, v_phys, times[i], model, h, noise_slow[k],
                    noise_fast[k], plans)
                # np.linalg.norm's own formula for a 1-D float array.
                norm_u = math.sqrt(u.dot(u))
                norm_v = math.sqrt(v.dot(v))
                # Written so that a NaN norm also trips the guard.
                if not (norm_u + norm_v <= model.explosion_bound):
                    raise StateExplosionError(float(times[i + 1]), norm_u,
                                              norm_v, model.explosion_bound)
                if drifts is not None:
                    drifts[i] = f1
                u_path[i + 1] = u
                v_path[i + 1] = v
    return SlowFastTrajectory(
        times=times, u=u_path, v=v_path, n_sub=n_sub,
        trajectory_id=trajectory_id, fast_noise=noise, slow_drift=drifts,
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
    n_steps = traj.times.size - 1
    h = float(traj.times[1] - traj.times[0]) if n_steps else 0.0
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


@dataclass
class AuxiliaryResult:
    times: np.ndarray
    u_aux: np.ndarray             # piecewise-constant slow path at macro nodes
    v_aux: np.ndarray


def build_auxiliary(traj: SlowFastTrajectory, delta: float,
                    model: ModelSpec) -> AuxiliaryResult:
    """Re-simulate the fast path with the slow drift argument frozen at the
    last block boundary, driven by the identical fast noise increments.

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
    if traj.fast_noise is None:
        raise InvalidParameterError(
            "trajectory was recorded without fast noise; rerun with record_noise=True")
    n_steps = traj.times.size - 1
    h = float(traj.times[1] - traj.times[0])
    steps_per_block, _ = snap_block(delta, h)
    n_sub, _, stepper = _plans(model, h)[:3]
    if n_sub != traj.n_sub:
        raise InvalidParameterError(
            "substep layout mismatch: trajectory is not replayable under this model")

    mat = model.grid.sine_matrix
    noise = stepper.noise(traj.fast_noise).reshape(-1, model.n_modes)
    v_aux = traj.v.copy()
    for start in range(0, n_steps, steps_per_block):
        stop = min(start + steps_per_block, n_steps)
        if stop == start + 1:
            continue
        states, _ = stepper.advance(
            traj.v[start + 1], mat.dot(traj.v[start + 1]),
            stepper.drive(mat.dot(traj.u[start])),
            noise[(start + 1) * n_sub:stop * n_sub])
        replayed = v_aux[start + 2:stop + 1]
        replayed[...] = states[n_sub - 1::n_sub]
        # Only replayed nodes are checked: the path's passed its guard.
        finite = np.isfinite(replayed).all(axis=1)
        if not finite.all():
            first = start + 2 + int(np.argmin(finite))
            raise StateExplosionError(float(traj.times[first]),
                                      float(np.linalg.norm(traj.u[start])),
                                      float(np.linalg.norm(v_aux[first])),
                                      model.explosion_bound,
                                      where=" in the block-frozen replay")
    # Node i holds the snapshot at the start of its block.
    block_starts = np.arange(n_steps + 1) // steps_per_block * steps_per_block
    u_aux = traj.u[np.minimum(block_starts, n_steps)]
    return AuxiliaryResult(times=traj.times.copy(), u_aux=u_aux, v_aux=v_aux)


def freezing_deviations(traj: SlowFastTrajectory,
                        aux: AuxiliaryResult) -> tuple[np.ndarray, float]:
    """Squared slow deviation at each macro node, and the L2(0, T) squared
    fast deviation, of one path from its block-frozen replay."""
    if traj.times.shape != aux.times.shape:
        raise InvalidParameterError("trajectory/auxiliary grids mismatch")
    h = float(traj.times[1] - traj.times[0])
    return (np.sum((traj.u - aux.u_aux) ** 2, axis=1),
            h * float(np.sum((traj.v - aux.v_aux) ** 2)))


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
