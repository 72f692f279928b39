"""Averaged slow drift, the averaged slow equation, and its oracles.

The averaged drift at slow state x is the stationary expectation of the
slow Nemytskii drift, truncated at model.theta, against the law of the
frozen fast field: Fbar(t, x) = E_mu^x [ analyze(b_theta(t, x(.), y(.))) ].
It is estimated by nested frozen-fast simulation; for the linear benchmark
(b = lam, g = a_c*rho - b_c*sigma) the stationary law is Gaussian with mean
a_c x_k / (alpha_{2,k} + b_c), which gives a closed-form oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StateExplosionError
from .fast_dynamics import FrozenFastParams, estimate_invariant_average
from .model import ModelSpec
from .noise import RngStream, make_plan, ou_step
from .reactions import nemytskii_drift
from .spectral import analyze, as_modal_field, synthesize

__all__ = [
    "estimate_Fbar",
    "analytic_Fbar_linear",
    "averaged_mean_rates",
    "simulate_averaged",
    "AveragedTrajectory",
]


def estimate_Fbar(t: float, x, params: FrozenFastParams, model: ModelSpec,
                  master_seed: int = 0, trajectory_id: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Nested Monte Carlo estimate of the averaged drift at (t, x): the
    mean field and its std-error field.

    The slow reaction is truncated at model.theta, as on the coupled path.
    Replica r draws from the stream with spawn key (frozen_fast_noise, r,
    trajectory_id, step), step = round(t / model.h_macro): each path must
    pass its own id, and a t off the h_macro grid is rejected.
    """
    step = int(round(t / model.h_macro))
    if abs(t / model.h_macro - step) > 1e-6:
        raise InvalidParameterError(f"t={t!r} is off the h_macro grid")
    x = as_modal_field(x, model.n_modes)
    x_phys = synthesize(x, model.grid)
    theta = model.theta if model.theta > 0 else None

    def drift_observable(v_phys):
        # (n, M) nodal rows -> (n, N) modal drifts, row by row.
        return analyze(
            nemytskii_drift(model.reaction_slow, theta, t, x_phys, v_phys,
                            model.grid),
            model.grid)

    mean, std_error = estimate_invariant_average(
        model, x, params, drift_observable, master_seed,
        key=(trajectory_id, step))
    return np.asarray(mean, dtype=float), np.asarray(std_error, dtype=float)


def analytic_Fbar_linear(model: ModelSpec, t: float, x) -> np.ndarray:
    """Closed-form averaged drift a_c x_k / (alpha_{2,k} + b_c) for the
    linear benchmark."""
    a_c, rates = _linear_fbar_factors(model)
    return a_c * as_modal_field(x, model.n_modes) / rates


def _linear_fbar_factors(model: ModelSpec) -> tuple:
    """a_c and the per-mode rates alpha_{2,k} + b_c of the closed-form
    averaged drift a_c x_k / (alpha_{2,k} + b_c)."""
    if not model.is_linear_benchmark:
        raise InvalidParameterError(
            "analytic averaged drift requires linear_benchmark reactions")
    return (model.reaction_fast.param("a_c"),
            model.op2.alphas + model.reaction_fast.param("b_c"))


def averaged_mean_rates(model: ModelSpec) -> np.ndarray:
    """Per-mode mean-dynamics rates of the averaged equation for the linear
    benchmark: mu_k = -alpha_{1,k} + a_c/(alpha_{2,k} + b_c).  The noise has
    zero mean, so E<u_bar(T), e_k> = exp(mu_k T) u0_k exactly."""
    if not model.is_linear_benchmark:
        raise InvalidParameterError("mean rates require linear_benchmark reactions")
    a_c = model.reaction_fast.param("a_c")
    b_c = model.reaction_fast.param("b_c")
    return -model.op1.alphas + a_c / (model.op2.alphas + b_c)


@dataclass
class AveragedTrajectory:
    times: np.ndarray
    path: np.ndarray              # (n_nodes, N) slow coefficients


def make_drift_fn(model: ModelSpec, params: FrozenFastParams | None,
                  master_seed: int = 0, trajectory_id: int = 0):
    """Averaged-drift callable: analytic oracle for the linear benchmark,
    slow-only evaluation when b ignores the fast variable, nested estimator
    (estimate_Fbar, keyed by trajectory_id, on the h_macro grid) otherwise.

    fn(t, u) returns the drift and its std-error field at one slow state
    (t a float, u of shape (N,)) or at a stack of them (t of shape (n,), u
    of shape (n, N)).  A row of a stack is bit-equal to that state alone:
    the exact modes evaluate the stack at once, the estimator one state at
    a time, since its nested streams are keyed by the step of t."""
    if model.is_linear_benchmark:
        a_c, rates = _linear_fbar_factors(model)

        def fn(t, u):
            # analytic_Fbar_linear's arithmetic, with its factors hoisted.
            drift = a_c * u / rates
            return drift, np.zeros_like(drift)
        return fn
    if not model.reaction_slow.depends_on_fast:
        zeros_phys = np.zeros(model.grid.n_quad)
        theta = model.theta if model.theta > 0 else None

        def fn(t, u):
            u_phys = synthesize(u, model.grid)
            drift = analyze(nemytskii_drift(model.reaction_slow, theta, t,
                                            u_phys, zeros_phys, model.grid),
                            model.grid)
            return drift, np.zeros_like(drift)
        return fn
    if params is None:
        raise InvalidParameterError("the nested drift estimator requires params")

    def fn(t, u):
        if np.ndim(u) == 1:
            return estimate_Fbar(t, u, params, model, master_seed,
                                 trajectory_id)
        means, ses = zip(*(estimate_Fbar(t_i, u_i, params, model,
                                         master_seed, trajectory_id)
                           for t_i, u_i in zip(np.asarray(t).tolist(), u)))
        return np.stack(means), np.stack(ses)
    return fn


def simulate_averaged(model: ModelSpec, params: FrozenFastParams | None,
                      u0, T: float, h: float, stream: RngStream,
                      master_seed: int = 0, trajectory_id: int = 0
                      ) -> AveragedTrajectory:
    """Sample the averaged slow equation on the macro grid by exponential
    Euler, the drift (make_drift_fn's) frozen over each step.

    A new state whose norm is non-finite or above model.explosion_bound
    raises StateExplosionError at its node, as on the coupled path."""
    if T < 0:
        raise InvalidParameterError("T must be nonnegative")
    if h <= 0:
        raise InvalidParameterError("h must be positive")
    u = as_modal_field(u0, model.n_modes)
    n_steps = int(round(T / h)) if T > 0 else 0
    times = np.arange(n_steps + 1) * h
    path = np.empty((n_steps + 1, model.n_modes))
    path[0] = u
    drift_fn = make_drift_fn(model, params, master_seed, trajectory_id)
    plan = make_plan(model.op1, h, 1.0) if n_steps else None
    # As on the coupled path: an overflowing squared norm trips the guard
    # without a warning of its own.
    with np.errstate(over="ignore"):
        for i in range(n_steps):
            drift, _ = drift_fn(float(times[i]), u)
            u = ou_step(u, plan, drift, stream)
            norm_u = math.sqrt(u.dot(u))
            # Written so that a NaN norm also trips the guard.
            if not (norm_u <= model.explosion_bound):
                raise StateExplosionError(float(times[i + 1]), norm_u, 0.0,
                                          model.explosion_bound,
                                          where=" in the averaged equation")
            path[i + 1] = u
    return AveragedTrajectory(times=times, path=path)
