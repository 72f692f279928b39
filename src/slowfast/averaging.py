"""Averaged slow drift, the averaged slow equation, and its oracles.

The averaged drift at slow state x is the stationary expectation of the
slow Nemytskii drift, truncated at model.theta, against the law of the
frozen fast field: Fbar(t, x) = E_mu^x [ analyze(b_theta(t, x(.), y(.))) ].
It is estimated by nested frozen-fast simulation, with the fast step's
Gaussian companion (the step without its sine term) as a control variate
whose averaged drift is exact; for the linear benchmark (b = lam,
g = a_c*rho - b_c*sigma) the stationary law is Gaussian with mean
a_c x_k / (alpha_{2,k} + b_c), which gives a closed-form oracle.  The
averaged equation is the coupled path's slow loop (coupled.slow_path) with
F(u, v) replaced by this drift.
"""

from __future__ import annotations

import numpy as np

from .coupled import slow_path
from .errors import InvalidParameterError
from .fast_dynamics import (FrozenFastParams, companion_law,
                            estimate_invariant_average)
from .model import ModelSpec
from .noise import derive_stream
from .reactions import (eval_b, fast_coefficients, gaussian_mean_b,
                        nemytskii_drift, truncate_b)
from .spectral import analyze, as_modal_field, synthesize

__all__ = [
    "estimate_Fbar",
    "companion_Fbar",
    "analytic_Fbar_linear",
    "averaged_mean_rates",
    "simulate_averaged",
]


# Points of the quadrature rule for the standard normal law in
# companion_Fbar: the trapezoid rule on [-8, 8] (the mass outside is below
# 1.3e-15).  Its integrand, the truncation remainder b - b_theta, has kinks
# in the fast variable (at b = 0, and at lam = 0 for lam |lam|), so no rule
# converges spectrally; at 65 points this one is within 2% of the shipped
# standard error of the rule of four times the points, mode by mode
# (test_averaging.py), and closer than 64-point Gauss-Hermite, which needs
# an eigensolver.
NORMAL_RULE_POINTS = 65


def normal_rule(n_points: int) -> tuple:
    """Points and weights (summing to 1) of the n_points trapezoid rule for
    the standard normal law on [-8, 8]."""
    points = np.linspace(-8.0, 8.0, n_points)
    weights = np.exp(-0.5 * points * points)
    return points, weights / weights.sum()


def companion_Fbar(t: float, x: np.ndarray, h: float,
                   model: ModelSpec) -> np.ndarray:
    """The averaged drift of the Gaussian companion of the frozen fast step
    h at the modal slow field x: analyze of E b_theta(t, x_j, V_j),
    V_j the companion's stationary nodal law (companion_law).  E b is
    closed form (gaussian_mean_b); the truncation remainder b - b_theta,
    of size theta b^2, takes one quadrature sum (normal_rule) per node.
    At c_s = 0 this is the averaged drift of the step itself."""
    x_phys = synthesize(x, model.grid)
    mean, std = companion_law(model, x, h)
    spec = model.reaction_slow
    drift = gaussian_mean_b(spec, x_phys, mean, std)
    if model.theta > 0:
        points, weights = normal_rule(NORMAL_RULE_POINTS)
        lam = mean + std * points[:, None]
        nodes = model.grid.nodes
        drift -= weights.dot(
            eval_b(spec, t, nodes, x_phys, lam)
            - truncate_b(spec, model.theta, t, nodes, x_phys, lam))
    return analyze(drift, model.grid)


def estimate_Fbar(t: float, x, params: FrozenFastParams, model: ModelSpec,
                  master_seed: int, trajectory_id: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Nested Monte Carlo estimate of the averaged drift at (t, x): the
    mean field and its std-error field.

    The slow reaction is truncated at model.theta, as on the coupled path.
    Replica r draws from the stream with spawn key (frozen_fast_noise, r,
    trajectory_id, step), step = round(t / model.h_macro): each path must
    pass its own id, and a t off the h_macro grid is rejected.

    A fast reaction with a sine term (c_s not None) takes a control
    variate: each replica drives its Gaussian companion on the same draws,
    and the estimate is mean(f(v) - f(v_lin)) + companion_Fbar, f the drift
    observable; the last term is exact.  At c_s = 0 the replica is its own
    companion, so companion_Fbar is returned, with standard error 0, and no
    replica is stepped.  The linear kind keeps the plain estimate.
    """
    step = int(round(t / model.h_macro))
    if abs(t / model.h_macro - step) > 1e-6:
        raise InvalidParameterError(f"t={t!r} is off the h_macro grid")
    x = as_modal_field(x, model.n_modes)
    c_s = fast_coefficients(model.reaction_fast)[2]
    if c_s == 0:
        mean = companion_Fbar(t, x, params.h, model)
        return mean, np.zeros_like(mean)
    x_phys = synthesize(x, model.grid)

    def drift_observable(v_phys):
        # (n, M) nodal rows -> (n, N) modal drifts, row by row.
        return analyze(
            nemytskii_drift(model.reaction_slow, model.theta, t, x_phys,
                            v_phys, model.grid),
            model.grid)

    companion = c_s is not None
    mean, std_error = estimate_invariant_average(
        model, x, params, drift_observable, master_seed,
        key=(trajectory_id, step), companion=companion)
    if companion:
        mean = mean + companion_Fbar(t, x, params.h, model)
    return np.asarray(mean, dtype=float), np.asarray(std_error, dtype=float)


def analytic_Fbar_linear(model: ModelSpec, t, x) -> np.ndarray:
    """Closed-form averaged drift a_c x_k / (alpha_{2,k} + b_c) for the
    linear benchmark, at one state x of shape (N,) or at each row of a
    stack of shape (n, N); a row is bit-equal to that state alone."""
    a_c, rates = _linear_fbar_factors(model)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[1] == model.n_modes:
        # Every row's finite check at once.
        as_modal_field(x.ravel())
    else:
        x = as_modal_field(x, model.n_modes)
    return a_c * x / rates


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
    a_c, rates = _linear_fbar_factors(model)
    return -model.op1.alphas + a_c / rates


def make_drift_fn(model: ModelSpec, params: FrozenFastParams,
                  master_seed: int, trajectory_id: int):
    """Averaged-drift callable: analytic oracle for the linear benchmark,
    slow-only evaluation when b ignores the fast variable, nested estimator
    (estimate_Fbar, keyed by trajectory_id, on the h_macro grid) otherwise.

    fn(t, u) returns the drift and its std-error field at one slow state
    (t a float, u of shape (N,)) or at a stack of them (t of shape (n,), u
    of shape (n, N)).  A row of a stack is bit-equal to that state alone:
    the exact modes evaluate the stack at once, the estimator one state at
    a time, since its nested streams are keyed by the step of t."""
    if model.is_linear_benchmark:
        def fn(t, u):
            drift = analytic_Fbar_linear(model, t, u)
            return drift, np.zeros_like(drift)
        return fn
    if not model.reaction_slow.depends_on_fast:
        zeros_phys = np.zeros(model.grid.n_quad)

        def fn(t, u):
            u_phys = synthesize(u, model.grid)
            drift = analyze(nemytskii_drift(model.reaction_slow, model.theta,
                                            t, u_phys, zeros_phys, model.grid),
                            model.grid)
            return drift, np.zeros_like(drift)
        return fn

    def fn(t, u):
        if np.ndim(u) == 1:
            return estimate_Fbar(t, u, params, model, master_seed,
                                 trajectory_id)
        means, ses = zip(*(estimate_Fbar(t_i, u_i, params, model,
                                         master_seed, trajectory_id)
                           for t_i, u_i in zip(np.asarray(t).tolist(), u)))
        return np.stack(means), np.stack(ses)
    return fn


def simulate_averaged(model: ModelSpec, params: FrozenFastParams,
                      master_seed: int, trajectory_id: int) -> np.ndarray:
    """Sample the averaged slow equation: slow_path forced by
    make_drift_fn's drift, on the id's auxiliary stream.  Returns the
    (n_steps + 1, N) path of slow coefficients; an explosion is reported
    "in the averaged equation"."""
    drift_fn = make_drift_fn(model, params, master_seed, trajectory_id)

    def forcing(i, t, u):
        return drift_fn(t, u)[0], 0.0
    return slow_path(model, derive_stream(master_seed, trajectory_id,
                                          "auxiliary"),
                     forcing, where=" in the averaged equation")
