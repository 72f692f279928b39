"""Averaged slow drift, the averaged slow equation, and its oracles.

The averaged drift at slow state x is the stationary expectation of the
slow Nemytskii drift, truncated at model.theta, against the law of the
frozen fast field: Fbar(t, x) = E_mu^x [ analyze(b_theta(x(.), y(.))) ].
estimate_Fbar alone decides how it is computed, at one state or a stack:
exactly, as the averaged drift of the fast step's Gaussian companion (the
step without its sine term), when b ignores the fast variable or c_s = 0;
otherwise by nested frozen-fast simulation, with that companion as a
control variate when the step has a sine term.  For the linear benchmark
(b = lam, g = a_c*rho - b_c*sigma) the stationary law is Gaussian with
mean a_c x_k / (alpha_{2,k} + b_c), which gives a closed-form oracle, the
drift of make_drift_fn.  The averaged equation is the coupled path's slow
loop (coupled.slow_path) with F(u, v) replaced by this drift.
"""

from __future__ import annotations

import numpy as np

from .coupled import slow_path
from .errors import InvalidParameterError
from .fast_dynamics import (FrozenFastParams, companion_law,
                            estimate_invariant_average)
from .model import ModelSpec
from .noise import derive_stream
from .reactions import (fast_coefficients, gaussian_mean_b, nemytskii_drift,
                        truncate_b)
from .spectral import analyze, as_modal_states, synthesize

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


def companion_Fbar(x: np.ndarray, h: float, model: ModelSpec,
                   law: tuple | None = None) -> np.ndarray:
    """The averaged drift of the Gaussian companion of the frozen fast step
    h at the modal slow field x, or at each row of a stack (n, N) of them:
    analyze of E b_theta(x_j, V_j), V_j the companion's stationary nodal
    law (companion_law, from its modal law when given).  E b is closed form
    (gaussian_mean_b); the truncation remainder b - b_theta, of size
    theta b^2, takes one quadrature sum (normal_rule) per node, b evaluated
    once on the quadrature block.  At c_s = 0, or when b ignores the fast
    variable, this is the averaged drift of the step itself.  When b
    ignores the fast variable, E b_theta is b_theta at lam = 0, evaluated
    directly: no law is built and no sum taken."""
    x_phys = synthesize(x, model.grid)
    spec = model.reaction_slow
    if not spec.depends_on_fast:
        return analyze(nemytskii_drift(spec, model.theta, x_phys,
                                       np.zeros(model.grid.n_quad)),
                       model.grid)
    mean, std = companion_law(model, x, h, law)
    drift = gaussian_mean_b(spec, x_phys, mean, std)
    if model.theta > 0:
        points, weights = normal_rule(NORMAL_RULE_POINTS)
        # One (points, M) quadrature block per state, a state at a time, so
        # the memory does not grow with a stack; drift is a new array, so
        # its reshaped rows are views that the loop updates in place.
        for row, m, phys in zip(*(a.reshape(-1, model.grid.n_quad)
                                  for a in (drift, mean, x_phys))):
            b = nemytskii_drift(spec, 0.0, phys, m + std * points[:, None])
            row -= np.matmul(weights, b - truncate_b(model.theta, b))
    return analyze(drift, model.grid)


def estimate_Fbar(t, x, params: FrozenFastParams, model: ModelSpec,
                  master_seed: int, trajectory_id: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The averaged drift at (t, x) and its std-error field, at one slow
    state (t a float, x of shape (N,)) or at each row of a stack (t of
    shape (n,), x of shape (n, N)), a row bit-equal to that state alone.
    Every t must lie on the h_macro grid; b is truncated at model.theta,
    as on the coupled path.  An empty stack gives empty rows, (0, N) each.

    When b ignores the fast variable, or the fast reaction's sine term has
    c_s = 0, the drift is exact: companion_Fbar, with standard error 0 and
    no replica stepped.  Otherwise it is a nested Monte Carlo estimate,
    the replicas of every state of the stack in one block
    (estimate_invariant_average): replica r of a state draws from the
    stream with spawn key (frozen_fast_noise, r, trajectory_id, step),
    step = round(t / model.h_macro), so each path must pass its own id.
    estimate_invariant_average takes a sine term against its Gaussian
    companion, whose exact drift is companion_Fbar; the linear kind keeps
    the plain estimate.
    """
    x = as_modal_states(x, model.n_modes)
    times = np.broadcast_to(t, x.shape[:-1])
    steps = np.round(times / model.h_macro)
    # ~(<=) rather than >, so that a NaN t is off the grid too.
    off = np.flatnonzero(~(np.abs(times / model.h_macro - steps) <= 1e-6))
    if off.size:
        raise InvalidParameterError(f"t={float(times.flat[off[0]])!r} of "
                                    f"state {off[0]} is off the h_macro grid")
    # An empty stack has nothing to estimate: it takes the exact branch.
    if (not x.size or fast_coefficients(model.reaction_fast)[2] == 0
            or not model.reaction_slow.depends_on_fast):
        mean = companion_Fbar(x, params.h, model)
        return mean, np.zeros_like(mean)
    xs = x.reshape(-1, x.shape[-1])
    # Each state's nodal field, once per replica: the shape of a step's rows.
    x_phys = synthesize(xs, model.grid)[:, None].repeat(params.n_replicas, 1)

    def drift_observable(v_phys):
        # (step, state, replica) nodal rows -> modal drifts, each row
        # against its own state's nodal field.
        drift = nemytskii_drift(model.reaction_slow, model.theta, x_phys,
                                v_phys.reshape((-1,) + x_phys.shape))
        return analyze(drift, model.grid).reshape(len(v_phys), -1)

    mean, std_error = estimate_invariant_average(
        model, xs, params, drift_observable, master_seed,
        key=tuple((trajectory_id, step) for step in steps.astype(int).flat),
        gaussian_mean=lambda *law: companion_Fbar(xs, params.h, model, law))
    return mean.reshape(x.shape), std_error.reshape(x.shape)


def analytic_Fbar_linear(model: ModelSpec, t, x) -> np.ndarray:
    """Closed-form averaged drift a_c x_k / (alpha_{2,k} + b_c) for the
    linear benchmark, at one state x of shape (N,) or at each row of a
    stack of shape (n, N); a row is bit-equal to that state alone."""
    a_c, rates = _linear_fbar_factors(model)
    return a_c * as_modal_states(x, model.n_modes) / rates


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
    """Averaged-drift callable: the closed-form oracle for the linear
    benchmark, estimate_Fbar (keyed by trajectory_id) otherwise.

    fn(t, u) returns the drift and its std-error field at one slow state
    (t a float, u of shape (N,)) or at a stack of them (t of shape (n,), u
    of shape (n, N)); a row of a stack is bit-equal to that state alone."""
    if model.is_linear_benchmark:
        def fn(t, u):
            drift = analytic_Fbar_linear(model, t, u)
            return drift, np.zeros_like(drift)
        return fn

    def fn(t, u):
        return estimate_Fbar(t, u, params, model, master_seed, trajectory_id)
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
