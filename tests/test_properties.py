"""Property tests for the invariants the batched replica kernel, the
prepared fast substep and the coupled macro step rest on."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slowfast import (GridSpec, SpectralOperator, analyze, build_model,
                      eval_b, make_fast_reaction, make_plan,
                      make_slow_reaction, nemytskii_drift, synthesize,
                      truncate_b)
from slowfast.config import ObservableSpec
from slowfast.coupled import _plans, step_coupled
from slowfast.fast_dynamics import FastStepper
from slowfast.noise import ROLES, RngStream
from slowfast.reactions import fast_coefficients
from slowfast.spectral import lp_norm

GRIDS = [GridSpec(n_modes=4, n_quad=16), GridSpec(n_modes=16, n_quad=64)]
FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False, width=64)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def batches(draw, size_of):
    """A grid and an (R, size) array of finite values on it."""
    grid = draw(st.sampled_from(GRIDS))
    rows = draw(st.integers(min_value=1, max_value=9))
    values = draw(arrays(np.float64, (rows, size_of(grid)), elements=FINITE))
    return grid, values


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       trajectory_id=st.integers(min_value=0, max_value=10 ** 6),
       role=st.sampled_from(ROLES),
       chunks=st.lists(st.integers(min_value=0, max_value=40), max_size=12))
def test_normals_are_concatenation_consistent(seed, trajectory_id, role, chunks):
    chunked = RngStream(seed, trajectory_id, role)
    pieces = [chunked.normals(n) for n in chunks]
    whole = RngStream(seed, trajectory_id, role).normals(sum(chunks))
    joined = np.concatenate(pieces) if pieces else np.empty(0)
    assert np.array_equal(joined, whole)
    assert chunked.counter == sum(chunks)


@SETTINGS
@given(batches(lambda grid: grid.n_modes))
def test_analyze_inverts_synthesize(case):
    grid, coeffs = case
    for f in coeffs:
        back = analyze(synthesize(f, grid), grid)
        assert np.allclose(back, f, rtol=0.0,
                           atol=1e-13 * max(1.0, float(np.max(np.abs(f)))))


@SETTINGS
@given(batches(lambda grid: grid.n_modes))
def test_batched_synthesize_rows_equal_single_calls(case):
    grid, coeffs = case
    out = synthesize(coeffs, grid)
    assert out.shape == (coeffs.shape[0], grid.n_quad)
    for row, f in zip(out, coeffs):
        assert np.array_equal(row, synthesize(f, grid))


@SETTINGS
@given(batches(lambda grid: grid.n_quad))
def test_batched_analyze_rows_equal_single_calls(case):
    grid, values = case
    out = analyze(values, grid)
    assert out.shape == (values.shape[0], grid.n_modes)
    for row, v in zip(out, values):
        assert np.array_equal(row, analyze(v, grid))


@SETTINGS
@given(case=batches(lambda grid: grid.n_quad),
       theta=st.sampled_from([None, 0.01, 0.5]))
def test_batched_nemytskii_drift_rows_equal_single_calls(case, theta):
    grid, v_batch = case
    spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)
    u_phys = v_batch[0][::-1].copy()
    out = nemytskii_drift(spec, theta, 0.0, u_phys, v_batch, grid)
    assert out.shape == v_batch.shape
    for row, v in zip(out, v_batch):
        assert np.array_equal(row, nemytskii_drift(spec, theta, 0.0, u_phys, v,
                                                   grid))


@SETTINGS
@given(grid=st.sampled_from(GRIDS), rows=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       p=st.sampled_from([0.5, 2.0, 3.0, 12.0, 24.0]))
def test_batched_lp_norm_rows_match_single_calls(grid, rows, seed, scale, p):
    # Bit for bit: a batch takes each row's 1/p root as the scalar power
    # one field takes (numpy's vector power rounds differently on some
    # values, which generic normal draws hit and simple floats rarely do).
    values = scale * np.random.default_rng(seed).standard_normal(
        (rows, grid.n_quad))
    out = lp_norm(values, grid, p)
    assert out.shape == (values.shape[0],)
    for norm, v in zip(out, values):
        assert norm == lp_norm(v, grid, p)


@SETTINGS
@given(case=batches(lambda grid: grid.n_modes),
       spec=st.sampled_from([ObservableSpec("mode", 2), ObservableSpec("norm_sq")]))
def test_batched_observable_spec_rows_equal_single_calls(case, spec):
    _, coeffs = case
    out = spec(coeffs)
    for value, u in zip(out, coeffs):
        assert value == spec(u)
    if spec.kind == "norm_sq":
        # The 1-D value is the one terminal observables always reported.
        for u in coeffs:
            assert spec(u) == float(np.dot(u, u))


FAST_KINDS = ("linear_benchmark", "lipschitz_saturating")
COEFFS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64)


@st.composite
def fast_step_cases(draw):
    """A fast reaction of either kind, its operator, step and time scale, a
    state v (one field or an (R, N) block), a frozen nodal slow field and
    the standard normals of one or a few steps."""
    grid = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(FAST_KINDS))
    params = {"a_c": draw(COEFFS), "b_c": draw(COEFFS)}
    if kind == "lipschitz_saturating":
        params["c_s"] = draw(COEFFS)
    reaction = make_fast_reaction(kind, **params)
    op = SpectralOperator.from_power_law(grid.n_modes, 1.0, 1.0, 0.3, 1.0, 0.5)
    h = draw(st.sampled_from([1e-3, 0.01, 0.2]))
    eps = draw(st.sampled_from([1.0, 0.02]))
    shape = draw(st.sampled_from([(), (1,), (5,)])) + (grid.n_modes,)
    v = draw(arrays(np.float64, shape, elements=FINITE))
    rho_phys = draw(arrays(np.float64, grid.n_quad, elements=FINITE))
    n_steps = draw(st.sampled_from([1, 3]))
    xi = draw(arrays(np.float64, (n_steps,) + shape, elements=st.floats(
        min_value=-6.0, max_value=6.0, allow_nan=False, width=64)))
    return grid, reaction, op, h, eps, v, rho_phys, xi


@SETTINGS
@given(fast_step_cases())
def test_prepared_fast_step_equals_checked_reference(case):
    # The reference: checked transforms around the exponential update, its
    # plan on alpha + b_c, a_c*rho and c_s*sin(sigma) explicit.
    grid, reaction, op, h, eps, v, rho_phys, xi = case
    a_c, b_c, c_s = fast_coefficients(reaction)
    plan = make_plan(dataclasses.replace(op, alphas=op.alphas + b_c), h, eps)
    drive = plan.drift_weight * analyze(a_c * rho_phys, grid)
    v_ref, states_ref = v, []
    for xi_j in xi:
        v_next = plan.decay * v_ref + (drive + plan.noise_std * xi_j)
        if c_s:
            v_next = v_next + (c_s * plan.drift_weight) * analyze(
                np.sin(synthesize(v_ref, grid)), grid)
        v_ref = v_next
        states_ref.append(v_ref)
    stepper = FastStepper(reaction, grid, op, h, eps)
    states, nodes = stepper.advance(v, synthesize(v, grid),
                                    stepper.drive(rho_phys),
                                    stepper.noise(xi))
    assert np.array_equal(states, np.stack(states_ref))
    assert np.array_equal(nodes, synthesize(np.stack(states_ref), grid))


@SETTINGS
@given(fast_step_cases())
def test_advance_writes_nodes_in_place(case):
    # Both branches (with and without the sine term), one field or a
    # block: the nodal states go into the given rows of a buffer, which the
    # call returns, with the bits of the allocating call.
    grid, reaction, op, h, eps, v, rho_phys, xi = case
    stepper = FastStepper(reaction, grid, op, h, eps)
    args = (v, synthesize(v, grid), stepper.drive(rho_phys), stepper.noise(xi))
    states, nodes = stepper.advance(*args)
    buf = np.full((len(xi) + 1,) + nodes.shape[1:], np.nan)
    rows = buf[1:]
    states_in_place, nodes_in_place = stepper.advance(*args, nodes=rows)
    assert nodes_in_place is rows
    assert np.array_equal(buf[1:], nodes)
    assert np.isnan(buf[0]).all()
    assert np.array_equal(states_in_place, states)


def not_tiny(low: float, high: float):
    """Floats in [low, high] that are 0 or at least 1e-6 in magnitude, so
    that no product of two of them underflows."""
    return st.floats(min_value=low, max_value=high).filter(
        lambda x: x == 0.0 or abs(x) >= 1e-6)


@SETTINGS
@given(grid=st.sampled_from(GRIDS), kind=st.sampled_from(FAST_KINDS),
       a_c=not_tiny(-3.0, 3.0), b_c=st.floats(min_value=0.0, max_value=5.0),
       nu=st.floats(min_value=0.01, max_value=5.0),
       lam0=not_tiny(0.0, 2.0), h=st.floats(min_value=1e-4, max_value=2.0),
       data=st.data())
def test_linear_substep_keeps_the_exact_stationary_law(grid, kind, a_c, b_c,
                                                       nu, lam0, h, data):
    # With c_s = 0 the substep is the exact OU update on alpha_k + b_c, so
    # the per-mode stationary mean drive/(1 - decay) and variance
    # noise_std^2/(1 - decay^2) are those of the frozen fast law at any h:
    # only the explicit sine term can make that law depend on the step.
    params = {"a_c": a_c, "b_c": b_c}
    if kind == "lipschitz_saturating":
        params["c_s"] = 0.0
    op = SpectralOperator.from_power_law(grid.n_modes, nu, 1.0, lam0, 1.0,
                                         0.5)
    rho_phys = data.draw(arrays(np.float64, grid.n_quad,
                                elements=not_tiny(-1e3, 1e3)))
    stepper = FastStepper(make_fast_reaction(kind, **params), grid, op, h,
                          1.0)
    rates = op.alphas + b_c
    decay = stepper.decay
    mean = stepper.drive(rho_phys) / (1.0 - decay)
    variance = stepper.noise_std ** 2 / (1.0 - decay * decay)
    assert stepper.sin_weight is None
    np.testing.assert_allclose(mean, analyze(a_c * rho_phys, grid) / rates,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(variance, op.lambdas ** 2 / (2.0 * rates),
                               rtol=1e-12, atol=0.0)

@st.composite
def macro_step_cases(draw):
    """A model with a fast reaction of either kind, theta in {0, 0.01} and
    eps giving n_sub = 1, 3 or 13 at h_macro = 0.01; a state (u, v), and
    the standard normals of one macro step."""
    grid = draw(st.sampled_from(GRIDS))
    n = grid.n_modes
    kind = draw(st.sampled_from(FAST_KINDS))
    params = {"a_c": draw(COEFFS), "b_c": draw(COEFFS)}
    if kind == "lipschitz_saturating":
        params["c_s"] = draw(COEFFS)
    slow = draw(st.sampled_from([
        make_slow_reaction("linear_benchmark"),
        make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)]))
    eps, n_sub = draw(st.sampled_from([(0.1, 1), (0.02, 3), (0.004, 13)]))
    model = build_model(
        SpectralOperator.from_power_law(n, 0.01, 1.0, 0.05, 1.0, 0.5),
        SpectralOperator.from_power_law(n, 1.0, 1.0, 0.3, 1.0, 0.5),
        slow, make_fast_reaction(kind, **params), grid, eps, 1.0,
        np.zeros(n), np.zeros(n), theta=draw(st.sampled_from([0.0, 0.01])),
        explosion_bound=math.inf)
    small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=64)
    normal = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False,
                       width=64)
    u = draw(arrays(np.float64, n, elements=small))
    v = draw(arrays(np.float64, n, elements=small))
    xi_slow = draw(arrays(np.float64, n, elements=normal))
    xi_fast = draw(arrays(np.float64, (n_sub, n), elements=normal))
    return model, n_sub, u, v, xi_slow, xi_fast


def _reference_macro_step(model, n_sub, u, v, t, xi_slow, xi_fast):
    """One macro step in checked transforms: the fast substeps of
    test_prepared_fast_step_equals_checked_reference, the slow drift on the
    concatenated substep nodes and noise_std * xi for each increment."""
    grid = model.grid
    h = model.h_macro
    a_c, b_c, c_s = fast_coefficients(model.reaction_fast)
    plan = make_plan(dataclasses.replace(model.op2,
                                         alphas=model.op2.alphas + b_c),
                     h / n_sub, model.epsilon)
    u_phys = synthesize(u, grid)
    drive = plan.drift_weight * analyze(a_c * u_phys, grid)
    states = [v]
    for xi in xi_fast:
        v_next = plan.decay * states[-1] + (drive + plan.noise_std * xi)
        if c_s:
            v_next = v_next + (c_s * plan.drift_weight) * analyze(
                np.sin(synthesize(states[-1], grid)), grid)
        states.append(v_next)
    v_nodes = np.concatenate((synthesize(v, grid)[None],
                              synthesize(np.stack(states[1:]), grid)))
    if model.theta > 0:
        drift = truncate_b(model.reaction_slow, model.theta, t, grid.nodes,
                           u_phys, v_nodes)
    else:
        drift = eval_b(model.reaction_slow, t, grid.nodes, u_phys, v_nodes)
    weights = np.full((n_sub + 1, 1), 1.0 / n_sub)
    weights[0] = weights[-1] = 0.5 / n_sub
    f1 = analyze(np.add.reduce(weights * drift, axis=0), grid)
    plan_slow = make_plan(model.op1, h, 1.0)
    u_next = (plan_slow.decay * u + plan_slow.drift_weight * f1
              + plan_slow.noise_std * xi_slow)
    return u_next, states[-1], f1


@SETTINGS
@given(macro_step_cases())
def test_macro_step_equals_checked_reference(case):
    # step_coupled takes increments scaled once per draw chunk and writes
    # the substep nodes into the plans' buffer; the reference scales per
    # step and concatenates.
    model, n_sub, u, v, xi_slow, xi_fast = case
    grid = model.grid
    plans = _plans(model, model.h_macro)
    assert plans[0] == n_sub
    # Increments of a two-step chunk, of which this step is the second.
    chunk_slow = plans[1].noise_std * np.stack([xi_slow, xi_slow])
    chunk_fast = plans[2].noise(np.stack([xi_fast, xi_fast]))
    t = 0.03
    u_next, v_next, u_phys, v_phys, f1 = step_coupled(
        u, v, synthesize(u, grid), synthesize(v, grid), t, model,
        model.h_macro, chunk_slow[1], chunk_fast[1], plans)
    u_ref, v_ref, f1_ref = _reference_macro_step(model, n_sub, u, v, t,
                                                 xi_slow, xi_fast)
    assert np.array_equal(u_next, u_ref)
    assert np.array_equal(v_next, v_ref)
    assert np.array_equal(f1, f1_ref)
    assert np.array_equal(u_phys, synthesize(u_ref, grid))
    assert np.array_equal(v_phys, synthesize(v_ref, grid))


def _scanned_param(spec, name, default):
    """ReactionSpec.param as a linear scan of params, first match wins."""
    for key, value in spec.params:
        if key == name:
            return value
    return default


@SETTINGS
@given(data=st.data(), default=COEFFS)
def test_param_lookup_matches_scan(data, default):
    role, kind = data.draw(st.sampled_from(
        [("slow", "linear_benchmark"), ("slow", "cubic_rough"),
         ("slow", "polynomial"), ("fast", "linear_benchmark"),
         ("fast", "lipschitz_saturating")]))
    if kind == "polynomial":
        terms = data.draw(st.lists(st.tuples(
            COEFFS, st.integers(0, 3), st.integers(0, 3)), max_size=4))
        spec = make_slow_reaction(kind, terms=terms)
    else:
        names = {"cubic_rough": ("c_u", "c_v"),
                 "lipschitz_saturating": ("a_c", "b_c", "c_s")}.get(
            kind, ("a_c", "b_c") if role == "fast" else ())
        params = {name: data.draw(COEFFS) for name in names
                  if data.draw(st.booleans())}
        make = make_fast_reaction if role == "fast" else make_slow_reaction
        spec = make(kind, **params)
    for name in ("a_c", "b_c", "c_s", "c_u", "c_v", "terms", "absent"):
        assert spec.param(name) == _scanned_param(spec, name, 0.0)
        assert spec.param(name, default) == _scanned_param(spec, name, default)
