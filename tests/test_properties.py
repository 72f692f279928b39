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
from slowfast.averaging import simulate_averaged
from slowfast.coupled import build_auxiliary, simulate_slowfast, step_coupled
from slowfast.fast_dynamics import FastStepper, FrozenFastParams
from slowfast.noise import ROLES, RngStream
from slowfast.reactions import fast_coefficients
from slowfast.spectral import lp_norm, matvec

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
       theta=st.sampled_from([0.0, 0.01, 0.5]))
def test_batched_nemytskii_drift_rows_equal_single_calls(case, theta):
    grid, v_batch = case
    spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)
    u_phys = v_batch[0][::-1].copy()
    out = nemytskii_drift(spec, theta, u_phys, v_batch)
    assert out.shape == v_batch.shape
    for row, v in zip(out, v_batch):
        assert np.array_equal(row, nemytskii_drift(spec, theta, u_phys, v))


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
    state v (one field or an (R, N) block), a frozen modal slow field and
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
    x = draw(arrays(np.float64, grid.n_modes, elements=FINITE))
    n_steps = draw(st.sampled_from([1, 3]))
    xi = draw(arrays(np.float64, (n_steps,) + shape, elements=st.floats(
        min_value=-6.0, max_value=6.0, allow_nan=False, width=64)))
    return grid, reaction, op, h, eps, v, x, xi


def sine_operator(grid, c_s, drift_weight):
    """The explicit sine term c_s * drift_weight * analyze as one (N, M)
    operator, applied to the nodal values of sin(sigma)."""
    return (c_s * drift_weight)[:, None] * grid.analysis_matrix


@SETTINGS
@given(fast_step_cases())
def test_prepared_fast_step_equals_checked_reference(case):
    # The reference: checked transforms and fused operators around the
    # exponential update, its plan on alpha + b_c, a_c*rho and
    # c_s*sin(sigma) explicit; the forcing of the modal slow field x is
    # (drift_weight * a_c) * x.
    grid, reaction, op, h, eps, v, x, xi = case
    a_c, b_c, c_s = fast_coefficients(reaction)
    plan = make_plan(dataclasses.replace(op, alphas=op.alphas + b_c), h, eps)
    drive = (plan.drift_weight * a_c) * x
    v_ref, states_ref = v, []
    for xi_j in xi:
        v_next = plan.decay * v_ref + (drive + plan.noise_std * xi_j)
        if c_s:
            v_next = v_next + matvec(
                sine_operator(grid, c_s, plan.drift_weight),
                np.sin(synthesize(v_ref, grid)))
        v_ref = v_next
        states_ref.append(v_ref)
    stepper = FastStepper(reaction, grid, op, h, eps)
    states, nodes = stepper.advance(v, synthesize(v, grid), stepper.drive(x),
                                    stepper.noise(xi))
    assert np.array_equal(states, np.stack(states_ref))
    assert np.array_equal(nodes, synthesize(np.stack(states_ref), grid))


@SETTINGS
@given(fast_step_cases())
def test_advance_writes_nodes_in_place(case):
    # Both branches (with and without the sine term), one field or a
    # block: the nodal states go into the given rows of a buffer, which the
    # call returns, with the bits of the allocating call.
    grid, reaction, op, h, eps, v, x, xi = case
    stepper = FastStepper(reaction, grid, op, h, eps)
    args = (v, synthesize(v, grid), stepper.drive(x), stepper.noise(xi))
    states, nodes = stepper.advance(*args)
    buf = np.full((len(xi) + 1,) + nodes.shape[1:], np.nan)
    rows = buf[1:]
    states_in_place, nodes_in_place = stepper.advance(*args, nodes=rows)
    assert nodes_in_place is rows
    assert np.array_equal(buf[1:], nodes)
    assert np.isnan(buf[0]).all()
    assert np.array_equal(states_in_place, states)


@SETTINGS
@given(fast_step_cases())
def test_advance_writes_states_in_place(case):
    # The modal states go into a given buffer too, which the call returns,
    # with the bits of the allocating call; the noise is left as it was.
    grid, reaction, op, h, eps, v, x, xi = case
    stepper = FastStepper(reaction, grid, op, h, eps)
    noise = stepper.noise(xi)
    args = (v, synthesize(v, grid), stepper.drive(x), noise)
    states, nodes = stepper.advance(*args)
    kept = noise.copy()
    buf = np.full(states.shape, np.nan)
    states_in_place, nodes_in_place = stepper.advance(*args, states=buf)
    assert states_in_place is buf
    assert np.array_equal(buf, states)
    assert np.array_equal(nodes_in_place, nodes)
    assert np.array_equal(noise, kept)


# The affine map of a sine-free step against the recursion it replaces.
# Both round the same exact sum S_j = dw x sum_{k<=j} a^k + sum_{k<=j}
# a^(j-k) nu_k + a^(j+1) v (dw the drive weight, a the decay, in [0, 1),
# nu the increments), whose terms sum in absolute value to scale_j, the
# map on absolute values.  To first order in u = 2^-53, using
# a^(j-k) scale_k <= scale_j:
# - the recursion is within (2j + 4) u scale_j: u for the drive, u for
#   each sum d + nu_k, and 2u for each product a s_{k-1} and its sum, all
#   carried forward by a^(j-k);
# - the map is within (2j + 4) u scale_j: (2j + 2) u in the gains (j
#   products for the powers, j sums, two products), (2j + 1) u in the
#   convolved noise, (j + 1) u in powers * v, and 2u in the final sums.
# So they differ by at most (4j + 8) u scale_j.  The test allows
# (2j + 5) machine epsilons, (4j + 10) u, and a smallest normal float per
# rounding for products that underflow.
@SETTINGS
@given(case=fast_step_cases(), n=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_affine_map_matches_the_recursion(case, n, seed):
    grid, reaction, op, h, eps, v, x, _ = case
    stepper = FastStepper(reaction, grid, op, h, eps)
    if stepper.sin_op is not None:
        assert stepper.affine_map(n) is None
        return
    assert np.all((0 <= stepper.decay) & (stepper.decay < 1))
    coefficients = stepper.affine_map(n)
    gains, powers = coefficients
    noise = stepper.noise(np.random.default_rng(seed).standard_normal(
        (n, grid.n_modes)))
    z = stepper.convolve(noise.copy())
    abs_z = stepper.convolve(np.abs(noise))
    j = np.arange(n)[:, None]
    finfo = np.finfo(float)
    for row in v.reshape(-1, grid.n_modes):
        states, _ = stepper.advance(row, synthesize(row, grid),
                                    stepper.drive(x), noise)
        mapped = stepper.apply_map(coefficients, x, z, row)
        if n == 1:
            assert np.array_equal(mapped, states)
        scale = np.abs(gains) * np.abs(x) + abs_z + powers * np.abs(row)
        gap = np.abs(mapped - states)
        assert np.all(gap <= (2 * j + 5) * finfo.eps * scale
                      + (4 * j + 10) * finfo.tiny), np.max(
                          gap / np.maximum(scale, finfo.tiny))


# The fused operators against the transforms they replace: each within
# FUSED_ULPS ulps of the sum of the absolute terms of its products, the
# scale of a dot product's rounding, and the smallest normal float, below
# which products underflow to subnormals of fewer bits.
FUSED_ULPS = 4.0


def assert_within_ulps(got, want, scale):
    tiny = np.finfo(float).tiny
    gap = np.abs(got - want)
    assert np.all(gap <= FUSED_ULPS * np.finfo(float).eps * scale + tiny), (
        np.max(gap / np.maximum(scale, tiny)))


@SETTINGS
@given(fast_step_cases())
def test_drive_is_the_analyzed_nodal_forcing(case):
    # drive(x) = (drift_weight * a_c) * x: analyze after synthesize is
    # the identity on the N modes.
    grid, reaction, op, h, eps, _, x, _ = case
    a_c, b_c, _ = fast_coefficients(reaction)
    plan = make_plan(dataclasses.replace(op, alphas=op.alphas + b_c), h, eps)
    stepper = FastStepper(reaction, grid, op, h, eps)
    abs_mat = np.abs(grid.sine_matrix)
    scale = np.abs(plan.drift_weight * a_c) * (
        grid.quad_weight * abs_mat.T.dot(abs_mat.dot(np.abs(x))))
    assert_within_ulps(stepper.drive(x),
                       plan.drift_weight * analyze(a_c * synthesize(x, grid),
                                                   grid), scale)


@SETTINGS
@given(fast_step_cases())
def test_sine_operator_is_the_weighted_analysis(case):
    # sin_op @ sin(sigma) = sin_weight * analyze(sin(sigma)), sin_weight =
    # c_s * drift_weight, for one nodal field and for a block of them.
    grid, reaction, op, h, eps, v, _, _ = case
    _, b_c, c_s = fast_coefficients(reaction)
    stepper = FastStepper(reaction, grid, op, h, eps)
    if not c_s:
        assert stepper.sin_op is None
        return
    plan = make_plan(dataclasses.replace(op, alphas=op.alphas + b_c), h, eps)
    sines = np.sin(synthesize(v, grid))
    sin_weight = c_s * plan.drift_weight
    scale = np.abs(sin_weight) * (
        grid.quad_weight * matvec(np.abs(grid.sine_matrix.T), np.abs(sines)))
    assert_within_ulps(matvec(stepper.sin_op, sines),
                       sin_weight * analyze(sines, grid), scale)


@SETTINGS
@given(batches(lambda grid: grid.n_quad))
def test_analysis_matrix_is_the_weighted_transpose(case):
    # analyze, and the coupled step's projection of its nodal drift, is one
    # product of the (N, M) operator quad_weight * mat^T, made once per
    # grid, against quad_weight times the product of the transpose.
    grid, values = case
    assert grid.analysis_matrix.flags.c_contiguous
    assert grid.analysis_matrix is grid.analysis_matrix
    scale = grid.quad_weight * np.abs(grid.sine_matrix.T).dot(
        np.abs(values).T).T
    for b, row_scale in zip(values, scale):
        assert_within_ulps(analyze(b, grid),
                           grid.quad_weight * grid.sine_matrix.T.dot(b),
                           row_scale)


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
    x = data.draw(arrays(np.float64, grid.n_modes,
                         elements=not_tiny(-1e3, 1e3)))
    stepper = FastStepper(make_fast_reaction(kind, **params), grid, op, h,
                          1.0)
    rates = op.alphas + b_c
    decay = stepper.decay
    mean = stepper.drive(x) / (1.0 - decay)
    variance = stepper.noise_std ** 2 / (1.0 - decay * decay)
    assert stepper.sin_op is None
    np.testing.assert_allclose(mean, a_c * x / rates, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(variance, op.lambdas ** 2 / (2.0 * rates),
                               rtol=1e-12, atol=0.0)

@st.composite
def macro_step_cases(draw):
    """A model with a fast reaction of either kind, theta in {0, 0.01} and
    eps giving n_sub = 1, 3 or 13 at h_macro = 0.01; a state (u, v), and
    the fast standard normals of one macro step."""
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
    xi_fast = draw(arrays(np.float64, (n_sub, n), elements=normal))
    return model, n_sub, u, v, xi_fast


def _reference_macro_step(model, n_sub, u, v, xi_fast):
    """The fast part of one macro step in checked transforms and fused
    operators: with a sine term, the fast substeps of
    test_prepared_fast_step_equals_checked_reference with noise_std * xi
    for each increment; without one, the affine map (gains[j] * u + z[j])
    + powers[j] * v, its coefficients built step by step and z the
    increments convolved by the decay; and the slow drift on the
    concatenated substep nodes, their trapezoid sum taken as one weighted
    product."""
    grid = model.grid
    h = model.h_macro
    a_c, b_c, c_s = fast_coefficients(model.reaction_fast)
    plan = make_plan(dataclasses.replace(model.op2,
                                         alphas=model.op2.alphas + b_c),
                     h / n_sub, model.epsilon)
    u_phys = synthesize(u, grid)
    drive = (plan.drift_weight * a_c) * u
    states = [v]
    if c_s:
        for xi in xi_fast:
            v_next = plan.decay * states[-1] + (drive + plan.noise_std * xi)
            v_next = v_next + sine_operator(grid, c_s, plan.drift_weight).dot(
                np.sin(synthesize(states[-1], grid)))
            states.append(v_next)
    else:
        power, total = plan.decay, np.ones_like(v)
        for j, xi in enumerate(xi_fast):
            z = plan.noise_std * xi if j == 0 else (plan.noise_std * xi
                                                    + plan.decay * z)
            states.append(((plan.drift_weight * a_c) * total * u + z)
                          + power * v)
            total, power = total + power, power * plan.decay
    v_nodes = np.concatenate((synthesize(v, grid)[None],
                              synthesize(np.stack(states[1:]), grid)))
    if model.theta > 0:
        drift = truncate_b(model.theta,
                           eval_b(model.reaction_slow, u_phys, v_nodes))
    else:
        drift = eval_b(model.reaction_slow, u_phys, v_nodes)
    weights = np.full(n_sub + 1, 1.0 / n_sub)
    weights[0] = weights[-1] = 0.5 / n_sub
    return states[-1], analyze(weights.dot(drift), grid)


@SETTINGS
@given(macro_step_cases())
def test_macro_step_equals_checked_reference(case):
    # step_coupled takes increments scaled (and, for the affine map,
    # convolved) once per path and writes the substep nodes into the plans'
    # buffer; the reference scales per step and concatenates.  Its slow
    # update is slow_path's, checked against ou_step in test_coupled.py.
    model, n_sub, u, v, xi_fast = case
    grid = model.grid
    plans = model.coupled_plans.for_path()
    assert plans[0] == n_sub
    # Increments of a two-step path, of which this step is the second.
    path_fast = plans.increments(np.stack([xi_fast, xi_fast]))
    v_next, v_phys, f1 = step_coupled(
        v, u, synthesize(v, grid), model, path_fast[1], plans)
    v_ref, f1_ref = _reference_macro_step(model, n_sub, u, v, xi_fast)
    assert np.array_equal(v_next, v_ref)
    assert np.array_equal(f1, f1_ref)
    assert np.array_equal(v_phys, synthesize(v_ref, grid))


@SETTINGS
@given(eps=st.floats(min_value=1e-3, max_value=1.0),
       h_macro=st.floats(min_value=1e-3, max_value=0.05),
       substep_ratio=st.floats(min_value=0.05, max_value=2.0),
       steps=st.floats(min_value=0.01, max_value=6.0))
def test_path_takes_the_models_step_counts(eps, h_macro, substep_ratio,
                                           steps):
    # ModelSpec counts a path's steps once: n_steps macro steps over the
    # horizon, each of the fewest substeps no longer than ratio * eps, on
    # its one macro grid times.  The coupled path, the averaged path and
    # the block-frozen replay all take one row per macro node.
    grid = GRIDS[0]
    n = grid.n_modes
    model = build_model(
        SpectralOperator.from_power_law(n, 0.01, 1.0, 0.05, 1.0, 0.5),
        SpectralOperator.from_power_law(n, 1.0, 1.0, 0.1, 1.0, 0.5),
        make_slow_reaction("linear_benchmark"),
        make_fast_reaction("linear_benchmark", a_c=1.0, b_c=2.0), grid, eps,
        steps * h_macro, np.ones(n), np.ones(n), h_macro=h_macro,
        substep_ratio=substep_ratio)
    traj = simulate_slowfast(model, 0, 0)
    assert traj.fast_noise.shape[:2] == (model.n_steps, model.n_sub)
    rows = model.n_steps + 1
    assert traj.u.shape[0] == traj.v.shape[0] == rows
    params = FrozenFastParams(h=0.01, t_burn=1.0, t_avg=1.0, n_replicas=1)
    assert simulate_averaged(model, params, 0, 0).shape[0] == rows
    u_aux, v_aux = build_auxiliary(traj, 2 * h_macro, model)
    assert u_aux.shape[0] == v_aux.shape[0] == rows
    times = model.times
    assert np.array_equal(times, np.arange(rows) * h_macro)
    if model.n_steps:
        assert times[1] - times[0] == h_macro  # bit for bit
    assert model.n_steps == round(model.horizon / h_macro)
    cap = substep_ratio * eps
    assert h_macro / model.n_sub <= cap * (1 + 1e-12)
    assert model.n_sub == 1 or h_macro / (model.n_sub - 1) > cap * (1 - 1e-12)


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
