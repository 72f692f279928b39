import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import linregress

from slowfast import (InvalidParameterError, StateExplosionError, analyze, build_auxiliary,
                      compute_rho0, derive_stream, eval_V, eval_b,
                      khasminskii_delta, make_plan, make_slow_reaction,
                      ou_step, simulate_slowfast, synthesize, truncate_b)
from slowfast.config import parse_config
from slowfast.coupled import (block_freezing_errors, freezing_deviations,
                              path_functionals, slow_path, snap_block)
from slowfast.reactions import fast_coefficients, lyapunov_norms
from slowfast.spectral import kahan_add

from conftest import cubic_model, linear_model, unit_field


class TestKhasminskiiDelta:
    def test_direct_evaluation(self):
        expected = 0.01 * math.sqrt(abs(math.log(0.01)))
        assert khasminskii_delta(0.01, 1.0, 2.0) == pytest.approx(expected,
                                                                   rel=1e-12)
        assert expected == pytest.approx(0.021460, abs=1e-6)

    def test_schedule_limits_on_grid(self):
        eps_grid = [0.1, 0.01, 0.001]
        deltas = [khasminskii_delta(e, 1.0, 2.0) for e in eps_grid]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        ratios = [d / e for d, e in zip(deltas, eps_grid)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_exponent_collapse(self):
        for eps in (0.5, 0.05):
            assert khasminskii_delta(eps, 0.0, 4.0) == pytest.approx(
                0.5 * eps, rel=1e-14)

    def test_formula_identity_to_1e12(self):
        for eps in (0.9, 0.1, 0.004, 1e-6):
            direct = (2.0 / 3.0) * eps * abs(math.log(eps)) ** 0.75
            assert abs(khasminskii_delta(eps, 1.5, 3.0) - direct) <= 1e-12

    def test_degenerate_epsilon_rejected(self):
        for eps in (1.0, 1.5, 0.0, -0.1):
            with pytest.raises(InvalidParameterError):
                khasminskii_delta(eps, 1.0, 2.0)


class TestRho0:
    def test_coincident_times(self):
        assert compute_rho0(1.0, 1.0, 0.5, 0.5) == 0.0

    def test_direct_evaluation(self):
        val = compute_rho0(1.0, math.e, 0.5, 0.5)
        expected = 1.0 + (math.e - 1.0) ** 0.5 + (math.e - 1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_t(self):
        vals = [compute_rho0(0.5, t, 0.2, 0.5) for t in (0.6, 0.8, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_origin_rejected(self):
        with pytest.raises(InvalidParameterError):
            compute_rho0(0.0, 1.0, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            compute_rho0(2.0, 1.0, 0.5, 0.5)


class TestStepCounts:
    def test_counts_are_fields_of_the_model(self):
        # eps = 0.1, 0.02, 0.004 give n_sub = 1, 3, 13 at h_macro = 0.01;
        # each with_epsilon model gets its own count.
        model = linear_model(horizon=0.2, h_macro=0.01)
        assert model.n_steps == 20
        assert [model.with_epsilon(eps).n_sub
                for eps in (0.1, 0.02, 0.004)] == [1, 3, 13]

    @pytest.mark.parametrize("eps,kwargs", [
        (1e-300, {}),
        (5e-324, {}),
        (5e-324, {"substep_ratio": 1e-300}),
        (0.1, {"h_macro": math.inf, "substep_ratio": math.inf}),
    ], ids=["too_many_substeps", "ratio_underflows", "both_underflow",
            "nan_count"])
    def test_unallocatable_path_rejected(self, eps, kwargs):
        # 1e-300 used to end in numpy's size error, 5e-324 (the product
        # substep_ratio * eps underflows to 0) in a ZeroDivisionError, and
        # inf / inf substeps in the ValueError of math.ceil(nan).
        with pytest.raises(InvalidParameterError,
                           match="epsilon must leave at most") as info:
            linear_model(eps=eps, **kwargs)
        assert info.value.name == "epsilon"


class TestCoupledStep:
    def test_pure_semigroup_decay(self):
        # no reactions, no noise: both components decay at their own clocks
        model = linear_model(eps=0.25, lam_slow=0.0, lam_fast=0.0, a_c=0.0,
                             b_c=0.0, horizon=0.1, h_macro=0.01)
        model = dataclasses.replace(
            model, reaction_slow=make_slow_reaction("polynomial", terms=[]))
        traj = simulate_slowfast(model, 0, 0)
        T = 0.1
        assert traj.u[-1][0] == pytest.approx(math.exp(-model.op1.alphas[0] * T),
                                              rel=1e-10)
        assert traj.v[-1][0] == pytest.approx(
            math.exp(-model.op2.alphas[0] * T / 0.25), rel=1e-10)

    def test_matches_matrix_exponential(self):
        # linear benchmark, eps=1, noise off: the pair solves a 2x2 linear
        # ODE; the first-order error constant of the splitting is ~0.35 here
        model = linear_model(eps=1.0, lam_slow=0.0, lam_fast=0.0,
                             horizon=0.1, h_macro=1e-4)
        traj = simulate_slowfast(model, 0, 0)
        a1, a2 = model.op1.alphas[0], model.op2.alphas[0]
        M2 = np.array([[-a1, 1.0], [1.0, -(a2 + 2.0)]])
        exact = expm(M2 * 0.1) @ np.array([1.0, 1.0])
        err = max(abs(traj.u[-1][0] - exact[0]), abs(traj.v[-1][0] - exact[1]))
        assert err <= 5e-5

    def test_first_order_in_macro_step(self):
        # The fast linear part is exact, so the error constant is small and
        # the pair of steps must sit in the asymptotic range.
        model_fn = lambda h: linear_model(eps=1.0, lam_slow=0.0, lam_fast=0.0,
                                          horizon=0.5, h_macro=h)
        a1 = 0.01 * math.pi ** 2
        a2 = math.pi ** 2
        M2 = np.array([[-a1, 1.0], [1.0, -(a2 + 2.0)]])
        exact = (expm(M2 * 0.5) @ np.array([1.0, 1.0]))[0]
        errs = [abs(simulate_slowfast(model_fn(h), 0, 0).u[-1][0] - exact)
                for h in (6.25e-4, 3.125e-4)]
        assert 1.6 <= errs[0] / errs[1] <= 2.4

    def test_zero_horizon_returns_initial_state(self):
        model = linear_model(horizon=1e-9, h_macro=0.01)
        assert model.n_steps == 0
        traj = simulate_slowfast(model, 0, 0)
        assert len(traj.u) == model.times.size == 1
        assert np.array_equal(traj.u[0], model.u0)

    def test_explosion_guard_carries_state(self):
        # anti-dissipative drift with a tiny guard trips quickly
        model = cubic_model(horizon=1.0, h_macro=0.01)
        spec = make_slow_reaction("polynomial", terms=[(5.0, 3, 0)],
                                  m1=3, m2=1, kappa1=2, kappa2=2,
                                  c1=10.0, c2=10.0, a1=1.0, a2=1.0)
        model = dataclasses.replace(model, reaction_slow=spec, theta=0.0,
                                    explosion_bound=5.0)
        model = dataclasses.replace(model, u0=unit_field(8, value=2.0))
        with pytest.raises(StateExplosionError) as info:
            simulate_slowfast(model, 0, 0)
        assert info.value.norm_u + info.value.norm_v > 5.0
        assert 0 < info.value.t <= 1.0

    def test_non_finite_state_is_censored(self, monkeypatch):
        # A NaN slow drift makes |u| NaN; the guard must trip on it rather
        # than let the next transform reject the field.
        import slowfast.coupled as coupled
        import slowfast.fast_dynamics as fast_dynamics

        def nan_drift(*args, **kwargs):
            # nemytskii_drift(spec, theta, u_phys, v_phys): v_phys holds the
            # fast nodes.
            return np.full(args[3].shape, np.nan)
        # The coupled step evaluates b by nemytskii_drift.
        monkeypatch.setattr(coupled, "nemytskii_drift", nan_drift)
        model = linear_model(horizon=0.05, h_macro=0.01)
        with pytest.raises(StateExplosionError) as info:
            simulate_slowfast(model, 0, 0)
        assert info.value.t == pytest.approx(0.01)
        assert math.isnan(info.value.norm_u)

        # A NaN in the fast field inside the substeps is censored at the
        # macro step's time too, not left to the next transform.
        monkeypatch.undo()

        def nan_noise(self, xi):
            return np.full(np.shape(xi), np.nan)
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise", nan_noise)
        with pytest.raises(StateExplosionError) as info:
            simulate_slowfast(model, 0, 0)
        assert info.value.t == pytest.approx(0.01)
        assert math.isnan(info.value.norm_v)

    def test_cubic_rough_runs_without_explosion(self):
        model = cubic_model(eps=0.1, n_modes=16, n_quad=64, theta=0.01)
        traj = simulate_slowfast(model, 3, 0)
        assert np.all(np.isfinite(traj.u))
        assert path_functionals(traj, model)["v_integral"] < 1e6

    def test_reproducibility_bit_exact(self):
        model = cubic_model(eps=0.1)
        a = simulate_slowfast(model, 123, 7)
        b = simulate_slowfast(model, 123, 7)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_slow_stream_separation_across_eps(self):
        # with the slow equation decoupled from v, changing eps must not
        # change the slow path: the slow noise stream is consumed identically
        base = linear_model(lam_slow=0.02, lam_fast=0.1, horizon=0.2)
        decoupled = make_slow_reaction("polynomial", terms=[(1.0, 1, 0)],
                                       m1=1, m2=1, kappa1=2, kappa2=0)
        paths = []
        for eps in (1.0, 0.5):
            model = dataclasses.replace(base.with_epsilon(eps),
                                        reaction_slow=decoupled)
            paths.append(simulate_slowfast(model, 5, 0).u)
        assert np.array_equal(paths[0], paths[1])

    def test_coupled_paths_differ_across_eps(self):
        model = linear_model(lam_slow=0.02, lam_fast=0.1, horizon=0.2)
        u1 = simulate_slowfast(model.with_epsilon(1.0), 5, 0).u
        u2 = simulate_slowfast(model.with_epsilon(0.5), 5, 0).u
        assert not np.array_equal(u1, u2)


def _fast_plan(model, h_sub):
    """The fast OU plan on alpha + b_c: -b_c*sigma is integrated exactly."""
    _, b_c, _ = fast_coefficients(model.reaction_fast)
    op = dataclasses.replace(model.op2, alphas=model.op2.alphas + b_c)
    return make_plan(op, h_sub, model.epsilon)


def _reference_substep(v, u, model, plan, xi):
    """One exponential-integrator substep in fused operators: a_c*rho and
    c_s*sin(sigma) explicit, the rest in the plan.  The forcing of the
    modal slow field u is (drift_weight * a_c) * u, and the sine term one
    product of the (N, M) operator c_s * drift_weight * analyze."""
    grid = model.grid
    a_c, _, c_s = fast_coefficients(model.reaction_fast)
    v_new = plan.decay * v + ((plan.drift_weight * a_c) * u
                              + plan.noise_std * xi)
    if c_s:
        sin_op = (c_s * plan.drift_weight)[:, None] * grid.analysis_matrix
        v_new = v_new + sin_op.dot(np.sin(synthesize(v, grid)))
    return v_new


def _reference_substeps(v, u, model, plan, xis):
    """The states after each substep of one macro step from v, the slow
    field frozen at u.  With a sine term, _reference_substep per substep.
    Without one, the affine map built step by step: state j is
    (gains[j] * u + z[j]) + powers[j] * v, with powers[j] = decay^(j+1) by
    repeated multiplication, gains[j] = (drift_weight * a_c) * (1 + decay
    + ... + decay^j) summed in that order, and z the noise increments
    convolved, z[j] = noise_std * xi[j] + decay * z[j-1]."""
    a_c, _, c_s = fast_coefficients(model.reaction_fast)
    states = []
    if c_s:
        for xi in xis:
            v = _reference_substep(v, u, model, plan, xi)
            states.append(v)
        return states
    power, total = plan.decay, np.ones_like(v)
    for j, xi in enumerate(xis):
        z = plan.noise_std * xi if j == 0 else plan.noise_std * xi + (
            plan.decay * z)
        states.append(((plan.drift_weight * a_c) * total * u + z)
                      + power * v)
        total = total + power
        power = power * plan.decay
    return states


def _checked_drift(model, u_phys, v):
    """b_theta at the nodes of the modal fast field v, by the checked
    eval_b and truncate_b."""
    b = eval_b(model.reaction_slow, u_phys, synthesize(v, model.grid))
    return truncate_b(model.theta, b) if model.theta > 0 else b


def _reference_path(model, seed, trajectory_id):
    """The arithmetic the coupled kernel must reproduce bit for bit: checked
    public transforms and fused operators, one normals(N) call per substep
    and per slow step, the substeps of _reference_substeps, and the
    trapezoid slow drift as one weighted sum of the substeps' nodal
    drifts, projected by one (N, M) product."""
    grid = model.grid
    n = grid.n_modes
    h = model.h_macro
    n_steps = int(round(model.horizon / h))
    n_sub = max(1, math.ceil(h / (model.substep_ratio * model.epsilon)))
    plan_slow = make_plan(model.op1, h, 1.0)
    plan_fast = _fast_plan(model, h / n_sub)
    slow = derive_stream(seed, trajectory_id, "slow_noise")
    fast = derive_stream(seed, trajectory_id, "fast_noise")
    weights = np.full(n_sub + 1, 1.0 / n_sub)
    weights[0] = weights[-1] = 0.5 / n_sub
    u, v = model.u0.copy(), model.v0.copy()
    us, vs, drifts, noise = [u], [v], [], []
    v_int = comp = 0.0
    for _ in range(n_steps):
        u_phys = synthesize(u, grid)
        v_int, comp = kahan_add(v_int, comp, h * eval_V(
            u_phys, synthesize(v, grid), model.lyapunov, grid))
        nodal = [_checked_drift(model, u_phys, v)]
        step_noise = [fast.normals(n) for _ in range(n_sub)]
        for v in _reference_substeps(v, u, model, plan_fast, step_noise):
            nodal.append(_checked_drift(model, u_phys, v))
        f1 = analyze(weights.dot(np.stack(nodal)), grid)
        u = (plan_slow.decay * u + plan_slow.drift_weight * f1
             + plan_slow.noise_std * slow.normals(n))
        us.append(u)
        vs.append(v)
        drifts.append(f1)
        noise.append(np.stack(step_noise))
    return (np.stack(us), np.stack(vs), np.stack(drifts), np.stack(noise),
            v_int)


def _reference_replay(traj, model, steps_per_block):
    h = model.h_macro
    n_sub = traj.fast_noise.shape[1]
    plan_fast = _fast_plan(model, h / n_sub)
    v_aux = [traj.v[0]]
    for i in range(model.n_steps):
        block_start = (i // steps_per_block) * steps_per_block
        u_frozen = traj.u[block_start]
        if i == block_start:
            v = traj.v[block_start].copy()
        v = _reference_substeps(v, u_frozen, model, plan_fast,
                                traj.fast_noise[i])[-1]
        v_aux.append(v)
    return np.stack(v_aux)


def _reference_functionals(traj, model):
    """path_functionals one node at a time: 1-D norms, V and powers per
    node, the sums and maxima running in node order."""
    grid = model.grid
    lyap = model.lyapunov
    q_index = 1 if lyap.q_bar == 4.0 * lyap.m2 else 2
    n_steps = len(traj.u) - 1
    h = model.h_macro
    sup_u = sup_v = 0.0
    v_int = v_comp = proxy = proxy_comp = 0.0
    for i in range(n_steps + 1):
        u_phys = synthesize(traj.u[i], grid)
        v_phys = synthesize(traj.v[i], grid)
        norms = lyapunov_norms(u_phys, v_phys, lyap, grid)
        u_term = norms[0] ** (4.0 * lyap.m1)
        sup_u = max(sup_u, u_term)
        sup_v = max(sup_v, norms[q_index] ** lyap.q_bar)
        if i < n_steps:
            v_int, v_comp = kahan_add(v_int, v_comp, h * eval_V(
                u_phys, v_phys, lyap, grid, norms))
            proxy, proxy_comp = kahan_add(proxy, proxy_comp,
                                          h * lyap.c_V * (1.0 + u_term))
    return {"v_integral": v_int, "sup_u": sup_u, "sup_v": sup_v,
            "vbar_proxy": proxy}


KERNEL_MODELS = {
    "linear": lambda eps: linear_model(eps=eps, lam_slow=0.02, lam_fast=0.2,
                                       horizon=0.7),
    "cubic": lambda eps: cubic_model(eps=eps, theta=0.01, horizon=0.7),
}


class TestPlansPerModel:
    @pytest.mark.parametrize("make", [linear_model, cubic_model],
                             ids=["affine", "sine"])
    def test_shared_plans_leak_nothing_between_paths(self, make):
        # A model's paths share its plans, each with buffers of its own:
        # paths interleaved across two models, and a replay after them,
        # give the bits of the same run on a freshly built model.
        base = make(horizon=0.2)
        models = {0.1: base.with_epsilon(0.1), 0.004: base.with_epsilon(0.004)}
        trajs = []
        for eps, trajectory_id in ((0.1, 1), (0.004, 2), (0.1, 1)):
            traj = simulate_slowfast(models[eps], 5, trajectory_id)
            fresh = simulate_slowfast(make(eps, horizon=0.2), 5,
                                      trajectory_id)
            for name in ("u", "v", "fast_noise", "slow_drift"):
                assert np.array_equal(getattr(traj, name),
                                      getattr(fresh, name)), (eps, name)
            trajs.append(traj)
        aux = build_auxiliary(trajs[0], 0.05, models[0.1])
        fresh_model = make(0.1, horizon=0.2)
        fresh_aux = build_auxiliary(simulate_slowfast(fresh_model, 5, 1),
                                    0.05, fresh_model)
        assert all(np.array_equal(a, b) for a, b in zip(aux, fresh_aux))

    def test_derived_models_make_their_own_plans(self):
        model = cubic_model()
        plans = model.coupled_plans
        assert model.coupled_plans is plans
        assert model.slow_plan is model.slow_plan
        assert plans.v_nodes is None and plans.states is None
        for derived in (model.with_epsilon(0.02), model.with_theta(0.001)):
            assert derived.coupled_plans is not plans
            assert derived.slow_plan is not model.slow_plan
            assert derived.coupled_plans.n_sub == derived.n_sub
        path_a, path_b = plans.for_path(), plans.for_path()
        assert path_a.stepper is path_b.stepper is plans.stepper
        assert not np.shares_memory(path_a.v_nodes, path_b.v_nodes)
        assert not np.shares_memory(path_a.states, path_b.states)


class TestKernelBitIdentity:
    # eps = 0.1, 0.02, 0.004 give n_sub = 1, 3, 13 at h_macro = 0.01.  The
    # reference draws one step's normals at a time, the kernel a path's.
    @pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("eps,n_sub", [(0.1, 1), (0.02, 3), (0.004, 13)])
    def test_path_matches_reference(self, kind, eps, n_sub):
        model = KERNEL_MODELS[kind](eps)
        traj = simulate_slowfast(model, 41, 2)
        assert traj.fast_noise.shape[1] == n_sub
        u, v, drifts, noise, v_int = _reference_path(model, 41, 2)
        assert np.array_equal(traj.u, u)
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.slow_drift, drifts)
        assert np.array_equal(traj.fast_noise, noise)
        assert path_functionals(traj, model)["v_integral"] == v_int

    @pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
    def test_replay_matches_reference(self, kind):
        model = KERNEL_MODELS[kind](0.02)
        traj = simulate_slowfast(model, 43, 1)
        _, v_aux = build_auxiliary(traj, 0.05, model)
        assert snap_block(0.05, model.h_macro)[0] == 5
        assert np.array_equal(v_aux, _reference_replay(traj, model, 5))

    # 70 macro steps leave a last block of 1, 2 and 10 steps at 3, 4, 15.
    @pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("steps_per_block", [1, 3, 4, 15])
    def test_replay_reuses_path_steps(self, kind, steps_per_block,
                                      monkeypatch):
        import slowfast.fast_dynamics as fast_dynamics
        model = KERNEL_MODELS[kind](0.02)
        traj = simulate_slowfast(model, 43, 1)
        stepper = fast_dynamics.FastStepper
        advance, apply_map = stepper.advance, stepper.apply_map
        calls = {"advance": [], "apply_map": []}

        def counting_advance(self, *args, **kwargs):
            # args[3] is the noise (n, blocks, N): n replayed substeps of
            # each stacked block.
            calls["advance"].append(args[3].shape[0] * args[3].shape[1])
            return advance(self, *args, **kwargs)

        def counting_map(*args, **kwargs):
            # args[1] is the frozen u (blocks, N): one replayed macro step
            # of each stacked block.
            calls["apply_map"].append(len(args[1]))
            return apply_map(*args, **kwargs)
        monkeypatch.setattr(stepper, "advance", counting_advance)
        monkeypatch.setattr(stepper, "apply_map", staticmethod(counting_map))
        delta = steps_per_block * model.h_macro
        _, v_aux = build_auxiliary(traj, delta, model)
        assert snap_block(delta, model.h_macro)[0] == steps_per_block
        assert np.array_equal(v_aux,
                              _reference_replay(traj, model, steps_per_block))
        # A block's first macro step is the path's own, never replayed.
        # The sine step replays its substeps; the linear step applies the
        # map once per replayed macro step, whatever n_sub.  The blocks
        # replay stacked: the full ones in one group, a shorter last block
        # in a second.
        n_blocks = math.ceil(70 / steps_per_block)
        replayed = 70 - n_blocks
        if kind == "linear":
            assert calls["advance"] == []
            assert sum(calls["apply_map"]) == replayed
        else:
            assert calls["apply_map"] == []
            assert sum(calls["advance"]) == (replayed
                                             * traj.fast_noise.shape[1])
            assert len(calls["advance"]) <= 2
        short = 70 % steps_per_block
        assert len(calls["apply_map"]) == (0 if kind == "cubic" else (
            steps_per_block - 1 + max(0, short - 1)))
        if steps_per_block == 1:
            assert calls == {"advance": [], "apply_map": []}

    # eps = 0.1, 0.02, 0.004 give n_sub = 1, 3, 13; block lengths run
    # past the path, and most horizons leave a shorter last block.
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(KERNEL_MODELS)),
           eps=st.sampled_from([0.1, 0.02, 0.004]),
           n_steps=st.integers(min_value=2, max_value=24),
           data=st.data())
    def test_stacked_replay_matches_per_block_reference(self, kind, eps,
                                                        n_steps, data):
        steps_per_block = data.draw(st.integers(min_value=1,
                                                max_value=n_steps + 3))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        model = dataclasses.replace(KERNEL_MODELS[kind](eps),
                                    horizon=n_steps * 0.01)
        assert model.n_steps == n_steps
        traj = simulate_slowfast(model, seed, 3)
        delta = steps_per_block * model.h_macro
        assert snap_block(delta, model.h_macro)[0] == steps_per_block
        _, v_aux = build_auxiliary(traj, delta, model)
        assert np.array_equal(v_aux,
                              _reference_replay(traj, model, steps_per_block))

    @pytest.mark.parametrize("kind", ["cubic", "decoupled", "linear"])
    def test_functionals_match_per_node_reference(self, kind):
        if kind == "decoupled":
            # kappa1 = 0: V's third norm has a degenerate exponent.
            model = parse_config("configs/decoupled_control.json").model
        else:
            model = KERNEL_MODELS[kind](0.02)
        traj = simulate_slowfast(model, 53, 4)
        assert (path_functionals(traj, model)
                == _reference_functionals(traj, model))
        # Node by node: a two-node path reads node i's V and powers alone.
        for i in range(model.n_steps):
            pair = dataclasses.replace(traj, u=traj.u[i:i + 2],
                                       v=traj.v[i:i + 2])
            assert (path_functionals(pair, model)
                    == _reference_functionals(pair, model)), i

    def test_non_finite_replay_raises(self, monkeypatch):
        # The replay has no guard of its own inside the substeps; a field
        # that turns non-finite is reported at its first replayed node,
        # t = 2h: node h is the path's own.
        import slowfast.fast_dynamics as fast_dynamics
        model = KERNEL_MODELS["linear"](0.1)
        traj = simulate_slowfast(model, 5, 0)

        def nan_noise(self, xi):
            return np.full(np.shape(xi), np.nan)
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise", nan_noise)
        with pytest.raises(StateExplosionError, match="replay") as info:
            build_auxiliary(traj, 0.05, model)
        assert info.value.t == pytest.approx(0.02)


class TestSlowPath:
    # slow_path's update is ou_step's, iterated on the same stream: the
    # whole path's normals drawn at once are the draws of one step at a
    # time.  ou_step is the reference of the exact OU update (criterion 1).
    @pytest.mark.parametrize("value", [0.0, 0.75])
    def test_matches_iterated_ou_step(self, value):
        model = linear_model(horizon=0.37)
        forcing_value = np.full(model.n_modes, value)
        seen = []

        def forcing(i, t, u):
            seen.append((i, t, u))
            return forcing_value, 0.0
        path = slow_path(model, derive_stream(5, 3, "auxiliary"), forcing)
        plan = make_plan(model.op1, model.h_macro, 1.0)
        stream = derive_stream(5, 3, "auxiliary")
        reference = [model.u0]
        for _ in range(model.n_steps):
            reference.append(ou_step(reference[-1], plan, forcing_value,
                                     stream))
        assert model.n_steps == 37
        assert np.array_equal(path, np.stack(reference))
        times = model.times
        for i, (step, t, u) in enumerate(seen):
            assert (step, t) == (i, times[i])
            assert np.array_equal(u, path[i])
        assert len(seen) == model.n_steps


class TestFastMoments:
    def test_sup_moment_uniform_in_eps(self):
        # Statistic: the mean over paths of max |v|^2 over the macro nodes
        # t = 0, h, ..., T, with the fast field started at v0 = 0. It stays
        # within a factor 2 across the eps grid and shows no significant
        # growth trend as eps decreases. v0 = 0 because the fast field
        # relaxes to |v|^2 ~ 0.035 within one macro step, so a nonzero v0
        # (|v0|^2 = 1) would be the max on every path and the statistic would
        # be the initial value. Uniformity is claimed for the sup over the
        # fixed macro grid that simulate_slowfast records: for an OU-type
        # fast field the continuous-time sup grows roughly like log(1/eps).
        eps_grid = (0.1, 0.02, 0.004)
        means = []
        for eps in eps_grid:
            model = linear_model(eps=eps, lam_fast=0.2, horizon=0.5,
                                 v0_mode=0.0)
            sups = []
            argmax_nodes = []
            for i in range(30):
                traj = simulate_slowfast(model, 31, i)
                energy = np.sum(traj.v ** 2, axis=1)
                sups.append(float(np.max(energy)))
                argmax_nodes.append(int(np.argmax(energy)))
            # non-degeneracy: the sup must come from the fast dynamics
            assert len(set(sups)) > 1, (
                f"eps={eps}: all {len(sups)} sampled sups equal {sups[0]}")
            at_start = argmax_nodes.count(0)
            assert at_start == 0, (
                f"eps={eps}: sup reached at t=0 on {at_start} of "
                f"{len(sups)} paths, so it measures the initial value")
            means.append(np.mean(sups))
        assert max(means) / min(means) <= 2.0
        fit = linregress(np.log(eps_grid), means)
        # growth as eps decreases would need a significantly negative slope
        assert fit.slope > 0 or fit.pvalue > 0.05

    def test_fast_autocorrelation_clock(self):
        # g = 0: mode 1 of v is an OU with relaxation time eps/alpha_{2,1}.
        # Pool the lag-1..3 autocorrelation over trajectories; longer lags
        # add correlated estimation noise, not signal.
        eps = 0.1
        h = 2e-3
        model = linear_model(eps=eps, a_c=0.0, b_c=0.0, lam_fast=0.3,
                             lam_slow=0.0, horizon=10.0, h_macro=h)
        lags = np.arange(1, 4)
        acfs = []
        for tid in range(4):
            x = simulate_slowfast(model, 13, tid).v[:, 0]
            x = x - x.mean()
            acfs.append([np.dot(x[:-k], x[k:]) / np.dot(x, x) for k in lags])
        acf = np.mean(acfs, axis=0)
        rate = -linregress(lags * h, np.log(acf)).slope
        tau_exact = eps / model.op2.alphas[0]
        assert 1.0 / rate == pytest.approx(tau_exact, rel=0.10)


def _freezing_errors(trajs, delta, model):
    """block_freezing_errors over the paths' block-frozen replays."""
    deviations = [freezing_deviations(t, build_auxiliary(t, delta, model),
                                      model)
                  for t in trajs]
    return block_freezing_errors([slow for slow, _ in deviations],
                                 [fast for _, fast in deviations])


class TestAuxiliary:
    # g independent of x (a_c = 0), at n_sub = 1, 3 and 13: the replay
    # of an unchanged fast drift is the path, bit for bit.
    X_INDEPENDENT_EPS = (0.1, 0.02, 0.004)

    def test_single_block_x_independent_is_exact(self):
        # g independent of x: freezing the slow argument changes nothing
        for eps in self.X_INDEPENDENT_EPS:
            model = linear_model(eps=eps, a_c=0.0, lam_fast=0.2, horizon=0.2)
            traj = simulate_slowfast(model, 17, 0)
            u_aux, v_aux = build_auxiliary(traj, 1.0, model)
            assert np.array_equal(v_aux, traj.v), eps
            assert np.all(u_aux == traj.u[0])

    def test_replay_fidelity_block_equals_step(self):
        for eps in self.X_INDEPENDENT_EPS:
            model = linear_model(eps=eps, a_c=0.0, lam_fast=0.2, horizon=0.2)
            traj = simulate_slowfast(model, 19, 0)
            _, v_aux = build_auxiliary(traj, model.h_macro, model)
            assert np.array_equal(v_aux, traj.v), eps

    def test_deterministic_rebuild(self):
        model = linear_model(eps=0.1, horizon=0.2)
        traj = simulate_slowfast(model, 23, 0)
        a = build_auxiliary(traj, 0.05, model)
        b = build_auxiliary(traj, 0.05, model)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], b[0])

    def test_substep_layout_mismatch_rejected(self):
        # One substep per macro step at eps = 0.1, three at eps = 0.02: the
        # recorded normals cannot drive the replay of the other model.
        model = linear_model(eps=0.1, horizon=0.1)
        traj = simulate_slowfast(model, 0, 0)
        with pytest.raises(InvalidParameterError, match="substep layout"):
            build_auxiliary(traj, 0.05, model.with_epsilon(0.02))

    def test_step_count_mismatch_rejected(self):
        # A path of another horizon has another number of macro steps.
        traj = simulate_slowfast(linear_model(eps=0.1, horizon=0.1), 0, 0)
        with pytest.raises(InvalidParameterError, match="substep layout"):
            build_auxiliary(traj, 0.05, linear_model(eps=0.1, horizon=0.2))

    @pytest.mark.parametrize("delta", [0.0, -0.05, math.nan])
    def test_non_positive_delta_rejected(self, delta):
        model = linear_model(eps=0.1, horizon=0.1)
        traj = simulate_slowfast(model, 0, 0)
        with pytest.raises(InvalidParameterError, match="delta must be positive"):
            build_auxiliary(traj, delta, model)

    def test_error_grows_with_block_length(self):
        # quadrupling delta increases both freezing errors (3 sigma)
        model = linear_model(eps=0.05, lam_slow=0.02, lam_fast=0.1, horizon=0.5)
        trajs = [simulate_slowfast(model, 29, i)
                 for i in range(48)]
        stats = []
        for delta in (0.025, 0.1):
            stats.append(_freezing_errors(trajs, delta, model))
        (small_sup, small_sup_se, small_fast, small_fast_se), (
            big_sup, big_sup_se, big_fast, big_fast_se) = stats
        gap_se = math.hypot(small_sup_se, big_sup_se)
        assert big_sup > small_sup + 3 * gap_se
        fast_se = math.hypot(small_fast_se, big_fast_se)
        assert big_fast > small_fast + 3 * fast_se

    def test_fast_deviation_zero_when_x_independent(self):
        for eps in self.X_INDEPENDENT_EPS:
            model = linear_model(eps=eps, a_c=0.0, lam_fast=0.2, horizon=0.2)
            trajs = [simulate_slowfast(model, 37, i)
                     for i in range(4)]
            _, _, fast_mean, _ = _freezing_errors(trajs, 0.05, model)
            assert fast_mean == 0.0, eps


class TestExplosionCause:
    def test_bound_and_non_finite_are_told_apart(self):
        over = StateExplosionError(0.1, 2e6, 1.0, 1e6)
        assert over.cause == "bound" and "exceeds guard" in str(over)
        for norm in (math.nan, math.inf):
            bad = StateExplosionError(0.1, 1.0, norm, 1e6)
            assert bad.cause == "non-finite"
            assert "is non-finite" in str(bad)
            assert "exceeds guard" not in str(bad)
