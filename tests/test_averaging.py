import dataclasses
import math
import os
from statistics import NormalDist

import numpy as np
import pytest

from slowfast import (FrozenFastParams, InvalidParameterError,
                      SpectralOperator,
                      StateExplosionError, analytic_Fbar_linear,
                      estimate_Fbar, estimate_invariant_average, eval_V,
                      make_fast_reaction, simulate_averaged, synthesize)
from slowfast.averaging import (averaged_mean_rates, companion_Fbar,
                                make_drift_fn)
from slowfast.config import parse_config
from slowfast.fast_dynamics import N_BATCHES
from slowfast.harness import pooled_invariant_rows
from slowfast.noise import derive_stream
from slowfast.reactions import fast_coefficients
from slowfast.spectral import analyze

from conftest import cubic_model, linear_model, unit_field


def fast_params(model, t_avg_units=50.0, n_replicas=4, h=0.01, **kw):
    omega = model.omega
    return FrozenFastParams(h=h, t_burn=10.0 / omega,
                            t_avg=t_avg_units / omega,
                            n_replicas=n_replicas, **kw)


def estimate_Vbar(x, model, params, master_seed=0):
    """Stationary expectation of V(x, v) under the frozen fast law, with
    its standard error."""
    x_phys = synthesize(x, model.grid)
    return estimate_invariant_average(
        model, x, params,
        lambda v_phys: eval_V(x_phys, v_phys, model.lyapunov, model.grid),
        master_seed)


class TestAnalyticOracle:
    def test_mode_one_value(self):
        model = linear_model(n_modes=8)
        out = analytic_Fbar_linear(model, 0.0, unit_field(8))
        assert out[0] == pytest.approx(1.0 / (math.pi ** 2 + 2.0), rel=1e-12)
        assert np.all(out[1:] == 0)

    def test_zero_coupling(self):
        model = linear_model(a_c=0.0)
        out = analytic_Fbar_linear(model, 0.0, unit_field(8))
        assert np.all(out == 0)

    def test_linearity(self, rng):
        model = linear_model()
        x = rng.normal(size=8)
        assert np.array_equal(analytic_Fbar_linear(model, 0.0, 2.0 * x),
                              2.0 * analytic_Fbar_linear(model, 0.0, x))

    def test_requires_linear_benchmark(self):
        with pytest.raises(InvalidParameterError):
            analytic_Fbar_linear(cubic_model(), 0.0, unit_field(8))

    def test_stack_rows_equal_single_states(self, rng):
        # make_drift_fn's exact drift on a path's nodes is one stacked call.
        model = linear_model()
        xs = rng.normal(size=(5, 8))
        out = analytic_Fbar_linear(model, np.zeros(5), xs)
        assert out.shape == (5, 8)
        for x, row in zip(xs, out):
            assert np.array_equal(row, analytic_Fbar_linear(model, 0.0, x))

    @pytest.mark.parametrize("shape,value", [((2, 8), np.nan), ((2, 7), 1.0),
                                             ((2, 2, 8), 1.0)],
                             ids=["non_finite", "wrong_width", "three_axes"])
    def test_stack_is_checked(self, shape, value):
        with pytest.raises(InvalidParameterError):
            analytic_Fbar_linear(linear_model(), 0.0, np.full(shape, value))


class TestEstimateFbar:
    def test_matches_oracle_componentwise(self):
        model = linear_model(n_modes=4, n_quad=16, lam_fast=0.2)
        params = fast_params(model, t_avg_units=60.0, n_replicas=6, h=0.005)
        mean, se = estimate_Fbar(0.0, unit_field(4), params, model,
                                 master_seed=101)
        exact = analytic_Fbar_linear(model, 0.0, unit_field(4))
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)

    def test_centered_invariant_measure_gives_zero_drift(self):
        # odd-in-v reaction averaged against the centered stationary law
        model = cubic_model(n_modes=4, n_quad=16, c_u=0.0, c_v=1.0, theta=0.0)
        model = model.with_epsilon(0.5)
        # remove the slow->fast coupling so mu^0 is centered at 0
        from slowfast import make_fast_reaction
        import dataclasses
        model = dataclasses.replace(
            model, reaction_fast=make_fast_reaction("linear_benchmark",
                                                    a_c=0.0, b_c=2.0))
        params = fast_params(model, t_avg_units=40.0, n_replicas=4, h=0.005)
        mean, se = estimate_Fbar(0.0, np.zeros(4), params, model, master_seed=7)
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)

    def test_fast_independent_reaction_has_no_mc_noise(self):
        # b independent of the fast variable: every batch sees the same value
        from slowfast import make_slow_reaction
        import dataclasses
        model = linear_model(n_modes=4, n_quad=16)
        slow = make_slow_reaction("polynomial", terms=[(1.0, 1, 0)],
                                  m1=1, m2=1, kappa1=2, kappa2=0)
        model = dataclasses.replace(model, reaction_slow=slow)
        params = fast_params(model, t_avg_units=5.0, n_replicas=2)
        mean, se = estimate_Fbar(0.0, unit_field(4), params, model,
                                 master_seed=0)
        assert np.max(se) <= 1e-12
        # the drift equals the pointwise value of b(u, .) = u
        assert mean[0] == pytest.approx(1.0, rel=1e-10)

    def test_cache_determinism(self):
        # the same (seed, trajectory id, t, x) gives bit-identical estimates
        model = linear_model(n_modes=4, n_quad=16)
        params = fast_params(model, t_avg_units=5.0, n_replicas=2)
        x = unit_field(4)
        first = estimate_Fbar(0.3, x, params, model, master_seed=55,
                              trajectory_id=4)
        second = estimate_Fbar(0.3, x, params, model, master_seed=55,
                               trajectory_id=4)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_seeds_do_not_collide(self):
        # The fast law and b = lam ignore x, so the mean depends on the
        # nested streams alone.  A seed rule of master_seed + hash(x) made
        # seed 2452913653 at e_1 replay seed 0 at 2 e_1 bit for bit.
        from slowfast import make_fast_reaction
        model = linear_model(n_modes=4, n_quad=16)
        model = dataclasses.replace(
            model, reaction_fast=make_fast_reaction("linear_benchmark",
                                                    a_c=0.0, b_c=2.0))
        params = fast_params(model, t_avg_units=5.0, n_replicas=2)
        a, _ = estimate_Fbar(0.0, unit_field(4, value=1.0), params, model,
                             master_seed=2452913653)
        b, _ = estimate_Fbar(0.0, unit_field(4, value=2.0), params, model,
                             master_seed=0)
        assert not np.array_equal(a, b)

    def test_streams_keyed_by_trajectory_and_step(self):
        model = linear_model(n_modes=4, n_quad=16)
        params = fast_params(model, t_avg_units=5.0, n_replicas=2)
        x = unit_field(4)
        base, _ = estimate_Fbar(0.0, x, params, model, master_seed=0,
                                trajectory_id=0)
        other_id, _ = estimate_Fbar(0.0, x, params, model, master_seed=0,
                                    trajectory_id=1)
        other_step, _ = estimate_Fbar(model.h_macro, x, params, model,
                                      master_seed=0, trajectory_id=0)
        assert not np.array_equal(base, other_id)
        assert not np.array_equal(base, other_step)

    def test_off_grid_time_rejected(self):
        # an off-grid t would round onto a neighbouring node's streams
        model = linear_model(n_modes=4, n_quad=16)
        params = fast_params(model, t_avg_units=5.0, n_replicas=2)
        with pytest.raises(InvalidParameterError, match="h_macro grid"):
            estimate_Fbar(0.5 * model.h_macro, unit_field(4), params, model,
                          master_seed=0)


# The exact drift modes read no nested-estimation parameters.
EXACT_PARAMS = FrozenFastParams(h=0.01, t_burn=1.0, t_avg=1.0, n_replicas=1)


class TestAveragedEquation:
    def test_pure_decay_without_drift_or_noise(self):
        model = linear_model(a_c=0.0, lam_slow=0.0)
        path = simulate_averaged(model, EXACT_PARAMS, 0, 0)
        assert path[-1][0] == pytest.approx(
            math.exp(-model.op1.alphas[0]), rel=1e-10)

    def test_single_step_matches_scalar_exponential(self):
        h = 1e-3
        model = linear_model(lam_slow=0.0, horizon=h, h_macro=h)
        path = simulate_averaged(model, EXACT_PARAMS, 0, 0)
        mu = averaged_mean_rates(model)[0]
        assert len(path) == model.times.size == 2
        assert abs(path[-1][0] - math.exp(mu * h)) <= 1e-8

    def test_explosion_guard_raises_at_a_node(self):
        # model.explosion_bound guards the averaged equation as it guards
        # the coupled path: the first node past it raises, with its time.
        model = linear_model(lam_slow=0.0, a_c=10.0)
        free = simulate_averaged(model, EXACT_PARAMS, 0, 0)
        norms = np.linalg.norm(free, axis=1)
        first = int(np.argmax(norms > 1.5))
        assert first > 1  # mu_1 > 0, so the norm grows past the bound
        with pytest.raises(StateExplosionError) as info:
            simulate_averaged(dataclasses.replace(model, explosion_bound=1.5),
                              EXACT_PARAMS, 0, 0)
        exc = info.value
        assert exc.t == model.times[first] and exc.cause == "bound"
        assert exc.norm_u == pytest.approx(norms[first], rel=1e-15)
        assert "state explosion in the averaged equation at t=" in str(exc)

    def test_non_finite_norm_trips_the_guard(self, monkeypatch):
        # A finite state whose squared norm overflows: the guard raises
        # with the cause "non-finite", whatever the bound.
        import slowfast.averaging as averaging

        def huge_drift(*args):
            return lambda t, u: (np.full_like(u, 1e308), np.zeros_like(u))
        monkeypatch.setattr(averaging, "make_drift_fn", huge_drift)
        with np.errstate(over="ignore"), \
                pytest.raises(StateExplosionError) as info:
            simulate_averaged(linear_model(), EXACT_PARAMS, 0, 0)
        assert info.value.t == 0.01 and info.value.cause == "non-finite"

    def test_first_order_in_time(self):
        # terminal drift-handling error halves with the step
        errs = []
        for h in (0.02, 0.01):
            model = linear_model(lam_slow=0.0, h_macro=h)
            path = simulate_averaged(model, EXACT_PARAMS, 0, 0)
            exact = math.exp(averaged_mean_rates(model)[0])
            errs.append(abs(path[-1][0] - exact))
        ratio = errs[0] / errs[1]
        assert 1.5 <= ratio <= 2.5

    def test_zero_horizon_returns_initial_state(self):
        # A horizon below h_macro / 2 takes no step.
        model = linear_model(horizon=0.004, h_macro=0.01)
        assert model.n_steps == 0
        path = simulate_averaged(model, EXACT_PARAMS, 0, 0)
        assert len(path) == model.times.size == 1
        assert np.array_equal(path[0], unit_field(8))

    def test_noise_off_terminal_value(self):
        model = linear_model(lam_slow=0.0, h_macro=1e-4)
        path = simulate_averaged(model, EXACT_PARAMS, 0, 0)
        exact = math.exp(averaged_mean_rates(model)[0])
        assert abs(path[-1][0] - exact) <= 1e-6

    def test_ensemble_mean_matches_deterministic_path(self):
        model = linear_model(lam_slow=0.05)
        exact = math.exp(averaged_mean_rates(model)[0])
        terminals = []
        for i in range(200):
            path = simulate_averaged(model, EXACT_PARAMS, 9, i)
            terminals.append(path[-1][0])
        terminals = np.array(terminals)
        se = terminals.std(ddof=1) / math.sqrt(terminals.size)
        assert abs(terminals.mean() - exact) <= 3 * se + 1e-4


class TestVbar:
    def test_degenerate_exponents_give_c_V(self):
        import dataclasses
        from slowfast import LyapunovSpec
        model = linear_model(n_modes=4, n_quad=16)
        model = dataclasses.replace(
            model, lyapunov=LyapunovSpec(c_V=2.5, m1=0, m2=0, kappa1=0, kappa2=0))
        params = fast_params(model, t_avg_units=2.0, n_replicas=1)
        mean, se = estimate_Vbar(np.zeros(4), model, params)
        assert mean == pytest.approx(2.5)
        assert se == 0.0

    def test_deterministic_zero_state(self):
        import dataclasses
        from slowfast import make_fast_reaction
        model = linear_model(n_modes=4, n_quad=16, lam_fast=0.0)
        model = dataclasses.replace(
            model, reaction_fast=make_fast_reaction("linear_benchmark",
                                                    a_c=0.0, b_c=0.0))
        params = FrozenFastParams(h=0.01, t_burn=2.0, t_avg=2.0,
                                  n_replicas=1)
        mean, _ = estimate_Vbar(np.zeros(4), model, params)
        assert mean == pytest.approx(model.lyapunov.c_V)

    def test_growth_in_x_is_polynomially_bounded(self):
        # Vbar(x) / (1 + |x|_{L^{4m1}}^{2m1}) stays bounded over an x grid
        model = linear_model(n_modes=4, n_quad=16, lam_fast=0.2)
        params = fast_params(model, t_avg_units=10.0, n_replicas=2)
        lyap = model.lyapunov
        ratios = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            x = unit_field(4, value=scale)
            mean, _ = estimate_Vbar(x, model, params, master_seed=3)
            from slowfast.spectral import lp_norm, synthesize
            x_norm = lp_norm(synthesize(x, model.grid), model.grid, 4.0 * lyap.m1)
            ratios.append(mean / (1.0 + x_norm ** (2.0 * lyap.m1)))
        assert max(ratios) / min(ratios) < 3.0
        assert max(ratios) < 10.0 * model.lyapunov.c_V


class TestOracleAgreementProperty:
    def test_twenty_random_states(self, rng):
        # estimator vs closed form, componentwise within 3 se, over random
        # slow states with norm at most 2
        model = linear_model(n_modes=4, n_quad=16, lam_fast=0.2)
        params = fast_params(model, t_avg_units=30.0, n_replicas=4, h=0.005)
        for trial in range(20):
            x = rng.normal(size=4)
            x *= rng.uniform(0.1, 2.0) / np.linalg.norm(x)
            # trajectory_id = trial gives every trial its own nested streams
            mean, se = estimate_Fbar(0.0, x, params, model, master_seed=71,
                                     trajectory_id=trial)
            exact = analytic_Fbar_linear(model, 0.0, x)
            # 80 independent three-sigma checks in all; a fixed absolute
            # slack keeps one chance excursion of a small component from
            # failing them
            slack = 1e-3
            assert np.all(np.abs(mean - exact) <= 3.0 * se + slack), \
                f"trial {trial}: diff={np.abs(mean - exact)}, se={se}"


class TestThetaConsistency:
    def test_truncated_drift_gap_bounded_by_theta_vbar(self):
        # |Fbar - Fbar_theta|^2 <= theta * (Vbar + 3 sigma) for theta in
        # {0.1, 0.01}; common streams make the difference purely truncation
        model = cubic_model(n_modes=4, n_quad=16, theta=0.0)
        x = unit_field(4, value=0.5)
        seed = 404
        base_params = fast_params(model, t_avg_units=30.0, n_replicas=4,
                                  h=0.005)
        raw, _ = estimate_Fbar(0.0, x, base_params, model, master_seed=seed)
        vbar, vbar_se = estimate_Vbar(x, model, base_params, master_seed=seed)
        for theta in (0.1, 0.01):
            trunc, _ = estimate_Fbar(0.0, x, base_params,
                                     model.with_theta(theta), master_seed=seed)
            gap_sq = float(np.sum((raw - trunc) ** 2))
            assert gap_sq <= theta * (vbar + 3.0 * vbar_se), \
                f"theta={theta}: gap^2={gap_sq:.3e} vs bound " \
                f"{theta * (vbar + 3 * vbar_se):.3e}"

    def test_estimator_reads_model_theta(self):
        # the nested drift truncates at model.theta, the coupled path's level
        model = cubic_model(n_modes=4, n_quad=16, theta=0.0)
        x = unit_field(4, value=0.5)
        params = fast_params(model, t_avg_units=5.0, n_replicas=2, h=0.005)
        raw, _ = make_drift_fn(model, params, 404, 0)(0.0, x)
        trunc, _ = make_drift_fn(model.with_theta(0.5), params, 404, 0)(0.0, x)
        assert not np.array_equal(raw, trunc)
        assert np.array_equal(trunc, estimate_Fbar(
            0.0, x, params, model.with_theta(0.5), master_seed=404)[0])


def shipped(name):
    return parse_config(os.path.join(os.path.dirname(__file__), "..",
                                     "configs", f"{name}.json"))


class TestAutoDriftResolution:
    """make_drift_fn picks the exact drift where one exists: the oracle for
    the linear benchmark, the slow reaction alone when b ignores the fast
    variable, and the nested estimator otherwise.  The exact modes read no
    nested-estimation params."""

    def test_linear_benchmark_resolves_to_oracle(self):
        model = shipped("linear_benchmark").model
        drift, se = make_drift_fn(model, EXACT_PARAMS, 0, 0)(0.0, model.u0)
        a_c = model.reaction_fast.param("a_c")
        b_c = model.reaction_fast.param("b_c")
        assert np.array_equal(drift, a_c * model.u0 / (model.op2.alphas + b_c))
        assert not se.any()

    def test_decoupled_control_resolves_to_slow_only(self):
        model = shipped("decoupled_control").model
        assert not model.reaction_slow.depends_on_fast
        drift, se = make_drift_fn(model, EXACT_PARAMS, 0, 0)(0.0, model.u0)
        assert np.isfinite(drift).all() and drift.any()
        assert not se.any()

    def test_cubic_rough_resolves_to_estimator(self):
        cfg = shipped("cubic_rough")
        model = cfg.model
        t = 3 * model.h_macro
        drift, se = make_drift_fn(model, cfg.averaging, cfg.master_seed,
                                  trajectory_id=5)(t, model.u0)
        mean, mean_se = estimate_Fbar(t, model.u0, cfg.averaging, model,
                                      cfg.master_seed, trajectory_id=5)
        assert np.array_equal(drift, mean) and np.array_equal(se, mean_se)
        assert se.all()


def step_z(coarse, fine) -> np.ndarray:
    """|coarse mean - fine mean| over the combined standard error of two
    independent (mean, std_error) estimates, per component."""
    (m1, se1), (m2, se2) = coarse, fine
    return np.abs(np.subtract(m1, m2)) / np.hypot(se1, se2)


def bonferroni_bound(k: int, level: float = 0.05) -> float:
    """Two-sided normal bound at the given level over k comparisons."""
    return NormalDist().inv_cdf(1.0 - level / (2 * k))


class TestFrozenStepBias:
    """The frozen-fast step of cubic_rough.json against a ten times finer
    one.  The exponential substep is exact in -(alpha_k + b_c) sigma and
    the noise (test_properties.py), so only the explicit c_s sin(sigma)
    term biases the frozen fast law, by O(c_s h).  The shipped step h
    passes when the estimates at h and h/10, on independent seeds, agree
    within their combined standard errors at the Bonferroni 5% level over
    the compared quantities; the same comparison must reject a strong sine
    term at a coarse step."""

    REPLICAS = 64
    LARGE_STATE = (2.0, -1.0, 0.5, 0.3)

    @staticmethod
    def fbar_z(model, x, params):
        fine = dataclasses.replace(params, h=params.h / 10)
        return step_z(estimate_Fbar(0.0, x, params, model, master_seed=1),
                      estimate_Fbar(0.0, x, fine, model, master_seed=2))

    def large_state(self, model):
        x = np.zeros(model.n_modes)
        x[:len(self.LARGE_STATE)] = self.LARGE_STATE
        return x

    @pytest.mark.parametrize("state", ["u0", "large"])
    def test_shipped_averaging_step(self, state):
        cfg = shipped("cubic_rough")
        model = cfg.model
        x = model.u0 if state == "u0" else self.large_state(model)
        params = dataclasses.replace(cfg.averaging, n_replicas=self.REPLICAS)
        z = self.fbar_z(model, x, params)
        assert z.max() <= bonferroni_bound(model.n_modes), z

    def test_shipped_invariant_step(self):
        cfg = shipped("cubic_rough")

        def rows(h, seed):
            inv = dataclasses.replace(cfg.invariant, h=h,
                                      n_replicas=self.REPLICAS)
            run = dataclasses.replace(cfg, invariant=inv, master_seed=seed)
            _, means, ses = zip(*pooled_invariant_rows(run))
            return means, ses

        h = cfg.invariant.h
        z = step_z(rows(h, 1), rows(h / 10, 2))
        assert z.max() <= bonferroni_bound(len(cfg.observables)), z

    def test_strong_sine_term_at_a_coarse_step_is_rejected(self):
        # c_s = 6 keeps L2 = 8 inside the gap alpha_1 = pi^2 (omega = 1.87)
        # and lambda0 = 1 spreads the fast field over the sine's curvature,
        # so the sine term's bias at h = 0.2 must show.  Sizing: max |z| =
        # 6.7 here (7.0 on seeds 5 and 6); 4.1 at 128 replicas.
        cfg = shipped("cubic_rough")
        n = cfg.model.n_modes
        model = dataclasses.replace(
            cfg.model,
            reaction_fast=make_fast_reaction("lipschitz_saturating", a_c=1.0,
                                             b_c=2.0, c_s=6.0),
            op2=SpectralOperator.from_power_law(n, 1.0, 1.0, 1.0, 1.0, 0.5))
        params = FrozenFastParams(h=0.2, t_burn=3.0, t_avg=50.0,
                                  n_replicas=256)
        assert params.t_burn >= 5.0 / model.omega
        z = self.fbar_z(model, self.large_state(model), params)
        assert z.max() > bonferroni_bound(n), z


class TestControlVariate:
    """The averaged drift of a fast reaction with a sine term: each replica
    drives its Gaussian companion (the step without c_s sin sigma) on the
    same draws, and estimate_Fbar returns mean(f(v) - f(v_lin)) plus the
    companion's exact drift, companion_Fbar."""

    @staticmethod
    def with_fast(model, kind, **extra):
        a_c, b_c, _ = fast_coefficients(model.reaction_fast)
        return dataclasses.replace(model, reaction_fast=make_fast_reaction(
            kind, a_c=a_c, b_c=b_c, **extra))

    @staticmethod
    def state(model, name):
        return (model.u0 if name == "u0"
                else TestFrozenStepBias().large_state(model))

    @pytest.mark.parametrize("state", ["u0", "large"])
    def test_exact_companion_drift_matches_the_plain_estimator(self, state):
        # At c_s = 0 the fast law is the companion's.  The linear kind
        # keeps the plain nested estimator; it must agree with the exact
        # drift within its standard errors, Bonferroni 5% over the modes.
        cfg = shipped("cubic_rough")
        model = cfg.model
        x = self.state(model, state)
        params = dataclasses.replace(cfg.averaging, t_avg=25.0,
                                     n_replicas=TestFrozenStepBias.REPLICAS)
        plain, se = estimate_Fbar(0.0, x, params,
                                  self.with_fast(model, "linear_benchmark"),
                                  master_seed=3)
        exact = companion_Fbar(0.0, synthesize(x, model.grid), params.h,
                               self.with_fast(model, "lipschitz_saturating",
                                              c_s=0.0))
        z = np.abs(plain - exact) / se
        assert z.max() <= bonferroni_bound(model.n_modes), z

    def test_zero_sine_term_returns_the_exact_drift(self):
        # At c_s = 0 a replica and its companion are the same chain, so the
        # difference rows are zero and the estimate is companion_Fbar bit
        # for bit, with a standard error of 0.
        from slowfast.fast_dynamics import _run_replicas
        cfg = shipped("cubic_rough")
        model = self.with_fast(cfg.model, "lipschitz_saturating", c_s=0.0)
        x = self.state(model, "large")
        x_phys = synthesize(x, model.grid)
        streams = [derive_stream(0, r, "frozen_fast_noise") for r in range(2)]
        batches = _run_replicas(model, x, cfg.averaging,
                                lambda v_phys: analyze(v_phys, model.grid),
                                streams, x_phys, companion=True)
        assert batches.shape == (2, N_BATCHES, model.n_modes)
        assert not batches.any()
        mean, se = estimate_Fbar(0.0, x, cfg.averaging, model,
                                 cfg.master_seed)
        assert np.array_equal(
            mean, companion_Fbar(0.0, x_phys, cfg.averaging.h, model))
        assert not se.any()

    def test_zero_sine_term_steps_no_replica(self, monkeypatch):
        # At c_s = 0 the exact drift is the estimate: no replica is stepped.
        import slowfast.fast_dynamics as fast_dynamics

        def no_replicas(*args, **kwargs):
            raise AssertionError("a frozen-fast replica was stepped")
        monkeypatch.setattr(fast_dynamics, "_run_replicas", no_replicas)
        cfg = shipped("cubic_rough")
        model = self.with_fast(cfg.model, "lipschitz_saturating", c_s=0.0)
        x = self.state(model, "large")
        mean, se = estimate_Fbar(0.0, x, cfg.averaging, model,
                                 cfg.master_seed)
        assert np.array_equal(mean, companion_Fbar(
            0.0, synthesize(x, model.grid), cfg.averaging.h, model))
        assert se.shape == mean.shape and not se.any()

    def test_shipped_standard_error_is_calibrated(self):
        # 200 seeds of the shipped budget at u0 against a reference 128
        # times its work: the z-scores must look standard normal.  Over
        # 3,200 z-scores at most 1% may exceed 3, and each mode's spread
        # must lie in [0.8, 1.25].
        cfg = shipped("cubic_rough")
        model = cfg.model
        params = cfg.averaging
        ref, ref_se = estimate_Fbar(
            0.0, model.u0, dataclasses.replace(
                params, t_avg=4 * params.t_avg,
                n_replicas=32 * params.n_replicas),
            model, master_seed=10_000)
        z = []
        for seed in range(200):
            mean, se = estimate_Fbar(0.0, model.u0, params, model, seed)
            z.append((mean - ref) / np.hypot(se, ref_se))
        z = np.array(z)
        assert np.mean(np.abs(z) > 3.0) <= 0.01
        spread = z.std(axis=0, ddof=1)
        assert np.all((spread >= 0.8) & (spread <= 1.25)), spread

    @pytest.mark.parametrize("state", ["u0", "large"])
    def test_quadrature_order(self, state, monkeypatch):
        # The truncation remainder has kinks, so the quadrature converges
        # algebraically: the shipped rule must be within 2% of the shipped
        # standard error, mode by mode, of the rule with four times the
        # points (a quarter of the spacing) on the same range.
        import slowfast.averaging as averaging
        cfg = shipped("cubic_rough")
        model = cfg.model
        assert model.theta > 0
        x = self.state(model, state)
        x_phys = synthesize(x, model.grid)
        h = cfg.averaging.h
        _, se = estimate_Fbar(0.0, x, cfg.averaging, model, cfg.master_seed)
        shipped_drift = companion_Fbar(0.0, x_phys, h, model)
        monkeypatch.setattr(averaging, "NORMAL_RULE_POINTS",
                            4 * averaging.NORMAL_RULE_POINTS - 3)
        finer = companion_Fbar(0.0, x_phys, h, model)
        gap = np.abs(shipped_drift - finer) / se
        assert gap.max() < 0.02, gap


class TestBurnInBias:
    """The burn-in of the control-variate estimate.  A replica and its
    Gaussian companion start at one draw from the companion's stationary
    law, so the companion is stationary from its first step and only the
    difference rows f(v) - f(v_lin), zero at the start, relax, at a rate of
    order omega.  The shipped t_burn passes when an estimate with the
    shipped step, burn-in and window (at TestFrozenStepBias.REPLICAS
    replicas, which sharpens the test: a replica's bias does not depend on
    their count) agrees with a reference of six times the burn-in and five
    times the window, within their combined standard errors at the
    Bonferroni 5% level over the modes; the same comparison must reject
    an estimate with no burn-in where the difference relaxes slowly."""

    REFERENCE_T_BURN = 3.0
    REFERENCE_T_AVG = 25.0

    @classmethod
    def burn_z(cls, model, x, params):
        reference = dataclasses.replace(params, t_burn=cls.REFERENCE_T_BURN,
                                        t_avg=cls.REFERENCE_T_AVG)
        return step_z(estimate_Fbar(0.0, x, params, model, master_seed=1),
                      estimate_Fbar(0.0, x, reference, model, master_seed=2))

    @pytest.mark.parametrize("state", ["u0", "large"])
    def test_shipped_burn_in(self, state):
        cfg = shipped("cubic_rough")
        model = cfg.model
        params = dataclasses.replace(cfg.averaging,
                                     n_replicas=TestFrozenStepBias.REPLICAS)
        # Shorter than the 5/omega floor that a plain estimate warns below.
        assert params.t_burn < 5.0 / model.omega
        z = self.burn_z(model, TestControlVariate.state(model, state), params)
        assert z.max() <= bonferroni_bound(model.n_modes), z

    def test_no_burn_in_at_a_strong_sine_term_is_rejected(self):
        # c_s = 6 leaves omega = 1.87, so the difference rows relax over
        # about 0.5, and a window of t_avg = 1 (20 batches of one step)
        # cannot average that transient away.  Sizing: max |z| = 6.6-7.9
        # on four seed pairs; with t_burn = 0.5 instead, 1.5-2.8.
        cfg = shipped("cubic_rough")
        model = TestControlVariate.with_fast(
            cfg.model, "lipschitz_saturating", c_s=6.0)
        params = dataclasses.replace(cfg.averaging, t_burn=0.0, t_avg=1.0,
                                     n_replicas=TestFrozenStepBias.REPLICAS)
        z = self.burn_z(model, TestControlVariate.state(model, "large"),
                        params)
        assert z.max() > bonferroni_bound(model.n_modes), z
