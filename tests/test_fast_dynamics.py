import dataclasses
import math
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, linregress

from slowfast import (FrozenFastParams, GridSpec, InvalidParameterError,
                      SpectralOperator, StateExplosionError,
                      analytic_Fbar_linear, build_model, estimate_Fbar,
                      estimate_invariant_average, make_fast_reaction, make_plan,
                      make_slow_reaction, nemytskii_drift, step_frozen_fast,
                      synthesize)
from slowfast.fast_dynamics import N_BATCHES, FastStepper, batch_std_error
from slowfast.noise import derive_stream

from conftest import linear_model, unit_field

N = 4
M = 16


def frozen_cfg(a_c=1.0, b_c=2.0, lam=0.2, x_mode=1.0, h=0.01,
               t_burn=None, t_avg=10.0, n_replicas=4, c_s=0.0, nu=1.0):
    """A model with the given fast operator and reaction, a frozen slow
    state x = x_mode e_1, and the frozen-fast parameters; t_burn defaults
    to 10/omega."""
    grid = GridSpec(n_modes=N, n_quad=M)
    op2 = SpectralOperator.from_power_law(N, nu, 1.0, lam, 1.0, 0.5)
    if c_s:
        reaction = make_fast_reaction("lipschitz_saturating", a_c=a_c, b_c=b_c,
                                      c_s=c_s)
    else:
        reaction = make_fast_reaction("linear_benchmark", a_c=a_c, b_c=b_c)
    model = build_model(op2, op2, make_slow_reaction("linear_benchmark"),
                        reaction, grid, 0.1, 1.0, np.zeros(N), np.zeros(N))
    if t_burn is None:
        t_burn = 10.0 / model.omega
    return (model, unit_field(N, value=x_mode),
            FrozenFastParams(h=h, t_burn=t_burn, t_avg=t_avg,
                             n_replicas=n_replicas))


def pair_distances(model, params, v1, v2, x1, x2, t_max, master_seed):
    """Two frozen-fast chains, at slow states x1 and x2, under common noise:
    one (2, N) block whose rows take the same increments.  Returns the
    step times and the distance |v1(t) - v2(t)| after each step."""
    h = params.h
    fast = FastStepper(model.reaction_fast, model.grid, model.op2, h, 1.0)
    stream = derive_stream(master_seed, 0, "frozen_fast_noise")
    n_steps = max(2, int(round(t_max / h)))
    noise = fast.noise(stream.normals(n_steps * N).reshape(n_steps, 1, N))
    v = np.stack([v1, v2])
    states, _ = fast.advance(
        v, synthesize(v, model.grid),
        fast.drive(synthesize(np.stack([x1, x2]), model.grid)), noise)
    return (np.arange(1, n_steps + 1) * h,
            np.linalg.norm(states[:, 0] - states[:, 1], axis=-1))


def contraction_rate(model, x, params, y1, y2, master_seed, t_max=None):
    """Fitted exponential decay rate of the common-noise distance of two
    chains frozen at x, started at y1 and y2; omega > 0 bounds it by
    -omega."""
    if t_max is None:
        t_max = 5.0 / model.omega
    times, dists = pair_distances(model, params, y1, y2, x, x, t_max,
                                  master_seed)
    mask = dists > 0
    return float(np.polyfit(times[mask], np.log(dists[mask]), 1)[0])


def lipschitz_ratio(model, params, x1, x2, master_seed, t_max):
    """sup_t |v^{x1}(t) - v^{x2}(t)| / |x1 - x2| for two chains started at
    zero under common noise."""
    y0 = np.zeros(N)
    _, dists = pair_distances(model, params, y0, y0, x1, x2, t_max,
                              master_seed)
    return float(np.max(dists)) / float(np.linalg.norm(x1 - x2))


def stationary_moment(model, x, params, master_seed):
    """Stationary E|v|^2 of the frozen fast law at slow state x: its mean
    and standard error."""
    quad = model.grid.quad_weight
    return estimate_invariant_average(
        model, x, params,
        lambda v_phys: quad * np.sum(v_phys * v_phys, axis=-1), master_seed)


class TestStepFrozenFast:
    def test_pure_semigroup_decay(self):
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, lam=0.0, x_mode=0.0)
        stream = derive_stream(0, 0, "frozen_fast_noise")
        v = unit_field(N)
        v = step_frozen_fast(v, model, x, params, stream)
        assert v[0] == pytest.approx(
            math.exp(-model.op2.alphas[0] * params.h), rel=1e-12)
        assert np.all(v[1:] == 0)

    def test_linear_fixed_point(self):
        # noise off: iterates converge to a_c x_k / (alpha_k + b_c)
        model, x, params = frozen_cfg(lam=0.0)
        stream = derive_stream(0, 0, "frozen_fast_noise")
        v = np.zeros(N)
        n_steps = int(50.0 / (params.h * (model.op2.alphas[0] + 2.0)))
        for _ in range(n_steps):
            v = step_frozen_fast(v, model, x, params, stream)
        expected = x / (model.op2.alphas + 2.0)
        assert np.max(np.abs(v - expected)) <= 1e-8

    def test_small_step_changes_field_slightly(self):
        model, x, params = frozen_cfg(h=1e-6, lam=0.2)
        stream = derive_stream(3, 0, "frozen_fast_noise")
        v0 = unit_field(N)
        v1 = step_frozen_fast(v0, model, x, params, stream)
        # drift O(h), noise O(sqrt(h))
        assert np.linalg.norm(v1 - v0) < 1e-2


class TestExactFastLinearPart:
    """A linear fast chain (a_c = 1, b_c = 2) at h/eps = 0.2 has the exact
    stationary law per mode: -b_c*sigma is integrated in the OU plan, so
    the step size does not bias it."""

    def test_stationary_variance_is_exact_per_mode(self):
        model, _, _ = frozen_cfg()
        op2 = model.op2
        eps = 0.02
        stepper = FastStepper(model.reaction_fast, model.grid, op2, 0.2 * eps,
                              eps)
        exact = op2.lambdas ** 2 / (2.0 * (op2.alphas + 2.0))
        variance = stepper.noise_std ** 2 / (1.0 - stepper.decay ** 2)
        np.testing.assert_allclose(variance, exact, rtol=1e-12)
        # Treating -b_c*sigma explicitly instead biases mode 1 upward.
        plan = make_plan(op2, 0.2 * eps, eps)
        explicit = plan.noise_std ** 2 / (
            1.0 - (plan.decay - 2.0 * plan.drift_weight) ** 2)
        assert explicit[0] > 1.1 * exact[0]

    def test_sampled_mode_1_variance_in_chi_square_band(self):
        model, x, params = frozen_cfg(x_mode=0.0, h=0.2, t_avg=400.0,
                                      n_replicas=4)
        n_samples = params.n_replicas * _steps(params)[1]

        def mode1_sq(v_phys):
            from slowfast.spectral import analyze
            return analyze(v_phys, model.grid)[:, 0] ** 2

        mean, _ = estimate_invariant_average(model, x, params, mode1_sq,
                                             master_seed=29)
        op2 = model.op2
        exact = op2.lambdas[0] ** 2 / (2.0 * (op2.alphas[0] + 2.0))
        # v_1^2 of an AR(1) chain with lag-1 correlation rho is correlated
        # as rho^(2k): the effective chi-square degrees of freedom.
        rho2 = math.exp(-2.0 * (op2.alphas[0] + 2.0) * params.h)
        dof = n_samples * (1.0 - rho2) / (1.0 + rho2)
        low, high = chi2.ppf([1e-6, 1.0 - 1e-6], dof) / dof
        assert low * exact <= mean <= high * exact


class TestInvariantAverage:
    def test_constant_observable(self):
        from slowfast.fast_dynamics import _run_replicas
        model, x, params = frozen_cfg(t_avg=1.0, n_replicas=2)

        def ones(v_phys):
            return np.ones(v_phys.shape[0])
        mean, std_error = estimate_invariant_average(model, x, params, ones,
                                                     master_seed=5)
        assert mean == pytest.approx(1.0)
        assert std_error == 0.0
        # The estimate pools one batch mean per (replica, batch).
        streams = [derive_stream(5, r, "frozen_fast_noise") for r in range(2)]
        batches = _run_replicas(model, x, params, ones, streams,
                                synthesize(x, model.grid))
        assert batches.shape == (2, N_BATCHES)

    def test_norm_square_matches_ou_closed_form(self):
        # x=0, a_c=0, b_c=0: stationary E|v|^2 = sum lambda_k^2/(2 alpha_k)
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, x_mode=0.0, lam=0.3,
                                      t_avg=40.0, n_replicas=4)
        quad = model.grid.quad_weight

        def norm_sq(v_phys):
            return quad * np.sum(v_phys * v_phys, axis=-1)

        mean, std_error = estimate_invariant_average(model, x, params,
                                                     norm_sq, master_seed=17)
        exact = float(np.sum(model.op2.lambdas ** 2 / (2 * model.op2.alphas)))
        assert abs(mean - exact) <= 3 * std_error

    def test_field_observable_matches_linear_mean(self):
        from slowfast.spectral import analyze
        model, x, params = frozen_cfg(lam=0.2, t_avg=40.0, n_replicas=4)
        grid = model.grid

        def modal(v_phys):
            return analyze(v_phys, grid)

        mean, std_error = estimate_invariant_average(model, x, params, modal,
                                                     master_seed=23)
        expected = x / (model.op2.alphas + 2.0)
        assert np.all(np.abs(mean - expected) <= 3 * std_error + 1e-12)

    def test_std_error_shrinks_with_budget(self):
        quad_w = frozen_cfg()[0].grid.quad_weight

        def norm_sq(v_phys):
            return quad_w * np.sum(v_phys * v_phys, axis=-1)

        _, small = estimate_invariant_average(
            *frozen_cfg(t_avg=5.0, n_replicas=2), norm_sq, master_seed=3)
        _, large = estimate_invariant_average(
            *frozen_cfg(t_avg=20.0, n_replicas=8), norm_sq, master_seed=3)
        # 16x the budget: expect roughly 4x smaller error bars
        assert large < small

    @staticmethod
    def _ar1_batches(rho, n_rep, n_batches, seed):
        # (R, B) stationary AR(1) sequences with unit marginal variance
        rng = np.random.default_rng(seed)
        out = np.empty((n_rep, n_batches))
        out[:, 0] = rng.normal(size=n_rep)
        for i in range(1, n_batches):
            out[:, i] = (rho * out[:, i - 1]
                         + math.sqrt(1 - rho ** 2) * rng.normal(size=n_rep))
        return out

    @staticmethod
    def _ar1_exact_se(rho, n_rep, n_batches):
        lags = np.arange(1, n_batches)
        var = n_batches + 2 * np.sum((n_batches - lags) * rho ** lags)
        return math.sqrt(var / (n_batches ** 2 * n_rep))

    def test_batch_std_error_covers_correlated_batches(self):
        # the plain batch spread understates the error of correlated
        # batches (lag-1 correlation 0.3, as for the slowest fast mode of
        # the linear benchmark at t_avg = 30/omega); the AR(1) correction
        # recovers it
        rho, n_rep = 0.3, 200
        batches = self._ar1_batches(rho, n_rep, N_BATCHES, seed=5)
        exact = self._ar1_exact_se(rho, n_rep, N_BATCHES)
        plain = batches.std(ddof=1) / math.sqrt(batches.size)
        assert plain < 0.85 * exact
        assert batch_std_error(batches) == pytest.approx(exact, rel=0.1)

    def test_batch_std_error_of_independent_batches(self):
        batches = self._ar1_batches(0.0, 200, N_BATCHES, seed=6)
        exact = self._ar1_exact_se(0.0, 200, N_BATCHES)
        assert batch_std_error(batches) == pytest.approx(exact, rel=0.1)
        # one standard error per observable component; constant -> 0
        stacked = np.stack([batches, np.ones_like(batches)], axis=-1)
        se = batch_std_error(stacked)
        assert se.shape == (2,)
        assert se[0] == pytest.approx(batch_std_error(batches), rel=1e-12)
        assert se[1] == 0.0

    def test_ergodicity_time_vs_ensemble(self):
        # time average of <v, e1> against an ensemble of independent
        # stationary-window averages
        cfg_time = frozen_cfg(lam=0.2, t_avg=60.0, n_replicas=1)
        cfg_ens = frozen_cfg(lam=0.2, t_avg=2.0, n_replicas=30)
        grid = cfg_time[0].grid

        def mode1(v_phys):
            from slowfast.spectral import analyze
            return analyze(v_phys, grid)[:, 0]

        time_mean, time_se = estimate_invariant_average(*cfg_time, mode1,
                                                        master_seed=31)
        ens_mean, ens_se = estimate_invariant_average(*cfg_ens, mode1,
                                                      master_seed=77)
        combined = math.hypot(time_se, ens_se)
        assert abs(time_mean - ens_mean) <= 3 * combined

    def test_no_drift_from_stationarity(self):
        # batch means of |v|^2 show no time trend at the 1% level
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, x_mode=0.0, lam=0.3,
                                      t_avg=40.0, n_replicas=1)
        from slowfast.fast_dynamics import _run_replicas
        from slowfast.spectral import synthesize
        x_phys = synthesize(x, model.grid)
        quad = model.grid.quad_weight
        stream = derive_stream(41, 0, "frozen_fast_noise")
        batches = _run_replicas(model, x, params,
                                lambda v: quad * np.sum(v * v, axis=-1),
                                [stream], x_phys)[0]
        values = np.array([float(b) for b in batches])
        fit = linregress(np.arange(values.size), values)
        assert fit.pvalue > 0.01

    def _kernel_inputs(self, c_s=0.2):
        model, x, params = frozen_cfg(lam=0.2, t_avg=0.6, n_replicas=1,
                                      c_s=c_s)
        return model, x, params, synthesize(x, model.grid)

    def test_matches_per_replica_loop(self):
        # The batched kernel against the one-vector-at-a-time loop it
        # replaced: identical arithmetic, so identical bits.  A replica's
        # first draws are its start in the companion's stationary law, and
        # a batch is summed in time order.
        from slowfast.fast_dynamics import _run_replicas
        from slowfast.spectral import analyze
        model, x, params, x_phys = self._kernel_inputs()
        grid = model.grid
        n_burn, n_avg = _steps(params)
        batch_len = n_avg // N_BATCHES
        stepper = FastStepper(model.reaction_fast, grid, model.op2,
                              params.h, 1.0)
        mean, variance = stepper.stationary_law(stepper.drive(x_phys))
        for replica in range(3):
            stream = derive_stream(8, replica, "frozen_fast_noise")
            v = mean + np.sqrt(variance) * stream.normals(N)
            for _ in range(n_burn):
                v = step_frozen_fast(v, model, x, params, stream, x_phys)
            reference = []
            acc = 0.0
            for i in range(n_avg):
                v = step_frozen_fast(v, model, x, params, stream, x_phys)
                acc = acc + analyze(synthesize(v, grid), grid)
                if (i + 1) % batch_len == 0:
                    reference.append(acc / batch_len)
                    acc = 0.0
            streams = [derive_stream(8, r, "frozen_fast_noise") for r in range(3)]
            batched = _run_replicas(model, x, params,
                                    lambda v_phys: analyze(v_phys, grid),
                                    streams, x_phys)
            assert np.array_equal(batched[replica], np.stack(reference))

    def test_replicas_are_independent_rows(self):
        # R replicas in one block give the batch means of R one-replica runs.
        from slowfast.fast_dynamics import _run_replicas
        model, x, params, x_phys = self._kernel_inputs()
        quad = model.grid.quad_weight

        def norm_sq(v_phys):
            return quad * np.sum(v_phys * v_phys, axis=-1)

        def streams(ids):
            return [derive_stream(12, r, "frozen_fast_noise") for r in ids]

        block = _run_replicas(model, x, params, norm_sq, streams(range(5)),
                              x_phys)
        singles = [_run_replicas(model, x, params, norm_sq, streams([r]),
                                 x_phys)[0]
                   for r in range(5)]
        assert block.shape == (5, N_BATCHES)
        assert np.array_equal(block, np.stack(singles))
        mean, _ = estimate_invariant_average(
            model, x, dataclasses.replace(params, n_replicas=5), norm_sq,
            master_seed=12)
        assert mean == np.concatenate(singles).mean()

    def test_draw_chunking_does_not_change_batches(self, monkeypatch):
        # Noise drawn a few steps at a time equals noise drawn in large chunks.
        import slowfast.fast_dynamics as fast_dynamics
        from slowfast.spectral import analyze
        model, x, params, x_phys = self._kernel_inputs()

        def run():
            streams = [derive_stream(3, r, "frozen_fast_noise") for r in range(2)]
            return fast_dynamics._run_replicas(
                model, x, params, lambda v_phys: analyze(v_phys, model.grid),
                streams, x_phys)

        default = run()
        monkeypatch.setattr(fast_dynamics, "DRAW_CHUNK_STEPS", 7)
        assert np.array_equal(run(), default)

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_companion_is_the_linear_chain_on_the_same_draws(
            self, monkeypatch, chunk):
        # With the companion, the observable sees each chunk's rows of the
        # replicas, as without it, then those of the linear kind on the same
        # draws; the batches average the difference of the two.
        import slowfast.fast_dynamics as fast_dynamics
        from slowfast.spectral import analyze
        model, x, params, x_phys = self._kernel_inputs()
        linear, _, _ = frozen_cfg(lam=0.2, t_avg=0.6, n_replicas=1)
        assert linear.reaction_fast.kind == "linear_benchmark"
        if chunk:
            monkeypatch.setattr(fast_dynamics, "DRAW_CHUNK_STEPS", chunk)

        def run(run_model, companion=False):
            seen = []

            def observable(v_phys):
                # The kernel reuses its node stack: keep a copy.
                seen.append(v_phys.copy())
                return analyze(v_phys, model.grid)
            streams = [derive_stream(5, r, "frozen_fast_noise")
                       for r in range(3)]
            batches = fast_dynamics._run_replicas(
                run_model, x, params, observable, streams, x_phys,
                companion=companion)
            return batches, seen
        both, both_rows = run(model, companion=True)
        alone, alone_rows = run(model)
        lin, lin_rows = run(linear)
        assert len(both_rows) == 2 * len(alone_rows) == 2 * len(lin_rows)
        for own, got in zip(alone_rows + lin_rows,
                            both_rows[0::2] + both_rows[1::2]):
            assert np.array_equal(got, own)
        n_burn, n_avg = _steps(params)
        per_step = np.concatenate(
            [analyze(a, model.grid) - analyze(b, model.grid)
             for a, b in zip(alone_rows, lin_rows)]).reshape(n_avg, 3, N)
        batch_len = n_avg // N_BATCHES
        expected = per_step.reshape(N_BATCHES, batch_len, 3, N).mean(axis=1)
        np.testing.assert_allclose(both, expected.transpose(1, 0, 2),
                                   rtol=1e-12, atol=1e-15)

    def test_non_finite_replica_raises(self, monkeypatch):
        # A NaN in a replica's field must never be pooled: the kernel
        # raises, naming the replica whose field went non-finite.
        import slowfast.fast_dynamics as fast_dynamics
        real_noise = fast_dynamics.FastStepper.noise

        def nan_in_replica_1(self, xi):
            noise = real_noise(self, xi)
            noise[:, 1] = np.nan
            return noise
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise",
                            nan_in_replica_1)
        with pytest.raises(StateExplosionError, match="frozen-fast replica 1"):
            estimate_invariant_average(*frozen_cfg(t_avg=0.2, n_replicas=3),
                                       lambda v_phys: v_phys[:, 0],
                                       master_seed=0)

    def test_per_vector_observable_rejected(self):
        # An observable written for one nodal vector would silently pool
        # all replicas into one number; the kernel refuses it.
        cfg = frozen_cfg(t_avg=1.0, n_replicas=3)
        with pytest.raises(InvalidParameterError, match="observable"):
            estimate_invariant_average(
                *cfg, lambda v_phys: float(np.sum(v_phys * v_phys)),
                master_seed=0)


def _steps(params):
    """Burn-in and averaging step counts of _run_replicas."""
    n_burn = int(round(params.t_burn / params.h))
    n_avg = N_BATCHES * max(1, math.ceil(params.t_avg
                                         / (N_BATCHES * params.h)))
    return n_burn, n_avg


def _cubic_drift(grid, x_phys):
    """The nested F-bar observable on cubic_rough with theta-truncation."""
    from slowfast.spectral import analyze
    spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)
    return lambda v_phys: analyze(
        nemytskii_drift(spec, 0.01, 0.0, x_phys, v_phys, grid), grid)


class TestExactStart:
    """Each replica starts at a draw from the stationary law of its Gaussian
    companion, which is the linear kind's own law."""

    def test_step_zero_states_follow_the_companion_law(self, monkeypatch):
        # The states that the first advance of each chain starts from, at a
        # frozen state with a drive in several modes: per mode and per node,
        # mean and variance within two-sided Bonferroni 5% bounds.
        import slowfast.fast_dynamics as fast_dynamics
        model, _, _ = frozen_cfg(c_s=0.2)
        x = np.array([2.0, -1.0, 0.5, 0.3])
        x_phys = synthesize(x, model.grid)
        params = FrozenFastParams(h=0.05, t_burn=0.0, t_avg=N_BATCHES * 0.05,
                                  n_replicas=1)
        advance = FastStepper.advance
        starts = []

        def recording(self, v, *args, **kwargs):
            if len(starts) < 2:
                starts.append(v.copy())
            return advance(self, v, *args, **kwargs)
        monkeypatch.setattr(fast_dynamics.FastStepper, "advance", recording)
        n_rep = 4000
        streams = [derive_stream(21, r, "frozen_fast_noise")
                   for r in range(n_rep)]
        fast_dynamics._run_replicas(model, x, params,
                                    lambda v_phys: v_phys[:, 0], streams,
                                    x_phys, companion=True)
        # The companion starts where its replica does.
        assert np.array_equal(starts[0], starts[1])
        stepper = FastStepper(model.reaction_fast, model.grid, model.op2,
                              params.h, 1.0)
        mode_mean, mode_var = stepper.stationary_law(stepper.drive(x_phys))
        node_mean, node_std = fast_dynamics.companion_law(model, x_phys,
                                                          params.h)
        checks = [(starts[0], mode_mean, np.sqrt(mode_var)),
                  (synthesize(starts[0], model.grid), node_mean, node_std)]
        n_tests = 2 * sum(mean.size for _, mean, _ in checks)
        level = 0.05 / n_tests
        z_bound = NormalDist().inv_cdf(1 - level / 2)
        lo, hi = chi2.ppf([level / 2, 1 - level / 2], n_rep - 1)
        for sample, mean, std in checks:
            z = (sample.mean(axis=0) - mean) / (std / math.sqrt(n_rep))
            assert np.abs(z).max() <= z_bound, z
            ratio = (n_rep - 1) * sample.var(axis=0, ddof=1) / std ** 2
            assert np.all((ratio >= lo) & (ratio <= hi)), ratio

    def test_linear_kind_needs_no_burn_in(self):
        # The linear kind's chain is its own companion, so it is stationary
        # from the first step: at t_burn = 0 the estimate meets criterion 2's
        # bound (3 standard errors per mode) against the closed form.  The
        # plain estimate still warns below 5/omega.
        model = linear_model(lam_fast=0.1)
        u0 = unit_field(model.n_modes)
        params = FrozenFastParams(h=0.005, t_burn=0.0,
                                  t_avg=200.0 / model.omega, n_replicas=16)
        with pytest.warns(UserWarning, match="t_burn"):
            mean, se = estimate_Fbar(0.0, u0, params, model, master_seed=2024)
        exact = analytic_Fbar_linear(model, 0.0, u0)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12), (
            np.abs(mean - exact) / se)


class TestChunkedObservable:
    """The kernel evaluates the observable once per draw chunk, on the
    (n*R, M) rows of the chunk's averaged steps."""

    def test_one_call_per_chunk_with_averaged_steps(self):
        import slowfast.fast_dynamics as fast_dynamics
        cfg = frozen_cfg(t_burn=1.0, t_avg=2.0, n_replicas=3)
        params = cfg[2]
        n_burn, n_avg = _steps(params)
        chunk = fast_dynamics.DRAW_CHUNK_STEPS
        assert n_burn % chunk and (n_burn + n_avg) % chunk
        rows = []

        def counting(v_phys):
            rows.append(v_phys.shape[0])
            return v_phys[:, 0]
        estimate_invariant_average(*cfg, counting, master_seed=0)
        n_chunks = math.ceil((n_burn + n_avg) / chunk)
        assert len(rows) == n_chunks - n_burn // chunk
        assert rows[0] == 3 * (chunk - n_burn % chunk)
        assert sum(rows) == 3 * n_avg

    def test_non_finite_rows_never_observed(self, monkeypatch):
        # The noise turns replica 1 non-finite a few steps into an averaged
        # chunk: the chunk's rows are withheld and the replica is named.
        import slowfast.fast_dynamics as fast_dynamics
        cfg = frozen_cfg(t_burn=1.0, t_avg=2.0, n_replicas=3)
        params = cfg[2]
        n_burn, _ = _steps(params)
        real_noise = fast_dynamics.FastStepper.noise
        drawn = [0]  # steps drawn so far, over all chunks

        def nan_in_replica_1(self, xi):
            noise = real_noise(self, xi)
            noise[max(0, n_burn + 100 - drawn[0]):, 1] = np.nan
            drawn[0] += noise.shape[0]
            return noise
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise",
                            nan_in_replica_1)
        observed = []

        def recording(v_phys):
            observed.append(np.isfinite(v_phys).all())
            return v_phys[:, 0]
        with pytest.raises(StateExplosionError, match="frozen-fast replica 1"):
            estimate_invariant_average(*cfg, recording, master_seed=0)
        assert observed and all(observed)

    @pytest.mark.parametrize("observable", [
        lambda v_phys: np.ones(v_phys.shape[0] + 1),
        lambda v_phys: v_phys[::2, 0],
        lambda v_phys: np.ones((v_phys.shape[0], 2, 2)),
    ], ids=["extra_row", "half_rows", "three_axes"])
    def test_wrong_row_count_rejected(self, observable):
        cfg = frozen_cfg(t_avg=1.0, n_replicas=3)
        with pytest.raises(InvalidParameterError, match="observable"):
            estimate_invariant_average(*cfg, observable, master_seed=0)

    def test_changing_vector_length_rejected(self):
        calls = []

        def growing(v_phys):
            calls.append(None)
            return np.ones((v_phys.shape[0], len(calls)))
        cfg = frozen_cfg(t_avg=1.0, n_replicas=2)
        with pytest.raises(InvalidParameterError, match="observable"):
            estimate_invariant_average(*cfg, growing, master_seed=0)

    @settings(max_examples=40, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=300),
           n_burn=st.integers(min_value=0, max_value=150),
           n_rep=st.integers(min_value=1, max_value=3))
    @example(chunk=64, n_burn=100, n_rep=2)
    @example(chunk=300, n_burn=37, n_rep=1)
    def test_batches_independent_of_chunk_size(self, chunk, n_burn, n_rep):
        import slowfast.fast_dynamics as fast_dynamics
        from slowfast.spectral import synthesize
        model, x, params = frozen_cfg(t_burn=n_burn * 0.01, t_avg=0.4,
                                      c_s=0.2)
        x_phys = synthesize(x, model.grid)
        observable = _cubic_drift(model.grid, x_phys)

        def run():
            streams = [derive_stream(9, r, "frozen_fast_noise")
                       for r in range(n_rep)]
            return fast_dynamics._run_replicas(model, x, params, observable,
                                               streams, x_phys)
        default = run()
        with mock.patch.object(fast_dynamics, "DRAW_CHUNK_STEPS", chunk):
            assert np.array_equal(run(), default)

    def test_long_scalar_batches_independent_of_replica_count(self):
        # One value per step and replica, batches of 16 steps: a replica
        # alone sums its batches as it does in a block, term by term in
        # time order (a pairwise sum of a lone column would not).
        import slowfast.fast_dynamics as fast_dynamics
        model, x, params = frozen_cfg(t_burn=0.1, t_avg=3.2, c_s=0.2)
        x_phys = synthesize(x, model.grid)
        quad = model.grid.quad_weight

        def run(ids):
            return fast_dynamics._run_replicas(
                model, x, params,
                lambda v_phys: quad * np.sum(v_phys * v_phys, axis=-1),
                [derive_stream(4, r, "frozen_fast_noise") for r in ids],
                x_phys)
        assert _steps(params)[1] // N_BATCHES == 16
        block = run(range(3))
        for r in range(3):
            assert np.array_equal(run([r])[0], block[r])


class TestMomentCheck:
    """The stationary moment E|v|^2 against c_p (1 + |x|^2), c_p = 1."""

    def test_pure_ou_ratio(self):
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, x_mode=0.0, lam=0.3,
                                      t_avg=40.0, n_replicas=4)
        mean, std_error = stationary_moment(model, x, params, master_seed=9)
        exact = float(np.sum(model.op2.lambdas ** 2 / (2 * model.op2.alphas)))
        assert mean == pytest.approx(exact, abs=4 * std_error)

    def test_bounded_across_x_scales(self):
        model, _, params = frozen_cfg(lam=0.2, t_avg=20.0, n_replicas=2)
        ratios = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            x = unit_field(N, value=scale)
            mean, _ = stationary_moment(model, x, params, master_seed=13)
            ratios.append(mean / (1.0 + float(np.linalg.norm(x)) ** 2))
        assert max(ratios) <= 1.0  # response gain a_c/(alpha+b_c) << 1 here

    def test_deterministic_decay_gives_zero(self):
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, x_mode=0.0, lam=0.0,
                                      t_avg=5.0, n_replicas=1, t_burn=5.0)
        assert stationary_moment(model, x, params, master_seed=1)[0] <= 1e-12


class TestContraction:
    def test_noise_free_semigroup_rate(self):
        model, x, params = frozen_cfg(a_c=0.0, b_c=0.0, lam=0.0, x_mode=0.0,
                                      h=0.001)
        rate = contraction_rate(model, x, params, unit_field(N), np.zeros(N),
                                master_seed=3, t_max=0.5)
        assert rate == pytest.approx(-model.op2.alphas[0], rel=0.01)

    def test_linear_benchmark_rate(self):
        model, x, params = frozen_cfg(lam=0.2, h=0.001)
        y1 = unit_field(N, value=0.5)
        rate = contraction_rate(model, x, params, y1, np.zeros(N),
                                master_seed=5, t_max=0.5)
        assert rate == pytest.approx(-(model.op2.alphas[0] + 2.0), rel=0.05)

    def test_saturating_reaction_beats_omega(self):
        model, x, params = frozen_cfg(lam=0.2, c_s=0.2, h=0.001)
        rate = contraction_rate(model, x, params, unit_field(N, value=0.3),
                                np.zeros(N), master_seed=7)
        assert rate <= -0.95 * model.omega


class TestLipschitzInX:
    def test_x_independent_reaction_gives_zero(self):
        model, _, params = frozen_cfg(a_c=0.0, lam=0.2)
        ratio = lipschitz_ratio(model, params, unit_field(N),
                                2 * unit_field(N), master_seed=3, t_max=1.0)
        assert ratio <= 1e-14

    def test_linear_response_gain(self):
        model, _, params = frozen_cfg(lam=0.0, h=0.002)
        ratio = lipschitz_ratio(model, params, unit_field(N, value=1.0),
                                unit_field(N, value=2.0),
                                master_seed=3, t_max=3.0)
        gain = 1.0 / (model.op2.alphas[0] + 2.0)
        assert ratio == pytest.approx(gain, rel=0.1)

    def test_local_uniformity(self):
        model, _, params = frozen_cfg(lam=0.1, h=0.002)
        r1 = lipschitz_ratio(model, params, unit_field(N, value=1.0),
                             unit_field(N, value=1.4),
                             master_seed=3, t_max=2.0)
        r2 = lipschitz_ratio(model, params, unit_field(N, value=1.0),
                             unit_field(N, value=1.2),
                             master_seed=3, t_max=2.0)
        assert abs(r1 - r2) / r1 < 0.1


class TestConfigValidation:
    def test_burn_in_warning(self):
        # Warned once per estimate, not when the parameters are made.
        cfg = frozen_cfg(t_burn=0.0, t_avg=0.2, n_replicas=1)
        with pytest.warns(UserWarning, match="t_burn") as record:
            estimate_invariant_average(*cfg, lambda v_phys: v_phys[:, 0],
                                       master_seed=0)
        assert len(record) == 1

    def test_dissipativity_gate(self):
        # The gate is build_model's: a frozen-fast estimate takes a model
        # that passed it.
        from slowfast import ConfigurationRejectedError
        with pytest.raises(ConfigurationRejectedError, match="Hypothesis 2.3"):
            frozen_cfg(b_c=20.0, t_burn=1.0)

    def test_invalid_steps(self):
        with pytest.raises(InvalidParameterError, match="h must be"):
            frozen_cfg(h=0.0)

    @pytest.mark.parametrize("field,value", [
        ("h", -0.01), ("h", math.nan), ("t_burn", -1.0), ("t_avg", 0.0),
        ("t_avg", math.inf), ("n_replicas", 0)])
    def test_range_error_names_the_field(self, field, value):
        values = dict(h=0.01, t_burn=1.0, t_avg=1.0, n_replicas=1)
        values[field] = value
        with pytest.raises(InvalidParameterError, match=field) as info:
            FrozenFastParams(**values)
        assert info.value.name == field


class TestCommonNoiseMonotonicity:
    def test_smoothed_log_distance_nonincreasing(self):
        # common-noise coupling with omega > 0: the distance between two
        # chains decays pathwise; check it after a 10h smoothing window
        model, x, params = frozen_cfg(lam=0.3, c_s=0.2, h=0.002)
        _, dists = pair_distances(model, params, unit_field(N), np.zeros(N),
                                  x, x, 5.0 / model.omega, 7)
        window = 10
        smoothed = np.convolve(np.log(dists), np.ones(window) / window,
                               mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-9)
