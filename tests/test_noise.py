import math

import numpy as np
import pytest
from scipy.stats import binom, chi2, kstest, norm

from slowfast import (InvalidParameterError, SpectralOperator, derive_stream,
                      make_plan, ou_step)
from slowfast.noise import ROLES


def scalar_op(alpha=1.0, lam=1.0):
    return SpectralOperator(alphas=np.array([alpha]), lambdas=np.array([lam]),
                            gamma_reg=0.5)


class TestStreams:
    def test_determinism(self):
        a = derive_stream(99, 3, "slow_noise").normals(100)
        b = derive_stream(99, 3, "slow_noise").normals(100)
        assert np.array_equal(a, b)

    def test_trajectory_independence(self):
        n = 10_000
        a = derive_stream(7, 0, "slow_noise").normals(n)
        b = derive_stream(7, 1, "slow_noise").normals(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.03

    def test_role_independence(self):
        n = 10_000
        a = derive_stream(7, 5, "slow_noise").normals(n)
        b = derive_stream(7, 5, "fast_noise").normals(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_identity_restarts_at_draw_zero(self):
        s = derive_stream(11, 2, "fast_noise")
        first = s.normals(64)
        again = derive_stream(11, 2, "fast_noise")
        assert np.array_equal(again.normals(64), first)
        # The two streams share no state: each continues the one sequence.
        assert np.array_equal(again.normals(32), s.normals(32))

    def test_identity_replays_keyed_stream(self):
        first = derive_stream(11, 2, "frozen_fast_noise", key=(3, 17)).normals(64)
        again = derive_stream(11, 2, "frozen_fast_noise", key=(3, 17))
        assert np.array_equal(again.normals(64), first)

    def test_trailing_key_selects_stream(self):
        a = derive_stream(11, 2, "frozen_fast_noise", key=(3, 17)).normals(64)
        b = derive_stream(11, 2, "frozen_fast_noise", key=(3, 18)).normals(64)
        c = derive_stream(11, 2, "frozen_fast_noise").normals(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(
            c, derive_stream(11, 2, "frozen_fast_noise", key=()).normals(64))

    def test_negative_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            derive_stream(0, 0, "frozen_fast_noise", key=(-1,))

    def test_unknown_role_rejected(self):
        with pytest.raises(InvalidParameterError):
            derive_stream(0, 0, "not_a_role")

    def test_draws_are_standard_normal(self):
        draws = derive_stream(3, 0, "frozen_fast_noise").normals(100_000)
        assert abs(draws.mean()) < 0.015
        assert abs(draws.std() - 1.0) < 0.01

    @pytest.mark.parametrize("role", ROLES)
    def test_draws_pass_kolmogorov_smirnov(self, role):
        draws = derive_stream(5, 1, role).normals(200_000)
        assert kstest(draws, "norm").pvalue > 1e-4

    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize("z", [3.0, 4.0])
    def test_tail_counts(self, role, z):
        # Beyond the ziggurat's last layer (about 3.65) numpy samples the
        # tail separately; the count must lie in its two-sided binomial
        # band of total false-alarm rate 1e-4.
        n = 2_000_000
        draws = derive_stream(5, 2, role).normals(n)
        p = 2.0 * norm.sf(z)
        lo, hi = binom.ppf(0.5e-4, n, p), binom.isf(0.5e-4, n, p)
        assert lo <= np.count_nonzero(np.abs(draws) > z) <= hi

    def test_known_answer(self):
        # The first draws of one stream, so a change of construction (ours,
        # or numpy's Generator algorithm, which NEP 19 allows to change)
        # fails here instead of silently changing every output.
        draws = derive_stream(2024, 0, "slow_noise").normals(8)
        assert draws.tolist() == [
            -0.8034157318258894, 0.13458432467357945, -0.5137264093336725,
            -0.08949196099751938, -1.5517288060764387, 0.30255072378076286,
            -0.12179717769905378, -0.7518207783515672]


def noise_increment(op, h, stream):
    """The noise of one exact OU step from zero with no forcing: mode k is
    N(0, lambda_k^2 (1 - exp(-2 alpha_k h)) / (2 alpha_k)), the Q-Wiener
    increment's lambda_k^2 h to first order in h."""
    zero = np.zeros(op.n_modes)
    return ou_step(zero, make_plan(op, h, 1.0), zero, stream)


class TestWienerIncrement:
    def test_zero_amplitude_mode_is_zero(self):
        op = SpectralOperator(alphas=np.array([1.0, 2.0]),
                              lambdas=np.array([1.0, 0.0]), gamma_reg=0.5)
        stream = derive_stream(0, 0, "slow_noise")
        for _ in range(10):
            inc = noise_increment(op, 0.5, stream)
            assert inc[1] == 0.0

    def test_small_step_scaling(self):
        op = scalar_op()
        stream = derive_stream(1, 0, "slow_noise")
        h = 1e-12
        draws = np.array([noise_increment(op, h, stream)[0]
                          for _ in range(10_000)])
        assert draws.std() / math.sqrt(h) == pytest.approx(1.0, rel=0.05)

    def test_variance_in_chi_square_band(self):
        # lambda=1, h=0.25: target variance 0.25, 99% band for 1e5 samples
        op = scalar_op()
        stream = derive_stream(42, 0, "slow_noise")
        n = 100_000
        draws = op.lambdas[0] * math.sqrt(0.25) * stream.normals(n)
        var = draws.var(ddof=1)
        lo = 0.25 * chi2.ppf(0.005, n - 1) / (n - 1)
        hi = 0.25 * chi2.ppf(0.995, n - 1) / (n - 1)
        assert lo <= var <= hi
        assert 0.2450 <= var <= 0.2551

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            noise_increment(scalar_op(), -0.5, derive_stream(0, 0, "slow_noise"))


class TestPlans:
    def test_stationary_variance_eps_independent(self):
        for eps in (1.0, 0.01):
            plan = make_plan(scalar_op(), 50.0, eps)
            # h large: decay ~ 0, noise_std^2 -> lambda^2/(2 alpha) = 0.5
            assert plan.noise_std[0] ** 2 == pytest.approx(0.5, rel=1e-10)

    def test_large_step_limits(self):
        op = scalar_op(alpha=2.0, lam=3.0)
        plan = make_plan(op, 1e6, 1.0)
        assert plan.decay[0] == 0.0
        assert plan.noise_std[0] == pytest.approx(3.0 / 2.0, rel=1e-12)

    def test_variance_partition_identity(self):
        op = scalar_op(alpha=2.0, lam=3.0)
        plan = make_plan(op, 0.7, 1.0)
        lhs = plan.noise_std[0] ** 2 + 9.0 * plan.decay[0] ** 2 / 4.0
        assert abs(lhs - 9.0 / 4.0) <= 1e-12

    def test_variance_partition_random_tuples(self, rng):
        # stationary variance splits exactly between decay and fresh noise
        for _ in range(100):
            alpha = rng.uniform(0.1, 50.0)
            lam = rng.uniform(0.0, 5.0)
            h = rng.uniform(1e-4, 10.0)
            eps = rng.uniform(1e-3, 1.0)
            op = scalar_op(alpha, lam)
            plan = make_plan(op, h, eps)
            stat = lam ** 2 / (2 * alpha)
            lhs = plan.noise_std[0] ** 2 + lam ** 2 * plan.decay[0] ** 2 / (2 * alpha)
            assert abs(lhs - stat) <= 1e-12 * max(1.0, stat)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_plan(scalar_op(), 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            make_plan(scalar_op(), 0.1, 0.0)


class TestOUStep:
    def test_deterministic_half_life(self):
        op = scalar_op()
        plan = make_plan(SpectralOperator(alphas=np.array([1.0]),
                                          lambdas=np.array([0.0]),
                                          gamma_reg=0.5), math.log(2.0), 1.0)
        out = ou_step(np.array([1.0]), plan, np.array([0.0]),
                      derive_stream(0, 0, "fast_noise"))
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_fixed_point_under_constant_forcing(self):
        op = SpectralOperator(alphas=np.array([1.0]), lambdas=np.array([0.0]),
                              gamma_reg=0.5)
        plan = make_plan(op, 100.0, 1.0)
        out = ou_step(np.array([0.0]), plan, np.array([1.0]),
                      derive_stream(0, 0, "fast_noise"))
        assert out[0] == pytest.approx(1.0, rel=1e-10)

    def test_long_run_stationary_variance(self):
        op = scalar_op()
        h = 5.0  # spacing of 5 relaxation times: near-independent samples
        plan = make_plan(op, h, 1.0)
        stream = derive_stream(8, 0, "fast_noise")
        zero = np.array([0.0])
        z = op.lambdas / np.sqrt(2.0 * op.alphas) * stream.normals(1)
        n = 100_000
        samples = np.empty(n)
        for i in range(n):
            z = ou_step(z, plan, zero, stream)
            samples[i] = z[0]
        assert 0.49 <= samples.var(ddof=1) <= 0.51

    def test_dimension_mismatch_rejected(self):
        plan = make_plan(scalar_op(), 0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            ou_step(np.zeros(2), plan, np.zeros(2), derive_stream(0, 0, "fast_noise"))


class TestEpsIndependence:
    def test_fast_convolution_variance_across_eps(self):
        # empirical long-run variances agree with lambda^2/(2 alpha) within 3 sigma
        op = scalar_op(alpha=2.0, lam=1.5)
        target = 1.5 ** 2 / 4.0
        n = 30_000
        zero = np.array([0.0])
        for k, eps in enumerate((1.0, 0.1, 0.01)):
            h = 5.0 * eps / 2.0
            plan = make_plan(op, h, eps)
            stream = derive_stream(21, k, "fast_noise")
            z = op.lambdas / np.sqrt(2.0 * op.alphas) * stream.normals(1)
            samples = np.empty(n)
            for i in range(n):
                z = ou_step(z, plan, zero, stream)
                samples[i] = z[0]
            sigma_var = target * math.sqrt(2.0 / n)
            assert abs(samples.var(ddof=1) - target) <= 3.0 * sigma_var

    def test_role_catalog(self):
        assert ROLES == ("slow_noise", "fast_noise", "frozen_fast_noise",
                         "auxiliary")
