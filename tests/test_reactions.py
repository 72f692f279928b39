import math

import numpy as np
import pytest

from slowfast import (ConfigurationRejectedError, GridSpec,
                      InvalidParameterError, LyapunovSpec, eval_V, eval_b,
                      eval_g, make_fast_reaction, make_slow_reaction,
                      nemytskii_drift, synthesize, truncate_b,
                      validate_dissipativity, validate_growth)


def cubic_plain():
    # b(sigma, lam) = -sigma^3 + lam
    return make_slow_reaction("polynomial", terms=[(-1.0, 3, 0), (1.0, 0, 1)],
                              m1=3, m2=1, kappa1=2, kappa2=4, c1=2.0, c2=2.0,
                              a1=1.0, a2=1.0)


class TestEvalB:
    def test_cubic_polynomial_value(self):
        assert float(eval_b(cubic_plain(), 0.0, 0.0, 2.0, 1.0)) == pytest.approx(-7.0)

    def test_linear_benchmark_is_identity_in_lam(self):
        spec = make_slow_reaction("linear_benchmark")
        assert float(eval_b(spec, 0.0, 0.0, 5.0, 0.3)) == pytest.approx(0.3)

    def test_zero_preservation(self):
        spec = make_slow_reaction("cubic_rough", c_u=1.0, c_v=1.0)
        assert float(eval_b(spec, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_cubic_rough_formula(self):
        spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=2.0)
        sigma, lam = 1.5, -2.0
        expected = -sigma ** 3 + 0.5 * sigma + 2.0 * lam * abs(lam)
        assert float(eval_b(spec, 0.0, 0.0, sigma, lam)) == pytest.approx(expected)

    def test_fast_reaction_on_slow_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            eval_g(make_slow_reaction("linear_benchmark"), 0.0, 0.0, 1.0, 1.0)


class TestEvalG:
    def test_linear_benchmark(self):
        spec = make_fast_reaction("linear_benchmark", a_c=2.0, b_c=3.0)
        assert float(eval_g(spec, 0.0, 0.0, 1.0, 0.5)) == pytest.approx(0.5)
        assert spec.L2 == 3.0

    def test_saturating_lipschitz_constant(self):
        spec = make_fast_reaction("lipschitz_saturating", a_c=1.0, b_c=2.0, c_s=0.3)
        assert spec.L2 == pytest.approx(2.3)
        val = float(eval_g(spec, 0.0, 0.0, 1.0, 0.5))
        assert val == pytest.approx(1.0 - 1.0 + 0.3 * math.sin(0.5))


class TestTruncation:
    def test_simple_values(self):
        spec = make_slow_reaction("linear_benchmark")
        # b = lam
        assert float(truncate_b(spec, 0.5, 0.0, 0.0, 0.0, 2.0)) == pytest.approx(1.0)
        assert float(truncate_b(spec, 0.1, 0.0, 0.0, 0.0, -3.0)) == pytest.approx(-3.0 / 1.3)

    def test_identity_limit(self):
        spec = make_slow_reaction("linear_benchmark")
        vals = [float(truncate_b(spec, theta, 0.0, 0.0, 0.0, 7.0))
                for theta in (1e-2, 1e-4, 1e-6)]
        assert abs(vals[-1] - 7.0) < 1e-4
        assert vals[0] < vals[1] < vals[2] < 7.0

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(InvalidParameterError):
            truncate_b(make_slow_reaction("linear_benchmark"), 0.0, 0, 0, 0, 1.0)

    def test_in_place_form_matches_formula(self, rng):
        # Truncation runs in place on the array from eval_b; it must give
        # the bits of b / (1 + theta |b|) for arrays, 0-d arrays and floats.
        spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)
        sigma = rng.normal(scale=3.0, size=(7, 16))
        lam = rng.normal(scale=3.0, size=(7, 16))
        for s_in, l_in in ((sigma, lam), (np.asarray(1.7), np.asarray(-2.2)),
                           (1.7, -2.2)):
            b = eval_b(spec, 0.0, 0.0, s_in, l_in)
            out = truncate_b(spec, 0.01, 0.0, 0.0, s_in, l_in)
            assert np.shape(out) == np.shape(b)
            assert np.array_equal(out, b / (1.0 + 0.01 * np.abs(b)))

    def test_pointwise_identities_random(self, rng):
        # |b_t| <= 1/theta, |b_t| <= |b|, sign preserved,
        # |b - b_t| (1 + theta |b|) = theta b^2
        spec = make_slow_reaction("linear_benchmark")
        for _ in range(10_000):
            b = rng.uniform(-50, 50)
            theta = rng.uniform(1e-4, 1.0)
            bt = float(truncate_b(spec, theta, 0.0, 0.0, 0.0, b))
            assert abs(bt) <= 1.0 / theta + 1e-12
            assert abs(bt) <= abs(b) + 1e-12
            assert math.copysign(1, bt) == math.copysign(1, b) or b == 0
            assert abs(abs(b - bt) * (1 + theta * abs(b)) - theta * b * b) <= 1e-9


class TestNemytskii:
    def test_zero_reaction(self):
        grid = GridSpec(n_modes=4, n_quad=16)
        spec = make_slow_reaction("polynomial", terms=[])
        out = nemytskii_drift(spec, None, 0.0, np.ones(16), np.ones(16), grid)
        assert np.all(out == 0)

    def test_linear_benchmark_returns_fast_values(self, rng):
        grid = GridSpec(n_modes=4, n_quad=16)
        spec = make_slow_reaction("linear_benchmark")
        v = rng.normal(size=16)
        out = nemytskii_drift(spec, None, 0.0, rng.normal(size=16), v, grid)
        assert np.array_equal(out, v)

    def test_constant_fields(self):
        grid = GridSpec(n_modes=4, n_quad=16)
        spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=1.0)
        out = nemytskii_drift(spec, None, 0.0, np.ones(16), np.zeros(16), grid)
        assert np.allclose(out, -1.0 + 0.5)

    def test_linearity_of_linear_benchmark(self, rng):
        grid = GridSpec(n_modes=4, n_quad=16)
        spec = make_slow_reaction("linear_benchmark")
        u = rng.normal(size=16)
        v1 = rng.normal(size=16)
        v2 = rng.normal(size=16)
        lhs = nemytskii_drift(spec, None, 0.0, u, 2.0 * v1 - 3.0 * v2, grid)
        rhs = (2.0 * nemytskii_drift(spec, None, 0.0, u, v1, grid)
               - 3.0 * nemytskii_drift(spec, None, 0.0, u, v2, grid))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_grid_mismatch_rejected(self):
        grid = GridSpec(n_modes=4, n_quad=16)
        with pytest.raises(InvalidParameterError):
            nemytskii_drift(make_slow_reaction("linear_benchmark"), None, 0.0,
                            np.ones(8), np.ones(16), grid)

    def test_truncated_drift_is_bounded(self, rng):
        grid = GridSpec(n_modes=4, n_quad=16)
        spec = make_slow_reaction("cubic_rough", c_v=1.0)
        u = 50.0 * rng.normal(size=16)
        out = nemytskii_drift(spec, 0.01, 0.0, u, np.zeros(16), grid)
        assert np.max(np.abs(out)) <= 100.0 + 1e-9


class TestLyapunov:
    def test_derived_exponents(self):
        lyap = LyapunovSpec(c_V=1.0, m1=3, m2=2, kappa1=4, kappa2=4)
        assert lyap.q_bar == 24.0
        assert lyap.q_bar >= 4 * lyap.m2

    def test_from_reaction(self):
        lyap = LyapunovSpec.from_reaction(make_slow_reaction("linear_benchmark"),
                                          c_V=2.0)
        assert lyap.q_bar == max(2 * 2 * 1, 4 * 1)

    def test_kappa_gate_names_hypothesis(self):
        with pytest.raises(ConfigurationRejectedError, match="2·m"):
            make_slow_reaction("polynomial", terms=[(1.0, 0, 1)],
                               m1=1, m2=1, kappa1=3)

    def test_zero_fields_give_c_V(self):
        grid = GridSpec(n_modes=4, n_quad=16)
        lyap = LyapunovSpec(c_V=1.7, m1=2, m2=1, kappa1=2, kappa2=0)
        assert eval_V(np.zeros(16), np.zeros(16), lyap, grid) == pytest.approx(1.7)

    def test_constant_slow_field(self):
        grid = GridSpec(n_modes=8, n_quad=64)
        lyap = LyapunovSpec(c_V=1.0, m1=2, m2=1, kappa1=2, kappa2=0)
        # |1|_{L^8}^4 by the open-interval quadrature: (M/(M+1))^(1/2)
        expected = 1.0 + (64.0 / 65.0) ** 0.5
        value = eval_V(np.ones(64), np.zeros(64), lyap, grid)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_doubling_fast_field_scales_terms(self, rng):
        grid = GridSpec(n_modes=4, n_quad=16)
        lyap = LyapunovSpec(c_V=1.0, m1=1, m2=1, kappa1=2, kappa2=0)
        v = rng.normal(size=16)
        base = eval_V(np.zeros(16), v, lyap, grid) - 1.0
        doubled = eval_V(np.zeros(16), 2.0 * v, lyap, grid) - 1.0
        assert doubled == pytest.approx(4.0 * base, rel=1e-10)

    def test_sign_flip_invariance(self, rng):
        grid = GridSpec(n_modes=4, n_quad=16)
        lyap = LyapunovSpec(c_V=1.0, m1=2, m2=2, kappa1=3, kappa2=1)
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        assert eval_V(u, v, lyap, grid) == eval_V(-u, v, lyap, grid)
        assert eval_V(u, v, lyap, grid) == eval_V(u, -v, lyap, grid)

    def test_degenerate_exponents_give_constant(self):
        grid = GridSpec(n_modes=4, n_quad=16)
        lyap = LyapunovSpec(c_V=3.0, m1=0, m2=0, kappa1=0, kappa2=0)
        assert eval_V(np.ones(16), np.ones(16), lyap, grid) == 3.0


def truncation_gaps(spec, theta, points):
    """|b - b_theta| at each (sigma, lam) sample point, one scalar call each."""
    return [abs(float(eval_b(spec, 0.0, 0.0, sigma, lam))
                - float(truncate_b(spec, theta, 0.0, 0.0, sigma, lam)))
            for sigma, lam in points]


class TestTruncationGap:
    def test_gap_bounded_by_theta_b_squared(self, rng):
        spec = make_slow_reaction("linear_benchmark")
        points = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
        theta = 0.2
        b_max = max(abs(lam) for _, lam in points)
        assert max(truncation_gaps(spec, theta, points)) <= theta * b_max ** 2 + 1e-12

    def test_linear_benchmark_unit_box(self, rng):
        # The gap against theta times the envelope c_V(1 + |sigma|^{2 m1}
        # + |lam|^{2 m2}) of V.
        spec = make_slow_reaction("linear_benchmark")
        lyap = LyapunovSpec.from_reaction(spec)
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(500)]
        gaps = truncation_gaps(spec, 0.1, points)
        envelopes = [lyap.c_V * (1.0 + abs(sigma) ** (2.0 * lyap.m1)
                                 + abs(lam) ** (2.0 * lyap.m2))
                     for sigma, lam in points]
        assert max(gaps) <= 0.1
        assert max(g / (0.1 * e) for g, e in zip(gaps, envelopes)) <= 1.0

    def test_theta_shrinks_gap(self, rng):
        spec = cubic_plain()
        points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]
        gaps = [max(truncation_gaps(spec, theta, points))
                for theta in (0.5, 0.05, 0.005)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_invalid_theta(self):
        with pytest.raises(InvalidParameterError):
            truncate_b(make_slow_reaction("linear_benchmark"), 1.5, 0, 0, 0, 1.0)

    @pytest.mark.parametrize("theta", [0.5, 0.01])
    def test_max_gap_is_the_truncate_b_gap(self, rng, theta):
        # The in-place array form of truncate_b gives the scalar calls' gaps.
        spec = make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5)
        points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(100)]
        sigma, lam = np.array(points).T
        gaps = np.abs(eval_b(spec, 0.0, 0.0, sigma, lam)
                      - truncate_b(spec, theta, 0.0, 0.0, sigma, lam))
        assert gaps.tolist() == truncation_gaps(spec, theta, points)


class TestDissipativity:
    def test_gap_value(self):
        omega = validate_dissipativity(math.pi ** 2, 1.0)
        assert omega == pytest.approx(math.pi ** 2 - 1.0)

    def test_identity(self):
        for alpha, L in [(2.0, 0.5), (10.0, 9.0), (math.pi ** 2, 3.3)]:
            assert validate_dissipativity(alpha, L) + L == alpha

    def test_boundary_rejected(self):
        with pytest.raises(ConfigurationRejectedError, match="Hypothesis 2.3"):
            validate_dissipativity(1.0, 1.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigurationRejectedError, match="Hypothesis 2.3"):
            validate_dissipativity(1.0, 2.0)


class TestGrowthValidation:
    def test_cubic_with_declared_constants_passes(self):
        spec = cubic_plain()
        report = validate_growth(spec)
        assert report.uniform_ok, report
        assert report.one_sided_ok, report

    def test_linear_benchmark_passes_with_unit_constants(self):
        report = validate_growth(make_slow_reaction("linear_benchmark"))
        assert report.uniform_ok
        assert report.one_sided_ok

    def test_cubic_rough_builtin_passes(self):
        report = validate_growth(make_slow_reaction("cubic_rough", c_u=0.5, c_v=0.5))
        assert report.uniform_ok
        assert report.one_sided_ok

    def test_antidissipative_cubic_fails_one_sided(self):
        # b = +sigma^3: b(sigma)*sigma ~ sigma^4 outruns the quadratic envelope
        spec = make_slow_reaction("polynomial", terms=[(1.0, 3, 0)],
                                  m1=3, m2=1, kappa1=2, kappa2=2,
                                  c1=1.0, c2=1.0, a1=0.0, a2=1.0)
        report = validate_growth(spec)
        assert not report.one_sided_ok
        assert report.one_sided_worst_ratio > 10.0
