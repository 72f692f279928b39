import math

import numpy as np
import pytest

from slowfast import (ConfigurationRejectedError, GridSpec, InvalidParameterError,
                      SpectralOperator, analyze, check_noise_regularity,
                      dirichlet_eigenpairs, make_plan, synthesize)
from slowfast.spectral import lp_norm, scalar_power

from conftest import unit_field


def make_op(n_modes=8, nu=1.0, lambda0=1.0, s=1.0, gamma=0.5):
    return SpectralOperator.from_power_law(n_modes, nu, 1.0, lambda0, s, gamma)


class TestEigenpairs:
    def test_first_eigenvalue_unit_interval(self):
        assert dirichlet_eigenpairs(1, 1.0, 1.0)[0] == pytest.approx(math.pi ** 2)

    def test_second_eigenvalue(self):
        alphas = dirichlet_eigenpairs(2, 1.0, 1.0)
        assert alphas[1] == pytest.approx(4 * math.pi ** 2)

    def test_linear_scaling_in_diffusivity(self):
        assert dirichlet_eigenpairs(1, 0.5, 1.0)[0] == pytest.approx(math.pi ** 2 / 2)

    def test_strictly_increasing(self):
        alphas = dirichlet_eigenpairs(32, 0.37, 2.5)
        assert np.all(np.diff(alphas) > 0)

    @pytest.mark.parametrize("nu,length", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_parameters(self, nu, length):
        with pytest.raises(InvalidParameterError):
            dirichlet_eigenpairs(4, nu, length)


def semigroup(op, t, f):
    """exp(tA) f as the exact updates apply it: the OU plan's decay factor
    exp(-alpha_k t) per mode."""
    return make_plan(op, t, 1.0).decay * f


class TestSemigroup:
    def test_single_mode_scalar_decay(self):
        op = make_op(n_modes=1)
        out = semigroup(op, 0.1, np.array([1.0]))
        assert out[0] == pytest.approx(math.exp(-math.pi ** 2 * 0.1), rel=1e-14)

    def test_norm_nonincreasing(self, rng):
        op = make_op()
        f = rng.normal(size=8)
        norms = [np.linalg.norm(f)] + [np.linalg.norm(semigroup(op, t, f))
                                       for t in (0.05, 0.1, 0.5, 2.0)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_semigroup_property(self, rng):
        op = make_op()
        f = rng.normal(size=8)
        for t, s in [(0.1, 0.2), (1e-3, 1.0), (0.37, 0.81)]:
            once = semigroup(op, t + s, f)
            twice = semigroup(op, t, semigroup(op, s, f))
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            semigroup(make_op(), -0.1, np.zeros(8))


class TestTransforms:
    def test_zero_field_roundtrip(self):
        grid = GridSpec(n_modes=8, n_quad=32)
        vals = synthesize(np.zeros(8), grid)
        assert np.all(vals == 0)
        assert np.all(analyze(vals, grid) == 0)

    def test_pure_mode_roundtrip(self):
        grid = GridSpec(n_modes=8, n_quad=32)
        f = unit_field(8)
        back = analyze(synthesize(f, grid), grid)
        assert np.max(np.abs(back - f)) <= 1e-12

    def test_two_mode_roundtrip(self):
        grid = GridSpec(n_modes=2, n_quad=64)
        f = np.array([1.0, 0.5])
        back = analyze(synthesize(f, grid), grid)
        assert np.linalg.norm(back - f) <= 1e-12

    def test_roundtrip_random_fields(self, rng):
        grid = GridSpec(n_modes=16, n_quad=48)
        for _ in range(10):
            f = rng.normal(size=16)
            back = analyze(synthesize(f, grid), grid)
            assert np.max(np.abs(back - f)) <= 1e-12

    def test_parseval(self, rng):
        # modal norm equals the quadrature L2 norm of the nodal values
        grid = GridSpec(n_modes=16, n_quad=64)
        for _ in range(10):
            f = rng.normal(size=16)
            modal = np.linalg.norm(f)
            physical = lp_norm(synthesize(f, grid), grid, 2.0)
            assert physical == pytest.approx(modal, rel=1e-8)

    def test_size_mismatch_rejected(self):
        grid = GridSpec(n_modes=8, n_quad=32)
        with pytest.raises(InvalidParameterError):
            synthesize(np.zeros(7), grid)
        with pytest.raises(InvalidParameterError):
            analyze(np.zeros(31), grid)

    def test_antialiasing_margin_enforced(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(n_modes=8, n_quad=15)


class TestNoiseRegularity:
    def test_convergent_case(self):
        assert check_noise_regularity(2.0, 1.0, 0.5) is True

    def test_divergent_case(self):
        assert check_noise_regularity(2.0, 1.0, 0.9) is False

    def test_boundary_harmonic_divergence(self):
        # exponent exactly -1: the comparison series is harmonic
        assert check_noise_regularity(2.0, 0.0, 0.25) is False

    def test_power_law_constructor_gates_on_regularity(self):
        with pytest.raises(ConfigurationRejectedError, match="Hypothesis 2.1\\(3\\)"):
            SpectralOperator.from_power_law(8, 1.0, 1.0, 1.0, 0.0, 0.25)

    def test_operator_validation(self):
        with pytest.raises(InvalidParameterError):
            SpectralOperator(alphas=np.array([1.0, 0.5]),
                             lambdas=np.array([1.0, 1.0]), gamma_reg=0.5)
        with pytest.raises(InvalidParameterError):
            SpectralOperator(alphas=np.array([0.0, 1.0]),
                             lambdas=np.array([1.0, 1.0]), gamma_reg=0.5)


class TestLpNorm:
    def test_constant_function(self):
        grid = GridSpec(n_modes=8, n_quad=64)
        ones = np.ones(64)
        # quadrature weight is 1/(M+1) on the open interval
        expected = (64 / 65.0) ** (1 / 4)
        assert lp_norm(ones, grid, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_scaling_homogeneity(self, rng):
        grid = GridSpec(n_modes=8, n_quad=32)
        v = rng.normal(size=32)
        assert lp_norm(3.0 * v, grid, 6.0) == pytest.approx(
            3.0 * lp_norm(v, grid, 6.0), rel=1e-12)


class TestScalarPower:
    # Nonnegative values, as the norms it raises are: zeros, subnormals,
    # inf and NaN, 1e300, which overflows at e = 2 and 8, and enough
    # ordinary ones that numpy's vector power rounds some differently.
    VALUES = np.concatenate((
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 1e10,
         math.inf, math.nan, 1e300],
        10.0 * np.random.default_rng(0).random(70)))

    @pytest.mark.parametrize("e", [0.25, 1.0 / 3.0, 0.5, 2.0, 8.0, 3.7])
    @pytest.mark.parametrize("shape", [(), (80,), (4, 20)],
                             ids=["0d", "1d", "2d"])
    def test_is_the_written_out_scalar_power(self, shape, e):
        inputs = ([value.reshape(()) for value in self.VALUES]
                  if shape == () else [self.VALUES.reshape(shape)])
        with np.errstate(over="ignore"):
            for x in inputs:
                expected = np.array([v ** e for v in x.ravel()]).reshape(
                    x.shape)
                got = np.asarray(scalar_power(x, e))
                assert got.shape == x.shape
                assert np.array_equal(got.view(np.int64),
                                      expected.view(np.int64)), x

