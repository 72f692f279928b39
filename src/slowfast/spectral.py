"""Sine eigenbasis on the interval (0, length) with Dirichlet boundary.

Fields are plain float64 arrays of eigenmode coefficients ("modal fields").
The basis functions are sqrt(2/l)*sin(k*pi*x/l), k = 1..N, evaluated at the
interior collocation nodes x_j = j*l/(M+1), j = 1..M.  On that node set the
discrete sine transform is exactly invertible for N <= M, and the quadrature
weight l/(M+1) makes the modal Parseval identity exact, so synthesize/analyze
round-trips are lossless up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationRejectedError, InvalidParameterError

__all__ = [
    "GridSpec",
    "SpectralOperator",
    "dirichlet_eigenpairs",
    "synthesize",
    "analyze",
    "matvec",
    "check_noise_regularity",
    "lp_norm",
    "scalar_power",
    "as_modal_field",
    "kahan_add",
    "kahan_mean_vectors",
    "mean_se",
]


def as_modal_field(coeffs, n_modes: int | None = None) -> np.ndarray:
    """Validate and normalize a modal coefficient vector to float64."""
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(f"modal field must be 1-D, got shape {arr.shape}")
    if n_modes is not None and arr.size != n_modes:
        raise InvalidParameterError(
            f"modal field has {arr.size} modes, expected {n_modes}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("modal field contains non-finite coefficients")
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid: N retained modes, M interior nodes, domain length."""

    n_modes: int
    n_quad: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidParameterError("n_modes must be >= 1")
        if self.length <= 0:
            raise InvalidParameterError("length must be positive")
        # M >= 2N keeps polynomial nonlinearities clear of aliasing.
        if self.n_quad < 2 * self.n_modes:
            raise InvalidParameterError(
                f"n_quad={self.n_quad} violates anti-aliasing margin "
                f"n_quad >= 2*n_modes={2 * self.n_modes}"
            )

    @cached_property
    def nodes(self) -> np.ndarray:
        return _grid_nodes(self.n_quad, self.length)

    @cached_property
    def quad_weight(self) -> float:
        return self.length / (self.n_quad + 1)

    @cached_property
    def sine_matrix(self) -> np.ndarray:
        """(M, N) basis values at the nodes.  synthesize applies it, analyze
        its transpose times quad_weight; hot loops apply it directly, with
        the same operations and no checks."""
        return _sine_matrix(self.n_modes, self.n_quad, self.length)


@lru_cache(maxsize=32)
def _grid_nodes(n_quad: int, length: float) -> np.ndarray:
    j = np.arange(1, n_quad + 1, dtype=float)
    return j * length / (n_quad + 1)


@lru_cache(maxsize=32)
def _sine_matrix(n_modes: int, n_quad: int, length: float) -> np.ndarray:
    """(M, N) matrix of basis values sqrt(2/l)*sin(k*pi*x_j/l)."""
    nodes = _grid_nodes(n_quad, length)
    k = np.arange(1, n_modes + 1, dtype=float)
    return np.sqrt(2.0 / length) * np.sin(np.outer(nodes, k) * np.pi / length)


def dirichlet_eigenpairs(n_modes: int, nu: float, length: float) -> np.ndarray:
    """Eigenvalues nu*(k*pi/length)^2 of -nu*Laplacian with Dirichlet walls."""
    if n_modes < 1:
        raise InvalidParameterError("n_modes must be >= 1")
    if nu <= 0:
        raise InvalidParameterError("diffusivity nu must be positive")
    if length <= 0:
        raise InvalidParameterError("length must be positive")
    k = np.arange(1, n_modes + 1, dtype=float)
    return nu * (k * np.pi / length) ** 2


def check_noise_regularity(alpha_exponent: float, lambda_exponent: float,
                           gamma: float) -> bool:
    """Exponent test for sum_k lambda_k^2 alpha_k^(2*gamma-1) < infinity.

    For power laws alpha_k ~ k^a and lambda_k ~ k^(-s) the series converges
    iff a*(2*gamma - 1) - 2*s < -1.  Decided analytically: every finite
    partial sum is finite, so a numeric check would be meaningless.
    """
    return alpha_exponent * (2.0 * gamma - 1.0) - 2.0 * lambda_exponent < -1.0


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal operator pair (A, Q): decay rates alpha_k and noise amplitudes
    lambda_k on the shared sine eigenbasis, with declared regularity exponent."""

    alphas: np.ndarray
    lambdas: np.ndarray
    gamma_reg: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lambdas", lambdas)
        if alphas.ndim != 1 or lambdas.shape != alphas.shape:
            raise InvalidParameterError("alphas and lambdas must be matching 1-D arrays")
        if alphas[0] <= 0 or np.any(np.diff(alphas) < 0):
            raise InvalidParameterError(
                "alphas must be positive and nondecreasing with alpha_1 > 0"
            )
        if np.any(lambdas < 0) or not np.all(np.isfinite(lambdas)):
            raise InvalidParameterError("lambdas must be finite and nonnegative")
        if self.gamma_reg <= 0:
            raise InvalidParameterError("gamma_reg must be positive")

    @property
    def n_modes(self) -> int:
        return self.alphas.size

    @property
    def gamma_star(self) -> float:
        """Holder threshold gamma ^ 1/2 used by increment statistics."""
        return min(self.gamma_reg, 0.5)

    @classmethod
    def from_power_law(cls, n_modes: int, nu: float, length: float,
                       lambda0: float, decay_exponent: float,
                       gamma_reg: float, label: str = "operator") -> "SpectralOperator":
        """Dirichlet Laplacian scales with lambda_k = lambda0 * k^(-s).

        Rejects the combination when the declared gamma_reg fails the
        regularity exponent test.
        """
        if lambda0 < 0:
            raise InvalidParameterError("lambda0 must be nonnegative")
        if decay_exponent < 0:
            raise InvalidParameterError("lambda decay exponent must be >= 0")
        alphas = dirichlet_eigenpairs(n_modes, nu, length)
        k = np.arange(1, n_modes + 1, dtype=float)
        lambdas = lambda0 * k ** (-decay_exponent)
        if lambda0 > 0 and not check_noise_regularity(2.0, decay_exponent, gamma_reg):
            exponent = 2.0 * (2.0 * gamma_reg - 1.0) - 2.0 * decay_exponent
            raise ConfigurationRejectedError(
                f"Hypothesis 2.1(3): noise regularity violated for {label} "
                f"(series exponent a(2γ-1)-2s = {exponent:g} is not < -1 for "
                f"γ={gamma_reg:g}, s={decay_exponent:g})"
            )
        return cls(alphas=alphas, lambdas=lambdas, gamma_reg=gamma_reg)


def synthesize(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Evaluate a modal field, or a batch of them along leading axes, at the
    interior collocation nodes."""
    f = np.asarray(coeffs, dtype=float)
    if f.shape[-1:] != (grid.n_modes,):
        raise InvalidParameterError(
            f"expected {grid.n_modes} modal coefficients on the last axis, "
            f"got shape {f.shape}")
    if not np.isfinite(f).all():
        raise InvalidParameterError("modal field contains non-finite coefficients")
    return matvec(grid.sine_matrix, f)


def analyze(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact discrete inverse of synthesize on the collocation node set,
    row by row for a batch along leading axes."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (grid.n_quad,):
        raise InvalidParameterError(
            f"expected {grid.n_quad} nodal values on the last axis, "
            f"got shape {v.shape}")
    return grid.quad_weight * matvec(grid.sine_matrix.T, v)


def matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat times x, or times each row of a stack of them.  Stacked
    matrix-vector products, so a row's bits do not depend on the stack (a
    matrix product over the rows would make them depend on its size)."""
    if x.ndim == 1:
        return mat.dot(x)
    return np.matmul(mat, x[..., None])[..., 0]


def scalar_power(x, e):
    """x ** e for one value, or element by element for an array, each as
    the scalar power of that value: numpy's vector power can round
    differently, which would make a row of a batch differ from that row
    alone."""
    if np.ndim(x) == 0:
        return x ** e
    return np.array([value ** e for value in x.ravel()]).reshape(x.shape)


def lp_norm(values: np.ndarray, grid: GridSpec, p: float):
    """L^p norm by collocation quadrature with weight length/(M+1): a float
    for one nodal field, an array over the leading axes of a batch whose
    rows are bit-equal to the fields alone."""
    if p <= 0:
        raise InvalidParameterError("p must be positive")
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (grid.n_quad,):
        raise InvalidParameterError(
            f"expected {grid.n_quad} nodal values on the last axis, "
            f"got shape {v.shape}")
    # np.add.reduce is np.sum's arithmetic without its dispatch overhead.
    norm = scalar_power(
        grid.quad_weight * np.add.reduce(np.abs(v) ** p, axis=-1), 1.0 / p)
    return float(norm) if v.ndim == 1 else norm


def kahan_add(total, comp, value):
    """One compensated (Kahan) summation step on floats or arrays; returns
    the new running total and its compensation term."""
    y = value - comp
    t = total + y
    return t, (t - total) - y


def kahan_mean_vectors(arrays) -> np.ndarray:
    """Compensated mean of equal-shape arrays, summed in list order."""
    total = np.zeros_like(arrays[0])
    comp = np.zeros_like(arrays[0])
    for arr in arrays:
        total, comp = kahan_add(total, comp, arr)
    return total / len(arrays)


def mean_se(values) -> tuple[float, float]:
    """Fixed-order compensated mean and standard error; NaN for no values."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        return math.nan, math.nan
    mean = math.fsum(vals) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)
