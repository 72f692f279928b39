"""Pointwise reaction functions, their field lifts, truncation and gating.

The slow reaction b(sigma, lam) may be rough (polynomial growth in both
arguments); the fast reaction g(rho, sigma) is Lipschitz in its own
variable sigma with constant L2.  The paper's b and g may also depend on
time and space; no built-in kind does, so they take the field values only.
Built-in kinds:

  slow:
    "linear_benchmark"  b = lam                          (fully solvable)
    "cubic_rough"       b = -sigma^3 + c_u*sigma + c_v*lam*|lam|
    "polynomial"        b = sum coef * sigma^i * lam^j   (user terms)
  fast:
    "linear_benchmark"      g = a_c*rho - b_c*sigma
    "lipschitz_saturating"  g = a_c*rho - b_c*sigma + c_s*sin(sigma)

Truncation of a rough b uses b_theta = b / (1 + theta*|b|), which is bounded
by 1/theta, preserves sign, and satisfies |b - b_theta| <= theta*b^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationRejectedError, InvalidParameterError
from .spectral import GridSpec, lp_norm, scalar_power

__all__ = [
    "ReactionSpec",
    "make_slow_reaction",
    "make_fast_reaction",
    "eval_b",
    "eval_g",
    "gaussian_mean_b",
    "fast_coefficients",
    "truncate_b",
    "nemytskii_drift",
    "LyapunovSpec",
    "lyapunov_norms",
    "eval_V",
    "validate_dissipativity",
    "GrowthReport",
    "validate_growth",
]

_SLOW_KINDS = ("linear_benchmark", "cubic_rough", "polynomial")
_FAST_KINDS = ("linear_benchmark", "lipschitz_saturating")


@dataclass(frozen=True)
class ReactionSpec:
    """One pointwise reaction with its declared growth/Lipschitz constants."""

    kind: str
    role: str                      # "slow" or "fast"
    params: tuple = ()             # sorted (name, value) pairs; terms for polynomials
    m1: float = 1.0
    m2: float = 1.0
    kappa1: float = 2.0
    kappa2: float = 0.0
    c1: float = 1.0
    c2: float = 1.0
    a1: float = 0.0
    a2: float = 1.0
    L2: float | None = None       # Lipschitz constant in the fast variable (fast role)

    def __post_init__(self):
        if self.role == "slow":
            if self.kind not in _SLOW_KINDS:
                raise InvalidParameterError(f"unknown slow reaction kind {self.kind!r}")
            if self.m1 < 1 or self.m2 < 1:
                raise InvalidParameterError("growth exponents m1, m2 must be >= 1")
            if self.kappa1 < 0 or self.kappa2 < 0:
                raise InvalidParameterError("kappa1, kappa2 must be >= 0")
            if self.kappa1 > 2.0 * self.m2 + 1e-12:
                raise ConfigurationRejectedError(
                    "Hypothesis 2.2 (one-sided growth): κ₁ ≤ 2·m₂ "
                    f"violated (κ₁={self.kappa1:g}, m₂={self.m2:g})"
                )
        elif self.role == "fast":
            if self.kind not in _FAST_KINDS:
                raise InvalidParameterError(f"unknown fast reaction kind {self.kind!r}")
            if self.L2 is None or self.L2 < 0 or not math.isfinite(self.L2):
                raise InvalidParameterError("fast reaction requires a finite L2 >= 0")
        else:
            raise InvalidParameterError(f"unknown reaction role {self.role!r}")

    @cached_property
    def _param_map(self) -> dict:
        # Reversed, so the first of repeated names wins, as in a scan.
        return dict(reversed(self.params))

    def param(self, name: str, default: float = 0.0) -> float:
        """The value of a named parameter, or default when it is absent."""
        return self._param_map.get(name, default)

    @property
    def depends_on_fast(self) -> bool:
        """Whether the slow reaction actually reads the fast variable."""
        if self.role != "slow":
            raise InvalidParameterError("depends_on_fast applies to slow reactions")
        if self.kind == "linear_benchmark":
            return True
        if self.kind == "cubic_rough":
            return self.param("c_v") != 0.0
        return any(j != 0 and coef != 0.0 for coef, _, j in self.param_terms())

    def param_terms(self):
        """Polynomial terms as (coef, sigma_power, lambda_power) triples."""
        return self.param("terms", ())


def make_slow_reaction(kind: str, **params) -> ReactionSpec:
    """Build a slow reaction with growth constants derived for the built-ins."""
    if kind == "linear_benchmark":
        _reject_unknown(params, ())
        return ReactionSpec(kind=kind, role="slow", m1=1, m2=1,
                            kappa1=2, kappa2=0, c1=1.0, c2=1.0, a1=0.0, a2=1.0)
    if kind == "cubic_rough":
        _reject_unknown(params, ("c_u", "c_v"))
        c_u = float(params.get("c_u", 0.0))
        c_v = float(params.get("c_v", 1.0))
        return ReactionSpec(
            kind=kind, role="slow",
            params=(("c_u", c_u), ("c_v", c_v)),
            m1=3, m2=2, kappa1=4, kappa2=4,
            c1=1.0 + abs(c_u) + abs(c_v),
            c2=2.0 + abs(c_u) + abs(c_v),
            a1=1.0, a2=1.0,
        )
    if kind == "polynomial":
        allowed = ("terms", "m1", "m2", "kappa1", "kappa2", "c1", "c2", "a1", "a2")
        _reject_unknown(params, allowed)
        terms = tuple((float(c), int(i), int(j)) for c, i, j in params["terms"])
        return ReactionSpec(
            kind=kind, role="slow", params=(("terms", terms),),
            m1=float(params.get("m1", 1)), m2=float(params.get("m2", 1)),
            kappa1=float(params.get("kappa1", 2)), kappa2=float(params.get("kappa2", 0)),
            c1=float(params.get("c1", 1.0)), c2=float(params.get("c2", 1.0)),
            a1=float(params.get("a1", 0.0)), a2=float(params.get("a2", 1.0)),
        )
    raise InvalidParameterError(f"unknown slow reaction kind {kind!r}")


def make_fast_reaction(kind: str, **params) -> ReactionSpec:
    if kind == "linear_benchmark":
        _reject_unknown(params, ("a_c", "b_c"))
        a_c = float(params.get("a_c", 1.0))
        b_c = float(params.get("b_c", 1.0))
        return ReactionSpec(kind=kind, role="fast",
                            params=(("a_c", a_c), ("b_c", b_c)),
                            L2=abs(b_c))
    if kind == "lipschitz_saturating":
        _reject_unknown(params, ("a_c", "b_c", "c_s"))
        a_c = float(params.get("a_c", 1.0))
        b_c = float(params.get("b_c", 1.0))
        c_s = float(params.get("c_s", 0.0))
        return ReactionSpec(kind=kind, role="fast",
                            params=(("a_c", a_c), ("b_c", b_c), ("c_s", c_s)),
                            L2=abs(b_c) + abs(c_s))
    raise InvalidParameterError(f"unknown fast reaction kind {kind!r}")


def _reject_unknown(params: dict, allowed) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise InvalidParameterError(f"unknown reaction parameters {sorted(unknown)}")


def eval_b(spec: ReactionSpec, sigma, lam):
    """Pointwise slow reaction; vectorized over sigma/lam arrays."""
    if spec.role != "slow":
        raise InvalidParameterError("eval_b requires a slow reaction")
    return _b(spec, np.asarray(sigma, dtype=float),
              np.asarray(lam, dtype=float))


def _b(spec: ReactionSpec, sigma: np.ndarray, lam: np.ndarray):
    """eval_b on float arrays, unchecked.  A polynomial term skips its
    zero powers, which are exactly 1.0 for every float, NaN and inf
    included; the np.zeros start keeps the broadcast shape."""
    if spec.kind == "linear_benchmark":
        return sigma * 0.0 + lam
    if spec.kind == "cubic_rough":
        return (-sigma ** 3 + spec.param("c_u") * sigma
                + spec.param("c_v") * lam * np.abs(lam))
    out = np.zeros(np.broadcast_shapes(sigma.shape, lam.shape))
    for coef, i, j in spec.param_terms():
        term = coef * sigma ** i if i else coef
        out = out + (term * lam ** j if j else term)
    return out


def gaussian_mean_b(spec: ReactionSpec, sigma, mean, std) -> np.ndarray:
    """E b(sigma, lam) for lam ~ N(mean, std^2), elementwise, in closed
    form for each built-in kind:
    E lam|lam| = (m^2 + s^2) erf(m / (s sqrt 2)) + 2 m s phi(m / s), and
    a polynomial's lam^j has the Gaussian raw moments."""
    if spec.role != "slow":
        raise InvalidParameterError("gaussian_mean_b requires a slow reaction")
    sigma, m, s = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                        for a in (sigma, mean, std)))
    if spec.kind == "linear_benchmark":
        return m.copy()
    if spec.kind == "cubic_rough":
        # s = 0 gives a = +-inf: erf = sign(m) and no density term.
        a = np.divide(m, s * math.sqrt(2.0), out=np.copysign(np.inf, m),
                      where=s > 0)
        erf = np.array([math.erf(v) for v in a.ravel()]).reshape(a.shape)
        lam_abs_lam = ((m * m + s * s) * erf
                       + math.sqrt(2.0 / math.pi) * m * s * np.exp(-a * a))
        return (-sigma ** 3 + spec.param("c_u") * sigma
                + spec.param("c_v") * lam_abs_lam)
    out = np.zeros(sigma.shape)
    for coef, i, j in spec.param_terms():
        if j < 0:
            raise InvalidParameterError(
                f"lam^{j} has no Gaussian mean (negative power)")
        # E (m + s Z)^j = sum over even k of C(j, k) m^(j-k) s^k (k-1)!!
        moment = sum(math.comb(j, k) * math.prod(range(k - 1, 0, -2))
                     * m ** (j - k) * s ** k for k in range(0, j + 1, 2))
        out = out + coef * sigma ** i * moment
    return out


def fast_coefficients(spec: ReactionSpec) -> tuple:
    """(a_c, b_c, c_s) of a fast reaction; c_s is None for the linear kind,
    whose g has no sine term."""
    if spec.role != "fast":
        raise InvalidParameterError("g requires a fast reaction")
    c_s = None if spec.kind == "linear_benchmark" else spec.param("c_s")
    return spec.param("a_c"), spec.param("b_c"), c_s


def eval_g(spec: ReactionSpec, rho, sigma):
    """Pointwise fast reaction; rho is the slow value, sigma the fast value:
    g = a_c*rho - b_c*sigma, plus c_s*sin(sigma) unless c_s is None."""
    a_c, b_c, c_s = fast_coefficients(spec)
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if c_s is None:
        return a_c * rho - b_c * sigma
    return a_c * rho - b_c * sigma + c_s * np.sin(sigma)


def truncate_b(theta: float, b):
    """The truncation b/(1 + theta*|b|) of values b of the slow reaction,
    in a new array; |result| <= min(|b|, 1/theta)."""
    if theta <= 0:
        raise InvalidParameterError(f"theta must be positive, got {theta}")
    if theta > 1:
        raise InvalidParameterError(f"theta must be <= 1, got {theta}")
    return _truncate(np.array(b, dtype=float), theta)


def _truncate(b: np.ndarray, theta: float) -> np.ndarray:
    """b / (1 + theta*|b|) in place, with one scratch array: the same
    operations in the same order as the scalar form, so the same bits."""
    scale = np.abs(b)
    scale *= theta
    scale += 1.0
    b /= scale
    return b


def nemytskii_drift(spec: ReactionSpec, theta: float, u_phys: np.ndarray,
                    v_phys: np.ndarray) -> np.ndarray:
    """Lift b, or b_theta when theta > 0, to nodal values:
    drift(xi_j) = b(u_j, v_j), at the nodal float arrays u_phys and v_phys.

    Leading axes of either field broadcast, so a batch of fast fields may
    share one slow field.  Nothing is checked, for the hot loops that call
    it: ModelSpec validates the role and theta once.  Untruncated b of the
    linear kind is v_phys itself, which a caller must not write into; it
    equals eval_b's copy u_phys * 0.0 + v_phys for a finite u_phys up to
    the sign of a zero."""
    if theta == 0:
        return (v_phys if spec.kind == "linear_benchmark"
                else _b(spec, u_phys, v_phys))
    return _truncate(_b(spec, u_phys, v_phys), theta)


@dataclass(frozen=True)
class LyapunovSpec:
    """Constants of the audit functional
    V(x, y) = c_V (1 + |x|_{L^{4m1}}^{2m1} + |y|_{L^{4m2}}^{2m2} + |y|_{L^{2k1m1}}^{k1m1}).
    """

    c_V: float
    m1: float
    m2: float
    kappa1: float
    kappa2: float
    q_bar: float = field(init=False)

    def __post_init__(self):
        if self.c_V <= 0:
            raise InvalidParameterError("c_V must be positive")
        object.__setattr__(self, "q_bar",
                           max(2.0 * self.kappa1 * self.m1, 4.0 * self.m2))

    @classmethod
    def from_reaction(cls, slow: ReactionSpec, c_V: float = 1.0) -> "LyapunovSpec":
        return cls(c_V=c_V, m1=slow.m1, m2=slow.m2,
                   kappa1=slow.kappa1, kappa2=slow.kappa2)


def _v_norm_exponents(lyap: LyapunovSpec) -> tuple:
    """(L^p order, power) of the three norm terms of V, in summation order:
    |u| at 4m1, |v| at 4m2, |v| at 2 kappa1 m1."""
    return ((4.0 * lyap.m1, 2.0 * lyap.m1), (4.0 * lyap.m2, 2.0 * lyap.m2),
            (2.0 * lyap.kappa1 * lyap.m1, lyap.kappa1 * lyap.m1))


def lyapunov_norms(u_phys: np.ndarray, v_phys: np.ndarray,
                   lyap: LyapunovSpec, grid: GridSpec) -> tuple:
    """The three L^p norms V reads, in the order of _v_norm_exponents:
    floats for one pair of nodal fields, arrays over the leading axes of a
    batch, None for a term with a degenerate exponent."""
    fields = (u_phys, v_phys, v_phys)
    return tuple(None if power <= 0 or order <= 0
                 else lp_norm(values, grid, order)
                 for values, (order, power) in zip(fields,
                                                   _v_norm_exponents(lyap)))


def eval_V(u_phys: np.ndarray, v_phys: np.ndarray, lyap: LyapunovSpec,
           grid: GridSpec, norms: tuple | None = None):
    """V(u, v) from nodal fields: a float for one pair, an array over the
    leading axes of a batch (the norms reduce over the last axis) whose
    rows are bit-equal to the pairs alone.  A caller that reads the norms
    too passes its lyapunov_norms as norms."""
    if norms is None:
        norms = lyapunov_norms(u_phys, v_phys, lyap, grid)
    # A degenerate term contributes nothing: one zero per field.
    batch = np.broadcast_shapes(np.shape(u_phys)[:-1], np.shape(v_phys)[:-1])
    zero = np.zeros(batch) if batch else 0.0
    u_term, v_term, v_term2 = (
        zero if norm is None else scalar_power(norm, power)
        for norm, (_, power) in zip(norms, _v_norm_exponents(lyap)))
    return lyap.c_V * (1.0 + u_term + v_term + v_term2)


def validate_dissipativity(alpha21: float, L2: float) -> float:
    """Gap omega = alpha_{2,1} - L2; rejects configurations with omega <= 0."""
    omega = alpha21 - L2
    if omega <= 0:
        raise ConfigurationRejectedError(
            "Hypothesis 2.3: ω := α_{2,1} − L₂ > 0 violated "
            f"(α_{{2,1}}={alpha21:g}, L₂={L2:g}, ω={omega:g})"
        )
    return omega


# The lattice on which validate_growth spot-checks the growth
# inequalities, and its slack on the declared constants.
GROWTH_SIGMAS = np.linspace(-10, 10, 41)
GROWTH_LAMBDAS = np.linspace(-10, 10, 41)
GROWTH_RHOS = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
GROWTH_TOL = 1e-9


@dataclass(frozen=True)
class GrowthReport:
    uniform_ok: bool
    uniform_worst_ratio: float
    one_sided_ok: bool
    one_sided_worst_ratio: float


def _worst_ratio(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max(0, each lhs/rhs where rhs > 0); inf if one is not finite, as
    when a subnormal rhs overflows the quotient."""
    with np.errstate(over="ignore"):
        ratios = np.append(lhs[rhs > 0] / rhs[rhs > 0], 0.0)
    return float(np.max(ratios)) if np.isfinite(ratios).all() else math.inf


def validate_growth(spec: ReactionSpec) -> GrowthReport:
    """Numeric sampling check (not a proof) of the two growth inequalities
    on the GROWTH_* lattice, with slack GROWTH_TOL:

    uniform:   |b(sigma,lam)| <= c1 (a1 + |sigma|^m1 + |lam|^m2)
    one-sided: b(sigma+rho,lam)*sigma <= c2 (a2 + sigma^2 + |lam|^k1 + |rho|^k2)

    A non-finite sampled ratio (0*inf at lam = 0, say) is a violation, and
    the rejection is its only report: numpy does not warn of it.
    """
    if spec.role != "slow":
        raise InvalidParameterError("validate_growth applies to slow reactions")
    # A sigma column against a lambda row: each power once per grid value.
    sigma = GROWTH_SIGMAS[:, None]
    lam = GROWTH_LAMBDAS[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_lam = np.abs(lam)
        uniform_worst = _worst_ratio(
            np.abs(eval_b(spec, sigma, lam)),
            spec.a1 + np.abs(sigma) ** spec.m1 + abs_lam ** spec.m2)
        one_sided_bound = spec.a2 + sigma ** 2 + abs_lam ** spec.kappa1
        one_sided_worst = max(_worst_ratio(
            eval_b(spec, sigma + r, lam) * sigma,
            one_sided_bound + abs(r) ** spec.kappa2) for r in GROWTH_RHOS)
    return GrowthReport(
        uniform_ok=uniform_worst <= spec.c1 + GROWTH_TOL,
        uniform_worst_ratio=uniform_worst,
        one_sided_ok=one_sided_worst <= spec.c2 + GROWTH_TOL,
        one_sided_worst_ratio=one_sided_worst,
    )
