"""Exception types shared across the package."""

import math


class InvalidParameterError(ValueError):
    """An operation received arguments outside its contract; ``name`` is
    the argument at fault when one alone is."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


class ConfigurationRejectedError(ValueError):
    """A model configuration violates one of the structural hypotheses.

    The message names the violated hypothesis so that load-time rejection
    is self-explanatory (CLI exit code 2).
    """


class StateExplosionError(RuntimeError):
    """A trajectory breached the explosion guard ``|u| + |v| <= bound``.

    ``cause`` is ``"non-finite"`` when a norm is NaN or infinite, else
    ``"bound"``.
    """

    def __init__(self, t: float, norm_u: float, norm_v: float, bound: float,
                 where: str = ""):
        self.t = t
        self.norm_u = norm_u
        self.norm_v = norm_v
        self.bound = bound
        finite = math.isfinite(norm_u) and math.isfinite(norm_v)
        self.cause = "bound" if finite else "non-finite"
        verdict = (f"exceeds guard {bound:.3e}" if finite
                   else "is non-finite")
        super().__init__(
            f"state explosion{where} at t={t:g}: |u|={norm_u:.3e}, "
            f"|v|={norm_v:.3e} {verdict}"
        )
