"""Complete slow-fast problem description and its validation gates."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameterError
from .reactions import LyapunovSpec, ReactionSpec, validate_dissipativity
from .spectral import GridSpec, SpectralOperator, as_modal_field

__all__ = ["ModelSpec", "build_model"]


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to simulate one slow-fast system at a given epsilon."""

    op1: SpectralOperator
    op2: SpectralOperator
    reaction_slow: ReactionSpec
    reaction_fast: ReactionSpec
    lyapunov: LyapunovSpec
    grid: GridSpec
    epsilon: float
    horizon: float
    u0: np.ndarray
    v0: np.ndarray
    theta: float = 0.0            # slow-drift truncation level; 0 = raw b
    holder_beta: float = 0.2      # increment-statistics exponent (measured, not asserted)
    lambda_exp: float = 1.0       # exponent in the block-length schedule
    explosion_bound: float = 1e6
    h_macro: float = 0.01
    substep_ratio: float = 0.2    # fast substep cap h_sub <= ratio * epsilon
    gamma1_star: float = field(init=False)

    def __post_init__(self):
        for name, ok, rule in (
                ("epsilon", 0 < self.epsilon <= 1, "in (0,1]"),
                ("horizon", self.horizon > 0, "positive"),
                ("theta", 0 <= self.theta <= 1, "in [0,1]"),
                ("h_macro", self.h_macro > 0, "positive"),
                ("substep_ratio", self.substep_ratio > 0, "positive"),
                ("explosion_bound", self.explosion_bound > 0, "positive")):
            if not ok:
                value = getattr(self, name)
                raise InvalidParameterError(
                    f"{name} must be {rule}, got {value!r}", name=name)
        n = self.grid.n_modes
        if self.op1.n_modes != n or self.op2.n_modes != n:
            raise InvalidParameterError("operators and grid disagree on n_modes")
        object.__setattr__(self, "u0", as_modal_field(self.u0, n))
        object.__setattr__(self, "v0", as_modal_field(self.v0, n))
        if self.reaction_slow.role != "slow" or self.reaction_fast.role != "fast":
            raise InvalidParameterError("reaction roles are swapped or missing")
        # Mixing gate: raises with the named hypothesis when omega <= 0.
        validate_dissipativity(float(self.op2.alphas[0]), self.reaction_fast.L2)
        object.__setattr__(self, "gamma1_star", self.op1.gamma_star)

    @property
    def omega(self) -> float:
        """Dissipativity gap alpha_{2,1} - L2 of the fast dynamics."""
        return float(self.op2.alphas[0]) - self.reaction_fast.L2

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    def with_epsilon(self, epsilon: float) -> "ModelSpec":
        return replace(self, epsilon=epsilon)

    def with_theta(self, theta: float) -> "ModelSpec":
        return replace(self, theta=theta)

    @property
    def is_linear_benchmark(self) -> bool:
        return (self.reaction_slow.kind == "linear_benchmark"
                and self.reaction_fast.kind == "linear_benchmark")


def build_model(op1, op2, reaction_slow, reaction_fast, grid, epsilon, horizon,
                u0, v0, c_V: float = 1.0, **kwargs) -> ModelSpec:
    """Assemble a ModelSpec, deriving the audit-functional constants from the
    slow reaction's declared growth exponents."""
    lyap = LyapunovSpec.from_reaction(reaction_slow, c_V=c_V)
    return ModelSpec(op1=op1, op2=op2, reaction_slow=reaction_slow,
                     reaction_fast=reaction_fast, lyapunov=lyap, grid=grid,
                     epsilon=epsilon, horizon=horizon, u0=u0, v0=v0, **kwargs)
