"""Complete slow-fast problem description and its validation gates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .noise import OUStepPlan, make_plan
from .reactions import LyapunovSpec, ReactionSpec, validate_dissipativity
from .spectral import GridSpec, SpectralOperator, as_modal_field

__all__ = ["ModelSpec", "build_model"]

MAX_STEPS = 10 ** 8  # steps of a path, or of a frozen-fast phase, at most


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to simulate one slow-fast system at a given epsilon,
    with the step counts of its paths: n_steps macro steps over the horizon,
    each of n_sub fast substeps of at most substep_ratio * epsilon."""

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
    n_steps: int = field(init=False)  # a horizon below h_macro / 2 takes none
    n_sub: int = field(init=False)

    def __post_init__(self):
        for name, ok, rule in (
                ("epsilon", 0 < self.epsilon <= 1, "in (0,1]"),
                ("h_macro", self.h_macro > 0, "positive"),
                ("horizon", 0 < self.horizon <= MAX_STEPS * self.h_macro,
                 f"in (0, {MAX_STEPS:.0e} h_macro]"),
                ("theta", 0 <= self.theta <= 1, "in [0,1]"),
                ("substep_ratio", self.substep_ratio > 0, "positive"),
                ("explosion_bound", self.explosion_bound > 0, "positive")):
            if not ok:
                value = getattr(self, name)
                raise InvalidParameterError(
                    f"{name} must be {rule}, got {value!r}", name=name)
        n_steps = round(self.horizon / self.h_macro)
        ratio = self.substep_ratio * self.epsilon
        substeps = self.h_macro / ratio if ratio > 0 else math.inf
        # A path builds one macro step's substep plan even with no steps.
        # Written so that an underflowing ratio and a NaN count also fail.
        if not max(n_steps, 1) * substeps <= MAX_STEPS:
            raise InvalidParameterError(
                f"epsilon must leave at most {MAX_STEPS:.0e} fast substeps "
                f"per path, got {self.epsilon!r} ({n_steps} macro steps of "
                f"{substeps:.4g})", name="epsilon")
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "n_sub", max(1, math.ceil(substeps)))
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
    def times(self) -> np.ndarray:
        """A path's macro nodes 0, h_macro, ..., n_steps h_macro (fresh)."""
        return np.arange(self.n_steps + 1) * self.h_macro

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    @cached_property
    def slow_plan(self) -> OUStepPlan:
        """The exact OU plan of one macro step of the slow field, on A1:
        slow_path's update, made once per model."""
        return make_plan(self.op1, self.h_macro, 1.0)

    @cached_property
    def coupled_plans(self):
        """What every coupled path of this model reads besides its noise
        (coupled.CoupledPlans), made once per model; a path takes its own
        scratch buffers with CoupledPlans.for_path.  A model made by
        with_epsilon, with_theta or dataclasses.replace makes its own."""
        # coupled imports this module, so it is imported here.
        from .coupled import CoupledPlans
        return CoupledPlans.build(self)

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
