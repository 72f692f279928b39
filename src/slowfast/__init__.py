"""Spectral Galerkin Monte Carlo toolkit for slow-fast stochastic
reaction-diffusion systems: exact Ornstein-Uhlenbeck mode updates,
frozen-fast ergodic averaging, the averaged slow equation, block-frozen
auxiliary processes, and an experiment harness with reproducible
counter-based randomness."""

__version__ = "0.1.0"

from .averaging import analytic_Fbar_linear, estimate_Fbar, simulate_averaged
from .coupled import (build_auxiliary, compute_rho0, khasminskii_delta,
                      simulate_slowfast, step_coupled)
from .errors import (ConfigurationRejectedError, InvalidParameterError,
                     StateExplosionError)
from .fast_dynamics import (FrozenFastParams, estimate_invariant_average,
                            step_frozen_fast)
from .model import ModelSpec, build_model
from .noise import OUStepPlan, RngStream, derive_stream, make_plan, ou_step
from .reactions import (LyapunovSpec, ReactionSpec, eval_V, eval_b, eval_g,
                        make_fast_reaction, make_slow_reaction, nemytskii_drift,
                        truncate_b, validate_dissipativity, validate_growth)
from .spectral import (GridSpec, SpectralOperator, analyze, check_noise_regularity,
                       dirichlet_eigenpairs, synthesize)

__all__ = [name for name in dir() if not name.startswith("_")]
