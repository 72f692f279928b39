"""Counter-based Gaussian streams and exact per-mode Ornstein-Uhlenbeck
updates.

Every random stream is a Philox counter-based generator keyed by
(master_seed, trajectory_id, role) plus an optional trailing key of
nonnegative integers, so identical identities reproduce
identical draw sequences regardless of scheduling or worker count, and
distinct trajectory ids or roles give statistically independent streams.

Standard normals are numpy's ziggurat sampler
(``Generator.standard_normal``, Marsaglia & Tsang 2000) on the stream's
Philox generator.  Draws are deterministic per key and
concatenation-consistent: n draws taken in any chunking are the same n
numbers.  They are tied to numpy's ``Generator`` algorithm, which numpy's
stream policy (NEP 19) allows to change between releases;
``tests/test_noise.py`` pins the first draws of one stream so such a change
fails a test instead of silently changing outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps its load out of
# the first draw.
from numpy.random import Generator, Philox, SeedSequence

from .errors import InvalidParameterError
from .spectral import SpectralOperator, as_modal_field

__all__ = [
    "ROLES",
    "RngStream",
    "derive_stream",
    "OUStepPlan",
    "make_plan",
    "ou_step",
]

ROLES = ("slow_noise", "fast_noise", "frozen_fast_noise", "auxiliary")


class RngStream:
    """Counter-based Gaussian stream owned by one (trajectory, role) pair;
    its spawn key is (role index, trajectory_id) + key."""

    __slots__ = ("counter", "_gen")

    def __init__(self, master_seed: int, trajectory_id: int, role: str,
                 key: tuple = ()):
        if role not in ROLES:
            raise InvalidParameterError(f"unknown role {role!r}, expected one of {ROLES}")
        key = tuple(int(k) for k in key)
        if master_seed < 0 or trajectory_id < 0 or any(k < 0 for k in key):
            raise InvalidParameterError(
                "master_seed, trajectory_id and key entries must be >= 0")
        self.counter = 0
        seq = SeedSequence(
            entropy=int(master_seed),
            spawn_key=(ROLES.index(role), int(trajectory_id)) + key,
        )
        self._gen = Generator(Philox(seq))

    def normals(self, n: int) -> np.ndarray:
        """Draw n standard normals by numpy's ziggurat on this Philox stream."""
        draws = self._gen.standard_normal(n)
        self.counter += n
        return draws


def derive_stream(master_seed: int, trajectory_id: int, role: str,
                  key: tuple = ()) -> RngStream:
    """Deterministic, collision-free stream derivation."""
    return RngStream(master_seed, trajectory_id, role, key)


@dataclass(frozen=True)
class OUStepPlan:
    """Precomputed exact one-step update for dz = (A z + f)/eps dt + Q/sqrt(eps) dW.

    Per mode: z' = decay*z + drift_weight*f + noise_std*xi with
    decay = exp(-alpha*h/eps), drift_weight = (1 - decay)/alpha and
    noise_std^2 = lambda^2 (1 - decay^2) / (2 alpha).  The stationary
    variance lambda^2/(2 alpha) is independent of eps: the 1/sqrt(eps)
    noise amplitude cancels the 1/eps decay rate.
    """

    decay: np.ndarray
    drift_weight: np.ndarray
    noise_std: np.ndarray


def make_plan(op: SpectralOperator, h: float, eps_eff: float) -> OUStepPlan:
    if h <= 0:
        raise InvalidParameterError(f"step h must be positive, got {h}")
    if eps_eff <= 0:
        raise InvalidParameterError(f"eps_eff must be positive, got {eps_eff}")
    decay = np.exp(-op.alphas * (h / eps_eff))
    drift_weight = (1.0 - decay) / op.alphas
    noise_std = op.lambdas * np.sqrt((1.0 - decay * decay) / (2.0 * op.alphas))
    return OUStepPlan(decay=decay, drift_weight=drift_weight,
                      noise_std=noise_std)


def ou_step(z: np.ndarray, plan: OUStepPlan, forcing: np.ndarray,
            stream: RngStream) -> np.ndarray:
    """One exact exponential-Euler step with the drift frozen over the step."""
    n = plan.decay.size
    z = as_modal_field(z, n)
    f = as_modal_field(forcing, n)
    return plan.decay * z + plan.drift_weight * f + plan.noise_std * stream.normals(n)

