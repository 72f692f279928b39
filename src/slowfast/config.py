"""Strict JSON configuration: parsing, hypothesis gating, canonical form.

Unknown keys are rejected everywhere.  The structural gates run at load
time and name the violated hypothesis, so a bad configuration never
reaches a simulation kernel:

  - dissipativity gap          omega = alpha_{2,1} - L2 > 0
  - one-sided growth           kappa1 <= 2*m2
  - growth inequalities        reactions.validate_growth, sampled on a lattice
  - noise regularity exponent  a(2*gamma - 1) - 2*s < -1

A value out of its range (a step, a count, a mode index, a truncation
level) is rejected at load too, under its JSON key.  The invariant and
averaging sections are one FrozenFastParams each; their step keys are h
and h_fast.

The canonical form (all defaults materialized, keys sorted) is what gets
hashed into result sidecars and what serialization round-trips through.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationRejectedError, InvalidParameterError
from .fast_dynamics import FrozenFastParams
from .model import ModelSpec, build_model
from .reactions import make_fast_reaction, make_slow_reaction, validate_growth
from .spectral import GridSpec, SpectralOperator

__all__ = [
    "TestFunctionSpec",
    "ObservableSpec",
    "ExperimentConfig",
    "parse_config",
    "parse_config_dict",
    "config_hash",
]


@dataclass(frozen=True)
class TestFunctionSpec:
    """Finite modal test function xi(t) = t^time_power * sum_k c_k e_k."""

    modes: tuple
    time_power: int = 0

    def values(self, t: float, n_modes: int) -> np.ndarray:
        out = np.zeros(n_modes)
        coeffs = np.asarray(self.modes, dtype=float)
        out[: coeffs.size] = coeffs
        if self.time_power:
            out *= t ** self.time_power
        return out

    @property
    def label(self) -> str:
        mode_part = ",".join(f"{c:g}" for c in self.modes)
        return f"xi[{mode_part}]t^{self.time_power}"


@dataclass(frozen=True)
class ObservableSpec:
    """Terminal functional of the slow field: mode projection or |u|^2."""

    kind: str
    k: int = 1

    def __call__(self, u: np.ndarray):
        """Value at one modal field (a float) or at each row of a batch
        along leading axes (an array)."""
        value = u[..., self.k - 1] if self.kind == "mode" else np.vecdot(u, u)
        return float(value) if np.ndim(value) == 0 else value

    @property
    def label(self) -> str:
        return f"mode_{self.k}" if self.kind == "mode" else "norm_sq"


@dataclass(eq=False)
class ExperimentConfig:
    model: ModelSpec
    epsilon_grid: tuple
    ensemble_size: int
    test_functions: tuple
    observables: tuple
    output_dir: str
    master_seed: int
    worker_count: int
    dump_modes: int
    theta_sequence: tuple
    c_const: float
    invariant: FrozenFastParams
    averaging: FrozenFastParams
    canonical: dict


def _require_keys(section: dict, where: str, required, optional) -> None:
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigurationRejectedError(
            f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigurationRejectedError(
            f"missing required key(s) {sorted(missing)} in {where}")


def _operator(section: dict, grid: GridSpec, where: str) -> SpectralOperator:
    _require_keys(section, where, ("nu", "lambda0"),
                  ("decay_exponent", "gamma_reg"))
    return SpectralOperator.from_power_law(
        n_modes=grid.n_modes,
        nu=float(section["nu"]),
        length=grid.length,
        lambda0=float(section["lambda0"]),
        decay_exponent=float(section.get("decay_exponent", 1.0)),
        gamma_reg=float(section.get("gamma_reg", 0.5)),
        label=where,
    )


def _reaction(section: dict, role: str, where: str):
    if "kind" not in section:
        raise ConfigurationRejectedError(f"missing 'kind' in {where}")
    params = {k: v for k, v in section.items() if k != "kind"}
    if role == "slow":
        if section["kind"] == "polynomial" and "terms" in params:
            params["terms"] = [tuple(term) for term in params["terms"]]
        spec = make_slow_reaction(section["kind"], **params)
        _require_growth(spec, where)
        return spec
    return make_fast_reaction(section["kind"], **params)


def _require_growth(spec, where: str) -> None:
    """Reject a slow reaction that breaks either growth inequality of
    Hypothesis 2.2 on validate_growth's sample box.  A sampling check, not
    a proof: a reaction can pass it and still break the bound elsewhere."""
    report = validate_growth(spec)
    if not report.uniform_ok:
        raise ConfigurationRejectedError(
            f"Hypothesis 2.2 (uniform growth): |b(σ,λ)| ≤ c₁(a₁ + |σ|^m₁ + "
            f"|λ|^m₂) violated in {where}: worst sampled ratio "
            f"{report.uniform_worst_ratio:.4g} > c₁={spec.c1:g}")
    if not report.one_sided_ok:
        raise ConfigurationRejectedError(
            f"Hypothesis 2.2 (one-sided growth): b(σ+ρ,λ)σ ≤ c₂(a₂ + σ² + "
            f"|λ|^κ₁ + |ρ|^κ₂) violated in {where}: worst sampled ratio "
            f"{report.one_sided_worst_ratio:.4g} > c₂={spec.c2:g}")


_MODEL_KEYS_REQ = ("grid", "slow_operator", "fast_operator", "reactions",
                   "epsilon", "horizon", "u0", "v0")
_MODEL_KEYS_OPT = ("c_V", "theta", "holder_beta", "lambda_exp",
                   "explosion_bound", "h_macro", "substep_ratio")


def _build_model(section: dict) -> ModelSpec:
    _require_keys(section, "model", _MODEL_KEYS_REQ, _MODEL_KEYS_OPT)
    grid_sec = section["grid"]
    _require_keys(grid_sec, "model.grid", ("n_modes", "n_quad"), ("length",))
    grid = GridSpec(n_modes=int(grid_sec["n_modes"]),
                    n_quad=int(grid_sec["n_quad"]),
                    length=float(grid_sec.get("length", 1.0)))
    op1 = _operator(section["slow_operator"], grid, "model.slow_operator")
    op2 = _operator(section["fast_operator"], grid, "model.fast_operator")
    reactions = section["reactions"]
    _require_keys(reactions, "model.reactions", ("slow", "fast"), ())
    slow = _reaction(reactions["slow"], "slow", "model.reactions.slow")
    fast = _reaction(reactions["fast"], "fast", "model.reactions.fast")

    def pad(vec):
        arr = np.zeros(grid.n_modes)
        vals = np.asarray(vec, dtype=float)
        if vals.size > grid.n_modes:
            raise ConfigurationRejectedError(
                f"initial condition has {vals.size} modes but grid holds {grid.n_modes}")
        arr[: vals.size] = vals
        return arr

    return build_model(
        op1=op1, op2=op2, reaction_slow=slow, reaction_fast=fast, grid=grid,
        epsilon=float(section["epsilon"]), horizon=float(section["horizon"]),
        u0=pad(section["u0"]), v0=pad(section["v0"]),
        c_V=float(section.get("c_V", 1.0)),
        theta=float(section.get("theta", 0.0)),
        holder_beta=float(section.get("holder_beta", 0.2)),
        lambda_exp=float(section.get("lambda_exp", 1.0)),
        explosion_bound=float(section.get("explosion_bound", 1e6)),
        h_macro=float(section.get("h_macro", 0.01)),
        substep_ratio=float(section.get("substep_ratio", 0.2)),
    )


_EXP_KEYS_OPT = ("epsilon_grid", "ensemble_size", "test_functions",
                 "observables", "output_dir", "master_seed", "worker_count",
                 "dump_modes", "theta_sequence", "c_const")


# The JSON key of the frozen-fast step in each FrozenFastParams section.
_STEP_KEYS = {"invariant": "h", "averaging": "h_fast"}


def _frozen_fast(raw: dict, section: str, omega: float) -> FrozenFastParams:
    """The frozen-fast parameters of one section.  A value out of range is
    rejected under its JSON key."""
    step_key = _STEP_KEYS[section]
    values = dict(raw.get(section, {}))
    _require_keys(values, section, (),
                  (step_key, "t_burn", "t_avg", "n_replicas"))
    try:
        return FrozenFastParams(
            h=float(values.get(step_key, 0.01)),
            t_burn=float(values.get("t_burn", 10.0 / omega)),
            t_avg=float(values.get("t_avg", 50.0 / omega)),
            n_replicas=int(values.get("n_replicas", 8)),
        )
    except InvalidParameterError as exc:
        key = step_key if exc.name == "h" else exc.name
        raise ConfigurationRejectedError(f"{section}.{key}: {exc}") from None


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Reject the experiment value under key unless ok."""
    if not ok:
        raise ConfigurationRejectedError(
            f"experiment.{key} must be {rule}, got {value!r}")


def parse_config_dict(raw: dict) -> ExperimentConfig:
    _require_keys(raw, "config", ("model",), ("experiment", "invariant", "averaging"))
    try:
        model = _build_model(raw["model"])
    except InvalidParameterError as exc:
        where = f"model.{exc.name}" if exc.name else "model"
        raise ConfigurationRejectedError(f"{where}: {exc}") from None
    n_modes = model.n_modes

    exp = dict(raw.get("experiment", {}))
    _require_keys(exp, "experiment", (), _EXP_KEYS_OPT)
    epsilon_grid = tuple(float(e) for e in exp.get("epsilon_grid", (model.epsilon,)))
    if any(not 0 < e < 1 for e in epsilon_grid):
        raise ConfigurationRejectedError("epsilon_grid entries must lie in (0,1)")
    if any(b >= a for a, b in zip(epsilon_grid, epsilon_grid[1:])):
        raise ConfigurationRejectedError("epsilon_grid must be strictly decreasing")

    tf_raw = exp.get("test_functions", [{"modes": [1.0], "time_power": 0}])
    test_functions = []
    for i, tf in enumerate(tf_raw):
        where = f"test_functions[{i}]"
        _require_keys(tf, f"experiment.{where}", ("modes",), ("time_power",))
        modes = tuple(float(c) for c in tf["modes"])
        _require(len(modes) <= n_modes, f"{where}.modes",
                 f"at most n_modes = {n_modes} coefficients", list(modes))
        time_power = int(tf.get("time_power", 0))
        _require(time_power >= 0, f"{where}.time_power", "nonnegative",
                 time_power)
        test_functions.append(TestFunctionSpec(modes=modes,
                                               time_power=time_power))

    obs_raw = exp.get("observables", [{"kind": "mode", "k": 1}])
    observables = []
    for i, ob in enumerate(obs_raw):
        _require_keys(ob, f"experiment.observables[{i}]", ("kind",), ("k",))
        if ob["kind"] not in ("mode", "norm_sq"):
            raise ConfigurationRejectedError(
                f"unknown observable kind {ob['kind']!r}")
        k = int(ob.get("k", 1))
        if ob["kind"] == "mode":
            _require(1 <= k <= n_modes, f"observables[{i}].k",
                     f"a mode in 1..{n_modes}", k)
        observables.append(ObservableSpec(kind=ob["kind"], k=k))

    ensemble_size = int(exp.get("ensemble_size", 100))
    _require(ensemble_size >= 1, "ensemble_size", "at least 1", ensemble_size)
    dump_modes = int(exp.get("dump_modes", 4))
    _require(dump_modes >= 0, "dump_modes", "nonnegative", dump_modes)
    theta_sequence = tuple(float(t) for t in exp.get("theta_sequence",
                                                     (0.1, 0.01, 0.001)))
    _require(len(theta_sequence) >= 2, "theta_sequence",
             "at least two levels", list(theta_sequence))
    _require(all(0 <= theta <= 1 for theta in theta_sequence),
             "theta_sequence", "a list of levels in [0, 1]",
             list(theta_sequence))
    c_const = float(exp.get("c_const", 2.0))
    _require(0 < c_const < math.inf, "c_const", "finite and positive",
             c_const)
    master_seed = int(exp.get("master_seed", 0))
    _require(master_seed >= 0, "master_seed", "nonnegative", master_seed)

    omega = model.omega
    cfg = ExperimentConfig(
        model=model,
        epsilon_grid=epsilon_grid,
        ensemble_size=ensemble_size,
        test_functions=tuple(test_functions),
        observables=tuple(observables),
        output_dir=str(exp.get("output_dir", "out")),
        master_seed=master_seed,
        worker_count=int(exp.get("worker_count", 1)),
        dump_modes=dump_modes,
        theta_sequence=theta_sequence,
        c_const=c_const,
        invariant=_frozen_fast(raw, "invariant", omega),
        averaging=_frozen_fast(raw, "averaging", omega),
        canonical={},
    )
    cfg.canonical = _canonical_dict(raw, cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load, validate and gate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationRejectedError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationRejectedError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationRejectedError("config root must be a JSON object")
    return parse_config_dict(raw)


def _canonical_dict(raw: dict, cfg: ExperimentConfig) -> dict:
    """Raw config with every default materialized; stable under re-parsing."""
    model_sec = {key: raw["model"][key] for key in raw["model"]}
    model = cfg.model
    model_sec.setdefault("c_V", model.lyapunov.c_V)
    model_sec.setdefault("theta", model.theta)
    model_sec.setdefault("holder_beta", model.holder_beta)
    model_sec.setdefault("lambda_exp", model.lambda_exp)
    model_sec.setdefault("explosion_bound", model.explosion_bound)
    model_sec.setdefault("h_macro", model.h_macro)
    model_sec.setdefault("substep_ratio", model.substep_ratio)
    # worker_count and output_dir are execution knobs, not part of the
    # experiment definition: results must be identical for any worker count,
    # so they stay out of the canonical form and of the config hash.
    return {
        "model": model_sec,
        "experiment": {
            "epsilon_grid": list(cfg.epsilon_grid),
            "ensemble_size": cfg.ensemble_size,
            "test_functions": [
                {"modes": list(tf.modes), "time_power": tf.time_power}
                for tf in cfg.test_functions
            ],
            "observables": [
                {"kind": ob.kind, "k": ob.k} for ob in cfg.observables
            ],
            "master_seed": cfg.master_seed,
            "dump_modes": cfg.dump_modes,
            "theta_sequence": list(cfg.theta_sequence),
            "c_const": cfg.c_const,
        },
        **{section: _frozen_fast_dict(getattr(cfg, section), step_key)
           for section, step_key in _STEP_KEYS.items()},
    }


def _frozen_fast_dict(params: FrozenFastParams, step_key: str) -> dict:
    """A frozen-fast section's canonical form, its step under step_key."""
    values = asdict(params)
    values[step_key] = values.pop("h")
    return values


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(cfg.canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
