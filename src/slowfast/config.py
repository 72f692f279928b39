"""Strict JSON configuration: parsing, hypothesis gating, canonical form.

Unknown keys are rejected everywhere.  The structural gates run at load
time and name the violated hypothesis, so a bad configuration never
reaches a simulation kernel:

  - dissipativity gap          omega = alpha_{2,1} - L2 > 0
  - one-sided growth           kappa1 <= 2*m2
  - growth inequalities        reactions.validate_growth, sampled on a lattice
  - noise regularity exponent  a(2*gamma - 1) - 2*s < -1

A value of the wrong JSON type, or out of its range (a step, a count, a
mode index, a truncation level, a run of more than model.MAX_STEPS
steps), is rejected at load too, under its JSON key.  The invariant and
averaging sections are one FrozenFastParams each; their step keys are h
and h_fast.

The canonical form (all defaults materialized, keys sorted) is what gets
hashed into result sidecars and what serialization round-trips through.
It is read from the config's fields, so a config changed with
dataclasses.replace hashes as the config it now is.
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

    def gaussian_mean(self, mean: np.ndarray, variance: np.ndarray) -> float:
        """The expectation when the modes are independent Gaussians."""
        return float(mean[self.k - 1] if self.kind == "mode"
                     else np.sum(mean * mean + variance))

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
    # The parsed slow_operator and fast_operator sections, defaults
    # included: a SpectralOperator keeps only its alpha and lambda arrays.
    operators: dict

    @property
    def canonical(self) -> dict:
        """The parsed config with every default materialized, read from
        the fields and the model; stable under re-parsing.  worker_count
        and output_dir are execution knobs, not part of the experiment
        definition: results must be identical for any worker count, so
        they stay out of the canonical form and of the config hash."""
        model = self.model
        return {
            "model": {
                "grid": asdict(model.grid), **self.operators,
                "reactions": {"slow": _reaction_values(model.reaction_slow),
                              "fast": _reaction_values(model.reaction_fast)},
                "u0": model.u0.tolist(), "v0": model.v0.tolist(),
                "c_V": model.lyapunov.c_V, "epsilon": model.epsilon,
                "horizon": model.horizon, "theta": model.theta,
                "holder_beta": model.holder_beta,
                "lambda_exp": model.lambda_exp,
                "explosion_bound": model.explosion_bound,
                "h_macro": model.h_macro,
                "substep_ratio": model.substep_ratio},
            "experiment": {
                "epsilon_grid": list(self.epsilon_grid),
                "ensemble_size": self.ensemble_size,
                "test_functions": [asdict(tf) for tf in self.test_functions],
                "observables": [asdict(ob) for ob in self.observables],
                "master_seed": self.master_seed,
                "dump_modes": self.dump_modes,
                "theta_sequence": list(self.theta_sequence),
                "c_const": self.c_const,
            },
            **{section: _frozen_fast_dict(getattr(self, section), step_key)
               for section, step_key in _STEP_KEYS.items()},
        }


def _is_number(value, kind) -> bool:
    """Whether a JSON value is a finite number, not a bool, and integral if
    kind is int.  Python's json reads NaN, Infinity and 1e999 as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return kind is not int or isinstance(value, int) or value.is_integer()


def _get(section: dict, key: str, where: str, default=None, kind=float):
    """section[key], or default when it is absent, as a kind: float (a
    finite JSON number), int (an integral one: 3.0 passes, 3.7 does not)
    or tuple (a JSON list of finite numbers, as floats).  Anything else is
    rejected: a bool, a numeric string, a string for a list, NaN or an
    infinity."""
    value = section.get(key, default)
    items = value if kind is tuple else [value]
    if key not in section or (isinstance(items, list) and all(
            _is_number(item, kind) for item in items)):
        try:
            return tuple(map(float, value)) if kind is tuple else kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    noun = {tuple: "a list of finite numbers", int: "an integer"}.get(
        kind, "a finite number")
    raise ConfigurationRejectedError(
        f"{where}.{key} must be {noun}, got {value!r}")


def _require_keys(section: dict, where: str, required, optional) -> None:
    if not isinstance(section, dict):
        raise ConfigurationRejectedError(
            f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigurationRejectedError(
            f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigurationRejectedError(
            f"missing required key(s) {sorted(missing)} in {where}")


def _operator(section: dict, grid: GridSpec, where: str) -> tuple:
    """The operator and its parsed values, defaults included."""
    _require_keys(section, where, ("nu", "lambda0"),
                  ("decay_exponent", "gamma_reg"))
    values = {key: _get(section, key, where, default) for key, default in (
        ("nu", None), ("lambda0", None), ("decay_exponent", 1.0),
        ("gamma_reg", 0.5))}
    return SpectralOperator.from_power_law(
        n_modes=grid.n_modes, length=grid.length, label=where,
        **values), values


def _terms(terms, where: str) -> list:
    """Polynomial terms, each a [number, integer, integer] of _is_number;
    a power of 3.7 is rejected, not truncated."""
    try:
        if all(_is_number(c, float) and _is_number(i, int)
               and _is_number(j, int) for c, i, j in terms):
            return [(float(c), int(i), int(j)) for c, i, j in terms]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationRejectedError(
        f"{where}.terms must be a list of [number, integer, integer], got "
        f"{terms!r}")


def _reaction(section: dict, role: str, where: str):
    """The reaction of one reactions section; a slow one passes the
    growth gate."""
    _require_keys(section, where, ("kind",), section)
    params = {k: _terms(v, where) if k == "terms" else _get(section, k, where)
              for k, v in section.items() if k != "kind"}
    if role == "slow":
        spec = make_slow_reaction(section["kind"], **params)
        _require_growth(spec, where)
    else:
        spec = make_fast_reaction(section["kind"], **params)
    return spec


def _reaction_values(spec) -> dict:
    """A reaction's canonical section: its parsed values, defaults
    included."""
    values = {"kind": spec.kind, **dict(spec.params)}
    if spec.kind == "polynomial":
        values.update((key, getattr(spec, key)) for key in (
            "m1", "m2", "kappa1", "kappa2", "c1", "c2", "a1", "a2"))
    return values


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


def _build_model(section: dict) -> tuple:
    """The model and its parsed operator sections, every default included,
    so two spellings of one model hash alike."""
    _require_keys(section, "model", _MODEL_KEYS_REQ, _MODEL_KEYS_OPT)
    grid_sec = section["grid"]
    _require_keys(grid_sec, "model.grid", ("n_modes", "n_quad"), ("length",))
    grid = GridSpec(n_modes=_get(grid_sec, "n_modes", "model.grid", kind=int),
                    n_quad=_get(grid_sec, "n_quad", "model.grid", kind=int),
                    length=_get(grid_sec, "length", "model.grid", 1.0))
    op1, op1_values = _operator(section["slow_operator"], grid,
                                "model.slow_operator")
    op2, op2_values = _operator(section["fast_operator"], grid,
                                "model.fast_operator")
    reactions = section["reactions"]
    _require_keys(reactions, "model.reactions", ("slow", "fast"), ())
    slow = _reaction(reactions["slow"], "slow", "model.reactions.slow")
    fast = _reaction(reactions["fast"], "fast", "model.reactions.fast")

    def pad(key):
        arr = np.zeros(grid.n_modes)
        vals = np.asarray(_get(section, key, "model", kind=tuple))
        if vals.size > grid.n_modes:
            raise ConfigurationRejectedError(
                f"initial condition has {vals.size} modes but grid holds {grid.n_modes}")
        arr[: vals.size] = vals
        return arr

    # Absent keys take ModelSpec's (and build_model's) defaults.
    values = {key: _get(section, key, "model")
              for key in ("epsilon", "horizon", *_MODEL_KEYS_OPT)
              if key in section}
    model = build_model(
        op1=op1, op2=op2, reaction_slow=slow, reaction_fast=fast, grid=grid,
        u0=pad("u0"), v0=pad("v0"), **values)
    return model, {"slow_operator": op1_values, "fast_operator": op2_values}


_EXP_KEYS_OPT = ("epsilon_grid", "ensemble_size", "test_functions",
                 "observables", "output_dir", "master_seed", "worker_count",
                 "dump_modes", "theta_sequence", "c_const")


# The JSON key of the frozen-fast step in each FrozenFastParams section.
_STEP_KEYS = {"invariant": "h", "averaging": "h_fast"}


def _frozen_fast(raw: dict, section: str, omega: float) -> FrozenFastParams:
    """The frozen-fast parameters of one section.  A value out of range is
    rejected under its JSON key."""
    step_key = _STEP_KEYS[section]
    values = raw.get(section, {})
    _require_keys(values, section, (),
                  (step_key, "t_burn", "t_avg", "n_replicas"))
    try:
        return FrozenFastParams(
            h=_get(values, step_key, section, 0.01),
            t_burn=_get(values, "t_burn", section, 10.0 / omega),
            t_avg=_get(values, "t_avg", section, 50.0 / omega),
            n_replicas=_get(values, "n_replicas", section, 8, int),
        )
    except InvalidParameterError as exc:
        key = step_key if exc.name == "h" else exc.name
        raise ConfigurationRejectedError(f"{section}.{key}: {exc}") from None


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Reject the experiment value under key unless ok."""
    if not ok:
        raise ConfigurationRejectedError(
            f"experiment.{key} must be {rule}, got {value!r}")


def _require_distinct(key: str, labels: list) -> None:
    """Reject an experiment list two of whose entries print alike in the
    statistic ids of its rows, which would then share a CSV key."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigurationRejectedError(
                f"experiment.{key}[{i}] repeats {label!r} of an earlier "
                f"entry, so two rows would share a statistic id")


def parse_config_dict(raw: dict) -> ExperimentConfig:
    _require_keys(raw, "config", ("model",), ("experiment", "invariant", "averaging"))
    try:
        model, operators = _build_model(raw["model"])
    except InvalidParameterError as exc:
        where = f"model.{exc.name}" if exc.name else "model"
        raise ConfigurationRejectedError(f"{where}: {exc}") from None
    # The audit's increment pairs and converge's stack of drift estimates
    # need two macro steps; ModelSpec alone still allows fewer.
    if model.n_steps < 2:
        raise ConfigurationRejectedError(
            f"model.horizon must span at least two macro steps of h_macro "
            f"= {model.h_macro!r}, got {model.horizon!r}")
    n_modes = model.n_modes

    exp = raw.get("experiment", {})
    _require_keys(exp, "experiment", (), _EXP_KEYS_OPT)
    epsilon_grid = _get(exp, "epsilon_grid", "experiment", (model.epsilon,),
                        tuple)
    _require(len(epsilon_grid) >= 1, "epsilon_grid", "a non-empty list", [])
    if any(not 0 < e < 1 for e in epsilon_grid):
        raise ConfigurationRejectedError("epsilon_grid entries must lie in (0,1)")
    if any(b >= a for a, b in zip(epsilon_grid, epsilon_grid[1:])):
        raise ConfigurationRejectedError("epsilon_grid must be strictly decreasing")
    for e in epsilon_grid:
        try:
            model.with_epsilon(e)
        except InvalidParameterError as exc:
            raise ConfigurationRejectedError(
                f"experiment.epsilon_grid: {exc}") from None

    tf_raw = exp.get("test_functions", [{"modes": [1.0], "time_power": 0}])
    _require(isinstance(tf_raw, list), "test_functions", "a list", tf_raw)
    test_functions = []
    for i, tf in enumerate(tf_raw):
        where = f"test_functions[{i}]"
        _require_keys(tf, f"experiment.{where}", ("modes",), ("time_power",))
        modes = _get(tf, "modes", f"experiment.{where}", kind=tuple)
        _require(len(modes) <= n_modes, f"{where}.modes",
                 f"at most n_modes = {n_modes} coefficients", list(modes))
        time_power = _get(tf, "time_power", f"experiment.{where}", 0, int)
        _require(time_power >= 0, f"{where}.time_power", "nonnegative",
                 time_power)
        test_functions.append(TestFunctionSpec(modes=modes,
                                               time_power=time_power))
    _require_distinct("test_functions", [tf.label for tf in test_functions])

    obs_raw = exp.get("observables", [{"kind": "mode", "k": 1}])
    _require(isinstance(obs_raw, list), "observables", "a list", obs_raw)
    observables = []
    for i, ob in enumerate(obs_raw):
        _require_keys(ob, f"experiment.observables[{i}]", ("kind",), ("k",))
        if ob["kind"] not in ("mode", "norm_sq"):
            raise ConfigurationRejectedError(
                f"unknown observable kind {ob['kind']!r}")
        k = _get(ob, "k", f"experiment.observables[{i}]", 1, int)
        if ob["kind"] == "mode":
            _require(1 <= k <= n_modes, f"observables[{i}].k",
                     f"a mode in 1..{n_modes}", k)
        observables.append(ObservableSpec(kind=ob["kind"], k=k))
    _require_distinct("observables", [ob.label for ob in observables])

    ensemble_size = _get(exp, "ensemble_size", "experiment", 100, int)
    _require(ensemble_size >= 1, "ensemble_size", "at least 1", ensemble_size)
    dump_modes = _get(exp, "dump_modes", "experiment", 4, int)
    _require(dump_modes >= 0, "dump_modes", "nonnegative", dump_modes)
    theta_sequence = _get(exp, "theta_sequence", "experiment",
                          (0.1, 0.01, 0.001), tuple)
    _require(len(theta_sequence) >= 2, "theta_sequence",
             "at least two levels", list(theta_sequence))
    _require(all(0 <= theta <= 1 for theta in theta_sequence),
             "theta_sequence", "a list of levels in [0, 1]",
             list(theta_sequence))
    _require_distinct("theta_sequence",
                      [f"{theta:g}" for theta in theta_sequence])
    c_const = _get(exp, "c_const", "experiment", 2.0)
    _require(0 < c_const < math.inf, "c_const", "finite and positive",
             c_const)
    master_seed = _get(exp, "master_seed", "experiment", 0, int)
    _require(master_seed >= 0, "master_seed", "nonnegative", master_seed)
    worker_count = _get(exp, "worker_count", "experiment", 1, int)
    _require(worker_count >= 1, "worker_count", "at least 1", worker_count)

    omega = model.omega
    return ExperimentConfig(
        model=model,
        epsilon_grid=epsilon_grid,
        ensemble_size=ensemble_size,
        test_functions=tuple(test_functions),
        observables=tuple(observables),
        output_dir=str(exp.get("output_dir", "out")),
        master_seed=master_seed,
        worker_count=worker_count,
        dump_modes=dump_modes,
        theta_sequence=theta_sequence,
        c_const=c_const,
        invariant=_frozen_fast(raw, "invariant", omega),
        averaging=_frozen_fast(raw, "averaging", omega),
        operators=operators,
    )


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


def _frozen_fast_dict(params: FrozenFastParams, step_key: str) -> dict:
    """A frozen-fast section's canonical form, its step under step_key."""
    values = asdict(params)
    values[step_key] = values.pop("h")
    return values


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(cfg.canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
