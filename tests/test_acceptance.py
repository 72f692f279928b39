"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else:

  1  OU exactness: 99% chi-square band on 1e5 samples; eps-independence 3 sigma
  2  averaged-drift oracle: componentwise 3 se and 2% relative at mode 1
  3  averaging convergence: decrease beyond 1 combined sigma; tail <= 3 sigma
  4  drift discrepancy: decrease beyond 1 sigma; decoupled floor <= 1e-12
  5  block schedule: deviation decrease beyond 1 sigma; formula checks 1e-12
  6  moment audit: max/min ratio <= 3 per statistic; censoring <= 1%
  7  truncation stability: decreasing distances; equal-theta exactly 0;
     V-integral uniform within factor 2
  8  hypothesis gating: named rejection at load; no runtime trips
  9  determinism: bit-identical CSVs at worker counts 1 and 8
"""

import copy
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

import slowfast as sf
from slowfast.cli import main
from slowfast.config import parse_config, parse_config_dict
from slowfast.harness import (run_convergence_study, run_khasminskii_study,
                              run_moment_audit, run_theta_stability,
                              simulate_ensemble)

LINEAR_CONFIG = "configs/linear_benchmark.json"
CUBIC_CONFIG = "configs/cubic_rough.json"
DECOUPLED_CONFIG = "configs/decoupled_control.json"


def _load(path):
    """The raw config dict of a JSON file, the file closed again."""
    with open(path) as fh:
        return json.load(fh)


def _report(k, name, detail):
    print(f"\nACCEPTANCE {k} ({name}): PASS — {detail}")


def _decreasing_beyond_sigma(rows):
    """Strict decrease between consecutive grid points beyond 1 combined
    standard error."""
    for a, b in zip(rows, rows[1:]):
        sigma = math.hypot(a.std_error, b.std_error)
        if not b.value < a.value - sigma:
            return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------


def test_criterion_1_ou_exactness():
    t0 = time.monotonic()
    op = sf.SpectralOperator.from_power_law(8, 1.0, 1.0, 0.1, 1.0, 0.5)
    target = op.lambdas ** 2 / (2.0 * op.alphas)
    n = 100_000

    # per-mode long-run variance: sampling every 5 relaxation times of the
    # slowest mode makes the samples effectively independent
    plan = sf.make_plan(op, 5.0 / op.alphas[0], 1.0)
    stream = sf.derive_stream(11, 0, "fast_noise")
    zero = np.zeros(8)
    z = (op.lambdas / np.sqrt(2 * op.alphas)) * stream.normals(8)
    samples = np.empty((n, 8))
    for i in range(n):
        z = sf.ou_step(z, plan, zero, stream)
        samples[i] = z
    ratios = samples.var(axis=0, ddof=1) / target
    lo = chi2.ppf(0.005, n - 1) / (n - 1)
    hi = chi2.ppf(0.995, n - 1) / (n - 1)
    assert np.all((ratios >= lo) & (ratios <= hi)), \
        f"variance ratios {ratios} outside 99% band [{lo:.5f}, {hi:.5f}]"

    # eps-independence of the fast-convolution stationary variance (mode 1)
    n_eps = 40_000
    zs = []
    for k, eps in enumerate((1.0, 0.1, 0.01)):
        plan = sf.make_plan(op, 5.0 * eps / op.alphas[0], eps)
        stream = sf.derive_stream(12, k, "fast_noise")
        z = (op.lambdas / np.sqrt(2 * op.alphas)) * stream.normals(8)
        acc = np.empty(n_eps)
        for i in range(n_eps):
            z = sf.ou_step(z, plan, zero, stream)
            acc[i] = z[0]
        sigma_var = target[0] * math.sqrt(2.0 / n_eps)
        zs.append((acc.var(ddof=1) - target[0]) / sigma_var)
    assert all(abs(z) <= 3.0 for z in zs), f"eps-dependence detected: {zs}"

    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    _report(1, "OU exactness", f"8 modes in 99% band, eps z-scores "
            f"{[f'{z:+.2f}' for z in zs]}, {elapsed:.1f}s")


def test_criterion_2_averaged_drift_oracle():
    t0 = time.monotonic()
    n_modes = 8
    grid = sf.GridSpec(n_modes=n_modes, n_quad=32)
    op1 = sf.SpectralOperator.from_power_law(n_modes, 0.01, 1.0, 0.005, 1.0, 0.5)
    op2 = sf.SpectralOperator.from_power_law(n_modes, 1.0, 1.0, 0.1, 1.0, 0.5)
    u0 = np.zeros(n_modes)
    u0[0] = 1.0
    model = sf.build_model(
        op1, op2, sf.make_slow_reaction("linear_benchmark"),
        sf.make_fast_reaction("linear_benchmark", a_c=1.0, b_c=2.0),
        grid, 0.1, 1.0, u0, np.zeros(n_modes))
    omega = model.omega
    params = sf.FrozenFastParams(h=0.005, t_burn=10.0 / omega,
                                 t_avg=200.0 / omega, n_replicas=16)
    mean, se = sf.estimate_Fbar(0.0, u0, params, model, master_seed=2024)
    exact = sf.analytic_Fbar_linear(model, 0.0, u0)

    assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12), \
        f"componentwise 3-sigma failure: |diff|={np.abs(mean - exact)}, se={se}"
    target = 1.0 / (math.pi ** 2 + 2.0)
    rel = abs(mean[0] - target) / target
    assert rel <= 0.02, f"mode-1 relative error {rel:.4f} exceeds 2%"

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    _report(2, "averaged-drift oracle",
            f"mode 1 = {mean[0]:.6f} vs {target:.6f} ({100 * rel:.2f}% rel), "
            f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def linear_convergence():
    cfg = parse_config(LINEAR_CONFIG)
    t0 = time.monotonic()
    table = run_convergence_study(cfg)
    return cfg, table, time.monotonic() - t0


def test_criterion_3_averaging_convergence(linear_convergence):
    cfg, table, elapsed = linear_convergence
    assert cfg.ensemble_size == 400 and cfg.model.n_modes == 16
    rows = [table.value("converge", eps, "weak_error[mode_1]")
            for eps in cfg.epsilon_grid]
    ok, bad = _decreasing_beyond_sigma(rows)
    assert ok, f"weak error not decreasing beyond 1 sigma: {bad}"
    tail = rows[-1]
    assert tail.value <= 3.0 * tail.std_error, \
        f"e({cfg.epsilon_grid[-1]}) = {tail.value:.2e} > 3 se = {3 * tail.std_error:.2e}"
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 10min budget"
    detail = ", ".join(f"e({eps:g})={r.value:.2e}±{r.std_error:.1e}"
                       for eps, r in zip(cfg.epsilon_grid, rows))
    _report(3, "averaging convergence", f"{detail}, {elapsed:.0f}s")


def test_criterion_4_drift_discrepancy(linear_convergence):
    cfg, table, _ = linear_convergence
    rows = [table.value("converge", eps, "D[xi[1]t^0]")
            for eps in cfg.epsilon_grid]
    ok, bad = _decreasing_beyond_sigma(rows)
    assert ok, f"D(eps) not decreasing beyond 1 sigma: {bad}"

    dec_cfg = parse_config(DECOUPLED_CONFIG)
    dec_table = run_convergence_study(dec_cfg)
    floors = [dec_table.value("converge", eps, "D[xi[1]t^0]").value
              for eps in dec_cfg.epsilon_grid]
    assert all(f <= 1e-12 for f in floors), \
        f"decoupled discrepancy above noise floor: {floors}"
    detail = ", ".join(f"D({eps:g})={r.value:.2e}"
                       for eps, r in zip(cfg.epsilon_grid, rows))
    _report(4, "drift discrepancy",
            f"{detail}; decoupled floor max {max(floors):.1e}")


def test_criterion_5_khasminskii_scheme():
    raw = _load(LINEAR_CONFIG)
    raw["model"]["h_macro"] = 0.002
    raw["experiment"]["ensemble_size"] = 100
    cfg = parse_config_dict(raw)

    # schedule checks, exact arithmetic to 1e-12
    lam, c = cfg.model.lambda_exp, cfg.c_const
    deltas = [sf.khasminskii_delta(eps, lam, c) for eps in cfg.epsilon_grid]
    for eps, delta in zip(cfg.epsilon_grid, deltas):
        direct = (2.0 / c) * eps * abs(math.log(eps)) ** (lam / 2.0)
        assert abs(delta - direct) <= 1e-12
    assert all(a > b for a, b in zip(deltas, deltas[1:])), "delta not decreasing"
    ratios = [d / e for d, e in zip(deltas, cfg.epsilon_grid)]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), \
        "delta/eps not increasing"

    table = run_khasminskii_study(cfg)
    rows = [table.value("khasminskii", eps, "fast_deviation_msq")
            for eps in cfg.epsilon_grid]
    ok, bad = _decreasing_beyond_sigma(rows)
    assert ok, f"block-freezing error not decreasing beyond 1 sigma: {bad}"
    detail = ", ".join(f"E|dv|^2({eps:g})={r.value:.2e}"
                       for eps, r in zip(cfg.epsilon_grid, rows))
    _report(5, "block-freezing scheme",
            f"{detail}; delta/eps -> {ratios[-1]:.3f}")


def test_criterion_6_moment_audit():
    details = []
    for path in (LINEAR_CONFIG, CUBIC_CONFIG):
        raw = _load(path)
        raw["experiment"]["ensemble_size"] = 100
        cfg = parse_config_dict(raw)
        table = run_moment_audit(cfg)
        worst = 0.0
        for stat in ("v_integral_ratio", "sup_u_L4m1", "sup_v_Lqbar",
                     "vbar_proxy_integral"):
            ratio = table.value("audit_moment", None, f"maxmin[{stat}]").value
            worst = max(worst, ratio)
            assert ratio <= 3.0, f"{path}: {stat} max/min ratio {ratio:.2f} > 3"
        for row in table.rows:
            total = row.n + row.censored_count
            if total:
                assert row.censored_count / total <= 0.01, \
                    f"{path}: {row.statistic_id} censoring above 1%"
        details.append(f"{path.split('/')[-1]}: worst ratio {worst:.3f}")
    _report(6, "uniform moment audit", "; ".join(details))


def test_criterion_7_theta_stability():
    raw = _load(CUBIC_CONFIG)
    raw["experiment"]["ensemble_size"] = 100
    cfg = parse_config_dict(raw)

    table = run_theta_stability(cfg, theta_sequence=(0.1, 0.01, 0.001))
    d1 = table.value("audit_theta", 0.1, "distance[theta=0.1->0.01]")
    d2 = table.value("audit_theta", 0.1, "distance[theta=0.01->0.001]")
    assert d2.value < d1.value, "common-noise distances not decreasing"
    v_ratio = table.value("audit_theta", None, "maxmin[v_integral]").value
    assert v_ratio <= 2.0, f"V-integral spread {v_ratio:.2f} exceeds factor 2"

    equal = run_theta_stability(cfg, theta_sequence=(0.01, 0.01))
    zero = equal.value("audit_theta", 0.1, "distance[theta=0.01->0.01]")
    assert zero.value == 0.0, "equal-theta distance must be exactly zero"

    _report(7, "truncation stability",
            f"distances {d1.value:.2e} > {d2.value:.2e}, equal-theta 0, "
            f"V-integral ratio {v_ratio:.3f}")


def test_criterion_8_hypothesis_gating():
    base = _load(LINEAR_CONFIG)

    bad_omega = copy.deepcopy(base)
    bad_omega["model"]["reactions"]["fast"]["b_c"] = 12.0
    with pytest.raises(sf.ConfigurationRejectedError, match="Hypothesis 2.3"):
        parse_config_dict(bad_omega)

    bad_kappa = copy.deepcopy(base)
    bad_kappa["model"]["reactions"]["slow"] = {
        "kind": "polynomial", "terms": [[1.0, 0, 1]],
        "m1": 1, "m2": 1, "kappa1": 3, "kappa2": 0,
    }
    with pytest.raises(sf.ConfigurationRejectedError,
                       match="κ₁ ≤ 2·m₂"):
        parse_config_dict(bad_kappa)

    bad_noise = copy.deepcopy(base)
    bad_noise["model"]["fast_operator"]["decay_exponent"] = 0.0
    bad_noise["model"]["fast_operator"]["gamma_reg"] = 0.5
    with pytest.raises(sf.ConfigurationRejectedError,
                       match="Hypothesis 2.1\\(3\\)"):
        parse_config_dict(bad_noise)

    # accepted configs never trip the gates at runtime
    for path in (LINEAR_CONFIG, CUBIC_CONFIG, DECOUPLED_CONFIG):
        raw = _load(path)
        raw["experiment"]["ensemble_size"] = 8
        cfg = parse_config_dict(raw)
        results = simulate_ensemble(cfg)
        assert all(not r["censored"] for r in results), f"{path} censored"
    _report(8, "hypothesis gating",
            "3 violating configs rejected by name; 3 accepted configs ran clean")


def _det_config(tmp_path, name, raw):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    linear = _load(LINEAR_CONFIG)
    linear["experiment"]["ensemble_size"] = 24
    linear["experiment"]["epsilon_grid"] = [0.1, 0.02]
    cubic = _load(CUBIC_CONFIG)
    cubic["experiment"]["ensemble_size"] = 16
    cubic["experiment"]["epsilon_grid"] = [0.1, 0.02]
    cubic["experiment"]["theta_sequence"] = [0.1, 0.01]

    runs = {
        "simulate": _det_config(tmp_path, "sim", linear),
        "invariant": _det_config(tmp_path, "inv", linear),
        "average": _det_config(tmp_path, "avg", linear),
        "converge": _det_config(tmp_path, "conv", linear),
        "audit": _det_config(tmp_path, "audit", cubic),
    }
    for command, config in runs.items():
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"{command}_{workers}"
            code = main([command, "--config", config, "--out", str(out),
                         "--workers", str(workers)])
            assert code == 0, f"{command} failed at workers={workers}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for fname in names:
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{command}/{fname} differs between worker counts"
    _report(9, "determinism",
            f"5 subcommands bit-identical at workers 1 vs 8, "
            f"{time.monotonic() - t0:.0f}s")
