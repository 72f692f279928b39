"""Experiment orchestration: ensembles, acceptance-grade statistics, CSV.

Determinism contract: every statistic is a fixed-order reduction (compensated
summation) over per-trajectory results whose streams depend only on
(master_seed, trajectory_id, role).  A worker simulates the coupled paths
of one trajectory id and reduces each to its per-path statistics; the
ensemble reductions happen in the parent in trajectory order, so any worker
count produces bit-identical outputs.

Censoring: trajectories that trip the explosion guard are excluded from the
statistics and counted; every row reports n + censored_count, and an epsilon
whose paths are all censored gives n = 0 rows with NaN values.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .averaging import (analytic_Fbar_linear, averaged_mean_rates,
                        estimate_Fbar, make_drift_fn, simulate_averaged)
from .config import ExperimentConfig, config_hash
from .coupled import (SlowFastTrajectory, block_freezing_errors,
                      build_auxiliary, compute_rho0, freezing_deviations,
                      khasminskii_delta, path_functionals, simulate_slowfast,
                      snap_block)
from .errors import InvalidParameterError, StateExplosionError
from .fast_dynamics import estimate_invariant_average
from .model import ModelSpec
from .noise import derive_stream
from .reactions import eval_V
from .spectral import (analyze, kahan_add, kahan_mean_vectors, mean_se,
                       synthesize)

__all__ = [
    "ResultRow",
    "ResultTable",
    "run_parallel",
    "run_convergence_study",
    "run_moment_audit",
    "run_holder_stats",
    "run_theta_stability",
    "run_khasminskii_study",
    "run_audit",
    "pooled_invariant_rows",
    "pooled_fbar_estimate",
    "simulate_ensemble",
    "emit_results",
    "write_csv",
    "write_meta",
]


# ---------------------------------------------------------------------------
# result table


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    epsilon: float | None
    statistic_id: str
    value: float
    std_error: float
    n: int
    censored_count: int


@dataclass
class ResultTable:
    rows: list

    def value(self, experiment_id: str, epsilon, statistic_id: str) -> ResultRow:
        for r in self.rows:
            if (r.experiment_id == experiment_id and r.statistic_id == statistic_id
                    and (epsilon is None or r.epsilon == epsilon)):
                return r
        raise KeyError((experiment_id, epsilon, statistic_id))

    @property
    def max_censored_fraction(self) -> float:
        worst = 0.0
        for r in self.rows:
            total = r.n + r.censored_count
            if total > 0:
                worst = max(worst, r.censored_count / total)
        return worst


# ---------------------------------------------------------------------------
# parallel ensemble execution


def run_parallel(fn, tasks, worker_count: int):
    """Map a module-level function over picklable tasks, preserving order."""
    if worker_count <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # Imported here, so only a parallel run pays for loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (4 * worker_count))
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# coupled-path ensemble pass
#
# A per-path statistic is a module-level function stat(traj, model) -> dict
# of reduced values; a functools.partial binds its parameters, so tasks
# stay picklable.  coupled.path_functionals is the one that gives the V
# integral and the moment sups from one set of nodal norms.


_HOLDER_LAG_DEPTHS = (1, 2, 3, 4, 5)


def _holder_pairs(T: float, h: float):
    """Dyadic (s, t) pairs on the macro grid; s > 0 keeps the log term finite."""
    n_steps = int(round(T / h))
    pairs = []
    for depth in _HOLDER_LAG_DEPTHS:
        lag = n_steps >> depth
        if lag < 1:
            break
        for start in range(lag, n_steps - lag + 1, lag):
            pairs.append((start, start + lag))
    return sorted(set(pairs))


def _holder_stat(traj: SlowFastTrajectory, model: ModelSpec) -> dict:
    """Squared slow increments over the dyadic macro-grid pairs."""
    h = float(traj.times[1] - traj.times[0])
    pairs = np.array(_holder_pairs(model.horizon, h), dtype=int)
    a, b = pairs.reshape(-1, 2).T
    return {"msq": np.sum((traj.u[b] - traj.u[a]) ** 2, axis=1)}


def _khasminskii_stat(traj: SlowFastTrajectory, model: ModelSpec,
                      delta: float) -> dict:
    """Slow and fast deviations of the block-frozen replay of the path."""
    slow_sq, fast_dev = freezing_deviations(
        traj, build_auxiliary(traj, delta, model))
    return {"slow_sq": slow_sq, "fast_dev": fast_dev}


def _discrepancy_stat(traj: SlowFastTrajectory, model: ModelSpec,
                      test_functions, averaging, master_seed: int) -> dict:
    """sup_t |int_0^t <F1(s,u,v) - Fbar(s,u), xi(s)> ds| per test function.

    Uses the recorded per-step slow-drift integrand (averaged along the fast
    substep path) so the quadrature resolves the fast relaxation layer; the
    averaged drift is evaluated at the macro nodes where u moves O(h), all
    nodes at once, with the path's trajectory id keying its nested streams.
    Each node's dot product is a stacked one, bit-equal to np.dot of that
    node alone; the sums and sups run in node order over floats."""
    fbar = make_drift_fn(model, averaging, master_seed,
                         trajectory_id=traj.trajectory_id)
    h = float(traj.times[1] - traj.times[0])
    n = model.n_modes
    times = traj.times[:-1]
    delta_f = traj.slow_drift - fbar(times, traj.u[:-1])[0]
    sups = []
    for tf in test_functions:
        xi = (np.stack([tf.values(t, n) for t in times.tolist()])
              if tf.time_power else tf.values(0.0, n)[None])
        dots = np.matmul(delta_f[:, None, :], xi[:, :, None])[:, 0, 0]
        total = comp = sup = 0.0
        for dot in dots.tolist():
            total, comp = kahan_add(total, comp, h * dot)
            sup = max(sup, abs(total))
        sups.append(sup)
    return {"sups": sups}


def _dump_stat(traj: SlowFastTrajectory, model: ModelSpec,
               dump_modes: int) -> dict:
    """Leading modes of the path and its sup norms, for `simulate`."""
    k = min(dump_modes, model.n_modes)
    return {
        "times": traj.times,
        "u_dump": traj.u[:, :k].copy(),
        "v_dump": traj.v[:, :k].copy(),
        "sup_norm_u": float(np.max(np.sqrt(np.sum(traj.u ** 2, axis=1)))),
        "sup_norm_v": float(np.max(np.sqrt(np.sum(traj.v ** 2, axis=1)))),
    }


def _coupled_paths(master_seed: int, paths: tuple, ladder: tuple,
                   trajectory_id: int) -> dict:
    """Simulate each ((eps, theta), model, statistics) entry of paths once
    for one trajectory id, recording fast noise only for the block-frozen
    replay.  Returns {"paths": {key: record}, "ladder": distances}: a record
    holds "censored", "t_explosion" and the explosion's "cause" when the
    path or any of its statistics exploded, else the terminal slow state
    and the statistics' values; the distances are the sup-in-time gaps
    between consecutive paths of the theta ladder (None if one was
    censored).
    """
    records = {}
    ladder_u = {}
    for key, model, stats in paths:
        funcs = [getattr(stat, "func", stat) for stat in stats]
        try:
            traj = simulate_slowfast(model, master_seed, trajectory_id,
                                     record_noise=_khasminskii_stat in funcs,
                                     record_drift=_discrepancy_stat in funcs)
            record = {"censored": False, "terminal_u": traj.u[-1].copy()}
            for stat in stats:
                record.update(stat(traj, model))
        except StateExplosionError as exc:
            # Censored whether the path or one of its statistics (the
            # averaged drift, the block-frozen replay) exploded.
            records[key] = {"censored": True, "t_explosion": exc.t,
                            "cause": exc.cause}
            continue
        records[key] = record
        if key in ladder:
            ladder_u[key] = traj.u
    dists = None
    if ladder and all(key in ladder_u for key in ladder):
        us = [ladder_u[key] for key in ladder]
        dists = [float(np.max(np.sqrt(np.sum((a - b) ** 2, axis=1))))
                 for a, b in zip(us, us[1:])]
    return {"paths": records, "ladder": dists}


def _coupled_pass(cfg: ExperimentConfig, paths: dict, ladder=()) -> list:
    """One run over the ensemble's trajectory ids; paths maps each
    (eps, theta) key to the statistics to take on that path."""
    model0 = cfg.model
    specs = tuple((key, model0.with_epsilon(key[0]).with_theta(key[1]),
                   tuple(stats)) for key, stats in paths.items())
    worker = partial(_coupled_paths, cfg.master_seed, specs, ladder)
    return run_parallel(worker, range(cfg.ensemble_size), cfg.worker_count)


def _kept(results: list, key) -> tuple[list, int]:
    """Uncensored records of one path in trajectory order, and the number
    of censored ones."""
    records = [r["paths"][key] for r in results]
    kept = [r for r in records if not r["censored"]]
    return kept, len(records) - len(kept)


def _run_studies(cfg: ExperimentConfig, studies) -> ResultTable:
    """Run studies on one shared pass, so each distinct (eps, theta) path is
    simulated once per id.  A study is (paths, rows, ladder): the statistics
    to take per path key, the row builder over the pass results, and the
    keys of its theta ladder.  Rows come in study order."""
    paths: dict = {}
    for study_paths, _, _ in studies:
        for key, stats in study_paths.items():
            known = paths.setdefault(key, [])
            known.extend(stat for stat in stats if stat not in known)
    ladder = tuple(key for _, _, study_ladder in studies for key in study_ladder)
    results = _coupled_pass(cfg, paths, ladder)
    return ResultTable([row for _, rows, _ in studies for row in rows(results)])


def _maxmin(means) -> float:
    """max/min ratio across the epsilon grid; NaN when an epsilon has no
    uncensored path, inf when the smallest mean is not positive."""
    if any(math.isnan(m) for m in means):
        return math.nan
    return max(means) / min(means) if min(means) > 0 else math.inf


def _averaged_terminal(model: ModelSpec, averaging, master_seed: int,
                       trajectory_id: int) -> np.ndarray:
    stream = derive_stream(master_seed, trajectory_id, "auxiliary")
    out = simulate_averaged(model, averaging, model.u0, model.horizon,
                            model.h_macro, stream, master_seed=master_seed,
                            trajectory_id=trajectory_id)
    return out.path[-1]


# ---------------------------------------------------------------------------
# experiments


def run_convergence_study(cfg: ExperimentConfig) -> ResultTable:
    """Weak errors against the averaged equation and the drift-discrepancy
    functional D(eps), per epsilon on the configured grid.

    A mode observable of the linear benchmark is referenced by its exact
    mean; every other observable by the mean of one averaged path per id.
    Those paths draw from the independent auxiliary stream, so the weak
    error's standard error combines the two as independent ones."""
    model0 = cfg.model
    theta = model0.theta
    discrepancy = partial(_discrepancy_stat, test_functions=cfg.test_functions,
                          averaging=cfg.averaging, master_seed=cfg.master_seed)
    results = _coupled_pass(cfg, {(eps, theta): [discrepancy]
                                  for eps in cfg.epsilon_grid})

    exact = model0.is_linear_benchmark
    ref: dict[str, tuple[float, float]] = {}
    if any(not exact or ob.kind != "mode" for ob in cfg.observables):
        ref_terminals = run_parallel(
            partial(_averaged_terminal, model0, cfg.averaging,
                    cfg.master_seed),
            range(cfg.ensemble_size), cfg.worker_count)
    for ob in cfg.observables:
        if exact and ob.kind == "mode":
            rate = averaged_mean_rates(model0)[ob.k - 1]
            ref[ob.label] = (float(np.exp(rate * model0.horizon)
                                   * model0.u0[ob.k - 1]), 0.0)
        else:
            ref[ob.label] = mean_se([ob(u) for u in ref_terminals])

    rows: list[ResultRow] = []
    for eps in cfg.epsilon_grid:
        kept, censored = _kept(results, (eps, theta))
        for ob in cfg.observables:
            mean, se = mean_se([ob(r["terminal_u"]) for r in kept])
            ref_mean, ref_se = ref[ob.label]
            rows.append(ResultRow("converge", eps, f"mean[{ob.label}]",
                                  mean, se, len(kept), censored))
            rows.append(ResultRow(
                "converge", eps, f"weak_error[{ob.label}]",
                abs(mean - ref_mean), math.sqrt(se * se + ref_se * ref_se),
                len(kept), censored))
        for j, tf in enumerate(cfg.test_functions):
            mean, se = mean_se([r["sups"][j] for r in kept])
            rows.append(ResultRow("converge", eps, f"D[{tf.label}]",
                                  mean, se, len(kept), censored))
    return ResultTable(rows)


_AUDIT_STATS = ("v_integral_ratio", "sup_u_L4m1", "sup_v_Lqbar",
                "vbar_proxy_integral")


def _moment_study(cfg: ExperimentConfig) -> tuple:
    model0 = cfg.model
    grid = model0.grid
    v0_ref = eval_V(synthesize(model0.u0, grid), synthesize(model0.v0, grid),
                    model0.lyapunov, grid)
    keys = [(eps, model0.theta) for eps in cfg.epsilon_grid]

    def rows(results):
        out = []
        per_stat: dict[str, list[float]] = {s: [] for s in _AUDIT_STATS}
        for key in keys:
            kept, censored = _kept(results, key)
            stats = {
                "v_integral_ratio": [r["v_integral"] / v0_ref for r in kept],
                "sup_u_L4m1": [r["sup_u"] for r in kept],
                "sup_v_Lqbar": [r["sup_v"] for r in kept],
                "vbar_proxy_integral": [r["vbar_proxy"] for r in kept],
            }
            for stat_id, vals in stats.items():
                mean, se = mean_se(vals)
                per_stat[stat_id].append(mean)
                out.append(ResultRow("audit_moment", key[0], stat_id, mean, se,
                                     len(kept), censored))
        for stat_id, means in per_stat.items():
            out.append(ResultRow("audit_moment", None, f"maxmin[{stat_id}]",
                                 _maxmin(means), 0.0, len(means), 0))
        return out
    return {key: [path_functionals] for key in keys}, rows, ()


def run_moment_audit(cfg: ExperimentConfig) -> ResultTable:
    """Uniform-in-epsilon moment statistics; the audit passes when each
    statistic's max/min ratio across the epsilon grid stays <= 3."""
    return _run_studies(cfg, [_moment_study(cfg)])


def _holder_study(cfg: ExperimentConfig) -> tuple:
    model0 = cfg.model
    h = model0.h_macro
    pairs = _holder_pairs(model0.horizon, h)
    rho = np.array([compute_rho0(a * h, b * h, model0.holder_beta,
                                 model0.gamma1_star) for a, b in pairs])
    keys = [(eps, model0.theta) for eps in cfg.epsilon_grid]

    def rows(results):
        out = []
        calibration = None
        for key in keys:
            eps = key[0]
            kept, censored = _kept(results, key)
            msq = (kahan_mean_vectors([r["msq"] for r in kept]) if kept
                   else np.full(len(pairs), math.nan))
            for (a, b), value in zip(pairs, msq):
                out.append(ResultRow(
                    "audit_holder", eps,
                    f"msq_increment[s={a * h:g},t={b * h:g}]",
                    float(value), 0.0, len(kept), censored))
            ratios = msq / rho
            if calibration is None:
                calibration = float(np.max(ratios))
                out.append(ResultRow("audit_holder", eps, "calibration",
                                     calibration, 0.0, len(kept), censored))
            else:
                headroom = float(np.max(ratios)) / calibration
                out.append(ResultRow("audit_holder", eps, "headroom",
                                     headroom, 0.0, len(kept), censored))
        return out
    return {key: [_holder_stat] for key in keys}, rows, ()


def run_holder_stats(cfg: ExperimentConfig) -> ResultTable:
    """Slow-increment moduli against the reference shape rho0(s,t); the
    calibration constant is fitted on the largest epsilon and must bound the
    smaller-epsilon increments with bounded headroom."""
    return _run_studies(cfg, [_holder_study(cfg)])


def _theta_study(cfg: ExperimentConfig, thetas) -> tuple:
    thetas = tuple(thetas)
    if len(thetas) < 2:
        raise InvalidParameterError("theta_sequence needs at least two levels")
    eps = cfg.model.epsilon
    keys = tuple((eps, theta) for theta in thetas)

    def rows(results):
        kept = [r for r in results if r["ladder"] is not None]
        censored = len(results) - len(kept)
        out = []
        for j in range(len(thetas) - 1):
            mean, se = mean_se([r["ladder"][j] for r in kept])
            out.append(ResultRow(
                "audit_theta", eps,
                f"distance[theta={thetas[j]:g}->{thetas[j + 1]:g}]",
                mean, se, len(kept), censored))
        v_means = []
        for theta, key in zip(thetas, keys):
            mean, se = mean_se([r["paths"][key]["v_integral"] for r in kept])
            v_means.append(mean)
            out.append(ResultRow("audit_theta", eps,
                                 f"v_integral[theta={theta:g}]", mean, se,
                                 len(kept), censored))
        out.append(ResultRow("audit_theta", None, "maxmin[v_integral]",
                             _maxmin(v_means), 0.0, len(v_means), 0))
        return out
    return {key: [path_functionals] for key in keys}, rows, keys


def run_theta_stability(cfg: ExperimentConfig,
                        theta_sequence=None) -> ResultTable:
    """Common-noise distances across the truncation ladder plus the
    uniformity of the audit-functional integral."""
    thetas = (theta_sequence if theta_sequence is not None
              else cfg.theta_sequence)
    return _run_studies(cfg, [_theta_study(cfg, thetas)])


def _khasminskii_study(cfg: ExperimentConfig) -> tuple:
    model0 = cfg.model
    h = model0.h_macro
    keys = [(eps, model0.theta) for eps in cfg.epsilon_grid]
    deltas = [khasminskii_delta(eps, model0.lambda_exp, cfg.c_const)
              for eps in cfg.epsilon_grid]

    def rows(results):
        out = []
        for key, delta in zip(keys, deltas):
            kept, censored = _kept(results, key)
            sup_mean, slow_se, fast_mean, fast_se = block_freezing_errors(
                [r["slow_sq"] for r in kept], [r["fast_dev"] for r in kept])
            for stat_id, value, se in (
                    ("delta", delta, 0.0),
                    ("delta_snapped", snap_block(delta, h)[1], 0.0),
                    ("sup_slow_increment_msq", sup_mean, slow_se),
                    ("fast_deviation_msq", fast_mean, fast_se)):
                out.append(ResultRow("khasminskii", key[0], stat_id, value, se,
                                     len(kept), censored))
        return out
    return ({key: [partial(_khasminskii_stat, delta=delta)]
             for key, delta in zip(keys, deltas)}, rows, ())


def run_khasminskii_study(cfg: ExperimentConfig) -> ResultTable:
    """Block-freezing errors under the schedule delta(eps), per epsilon."""
    return _run_studies(cfg, [_khasminskii_study(cfg)])


def run_audit(cfg: ExperimentConfig) -> ResultTable:
    """The moment, increment-modulus, truncation-stability and
    block-freezing audits on one shared pass over the coupled paths."""
    return _run_studies(cfg, [_moment_study(cfg), _holder_study(cfg),
                              _theta_study(cfg, cfg.theta_sequence),
                              _khasminskii_study(cfg)])


# ---------------------------------------------------------------------------
# invariant / averaged-drift entry points (replicas batched in one process)


def pooled_invariant_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Stationary averages of the configured observables of the fast field
    frozen at u0; returns (observable_id, mean, std_error) triples."""
    model = cfg.model
    specs = cfg.observables

    def observable(v_phys):
        v_modal = analyze(v_phys, model.grid)
        return np.stack([spec(v_modal) for spec in specs], axis=-1)

    mean, std_error = estimate_invariant_average(
        model, model.u0, cfg.invariant, observable, cfg.master_seed)
    return [(ob.label, float(mean[i]), float(std_error[i]))
            for i, ob in enumerate(specs)]


def pooled_fbar_estimate(cfg: ExperimentConfig):
    """Averaged-drift estimate at x = u0 with per-mode standard errors and
    the analytic oracle where available."""
    model = cfg.model
    mean, se = estimate_Fbar(0.0, model.u0, cfg.averaging, model,
                             cfg.master_seed)
    analytic = (analytic_Fbar_linear(model, 0.0, model.u0)
                if model.is_linear_benchmark else None)
    return mean, se, analytic


def simulate_ensemble(cfg: ExperimentConfig, epsilon: float | None = None):
    """Ensemble of coupled trajectories at one epsilon, with dump payloads."""
    model = cfg.model
    key = (model.epsilon if epsilon is None else epsilon, model.theta)
    results = _coupled_pass(
        cfg, {key: [path_functionals,
                    partial(_dump_stat, dump_modes=cfg.dump_modes)]})
    return [r["paths"][key] for r in results]


# ---------------------------------------------------------------------------
# CSV / metadata emission


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        # repr of a numpy scalar reads "np.float64(...)" under numpy 2.
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV (CRLF, header row); floats use shortest-roundtrip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def emit_results(table: ResultTable, out_dir, name: str,
                 cfg: ExperimentConfig) -> str:
    """Write a result table and its metadata sidecar; returns the CSV path."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    write_csv(csv_path,
              ["experiment_id", "epsilon", "statistic_id", "value",
               "std_error", "n", "censored_count"],
              [(r.experiment_id, r.epsilon, r.statistic_id, r.value,
                r.std_error, r.n, r.censored_count) for r in table.rows])
    write_meta(out_dir, name, cfg,
               max_censored_fraction=table.max_censored_fraction)
    return csv_path


def write_meta(out_dir, name: str, cfg: ExperimentConfig, **extra) -> None:
    """Write the ``{name}.meta.json`` sidecar: seed, version, config hash and
    any extra keys."""
    meta = {"seed": cfg.master_seed, "version": __version__,
            "config_sha256": config_hash(cfg), **extra}
    with open(os.path.join(out_dir, f"{name}.meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
