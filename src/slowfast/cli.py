"""Command-line interface.

One flat parser: the command (simulate, invariant, average, converge or
audit) and the flags --config PATH, --seed N, --out DIR, --workers K (the
flag wins over the MULTISCALE_WORKERS environment variable, which wins over
the config) and --eps E (simulate only; with another command it is a usage
error).
Exit codes: 0 success, 2 config/hypothesis rejection, 3 explosion censoring
above 20% (of the coupled paths of one row, or of converge's averaged
reference paths) or an explosion outside any censored path (a non-finite
frozen-fast replica of average or invariant).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import ExperimentConfig, parse_config
from .errors import (ConfigurationRejectedError, InvalidParameterError,
                     StateExplosionError)
from .harness import (ResultTable, emit, emit_results, pooled_fbar_estimate,
                      pooled_invariant_rows, run_audit, run_convergence_study,
                      simulate_ensemble, write_csv)

EXIT_OK = 0
EXIT_CONFIG_REJECTED = 2
EXIT_EXPLOSION = 3

CENSOR_LIMIT = 0.20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowfast",
        description="slow-fast stochastic reaction-diffusion experiments: "
                    "simulate (coupled trajectories at one epsilon), "
                    "invariant (stationary averages of the frozen fast "
                    "field), average (averaged-drift estimate at the "
                    "initial slow state), converge (weak error and "
                    "drift-discrepancy study over the epsilon grid), audit "
                    "(moment, increment-modulus and truncation-stability "
                    "audits)")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master_seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for simulate/converge/audit "
                             "(overrides MULTISCALE_WORKERS)")
    parser.add_argument("--eps", type=float, default=None,
                        help="override the model epsilon (simulate only)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigurationRejectedError(
                f"--seed must be nonnegative, got {args.seed}")
        updates["master_seed"] = args.seed
    if args.eps is not None:
        try:
            updates["model"] = cfg.model.with_epsilon(args.eps)
        except InvalidParameterError as exc:
            raise ConfigurationRejectedError(f"--eps: {exc}") from None
    if args.out is not None:
        updates["output_dir"] = args.out
    source, value = "--workers", args.workers
    if value is None:
        source = "MULTISCALE_WORKERS"
        value = os.environ.get(source) or None
    if value is not None:
        try:
            updates["worker_count"] = count = int(value)
        except ValueError:
            count = 0
        if count < 1:
            raise ConfigurationRejectedError(
                f"{source} must be an integer of at least 1, got {value!r}")
    cfg = dataclasses.replace(cfg, **updates)
    head = cfg.output_dir
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        source = "--out" if args.out is not None else "experiment.output_dir"
        raise ConfigurationRejectedError(
            f"{source} {cfg.output_dir!r}: {head!r} is not a directory")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    results = simulate_ensemble(cfg)
    times = cfg.model.times
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    summary_rows = []
    censored = 0
    for i, res in enumerate(results):
        if res["censored"]:
            censored += 1
            summary_rows.append((i, 1, res["t_explosion"], None, None, None, None))
            continue
        header = (["t"] + [f"u_{j + 1}" for j in range(res["u_dump"].shape[1])]
                  + [f"v_{j + 1}" for j in range(res["v_dump"].shape[1])])
        rows = [(t, *res["u_dump"][m], *res["v_dump"][m])
                for m, t in enumerate(times)]
        write_csv(os.path.join(out, f"trajectory_{i:05d}.csv"), header, rows)
        obs_vals = [ob(res["terminal_u"]) for ob in cfg.observables]
        summary_rows.append((i, 0, None, res["v_integral"], res["sup_norm_u"],
                             res["sup_norm_v"], *obs_vals))
    header = ["trajectory_id", "censored", "t_explosion", "v_integral",
              "sup_norm_u", "sup_norm_v"] + [ob.label for ob in cfg.observables]
    # Pad censored rows to the full width.
    width = len(header)
    summary_rows = [tuple(row) + (None,) * (width - len(row))
                    for row in summary_rows]
    emit(cfg, "summary", header, summary_rows)
    frac = censored / max(1, len(results))
    print(f"simulate: {len(results)} trajectories, censored {censored} "
          f"({100 * frac:.1f}%)")
    return EXIT_EXPLOSION if frac > CENSOR_LIMIT else EXIT_OK


def _cmd_invariant(args) -> int:
    cfg = _load(args)
    rows = pooled_invariant_rows(cfg)
    inv = cfg.invariant
    emit(cfg, "invariant",
         ["observable_id", "mean", "std_error", "t_burn", "t_avg",
          "n_replicas", "seed"],
         [(label, mean, se, inv.t_burn, inv.t_avg, inv.n_replicas,
           cfg.master_seed) for label, mean, se in rows])
    print(f"invariant: {len(rows)} observables -> "
          f"{cfg.output_dir}/invariant.csv")
    return EXIT_OK


def _cmd_average(args) -> int:
    cfg = _load(args)
    mean, se, analytic = pooled_fbar_estimate(cfg)
    rows = []
    for k in range(mean.size):
        rows.append((k + 1, float(mean[k]), float(se[k]),
                     float(analytic[k]) if analytic is not None else None))
    emit(cfg, "average",
         ["mode_k", "Fbar_estimate", "std_error", "analytic_value_or_blank"],
         rows)
    print(f"average: {mean.size} modes -> {cfg.output_dir}/average.csv")
    return EXIT_OK


def _emit_and_report(table: ResultTable, cfg: ExperimentConfig,
                     name: str) -> int:
    path = emit_results(table, name, cfg)
    frac = table.max_censored_fraction
    print(f"{name}: {len(table.rows)} rows -> {path} "
          f"(max censored fraction {100 * frac:.1f}%)")
    return EXIT_EXPLOSION if frac > CENSOR_LIMIT else EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load(args)
    return _emit_and_report(run_convergence_study(cfg), cfg, "converge")


def _cmd_audit(args) -> int:
    cfg = _load(args)
    return _emit_and_report(run_audit(cfg), cfg, "audit")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "invariant": _cmd_invariant,
    "average": _cmd_average,
    "converge": _cmd_converge,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.eps is not None and args.command != "simulate":
        parser.error("--eps applies only to simulate")
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationRejectedError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG_REJECTED
    except StateExplosionError as exc:
        # An explosion no path censoring covers: a non-finite frozen-fast
        # replica of `average` or `invariant`.
        print(f"explosion: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION


if __name__ == "__main__":
    sys.exit(main())
