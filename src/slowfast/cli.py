"""Command-line interface.

Subcommands: simulate, invariant, average, converge, audit.
Common flags: --config PATH, --seed N, --out DIR, --workers K (the flag wins
over the MULTISCALE_WORKERS environment variable, which wins over the config).
Exit codes: 0 success, 2 config/hypothesis rejection, 3 explosion censoring
above 20% or an explosion outside any censored path (a non-finite
frozen-fast replica, or an averaged reference path of converge).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import ExperimentConfig, parse_config
from .errors import ConfigurationRejectedError, StateExplosionError
from .harness import (ResultTable, emit_results, pooled_fbar_estimate,
                      pooled_invariant_rows, run_audit, run_convergence_study,
                      simulate_ensemble, write_csv, write_meta)

EXIT_OK = 0
EXIT_CONFIG_REJECTED = 2
EXIT_EXPLOSION = 3

CENSOR_LIMIT = 0.20


def _common_flags(sub):
    sub.add_argument("--config", required=True, help="JSON experiment config")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config's master_seed")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker processes for simulate/converge/audit "
                          "(overrides MULTISCALE_WORKERS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowfast",
        description="slow-fast stochastic reaction-diffusion experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    sim = subs.add_parser("simulate", help="coupled trajectories at one epsilon")
    sim.add_argument("--eps", type=float, default=None,
                     help="override the model epsilon")
    _common_flags(sim)
    _common_flags(subs.add_parser(
        "invariant", help="stationary averages of the frozen fast field"))
    _common_flags(subs.add_parser(
        "average", help="averaged-drift estimate at the initial slow state"))
    _common_flags(subs.add_parser(
        "converge", help="weak error and drift-discrepancy study over the epsilon grid"))
    _common_flags(subs.add_parser(
        "audit", help="moment, increment-modulus and truncation-stability audits"))
    return parser


def _load(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigurationRejectedError(
                f"--seed must be nonnegative, got {args.seed}")
        updates["master_seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.workers is not None:
        updates["worker_count"] = int(args.workers)
    elif os.environ.get("MULTISCALE_WORKERS"):
        value = os.environ["MULTISCALE_WORKERS"]
        try:
            updates["worker_count"] = int(value)
        except ValueError:
            raise ConfigurationRejectedError(
                f"MULTISCALE_WORKERS must be an integer, got {value!r}") from None
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
        # master_seed is part of the experiment definition; keep the sidecar
        # hash in sync with the effective seed.
        cfg.canonical["experiment"]["master_seed"] = cfg.master_seed
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    results = simulate_ensemble(cfg, epsilon=args.eps)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    k = cfg.dump_modes
    summary_rows = []
    censored = 0
    for i, res in enumerate(results):
        if res["censored"]:
            censored += 1
            summary_rows.append((i, 1, res["t_explosion"], None, None, None, None))
            continue
        header = (["t"] + [f"u_{j + 1}" for j in range(res["u_dump"].shape[1])]
                  + [f"v_{j + 1}" for j in range(res["v_dump"].shape[1])])
        rows = [(res["times"][m], *res["u_dump"][m], *res["v_dump"][m])
                for m in range(res["times"].size)]
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
    write_csv(os.path.join(out, "summary.csv"), header, summary_rows)
    write_meta(out, "summary", cfg)
    frac = censored / max(1, len(results))
    print(f"simulate: {len(results)} trajectories, censored {censored} "
          f"({100 * frac:.1f}%)")
    return EXIT_EXPLOSION if frac > CENSOR_LIMIT else EXIT_OK


def _cmd_invariant(args) -> int:
    cfg = _load(args)
    rows = pooled_invariant_rows(cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    inv = cfg.invariant
    write_csv(os.path.join(out, "invariant.csv"),
              ["observable_id", "mean", "std_error", "t_burn", "t_avg",
               "n_replicas", "seed"],
              [(label, mean, se, inv.t_burn, inv.t_avg, inv.n_replicas,
                cfg.master_seed) for label, mean, se in rows])
    write_meta(out, "invariant", cfg)
    print(f"invariant: {len(rows)} observables -> {out}/invariant.csv")
    return EXIT_OK


def _cmd_average(args) -> int:
    cfg = _load(args)
    mean, se, analytic = pooled_fbar_estimate(cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    for k in range(mean.size):
        rows.append((k + 1, float(mean[k]), float(se[k]),
                     float(analytic[k]) if analytic is not None else None))
    write_csv(os.path.join(out, "average.csv"),
              ["mode_k", "Fbar_estimate", "std_error", "analytic_value_or_blank"],
              rows)
    write_meta(out, "average", cfg)
    print(f"average: {mean.size} modes -> {out}/average.csv")
    return EXIT_OK


def _emit_and_report(table: ResultTable, cfg: ExperimentConfig,
                     name: str) -> int:
    path = emit_results(table, cfg.output_dir, name, cfg)
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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationRejectedError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG_REJECTED
    except StateExplosionError as exc:
        # An explosion no path censoring covers: a non-finite frozen-fast
        # replica of `average` or `invariant`, or an averaged reference
        # path of `converge`.
        print(f"explosion: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION


if __name__ == "__main__":
    sys.exit(main())
