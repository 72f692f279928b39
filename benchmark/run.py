"""Benchmark of the slowfast CLI: end-to-end metrics, or per-layer metrics
from a traced run.

Usage (from the repository root):

    python3 benchmark/run.py --workload converge_linear --seed 1 --seconds 30 --trace 0

Each invocation runs one workload through ``slowfast.cli.main`` in a fresh
single-process interpreter (``--workers 1``, BLAS pinned to one thread) and
has its CSV checked. Invocations repeat until ``--seconds`` is used up.
Each invocation's times are rescaled by the speed of the shared machine at
that moment, gauged by the fixed kernel in ``reference.py`` just before and
after it. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, medians over the invocations. With ``--trace 1`` untraced and traced
invocations alternate and it carries the per-layer metrics plus the tracing
overhead. The exit code is 1 when an output or count check fails, 2 when
the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_S, reference_seconds  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, check_outputs,  # noqa: E402
                       expected_fast_substeps, expected_identities, make_inputs,
                       requested_paths)

MIN_INVOCATIONS = {0: 3, 1: 4}
RUN_CAP_S = 150.0          # hard stop well inside the 180 s limit per run
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


def invoke(workload, raw, argv, root: str, work: str, index: int,
           traced: bool, timeout: float) -> dict:
    """Run one invocation in a fresh process and check its outputs."""
    inv_dir = os.path.join(work, f"inv{index:03d}")
    out_dir = os.path.join(inv_dir, "out")
    os.makedirs(inv_dir)
    config_path = os.path.join(inv_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    result_path = os.path.join(inv_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
           os.path.join(root, "src"), "1" if traced else "0", config_path,
           "--", *argv, "--config", config_path, "--out", out_dir]
    env = dict(os.environ, **PINNED_ENV)
    env.pop("MULTISCALE_WORKERS", None)
    attempted = requested_paths(workload, raw)
    rec = {"traced": traced, "attempted": attempted, "failed": attempted,
           "problem": None}
    with open(os.path.join(inv_dir, "log.txt"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=inv_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            rec["problem"] = "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rec["problem"]:
            return rec
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(inv_dir, "log.txt"), encoding="utf-8",
                  errors="replace") as fh:
            rec["problem"] = f"no result (exit {proc.returncode}): {fh.read()[-400:]}"
        return rec
    rec.update(setup_s=res["t_setup"] - t_spawn, wall_s=res["t_end"] - res["t_setup"],
               peak_rss_mb=res["peak_rss_kb"] / 1024.0, versions=res["versions"],
               trace=res["trace"])
    if res["exit_code"] != 0:
        rec["problem"] = f"exit code {res['exit_code']} {res['error'] or ''}".strip()
        return rec
    try:
        censored = check_outputs(workload, raw, out_dir)
        with open(os.path.join(out_dir, workload.csv_name), "rb") as fh:
            rec["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    except CheckFailed as exc:
        rec["problem"] = f"output check: {exc}"
        return rec
    rec["failed"] = censored
    return rec


def layer_metrics(traced: list[dict], untraced: list[dict], raw: dict) -> dict:
    """Per-layer metrics from the traced invocations (medians of times;
    counts are checked equal across invocations before this is called)."""
    first = traced[0]["trace"]
    grid = raw["model"]["grid"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def self_s(rec, prefix):
        return sum(s["self_s"] for s in rec["trace"]["spans"] if s["name"] == prefix)

    def total_s(rec, prefix):
        return sum(s["total_s"] for s in rec["trace"]["spans"] if s["name"] == prefix)

    calls = {}
    for _, _, prefix in TARGETS:
        n = sum(s["calls"] for s in first["spans"] if s["name"] == prefix)
        calls[prefix] = n
        own = statistics.median(self_s(r, prefix) for r in traced)
        inclusive = statistics.median(total_s(r, prefix) for r in traced)
        put(f"{prefix}.calls", n, "count")
        put(f"{prefix}.self_s", own, "s")
        put(f"{prefix}.us_per_call", 1e6 * inclusive / n if n else 0.0, "us")

    counts = first["counts"]
    transform_s = statistics.median(
        self_s(r, "spectral.synthesize") + self_s(r, "spectral.analyze") for r in traced)
    flops = 2.0 * grid["n_modes"] * grid["n_quad"] * counts.get("spectral.vectors", 0)
    put("spectral.gflops", flops / transform_s / 1e9 if transform_s else 0.0,
        "GFLOP/s-computed")
    draws = counts.get("noise.normals.draws", 0)
    put("noise.normals.draws", draws, "count")
    put("noise.draws_per_call",
        draws / calls["noise.normals"] if calls["noise.normals"] else 0.0, "draws/call")
    spans = [statistics.quantiles(r["trace"]["simulate_s"], n=10, method="inclusive")
             if len(r["trace"]["simulate_s"]) > 1 else [0.0] * 9 for r in traced]
    put("coupled.simulate_slowfast.p50_ms",
        1e3 * statistics.median(q[4] for q in spans), "ms")
    put("coupled.simulate_slowfast.p90_ms",
        1e3 * statistics.median(q[8] for q in spans), "ms")
    put("coupled.fast_substeps", counts.get("coupled.fast_substeps", 0), "count")
    identities = first["identities"]
    put("coupled.paths_per_identity",
        calls["coupled.simulate_slowfast"] / identities if identities else 0.0, "ratio")
    put("fast_dynamics.replica_steps", calls["fast_dynamics.step_frozen_fast"], "count")
    put("harness.write_csv.bytes", counts.get("harness.write_csv.bytes", 0), "bytes")
    put("harness.trajectories.attempted",
        counts.get("harness.trajectories.attempted", 0), "count")
    put("harness.trajectories.censored",
        counts.get("harness.trajectories.censored", 0), "count")
    put("trace.overhead",
        statistics.median(r["wall_s_at_ref"] for r in traced)
        / statistics.median(r["wall_s_at_ref"] for r in untraced), "ratio")
    return metrics


def count_problems(workload, raw, traced: list[dict]) -> list[str]:
    """Deterministic counts must repeat exactly and match the config."""
    def fingerprint(rec):
        t = rec["trace"]
        return (sorted((s["name"], str(s["parent"]), s["calls"]) for s in t["spans"]),
                sorted(t["counts"].items()), t["identities"])

    problems = []
    if any(fingerprint(r) != fingerprint(traced[0]) for r in traced[1:]):
        problems.append("deterministic counts differ between traced invocations")
    first = traced[0]["trace"]
    identities = expected_identities(workload, raw)
    if first["identities"] != identities:
        problems.append(f"{first['identities']} distinct coupled paths, "
                        f"config implies {identities}")
    if workload.command == "converge":
        substeps = expected_fast_substeps(raw)
        got = first["counts"].get("coupled.fast_substeps", 0)
        if got != substeps:
            problems.append(f"{got} fast substeps, config implies {substeps}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    for needed in (os.path.join("src", "slowfast", "cli.py"), workload.config):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"benchmark: {needed} not found under {root}; run from the "
                  "repository root", file=sys.stderr)
            return 2
    raw, argv = make_inputs(workload, args.seed, root)

    work = os.path.join(root, ".bench_work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # A terminated benchmark still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    records = []
    start = time.monotonic()
    ref_before = reference_seconds()
    last = 0.0
    try:
        while True:
            t_iter = time.monotonic()
            elapsed = t_iter - start
            if len(records) >= MIN_INVOCATIONS[args.trace] and (
                    elapsed + last > min(args.seconds, RUN_CAP_S)):
                break
            traced = args.trace == 1 and len(records) % 2 == 1
            rec = invoke(workload, raw, argv, root, work, len(records), traced,
                         RUN_CAP_S - elapsed)
            # The machine's speed over the invocation: reference passes
            # just before and just after it.
            ref_after = reference_seconds()
            rec["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            records.append(rec)
            last = time.monotonic() - t_iter
            if rec.get("setup_s") is None:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in records:
        if r.get("setup_s") is not None:
            scale = NOMINAL_S / r["ref_s"]
            r["setup_s_at_ref"] = r["setup_s"] * scale
            r["wall_s_at_ref"] = r["wall_s"] * scale
            r["paths_per_s_at_ref"] = r["attempted"] / r["wall_s_at_ref"]
    problems = [f"invocation {i}: {r['problem']}" for i, r in enumerate(records)
                if r["problem"]]
    hashes = {r["csv_sha256"] for r in records if "csv_sha256" in r}
    if len(hashes) > 1:
        problems.append("CSV bytes differ between invocations of one seed")
        for r in records:
            r["failed"] = r["attempted"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    ok = [r for r in records if not r["problem"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    metrics = {}
    if args.trace == 0 and untraced:
        def median(key):
            return statistics.median(r[key] for r in untraced)
        metrics = {
            "setup_s": {"value": median("setup_s_at_ref"), "unit": "s"},
            "wall_s": {"value": median("wall_s_at_ref"), "unit": "s"},
            "paths_per_s": {"value": median("paths_per_s_at_ref"), "unit": "1/s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    elif args.trace == 1 and len(traced) >= 2 and untraced:
        problems.extend(count_problems(workload, raw, traced))
        metrics = layer_metrics(traced, untraced, raw)
    else:
        problems.append("too few successful invocations to report metrics")

    versions = next((r["versions"] for r in records if "versions" in r), {})
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "machine": platform.machine(), **versions,
                        "pinned": PINNED_ENV, "workers": 1},
        "inputs": {"argv": argv, workload.size_key: workload.size,
                   "requested_paths": requested_paths(workload, raw)},
        "csv_sha256": sorted(hashes),
        "invocations": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "ref_s",
                                               "peak_rss_mb", "attempted", "failed",
                                               "problem")} for r in records],
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
    }
    print(json.dumps(report))
    for name, m in metrics.items():
        print(f"{workload.name:16s} {name:42s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
