"""Span tracing from outside the program.

Wraps the public functions of each ``slowfast`` layer in every module
namespace that binds them (``from .spectral import synthesize`` copies the
reference, so patching ``slowfast.spectral`` alone would miss its callers)
and aggregates spans per (function, parent) in memory. Self time is a span's
duration minus the durations of the wrapped spans it directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

# (module, attribute, metric prefix); "Class.method" attributes are wrapped
# on their class.
TARGETS = (
    ("spectral", "synthesize", "spectral.synthesize"),
    ("spectral", "analyze", "spectral.analyze"),
    ("spectral", "lp_norm", "spectral.lp_norm"),
    ("noise", "RngStream.normals", "noise.normals"),
    ("reactions", "eval_g", "reactions.eval_g"),
    ("reactions", "nemytskii_drift", "reactions.nemytskii_drift"),
    ("reactions", "eval_V", "reactions.eval_V"),
    ("coupled", "step_coupled", "coupled.step_coupled"),
    ("coupled", "simulate_slowfast", "coupled.simulate_slowfast"),
    ("coupled", "build_auxiliary", "coupled.build_auxiliary"),
    ("fast_dynamics", "step_frozen_fast", "fast_dynamics.step_frozen_fast"),
    ("averaging", "analytic_Fbar_linear", "averaging.analytic_Fbar_linear"),
    ("averaging", "make_drift_fn", "averaging.make_drift_fn"),
    ("harness", "run_parallel", "harness.run_parallel"),
    ("harness", "write_csv", "harness.write_csv"),
    ("config", "parse_config", "config.parse_config"),
)


def slowfast_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "slowfast" or name.startswith("slowfast."))]


def resolve_targets() -> dict:
    """Metric prefix -> (owner, attribute, function) for each target the
    loaded package defines; a target missing from the package is skipped."""
    found = {}
    for module_name, attr, prefix in TARGETS:
        owner = sys.modules.get(f"slowfast.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            fn = vars(owner).get(attr) if owner is not None else None
        else:
            fn = getattr(owner, attr, None)
        if callable(fn):
            found[prefix] = (owner, attr, fn)
    return found


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


class Tracer:
    """In-memory span aggregate plus the counters the probes record."""

    def __init__(self):
        self.stack: list[list] = []             # [prefix, child seconds]
        self.spans: dict[tuple, list] = {}      # (prefix, parent) -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.simulate_s: list[float] = []       # coupled.simulate_slowfast spans
        self.identities: set = set()
        self.installed: list[tuple] = []        # (owner, attribute, original)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, prefix: str, probe=None):
        stack = self.stack
        spans = self.spans
        durations = self.simulate_s if prefix == "coupled.simulate_slowfast" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [prefix, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = spans.get((prefix, parent))
                if agg is None:
                    agg = spans[(prefix, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def _probes(self, targets: dict) -> dict:
        count = self.count
        probes = {
            # Vectors transformed: the result holds one output row per input.
            "spectral.synthesize": lambda a, k, r: count("spectral.vectors",
                                                        r.size // r.shape[-1]),
            "spectral.analyze": lambda a, k, r: count("spectral.vectors",
                                                     r.size // r.shape[-1]),
            "noise.normals": lambda a, k, r: count("noise.normals.draws", r.size),
            "harness.write_csv": lambda a, k, r: count(
                "harness.write_csv.bytes", os.path.getsize(a[0] if a else k["path"])),
        }

        def run_parallel(args, kwargs, result):
            trajs = [r for r in result if isinstance(r, dict) and "censored" in r]
            count("harness.trajectories.attempted", len(trajs))
            count("harness.trajectories.censored", sum(1 for r in trajs if r["censored"]))
        probes["harness.run_parallel"] = run_parallel

        if "coupled.step_coupled" in targets:
            bind_step = _binder(targets["coupled.step_coupled"][2])

            def step_coupled(args, kwargs, result):
                a = bind_step(args, kwargs)
                plans = a["plans"]
                model = a["model"]
                n_sub = plans[0] if plans is not None else max(
                    1, math.ceil(a["h_macro"] / (model.substep_ratio * model.epsilon)))
                count("coupled.fast_substeps", n_sub)
            probes["coupled.step_coupled"] = step_coupled

        if "coupled.simulate_slowfast" in targets:
            bind_sim = _binder(targets["coupled.simulate_slowfast"][2])

            def simulate(args, kwargs, result):
                a = bind_sim(args, kwargs)
                self.identities.add((a["master_seed"], a["trajectory_id"],
                                     a["model"].epsilon, a["model"].theta))
            probes["coupled.simulate_slowfast"] = simulate
        return probes

    def install(self) -> None:
        """Wrap every target in every loaded ``slowfast`` module namespace."""
        targets = resolve_targets()
        probes = self._probes(targets)
        namespaces = slowfast_modules()
        for prefix, (owner, attr, original) in targets.items():
            traced = self.wrap(original, prefix, probes.get(prefix))
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                self.installed.append((owner, attr, original))
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, traced)
                        self.installed.append((ns, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.installed):
            setattr(owner, name, original)
        self.installed.clear()

    def report(self) -> dict:
        """JSON-ready aggregate: spans per (function, parent) and counters."""
        return {
            "spans": [{"name": name, "parent": parent, "calls": calls,
                       "total_s": total, "self_s": own}
                      for (name, parent), (calls, total, own) in self.spans.items()],
            "counts": self.counts,
            "simulate_s": self.simulate_s,
            "identities": len(self.identities),
        }

