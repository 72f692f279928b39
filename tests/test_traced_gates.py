"""The benchmark's traced count checks, run in process on small configs.

`benchmark/run.py --trace 1` identifies coupled paths by calls to
`coupled.simulate_slowfast` and counts fast substeps from calls to
`coupled.step_coupled`; a refactor that stops calling either fails the
traced run.  These tests apply the same checks, and the `average_cubic`
output check (the tracer, the counts and the check are read from
`benchmark/`, which they leave untouched).
"""

import json
import os

import pytest

from slowfast.cli import main

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmark")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    import tracer
    import workloads
    return tracer, workloads


def traced_run(bench, tmp_path, workload_name, edit):
    tracer, workloads = bench
    workload = workloads.WORKLOADS[workload_name]
    with open(os.path.join("configs", os.path.basename(workload.config))) as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    trace = tracer.Tracer()
    trace.install()
    try:
        code = main([workload.command, "--config", str(path), "--out",
                     str(tmp_path / "out"), "--workers", "1"])
    finally:
        trace.uninstall()
    assert code == 0
    return workload, raw, trace.report()


def test_converge_counts_paths_and_substeps(bench, tmp_path):
    def small(raw):
        raw["experiment"]["ensemble_size"] = 2
        raw["model"]["horizon"] = 0.1
    workload, raw, report = traced_run(bench, tmp_path, "converge_linear",
                                       small)
    _, workloads = bench
    assert report["identities"] == workloads.expected_identities(workload, raw)
    assert report["identities"] == 6
    assert (report["counts"]["coupled.fast_substeps"]
            == workloads.expected_fast_substeps(raw))


def test_audit_counts_paths(bench, tmp_path):
    def small(raw):
        raw["experiment"]["ensemble_size"] = 2
        raw["model"]["horizon"] = 0.05
    workload, raw, report = traced_run(bench, tmp_path, "audit_cubic", small)
    _, workloads = bench
    assert report["identities"] == workloads.expected_identities(workload, raw)
    assert report["identities"] == 10
    simulate_calls = sum(s["calls"] for s in report["spans"]
                         if s["name"] == "coupled.simulate_slowfast")
    assert simulate_calls == report["identities"]


def test_average_cubic_output_check(bench, tmp_path):
    # The benchmark's even-mode symmetry check on average.csv, run on the
    # theta-truncated averaged drift of cubic_rough.json.
    def small(raw):
        raw["averaging"]["n_replicas"] = 2
    workload, raw, report = traced_run(bench, tmp_path, "average_cubic",
                                       small)
    _, workloads = bench
    assert report["identities"] == 0
    assert workloads.check_outputs(workload, raw, str(tmp_path / "out")) == 0
