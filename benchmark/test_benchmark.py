"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest benchmark/test_benchmark.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import slowfast.cli  # noqa: E402
import tracer  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, check_outputs,  # noqa: E402
                       expected_fast_substeps, expected_identities, make_inputs)


def unwrapped_bindings(originals) -> list[str]:
    """Names in loaded slowfast namespaces and classes still bound to one
    of ``originals``."""
    ids = {id(fn) for fn in originals}
    left = []
    for mod in tracer.slowfast_modules():
        for attr, value in vars(mod).items():
            if id(value) in ids:
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__.startswith("slowfast"):
                left.extend(f"{mod.__name__}.{attr}.{meth}"
                            for meth, member in vars(value).items() if id(member) in ids)
    return left


def test_installer_leaves_no_unwrapped_binding():
    targets = tracer.resolve_targets()
    assert set(targets) == {prefix for _, _, prefix in tracer.TARGETS}
    originals = [fn for _, _, fn in targets.values()]
    # The harness binds its own copies of the spectral and coupled functions.
    assert "slowfast.harness.synthesize" in unwrapped_bindings(originals)
    assert "slowfast.noise.RngStream.normals" in unwrapped_bindings(originals)
    t = tracer.Tracer()
    t.install()
    try:
        assert unwrapped_bindings(originals) == []
        assert slowfast.harness.synthesize is not targets["spectral.synthesize"][2]
        grid = slowfast.GridSpec(n_modes=4, n_quad=8)
        slowfast.harness.synthesize([1.0, 0.0, 0.0, 0.0], grid)
        slowfast.noise.derive_stream(1, 0, "slow_noise").normals(5)
    finally:
        t.uninstall()
    assert slowfast.harness.synthesize is targets["spectral.synthesize"][2]
    report = t.report()
    calls = {s["name"]: s["calls"] for s in report["spans"]}
    assert calls["spectral.synthesize"] == 1 and calls["noise.normals"] == 1
    assert report["counts"]["noise.normals.draws"] == 5


def test_self_time_excludes_wrapped_children():
    t = tracer.Tracer()
    inner = t.wrap(lambda: sum(range(20000)), "inner")
    outer = t.wrap(lambda: inner() + inner(), "outer")
    outer()
    spans = {(s["name"], s["parent"]): s for s in t.report()["spans"]}
    child, parent = spans[("inner", "outer")], spans[("outer", None)]
    assert child["calls"] == 2
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    w = WORKLOADS[name]
    assert make_inputs(w, 7, ROOT) == make_inputs(w, 7, ROOT)
    (raw_a, argv_a), (raw_b, argv_b) = make_inputs(w, 7, ROOT), make_inputs(w, 8, ROOT)
    assert raw_a == raw_b and argv_a != argv_b
    assert raw_a[w.section][w.size_key] == w.size


def test_config_derived_counts():
    raw, _ = make_inputs(WORKLOADS["converge_linear"], 0, ROOT)
    assert expected_fast_substeps(raw) == 1700 * raw["experiment"]["ensemble_size"]
    raw, _ = make_inputs(WORKLOADS["audit_cubic"], 0, ROOT)
    assert expected_identities(WORKLOADS["audit_cubic"], raw) == \
        5 * raw["experiment"]["ensemble_size"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine CSVs of each workload at a tiny size."""
    made = {}
    for name, size in (("converge_linear", 4), ("audit_cubic", 2), ("average_cubic", 2)):
        w = WORKLOADS[name]
        raw, argv = make_inputs(w, 3, ROOT)
        raw[w.section][w.size_key] = size
        work = tmp_path_factory.mktemp(name)
        config = work / "config.json"
        config.write_text(json.dumps(raw))
        out = work / "out"
        assert slowfast.cli.main(argv + ["--config", str(config), "--out", str(out)]) == 0
        made[name] = (w, raw, out)
    return made


def _corrupt(path, old, new):
    text = path.read_bytes().decode()
    assert old in text
    path.write_bytes(text.replace(old, new, 1).encode())


def test_checks_accept_genuine_outputs(outputs):
    for w, raw, out in outputs.values():
        assert check_outputs(w, raw, str(out)) == 0


@pytest.mark.parametrize("name,corruption", [
    ("converge_linear", "reverse_D"),
    ("converge_linear", "flat_weak_error"),
    ("converge_linear", "count"),
    ("converge_linear", "truncate"),
    ("audit_cubic", "maxmin"),
    ("audit_cubic", "nan"),
    ("average_cubic", "even_mode"),
    ("average_cubic", "missing"),
])
def test_checks_reject_corrupted_outputs(outputs, name, corruption, tmp_path):
    w, raw, out = outputs[name]
    bad = tmp_path / "out"
    bad.mkdir()
    path = bad / w.csv_name
    path.write_bytes((out / w.csv_name).read_bytes())
    lines = path.read_bytes().decode().splitlines(keepends=True)
    if corruption == "reverse_D":
        d_lines = [ln for ln in lines if ",D[" in ln]
        _corrupt(path, d_lines[-1].split(",")[3], "1.0")
    elif corruption == "flat_weak_error":
        # The weak error at the smallest eps no longer below the largest eps's.
        w_lines = [ln for ln in lines if ",weak_error[" in ln]
        _corrupt(path, w_lines[-1], w_lines[-1].replace(
            w_lines[-1].split(",")[3], w_lines[0].split(",")[3]))
    elif corruption == "count":
        _corrupt(path, ",4,0\r\n", ",3,0\r\n")
    elif corruption == "truncate":
        path.write_bytes(lines[0].encode())
    elif corruption == "maxmin":
        line = next(ln for ln in lines if "maxmin[v_integral]" in ln)
        _corrupt(path, line, line.replace(line.split(",")[3], "2.5"))
    elif corruption == "nan":
        line = lines[1]
        _corrupt(path, line, line.replace(line.split(",")[3], "nan"))
    elif corruption == "even_mode":
        line = next(ln for ln in lines if ln.startswith("2,"))
        _corrupt(path, line, line.replace(line.split(",")[1], "0.5"))
    elif corruption == "missing":
        path.unlink()
    with pytest.raises(CheckFailed):
        check_outputs(w, raw, str(bad))
