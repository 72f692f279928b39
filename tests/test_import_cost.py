"""What the command line loads, and when.

Each check runs in a fresh interpreter, because this process has already
imported scipy and the process pool for other tests.  Importing
`slowfast.cli` must not load scipy (the CLI needs none of it) or the
process pool (only `--workers > 1` uses it), and it must load
`numpy.random`, so a subcommand's first draw does not pay for that import.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")


def run_python(code: str, cwd) -> dict:
    """Run code in a fresh interpreter importing from src; parse its last
    stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("MULTISCALE_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy_and_no_pool(tmp_path):
    loaded = run_python(
        "import json, sys\n"
        "import slowfast.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n", tmp_path)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "concurrent.futures.process" not in loaded
    assert "numpy.random" in loaded


def test_subcommands_import_nothing(tmp_path):
    # Small copies of the benchmark's three workloads plus simulate and
    # invariant; every module a subcommand needs is loaded by the import.
    # argparse's first parse loads locale for its message catalogue; a bare
    # parse before the baseline keeps that standard-library cost out.
    runs = [
        ("converge", "linear_benchmark.json",
         {"experiment": {"ensemble_size": 2}, "model": {"horizon": 0.1}}),
        ("audit", "cubic_rough.json",
         {"experiment": {"ensemble_size": 2}, "model": {"horizon": 0.05}}),
        ("average", "cubic_rough.json", {"averaging": {"n_replicas": 2}}),
        ("simulate", "linear_benchmark.json",
         {"experiment": {"ensemble_size": 2}, "model": {"horizon": 0.1}}),
        ("invariant", "linear_benchmark.json",
         {"invariant": {"n_replicas": 2}}),
    ]
    for command, name, edits in runs:
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            raw = json.load(fh)
        for section, values in edits.items():
            raw[section].update(values)
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(raw))
        argv = [command, "--config", str(path), "--out",
                str(tmp_path / command), "--workers", "1"]
        new = run_python(
            "import argparse, json, sys\n"
            "import slowfast.cli\n"
            "argparse.ArgumentParser().parse_args([])\n"
            "before = set(sys.modules)\n"
            f"code = slowfast.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n",
            tmp_path)
        assert new == [0, []], command
