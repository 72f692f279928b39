"""One workload invocation in a fresh interpreter.

Usage: python3 child.py RESULT_JSON SRC_DIR TRACE CONFIG -- CLI_ARGS...

Set-up ends once ``slowfast``, numpy and scipy are imported and the config
is parsed; the timed part is the ``slowfast.cli.main`` call. The result file
holds the monotonic timestamps, the exit code, the peak RSS and, when TRACE
is 1, the span aggregate.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident memory of this process image. ``ru_maxrss`` keeps the
    benchmark parent's resident size across fork and exec, so the kernel's
    per-image high-water mark is read where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    result_path, src, trace, config = argv[:4]
    cli_argv = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    import numpy
    import scipy

    import slowfast.cli
    from slowfast.config import parse_config

    if not os.path.abspath(slowfast.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"slowfast imported from {slowfast.__file__}, not {src}", file=sys.stderr)
        return 90
    parse_config(config)
    t_setup = time.monotonic()

    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    try:
        code = slowfast.cli.main(cli_argv)
    except Exception as exc:  # reported as a failed invocation, never retried
        code, error = -1, f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    out = {
        "t_setup": t_setup,
        "t_end": t_end,
        "exit_code": code,
        "error": error,
        "peak_rss_kb": peak_rss_kb(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
