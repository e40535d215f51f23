"""One measured child process: import spindecoh.cli, then call main.

Usage: python3 child.py SPEC.json RESULT.json

The package is imported from the `src/` directory beside `perfbench/`.
SPEC holds `calls` (a list of argument lists for `spindecoh.cli.main`,
possibly empty for a set-up sample), `trace` (whether to install the
span tracer) and `spans` (where the tracer writes its spans). RESULT
receives the import time, each call's exit code and wall time, the CPU
time and peak resident memory of the process, and for a traced process
the per-function summary.
"""

import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import spindecoh.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(SRC + os.sep):
        print(f"spindecoh imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run_main = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    cpu_start = _cpu_s()
    run_start = time.perf_counter()
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        try:
            rc = run_main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        calls.append({"argv": argv, "rc": rc, "run_s": time.perf_counter() - t0})
    run_end = time.perf_counter()
    cpu_s = _cpu_s() - cpu_start

    result = {
        "import_s": import_s,
        "calls": calls,
        "run_s": run_end - run_start,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import summarize
        tracer.write_spans(spec["spans"])
        result["trace"] = summarize(tracer.spans, threading.get_ident(), run_start, run_end)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
