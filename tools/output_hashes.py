"""Print a sha256 of every perfbench workload call's outputs, and of a few
ensembles whose members run a second pass.

A change that must keep every output byte-identical is checked by diffing
the listings of two checkouts.

    python tools/output_hashes.py SRC

Imports `spindecoh` from SRC (a checkout's `src` directory) and runs each
workload's `prepare` argument lists through `spindecoh.cli.main` in this
process, for every program seed of the workloads' pool (1000-1031). Then
it runs the `ensemble` calls of PASS_TWO: N = 50, U = 2, master seed 7,
where members evaluate samples past their first pass (no workload does).
Prints one `name seed sha256` line per call, hashed over the exit codes,
the standard output and every output file:

    python tools/output_hashes.py ../parent/src > parent.txt
    python tools/output_hashes.py src > change.txt
    diff parent.txt change.txt

It only reads `perfbench/workloads.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
THREADS = 2  # as perfbench on 2 cores; the outputs do not depend on it

# Config lines of the ensembles whose members run a second pass, as in
# `tests/test_estimation.py::TestMemberPasses`.
PASS_TWO = {
    "fit-window-0-40": "fit_window = 0, 40\n",
    "fit-window-0-20": "fit_window = 0, 20\n",
    "crossing-skipped": "eta = 0.01\nfit_window = 0, 5\n",
    "no-early-crossing": "eta = 0.001\n",
}
PASS_TWO_SEED = 7


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ensemble_call(lines: str, call_dir: Path) -> tuple[list, list]:
    """(argv list, output dirs) of one N = 50, U = 2 `ensemble` call."""
    cfg = call_dir / "run.cfg"
    cfg.write_text(f"n = 50\nu = 2\nseed = {PASS_TWO_SEED}\n{lines}")
    out = call_dir / "out"
    return [["ensemble", "--config", str(cfg), "--out", str(out),
             "--threads", str(THREADS)]], [out]


def call_hash(main, argvs, outs, call_dir: Path) -> str:
    """sha256 over the exit code and stdout of each argv, then every file
    under the call's output directories, by relative path."""
    digest = hashlib.sha256()
    for argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        digest.update(f"exit {code}\n{stdout.getvalue()}".encode())
    for out in outs:
        for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
            digest.update(f"\n{path.relative_to(call_dir)}\n".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the spindecoh package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from spindecoh import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        parser.error(f"spindecoh was imported from {cli.__file__}, not from {src}")

    workloads = load_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(workloads.POOL):
            with tempfile.TemporaryDirectory() as tmp:
                calls = workload.prepare(seed, Path(tmp), THREADS)
                digest = call_hash(cli.main, *calls, Path(tmp))
            print(name, workloads.program_seed(seed), digest, flush=True)
    for name, lines in PASS_TWO.items():
        with tempfile.TemporaryDirectory() as tmp:
            digest = call_hash(cli.main, *ensemble_call(lines, Path(tmp)), Path(tmp))
        print(f"ensemble-{name}", PASS_TWO_SEED, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
