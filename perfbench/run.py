"""spindecoh benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload scaling-sweep --seed 1 --seconds 20 --trace 0

Every measured call is one in-process call to `spindecoh.cli.main` inside a
fresh child process that imports the package from `src/`. Calls run one
after another (a closed loop with a single client) until `--seconds` have
passed. With `--trace 0` no wrapper is installed and the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1`
traced and untraced calls alternate and the metrics are the per-layer
ones. Outputs of every call are checked; run details, provenance and
spans go to `.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import RECHECK_SEED, WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

# Import-only children per run, after one unmeasured warm-up import.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150
MIN_UNTRACED_CALLS = 1
MIN_TRACED_CALLS = 2

PER_LAYER = [
    # (function, stat, unit)
    ("dynamics.coherence_magnitudes", "calls", "count"),
    ("dynamics.coherence_magnitudes", "self_s", "s"),
    ("dynamics.coherence_magnitudes", "self_s.equal-superposition", "s"),
    ("dynamics.coherence_magnitudes", "self_s.random-complex", "s"),
    ("dynamics.coherence_magnitudes", "pair_samples", "count"),
    ("dynamics.coherence_magnitudes", "pair_samples_per_s", "1/s"),
    ("dynamics.sample_trajectory", "self_s", "s"),
    ("dynamics.particle_entropies", "self_s", "s"),
    ("estimation.run_ensemble", "calls", "count"),
    ("estimation.run_ensemble", "self_s", "s"),
    ("estimation.fit_decay", "calls", "count"),
    ("estimation.fit_decay", "self_s", "s"),
    ("estimation.fit_decay", "iterations", "count"),
    ("estimation.fit_decay", "nonconverged", "count"),
    ("estimation.time_average", "self_s", "s"),
    ("estimation.fit_decoherence_law", "self_s", "s"),
    ("model.build_system", "calls", "count"),
    ("model.build_system", "self_s", "s"),
    ("model.place_particles", "self_s", "s"),
    ("model.build_couplings", "self_s", "s"),
    ("recurrence.recurrence_time", "calls", "count"),
    ("recurrence.recurrence_time", "self_s", "s"),
    ("recurrence.recurrence_time", "degenerate", "count"),
    ("recurrence.recurrence_stats", "self_s", "s"),
    ("oracle.evolve", "calls", "count"),
    ("oracle.evolve", "self_s", "s"),
    ("oracle.evolve", "states", "count"),
    ("oracle.reduce_particle", "calls", "count"),
    ("oracle.reduce_particle", "self_s", "s"),
    ("oracle.vn_entropy", "self_s", "s"),
    ("cli.write_csv", "calls", "count"),
    ("cli.write_csv", "self_s", "s"),
    ("cli.write_csv", "bytes", "B"),
    ("config.parse_config", "calls", "count"),
    ("config.parse_config", "self_s", "s"),
]
# Counts that must repeat exactly between calls with the same inputs.
EXACT_STATS = {"calls", "pair_samples", "states", "iterations", "nonconverged",
               "degenerate", "bytes"}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int, threads: int) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    llc, llc_level = "unknown", -1
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else []:
        level = int(_read(str(index / "level")).strip() or -1)
        if level > llc_level:
            llc, llc_level = _read(str(index / "size")).strip(), level
    ram = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spindecoh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "llc": f"L{llc_level} {llc}",
        "ram": ram, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "seed": seed, "program_seed": program_seed(seed), "recheck_seed": RECHECK_SEED,
        "threads": threads,
    }


def run_child(work: Path, tag: str, calls: list, trace: bool) -> dict | None:
    """Run one child process; its result, or None if it failed."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec = {"calls": calls, "trace": trace,
            "spans": str(work / f"{tag}.spans.jsonl")}
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "SPINDECOH_THREADS")}
    # One BLAS thread: the only parallelism measured is the program's own
    # --threads. On a 2-core Xeon VM a default two-thread OpenBLAS pool
    # doubled oracle-check's CPU time for no wall-time gain and doubled
    # its run-to-run spread.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        with open(work / f"{tag}.log", "w") as log:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                                   str(result_path)], cwd=work, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{tag}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{tag}: child exited with {proc.returncode}; see {work / (tag + '.log')}",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def measured_call(workload, seed: int, work: Path, tag: str, threads: int,
                  trace: bool, reference) -> dict:
    """One measured call with its output check."""
    call_dir = work / tag
    argvs, outs = workload.prepare(seed, call_dir, threads)
    result = run_child(work, tag, argvs, trace)
    record = {"tag": tag, "trace": trace, "result": result, "extra": {}}
    if result is None or any(c["rc"] != 0 for c in result["calls"]):
        record["failed"] = workload.items
    else:
        record["failed"], record["extra"] = workload.check(outs, reference)
    shutil.rmtree(call_dir, ignore_errors=True)
    return record


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced calls, and whether exact counts repeat."""
    per_call = []
    for rec in traced:
        functions = rec["result"]["trace"]["functions"]
        values = {}
        for fn, stat, _ in PER_LAYER:
            entry = functions.get(fn, {})
            if stat == "pair_samples_per_s":
                self_s = entry.get("self_s", 0.0)
                values[f"{fn}.{stat}"] = entry.get("pair_samples", 0) / self_s if self_s else 0.0
            else:
                values[f"{fn}.{stat}"] = entry.get(stat, 0)
        values["trace.coverage"] = (rec["result"]["trace"]["covered_s"]
                                    / rec["result"]["run_s"])
        per_call.append(values)
    repeat_ok = True
    metrics = {}
    for fn, stat, unit in PER_LAYER:
        name = f"{fn}.{stat}"
        series = [v[name] for v in per_call]
        if stat in EXACT_STATS and len(set(series)) > 1:
            print(f"{name} differs between calls with the same inputs: {series}",
                  file=sys.stderr)
            repeat_ok = False
        metrics[name] = {"value": statistics.median(series), "unit": unit}
    metrics["trace.coverage"] = {
        "value": statistics.median(v["trace.coverage"] for v in per_call), "unit": "frac"}
    traced_s = statistics.median(r["result"]["run_s"] for r in traced)
    untraced_s = statistics.median(r["result"]["run_s"] for r in untraced)
    metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1.0, "unit": "frac"}
    return metrics, repeat_ok


def end_to_end_metrics(workload, calls: list[dict], setup: list[float],
                       attempted: int, failed: int) -> dict:
    results = [r["result"] for r in calls]
    return {
        "run_s": {"value": statistics.median(r["run_s"] for r in results), "unit": "s"},
        "items_per_s": {"value": statistics.median(workload.items / r["run_s"]
                                                   for r in results), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in results), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                        "unit": "MB"},
        "success_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spindecoh" / "cli.py").is_file():
        print(f"no spindecoh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = None
    if workload.has_reference:
        recorded = json.loads(REFERENCE.read_text())[workload.name]
        if recorded["params"] != json.loads(json.dumps(workload.params())):
            print(f"{REFERENCE.name} was recorded for other {workload.name} sizes; "
                  "run record.py", file=sys.stderr)
            return 2
        reference = recorded["seeds"][str(program_seed(args.seed))]
    threads = min(2, os.cpu_count() or 1)
    trace = bool(args.trace)

    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if run_child(work, "warmup", [], False) is None:
        return 2
    setup = []
    for k in range(SETUP_SAMPLES):
        result = run_child(work, f"setup{k}", [], False)
        if result is None:
            return 2
        setup.append(result["import_s"])

    calls: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = [c for c in calls if c["trace"]]
        untraced = [c for c in calls if not c["trace"]]
        enough = len(untraced) >= MIN_UNTRACED_CALLS and (
            not trace or len(traced) >= MIN_TRACED_CALLS)
        if enough and time.perf_counter() - start >= args.seconds:
            break
        # Traced runs alternate traced and untraced calls, traced first.
        as_traced = trace and len(traced) <= len(untraced)
        tag = f"call{len(calls)}{'t' if as_traced else ''}"
        calls.append(measured_call(workload, args.seed, work, tag, threads, as_traced,
                                   reference))

    attempted = workload.items * len(calls)
    failed = sum(c["failed"] for c in calls)
    complete = [c for c in calls if c["result"] is not None]
    setup += [c["result"]["import_s"] for c in complete]
    traced = [c for c in complete if c["trace"]]
    untraced = [c for c in complete if not c["trace"]]
    correct = failed == 0 and len(complete) == len(calls)
    if not untraced or (trace and not traced):
        print("no complete measured call", file=sys.stderr)
        return 1

    if trace:
        metrics, repeat_ok = layer_metrics(traced, untraced)
        correct = correct and repeat_ok
        underflow = [c["extra"].get("underflow_frac", 0.0) for c in complete]
        metrics["underflow_frac"] = {"value": statistics.median(underflow), "unit": "frac"}
    else:
        metrics = end_to_end_metrics(workload, untraced, setup, attempted, failed)

    info = provenance(args.seed, threads)
    report = {"workload": workload.name, "provenance": info, "setup_s": setup,
              "calls": calls, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(f"provenance: {json.dumps(info)}")
    for name, m in metrics.items():
        print(f"{workload.name:18s} {name:58s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
