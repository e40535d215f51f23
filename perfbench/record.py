"""Record the reference outputs that run.py checks against.

Usage (from the root of a source checkout):

    python3 perfbench/record.py [WORKLOAD ...]

Runs every program seed of the pool once per workload that has a
reference, untraced, and rewrites perfbench/reference.json. Only re-record
when the benchmark's workload sizes change, never to make a check pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, REFERENCE, run_child
from workloads import POOL, WORKLOADS, program_seed


def main(names: list[str]) -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    threads = min(2, os.cpu_count() or 1)
    for name in names or [n for n, w in WORKLOADS.items() if w.has_reference]:
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(POOL):
            work = OUT / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            argvs, outs = workload.prepare(seed, work / "call", threads)
            result = run_child(work, "call", argvs, False)
            if result is None or any(c["rc"] != 0 for c in result["calls"]):
                print(f"{name}: program seed {program_seed(seed)} failed", file=sys.stderr)
                return 1
            seeds[str(program_seed(seed))] = workload.extract(outs)
            shutil.rmtree(work)
            print(f"{name}: program seed {program_seed(seed)} recorded", flush=True)
        reference[name] = {"params": workload.params(), "seeds": seeds}
        REFERENCE.write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """reference.json text, one line per program seed."""
    blocks = []
    for name, entry in reference.items():
        seeds = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(values)}"
                           for seed, values in entry["seeds"].items())
        blocks.append(f' {json.dumps(name)}: {{\n  "params": {json.dumps(entry["params"])},\n'
                      f'  "seeds": {{\n{seeds}\n  }}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
