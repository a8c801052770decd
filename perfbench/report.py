"""Print every benchmark metric of every workload, side by side.

    python3 perfbench/report.py [--seed 0]

Makes one untraced run (end-to-end metrics) and one traced run (per-layer
metrics, trace_overhead_s) of each workload in BENCHMARK.json through
run.py, each as long as its run_seconds, and prints one table with units.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = doc["run_seconds"]
    names = [w["name"] for w in doc["workloads"]]
    results = {(w, t): run_once(w, args.seed, seconds, t)
               for w in names for t in (0, 1)}

    width = max(len(m["name"]) for m in doc["per_layer"]) + 2
    header = f"{'metric':{width}s} {'unit':6s}" + "".join(f"{w:>16s}" for w in names)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        print(f"\n{section} (trace {trace}, seed {args.seed}, {seconds} s)")
        print(header)
        for field in ("correct", "attempted", "failed"):
            print(f"{field:{width}s} {'':6s}" + "".join(
                f"{str(results[w, trace][field]):>16s}" for w in names))
        for m in doc[section]:
            cells = "".join(
                f"{results[w, trace]['metrics'][m['name']]['value']:>16.6g}"
                for w in names)
            print(f"{m['name']:{width}s} {m['unit']:6s}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
