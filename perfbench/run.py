"""barylab benchmark: one run of one workload.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 30 --trace 0

Run from the root of a barylab checkout.  The run is a single closed-loop
client: one worker process at a time, one thread, numpy pinned to one
thread, each operation issued after the previous one finished.  The worker
caps its own address space (`ADDRESS_SPACE_BYTES`); a MemoryError, a crash
or a timeout is a failed operation that stays in the denominator.

A pass is the workload's fixed list of operations (see workloads.py), run in
fresh worker processes, one per worker group.  `--trace 0` repeats passes
while the next one is expected to end within `--seconds` and prints the
end-to-end metrics, each a median over passes; `--trace 1` runs one untraced and one traced pass and
prints the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with the
host, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import host  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ADDRESS_SPACE_BYTES = 2_000_000_000
SETUP_PROBES = 6  # extra set-ups per run, half before and half after the
# passes; setup_s is their median together with the workers' set-ups
RUN_DEADLINE_S = 165.0  # the worker is killed after this; exit stays under 180 s
MAX_RESPAWNS = 5
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"),
    ("trial_p50_ms", "ms"),
    ("trial_p90_ms", "ms"),
    ("decided_share", "ratio"),
]
PER_LAYER = [
    *(f"{name}.{field}" for _, _, name in tracer.TRACED
      for field in ("calls", "self_s")),
    *tracer.COUNT_NAMES,
    "trace_overhead_s",
]


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def read_events(proc, deadline):
    """JSON events from the worker's stdout until EOF; None at the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            yield None
            return
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield json.loads(line)


def spawn(cfg):
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=str(ROOT))
    proc.stdin.write(json.dumps(cfg).encode())
    proc.stdin.close()
    return proc, start


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


class Run:
    """One run: set-up probes, then passes, each in fresh workers."""

    def __init__(self, workload, seed, seconds, trace, work_dir):
        self.seconds, self.trace = seconds, trace
        self.groups = workloads.worker_groups(workload, seed)
        self.size = sum(map(len, self.groups))
        self.spans_path = BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl"
        self.cfg = {
            "workload": workload, "seed": seed,
            "address_space_bytes": ADDRESS_SPACE_BYTES,
            "work_dir": str(work_dir),
            "spans_path": str(self.spans_path),
        }
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.setups = []
        self.ops = []
        self.passes = []
        self.layers = None

    def probe(self):
        proc, start = spawn(dict(self.cfg, probe=True))
        try:
            for event in read_events(proc, self.deadline):
                if event is not None and event["event"] == "ready":
                    self.setups.append(event["t"] - start)
        finally:
            stop(proc)

    def run_pass(self, traced):
        """Run every operation once, each worker group in a fresh worker."""
        k, ops, workers = len(self.passes), [], []
        if traced and self.spans_path.exists():
            self.spans_path.unlink()
        for group in self.groups:
            if not self.run_group(group, k, traced, ops, workers):
                break
        # peak RSS of the workers whose operations all completed: a worker
        # stopped by the address-space cap reports the cap, not the program
        completed = [w["peak_rss_mb"] for w in workers if w["ok"]]
        if traced and all(w["layers"] is not None for w in workers):
            # counts are exact only when no worker died
            self.layers = {name: sum(w["layers"][name] for w in workers)
                           for name in workers[0]["layers"]}
        self.ops += ops
        self.passes.append({
            "traced": traced, "whole": len(ops) == self.size,
            "wall_s": sum(op["latency_s"] for op in ops),
            "peak_rss_mb": max(completed or [w["peak_rss_mb"] for w in workers]),
            "workers": [{"ops": w["ops"], "ok": w["ok"],
                         "peak_rss_mb": w["peak_rss_mb"]} for w in workers]})

    def run_group(self, group, k, traced, ops, workers):
        """Run one group's operations in a worker; respawn it after a crash
        or a hang, counting the operation it was running as failed.  False
        when the run's deadline stopped the group."""
        todo = list(group)
        for _ in range(MAX_RESPAWNS + 1):
            proc, start = spawn(dict(self.cfg, probe=False, traced=traced,
                                     indices=todo, worker=len(workers)))
            inflight, done, timed_out, mine = None, None, False, []
            try:
                for event in read_events(proc, self.deadline):
                    if event is None:
                        timed_out = True
                        break
                    kind = event["event"]
                    if kind == "ready":
                        self.setups.append(event["t"] - start)
                    elif kind == "start":
                        inflight = (event["index"], time.monotonic())
                    elif kind == "op":
                        mine.append(dict(event, k=k))
                        inflight = None
                    elif kind == "done":
                        done = event
            finally:
                stop(proc)
            if done is not None:
                ops += mine
                workers.append({"ops": len(mine), "layers": done["layers"],
                                "ok": all(op["ok"] for op in mine),
                                "peak_rss_mb": done["peak_rss_mb"]})
                return True
            if inflight is not None or len(mine) < len(todo):
                failed_index, t0 = inflight or (todo[len(mine)], time.monotonic())
                reason = "timeout" if timed_out else f"worker died ({proc.returncode})"
                mine.append({"event": "op", "index": failed_index, "k": k,
                             "latency_s": time.monotonic() - t0, "ok": False,
                             "correct": True, "decided": False, "detail": reason})
            ops += mine
            # a dead worker reports no peak; the largest child peak bounds it
            workers.append({"ops": len(mine), "layers": None, "ok": False,
                            "peak_rss_mb": resource.getrusage(
                                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0})
            todo = todo[len(mine):]
            if timed_out:
                return False
            if not todo:
                return True
        return True

    def work(self):
        if self.trace:
            self.run_pass(traced=False)
            self.run_pass(traced=True)
            return
        start = time.monotonic()
        while time.monotonic() < self.deadline:
            self.run_pass(traced=False)
            mean = statistics.fmean(p["wall_s"] for p in self.passes)
            if time.monotonic() - start + mean > self.seconds:
                break

    def metrics(self):
        if self.trace:
            untraced, traced = self.passes
            if self.layers is None or not (untraced["whole"] and traced["whole"]):
                raise RuntimeError("the traced pass did not complete")
            values = dict(self.layers,
                          trace_overhead_s=traced["wall_s"] - untraced["wall_s"])
            return {name: {"value": values[name], "unit": layer_unit(name)}
                    for name in PER_LAYER}
        passes = [p for p in self.passes if p["whole"]] or self.passes
        attempted = len(self.ops)
        latencies_ms = [op["latency_s"] * 1000.0 for op in self.ops]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "completed_share": sum(op["ok"] for op in self.ops) / attempted,
            "trial_p50_ms": percentile(latencies_ms, 50),
            "trial_p90_ms": percentile(latencies_ms, 90),
            "decided_share": sum(op["decided"] for op in self.ops) / attempted,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "barylab" / "__init__.py").is_file():
        print(f"run.py: no barylab sources under {ROOT / 'src'}; run it from a "
              "barylab checkout", file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
        probes = 0 if args.trace else SETUP_PROBES // 2
        for _ in range(probes):
            run.probe()
        run.work()
        for _ in range(probes):
            run.probe()
        metrics = run.metrics()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    correct = all(op["correct"] for op in run.ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host.host_record(ROOT, args.seed),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "setups_s": run.setups, "passes": run.passes,
        "ops": run.ops,
    }
    path = out / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for op in run.ops:
        if op["detail"]:
            print(f"pass {op['k']} op {op['index']}: {op['detail']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
