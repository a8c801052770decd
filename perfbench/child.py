"""Worker process: one pass of one benchmark run.

Imports barylab, reads its configuration as JSON on stdin, caps its own
address space and builds the workload's inputs (together, the set-up), then
runs the operations listed in `indices` and reports each event as one JSON
line on stdout:

    {"event": "ready", "t": <CLOCK_MONOTONIC seconds>}
    {"event": "start", "index": i}
    {"event": "op", "index": i, "latency_s": ..., "ok": ..., "correct": ...,
     "decided": ..., "detail": ...}
    {"event": "done", "peak_rss_mb": ..., "layers": {...} or null}

Only the call into barylab is timed; output checks run between operations,
untraced; a check that raises makes the operation wrong.  With `traced` set,
the calls run under the outside-in tracer and the worker appends its spans
to `spans_path`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import barylab.cli
from barylab import barycenters, spaces

import checks
import workloads
from tracer import Tracer


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


class PipelineRunner:
    """One operation: `barylab retract` through the public CLI entry point."""

    def __init__(self, cfg):
        self.seed = cfg["seed"]
        doc, self.density = workloads.pipeline_input(cfg["workload"])
        self.reference = checks.load_reference(cfg["workload"])
        work = cfg["work_dir"]
        self.input_path = os.path.join(work, "scene.json")
        self.output_path = os.path.join(work, "report.json")
        with open(self.input_path, "w") as f:
            json.dump(doc, f)

    def run(self, index):
        for path in (self.output_path, self.output_path + ".csv"):
            if os.path.exists(path):
                os.unlink(path)
        argv = ["retract", "--input", self.input_path, "--output",
                self.output_path, "--density", str(self.density),
                "--seed", str(self.seed)]
        start = time.perf_counter()
        code = barylab.cli.main(argv)
        return time.perf_counter() - start, code

    def check(self, index, code):
        try:
            with open(self.output_path) as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            return [f"no readable report (exit code {code}): {exc}"], False
        return checks.check_report(report, self.reference, code, self.seed), True


class PhaseRunner:
    """One operation: one sweep trial through has_barycenters_sample."""

    def __init__(self, cfg):
        self.trials = workloads.phase_trials(cfg["seed"])
        self.spaces = {}
        for route, space_doc, *_ in self.trials:
            if route not in self.spaces:
                self.spaces[route] = spaces.ModelSpace.from_json(space_doc)

    def run(self, index):
        route, _, lam, delta, trial_seed = self.trials[index]
        start = time.perf_counter()
        rep = barycenters.has_barycenters_sample(
            self.spaces[route], lam, delta, 1, trial_seed)
        return time.perf_counter() - start, rep.worst["certificate"]

    def check(self, index, cert):
        route, _, lam, delta, trial_seed = self.trials[index]
        space = self.spaces[route]
        P, Q = checks.trial_instance(space, delta, trial_seed)
        return checks.check_certificate(space, lam, P, Q, cert)


def describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_op(runner, index, tracer):
    """Run, time and check one operation; `tracer` (or None) traces the run
    but not the check."""
    emit(event="start", index=index)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        latency, outcome = runner.run(index)
    except Exception as exc:  # a failed operation; the pass goes on
        latency = time.perf_counter() - start
        emit(event="op", index=index, latency_s=latency, ok=False,
             correct=True, decided=False, detail=describe(exc)[:300])
        return
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        problems, decided = runner.check(index, outcome)
    except Exception as exc:  # output the checker cannot read is wrong output
        problems, decided = [f"output check raised {describe(exc)}"], False
    emit(event="op", index=index, latency_s=latency, ok=not problems,
         correct=not problems, decided=decided and not problems,
         detail="; ".join(problems)[:300])


def main():
    cfg = json.load(sys.stdin)
    limit = cfg["address_space_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    runner = (PipelineRunner if cfg["workload"] in workloads.PIPELINES
              else PhaseRunner)(cfg)
    emit(event="ready", t=time.monotonic())
    if cfg["probe"]:
        return
    tracer = Tracer() if cfg["traced"] else None
    for index in cfg["indices"]:
        run_op(runner, index, tracer)
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.write_spans(cfg["spans_path"], cfg["worker"])
    emit(event="done", layers=layers,
         peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


if __name__ == "__main__":
    main()
