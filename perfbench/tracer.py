"""Outside-in tracer: wraps barylab's public functions at run time.

Nothing inside barylab knows it is being traced.  `Tracer.install()` replaces
each function named in `TRACED` by a wrapper that times the call, charges the
time to the innermost traced caller (so self time = duration minus the time
of traced children) and derives work counts from arguments and return values.

Per function the tracer keeps `calls` and `self_s` aggregates for every call,
and full spans (name, start, end, parent) for the first `SPAN_CAP` calls of
each function.  The flagship pipeline makes millions of kernel calls, so
keeping every span would cost more memory and write time than the work it
traces; the aggregates stay exact.
"""

from __future__ import annotations

import importlib
import json
import time

SPAN_CAP = 1000  # spans kept per traced function and worker

# (module, attribute path, trace name).  Module-level functions are looked up
# through their module at call time by barylab itself (`spaces.distance(...)`,
# `barycenters.solve_barycenter(...)`), so replacing the module attribute
# routes internal calls through the wrapper too.  Class entries wrap the
# method on the class; "BallCover" wraps its constructor.
TRACED = [
    ("spaces", "distance", "spaces.distance"),
    ("spaces", "distances_to", "spaces.distances_to"),
    ("spaces", "cross_distances", "spaces.cross_distances"),
    ("spaces", "pairwise_diameter", "spaces.pairwise_diameter"),
    ("spaces", "geodesic_point", "spaces.geodesic_point"),
    ("simplicial", "barycentric_subdivision", "simplicial.barycentric_subdivision"),
    ("simplicial", "map_diameter", "simplicial.map_diameter"),
    ("barycenters", "cat0_midpoint_rule", "barycenters.cat0_midpoint_rule"),
    ("barycenters", "circle_arc_rule", "barycenters.circle_arc_rule"),
    ("barycenters", "lambda_of", "barycenters.lambda_of"),
    ("barycenters", "relative_slacks", "barycenters.relative_slacks"),
    ("barycenters", "solve_barycenter", "barycenters.solve_barycenter"),
    ("barycenters", "has_barycenters_sample", "barycenters.has_barycenters_sample"),
    ("covers", "adjacency", "covers.adjacency"),
    ("covers", "build_nerve", "covers.build_nerve"),
    ("covers", "balls_intersection_margin", "covers.balls_intersection_margin"),
    ("covers", "diam_K_Kout", "covers.diam_K_Kout"),
    ("covers", "BallCover.__init__", "covers.BallCover"),
    ("covers", "NerveProjector.tents", "covers.NerveProjector.tents"),
    ("covers", "NerveProjector.project", "covers.NerveProjector.project"),
    ("subdivision", "shrinking_subdivide", "subdivision.shrinking_subdivide"),
    ("subdivision", "iterate_subdivision", "subdivision.iterate_subdivision"),
    ("retraction", "Retractor.retract", "retraction.Retractor.retract"),
    ("retraction", "check_large_angle_escape", "retraction.check_large_angle_escape"),
    ("retraction", "PushOff.evaluate", "retraction.PushOff.evaluate"),
    ("retraction", "check_small_relative", "retraction.check_small_relative"),
    ("retraction", "calibrate_delta", "retraction.calibrate_delta"),
    ("retraction", "build_boundary_grid", "retraction.build_boundary_grid"),
    ("retraction", "extend_to_pushoff", "retraction.extend_to_pushoff"),
    ("scenes", "run_pipeline", "scenes.run_pipeline"),
    ("cli", "main", "cli.main"),
]


# Counters run after every traced call; `result` is None when it raised.


def _count_distances_to(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["spaces.distances_to.rows"] += len(points)


def _count_solve(counts, args, kwargs, result):
    # the solver refines by calling itself once with refine=False; a refined
    # call counts even when it raises, and the certificate status is counted
    # once, on the outer call
    refine = kwargs.get("refine", args[3] if len(args) > 3 else True)
    if not refine:
        counts["barycenters.solve_barycenter.refined"] += 1
    elif result is not None:
        counts[f"barycenters.solve_barycenter.{result.status}"] += 1


def _count_adjacency(counts, args, kwargs, result):
    if result is not None:
        counts["covers.adjacency.elements"] += len(result)


def _count_nerve(counts, args, kwargs, result):
    for s in result.simplices if result is not None else ():
        if 2 <= len(s) <= 4:
            counts[f"covers.nerve.simplices_dim{len(s) - 1}"] += 1


def _count_subdivision(counts, args, kwargs, result):
    if result is not None:
        counts["subdivision.vertices"] += len(result.complex.vertices)


COUNTERS = {
    "spaces.distances_to": _count_distances_to,
    "barycenters.solve_barycenter": _count_solve,
    "covers.adjacency": _count_adjacency,
    "covers.build_nerve": _count_nerve,
    "subdivision.iterate_subdivision": _count_subdivision,
}

COUNT_NAMES = [
    "spaces.distances_to.rows",
    "barycenters.solve_barycenter.refined",
    "barycenters.solve_barycenter.found",
    "barycenters.solve_barycenter.not_found_below",
    "barycenters.solve_barycenter.indeterminate",
    "covers.adjacency.elements",
    "covers.nerve.simplices_dim1",
    "covers.nerve.simplices_dim2",
    "covers.nerve.simplices_dim3",
    "subdivision.vertices",
]


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TRACED]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.spans = []  # (name id, start, end, parent name id or -1)
        self._stack = []  # [name id, child seconds] per open traced call
        self._installed = []  # (owner, attribute, original)

    def install(self):
        for index, (module_name, path, name) in enumerate(TRACED):
            owner = importlib.import_module(f"barylab.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, original, COUNTERS.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, index, fn, counter):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if calls[index] <= SPAN_CAP:
                    spans.append((index, start, end, stack[-1][0] if stack else -1))
                if counter is not None:
                    counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self):
        """Flat {metric name: value}: `<name>.calls`, `<name>.self_s`, counts."""
        out = {}
        for name, n, s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = s
        out.update(self.counts)
        return out

    def write_spans(self, path, worker):
        """Append this worker's spans as JSON lines, then one aggregate line
        per traced function; every line names the worker."""
        with open(path, "a") as f:
            for index, start, end, parent in self.spans:
                f.write(json.dumps({
                    "worker": worker, "name": self.names[index], "start": start,
                    "end": end,
                    "parent": self.names[parent] if parent >= 0 else None}) + "\n")
            for name, n, s in zip(self.names, self.calls, self.self_s):
                f.write(json.dumps({"worker": worker, "aggregate": name,
                                    "calls": n, "self_s": s}) + "\n")
