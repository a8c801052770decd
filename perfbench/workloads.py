"""Workload definitions: the inputs of every operation, made from the seed.

An operation is what a user waits for.  A *pass* is the ordered list of
operations one run repeats:

* pipeline workloads (`flagship`, `euclid_oracle`, `flagship_full`): one pass
  is one `barylab retract` run on a scene preset;
* `phase_sweep`: one pass is a barycenter sweep, one operation per trial,
  each trial a call of `barycenters.has_barycenters_sample(space, lambda,
  delta, 1, trial_seed)`, the call `barylab phase` makes per row.
"""

from __future__ import annotations

import random

# name -> (scene preset, preset overrides, density).  `flagship` is the
# hyperbolic_axis preset of acceptance criterion 7 with its window (one boost
# period) halved from 4.0 to 2.0: the same layers and per-element work, at
# half the elements, so that every run of it stays well inside the
# benchmark's time budget.  `flagship_full` is the unchanged criterion-7
# run; it is not listed in BENCHMARK.json and reproduces the full-size
# baseline counts.
PIPELINES = {
    "flagship": ("hyperbolic_axis", {"period": 2.0}, 200),
    "euclid_oracle": ("euclidean_point", {}, 1000),
    "flagship_full": ("hyperbolic_axis", {}, 200),
}

CIRCLE = {"kind": "circle", "radius": 1.0}
PLANE = {"kind": "euclidean", "dim": 2}
HYPERBOLIC_PLANE = {"kind": "hyperboloid", "dim": 2}

# (route, space, lambda, delta, trials): an int draws that many trial seeds
# from the workload seed; a range is a fixed instance pool.  The two planar
# grid rows cost from 0.05 s to 7 s per instance, so a handful of seeded
# draws per run could not give a steady wall time; they use fixed pools.
# The circle-grid row uses one too: its slowest instances set the 90th
# percentile, and seeded draws of them moved it by a quarter between seeds.
# The plane pool holds trial seed 47, the known unbounded-grid instance that
# raises MemoryError under the address-space cap.  The counts put both the
# median and the 90th percentile inside the circle-grid group (its 38th and
# 93rd percentiles): the 60 arc-rule trials lie below it, the 14 planar
# grid trials mostly above it.
PHASE_ROWS = [
    ("circle_grid", CIRCLE, 0.45, 0.8, range(0, 200)),
    ("plane_grid", PLANE, 0.7, 1.0, range(40, 51)),
    ("hyperbolic_grid", HYPERBOLIC_PLANE, 0.8, 0.5, range(0, 3)),
    ("circle_arc", CIRCLE, 0.5, 0.8, 60),
]

# Instances that run in a worker of their own, as (route, trial seed).  Trial
# 47 of the plane row grows its grid until the address-space cap stops it; a
# worker that ran it reports the cap as its peak RSS, whatever the other
# trials use.  It stays in the sweep and in the failure denominator.
OWN_WORKER = {("plane_grid", 47)}

NAMES = [*PIPELINES, "phase_sweep"]


def phase_trials(seed):
    """The sweep for one workload seed: [(route, space, lambda, delta, trial
    seed)] in a seeded order, which spreads every row over the whole pass so
    that no row is timed only during one stretch of the host's speed."""
    rng = random.Random(seed)
    trials = []
    for route, space, lam, delta, spec in PHASE_ROWS:
        seeds = spec if isinstance(spec, range) else [
            rng.randrange(2**31) for _ in range(spec)]
        trials.extend((route, space, lam, delta, s) for s in seeds)
    rng.shuffle(trials)
    return trials


def worker_groups(workload, seed):
    """A pass's operation indices, one list per worker, in the order they
    run: every operation in seeded order, except the OWN_WORKER instances,
    which follow, each in a fresh worker."""
    if workload in PIPELINES:
        return [[0]]
    trials = phase_trials(seed)
    alone = [i for i, (route, *_, s) in enumerate(trials) if (route, s) in OWN_WORKER]
    return [[i for i in range(len(trials)) if i not in alone], *([i] for i in alone)]


def pipeline_input(name):
    """(retract input document, density) for a pipeline workload."""
    scene, overrides, density = PIPELINES[name]
    return {"scene": scene, "overrides": overrides}, density
