"""Output checks: a fast wrong answer counts as a failed operation.

`check_report` compares a `barylab retract` report with the reference report
kept in `perfbench/reference/`.  `check_certificate` re-validates one phase
trial's certificate independently of the solver that produced it.  Each
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from barylab import barycenters, spaces

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REPORT_TOL = 1e-12


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)


def _compare(got, want, path, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ")
            return
        for key in sorted(want):
            _compare(got[key], want[key], f"{path}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", problems)
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want or type(got) is not type(want):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            problems.append(f"{path}: {got!r} is not a number")
        elif math.isnan(want) or math.isinf(want):
            if not (got == want or (math.isnan(want) and math.isnan(got))):
                problems.append(f"{path}: {got!r} != {want!r}")
        elif not abs(got - want) <= REPORT_TOL:
            problems.append(f"{path}: {got!r} differs from {want!r} "
                            f"by {abs(got - want):.3g}")
    else:
        problems.append(f"{path}: unexpected value {want!r}")


def check_report(report, reference, exit_code, seed):
    """Exit code 0, every gate true, and every field within 1e-12 of the
    reference.  The report is seed-invariant apart from its `seed` field
    (the seed only picks multistart points of certified margins), so one
    reference serves every workload seed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("ok") is not True:
        problems.append("report not ok")
    gates = report.get("gates") or {}
    problems += [f"gate {k} is false" for k, v in sorted(gates.items()) if v is not True]
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r} != {seed}")
    got = {k: v for k, v in report.items() if k != "seed"}
    want = {k: v for k, v in reference.items() if k != "seed"}
    _compare(got, want, "report", problems)
    return problems


def trial_instance(space, delta, trial_seed):
    """Replay the (P, Q) instance that has_barycenters_sample draws first for
    `trial_seed` (no witness is planted at the deltas the sweep uses)."""
    rng = np.random.default_rng(trial_seed)
    return barycenters._sample_sets(space, rng, delta)


def check_certificate(space, lam, P, Q, cert):
    """Re-validate a certificate (its JSON form) for the instance (P, Q).

    found: re-checked with the public lambda_of and relative_slacks at
    space.tol; a circle arc-rule certificate (metric "arc") claims its bound
    in the arc metric, so it is re-checked with arc distances.
    not_found_below: the certified bound must exceed lambda.
    indeterminate: undecided, never a problem.
    Returns (problems, decided).
    """
    status = cert.get("status")
    tol = space.tol
    diam_P = spaces.pairwise_diameter(space, P)
    if not abs(cert.get("diam_P", math.nan) - diam_P) <= 1e-9:
        return [f"certificate diam_P {cert.get('diam_P')!r} does not match "
                f"the replayed instance ({diam_P!r})"], False
    if status == "indeterminate":
        return [], False
    if status == "not_found_below":
        bound = cert.get("lambda_bound")
        if bound is None or not bound > lam:
            return [f"not_found_below with lambda_bound {bound!r} <= {lam}"], True
        return [], True
    if status != "found":
        return [f"unknown status {status!r}"], False
    b = np.asarray(cert["point"], float)
    if cert.get("metric") == "arc":
        arc = lambda x, y: spaces.arc_distance(space, x, y)  # noqa: E731
        diam = max((arc(p, p2) for i, p in enumerate(P) for p2 in P[i + 1:]),
                   default=0.0)
        if diam <= tol:
            return [], True
        achieved = max(arc(b, p) for p in P) / diam
        slacks = [max(diam, max(arc(q, p) for p in P)) - arc(b, q) for q in Q]
    else:
        if diam_P <= tol:
            return [], True
        achieved = barycenters.lambda_of(space, b, P)
        slacks = barycenters.relative_slacks(space, b, P, Q)
    problems = []
    if achieved > lam + tol:
        problems.append(f"found point has lambda {achieved!r} > {lam}")
    if slacks and min(slacks) < -tol:
        problems.append(f"found point violates Q by {-min(slacks)!r}")
    return problems, True
