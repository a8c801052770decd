"""Minimax barycenters: b with d(b,p) <= lambda*diam(P) for all p in P and
d(b,q) <= diam({q} u P) for all q in Q.

solve_barycenter certifies existence on a dense grid (the max-distance
objective is 1-Lipschitz, so non-existence is certified down to the grid's
covering radius) and polishes the best cells with minimax_descent, the
ball-intersection descent that the nerve's margins use too.  The
closed-form rules implement the midpoint construction for CAT(0) kinds and
the shortest-arc midpoint on the circle; the circle rule's 1/2 bound is exact
in the intrinsic arc metric, which the certificate records as metric="arc".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .errors import (
    DiameterTooLarge,
    GeometryError,
    ModelSpaceViolation,
)

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def lambda_of(space, b, P):
    """Minimal lambda for which b is a lambda-barycenter of P."""
    D = spaces.pairwise_diameter(space, P)
    if D <= 0.0:
        raise GeometryError("lambda undefined for diam(P) = 0")
    if space.kind == spaces.FINITE:
        return max(spaces.distance(space, b, p) for p in P) / D
    return float(np.max(spaces.distances_to(space, np.asarray(P, float), b))) / D


def relative_slacks(space, b, P, Q):
    """diam({q} u P) - d(b, q) per q; nonnegative means the constraint holds."""
    if not Q:
        return []
    D = spaces.pairwise_diameter(space, P)
    if space.kind == spaces.FINITE:
        out = []
        for q in Q:
            dq = max(spaces.distance(space, q, p) for p in P)
            out.append(max(D, dq) - spaces.distance(space, b, q))
        return out
    P_arr = np.asarray(P, float)
    Q_arr = np.asarray(Q, float)
    qp_max = np.max(spaces.cross_distances(space, Q_arr, P_arr), axis=1)
    d_bq = spaces.distances_to(space, Q_arr, b)
    return list(np.maximum(D, qp_max) - d_bq)


@dataclass
class SearchRegion:
    """Ball region or an explicit candidate set (e.g. a sampled curve)."""

    kind: str  # "ball" | "candidates"
    center: np.ndarray | None = None
    radius: float = 0.0
    candidates: list = field(default_factory=list)
    resolution: float = 0.0  # covering radius of explicit candidates

    @staticmethod
    def ball(center, radius):
        return SearchRegion("ball", center=np.asarray(center, float), radius=radius)

    @staticmethod
    def explicit(candidates, resolution):
        return SearchRegion("candidates", candidates=list(candidates),
                            resolution=resolution)


@dataclass
class BarycenterProblem:
    space: spaces.ModelSpace
    P: list
    Q: list
    region: SearchRegion | None = None

    def to_json(self):
        def pts(v):
            return [list(p) if not isinstance(p, int) else p for p in v]
        return {"space": self.space.to_json(), "P": pts(self.P), "Q": pts(self.Q)}


@dataclass
class BarycenterCertificate:
    status: str  # "found" | "not_found_below" | "indeterminate"
    requested_lambda: float
    point: object = None
    achieved_lambda: float | None = None
    lambda_bound: float | None = None
    relative_slacks: list = field(default_factory=list)
    grid_resolution: float | None = None
    diam_P: float = 0.0
    metric: str = "space"  # "arc" for the circle arc rule
    reason: str | None = None  # why an indeterminate search stopped

    @property
    def found(self):
        return self.status == "found"

    def to_json(self):
        pt = self.point
        if pt is not None and not isinstance(pt, int):
            pt = [float(x) for x in pt]
        doc = {
            "schema_version": 1,
            "status": self.status,
            "requested_lambda": self.requested_lambda,
            "point": pt,
            "achieved_lambda": self.achieved_lambda,
            "lambda_bound": self.lambda_bound,
            "relative_slacks": [float(s) for s in self.relative_slacks],
            "grid_resolution": self.grid_resolution,
            "diam_P": self.diam_P,
            "metric": self.metric,
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


# ---------------------------------------------------------------------------
# candidate grids

# Most candidates one grid may hold, checked from the grid's size formula
# before anything is allocated; a larger grid, the refined one included,
# makes the solve indeterminate.  It sits above the largest grid the tests
# and the benchmark build (2,968,729 mesh points) and below the 10.9 M mesh
# that exhausts memory on the plane-row instance of phase trial seed 47.
GRID_BUDGET = 4_000_000


class _OverBudget(Exception):
    """A candidate grid would hold more than GRID_BUDGET points."""


def _check_budget(count, what):
    if count > GRID_BUDGET:
        raise _OverBudget(f"{what} grid needs {count} candidates, over the "
                          f"budget of {GRID_BUDGET}")


def _euclidean_grid(center, radius, h, k):
    """Mesh of spacing h over [-k h, k h]^n around center, clipped to the
    ball of radius radius + h."""
    axes = [np.arange(-k, k + 1) * h + c for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(pts - center[None, :], axis=1) <= radius + h
    return pts[keep]


def _circle_grid(space, m):
    thetas = np.arange(m) * (2.0 * math.pi / m)
    return np.stack([space.radius * np.cos(thetas),
                     space.radius * np.sin(thetas)], axis=1)


def _hyperboloid_rings(space, radius, rho):
    """(h, points per ring) of the geodesic polar grid; radial and angular
    spacings <= rho/sqrt(2).  Stops at the first ring over the budget."""
    if space.dim != 2:
        raise ValueError("hyperboloid grid search implemented for dim 2")
    h = rho / math.sqrt(2.0)
    sizes, count = [], 1
    for k in range(1, int(math.ceil(radius / h)) + 1):
        sizes.append(max(6, int(math.ceil(2.0 * math.pi * math.sinh(k * h) / h))))
        count += sizes[-1]
        _check_budget(count, "hyperboloid")
    return h, sizes


def _hyperboloid_grid(center, h, sizes):
    c = np.asarray(center, float)
    pts = [c[None, :]]
    e1, e2 = spaces.hyperboloid_tangent_frame(c)
    for k, m in enumerate(sizes, start=1):
        s = k * h
        ang = np.arange(m) * (2.0 * math.pi / m)
        u = np.outer(np.cos(ang), e1) + np.outer(np.sin(ang), e2)
        pts.append(math.cosh(s) * c[None, :] + math.sinh(s) * u)
    return np.concatenate(pts)


def _candidate_grid(prob, rho):
    """Return (candidate array, covering radius).  Raises _OverBudget, from
    the grid's size formula, before a grid over GRID_BUDGET is allocated."""
    space = prob.space
    if prob.region is not None and prob.region.kind == "candidates":
        return np.asarray(prob.region.candidates), prob.region.resolution
    if space.kind == spaces.FINITE:
        return np.arange(space.dim), 0.0
    if space.kind == spaces.CIRCLE:
        dtheta = 2.0 * rho / space.radius  # chordal covering radius <= rho
        m = max(8, int(math.ceil(2.0 * math.pi / dtheta)))
        _check_budget(m, "circle")
        return _circle_grid(space, m), rho
    if prob.region is not None and prob.region.kind == "ball":
        center, radius = prob.region.center, prob.region.radius
    else:
        center = np.asarray(prob.P[0], float)
        radius = spaces.pairwise_diameter(space, list(prob.P) + list(prob.Q))
    if space.kind == spaces.EUCLIDEAN:
        h = 2.0 * rho / math.sqrt(len(center))  # covering radius h*sqrt(n)/2 = rho
        k = int(math.ceil(radius / h))
        _check_budget((2 * k + 1) ** len(center), "euclidean")
        return _euclidean_grid(center, radius, h, k), rho
    if space.kind == spaces.HYPERBOLOID:
        h, sizes = _hyperboloid_rings(space, radius, rho)
        return _hyperboloid_grid(center, h, sizes), rho
    raise ValueError(f"no grid strategy for space kind {space.kind}; "
                     "supply an explicit candidate region")


DESCENT_STEPS = 1000  # geodesic steps per minimax descent
DESCENT_MIN_STEP = 1e-3  # floor of the first step length


def minimax_descent(space, centers, radii, start):
    """Locally minimize f(x) = max_i d(x, c_i) - r_i by geodesic subgradient
    steps toward the worst centre; returns (f(x), x) at the best x reached.

    f <= 0 means x lies in every closed ball B(c_i, r_i).  The descent stops
    once f < -10 tol, the certified-nonempty threshold, when x reaches the
    worst centre, when the step length underflows, or after DESCENT_STEPS
    steps.  f is geodesically convex in CAT(0) kinds, where the local minimum
    is global.
    """
    x = np.asarray(start, float)
    vals = spaces.distances_to(space, centers, x) - radii
    best = float(np.max(vals))
    step = max(best - float(np.min(vals)), DESCENT_MIN_STEP)
    for _ in range(DESCENT_STEPS):
        if best < -10 * space.tol:
            break
        i = int(np.argmax(vals))
        d_i = vals[i] + radii[i]
        if d_i <= 0.0:
            break
        cand = spaces.geodesic_point(space, x, centers[i], min(step, 0.9 * d_i))
        cand_vals = spaces.distances_to(space, centers, cand) - radii
        cand_best = float(np.max(cand_vals))
        if cand_best < best - 1e-15:
            x, vals, best = cand, cand_vals, cand_best
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return best, x


def solve_barycenter(prob, lam, rho=None, refine=True):
    """Grid-certified search for a lambda-barycenter of P relative to Q.

    A lambda-barycenter is a point of the ball intersection of B(p, lam D)
    over P and B(q, max(D, d(q, P))) over Q, so the grid scores and the
    polish minimize the same objective as minimax_descent.  Returns found
    (with the point and its slacks), not_found_below (with the
    grid-certified bound), or indeterminate (caller should refine rho).
    """
    space = prob.space
    P = list(prob.P)
    Q = list(prob.Q)
    if not P:
        raise GeometryError("P must be nonempty")
    D = spaces.pairwise_diameter(space, P)
    tol = space.tol
    if D <= tol:
        b = P[0]
        return BarycenterCertificate(
            "found", lam, point=b, achieved_lambda=0.0,
            relative_slacks=relative_slacks(space, b, P, Q),
            grid_resolution=0.0, diam_P=D)
    if rho is None:
        rho = D / 200.0

    q_radii = np.maximum(D, np.max(spaces.cross_distances(space, Q, P), axis=1)) \
        if Q else np.zeros(0)
    radii = np.concatenate([np.full(len(P), lam * D), q_radii])

    try:
        candidates, rho_cov = _candidate_grid(prob, rho)
    except _OverBudget as exc:
        return BarycenterCertificate("indeterminate", lam, diam_P=D,
                                     reason=str(exc))
    max_p = np.full(len(candidates), -np.inf)
    for p in P:
        max_p = np.maximum(max_p, spaces.distances_to(space, candidates, p))
    rel_viol = np.full(len(candidates), -np.inf)
    for q, r in zip(Q, q_radii):
        rel_viol = np.maximum(rel_viol, spaces.distances_to(space, candidates, q) - r)

    total_viol = np.maximum(max_p - lam * D, rel_viol)
    order = np.argsort(total_viol, kind="stable")

    if space.kind == spaces.FINITE:
        # finite points cannot move, so the best grid score is final
        best_b, best_val = int(candidates[order[0]]), float(total_viol[order[0]])
    else:
        # polish the most promising cells
        centers = np.asarray(P + Q, float)
        best_val, best_b = min(
            (minimax_descent(space, centers, radii, candidates[int(i)])
             for i in order[:3]), key=lambda res: res[0])

    if best_val <= tol:
        ach = lambda_of(space, best_b, P)
        slacks = relative_slacks(space, best_b, P, Q)
        if ach <= lam + tol and min(slacks, default=0.0) >= -tol:
            return BarycenterCertificate(
                "found", lam, point=best_b, achieved_lambda=ach,
                relative_slacks=slacks, grid_resolution=rho_cov, diam_P=D)

    # certified non-existence: every grid candidate violates something by
    # more than the per-cell Lipschitz variation
    rel_ok = rel_viol <= rho_cov
    if np.any(rel_ok):
        lam_bound = float(np.min(max_p[rel_ok] - rho_cov)) / D
    else:
        lam_bound = 1.0
    lam_bound = max(0.0, lam_bound)
    if lam < lam_bound - tol:
        return BarycenterCertificate(
            "not_found_below", lam, lambda_bound=lam_bound,
            grid_resolution=rho_cov, diam_P=D)

    reason = None
    if refine:
        fine = solve_barycenter(prob, lam, rho=rho / 10.0, refine=False)
        if fine.reason is None:
            return fine
        reason = fine.reason  # keep this grid's bound: the finer one is unbuilt
    return BarycenterCertificate(
        "indeterminate", lam, lambda_bound=lam_bound,
        grid_resolution=rho_cov, diam_P=D, reason=reason)


# ---------------------------------------------------------------------------
# closed-form rules


def diameter_midpoints(space, P):
    """Diameter-pair midpoints of a stack of point sets P, shape (n, m, ambient).

    Per set: its diameter D, realized by the lex-least pair i < j (the first
    maximum of the masked distance matrix), and the geodesic midpoint of that
    pair, or None where D <= tol.  D comes from the cross-distance kernel and
    each midpoint from the scalar geodesic_point, so a set gets the same bits
    alone or in a stack.
    """
    n, m = P.shape[:2]
    M = spaces.paired_distances(space, P[:, :, None], P[:, None, :])
    M[:, np.tri(m, dtype=bool)] = -np.inf  # keep i < j, first max is lex-least
    i, j = np.divmod(np.argmax(M.reshape(n, m * m), axis=1), m)
    D = M[np.arange(n), i, j]
    mids = [spaces.geodesic_point(space, P[r, i[r]], P[r, j[r]], 0.5 * float(D[r]))
            if D[r] > space.tol else None for r in range(n)]
    return D, mids


def cat0_midpoint_rule(space, P, Q):
    """Midpoint of a diameter-realizing pair: a sqrt(3)/2-barycenter of P
    relative to Q in any CAT(0) kind.  Assertion failure signals a bug."""
    if not space.is_cat0:
        raise ValueError(f"space kind {space.kind} is not a CAT(0) kind")
    P = list(P)
    Q = list(Q)
    tol = space.tol
    D, (b,) = diameter_midpoints(space, np.asarray(P, float)[None])
    best_d = float(D[0])
    if b is None:
        b = P[0]
        return BarycenterCertificate(
            "found", SQRT3_OVER_2, point=b, achieved_lambda=0.0,
            relative_slacks=relative_slacks(space, b, P, Q),
            grid_resolution=0.0, diam_P=max(best_d, 0.0))
    ach = lambda_of(space, b, P)
    slacks = relative_slacks(space, b, P, Q)
    if ach > SQRT3_OVER_2 + tol or (slacks and min(slacks) < -tol):
        raise ModelSpaceViolation(
            f"midpoint rule bound failed: lambda={ach}, min slack="
            f"{min(slacks) if slacks else 0.0}; the bound is guaranteed in "
            "CAT(0) kinds, so this signals a bug")
    return BarycenterCertificate(
        "found", SQRT3_OVER_2, point=b, achieved_lambda=ach,
        relative_slacks=slacks, grid_resolution=0.0, diam_P=best_d)


def _minimal_covering_arc(space, P):
    """(midpoint angle, angular width) of the smallest closed arc containing P."""
    angles = sorted(spaces.circle_angle(space, p) for p in P)
    m = len(angles)
    if m == 1:
        return angles[0], 0.0
    best_gap, best_i = -1.0, 0
    for i in range(m):
        nxt = angles[(i + 1) % m] + (2.0 * math.pi if i == m - 1 else 0.0)
        gap = nxt - angles[i]
        if gap > best_gap:
            best_gap, best_i = gap, i
    start = angles[(best_i + 1) % m]
    width = 2.0 * math.pi - best_gap
    return start + 0.5 * width, width


def circle_arc_rule(space, P, Q):
    """Midpoint of the shortest arc containing P: a 1/2-barycenter of P
    relative to Q in the intrinsic arc metric, valid when the diameter
    precondition Delta < (sqrt(3)/2) r holds (chordal diameters)."""
    if space.kind != spaces.CIRCLE:
        raise ValueError("circle_arc_rule needs a circle space")
    P = list(P)
    Q = list(Q)
    tol = space.tol
    r = space.radius
    delta_req = max(spaces.pairwise_diameter(space, P),
                    0.5 * spaces.pairwise_diameter(space, P + Q))
    if delta_req >= SQRT3_OVER_2 * r - tol:
        raise DiameterTooLarge(
            f"diameter requirement {delta_req} >= (sqrt(3)/2) r = {SQRT3_OVER_2 * r}")
    mid_angle, width = _minimal_covering_arc(space, P)
    b = spaces.circle_point(space, mid_angle)
    arc_diam_P = max((spaces.arc_distance(space, p1, p2)
                      for i, p1 in enumerate(P) for p2 in P[i + 1:]), default=0.0)
    if arc_diam_P <= tol:
        b = P[0]
        return BarycenterCertificate(
            "found", 0.5, point=b, achieved_lambda=0.0,
            relative_slacks=relative_slacks(space, b, P, Q),
            grid_resolution=0.0, diam_P=spaces.pairwise_diameter(space, P),
            metric="arc")
    ach = max(spaces.arc_distance(space, b, p) for p in P) / arc_diam_P
    slacks = []
    for q in Q:
        arc_diam_qP = max(arc_diam_P,
                          max(spaces.arc_distance(space, q, p) for p in P))
        slacks.append(arc_diam_qP - spaces.arc_distance(space, b, q))
    if ach > 0.5 + tol or (slacks and min(slacks) < -tol):
        raise ModelSpaceViolation(
            f"arc midpoint rule failed: lambda={ach}, min slack="
            f"{min(slacks) if slacks else 0.0}")
    return BarycenterCertificate(
        "found", 0.5, point=b, achieved_lambda=ach, relative_slacks=slacks,
        grid_resolution=0.0, diam_P=spaces.pairwise_diameter(space, P),
        metric="arc")


# ---------------------------------------------------------------------------
# sampling report


@dataclass
class SampleReport:
    space: spaces.ModelSpace
    lam: float
    delta: float
    trials: int
    passes: int
    failures: list
    worst: dict | None
    seed: int

    @property
    def pass_rate(self):
        return self.passes / self.trials if self.trials else 0.0

    def to_json(self):
        return {
            "schema_version": 1,
            "space": self.space.to_json(),
            "lambda": self.lam,
            "delta": self.delta,
            "trials": self.trials,
            "passes": self.passes,
            "pass_rate": self.pass_rate,
            "failures": self.failures,
            "worst": self.worst,
            "seed": self.seed,
        }


def _sample_sets(space, rng, delta):
    n_p = int(rng.integers(2, 7))
    n_q = int(rng.integers(0, 7))
    if space.kind == spaces.EUCLIDEAN:
        base = rng.normal(size=space.dim) * delta
        P = [base + _ball_dir(rng, space.dim) * rng.uniform(0, delta / 2)
             for _ in range(n_p)]
        Q = [base + _ball_dir(rng, space.dim) * rng.uniform(0, delta)
             for _ in range(n_q)]
        return P, Q
    if space.kind == spaces.HYPERBOLOID:
        base = np.zeros(space.dim + 1)
        base[0] = 1.0
        P = [_hyp_offset(space, base, rng, delta / 2) for _ in range(n_p)]
        Q = [_hyp_offset(space, base, rng, delta) for _ in range(n_q)]
        return P, Q
    if space.kind == spaces.CIRCLE:
        r = space.radius
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        a_p = math.asin(min(1.0, delta / (2.0 * r)))
        a_q = 2.0 * math.asin(min(1.0, delta / (2.0 * r)))
        P = [spaces.circle_point(space, theta0 + rng.uniform(-a_p, a_p))
             for _ in range(n_p)]
        Q = [spaces.circle_point(space, theta0 + rng.uniform(-a_q, a_q))
             for _ in range(n_q)]
        return P, Q
    raise ValueError(f"sampling not implemented for kind {space.kind}")


def _ball_dir(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _hyp_offset(space, base, rng, radius):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.0, radius)
    u = np.array([0.0, math.cos(theta), math.sin(theta)])
    return math.cosh(s) * base + math.sinh(s) * u


def _run_trial(space, P, Q, lam):
    """Route one trial through the closed-form rules or the grid solver."""
    if space.kind == spaces.CIRCLE and lam >= 0.5:
        try:
            return circle_arc_rule(space, P, Q)
        except DiameterTooLarge:
            pass
    if space.is_cat0 and lam >= SQRT3_OVER_2 - space.tol:
        return cat0_midpoint_rule(space, P, Q)
    return solve_barycenter(BarycenterProblem(space, P, Q), lam)


def has_barycenters_sample(space, lam, delta, trials, seed):
    """Sampled check of "Z has lambda-barycenters up to diameter delta":
    diam(P) <= delta, diam(P u Q) <= 2*delta, solve each instance.

    When delta admits an equidistant triple (sqrt(3) r <= delta on the
    circle), that witness is planted as the first trial.
    """
    rng = np.random.default_rng(seed)
    planted = []
    if space.kind == spaces.CIRCLE and math.sqrt(3.0) * space.radius <= delta + space.tol:
        planted.append(([spaces.circle_point(space, 2.0 * math.pi * k / 3.0)
                         for k in range(3)], []))
    passes = 0
    failures = []
    worst = None
    worst_margin = math.inf
    for t in range(trials):
        if t < len(planted):
            P, Q = planted[t]
        else:
            P, Q = _sample_sets(space, rng, delta)
        cert = _run_trial(space, P, Q, lam)
        ok = cert.found and cert.achieved_lambda <= lam + space.tol
        margin = (lam - cert.achieved_lambda) if cert.found else -math.inf
        if cert.found and cert.relative_slacks:
            ok = ok and min(cert.relative_slacks) >= -space.tol
        if ok:
            passes += 1
        else:
            failures.append({"trial": t, "certificate": cert.to_json()})
        if margin < worst_margin:
            worst_margin = margin
            worst = {"trial": t, "certificate": cert.to_json()}
    return SampleReport(space, lam, delta, trials, passes, failures, worst, seed)


def load_problem(doc):
    """Problem JSON: {"space":..., "P":[[..]], "Q":[[..]], "lambda":..., "Delta":...}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    space = spaces.ModelSpace.from_json(doc["space"])
    P = [space.point(p) for p in doc["P"]]
    Q = [space.point(q) for q in doc.get("Q", [])]
    return BarycenterProblem(space, P, Q), doc
