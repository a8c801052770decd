"""Minimax barycenters: b with d(b,p) <= lambda*diam(P) for all p in P and
d(b,q) <= diam({q} u P) for all q in Q.

solve_barycenter is exact in every kind it accepts.  In the CAT(0) kinds
minimax_solve returns a primal witness and dual weights whose closed-form
bound (dual_bound) certifies non-existence, and the nerve's ball-intersection
test uses the same solver.  Circle and finite problems take the least value
over a finite candidate set that holds every critical point.  The closed-form
rules implement the midpoint construction for CAT(0) kinds and the
shortest-arc midpoint on the circle; the circle rule's 1/2 bound is exact in
the intrinsic arc metric, which the certificate records as metric="arc".
"""

from __future__ import annotations

import itertools
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
class BarycenterProblem:
    space: spaces.ModelSpace
    P: list
    Q: list


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
    weights: list | None = None  # dual weights over P then Q (exact solver)

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
        if self.weights is not None:
            doc["weights"] = self.weights
        return doc


# ---------------------------------------------------------------------------
# exact primal-dual solver (Euclidean and hyperboloid kinds)
#
# Both kinds pose one LP-type problem of combinatorial dimension n + 1
# (Matousek-Sharir-Welzl 1996): minimise s subject to q_i(x) <= beta_i + a_i s,
# where q_i(x) = |x - c_i|^2 in R^n and q_i(x) = -<x, c_i> in H^n, relaxed
# to the solid cone {-<x, x> >= 1, x0 > 0}.  The relaxation is exact, because
# moving a future timelike x onto the sheet only lowers each -<x, c_i>.  Any
# weights w >= 0 with sum a_i w_i = 1 give the Lagrangian lower bound
# dual_bound <= s*, and the optimal basis attains it.


@dataclass
class MinimaxSolution:
    point: np.ndarray  # primal witness
    weights: np.ndarray  # dual certificate, one weight per constraint
    bound: float  # dual_bound of the weights: s* >= bound


def _quad(space, diff):
    """q_i(x) from d = x - c_i: |d|^2 in R^n, and 1 + <d, d>_M / 2 in H^n,
    which equals -<x, c_i> on the sheet without its cancellation."""
    if space.kind == spaces.EUCLIDEAN:
        return np.sum(diff * diff, axis=-1)
    return 1.0 + 0.5 * (np.sum(diff[..., 1:] ** 2, axis=-1) - diff[..., 0] ** 2)


def dual_bound(space, centers, beta, weights):
    """The closed-form lower bound on s* of weights w >= 0 with
    sum a_i w_i = 1: sum w_i |c_i - cbar|^2 - sum w_i beta_i in R^n, with
    cbar = sum w_i c_i / sum w_i, and sqrt(-<v, v>) - sum w_i beta_i in H^n,
    with v = sum w_i c_i."""
    C = np.asarray(centers, float)
    w = np.asarray(weights, float)
    v = w @ C
    if space.kind == spaces.EUCLIDEAN:
        spread = float(w @ np.sum((C - v / np.sum(w)) ** 2, axis=1))
    else:
        spread = math.sqrt(max(v[0] * v[0] - float(v[1:] @ v[1:]), 0.0))
    return spread - float(w @ np.asarray(beta, float))


def _solve_stack(A, B):
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:  # some subset is singular: it gives no candidate
        out = np.full(B.shape, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], B[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _basis_weights(space, G, beta, a, subsets):
    """Candidate dual weights, one row per root of the KKT system of each row
    of `subsets` (k constraint indices): the k constraints are active at the
    point x(w) that minimises the Lagrangian, and w is supported on them.
    G[i, j] = q_i(c_j).  Rows that are not w >= 0 are dropped."""
    r, k = subsets.shape
    Gb = G[subsets[:, :, None], subsets[:, None, :]]
    bb, ab = beta[subsets], a[subsets]
    rhs = np.stack([bb, ab], axis=2)
    if space.kind == spaces.EUCLIDEAN:
        # x = sum l_j c_j with sum l_j = 1 gives |x - c_i|^2 = (G l)_i - z with
        # z = l'Gl / 2; solve for (l, z) = (l0, z0) + s (l1, z1), then for s
        A = np.zeros((r, k + 1, k + 1))
        A[:, :k, :k] = Gb
        A[:, :k, k] = -1.0
        A[:, k, :k] = 1.0
        rhs = np.concatenate([rhs, np.broadcast_to([[[1.0, 0.0]]], (r, 1, 2))], axis=1)
        Y = _solve_stack(A, rhs)
        l0, l1 = Y[:, :k, 0], Y[:, :k, 1]
        qa, qb = 0.5 * np.sum(l1 * ab, 1), np.sum(l0 * ab, 1)
        qc = 0.5 * (np.sum(l0 * bb, 1) - Y[:, k, 0])
    else:
        # x = sum u_j c_j with u'Gu = 1 gives -<x, c_i> = (G u)_i
        Y = _solve_stack(Gb, rhs)
        l0, l1 = Y[..., 0], Y[..., 1]
        qa, qb, qc = np.sum(l1 * ab, 1), 2.0 * np.sum(l0 * ab, 1), np.sum(l0 * bb, 1) - 1.0
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    h = -0.5 * (qb + np.copysign(root, qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.concatenate([h / qa, qc / h])
        lam = np.tile(l0, (2, 1)) + s[:, None] * np.tile(l1, (2, 1))
        ok = np.all(np.isfinite(lam), axis=1) & \
            (np.min(lam, axis=1) >= -1e-9 * np.max(np.abs(lam), axis=1))
    W = np.zeros((int(np.sum(ok)), len(beta)))
    np.put_along_axis(W, np.tile(subsets, (2, 1))[ok], np.maximum(lam[ok], 0.0), axis=1)
    mass = W @ a
    return W[mass > 0] / mass[mass > 0, None]


def minimax_solve(space, centers, beta, a):
    """Exact primal-dual solution of min s subject to q_i(x) <= beta_i + a_i s
    in a Euclidean or hyperboloid space; some a_i must be positive.

    A basis-and-violator iteration: the optimum of a working set is its best
    dual candidate over subsets of at most n + 1 constraints (every
    candidate's value is a lower bound on s*, and the optimal basis attains
    it); the next working set is that optimum's support plus the most
    violated constraint.  The witness minimises the Lagrangian of the best
    weights: their mean sum w_i c_i / sum w_i in R^n, v / sqrt(-<v, v>) in H^n.
    """
    C = np.asarray(centers, float)
    beta = np.asarray(beta, float)
    a = np.asarray(a, float)
    m = len(C)
    euclid = space.kind == spaces.EUCLIDEAN
    G = _quad(space, C[:, None] - C[None])
    slack = 1e-12 * max(float(np.max(np.abs(G))), float(np.max(np.abs(beta))))
    work = list(range(min(m, space.dim + 2)))
    for _ in range(4 * m):
        W = []
        for k in range(1, min(len(work), space.dim + 1) + 1):
            subsets = [c for c in itertools.combinations(work, k) if np.any(a[list(c)] > 0)]
            if subsets:
                W.append(_basis_weights(space, G, beta, a, np.array(subsets)))
        W = np.concatenate(W)
        quad = np.einsum("ri,ij,rj->r", W, G, W)
        with np.errstate(invalid="ignore"):
            vals = (quad / (2.0 * np.sum(W, 1)) if euclid else np.sqrt(quad)) - W @ beta
        best = int(np.argmax(np.where(np.isfinite(vals), vals, -np.inf)))
        w, s = W[best], float(vals[best])
        v = w @ C
        x = v / np.sum(w) if euclid else v / math.sqrt(v[0] * v[0] - float(v[1:] @ v[1:]))
        viol = _quad(space, C - x) - beta - a * s
        h = int(np.argmax(viol))
        if viol[h] <= slack or h in work:
            break
        work = sorted({*np.flatnonzero(w).tolist(), h})
    return MinimaxSolution(x, w, dual_bound(space, C, beta, w))


# ---------------------------------------------------------------------------
# exact critical-point search (circle and finite kinds)


def _circle_candidates(space, P, Q, q_radii):
    """Every point where max_p d(., p) can attain its minimum over the
    Q-feasible set of the circle: the points of P (all feasible), the point
    opposite the middle of each gap between consecutive P angles (chordal
    distance grows with the angle, and max_p angle(t, p) equals
    pi - min_p angle(t + pi, p), so these are the interior minima), and both
    ends of each q's feasible arc, which include every end of the feasible
    set."""
    R = space.radius
    P_arr = np.asarray(P, float)
    ang = np.sort(np.arctan2(P_arr[:, 1], P_arr[:, 0]))
    gaps = np.append(ang[1:], ang[0] + 2.0 * math.pi)
    thetas = [0.5 * (ang + gaps) + math.pi]
    if Q:
        Q_arr = np.asarray(Q, float)
        half = 2.0 * np.arcsin(np.minimum(1.0, q_radii / (2.0 * R)))
        tq = np.arctan2(Q_arr[:, 1], Q_arr[:, 0])
        thetas += [tq - half, tq + half]
    t = np.concatenate(thetas)
    return np.concatenate([P_arr, R * np.stack([np.cos(t), np.sin(t)], axis=1)])


def _critical_point_certificate(space, P, Q, q_radii, lam, D):
    """solve_barycenter for circle and finite problems: lambda* is the least
    max_p d / D over the candidates within tol of every Q ball, and its
    witness is the first candidate that attains it."""
    if space.kind == spaces.FINITE:
        cand = np.arange(space.dim)
    elif space.kind == spaces.CIRCLE:
        cand = _circle_candidates(space, P, Q, q_radii)
    else:
        raise ValueError(f"no barycenter solver for space kind {space.kind}")
    max_p = np.max(spaces.cross_distances(space, cand, P), axis=1)
    if Q:
        viol = np.max(spaces.cross_distances(space, cand, Q) - q_radii, axis=1)
        max_p = np.where(viol <= space.tol, max_p, np.inf)
    best = int(np.argmin(max_p))
    b = int(cand[best]) if space.kind == spaces.FINITE else cand[best]
    return _decide(space, P, Q, lam, D, b, float(max_p[best]) / D, grid_resolution=0.0)


def _decide(space, P, Q, lam, D, point, bound, **extra):
    """The certificate of a witness and a lower bound on lambda*: found if the
    public lambda_of and relative_slacks checks pass at tol, not_found_below
    if lam < bound - tol, otherwise indeterminate."""
    ach = lambda_of(space, point, P)
    slacks = relative_slacks(space, point, P, Q)
    tol = space.tol
    if ach <= lam + tol and min(slacks, default=0.0) >= -tol:
        return BarycenterCertificate(
            "found", lam, point=point, achieved_lambda=ach, lambda_bound=bound,
            relative_slacks=slacks, diam_P=D, **extra)
    if lam < bound - tol:
        return BarycenterCertificate("not_found_below", lam, lambda_bound=bound,
                                     diam_P=D, **extra)
    return BarycenterCertificate(
        "indeterminate", lam, lambda_bound=bound, diam_P=D,
        reason=f"lambda lies within tol of the optimum, between {bound!r} and {ach!r}",
        **extra)


def _exact_certificate(space, P, Q, q_radii, lam, D):
    """solve_barycenter for Euclidean and hyperboloid problems: P takes
    a = 1 and beta = 0, Q takes a = 0 and beta = r_q^2 (R^n) or cosh r_q (H^n)."""
    euclid = space.kind == spaces.EUCLIDEAN
    sol = minimax_solve(
        space, np.asarray(P + Q, float),
        np.concatenate([np.zeros(len(P)), q_radii ** 2 if euclid else np.cosh(q_radii)]),
        np.concatenate([np.ones(len(P)), np.zeros(len(Q))]))
    bound = (math.sqrt(max(sol.bound, 0.0)) if euclid
             else math.acosh(max(sol.bound, 1.0))) / D
    return _decide(space, P, Q, lam, D, sol.point, bound, weights=sol.weights.tolist())


def solve_barycenter(prob, lam):
    """Certified search for a lambda-barycenter of P relative to Q: a point of
    the balls B(p, lam D) over P and B(q, max(D, d(q, P))) over Q.

    Every kind is solved exactly: Euclidean and hyperboloid problems by
    minimax_solve (the certificate carries the dual weights over P then Q),
    circle and finite problems by their critical points.  The result is found
    (with the witness and its slacks) or not_found_below (with lambda_bound),
    and indeterminate only when lam lies within tol of the optimum.
    """
    space = prob.space
    P = list(prob.P)
    Q = list(prob.Q)
    if not P:
        raise GeometryError("P must be nonempty")
    D = spaces.pairwise_diameter(space, P)
    if D <= space.tol:
        b = P[0]
        return BarycenterCertificate(
            "found", lam, point=b, achieved_lambda=0.0,
            relative_slacks=relative_slacks(space, b, P, Q),
            grid_resolution=0.0, diam_P=D)
    q_radii = np.maximum(D, np.max(spaces.cross_distances(space, Q, P), axis=1)) \
        if Q else np.zeros(0)
    if space.is_cat0:
        return _exact_certificate(space, P, Q, q_radii, lam, D)
    return _critical_point_certificate(space, P, Q, q_radii, lam, D)


# ---------------------------------------------------------------------------
# closed-form rules


def diameter_midpoints(space, P):
    """Diameter-pair midpoints of a stack of point sets P, shape (n, m, ambient).

    Per set: its diameter D, realized by the lex-least pair i < j (the first
    maximum of the masked distance matrix), and the geodesic midpoint of that
    pair, or the set's first point where D <= tol; shapes (n,) and
    (n, ambient).  D comes from the cross-distance kernel and the midpoints
    from one geodesic_rows call, which gives each the bits of
    geodesic_point(space, p_i, p_j, D / 2), so a set gets the same bits alone
    or in a stack.
    """
    n, m = P.shape[:2]
    M = spaces.paired_distances(space, P[:, :, None], P[:, None, :])
    M[:, np.tri(m, dtype=bool)] = -np.inf  # keep i < j, first max is lex-least
    i, j = np.divmod(np.argmax(M.reshape(n, m * m), axis=1), m)
    D = M[np.arange(n), i, j]
    mids = P[:, 0].copy()
    r = np.flatnonzero(D > space.tol)
    mids[r] = spaces.geodesic_rows(space, P[r, i[r]], P[r, j[r]], 0.5 * D[r])
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
    if best_d <= tol:
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


def check_sampled(space):
    """Raise ValueError unless has_barycenters_sample draws instances in
    `space`: Euclidean spaces, circles and the hyperbolic plane."""
    if space.kind not in (spaces.EUCLIDEAN, spaces.CIRCLE) and \
            (space.kind, space.dim) != (spaces.HYPERBOLOID, 2):
        raise ValueError(f"no instance sampler for {space.kind} spaces of "
                         f"dimension {space.dim}")


def _ball_dir(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _hyp_offset(space, base, rng, radius):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.0, radius)
    u = np.array([0.0, math.cos(theta), math.sin(theta)])
    return math.cosh(s) * base + math.sinh(s) * u


def _run_trial(space, P, Q, lam):
    """Route one trial through the closed-form rules or solve_barycenter."""
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
    check_sampled(space)
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
