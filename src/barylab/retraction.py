"""Convex bodies in R^2/H^2, normal flow, push-off grids, and the boundary retraction.

The pipeline follows the constructive route: a boundary-tight push-off grid
obtained by flowing cover witnesses from the eps-level set to the R-level set,
an equivariant lambda-shrinking subdivision of the nerve, a push-off map by
geodesic coning over the subdivided nerve, and the retraction r(q) = the
unique point where the geodesic from q to the push-off image of q's nerve
projection crosses the eps-level set, bracketed on that geodesic by ITP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covers, simplicial, spaces, subdivision
from .errors import (
    CalibrationError,
    PipelineInconsistency,
    PreconditionError,
    SampleBudget,
    StagedPreconditionError,
    UndefinedNormal,
)

# The angle alpha of the push-off grid: witnesses sit on the outward normal,
# so the angle to C at each of them is pi.
ALPHA = math.pi
# ITP (Oliveira & Takahashi 2020), d = d(q, target): kappa1 = ITP_K1/d, kappa2, n0, eps/d
ITP_K1, ITP_K2, ITP_N0, ITP_EPS = 0.2, 2, 1, 2.0 ** -52
ITP_STEPS = math.ceil(math.log2(1.0 / (2.0 * ITP_EPS))) + ITP_N0  # n_max = 52
MAX_HALVINGS = 5  # of delta in calibrate_delta before it gives up
ESCAPE_SAMPLES = 100  # points per geodesic in check_large_angle_escape
SAMPLE_ROWS = 2**20  # level-set sample rows (or queries) one sampled stage may take


def check_rows(rows, what, budget=SAMPLE_ROWS):
    """rows, if at most budget; else SampleBudget, raised before anything
    of that size is allocated."""
    if not rows <= budget:
        raise SampleBudget(f"{what}: {rows:.6g}, over the budget of {budget}")
    return rows


def sample_count(span, spacing, least):
    """max(least, ceil(span / spacing) + 1): samples at most `spacing` apart
    over an arc of length span, both ends included."""
    return max(least, int(math.ceil(span / spacing)) + 1)


# ---------------------------------------------------------------------------
# convex bodies


class ConvexBody:
    kind = "abstract"

    def __init__(self, space):
        self.space = space

    def project(self, x):
        raise NotImplementedError

    def project_rows(self, X):
        """project on each row of X, bit for bit (and dist_rows: dist)."""
        raise NotImplementedError

    def dist(self, x):
        return spaces.distance(self.space, x, self.project(x))

    def dist_rows(self, X):
        return spaces.distance_rows(self.space, X, self.project_rows(X))


class PointBody(ConvexBody):
    kind = "point"

    def __init__(self, space, point):
        super().__init__(space)
        self.point = np.asarray(point, float)
        space.check_point(self.point)

    def project(self, x):
        return self.point

    def project_rows(self, X):
        return np.tile(self.point, (len(X), 1))

    def to_json(self):
        return {"type": "point", "point": self.point.tolist()}


class LineBody(ConvexBody):
    """Complete geodesic through two points (bi-infinite)."""

    kind = "line"

    def __init__(self, space, a, b):
        super().__init__(space)
        if space.kind not in (spaces.EUCLIDEAN, spaces.HYPERBOLOID) or space.dim != 2:
            raise ValueError("line and segment bodies live in Euclidean or hyperboloid planes")
        self.a = np.asarray(a, float)
        self.b = np.asarray(b, float)
        space.check_point(self.a)
        space.check_point(self.b)
        if space.kind == spaces.EUCLIDEAN:
            u = self.b - self.a
            nrm = np.linalg.norm(u)
            if nrm <= 0:
                raise ValueError("points do not span a geodesic")
            self.u = u / nrm
            self.normal = np.array([-self.u[1], self.u[0]])
        else:
            c = np.cross(self.a, self.b)
            w = np.array([-c[0], c[1], c[2]])  # J @ cross: Minkowski normal
            nrm = spaces.minkowski_dot(w, w)
            if nrm <= 0:
                raise ValueError("points do not span a geodesic")
            self.normal = w / math.sqrt(nrm)
            d = spaces.distance(space, self.a, self.b)
            self.u = spaces._hyperboloid_unit_tangent(self.a, self.b, d)

    def project(self, x):
        if self.space.kind == spaces.EUCLIDEAN:
            x = np.asarray(x, float)
            return self.a + float(np.dot(x - self.a, self.u)) * self.u
        s = spaces.minkowski_dot(np.asarray(x, float), self.normal)
        return (x - s * self.normal) / math.sqrt(1.0 + s * s)

    def dist(self, x):
        if self.space.kind == spaces.HYPERBOLOID:
            return math.asinh(abs(spaces.minkowski_dot(np.asarray(x, float),
                                                       self.normal)))
        return super().dist(x)

    def project_rows(self, X):
        X = np.asarray(X, float)
        if self.space.kind == spaces.EUCLIDEAN:
            return self.a + spaces.row_dots(X - self.a, self.u)[:, None] * self.u
        s = spaces.minkowski_dots(X, self.normal)
        return (X - s[:, None] * self.normal) / np.sqrt(1.0 + s * s)[:, None]

    def dist_rows(self, X):
        if self.space.kind == spaces.HYPERBOLOID:
            return spaces.each(math.asinh, np.abs(spaces.minkowski_dots(X, self.normal)))
        return super().dist_rows(X)

    def to_json(self):
        return {"type": "line", "a": self.a.tolist(), "b": self.b.tolist()}


class SegmentBody(ConvexBody):
    kind = "segment"

    def __init__(self, space, a, b):
        super().__init__(space)
        self.line = LineBody(space, a, b)
        self.a, self.b = self.line.a, self.line.b
        self.length = spaces.distance(space, self.a, self.b)

    def project(self, x):
        p = self.line.project(x)
        da = spaces.distance(self.space, self.a, p)
        db = spaces.distance(self.space, p, self.b)
        if da + db <= self.length + 100 * self.space.tol:
            return p
        return self.a if spaces.distance(self.space, x, self.a) <= \
            spaces.distance(self.space, x, self.b) else self.b

    def project_rows(self, X):
        space, P = self.space, self.line.project_rows(X)
        on = (spaces.distance_rows(space, self.a, P) + spaces.distance_rows(space, P, self.b)
              <= self.length + 100 * space.tol)
        near_a = spaces.distance_rows(space, X, self.a) <= spaces.distance_rows(space, X, self.b)
        return np.where(on[:, None], P, np.where(near_a[:, None], self.a, self.b))

    def to_json(self):
        return {"type": "segment", "a": self.a.tolist(), "b": self.b.tolist()}


def body_from_json(space, doc):
    t = doc["type"]
    if t == "point":
        return PointBody(space, doc["point"])
    if t == "line":
        return LineBody(space, doc["a"], doc["b"])
    if t == "segment":
        return SegmentBody(space, doc["a"], doc["b"])
    raise ValueError(f"unknown body type {t!r}")


# ---------------------------------------------------------------------------
# normal flow


def normal_flow(body, x, t):
    """Phi_N^t: move x outward along the geodesic through its projection.
    x is one point or an (m, ambient) array of rows and t one time or one
    per row; each row is flowed with dist_rows, project_rows and
    geodesic_rows, so a point gets the same bits alone or among rows."""
    space = body.space
    x = np.asarray(x, float)
    X = x.reshape(-1, space.ambient_dim)
    T = np.broadcast_to(np.asarray(t, float), X.shape[:1])
    d = body.dist_rows(X)
    if np.any(d <= space.tol):
        raise UndefinedNormal("normal flow undefined on the body itself")
    crossing = np.flatnonzero(T < -(d - space.tol))
    if len(crossing):
        i = crossing[0]
        raise PreconditionError(f"flow time {T[i]} would cross the body (d={d[i]})")
    out = spaces.geodesic_rows(space, body.project_rows(X), X, d + T)
    return np.where((T == 0.0)[:, None], X, out).reshape(x.shape)


def flow_to_infinity(body, x):
    """Ideal endpoint of the outward normal ray (hyperboloid spaces)."""
    if body.space.kind != spaces.HYPERBOLOID:
        raise ValueError("flow_to_infinity targets the visual boundary of H^n")
    d = body.dist(x)
    if d <= body.space.tol:
        raise UndefinedNormal("normal ray undefined on the body itself")
    return spaces.boundary_point_of_ray(body.space, body.project(x), x)


def angle_to_C(body, q, q_prime):
    """Angle at q between q' and the projection of q onto the body."""
    d = body.dist(q)
    if d <= body.space.tol:
        raise UndefinedNormal("angle to the body undefined on the body itself")
    return spaces.angle_at(body.space, q, q_prime, body.project(q))


def _angles_to_C(body, Q):
    """angle_to_C over the rows of Q (2d Euclidean / hyperboloid), as a
    function of an (m, ambient) block of q' rows that returns the (m, len(Q))
    angles; the terms of Q alone (its projection, the direction to it, in H^n
    its length) are computed once.  Each entry is the same elementwise
    formula whatever the block, so its bits do not depend on the blocking."""
    Q = np.asarray(Q, float)
    P = body.project_rows(Q)
    if body.space.kind == spaces.EUCLIDEAN:
        u2 = (P - Q) / np.linalg.norm(P - Q, axis=1)[:, None]

        def angles(q_primes):
            u1 = np.asarray(q_primes, float)[:, None, :] - Q
            u1 = u1 / np.linalg.norm(u1, axis=-1)[..., None]
            return np.arccos(np.clip(np.sum(u1 * u2, axis=-1), -1.0, 1.0))
        return angles
    c2 = spaces.minkowski_rows(Q, P)
    u2, s2 = P + c2[:, None] * Q, np.sqrt(np.maximum(c2 * c2 - 1.0, 1e-300))

    def angles(q_primes):
        QP = np.asarray(q_primes, float)[:, None, :]
        c1 = spaces.minkowski_rows(Q, QP)
        u1 = QP + c1[..., None] * Q
        s1 = np.sqrt(np.maximum(c1 * c1 - 1.0, 1e-300))
        return np.arccos(np.clip(spaces.minkowski_rows(u1, u2) / (s1 * s2), -1.0, 1.0))
    return angles


def check_large_angle_escape(body, eps, q, q_prime, enforce_angle=True, angles=None):
    """True iff the geodesic from q toward q' stays strictly outside the
    eps-neighborhood after leaving q, judged at ESCAPE_SAMPLES points spaced
    evenly up to q'; requires the angle to C at q to exceed pi/2.  With rows
    q and q' of shape (m, ambient) the result is a bool per row, checked in
    row blocks; a single pair is one such row.  `angles` holds
    angle_to_C(body, q, q') per row where the caller has computed it.

    enforce_angle=False runs the sampled check without the angle
    precondition, e.g. to demonstrate that small-angle directions re-enter.
    """
    space, tol = body.space, body.space.tol
    Q = np.asarray(q, float).reshape(-1, space.ambient_dim)
    QP = np.asarray(q_prime, float).reshape(Q.shape)
    if np.any(np.abs(body.dist_rows(Q) - eps) > 100 * tol):
        raise PreconditionError("q does not lie on the eps-level set")
    if enforce_angle:
        if angles is None:
            angles = [angle_to_C(body, a, b) for a, b in zip(Q, QP)]
        if np.any(np.asarray(angles) <= math.pi / 2.0 + tol):
            raise PreconditionError("escape check requires an angle > pi/2")
    frac = np.arange(1, ESCAPE_SAMPLES + 1) / ESCAPE_SAMPLES
    escapes = np.empty(len(Q), bool)
    for rows in spaces.row_blocks(len(Q), ESCAPE_SAMPLES):
        T = spaces.distance_rows(space, Q[rows], QP[rows])[:, None] * frac
        pts = spaces.geodesic_rows(space, Q[rows], QP[rows], T)
        inside = body.dist_rows(pts.reshape(-1, space.ambient_dim)) <= eps
        escapes[rows] = ~inside.reshape(-1, ESCAPE_SAMPLES).any(axis=1)
    return escapes if np.ndim(q) > 1 else bool(escapes[0])


# ---------------------------------------------------------------------------
# the window on the eps-level set

# (space kind, body kind) -> components of the eps-level set {d(., C) = eps}
LEVEL_SETS = {
    (spaces.EUCLIDEAN, "point"): ("circle",),
    (spaces.EUCLIDEAN, "line"): ("minus", "plus"),
    (spaces.EUCLIDEAN, "segment"): ("outer",),
    (spaces.HYPERBOLOID, "point"): ("circle",),
    (spaces.HYPERBOLOID, "line"): ("minus", "plus"),
}


def loop_length(body, eps):
    """Arc length of the closed eps-level curve around a point or segment body."""
    if body.kind == "segment":
        return 2.0 * body.length + 2.0 * math.pi * eps
    return 2.0 * math.pi * (eps if body.space.kind == spaces.EUCLIDEAN else math.sinh(eps))


@dataclass(frozen=True)
class Window:
    """The arc [s_lo, s_hi] of one component of the eps-level set of a body
    in R^2 or H^2, parametrized by arc length: the sampled fundamental domain
    of the boundary component that the retraction lands on."""

    body: ConvexBody
    eps: float
    component: str
    s_lo: float
    s_hi: float

    def __post_init__(self):
        space = self.body.space
        components = LEVEL_SETS.get((space.kind, self.body.kind)) if space.dim == 2 else None
        if components is None:
            raise ValueError(f"no eps-level-set parametrization for a {self.body.kind} "
                             f"body in {space.kind} dimension {space.dim}")
        if self.component not in components:
            raise ValueError(f"window component {self.component!r} is not one "
                             f"of {list(components)}")
        if any(isinstance(x, bool) for x in (self.eps, self.s_lo, self.s_hi)):
            raise ValueError("window eps, s_lo and s_hi must be numbers, not booleans")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps {self.eps} is not positive and finite")
        if not (math.isfinite(self.s_lo) and math.isfinite(self.s_hi)
                and self.s_lo < self.s_hi):
            raise ValueError(f"window needs finite s_lo < s_hi, not "
                             f"[{self.s_lo}, {self.s_hi}]")

    def point(self, s):
        """The point at arc length s of the window's component (any real s)."""
        return self.points([s])[0]

    def _stadium_point(self, s):
        body, eps = self.body, self.eps
        L = body.length
        cap = math.pi * eps
        s = s % loop_length(body, eps)
        u, n = body.line.u, body.line.normal
        if s < L:  # top edge, a->b
            return body.a + s * u + eps * n
        s -= L
        if s < cap:  # cap around b, +n to -n
            th = s / eps
            d = math.cos(th) * n + math.sin(th) * u
            return body.b + eps * d
        s -= cap
        if s < L:  # bottom edge, b->a
            return body.b - s * u - eps * n
        s -= L
        th = s / eps  # cap around a, -n to +n
        d = -math.cos(th) * n - math.sin(th) * u
        return body.a + eps * d

    def points(self, ss):
        """(len(ss), ambient) rows: the points at the arc lengths ss of the
        window's component.  Each row is made by elementwise operations
        (math's functions per element), so it has the same bits alone, as
        point(s), or among rows."""
        body, eps, space = self.body, self.eps, self.body.space
        ss = np.asarray(ss, float)
        if space.kind == spaces.EUCLIDEAN:
            if body.kind == "point":
                th = ss / eps
                return body.point + eps * np.stack(
                    [spaces.each(math.cos, th), spaces.each(math.sin, th)], axis=1)
            if body.kind == "line":
                side = 1.0 if self.component == "plus" else -1.0
                return body.a + ss[:, None] * body.u + side * eps * body.normal
            return np.array([self._stadium_point(s) for s in ss.tolist()]).reshape(-1, 2)
        if body.kind == "point":  # hyperbolic circle
            p = body.point
            e1, e2 = spaces.hyperboloid_tangent_frame(p)
            th = ss / math.sinh(eps)
            u = spaces.each(math.cos, th)[:, None] * e1 + spaces.each(math.sin, th)[:, None] * e2
            return math.cosh(eps) * p + math.sinh(eps) * u
        side = 1.0 if self.component == "plus" else -1.0
        s_axis = ss / math.cosh(eps)
        foot = (spaces.each(math.cosh, s_axis)[:, None] * body.a
                + spaces.each(math.sinh, s_axis)[:, None] * body.u)
        return math.cosh(eps) * foot + math.sinh(eps) * side * body.normal

    def samples(self, count, endpoint):
        """(count, ambient) rows point(s) over np.linspace(s_lo, s_hi, count)."""
        return self.points(np.linspace(self.s_lo, self.s_hi, count, endpoint=endpoint))


# ---------------------------------------------------------------------------
# push-off grids


@dataclass
class PushOffGrid:
    """Nerve vertex i is adjacency element i, labelled iota.points[i].  The
    boundary elements (those whose base ball is centred on the level set)
    have their centres as witnesses, in element order, with the angle to C
    at each witness towards its label."""

    body: ConvexBody
    eps: float
    projector: covers.NerveProjector
    iota: simplicial.VertexMap
    boundary: np.ndarray  # per element: a boundary element?
    witness_points: np.ndarray  # per boundary element
    witness_angles: np.ndarray  # per boundary element
    delta: float

    @property
    def nerve(self):
        return self.projector.nerve

    @property
    def adjacency(self):
        return self.projector.adj

    def push_off_distance(self):
        return _push_off_distance(self.body, self.eps, self.iota.points)

    @functools.cached_property
    def min_witness_angle(self):
        return float(np.min(self.witness_angles, initial=math.pi))

    @functools.cached_property
    def boundary_map_diameter(self):
        """Largest image length of a nerve edge with both ends on the boundary."""
        edges = self.nerve.faces[1]
        ends = self.iota.points[edges[np.all(self.boundary[edges], axis=1)]]
        return float(np.max(spaces.paired_distances(self.body.space, ends[:, 0], ends[:, 1]),
                            initial=0.0))


def _push_off_distance(body, eps, points):
    """min over points of d(p, C) - eps, each d(p, C) with the bits of body.dist."""
    return float(np.min(body.dist_rows(points))) - eps


def calibrate_delta(window, flow_time, delta, delta_prime):
    """Shrink delta until boundary points of the window within 2*delta flow
    to within delta_prime of each other (sampled); the uniform-continuity
    constant linking delta to delta' is found empirically, not derived."""
    body, span = window.body, window.s_hi - window.s_lo
    # The last halving's grid is the finest.  Scene's SIGMA_ROWS bound on
    # delta keeps it far below SAMPLE_ROWS, so this guards direct calls.
    check_rows(span / (delta / 2.0 ** MAX_HALVINGS / 4.0) + 1.0, "calibration grid rows")
    for _ in range(MAX_HALVINGS + 1):
        spacing = delta / 4.0
        pts = window.samples(sample_count(span, spacing, 8), endpoint=True)
        flowed = normal_flow(body, pts, flow_time)
        reach = max(1, int(math.ceil(2.0 * delta / spacing)))
        # pairs (i, i + off) for off = 1 .. reach + 1, one kernel call per offset
        for off in range(1, min(reach + 2, len(pts))):
            close = spaces.paired_distances(body.space, pts[:-off],
                                            pts[off:]) <= 2.0 * delta
            spread = spaces.paired_distances(body.space, flowed[:-off],
                                             flowed[off:]) > delta_prime
            if np.any(close & spread):
                break
        else:
            return delta
        delta /= 2.0
    raise CalibrationError(
        f"uniform-continuity calibration failed after {MAX_HALVINGS} halvings")


def build_boundary_grid(window, R, action, delta, delta_prime, interior_points=()):
    """Boundary-tight push-off grid: cover the window's collar of the eps-level
    set with delta/2 balls centered on it, flow each center (the witness) to
    the R-level set, send interior elements to a designated point of K_out,
    and extend to the adjacency by equivariance."""
    body, eps = window.body, window.eps
    flow_time = R - eps
    delta = calibrate_delta(window, flow_time, delta, delta_prime)

    spacing = 0.45 * delta
    count = max(4, int(math.ceil((window.s_hi - window.s_lo) / spacing)))
    centers = list(window.samples(count, endpoint=False))
    n_boundary = len(centers)
    centers += [np.asarray(c, float) for c in interior_points]
    cover = covers.BallCover(body.space, [(c, delta / 2.0) for c in centers], centers)
    projector = covers.NerveProjector(cover, action)
    adj = projector.adj

    mid = window.point(0.5 * (window.s_lo + window.s_hi))
    designated = normal_flow(body, mid, flow_time)

    # boundary elements move their centre, interior ones the designated point
    boundary = adj.base < n_boundary
    images = np.where(boundary[:, None], cover.centers[adj.base], designated)
    for k, (g, _) in enumerate(action.elements()):
        rows = adj.group == k
        images[rows] = g.apply(images[rows])
    witnesses = images[boundary]
    images[boundary] = normal_flow(body, witnesses, flow_time)
    angles = [angle_to_C(body, q, p) for q, p in zip(witnesses, images[boundary])]
    iota = simplicial.VertexMap(body.space, np.arange(len(adj)), images)
    return PushOffGrid(body=body, eps=eps, projector=projector, iota=iota,
                       boundary=boundary, witness_points=witnesses,
                       witness_angles=np.asarray(angles, float), delta=delta)


# ---------------------------------------------------------------------------
# smallness of (delta, delta')


@dataclass
class SmallnessReport:
    delta: float
    delta_prime: float
    cond1_ok: bool
    cond1_margin: float
    cond2_ok: bool
    cond2_margin: float
    cond3_ok: bool
    cond3_variation: float
    cond3_gate: float

    @property
    def ok(self):
        return self.cond1_ok and self.cond2_ok and self.cond3_ok

    def failing(self):
        out = []
        if not self.cond1_ok:
            out.append("condition (1): translate gap <= 2*delta")
        if not self.cond2_ok:
            out.append("condition (2): N_delta'(K_out) meets the eps-neighborhood")
        if not self.cond3_ok:
            out.append("condition (3): angle variation exceeds alpha/2 - pi/4")
        return out

    def to_json(self):
        return {
            "alpha": ALPHA, "delta": self.delta,
            "delta_prime": self.delta_prime,
            "cond1": {"ok": self.cond1_ok, "margin": self.cond1_margin},
            "cond2": {"ok": self.cond2_ok, "margin": self.cond2_margin},
            "cond3": {"ok": self.cond3_ok, "variation": self.cond3_variation,
                      "gate": self.cond3_gate},
        }


def check_small_relative(body, eps, gaps, K_out_samples, sigma_samples, delta,
                         delta_prime, sample_resolution):
    """Sampled check that (delta, delta') are small relative to K, K_out, ALPHA;
    `gaps` is covers.translate_gaps of the group action over the K samples.

    Condition (3) is verified through the sufficient bound M1 + M2 <=
    ALPHA/2 - pi/4, where M1/M2 are the angle variations over close boundary
    pairs and close K_out pairs respectively.  The angle matrix is filled in
    blocks of q' rows.
    """
    space = body.space
    tol = space.tol

    # (1) sampled-disjoint translates must be farther than 2*delta
    cond1_margin = math.inf
    cond1_ok = True
    for _, _, dmin in gaps:
        if dmin > sample_resolution:  # judged disjoint at sample scale
            cond1_margin = min(cond1_margin, dmin - 2.0 * delta)
            if dmin <= 2.0 * delta + tol:
                cond1_ok = False

    # (2) the delta'-neighborhood of K_out avoids the eps-neighborhood
    K_out = np.asarray(K_out_samples, float)
    gaps = body.dist_rows(K_out) - eps
    cond2_margin = float(np.min(gaps)) - delta_prime
    cond2_ok = cond2_margin > tol

    # (3) angle-variation gate
    gate = ALPHA / 2.0 - math.pi / 4.0
    inward = np.minimum(0.5 * delta_prime, gaps - tol)
    flowed = np.stack([normal_flow(body, K_out, 0.5 * delta_prime),
                       normal_flow(body, K_out, -inward)], axis=1)
    out_aug = np.concatenate([K_out, flowed.reshape(-1, K_out.shape[1])])
    sig_arr = np.asarray(sigma_samples)
    angles = _angles_to_C(body, sig_arr)
    A = np.empty((len(out_aug), len(sig_arr)))  # one row of angles per q'
    for rows in spaces.row_blocks(len(out_aug), len(sig_arr)):
        A[rows] = angles(out_aug[rows])
    m1 = _pair_variation(A, sig_arr, space, delta, axis=1)
    m2 = _pair_variation(A, out_aug, space, delta_prime, axis=0)
    variation = m1 + m2
    cond3_ok = variation <= gate + tol
    return SmallnessReport(delta, delta_prime, cond1_ok, cond1_margin,
                           cond2_ok, cond2_margin, cond3_ok, variation, gate)


def _pair_variation(A, points, space, radius, axis):
    """Max |A difference| between the rows (axis 0) or the columns (axis 1)
    of A at index pairs i < j whose points lie within radius.  The column
    pass takes its candidate pairs from a NeighbourIndex and gathers the
    columns of A in blocks of pairs."""
    pts = np.asarray(points)
    worst = 0.0
    if axis == 0:
        for i in range(len(pts)):
            d = spaces.distances_to(space, pts[i + 1:], pts[i])
            js = i + 1 + np.nonzero(d <= radius)[0]
            if len(js):
                worst = max(worst, float(np.max(np.abs(A[i] - A[js]))))
        return worst
    ii, jj = covers.NeighbourIndex(space, pts, radius).pairs(pts, radius)
    ii, jj = ii[ii < jj], jj[ii < jj]
    close = spaces.paired_distances(space, pts[jj], pts[ii]) <= radius
    ii, jj = ii[close], jj[close]
    for pairs in spaces.row_blocks(len(ii), len(A)):
        diff = np.abs(A[:, ii[pairs]] - A[:, jj[pairs]])
        worst = max(worst, float(np.max(diff, initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# push-off extension by geodesic coning


@dataclass
class PushOff:
    grid: PushOffGrid
    sub_result: object  # subdivision data
    full_map_diameter: float  # diam(iota_n) over the subdivided nerve
    push_off_distance: float  # min over vertices of d(iota_n(v), C) - eps

    @property
    def iota_n(self):
        return self.sub_result.iota

    def evaluate(self, support, weights):
        """j at the nerve point (support simplex, barycentric weights).

        The point's subdivision cell is located by the sorted-weight chain
        transform, applied once per subdivision order; the image is the
        geodesic cone (ascending-id fold) over the cell's vertex images.
        Returns (image point, final cell vertex ids).
        """
        w = {int(v): float(x) for v, x in zip(support, weights) if x > 0.0}
        for prov in self.sub_result.provs:
            w = subdivision_coordinates(w, prov.vertex_of)
        space = self.grid.body.space
        items = sorted(w.items())
        acc, W = None, 0.0
        for (v, wt), p in zip(items, self.iota_n.at([v for v, _ in items])):
            if acc is None:
                acc, W = p, wt
                continue
            W += wt
            d = spaces.distance(space, acc, p)
            if d > space.tol:
                acc = spaces.geodesic_point(space, acc, p, d * wt / W)
        return acc, tuple(v for v, _ in items)


def subdivision_coordinates(weights, vertex_of):
    """Barycentric weights on a simplex -> weights on its containing cell of
    the barycentric subdivision (sorted-weight prefix chains)."""
    items = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    out = {}
    prefix = []
    for m, (v, w) in enumerate(items, start=1):
        prefix.append(v)
        w_next = items[m][1] if m < len(items) else 0.0
        mu = m * (w - w_next)
        if mu > 0.0:
            J = tuple(sorted(prefix))
            out[vertex_of[J]] = out.get(vertex_of[J], 0.0) + mu
    return out


def _equivariance_from_adjacency(adj):
    """Partial vertex maps on the nerve of Adj(U) induced by the group: h
    sends element i, ball base[i] moved by g, to the element of ball base[i]
    moved by hg, where Adj(U) has one.  With E = action.elements(), the
    |E| x |E| table gives the index of each product in E (-1 outside E) and
    slot[k, b] the element of ball b moved by E[k] (-1 if none)."""
    elements = [g for g, _ in adj.action.elements()]
    index_of = {g.key(): k for k, g in enumerate(elements)}
    product = np.array([[index_of.get(h.compose(g).key(), -1) for g in elements]
                        for h in elements])
    slot = np.full((len(elements), len(adj.cover)), -1)
    slot[adj.group, adj.base] = np.arange(len(adj))
    maps = []
    for k, h in enumerate(elements[1:], 1):
        hg = product[k, adj.group]
        vmap = np.where(hg >= 0, slot[hg, adj.base], -1)
        if np.any(vmap >= 0):
            maps.append((h, vmap))
    return subdivision.EquivariantStructure(maps)


def extend_to_pushoff(grid, lam, n, delta_prime):
    """Extend a boundary-tight push-off grid to a push-off map by an order-n
    shrinking subdivision and geodesic coning.

    Every precondition of the extension step is verified; the failing
    condition is named in the staged error.
    """
    space = grid.body.space
    tol = space.tol

    bdy_target = (1.0 - lam) * delta_prime
    bdy_diam = grid.boundary_map_diameter
    if bdy_diam > bdy_target + tol:
        raise StagedPreconditionError(
            "boundary-tightness",
            f"boundary map diameter {bdy_diam:.3e} > (1-lambda)*delta' = "
            f"{bdy_target:.3e}")

    # witnesses are constructed on the outward normal, so the true angle is
    # exactly ALPHA = pi; 1e-5 absorbs the floating-point arccos floor
    min_angle = grid.min_witness_angle
    if min_angle < ALPHA - 1e-5:
        raise StagedPreconditionError(
            "grid-angle", f"witness angle {min_angle} < alpha = {ALPHA}")

    equiv = _equivariance_from_adjacency(grid.adjacency)
    result = subdivision.iterate_subdivision(
        grid.nerve, grid.iota, lam, n, equivariance=equiv)
    iota = result.iota

    full_diam = float(np.max(result.record.final_diams, initial=0.0))
    if full_diam > delta_prime + tol:
        raise StagedPreconditionError(
            "full-tightness",
            f"diam(iota_n) = {full_diam:.3e} > delta' = {delta_prime:.3e}")

    push_dist = _push_off_distance(grid.body, grid.eps, iota.points)
    if push_dist <= 0.0:
        raise StagedPreconditionError(
            "image-outside", "subdivided images do not stay outside the "
            "eps-neighborhood")
    if push_dist <= delta_prime + tol:
        raise StagedPreconditionError(
            "push-off-distance",
            f"d_push-off(iota_n) = {push_dist:.3e} <= delta' = {delta_prime:.3e}")

    return PushOff(grid=grid, sub_result=result, full_map_diameter=full_diam,
                   push_off_distance=push_dist)


# ---------------------------------------------------------------------------
# the retraction


class Retractor:
    """r(q): unique crossing of the eps-level set by the geodesic from q to
    the push-off image of q's nerve projection, located by an ITP search."""

    def __init__(self, pushoff):
        self.pushoff = pushoff
        self.grid = pushoff.grid
        self.body = pushoff.grid.body
        self.eps = pushoff.grid.eps

    def push_target(self, q):
        support, w = self.grid.projector.project(q)
        return self.pushoff.evaluate(support, w)

    def retract(self, q):
        """(r(q), target, cell): the retraction of q with the push-off target
        and nerve cell of its one nerve projection.  f(t) = d(geo(t), C) - eps
        is convex, so ITP's regula-falsi step converges superlinearly; its
        projection keeps at most ITP_STEPS evaluations."""
        body, eps = self.body, self.eps
        g0 = body.dist(q) - eps
        if g0 > 100 * body.space.tol:
            raise PreconditionError(
                f"q lies {g0:.2e} outside the eps-neighborhood")
        target, cell = self.push_target(q)
        y_b = body.dist(target) - eps
        if y_b <= 0.0:
            raise PipelineInconsistency(
                "push-off image inside the eps-neighborhood; an upstream "
                "precondition lied")
        geo = spaces.Geodesic(body.space, q, target)
        a, b, y_a = 0.0, geo.length, min(g0, 0.0)
        tol_t = ITP_EPS * geo.length
        for j in range(ITP_STEPS):
            if b - a <= 2.0 * tol_t:
                break
            half = 0.5 * (a + b)
            x_f = (y_b * a - y_a * b) / (y_b - y_a)  # regula falsi
            sigma = math.copysign(1.0, half - x_f)
            delta = ITP_K1 / geo.length * (b - a) ** ITP_K2
            x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
            radius = tol_t * 2.0 ** (ITP_STEPS - j) - 0.5 * (b - a)
            x = x_t if abs(x_t - half) <= radius else half - sigma * radius
            x = x if a < x < b else half  # a sub-ulp truncation left x on an end
            y = body.dist(geo.point(x)) - eps
            if y > 0.0:
                b, y_b = x, y
            elif y < 0.0:
                a, y_a = x, y
            else:
                a = b = x
                break
        r = geo.point(0.5 * (a + b))
        if abs(body.dist(r) - eps) > 1e-7:
            raise PipelineInconsistency(
                f"crossing residual {abs(body.dist(r) - eps):.2e}; no crossing found")
        return r, target, cell
