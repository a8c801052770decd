"""Convex bodies in R^2/H^2, normal flow, push-off grids, and the boundary retraction.

The pipeline follows the constructive route: a boundary-tight push-off grid
obtained by flowing cover witnesses from the eps-level set to the R-level set,
an equivariant lambda-shrinking subdivision of the nerve, a push-off map by
geodesic coning over the subdivided nerve, and the retraction r(q) = the
unique point where the geodesic from q to the push-off image of q's nerve
projection leaves the eps-neighborhood, which each convex body finds in
closed form (ConvexBody.exit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import covers, simplicial, spaces, subdivision
from .errors import (
    CalibrationError,
    DegenerateAngle,
    PipelineInconsistency,
    PreconditionError,
    StagedPreconditionError,
    UndefinedNormal,
    check_budget,
)

# The angle alpha of the push-off grid: witnesses sit on the outward normal,
# so the angle to C at each of them is pi.
ALPHA = math.pi
MAX_HALVINGS = 5  # of delta in calibrate_delta before it gives up
ESCAPE_SAMPLES = 100  # points per geodesic in check_large_angle_escape
SAMPLE_ROWS = 2**20  # level-set sample rows (or queries) one sampled stage may take


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

    def exit(self, q, y, eps):
        """The point at which the unit-speed geodesic from q, a point of
        N_eps(C), toward y outside it leaves N_eps(C): at the largest root t
        of d(geo(t), C) = eps (last_root, in closed form), clamped to
        [0, d(q, y)]; q itself at t = 0 or for a geodesic of no length.  Its
        geodesic formula is the scalar copy of geodesic_rows', bit for bit."""
        length = spaces.distance(self.space, q, y)
        if length <= self.space.tol:
            return q
        x, y = np.asarray(q, float), np.asarray(y, float)
        flat = self.space.kind == spaces.EUCLIDEAN
        u = (y - x) / length if flat else spaces._hyperboloid_unit_tangent(x, y, length)
        t = min(max(self.last_root(x, u, eps), 0.0), length)
        if t == 0.0:
            return q
        return x + (t / length) * (y - x) if flat else math.cosh(t) * x + math.sinh(t) * u

    def last_root(self, q, u, eps):
        """The largest t with d(q + t u, C) = eps, the geodesic from q with
        unit tangent u (cosh t q + sinh t u in H^n), or -inf if none."""
        raise NotImplementedError


def _ball_root(w, u, eps):
    """The largest t with |w + t u| = eps for a unit u, or -inf: the larger
    root of t^2 + 2 beta t - gamma, beta = <w, u>, gamma = eps^2 - |w|^2,
    taken in the form that adds no terms of opposite sign."""
    beta, rho = float(np.dot(w, u)), math.sqrt(float(np.dot(w, w)))
    gamma = (eps - rho) * (eps + rho)
    disc = beta * beta + gamma
    if disc < 0.0:
        return -math.inf
    root = math.sqrt(disc)
    return gamma / (beta + root) if beta > 0.0 else root - beta


def _cosh_sinh_root(A, B, s):
    """The largest t with A cosh t + B sinh t = s > 0, or -inf.  z = e^t
    solves (A + B) z^2 - 2 s z + (A - B) = 0; with big = s + sqrt(D),
    D = s^2 - A^2 + B^2, its larger root is big / (A + B) when A + B > 0, and
    otherwise its one positive root, if any, is (A - B) / big: neither form
    cancels.  One Newton step on the same equation takes off the rounding
    of the logarithm."""
    disc = (s - A) * (s + A) + B * B
    if disc < 0.0:
        return -math.inf
    big = s + math.sqrt(disc)
    z = big / (A + B) if A + B > 0.0 else (A - B) / big
    if z <= 0.0:
        return -math.inf
    t = math.log(z)
    ch, sh = math.cosh(t), math.sinh(t)
    slope = A * sh + B * ch
    return t - (A * ch + B * sh - s) / slope if slope else t


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

    def last_root(self, q, u, eps):
        """|q + t u - c| = eps in R^n, and -<geo(t), c> = cosh eps,
        A cosh t + B sinh t = cosh eps, in H^n."""
        c = self.point
        if self.space.kind == spaces.EUCLIDEAN:
            return _ball_root(q - c, u, eps)
        return _cosh_sinh_root(-spaces.minkowski_dot(q, c), -spaces.minkowski_dot(u, c),
                               math.cosh(eps))

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

    def side_roots(self, q, u, eps):
        """last_root on each side of the line, where the signed distance
        reaches +-eps: <q - a, n> + t <u, n> = +-eps in R^2, one linear
        equation, and <geo(t), n> = +-sinh eps, A cosh t + B sinh t, in H^2."""
        if self.space.kind == spaces.EUCLIDEAN:
            A, B = float(np.dot(q - self.a, self.normal)), float(np.dot(u, self.normal))
            return [(eps - A) / B, (-eps - A) / B] if B else []
        A, B = spaces.minkowski_dot(q, self.normal), spaces.minkowski_dot(u, self.normal)
        return [_cosh_sinh_root(A, B, math.sinh(eps)), _cosh_sinh_root(-A, -B, math.sinh(eps))]

    def last_root(self, q, u, eps):
        return max(self.side_roots(q, u, eps), default=-math.inf)

    def to_json(self):
        return {"type": "line", "a": self.a.tolist(), "b": self.b.tolist()}


class SegmentBody(ConvexBody):
    kind = "segment"

    def __init__(self, space, a, b):
        super().__init__(space)
        self.line = LineBody(space, a, b)
        self.a, self.b = self.line.a, self.line.b
        self.ends = (PointBody(space, self.a), PointBody(space, self.b))
        self.length = spaces.distance(space, self.a, self.b)

    def _over(self, p):
        """Whether the point p of the line lies on the segment, as project judges."""
        space = self.space
        return (spaces.distance(space, self.a, p) + spaces.distance(space, p, self.b)
                <= self.length + 100 * space.tol)

    def project(self, x):
        p = self.line.project(x)
        if self._over(p):
            return p
        return self.a if spaces.distance(self.space, x, self.a) <= \
            spaces.distance(self.space, x, self.b) else self.b

    def project_rows(self, X):
        space, P = self.space, self.line.project_rows(X)
        on = (spaces.distance_rows(space, self.a, P) + spaces.distance_rows(space, P, self.b)
              <= self.length + 100 * space.tol)
        near_a = spaces.distance_rows(space, X, self.a) <= spaces.distance_rows(space, X, self.b)
        return np.where(on[:, None], P, np.where(near_a[:, None], self.a, self.b))

    def last_root(self, q, u, eps):
        """N_eps(C) is convex and the union of the balls about a and b and of
        the band over the segment, so the geodesic leaves it where it leaves
        the last of the three: the largest of the balls' roots and of the
        line's side roots whose point projects onto the segment."""
        roots = [end.last_root(q, u, eps) for end in self.ends]
        for t in filter(math.isfinite, self.line.side_roots(q, u, eps)):
            x = q + t * u if self.space.kind == spaces.EUCLIDEAN else \
                math.cosh(t) * q + math.sinh(t) * u
            if self._over(self.line.project(x)):
                roots.append(t)
        return max(roots)

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


def angle_to_C(body, q, q_prime):
    """Angle at q between q' and the projection p of q onto the body, 0 where q'
    is within tol of p; rows of q and q' give one angle each, as spaces.angle_at."""
    space, tol = body.space, body.space.tol
    Q = np.asarray(q, float).reshape(-1, space.ambient_dim)
    QP = np.asarray(q_prime, float).reshape(Q.shape)
    if np.any(body.dist_rows(Q) <= tol):
        raise UndefinedNormal("angle to the body undefined on the body itself")
    P = body.project_rows(Q)
    d_qp, d_p = spaces.distance_rows(space, Q, QP), spaces.distance_rows(space, Q, P)
    if np.any((d_qp <= tol) | (d_p <= tol)):
        raise DegenerateAngle("angle undefined when q coincides with q' or its projection")
    if space.kind == spaces.EUCLIDEAN:
        cos = spaces.row_dots((QP - Q) / d_qp[:, None], (P - Q) / d_p[:, None])
    else:  # unit tangents at q, as spaces._hyperboloid_unit_tangent makes them
        U, V = ((X + spaces.minkowski_dots(Q, X)[:, None] * Q) / spaces.each(math.sinh, d)[:, None]
                for X, d in ((QP, d_qp), (P, d_p)))
        cos = spaces.minkowski_dots(U, V)
    angles = np.where(spaces.distance_rows(space, QP, P) <= tol, 0.0,
                      spaces.each(math.acos, np.clip(cos, -1.0, 1.0)))
    return angles if np.ndim(q) > 1 else float(angles[0])


def _angles_to_C(body, Q):
    """angle_to_C over the rows of Q (2d Euclidean / hyperboloid), as a function
    of (m, ambient) q' rows and a slice `cols` of Q returning the angles as
    (len(Q[cols]), m) planes per coordinate, each sum a plane fold; the terms of
    Q alone are computed once.  Each entry is one elementwise formula, so its
    bits do not depend on the blocking."""
    Q = np.asarray(Q, float)
    P, q = body.project_rows(Q), spaces.planes(Q)
    if body.space.kind == spaces.EUCLIDEAN:
        u2 = spaces.planes((P - Q) / spaces.paired_distances(body.space, P, Q)[:, None])

        def angles(q_primes, cols):
            u1 = [x - y[cols, None] for x, y in zip(spaces.planes(np.asarray(q_primes, float)), q)]
            norm = np.sqrt(spaces.plane_dots(u1, u1))
            for x in u1:
                x /= norm
            del norm  # few block-sized arrays at once (here and in place below)
            return np.arccos(np.clip(spaces.plane_dots(u1, [x[cols, None] for x in u2]), -1.0, 1.0))
        return angles
    c2 = spaces.minkowski_rows(Q, P)
    u2, s2 = spaces.planes(P + c2[:, None] * Q), np.sqrt(np.maximum(c2 * c2 - 1.0, 1e-300))

    def angles(q_primes, cols):
        qs, v2 = [x[cols, None] for x in q], [x[cols, None] for x in u2]
        qp = spaces.planes(np.asarray(q_primes, float))
        c1 = spaces.plane_dots(qs, qp, 1) - qs[0] * qp[0]
        u1 = [x + c1 * y for x, y in zip(qp, qs)]
        s = np.sqrt(np.maximum(c1 * c1 - 1.0, 1e-300)) * s2[cols, None]
        del c1
        cos = spaces.plane_dots(u1, v2, 1)
        cos -= u1[0] * v2[0]
        cos /= s
        return np.arccos(np.clip(cos, -1.0, 1.0, out=cos), out=cos)
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
            angles = angle_to_C(body, Q, QP)
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
            return self._stadium_points(ss)
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

    def _stadium_points(self, ss):
        """The stadium around a segment body, from a along its top edge.  s0
        is s modulo the loop; s1, s2, s3 take off L, the cap and L in turn,
        and the first piece whose offset falls inside it wins."""
        body, eps = self.body, self.eps
        L, cap, u, n = body.length, math.pi * eps, body.line.u, body.line.normal
        s0 = np.mod(ss, loop_length(body, eps))[:, None]
        s1 = s0 - L
        s2 = s1 - cap
        s3 = s2 - L
        th = np.where(s1 < cap, s1, s3) / eps
        c, sn = spaces.each(math.cos, th), spaces.each(math.sin, th)
        return np.select(
            [s0 < L, s1 < cap, s2 < L],
            [body.a + s0 * u + eps * n,  # top edge, a->b
             body.b + eps * (c * n + sn * u),  # cap around b, +n to -n
             body.b - s2 * u - eps * n],  # bottom edge, b->a
            body.a + eps * (-c * n - sn * u))  # cap around a, -n to +n

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
    rows = span / (delta / 2.0 ** MAX_HALVINGS / 4.0) + 1.0
    check_budget(rows, SAMPLE_ROWS, f"calibration grid: {rows:.6g} rows")
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
    iota = simplicial.VertexMap(body.space, np.arange(len(adj)), images)
    return PushOffGrid(body=body, eps=eps, projector=projector, iota=iota,
                       boundary=boundary, witness_points=witnesses,
                       witness_angles=angle_to_C(body, witnesses, images[boundary]),
                       delta=delta)


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
    pairs and close K_out pairs respectively.  The 3K x sigma angle matrix is
    never held: _angle_variation streams it in blocks of sigma rows.
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
    # level-major rows, each level in window order: close q' pairs form runs
    out_aug = np.concatenate([K_out, normal_flow(body, K_out, 0.5 * delta_prime),
                              normal_flow(body, K_out, -inward)])
    sig_arr = np.asarray(sigma_samples)
    m1, m2 = _angle_variation(functools.partial(_angles_to_C(body, sig_arr), out_aug),
                              sig_arr, out_aug, space, delta, delta_prime)
    variation = m1 + m2
    cond3_ok = variation <= gate + tol
    return SmallnessReport(delta, delta_prime, cond1_ok, cond1_margin,
                           cond2_ok, cond2_margin, cond3_ok, variation, gate)


def _close_pairs(space, pts, radius):
    """(i, j), i < j, of the points within radius, sorted by i, then j, per
    block of NeighbourIndex queries (row_bound keeps their candidates within BLOCK_ROWS)."""
    index = covers.NeighbourIndex(space, pts, radius)
    for rows in spaces.row_blocks(len(pts), index.row_bound(radius)):
        ii, jj = index.pairs(pts[rows], radius)
        ii += rows.start
        ii, jj = ii[ii < jj], jj[ii < jj]
        close = spaces.paired_distances(space, pts[jj], pts[ii]) <= radius
        yield ii[close], jj[close]


def _angle_variation(block_of, sigma, q_primes, space, delta, delta_prime):
    """(M1, M2): max |A difference| over the sigma pairs within delta (columns
    of the q' x sigma angle matrix A) and the q' pairs within delta' (rows), in
    one pass over the blocks row_blocks(len(sigma), len(q')) of sigma, each
    block_of(cols) = A[:, cols].T.  M1 takes a pair a < b in b's block as a row
    difference, row a from a carried buffer if an earlier block's.  M2 takes
    each run [lo, hi] of i's partners j as max(runmax - A_i, A_i - runmin), the
    bits of max |A_i - A_j| (fl(x - y) is monotone in x and y, fl(-z) = -fl(z)),
    from a sparse table on the transposed block.  Block arrays are allocated
    once: temporaries freed per block made malloc trim and refault its heap."""
    empty = np.zeros(0, np.int64)
    runs = [(empty,) * 3]
    for ii, jj in _close_pairs(space, q_primes, delta_prime):
        cut = np.ones(len(ii) + 1, bool)  # cut[p]: pair p - 1 and pair p lie in two runs
        cut[1:-1] = (ii[1:] != ii[:-1]) | (jj[1:] != jj[:-1] + 1)
        runs.append((ii[cut[:-1]], jj[cut[:-1]], jj[cut[1:]]))
    base, lo, hi = map(np.concatenate, zip(*runs))  # per run: i, first j, last j
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(run length))
    # per level k: the runs' i and the starts of the two spans of 2^k that cover each run
    spans = [(base[level == k], lo[level == k], hi[level == k] + 1 - (1 << k))
             for k in range(level.max(initial=-1) + 1)]
    del runs, base, lo, hi, level  # the pass holds only spans
    a, b = map(np.concatenate, zip((empty,) * 2, *_close_pairs(space, sigma, delta)))
    order = np.argsort(b, kind="stable")
    a, b = a[order], b[order]  # by the later end
    n, blocks = len(q_primes), spaces.row_blocks(len(sigma), len(q_primes))
    step = blocks[0].stop if blocks else 1
    own = np.arange(len(sigma)) // step  # each row's block
    done = own.copy()
    np.maximum.at(done, a, own[b])  # the block of each row's last reader
    carried, ends, slot = np.flatnonzero(done > own), [], np.zeros(len(sigma), np.int64)
    for r in carried.tolist():  # first fit in row order gives the fewest slots
        slot[r] = next((s for s, e in enumerate(ends) if e <= own[r]), len(ends))
        ends[slot[r]:slot[r] + 1] = [done[r]]  # ends[s]: the last block to read slot s
    width = len(ends)
    W = np.empty((width + step, n))  # the carried rows, then the block
    table, gathers = np.empty((3, step * n)), np.empty((3, max(n, spaces.BLOCK_ROWS)))

    def chunks(c):  # per level: its runs, in chunks that gather at most BLOCK_ROWS values
        return [[(i[q], first[q], end[q],
                  *(g[:(q.stop - q.start) * c].reshape(-1, c) for g in gathers))
                 for q in spaces.row_blocks(len(i), c)] for i, first, end in spans]
    plans = {c: chunks(c) for c in {cols.stop - cols.start for cols in blocks}}
    m1 = m2 = 0.0
    for cols in blocks:
        block = W[width:width + cols.stop - cols.start]
        block[...] = block_of(cols)
        ia, ib = (x[slice(*np.searchsorted(b, [cols.start, cols.stop]))] for x in (a, b))
        ia = np.where(ia < cols.start, slot[ia], ia - cols.start + width)
        for p in spaces.row_blocks(len(ia), n):  # "clip" takes into out unbuffered
            d, f = (g[:(p.stop - p.start) * n].reshape(-1, n) for g in gathers[:2])
            np.subtract(W.take(ia[p], 0, d, "clip"),
                        W.take(ib[p] - cols.start + width, 0, f, "clip"), out=d)
            m1 = max(m1, float(np.abs(d, out=d).max()))
        kept = carried[slice(*np.searchsorted(carried, [cols.start, cols.stop]))]
        W[slot[kept]] = block[kept - cols.start]
        T, X, Y = (x[:block.size].reshape(n, -1) for x in table)
        T[...] = block.T  # q' rows, contiguous for take
        for pick in (np.maximum, np.minimum):  # levels alternate X, Y: ufuncs over overlap are slow
            ext = T
            for lev, level in enumerate(plans[len(block)]):
                if lev:  # level lev from level lev - 1
                    half = 1 << (lev - 1)
                    ext = pick(ext[:-half], ext[half:], out=(X, Y)[lev % 2][:len(ext) - half])
                for i, first, end, Ai, e, f in level:  # runmax - A_i, or A_i - runmin
                    pick(ext.take(first, 0, e, "clip"), ext.take(end, 0, f, "clip"), out=e)
                    T.take(i, 0, Ai, "clip")
                    np.subtract(*((e, Ai) if pick is np.maximum else (Ai, e)), out=e)
                    m2 = max(m2, float(e.max()))
    return m1, m2


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
        """(image point, cell vertex ids) at one nerve point: evaluate_rows' one row."""
        targets, cells = self.evaluate_rows(np.asarray([support]), np.asarray([weights]))
        return targets[0], tuple(cells[0].tolist())

    def evaluate_rows(self, ids, weights):
        """(targets, cells) of j at the nerve points of NerveProjector.project_rows'
        (ids, weights) rows: one image row each, and each final cell's ascending
        ids as a row of one (m, width) array, padded with its first id.  Per
        subdivision order, a row sorted by (-weight, id) gives its prefix chain
        J of length k the weight k * (its weight - the next one) and the vertex
        prov.ids[gid of J in prov.parent] (face is arange); weight 0 is a pad.
        The image is the geodesic cone (ascending-id fold) over the vertex
        images, one distance_rows and geodesic_rows pass per fold position, so
        a row has the same bits alone or among rows."""
        ids, wts = np.array(ids, np.int64), np.asarray(weights, float)  # a copy: ids is written
        for prov in self.sub_result.provs:
            order = np.lexsort((ids, -wts))
            chains, wts = np.take_along_axis(ids, order, 1), np.take_along_axis(wts, order, 1)
            wts = np.arange(1, ids.shape[1] + 1) * (wts - np.pad(wts[:, 1:], ((0, 0), (0, 1))))
            for k in range(1, ids.shape[1] + 1):
                live = np.flatnonzero(wts[:, k - 1] > 0.0)
                found = prov.parent.find(np.sort(chains[live, :k], axis=1))
                ids[live, k - 1] = prov.ids[prov.parent.offsets[k - 1] + found]
        order = np.lexsort((ids, wts <= 0.0))[:, :np.max(np.sum(wts > 0.0, axis=1), initial=1)]
        ids, wts = np.take_along_axis(ids, order, 1), np.take_along_axis(wts, order, 1)
        ids = np.where(wts > 0.0, ids, ids[:, :1])
        space = self.grid.body.space
        pts = self.iota_n.at(ids)
        acc, W = pts[:, 0].copy(), wts[:, 0].copy()
        for j in range(1, ids.shape[1]):
            on = wts[:, j] > 0.0
            W[on] += wts[on, j]
            d = spaces.distance_rows(space, acc, pts[:, j])
            move = np.flatnonzero(on & (d > space.tol))
            acc[move] = spaces.geodesic_rows(space, acc[move], pts[move, j],
                                             d[move] * wts[move, j] / W[move])
        return acc, ids


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
    return maps


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
    """r(q): the point where the geodesic from q to the push-off image of q's
    nerve projection leaves the eps-neighborhood, the point body.exit(q,
    target, eps) finds in closed form."""

    def __init__(self, pushoff):
        self.pushoff = pushoff
        self.grid = pushoff.grid
        self.body = pushoff.grid.body
        self.eps = pushoff.grid.eps

    def push_targets(self, Q):
        """PushOff.evaluate_rows at the rows of Q: one nerve projection and one
        coning pass over all rows, each row with its one-row bits."""
        return self.pushoff.evaluate_rows(*self.grid.projector.project_rows(Q))

    def push_target(self, q):
        """(push-off target, cell vertex ids) of one point."""
        return self.pushoff.evaluate(*self.grid.projector.project(q))

    def retract_rows(self, Q):
        """(r, targets, cells): the rows of Q retracted, beside push_targets(Q).
        The crossing stays one retract call per row: the benchmark pins that
        count, so a row form of body.exit waits for the benchmark revision."""
        targets, cells = self.push_targets(Q)
        r = [self.retract(q, (t, c))[0] for q, t, c in zip(Q, targets, cells)]
        return np.reshape(r, targets.shape), targets, cells

    def retract(self, q, hit=None):
        """(r(q), target, cell): the retraction of q with the push-off target
        and nerve cell of its one nerve projection (`hit`, when the caller
        has it from push_targets).  d(geo(t), C) - eps is convex along the
        geodesic, <= 0 at q and > 0 at the target, so it has one crossing,
        the largest root, whose point body.exit returns."""
        body, eps = self.body, self.eps
        g0 = body.dist(q) - eps
        if g0 > 100 * body.space.tol:
            raise PreconditionError(
                f"q lies {g0:.2e} outside the eps-neighborhood")
        target, cell = self.push_target(q) if hit is None else hit
        if body.dist(target) - eps <= 0.0:
            raise PipelineInconsistency(
                "push-off image inside the eps-neighborhood; an upstream "
                "precondition lied")
        r = body.exit(q, target, eps)
        if abs(body.dist(r) - eps) > 1e-7:
            raise PipelineInconsistency(
                f"crossing residual {abs(body.dist(r) - eps):.2e}; no crossing found")
        return r, target, cell
