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
    StagedPreconditionError,
    UndefinedNormal,
)

ALPHA_DEFAULT = math.pi
# ITP (Oliveira & Takahashi 2020), d = d(q, target): kappa1 = ITP_K1/d, kappa2, n0, eps/d
ITP_K1, ITP_K2, ITP_N0, ITP_EPS = 0.2, 2, 1, 2.0 ** -52
ITP_STEPS = math.ceil(math.log2(1.0 / (2.0 * ITP_EPS))) + ITP_N0  # n_max = 52


def _mdot_rows(A, B):
    return np.sum(A[:, 1:] * B[:, 1:], axis=1) - A[:, 0] * B[:, 0]


# ---------------------------------------------------------------------------
# convex bodies


class ConvexBody:
    kind = "abstract"

    def __init__(self, space):
        self.space = space

    def project(self, x):
        raise NotImplementedError

    def project_batch(self, X):
        return np.asarray([self.project(x) for x in X])

    def dist(self, x):
        return spaces.distance(self.space, x, self.project(x))

    def dist_batch(self, X):
        X = np.asarray(X, float)
        P = self.project_batch(X)
        if self.space.kind == spaces.HYPERBOLOID:
            return spaces._hyperboloid_dist_from_diff(X - P)
        return np.linalg.norm(X - P, axis=1)


class PointBody(ConvexBody):
    kind = "point"

    def __init__(self, space, point):
        super().__init__(space)
        self.point = np.asarray(point, float)
        space.check_point(self.point)

    def project(self, x):
        return self.point

    def project_batch(self, X):
        return np.tile(self.point, (len(X), 1))

    def to_json(self):
        return {"type": "point", "point": self.point.tolist()}


class LineBody(ConvexBody):
    """Complete geodesic through two points (bi-infinite)."""

    kind = "line"

    def __init__(self, space, a, b):
        super().__init__(space)
        self.a = np.asarray(a, float)
        self.b = np.asarray(b, float)
        if space.kind == spaces.EUCLIDEAN:
            u = self.b - self.a
            self.u = u / np.linalg.norm(u)
            self.normal = np.array([-self.u[1], self.u[0]])
        elif space.kind == spaces.HYPERBOLOID:
            c = np.cross(self.a, self.b)
            w = np.array([-c[0], c[1], c[2]])  # J @ cross: Minkowski normal
            nrm = spaces.minkowski_dot(w, w)
            if nrm <= 0:
                raise ValueError("points do not span a geodesic")
            self.normal = w / math.sqrt(nrm)
            d = spaces.distance(space, self.a, self.b)
            self.u = spaces._hyperboloid_unit_tangent(self.a, self.b, d)
        else:
            raise ValueError("line bodies live in Euclidean or hyperboloid planes")

    def param_point(self, s):
        """Unit-speed parametrization of the line."""
        if self.space.kind == spaces.EUCLIDEAN:
            return self.a + s * self.u
        return math.cosh(s) * self.a + math.sinh(s) * self.u

    def project(self, x):
        if self.space.kind == spaces.EUCLIDEAN:
            x = np.asarray(x, float)
            return self.a + float(np.dot(x - self.a, self.u)) * self.u
        s = spaces.minkowski_dot(np.asarray(x, float), self.normal)
        return (x - s * self.normal) / math.sqrt(1.0 + s * s)

    def project_batch(self, X):
        X = np.asarray(X, float)
        if self.space.kind == spaces.EUCLIDEAN:
            t = (X - self.a) @ self.u
            return self.a[None, :] + t[:, None] * self.u[None, :]
        s = _mdot_rows(X, np.tile(self.normal, (len(X), 1)))
        return (X - s[:, None] * self.normal[None, :]) / np.sqrt(1.0 + s * s)[:, None]

    def dist(self, x):
        if self.space.kind == spaces.HYPERBOLOID:
            return math.asinh(abs(spaces.minkowski_dot(np.asarray(x, float),
                                                       self.normal)))
        return super().dist(x)

    def dist_batch(self, X):
        if self.space.kind == spaces.HYPERBOLOID:
            return np.arcsinh(np.abs(_mdot_rows(np.asarray(X, float),
                                                self.normal[None, :])))
        return super().dist_batch(X)

    def to_json(self):
        return {"type": "line", "a": self.a.tolist(), "b": self.b.tolist()}


class SegmentBody(ConvexBody):
    kind = "segment"

    def __init__(self, space, a, b):
        super().__init__(space)
        self.a = np.asarray(a, float)
        self.b = np.asarray(b, float)
        self.length = spaces.distance(space, self.a, self.b)
        self.line = LineBody(space, a, b)

    def param_point(self, s):
        return spaces.geodesic_point(self.space, self.a, self.b, s)

    def project(self, x):
        p = self.line.project(x)
        da = spaces.distance(self.space, self.a, p)
        db = spaces.distance(self.space, p, self.b)
        if da + db <= self.length + 100 * self.space.tol:
            return p
        return self.a if spaces.distance(self.space, x, self.a) <= \
            spaces.distance(self.space, x, self.b) else self.b

    def project_batch(self, X):
        if self.space.kind == spaces.EUCLIDEAN:
            X = np.asarray(X, float)
            t = np.clip((X - self.a) @ self.line.u, 0.0, self.length)
            return self.a[None, :] + t[:, None] * self.line.u[None, :]
        return super().project_batch(X)

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
    """Phi_N^t: move x outward along the geodesic through its projection."""
    d = body.dist(x)
    if d <= body.space.tol:
        raise UndefinedNormal("normal flow undefined on the body itself")
    if t < -(d - body.space.tol):
        raise PreconditionError(f"flow time {t} would cross the body (d={d})")
    if t == 0.0:
        return np.asarray(x, float)
    return spaces.geodesic_point(body.space, body.project(x), x, d + t)


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


def angle_to_C_batch(body, Q, q_prime):
    """Vectorized angle_to_C over rows of Q (2d Euclidean / hyperboloid)."""
    return _angles_to_C(body, Q)(q_prime)


def _angles_to_C(body, Q):
    """angle_to_C_batch as a function of q'; the terms of Q alone (its
    projection, the direction to it, in H^n its length) are computed once."""
    Q = np.asarray(Q, float)
    P = body.project_batch(Q)
    if body.space.kind == spaces.EUCLIDEAN:
        u2 = (P - Q) / np.linalg.norm(P - Q, axis=1)[:, None]

        def angles(q_prime):
            u1 = np.asarray(q_prime, float)[None, :] - Q
            u1 = u1 / np.linalg.norm(u1, axis=1)[:, None]
            return np.arccos(np.clip(np.sum(u1 * u2, axis=1), -1.0, 1.0))
        return angles
    c2 = _mdot_rows(Q, P)
    u2, s2 = P + c2[:, None] * Q, np.sqrt(np.maximum(c2 * c2 - 1.0, 1e-300))

    def angles(q_prime):
        QP = np.tile(np.asarray(q_prime, float), (len(Q), 1))
        c1 = _mdot_rows(Q, QP)
        u1 = QP + c1[:, None] * Q
        s1 = np.sqrt(np.maximum(c1 * c1 - 1.0, 1e-300))
        return np.arccos(np.clip(_mdot_rows(u1, u2) / (s1 * s2), -1.0, 1.0))
    return angles


def check_large_angle_escape(body, eps, q, q_prime, samples=100,
                             enforce_angle=True):
    """True iff the geodesic from q toward q' stays strictly outside the
    eps-neighborhood after leaving q (sampled); requires the angle > pi/2.

    enforce_angle=False runs the sampled check without the angle
    precondition, e.g. to demonstrate that small-angle directions re-enter.
    """
    tol = body.space.tol
    if abs(body.dist(q) - eps) > 100 * tol:
        raise PreconditionError("q does not lie on the eps-level set")
    if enforce_angle and angle_to_C(body, q, q_prime) <= math.pi / 2.0 + tol:
        raise PreconditionError("escape check requires an angle > pi/2")
    geo = spaces.Geodesic(body.space, q, q_prime)
    pts = geo.points(np.linspace(geo.length / samples, geo.length, samples))
    return not np.any(body.dist_batch(pts) <= eps)


# ---------------------------------------------------------------------------
# eps-neighborhood boundary parametrization


class EpsNeighborhood:
    """Sampler of the level set {d(., C) = eps}, parametrized by arc length."""

    def __init__(self, body, eps):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.body = body
        self.eps = eps
        self.space = body.space
        kind = (body.space.kind, body.kind)
        if kind == (spaces.EUCLIDEAN, "point"):
            self._components = {"circle": 2.0 * math.pi * eps}
        elif kind == (spaces.EUCLIDEAN, "line"):
            self._components = {"plus": math.inf, "minus": math.inf}
        elif kind == (spaces.EUCLIDEAN, "segment"):
            self._components = {"outer": 2.0 * body.length + 2.0 * math.pi * eps}
        elif kind == (spaces.HYPERBOLOID, "point"):
            self._components = {"circle": 2.0 * math.pi * math.sinh(eps)}
        elif kind == (spaces.HYPERBOLOID, "line"):
            self._components = {"plus": math.inf, "minus": math.inf}
        else:
            raise ValueError(f"no boundary parametrization for {kind}")

    def components(self):
        return sorted(self._components)

    def period(self, component):
        """Arc length of a closed component; inf for unbounded ones."""
        return self._components[component]

    def point(self, component, s):
        body, eps, space = self.body, self.eps, self.space
        if space.kind == spaces.EUCLIDEAN:
            if body.kind == "point":
                th = s / eps
                return body.point + eps * np.array([math.cos(th), math.sin(th)])
            if body.kind == "line":
                side = 1.0 if component == "plus" else -1.0
                return body.a + s * body.u + side * eps * body.normal
            if body.kind == "segment":
                return self._stadium_point(s)
        if body.kind == "point":  # hyperbolic circle
            p = body.point
            e1, e2 = spaces.hyperboloid_tangent_frame(p)
            th = s / math.sinh(eps)
            u = math.cos(th) * e1 + math.sin(th) * e2
            return math.cosh(eps) * p + math.sinh(eps) * u
        # hyperbolic equidistant curve: arc length s = cosh(eps) * axis length
        side = 1.0 if component == "plus" else -1.0
        s_axis = s / math.cosh(eps)
        foot = body.param_point(s_axis)
        return math.cosh(eps) * foot + math.sinh(eps) * side * body.normal

    def _stadium_point(self, s):
        body, eps = self.body, self.eps
        L = body.length
        cap = math.pi * eps
        s = s % (2.0 * L + 2.0 * cap)
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

    def samples(self, component, s_lo, s_hi, count, endpoint=False):
        ss = np.linspace(s_lo, s_hi, count, endpoint=endpoint)
        return [(float(s), self.point(component, float(s))) for s in ss]


# ---------------------------------------------------------------------------
# push-off grids


@dataclass
class GridVerification:
    alpha: float
    min_witness_angle: float
    push_off_distance: float
    max_element_diam: float
    boundary_map_diameter: float
    diam_iota: float

    def ok(self, angle_tol=1e-5):
        return (self.min_witness_angle >= self.alpha - angle_tol
                and self.push_off_distance > 0.0)


@dataclass
class PushOffGrid:
    body: ConvexBody
    eps: float
    R: float
    action: covers.GroupAction
    cover: covers.BallCover
    projector: covers.NerveProjector
    iota: simplicial.VertexMap
    boundary_flags: dict
    witnesses: dict  # boundary vertex -> (witness point, recorded angle)
    designated: np.ndarray | None
    delta: float
    delta_prime_target: float

    @property
    def nerve(self):
        return self.projector.nerve

    @property
    def adjacency(self):
        return self.projector.adj

    def boundary_edges(self):
        return [e for e in self.nerve.edges
                if self.boundary_flags.get(e[0]) and self.boundary_flags.get(e[1])]

    def push_off_distance(self):
        return min(self.body.dist(self.iota(v)) - self.eps
                   for v in self.nerve.vertices)

    @functools.cached_property
    def min_witness_angle(self):
        return min((a for _, a in self.witnesses.values()), default=math.pi)

    @functools.cached_property
    def boundary_map_diameter(self):
        bdy_diam = 0.0
        for e in self.boundary_edges():
            bdy_diam = max(bdy_diam, spaces.distance(
                self.body.space, self.iota(e[0]), self.iota(e[1])))
        return bdy_diam

    def verify(self, alpha=ALPHA_DEFAULT):
        return GridVerification(
            alpha=alpha,
            min_witness_angle=self.min_witness_angle,
            push_off_distance=self.push_off_distance(),
            max_element_diam=self.cover.max_diameter,
            boundary_map_diameter=self.boundary_map_diameter,
            diam_iota=simplicial.map_diameter(self.nerve, self.iota),
        )


def calibrate_delta(neighborhood, component, s_lo, s_hi, flow_time, delta,
                    delta_prime, max_halvings=5):
    """Shrink delta until boundary points within 2*delta flow to within
    delta_prime of each other (sampled); the uniform-continuity constant
    linking delta to delta' is found empirically, not derived."""
    body = neighborhood.body
    for _ in range(max_halvings + 1):
        spacing = delta / 4.0
        count = max(8, int(math.ceil((s_hi - s_lo) / spacing)) + 1)
        pts = np.asarray([p for _, p in neighborhood.samples(
            component, s_lo, s_hi, count, endpoint=True)])
        flowed = np.asarray([normal_flow(body, p, flow_time) for p in pts])
        window = max(1, int(math.ceil(2.0 * delta / spacing)))
        # pairs (i, i + off) for off = 1 .. window + 1, one kernel call per offset
        for off in range(1, min(window + 2, len(pts))):
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
        f"uniform-continuity calibration failed after {max_halvings} halvings")


def build_boundary_grid(body, eps, R, action, component, s_lo, s_hi, delta,
                        delta_prime, interior_points=(), max_halvings=5):
    """Boundary-tight push-off grid: cover the window collar of the eps-level
    set with delta/2 balls centered on it, flow each center (the witness) to
    the R-level set, send interior elements to a designated point of K_out,
    and extend to the adjacency by equivariance."""
    nbh = EpsNeighborhood(body, eps)
    flow_time = R - eps
    delta = calibrate_delta(nbh, component, s_lo, s_hi, flow_time, delta,
                            delta_prime, max_halvings=max_halvings)

    spacing = 0.45 * delta
    count = max(4, int(math.ceil((s_hi - s_lo) / spacing)))
    boundary_samples = nbh.samples(component, s_lo, s_hi, count, endpoint=False)
    balls = [(p, delta / 2.0) for _, p in boundary_samples]
    n_boundary = len(balls)
    balls += [(np.asarray(c, float), delta / 2.0) for c in interior_points]

    window = [p for _, p in boundary_samples] + \
        [np.asarray(c, float) for c in interior_points]
    cover = covers.BallCover(body.space, balls, window)
    projector = covers.NerveProjector(cover, action)
    adj = projector.adj

    mid = nbh.point(component, 0.5 * (s_lo + s_hi))
    designated = normal_flow(body, mid, flow_time)

    assignment = {}
    boundary_flags = {}
    witnesses = {}
    for i, e in enumerate(adj.elements):
        base = e.base_label
        if base < n_boundary:
            q = e.group_element.apply(cover.balls[base].center)
            img = normal_flow(body, q, flow_time)
            assignment[i] = img
            boundary_flags[i] = True
            witnesses[i] = (q, angle_to_C(body, q, img))
        else:
            assignment[i] = e.group_element.apply(designated)
            boundary_flags[i] = False
    iota = simplicial.VertexMap(body.space, assignment)
    return PushOffGrid(
        body=body, eps=eps, R=R, action=action, cover=cover,
        projector=projector, iota=iota, boundary_flags=boundary_flags,
        witnesses=witnesses, designated=designated, delta=delta,
        delta_prime_target=delta_prime)


# ---------------------------------------------------------------------------
# smallness of (delta, delta')


@dataclass
class SmallnessReport:
    alpha: float
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
            "alpha": self.alpha, "delta": self.delta,
            "delta_prime": self.delta_prime,
            "cond1": {"ok": self.cond1_ok, "margin": self.cond1_margin},
            "cond2": {"ok": self.cond2_ok, "margin": self.cond2_margin},
            "cond3": {"ok": self.cond3_ok, "variation": self.cond3_variation,
                      "gate": self.cond3_gate},
        }


def check_small_relative(body, eps, action, K_samples, K_out_samples,
                         sigma_samples, alpha, delta, delta_prime,
                         sample_resolution):
    """Sampled check that (delta, delta') are small relative to K, K_out, alpha.

    Condition (3) is verified through the sufficient bound M1 + M2 <=
    alpha/2 - pi/4, where M1/M2 are the angle variations over close boundary
    pairs and close K_out pairs respectively.
    """
    space = body.space
    tol = space.tol

    # (1) sampled-disjoint translates must be farther than 2*delta
    cond1_margin = math.inf
    cond1_ok = True
    for g, _ in action.nontrivial():
        gK = np.asarray([g.apply(p) for p in K_samples])
        dmin = min(float(np.min(spaces.distances_to(space, gK, p)))
                   for p in K_samples)
        if dmin > sample_resolution:  # judged disjoint at sample scale
            cond1_margin = min(cond1_margin, dmin - 2.0 * delta)
            if dmin <= 2.0 * delta + tol:
                cond1_ok = False

    # (2) the delta'-neighborhood of K_out avoids the eps-neighborhood
    gaps = body.dist_batch(np.asarray(K_out_samples)) - eps
    cond2_margin = float(np.min(gaps)) - delta_prime
    cond2_ok = cond2_margin > tol

    # (3) angle-variation gate
    gate = alpha / 2.0 - math.pi / 4.0
    out_aug = list(K_out_samples)
    for p in K_out_samples:
        out_aug.append(normal_flow(body, p, 0.5 * delta_prime))
        d = body.dist(p)
        out_aug.append(normal_flow(body, p, -min(0.5 * delta_prime, d - eps - tol)))
    sig_arr = np.asarray([p for _, p in sigma_samples])
    angles = _angles_to_C(body, sig_arr)
    At = np.empty((len(out_aug), len(sig_arr)))  # one row of angles per q'
    for j, qp in enumerate(out_aug):
        At[j] = angles(qp)
    m1 = _pair_variation(At, sig_arr, space, delta, axis=1)
    m2 = _pair_variation(At, out_aug, space, delta_prime, axis=0)
    variation = m1 + m2
    cond3_ok = variation <= gate + tol
    return SmallnessReport(alpha, delta, delta_prime, cond1_ok,
                           cond1_margin if cond1_margin < math.inf else math.inf,
                           cond2_ok, cond2_margin, cond3_ok, variation, gate)


def _pair_variation(A, points, space, radius, axis):
    """Max |A difference| over index pairs whose points are within radius."""
    pts = np.asarray(points)
    rows = A if axis == 0 else np.ascontiguousarray(A.T)
    worst = 0.0
    for i in range(len(pts)):
        d = spaces.distances_to(space, pts[i + 1:], pts[i])
        js = i + 1 + np.nonzero(d <= radius)[0]
        if len(js):
            worst = max(worst, float(np.max(np.abs(rows[i] - rows[js]))))
    return worst


# ---------------------------------------------------------------------------
# push-off extension by geodesic coning


@dataclass
class PushOff:
    grid: PushOffGrid
    lam: float
    order: int
    sub_result: object  # subdivision data
    delta_prime: float
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
        for v, wt in items:
            p = self.iota_n(v)
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
    """Partial vertex maps on the nerve of Adj(U) induced by the group."""
    index_of = {}
    for i, e in enumerate(adj.elements):
        index_of[(e.group_element.key(), e.base_label)] = i
    maps = []
    for h, _ in adj.action.nontrivial():
        vmap = {}
        for i, e in enumerate(adj.elements):
            key = (h.compose(e.group_element).key(), e.base_label)
            if key in index_of:
                vmap[i] = index_of[key]
        if vmap:
            maps.append((h, vmap))
    return subdivision.EquivariantStructure(maps)


def extend_to_pushoff(grid, lam, n, delta_prime, alpha=ALPHA_DEFAULT):
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
    # exactly alpha = pi; 1e-5 absorbs the floating-point arccos floor
    min_angle = grid.min_witness_angle
    if min_angle < alpha - 1e-5:
        raise StagedPreconditionError(
            "grid-angle", f"witness angle {min_angle} < alpha = {alpha}")

    equiv = _equivariance_from_adjacency(grid.adjacency)
    result = subdivision.iterate_subdivision(
        grid.nerve, grid.iota, lam, n, equivariance=equiv)
    complex_, iota = result.complex, result.iota

    full_diam = float(np.max(result.record.final_diams, initial=0.0))
    if full_diam > delta_prime + tol:
        raise StagedPreconditionError(
            "full-tightness",
            f"diam(iota_n) = {full_diam:.3e} > delta' = {delta_prime:.3e}")

    push_dist = float(np.min(grid.body.dist_batch(
        [iota(v) for v in complex_.ids.tolist()]))) - grid.eps
    if push_dist <= 0.0:
        raise StagedPreconditionError(
            "image-outside", "subdivided images do not stay outside the "
            "eps-neighborhood")
    if push_dist <= delta_prime + tol:
        raise StagedPreconditionError(
            "push-off-distance",
            f"d_push-off(iota_n) = {push_dist:.3e} <= delta' = {delta_prime:.3e}")

    return PushOff(grid=grid, lam=lam, order=n, sub_result=result,
                   delta_prime=delta_prime, full_map_diameter=full_diam,
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
