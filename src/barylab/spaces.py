"""Concrete geodesic model spaces: Euclidean, chordal circle, hyperboloid, finite.

Points are plain numpy float arrays (an integer index for finite spaces).
The hyperboloid model of H^n lives in Minkowski space R^{n,1} with signature
(-,+,...,+); a point x satisfies <x,x> = -1 and x[0] > 0.  The circle
carries the chordal (extrinsic) metric; its intrinsic arc length is exposed
separately as a helper for the arc-midpoint barycenter rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAngle,
    DegenerateGeodesic,
    InvalidCoordinates,
    InvalidIsometry,
)

DEFAULT_TOL = 1e-9

EUCLIDEAN = "euclidean"
CIRCLE = "circle"
HYPERBOLOID = "hyperboloid"
FINITE = "finite"


def minkowski_dot(x, y):
    """Minkowski inner product with signature (-,+,...,+)."""
    return float(np.dot(x[1:], y[1:]) - x[0] * y[0])


@dataclass(frozen=True)
class ModelSpace:
    kind: str
    dim: int
    radius: float = 1.0
    matrix: np.ndarray | None = field(default=None, compare=False)
    tol: float = DEFAULT_TOL

    @staticmethod
    def euclidean(dim, tol=DEFAULT_TOL):
        return ModelSpace(EUCLIDEAN, dim, tol=tol)

    @staticmethod
    def circle(radius=1.0, tol=DEFAULT_TOL):
        return ModelSpace(CIRCLE, 1, radius=radius, tol=tol)

    @staticmethod
    def hyperboloid(dim, tol=DEFAULT_TOL):
        return ModelSpace(HYPERBOLOID, dim, tol=tol)

    @staticmethod
    def finite(matrix, tol=DEFAULT_TOL):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidCoordinates("finite space needs a square distance matrix")
        if np.max(np.abs(m - m.T)) > tol or np.max(np.abs(np.diag(m))) > tol:
            raise InvalidCoordinates("distance matrix must be symmetric with zero diagonal")
        n = m.shape[0]
        for i in range(n):
            # d(j,k) <= d(j,i) + d(i,k) for all j, k
            if np.min(m[:, i][:, None] + m[i, :][None, :] - m) < -tol:
                raise InvalidCoordinates("distance matrix violates the triangle inequality")
        return ModelSpace(FINITE, n, matrix=m, tol=tol)

    @property
    def ambient_dim(self):
        if self.kind == EUCLIDEAN:
            return self.dim
        if self.kind == CIRCLE:
            return 2
        if self.kind == HYPERBOLOID:
            return self.dim + 1
        raise ValueError(f"no ambient dimension for kind {self.kind}")

    @property
    def is_geodesic(self):
        # circle counts as-arc, for flow purposes only
        return self.kind in (EUCLIDEAN, HYPERBOLOID, CIRCLE)

    @property
    def is_cat0(self):
        return self.kind in (EUCLIDEAN, HYPERBOLOID)

    def check_point(self, x):
        """Raise InvalidCoordinates unless x is a point of the space.  NaN and
        infinite coordinates fail every kind.  The circle's radius test reads
        False on them by itself, which keeps the phase sweep's circle_point
        path free of a second check; the other kinds test finiteness first, so
        the Minkowski form never evaluates inf - inf."""
        if self.kind == FINITE:
            if not (float(x).is_integer() and 0 <= x < self.dim):
                raise InvalidCoordinates(f"finite index {x} is not an integer in [0,{self.dim})")
            return
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise InvalidCoordinates(
                f"expected {self.ambient_dim} coordinates for {self.kind}, got shape {x.shape}")
        if self.kind != CIRCLE and not np.all(np.isfinite(x)):
            raise InvalidCoordinates(f"{self.kind} point {x} has a non-finite coordinate")
        if self.kind == HYPERBOLOID:
            norm = minkowski_dot(x, x)
            if not (abs(norm + 1.0) <= 100 * self.tol and x[0] > 0):
                raise InvalidCoordinates(
                    f"hyperboloid point has Minkowski norm {norm:.3e}, x0={x[0]:.3e}")
        elif self.kind == CIRCLE:
            r = float(np.linalg.norm(x))
            if not abs(r - self.radius) <= 100 * self.tol:
                raise InvalidCoordinates(f"point at radius {r}, expected {self.radius}")

    def point(self, coords):
        """Validate and return coordinates as an immutable point array."""
        if self.kind == FINITE:
            self.check_point(coords)
            return int(coords)
        x = np.asarray(coords, dtype=float)
        self.check_point(x)
        x.flags.writeable = False
        return x

    def to_json(self):
        doc = {"kind": self.kind, "dim": self.dim}
        if self.kind == CIRCLE:
            doc["radius"] = self.radius
        if self.kind == FINITE:
            doc["matrix"] = self.matrix.tolist()
        return doc

    @staticmethod
    def from_json(doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        kind = doc["kind"]
        if kind == EUCLIDEAN:
            return ModelSpace.euclidean(doc["dim"])
        if kind == CIRCLE:
            return ModelSpace.circle(doc.get("radius", 1.0))
        if kind == HYPERBOLOID:
            return ModelSpace.hyperboloid(doc["dim"])
        if kind == FINITE:
            return ModelSpace.finite(doc["matrix"])
        raise ValueError(f"unknown space kind {kind!r}")


def _hyperboloid_dist_from_diff(diff):
    """d = 2 asinh(|x-y|_M / 2); cancellation-free for nearby points since
    <x-y, x-y>_M = 2(cosh d - 1) is computed from the difference vector."""
    if diff.ndim == 1:
        msq = float(np.dot(diff[1:], diff[1:]) - diff[0] * diff[0])
        return 2.0 * math.asinh(0.5 * math.sqrt(max(msq, 0.0)))
    msq = np.sum(diff[..., 1:] ** 2, axis=-1) - diff[..., 0] ** 2
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(msq, 0.0)))


def distance(space, x, y):
    """Metric of the model space (chordal for the circle)."""
    if space.kind == FINITE:
        return float(space.matrix[int(x), int(y)])
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if space.kind == HYPERBOLOID:
        return _hyperboloid_dist_from_diff(x - y)
    diff = x - y
    # np.linalg.norm's own formula for a real 1-D array, without its dispatch
    return math.sqrt(float(diff.dot(diff)))


def paired_distances(space, A, B):
    """d(a, b) over the broadcast rows of point arrays A and B (index arrays
    for finite spaces): A of shape (..., ambient) against B of shape
    (..., ambient) gives shape (...).  The one vector distance kernel."""
    if space.kind == FINITE:
        return space.matrix[np.asarray(A, int), np.asarray(B, int)]
    diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
    if space.kind == HYPERBOLOID:
        return _hyperboloid_dist_from_diff(diff)
    return np.linalg.norm(diff, axis=-1)


def distances_to(space, points, y):
    """Vectorized d(p, y) over an (m, ambient) array of points."""
    if np.size(points) == 0:
        return np.zeros(0)
    return paired_distances(space, points, y)


def cross_distances(space, A, B):
    """Matrix of d(a_i, b_j) for point arrays A (m) and B (n)."""
    return paired_distances(space, np.asarray(A)[:, None], np.asarray(B)[None])


def pairwise_diameter(space, points):
    """max_{i,j} d(p_i, p_j); 0 for fewer than two points."""
    pts = list(points)
    if len(pts) < 2:
        return 0.0
    if len(pts) == 2:
        return distance(space, pts[0], pts[1])
    arr = np.asarray(pts)
    return float(np.max(paired_distances(space, arr[:, None], arr[None])))


def _hyperboloid_unit_tangent(x, y, d=None):
    """Unit tangent at x pointing toward y (x, y on the hyperboloid)."""
    if d is None:
        d = distance(ModelSpace.hyperboloid(len(x) - 1), x, y)
    v = y + minkowski_dot(x, y) * x
    s = math.sinh(d)
    if s == 0.0:
        raise DegenerateGeodesic("coincident points have no tangent direction")
    return v / s


def hyperboloid_tangent_frame(p):
    """Orthonormal tangent frame (e1, e2) at a point of the 2-hyperboloid.

    (p1, p0, 0) is always spacelike and Minkowski-orthogonal to p, since
    <e1,e1> = p0^2 - p1^2 = 1 + p2^2.
    """
    p = np.asarray(p, dtype=float)
    e1 = np.array([p[1], p[0], 0.0])
    e1 = e1 / math.sqrt(minkowski_dot(e1, e1))
    e2 = np.array([0.0, 0.0, 1.0])
    e2 = e2 + minkowski_dot(e2, p) * p
    e2 = e2 - minkowski_dot(e2, e1) * e1
    e2 = e2 / math.sqrt(minkowski_dot(e2, e2))
    return e1, e2


def circle_angle(space, x):
    return math.atan2(x[1], x[0])


def arc_distance(space, x, y):
    """Intrinsic arc-length distance on the circle (helper metric)."""
    if space.kind != CIRCLE:
        raise ValueError("arc_distance is defined for circle spaces only")
    a = circle_angle(space, x)
    b = circle_angle(space, y)
    delta = abs(math.remainder(b - a, 2.0 * math.pi))
    return space.radius * delta


def circle_point(space, theta):
    return space.point([space.radius * math.cos(theta), space.radius * math.sin(theta)])


class Geodesic:
    """Unit-speed geodesic from x toward y, with its length and per-kind
    direction computed once: the difference vector (Euclidean), the unit
    tangent at x (hyperboloid), or the end angle and turning sign (circle).

    Euclidean and hyperboloid geodesics extend beyond [0, length]; the circle
    is parametrised by intrinsic arc length along the shorter arc.
    """

    __slots__ = ("space", "x", "length", "_x", "_dir", "_a", "_sign")

    def __init__(self, space, x, y):
        if not space.is_geodesic:
            raise ValueError(f"space kind {space.kind} is not geodesic")
        self.space = space
        self.x = x
        self.length = arc_distance(space, x, y) if space.kind == CIRCLE \
            else distance(space, x, y)
        self._dir = None
        if self.length <= space.tol:
            return
        if space.kind == CIRCLE:
            self._a = circle_angle(space, x)
            delta = math.remainder(circle_angle(space, y) - self._a, 2.0 * math.pi)
            self._sign = 1.0 if delta >= 0 else -1.0
            return
        self._x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if space.kind == EUCLIDEAN:
            self._dir = y - self._x
        else:
            self._dir = _hyperboloid_unit_tangent(self._x, y, self.length)

    def point(self, t):
        """Point at arc length t; x itself when t == 0."""
        if t == 0.0:
            return self.x
        if self.length <= self.space.tol:
            raise DegenerateGeodesic("x = y but t != 0")
        if self.space.kind == EUCLIDEAN:
            return self._x + (t / self.length) * self._dir
        if self.space.kind == HYPERBOLOID:
            return math.cosh(t) * self._x + math.sinh(t) * self._dir
        return circle_point(self.space, self._a + self._sign * t / self.space.radius)

    def points(self, ts):
        """Rows of point(t) over an array of arc lengths (Euclidean and
        hyperboloid kinds); equal to point's rows up to rounding of cosh/sinh."""
        ts = np.asarray(ts, dtype=float)
        if self.space.kind not in (EUCLIDEAN, HYPERBOLOID):
            raise ValueError(f"batched geodesic points need a Euclidean or "
                             f"hyperboloid space, not {self.space.kind}")
        if self.length <= self.space.tol:
            if np.any(ts):
                raise DegenerateGeodesic("x = y but t != 0")
            return np.tile(np.asarray(self.x, dtype=float), (len(ts), 1))
        if self.space.kind == EUCLIDEAN:
            return self._x + (ts / self.length)[:, None] * self._dir
        return np.cosh(ts)[:, None] * self._x + np.sinh(ts)[:, None] * self._dir


def geodesic_point(space, x, y, t):
    """Point at arc length t on the unit-speed geodesic from x to y."""
    return Geodesic(space, x, y).point(t)


def angle_at(space, o, p, q):
    """Riemannian angle at o between the geodesics toward p and toward q."""
    d_op = distance(space, o, p)
    d_oq = distance(space, o, q)
    if d_op <= space.tol or d_oq <= space.tol:
        raise DegenerateAngle("angle undefined when o coincides with p or q")
    if distance(space, p, q) <= space.tol:
        return 0.0  # identical rays
    if space.kind == EUCLIDEAN:
        u = (np.asarray(p, float) - o) / d_op
        v = (np.asarray(q, float) - o) / d_oq
        return math.acos(min(1.0, max(-1.0, float(np.dot(u, v)))))
    if space.kind == HYPERBOLOID:
        u = _hyperboloid_unit_tangent(np.asarray(o, float), np.asarray(p, float), d_op)
        v = _hyperboloid_unit_tangent(np.asarray(o, float), np.asarray(q, float), d_oq)
        return math.acos(min(1.0, max(-1.0, minkowski_dot(u, v))))
    raise ValueError(f"angles not defined for kind {space.kind}")


@dataclass(frozen=True)
class BoundaryPoint:
    """Ideal endpoint of a geodesic ray, encoded as a unit direction vector."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-7:
            raise InvalidCoordinates(f"boundary direction has norm {n}, expected 1")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)


def ray_point(space, o, xi, t):
    """Point at parameter t on the unit-speed ray from o toward boundary point xi."""
    if space.kind == EUCLIDEAN:
        return np.asarray(o, float) + t * xi.direction
    if space.kind != HYPERBOLOID:
        raise ValueError("rays to the boundary need a Euclidean or hyperboloid space")
    o = np.asarray(o, dtype=float)
    return math.cosh(t) * o + math.sinh(t) * _ray_tangent(o, xi)


def _ray_tangent(o, xi):
    """Unit tangent at the hyperboloid point o of the ray toward xi."""
    ell = np.concatenate(([1.0], xi.direction))  # null vector of the ideal class
    return -ell / minkowski_dot(ell, o) - o  # <u,u> = 1, <u,o> = 0


def boundary_point_of_ray(space, o, x):
    """Ideal endpoint of the geodesic ray from o through x."""
    if space.kind == EUCLIDEAN:
        v = np.asarray(x, float) - o
        n = np.linalg.norm(v)
        if n <= space.tol:
            raise DegenerateGeodesic("ray direction undefined for coincident points")
        return BoundaryPoint(v / n)
    if space.kind != HYPERBOLOID:
        raise ValueError("boundary points need a Euclidean or hyperboloid space")
    o = np.asarray(o, dtype=float)
    u = _hyperboloid_unit_tangent(o, np.asarray(x, float))
    ell = o + u  # null: the ray cosh(t) o + sinh(t) u ~ (e^t/2) (o+u)
    return BoundaryPoint(ell[1:] / ell[0])


def gromov_product(space, o, xi, eta):
    """(xi|eta)_o = lim_t t - d(gamma_{o xi}(t), gamma_{o eta}(t))/2.

    In H^n the limit is -log sin(theta/2), theta the angle at o between the
    two rays; sin(theta/2) = |u - v|/2 for their unit tangents u, v, which is
    cancellation-free for nearby boundary points.  +inf when they coincide.
    """
    if space.kind != HYPERBOLOID:
        raise ValueError("the Gromov product is computed on hyperboloid spaces")
    if np.linalg.norm(xi.direction - eta.direction) <= space.tol:
        return math.inf
    o = np.asarray(o, dtype=float)
    w = _ray_tangent(o, xi) - _ray_tangent(o, eta)
    return -math.log(0.5 * math.sqrt(max(minkowski_dot(w, w), 0.0)))


def visual_metric(space, o, xi, eta):
    """rho_o(xi, eta) = exp(-(xi|eta)_o); 0 when xi = eta."""
    g = gromov_product(space, o, xi, eta)
    return 0.0 if math.isinf(g) else math.exp(-g)


@dataclass(frozen=True)
class Isometry:
    """Linear (plus translation, for Euclidean) map preserving the model form."""

    kind: str
    matrix: np.ndarray
    translation: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if self.translation is not None:
            t = np.asarray(self.translation, dtype=float)
            t.flags.writeable = False
            object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(space):
        n = space.ambient_dim
        t = np.zeros(n) if space.kind == EUCLIDEAN else None
        return Isometry(space.kind, np.eye(n), t)

    @staticmethod
    def euclidean_translation(v):
        v = np.asarray(v, dtype=float)
        return Isometry(EUCLIDEAN, np.eye(len(v)), v)

    @staticmethod
    def euclidean_rotation(theta, dim=2, axes=(0, 1)):
        m = np.eye(dim)
        i, j = axes
        c, s = math.cos(theta), math.sin(theta)
        m[i, i] = c
        m[i, j] = -s
        m[j, i] = s
        m[j, j] = c
        return Isometry(EUCLIDEAN, m, np.zeros(dim))

    @staticmethod
    def orthogonal(kind, matrix):
        m = np.asarray(matrix, dtype=float)
        return Isometry(kind, m, np.zeros(m.shape[0]) if kind == EUCLIDEAN else None)

    @staticmethod
    def hyperbolic_boost(length, dim=2):
        """Translation of length `length` along the first-coordinate axis geodesic."""
        m = np.eye(dim + 1)
        c, s = math.cosh(length), math.sinh(length)
        m[0, 0] = c
        m[0, 1] = s
        m[1, 0] = s
        m[1, 1] = c
        return Isometry(HYPERBOLOID, m)

    @staticmethod
    def hyperbolic_rotation(theta, dim=2):
        """Rotation about the basepoint (1, 0, ..., 0)."""
        m = np.eye(dim + 1)
        c, s = math.cos(theta), math.sin(theta)
        m[1, 1] = c
        m[1, 2] = -s
        m[2, 1] = s
        m[2, 2] = c
        return Isometry(HYPERBOLOID, m)

    def validate(self, space, tol=None):
        tol = tol if tol is not None else space.tol
        m = self.matrix
        if space.kind == HYPERBOLOID:
            j = np.diag([-1.0] + [1.0] * space.dim)
            if np.max(np.abs(m.T @ j @ m - j)) > 1e4 * tol:
                raise InvalidIsometry("matrix does not preserve the Minkowski form")
            if m[0, 0] <= 0:
                raise InvalidIsometry("matrix is not future-preserving")
        else:
            if np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) > 1e4 * tol:
                raise InvalidIsometry("matrix is not orthogonal")
        return self

    def apply(self, x):
        y = self.matrix @ np.asarray(x, dtype=float)
        if self.translation is not None:
            y = y + self.translation
        return y

    def apply_boundary(self, xi):
        if self.kind == EUCLIDEAN:
            return BoundaryPoint(self.matrix @ xi.direction)
        ell = self.matrix @ np.concatenate(([1.0], xi.direction))
        return BoundaryPoint(ell[1:] / ell[0])

    def compose(self, other):
        """self after other."""
        m = self.matrix @ other.matrix
        t = None
        if self.translation is not None:
            t = self.matrix @ other.translation + self.translation
        return Isometry(self.kind, m, t)

    def inverse(self):
        mi = np.linalg.inv(self.matrix)
        t = -(mi @ self.translation) if self.translation is not None else None
        return Isometry(self.kind, mi, t)

    def key(self, decimals=9):
        """Hashable rounded key for duplicate detection at tolerance."""
        # adding 0.0 flushes -0.0, whose bytes would differ from 0.0's
        parts = [(np.round(self.matrix, decimals) + 0.0).tobytes()]
        if self.translation is not None:
            parts.append((np.round(self.translation, decimals) + 0.0).tobytes())
        return b"|".join(parts)

    def to_json(self):
        doc = {"matrix": self.matrix.tolist()}
        if self.translation is not None:
            doc["translation"] = self.translation.tolist()
        return doc

    @staticmethod
    def from_json(kind, doc):
        return Isometry(kind, np.asarray(doc["matrix"], dtype=float),
                        np.asarray(doc["translation"], dtype=float)
                        if "translation" in doc else None)


def apply_isometry(g, x):
    """Apply g to a space point or a boundary point."""
    if isinstance(x, BoundaryPoint):
        return g.apply_boundary(x)
    return g.apply(x)
