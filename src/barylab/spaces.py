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
_PLANE_AXES = {n: (n - 1, *range(n - 1)) for n in range(1, 65)}  # planes() by ndim


def minkowski_dot(x, y):
    """Minkowski inner product with signature (-,+,...,+)."""
    return float(np.dot(x[1:], y[1:]) - x[0] * y[0])


def planes(X):
    """The coordinate planes X[..., i] of an array of points, as views."""
    return X.transpose(_PLANE_AXES[X.ndim])


def plane_dots(A, B, start=0):
    """sum of A[i] * B[i] over i >= start, for sequences of coordinate planes
    (planes(X), or lists of arrays), added left to right in place: below 8
    terms np.sum(..., axis=-1)'s order, so its bits unless every term is -0.0."""
    acc = A[start] * B[start] if start < len(A) else 0.0
    for i in range(start + 1, len(A)):
        acc += A[i] * B[i]
    return acc


def minkowski_rows(A, B):
    """Minkowski products of the broadcast rows (last axis) of A and B."""
    A, B = planes(A), planes(B)
    return plane_dots(A, B, 1) - A[0] * B[0]


def row_dots(A, B):
    """np.dot of each broadcast row pair (last axis) of A and B, bit for bit:
    a stacked np.matmul runs np.dot's routine on every row, where
    np.sum(A * B, axis=-1) adds the products in another order."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def minkowski_dots(A, B):
    """minkowski_dot of each broadcast row pair of A and B, bit for bit."""
    return row_dots(A[..., 1:], B[..., 1:]) - A[..., 0] * B[..., 0]


def each(fn, x):
    """The scalar function fn (math.sinh, say) on each element of x.  Row
    passes take their transcendentals this way to keep the bits of the
    one-point path, which numpy's vector kernels do not round alike."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.flat), float, x.size).reshape(x.shape)


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


def distance(space, x, y):
    """Metric of the model space (chordal for the circle).  In H^n, d = 2
    asinh(|x-y|_M / 2): <x-y, x-y>_M = 2(cosh d - 1), computed from the
    difference vector, has no cancellation for nearby points."""
    if space.kind == FINITE:
        return float(space.matrix[int(x), int(y)])
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if space.kind == HYPERBOLOID:
        return 2.0 * math.asinh(0.5 * math.sqrt(max(minkowski_dot(diff, diff), 0.0)))
    # np.linalg.norm's own formula for a real 1-D array, without its dispatch
    return math.sqrt(float(diff.dot(diff)))


def distance_rows(space, X, Y):
    """distance(space, x, y) over the broadcast rows of X and Y (Euclidean
    and hyperboloid kinds), bit for bit: the same products by row_dots and
    the same math.asinh.  paired_distances is the faster kernel wherever the
    bits of the one-point path do not matter."""
    diff = np.asarray(X, dtype=float) - np.asarray(Y, dtype=float)
    if space.kind == HYPERBOLOID:
        msq = minkowski_dots(diff, diff)
        return 2.0 * each(math.asinh, 0.5 * np.sqrt(np.maximum(msq, 0.0)))
    return np.sqrt(row_dots(diff, diff))


def paired_distances(space, A, B):
    """d(a, b) over the broadcast rows of point arrays A and B (index arrays
    for finite spaces): A of shape (..., ambient) against B of shape
    (..., ambient) gives shape (...).  The one vector distance kernel."""
    if space.kind == FINITE:
        return space.matrix[np.asarray(A, int), np.asarray(B, int)]
    diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
    if space.kind == HYPERBOLOID:
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(minkowski_rows(diff, diff), 0.0)))
    diff = planes(diff)
    return np.sqrt(plane_dots(diff, diff))


def distances_to(space, points, y):
    """Vectorized d(p, y) over an (m, ambient) array of points."""
    if np.size(points) == 0:
        return np.zeros(0)
    return paired_distances(space, points, y)


def cross_distances(space, A, B):
    """Matrix of d(a_i, b_j) for point arrays A (m) and B (n)."""
    return paired_distances(space, np.asarray(A)[:, None], np.asarray(B)[None])


# Pairs (or sample rows) per block of a row-block pass: each block's
# temporaries hold at most this many rows of ambient coordinates.
BLOCK_ROWS = 2**14


def row_blocks(rows, width):
    """Slices that cover range(rows) in order, each of at most
    max(1, BLOCK_ROWS // width) rows, so that a block of rows times `width`
    columns stays within BLOCK_ROWS pairs."""
    step = max(1, BLOCK_ROWS // max(width, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def pairwise_diameter(space, points):
    """max_{i,j} d(p_i, p_j); 0 for fewer than two points.  Three or more
    points take one paired_distances call per row block, which gives the max
    of the full matrix bit for bit."""
    arr = np.asarray(points)
    if len(arr) < 2:
        return 0.0
    if len(arr) == 2:
        return distance(space, arr[0], arr[1])
    return max(float(np.max(paired_distances(space, arr[rows, None], arr[None])))
               for rows in row_blocks(len(arr), len(arr)))


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

    @property
    def tangent(self):
        """Unit tangent at x (Euclidean and hyperboloid kinds, length > tol)."""
        return self._dir / self.length if self.space.kind == EUCLIDEAN else self._dir

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



def geodesic_rows(space, X, Y, T):
    """Points at arc length T on the unit-speed geodesics from the rows of X
    to the same rows of Y (Euclidean and hyperboloid kinds).  T of shape (m,)
    gives one point per row, shape (m, ambient); T of shape (m, k) gives k
    per row, shape (m, k, ambient).  Each point is Geodesic(space, x,
    y).point(t) bit for bit: the lengths are distance_rows, the products
    row_dots and the transcendentals math's, element by element."""
    if space.kind not in (EUCLIDEAN, HYPERBOLOID):
        raise ValueError(f"batched geodesic points need a Euclidean or "
                         f"hyperboloid space, not {space.kind}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T = np.asarray(T, dtype=float)
    L = distance_rows(space, X, Y)
    moving, still = T != 0.0, L <= space.tol
    extra = (1,) * (T.ndim - 1)  # T's columns past the first
    if np.any(moving & still.reshape(L.shape + extra)):
        raise DegenerateGeodesic("x = y but t != 0")
    L = np.where(still, 1.0, L)  # rows whose points all stay at x
    Xt = X.reshape(X.shape[:1] + extra + X.shape[1:])
    if space.kind == EUCLIDEAN:
        pts = Xt + (T / L.reshape(L.shape + extra))[..., None] * (Y - X).reshape(Xt.shape)
    else:
        U = (Y + minkowski_dots(X, Y)[:, None] * X) / each(math.sinh, L)[:, None]
        pts = each(math.cosh, T)[..., None] * Xt \
            + each(math.sinh, T)[..., None] * U.reshape(Xt.shape)
    return np.where(moving[..., None], pts, Xt)


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
        """g(x) for one point, or g of each row of an (m, ambient) array:
        a stacked matrix-vector np.matmul gives each row the one-point bits."""
        x = np.asarray(x, dtype=float)
        y = self.matrix @ x if x.ndim == 1 else np.matmul(self.matrix, x[..., None])[..., 0]
        if self.translation is not None:
            y = y + self.translation
        return y

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

