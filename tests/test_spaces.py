"""Model-space metrics, geodesics, angles, boundary machinery, isometries."""

import math

import numpy as np
import pytest

from barylab import spaces
from barylab.errors import (
    DegenerateAngle,
    DegenerateGeodesic,
    InvalidCoordinates,
    InvalidIsometry,
)

E1 = spaces.ModelSpace.euclidean(1)
E2 = spaces.ModelSpace.euclidean(2)
E3 = spaces.ModelSpace.euclidean(3)
H2 = spaces.ModelSpace.hyperboloid(2)
C1 = spaces.ModelSpace.circle(1.0)

TOL = 1e-9


def rand_point(space, rng, scale=2.0):
    if space.kind == spaces.EUCLIDEAN:
        return rng.uniform(-scale, scale, size=space.dim)
    if space.kind == spaces.HYPERBOLOID:
        theta = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0, scale)
        u = np.array([0.0, math.cos(theta), math.sin(theta)])
        e0 = np.array([1.0, 0.0, 0.0])
        return math.cosh(s) * e0 + math.sinh(s) * u
    if space.kind == spaces.CIRCLE:
        return spaces.circle_point(space, rng.uniform(0, 2 * math.pi))
    raise ValueError(space.kind)


def test_distance_examples():
    assert spaces.distance(E2, np.array([0, 0.0]), np.array([3, 4.0])) == 5.0
    x = np.array([1.0, 0, 0])
    y = np.array([math.cosh(2), math.sinh(2), 0])
    assert abs(spaces.distance(H2, x, y) - 2.0) < TOL
    # chordal distance of a 120-degree arc is sqrt(3) r
    p = spaces.circle_point(C1, 0.0)
    q = spaces.circle_point(C1, 2 * math.pi / 3)
    assert abs(spaces.distance(C1, p, q) - math.sqrt(3)) < TOL


def test_geodesic_examples():
    m = spaces.geodesic_point(E2, np.array([0, 0.0]), np.array([2, 0.0]), 1.0)
    assert np.allclose(m, [1, 0], atol=TOL)
    x = np.array([1.0, 0, 0])
    y = np.array([math.cosh(2), math.sinh(2), 0])
    g = spaces.geodesic_point(H2, x, y, 1.0)
    assert np.allclose(g, [math.cosh(1), math.sinh(1), 0], atol=TOL)
    q = spaces.geodesic_point(E1, np.array([0.0]), np.array([1.0]), 0.25)
    assert abs(q[0] - 0.25) < TOL


def test_geodesic_degenerate():
    x = np.array([0.5, 0.5])
    with pytest.raises(DegenerateGeodesic):
        spaces.geodesic_point(E2, x, x, 0.5)
    assert spaces.geodesic_point(E2, x, x, 0.0) is x
    for space in (E2, H2, C1):
        p = rand_point(space, np.random.default_rng(5))
        geo = spaces.Geodesic(space, p, p)
        assert geo.point(0.0) is p
        with pytest.raises(DegenerateGeodesic):
            geo.point(0.5)
        if space is not C1:
            with pytest.raises(DegenerateGeodesic):
                spaces.geodesic_rows(space, p[None], p[None], np.array([0.0, 0.5]))


def frozen_geodesic_point(space, x, y, t):
    """geodesic_point as it was before spaces.Geodesic: the reference that
    Geodesic.point must match bit for bit."""
    if not space.is_geodesic:
        raise ValueError(f"space kind {space.kind} is not geodesic")
    if t == 0.0:
        return x
    if space.kind == spaces.CIRCLE:
        d_here = spaces.arc_distance(space, x, y)
    elif space.kind == spaces.HYPERBOLOID:
        d_here = spaces.distance(space, x, y)
    else:
        d_here = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    if d_here <= space.tol:
        raise DegenerateGeodesic("x = y but t != 0")
    if space.kind == spaces.EUCLIDEAN:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x + (t / d_here) * (y - x)
    if space.kind == spaces.HYPERBOLOID:
        u = spaces._hyperboloid_unit_tangent(x, y, d_here)
        p = math.cosh(t) * np.asarray(x, dtype=float) + math.sinh(t) * u
        return p
    a = spaces.circle_angle(space, x)
    b = spaces.circle_angle(space, y)
    delta = math.remainder(b - a, 2.0 * math.pi)
    sign = 1.0 if delta >= 0 else -1.0
    return spaces.circle_point(space, a + sign * t / space.radius)


def test_geodesic_point_matches_frozen_reference_bits():
    rng = np.random.default_rng(41)
    for space in (E2, E3, H2, C1):
        for _ in range(100):
            x, y = rand_point(space, rng), rand_point(space, rng)
            geo = spaces.Geodesic(space, x, y)
            L = geo.length
            for t in (0.0, float(rng.uniform(0.0, L)), 0.5 * L, L,
                      float(rng.uniform(L, 3.0 * L))):
                ref = frozen_geodesic_point(space, x, y, t)
                assert np.array_equal(geo.point(t), ref)
                assert np.array_equal(spaces.geodesic_point(space, x, y, t), ref)


def test_geodesic_rows_match_point_rows():
    """Each row of geodesic_rows is Geodesic.point at its arc lengths bit for
    bit, with k arc lengths per row (t = 0 among them) or one."""
    rng = np.random.default_rng(43)
    frac = np.concatenate(([0.0], rng.uniform(0.0, 2.0, 20)))
    for space in (E2, E3, H2):
        X = np.array([rand_point(space, rng) for _ in range(50)])
        Y = np.array([rand_point(space, rng) for _ in range(50)])
        geos = [spaces.Geodesic(space, x, y) for x, y in zip(X, Y)]
        T = np.array([geo.length for geo in geos])[:, None] * frac
        rows = spaces.geodesic_rows(space, X, Y, T)
        assert rows.shape == (50, len(frac), space.ambient_dim)
        for geo, ts, got in zip(geos, T, rows):
            assert np.array_equal(got, [geo.point(float(t)) for t in ts])
        assert np.array_equal(spaces.geodesic_rows(space, X, Y, T[:, 3]), rows[:, 3])
    with pytest.raises(ValueError):
        spaces.geodesic_rows(C1, rand_point(C1, rng)[None], rand_point(C1, rng)[None], frac)


def test_euclidean_distance_matches_norm_bits():
    rng = np.random.default_rng(47)
    for dim in (1, 2, 3, 4):
        space = spaces.ModelSpace.euclidean(dim)
        for scale in (1e-9, 1.0, 1e6):
            X = scale * rng.normal(size=(500, dim))
            Y = scale * rng.normal(size=(500, dim))
            for x, y in zip(X, Y):
                assert spaces.distance(space, x, y) == float(np.linalg.norm(x - y))
    for x, y in zip(rng.normal(size=(200, 2)), rng.normal(size=(200, 2))):
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        assert spaces.distance(C1, x, y) == float(np.linalg.norm(x - y))


def test_angle_examples():
    o = np.zeros(2)
    assert abs(spaces.angle_at(E2, o, np.array([1, 0.0]), np.array([0, 1.0]))
               - math.pi / 2) < TOL
    p = np.array([1.0, 1.0])
    assert spaces.angle_at(E2, o, p, p) == 0.0
    x = np.array([1.0, 0, 0])
    a = np.array([math.cosh(1), math.sinh(1), 0])
    b = np.array([math.cosh(1), -math.sinh(1), 0])
    assert abs(spaces.angle_at(H2, x, a, b) - math.pi) < TOL
    with pytest.raises(DegenerateAngle):
        spaces.angle_at(E2, o, o, p)


def test_isometry_apply_examples():
    ident = spaces.Isometry.identity(E2)
    x = np.array([0.3, -0.7])
    assert np.allclose(ident.apply(x), x)
    tr = spaces.Isometry.euclidean_translation([1.0, 0.0])
    assert np.allclose(tr.apply(np.zeros(2)), [1.0, 0.0])
    boost = spaces.Isometry.hyperbolic_boost(1.7)
    o = np.array([1.0, 0, 0])
    assert abs(spaces.distance(H2, boost.apply(o), o) - 1.7) < TOL


def test_isometry_preserves_distances():
    rng = np.random.default_rng(11)
    for space, g in [(E2, spaces.Isometry.euclidean_rotation(0.7)),
                     (H2, spaces.Isometry.hyperbolic_boost(0.9)),
                     (H2, spaces.Isometry.hyperbolic_rotation(1.1))]:
        g.validate(space)
        for _ in range(50):
            x, y = rand_point(space, rng), rand_point(space, rng)
            d0 = spaces.distance(space, x, y)
            d1 = spaces.distance(space, g.apply(x), g.apply(y))
            assert abs(d0 - d1) < 1e-8


def test_invalid_isometry_rejected():
    bad = spaces.Isometry(spaces.HYPERBOLOID, np.diag([1.0, 2.0, 1.0]))
    with pytest.raises(InvalidIsometry):
        bad.validate(H2)


def test_point_validation():
    with pytest.raises(InvalidCoordinates):
        H2.point([1.0, 1.0, 0.0])  # Minkowski norm 0, not -1
    with pytest.raises(InvalidCoordinates):
        C1.point([2.0, 0.0])
    with pytest.raises(InvalidCoordinates):
        spaces.ModelSpace.finite(np.zeros((2, 2))).point(5)
    fin = spaces.ModelSpace.finite(np.zeros((3, 3)))
    assert fin.point(2.0) == 2 and fin.point(np.int64(1)) == 1
    for fraction in (2.5, 0.5, -0.5, 1e-9):
        with pytest.raises(InvalidCoordinates):
            fin.point(fraction)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_validation_rejects_non_finite(bad):
    """A NaN or infinite coordinate fails every kind, in any position."""
    fin = spaces.ModelSpace.finite(np.zeros((2, 2)))
    for space, p in ((E2, [0.0, 1.0]), (E3, [0.0, 1.0, 2.0]), (H2, [1.0, 0.0, 0.0]),
                     (C1, [1.0, 0.0])):
        space.point(p)
        for i in range(len(p)):
            with pytest.raises(InvalidCoordinates):
                space.point(p[:i] + [bad] + p[i + 1:])
    with pytest.raises(InvalidCoordinates):
        fin.point(bad)


def test_finite_space_validation():
    with pytest.raises(InvalidCoordinates):
        spaces.ModelSpace.finite([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InvalidCoordinates):
        spaces.ModelSpace.finite([[0, 1, 1], [1, 0, 5], [1, 5, 0]])  # triangle


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(5)
    # a finite metric from points on a grid (so triangle inequality holds)
    base = rng.uniform(-1, 1, size=(7, 3))
    fin = spaces.ModelSpace.finite(
        np.linalg.norm(base[:, None, :] - base[None, :, :], axis=2))
    for space in (E2, E3, H2, C1, fin):
        n = 10_000
        xs = [rand_point(space, rng) if space.kind != spaces.FINITE
              else int(rng.integers(0, 7)) for _ in range(60)]
        idx = rng.integers(0, len(xs), size=(n, 3))
        for i, j, k in idx[:n]:
            x, y, z = xs[i], xs[j], xs[k]
            dxy = spaces.distance(space, x, y)
            dyz = spaces.distance(space, y, z)
            dxz = spaces.distance(space, x, z)
            assert dxy + dyz - dxz >= -TOL
            assert dxy >= 0.0
        # symmetry and identity on a few pairs
        for i, j in idx[:100, :2]:
            assert abs(spaces.distance(space, xs[i], xs[j])
                       - spaces.distance(space, xs[j], xs[i])) < TOL
            assert spaces.distance(space, xs[i], xs[i]) < TOL


def test_unit_speed_property():
    rng = np.random.default_rng(17)
    for space in (E2, H2):
        for _ in range(200):
            x, y = rand_point(space, rng), rand_point(space, rng)
            d = spaces.distance(space, x, y)
            if d < 1e-6:
                continue
            s, t = sorted(rng.uniform(0, d, size=2))
            gs = spaces.geodesic_point(space, x, y, s)
            gt = spaces.geodesic_point(space, x, y, t)
            assert abs(spaces.distance(space, gs, gt) - (t - s)) < 10 * TOL
    # circle: unit speed in the intrinsic arc metric
    for _ in range(100):
        x, y = rand_point(C1, rng), rand_point(C1, rng)
        d = spaces.arc_distance(C1, x, y)
        if d < 1e-6:
            continue
        s, t = sorted(rng.uniform(0, d, size=2))
        gs = spaces.geodesic_point(C1, x, y, s)
        gt = spaces.geodesic_point(C1, x, y, t)
        assert abs(spaces.arc_distance(C1, gs, gt) - (t - s)) < 10 * TOL


def test_cat_comparison_midpoints():
    """d(x, midpoint(y,z)) is bounded by the Euclidean comparison median."""
    rng = np.random.default_rng(23)
    for space in (E2, H2):
        for _ in range(300):
            x, y, z = (rand_point(space, rng) for _ in range(3))
            c = spaces.distance(space, y, z)
            if c < 1e-6:
                continue
            m = spaces.geodesic_point(space, y, z, 0.5 * c)
            a = spaces.distance(space, x, y)
            b = spaces.distance(space, x, z)
            comparison = math.sqrt(max(0.0, (2 * a * a + 2 * b * b - c * c) / 4))
            assert spaces.distance(space, x, m) <= comparison + TOL


def test_distance_convexity_along_geodesics():
    rng = np.random.default_rng(29)
    for space in (E2, H2):
        for _ in range(100):
            x1, y1 = rand_point(space, rng), rand_point(space, rng)
            x2, y2 = rand_point(space, rng), rand_point(space, rng)
            d1 = spaces.distance(space, x1, y1)
            d2 = spaces.distance(space, x2, y2)
            if min(d1, d2) < 1e-6:
                continue
            ts = np.linspace(0, 1, 7)
            vals = [spaces.distance(
                space,
                spaces.geodesic_point(space, x1, y1, float(t) * d1),
                spaces.geodesic_point(space, x2, y2, float(t) * d2))
                for t in ts]
            for i in range(1, len(vals) - 1):
                assert vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-7


def test_space_json_roundtrip():
    for space in (E2, H2, C1):
        doc = space.to_json()
        back = spaces.ModelSpace.from_json(doc)
        assert back.kind == space.kind and back.dim == space.dim
    fin = spaces.ModelSpace.finite([[0, 1.5], [1.5, 0]])
    back = spaces.ModelSpace.from_json(fin.to_json())
    assert np.allclose(back.matrix, fin.matrix)


def draw_points(space, rng, n):
    """n points of an R^2, H^2 or H^3 space, or n indices of a finite one."""
    if space.kind == spaces.FINITE:
        return rng.integers(0, space.dim, n)
    if space.kind == spaces.EUCLIDEAN:
        return rng.uniform(-2.0, 2.0, (n, space.dim))
    u = rng.normal(size=(n, space.dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    s = rng.uniform(0.0, 3.0, n)[:, None]
    return np.hstack([np.cosh(s), np.sinh(s) * u])


def planar_metric(rng, n):
    """The finite space of n random points of the plane."""
    P = rng.uniform(0.0, 1.0, (n, 2))
    return spaces.ModelSpace.finite(np.linalg.norm(P[:, None] - P[None], axis=-1))


@pytest.mark.parametrize("which", ["E2", "H2", "H3", "finite"])
def test_pairwise_diameter_blocks_match_one_call(which):
    """The row-block diameter equals the max of the one-call n x n matrix,
    bit for bit, just below, at and above the one-block size (the square
    root of BLOCK_ROWS) and across several blocks."""
    rng = np.random.default_rng(len(which))
    space = {"E2": E2, "H2": H2, "H3": spaces.ModelSpace.hyperboloid(3),
             "finite": planar_metric(rng, 40)}[which]
    side = math.isqrt(spaces.BLOCK_ROWS)
    assert len(spaces.row_blocks(side, side)) == 1 < len(spaces.row_blocks(side + 1, side + 1))
    for n in (side - 1, side, side + 1, 700):
        P = draw_points(space, rng, n)
        one_call = float(np.max(spaces.paired_distances(space, P[:, None], P[None])))
        assert spaces.pairwise_diameter(space, P) == one_call
        assert spaces.pairwise_diameter(space, list(P)) == one_call


def test_pairwise_diameter_memory_is_bounded():
    """2,000 H^2 points: the full difference array alone would take 96 MB."""
    tracemalloc = pytest.importorskip("tracemalloc")
    P = draw_points(H2, np.random.default_rng(3), 2000)
    tracemalloc.start()
    try:
        spaces.pairwise_diameter(H2, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
