"""Convex bodies, normal flow, push-off grids, extension, and the retraction."""

import dataclasses
import math

import numpy as np
import pytest

from barylab import covers, retraction as rt, scenes, simplicial, spaces
from barylab import subdivision as sd
from barylab.errors import (
    BudgetExceeded,
    CalibrationError,
    InvalidCoordinates,
    PreconditionError,
    StagedPreconditionError,
    UncoveredPoint,
    UndefinedNormal,
    check_budget,
)
from test_spaces import FrozenGeodesic, frozen_geodesic_point
from test_subdivision import subdivision_coordinates

E2 = spaces.ModelSpace.euclidean(2)
H2 = spaces.ModelSpace.hyperboloid(2)
SQ32 = math.sqrt(3) / 2


def hyp_axis_body():
    return rt.LineBody(H2, np.array([1.0, 0, 0]),
                       np.array([math.cosh(1), math.sinh(1), 0.0]))


def param_point(body, s):
    """Unit-speed parametrization of a line body, or of a segment body from a."""
    if body.kind == "segment":
        return spaces.geodesic_point(body.space, body.a, body.b, s)
    if body.space.kind == spaces.EUCLIDEAN:
        return body.a + s * body.u
    return math.cosh(s) * body.a + math.sinh(s) * body.u


def golden_section_min(f, a, b, iters=200):
    """Independent projection oracle: golden-section search on a convex f."""
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_projection_examples():
    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    x = np.array([0.5, 2.0])
    assert np.allclose(seg.project(x), [0.5, 0.0])
    assert abs(seg.dist(x) - 2.0) < 1e-12

    inside = np.array([0.7, 0.0])
    assert np.allclose(seg.project(inside), inside)
    assert seg.dist(inside) < 1e-12

    body = hyp_axis_body()
    x = spaces.geodesic_point(
        H2, np.array([1.0, 0, 0]), np.array([math.cosh(1), 0.0, math.sinh(1)]), 1.0)
    assert abs(body.dist(x) - 1.0) < 1e-9
    assert np.allclose(body.project(x), [1.0, 0, 0], atol=1e-9)


def test_projection_against_golden_section_oracle():
    rng = np.random.default_rng(3)
    line_e = rt.LineBody(E2, np.zeros(2), np.array([1.0, 0.3]))
    line_h = hyp_axis_body()
    for body, sampler in [
            (line_e, lambda: rng.uniform(-2, 2, 2)),
            (line_h, lambda: np.array([math.cosh(rng.uniform(0, 1.2)),
                                       0.0, math.sinh(rng.uniform(0, 1.2))])
             if True else None)]:
        for _ in range(25):
            x = sampler()
            if body.space.kind == spaces.HYPERBOLOID:
                s = rng.uniform(-1.5, 1.5)
                t = rng.uniform(0.1, 1.2)
                x = np.array([math.cosh(s) * math.cosh(t),
                              math.sinh(s) * math.cosh(t), math.sinh(t)])
            t_star = golden_section_min(
                lambda t: spaces.distance(body.space, x, param_point(body, t)),
                -8.0, 8.0)
            oracle = param_point(body, t_star)
            assert spaces.distance(body.space, body.project(x), oracle) < 1e-6

    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        t_star = golden_section_min(
            lambda t: float(np.linalg.norm(x - param_point(seg, t))),
            0.0, seg.length)
        assert np.linalg.norm(seg.project(x) - param_point(seg, t_star)) < 1e-6


def test_projection_idempotent_and_distance_convex():
    rng = np.random.default_rng(7)
    bodies = [rt.PointBody(E2, np.array([0.2, -0.1])),
              rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0])),
              rt.LineBody(E2, np.zeros(2), np.array([1.0, 1.0])),
              hyp_axis_body(),
              rt.PointBody(H2, np.array([1.0, 0, 0]))]
    for body in bodies:
        space = body.space
        for _ in range(40):
            if space.kind == spaces.EUCLIDEAN:
                x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            else:
                def rp():
                    s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
                    return np.array([math.cosh(s) * math.cosh(t),
                                     math.sinh(s) * math.cosh(t), math.sinh(t)])
                x, y = rp(), rp()
            p = body.project(x)
            assert spaces.distance(space, body.project(p), p) < 1e-7
            d = spaces.distance(space, x, y)
            if d < 1e-6:
                continue
            vals = [body.dist(spaces.geodesic_point(space, x, y, float(t) * d))
                    for t in np.linspace(0, 1, 7)]
            for i in range(1, 6):
                assert vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-7


def test_line_and_segment_ends_are_checked():
    """Both ends of a line or segment must be points of its space: a NaN
    coordinate in R^2, a point off the hyperboloid sheet in H^2."""
    for space, good, bad in ((E2, [1.0, 0.0], [0.0, math.nan]),
                             (H2, [1.0, 0.0, 0.0], [3.0, 1.0, 1.0])):
        for body in (rt.LineBody, rt.SegmentBody):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(InvalidCoordinates):
                    body(space, a, b)


def test_normal_flow_examples():
    pt = rt.PointBody(E2, np.zeros(2))
    out = rt.normal_flow(pt, np.array([1.0, 0.0]), 2.0)
    assert np.allclose(out, [3.0, 0.0])
    x = np.array([0.3, 0.4])
    assert np.allclose(rt.normal_flow(pt, x, 0.0), x)

    body = hyp_axis_body()
    q = rt.Window(body, 1.0, "plus", 0.0, 1.0).point(0.7)
    flowed = rt.normal_flow(body, q, 2.0)
    assert abs(body.dist(flowed) - 3.0) < 1e-9

    with pytest.raises(UndefinedNormal):
        rt.normal_flow(pt, np.zeros(2), 1.0)
    with pytest.raises(PreconditionError):
        rt.normal_flow(pt, np.array([1.0, 0.0]), -2.0)


def test_angle_to_C():
    pt = rt.PointBody(E2, np.zeros(2))
    q = np.array([1.0, 0.0])
    assert abs(rt.angle_to_C(pt, q, rt.normal_flow(pt, q, 1.0)) - math.pi) < 1e-9
    assert rt.angle_to_C(pt, q, pt.project(q)) == 0.0
    # generic value matches the explicit tangent computation in the plane
    qp = np.array([1.5, 1.0])
    expected = math.acos(np.dot(qp - q, -q) / (np.linalg.norm(qp - q) * 1.0))
    assert abs(rt.angle_to_C(pt, q, qp) - expected) < 1e-12


def test_angle_batch_matches_scalar():
    body = hyp_axis_body()
    window = rt.Window(body, 1.0, "plus", -1.0, 1.0)
    Q = window.samples(9, endpoint=True)
    qp = rt.normal_flow(body, window.point(0.3), 1.5)
    batch = rt._angles_to_C(body, Q)(qp[None], slice(None))[:, 0]
    for i, q in enumerate(Q):
        assert abs(batch[i] - rt.angle_to_C(body, q, qp)) < 1e-9


def frozen_angles_to_C(body, Q, q_prime):
    """The angle row of one q' as _angles_to_C computed it before its q'
    rows came in blocks."""
    Q = np.asarray(Q, float)
    P = body.project_rows(Q)
    if body.space.kind == spaces.EUCLIDEAN:
        u2 = (P - Q) / np.linalg.norm(P - Q, axis=1)[:, None]
        u1 = np.asarray(q_prime, float)[None, :] - Q
        u1 = u1 / np.linalg.norm(u1, axis=1)[:, None]
        return np.arccos(np.clip(np.sum(u1 * u2, axis=1), -1.0, 1.0))

    def mdot(A, B):
        return np.sum(A[:, 1:] * B[:, 1:], axis=1) - A[:, 0] * B[:, 0]
    c2 = mdot(Q, P)
    u2, s2 = P + c2[:, None] * Q, np.sqrt(np.maximum(c2 * c2 - 1.0, 1e-300))
    QP = np.tile(np.asarray(q_prime, float), (len(Q), 1))
    c1 = mdot(Q, QP)
    u1 = QP + c1[:, None] * Q
    s1 = np.sqrt(np.maximum(c1 * c1 - 1.0, 1e-300))
    return np.arccos(np.clip(mdot(u1, u2) / (s1 * s2), -1.0, 1.0))


@pytest.mark.parametrize("body, component", [
    (rt.PointBody(E2, np.zeros(2)), "circle"),
    (rt.PointBody(H2, np.array([1.0, 0.0, 0.0])), "circle"),
    (rt.LineBody(E2, np.zeros(2), np.array([1.0, 0.0])), "plus"),
    (hyp_axis_body(), "plus"),
    (rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0])), "outer"),
], ids=["E2_point", "H2_point", "E2_line", "H2_line", "E2_segment"])
def test_blocked_angle_matrix_matches_per_row(body, component):
    """sigma blocks, as check_small_relative computes them, equal the per-q'
    rows bit for bit; 500 q' columns put 32 sigma rows in a block."""
    window = rt.Window(body, 0.7, component, -2.0, 4.0)
    sigma = window.samples(spaces.BLOCK_ROWS // 218, endpoint=True)
    out = np.array([rt.normal_flow(body, window.point(float(s)), t)
                    for s, t in zip(np.linspace(-2.5, 4.5, 500),
                                    np.tile([1.5, 0.2, -0.1], 167))])
    angles = rt._angles_to_C(body, sigma)
    blocks = spaces.row_blocks(len(sigma), len(out))
    assert len(blocks) == 3
    A = np.concatenate([angles(out, cols) for cols in blocks]).T
    assert np.array_equal(A, np.array([frozen_angles_to_C(body, sigma, qp) for qp in out]))


def frozen_escape(body, eps, q, q_prime, enforce_angle=True):
    """check_large_angle_escape as one scalar geodesic per pair, sampled at
    arc lengths as before the check took rows."""
    if abs(body.dist(q) - eps) > 100 * body.space.tol:
        raise PreconditionError("q does not lie on the eps-level set")
    if enforce_angle and rt.angle_to_C(body, q, q_prime) <= math.pi / 2 + body.space.tol:
        raise PreconditionError("escape check requires an angle > pi/2")
    geo = FrozenGeodesic(body.space, q, q_prime)
    ts = np.linspace(geo.length / rt.ESCAPE_SAMPLES, geo.length, rt.ESCAPE_SAMPLES)
    if body.space.kind == spaces.EUCLIDEAN:
        pts = geo._x + (ts / geo.length)[:, None] * geo._dir
    else:
        pts = np.cosh(ts)[:, None] * geo._x + np.sinh(ts)[:, None] * geo._dir
    return not np.any(body.dist_rows(pts) <= eps)


@pytest.mark.parametrize("body, component", [
    (rt.PointBody(E2, np.zeros(2)), "circle"),
    (hyp_axis_body(), "plus"),
    (rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0])), "outer"),
], ids=["E2_point", "H2_line", "E2_segment"])
def test_escape_rows_match_scalar_checks(body, component):
    """Rows in blocks give each row's scalar verdict: outward rows escape,
    chords to other level-set points re-enter (enforce_angle=False), and a
    block edge (BLOCK_ROWS // 100 rows of 100 samples) is crossed."""
    eps = 0.8
    window = rt.Window(body, eps, component, 0.0, 6.0)
    edge = spaces.BLOCK_ROWS // rt.ESCAPE_SAMPLES
    ss = np.linspace(0.0, 6.0, edge + 1)
    Q = np.array([window.point(float(s)) for s in ss])
    out = np.array([rt.normal_flow(body, q, 1.0 + (i % 3)) for i, q in enumerate(Q)])
    chords = np.array([window.point(float(s) + 1.3) for s in ss])
    assert len(spaces.row_blocks(len(Q), rt.ESCAPE_SAMPLES)) == 2
    for QP, enforce in ((out, True), (chords, False)):
        got = rt.check_large_angle_escape(body, eps, Q, QP, enforce_angle=enforce)
        want = [frozen_escape(body, eps, q, qp, enforce) for q, qp in zip(Q, QP)]
        assert got.tolist() == want
        assert got.all() if enforce else not got.any()  # outward escapes, chords re-enter
        for i in (0, edge - 1, edge):
            assert rt.check_large_angle_escape(body, eps, Q[i], QP[i],
                                               enforce_angle=enforce) is bool(got[i])
    angles = [rt.angle_to_C(body, q, qp) for q, qp in zip(Q, out)]
    assert np.array_equal(rt.check_large_angle_escape(body, eps, Q, out, angles=angles),
                          rt.check_large_angle_escape(body, eps, Q, out))
    with pytest.raises(PreconditionError):
        rt.check_large_angle_escape(body, eps, Q, chords)


def test_escape_examples():
    pt = rt.PointBody(E2, np.zeros(2))
    q = np.array([1.0, 0.0])
    assert rt.check_large_angle_escape(pt, 1.0, q, rt.normal_flow(pt, q, 1.0))

    # any q' with angle > pi/2 escapes a point-body neighborhood
    rng = np.random.default_rng(2)
    for _ in range(50):
        ang = rng.uniform(math.pi / 2 + 0.05, math.pi)
        dist = rng.uniform(0.1, 3.0)
        qp = q + dist * np.array([math.cos(math.pi - ang),
                                  math.sin(math.pi - ang)])
        assert rt.check_large_angle_escape(pt, 1.0, q, qp)

    # angle below the gate is a precondition violation
    inward = q + 0.5 * np.array([math.cos(math.pi - (math.pi / 2 - 0.1)),
                                 math.sin(math.pi - (math.pi / 2 - 0.1))])
    with pytest.raises(PreconditionError):
        rt.check_large_angle_escape(pt, 1.0, q, inward)
    # tangentially-inward direction (angle pi/2 - 0.1) re-enters at small t:
    # |q + t d|^2 = 1 + t^2 - 2 t sin(0.1) < 1 initially
    assert abs(rt.angle_to_C(pt, q, inward) - (math.pi / 2 - 0.1)) < 1e-9
    assert not rt.check_large_angle_escape(pt, 1.0, q, inward,
                                           enforce_angle=False)


def test_escape_on_hyperbolic_line():
    """On an H^2 line body the outward normal (angle pi) escapes; the chord
    to a farther point of the level set re-enters the convex neighbourhood.
    The batched samples agree with a scalar walk of the same geodesic."""
    body = hyp_axis_body()
    window = rt.Window(body, 1.0, "plus", 0.0, 1.0)
    q = window.point(0.3)
    out = rt.normal_flow(body, q, 1.0)
    assert abs(rt.angle_to_C(body, q, out) - math.pi) < 1e-6
    assert rt.check_large_angle_escape(body, 1.0, q, out)

    chord = window.point(1.3)
    assert rt.angle_to_C(body, q, chord) < math.pi / 2
    with pytest.raises(PreconditionError):
        rt.check_large_angle_escape(body, 1.0, q, chord)
    assert not rt.check_large_angle_escape(body, 1.0, q, chord,
                                           enforce_angle=False)

    d = spaces.distance(H2, q, chord)
    walk = [body.dist(spaces.geodesic_point(H2, q, chord, float(t))) <= 1.0
            for t in np.linspace(d / 100, d, 100)]
    assert any(walk) and not all(walk)  # re-enters, then leaves at the chord end


def test_eps_neighborhood_levels():
    cases = [
        (rt.PointBody(E2, np.zeros(2)), "circle"),
        (rt.LineBody(E2, np.zeros(2), np.array([1.0, 0.0])), "plus"),
        (rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0])), "outer"),
        (hyp_axis_body(), "plus"),
        (hyp_axis_body(), "minus"),
        (rt.PointBody(H2, np.array([1.0, 0, 0])), "circle"),
    ]
    for body, comp in cases:
        window = rt.Window(body, 0.8, comp, -3.0, 7.0)
        assert comp in rt.LEVEL_SETS[body.space.kind, body.kind]
        X = window.samples(23, endpoint=True)
        assert X.shape == (23, body.space.ambient_dim)
        for s, x in zip(np.linspace(-3, 7, 23), X):
            assert np.array_equal(x, window.point(float(s)))
            assert abs(body.dist(x) - 0.8) < 1e-9


def test_stadium_perimeter_closes():
    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    period = rt.loop_length(seg, 1.0)
    assert abs(period - (2 + 2 * math.pi)) < 1e-12
    window = rt.Window(seg, 1.0, "outer", 0.0, period)
    a = window.point(0.0)
    b = window.point(period)
    assert np.allclose(a, b, atol=1e-12)


def frozen_stadium_point(window, s):
    """Window.points of a segment body as the per-row loop it was."""
    body, eps = window.body, window.eps
    L = body.length
    cap = math.pi * eps
    s = s % rt.loop_length(body, eps)
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


def test_stadium_points_match_frozen_loop():
    """The stadium rows equal the per-row loop bit for bit, at negative and
    wrapped arc lengths and on the seams between its four pieces."""
    rng = np.random.default_rng(17)
    for a, b, eps in [((0.0, 0.0), (1.0, 0.0), 1.0), ((0.3, -1.2), (-2.1, 0.7), 0.37),
                      ((5.0, 5.0), (5.0, 5.001), 2.5)]:
        seg = rt.SegmentBody(E2, np.array(a), np.array(b))
        window = rt.Window(seg, eps, "outer", 0.0, rt.loop_length(seg, eps))
        L, cap = seg.length, math.pi * eps
        seams = np.array([0.0, L, L + cap, 2 * L + cap, 2 * L + 2 * cap])
        ss = np.concatenate([rng.uniform(-30.0, 30.0, 4000), seams, -seams,
                             np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf)])
        frozen = np.array([frozen_stadium_point(window, s) for s in ss.tolist()])
        assert np.array_equal(window.points(ss), frozen)
    assert window.points(np.zeros(0)).shape == (0, 2)


def test_calibration_shrinks_delta():
    body = hyp_axis_body()
    window = rt.Window(body, 1.0, "plus", 0.0, 2.0)
    # flow to R=3 stretches by ~cosh(3)/cosh(1); a too-large delta must shrink
    d = rt.calibrate_delta(window, 2.0, 0.1, 0.05)
    assert d < 0.1
    stretched = []
    for s in (0.0, 0.5):
        p = window.point(s)
        q = window.point(s + 2 * d)
        stretched.append(spaces.distance(
            H2, rt.normal_flow(body, p, 2.0), rt.normal_flow(body, q, 2.0)))
    assert max(stretched) <= 0.05 + 1e-9


def frozen_calibrate_delta(level, flow_time, delta, delta_prime):
    """calibrate_delta as a scalar pair loop; None where it raises."""
    body, s_lo, s_hi = level.body, level.s_lo, level.s_hi
    for _ in range(rt.MAX_HALVINGS + 1):
        spacing = delta / 4.0
        count = max(8, int(math.ceil((s_hi - s_lo) / spacing)) + 1)
        pts = [level.point(float(s)) for s in np.linspace(s_lo, s_hi, count)]
        flowed = [rt.normal_flow(body, p, flow_time) for p in pts]
        window = max(1, int(math.ceil(2.0 * delta / spacing)))
        if not any(spaces.distance(body.space, pts[i], pts[j]) <= 2.0 * delta
                   and spaces.distance(body.space, flowed[i], flowed[j]) > delta_prime
                   for i in range(len(pts))
                   for j in range(i + 1, min(i + window + 2, len(pts)))):
            return delta
        delta /= 2.0
    return None


@pytest.mark.parametrize("name", sorted(scenes.SCENE_BUILDERS))
def test_calibration_matches_scalar_loop(name):
    """One paired-distance call per window offset returns the delta of the
    scalar loop on every preset, and on the euclidean_point scene also after
    halvings and on failure."""
    sc = scenes.SCENE_BUILDERS[name]()
    cases = [sc.delta_prime]
    if name == "euclidean_point":
        cases += [0.03, 1e-4]  # one halving; no delta passes
    results = []
    for delta_prime in cases:
        args = (sc.window, sc.R - sc.eps, sc.delta, delta_prime)
        expected = frozen_calibrate_delta(*args)
        if expected is None:
            with pytest.raises(CalibrationError):
                rt.calibrate_delta(*args)
        else:
            assert rt.calibrate_delta(*args) == expected
        results.append(expected)
    assert results[1:] == ([sc.delta / 2.0, None] if name == "euclidean_point" else [])


def test_build_boundary_grid_segment_scene():
    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    act = covers.GroupAction(E2, [], word_length=0)
    window = rt.Window(seg, 1.0, "outer", 0.0, rt.loop_length(seg, 1.0))
    grid = rt.build_boundary_grid(window, 2.0, act, delta=0.02, delta_prime=0.1)
    # witnesses flow to the offset curve at distance exactly R
    assert len(grid.witness_points) == len(grid.witness_angles) == np.count_nonzero(grid.boundary)
    for v, ang in zip(np.flatnonzero(grid.boundary), grid.witness_angles):
        assert abs(seg.dist(grid.iota(v)) - 2.0) < 1e-9
        assert ang >= math.pi - 1e-5
    assert abs(grid.push_off_distance() - 1.0) < 1e-9
    assert grid.boundary_map_diameter <= 0.1 + 1e-9


@pytest.mark.parametrize("name, raises", [("hyperbolic_axis", True), ("euclidean_point", False)])
def test_boundary_grid_checks_the_window_between_centres(name, raises, monkeypatch):
    """With the last centre dropped, the open flagship window's tail (about
    1.5 spacings from the nearest centre) lies in no ball and the grid
    refuses it; the closed circle's tail still lies in the first ball."""
    samples, centre_calls = rt.Window.samples, []

    def last_centre_dropped(self, count, endpoint):
        pts = samples(self, count, endpoint)
        if not endpoint:
            centre_calls.append(count)
            if len(centre_calls) == 1:
                return pts[:-1]
        return pts

    monkeypatch.setattr(rt.Window, "samples", last_centre_dropped)
    scene = getattr(scenes, f"{name}_scene")(**({"period": 2.0} if raises else {}))
    args = (scene.window, scene.R, scene.action, scene.delta,
            (1 - scene.lam) * scene.delta_prime)
    if raises:
        with pytest.raises(UncoveredPoint, match="lies in no ball"):
            rt.build_boundary_grid(*args)
    else:
        assert len(rt.build_boundary_grid(*args).projector.cover) == centre_calls[0] - 1


def frozen_equivariance_maps(adj):
    """_equivariance_from_adjacency as it was: a dict from (group element
    key, base ball) to element, probed with the key of every product h g:
    [(h, {element: image element})] over the nontrivial h with an image."""
    elements = [g for g, _ in adj.action.elements()]
    slots = list(zip(adj.group.tolist(), adj.base.tolist()))
    index_of = {(elements[k].key(), b): i for i, (k, b) in enumerate(slots)}
    maps = []
    for h, _ in adj.action.nontrivial():
        vmap = {}
        for i, (k, b) in enumerate(slots):
            key = (h.compose(elements[k]).key(), b)
            if key in index_of:
                vmap[i] = index_of[key]
        if vmap:
            maps.append((h, vmap))
    return maps


def assert_maps_match_frozen(adj):
    got = rt._equivariance_from_adjacency(adj)
    want = frozen_equivariance_maps(adj)
    assert len(got) == len(want) > 0
    for (h, rows), (h_want, vmap) in zip(got, want):
        assert h is h_want
        ref = np.full(len(adj), -1)
        ref[list(vmap)] = list(vmap.values())
        assert np.array_equal(rows, ref)


def test_equivariance_table_matches_key_dicts_flagship():
    scene = scenes.hyperbolic_axis_scene(period=2.0)
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta, (1 - scene.lam) * scene.delta_prime)
    assert len(grid.adjacency) > len(grid.projector.cover)
    assert_maps_match_frozen(grid.adjacency)


def test_equivariance_table_matches_key_dicts_translation_group():
    """A 3 x 3 block of balls in R^2 under the translations by (1.5, 0) and
    (0, 1.5), words up to length 3: 25 group elements, translates on every
    side of the block."""
    balls = [(np.array([0.5 * i, 0.5 * j]), 0.4) for i in range(3) for j in range(3)]
    cover = covers.BallCover(E2, balls)
    action = covers.GroupAction(E2, [spaces.Isometry.euclidean_translation([1.5, 0.0]),
                                     spaces.Isometry.euclidean_translation([0.0, 1.5])],
                                word_length=3)
    adj = covers.adjacency(cover, action)
    assert len(action.elements()) == 25 and len(set(adj.group.tolist())) > 4
    assert_maps_match_frozen(adj)


def test_check_small_relative_spec_example():
    """The H^2 geodesic scene passes at (delta, delta') = (1e-2, 1e-1)."""
    body = hyp_axis_body()
    act = covers.GroupAction(H2, [spaces.Isometry.hyperbolic_boost(4.0)],
                             word_length=2)
    arc = 4.0 * math.cosh(1.0)
    window = rt.Window(body, 1.0, "plus", -arc / 2, arc / 2)
    K = window.samples(120, endpoint=True)
    K_out = [rt.normal_flow(body, p, 2.0) for p in K]
    dense = window.samples(800, endpoint=True)
    rep = rt.check_small_relative(body, 1.0, covers.translate_gaps(act, K), K_out, dense,
                                  1e-2, 1e-1, sample_resolution=2 * arc / 120)
    assert rep.cond1_ok and rep.cond2_ok and rep.cond3_ok
    assert rep.cond3_gate == pytest.approx(math.pi / 4)
    assert rep.cond3_variation <= math.pi / 4


def lone_points(space, n):
    """n points of space on a line, 1 (R^2) or 0.1 (H^2) apart: no two lie
    within radius 0."""
    t = np.arange(n) * (1.0 if space.kind == spaces.EUCLIDEAN else 0.1)
    if space.kind == spaces.EUCLIDEAN:
        return np.stack([t, np.zeros(n)], axis=1)
    return np.stack([np.cosh(t), np.sinh(t), np.zeros(n)], axis=1)


def streamed_variation(A, points, space, radius, axis):
    """The max |A difference| between the rows (axis 0, M2) or the columns
    (axis 1, M1) of A at the point pairs within radius, from _angle_variation
    with the block function of the matrix A (rows q', columns sigma); the
    other axis gets lone points at radius 0, so its variation is 0."""
    lone = lone_points(space, A.shape[1 - axis])
    pts = np.asarray(points)
    sigma, q_primes = (lone, pts) if axis == 0 else (pts, lone)
    delta, delta_prime = (0.0, radius) if axis == 0 else (radius, 0.0)
    m1, m2 = rt._angle_variation(lambda cols: A[:, cols].T, sigma, q_primes, space,
                                 delta, delta_prime)
    assert (m1, m2)[axis] == 0.0
    return (m1, m2)[1 - axis]


def test_pair_variation_matches_per_pair_reference(monkeypatch):
    """With the default blocks (one here) and with blocks of one row of
    points and two pairs."""
    rng = np.random.default_rng(7)
    for space, pts in ((E2, rng.uniform(-1, 1, size=(60, 2))),
                       (H2, [rt.Window(hyp_axis_body(), 1.0, "plus", -2.0, 2.0).point(
                           float(s)) for s in rng.uniform(-2, 2, 60)])):
        A = rng.uniform(0, math.pi, size=(60, 45))
        for axis, AA in ((0, A), (1, A.T.copy())):
            for radius in (0.0, 0.2, 0.6, 10.0):
                ref = 0.0
                for i in range(60):
                    for j in range(i + 1, 60):
                        if spaces.distance(space, pts[i], pts[j]) <= radius:
                            diff = AA[i] - AA[j] if axis == 0 else \
                                AA[:, i] - AA[:, j]
                            ref = max(ref, float(np.max(np.abs(diff))))
                for block_rows in (spaces.BLOCK_ROWS, 97):
                    monkeypatch.setattr(spaces, "BLOCK_ROWS", block_rows)
                    assert streamed_variation(AA, pts, space, radius, axis=axis) == ref
                monkeypatch.undo()


def test_pair_variation_finds_the_circle_wrap_pair():
    """The sigma samples of the closed euclidean_point window start and end
    at one point; both passes must pair them like the per-pair scan, and
    their pairs span several blocks (120 rows put 136 sigma rows in one, so
    the sigma pass carries row 0 to the last block)."""
    scene = scenes.euclidean_point_scene()
    sigma = scene.window.samples(1048, endpoint=True)
    assert spaces.distance(E2, sigma[0], sigma[-1]) < 1e-12
    rng = np.random.default_rng(11)
    # a ramp along sigma: the wrap pair (0, last) spans it and carries the
    # largest difference
    A = np.linspace(0.0, 1.0, len(sigma)) + rng.uniform(0.0, 1e-5, size=(120, len(sigma)))
    ref = 0.0
    for i in range(len(sigma)):
        d = spaces.distances_to(E2, sigma[i + 1:], sigma[i])
        for j in i + 1 + np.flatnonzero(d <= scene.delta):
            ref = max(ref, float(np.max(np.abs(A[:, i] - A[:, j]))))
    got = streamed_variation(A, sigma, E2, scene.delta, axis=1)
    assert got == ref == float(np.max(np.abs(A[:, 0] - A[:, -1])))
    # the row pass queries its pairs in blocks of rows (62 rows here)
    assert streamed_variation(A.T.copy(), sigma, E2, scene.delta, axis=0) == ref


def frozen_pair_variation(A, points, space, radius, axis):
    """_pair_variation before run extremes: every close pair's rows (or
    columns) of A gathered and subtracted."""
    pts = np.asarray(points)
    B = A if axis == 0 else A.T
    index, worst = covers.NeighbourIndex(space, pts, radius), 0.0
    for rows in spaces.row_blocks(len(pts), len(pts)):
        ii, jj = index.pairs(pts[rows], radius)
        ii += rows.start
        ii, jj = ii[ii < jj], jj[ii < jj]
        close = spaces.paired_distances(space, pts[jj], pts[ii]) <= radius
        ii, jj = ii[close], jj[close]
        for pairs in spaces.row_blocks(len(ii), B.shape[1]):
            diff = np.abs(B[ii[pairs]] - B[jj[pairs]])
            worst = max(worst, float(np.max(diff, initial=0.0)))
    return worst


def frozen_check_small_relative(body, eps, gaps, K_out_samples, sigma_samples, delta,
                                delta_prime, sample_resolution):
    """check_small_relative with each K_out row followed by its two flowed
    rows, and the gather pass."""
    tol = body.space.tol
    cond1_margin, cond1_ok = math.inf, True
    for _, _, dmin in gaps:
        if dmin > sample_resolution:
            cond1_margin = min(cond1_margin, dmin - 2.0 * delta)
            if dmin <= 2.0 * delta + tol:
                cond1_ok = False
    K_out = np.asarray(K_out_samples, float)
    gaps = body.dist_rows(K_out) - eps
    cond2_margin = float(np.min(gaps)) - delta_prime
    gate = rt.ALPHA / 2.0 - math.pi / 4.0
    inward = np.minimum(0.5 * delta_prime, gaps - tol)
    flowed = np.stack([rt.normal_flow(body, K_out, 0.5 * delta_prime),
                       rt.normal_flow(body, K_out, -inward)], axis=1)
    out_aug = np.concatenate([K_out, flowed.reshape(-1, K_out.shape[1])])
    sig_arr = np.asarray(sigma_samples)
    A = rt._angles_to_C(body, sig_arr)(out_aug, slice(None)).T
    variation = (frozen_pair_variation(A, sig_arr, body.space, delta, axis=1)
                 + frozen_pair_variation(A, out_aug, body.space, delta_prime, axis=0))
    return rt.SmallnessReport(delta, delta_prime, cond1_ok, cond1_margin,
                              cond2_margin > tol, cond2_margin, variation <= gate + tol,
                              variation, gate)


class StopPipeline(Exception):
    pass


def smallness_arguments(name, monkeypatch):
    """The arguments with which run_pipeline calls check_small_relative on
    the preset `name` (the run stops there)."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise StopPipeline

    with monkeypatch.context() as mp:
        mp.setattr(rt, "check_small_relative", record)
        with pytest.raises(StopPipeline):
            scenes.run_pipeline(scenes.SCENE_BUILDERS[name](), density=10)
    return calls[0]


@pytest.mark.parametrize("name", sorted(scenes.SCENE_BUILDERS))
def test_smallness_report_matches_interleaved_gather_pass(name, monkeypatch):
    """Level-major q' rows and run extremes give the SmallnessReport of the
    interleaved rows and the per-pair gather, field for field."""
    args, kwargs = smallness_arguments(name, monkeypatch)
    assert rt.check_small_relative(*args, **kwargs) == frozen_check_small_relative(*args, **kwargs)


def test_smallness_check_peak_memory(monkeypatch):
    """On the euclidean_point check, at the default K = 401 and at
    sample_spacing 0.005 (K = 1,258), the whole check peaks under 2 MiB of
    Python-traced allocations (holding the angle matrix took 10.9 and 32.0
    MiB)."""
    tracemalloc = pytest.importorskip("tracemalloc")
    fine = dataclasses.replace(scenes.euclidean_point_scene(), sample_spacing=0.005)
    monkeypatch.setitem(scenes.SCENE_BUILDERS, "euclidean_point_fine", lambda: fine)
    for name, k_count in (("euclidean_point", 401), ("euclidean_point_fine", 1258)):
        args, kwargs = smallness_arguments(name, monkeypatch)
        assert len(args[3]) == k_count
        tracemalloc.start()
        try:
            rt.check_small_relative(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_extension_staged_errors():
    scene = scenes.hyperbolic_patch_scene()
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime,
        interior_points=scene.interior_points)
    # boundary tightness at (delta, (1-lambda)delta') fails for lambda -> 1
    with pytest.raises(StagedPreconditionError) as exc:
        rt.extend_to_pushoff(grid, 0.999, 1, scene.delta_prime)
    assert exc.value.stage == "boundary-tightness"
    # push-off distance must exceed delta'
    with pytest.raises(StagedPreconditionError) as exc:
        rt.extend_to_pushoff(grid, scene.lam, 1, 2.5)
    assert exc.value.stage == "push-off-distance"


def test_full_tightness_fails_with_far_interior():
    """A slab window whose interior elements sit far from the designated
    point's witness has mixed edges of large image diameter, so the order-n
    map cannot be (delta, delta')-tight at small delta'; the staged error
    names the failing condition."""
    scene = scenes.hyperbolic_patch_scene(width=0.4, delta_prime=0.2)
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime,
        interior_points=scene.interior_points)
    with pytest.raises(StagedPreconditionError) as exc:
        rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    assert exc.value.stage == "full-tightness"


def altered_grid(grid, **changes):
    """A copy of `grid` with `changes`: dataclass fields through
    dataclasses.replace, cached properties set on the copy."""
    fields = {f.name for f in dataclasses.fields(grid)}
    out = dataclasses.replace(grid, **{k: v for k, v in changes.items() if k in fields})
    for k, v in changes.items():
        if k not in fields:
            setattr(out, k, v)  # a cached_property: the instance value wins
    return out


@pytest.mark.parametrize("name, stage", [
    ("boundary_map_diameter", "boundary-tightness"),
    ("witness_angles", "grid-angle"),
])
def test_extension_refuses_a_nan_precondition(name, stage):
    """A NaN boundary diameter or witness angle fails its grid precondition:
    each inequality is written in its "holds" form, which NaN never meets."""
    scene = scenes.hyperbolic_patch_scene()
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime, interior_points=scene.interior_points)
    value = math.nan
    if name == "witness_angles":
        value = grid.witness_angles.copy()
        value[len(value) // 2] = math.nan
    with pytest.raises(StagedPreconditionError) as exc:
        rt.extend_to_pushoff(altered_grid(grid, **{name: value}), scene.lam, 1,
                             scene.delta_prime)
    assert exc.value.stage == stage


@pytest.mark.parametrize("name, stage, held", [
    ("boundary_map_diameter", "boundary-tightness", "grid_angle"),
    ("witness_angles", "grid-angle", "boundary_tightness"),
])
def test_pipeline_reports_a_failing_grid_precondition(name, stage, held, monkeypatch):
    """A grid whose boundary map diameter exceeds (1 - lambda) delta', or
    whose witness angles sit 1e-4 below pi: the failing precondition's gate
    is False, the other's True, and the failure names its stage."""
    build = rt.build_boundary_grid

    def worse(*args, **kwargs):
        grid = build(*args, **kwargs)
        if name == "witness_angles":
            return altered_grid(grid, witness_angles=np.full_like(grid.witness_angles,
                                                                  math.pi - 1e-4))
        return altered_grid(grid, boundary_map_diameter=2.0 * grid.boundary_map_diameter
                            + scene.delta_prime)

    monkeypatch.setattr(rt, "build_boundary_grid", worse)
    scene = scenes.hyperbolic_patch_scene()
    rep = scenes.run_pipeline(scene, density=10)
    assert rep.failure["stage"] == stage and not rep.ok
    gate = stage.replace("-", "_")
    assert rep.gates[gate] is False and rep.gates[held] is True
    assert rep.gates["push_off_positive"] is True
    assert "full_tightness" not in rep.gates and rep.extension is None


def test_pushoff_evaluate_examples():
    """Coning with weight 1 returns the vertex image; an edge midpoint in R^2
    maps to the Euclidean midpoint of the two vertex images."""
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    pushoff = rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    v = sorted(grid.nerve.vertices)[0]
    img, cell = pushoff.evaluate((v,), np.array([1.0]))
    assert cell == (v,)
    assert np.allclose(img, pushoff.iota_n(v), atol=1e-15)

    u, w = grid.nerve.edges[0]
    img, cell = pushoff.evaluate((u, w), np.array([0.5, 0.5]))
    # the midpoint of the nerve edge is the subdivision vertex itself
    assert len(cell) == 1
    mid_expected = 0.5 * (pushoff.iota_n(cell[0]) + pushoff.iota_n(cell[0]))
    assert np.allclose(img, mid_expected, atol=1e-12)
    # and that subdivision vertex was labeled on the geodesic between the
    # originals (a midpoint-rule barycenter of the two images)
    a, b = grid.iota(u), grid.iota(w)
    assert np.allclose(img, 0.5 * (a + b), atol=1e-9)


def frozen_evaluate_rows(pushoff, ids, weights):
    """PushOff.evaluate_rows as it located each row's cell, one row at a
    time, through every stage's vertex_of dict."""
    cells = []
    for support, row_weights in zip(ids, weights):
        w = {int(v): float(x) for v, x in zip(support, row_weights) if x > 0.0}
        for prov in pushoff.sub_result.provs:
            w = subdivision_coordinates(w, prov.vertex_of)
        cells.append(sorted(w.items()))
    width = max(map(len, cells), default=1)  # pad with weight-0 copies of the first id
    pad = np.array([c + [(c[0][0], 0.0)] * (width - len(c)) for c in cells],
                   float).reshape(-1, width, 2)
    ids, wts = pad[..., 0].astype(np.int64), pad[..., 1]
    space = pushoff.grid.body.space
    pts = pushoff.iota_n.at(ids)
    acc, W = pts[:, 0].copy(), wts[:, 0].copy()
    for j in range(1, width):
        on = wts[:, j] > 0.0
        W[on] += wts[on, j]
        d = spaces.distance_rows(space, acc, pts[:, j])
        move = np.flatnonzero(on & (d > space.tol))
        acc[move] = spaces.geodesic_rows(space, acc[move], pts[move, j],
                                         d[move] * wts[move, j] / W[move])
    return acc, ids


@pytest.mark.parametrize("name", ["hyperbolic_axis", "euclidean_point", "euclidean_segment",
                                  "hyperbolic_patch"])
def test_cells_over_rows_match_the_dict_path(name, monkeypatch):
    """On every query of a preset's pipeline run, evaluate_rows gives the
    targets (bit for bit) and cells of the frozen vertex_of path, and the run
    builds no provenance's sets or vertex_of dict, and no frozenset of the
    nerve's simplices."""
    calls, evaluate_rows = [], rt.PushOff.evaluate_rows

    def recorded(pushoff, ids, weights):
        calls.append((pushoff, ids, weights, evaluate_rows(pushoff, ids, weights)))
        return calls[-1][3]
    monkeypatch.setattr(rt.PushOff, "evaluate_rows", recorded)
    assert scenes.run_pipeline(scenes.SCENE_BUILDERS[name]()).ok
    sub = calls[0][0].sub_result
    assert not [p for p in sub.provs + [sub.prov_total] if {"sets", "vertex_of"} & set(vars(p))]
    assert "simplices" not in vars(calls[0][0].grid.nerve)
    assert sum(len(ids) for _, ids, _, _ in calls) > 400
    for pushoff, ids, weights, (targets, cells) in calls:
        want_targets, want_cells = frozen_evaluate_rows(pushoff, ids, weights)
        assert np.array_equal(targets.view(np.uint64), want_targets.view(np.uint64))
        assert np.array_equal(cells, want_cells)


def test_pushoff_witness_lands_near_its_image():
    """At a boundary witness, the push-off target stays within delta' of the
    vertex image and the angle clears alpha/2 + pi/4."""
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    pushoff = rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    retr = rt.Retractor(pushoff)
    for v, q in list(zip(np.flatnonzero(grid.boundary), grid.witness_points))[:40]:
        target, _ = retr.push_target(q)
        assert spaces.distance(E2, target, grid.iota(v)) <= scene.delta_prime
        assert rt.angle_to_C(scene.body, q, target) >= \
            3 * math.pi / 4 - 1e-6


def test_retract_identity_and_interior():
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    pushoff = rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    retr = rt.Retractor(pushoff)
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(0, scene.window.s_hi)
        q = scene.window.point(s)
        r, target, _ = retr.retract(q)
        assert spaces.distance(E2, r, q) <= 1e-10
        q_in = rt.normal_flow(scene.body, q, -scene.delta / 4)
        r_in, _, _ = retr.retract(q_in)
        assert abs(scene.body.dist(r_in) - scene.eps) <= 1e-9
        r2, _, _ = retr.retract(r_in)
        assert spaces.distance(E2, r_in, r2) <= 1e-8
        assert np.array_equal(target, retr.push_target(q)[0])
    # far outside the eps-neighborhood and every cover ball: the
    # precondition is checked before the nerve projection
    with pytest.raises(PreconditionError):
        retr.retract(rt.normal_flow(scene.body, q, 10 * scene.R))


def frozen_retract(retr, q):
    """Retractor.retract's bisection as it was before spaces.Geodesic, the
    early stop and the ITP search: a fresh geodesic_point per step, all 80
    halvings of [0, d(q, target)]."""
    body, eps = retr.body, retr.eps
    target, _ = retr.push_target(q)
    T = (float(np.linalg.norm(q - target)) if body.space.kind == spaces.EUCLIDEAN
         else spaces.distance(body.space, q, target))
    lo, hi = 0.0, T
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        pt = frozen_geodesic_point(body.space, q, target, mid)
        if body.dist(pt) - eps <= 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return frozen_geodesic_point(body.space, q, target, t_star) if t_star > 0 \
        else np.asarray(q, float)


def counted_retract(retr, q):
    """retr.retract(q) and the level-set evaluations it made: its body.dist
    calls less the three outside the crossing (q, target, residual)."""
    dist, calls = retr.body.dist, [0]

    def counting(x):
        calls[0] += 1
        return dist(x)

    retr.body.dist = counting
    try:
        out = retr.retract(q)
    finally:
        del retr.body.dist
    return out, calls[0] - 3


@pytest.mark.parametrize("scene", [
    scenes.euclidean_point_scene(delta=0.05),
    scenes.euclidean_segment_scene(delta=0.05),
    scenes.hyperbolic_axis_scene(period=1.0, delta=0.02),
    scenes.hyperbolic_patch_scene(),
], ids=lambda sc: sc.name)
def test_retract_matches_frozen_bisection(scene):
    """The closed-form crossing lands within 1e-15 max(1, d(q, target)) of
    the frozen 80-step bisection's, with a level-set residual at most one ulp
    of eps above the bisection's, the same target and cell, and at most one
    level-set evaluation per query, on boundary, interior and idempotence
    queries."""
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    retr = rt.Retractor(rt.extend_to_pushoff(grid, scene.lam, 1,
                                             scene.delta_prime))
    window, body, eps, space = scene.window, scene.body, scene.eps, scene.space

    def check(query):
        (r, target, cell), n = counted_retract(retr, query)
        ref = frozen_retract(retr, query)
        assert (np.array_equal(target, retr.push_target(query)[0])
                and cell == retr.push_target(query)[1])
        length = spaces.distance(space, query, target)
        assert spaces.distance(space, r, ref) <= 1e-15 * max(1.0, length)
        assert abs(body.dist(r) - eps) <= abs(body.dist(ref) - eps) + math.ulp(eps)
        assert n <= 1
        return r

    margin = 0.02 * (window.s_hi - window.s_lo)
    for s in np.linspace(window.s_lo + margin, window.s_hi - margin, 12):
        q = window.point(float(s))
        q_in = rt.normal_flow(scene.body, q, -grid.delta / 4.0)
        for query in (q, q_in):
            check(check(query))


def test_segment_scene_end_to_end():
    rep = scenes.run_pipeline(scenes.euclidean_segment_scene(), density=60,
                              seed=0)
    assert rep.ok
    assert np.max(rep.identity) <= 1e-8
    assert np.min(rep.angle) >= 3 * math.pi / 4 - 1e-6


def test_grid_nerve_is_face_closed():
    from barylab import simplicial
    scene = scenes.euclidean_point_scene(delta=0.05)
    grid = rt.build_boundary_grid(
        scene.window, scene.R, scene.action, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    assert simplicial.validate(grid.nerve) == []


def test_patch_scene_interior_branch():
    rep = scenes.run_pipeline(scenes.hyperbolic_patch_scene(), density=50, seed=0)
    assert rep.ok
    grid_elems = rep.grid["elements"]
    assert grid_elems > 0
    assert rep.extension["push_off_distance_n"] > rep.scene["delta_prime"]


def test_broken_scene_reports_condition_two():
    rep = scenes.run_pipeline(scenes.broken_delta_prime_scene(), density=40, seed=0)
    assert not rep.ok
    assert rep.failure["stage"] == "smallness"
    assert "condition (2)" in rep.failure["message"]


def test_pipeline_deterministic():
    import json
    a = scenes.run_pipeline(scenes.euclidean_point_scene(), density=50, seed=3)
    b = scenes.run_pipeline(scenes.euclidean_point_scene(), density=50, seed=3)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    assert a.samples_csv() == b.samples_csv()


def test_scene_json_roundtrip():
    """Every preset's document reads back into a scene that writes the same
    document, with one space, body and eps."""
    for name, build in sorted(scenes.SCENE_BUILDERS.items()):
        scene = build()
        doc = scene.to_json()
        back = scenes.Scene.from_json(doc)
        assert back.to_json() == doc, name
        assert back.eps == scene.eps and back.R == scene.R
        assert back.body.kind == scene.body.kind
        assert back.action.word_length == scene.action.word_length
        assert back.window.s_lo == scene.window.s_lo and back.window.s_hi == scene.window.s_hi
        assert back.space is back.body.space is back.action.space
    assert scenes.Scene.from_json(scenes.hyperbolic_axis_scene().to_json()).body.kind == "line"


def test_scene_refuses_delta_past_sigma_samples():
    """A delta whose sigma samples, at most delta/2 apart, would number more
    than SIGMA_ROWS is refused: capped samples would leave no pair within
    delta, and condition (3) would compare nothing on sigma."""
    with pytest.raises(BudgetExceeded, match="sigma samples"):
        scenes.hyperbolic_axis_scene(delta=1e-3)  # 12,346 samples
    window = scenes.hyperbolic_axis_scene().window
    span = window.s_hi - window.s_lo
    at_cap = 2.0 * span / (scenes.SIGMA_ROWS - 1.5)
    assert scenes.hyperbolic_axis_scene(delta=at_cap).sampling()[2] == scenes.SIGMA_ROWS
    with pytest.raises(BudgetExceeded, match="sigma samples"):
        scenes.hyperbolic_axis_scene(delta=2.0 * span / (scenes.SIGMA_ROWS - 0.5))


def allocation_peak(fn):
    """(the exception fn raised, tracemalloc's peak bytes while it ran)."""
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
    except Exception as exc:  # noqa: BLE001
        raised = exc
    else:
        raised = None
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return raised, peak


def test_sample_budgets_refuse_before_allocating():
    """The calibration grid's delta and the query density are checked
    against SAMPLE_ROWS, sample_spacing against the K x K pairs and the
    bytes of the 3K x sigma angle matrix, delta against SIGMA_ROWS and the
    subdivision order against SUBDIVISION_BUDGET, before anything is
    allocated."""
    window = rt.Window(hyp_axis_body(), 1.0, "plus", 0.0, 2.0)
    scene = scenes.euclidean_point_scene()
    triangle = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    corners = simplicial.VertexMap(E2, np.arange(3), np.array([[0.0, 0.0], [1.0, 0.0],
                                                               [0.5, SQ32]]))

    def spaced(spacing):
        doc = scene.to_json()
        doc["window"]["sample_spacing"] = spacing
        return lambda: scenes.Scene.from_json(doc)
    for fn, what in [(lambda: rt.calibrate_delta(window, 2.0, 1e-9, 0.5), "calibration"),
                     (spaced(1e-9), "K x K"), (spaced(1e-5), "K x K"),
                     (spaced(3e-4), "angle matrix"),
                     (lambda: scenes.run_pipeline(scene, density=2**40), "density"),
                     (lambda: scenes.hyperbolic_axis_scene(delta=1e-3), "sigma samples"),
                     (lambda: sd.iterate_subdivision(triangle, corners, SQ32, 12), "stage 8")]:
        raised, peak = allocation_peak(fn)
        assert isinstance(raised, BudgetExceeded) and what in str(raised)
        assert peak < 2**20
    # 3e-4 keeps K x K within PAIR_ROWS: only the angle matrix refuses it
    span = scene.window.s_hi - scene.window.s_lo
    assert (span / 3e-4 + 1.0) ** 2 <= scenes.PAIR_ROWS
    _, k_count, sig_count = spaced(1e-3)().sampling()
    assert 3 * k_count * sig_count <= scenes.ANGLE_ROWS and k_count ** 2 <= scenes.PAIR_ROWS
    # the calibration budget counts the grid of the last halving
    fine = 2.0 / (rt.SAMPLE_ROWS - 1) * 4.0 * 2.0 ** rt.MAX_HALVINGS
    with pytest.raises(BudgetExceeded):
        rt.calibrate_delta(window, 2.0, 0.99 * fine, 0.5)
    check_budget(rt.SAMPLE_ROWS, rt.SAMPLE_ROWS, "rows")
    for over in (rt.SAMPLE_ROWS + 1, math.nan):
        with pytest.raises(BudgetExceeded, match="over the budget"):
            check_budget(over, rt.SAMPLE_ROWS, "rows")


def test_run_pipeline_refuses_a_density_below_one():
    """run_pipeline refuses a query density below 1 before any stage runs
    (it used to die in numpy after the push-off had been built)."""
    scene = scenes.euclidean_point_scene()
    for density in (0, -5):
        raised, peak = allocation_peak(lambda: scenes.run_pipeline(scene, density=density))
        assert isinstance(raised, ValueError) and f"density {density} is below 1" in str(raised)
        assert peak < 2**20


def test_push_targets_hold_no_row_by_element_array():
    """push_targets over the euclid_oracle queries (the euclidean_point scene
    at density 1000) peaks below half of a dense m x len(adj) tent matrix."""
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(scene.window, scene.R, scene.action, scene.delta,
                                  (1 - scene.lam) * scene.delta_prime)
    retr = rt.Retractor(rt.extend_to_pushoff(grid, scene.lam, scene.order, scene.delta_prime))
    window = scene.window
    margin = min(0.02 * (window.s_hi - window.s_lo), grid.delta)
    Q = window.points(np.linspace(window.s_lo + margin, window.s_hi - margin, 1000))
    raised, peak = allocation_peak(lambda: retr.push_targets(Q))
    assert raised is None
    assert peak < 0.5 * 8 * len(Q) * len(grid.adjacency)


def test_run_pipeline_never_computes_the_verification_columns(monkeypatch):
    """run_pipeline passes every gate without reading the ShrinkRecord
    columns that only verify_shrinking needs (each read would raise here)."""
    def unread(name):
        def read(self):
            raise AssertionError(f"run_pipeline read ShrinkRecord.{name}")
        return property(read)

    for name in ("original_diam", "vertices", "sigma_diams", "max_dists", "min_dists",
                 "_columns"):
        monkeypatch.setattr(sd.ShrinkRecord, name, unread(name))
    rep = scenes.run_pipeline(scenes.hyperbolic_axis_scene(period=2.0), density=20)
    assert rep.ok, rep.failure or rep.gates
    assert rep.extension["subdivision_vertices"] > 0


def test_report_extremes_are_the_gated_numbers():
    """Each printed extreme is the one its gate read, taken over the report's
    columns, and samples_csv prints the same columns."""
    rep = scenes.run_pipeline(scenes.euclidean_point_scene(), density=40)
    doc = rep.to_json()
    assert doc["max_identity_residual"] == np.max(rep.identity)
    assert {k: doc[k] for k in scenes.EXTREMES} == rep.extremes
    assert doc["min_boundary_angle"] == np.min(rep.angle)
    assert doc["escape_all"] is True and rep.escape.dtype == bool
    assert doc["max_radial_residual"] == np.max(rep.radial)
    assert len(rep.idempotence) == 40 + len(rep.interior) == 40 + 10
    assert doc["max_idempotence_residual"] == np.max(rep.idempotence)
    lines = rep.samples_csv().splitlines()[2:]
    assert len(lines) == len(rep.s) == 40
    for line, s, res, angle in zip(lines, rep.s, rep.identity, rep.angle):
        _, s_txt, res_txt, angle_txt, escape = line.split(",")
        assert (float(s_txt), float(res_txt), float(angle_txt), escape) == (s, res, angle, "1")
    failed = scenes.run_pipeline(scenes.broken_delta_prime_scene(), density=40)
    assert not failed.ok and failed.s is None
    assert failed.samples_csv().count("\n") == 2
    assert all(failed.to_json()[k] is None for k in (
        "max_identity_residual", "min_boundary_angle", "escape_all",
        "max_idempotence_residual", "max_radial_residual"))
