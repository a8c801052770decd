"""Convex bodies, normal flow, push-off grids, extension, and the retraction."""

import math

import numpy as np
import pytest

from barylab import covers, retraction as rt, scenes, spaces
from barylab.errors import (
    CalibrationError,
    PreconditionError,
    StagedPreconditionError,
    UndefinedNormal,
)
from test_spaces import frozen_geodesic_point

E2 = spaces.ModelSpace.euclidean(2)
H2 = spaces.ModelSpace.hyperboloid(2)
SQ32 = math.sqrt(3) / 2


def hyp_axis_body():
    return rt.LineBody(H2, np.array([1.0, 0, 0]),
                       np.array([math.cosh(1), math.sinh(1), 0.0]))


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
                lambda t: spaces.distance(body.space, x, body.param_point(t)),
                -8.0, 8.0)
            oracle = body.param_point(t_star)
            assert spaces.distance(body.space, body.project(x), oracle) < 1e-6

    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        t_star = golden_section_min(
            lambda t: float(np.linalg.norm(x - seg.param_point(t))),
            0.0, seg.length)
        assert np.linalg.norm(seg.project(x) - seg.param_point(t_star)) < 1e-6


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


def test_normal_flow_examples():
    pt = rt.PointBody(E2, np.zeros(2))
    out = rt.normal_flow(pt, np.array([1.0, 0.0]), 2.0)
    assert np.allclose(out, [3.0, 0.0])
    x = np.array([0.3, 0.4])
    assert np.allclose(rt.normal_flow(pt, x, 0.0), x)

    body = hyp_axis_body()
    nbh = rt.EpsNeighborhood(body, 1.0)
    q = nbh.point("plus", 0.7)
    flowed = rt.normal_flow(body, q, 2.0)
    assert abs(body.dist(flowed) - 3.0) < 1e-9

    with pytest.raises(UndefinedNormal):
        rt.normal_flow(pt, np.zeros(2), 1.0)
    with pytest.raises(PreconditionError):
        rt.normal_flow(pt, np.array([1.0, 0.0]), -2.0)


def test_flow_to_infinity():
    body = rt.PointBody(H2, np.array([1.0, 0, 0]))
    x = np.array([math.cosh(1), math.sinh(1), 0.0])
    xi = rt.flow_to_infinity(body, x)
    assert np.allclose(xi.direction, [1.0, 0.0], atol=1e-12)
    # flowing further gives the same ideal point
    further = rt.normal_flow(body, x, 3.0)
    xi2 = rt.flow_to_infinity(body, further)
    assert np.allclose(xi.direction, xi2.direction, atol=1e-9)

    axis = hyp_axis_body()
    nbh = rt.EpsNeighborhood(axis, 0.5)
    a = rt.flow_to_infinity(axis, nbh.point("plus", 0.0))
    b = rt.flow_to_infinity(axis, nbh.point("plus", 1.0))
    assert np.linalg.norm(a.direction - b.direction) > 1e-3
    rho = spaces.visual_metric(H2, np.array([1.0, 0, 0]), a, b)
    assert rho > 0.0


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
    nbh = rt.EpsNeighborhood(body, 1.0)
    Q = np.array([nbh.point("plus", s) for s in np.linspace(-1, 1, 9)])
    qp = rt.normal_flow(body, nbh.point("plus", 0.3), 1.5)
    batch = rt.angle_to_C_batch(body, Q, qp)
    for i, q in enumerate(Q):
        assert abs(batch[i] - rt.angle_to_C(body, q, qp)) < 1e-9


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
    nbh = rt.EpsNeighborhood(body, 1.0)
    q = nbh.point("plus", 0.3)
    out = rt.normal_flow(body, q, 1.0)
    assert abs(rt.angle_to_C(body, q, out) - math.pi) < 1e-6
    assert rt.check_large_angle_escape(body, 1.0, q, out)

    chord = nbh.point("plus", 1.3)
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
        nbh = rt.EpsNeighborhood(body, 0.8)
        assert comp in nbh.components()
        for s in np.linspace(-3, 7, 23):
            x = nbh.point(comp, float(s))
            assert abs(body.dist(x) - 0.8) < 1e-9


def test_stadium_perimeter_closes():
    seg = rt.SegmentBody(E2, np.zeros(2), np.array([1.0, 0.0]))
    nbh = rt.EpsNeighborhood(seg, 1.0)
    period = nbh.period("outer")
    assert abs(period - (2 + 2 * math.pi)) < 1e-12
    a = nbh.point("outer", 0.0)
    b = nbh.point("outer", period)
    assert np.allclose(a, b, atol=1e-12)


def test_calibration_shrinks_delta():
    body = hyp_axis_body()
    nbh = rt.EpsNeighborhood(body, 1.0)
    # flow to R=3 stretches by ~cosh(3)/cosh(1); a too-large delta must shrink
    d = rt.calibrate_delta(nbh, "plus", 0.0, 2.0, 2.0, 0.1, 0.05)
    assert d < 0.1
    stretched = []
    for s in (0.0, 0.5):
        p = nbh.point("plus", s)
        q = nbh.point("plus", s + 2 * d)
        stretched.append(spaces.distance(
            H2, rt.normal_flow(body, p, 2.0), rt.normal_flow(body, q, 2.0)))
    assert max(stretched) <= 0.05 + 1e-9


def frozen_calibrate_delta(neighborhood, component, s_lo, s_hi, flow_time, delta,
                           delta_prime, max_halvings=5):
    """calibrate_delta as a scalar pair loop; None where it raises."""
    body = neighborhood.body
    for _ in range(max_halvings + 1):
        spacing = delta / 4.0
        count = max(8, int(math.ceil((s_hi - s_lo) / spacing)) + 1)
        pts = neighborhood.samples(component, s_lo, s_hi, count, endpoint=True)
        flowed = [rt.normal_flow(body, p, flow_time) for _, p in pts]
        window = max(1, int(math.ceil(2.0 * delta / spacing)))
        if not any(spaces.distance(body.space, pts[i][1], pts[j][1]) <= 2.0 * delta
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
    nbh = rt.EpsNeighborhood(sc.body, sc.eps)
    cases = [sc.delta_prime]
    if name == "euclidean_point":
        cases += [0.03, 1e-4]  # one halving; no delta passes
    results = []
    for delta_prime in cases:
        args = (nbh, sc.component, sc.s_lo, sc.s_hi, sc.R - sc.eps, sc.delta, delta_prime)
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
    nbh = rt.EpsNeighborhood(seg, 1.0)
    period = nbh.period("outer")
    grid = rt.build_boundary_grid(seg, 1.0, 2.0, act, "outer", 0.0, period,
                                  delta=0.02, delta_prime=0.1)
    # witnesses flow to the offset curve at distance exactly R
    for v, (q, ang) in grid.witnesses.items():
        assert abs(seg.dist(grid.iota(v)) - 2.0) < 1e-9
        assert ang >= math.pi - 1e-5
    assert abs(grid.push_off_distance() - 1.0) < 1e-9
    gv = grid.verify()
    assert gv.boundary_map_diameter <= 0.1 + 1e-9


def test_check_small_relative_spec_example():
    """The H^2 geodesic scene passes at (delta, delta') = (1e-2, 1e-1)."""
    body = hyp_axis_body()
    nbh = rt.EpsNeighborhood(body, 1.0)
    act = covers.GroupAction(H2, [spaces.Isometry.hyperbolic_boost(4.0)],
                             word_length=2)
    arc = 4.0 * math.cosh(1.0)
    K_sigma = nbh.samples("plus", -arc / 2, arc / 2, 120, endpoint=True)
    K = [p for _, p in K_sigma]
    K_out = [rt.normal_flow(body, p, 2.0) for _, p in K_sigma]
    dense = nbh.samples("plus", -arc / 2, arc / 2, 800, endpoint=True)
    rep = rt.check_small_relative(body, 1.0, act, K, K_out, dense,
                                  math.pi, 1e-2, 1e-1,
                                  sample_resolution=2 * arc / 120)
    assert rep.cond1_ok and rep.cond2_ok and rep.cond3_ok
    assert rep.cond3_gate == pytest.approx(math.pi / 4)
    assert rep.cond3_variation <= math.pi / 4


def test_pair_variation_matches_per_pair_reference():
    rng = np.random.default_rng(7)
    for space, pts in ((E2, rng.uniform(-1, 1, size=(60, 2))),
                       (H2, [rt.EpsNeighborhood(hyp_axis_body(), 1.0).point(
                           "plus", float(s)) for s in rng.uniform(-2, 2, 60)])):
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
                got = rt._pair_variation(AA, pts, space, radius, axis=axis)
                assert got == ref


def test_extension_staged_errors():
    scene = scenes.hyperbolic_patch_scene()
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
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
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
        (1 - scene.lam) * scene.delta_prime,
        interior_points=scene.interior_points)
    with pytest.raises(StagedPreconditionError) as exc:
        rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    assert exc.value.stage == "full-tightness"


def test_pushoff_evaluate_examples():
    """Coning with weight 1 returns the vertex image; an edge midpoint in R^2
    maps to the Euclidean midpoint of the two vertex images."""
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
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


def test_pushoff_witness_lands_near_its_image():
    """At a boundary witness, the push-off target stays within delta' of the
    vertex image and the angle clears alpha/2 + pi/4."""
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    pushoff = rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    retr = rt.Retractor(pushoff)
    for v, (q, _) in list(grid.witnesses.items())[:40]:
        target, _ = retr.push_target(q)
        assert spaces.distance(E2, target, grid.iota(v)) <= scene.delta_prime
        assert rt.angle_to_C(scene.body, q, target) >= \
            3 * math.pi / 4 - 1e-6


def test_retract_identity_and_interior():
    scene = scenes.euclidean_point_scene()
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    pushoff = rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime)
    retr = rt.Retractor(pushoff)
    nbh = rt.EpsNeighborhood(scene.body, scene.eps)
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(0, nbh.period("circle"))
        q = nbh.point("circle", s)
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
    calls less the three outside the crossing search (q, target, residual)."""
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
], ids=lambda sc: sc.name)
def test_retract_matches_frozen_bisection(scene):
    """The ITP search lands within 1e-15 max(1, d(q, target)) of the frozen
    80-step bisection's crossing, with a level-set residual at most one ulp of
    eps above the bisection's, the same target and cell, and at most ITP_STEPS
    evaluations per query, on boundary, interior and idempotence queries."""
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
        (1 - scene.lam) * scene.delta_prime)
    retr = rt.Retractor(rt.extend_to_pushoff(grid, scene.lam, 1,
                                             scene.delta_prime))
    nbh = rt.EpsNeighborhood(scene.body, scene.eps)
    body, eps, space = scene.body, scene.eps, scene.body.space
    evals = []

    def check(query):
        (r, target, cell), n = counted_retract(retr, query)
        ref = frozen_retract(retr, query)
        assert (np.array_equal(target, retr.push_target(query)[0])
                and cell == retr.push_target(query)[1])
        length = spaces.distance(space, query, target)
        assert spaces.distance(space, r, ref) <= 1e-15 * max(1.0, length)
        assert abs(body.dist(r) - eps) <= abs(body.dist(ref) - eps) + math.ulp(eps)
        assert n <= rt.ITP_STEPS == 52
        evals.append(n)
        return r

    margin = 0.02 * (scene.s_hi - scene.s_lo)
    for s in np.linspace(scene.s_lo + margin, scene.s_hi - margin, 12):
        q = nbh.point(scene.component, float(s))
        q_in = rt.normal_flow(scene.body, q, -grid.delta / 4.0)
        for query in (q, q_in):
            check(check(query))
    if scene.name == "euclidean_point":
        assert np.mean(evals) <= 8


def test_segment_scene_end_to_end():
    rep = scenes.run_pipeline(scenes.euclidean_segment_scene(), density=60,
                              seed=0)
    assert rep.ok
    assert max(r for _, r in rep.identity_rows) <= 1e-8
    assert min(a for _, a in rep.angle_rows) >= 3 * math.pi / 4 - 1e-6


def test_grid_nerve_is_face_closed():
    from barylab import simplicial
    scene = scenes.euclidean_point_scene(delta=0.05)
    grid = rt.build_boundary_grid(
        scene.body, scene.eps, scene.R, scene.action, scene.component,
        scene.s_lo, scene.s_hi, scene.delta,
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
    scene = scenes.hyperbolic_axis_scene()
    back = scenes.Scene.from_json(scene.to_json())
    assert back.eps == scene.eps and back.R == scene.R
    assert back.body.kind == "line"
    assert back.action.word_length == scene.action.word_length
    assert back.s_lo == scene.s_lo and back.s_hi == scene.s_hi
