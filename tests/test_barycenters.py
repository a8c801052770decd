"""Minimax barycenter solver, closed-form rules, and sampled existence checks."""

import math

import numpy as np
import pytest

from barylab import barycenters as bc
from barylab import spaces
from barylab.errors import DiameterTooLarge, GeometryError

E2 = spaces.ModelSpace.euclidean(2)
E3 = spaces.ModelSpace.euclidean(3)
H2 = spaces.ModelSpace.hyperboloid(2)
C1 = spaces.ModelSpace.circle(1.0)

SQ32 = math.sqrt(3) / 2


def equidistant_triple(r=1.0):
    sp = spaces.ModelSpace.circle(r)
    return sp, [spaces.circle_point(sp, 2 * math.pi * k / 3) for k in range(3)]


def hyp_point(rng, scale):
    theta = rng.uniform(0, 2 * math.pi)
    s = rng.uniform(0, scale)
    u = np.array([0.0, math.cos(theta), math.sin(theta)])
    return math.cosh(s) * np.array([1.0, 0, 0]) + math.sinh(s) * u


def test_lambda_of_examples():
    P = [np.zeros(2), np.array([1.0, 0.0])]
    assert abs(bc.lambda_of(E2, np.array([0.5, 0.0]), P) - 0.5) < 1e-12
    assert abs(bc.lambda_of(E2, P[0], P) - 1.0) < 1e-12
    eq = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, SQ32])]
    circum = np.array([0.5, 1 / (2 * math.sqrt(3))])
    assert abs(bc.lambda_of(E2, circum, eq) - 1 / math.sqrt(3)) < 1e-9
    with pytest.raises(GeometryError):
        bc.lambda_of(E2, P[0], [P[0], P[0]])


def test_solve_edge():
    prob = bc.BarycenterProblem(E2, [np.zeros(2), np.array([2.0, 0.0])], [])
    cert = bc.solve_barycenter(prob, 0.5)
    assert cert.found
    assert np.allclose(cert.point, [1.0, 0.0], atol=1e-6)
    assert cert.achieved_lambda <= 0.5 + 1e-9


def test_solve_square_corners():
    sq = [np.array(v, float) for v in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    cert = bc.solve_barycenter(bc.BarycenterProblem(E2, sq, []), 0.75)
    assert cert.found
    assert abs(cert.achieved_lambda - 0.5) < 1e-9
    assert abs(cert.diam_P - math.sqrt(2)) < 1e-12


def test_solve_degenerate_diameter():
    p = np.array([0.3, 0.4])
    cert = bc.solve_barycenter(bc.BarycenterProblem(E2, [p, p], [p]), 0.5)
    assert cert.found and cert.achieved_lambda == 0.0
    assert np.allclose(cert.point, p)


def test_circle_triple_obstruction():
    sp, trip = equidistant_triple()
    assert abs(spaces.pairwise_diameter(sp, trip) - math.sqrt(3)) < 1e-9
    for lam in (0.5, 0.75, 0.99):
        cert = bc.solve_barycenter(bc.BarycenterProblem(sp, trip, []), lam,
                                   rho=1e-3)
        assert cert.status == "not_found_below"
        assert cert.lambda_bound > 0.99


def test_circle_relative_obstruction():
    """Two nearly-sqrt(3)-apart points with the antipodal blocker admit no
    lambda-barycenter below 1 - eta."""
    d = math.sqrt(3) * (1 - 1e-3)
    half = math.asin(d / 2)
    P = [spaces.circle_point(C1, -half), spaces.circle_point(C1, half)]
    q = spaces.circle_point(C1, math.pi)
    cert = bc.solve_barycenter(bc.BarycenterProblem(C1, P, [q]), 0.95, rho=1e-3)
    assert cert.status == "not_found_below"
    assert 0.95 < cert.lambda_bound < 1.0


def test_certificate_soundness_replay():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P = [rng.uniform(-1, 1, 2) for _ in range(4)]
        Q = [rng.uniform(-2, 2, 2) for _ in range(3)]
        cert = bc.solve_barycenter(bc.BarycenterProblem(E2, P, Q), 0.9)
        if not cert.found:
            continue
        assert abs(bc.lambda_of(E2, cert.point, P) - cert.achieved_lambda) < 1e-9
        replay = bc.relative_slacks(E2, cert.point, P, Q)
        assert np.allclose(replay, cert.relative_slacks, atol=1e-9)


def test_monotonicity_in_lambda():
    rng = np.random.default_rng(6)
    for _ in range(10):
        P = [rng.uniform(-1, 1, 2) for _ in range(3)]
        prob = bc.BarycenterProblem(E2, P, [])
        lo = bc.solve_barycenter(prob, 0.7)
        hi = bc.solve_barycenter(prob, 0.85)
        if lo.found:
            assert hi.found
            # the lower-lambda witness remains feasible at the higher lambda
            assert bc.lambda_of(E2, lo.point, P) <= 0.85 + 1e-9


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    P = [rng.uniform(-1, 1, 2) for _ in range(4)]
    Q = [rng.uniform(-2, 2, 2) for _ in range(2)]
    base = bc.solve_barycenter(bc.BarycenterProblem(E2, P, Q), 0.8)
    assert base.found
    for s in (0.5, 2.0):
        scaled = bc.solve_barycenter(
            bc.BarycenterProblem(E2, [s * p for p in P], [s * q for q in Q]), 0.8)
        assert scaled.found
        assert abs(scaled.achieved_lambda - base.achieved_lambda) < 1e-6
        assert abs(scaled.diam_P - s * base.diam_P) < 1e-12


def test_cat0_rule_examples():
    cert = bc.cat0_midpoint_rule(E2, [np.zeros(2), np.array([1.0, 0.0])], [])
    assert np.allclose(cert.point, [0.5, 0.0])
    assert abs(cert.achieved_lambda - 0.5) < 1e-12

    eq = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, SQ32])]
    cert = bc.cat0_midpoint_rule(E2, eq, [])
    assert abs(cert.achieved_lambda - SQ32) < 1e-9  # edge midpoint to apex


def test_cat0_rule_random_trials():
    rng = np.random.default_rng(13)
    for space, sampler in [
            (E2, lambda: rng.uniform(-1, 1, 2)),
            (E3, lambda: rng.uniform(-1, 1, 3)),
            (H2, lambda: hyp_point(rng, 0.5))]:
        for _ in range(1000):
            P = [sampler() for _ in range(int(rng.integers(2, 6)))]
            Q = [sampler() for _ in range(5)]
            cert = bc.cat0_midpoint_rule(space, P, Q)
            assert cert.achieved_lambda <= SQ32 + 1e-9
            if cert.relative_slacks:
                assert min(cert.relative_slacks) >= -1e-9


def test_cat0_rule_deterministic_tiebreak():
    sq = [np.array(v, float) for v in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    c1 = bc.cat0_midpoint_rule(E2, sq, [])
    c2 = bc.cat0_midpoint_rule(E2, sq, [])
    assert np.array_equal(c1.point, c2.point)
    # both diagonals realize the diameter; lexicographic pick is (0,0)-(1,1)
    assert np.allclose(c1.point, [0.5, 0.5])


def test_circle_arc_rule_examples():
    a = spaces.circle_point(C1, 0.2)
    b = spaces.circle_point(C1, 0.2 + 2 * math.asin(0.25))  # chordal 0.5
    cert = bc.circle_arc_rule(C1, [a, b], [])
    assert cert.found and cert.metric == "arc"
    assert cert.achieved_lambda <= 0.5 + 1e-9

    single = bc.circle_arc_rule(C1, [a], [spaces.circle_point(C1, 0.5)])
    assert single.achieved_lambda == 0.0
    assert np.array_equal(single.point, a)

    with pytest.raises(DiameterTooLarge):
        sp, trip = equidistant_triple()
        bc.circle_arc_rule(sp, trip, [])


def test_circle_arc_rule_random_trials():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        theta0 = rng.uniform(0, 2 * math.pi)
        a_p = math.asin(0.8 / 2)
        a_q = 2 * math.asin(0.8 / 2)
        P = [spaces.circle_point(C1, theta0 + rng.uniform(-a_p, a_p))
             for _ in range(int(rng.integers(2, 7)))]
        Q = [spaces.circle_point(C1, theta0 + rng.uniform(-a_q, a_q))
             for _ in range(int(rng.integers(0, 7)))]
        cert = bc.circle_arc_rule(C1, P, Q)
        assert cert.found
        assert cert.achieved_lambda <= 0.5 + 1e-9
        if cert.relative_slacks:
            assert min(cert.relative_slacks) >= -1e-9


def test_regular_simplex_model_case():
    for n in range(1, 5):
        space = spaces.ModelSpace.euclidean(n + 1)
        P = [np.eye(n + 1)[i] for i in range(n + 1)]
        centroid = np.full(n + 1, 1.0 / (n + 1))
        lam = bc.lambda_of(space, centroid, P)
        assert abs(lam - math.sqrt(n / (2 * (n + 1)))) < 1e-9
        assert lam <= 1 / math.sqrt(2) + 1e-12
        slacks = bc.relative_slacks(space, centroid, P, P)
        assert min(slacks) >= -1e-9


def test_has_barycenters_sample_euclidean():
    rep = bc.has_barycenters_sample(E2, SQ32, 2.0, 200, seed=1)
    assert rep.pass_rate == 1.0


def test_has_barycenters_sample_circle_positive():
    rep = bc.has_barycenters_sample(C1, 0.5, 0.8, 200, seed=1)
    assert rep.pass_rate == 1.0


def test_has_barycenters_sample_circle_obstruction():
    rep = bc.has_barycenters_sample(C1, 0.99, math.sqrt(3), 50, seed=1)
    assert rep.pass_rate < 1.0
    assert rep.failures[0]["trial"] == 0  # the planted equidistant witness


def test_sample_report_deterministic():
    a = bc.has_barycenters_sample(E2, SQ32, 1.0, 50, seed=42).to_json()
    b = bc.has_barycenters_sample(E2, SQ32, 1.0, 50, seed=42).to_json()
    assert a == b


def test_explicit_candidate_region():
    """Constraint-region mode: candidates restricted to a sampled curve."""
    ring = [spaces.circle_point(C1, t)
            for t in np.linspace(0, 2 * math.pi, 2000, endpoint=False)]
    region = bc.SearchRegion.explicit(ring, resolution=2e-3)
    P = [spaces.circle_point(C1, 0.0), spaces.circle_point(C1, 0.4)]
    prob = bc.BarycenterProblem(C1, P, [], region=region)
    cert = bc.solve_barycenter(prob, 0.6)
    assert cert.found
    assert abs(np.linalg.norm(cert.point) - 1.0) < 1e-9  # stays on the circle


def test_finite_space_solver_exact():
    m = np.array([[0.0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]])
    fin = spaces.ModelSpace.finite(m)
    cert = bc.solve_barycenter(bc.BarycenterProblem(fin, [0, 3], [1]), 0.5)
    assert cert.found and cert.grid_resolution == 0.0
    assert cert.point in (1, 2)
    low = bc.solve_barycenter(bc.BarycenterProblem(fin, [0, 3], []), 0.4)
    assert low.status == "not_found_below"
    assert abs(low.lambda_bound - 0.5) < 1e-12


def _circle_through(pts):
    """(center, radius) of the smallest circle through 1-3 boundary points."""
    if len(pts) == 1:
        return pts[0], 0.0
    if len(pts) == 2:
        (ax, ay), (bx, by) = pts
        return ((ax + bx) / 2, (ay + by) / 2), math.dist(pts[0], pts[1]) / 2
    (ax, ay), (bx, by), (cx, cy) = pts
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return (ux, uy), math.dist((ux, uy), pts[0])


def welzl_meb_radius(points):
    """Minimum enclosing disk radius (Welzl 1991, move-to-front form)."""
    pts = [tuple(map(float, p)) for p in points]

    def mec(n, boundary):
        if n == 0 or len(boundary) == 3:
            return _circle_through(boundary) if boundary else ((0.0, 0.0), -1.0)
        center, r = mec(n - 1, boundary)
        if r >= 0 and math.dist(center, pts[n - 1]) <= r * (1 + 1e-12):
            return center, r
        return mec(n - 1, boundary + [pts[n - 1]])

    return mec(len(pts), [])[1]


def test_solver_matches_meb_oracle():
    """With Q empty in the plane, lambda* = r_MEB / D exactly; the grid
    certifies non-existence down to rho = D/200 and the descent finds a
    point just above lambda*."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        P = [rng.uniform(-1, 1, 2) for _ in range(int(rng.integers(2, 7)))]
        D = spaces.pairwise_diameter(E2, P)
        lam_star = welzl_meb_radius(P) / D
        assert 0.5 - 1e-12 <= lam_star <= 1 / math.sqrt(3) + 1e-12  # Jung
        prob = bc.BarycenterProblem(E2, P, [])
        hi = bc.solve_barycenter(prob, lam_star + 1e-3)
        assert hi.status == "found"
        assert lam_star - 1e-9 <= hi.achieved_lambda <= lam_star + 1e-3
        lo = bc.solve_barycenter(prob, lam_star - 0.02)
        assert lo.status == "not_found_below"
        assert lam_star - 0.005 - 1e-9 <= lo.lambda_bound <= lam_star + 1e-9


def test_grid_budget_makes_oversized_grid_indeterminate(monkeypatch):
    """Phase trial seed 47's plane instance needs a 10.9 M-point mesh; the
    budget turns it into indeterminate before any grid is allocated."""
    def no_grid(*args):
        raise AssertionError("an over-budget grid was allocated")

    monkeypatch.setattr(bc, "_euclidean_grid", no_grid)
    P, Q = bc._sample_sets(E2, np.random.default_rng(47), 1.0)
    cert = bc.solve_barycenter(bc.BarycenterProblem(E2, P, Q), 0.7)
    assert cert.status == "indeterminate"
    assert "over the budget" in cert.reason
    assert cert.to_json()["reason"] == cert.reason
    rep = bc.has_barycenters_sample(E2, 0.7, 1.0, 1, 47)
    assert rep.worst["certificate"]["status"] == "indeterminate"


def test_certificate_reason_written_only_when_set():
    cert = bc.solve_barycenter(
        bc.BarycenterProblem(E2, [np.zeros(2), np.array([1.0, 0.0])], []), 0.5)
    assert cert.found and "reason" not in cert.to_json()


def test_candidate_grid_returns_arrays():
    P = [np.zeros(2), np.array([1.0, 0.0])]
    rng = np.random.default_rng(2)
    for space, pts in [(C1, [spaces.circle_point(C1, 0.0), spaces.circle_point(C1, 0.5)]),
                       (E2, P), (E3, [np.zeros(3), np.array([0.0, 1.0, 1.0])]),
                       (H2, [hyp_point(rng, 0.5) for _ in range(3)])]:
        grid, _ = bc._candidate_grid(bc.BarycenterProblem(space, pts, []), 0.05)
        assert isinstance(grid, np.ndarray)
        assert grid.ndim == 2 and grid.shape[1] == space.ambient_dim


def test_diameter_midpoints_stack_matches_scalar_midpoints():
    """A stacked diameter_midpoints call gives each set the bits of the
    per-set construction: cross_distances, lex-least pair, geodesic_point."""
    rng = np.random.default_rng(11)
    for space, draw in [(E2, lambda: rng.normal(size=2)),
                        (E3, lambda: rng.normal(size=3)),
                        (H2, lambda: hyp_point(rng, 1.0))]:
        sets = [[draw() for _ in range(6)] for _ in range(40)]
        sets.append([sets[0][0]] * 6)  # a degenerate set
        D, mids = bc.diameter_midpoints(space, np.asarray(sets))
        for P, d, b in zip(sets, D, mids):
            M = spaces.cross_distances(space, np.asarray(P), np.asarray(P))
            M[np.tril_indices(len(P))] = -np.inf
            i, j = divmod(int(np.argmax(M)), len(P))
            assert d == M[i, j]
            if b is None:
                assert d <= space.tol
                continue
            assert np.array_equal(b, spaces.geodesic_point(space, P[i], P[j],
                                                           0.5 * float(M[i, j])))
            assert np.array_equal(bc.cat0_midpoint_rule(space, P, []).point, b)


def test_grid_budget_stops_refinement_with_coarse_bound(monkeypatch):
    """A refinement over the budget leaves the coarse grid's bound and
    resolution in the indeterminate certificate."""
    monkeypatch.setattr(bc, "GRID_BUDGET", 2000)
    sp, P = equidistant_triple()
    # the circle grid at rho = D/200 has 363 candidates; refined, 3,628
    cert = bc.solve_barycenter(bc.BarycenterProblem(sp, P, []), 0.99999)
    assert cert.status == "indeterminate"
    assert "circle grid needs" in cert.reason
    assert cert.lambda_bound is not None and cert.grid_resolution > 0
