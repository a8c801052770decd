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


def frozen_finite_loops(space, b, P, Q):
    """lambda_of and relative_slacks of a finite space as per-point loops of
    spaces.distance calls."""
    D = spaces.pairwise_diameter(space, P)
    lam = max(spaces.distance(space, b, p) for p in P) / D
    slacks = [max(D, max(spaces.distance(space, q, p) for p in P)) - spaces.distance(space, b, q)
              for q in Q]
    return lam, slacks


def test_finite_lambda_and_slacks_match_per_point_loops():
    """On finite spaces the index-array kernels give the loops' values
    exactly: 300 random metrics (distances of random points of R^2, so
    symmetric bit for bit) with random P, Q and b."""
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(3, 12))
        xy = rng.uniform(-1.0, 1.0, (n, 2))
        space = spaces.ModelSpace.finite(np.linalg.norm(xy[:, None] - xy[None], axis=-1))
        P = rng.choice(n, int(rng.integers(2, n + 1)), replace=False).tolist()
        Q = rng.integers(0, n, int(rng.integers(0, 6))).tolist()
        b = int(rng.integers(0, n))
        lam, slacks = frozen_finite_loops(space, b, P, Q)
        assert bc.lambda_of(space, b, P) == lam
        assert list(bc.relative_slacks(space, b, P, Q)) == slacks


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
        cert = bc.solve_barycenter(bc.BarycenterProblem(sp, trip, []), lam)
        assert cert.status == "not_found_below"
        assert cert.lambda_bound > 0.99


def test_circle_relative_obstruction():
    """Two nearly-sqrt(3)-apart points with the antipodal blocker admit no
    lambda-barycenter below 1 - eta."""
    d = math.sqrt(3) * (1 - 1e-3)
    half = math.asin(d / 2)
    P = [spaces.circle_point(C1, -half), spaces.circle_point(C1, half)]
    q = spaces.circle_point(C1, math.pi)
    cert = bc.solve_barycenter(bc.BarycenterProblem(C1, P, [q]), 0.95)
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
    assert rep.first_failure["trial"] == 0  # the planted equidistant witness


def test_sample_report_keeps_one_failure():
    """A sweep whose trials all fail keeps the first failed trial only, so
    its report does not grow with the trial count; worst is still kept."""
    small, large = (bc.has_barycenters_sample(C1, 0.3, 0.8, n, seed=1) for n in (10, 200))
    assert small.passes == large.passes == 0
    assert small.first_failure["trial"] == large.worst["trial"] == 0
    big, little = large.to_json(), small.to_json()
    assert big.pop("trials") == 200 and little.pop("trials") == 10
    assert big == little


def test_sample_report_deterministic():
    a = bc.has_barycenters_sample(E2, SQ32, 1.0, 50, seed=42).to_json()
    b = bc.has_barycenters_sample(E2, SQ32, 1.0, 50, seed=42).to_json()
    assert a == b


def test_finite_space_solver_exact():
    m = np.array([[0.0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]])
    fin = spaces.ModelSpace.finite(m)
    cert = bc.solve_barycenter(bc.BarycenterProblem(fin, [0, 3], [1]), 0.5)
    assert cert.found and cert.grid_resolution == 0.0
    assert cert.point == 1  # ties go to the lower index
    low = bc.solve_barycenter(bc.BarycenterProblem(fin, [0, 3], []), 0.4)
    assert low.status == "not_found_below"
    assert abs(low.lambda_bound - 0.5) < 1e-12


def test_circle_exact_lambda_below_dense_scan():
    """With Q nonempty, the critical-point lambda* is at most the least
    max_p d / D over a 200,000-point scan of the Q-feasible circle, and the
    solve flips from not_found_below to found across it."""
    n = 200_000
    for seed in range(16):
        rng = np.random.default_rng(seed)
        sp = spaces.ModelSpace.circle((1.0, 2.5)[seed % 2])
        c, w = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2 * math.pi)
        P = [spaces.circle_point(sp, c + rng.uniform(0, w))
             for _ in range(int(rng.integers(2, 7)))]
        Q = [spaces.circle_point(sp, rng.uniform(0, 2 * math.pi))
             for _ in range(int(rng.integers(1, 4)))]
        prob = bc.BarycenterProblem(sp, P, Q)
        lam_star = bc.solve_barycenter(prob, 0.0).lambda_bound
        t = np.arange(n) * (2 * math.pi / n)
        scan = sp.radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        D = spaces.pairwise_diameter(sp, P)
        r = np.maximum(D, np.max(spaces.cross_distances(sp, Q, P), axis=1))
        feasible = np.all(spaces.cross_distances(sp, scan, Q) <= r, axis=1)
        scan_min = np.min(np.max(spaces.cross_distances(sp, scan[feasible], P), axis=1)) / D
        assert lam_star <= scan_min
        hi = bc.solve_barycenter(prob, lam_star + 1e-9)
        assert hi.found and hi.grid_resolution == 0.0
        assert abs(hi.achieved_lambda - lam_star) <= 1e-12
        assert bc.solve_barycenter(prob, lam_star - 1e-6).status == "not_found_below"


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
    """With Q empty in the plane, lambda* = r_MEB / D exactly: the witness
    and the dual bound both match Welzl's radius."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        P = [rng.uniform(-1, 1, 2) for _ in range(int(rng.integers(2, 7)))]
        D = spaces.pairwise_diameter(E2, P)
        lam_star = welzl_meb_radius(P) / D
        assert 0.5 - 1e-12 <= lam_star <= 1 / math.sqrt(3) + 1e-12  # Jung
        prob = bc.BarycenterProblem(E2, P, [])
        hi = bc.solve_barycenter(prob, lam_star + 1e-3)
        assert hi.status == "found"
        assert abs(hi.achieved_lambda - lam_star) <= 1e-9
        lo = bc.solve_barycenter(prob, lam_star - 0.02)
        assert lo.status == "not_found_below"
        assert abs(lo.lambda_bound - lam_star) <= 1e-9


def test_certificate_reason_written_only_when_set():
    cert = bc.solve_barycenter(
        bc.BarycenterProblem(E2, [np.zeros(2), np.array([1.0, 0.0])], []), 0.5)
    assert cert.found and "reason" not in cert.to_json()


def test_diameter_midpoints_stack_matches_scalar_midpoints():
    """A stacked diameter_midpoints call gives each set the bits of the
    per-set construction: cross_distances, lex-least pair, geodesic_point,
    and the set's first point where it has no diameter."""
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
            if d <= space.tol:
                assert np.array_equal(b, P[0])
                continue
            assert np.array_equal(b, spaces.geodesic_point(space, P[i], P[j],
                                                           0.5 * float(M[i, j])))
            assert np.array_equal(bc.cat0_midpoint_rule(space, P, []).point, b)


# ---------------------------------------------------------------------------
# exact primal-dual certificates in R^n and H^n

H3 = spaces.ModelSpace.hyperboloid(3)
CORNER = [np.zeros(3)] + [np.eye(3)[i] for i in range(3)]  # lambda* = 1/sqrt(3)


def hyp3_point(rng, scale):
    u = rng.normal(size=3)
    s = rng.uniform(0, scale)
    return np.concatenate(([math.cosh(s)], math.sinh(s) * u / np.linalg.norm(u)))


def tetrahedral_h3(rho, boost):
    """Four points at distance rho from the basepoint in tetrahedral
    directions, moved by a boost: their minimax centre is the moved
    basepoint, so lambda* = rho / D."""
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    g = spaces.Isometry.hyperbolic_boost(boost, dim=3)
    return [g.apply(np.concatenate(([math.cosh(rho)], math.sinh(rho) * u)))
            for u in dirs]


def test_exact_solver_r3_corner():
    prob = bc.BarycenterProblem(E3, CORNER, [])
    found = bc.solve_barycenter(prob, 0.7)
    assert found.status == "found"
    assert abs(found.achieved_lambda - 1 / math.sqrt(3)) <= 1e-9
    low = bc.solve_barycenter(prob, 0.55)
    assert low.status == "not_found_below"
    assert abs(low.lambda_bound - 1 / math.sqrt(3)) <= 1e-9
    assert low.grid_resolution is None and len(low.weights) == 4


def test_exact_solver_h3():
    P = tetrahedral_h3(1.0, 0.7)
    lam_star = 1.0 / spaces.pairwise_diameter(H3, P)
    prob = bc.BarycenterProblem(H3, P, [])
    found = bc.solve_barycenter(prob, lam_star + 1e-3)
    assert found.status == "found"
    assert abs(found.achieved_lambda - lam_star) <= 1e-9
    low = bc.solve_barycenter(prob, lam_star - 1e-3)
    assert low.status == "not_found_below"
    assert abs(low.lambda_bound - lam_star) <= 1e-9
    # a far relative point pulls the witness off the centre but stays feasible
    q = spaces.Isometry.hyperbolic_boost(3.0, dim=3).apply(P[0])
    rel = bc.solve_barycenter(bc.BarycenterProblem(H3, P, [q]), 0.9)
    assert rel.found and min(rel.relative_slacks) >= -H3.tol


def replay_lambda_bound(space, P, Q, weights):
    """lambda_bound recomputed from certificate weights by the closed forms:
    sum w |c - cbar|^2 - sum w beta (R^n), sqrt(-<v, v>) - sum w beta (H^n)."""
    C = np.asarray(P + Q, float)
    w = np.asarray(weights)
    D = spaces.pairwise_diameter(space, P)
    q_radii = [max(D, max(spaces.distance(space, q, p) for p in P)) for q in Q]
    if space.kind == spaces.EUCLIDEAN:
        beta = np.array([0.0] * len(P) + [r * r for r in q_radii])
        cbar = w @ C / np.sum(w)
        s = float(w @ np.sum((C - cbar) ** 2, axis=1) - w @ beta)
        return math.sqrt(max(s, 0.0)) / D
    beta = np.array([0.0] * len(P) + [math.cosh(r) for r in q_radii])
    v = w @ C
    s = math.sqrt(v[0] ** 2 - v[1:] @ v[1:]) - float(w @ beta)
    return math.acosh(max(s, 1.0)) / D


def test_exact_certificates_replay():
    """Every found point passes lambda_of and relative_slacks; every weight
    vector recomputes lambda_bound, which brackets lambda* with the point."""
    rng = np.random.default_rng(5)
    draws = [(E2, lambda: rng.uniform(-1, 1, 2)), (E3, lambda: rng.uniform(-1, 1, 3)),
             (H2, lambda: hyp_point(rng, 1.0)), (H3, lambda: hyp3_point(rng, 1.0))]
    statuses = set()
    for space, draw in draws:
        for _ in range(12):
            P = [draw() for _ in range(int(rng.integers(2, 7)))]
            Q = [draw() for _ in range(int(rng.integers(0, 5)))]
            for lam in (0.5, 0.55, 0.6, 0.7):
                cert = bc.solve_barycenter(bc.BarycenterProblem(space, P, Q), lam)
                statuses.add(cert.status)
                w = np.asarray(cert.weights)
                assert np.all(w >= 0.0) and abs(np.sum(w[:len(P)]) - 1.0) <= 1e-12
                bound = replay_lambda_bound(space, P, Q, cert.weights)
                assert abs(bound - cert.lambda_bound) <= 1e-9
                if cert.found:
                    assert bc.lambda_of(space, cert.point, P) <= lam + space.tol
                    assert min(bc.relative_slacks(space, cert.point, P, Q),
                               default=0.0) >= -space.tol
                    assert abs(cert.achieved_lambda - bound) <= 1e-9
                else:
                    assert cert.status == "not_found_below" and bound > lam
    assert statuses == {"found", "not_found_below"}


def test_phase_sweep_planar_instances_decided():
    """The plane and hyperbolic-plane pools of the benchmark sweep are
    decided, trial 47 included (its grid needed 10.9 M candidates)."""
    for space, lam, delta, seeds in [(E2, 0.7, 1.0, range(40, 51)),
                                     (H2, 0.8, 0.5, range(3))]:
        for seed in seeds:
            rep = bc.has_barycenters_sample(space, lam, delta, 1, seed)
            assert rep.worst["certificate"]["status"] in ("found", "not_found_below")
