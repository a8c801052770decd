"""Property tests (Hypothesis): the distance entry points are rows of one
kernel, barycenter and nerve certificates are invariant under isometries and
nerve certificates replay, the circle's lambda* matches the arc-midpoint
closed form, subdivision provenance read off chains matches the union-based
search, the array subdivision matches the frozen tuple one, shrinking
subdivisions keep their diameter bounds, and the retraction's crossings match
closed forms."""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from barylab import barycenters as bc  # noqa: E402
from barylab import covers  # noqa: E402
from barylab import retraction as rt  # noqa: E402
from barylab import simplicial, spaces, subdivision as sd  # noqa: E402
from test_covers import assert_certificate_replays  # noqa: E402
from test_simplicial import coface_rows, labelled, reference_subdivision  # noqa: E402
from test_subdivision import reference_labels  # noqa: E402

SPACES = [spaces.ModelSpace.euclidean(2), spaces.ModelSpace.euclidean(3),
          spaces.ModelSpace.hyperboloid(2), spaces.ModelSpace.hyperboloid(3)]


def draw_point(space, rng):
    if space.kind == spaces.EUCLIDEAN:
        return rng.uniform(-1.0, 1.0, space.dim)
    u = rng.normal(size=space.dim)
    s = rng.uniform(0.0, 1.0)
    return np.concatenate(([math.cosh(s)], math.sinh(s) * u / np.linalg.norm(u)))


def random_isometry(space, rng):
    """An orthogonal map and a translation in R^n; a boost of length up to
    2 between two rotations about the basepoint in H^n."""
    n = space.dim
    rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if space.kind == spaces.EUCLIDEAN:
        return spaces.Isometry(spaces.EUCLIDEAN, rot, rng.uniform(-5.0, 5.0, n))
    turn = np.eye(n + 1)
    turn[1:, 1:] = rot
    boost = spaces.Isometry.hyperbolic_boost(rng.uniform(0.0, 2.0), dim=n).matrix
    return spaces.Isometry(spaces.HYPERBOLOID, turn @ boost @ turn.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))))
def test_lambda_star_isometry_invariant(seed, which):
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    P = [draw_point(space, rng) for _ in range(int(rng.integers(2, 7)))]
    Q = [draw_point(space, rng) for _ in range(int(rng.integers(0, 4)))]
    g = random_isometry(space, rng)
    moved = bc.BarycenterProblem(space, [g.apply(p) for p in P], [g.apply(q) for q in Q])
    a = bc.solve_barycenter(bc.BarycenterProblem(space, P, Q), 1.0)
    b = bc.solve_barycenter(moved, 1.0)
    assert a.found and b.found
    assert abs(a.achieved_lambda - b.achieved_lambda) <= 1e-9
    assert abs(a.lambda_bound - b.lambda_bound) <= 1e-9


PLANES = [spaces.ModelSpace.euclidean(2), spaces.ModelSpace.hyperboloid(2)]
KERNEL_SPACES = SPACES + [spaces.ModelSpace.finite(
    np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))))]


def draw_rows(space, rng, m):
    """m points as one array: coordinate rows, or indices in a finite space."""
    if space.kind == spaces.FINITE:
        return rng.integers(0, space.dim, m)
    return np.array([draw_point(space, rng) for _ in range(m)]).reshape(m, space.ambient_dim)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(KERNEL_SPACES))),
       st.integers(0, 6), st.integers(0, 6))
def test_distance_entry_points_are_paired_distances(seed, which, m, n):
    """distances_to, cross_distances and pairwise_diameter over three or more
    points equal paired_distances bit for bit, empty inputs included; every
    row of project_rows and dist_rows of a point, line and segment body
    equals the one-point project and dist bit for bit, with rows drawn
    beyond either end of the segment."""
    space = KERNEL_SPACES[which]
    rng = np.random.default_rng(seed)
    A, B, Y = draw_rows(space, rng, m), draw_rows(space, rng, n), draw_rows(space, rng, 2)
    assert np.array_equal(spaces.distances_to(space, A, Y[0]),
                          spaces.paired_distances(space, A, Y[0]))
    assert np.array_equal(spaces.cross_distances(space, A, B),
                          spaces.paired_distances(space, A[:, None], B[None]))
    if m != 2:
        want = np.max(spaces.paired_distances(space, A[:, None], A[None]), initial=0.0)
        assert spaces.pairwise_diameter(space, A) == want
    if space not in PLANES or spaces.distance(space, Y[0], Y[1]) <= 1e-6:
        return
    # off the line at eps, three feet before a and three past b, each 3e-7 to
    # 2 from its end (the window's arc length along a line in H^2 is cosh(eps)
    # times the foot's)
    line, segment = rt.LineBody(space, Y[0], Y[1]), rt.SegmentBody(space, Y[0], Y[1])
    eps = rng.uniform(0.1, 1.0)
    past = 10.0 ** rng.uniform(-6.5, 0.3, 6)
    feet = np.concatenate([-past[:3], segment.length + past[3:]])
    window = rt.Window(line, eps, str(rng.choice(["minus", "plus"])), 0.0, 1.0)
    beyond = window.points(feet * (1.0 if space.kind == spaces.EUCLIDEAN else math.cosh(eps)))
    assert np.array_equal(segment.project_rows(beyond), np.repeat(Y, 3, axis=0))
    X = np.concatenate([A, beyond])
    for body in [rt.PointBody(space, Y[0]), line, segment]:
        assert np.array_equal(body.project_rows(X), [body.project(x) for x in X])
        assert np.array_equal(body.dist_rows(X), [body.dist(x) for x in X])


def plane_isometry(space, rng):
    """A rotation, then a translation (R^2) or a boost of length up to 2 (H^2)."""
    turn = rng.uniform(0.0, 2.0 * math.pi)
    if space.kind == spaces.EUCLIDEAN:
        return spaces.Isometry.euclidean_translation(rng.uniform(-5.0, 5.0, 2)).compose(
            spaces.Isometry.euclidean_rotation(turn))
    return spaces.Isometry.hyperbolic_boost(rng.uniform(0.0, 2.0)).compose(
        spaces.Isometry.hyperbolic_rotation(turn))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(PLANES))))
def test_nerve_certificate_isometry_invariant_and_replays(seed, which):
    """2-4 balls: the margin keeps its verdict and its value (to 1e-9) under
    an isometry, and both certificates replay."""
    space = PLANES[which]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    centers = np.array([draw_point(space, rng) for _ in range(k)])
    radii = rng.uniform(0.1, 1.2, k)
    g = plane_isometry(space, rng)
    moved = np.array([g.apply(c) for c in centers])
    a = covers.balls_intersection_margin(space, centers, radii)
    assume(abs(a.margin) > 1e-6)  # clear of the indeterminate band
    b = covers.balls_intersection_margin(space, moved, radii)
    assert (a.margin < 0) == (b.margin < 0)
    assert abs(a.margin - b.margin) <= 1e-9
    assert_certificate_replays(space, centers, radii, a)
    assert_certificate_replays(space, moved, radii, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, math.pi), st.floats(0.5, 3.0))
def test_circle_lambda_star_matches_arc_oracle(seed, w, R):
    """P inside an arc of width w <= pi with both ends in P, Q empty: the arc
    midpoint is optimal, so lambda* = 2R sin(w/4) / D with D = 2R sin(w/2)."""
    rng = np.random.default_rng(seed)
    space = spaces.ModelSpace.circle(R)
    t0 = rng.uniform(0.0, 2.0 * math.pi)
    angles = [t0, t0 + w, *(t0 + rng.uniform(0.0, w, int(rng.integers(0, 6))))]
    P = [np.array([R * math.cos(t), R * math.sin(t)]) for t in angles]
    oracle = 2.0 * R * math.sin(w / 4.0) / (2.0 * R * math.sin(w / 2.0))
    prob = bc.BarycenterProblem(space, P, [])
    hi = bc.solve_barycenter(prob, oracle + 1e-9)
    lo = bc.solve_barycenter(prob, oracle - 1e-6)
    assert hi.status == "found" and lo.status == "not_found_below"
    assert abs(hi.achieved_lambda - oracle) <= 1e-12
    assert abs(lo.lambda_bound - oracle) <= 1e-12


# Frozen union-based provenance: the least parent simplex containing a
# subdivision simplex, and the composition through an earlier provenance,
# as both were computed before they were read off the top of a chain.


def least_containing_simplex(parent, prov, sigma_sub):
    union = set()
    for v in sigma_sub:
        union.update(prov.of(v))
    sigma = tuple(sorted(union))
    assert sigma in parent.simplices
    return sigma


def union_compose(sets, older_sets):
    return {v: tuple(sorted(set().union(*(older_sets[j] for j in js))))
            for v, js in sets.items()}


def random_complex(rng, n_lo, n_hi, top_max, top_min=1):
    n = int(rng.integers(n_lo, n_hi))
    tops = [tuple(rng.choice(n, size=int(rng.integers(top_min, top_max + 1)),
                             replace=False).tolist())
            for _ in range(int(rng.integers(1, 4)))]
    return simplicial.SimplicialComplex.from_maximal(tops)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subdivision_provenance_matches_union(seed):
    rng = np.random.default_rng(seed)
    cplx = random_complex(rng, 3, 7, 3)
    iota = labelled(spaces.ModelSpace.euclidean(2),
                    {v: rng.uniform(-1.0, 1.0, 2) for v in cplx.vertices})
    res = sd.iterate_subdivision(cplx, iota, math.sqrt(3) / 2, int(rng.integers(1, 4)))
    total = {v: (v,) for v in cplx.vertices}
    for st_rec, prov in zip(res.record.stages, res.provs):
        # a stage's provenance maps its new ids back to its parent's simplices;
        # a sub-edge's parent is the set of its larger vertex, and the
        # recorded bound is that parent's image diameter
        parent = simplicial.SimplicialComplex([], prov.vertex_of)
        gid = {J: g for g, J in enumerate(
            tuple(r) for F in prov.parent.faces for r in F.tolist())}
        for e, before in zip(st_rec.edges.tolist(), st_rec.before.tolist()):
            lcs = least_containing_simplex(parent, prov, e)
            assert prov.of(e[1]) == lcs
            assert before == st_rec.parent_diams[gid[lcs]]
        total = union_compose(prov.sets, total)
    assert [res.prov_total.of(v) for v in sorted(res.complex.vertices)] == [
        total[v] for v in sorted(res.complex.vertices)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(PLANES))), st.integers(1, 2))
def test_shrinking_bounds_hold(seed, which, order):
    """Edge and triangle complexes at lambda = sqrt(3)/2: final image
    diameters within lambda^n diam(iota), vertices within diam/(1 - lambda)
    of their original simplex's images and of the original image set."""
    space = PLANES[which]
    rng = np.random.default_rng(seed)
    cplx = random_complex(rng, 3, 6, 3, top_min=2)
    iota = labelled(space, {v: draw_point(space, rng) for v in cplx.vertices})
    res = sd.iterate_subdivision(cplx, iota, math.sqrt(3) / 2, order)
    ver = sd.verify_shrinking(res.record)
    assert ver.ok, ver.violations[:3]


SUBDIVISION_SPACES = SPACES[:3]


def subdivided_size(counts, stages):
    """Simplices after `stages` barycentric subdivisions: a k-simplex tops
    every chain of its faces that ends at it."""
    for _ in range(stages):
        counts = [sum(n * simplicial._flags(k + 1, length) for k, n in enumerate(counts))
                  for length in range(1, len(counts) + 1)]
    return sum(counts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SUBDIVISION_SPACES))))
def test_array_subdivision_matches_tuple_reference(seed, which):
    """Complexes of dimension up to 3 (3-simplex rooms included), over 1-3
    stages: ids, chains, vertex_of and coface rows equal the frozen tuple
    subdivision, and the labels are bit-identical to per-simplex labelling."""
    space = SUBDIVISION_SPACES[which]
    rng = np.random.default_rng(seed)
    cplx = random_complex(rng, 4, 7, 4)
    iota = labelled(space, {v: 0.3 * draw_point(space, rng)
                            if space.kind == spaces.EUCLIDEAN
                            else draw_point(space, rng)
                            for v in cplx.vertices})
    stages = int(rng.integers(1, 4))
    while stages > 1 and subdivided_size(cplx.counts, stages - 1) > 2000:
        stages -= 1  # keep the per-simplex reference labelling affordable
    lam = math.sqrt(3) / 2
    res = sd.iterate_subdivision(cplx, iota, lam, stages)
    for _ in range(stages):
        want_ids, want_chains, _, want_vertex_of, want_cofaces = \
            reference_subdivision(cplx)
        labels = reference_labels(cplx, iota, lam)
        sub, prov = simplicial.barycentric_subdivision(cplx)
        assert sub.vertices == want_ids and sub.simplices == want_chains
        assert prov.vertex_of == want_vertex_of
        assert coface_rows(cplx) == {J: sorted(T) for J, T in want_cofaces.items()}
        # Q rows: the faces below |J| of J's strict cofaces, less J's, by id
        for d in range(1, cplx.dimension + 1):
            q_rows, q_ok = sd._rooms(cplx, d)
            for J, q, ok in zip(cplx.simplices_of_dim(d), q_rows, q_ok):
                room = {c for T in want_cofaces[J] for k in range(1, len(J))
                        for c in itertools.combinations(T, k) if not set(c) <= set(J)}
                assert sub.ids[q[ok]].tolist() == sorted(want_vertex_of[c] for c in room)
        cplx, iota = sub, labelled(space, labels)
    assert res.complex.simplices == cplx.simplices
    assert set(res.iota.ids.tolist()) == set(labels)
    for v, b in labels.items():
        assert np.array_equal(res.iota(v), b), v


class FixedTarget(rt.Retractor):
    """A Retractor with one given push-off target: the crossing search alone."""

    def __init__(self, body, eps, target):
        self.body, self.eps, self.target = body, eps, target

    def push_target(self, q):
        return self.target, ()


def circle_crossing(w, u, eps):
    """The t >= 0 with |w + t u| = eps for |w| <= eps and unit u: the root of
    t^2 + 2 beta t - gamma, gamma = (eps - |w|)(eps + |w|), beta = <w, u>,
    taken in the form that adds no terms of opposite sign."""
    beta, rho = float(np.dot(w, u)), float(np.linalg.norm(w))
    gamma = (eps - rho) * (eps + rho)
    root = math.sqrt(beta * beta + gamma)
    return gamma / (beta + root) if beta > 0 else root - beta


def line_crossings(A, B, s):
    """The t with A cosh t + B sinh t = s: z = e^t solves
    (A + B) z^2 - 2 s z + (A - B) = 0, one root (s + sign(s) sqrt(D)) / (A + B)
    without cancellation and the other read off the product of the roots."""
    big = s + math.copysign(math.sqrt((s - A) * (s + A) + B * B), s)
    zs = [(A - B) / big] + ([big / (A + B)] if A + B else [])
    return [math.log(z) for z in zs if z > 0]


def query_turn(rng, on_level_set):
    """The angle from the outward normal to the target direction: within
    acos(0.1) of it for a query on the level set (the geodesic leaves the
    neighbourhood at once), any angle for an interior query."""
    bound = math.acos(0.1) if on_level_set else math.pi
    return rng.uniform(-bound, bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_retract_crossing_matches_circle_root(seed, on_level_set):
    """A point body in R^2: the crossing is the line-circle root."""
    rng = np.random.default_rng(seed)
    space = spaces.ModelSpace.euclidean(2)
    c, eps = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.1, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rho = eps if on_level_set else rng.uniform(0.0, 0.9 * eps)
    q = c + rho * np.array([math.cos(phi), math.sin(phi)])
    turn = phi + query_turn(rng, on_level_set)
    length = rng.uniform(2.0 * eps, 2.0 * eps + 3.0)
    target = q + length * np.array([math.cos(turn), math.sin(turn)])
    r, got, cell = FixedTarget(rt.PointBody(space, c), eps, target).retract(q)
    assert got is target and cell == ()
    u = (target - q) / np.linalg.norm(target - q)
    exact = q + circle_crossing(q - c, u, eps) * u
    assert np.linalg.norm(r - exact) <= 1e-12 * max(1.0, length)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_retract_crossing_matches_line_root(seed, on_level_set):
    """A line body in H^2 (the geodesic z = 0 of the hyperboloid): the
    crossing solves A cosh t + B sinh t = +-sinh eps on the target's side."""
    rng = np.random.default_rng(seed)
    space = spaces.ModelSpace.hyperboloid(2)
    body = rt.LineBody(space, [1.0, 0.0, 0.0], [math.cosh(1.0), math.sinh(1.0), 0.0])
    eps = rng.uniform(0.1, 1.0)
    side = rng.choice([-1.0, 1.0])
    rho = side * (eps if on_level_set else rng.uniform(0.0, 0.9 * eps))
    s0 = rng.uniform(-2.0, 2.0)
    q = np.array([math.cosh(s0) * math.cosh(rho), math.sinh(s0) * math.cosh(rho),
                  math.sinh(rho)])
    along = np.array([math.sinh(s0), math.cosh(s0), 0.0])
    outward = side * np.array([math.cosh(s0) * math.sinh(rho),
                               math.sinh(s0) * math.sinh(rho), math.cosh(rho)])
    turn = query_turn(rng, on_level_set)
    v = math.sin(turn) * along + math.cos(turn) * outward
    length = rng.uniform(2.0 * eps, 2.0 * eps + 3.0)
    target = math.cosh(length) * q + math.sinh(length) * v
    # a geodesic that leaves at once stays outside; another may end inside
    assume(abs(target[2]) > math.sinh(1.1 * eps))
    r, _, _ = FixedTarget(body, eps, target).retract(q)
    # the unit tangent of the geodesic the retraction follows, read off its
    # point at t = 1: one recomputed from the target differs by up to 3e-13
    u = (spaces.Geodesic(space, q, target).point(1.0) - math.cosh(1.0) * q) / math.sinh(1.0)
    ts = line_crossings(q[2], u[2], math.copysign(math.sinh(eps), target[2]))
    t = min(ts, key=lambda t: max(-t, t - length, 0.0))
    exact = math.cosh(t) * q + math.sinh(t) * u
    assert spaces.distance(space, r, exact) <= 1e-12 * max(1.0, length)


# ---------------------------------------------------------------------------
# row passes: each row has the bits of its one-point call

PLANE_BODIES = {spaces.EUCLIDEAN: ("point", "line", "segment"),
                spaces.HYPERBOLOID: ("point", "line")}


def draw_far(space, rng, m):
    """m points as rows: coordinates in [-40, 40] in R^n, x0 up to 40 in H^n."""
    if space.kind == spaces.EUCLIDEAN:
        return rng.uniform(-40.0, 40.0, (m, space.dim))
    u = rng.normal(size=(m, space.dim))
    s = rng.uniform(0.0, math.acosh(40.0), (m, 1))
    return np.concatenate([np.cosh(s), np.sinh(s) * u / np.linalg.norm(u, axis=1)[:, None]],
                          axis=1)


def draw_body(space, rng, kind):
    a, b = draw_far(space, rng, 2)
    return {"point": lambda: rt.PointBody(space, a), "line": lambda: rt.LineBody(space, a, b),
            "segment": lambda: rt.SegmentBody(space, a, b)}[kind]()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))), st.integers(0, 30))
def test_row_dots_are_np_dot_per_row(seed, which, m):
    """row_dots and minkowski_dots equal np.dot and minkowski_dot per row,
    against rows or against one broadcast vector."""
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    A, B = draw_far(space, rng, m), draw_far(space, rng, m)
    assert np.array_equal(spaces.row_dots(A, B), [np.dot(a, b) for a, b in zip(A, B)])
    assert np.array_equal(spaces.minkowski_dots(A, B),
                          [spaces.minkowski_dot(a, b) for a, b in zip(A, B)])
    if m:
        assert np.array_equal(spaces.row_dots(A, B[0]), [np.dot(a, B[0]) for a in A])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))), st.integers(0, 30))
def test_isometry_apply_rows_match_one_point(seed, which, m):
    """Isometry.apply on rows gives each row the one-point bits, for an
    isometry, its inverse and a composition."""
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    X = draw_far(space, rng, m)
    g = random_isometry(space, rng)
    for h in (g, g.inverse(), g.compose(random_isometry(space, rng))):
        assert np.array_equal(h.apply(X), np.reshape([h.apply(x) for x in X], X.shape))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))),
       st.integers(1, 20), st.integers(1, 6))
def test_geodesic_rows_match_geodesic_point(seed, which, m, k):
    """geodesic_rows at k arc lengths per row (t = 0 and t beyond y among
    them), or at one, equals Geodesic.point bit for bit."""
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    X, Y = draw_far(space, rng, m), draw_far(space, rng, m)
    geos = [spaces.Geodesic(space, x, y) for x, y in zip(X, Y)]
    T = np.array([g.length for g in geos])[:, None] * rng.uniform(-1.0, 2.0, (m, k))
    T[rng.random((m, k)) < 0.2] = 0.0
    rows = spaces.geodesic_rows(space, X, Y, T)
    for geo, ts, got in zip(geos, T, rows):
        assert np.array_equal(got, [geo.point(float(t)) for t in ts])
    assert np.array_equal(spaces.geodesic_rows(space, X, Y, T[:, 0]), rows[:, 0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))), st.integers(1, 20),
       st.integers(0, 2), st.booleans())
def test_normal_flow_rows_match_one_point(seed, which, m, kind, per_row):
    """normal_flow over rows, with one time or one per row, equals the
    one-point flows and the scalar composition geodesic_point(project(x),
    x, dist(x) + t) bit for bit, for point bodies in every space and line
    and segment bodies in the planes."""
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    kinds = PLANE_BODIES[space.kind] if space.dim == 2 else ("point",)
    body = draw_body(space, rng, kinds[kind % len(kinds)])
    X = draw_far(space, rng, m)
    d = np.array([body.dist(x) for x in X])
    assume(np.all(d > 1e-6))
    T = rng.uniform(-0.9, 3.0, m) * np.minimum(d if per_row else np.min(d), 1.0)
    T[rng.random(m) < 0.2] = 0.0
    if not per_row:
        T[:] = T[0]
    rows = rt.normal_flow(body, X, T if per_row else float(T[0]))
    for x, t, got in zip(X, T.tolist(), rows):
        assert np.array_equal(got, rt.normal_flow(body, x, t))
        want = x if t == 0.0 else spaces.geodesic_point(space, body.project(x), x,
                                                        body.dist(x) + t)
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(rt.LEVEL_SETS)),
       st.integers(0, 1), st.integers(1, 40), st.booleans())
def test_window_samples_match_window_point(seed, level_set, component, count, endpoint):
    """A row of Window.samples or Window.points has the bits of the one-row
    call Window.point, on every level-set component, beyond the window too."""
    kind, body_kind = level_set
    space = PLANES[0] if kind == spaces.EUCLIDEAN else PLANES[1]
    rng = np.random.default_rng(seed)
    body = draw_body(space, rng, body_kind)
    names = rt.LEVEL_SETS[level_set]
    s_lo = rng.uniform(-5.0, 5.0)
    window = rt.Window(body, rng.uniform(0.1, 3.0), names[component % len(names)],
                       s_lo, s_lo + rng.uniform(0.1, 10.0))
    ss = np.linspace(window.s_lo, window.s_hi, count, endpoint=endpoint)
    want = [window.point(float(s)) for s in ss]
    assert np.array_equal(window.samples(count, endpoint), want)
    wide = rng.uniform(-20.0, 20.0, count)
    assert np.array_equal(window.points(wide), [window.point(float(s)) for s in wide])
