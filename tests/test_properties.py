"""Property tests (Hypothesis): the distance entry points are rows of one
kernel, barycenter and nerve certificates are invariant under isometries and
nerve certificates replay, the circle's lambda* matches the arc-midpoint
closed form, subdivision provenance read off chains matches the union-based
search, the array subdivision matches the frozen tuple one, shrinking
subdivisions keep their diameter bounds, and the retraction's crossings match
closed forms."""

import functools
import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from barylab import barycenters as bc  # noqa: E402
from barylab import covers  # noqa: E402
from barylab import retraction as rt  # noqa: E402
from barylab import scenes, simplicial, spaces, subdivision as sd  # noqa: E402
from barylab.errors import UncoveredPoint  # noqa: E402
from test_covers import allpairs_tents, assert_certificate_replays  # noqa: E402
from test_retraction import counted_retract, streamed_variation  # noqa: E402
from test_simplicial import (cell_sets, coface_rows, labelled,  # noqa: E402
                             reference_subdivision, simplices_of_dim)
from test_spaces import FrozenGeodesic  # noqa: E402
from test_subdivision import (reference_labels, stage_vertex_of,  # noqa: E402
                              subdivision_coordinates)

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


# Frozen reference: the last-axis reductions that the plane folds replaced.

FOLD_SPACES = [spaces.ModelSpace.euclidean(n) for n in range(1, 5)] + [
    spaces.ModelSpace.hyperboloid(n) for n in (2, 3)]


def frozen_minkowski_rows(A, B):
    return np.sum(A[..., 1:] * B[..., 1:], axis=-1) - A[..., 0] * B[..., 0]


def frozen_paired_distances(space, A, B):
    diff = np.asarray(A, float) - np.asarray(B, float)
    if space.kind == spaces.HYPERBOLOID:
        msq = np.sum(diff[..., 1:] ** 2, axis=-1) - diff[..., 0] ** 2
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(msq, 0.0)))
    return np.linalg.norm(diff, axis=-1)


def frozen_quad(space, diff):
    if space.kind == spaces.EUCLIDEAN:
        return np.sum(diff * diff, axis=-1)
    return 1.0 + 0.5 * (np.sum(diff[..., 1:] ** 2, axis=-1) - diff[..., 0] ** 2)


def frozen_angle_blocks(body, Q):
    """_angles_to_C with (m, len(Q), ambient) arrays and last-axis sums."""
    Q = np.asarray(Q, float)
    P = body.project_rows(Q)
    if body.space.kind == spaces.EUCLIDEAN:
        u2 = (P - Q) / np.linalg.norm(P - Q, axis=1)[:, None]

        def angles(q_primes):
            u1 = np.asarray(q_primes, float)[:, None, :] - Q
            u1 = u1 / np.linalg.norm(u1, axis=-1)[..., None]
            return np.arccos(np.clip(np.sum(u1 * u2, axis=-1), -1.0, 1.0))
        return angles
    c2 = frozen_minkowski_rows(Q, P)
    u2, s2 = P + c2[:, None] * Q, np.sqrt(np.maximum(c2 * c2 - 1.0, 1e-300))

    def angles(q_primes):
        QP = np.asarray(q_primes, float)[:, None, :]
        c1 = frozen_minkowski_rows(Q, QP)
        u1 = QP + c1[..., None] * Q
        s1 = np.sqrt(np.maximum(c1 * c1 - 1.0, 1e-300))
        return np.arccos(np.clip(frozen_minkowski_rows(u1, u2) / (s1 * s2), -1.0, 1.0))
    return angles


def bits(x):
    """The float64 bit patterns of x, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, float).view(np.uint64)


def spread_rows(space, rng, shape):
    """Points of the row shape `shape`, at scales from 1e-3 to 1e3."""
    X = rng.normal(size=shape + (space.dim,)) * 10.0 ** rng.uniform(-3.0, 3.0, shape + (1,))
    if space.kind == spaces.EUCLIDEAN:
        return X
    return np.concatenate([np.sqrt(1.0 + np.sum(X * X, axis=-1, keepdims=True)), X], axis=-1)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(FOLD_SPACES))),
       st.integers(0, 7), st.integers(1, 7))
def test_plane_folds_match_last_axis_reductions(seed, which, m, n):
    """minkowski_rows, paired_distances and _quad equal the frozen last-axis
    reductions as bit patterns on paired rows (a third of them coincident),
    on (m, 1, a) x (1, n, a) and on rows against one point: below 8 terms
    numpy's sum is the same left fold."""
    space = FOLD_SPACES[which]
    rng = np.random.default_rng(seed)
    A, B, C = (spread_rows(space, rng, (k,)) for k in (m, m, n))
    B[:m // 3] = A[:m // 3]
    for X, Y in [(A, B), (A[:, None], C[None]), (A, C[0])]:
        assert np.array_equal(bits(spaces.paired_distances(space, X, Y)),
                              bits(frozen_paired_distances(space, X, Y)))
        assert np.array_equal(bits(spaces.minkowski_rows(X, Y)), bits(frozen_minkowski_rows(X, Y)))
        assert np.array_equal(bits(bc._quad(space, X - Y)), bits(frozen_quad(space, X - Y)))


H2_AXIS = (np.array([1.0, 0.0, 0.0]), np.array([math.cosh(1.0), math.sinh(1.0), 0.0]))
ANGLE_BODIES = [
    rt.PointBody(PLANES[0], np.zeros(2)), rt.LineBody(PLANES[0], np.zeros(2), np.ones(2)),
    rt.SegmentBody(PLANES[0], np.zeros(2), np.array([1.0, 0.0])),
    rt.PointBody(PLANES[1], H2_AXIS[0]), rt.LineBody(PLANES[1], *H2_AXIS),
    rt.SegmentBody(PLANES[1], *H2_AXIS)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(ANGLE_BODIES))),
       st.integers(1, 40), st.integers(1, 9))
def test_plane_angle_blocks_match_last_axis_sums(seed, which, n, m):
    """_angles_to_C's block function equals the frozen (m, n, ambient) form
    bit for bit for point, line and segment bodies in R^2 and H^2, on q rows
    off the body and q' rows apart from them, over all q rows and over a
    drawn slice of them."""
    body = ANGLE_BODIES[which]
    rng = np.random.default_rng(seed)
    Q, QP = spread_rows(body.space, rng, (n,)), spread_rows(body.space, rng, (m,))
    assume(np.all(body.dist_rows(Q) > 1e-6))
    assume(np.all(spaces.paired_distances(body.space, QP[:, None], Q[None]) > 1e-6))
    want = frozen_angle_blocks(body, Q)(QP)
    cols = slice(*np.sort(rng.integers(0, n + 1, 2)))
    for part in (slice(None), cols):
        assert np.array_equal(bits(rt._angles_to_C(body, Q)(QP, part).T), bits(want[:, part]))


PAIR_WINDOWS = [(ANGLE_BODIES[0], "circle"), (ANGLE_BODIES[4], "plus")]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(PAIR_WINDOWS))),
       st.integers(1, 80), st.integers(1, 9),
       st.sampled_from([0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, None]),
       st.booleans(), st.integers(0, 1))
def test_pair_variation_runs_match_per_pair_gather(seed, which, n, width, gap, shuffle, axis):
    """The streamed pass of _angle_variation (run extremes over q' rows,
    carried row differences over sigma rows) gives the per-pair max |A_i -
    A_j| exactly, on R^2 circle and H^2 equidistant-curve points in window
    order or shuffled, for radius 0, the distance across `gap` window
    neighbours (runs of about `gap` rows, on both sides of powers of two) and
    all pairs (None), at the default BLOCK_ROWS and at 97."""
    body, component = PAIR_WINDOWS[which]
    rng = np.random.default_rng(seed)
    window = rt.Window(body, rng.uniform(0.2, 2.0), component, 0.0, rng.uniform(0.5, 12.0))
    pts = window.points(np.sort(rng.uniform(window.s_lo, window.s_hi, n)))
    D = spaces.paired_distances(body.space, pts[None], pts[:, None])  # D[i, j] = d(p_j, p_i)
    radius = np.max(D) if gap is None else 0.0 if gap == 0 else D[0, min(gap, n - 1)]
    if shuffle:
        order = rng.permutation(n)
        pts, D = pts[order], D[order][:, order]
    A = rng.uniform(0.0, math.pi, (n, width) if axis == 0 else (width, n))
    B = A if axis == 0 else A.T
    ii, jj = np.nonzero(np.triu(D <= radius, 1))
    want = float(np.max(np.abs(B[ii] - B[jj]), initial=0.0))
    for block_rows in (spaces.BLOCK_ROWS, 97):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "BLOCK_ROWS", block_rows)
            assert streamed_variation(A, pts, body.space, radius, axis=axis) == want


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


def least_containing_simplex(parent, sets, sigma_sub):
    union = set()
    for v in sigma_sub:
        union.update(sets[v])
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
    subs = res.parents[1:] + [res.complex]
    for st_rec, parent, sub in zip(res.record.stages, res.parents, subs):
        # a stage's cells map its new ids back to its parent's simplices;
        # a sub-edge's parent is the set of its larger vertex, and the
        # recorded bound is that parent's image diameter
        sets = cell_sets(parent, sub)
        gid = {J: g for g, J in enumerate(
            tuple(r) for F in parent.faces for r in parent.ids[F].tolist())}
        for e, before in zip(sub.ids[st_rec.edges].tolist(), st_rec.before.tolist()):
            lcs = least_containing_simplex(parent, sets, e)
            assert sets[e[1]] == lcs
            assert before == st_rec.parent_diams[gid[lcs]]
        total = union_compose(sets, total)
    original = [tuple(r) for F in cplx.faces for r in cplx.ids[F].tolist()]
    assert [original[g] for g in res.record.face.tolist()] == [
        total[v] for v in res.complex.ids.tolist()]


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
        sub = simplicial.barycentric_subdivision(cplx)
        assert sub.vertices == want_ids and sub.simplices == want_chains
        assert {J: v for v, J in cell_sets(cplx, sub).items()} == want_vertex_of
        assert coface_rows(cplx) == {J: sorted(T) for J, T in want_cofaces.items()}
        # Q rows: the faces below |J| of J's strict cofaces, less J's, by id
        for d in range(1, cplx.dimension + 1):
            q_rows, q_ok = sd._rooms(cplx, d)
            for J, q, ok in zip(simplices_of_dim(cplx, d), q_rows, q_ok):
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
    (r, got, cell), n = counted_retract(FixedTarget(rt.PointBody(space, c), eps, target), q)
    assert got is target and cell == () and n <= 1
    u = (target - q) / np.linalg.norm(target - q)
    exact = q + circle_crossing(q - c, u, eps) * u
    assert np.linalg.norm(r - exact) <= 1e-12 * max(1.0, length)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(2610, False)  # eps = 0.834, crossing at t = 2.674 of 4.243: 52 ITP evaluations
def test_retract_crossing_matches_line_root(seed, on_level_set):
    """A line body in H^2 (the geodesic z = 0 of the hyperboloid): the
    crossing solves A cosh t + B sinh t = +-sinh eps on the target's side,
    and the retraction makes at most one level-set evaluation to find it."""
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
    (r, _, _), n = counted_retract(FixedTarget(body, eps, target), q)
    assert n <= 1
    # the unit tangent of the geodesic the retraction follows, read off its
    # point at t = 1: one recomputed from the target differs by up to 3e-13
    u = (FrozenGeodesic(space, q, target).point(1.0) - math.cosh(1.0) * q) / math.sinh(1.0)
    ts = line_crossings(q[2], u[2], math.copysign(math.sinh(eps), target[2]))
    t = min(ts, key=lambda t: max(-t, t - length, 0.0))
    exact = math.cosh(t) * q + math.sinh(t) * u
    assert spaces.distance(space, r, exact) <= 1e-12 * max(1.0, length)


def frozen_itp_retract(body, eps, q, target):
    """Retractor.retract's crossing as it was before the closed forms: an ITP
    search (Oliveira & Takahashi 2020) on f(t) = d(geo(t), C) - eps over
    [0, d(q, target)], kappa1 = 0.2 / d, kappa2 = 2, n0 = 1, at most 52
    evaluations, to within 2^-52 d."""
    k1, k2, n0, tol = 0.2, 2, 1, 2.0 ** -52
    steps = math.ceil(math.log2(1.0 / (2.0 * tol))) + n0
    geo = FrozenGeodesic(body.space, q, target)
    a, b, y_a, y_b = 0.0, geo.length, min(body.dist(q) - eps, 0.0), body.dist(target) - eps
    tol_t = tol * geo.length
    for j in range(steps):
        if b - a <= 2.0 * tol_t:
            break
        half = 0.5 * (a + b)
        x_f = (y_b * a - y_a * b) / (y_b - y_a)
        sigma = math.copysign(1.0, half - x_f)
        delta = k1 / geo.length * (b - a) ** k2
        x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
        radius = tol_t * 2.0 ** (steps - j) - 0.5 * (b - a)
        x = x_t if abs(x_t - half) <= radius else half - sigma * radius
        x = x if a < x < b else half
        y = body.dist(geo.point(x)) - eps
        if y > 0.0:
            b, y_b = x, y
        elif y < 0.0:
            a, y_a = x, y
        else:
            a = b = x
            break
    return geo.point(0.5 * (a + b))


E2, H2, H3 = SPACES[0], SPACES[2], SPACES[3]
# (space, body kind, query kind): seam queries are drawn for segments only
CROSSINGS = [(space, kind, query) for space, kind in [
    (E2, "point"), (E2, "line"), (E2, "segment"), (H2, "point"), (H2, "line"),
    (H2, "segment"), (H3, "point")] for query in ("level", "interior", "seam")
    if query != "seam" or kind == "segment"]


def inner(space, x, y):
    return spaces.minkowski_dot(x, y) if space.kind == spaces.HYPERBOLOID else float(np.dot(x, y))


def along(space, x, v, t):
    """The point at arc length t from x along the unit tangent v."""
    return x + t * v if space.kind == spaces.EUCLIDEAN else math.cosh(t) * x + math.sinh(t) * v


def unit_tangent(space, x, v):
    """v made a unit tangent at x (its Minkowski projection on the hyperboloid)."""
    if space.kind == spaces.HYPERBOLOID:
        v = v + spaces.minkowski_dot(v, x) * x
    return v / math.sqrt(inner(space, v, v))


def turned(space, x, normal, rng):
    """A unit tangent at x within acos(0.1) of the unit tangent `normal`,
    turned toward a random tangent w.  w is made orthogonal to `normal`
    twice: once leaves the rounding of a w nearly along `normal`."""
    w = unit_tangent(space, x, rng.normal(size=space.ambient_dim))
    for _ in range(2):
        w = unit_tangent(space, x, w - inner(space, w, normal) * normal)
    th = rng.uniform(-math.acos(0.1), math.acos(0.1))
    return math.cos(th) * normal + math.sin(th) * w


def on_sheet(space, x):
    """x scaled back onto the hyperboloid; crossing_query's constructions
    leave their points up to 1e-12 off it, and a long geodesic carries that
    on (see CHANGES.md)."""
    return x / math.sqrt(-spaces.minkowski_dot(x, x)) if space.kind == spaces.HYPERBOLOID else x


def outward(body, x):
    """The unit tangent at x pointing away from its projection on the body."""
    return unit_tangent(body.space, x, x - body.project(x))


def flowed_to(body, rng, level):
    """A random point of the plane (or H^3) flowed along its normal to
    distance `level` from the body."""
    x = draw_point(body.space, rng)
    if body.space.kind == spaces.EUCLIDEAN:
        x = 3.0 * x
    d = body.dist(x)
    assume(d > 1e-6)
    return rt.normal_flow(body, x, level - d)


def seam_exit(body, rng, eps):
    """A point of the eps-level set of a segment body at most 1e-3 eps from
    a seam, where the band over the segment meets an end ball: on the band's
    edge, on the ball, or on the seam itself."""
    space, line = body.space, body.line
    # an end of the segment and the unit tangent there toward the other end
    end, toward = (body.a, line.u) if rng.random() < 0.5 else (
        body.b, -line.u if space.kind == spaces.EUCLIDEAN
        else spaces._hyperboloid_unit_tangent(body.b, body.a))
    side = rng.choice([-1.0, 1.0]) * line.normal
    offset = eps * rng.choice([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]) * rng.choice([-1.0, 1.0])
    if offset >= 0.0:  # along the band's edge: the point over `end` moved by offset
        foot = along(space, end, unit_tangent(space, end, toward), offset)
        return along(space, foot, unit_tangent(space, foot, side), eps)
    # round the end ball, past the end perpendicular
    v = math.cos(offset / eps) * side + math.sin(offset / eps) * toward
    return along(space, end, unit_tangent(space, end, v), eps)


def crossing_query(body, eps, query, rng):
    """(q, target): q on the level set, inside N_eps, or (a seam query)
    inside N_eps on the geodesic that leaves it at a seam_exit point.  The
    geodesic runs within acos(0.1) of the normal, outward or inward, at q
    (at the exit for a seam query), so that it crosses the level set at an
    angle: a tangent crossing moves by the rounding of body.dist over the
    slope, and the ITP reference, which reads body.dist, with it."""
    space = body.space
    if query == "seam":
        exit_point = seam_exit(body, rng, eps)
        v = turned(space, exit_point, outward(body, exit_point), rng)
        q = along(space, exit_point, v, -rng.uniform(0.01, 2.0) * eps)
        target = along(space, exit_point, v, rng.uniform(0.1, 3.0))
        assume(body.dist(q) < eps - 1e-9)
    else:
        q = flowed_to(body, rng, eps if query == "level" else rng.uniform(0.02, 0.98) * eps)
        v = turned(space, q, rng.choice([-1.0, 1.0]) * outward(body, q), rng)
        target = along(space, q, v, rng.uniform(0.1, 4.0))
    assume(body.dist(target) > eps + 1e-6)
    return on_sheet(space, q), on_sheet(space, target)


def crossing_body(space, kind, rng):
    if kind == "point":
        return rt.PointBody(space, draw_point(space, rng))
    a = draw_point(space, rng)
    b = draw_point(space, rng)
    assume(spaces.distance(space, a, b) > 0.2)
    return (rt.LineBody if kind == "line" else rt.SegmentBody)(space, a, b)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(CROSSINGS))))
def test_exit_matches_frozen_itp(seed, which):
    """Every body kind, and an H^3 point: the closed-form crossing of
    retract lies within 1e-12 max(1, d(q, target)) of a frozen copy of the
    ITP search's, from queries on the level set, interior queries and (for
    segments) geodesics that leave N_eps at a seam, with at most one
    level-set evaluation."""
    space, kind, query = CROSSINGS[which]
    rng = np.random.default_rng(seed)
    body, eps = crossing_body(space, kind, rng), rng.uniform(0.1, 1.5)
    q, target = crossing_query(body, eps, query, rng)
    (r, _, _), n = counted_retract(FixedTarget(body, eps, target), q)
    ref = frozen_itp_retract(body, eps, q, target)
    assert n <= 1
    length = spaces.distance(space, q, target)
    assert spaces.distance(space, r, ref) <= 1e-12 * max(1.0, length)


def frozen_exit(body, q, y, eps):
    """ConvexBody.exit as it was with FrozenGeodesic: (the geodesic's point
    at t, t), t last_root clamped to [0, length], 0 for a geodesic of no
    length."""
    geo = FrozenGeodesic(body.space, q, y)
    t = 0.0 if geo.length <= body.space.tol else \
        min(max(body.last_root(np.asarray(geo.x, float), geo.tangent, eps), 0.0), geo.length)
    return geo.point(t), t


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(CROSSINGS))))
def test_exit_matches_frozen_geodesic_exit(seed, which):
    """body.exit(q, y, eps) is, bit for bit, the frozen Geodesic's point at
    the frozen clamped exit time, for every body kind in R^2 and H^2 and an
    H^3 point, from level-set, interior and seam queries; it returns q
    itself wherever the frozen exit does (a third to a half of the level-set
    draws), from a point 1e-9 past the level set on its outward normal, and
    on a geodesic of no length.  The point is also geodesic_rows' row at
    the frozen exit time, bit for bit."""
    space, kind, query = CROSSINGS[which]
    rng = np.random.default_rng(seed)
    body, eps = crossing_body(space, kind, rng), rng.uniform(0.1, 1.5)
    q, target = crossing_query(body, eps, query, rng)
    got, (ref, t) = body.exit(q, target, eps), frozen_exit(body, q, target, eps)
    assert np.array_equal(got, ref) and (got is q) == (ref is q)
    assert np.array_equal(got, spaces.geodesic_rows(space, q[None], target[None], [t])[0])
    if query == "level":
        past = rt.normal_flow(body, q, 1e-9)
        assert body.exit(past, rt.normal_flow(body, past, 1.0), eps) is past
    for y in (q, q.copy(), along(space, q, outward(body, q), 0.5 * space.tol)):
        assert body.exit(q, y, eps) is q and frozen_exit(body, q, y, eps)[0] is q


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
    them), or at one, equals the frozen Geodesic.point bit for bit."""
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    X, Y = draw_far(space, rng, m), draw_far(space, rng, m)
    geos = [FrozenGeodesic(space, x, y) for x, y in zip(X, Y)]
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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(PLANES))), st.integers(0, 2),
       st.integers(1, 30))
def test_angle_to_C_rows_match_angle_at(seed, which, kind, m):
    """angle_to_C over rows equals its one-row call and spaces.angle_at(q,
    q', project(q)) bit for bit, for q' on the outward normal, off it, and
    on the projection itself (angle 0)."""
    space = PLANES[which]
    rng = np.random.default_rng(seed)
    kinds = PLANE_BODIES[space.kind]
    body = draw_body(space, rng, kinds[kind % len(kinds)])
    Q = draw_far(space, rng, m)
    d = body.dist_rows(Q)
    assume(np.all(d > 1e-6))
    normal = rt.normal_flow(body, Q, rng.uniform(0.1, 2.0))
    off = draw_far(space, rng, m)
    assume(np.all(spaces.distance_rows(space, Q, off) > 1e-6))
    for QP in (normal, off, body.project_rows(Q)):
        got = rt.angle_to_C(body, Q, QP)
        assert np.array_equal(got, [spaces.angle_at(space, q, qp, body.project(q))
                                    for q, qp in zip(Q, QP)])
        assert np.array_equal(got, [rt.angle_to_C(body, q, qp) for q, qp in zip(Q, QP)])


# ---------------------------------------------------------------------------
# push targets over rows: each row has the bits of the one-row call and of
# the scalar tents and coning fold

PUSH_SCENES = {
    "euclidean_point": lambda: scenes.euclidean_point_scene(delta=0.05),
    "hyperbolic_axis": lambda: scenes.hyperbolic_axis_scene(period=1.0, delta=0.02),
    "euclidean_segment": lambda: scenes.euclidean_segment_scene(delta=0.05),
}


@functools.lru_cache(maxsize=None)
def push_retractor(name):
    """(scene, Retractor) of an order-1 push-off of a PUSH_SCENES scene."""
    scene = PUSH_SCENES[name]()
    grid = rt.build_boundary_grid(scene.window, scene.R, scene.action, scene.delta,
                                  (1 - scene.lam) * scene.delta_prime)
    return scene, rt.Retractor(rt.extend_to_pushoff(grid, scene.lam, 1, scene.delta_prime))


def frozen_push_target(retr, q):
    """The push target of q as the scalar path made it: all-pairs tents
    (allpairs_tents), the support's normalised weights, the chain transform
    per order, then the ascending-id coning fold of spaces.distance and
    geodesic_point calls.  Returns (support, weights, target, cell)."""
    vals = allpairs_tents(retr.grid.projector, q)
    support = tuple(np.flatnonzero(vals).tolist())
    w = vals[list(support)] / np.sum(vals[list(support)])
    cell = {v: float(x) for v, x in zip(support, w)}
    for vertex_of in stage_vertex_of(retr.pushoff.sub_result):
        cell = subdivision_coordinates(cell, vertex_of)
    items, space = sorted(cell.items()), retr.body.space
    acc, W = retr.pushoff.iota_n(items[0][0]), items[0][1]
    for v, wt in items[1:]:
        W += wt
        d = spaces.distance(space, acc, retr.pushoff.iota_n(v))
        if d > space.tol:
            acc = spaces.geodesic_point(space, acc, retr.pushoff.iota_n(v), d * wt / W)
    return support, w, acc, tuple(v for v, _ in items)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(PUSH_SCENES)), st.integers(1, 300))
def test_push_target_rows_match_one_row_calls(seed, name, m):
    """project_rows, push_targets and retract_rows equal, row by row, the
    one-row calls and the frozen scalar path, on level-set and interior
    queries; the window's ends reach translate elements in H^2."""
    scene, retr = push_retractor(name)
    window, body = scene.window, scene.body
    rng = np.random.default_rng(seed)
    ss = np.concatenate([[window.s_lo, window.s_hi], rng.uniform(window.s_lo, window.s_hi, m)])
    depth = np.where(rng.random(len(ss)) < 0.5, 0.0, retr.grid.delta / 4.0)
    Q = rt.normal_flow(body, window.points(ss), -depth)
    projector = retr.grid.projector
    ids, weights = projector.project_rows(Q)
    targets, cells = retr.push_targets(Q)
    r_rows, r_targets, r_cells = retr.retract_rows(Q)
    assert r_rows.shape == targets.shape == Q.shape and ids.shape == weights.shape
    assert np.array_equal(r_targets, targets) and np.array_equal(r_cells, cells)
    width = cells.shape[1]
    for q, ids_row, w_row, target, cell_row, r in zip(Q, ids, weights, targets, cells, r_rows):
        one_support, one_w = projector.project(q)
        k = len(one_support)
        # the row's support and weights, then copies of its first id of weight 0
        assert ids_row.tolist() == list(one_support) + [one_support[0]] * (ids.shape[1] - k)
        assert np.array_equal(w_row[:k], one_w) and not w_row[k:].any()
        support, w = tuple(ids_row[:k].tolist()), w_row[:k]
        one_target, one_cell = retr.push_target(q)
        # the row's cell, then copies of its first id up to the common width
        assert cell_row.tolist() == list(one_cell) + [one_cell[0]] * (width - len(one_cell))
        assert np.array_equal(target, one_target)
        ref_support, ref_w, ref_target, ref_cell = frozen_push_target(retr, q)
        assert support == ref_support and np.array_equal(w, ref_w)
        assert np.array_equal(target, ref_target) and one_cell == ref_cell
        one_r, one_r_target, one_r_cell = retr.retract(q)
        assert np.array_equal(r, one_r) and np.array_equal(target, one_r_target)
        assert one_cell == one_r_cell
    if name == "hyperbolic_axis":
        assert ids.max() >= len(projector.cover)


def test_project_rows_raises_on_an_uncovered_row():
    scene, retr = push_retractor("euclidean_point")
    Q = np.stack([scene.window.point(0.5), np.array([5.0, 0.0]), scene.window.point(1.0)])
    with pytest.raises(UncoveredPoint):
        retr.grid.projector.project_rows(Q)


def test_rows_of_zero_queries_keep_their_shapes():
    """push_targets and retract_rows of no rows give empty arrays of the
    point width and of one cell column."""
    _, retr = push_retractor("euclidean_point")
    Q = np.zeros((0, 2))
    assert [a.shape for a in retr.push_targets(Q)] == [(0, 2), (0, 1)]
    assert [a.shape for a in retr.retract_rows(Q)] == [(0, 2), (0, 2), (0, 1)]
