"""Property tests (Hypothesis): certificates are invariant under isometries,
subdivision provenance read off chains matches the union-based search, the
array subdivision matches the frozen tuple one, and the retraction's
crossings match closed forms."""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from barylab import barycenters as bc  # noqa: E402
from barylab import retraction as rt  # noqa: E402
from barylab import simplicial, spaces, subdivision as sd  # noqa: E402
from test_simplicial import coface_rows, reference_subdivision  # noqa: E402
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


def random_complex(rng, n_lo, n_hi, top_max):
    n = int(rng.integers(n_lo, n_hi))
    tops = [tuple(rng.choice(n, size=int(rng.integers(1, top_max + 1)),
                             replace=False).tolist())
            for _ in range(int(rng.integers(1, 4)))]
    return simplicial.SimplicialComplex.from_maximal(tops)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subdivision_provenance_matches_union(seed):
    rng = np.random.default_rng(seed)
    cplx = random_complex(rng, 3, 7, 3)
    iota = simplicial.VertexMap(spaces.ModelSpace.euclidean(2),
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
    iota = simplicial.VertexMap(space, {v: 0.3 * draw_point(space, rng)
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
        cplx, iota = sub, simplicial.VertexMap(space, labels)
    assert res.complex.simplices == cplx.simplices
    assert set(res.iota.assignment) == set(labels)
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
