"""Complex validation, barycentric subdivision, rooms, vertex-map diameters."""

import itertools
import math

import numpy as np
import pytest

from barylab import simplicial, spaces
from barylab.errors import UnknownSimplex

E2 = spaces.ModelSpace.euclidean(2)


def labelled(space, labels):
    """The VertexMap sending each vertex id of the dict `labels` to its value."""
    return simplicial.VertexMap(space, list(labels), list(labels.values()))


def brute_force_subdivision(simplices):
    """Independent oracle: enumerate strict chains in the face lattice."""
    faces = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(sorted(s), k))
    chains = set()
    faces = sorted(faces, key=lambda f: (len(f), f))
    def extend(chain):
        chains.add(tuple(chain))
        for f in faces:
            if len(f) > len(chain[-1]) and set(chain[-1]) < set(f):
                extend(chain + [f])
    for f in faces:
        extend([f])
    return set(faces), chains


# Frozen reference: the tuple-and-set barycentric subdivision as it was
# computed before complexes were stored as arrays with face tables.


def reference_subdivision(complex_):
    """(vertex ids, simplices, sets, vertex_of, cofaces) of the barycentric
    subdivision, grown recursively along the coface lists of sorted tuples."""
    sets, vertex_of = {}, {}
    next_id = max(complex_.vertices, default=-1) + 1
    for s in sorted(complex_.simplices, key=lambda s: (len(s), s)):
        if len(s) == 1:
            vertex_of[s] = s[0]
        else:
            vertex_of[s] = next_id
            next_id += 1
        sets[vertex_of[s]] = s
    cofaces = {s: [] for s in complex_.simplices}
    for t in complex_.simplices:
        for k in range(1, len(t)):
            for s in itertools.combinations(t, k):
                if s in cofaces:
                    cofaces[s].append(t)
    new_simplices = set()

    def grow(chain_ids, last):
        new_simplices.add(chain_ids)
        for bigger in cofaces[last]:
            grow(chain_ids + (vertex_of[bigger],), bigger)

    for s in complex_.simplices:
        grow((vertex_of[s],), s)
    return set(vertex_of.values()), new_simplices, sets, vertex_of, cofaces


def coface_rows(complex_):
    """Every simplex's strict cofaces (sorted), read off the face tables."""
    simplices = [tuple(r) for F in complex_.faces for r in F.tolist()]  # gid order
    out = {J: [] for J in simplices}
    for table in complex_.face_tables:
        for row in table.tolist():
            for g in row[:-1]:
                out[simplices[g]].append(simplices[row[-1]])
    return {J: sorted(T) for J, T in out.items()}


def test_validate_examples():
    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    assert simplicial.validate(tri) == []
    broken = simplicial.SimplicialComplex(
        [0, 1, 2], [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)])
    msgs = simplicial.validate(broken)
    assert any("(0, 2)" in m for m in msgs)
    empty = simplicial.SimplicialComplex([], [])
    assert simplicial.validate(empty) == []


def test_subdivision_edge():
    edge = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    sub, prov = simplicial.barycentric_subdivision(edge)
    assert len(sub.vertices) == 3
    assert len(sub.edges) == 2
    mid = [v for v, J in prov.sets.items() if J == (0, 1)]
    assert len(mid) == 1
    assert (0, mid[0]) in sub.simplices and (1, mid[0]) in sub.simplices


def test_subdivision_triangle_counts_against_oracle():
    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    sub, prov = simplicial.barycentric_subdivision(tri)
    faces, chains = brute_force_subdivision([(0, 1, 2)])
    assert len(sub.vertices) == len(faces) == 7
    assert len(sub.edges) == sum(1 for c in chains if len(c) == 2) == 12
    assert len(sub.simplices_of_dim(2)) == sum(1 for c in chains if len(c) == 3) == 6
    # exact simplex sets match the oracle through provenance
    vertex_of = {J: v for v, J in prov.sets.items()}
    oracle = {tuple(sorted(vertex_of[J] for J in c)) for c in chains}
    assert oracle == sub.simplices
    # the inverse map, and every face's strict cofaces read off the tables
    assert prov.vertex_of == vertex_of
    assert coface_rows(tri) == {
        J: sorted(T for T in faces if set(J) < set(T)) for J in faces}
    # ids ascend along every chain, so a simplex's last vertex is its top face
    for c in chains:
        assert [vertex_of[J] for J in c] == sorted(vertex_of[J] for J in c)


def test_subdivision_zero_dimensional():
    pts = simplicial.SimplicialComplex.from_maximal([(0,), (5,)])
    sub, prov = simplicial.barycentric_subdivision(pts)
    assert sub.vertices == pts.vertices
    assert sub.simplices == pts.simplices


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_n_simplex_subdivision_counts(n):
    top = tuple(range(n + 1))
    cplx = simplicial.SimplicialComplex.from_maximal([top])
    sub, _ = simplicial.barycentric_subdivision(cplx)
    assert len(sub.vertices) == 2 ** (n + 1) - 1
    assert len(sub.simplices_of_dim(n)) == math.factorial(n + 1)
    assert simplicial.validate(sub) == []


def test_subdivision_edge_condition():
    """U_J and U_J' are adjacent iff one set contains the other."""
    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    sub, prov = simplicial.barycentric_subdivision(tri)
    for u, v in itertools.combinations(sorted(sub.vertices), 2):
        Ju, Jv = set(prov.of(u)), set(prov.of(v))
        expected = Ju < Jv or Jv < Ju
        assert ((u, v) in sub.simplices) == expected


def test_room_examples():
    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    r = simplicial.room(tri, (0, 1, 2))
    assert r.simplices == tri.simplices

    two = simplicial.SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
    r = simplicial.room(two, (1, 2))
    assert r.vertices == {0, 1, 2, 3}
    assert (0, 1, 2) in r.simplices and (1, 2, 3) in r.simplices

    path = simplicial.SimplicialComplex.from_maximal([(0, 1), (1, 2)])
    r = simplicial.room(path, (1,))
    assert r.vertices == {0, 1, 2}
    assert (0, 1) in r.simplices and (1, 2) in r.simplices

    with pytest.raises(UnknownSimplex):
        simplicial.room(path, (0, 2))


def test_map_diameter_examples():
    edge = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    iota = labelled(E2, {0: np.zeros(2), 1: np.array([1.0, 0.0])})
    assert abs(simplicial.map_diameter(edge, iota) - 1.0) < 1e-12

    same = labelled(E2, {0: np.ones(2), 1: np.ones(2)})
    assert simplicial.map_diameter(edge, same) == 0.0

    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    iota = labelled(E2, {0: np.zeros(2), 1: np.array([1.0, 0.0]),
                         2: np.array([0.0, 2.0])})
    assert abs(simplicial.map_diameter(tri, iota) - math.sqrt(5)) < 1e-12


def map_diameter_all_simplices(complex_, iota):
    """Reference evaluation over every simplex (oracle for the edge shortcut)."""
    iota.check_total(complex_)
    best = 0.0
    for s in complex_.simplices:
        best = max(best, spaces.pairwise_diameter(iota.target, [iota(v) for v in s]))
    return best


def random_label(space, rng):
    if space.kind == spaces.FINITE:
        return int(rng.integers(0, space.dim))
    if space.kind == spaces.CIRCLE:
        return spaces.circle_point(space, rng.uniform(0.0, 2.0 * math.pi))
    if space.kind == spaces.HYPERBOLOID:
        s, th = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cosh(s), math.sinh(s) * math.cos(th), math.sinh(s) * math.sin(th)])
    return rng.uniform(-1, 1, size=space.dim)


MAP_TARGETS = [E2, spaces.ModelSpace.hyperboloid(2), spaces.ModelSpace.circle(2.0),
               spaces.ModelSpace.finite(np.abs(np.subtract.outer(np.arange(7.0),
                                                                  np.arange(7.0))) ** 0.5)]


def test_map_diameter_edges_equal_all_simplices():
    """The one-pass edge diameter equals a scalar distance loop over the
    edges bit for bit, and the diameter over every simplex within 1e-12, in
    R^2, H^2, the circle and a finite space."""
    rng = np.random.default_rng(3)
    for space in MAP_TARGETS * 20:
        n = int(rng.integers(4, 8))
        tops = [tuple(sorted(rng.choice(n, size=3, replace=False)))
                for _ in range(4)]
        cplx = simplicial.SimplicialComplex.from_maximal(tops)
        iota = labelled(space, {v: random_label(space, rng) for v in cplx.vertices})
        d_edges = simplicial.map_diameter(cplx, iota)
        assert d_edges == max(spaces.distance(space, iota(u), iota(v)) for u, v in cplx.faces[1])
        d_all = map_diameter_all_simplices(cplx, iota)
        assert abs(d_edges - d_all) < 1e-12


def test_provenance_compose():
    edge = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    s1, p1 = simplicial.barycentric_subdivision(edge)
    s2, p2 = simplicial.barycentric_subdivision(s1)
    total = p2.compose(p1)
    # every second-subdivision vertex resolves to a face of the original edge
    for v in s2.vertices:
        assert set(total.of(v)) <= {0, 1}
    # the deepest vertex barycenters the whole edge
    mids = [v for v in s2.vertices if total.of(v) == (0, 1)]
    assert len(mids) == 3  # first midpoint plus two second-level midpoints


def test_room_image_diameter_at_most_twice_map_diameter():
    """Any two simplices of a room share the central simplex's vertices, so
    the room's image diameter is at most 2 diam(iota)."""
    rng = np.random.default_rng(31)
    for _ in range(15):
        tops = [tuple(sorted(rng.choice(8, size=3, replace=False)))
                for _ in range(5)]
        cplx = simplicial.SimplicialComplex.from_maximal(tops)
        iota = labelled(
            E2, {v: rng.uniform(-1, 1, size=2) for v in cplx.vertices})
        d = simplicial.map_diameter(cplx, iota)
        for s in cplx.simplices:
            rm = simplicial.room(cplx, s)
            pts = [iota(v) for v in rm.vertices]
            assert spaces.pairwise_diameter(E2, pts) <= 2 * d + 1e-12


def test_complex_json_roundtrip():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
    back = simplicial.SimplicialComplex.from_json(cplx.to_json())
    assert back.simplices == cplx.simplices and back.vertices == cplx.vertices
    iota = labelled(E2, {v: np.array([float(v), 0.0])
                         for v in cplx.vertices})
    back_map = simplicial.VertexMap.from_json(E2, iota.to_json())
    for v in cplx.vertices:
        assert np.allclose(back_map(v), iota(v))
