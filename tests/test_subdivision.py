"""Lambda-shrinking subdivisions: construction, diameter bounds, equivariance."""

import itertools
import math
import time

import numpy as np
import pytest

from barylab import simplicial, spaces, subdivision as sd
from barylab.errors import NoBarycenter, SubdivisionBudget

E1 = spaces.ModelSpace.euclidean(1)
E2 = spaces.ModelSpace.euclidean(2)
C1 = spaces.ModelSpace.circle(1.0)
H2 = spaces.ModelSpace.hyperboloid(2)

SQ32 = math.sqrt(3) / 2


def unit_edge():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    iota = simplicial.VertexMap(E1, {0: np.array([0.0]), 1: np.array([1.0])})
    return cplx, iota


def equilateral():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    iota = simplicial.VertexMap(E2, {0: np.zeros(2), 1: np.array([1.0, 0.0]),
                                     2: np.array([0.5, SQ32])})
    return cplx, iota


def test_edge_single_step():
    cplx, iota = unit_edge()
    sub, iota1, record, prov, _ = sd.shrinking_subdivide(cplx, iota, 0.5)
    mid = next(v for v, J in prov.sets.items() if J == (0, 1))
    assert abs(iota1(mid)[0] - 0.5) < 1e-12
    for after, before in zip(record.after, record.before):
        assert after <= 0.5 * before + 1e-12


def test_triangle_single_step_six_subtriangles():
    cplx, iota = equilateral()
    sub, iota1, record, prov, _ = sd.shrinking_subdivide(cplx, iota, SQ32)
    tris = sub.simplices_of_dim(2)
    assert len(tris) == 6
    # exhaustive diameter check of the six images
    for t in tris:
        diam = spaces.pairwise_diameter(E2, [iota1(v) for v in t])
        assert diam <= SQ32 + 1e-9


def test_zero_dimensional_complex():
    cplx = simplicial.SimplicialComplex.from_maximal([(0,), (1,)])
    iota = simplicial.VertexMap(E1, {0: np.array([0.0]), 1: np.array([5.0])})
    sub, iota1, record, _, _ = sd.shrinking_subdivide(cplx, iota, 0.5)
    assert sub.simplices == cplx.simplices
    assert record.edges.shape == (0, 2) and len(record.after) == 0


def test_iterate_edge_order3():
    cplx, iota = unit_edge()
    res = sd.iterate_subdivision(cplx, iota, 0.5, 3)
    assert len(res.complex.vertices) == 9
    xs = sorted(float(res.iota(v)[0]) for v in res.complex.vertices)
    assert np.allclose(xs, np.linspace(0, 1, 9), atol=1e-12)
    assert max(res.record.final_diams) <= 0.125 + 1e-9


def test_iterate_order_zero_identity():
    cplx, iota = unit_edge()
    res = sd.iterate_subdivision(cplx, iota, 0.5, 0)
    assert res.complex.simplices == cplx.simplices
    assert res.record.stages == []
    ver = sd.verify_shrinking(res.record)
    assert ver.ok


def test_verify_shrinking_edge_bounds():
    cplx, iota = unit_edge()
    res = sd.iterate_subdivision(cplx, iota, 0.5, 3)
    ver = sd.verify_shrinking(res.record, tol=1e-9)
    assert ver.ok
    assert abs(ver.order_bound - 0.125) < 1e-12
    assert abs(ver.containment_bound - 2.0) < 1e-12
    # displacement realized within its bound for every vertex
    for sig_diam, max_d in zip(res.record.sigma_diams, res.record.max_dists):
        assert max_d <= sig_diam / (1 - 0.5) + 1e-9


def test_verify_shrinking_triangle_bounds():
    cplx, iota = equilateral()
    res = sd.iterate_subdivision(cplx, iota, SQ32, 2)
    ver = sd.verify_shrinking(res.record, tol=1e-9)
    assert ver.ok
    assert abs(ver.order_bound - 0.75) < 1e-12  # (sqrt3/2)^2 * diam 1
    assert abs(ver.displacement_bound_factor - 1 / (1 - SQ32)) < 1e-9
    assert ver.max_final_diam <= 0.75 + 1e-9


def test_all_vertices_one_point():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    p = np.array([2.0, -1.0])
    iota = simplicial.VertexMap(E2, {v: p for v in cplx.vertices})
    res = sd.iterate_subdivision(cplx, iota, 0.5, 2)
    ver = sd.verify_shrinking(res.record)
    assert ver.ok
    assert ver.order_bound == 0.0
    assert ver.max_final_diam == 0.0


def test_condition_two_recorded_every_stage():
    cplx, iota = equilateral()
    res = sd.iterate_subdivision(cplx, iota, SQ32, 2)
    for st in res.record.stages:
        for diam_inside, diam_before in zip(st.inside, st.parent_diams):
            assert diam_inside <= diam_before + 1e-8


def test_no_barycenter_abort_carries_certificate():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    d = math.sqrt(3) * (1 - 1e-3)
    half = math.asin(d / 2)
    iota = simplicial.VertexMap(C1, {0: spaces.circle_point(C1, -half),
                                     1: spaces.circle_point(C1, half)})
    with pytest.raises(NoBarycenter) as exc:
        sd.shrinking_subdivide(cplx, iota, 0.5)
    assert exc.value.certificate is not None
    assert exc.value.certificate.status in ("not_found_below", "indeterminate")


def test_equivariant_propagation_exact():
    """Propagated labels are bitwise the isometry image of their orbit rep."""
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3)])
    iota = simplicial.VertexMap(
        E1, {v: np.array([float(v)]) for v in range(4)})
    h = spaces.Isometry.euclidean_translation([2.0])
    equiv = sd.EquivariantStructure([(h, {0: 2, 1: 3}),
                                     (h.inverse(), {2: 0, 3: 1})])
    sub, iota1, record, prov, _ = sd.shrinking_subdivide(cplx, iota, 0.5,
                                                         equivariance=equiv)
    v01 = next(v for v, J in prov.sets.items() if J == (0, 1))
    v23 = next(v for v, J in prov.sets.items() if J == (2, 3))
    assert np.array_equal(iota1(v23), h.apply(iota1(v01)))


@pytest.mark.parametrize("shift", [-2.0, 2.0])
def test_partial_action_without_inverse(shift):
    """rep(v) is the smallest id with a forward path to v.  Translating by
    -2 alone ({2: 0, 3: 1}) lifts (2, 3) onto (0, 1), so each is its own
    representative and both are solved; by +2 alone ({0: 2, 1: 3}) the
    label of (2, 3) is the translate of the label of (0, 1)."""
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3)])
    iota = simplicial.VertexMap(E1, {v: np.array([float(v)]) for v in range(4)})
    h = spaces.Isometry.euclidean_translation([shift])
    vmap = {2: 0, 3: 1} if shift < 0 else {0: 2, 1: 3}
    sub, iota1, _, prov, lifted = sd.shrinking_subdivide(
        cplx, iota, 0.5, equivariance=sd.EquivariantStructure([(h, vmap)]))
    v01, v23 = prov.vertex_of[(0, 1)], prov.vertex_of[(2, 3)]
    src, dst = (v23, v01) if shift < 0 else (v01, v23)
    assert lifted.maps[0][1][src] == dst  # vertex rows are the ids here
    assert iota1(v01).tolist() == [0.5] and iota1(v23).tolist() == [2.5]
    rep, _, _ = sd._orbits(lifted.maps)
    assert rep[v01] == v01 and rep[v23] == (v23 if shift < 0 else v01)


def test_orbit_rep_reaches_every_member():
    """Rows 5 and 6 are images of 7 only: each is its own representative,
    where taking the smallest member of 7's forward reach (5) left 7
    without a path from its representative."""
    h = spaces.Isometry.euclidean_translation([1.0])
    g = spaces.Isometry.euclidean_translation([2.0])
    maps = [(h, np.array([-1] * 7 + [5])), (g, np.array([-1] * 7 + [6]))]
    rep, word, isos = sd._orbits(maps)
    assert rep[5:].tolist() == [5, 6, 7] and word[5:].tolist() == [-1, -1, -1]
    # a cycle 5 -> 6 -> 7 -> 5 under h and its inverse: one orbit, rep 5,
    # paths by BFS from 5 in row order
    maps = [(h, np.array([-1] * 5 + [6, 7, 5])), (h.inverse(), np.array([-1] * 5 + [7, 5, 6]))]
    rep, word, isos = sd._orbits(maps)
    assert rep[5:].tolist() == [5, 5, 5]
    assert isos[word[6]] is h and isos[word[7]] is maps[1][0]


def test_budget_refuses_before_any_stage(monkeypatch):
    cplx, iota = equilateral()
    t0 = time.monotonic()
    with pytest.raises(SubdivisionBudget, match="stage 8"):
        sd.iterate_subdivision(cplx, iota, SQ32, 12)
    assert time.monotonic() - t0 < 1.0
    # a triangle's subdivision has 7 + 12 + 6 = 25 simplices
    monkeypatch.setattr(simplicial, "SUBDIVISION_BUDGET", 24)
    with pytest.raises(SubdivisionBudget, match="25 simplices"):
        sd.shrinking_subdivide(cplx, iota, SQ32)
    monkeypatch.setattr(simplicial, "SUBDIVISION_BUDGET", 25)
    assert len(simplicial.barycentric_subdivision(cplx)[0].simplices) == 25


def test_determinism():
    cplx, iota = equilateral()
    a = sd.iterate_subdivision(cplx, iota, SQ32, 2)
    b = sd.iterate_subdivision(cplx, iota, SQ32, 2)
    assert a.complex.simplices == b.complex.simplices
    for v in a.complex.vertices:
        assert np.array_equal(a.iota(v), b.iota(v))
    assert a.record.to_csv() == b.record.to_csv()


def test_record_csv_schema():
    cplx, iota = unit_edge()
    res = sd.iterate_subdivision(cplx, iota, 0.5, 1)
    csv = res.record.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "# barylab shrink record v1"
    assert lines[1] == "stage,simplex,diam_before,diam_after,bound,slack"
    assert len(lines) == 4  # two sub-edges
    for row in lines[2:]:
        stage, ids, before, after, bound, slack = row.split(",")
        assert float(slack) >= -1e-12


def test_subdivision_coordinates_position_preserved():
    """The chain transform expresses the same point: in Euclidean space the
    geodesic cone is the exact convex combination."""
    from barylab.retraction import subdivision_coordinates

    cplx, iota = equilateral()
    sub, iota1, _, prov, _ = sd.shrinking_subdivide(cplx, iota, SQ32)
    vertex_of = {J: v for v, J in prov.sets.items()}
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.dirichlet([1.5, 1.5, 1.5])
        weights = {0: w[0], 1: w[1], 2: w[2]}
        target = sum(w[i] * iota(i) for i in range(3))
        out = subdivision_coordinates(weights, vertex_of)
        assert abs(sum(out.values()) - 1.0) < 1e-12
        # chain members must span a simplex of the subdivision
        assert tuple(sorted(out)) in sub.simplices
        # position: weights recombine the subdivision vertices' centroids
        pos = np.zeros(2)
        for v, mu in out.items():
            J = prov.of(v)
            pos += mu * np.mean([iota(j) for j in J], axis=0)
        assert np.allclose(pos, target, atol=1e-12)


# ---------------------------------------------------------------------------
# level batching: labels bit-identical to a per-simplex _solve_label loop
#
# Frozen reference: the incidence star, the orbit search over provenance sets
# and the lift of the action, as subdivision.py computed them before it read
# stars off the coface table and orbits off the lifted maps.


def _incidence(complex_):
    inc = {v: [] for v in complex_.vertices}
    for s in complex_.simplices:
        for v in s:
            inc[v].append(s)
    return inc


def _star(inc, J):
    out = set(inc[J[0]])
    for v in J[1:]:
        out &= set(inc[v])
    return out


def _orbit_assignments(new_sets, equivariance):
    """BFS orbits of provenance sets under the partial action.

    Returns dict J -> (rep_J, isometry mapping rep labels to J's labels),
    with rep the lexicographically smallest member reachable from J.
    """
    set_index = {J: None for J in new_sets}
    # build directed edges J -> (image, h)
    edges = {J: [] for J in new_sets}
    for h, vmap in equivariance.maps:
        for J in new_sets:
            if all(v in vmap for v in J):
                img = tuple(sorted(vmap[v] for v in J))
                if img in set_index:
                    edges[J].append((img, h))
    # connected components, deterministic BFS from lex-min roots
    assigned = {}
    for root in sorted(new_sets, key=lambda J: (len(J), J)):
        if root in assigned:
            continue
        # find the component and its lex-min member first
        comp = {root}
        stack = [root]
        while stack:
            cur = stack.pop()
            for img, _ in edges[cur]:
                if img not in comp:
                    comp.add(img)
                    stack.append(img)
        rep = min(comp, key=lambda J: (len(J), J))
        ident_paths = {rep: None}  # isometry carrying rep to J
        frontier = [rep]
        while frontier:
            nxt = []
            for cur in sorted(frontier):
                for img, h in sorted(edges[cur], key=lambda e: e[0]):
                    if img not in ident_paths:
                        prev = ident_paths[cur]
                        ident_paths[img] = h if prev is None else h.compose(prev)
                        nxt.append(img)
            frontier = nxt
        for J in comp:
            assigned[J] = (rep, ident_paths.get(J))
    return assigned


def _lift_equivariance(equiv, prov):
    """Lift partial vertex maps through one barycentric subdivision."""
    vertex_of = {J: v for v, J in prov.sets.items()}
    lifted = []
    for h, vmap in equiv.maps:
        new_map = {}
        for J, v in vertex_of.items():
            if all(u in vmap for u in J):
                img = tuple(sorted(vmap[u] for u in J))
                if img in vertex_of:
                    new_map[v] = vertex_of[img]
        lifted.append((h, new_map))
    return sd.EquivariantStructure(lifted)


def reference_labels(cplx, iota, lam, equivariance=None):
    """Per-simplex labelling: one _solve_label call per new vertex J, in
    order of increasing |J|, P the labels of J's proper faces and Q the rest
    of its room, orbit members propagated from their representative."""
    space = iota.target
    _, prov = simplicial.barycentric_subdivision(cplx)
    vertex_of = {J: v for v, J in prov.sets.items()}
    labels = dict(iota.assignment)
    new_sets = sorted((J for J in vertex_of if len(J) >= 2), key=lambda J: (len(J), J))
    inc = _incidence(cplx)
    orbit = (_orbit_assignments(new_sets, equivariance)
             if equivariance is not None else None)
    for J in new_sets:
        if orbit is not None and orbit[J][0] != J:
            rep, h = orbit[J]
            labels[vertex_of[J]] = h.apply(labels[vertex_of[rep]])
            continue
        faces = [vertex_of[c] for k in range(1, len(J))
                 for c in itertools.combinations(J, k)]
        room = {vertex_of[c] for T in _star(inc, J) for k in range(1, len(J))
                for c in itertools.combinations(T, k)}
        P = [labels[v] for v in faces]
        Q = [labels[v] for v in sorted(room - set(faces))]
        labels[vertex_of[J]] = sd._solve_label(space, P, Q, lam)
    return labels


def assert_same_labels(cplx, iota, lam, equivariance=None):
    _, iota1, *_ = sd.shrinking_subdivide(cplx, iota, lam, equivariance=equivariance)
    want = reference_labels(cplx, iota, lam, equivariance)
    assert set(iota1.assignment) == set(want)
    for v, b in want.items():
        assert np.array_equal(iota1(v), b), v


def strip(n):
    """Triangle strip: bottom vertex 2i, top vertex 2i+1."""
    tris = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(n)]
    tris += [(2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(n - 1)]
    return simplicial.SimplicialComplex.from_maximal(tris)


def hyp_label(x, y):
    """Exponential map at the basepoint of H^2, applied to (x, y)."""
    r = math.hypot(x, y)
    if r == 0.0:
        return np.array([1.0, 0.0, 0.0])
    return np.array([math.cosh(r), math.sinh(r) * x / r, math.sinh(r) * y / r])


def jittered_strip(space, n, seed, scale):
    rng = np.random.default_rng(seed)
    cplx = strip(n)
    labels = {}
    for v in cplx.vertices:
        x, y = scale * (v // 2 + 0.5 * (v % 2)), scale * (v % 2)
        x, y = x + rng.uniform(-0.1, 0.1) * scale, y + rng.uniform(-0.1, 0.1) * scale
        labels[v] = hyp_label(x, y) if space.kind == spaces.HYPERBOLOID \
            else np.array([x, y])
    return cplx, simplicial.VertexMap(space, labels)


@pytest.mark.parametrize("space", [E2, H2], ids=["R2", "H2"])
def test_batched_labels_bit_identical(space):
    cplx, iota = jittered_strip(space, 6, seed=3, scale=0.2)
    assert_same_labels(cplx, iota, SQ32)
    # the next stage labels the subdivided complex, with longer rows
    sub, iota1, *_ = sd.shrinking_subdivide(cplx, iota, SQ32)
    assert_same_labels(sub, iota1, SQ32)


def boost_strip(space, n=6):
    """Strip whose vertex v + 2 is the image of v under one boost (H^2) or
    translation (R^2), with that action and its inverse as partial maps."""
    cplx = strip(n)
    if space.kind == spaces.HYPERBOLOID:
        h = spaces.Isometry.hyperbolic_boost(0.3)
        base = {0: hyp_label(0.0, 0.0), 1: hyp_label(0.15, 0.3)}
    else:
        h = spaces.Isometry.euclidean_translation([0.3, 0.0])
        base = {0: np.zeros(2), 1: np.array([0.15, 0.3])}
    labels = {}
    for v in cplx.vertices:
        p = base[v % 2]
        for _ in range(v // 2):
            p = h.apply(p)
        labels[v] = p
    iota = simplicial.VertexMap(space, labels)
    last = max(cplx.vertices)
    equiv = sd.EquivariantStructure([
        (h, {v: v + 2 for v in cplx.vertices if v + 2 <= last}),
        (h.inverse(), {v: v - 2 for v in cplx.vertices if v >= 2})])
    return cplx, iota, equiv


@pytest.mark.parametrize("space", [E2, H2], ids=["R2", "H2"])
def test_batched_labels_bit_identical_equivariant(space):
    cplx, iota, equiv = boost_strip(space)
    assert_same_labels(cplx, iota, SQ32, equiv)


@pytest.mark.parametrize("space", [E2, H2], ids=["R2", "H2"])
def test_iterated_equivariant_labels_bit_identical(space):
    """Two stages reuse the action each stage lifts; the reference labels
    every stage per simplex and lifts the action between stages."""
    cplx, iota, equiv = boost_strip(space)
    res = sd.iterate_subdivision(cplx, iota, SQ32, 2, equivariance=equiv)
    for _ in range(2):
        labels = reference_labels(cplx, iota, SQ32, equiv)
        cplx, prov = simplicial.barycentric_subdivision(cplx)
        equiv = _lift_equivariance(equiv, prov)
        iota = simplicial.VertexMap(space, labels)
    assert res.complex.simplices == cplx.simplices
    assert set(res.iota.assignment) == set(labels)
    for v, b in labels.items():
        assert np.array_equal(res.iota(v), b), v


def test_batched_labels_zero_dimensional():
    cplx = simplicial.SimplicialComplex.from_maximal([(0,), (1,)])
    iota = simplicial.VertexMap(E1, {0: np.array([0.0]), 1: np.array([5.0])})
    assert_same_labels(cplx, iota, 0.5)
    res = sd.iterate_subdivision(cplx, iota, 0.5, 2)
    assert len(res.record.final_diams) == 0
    assert res.record.max_dists.tolist() == res.record.min_dists.tolist() == [0.0] * 2


def test_batched_labels_circle():
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
    iota = simplicial.VertexMap(C1, {v: spaces.circle_point(C1, 0.1 * v)
                                     for v in range(4)})
    assert_same_labels(cplx, iota, SQ32)


def test_batched_labels_finite():
    # five points on a line at unit spacing
    F = spaces.ModelSpace.finite([[abs(i - j) for j in range(5)] for i in range(5)])
    cplx = simplicial.SimplicialComplex.from_maximal([(0, 1), (1, 2)])
    iota = simplicial.VertexMap(F, {0: 0, 1: 2, 2: 4})
    _, iota1, _, prov, _ = sd.shrinking_subdivide(cplx, iota, 0.5)
    assert_same_labels(cplx, iota, 0.5)
    labels = {prov.of(v): iota1(v) for v in iota1.assignment}
    assert labels[(0, 1)] == 1 and labels[(1, 2)] == 3
    assert all(type(p) is int for p in iota1.assignment.values())


def full_matrix_diameters(space, table, rows):
    """_diameters as it was: the max over each row's full m x m matrix."""
    pts = table[rows]
    M = spaces.paired_distances(space, pts[:, :, None], pts[:, None])
    return M.reshape(len(pts), -1).max(axis=1)


@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", ["R2", "H2", "circle", "finite"])
def test_diameters_over_pairs_match_full_matrix(kind, m):
    """The pairs i < j give the full matrix's bits: the kernels are symmetric."""
    rng = np.random.default_rng(m)
    xy = rng.uniform(-1.0, 1.0, (20, 2))
    space, table = {
        "R2": (E2, xy),
        "H2": (H2, np.array([hyp_label(x, y) for x, y in xy])),
        "circle": (C1, np.array([spaces.circle_point(C1, a) for a in 3.0 * xy[:, 0]])),
        "finite": (spaces.ModelSpace.finite(np.abs(xy[:, :1] - xy[:, 0])), np.arange(20)),
    }[kind]
    rows = rng.integers(0, 20, (3 * sd.BLOCK_ROWS // 2, m))
    assert np.array_equal(sd._diameters(space, table, rows),
                          full_matrix_diameters(space, table, rows))


def test_rule_rejected_row_reaches_grid_solver(monkeypatch):
    """Below sqrt(3)/2 the triangle's midpoint label fails the batched
    lambda check; that row, and only it, goes to the grid solver."""
    from barylab import barycenters

    calls = []
    solve = barycenters.solve_barycenter

    def counted(prob, lam, **kwargs):
        calls.append(len(prob.P))
        return solve(prob, lam, **kwargs)

    monkeypatch.setattr(barycenters, "solve_barycenter", counted)
    cplx, iota = equilateral()
    _, iota1, _, prov, _ = sd.shrinking_subdivide(cplx, iota, 0.6)
    assert calls == [6]
    center = next(v for v, J in prov.sets.items() if J == (0, 1, 2))
    assert barycenters.lambda_of(
        E2, iota1(center), [iota(0), iota(1), iota(2)]) <= 0.6 + 1e-9
    calls.clear()
    assert_same_labels(cplx, iota, 0.6)
    assert calls == [6, 6]  # the batched pass, then the reference
