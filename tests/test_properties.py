"""Property tests (Hypothesis): certificates are invariant under isometries,
and subdivision provenance read off chains matches the union-based search."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from barylab import barycenters as bc  # noqa: E402
from barylab import simplicial, spaces, subdivision as sd  # noqa: E402

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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subdivision_provenance_matches_union(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    tops = [tuple(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(int(rng.integers(1, 4)))]
    cplx = simplicial.SimplicialComplex.from_maximal(tops)
    iota = simplicial.VertexMap(spaces.ModelSpace.euclidean(2),
                                {v: rng.uniform(-1.0, 1.0, 2) for v in cplx.vertices})
    res = sd.iterate_subdivision(cplx, iota, math.sqrt(3) / 2, int(rng.integers(1, 4)))
    total = {v: (v,) for v in cplx.vertices}
    for st_rec, vertex_of in zip(res.record.stages, res.stage_vertex_of):
        # a stage's provenance maps its new ids back to its parent's simplices
        parent = simplicial.SimplicialComplex([], vertex_of)
        prov = simplicial.SubdivisionProvenance({v: J for J, v in vertex_of.items()})
        for e, _, lcs, _ in st_rec.sub_rows:
            assert lcs == least_containing_simplex(parent, prov, e)
        total = union_compose(prov.sets, total)
    assert [row[1] for row in res.record.displacement_rows] == [
        total[v] for v in sorted(res.complex.vertices)]
