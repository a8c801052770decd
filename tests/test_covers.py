"""Ball covers, adjacency under group actions, nerves, and the nerve projection."""

import itertools
import math
import re
import time

import numpy as np
import pytest

from barylab import barycenters as bc, covers, simplicial, spaces
from barylab.errors import (
    BudgetExceeded,
    EnumerationBound,
    IndeterminateIntersection,
    PipelineInconsistency,
    PreconditionError,
    UncoveredPoint,
)

E1 = spaces.ModelSpace.euclidean(1)
E2 = spaces.ModelSpace.euclidean(2)
E3 = spaces.ModelSpace.euclidean(3)


def line_cover(centers, radius, space=E1):
    return covers.BallCover(space, [(np.array([c], float) if space is E1 else
                                     np.asarray(c, float), radius) for c in centers])


def trivial_action(space):
    return covers.GroupAction(space, [], word_length=0)


def words(action):
    """Word length of each group element, indexed like action.elements()."""
    return np.array([w for _, w in action.elements()])


def translate_labels(adj, g):
    """Per element i of adj, the element of the same base ball moved by g
    after i's group element, or None where adj has none; each product is
    found by its key among action.elements()."""
    elements = [h for h, _ in adj.action.elements()]
    index_of = {h.key(): k for k, h in enumerate(elements)}
    slots = list(zip(adj.group.tolist(), adj.base.tolist()))
    label_of = {slot: i for i, slot in enumerate(slots)}
    return [label_of.get((index_of.get(g.compose(elements[k]).key()), b)) for k, b in slots]


def test_nerve_single_and_disjoint():
    cov = line_cover([0.0], 1.0)
    nerve = covers.build_nerve(cov)
    assert nerve.simplices == {(0,)}
    cov = line_cover([0.0, 5.0], 1.0)
    nerve = covers.build_nerve(cov)
    assert nerve.simplices == {(0,), (1,)}


def test_nerve_triple_intersection_oracle():
    """Minimax-center oracle decides the 2-simplex: circumradius vs ball radius."""
    def circumradius(a, b, c):
        a, b, c = map(np.asarray, (a, b, c))
        la, lb, lc = (np.linalg.norm(b - c), np.linalg.norm(a - c),
                      np.linalg.norm(a - b))
        u, v = b - a, c - a
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        return la * lb * lc / (4 * area)

    pts_with_triple = [(0.0, 0.0), (1.5, 0.0), (0.75, 1.3)]
    pts_pairwise_only = [(0.0, 0.0), (1.5, 0.0), (0.75, 1.8)]
    assert circumradius(*pts_with_triple) < 1.0
    assert circumradius(*pts_pairwise_only) > 1.0

    for pts, expect_triangle in [(pts_with_triple, True),
                                 (pts_pairwise_only, False)]:
        cov = covers.BallCover(E2, [(np.asarray(p), 1.0) for p in pts])
        nerve = covers.build_nerve(cov)
        assert nerve.counts[1] == 3
        assert ((0, 1, 2) in nerve.simplices) == expect_triangle


def test_nerve_indeterminate_touching_balls():
    cov = line_cover([0.0, 2.0], 1.0)  # open balls touch exactly
    with pytest.raises(IndeterminateIntersection):
        covers.build_nerve(cov)


def test_nerve_indeterminate_clique():
    """Three unit balls centred on the unit circle 120 degrees apart meet
    pairwise, and all three only at the origin: the triangle's margin is 0."""
    centers = [np.array([math.cos(a), math.sin(a)]) for a in (0.0, 2 * math.pi / 3,
                                                             4 * math.pi / 3)]
    cov = covers.BallCover(E2, [(c, 1.0) for c in centers])
    with pytest.raises(IndeterminateIntersection,
                       match=r"^balls \(0, 1, 2\) margin 0\.00e\+00 within tolerance$"):
        covers.build_nerve(cov)


def test_cover_requires_window_coverage():
    """A point in no ball is refused where it is projected, whichever row it is."""
    proj = covers.NerveProjector(line_cover([0.0], 1.0), trivial_action(E1))
    with pytest.raises(UncoveredPoint):
        proj.project_rows(np.array([[0.5], [5.0], [-0.5]]))


def test_adjacency_examples():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=3)
    adj = covers.adjacency(cov, act)
    extra = sorted(adj.centers[len(cov):, 0].tolist())
    assert extra == [-1.0, 10.0]

    far = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([100.0])],
                             word_length=3)
    adj = covers.adjacency(cov, far)
    assert len(adj) == len(cov)

    adj = covers.adjacency(cov, trivial_action(E1))
    assert len(adj) == len(cov)


def test_adjacency_translates_each_element_once(monkeypatch):
    """adjacency moves the cover by each nontrivial group element once, in
    enumeration order: the translates at the word-length bound give both
    the enumeration check and their meets."""
    calls = []
    translate = covers._translate_distances

    def counted(cover, g, reach):
        calls.append(g.key())
        return translate(cover, g, reach)

    monkeypatch.setattr(covers, "_translate_distances", counted)
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=3)
    assert len(covers.adjacency(cov, act)) == len(cov) + 2
    assert calls == [g.key() for g, _ in act.nontrivial()] and len(calls) == 6


def test_word_length_zero_with_generators_hits_the_bound():
    """With generators and word length 0 the identity sits at the bound, and
    it always reaches the cover."""
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=0)
    with pytest.raises(EnumerationBound, match="^adjacency: translate at word length 0 "
                       "still reaches the cover; increase word_length$"):
        covers.adjacency(line_cover([0.0], 1.0), act)


def test_adjacency_contains_base():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=2)
    adj = covers.adjacency(cov, act)
    assert adj.base[:len(cov)].tolist() == list(range(10))
    assert np.all(words(act)[adj.group[:len(cov)]] == 0)


def test_enumeration_bound_error():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([2.0])],
                             word_length=1)
    with pytest.raises(EnumerationBound):
        covers.adjacency(cov, act)


def test_H_fine_nerve_has_no_orbit_edges():
    """Translation by 3 moves every ball of radius 0.6 off itself (H-fine)."""
    cov = line_cover([0.0, 1.0, 2.0], 0.6)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([3.0])],
                             word_length=2)
    proj = covers.NerveProjector(cov, act)
    # exhaustively: no edge joins an element and one of its own translates
    base, word = proj.adj.base, words(act)[proj.adj.group]
    for (u, v) in proj.nerve.faces[1].tolist():
        assert not (base[u] == base[v] and word[u] != word[v])


def test_projection_weight_examples():
    # single ball: weight 1
    cov = line_cover([0.0], 1.0)
    proj = covers.NerveProjector(cov, trivial_action(E1))
    support, w = proj.project(np.array([0.3]))
    assert support == (0,) and np.allclose(w, [1.0])

    # symmetric overlap: midpoint of the edge
    cov = line_cover([0.0, 1.0], 1.0)
    proj = covers.NerveProjector(cov, trivial_action(E1))
    support, w = proj.project(np.array([0.5]))
    assert support == (0, 1) and np.allclose(w, [0.5, 0.5])

    # tent ratio 3:1 -> weights (3/4, 1/4)
    r = 0.9
    cov = covers.BallCover(
        E2, [(np.zeros(2), r), (np.array([2 * r / 3, 0.0]), r)])
    proj = covers.NerveProjector(cov, trivial_action(E2))
    support, w = proj.project(np.zeros(2))
    assert support == (0, 1)
    assert np.allclose(w, [0.75, 0.25], atol=1e-12)


def test_chordal_covers_rejected():
    """Two chordal radius-1 balls on the unit circle, centred 0.9 pi apart:
    the centre distance is below the radius sum, which the pairwise shortcut
    of build_nerve would take as an edge, yet no point of the circle lies in
    both.  Covers of non-geodesic metrics are refused instead."""
    C1 = spaces.ModelSpace.circle(1.0)
    centers = [spaces.circle_point(C1, 0.0), spaces.circle_point(C1, 0.9 * math.pi)]
    assert spaces.distance(C1, *centers) < 2.0
    theta = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inside = [spaces.distances_to(C1, circle, c) < 1.0 for c in centers]
    assert not np.any(inside[0] & inside[1])
    with pytest.raises(PreconditionError):
        covers.BallCover(C1, [(c, 1.0) for c in centers])
    F = spaces.ModelSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError):
        covers.BallCover(F, [(0, 0.6), (1, 0.6)])


def test_projection_uncovered_point():
    cov = line_cover([0.0], 1.0)
    proj = covers.NerveProjector(cov, trivial_action(E1))
    with pytest.raises(UncoveredPoint):
        proj.project(np.array([3.0]))


@pytest.mark.parametrize("centers, simplices, q, support", [
    ([(0.0, 0.0), (1.0, 0.0)], [(0,), (1,)], (0.5, 0.0), (0, 1)),
    ([(0.0, 0.0), (1.0, 0.0)], [(0,), (1,), (2,), (0, 2), (1, 2)], (0.5, 0.0), (0, 1)),
    ([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)], [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
     (0.5, 0.3), (0, 1, 2)),
], ids=["no_edges", "other_edges", "no_triangles"])
def test_projection_refuses_a_support_absent_from_the_nerve(centers, simplices, q, support):
    """A support that a point witnesses but the nerve lacks raises
    PipelineInconsistency: with an empty edge array, with edges that miss
    it, and with no face array of its size."""
    cov = covers.BallCover(E2, [(np.asarray(c), 1.0) for c in centers])
    proj = covers.NerveProjector(cov, trivial_action(E2))
    proj.nerve = simplicial.SimplicialComplex({v for s in simplices for v in s}, simplices)
    with pytest.raises(PipelineInconsistency, match=re.escape(
            f"support {support} witnessed by a point but absent from the nerve")):
        proj.project(np.array(q))


def test_project_to_nerve_one_shot():
    cov = line_cover([0.0, 1.0], 1.0)
    support, w = covers.NerveProjector(cov, trivial_action(E1)).project(
        np.array([0.5]))
    assert support == (0, 1) and np.allclose(w, [0.5, 0.5])


def test_projection_properties_random():
    rng = np.random.default_rng(8)
    cov = covers.BallCover(
        E2, [(rng.uniform(-1, 1, 2), rng.uniform(0.6, 1.0)) for _ in range(12)])
    proj = covers.NerveProjector(cov, trivial_action(E2))
    hits = 0
    for _ in range(500):
        q = rng.uniform(-1, 1, 2)
        d = spaces.distances_to(E2, proj.adj.centers, q)
        inside = tuple(int(i) for i in np.nonzero(d < proj.adj.radii)[0])
        if not inside:
            continue
        hits += 1
        support, w = proj.project(q)
        assert abs(np.sum(w) - 1.0) < 1e-9
        assert np.all(w >= 0)
        assert set(inside) <= set(support)
        assert support in proj.nerve.simplices
    assert hits > 300


def test_projection_equivariance_on_orbit_pairs():
    cov = line_cover([0.0, 0.7, 1.4, 2.1], 0.5)
    g = spaces.Isometry.euclidean_translation([2.8])
    act = covers.GroupAction(E1, [g], word_length=2)
    proj = covers.NerveProjector(cov, act)
    image = translate_labels(proj.adj, g)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(100):
        # q in the base region with hq still inside the adjacency's reach
        q = np.array([rng.uniform(-0.45, 0.45)])
        support_q, w_q = proj.project(q)
        hq = g.apply(q)
        try:
            support_hq, w_hq = proj.project(hq)
        except UncoveredPoint:
            continue
        # relabel support_q through h where defined
        mapped = [image[i] for i in support_q]
        if None in mapped:
            continue
        order = np.argsort(mapped)
        assert tuple(sorted(mapped)) == support_hq
        assert np.allclose(w_q[order], w_hq, atol=1e-12)
        checked += 1
    assert checked >= 50


def test_projection_continuity_modulus_recorded():
    cov = line_cover([0.0, 0.7, 1.4], 0.5)
    proj = covers.NerveProjector(cov, trivial_action(E1))
    rng = np.random.default_rng(10)
    moduli = []
    for h in (1e-2, 1e-3):
        sup = 0.0
        for _ in range(100):
            s = rng.uniform(-0.3, 1.7)
            w1 = proj.tents(np.array([s]))
            w2 = proj.tents(np.array([s + h]))
            if w1.sum() == 0 or w2.sum() == 0:
                continue
            sup = max(sup, float(np.max(np.abs(w1 / w1.sum() - w2 / w2.sum()))))
        moduli.append(sup)
    assert moduli[0] >= moduli[1] - 1e-12  # recorded, coarser scale no smaller


def test_diam_K_Kout_trivial_group():
    K = [np.zeros(2), np.array([1.0, 0.0])]
    K_out = [np.array([3.0, 0.0]), np.array([3.5, 0.5])]
    d = covers.diam_K_Kout(trivial_action(E2), [], K_out)
    assert abs(d - spaces.pairwise_diameter(E2, K_out)) < 1e-12


def test_diam_K_Kout_rotation_example():
    """Rotations about an axis move a far point p; sup over the three rotates."""
    rot = spaces.Isometry.orthogonal(
        spaces.EUCLIDEAN,
        np.array([[math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3), 0],
                  [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3), 0],
                  [0, 0, 1.0]]))
    act = covers.GroupAction(E3, [rot], word_length=4)
    K = [np.array([0.0, 0.0, z]) for z in np.linspace(0, 1, 5)]  # on the axis
    p = np.array([10.0, 0.0, 0.0])
    expected = max(
        np.linalg.norm(p - np.linalg.matrix_power(rot.matrix, k) @ p)
        for k in range(3))
    d = covers.diam_K_Kout(act, covers.translate_gaps(act, K), [p])
    assert abs(d - expected) < 1e-9


def test_diam_K_Kout_monotone():
    K = [np.zeros(2)]
    base = [np.array([3.0, 0.0])]
    bigger = base + [np.array([5.0, 1.0])]
    act = trivial_action(E2)
    gaps = covers.translate_gaps(act, K)
    assert covers.diam_K_Kout(act, gaps, bigger) >= covers.diam_K_Kout(act, gaps, base)


def test_diam_K_Kout_upper_bound():
    """diam_K(K_out) <= 2 (diam K + dist(K, K_out) + diam K_out)."""
    rng = np.random.default_rng(14)
    g = spaces.Isometry.euclidean_translation([1.5, 0.0])
    act = covers.GroupAction(E2, [g], word_length=3)
    for _ in range(20):
        K = [rng.uniform(-1, 1, 2) for _ in range(5)]
        K_out = [rng.uniform(3, 5, 2) for _ in range(4)]
        d = covers.diam_K_Kout(act, covers.translate_gaps(act, K), K_out, slack=0.5)
        gap = min(float(np.linalg.norm(p - q)) for p in K for q in K_out)
        bound = 2 * (spaces.pairwise_diameter(E2, K) + gap
                     + spaces.pairwise_diameter(E2, K_out))
        assert d <= bound + 1e-9


def frozen_union_diam_K_Kout(action, gaps, K_out, slack=0.0):
    """diam_K_Kout as it was first written: the diameter of each qualifying
    union hK_out u K_out, taken whole."""
    K_out = np.asarray(K_out, float)
    best = spaces.pairwise_diameter(action.space, K_out)
    for g, w, dmin in gaps:
        if dmin <= slack + action.space.tol:
            union = np.concatenate([K_out, g.apply(K_out)])
            best = max(best, spaces.pairwise_diameter(action.space, union))
    return best


@pytest.mark.parametrize("space", ["E2", "H2"])
def test_diam_K_Kout_equals_union_diameter(space):
    """diam(K_out) once plus diam(hK_out) and the cross pairs per qualifying
    h equals the union's diameter under ==, whether no translate, some or
    all of them qualify."""
    rng = np.random.default_rng(20)
    if space == "E2":
        space, g = E2, spaces.Isometry.euclidean_translation([1.5, 0.0])

        def draw(m, lo, hi):
            return rng.uniform(lo, hi, (m, 2))
    else:
        space, g = H2, spaces.Isometry.hyperbolic_boost(1.5)

        def draw(m, lo, hi):
            x = rng.uniform(lo, hi, (m, 2))
            return np.column_stack([np.sqrt(1.0 + np.sum(x * x, axis=1)), x])
    act = covers.GroupAction(space, [g], word_length=3)
    qualified = set()
    for trial in range(30):
        K, K_out = draw(rng.integers(3, 9), -1, 1), draw(rng.integers(3, 40), 2, 4)
        gaps = covers.translate_gaps(act, K)
        slack = [0.0, 1.0, 10.0][trial % 3]
        qualified.add(sum(dmin <= slack + space.tol for _, w, dmin in gaps if w < 3))
        if any(dmin <= slack + space.tol for _, w, dmin in gaps if w == 3):
            continue  # diam_K_Kout raises EnumerationBound there
        got = covers.diam_K_Kout(act, gaps, K_out, slack=slack)
        assert got == frozen_union_diam_K_Kout(act, gaps, K_out, slack=slack)
    assert 0 in qualified and max(qualified) >= 2


@pytest.mark.parametrize("word_length", [-1, True, 2.7, "2", None])
def test_group_action_refuses_a_bad_word_length(word_length):
    """Only a whole number >= 0 is a word length: -1 used to drop every
    translate silently, and True, 2.7 and "2" were coerced by int()."""
    g = spaces.Isometry.euclidean_translation([10.0])
    with pytest.raises(ValueError, match="word_length"):
        covers.GroupAction(E1, [g], word_length=word_length)
    with pytest.raises(ValueError, match="word_length"):
        covers.GroupAction.from_json(E1, {"generators": [g.to_json()],
                                          "word_length": word_length})
    assert covers.GroupAction(E1, [g], word_length=np.int64(2)).word_length == 2


def test_group_enumeration_refuses_past_its_budget():
    """Two free H^2 generators have 2 * 3^L - 1 elements within word length
    L; word length 20 is refused once the count passes GROUP_ELEMENTS,
    within a second, while word length 5 (485 elements) is enumerated."""
    boost = spaces.Isometry.hyperbolic_boost(2.0)
    turn = spaces.Isometry.hyperbolic_rotation(math.pi / 2)
    gens = [boost, turn.compose(boost).compose(turn.inverse())]
    assert len(covers.GroupAction(H2, gens, word_length=5).elements()) == 485
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded, match="group elements"):
        covers.GroupAction(H2, gens, word_length=20)
    assert time.monotonic() - t0 < 1.0


def test_cover_json_roundtrip():
    cov = line_cover([0.0, 1.0], 1.0)
    back = covers.BallCover.from_json(E1, cov.to_json())
    assert len(back) == 2 and abs(back.centers[1, 0] - 1.0) < 1e-15
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=2)
    back_act = covers.GroupAction.from_json(E1, act.to_json())
    assert back_act.word_length == 2
    assert np.allclose(back_act.generators[0].translation, [10.0])


# ---------------------------------------------------------------------------
# the neighbour index against frozen all-pairs scans

H2 = spaces.ModelSpace.hyperboloid(2)


def allpairs_adjacency(cover, action):
    """(center, radius, group element index, word, base ball) rows of
    Adj(U), or the EnumerationBound message."""
    space = cover.space
    balls = list(enumerate(zip(cover.centers, cover.radii)))
    if action.generators:
        reach = 2.0 * float(np.max(cover.radii))
        for g, w in action.elements():
            if w != action.word_length:
                continue
            for _, (c, r) in balls:
                d = spaces.distances_to(space, cover.centers, g.apply(c))
                if np.any(d < r + cover.radii + reach):
                    return f"adjacency: translate at word length {action.word_length} " \
                        "still reaches the cover; increase word_length"
    rows = [(c, r, 0, 0, b) for b, (c, r) in balls]
    for k, (g, w) in enumerate(action.elements()):
        if w == 0:
            continue
        for b, (c, r) in balls:
            gc = g.apply(c)
            d = spaces.distances_to(space, cover.centers, gc)
            if np.any(d < r + cover.radii - space.tol):
                rows.append((gc, r, k, w, b))
    return rows


def scalar_probe_margin(space, centers, radii):
    """balls_intersection_margin of one set with one scalar probe at a time:
    the centroid, the geodesic midpoint of each pair of distinct centres and
    the centres, stopping at the first probe below -10 tol; the solver and
    the dual margin as in covers."""
    probes = [np.mean(centers, axis=0)]
    if space.kind == spaces.HYPERBOLOID:
        probes[0] = probes[0] / math.sqrt(-spaces.minkowski_dot(probes[0], probes[0]))
    for i, j in itertools.combinations(range(len(centers)), 2):
        d = spaces.distance(space, centers[i], centers[j])
        if d > space.tol:
            probes.append(spaces.geodesic_point(space, centers[i], centers[j], 0.5 * d))
    best = math.inf
    for p in probes + list(centers):
        best = min(best, float(np.max(spaces.distances_to(space, centers, p) - radii)))
        if best < -10 * space.tol:
            return best
    euclid = space.kind == spaces.EUCLIDEAN
    sol = bc.minimax_solve(space, centers, radii ** 2 if euclid else np.cosh(radii),
                           np.ones(len(radii)))
    best = min(best, float(np.max(spaces.distances_to(space, centers, sol.point) - radii)))
    if best < -space.tol:
        return best
    empty = covers._empty_margin(space, centers, radii, sol.weights)
    return empty if empty > space.tol else min(best, space.tol)


def allpairs_nerve(space, centers, radii):
    """build_nerve as an all-pairs scan with scalar probes: the simplex set,
    or the IndeterminateIntersection message."""
    n = len(radii)
    tol = space.tol
    simplices = {(i,) for i in range(n)}
    neighbors = {i: [] for i in range(n)}
    for i in range(n):
        d = spaces.distances_to(space, centers[i + 1:], centers[i])
        for off, dij in enumerate(d):
            j = i + 1 + off
            margin = 0.5 * (dij - radii[i] - radii[j])
            if abs(margin) <= tol:
                return f"balls {i},{j} touch within tolerance; perturb radii"
            if margin < 0:
                simplices.add((i, j))
                neighbors[i].append(j)
    frontier = sorted(s for s in simplices if len(s) == 2)
    while frontier:
        nxt = []
        for s in frontier:
            common = set(neighbors[s[0]])
            for v in s[1:]:
                common &= set(neighbors[v])
            for j in sorted(common):
                cand = s + (j,)
                if j <= s[-1] or any(cand[:m] + cand[m + 1:] not in simplices
                                     for m in range(len(cand))):
                    continue
                idx = list(cand)
                margin = scalar_probe_margin(space, centers[idx], radii[idx])
                assert abs(margin) > tol
                if margin < 0:
                    simplices.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return simplices


def allpairs_tents(proj, q):
    base = len(proj.cover)
    vals = np.zeros(len(proj.adj))
    d = spaces.distances_to(proj.cover.space, proj.adj.centers[:base], q)
    vals[:base] = np.maximum(0.0, proj.adj.radii[:base] - d)
    elements = [g for g, _ in proj.action.elements()]
    for i in range(base, len(proj.adj)):
        pulled = elements[proj.adj.group[i]].inverse().apply(q)
        d_i = spaces.distance(proj.cover.space, proj.cover.centers[proj.adj.base[i]],
                              pulled)
        vals[i] = max(0.0, proj.adj.radii[i] - d_i)
    return vals


def from_chart(space, c):
    """Point with chart coordinates c: itself in R^n, sinh on the hyperboloid."""
    if space.kind == spaces.EUCLIDEAN:
        return np.asarray(c, float)
    x = np.sinh(np.asarray(c, float))
    return np.concatenate(([math.sqrt(1.0 + float(x @ x))], x))


def step(space, p, t, rng):
    """The point at distance t from p in a random direction."""
    if space.kind == spaces.EUCLIDEAN:
        u = rng.normal(size=space.dim)
        return p + t * u / np.linalg.norm(u)
    e1, e2 = spaces.hyperboloid_tangent_frame(p)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return math.cosh(t) * p + math.sinh(t) * (math.cos(a) * e1 + math.sin(a) * e2)


def group_for(space, length):
    g = (spaces.Isometry.hyperbolic_boost(length) if space.kind == spaces.HYPERBOLOID
         else spaces.Isometry.euclidean_translation([length] + [0.0] * (space.dim - 1)))
    return covers.GroupAction(space, [g], word_length=2)


def random_cover(space, rng, n, r, extent, chart_origin):
    centers = [from_chart(space, chart_origin + rng.uniform(0.0, 1.0, space.dim) * extent)
               for _ in range(n)]
    return [(c, r * rng.uniform(0.75, 1.0)) for c in centers]


def boundary_cover(space, r, cells, chart_origin):
    """Centres on the cell corners of the index, so that neighbouring corners
    sit exactly one cell side apart, and two partners of each corner on the
    diagonal towards the next corner, at 2r(1 -+ 1e-7): the nearest and the
    farthest pair the cells must still join.  The side depends on the points,
    so the corners are placed again until it settles."""
    side = 2.0 * r
    for _ in range(4):
        base = np.floor(chart_origin / side)
        balls = []
        for k in np.ndindex(*cells):
            c = from_chart(space, (base + k) * side)
            diag = from_chart(space, (base + k + 1) * side)
            balls += [(c, r)] + [(spaces.geodesic_point(space, c, diag, 2.0 * r * f), r)
                                 for f in (1.0 - 1e-7, 1.0 + 1e-7)]
        side = covers.NeighbourIndex(space, [c for c, _ in balls],
                                     2.0 * r + 2.0 * space.tol).side
    return balls, side


CASES = [  # (space, chart origin, cell corners per axis of the boundary cover)
    (E2, np.zeros(2), (6, 3)),
    (E3, np.zeros(3), (6, 2, 2)),
    (H2, np.array([5.5, -0.3]), (6, 3)),  # x0 ~ 120: far from the basepoint
]


def check_against_allpairs(space, balls, rng, length):
    window = [c for c, _ in balls]
    window += [window[int(rng.integers(len(window)))]
               + rng.normal(0.0, 0.3, len(window[0])) for _ in range(20)]
    if space.kind == spaces.HYPERBOLOID:
        window = [from_chart(space, np.arcsinh(p[1:])) for p in window]
    cover = covers.BallCover(space, balls)
    action = group_for(space, length)
    ref = allpairs_adjacency(cover, action)
    adj = covers.adjacency(cover, action)
    assert len(adj) == len(ref) > len(cover)
    c, rad, group, word, base = zip(*ref)
    assert np.array_equal(adj.centers, np.array(c))
    assert np.array_equal(adj.radii, np.array(rad))
    assert np.array_equal(adj.group, np.array(group))
    assert np.array_equal(words(action)[adj.group], np.array(word))
    assert np.array_equal(adj.base, np.array(base))

    proj = covers.NerveProjector(cover, action)
    assert proj.nerve.simplices == allpairs_nerve(space, adj.centers, adj.radii)
    # the window rows themselves, at the base balls' index reach 0.5 * max_diameter
    assert np.array_equal(proj.tents(np.asarray(window)),
                          [allpairs_tents(proj, p) for p in window])
    tents_seen = 0
    for p in window:
        q = step(space, p, rng.uniform(0.0, 0.3), rng)
        vals = proj.tents(q)
        assert np.array_equal(vals, allpairs_tents(proj, q))
        tents_seen += int(np.count_nonzero(vals) > 1)
    assert tents_seen > 0


@pytest.mark.parametrize("case", range(len(CASES)))
def test_index_matches_allpairs_random(case):
    space, origin, _ = CASES[case]
    rng = np.random.default_rng(30 + case)
    r = 0.1
    extent = np.array([3.0] + [1.0] * (space.dim - 1))
    balls = random_cover(space, rng, 60, r, extent, origin)
    # the translate overlaps the far end of the strip: Adj(U) gains elements
    check_against_allpairs(space, balls, rng, 3.0 - r)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_index_matches_allpairs_cell_boundaries(case):
    space, origin, cells = CASES[case]
    rng = np.random.default_rng(40 + case)
    r = 0.1
    balls, side = boundary_cover(space, r, cells, origin)
    cover = covers.BallCover(space, balls)
    assert abs(cover.index.side - side) <= 1e-12 * side
    check_against_allpairs(space, balls, rng, (cells[0] - 1) * side)


def test_indeterminate_names_first_touching_pair():
    """Touching pairs (0,3) and (1,2); the message names the first in
    lexicographic order, as the all-pairs scan did."""
    cov = line_cover([0.0, 10.0, 12.0, 2.0, 20.0, 30.0, 40.0], 1.0)
    expected = allpairs_nerve(E1, cov.centers, cov.radii)
    assert expected == "balls 0,3 touch within tolerance; perturb radii"
    with pytest.raises(IndeterminateIntersection) as err:
        covers.build_nerve(cov)
    assert str(err.value) == expected


def test_enumeration_bound_two_cells_away():
    """The enumeration check reaches 4 r_max: a translate 3.9 r from a centre
    fires it although their cells are two apart (with the first centre at
    1.0, in both directions of the generator)."""
    for first, gaps in ((1.9, [2, 1]), (1.0, [2, 2])):
        centers = [first + 20.0 * i for i in range(10)]
        cov = line_cover(centers, 1.0)
        g = spaces.Isometry.euclidean_translation([centers[-1] - centers[0] + 3.9])
        side = cov.index.side
        assert [math.floor(g.apply(cov.centers[0])[0] / side) - math.floor(centers[-1] / side),
                math.floor(centers[0] / side)
                - math.floor(g.inverse().apply(cov.centers[-1])[0] / side)] == gaps
        act = covers.GroupAction(E1, [g], word_length=1)
        assert isinstance(allpairs_adjacency(cov, act), str)
        with pytest.raises(EnumerationBound):
            covers.adjacency(cov, act)
        far = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation(
            [centers[-1] - centers[0] + 4.1])], word_length=1)
        assert len(covers.adjacency(cov, far)) == len(cov)


def test_empty_and_single_ball_covers():
    act = covers.GroupAction(E2, [spaces.Isometry.euclidean_translation([10.0, 0.0])],
                             word_length=2)
    empty = covers.BallCover(E2, [])
    assert covers.build_nerve(empty).simplices == frozenset()
    assert len(covers.adjacency(empty, act)) == 0
    proj = covers.NerveProjector(empty, act)
    assert proj.tents(np.zeros(2)).shape == (0,)
    with pytest.raises(UncoveredPoint):
        proj.project_rows(np.zeros((1, 2)))

    single = covers.BallCover(E2, [(np.zeros(2), 1.0)])
    assert covers.build_nerve(single).simplices == {(0,)}
    proj = covers.NerveProjector(single, act)
    assert len(proj.adj) == 1
    support, w = proj.project(np.array([0.5, 0.0]))
    assert support == (0,) and np.array_equal(w, [1.0])


def replay_empty_margin(space, centers, radii, w):
    """The largest t whose weights certify that the balls B(c_i, r_i + t)
    share no point, by bisection on the closed-form dual bound."""
    w = np.asarray(w) / np.sum(w)
    v = w @ centers
    if space.kind == spaces.EUCLIDEAN:
        spread = float(w @ np.sum((centers - v) ** 2, axis=1))
        bound = lambda t: spread - float(w @ (radii + t) ** 2)  # noqa: E731
    else:
        spread = math.sqrt(v[0] ** 2 - v[1:] @ v[1:])
        bound = lambda t: spread - float(w @ np.cosh(radii + t))  # noqa: E731
    lo, hi = -float(np.min(radii)), 10.0
    if bound(lo) <= 0.0:
        return -math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) > 0.0 else (lo, mid)
    return lo


def assert_certificate_replays(space, centers, radii, cert):
    """A negative margin is its witness's max_i d(w, c_i) - r_i; a positive
    one is the largest t whose dual weights certify that the balls
    B(c_i, r_i + t) share no point."""
    if cert.margin < -space.tol:
        witness = float(np.max(spaces.distances_to(space, centers, cert.point) - radii))
        assert witness == cert.margin
    else:
        assert cert.margin > space.tol
        replayed = replay_empty_margin(space, centers, radii, cert.weights)
        assert abs(replayed - cert.margin) <= 1e-9


def test_far_hyperbolic_cover_nerve_replays():
    """The 54-ball cover far out in H^2 (x0 ~ 120): its nerve is decided in
    well under a second, and every set it examined is replayed from its
    witness point (in the nerve) or its dual weights (rejected)."""
    balls, _ = boundary_cover(H2, 0.1, (6, 3), np.array([5.5, -3.0]))
    cover = covers.BallCover(H2, balls)
    t0 = time.perf_counter()
    nerve = covers.build_nerve(cover)
    elapsed = time.perf_counter() - t0
    counts = [sum(1 for s in nerve.simplices if len(s) == k) for k in range(1, 6)]
    assert counts == [54, 96, 50, 10, 0]
    assert elapsed < 1.0
    tol = H2.tol
    examined = 0
    for k in (3, 4, 5):
        for cand in itertools.combinations(range(len(balls)), k):
            if any(cand[:m] + cand[m + 1:] not in nerve.simplices for m in range(k)):
                continue
            examined += 1
            idx = list(cand)
            c, r = cover.centers[idx], cover.radii[idx]
            cert = covers.balls_intersection_margin(H2, c, r)
            assert (cand in nerve.simplices) == (cert.margin < -tol)
            assert_certificate_replays(H2, c, r, cert)
    assert examined > 60


@pytest.mark.parametrize("space, origin, extent", [
    (E2, np.zeros(2), 1.5), (E2, np.array([40.0, -7.0]), 1.5),
    (H2, np.array([0.3, -0.2]), 1.5), (H2, np.array([4.0, 2.5]), 0.4),
], ids=["E2", "E2_far", "H2", "H2_far"])
def test_stacked_nerve_matches_scalar_probes(space, origin, extent):
    """Random covers with 3- and 4-fold intersections and with triples that
    no probe certifies: the nerve from stacked probes has the faces of the
    scalar-probe build, each stacked certificate gives the nerve's verdict on
    its set, and every certificate replays."""
    rng = np.random.default_rng(int(abs(origin[0])) + space.ambient_dim)
    tol = space.tol
    solved = 0
    for _ in range(3):
        cover = covers.BallCover(space, random_cover(space, rng, 24, 0.3, extent, origin))
        nerve = covers.build_nerve(cover)
        assert nerve.simplices == allpairs_nerve(space, cover.centers, cover.radii)
        for k in (3, 4):
            cands = [s + (j,) for s in nerve.simplices if len(s) == k - 1
                     for j in range(s[-1] + 1, len(cover))
                     if all(s[:m] + s[m + 1:] + (j,) in nerve.simplices for m in range(k - 1))]
            idx = np.array(cands)
            certs = covers.balls_intersection_margin(space, cover.centers[idx],
                                                     cover.radii[idx])
            for cand, cert in zip(cands, certs):
                assert (cand in nerve.simplices) == (cert.margin < -tol)
                assert_certificate_replays(space, cover.centers[list(cand)],
                                           cover.radii[list(cand)], cert)
                solved += cert.weights is not None
    assert any(len(s) == 4 for s in nerve.simplices)
    assert solved > 0
