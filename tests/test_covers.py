"""Ball covers, adjacency under group actions, nerves, and the nerve projection."""

import math

import numpy as np
import pytest

from barylab import covers, spaces
from barylab.errors import (
    EnumerationBound,
    IndeterminateIntersection,
    PreconditionError,
    UncoveredPoint,
)

E1 = spaces.ModelSpace.euclidean(1)
E2 = spaces.ModelSpace.euclidean(2)
E3 = spaces.ModelSpace.euclidean(3)


def line_cover(centers, radius, space=E1):
    balls = [(np.array([c], float) if space is E1 else np.asarray(c, float), radius)
             for c in centers]
    window = [b[0] for b in balls]
    return covers.BallCover(space, balls, window)


def trivial_action(space):
    return covers.GroupAction(space, [], word_length=0)


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
        cov = covers.BallCover(E2, [(np.asarray(p), 1.0) for p in pts],
                               window=[np.array([0.1, 0.1])])
        nerve = covers.build_nerve(cov)
        assert len(nerve.edges) == 3
        assert ((0, 1, 2) in nerve.simplices) == expect_triangle


def test_nerve_indeterminate_touching_balls():
    cov = line_cover([0.0, 2.0], 1.0)  # open balls touch exactly
    with pytest.raises(IndeterminateIntersection):
        covers.build_nerve(cov)


def test_cover_requires_window_coverage():
    with pytest.raises(UncoveredPoint):
        covers.BallCover(E1, [(np.array([0.0]), 1.0)], window=[np.array([5.0])])


def test_adjacency_examples():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=3)
    adj = covers.adjacency(cov, act)
    extra = sorted(float(e.ball.center[0]) for e in adj.elements[len(cov):])
    assert extra == [-1.0, 10.0]

    far = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([100.0])],
                             word_length=3)
    adj = covers.adjacency(cov, far)
    assert len(adj) == len(cov)

    adj = covers.adjacency(cov, trivial_action(E1))
    assert len(adj) == len(cov)


def test_adjacency_contains_base():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=2)
    adj = covers.adjacency(cov, act)
    assert [e.base_label for e in adj.elements[:len(cov)]] == list(range(10))
    assert all(e.word == 0 for e in adj.elements[:len(cov)])


def test_enumeration_bound_error():
    cov = line_cover(list(range(10)), 1.0)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([2.0])],
                             word_length=1)
    with pytest.raises(EnumerationBound):
        covers.adjacency(cov, act)


def test_is_H_fine_examples():
    cov = line_cover([0.0], 1.0)
    ten = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=3)
    assert covers.is_H_fine(cov, ten)
    big = line_cover([0.0], 6.0)
    assert not covers.is_H_fine(big, ten)
    assert covers.is_H_fine(big, trivial_action(E1))


def test_H_fine_nerve_has_no_orbit_edges():
    cov = line_cover([0.0, 1.0, 2.0], 0.6)
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([3.0])],
                             word_length=2)
    assert covers.is_H_fine(cov, act)
    proj = covers.NerveProjector(cov, act)
    # exhaustively: no edge joins an element and one of its own translates
    for (u, v) in proj.nerve.edges:
        eu, ev = proj.adj.elements[u], proj.adj.elements[v]
        assert not (eu.base_label == ev.base_label and eu.word != ev.word)


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
        E2, [(np.zeros(2), r), (np.array([2 * r / 3, 0.0]), r)],
        window=[np.zeros(2)])
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
        covers.BallCover(C1, [(c, 1.0) for c in centers], window=centers)
    S2 = spaces.ModelSpace.sphere(2)
    with pytest.raises(PreconditionError):
        covers.BallCover(S2, [(np.array([0.0, 0.0, 1.0]), 0.5)], window=[])
    F = spaces.ModelSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError):
        covers.BallCover(F, [(0, 0.6), (1, 0.6)], window=[], check_cover=False)


def test_projection_uncovered_point():
    cov = line_cover([0.0], 1.0)
    proj = covers.NerveProjector(cov, trivial_action(E1))
    with pytest.raises(UncoveredPoint):
        proj.project(np.array([3.0]))


def test_project_to_nerve_one_shot():
    cov = line_cover([0.0, 1.0], 1.0)
    support, w = covers.NerveProjector(cov, trivial_action(E1)).project(
        np.array([0.5]))
    assert support == (0, 1) and np.allclose(w, [0.5, 0.5])


def test_projection_properties_random():
    rng = np.random.default_rng(8)
    cov = covers.BallCover(
        E2, [(rng.uniform(-1, 1, 2), rng.uniform(0.6, 1.0)) for _ in range(12)],
        window=[np.zeros(2)], check_cover=False)
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
    label_of = {}
    for i, e in enumerate(proj.adj.elements):
        label_of[(e.group_element.key(), e.base_label)] = i
    ident = spaces.Isometry.identity(E1).key()
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
        mapped = []
        for i in support_q:
            e = proj.adj.elements[i]
            key = (g.compose(e.group_element).key(), e.base_label)
            if key not in label_of:
                mapped = None
                break
            mapped.append(label_of[key])
        if mapped is None:
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
    d = covers.diam_K_Kout(trivial_action(E2), K, K_out)
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
    d = covers.diam_K_Kout(act, K, [p])
    assert abs(d - expected) < 1e-9


def test_diam_K_Kout_monotone():
    K = [np.zeros(2)]
    base = [np.array([3.0, 0.0])]
    bigger = base + [np.array([5.0, 1.0])]
    act = trivial_action(E2)
    assert covers.diam_K_Kout(act, K, bigger) >= covers.diam_K_Kout(act, K, base)


def test_diam_K_Kout_upper_bound():
    """diam_K(K_out) <= 2 (diam K + dist(K, K_out) + diam K_out)."""
    rng = np.random.default_rng(14)
    g = spaces.Isometry.euclidean_translation([1.5, 0.0])
    act = covers.GroupAction(E2, [g], word_length=3)
    for _ in range(20):
        K = [rng.uniform(-1, 1, 2) for _ in range(5)]
        K_out = [rng.uniform(3, 5, 2) for _ in range(4)]
        d = covers.diam_K_Kout(act, K, K_out, slack=0.5)
        gap = min(float(np.linalg.norm(p - q)) for p in K for q in K_out)
        bound = 2 * (spaces.pairwise_diameter(E2, K) + gap
                     + spaces.pairwise_diameter(E2, K_out))
        assert d <= bound + 1e-9


def test_cover_json_roundtrip():
    cov = line_cover([0.0, 1.0], 1.0)
    back = covers.BallCover.from_json(E1, cov.to_json())
    assert len(back) == 2 and abs(back.balls[1].center[0] - 1.0) < 1e-15
    act = covers.GroupAction(E1, [spaces.Isometry.euclidean_translation([10.0])],
                             word_length=2)
    back_act = covers.GroupAction.from_json(E1, act.to_json())
    assert back_act.word_length == 2
    assert np.allclose(back_act.generators[0].translation, [10.0])
