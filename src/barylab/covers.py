"""Ball covers, discrete group actions, adjacency, nerves, and the nerve projection.

A cover is a finite family of open metric balls that covers a sampled window.
The nerve's k-simplices are certified by a minimax descent on the common
intersection margin; the partition of unity behind the nerve projection uses
tent weights r - d(q, c) clipped at zero, pulled back through the group
element attached to each translate so that equivariance holds by construction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import spaces
from .barycenters import minimax_descent
from .errors import (
    EnumerationBound,
    IndeterminateIntersection,
    PipelineInconsistency,
    PreconditionError,
    UncoveredPoint,
)
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float
    label: int

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)


class BallCover:
    """Finite cover of a sampled compact window by open metric balls.

    Only Euclidean and hyperboloid spaces are accepted: build_nerve certifies
    pairwise intersections from the centre distance, which is exact only in a
    geodesic metric, and its multistart descent is global only where the
    margin is geodesically convex.  Chordal circles and spheres, and finite
    spaces, fail both.
    """

    def __init__(self, space, balls, window, check_cover=True):
        if not space.is_cat0:
            raise PreconditionError(
                f"ball covers need a Euclidean or hyperboloid space, not "
                f"{space.kind}: nerves of {space.kind} covers are not certified")
        self.space = space
        self.balls = [Ball(np.asarray(c, float), float(r), i)
                      for i, (c, r) in enumerate(balls)]
        self.window = [np.asarray(p, float) for p in window]
        self.centers = np.asarray([b.center for b in self.balls])
        self.radii = np.asarray([b.radius for b in self.balls])
        if check_cover:
            for p in self.window:
                d = spaces.distances_to(space, self.centers, p)
                if not np.any(d < self.radii):
                    raise UncoveredPoint(f"window sample {p} lies in no ball")

    def __len__(self):
        return len(self.balls)

    @property
    def max_diameter(self):
        """Upper bound 2r on element diameters; the delta of tightness checks."""
        return 2.0 * float(np.max(self.radii)) if len(self.balls) else 0.0

    def to_json(self):
        return {"balls": [{"center": b.center.tolist(), "radius": b.radius,
                           "label": b.label} for b in self.balls],
                "window": [p.tolist() for p in self.window]}

    @staticmethod
    def from_json(space, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        balls = [(b["center"], b["radius"]) for b in doc["balls"]]
        return BallCover(space, balls, doc["window"])


class GroupAction:
    """Generators of a discrete isometry group with a word-length enumeration bound."""

    def __init__(self, space, generators, word_length=3):
        self.space = space
        self.generators = list(generators)
        for g in self.generators:
            g.validate(space)
        self.word_length = int(word_length)
        self._elements = None

    def elements(self):
        """Deterministic duplicate-free enumeration (element, word_length), e first."""
        if self._elements is not None:
            return self._elements
        ident = spaces.Isometry.identity(self.space)
        seen = {ident.key(): 0}
        out = [(ident, 0)]
        frontier = [ident]
        gens = []
        for g in self.generators:
            gens.append(g)
            gens.append(g.inverse())
        for word in range(1, self.word_length + 1):
            nxt = []
            for h in frontier:
                for g in gens:
                    cand = g.compose(h)
                    k = cand.key()
                    if k not in seen:
                        seen[k] = word
                        out.append((cand, word))
                        nxt.append(cand)
            frontier = nxt
        self._elements = out
        return out

    def nontrivial(self):
        return [(g, w) for g, w in self.elements() if w > 0]

    def to_json(self):
        return {"generators": [g.to_json() for g in self.generators],
                "word_length": self.word_length}

    @staticmethod
    def from_json(space, doc):
        gens = [spaces.Isometry.from_json(space.kind, g) for g in doc["generators"]]
        return GroupAction(space, gens, doc.get("word_length", 3))


def _check_enumeration_bound(cover, action, context):
    """Raise if a word-length-L translate still reaches near the cover."""
    if not action.generators:
        return
    reach = 2.0 * float(np.max(cover.radii))
    for g, w in action.elements():
        if w != action.word_length:
            continue
        for b in cover.balls:
            gc = g.apply(b.center)
            d = spaces.distances_to(cover.space, cover.centers, gc)
            if np.any(d < b.radius + cover.radii + reach):
                raise EnumerationBound(
                    f"{context}: translate at word length {action.word_length} still "
                    "reaches the cover; increase word_length")


# ---------------------------------------------------------------------------
# certified ball-intersection test


def balls_intersection_margin(space, centers, radii, seed=0, restarts=20):
    """Certified min over x of max_i (d(x,c_i) - r_i); negative means nonempty.

    Probes (centroid-like points, pairwise geodesic midpoints) give fast
    nonempty witnesses; otherwise a seeded multistart minimax_descent is
    run.  The objective is geodesically convex in CAT(0) kinds, where the
    descent minimum is global.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    k = len(centers)
    probes = []
    if space.kind == spaces.EUCLIDEAN:
        probes.append(np.mean(centers, axis=0))
    elif space.kind == spaces.HYPERBOLOID:
        m = np.mean(centers, axis=0)
        nrm = -spaces.minkowski_dot(m, m)
        if nrm > 0:
            probes.append(m / np.sqrt(nrm))
    for i, j in itertools.combinations(range(k), 2):
        d = spaces.distance(space, centers[i], centers[j])
        if d > space.tol:
            probes.append(spaces.geodesic_point(space, centers[i], centers[j], 0.5 * d))
    probes.extend(centers)
    best = np.inf
    for p in probes:
        best = min(best, float(np.max(spaces.distances_to(space, centers, p) - radii)))
        if best < -10 * space.tol:
            return best  # certified nonempty witness
    rng = np.random.default_rng(seed)
    starts = [probes[0] if probes else centers[0]]
    for _ in range(restarts):
        i = int(rng.integers(0, k))
        j = int(rng.integers(0, k))
        t = float(rng.uniform(0.0, 1.0))
        d = spaces.distance(space, centers[i], centers[j])
        p = centers[i] if d <= space.tol else spaces.geodesic_point(
            space, centers[i], centers[j], t * d)
        starts.append(p)
    for s in starts:
        val, _ = minimax_descent(space, centers, radii, s)
        best = min(best, val)
    return best


def build_nerve(cover, seed=0):
    """Nerve of a BallCover or AdjacencySet: one k-simplex per (k+1)-subset of
    elements with certified nonempty common intersection.

    Margins inside [-tol, tol] raise IndeterminateIntersection.
    """
    balls = list(cover.balls)
    space = cover.space
    n = len(balls)
    centers = np.asarray([b.center for b in balls])
    radii = np.asarray([b.radius for b in balls])
    tol = space.tol

    simplices = {(i,) for i in range(n)}
    # pairwise margins are exact: min of the max-margin along the geodesic
    neighbors = {i: [] for i in range(n)}
    for i in range(n):
        d = spaces.distances_to(space, centers[i + 1:], centers[i])
        for off, dij in enumerate(d):
            j = i + 1 + off
            margin = 0.5 * (dij - radii[i] - radii[j])
            if abs(margin) <= tol:
                raise IndeterminateIntersection(
                    f"balls {i},{j} touch within tolerance; perturb radii")
            if margin < 0:
                simplices.add((i, j))
                neighbors[i].append(j)

    # grow certified cliques level by level (a (k+1)-set can only intersect
    # if every k-subset does)
    frontier = sorted(s for s in simplices if len(s) == 2)
    while frontier:
        nxt = []
        for s in frontier:
            last = s[-1]
            common = set(neighbors[s[0]])
            for v in s[1:]:
                common &= set(neighbors[v])
            for j in sorted(common):
                if j <= last:
                    continue
                cand = s + (j,)
                if any(cand[:m] + cand[m + 1:] not in simplices
                       for m in range(len(cand))):
                    continue
                idx = list(cand)
                margin = balls_intersection_margin(space, centers[idx], radii[idx],
                                                   seed=seed)
                if abs(margin) <= tol:
                    raise IndeterminateIntersection(
                        f"balls {cand} margin {margin:.2e} within tolerance")
                if margin < 0:
                    simplices.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return SimplicialComplex(range(n), simplices)


# ---------------------------------------------------------------------------
# adjacency and H-fineness


@dataclass
class AdjacencyElement:
    ball: Ball
    group_element: spaces.Isometry
    word: int
    base_label: int


class AdjacencySet:
    """The cover itself plus every group translate meeting one of its elements."""

    def __init__(self, cover, action, elements):
        self.cover = cover
        self.action = action
        self.elements = elements  # list[AdjacencyElement]; base cover first
        self.centers = np.asarray([e.ball.center for e in elements])
        self.radii = np.asarray([e.ball.radius for e in elements])

    def __len__(self):
        return len(self.elements)

    @property
    def space(self):
        return self.cover.space

    @property
    def balls(self):
        return [e.ball for e in self.elements]

    def base_size(self):
        return len(self.cover)


def adjacency(cover, action):
    """Adj(U): U plus all translates hU with h != e meeting some element of U."""
    _check_enumeration_bound(cover, action, "adjacency")
    elements = [AdjacencyElement(b, spaces.Isometry.identity(cover.space), 0, b.label)
                for b in cover.balls]
    next_label = len(cover.balls)
    for g, w in action.nontrivial():
        for b in cover.balls:
            gc = g.apply(b.center)
            d = spaces.distances_to(cover.space, cover.centers, gc)
            if np.any(d < b.radius + cover.radii - cover.space.tol):
                elements.append(AdjacencyElement(
                    Ball(gc, b.radius, next_label), g, w, b.label))
                next_label += 1
    return AdjacencySet(cover, action, elements)


def is_H_fine(cover, action):
    """True iff no element meets any of its nontrivial translates."""
    _check_enumeration_bound(cover, action, "is_H_fine")
    for g, _ in action.nontrivial():
        for b in cover.balls:
            gc = g.apply(b.center)
            if spaces.distance(cover.space, gc, b.center) < 2 * b.radius - cover.space.tol:
                return False
    return True


# ---------------------------------------------------------------------------
# nerve projection (the equivariant partition of unity)


class NerveProjector:
    """Equivariant projection of covered points onto the nerve of Adj(U).

    Weights are normalized tents x_i(q) = max(0, r_i - d(q, c_i)); translate
    elements evaluate their tent by pulling the query back through the
    attached group element, so equivariance holds identically.
    """

    def __init__(self, cover, action, seed=0):
        self.cover = cover
        self.action = action
        self.adj = adjacency(cover, action)
        self.nerve = build_nerve(self.adj, seed=seed)
        self._inverses = [e.group_element.inverse() for e in self.adj.elements]

    def tents(self, q):
        vals = np.zeros(len(self.adj))
        base = len(self.cover)
        d = spaces.distances_to(self.cover.space, self.adj.centers[:base], q)
        vals[:base] = np.maximum(0.0, self.adj.radii[:base] - d)
        for i in range(base, len(self.adj)):
            e = self.adj.elements[i]
            pulled = self._inverses[i].apply(q)
            d_i = spaces.distance(self.cover.space, self.cover.balls[e.base_label].center,
                                  pulled)
            vals[i] = max(0.0, e.ball.radius - d_i)
        return vals

    def project(self, q):
        """Return (support simplex as label tuple, weights summing to 1)."""
        vals = self.tents(q)
        support = tuple(int(i) for i in np.nonzero(vals)[0])
        if not support:
            raise UncoveredPoint("query point lies outside every adjacency element")
        if support not in self.nerve.simplices:
            raise PipelineInconsistency(
                f"support {support} witnessed by a point but absent from the nerve")
        w = vals[list(support)]
        return support, w / np.sum(w)


# ---------------------------------------------------------------------------
# relative diameter


def diam_K_Kout(action, K, K_out, slack=0.0):
    """sup of diam(hK_out u K_out) over group elements h with hK n K != empty.

    Intersection is judged at sample resolution: dist(hK, K) <= slack,
    with slack defaulting to 0 (identity always qualifies).
    """
    space = action.space
    K = np.asarray([np.asarray(p, float) for p in K])
    K_out = [np.asarray(p, float) for p in K_out]
    best = spaces.pairwise_diameter(space, K_out)
    for g, w in action.nontrivial():
        gK = np.asarray([g.apply(p) for p in K])
        dmin = min(float(np.min(spaces.distances_to(space, gK, p))) for p in K)
        if dmin > slack + space.tol:
            continue
        if w == action.word_length and action.generators:
            raise EnumerationBound(
                "diam_K_Kout: a qualifying translate sits at the word-length bound")
        union = K_out + [g.apply(p) for p in K_out]
        best = max(best, spaces.pairwise_diameter(space, union))
    return best
