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
import math
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


# ---------------------------------------------------------------------------
# fixed-radius neighbour index (Bentley-Stanat-Williams cell hash)

_EPS = np.finfo(float).eps
# Cells are this much wider than the chart reach of the indexed points, so
# that queries a little farther out in the chart still visit 3^n cells.
_CELL_SLACK = 1e-6
_KEY_BOUND = 2.0**62


class NeighbourIndex:
    """Fixed-radius neighbour index over the rows of `points`.

    Points are hashed into cubical cells on a 1-Lipschitz chart: the
    coordinates in R^n, and asinh(x_i) of each spatial coordinate on the
    hyperboloid, the signed distance to the hyperplane {x_i = 0}.  Two points
    at distance d then have chart coordinates at most d apart, so a query of
    reach R visits the cells within ceil(R'/side) of its own, where R' is R
    widened by the rounding of the chart, of the cell keys and of the
    distance kernel (see `_chart_reach`).  `pairs` therefore returns a
    superset of the pairs whose computed distance is at most R; callers run
    the distance kernel on the candidates and decide exactly as an all-pairs
    scan would.  Cells are a little wider than `reach`, so queries of that
    reach visit 3^n cells.  A query whose cell block would hold at least as
    many cells as the index has rows is compared with every row.
    """

    def __init__(self, space, points, reach):
        self.space = space
        points = np.asarray(points, float).reshape(-1, space.ambient_dim)
        self._mult = (2 * np.arange(space.dim, dtype=np.uint64) + 1) * \
            np.uint64(0x9E3779B97F4A7C15)
        chart = self._chart(points)
        self._stats = self._chart_stats(points, chart)
        side = self._chart_reach(reach, self._stats) * (1.0 + _CELL_SLACK)
        self.side = side if 0.0 < side < np.inf else 1.0
        codes = self._codes(self._keys(chart))
        self._order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[self._order]

    def _chart(self, pts):
        if self.space.kind == spaces.HYPERBOLOID:
            return np.arcsinh(pts[:, 1:])
        return pts

    def _chart_stats(self, pts, chart):
        """(largest |chart coordinate|, largest x0, largest off-sheet drift)."""
        cmax = float(np.abs(chart).max(initial=0.0))
        if self.space.kind != spaces.HYPERBOLOID:
            return cmax, 0.0, 0.0
        drift = np.abs((pts[:, 1:] ** 2).sum(axis=1) - pts[:, 0] ** 2 + 1.0)
        return cmax, float(pts[:, 0].max(initial=0.0)), float(drift.max(initial=0.0))

    def _chart_reach(self, reach, stats):
        """Upper bound on the chart (sup-norm) distance of two points whose
        computed distance is at most `reach`, plus the floor rounding of the
        cell keys; inf when no bound holds."""
        cmax, x0, drift = stats
        if self.space.kind == spaces.HYPERBOLOID:
            # The kernel reads d from <x-y, x-y>_M, whose rounding grows like
            # eps x0^2.  A point off the sheet by eta scales that form by up
            # to eta (plus eta^2 near the diagonal) and its chart by eta/2.
            n = self.space.dim
            eta = drift + (n + 3) * _EPS * x0 * x0
            if not eta < 0.25 or not 0.5 * reach < 700.0:
                return np.inf
            kernel = 4.0 * (n + 3) * _EPS * x0 * x0 + eta * eta
            s2 = (math.sinh(0.5 * reach) ** 2 + 0.25 * kernel) / (1.0 - 2.0 * eta)
            reach = 2.0 * math.asinh(math.sqrt(s2)) + 2.0 * eta
        return reach * (1.0 + 1e-9) + 16.0 * _EPS * cmax

    def _keys(self, chart):
        # clipping is monotone and shrinks no key distance, so it keeps every
        # neighbour while the keys stay inside int64
        keys = np.floor(chart / self.side)
        return np.minimum(np.maximum(keys, -_KEY_BOUND), _KEY_BOUND).astype(np.int64)

    def _codes(self, keys):
        """One uint64 per cell key row, linear in the key modulo 2^64.
        Distinct cells may collide, which only adds candidates."""
        return keys.astype(np.uint64) @ self._mult

    def pairs(self, queries, reach):
        """(qi, ri): every (query row, index row) pair whose computed distance
        may be at most `reach`, sorted by qi then ri, without repeats."""
        queries = np.asarray(queries, float).reshape(-1, self.space.ambient_dim)
        m, nq = len(self._order), len(queries)
        chart = self._chart(queries)
        stats = map(max, self._stats, self._chart_stats(queries, chart))
        span = self._chart_reach(reach, tuple(stats)) / self.side
        dim = self.space.dim
        # a cell block of at least m cells costs more than comparing every row
        if nq == 0 or not span < m or (2 * math.ceil(span) + 1) ** dim >= m:
            return np.repeat(np.arange(nq), m), np.tile(np.arange(m), nq)
        k = math.ceil(span)
        offsets = np.asarray(list(itertools.product(range(-k, k + 1), repeat=dim)),
                             np.int64)
        # the code of key + offset is the sum of their codes
        codes = (self._codes(self._keys(chart))[:, None] + self._codes(offsets)).ravel()
        lo = self._sorted_codes.searchsorted(codes, side="left")
        counts = self._sorted_codes.searchsorted(codes, side="right") - lo
        ends = counts.cumsum()
        qi = np.repeat(np.arange(len(codes)) // len(offsets), counts)
        ri = self._order[np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])]
        flat = np.sort(qi * m + ri)
        keep = np.ones(len(flat), bool)
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        flat = flat[keep]
        return flat // m, flat % m


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
        self.centers = np.asarray([b.center for b in self.balls],
                                  float).reshape(-1, space.ambient_dim)
        self.radii = np.asarray([b.radius for b in self.balls], float)
        self.index = NeighbourIndex(space, self.centers, _pair_reach(space, self.radii))
        if check_cover and self.window:
            pi, ci = self.index.pairs(self.window, 0.5 * self.max_diameter)
            d = spaces.paired_distances(space, self.centers[ci],
                                        np.asarray(self.window)[pi])
            covered = np.zeros(len(self.window), bool)
            covered[pi[d < self.radii[ci]]] = True
            if not np.all(covered):
                p = self.window[int(np.argmin(covered))]
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


def _pair_reach(space, radii):
    """Distance below which two balls of the family may meet or touch within
    tolerance: the reach of the nerve's pairwise pass and of the indexes."""
    return 2.0 * float(np.max(radii, initial=0.0)) + 2.0 * space.tol


def _check_enumeration_bound(cover, action, context):
    """Raise if a word-length-L translate still reaches near the cover."""
    if not action.generators:
        return
    reach = cover.max_diameter
    for g, w in action.elements():
        if w != action.word_length:
            continue
        _, qi, ci, d = _translate_distances(cover, g, 2.0 * reach)
        if np.any(d < cover.radii[qi] + cover.radii[ci] + reach):
            raise EnumerationBound(
                f"{context}: translate at word length {action.word_length} still "
                "reaches the cover; increase word_length")


def _translate_distances(cover, g, reach):
    """Translates g.c of the cover's centres, and the candidate pairs (qi, ci)
    of `cover.index` within `reach` with d(c_ci, g.c_qi)."""
    gcs = np.asarray([g.apply(c) for c in cover.centers],
                     float).reshape(cover.centers.shape)
    qi, ci = cover.index.pairs(gcs, reach)
    return gcs, qi, ci, spaces.paired_distances(cover.space, cover.centers[ci], gcs[qi])


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
    space = cover.space
    centers, radii = cover.centers, cover.radii
    n = len(radii)
    tol = space.tol

    simplices = {(i,) for i in range(n)}
    # pairwise margins are exact: min of the max-margin along the geodesic
    ii, jj = cover.index.pairs(centers, _pair_reach(space, radii))
    upper = ii < jj
    ii, jj = ii[upper], jj[upper]
    margin = 0.5 * (spaces.paired_distances(space, centers[jj], centers[ii])
                    - radii[ii] - radii[jj])
    touching = np.flatnonzero(np.abs(margin) <= tol)
    if len(touching):
        i, j = int(ii[touching[0]]), int(jj[touching[0]])
        raise IndeterminateIntersection(
            f"balls {i},{j} touch within tolerance; perturb radii")
    neighbors = {i: [] for i in range(n)}
    for i, j in zip(ii[margin < 0].tolist(), jj[margin < 0].tolist()):
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
        self.centers = np.asarray([e.ball.center for e in elements],
                                  float).reshape(-1, cover.space.ambient_dim)
        self.radii = np.asarray([e.ball.radius for e in elements], float)
        self.index = NeighbourIndex(cover.space, self.centers,
                                    _pair_reach(cover.space, self.radii))

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
        gcs, qi, ci, d = _translate_distances(cover, g, cover.max_diameter)
        meets = np.zeros(len(cover.balls), bool)
        meets[qi[d < cover.radii[qi] + cover.radii[ci] - cover.space.tol]] = True
        for b in itertools.compress(cover.balls, meets):
            elements.append(AdjacencyElement(
                Ball(gcs[b.label], b.radius, next_label), g, w, b.label))
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
        _, near = self.cover.index.pairs(q, 0.5 * self.cover.max_diameter)
        d = spaces.distances_to(self.cover.space, self.cover.centers[near], q)
        vals[near] = np.maximum(0.0, self.cover.radii[near] - d)
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
