"""Ball covers, discrete group actions, adjacency, nerves, and the nerve projection.

A cover is a finite family of open metric balls that covers a sampled window.
The nerve's k-simplices are certified by a witness point, and rejected sets
by dual weights that exclude a common point (barycenters.minimax_solve); the
partition of unity behind the nerve projection uses tent weights r - d(q, c)
clipped at zero, pulled back through the group element attached to each
translate so that equivariance holds by construction.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from . import barycenters, simplicial, spaces
from .errors import (
    EnumerationBound,
    IndeterminateIntersection,
    PipelineInconsistency,
    PreconditionError,
    UncoveredPoint,
    check_budget,
)


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

    def _cells(self, span):
        """The reach k in cells of a query whose chart reach is `span` cell
        sides, or None when the query is compared with every row: a block of
        (2k + 1)^n cells, at least as many as the rows, costs more."""
        m = len(self._order)
        if not span < m or (2 * math.ceil(span) + 1) ** self.space.dim >= m:
            return None
        return math.ceil(span)

    def row_bound(self, reach):
        """Most pairs that `pairs` gives one query of the indexed points (or
        of points within their chart stats) at `reach`: the largest cell code
        occupancy times the (2k + 1)^n codes a query visits, or every row."""
        m = len(self._order)
        k = self._cells(self._chart_reach(reach, self._stats) / self.side)
        if k is None:
            return m
        codes = self._sorted_codes
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        occupancy = int(np.diff(starts, append=m).max())
        return min(m, occupancy * (2 * k + 1) ** self.space.dim)

    def pairs(self, queries, reach):
        """(qi, ri): every (query row, index row) pair whose computed distance
        may be at most `reach`, sorted by qi then ri, without repeats."""
        queries = np.asarray(queries, float).reshape(-1, self.space.ambient_dim)
        m, nq = len(self._order), len(queries)
        chart = self._chart(queries)
        stats = map(max, self._stats, self._chart_stats(queries, chart))
        k = self._cells(self._chart_reach(reach, tuple(stats)) / self.side)
        if nq == 0 or k is None:
            return np.repeat(np.arange(nq), m), np.tile(np.arange(m), nq)
        offsets = np.asarray(list(itertools.product(range(-k, k + 1), repeat=self.space.dim)),
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


class BallCover:
    """Finite cover of a sampled compact window by open metric balls: ball i
    has centre centers[i] and radius radii[i].

    Only Euclidean and hyperboloid spaces are accepted: build_nerve certifies
    pairwise intersections from the centre distance, which is exact only in a
    geodesic metric, and larger sets with the CAT(0) primal-dual solver.
    Chordal circles and finite spaces fail both.
    """

    def __init__(self, space, balls, window, check_cover=True):
        if not space.is_cat0:
            raise PreconditionError(
                f"ball covers need a Euclidean or hyperboloid space, not "
                f"{space.kind}: nerves of {space.kind} covers are not certified")
        self.space = space
        shape = (-1, space.ambient_dim)
        self.centers = np.asarray([c for c, _ in balls], float).reshape(shape)
        self.radii = np.asarray([r for _, r in balls], float)
        self.window = np.asarray(window, float).reshape(shape)
        self.index = NeighbourIndex(space, self.centers, _pair_reach(space, self.radii))
        if check_cover and len(self.window):
            pi, ci = self.index.pairs(self.window, 0.5 * self.max_diameter)
            d = spaces.paired_distances(space, self.centers[ci], self.window[pi])
            covered = np.zeros(len(self.window), bool)
            covered[pi[d < self.radii[ci]]] = True
            if not np.all(covered):
                p = self.window[int(np.argmin(covered))]
                raise UncoveredPoint(f"window sample {p} lies in no ball")

    def __len__(self):
        return len(self.radii)

    @property
    def max_diameter(self):
        """Upper bound 2r on element diameters; the delta of tightness checks."""
        return 2.0 * float(np.max(self.radii, initial=0.0))

    def to_json(self):
        return {"balls": [{"center": c, "radius": r, "label": i} for i, (c, r) in
                          enumerate(zip(self.centers.tolist(), self.radii.tolist()))],
                "window": self.window.tolist()}

    @staticmethod
    def from_json(space, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        balls = [(b["center"], b["radius"]) for b in doc["balls"]]
        return BallCover(space, balls, doc["window"])


# Most elements a GroupAction enumerates (two free generators give 2 * 3^L - 1
# within word length L); the presets and tests use at most 25.
GROUP_ELEMENTS = 2**10


class GroupAction:
    """Generators of a discrete isometry group and its elements of word length
    at most word_length, enumerated once.  Raises ValueError unless
    word_length is a whole number >= 0, BudgetExceeded past GROUP_ELEMENTS."""

    def __init__(self, space, generators, word_length=3):
        if isinstance(word_length, bool) or not (
                isinstance(word_length, (int, np.integer)) and word_length >= 0):
            raise ValueError(f"word_length {word_length!r} is not a whole number >= 0")
        self.space = space
        self.generators = [g.validate(space) for g in generators]
        self.word_length = int(word_length)
        ident = spaces.Isometry.identity(space)
        out, seen, start = [(ident, 0)], {ident.key()}, 0
        gens = [h for g in self.generators for h in (g, g.inverse())]
        for word in range(1, self.word_length + 1):
            frontier, start = out[start:], len(out)  # the elements of word length word - 1
            for (h, _), g in itertools.product(frontier, gens):
                cand = g.compose(h)
                key = cand.key()
                if key not in seen:
                    seen.add(key)
                    out.append((cand, word))
                    check_budget(len(out), GROUP_ELEMENTS,
                                 f"word_length {self.word_length}: {len(out)} group elements")
        self._elements = out

    def elements(self):
        """Deterministic duplicate-free enumeration (element, word_length), e first."""
        return self._elements

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
    gcs = g.apply(cover.centers)
    qi, ci = cover.index.pairs(gcs, reach)
    return gcs, qi, ci, spaces.paired_distances(cover.space, cover.centers[ci], gcs[qi])


# ---------------------------------------------------------------------------
# certified ball-intersection test


class IntersectionCertificate(NamedTuple):
    margin: float
    point: np.ndarray  # best witness: max_i d(point, c_i) - r_i = margin if margin < 0
    weights: np.ndarray | None  # dual weights over the balls, when the solver ran


def balls_intersection_margin(space, centers, radii):
    """Certified margin t of the closed balls B(c_i, r_i) (Euclidean or
    hyperboloid), with its certificate: t < -tol when the witness lies
    within r_i + t of every centre, t > tol when the weights certify that the
    balls B(c_i, r_i + t) have no common point (see _empty_margin); a value
    in [-tol, tol] means that neither certificate clears the tolerance band.

    centers (k, ambient) and radii (k,) give one certificate.  A stack of
    sets of the same size, centers (S, k, ambient) and radii (S, k), gives a
    list of S certificates from one probe pass per row block.  Probes (the
    centroid, pairwise geodesic midpoints, the centres) give fast witnesses;
    on the sets that no probe certifies, minimax_solve with every a_i = 1 and
    beta_i = r_i^2 (R^n) or cosh r_i (H^n) gives the optimal witness and dual
    weights.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    single = centers.ndim == 2
    if single:
        centers, radii = centers[None], radii[None]
    k = radii.shape[1]
    certs = []
    for rows in spaces.row_blocks(len(radii), (k + 1 + k * (k - 1) // 2) * k):
        C, r = centers[rows], radii[rows]
        probes = _probes(space, C)
        vals = np.max(spaces.paired_distances(space, C[:, None], probes[:, :, None])
                      - r[:, None], axis=-1)
        certs.extend(_certify(space, *row) for row in zip(C, r, probes, vals))
    return certs[0] if single else certs


def _probes(space, centers):
    """(S, P, ambient) probe points of a stack of centre sets: the centroid,
    the midpoint of each pair and the centres themselves.  In H^n a mean is
    projected back to the hyperboloid, which for a pair is its midpoint."""
    k = centers.shape[1]
    pairs = np.asarray(list(itertools.combinations(range(k), 2)), np.int64).reshape(-1, 2)
    means = np.concatenate([centers.mean(axis=1, keepdims=True),
                            centers[:, pairs].mean(axis=2)], axis=1)
    if space.kind == spaces.HYPERBOLOID:
        means = means / np.sqrt(-spaces.minkowski_rows(means, means))[..., None]
    return np.concatenate([means, centers], axis=1)


def _certify(space, centers, radii, probes, vals):
    """The certificate of one set from its probe values max_i d(p, c_i) - r_i:
    the first probe below -10 tol, else the solver's witness or weights."""
    below = np.flatnonzero(vals < -10 * space.tol)
    if len(below):
        return IntersectionCertificate(float(vals[below[0]]), probes[below[0]], None)
    best_at = int(np.argmin(vals))
    best, witness = float(vals[best_at]), probes[best_at]
    euclid = space.kind == spaces.EUCLIDEAN
    sol = barycenters.minimax_solve(space, centers, radii ** 2 if euclid else np.cosh(radii),
                                    np.ones(len(radii)))
    val = float(np.max(spaces.distances_to(space, centers, sol.point) - radii))
    if val < best:
        best, witness = val, sol.point
    if best < -space.tol:
        return IntersectionCertificate(best, witness, sol.weights)
    empty = _empty_margin(space, centers, radii, sol.weights)
    return IntersectionCertificate(empty if empty > space.tol else min(best, space.tol),
                                   witness, sol.weights)


def _empty_margin(space, centers, radii, w):
    """sup of the t for which weights w >= 0 with sum w_i = 1 certify that the
    balls B(c_i, r_i + t) have no common point (dual_bound > 0); -inf if none."""
    # dual_bound with beta = 0 is the spread: sum w_i |c_i - cbar|^2 or sqrt(-<v, v>)
    spread = barycenters.dual_bound(space, centers, np.zeros(len(w)), w)
    if space.kind == spaces.EUCLIDEAN:
        # spread > sum w_i (r_i + t)^2 = r2 + 2 t r1 + t^2
        r1, r2 = float(w @ radii), float(w @ radii ** 2)
        disc = r1 * r1 - r2 + spread
        return -r1 + math.sqrt(disc) if disc >= 0.0 else -math.inf
    # spread > sum w_i cosh(r_i + t) = ch cosh t + sh sinh t = floor cosh(t + phi)
    ch, sh = float(w @ np.cosh(radii)), float(w @ np.sinh(radii))
    floor = math.sqrt((ch - sh) * (ch + sh))
    return math.acosh(spread / floor) - math.atanh(sh / ch) if spread >= floor else -math.inf


def build_nerve(cover):
    """Nerve of a BallCover or AdjacencySet: one k-simplex per (k+1)-subset of
    elements with certified nonempty common intersection, as face arrays.
    Each level extends the rows of the last by the certified edges out of
    their last vertex, keeps the candidates whose drop-one faces all lie in
    that level, and certifies them in one stacked call.

    Margins inside [-tol, tol] raise IndeterminateIntersection.
    """
    space, centers, radii = cover.space, cover.centers, cover.radii
    n = len(radii)

    # pairwise margins are exact: min of the max-margin along the geodesic
    ii, jj = cover.index.pairs(centers, _pair_reach(space, radii))
    pairs = np.stack([ii, jj], axis=1)[ii < jj]  # sorted by i, then j
    i, j = pairs.T
    margin = 0.5 * (spaces.paired_distances(space, centers[j], centers[i]) - radii[i] - radii[j])
    touching = np.flatnonzero(np.abs(margin) <= space.tol)
    if len(touching):
        raise IndeterminateIntersection(
            f"balls {i[touching[0]]},{j[touching[0]]} touch within tolerance; perturb radii")
    edges = pairs[margin < 0]
    first = np.searchsorted(edges[:, 0], np.arange(n + 1))  # edges out of v: first[v:v + 2]
    nerve = simplicial.SimplicialComplex(range(n), faces=[np.arange(n)[:, None], edges])
    while True:
        F = nerve.faces[-1]
        lo, count = first[F[:, -1]], first[F[:, -1] + 1] - first[F[:, -1]]
        e = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        cands = np.concatenate([np.repeat(F, count, axis=0), edges[e, 1:]], axis=1)
        # keep those whose drop-one faces lie in F (dropping the last vertex gives F's row)
        cands = cands[np.all([nerve.find(np.delete(cands, m, axis=1)) >= 0
                              for m in range(F.shape[1])], axis=0)]
        if not len(cands):
            return nerve
        margins = np.array([cert.margin for cert in balls_intersection_margin(
            space, centers[cands], radii[cands])])
        touching = np.flatnonzero(np.abs(margins) <= space.tol)
        if len(touching):
            raise IndeterminateIntersection(
                f"balls {tuple(cands[touching[0]].tolist())} margin "
                f"{margins[touching[0]]:.2e} within tolerance")
        if not np.any(margins < 0):
            return nerve
        nerve = simplicial.SimplicialComplex(range(n), faces=nerve.faces + [cands[margins < 0]])


# ---------------------------------------------------------------------------
# adjacency


class AdjacencySet:
    """The cover itself plus every group translate meeting one of its
    elements: element i is cover ball base[i] moved by the group element
    action.elements()[group[i]], with centre centers[i] and radius radii[i].
    The base cover comes first, in its own order (group 0, the identity)."""

    def __init__(self, cover, action, group, base, centers):
        self.cover, self.action = cover, action
        self.group, self.base = group, base
        self.centers, self.radii = centers, cover.radii[base]
        self.index = NeighbourIndex(cover.space, self.centers,
                                    _pair_reach(cover.space, self.radii))

    def __len__(self):
        return len(self.base)

    @property
    def space(self):
        return self.cover.space


def adjacency(cover, action):
    """Adj(U): U plus all translates hU with h != e meeting some element of U."""
    _check_enumeration_bound(cover, action, "adjacency")
    n = len(cover)
    group, base, centers = [np.zeros(n, np.int64)], [np.arange(n)], [cover.centers]
    for k, (g, _) in enumerate(action.nontrivial(), 1):  # elements() lists e first
        gcs, qi, ci, d = _translate_distances(cover, g, cover.max_diameter)
        meets = np.zeros(n, bool)
        meets[qi[d < cover.radii[qi] + cover.radii[ci] - cover.space.tol]] = True
        rows = np.flatnonzero(meets)
        group.append(np.full(len(rows), k))
        base.append(rows)
        centers.append(gcs[rows])
    return AdjacencySet(cover, action, np.concatenate(group), np.concatenate(base),
                        np.concatenate(centers))


# ---------------------------------------------------------------------------
# nerve projection (the equivariant partition of unity)


class NerveProjector:
    """Equivariant projection of covered points onto the nerve of Adj(U).

    Weights are normalized tents x_i(q) = max(0, r_i - d(q, c_i)); translate
    elements evaluate their tent by pulling the query back through the
    attached group element, so equivariance holds identically.
    """

    def __init__(self, cover, action):
        self.cover = cover
        self.action = action
        self.adj = adjacency(cover, action)
        self.nerve = build_nerve(self.adj)
        self._inverses = [g.inverse() for g, _ in action.elements()]
        n = len(cover)
        self._translates = list(zip(range(n, len(self.adj)), self.adj.group[n:].tolist(),
                                    self.adj.base[n:].tolist()))

    def _positive_tents(self, Q, start=0):
        """The positive tents of the rows of Q as triples (start + row,
        element, value), sorted by row then element; no row x element array
        is made.  Base balls take their candidates from one index query; each
        translate pulls every row back through its group element."""
        cover, n = self.cover, len(self.adj)
        qi, ci = cover.index.pairs(Q, 0.5 * cover.max_diameter)
        vals = [cover.radii[ci] - spaces.paired_distances(cover.space, cover.centers[ci], Q[qi])]
        rows, elems, pulled = [qi], [ci], {}
        for i, k, b in self._translates:
            if k not in pulled:
                pulled[k] = self._inverses[k].apply(Q)
            t = cover.radii[b] - spaces.distance_rows(cover.space, cover.centers[b], pulled[k])
            rows.append(np.flatnonzero(t > 0.0))
            elems.append(np.full(len(rows[-1]), i))
            vals.append(t[rows[-1]])
        rows, elems, vals = (np.concatenate(x) for x in (rows, elems, vals))
        keep = np.flatnonzero(vals > 0.0)
        keep = keep[np.argsort(rows[keep] * n + elems[keep], kind="stable")]
        return rows[keep] + start, elems[keep], vals[keep]

    def tents(self, q):
        """Tents x_i(q) over the adjacency: a vector for one point, an (m, len(adj))
        array for m rows (project_rows keeps each row's support only)."""
        Q = np.asarray(q, float).reshape(-1, self.cover.space.ambient_dim)
        out = np.zeros((len(Q), len(self.adj)))
        rows, elems, vals = self._positive_tents(Q)
        out[rows, elems] = vals
        return out if np.ndim(q) > 1 else out[0]

    def project_rows(self, Q):
        """(ids, weights) of the rows of Q: row r holds its support simplex's
        ids ascending, padded with its first id to the widest support, and
        their tents over their sum, 0 on the pads.  The sum folds the columns
        left to right (np.sum's order below 8 terms), so each row has the
        bits of project on that row alone.  One nerve.find per support size
        tests the supports."""
        Q = np.asarray(Q, float).reshape(-1, self.cover.space.ambient_dim)
        reach = 0.5 * self.cover.max_diameter
        blocks = spaces.row_blocks(len(Q), self.cover.index.row_bound(reach)) or [slice(0, 0)]
        rows, elems, vals = map(np.concatenate,
                                zip(*[self._positive_tents(Q[b], b.start) for b in blocks]))
        count = np.bincount(rows, minlength=len(Q))
        pad = np.arange(max(count.max(initial=0), 1)) >= count[:, None]
        ids, w = np.zeros(pad.shape, np.int64), np.zeros(pad.shape)
        ids[~pad], w[~pad] = elems, vals  # row-major, as the triples are sorted
        ids = np.where(pad, ids[:, :1], ids)
        bad = count == 0
        for k in range(1, pad.shape[1] + 1):
            bad[count == k] = self.nerve.find(ids[count == k, :k]) < 0
        for r in np.flatnonzero(bad)[:1]:  # the first row that fails
            if not count[r]:
                raise UncoveredPoint("query point lies outside every adjacency element")
            raise PipelineInconsistency(f"support {tuple(ids[r, :count[r]].tolist())} "
                                        "witnessed by a point but absent from the nerve")
        return ids, w / np.add.accumulate(w, axis=1)[:, -1:]

    def project(self, q):
        """Return (support simplex as label tuple, weights summing to 1)."""
        ids, w = self.project_rows(q)
        support = tuple(dict.fromkeys(ids[0].tolist()))  # the pads repeat its first id
        return support, w[0, :len(support)]


# ---------------------------------------------------------------------------
# translate gaps and the relative diameter


def _cross_blocks(space, A, B):
    """d(a, b) over A x B, one (rows of B) x A block at a time."""
    for rows in spaces.row_blocks(len(B), len(A)):
        yield spaces.paired_distances(space, A[None], B[rows, None])


def translate_gaps(action, K):
    """[(g, word length, min over p, p' in K of d(g p, p'))] for each
    nontrivial group element g, the distances taken in row blocks of K."""
    space = action.space
    K = np.asarray(K, float).reshape(-1, space.ambient_dim)
    return [(g, w, min(float(np.min(d)) for d in _cross_blocks(space, g.apply(K), K)))
            for g, w in action.nontrivial()]


def diam_K_Kout(action, gaps, K_out, slack=0.0):
    """sup of diam(hK_out u K_out) over group elements h with hK n K != empty,
    where `gaps` is translate_gaps(action, K).

    Intersection is judged at sample resolution: dist(hK, K) <= slack,
    with slack defaulting to 0 (identity always qualifies).  diam(K_out) is
    taken once; each qualifying h adds diam(hK_out) and the hK_out x K_out
    pairs, the same distances as the union's (K_out of three or more rows).
    """
    space = action.space
    K_out = np.asarray(K_out, float)
    best = spaces.pairwise_diameter(space, K_out)
    for g, w, dmin in gaps:
        if dmin > slack + space.tol:
            continue
        if w == action.word_length and action.generators:
            raise EnumerationBound(
                "diam_K_Kout: a qualifying translate sits at the word-length bound")
        gK = g.apply(K_out)
        best = max(best, spaces.pairwise_diameter(space, gK),
                   max(float(np.max(d)) for d in _cross_blocks(space, gK, K_out)))
    return best
