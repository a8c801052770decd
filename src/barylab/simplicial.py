"""Simplicial complexes as integer arrays, barycentric subdivision, rooms.

A complex's vertices are its rows 0..n-1; ids[r] is the label of vertex row
r, ascending, read only where a document or caller supplies or prints
labels.  faces[k] holds the k-simplices as ascending rows of vertex rows,
rows in lexicographic order, faces[0] every row; gid offsets[k] + row numbers
all simplices in (|J|, J) order.  Barycentric subdivision makes vertex row r
the barycenter of gid r, so rows ascend along every chain J_1 < ... < J_k and
the last vertex is J_k; it keeps singleton ids and numbers the other J above
every original id, so the parent's ids are a prefix of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnknownSimplex
from . import errors, spaces

# Largest complex, in simplices, that barycentric_subdivision builds.  The
# order-3 half-window hyperbolic_axis run builds 1,126,369 simplices at its
# last stage and peaks at 256 MB; a triangle strip in R^2 whose sixth stage
# builds 3,780,993 peaks at 528 MB, so a stage at the budget stays far below
# a 2 GB address space.  A triangle grows 6-fold a stage: order 8 exceeds it.
SUBDIVISION_BUDGET = 4_000_000


def _find(keys, rows):
    """Row of each of `rows` (ascending vertex rows) in the face array whose
    keys are keys[k] (keys[0]: the vertex rows); -1 where absent."""
    idx = rows[:, 0]
    for j in range(1, rows.shape[1]):
        key = idx * len(keys[0]) + rows[:, j]
        pos = np.searchsorted(keys[j], key)
        hit = (idx >= 0) & (keys[j][np.minimum(pos, len(keys[j]) - 1)] == key)
        idx = np.where(hit, pos, -1)
    return idx


@functools.lru_cache(maxsize=None)
def _columns(d):
    """The faces of a d-simplex as vertex positions, in face-table order."""
    return [c for m in range(1, d + 2) for c in itertools.combinations(range(d + 1), m)]


@functools.lru_cache(maxsize=None)
def _flag_pattern(d):
    """Per length L, the face-table columns of every chain of L faces of a
    d-simplex that ends at the simplex."""
    col = {frozenset(c): i for i, c in enumerate(_columns(d))}
    level, out = [(frozenset(range(d + 1)),)], []
    while level:
        out.append(np.array([[col[s] for s in ch] for ch in level], dtype=np.intp))
        level = [(s,) + ch for ch in level for s in col if s < ch[0]]
    return out


def _flags(n, length):
    """Chains of `length` faces of an (n-1)-simplex ending at the simplex:
    the surjections of its n vertices onto `length` ordered levels."""
    return sum((-1) ** j * math.comb(length, j) * (length - j) ** n for j in range(length + 1))


def check_budget(counts, stages=1):
    """Raise BudgetExceeded, allocating nothing, if one of `stages`
    subdivisions of a complex of `counts` simplices by dimension is too big."""
    for stage in range(1, stages + 1):
        counts = [sum(n * _flags(k + 1, length) for k, n in enumerate(counts))
                  for length in range(1, len(counts) + 1)]
        errors.check_budget(sum(counts), SUBDIVISION_BUDGET,
                            f"subdivision stage {stage} would build {sum(counts)} simplices")


def sorted_unique(a):
    """The distinct entries of a 1-d array, or the distinct rows of a 2-d
    one, in ascending (lexicographic) order, as np.unique(a, axis=0) gives
    them for integers; np.unique would import numpy.ma."""
    a = np.asarray(a)
    a = np.sort(a) if a.ndim == 1 else a[np.lexsort(a.T[::-1])]
    new = np.ones(len(a), bool)
    new[1:] = np.any(a[1:] != a[:-1], axis=tuple(range(1, a.ndim)))
    return a[new]


class SimplicialComplex:
    def __init__(self, vertices, simplices=(), faces=None):
        """From vertex ids and simplices over them, or from vertex ids and
        sorted face arrays over their rows.  Raises ValueError naming the
        vertex if a simplex uses an unlisted id or a listed id has no
        0-simplex."""
        if not (isinstance(vertices, np.ndarray) and vertices.dtype == np.int64):
            vertices = np.fromiter(map(int, vertices), dtype=np.int64)
        self.ids = sorted_unique(vertices)
        if faces is None:
            row = dict(zip(self.ids.tolist(), itertools.count()))
            simplices = [sorted(map(int, s)) for s in simplices if len(s)]
            bad = next(((s, v) for s in simplices for v in s if v not in row), None)
            if bad:
                raise ValueError(f"simplex {tuple(bad[0])} uses unlisted vertex {bad[1]}")
            faces = [sorted_unique(np.array([[row[v] for v in s] for s in simplices
                                             if len(s) == k + 1], dtype=np.int64).reshape(-1, k + 1))
                     for k in range(max([2, *map(len, simplices)]))]
            has = np.zeros(len(self.ids), bool)
            has[faces[0][:, 0]] = True
            if not has.all():
                raise ValueError(f"vertex {self.ids[~has][0]} has no 0-simplex")
        self.faces, self.counts = faces, [len(F) for F in faces]
        self.offsets = np.cumsum([0] + self.counts)
        self.dimension = max((k for k, n in enumerate(self.counts) if n), default=-1)

    @staticmethod
    def from_maximal(simplices):
        """Close the given simplices under taking faces."""
        simplices = [tuple(sorted(s)) for s in simplices]
        return SimplicialComplex({v for s in simplices for v in s}, {
            c for s in simplices for k in range(1, len(s) + 1)
            for c in itertools.combinations(s, k)})

    @cached_property
    def _keys(self):
        """Row keys: prefix row * n_0 + last vertex row, ascending per array."""
        keys = [self.faces[0][:, 0]]
        for F in self.faces[1:]:
            keys.append(_find(keys, F[:, :-1]) * len(keys[0]) + F[:, -1])
        return keys

    def find(self, rows):
        """Row of each of `rows` (ascending vertex rows) in its face array, or -1."""
        return _find(self._keys, rows) if rows.shape[1] <= self.dimension + 1 else \
            np.full(len(rows), -1)  # no face of that size

    @cached_property
    def face_tables(self):
        """Per dimension d, the gids of every d-simplex's 2**(d+1) - 1 faces
        in (size, combinations) order, itself last, found by the keys."""
        tables = []
        for d, F in enumerate(self.faces):
            combos = [list(itertools.combinations(range(d + 1), m + 1)) for m in range(d + 1)]
            tables.append(np.hstack([
                self.find(F[:, c].reshape(-1, m + 1)).reshape(len(F), len(c))
                + self.offsets[m] for m, c in enumerate(combos)]))
        return tables

    @cached_property
    def vertices(self):
        return frozenset(self.ids.tolist())

    @cached_property
    def simplices(self):
        """Every simplex as a tuple of vertex ids."""
        return frozenset(tuple(r) for F in self.faces for r in self.ids[F].tolist())

    def to_json(self):
        return {"vertices": self.ids.tolist(),
                "simplices": [list(s) for s in sorted(self.simplices)]}

    @staticmethod
    def from_json(doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        return SimplicialComplex(doc["vertices"], [tuple(s) for s in doc["simplices"]])


def validate(complex_):
    """Diagnostic check of the face-closure and well-formedness invariants.

    Returns a list of violation strings; empty means ok.
    """
    violations = []
    for s in sorted(complex_.simplices):
        if len(set(s)) != len(s):
            violations.append(f"simplex {s} repeats a vertex")
        if len(s) > 1:
            for face in itertools.combinations(s, len(s) - 1):
                if face not in complex_.simplices:
                    violations.append(f"face {face} of {s} missing")
    return violations


def barycentric_subdivision(complex_):
    """Barycentric subdivision: the vertices are the simplices J of the input
    (vertex row r the simplex of gid r), the k-simplices the chains J_1 < ...
    < J_{k+1}, one flag pattern per simplex dimension applied to the face
    tables.  Raises BudgetExceeded above SUBDIVISION_BUDGET simplices."""
    check_budget(complex_.counts)
    n, top = int(complex_.offsets[-1]), complex_.dimension
    start = int(complex_.ids.max(initial=-1)) + 1
    keys = [np.arange(n)]  # chains of gids (vertex rows), sorted by key
    rows = [keys[0][:, None]]
    for length in range(2, max(top, 1) + 2):
        chains = np.concatenate([np.zeros((0, length), dtype=np.int64)] + [
            complex_.face_tables[d][:, _flag_pattern(d)[length - 1]].reshape(-1, length)
            for d in range(length - 1, top + 1)])
        key = _find(keys, chains[:, :-1]) * n + chains[:, -1]
        order = np.argsort(key)
        rows.append(chains[order])
        keys.append(key[order])
    ids = np.concatenate([complex_.ids, np.arange(start, start + n - len(complex_.ids))])
    sub = SimplicialComplex(ids, faces=rows)
    sub._keys = keys
    return sub


def room(complex_, sigma):
    """Closure of the union of all simplices of the complex containing sigma."""
    sigma = tuple(sorted(sigma))
    if sigma not in complex_.simplices:
        raise UnknownSimplex(f"simplex {sigma} not in complex")
    return SimplicialComplex.from_maximal(
        s for s in complex_.simplices if set(sigma) <= set(s))


@dataclass
class VertexMap:
    """Labelling of a complex's vertices by points of a model space: vertex
    ids[r] goes to points[r], an index for finite spaces.  The ids are kept
    ascending, with their points reordered to match."""

    target: spaces.ModelSpace
    ids: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, np.int64).reshape(-1)
        if self.target.kind == spaces.FINITE:
            points = np.asarray(self.points, np.int64).reshape(len(ids))
        else:
            points = np.asarray(self.points, float).reshape(len(ids), self.target.ambient_dim)
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, points = ids[order], points[order]
        self.ids, self.points = ids, points

    def at(self, vertices):
        """Labels of an array of vertex ids, one row each."""
        vertices = np.asarray(vertices, np.int64)
        rows = self.ids.searchsorted(vertices)
        if vertices.size and not (len(self.ids) and
                                  (self.ids.take(rows, mode="clip") == vertices).all()):
            missing = np.setdiff1d(vertices, self.ids)[:5].tolist()
            raise KeyError(f"vertex map misses vertices {missing}")
        return self.points[rows]

    def __call__(self, vertex):
        return self.at(vertex)

    def check_total(self, complex_):
        self.at(complex_.ids)

    def to_json(self):
        return dict(zip(map(str, self.ids.tolist()), self.points.tolist()))

    @staticmethod
    def from_json(target, doc):
        labels = {int(v): target.point(p) for v, p in doc.items()}
        return VertexMap(target, list(labels), list(labels.values()))


def map_diameter(complex_, iota):
    """max over simplices of the image diameter; equal to the max over edges,
    taken in one distance_rows pass over the edges' labels."""
    ends = iota.at(complex_.ids)[complex_.faces[1]]
    return float(np.max(spaces.distance_rows(iota.target, ends[:, 0], ends[:, 1]), initial=0.0))
