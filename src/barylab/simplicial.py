"""Abstract simplicial complexes, barycentric subdivision with provenance, rooms.

Vertices are opaque integers; a simplex is a sorted tuple of vertex ids and
the simplex set is closed under taking faces (validate() reports violations).
Barycentric subdivision keeps original vertex ids for singletons and assigns
fresh ids to proper barycenters, recording for every subdivision vertex the
set J of original ids it barycenters.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import ProvenanceCorruption, UnknownSimplex
from . import spaces


def _norm(simplex):
    return tuple(sorted(simplex))


class SimplicialComplex:
    def __init__(self, vertices, simplices):
        self.vertices = frozenset(int(v) for v in vertices)
        self.simplices = frozenset(_norm(s) for s in simplices)
        self.dimension = max((len(s) for s in self.simplices), default=0) - 1

    @staticmethod
    def from_maximal(simplices):
        """Close the given simplices under taking faces."""
        closed = set()
        verts = set()
        for s in simplices:
            s = _norm(s)
            verts.update(s)
            for k in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, k))
        return SimplicialComplex(verts, closed)

    def __contains__(self, simplex):
        return _norm(simplex) in self.simplices

    def simplices_of_dim(self, k):
        return sorted(s for s in self.simplices if len(s) == k + 1)

    @property
    def edges(self):
        return self.simplices_of_dim(1)

    def top_simplices(self):
        """Simplices that are not a proper face of any other simplex."""
        tops = []
        for s in self.simplices:
            ss = set(s)
            if not any(ss < set(t) for t in self.simplices if len(t) > len(s)):
                tops.append(s)
        return sorted(tops)

    def star_simplices(self, sigma):
        """All simplices containing sigma."""
        sigma = set(_norm(sigma))
        return sorted(s for s in self.simplices if sigma <= set(s))

    def to_json(self):
        return {"vertices": sorted(self.vertices),
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
        if tuple(sorted(s)) != s:
            violations.append(f"simplex {s} is not sorted")
        for v in s:
            if v not in complex_.vertices:
                violations.append(f"simplex {s} uses unknown vertex {v}")
        if len(s) > 1:
            for face in itertools.combinations(s, len(s) - 1):
                if face not in complex_.simplices:
                    violations.append(f"face {face} of {s} missing")
    return violations


@dataclass
class SubdivisionProvenance:
    """Map from every subdivision vertex id to the original vertex set it barycenters."""

    sets: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def of(self, vertex):
        return self.sets[vertex]

    def compose(self, older):
        """Resolve through an earlier provenance so sets refer to the original complex."""
        out = {}
        for v, js in self.sets.items():
            acc = set()
            for j in js:
                acc.update(older.sets[j])
            out[v] = tuple(sorted(acc))
        return SubdivisionProvenance(out)

    @staticmethod
    def identity(complex_):
        return SubdivisionProvenance({v: (v,) for v in complex_.vertices})


def barycentric_subdivision(complex_):
    """Barycentric subdivision with vertex provenance.

    Subdivision vertices are the simplices J of the input; k-simplices are
    strict chains J_1 < ... < J_{k+1}.  Singleton vertices keep their ids.
    """
    prov = SubdivisionProvenance()
    vertex_of = {}
    next_id = max(complex_.vertices, default=-1) + 1
    for s in sorted(complex_.simplices, key=lambda s: (len(s), s)):
        if len(s) == 1:
            vertex_of[s] = s[0]
            prov.sets[s[0]] = s
        else:
            vertex_of[s] = next_id
            prov.sets[next_id] = s
            next_id += 1

    strict_cofaces = {s: [] for s in complex_.simplices}
    for t in complex_.simplices:
        for k in range(1, len(t)):
            for s in itertools.combinations(t, k):
                if s in strict_cofaces:
                    strict_cofaces[s].append(t)

    new_simplices = set()

    def grow(chain_ids, last):
        new_simplices.add(tuple(sorted(chain_ids)))
        for bigger in strict_cofaces[last]:
            grow(chain_ids + [vertex_of[bigger]], bigger)

    for s in complex_.simplices:
        grow([vertex_of[s]], s)

    sub = SimplicialComplex(vertex_of.values(), new_simplices)
    return sub, prov


def room(complex_, sigma):
    """Closure of the union of all simplices of the complex containing sigma."""
    sigma = _norm(sigma)
    if sigma not in complex_.simplices:
        raise UnknownSimplex(f"simplex {sigma} not in complex")
    closed = set()
    verts = set()
    for s in complex_.star_simplices(sigma):
        verts.update(s)
        for k in range(1, len(s) + 1):
            closed.update(itertools.combinations(s, k))
    return SimplicialComplex(verts, closed)


@dataclass
class VertexMap:
    """Labeling of a complex's vertices by points of a model space."""

    target: spaces.ModelSpace
    assignment: dict

    def __call__(self, vertex):
        return self.assignment[vertex]

    def check_total(self, complex_):
        missing = sorted(v for v in complex_.vertices if v not in self.assignment)
        if missing:
            raise KeyError(f"vertex map misses vertices {missing[:5]}")

    def to_json(self):
        return {str(v): (list(p) if not isinstance(p, int) else p)
                for v, p in sorted(self.assignment.items())}

    @staticmethod
    def from_json(target, doc):
        assignment = {int(v): target.point(p) for v, p in doc.items()}
        return VertexMap(target, assignment)


def map_diameter(complex_, iota):
    """max over simplices of the image diameter; equal to the max over edges."""
    iota.check_total(complex_)
    best = 0.0
    for (u, v) in complex_.edges:
        d = spaces.distance(iota.target, iota(u), iota(v))
        if d > best:
            best = d
    return best


def map_diameter_all_simplices(complex_, iota):
    """Reference evaluation over every simplex (oracle for the edge shortcut)."""
    iota.check_total(complex_)
    best = 0.0
    for s in complex_.simplices:
        best = max(best, spaces.pairwise_diameter(iota.target, [iota(v) for v in s]))
    return best


def least_containing_simplex(parent, prov, sigma_sub):
    """Least-dimensional simplex of the parent complex containing a subdivision simplex."""
    union = set()
    for v in sigma_sub:
        try:
            union.update(prov.of(v))
        except KeyError as exc:
            raise ProvenanceCorruption(f"vertex {v} has no provenance") from exc
    sigma = tuple(sorted(union))
    if sigma not in parent.simplices:
        raise ProvenanceCorruption(
            f"provenance union {sigma} spans no simplex of the parent")
    return sigma
