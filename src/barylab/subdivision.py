"""Lambda-shrinking subdivisions via barycentric subdivision and minimax barycenters.

Each barycentric-subdivision vertex U_J is labeled, in order of increasing
|J|, by a lambda-barycenter of the already-labeled subdivision vertices on
the boundary of sigma_J, relative to every already-labeled vertex in the room
around sigma_J.  With a partial group action supplied, barycenters are solved
only for orbit representatives and propagated exactly by isometry.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import barycenters, simplicial, spaces
from .errors import DiameterTooLarge, ModelSpaceViolation, NoBarycenter


@dataclass
class StageRecord:
    """One stage's columns: per sub-edge, per parent simplex in gid order."""

    stage: int
    lam: float
    edges: np.ndarray  # (n, 2) sub-edge vertex ids, in lexicographic order
    after: np.ndarray  # image length of each sub-edge
    before: np.ndarray  # image diameter of its least containing parent
    inside: np.ndarray  # per parent: diameter of its contained vertices' images
    parent_diams: np.ndarray  # per parent: its image diameter

    def max_ratio(self):
        pos = self.before > 0
        return float(np.max(self.after[pos] / self.before[pos], initial=0.0))


@dataclass
class ShrinkRecord:
    """Stages, then final columns against the ORIGINAL complex: edges and
    their image lengths; per vertex, its least original simplex's image
    diameter and the extreme distances to that simplex's vertex images.
    Only verify_shrinking reads original_diam and the per-vertex columns,
    so they are computed together, once, on the first read of one."""

    lam: float
    order: int
    stages: list
    final_edges: np.ndarray
    final_diams: np.ndarray
    original: simplicial.SimplicialComplex
    original_iota: simplicial.VertexMap
    iota: simplicial.VertexMap  # the final labels
    prov_total: simplicial.SubdivisionProvenance

    @functools.cached_property
    def _columns(self):
        """(image diameter of each original simplex in gid order, then per
        final vertex row the max and the min of its distances to the vertex
        images of its least original simplex), in row blocks."""
        space, original, face = self.iota.target, self.original, self.prov_total.face
        table = self.iota.at(self.prov_total.ids)
        orig_table = self.original_iota.at(original.faces[0][:, 0])
        diams = np.concatenate([_diameters(space, orig_table, t[:, :d + 1])
                                for d, t in enumerate(original.face_tables)])
        dims = np.searchsorted(original.offsets, face, side="right") - 1
        hi, lo = np.zeros(len(face)), np.zeros(len(face))
        for d, t in enumerate(original.face_tables):
            members = np.flatnonzero(dims == d)
            sigma = t[face[members] - original.offsets[d], :d + 1]
            for rows in spaces.row_blocks(len(members), 2 * (d + 2)):
                block = members[rows]
                dist = spaces.paired_distances(space, table[block][:, None],
                                               orig_table[sigma[rows]])
                hi[block], lo[block] = dist.max(axis=1), dist.min(axis=1)
        return diams, hi, lo

    original_diam = property(lambda self: float(np.max(self._columns[0], initial=0.0)))
    vertices = property(lambda self: self.prov_total.ids)
    sigma_diams = property(lambda self: self._columns[0][self.prov_total.face])
    max_dists = property(lambda self: self._columns[1])
    min_dists = property(lambda self: self._columns[2])

    def to_csv(self):
        lines = ["# barylab shrink record v1",
                 "stage,simplex,diam_before,diam_after,bound,slack"]
        for st in self.stages:
            for (u, v), after, before in zip(st.edges.tolist(), st.after.tolist(),
                                             st.before.tolist()):
                bound = st.lam * before
                lines.append(f"{st.stage},{u} {v},{before:.17g},{after:.17g},"
                             f"{bound:.17g},{bound - after:.17g}")
        return "\n".join(lines) + "\n"


def _solve_label(space, P, Q, lam):
    """The circle's arc rule where its bound holds at lam in the chordal
    metric, else solve_barycenter.  CAT(0) kinds come here only with the
    rows whose midpoint label _label_rows's batched check rejected."""
    if space.kind == spaces.CIRCLE:
        try:
            b = barycenters.circle_arc_rule(space, P, Q).point
        except (DiameterTooLarge, ModelSpaceViolation):
            b = None
        tol = space.tol
        if b is not None and (spaces.pairwise_diameter(space, P) <= tol or (
                barycenters.lambda_of(space, b, P) <= lam + tol
                and min(barycenters.relative_slacks(space, b, P, Q), default=0.0) >= -tol)):
            return b
    cert = barycenters.solve_barycenter(
        barycenters.BarycenterProblem(space, list(P), list(Q)), lam)
    if not cert.found:
        raise NoBarycenter(
            f"no {lam}-barycenter for |P|={len(P)}, |Q|={len(Q)}",
            certificate=cert)
    return cert.point


def _points(table, rows):
    """Labels of table rows as _solve_label takes them (finite ones as ints)."""
    pts = table[rows]
    return pts.tolist() if pts.ndim == 1 else list(pts)


def _diameters(space, table, rows):
    """Image diameter of each row of `rows`, an (n, m) array of table rows,
    over its pairs i < j (0.0 for m < 2), one kernel call per row block."""
    out = np.zeros(len(rows))
    i, j = np.triu_indices(rows.shape[1], 1)
    for block in spaces.row_blocks(len(rows), rows.shape[1] + 2 * len(i)):
        pts = table[rows[block]]
        out[block] = spaces.paired_distances(space, pts[:, i], pts[:, j]).max(
            axis=1, initial=0.0)
    return out


def _label_rows(space, table, p_rows, q_rows, q_ok, lam):
    """Labels of a block of new vertices of one level (every J of one size):
    row r's P is the labels of table rows p_rows[r], its Q of q_rows[r]
    where q_ok[r].  CAT(0) kinds take the midpoint rule for the whole block
    (one diameter_midpoints call, one batched check of lambda and the
    slacks), and only the rows that fail it go to solve_barycenter (through
    _solve_label); other kinds go to _solve_label row by row."""
    if not space.is_cat0:
        return [_solve_label(space, _points(table, p), _points(table, q[ok]), lam)
                for p, q, ok in zip(p_rows, q_rows, q_ok)]
    P = table[p_rows]
    D, labels = barycenters.diameter_midpoints(space, P)
    moved = np.flatnonzero(D > space.tol)
    if len(moved):
        P, Q, Q_ok, D = P[moved], table[q_rows[moved]], q_ok[moved], D[moved]
        B = labels[moved][:, None]
        ach = np.max(spaces.paired_distances(space, P, B), axis=1) / D
        qp = np.max(spaces.paired_distances(space, Q[:, :, None], P[:, None]), axis=2)
        slacks = np.where(Q_ok, np.maximum(D[:, None], qp)
                          - spaces.paired_distances(space, Q, B), np.inf)
        ok = ((ach <= min(lam, barycenters.SQRT3_OVER_2) + space.tol)
              & (np.min(slacks, axis=1, initial=np.inf) >= -space.tol))
        for r in moved[~ok]:
            labels[r] = _solve_label(space, _points(table, p_rows[r]),
                                     _points(table, q_rows[r][q_ok[r]]), lam)
    return labels


def _rooms(complex_, d):
    """Q rows of level d, padded, as (q_rows, q_ok): the room of the
    d-simplex of row i, the faces of size at most d of its strict cofaces
    less its own faces, is q_rows[i][q_ok[i]] in ascending gid (and id)."""
    tables, n = complex_.face_tables, int(complex_.offsets[-1])
    pairs = [np.zeros(0, dtype=np.int64)]
    for e in range(d + 1, complex_.dimension + 1):
        cols = simplicial._columns(e)
        for j in (j for j, J in enumerate(cols) if len(J) == d + 1):
            others = [i for i, c in enumerate(cols) if len(c) <= d and not set(c) <= set(cols[j])]
            pairs.append((tables[e][:, [j]] * n + tables[e][:, others]).ravel())
    J, F = np.divmod(simplicial.sorted_unique(np.concatenate(pairs)), n)
    ptr = np.searchsorted(J, np.arange(complex_.offsets[d], complex_.offsets[d + 1] + 1))
    q_ok = np.arange(np.max(np.diff(ptr), initial=0)) < np.diff(ptr)[:, None]
    return np.append(F, 0)[np.where(q_ok, ptr[:-1, None] + np.arange(q_ok.shape[1]), -1)], q_ok


def _lift(complex_, maps):
    """Lift partial vertex maps (arrays over vertex rows, -1 where undefined)
    through a subdivision: each simplex's image gid, or -1."""
    ids, lifted = complex_.faces[0][:, 0], []
    for h, vmap in maps:
        parts = []
        for d, table in enumerate(complex_.face_tables):
            img = vmap[table[:, :d + 1]]
            found = complex_.find(np.sort(ids[np.maximum(img, 0)], axis=1))
            parts.append(np.where(np.all(img >= 0, axis=1) & (found >= 0),
                                  found + complex_.offsets[d], -1))
        lifted.append((h, np.concatenate(parts)))
    return lifted


def _orbits(maps):
    """Orbits (rep, word, isos) of the vertex rows under a lifted action.
    rep[v] is the smallest row with a forward path to v, so a rep
    is its own rep (with inverses: the least member of v's component); the
    paths form a BFS tree per rep in row order (frontier, then images
    ascending, then maps in order; first claim wins), and isos[word[v]]
    carries rep[v]'s label to v's."""
    imgs = np.array([m for _, m in maps])
    h, src = np.nonzero(imgs >= 0)
    dst = imgs[h, src]
    rep, prev = np.arange(imgs.shape[1]), None
    while not np.array_equal(rep, prev):
        prev = rep.copy()
        np.minimum.at(rep, dst, prev[src])
    same = rep[src] == rep[dst]
    h, src, dst = h[same], src[same], dst[same]
    word, isos = np.full(len(rep), -1), []
    depth = np.where(rep == np.arange(len(rep)), 0, -1)  # BFS level, -1 unreached
    for k in itertools.count():
        e = np.flatnonzero((depth[src] == k) & (depth[dst] < 0))
        if not len(e):
            return rep, word, isos
        e = e[np.lexsort((h[e], src[e], dst[e]))]
        e = e[np.r_[True, dst[e][1:] != dst[e][:-1]]]  # first claim per image
        pairs, inverse = np.unique((word[src[e]] + 1) * len(maps) + h[e],
                                   return_inverse=True)
        for w, g in zip(*np.divmod(pairs, len(maps))):
            isos.append(maps[g][0] if w == 0 else maps[g][0].compose(isos[w - 1]))
        word[dst[e]] = len(isos) - len(pairs) + inverse
        depth[dst[e]] = k + 1


def shrinking_subdivide(complex_, iota, lam, equivariance=None):
    """One lambda-shrinking subdivision step (the barycentric route).

    `equivariance` is the partial action as a list of (Isometry, vertex map)
    pairs, each map an array over the vertex rows of image rows (-1 where
    undefined).  Each level of new vertices (all J of one size) is labelled
    in row blocks of orbit representatives; P is J's faces
    (face-table columns), Q the rest of its room.  Returns (subdivided
    complex, extended vertex map, StageRecord, provenance, the lifted action
    or None).  Raises NoBarycenter (with the failing certificate) if a
    barycenter is missing.
    """
    space = iota.target
    iota.check_total(complex_)
    sub, prov = simplicial.barycentric_subdivision(complex_)
    tables, offsets = complex_.face_tables, complex_.offsets
    # one label row per subdivision vertex row; the old vertex rows come first
    table = np.zeros((len(sub.ids),) + iota.points.shape[1:], iota.points.dtype)
    table[:complex_.counts[0]] = iota.at(complex_.faces[0][:, 0])

    lifted = orbit = None
    if equivariance:
        lifted = _lift(complex_, equivariance)
        orbit = _orbits(lifted)

    for d in range(1, complex_.dimension + 1):
        level = np.arange(offsets[d], offsets[d + 1])
        q_rows, q_ok = _rooms(complex_, d)
        reps = level if orbit is None else level[orbit[0][level] == level]
        m = tables[d].shape[1] - 1  # |P|; per row, P x P, Q x P, and P and Q to the label
        for block in spaces.row_blocks(len(reps), (m + 1) * (m + q_rows.shape[1])):
            rows = reps[block] - offsets[d]
            table[reps[block]] = _label_rows(space, table, tables[d][rows, :-1],
                                             q_rows[rows], q_ok[rows], lam)
        if orbit is not None:
            rep, word, isos = orbit
            members = level[rep[level] != level]
            for w in simplicial.sorted_unique(word[members]).tolist():
                rows = members[word[members] == w]
                table[rows] = isos[w].apply(table[rep[rows]])

    iota_sub = simplicial.VertexMap(space, sub.ids, table)
    parent_diams = np.concatenate([_diameters(space, table, t[:, :d + 1])
                                   for d, t in enumerate(tables)])
    # condition (1) certified on subdivision edges: every sub-simplex's image
    # diameter is realized by one of its edges, whose least containing parent
    # (the set of its larger vertex) is a face of the simplex's, so the edge
    # bound is the stronger one.  Condition (2): no parent's contained vertex
    # images, the labels of all its faces, may spread.
    edges = sub.edge_rows
    record = StageRecord(0, lam, sub.faces[1], _diameters(space, table, edges),
                         parent_diams[edges[:, 1]],
                         np.concatenate([_diameters(space, table, t) for t in tables]),
                         parent_diams)
    bad = np.flatnonzero(record.inside > parent_diams + 10 * space.tol)
    if len(bad):
        g = bad[0]
        d = np.searchsorted(offsets, g, side="right") - 1
        simplex = tuple(complex_.faces[d][g - offsets[d]].tolist())
        raise ModelSpaceViolation(
            f"shrinking condition (2) failed on {simplex}: "
            f"{record.inside[g]} > {parent_diams[g]} (barycenter certificate bug)")
    return sub, iota_sub, record, prov, lifted


@dataclass
class SubdivisionResult:
    complex: object
    iota: simplicial.VertexMap
    record: ShrinkRecord
    prov_total: simplicial.SubdivisionProvenance
    provs: list  # per stage, its provenance; its parent's find locates a point's cell


def iterate_subdivision(complex_, iota, lam, n, equivariance=None):
    """n successive lambda-shrinking subdivisions with provenance chained to
    the original complex; BudgetExceeded before any stage if one would
    exceed the budget.  The record carries the final-stage data that
    verify_shrinking needs; the stage provenances locate a point's cell."""
    simplicial.check_budget(complex_.counts, n)
    original, original_iota = complex_, iota
    # order 0 keeps the identity; compose needs an older subdivision
    # provenance, and stage 1's sets are already original simplices
    ids = complex_.faces[0][:, 0]
    prov_total = simplicial.SubdivisionProvenance(ids, complex_, np.arange(len(ids)))
    stages, provs = [], []
    for stage in range(n):
        try:
            complex_, iota, st, prov, equivariance = shrinking_subdivide(
                complex_, iota, lam, equivariance=equivariance)
        except NoBarycenter as exc:
            exc.stage = stage
            raise
        st.stage = stage + 1
        stages.append(st)
        provs.append(prov)
        prov_total = prov.compose(prov_total) if stage else prov

    if stages:  # the last stage's sub-edge columns are the final ones
        final_diams = stages[-1].after
    else:
        final_diams = _diameters(iota.target, iota.at(complex_.faces[0][:, 0]),
                                 complex_.edge_rows)
    record = ShrinkRecord(lam, n, stages, complex_.faces[1], final_diams,
                          original, original_iota, iota, prov_total)
    return SubdivisionResult(complex_, iota, record, prov_total, provs)


@dataclass
class ShrinkVerification:
    order_bound: float
    displacement_bound_factor: float
    containment_bound: float
    max_final_diam: float
    worst_displacement_slack: float
    worst_containment_slack: float
    violations: list

    @property
    def ok(self):
        return not self.violations


def verify_shrinking(record, tol=1e-9):
    """Check the three diameter bounds of order-n shrinking subdivisions:
    (a) final sub-simplex image diameters <= lam^n * diam(iota);
    (b) vertex displacement within diam(iota(sigma))/(1-lam) of every vertex
        of its least containing original simplex;
    (c) final images within diam(iota)/(1-lam) of the original image set.
    """
    lam, n = record.lam, record.order
    bound_a = (lam ** n) * record.original_diam
    factor = 1.0 / (1.0 - lam)
    bound_c = record.original_diam * factor
    over = record.final_diams > bound_a + tol
    violations = [("order_bound", tuple(e), d, bound_a) for e, d in zip(
        record.final_edges[over].tolist(), record.final_diams[over].tolist())]
    disp_bound = record.sigma_diams * factor
    far = record.max_dists > disp_bound + tol
    out = record.min_dists > bound_c + tol
    violations += [("displacement", v, d, b) for v, d, b in zip(
        record.vertices[far].tolist(), record.max_dists[far].tolist(), disp_bound[far].tolist())]
    violations += [("containment", v, d, bound_c) for v, d in zip(
        record.vertices[out].tolist(), record.min_dists[out].tolist())]
    return ShrinkVerification(
        bound_a, factor, bound_c, float(np.max(record.final_diams, initial=0.0)),
        float(np.min(disp_bound + tol - record.max_dists, initial=math.inf)),
        float(np.min(bound_c + tol - record.min_dists, initial=math.inf)), violations)
