"""Lambda-shrinking subdivisions via barycentric subdivision and minimax barycenters.

Each barycentric-subdivision vertex U_J is labeled, in order of increasing
|J|, by a lambda-barycenter of the already-labeled subdivision vertices on
the boundary of sigma_J, relative to every already-labeled vertex in the room
around sigma_J.  With a partial group action supplied, barycenters are solved
only for orbit representatives and propagated exactly by isometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import barycenters, simplicial, spaces
from .errors import DiameterTooLarge, ModelSpaceViolation, NoBarycenter


@dataclass
class EquivariantStructure:
    """Partial simplicial action: per group element, a partial vertex map."""

    maps: list  # list of (Isometry, dict[vertex -> vertex])


@dataclass
class StageRecord:
    """One subdivision stage: per-sub-simplex and per-parent diameter data."""

    stage: int
    lam: float
    # (sub_simplex, diam_after, parent_simplex, diam_before)
    sub_rows: list = field(default_factory=list)
    # (parent_simplex, diam_of_contained_subdivision_vertices, diam_before)
    parent_rows: list = field(default_factory=list)

    def max_ratio(self):
        worst = 0.0
        for _, after, _, before in self.sub_rows:
            if before > 0:
                worst = max(worst, after / before)
        return worst


@dataclass
class ShrinkRecord:
    lam: float
    order: int
    original_diam: float
    stages: list = field(default_factory=list)
    # final-stage data against the ORIGINAL complex:
    final_edge_rows: list = field(default_factory=list)  # (edge, diam)
    # (vertex, least_original_simplex, its_image_diam, max_dist_to_its_vertices,
    #  min_dist_to_its_vertices)
    displacement_rows: list = field(default_factory=list)

    def to_csv(self):
        lines = ["# barylab shrink record v1",
                 "stage,simplex,diam_before,diam_after,bound,slack"]
        for st in self.stages:
            for sub, after, _parent, before in st.sub_rows:
                bound = st.lam * before
                ids = " ".join(str(v) for v in sub)
                lines.append(f"{st.stage},{ids},{before:.17g},{after:.17g},"
                             f"{bound:.17g},{bound - after:.17g}")
        return "\n".join(lines) + "\n"


def _solve_label(space, P, Q, lam, rho=None):
    """Closed-form rule when the space qualifies, else the grid solver.

    Rule output is accepted when its bound holds in the space metric at the
    requested lambda: space-metric certificates carry that bound already,
    arc-metric ones are re-checked with chordal distances.
    """
    tol = space.tol
    cert = None
    if space.is_cat0:
        cert = barycenters.cat0_midpoint_rule(space, P, Q)
    elif space.kind == spaces.CIRCLE:
        try:
            cert = barycenters.circle_arc_rule(space, P, Q)
        except (DiameterTooLarge, ModelSpaceViolation):
            cert = None
    if cert is not None and cert.found:
        b = cert.point
        if cert.metric == "space":
            # the rule certified lambda and the slacks in the space metric
            diam, ach, slacks = cert.diam_P, cert.achieved_lambda, cert.relative_slacks
        else:
            diam = spaces.pairwise_diameter(space, P)
            if diam > tol:
                ach = barycenters.lambda_of(space, b, P)
                slacks = barycenters.relative_slacks(space, b, P, Q)
        if diam <= tol or (ach <= lam + tol and min(slacks, default=0.0) >= -tol):
            return b
    cert = barycenters.solve_barycenter(
        barycenters.BarycenterProblem(space, list(P), list(Q)), lam, rho=rho)
    if not cert.found:
        raise NoBarycenter(
            f"no {lam}-barycenter for |P|={len(P)}, |Q|={len(Q)}",
            certificate=cert)
    return cert.point


# Rows per vectorised pass; it bounds a pass's working memory.  On the
# euclidean_point scene at density 1000, 2,048-row blocks of padded room
# arrays added 1.5 MB (3%) to the run's peak RSS and 256-row blocks none,
# with no measured change in the hyperbolic_axis scene's run time.
BLOCK_ROWS = 256


def _table(space, vertices, labels):
    """(row of each vertex, label array with one row per vertex).  Finite
    labels are indices; a vertex without a label yet gets a zero row."""
    row_of = {v: r for r, v in enumerate(vertices)}
    if space.kind == spaces.FINITE:
        table = np.zeros(len(vertices), dtype=int)
    else:
        table = np.zeros((len(vertices), space.ambient_dim))
    for v, r in row_of.items():
        if v in labels:
            table[r] = labels[v]
    return row_of, table


def _points(table, rows):
    """Labels of table rows as _solve_label takes them (finite ones as ints)."""
    pts = table[rows]
    return pts.tolist() if pts.ndim == 1 else list(pts)


def _blocks(sets):
    """Index arrays of sets grouped by set size, at most BLOCK_ROWS each."""
    for size in sorted(set(map(len, sets))):
        members = np.flatnonzero(np.fromiter((len(s) == size for s in sets),
                                             dtype=bool, count=len(sets)))
        for start in range(0, len(members), BLOCK_ROWS):
            yield members[start:start + BLOCK_ROWS]


def _diameters(space, table, sets, rows):
    """Image diameter of each set, rows(set) its table rows (as many for
    every set of one size), one kernel call per block."""
    out = [0.0] * len(sets)
    for block in _blocks(sets):
        pts = table[np.array([rows(sets[i]) for i in block])]
        M = spaces.paired_distances(space, pts[:, :, None], pts[:, None])
        for i, d in zip(block.tolist(), M.reshape(len(block), -1).max(axis=1).tolist()):
            out[i] = d
    return out


def _label_rows(space, table, rows, lam, rho=None):
    """Labels of a block of new vertices of one level (every J of one size).

    rows[i] = (P rows, Q rows) of table, the labels so far.  CAT(0) kinds
    take the midpoint rule for the whole block: one diameter_midpoints call,
    then one batched check of lambda and the relative slacks.  Rows that
    fail the check, and every row of other kinds, go to _solve_label, which
    raises or falls back to the grid solver.
    """
    if not space.is_cat0:
        return [_solve_label(space, _points(table, p), _points(table, q), lam, rho=rho)
                for p, q in rows]
    P = table[np.array([p for p, _ in rows])]
    width = max(len(q) for _, q in rows)
    q_rows = np.zeros((len(rows), width), dtype=int)
    q_ok = np.zeros((len(rows), width), dtype=bool)
    for r, (_, q) in enumerate(rows):
        q_rows[r, :len(q)] = q
        q_ok[r, :len(q)] = True
    D, mids = barycenters.diameter_midpoints(space, P)
    labels = [P[r, 0].copy() if b is None else b for r, b in enumerate(mids)]
    moved = np.array([r for r, b in enumerate(mids) if b is not None], dtype=int)
    if len(moved):
        P, Q, q_ok, D = P[moved], table[q_rows[moved]], q_ok[moved], D[moved]
        B = np.array([mids[r] for r in moved])[:, None]
        ach = np.max(spaces.paired_distances(space, P, B), axis=1) / D
        qp = np.max(spaces.paired_distances(space, Q[:, :, None], P[:, None]), axis=2)
        slacks = np.where(q_ok, np.maximum(D[:, None], qp)
                          - spaces.paired_distances(space, Q, B), np.inf)
        ok = ((ach <= min(lam, barycenters.SQRT3_OVER_2) + space.tol)
              & (np.min(slacks, axis=1, initial=np.inf) >= -space.tol))
        for r in moved[~ok]:
            p, q = rows[r]
            labels[r] = _solve_label(space, _points(table, p), _points(table, q),
                                     lam, rho=rho)
    return labels


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


def shrinking_subdivide(complex_, iota, lam, equivariance=None, rho=None):
    """One lambda-shrinking subdivision step (the barycentric route).

    Each level of new vertices (all J of one size) is labelled in blocks of
    BLOCK_ROWS orbit representatives, one _label_rows pass per block, and
    each stage check is one vectorised pass per set size.
    Returns (subdivided complex, extended vertex map, StageRecord, provenance).
    Raises NoBarycenter (with the failing certificate) if some required
    barycenter does not exist at the requested lambda.
    """
    space = iota.target
    iota.check_total(complex_)
    sub, prov = simplicial.barycentric_subdivision(complex_)
    vertex_of = {J: v for v, J in prov.sets.items()}
    assignment = dict(iota.assignment)
    row_of, table = _table(space, sorted(prov.sets), assignment)

    new_sets = sorted((J for J in vertex_of if len(J) >= 2),
                      key=lambda J: (len(J), J))
    inc = _incidence(complex_)

    orbit = None
    if equivariance is not None and equivariance.maps:
        orbit = _orbit_assignments(new_sets, equivariance)

    def gather(J):
        faces = [vertex_of[c] for k in range(1, len(J))
                 for c in itertools.combinations(J, k)]
        room = {vertex_of[c] for T in _star(inc, J) for k in range(1, len(J))
                for c in itertools.combinations(T, k)}
        return ([row_of[v] for v in faces],
                [row_of[v] for v in sorted(room.difference(faces))])

    def put(J, b):
        assignment[vertex_of[J]] = b
        table[row_of[vertex_of[J]]] = b

    for _, level_sets in itertools.groupby(new_sets, key=len):
        level_sets = list(level_sets)
        reps = level_sets if orbit is None else \
            [J for J in level_sets if orbit[J][0] == J]
        for start in range(0, len(reps), BLOCK_ROWS):
            block = reps[start:start + BLOCK_ROWS]
            for J, b in zip(block, _label_rows(space, table, [gather(J) for J in block],
                                               lam, rho=rho)):
                put(J, b)
        if orbit is not None:
            for J in level_sets:
                rep, h = orbit[J]
                if rep != J:
                    put(J, h.apply(assignment[vertex_of[rep]]))

    iota_sub = simplicial.VertexMap(space, assignment)

    record = StageRecord(stage=0, lam=lam)
    simplices = sorted(complex_.simplices)
    parent_diams = dict(zip(simplices, _diameters(
        space, table, simplices, lambda s: [row_of[v] for v in s])))
    # condition (1) certified on subdivision edges: every sub-simplex's image
    # diameter is realized by one of its edges, whose least containing parent
    # is a face of the simplex's, so the edge bound is the stronger one
    edges = sub.edges
    lengths = _diameters(space, table, edges, lambda e: [row_of[v] for v in e])
    for e, after in zip(edges, lengths):
        parent = simplicial.least_containing_simplex(complex_, prov, e)
        record.sub_rows.append((e, after, parent, parent_diams[parent]))
    # condition (2): no parent simplex's contained vertex images, the labels
    # of all its faces, may spread
    inside = _diameters(space, table, simplices, lambda s: [
        row_of[vertex_of[c]] for k in range(1, len(s) + 1)
        for c in itertools.combinations(s, k)])
    for s, diam_inside in zip(simplices, inside):
        record.parent_rows.append((s, diam_inside, parent_diams[s]))
        if diam_inside > parent_diams[s] + 10 * space.tol:
            raise ModelSpaceViolation(
                f"shrinking condition (2) failed on {s}: {diam_inside} > "
                f"{parent_diams[s]} (barycenter certificate bug)")
    return sub, iota_sub, record, prov


@dataclass
class SubdivisionResult:
    complex: object
    iota: simplicial.VertexMap
    record: ShrinkRecord
    prov_total: simplicial.SubdivisionProvenance
    stage_vertex_of: list  # per stage: {provenance set J -> new vertex id}


def iterate_subdivision(complex_, iota, lam, n, equivariance=None, rho=None):
    """n successive lambda-shrinking subdivisions with provenance chained to
    the original complex.

    The record carries the final-stage diameters and displacement data needed
    by verify_shrinking; stage_vertex_of supports locating a point's cell in
    the iterated subdivision.
    """
    space = iota.target
    original = complex_
    original_iota = iota
    record = ShrinkRecord(lam=lam, order=n,
                          original_diam=simplicial.map_diameter(complex_, iota))
    prov_total = simplicial.SubdivisionProvenance.identity(complex_)
    stage_vertex_of = []
    equiv = equivariance
    for stage in range(n):
        try:
            complex_, iota, st, prov = shrinking_subdivide(
                complex_, iota, lam, equivariance=equiv, rho=rho)
        except NoBarycenter as exc:
            exc.stage = stage
            raise
        st.stage = stage + 1
        record.stages.append(st)
        stage_vertex_of.append({J: v for v, J in prov.sets.items()})
        prov_total = prov.compose(prov_total)
        if equiv is not None and equiv.maps:
            equiv = lift_equivariance(equiv, prov)

    vertices = sorted(complex_.vertices)
    row_of, table = _table(space, vertices, iota.assignment)
    edges = complex_.edges
    record.final_edge_rows = list(zip(edges, _diameters(
        space, table, edges, lambda e: [row_of[v] for v in e])))
    orig_row, orig_table = _table(space, sorted(original.vertices),
                                  original_iota.assignment)
    orig_simplices = sorted(original.simplices)
    orig_diams = dict(zip(orig_simplices, _diameters(
        space, orig_table, orig_simplices, lambda s: [orig_row[v] for v in s])))
    sigmas = [tuple(sorted(prov_total.of(v))) for v in vertices]
    rows = record.displacement_rows = [None] * len(vertices)
    for block in _blocks(sigmas):
        d = spaces.paired_distances(
            space, table[block][:, None],
            orig_table[np.array([[orig_row[u] for u in sigmas[i]] for i in block])])
        for i, hi, lo in zip(block.tolist(), d.max(axis=1).tolist(),
                             d.min(axis=1).tolist()):
            rows[i] = (vertices[i], sigmas[i], orig_diams[sigmas[i]], hi, lo)
    return SubdivisionResult(complex_, iota, record, prov_total, stage_vertex_of)


def lift_equivariance(equiv, prov):
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
    return EquivariantStructure(lifted)


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


def verify_shrinking(record, iota_original_diam=None, tol=1e-9):
    """Check the three diameter bounds of order-n shrinking subdivisions:
    (a) final sub-simplex image diameters <= lam^n * diam(iota);
    (b) vertex displacement within diam(iota(sigma))/(1-lam) of every vertex
        of its least containing original simplex;
    (c) final images within diam(iota)/(1-lam) of the original image set.

    iota_original_diam overrides the diameter stored in the record.
    """
    lam, n = record.lam, record.order
    diam0 = record.original_diam if iota_original_diam is None \
        else iota_original_diam
    bound_a = (lam ** n) * diam0
    factor = 1.0 / (1.0 - lam)
    bound_c = diam0 * factor
    violations = []
    max_final = 0.0
    for edge, d in record.final_edge_rows:
        max_final = max(max_final, d)
        if d > bound_a + tol:
            violations.append(("order_bound", edge, d, bound_a))
    worst_disp = math.inf
    worst_cont = math.inf
    for v, sigma, sig_diam, max_d, min_d in record.displacement_rows:
        disp_bound = sig_diam * factor
        worst_disp = min(worst_disp, disp_bound + tol - max_d)
        if max_d > disp_bound + tol:
            violations.append(("displacement", v, max_d, disp_bound))
        worst_cont = min(worst_cont, bound_c + tol - min_d)
        if min_d > bound_c + tol:
            violations.append(("containment", v, min_d, bound_c))
    return ShrinkVerification(bound_a, factor, bound_c, max_final,
                              worst_disp, worst_cont, violations)
