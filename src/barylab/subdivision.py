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

    Returns (subdivided complex, extended vertex map, StageRecord, provenance).
    Raises NoBarycenter (with the failing certificate) if some required
    barycenter does not exist at the requested lambda.
    """
    space = iota.target
    iota.check_total(complex_)
    sub, prov = simplicial.barycentric_subdivision(complex_)
    vertex_of = {J: v for v, J in prov.sets.items()}
    assignment = dict(iota.assignment)

    new_sets = sorted((J for J in vertex_of if len(J) >= 2),
                      key=lambda J: (len(J), J))
    inc = _incidence(complex_)

    orbit = None
    if equivariance is not None and equivariance.maps:
        orbit = _orbit_assignments(new_sets, equivariance)

    def gather(J):
        P = [assignment[vertex_of[tuple(c)]]
             for k in range(1, len(J))
             for c in itertools.combinations(J, k)]
        q_ids = set()
        for T in _star(inc, J):
            for k in range(1, len(J)):
                for c in itertools.combinations(T, k):
                    q_ids.add(vertex_of[tuple(c)])
        p_ids = {vertex_of[tuple(c)] for k in range(1, len(J))
                 for c in itertools.combinations(J, k)}
        Q = [assignment[v] for v in sorted(q_ids - p_ids)]
        return P, Q

    by_level = itertools.groupby(new_sets, key=len)
    for _, level_sets in by_level:
        level_sets = list(level_sets)
        if orbit is None:
            for J in level_sets:
                P, Q = gather(J)
                assignment[vertex_of[J]] = _solve_label(space, P, Q, lam, rho=rho)
        else:
            reps = [J for J in level_sets if orbit[J][0] == J]
            for J in reps:
                P, Q = gather(J)
                assignment[vertex_of[J]] = _solve_label(space, P, Q, lam, rho=rho)
            for J in level_sets:
                rep, h = orbit[J]
                if rep != J:
                    assignment[vertex_of[J]] = h.apply(assignment[vertex_of[rep]])

    iota_sub = simplicial.VertexMap(space, assignment)

    record = StageRecord(stage=0, lam=lam)
    parent_diams = {s: spaces.pairwise_diameter(space, [iota(v) for v in s])
                    for s in complex_.simplices}
    # condition (1) certified on subdivision edges: every sub-simplex's image
    # diameter is realized by one of its edges, whose least containing parent
    # is a face of the simplex's, so the edge bound is the stronger one
    for e in sub.edges:
        parent = simplicial.least_containing_simplex(complex_, prov, e)
        after = spaces.distance(space, assignment[e[0]], assignment[e[1]])
        record.sub_rows.append((e, after, parent, parent_diams[parent]))
    # condition (2): no parent simplex's contained vertex images may spread
    contained = {s: list(s) for s in complex_.simplices}
    for v, J in prov.sets.items():
        if len(J) < 2:
            continue
        for T in _star(inc, J):
            contained[T].append(v)
    for s in sorted(complex_.simplices):
        diam_inside = spaces.pairwise_diameter(
            space, [assignment[v] for v in contained[s]])
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

    for e in complex_.edges:
        d = spaces.distance(space, iota(e[0]), iota(e[1]))
        record.final_edge_rows.append((e, d))
    orig_diams = {s: spaces.pairwise_diameter(space, [original_iota(v) for v in s])
                  for s in original.simplices}
    for v in sorted(complex_.vertices):
        sigma = tuple(sorted(prov_total.of(v)))
        dists = [spaces.distance(space, iota(v), original_iota(v0)) for v0 in sigma]
        record.displacement_rows.append(
            (v, sigma, orig_diams[sigma], max(dists), min(dists)))
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
