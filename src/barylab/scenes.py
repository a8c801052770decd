"""Desk-scale retraction scenes and the end-to-end verification pipeline.

A scene fixes the convex body, the level-set radii eps < R, the group, a
window on the eps-level-set component to be retracted onto, the (delta,
delta') pair, and the subdivision parameters.  run_pipeline drives
smallness checks -> boundary grid -> shrinking subdivision -> push-off ->
retraction, recording every gate the construction is supposed to satisfy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import covers, retraction, simplicial, spaces
from .barycenters import SQRT3_OVER_2
from .errors import GeometryError, InvalidCoordinates, StagedPreconditionError, check_budget

# Most samples of sigma, the level-set samples at most delta/2 apart on which
# condition (3) compares angles; a delta that needs more is refused, since
# fewer samples would leave no pair within delta to compare.
SIGMA_ROWS = 6000
# Most angle evaluations of check_small_relative's 3K x sigma angle matrix,
# the one sampled quantity that is the product of two sample counts; it is
# filled in blocks, so this bounds time, not memory.
ANGLE_ROWS = 2**25
# Most K x K distance pairs of translate_gaps and diam_K_Kout.  Those passes
# run in row blocks, so this bounds their time, not their memory.
PAIR_ROWS = 2**30


@dataclass
class Scene:
    name: str
    window: retraction.Window
    R: float
    action: covers.GroupAction
    delta: float
    delta_prime: float
    lam: float
    order: int
    interior_points: list = field(default_factory=list)
    sample_spacing: float | None = None

    @property
    def body(self):
        return self.window.body

    @property
    def eps(self):
        return self.window.eps

    @property
    def space(self):
        return self.window.body.space

    def __post_init__(self):
        """Reject, with ValueError, numbers that no stage can run on (the window checks its own),
        and, with InvalidCoordinates, interior points outside the space."""
        spacing = self.sample_spacing
        numbers = [self.R, self.delta, self.delta_prime]
        fields = numbers + [self.lam, self.order, spacing]
        for rule, ok in [("numbers, not booleans", not any(isinstance(x, bool) for x in fields)),
                         ("eps < R", self.eps < self.R),
                         ("delta > 0", self.delta > 0.0),
                         ("delta_prime > 0", self.delta_prime > 0.0),
                         ("sample_spacing > 0", spacing is None or spacing > 0.0),
                         ("finite numbers", all(map(math.isfinite, numbers + [spacing or 1.0])))]:
            if not ok:
                raise ValueError(
                    f"scene needs {rule}: eps {self.eps}, R {self.R}, delta {self.delta}, "
                    f"delta_prime {self.delta_prime}, sample_spacing {spacing}")
        for p in self.interior_points:
            self.space.check_point(p)
        self.k_samples  # the sample budgets, and an R whose K_out overflows or leaves the space

    @functools.cached_property
    def k_samples(self):
        """(K, K_out): the K samples and their flow to the R-level set, which
        must pass check_point (in H^n its rounding grows like cosh R)."""
        K = self.window.samples(self.sampling()[1], endpoint=True)
        with np.errstate(over="ignore", invalid="ignore"):
            try:  # math.cosh and math.sinh raise OverflowError past the range
                K_out = retraction.normal_flow(self.body, K, self.R - self.eps)
                if np.all(np.isfinite(K_out * K_out)):
                    self.space.check_point(K_out)
                    return K, K_out
            except (OverflowError, InvalidCoordinates):
                pass
        raise ValueError(f"R {self.R} puts K_out off the space or past the float range")

    def sampling(self):
        """(spacing, K count, sigma count): the pipeline's K samples, at most
        spacing = sample_spacing (by default max(delta, span / 400)) apart,
        and its sigma samples, at most delta / 2 apart.  Raises BudgetExceeded,
        allocating nothing, past PAIR_ROWS K x K pairs (diam(K_out) and one
        pass per group element), SIGMA_ROWS sigmas or ANGLE_ROWS angle evaluations."""
        span = self.window.s_hi - self.window.s_lo
        spacing = self.sample_spacing or max(self.delta, span / 400.0)
        pairs = (1 + len(self.action.nontrivial())) * (span / spacing + 1.0) ** 2
        check_budget(pairs, PAIR_ROWS, f"sample_spacing {spacing}: {pairs:.6g} K x K distance "
                     "pairs, a K x K pass per nontrivial group element and one more")
        sigma = span / (self.delta / 2.0) + 1.0
        check_budget(sigma, SIGMA_ROWS, f"delta {self.delta}: {sigma:.6g} sigma samples "
                     f"{self.delta / 2.0} apart on a window of length {span}")
        k_count = retraction.sample_count(span, spacing, 8)
        sig_count = retraction.sample_count(span, self.delta / 2.0, 16)
        angles = 3 * k_count * sig_count
        check_budget(angles, ANGLE_ROWS,
                     f"smallness check: {angles} angles of the 3K x sigma angle matrix")
        return spacing, k_count, sig_count

    def to_json(self):
        w = self.window
        return {
            "schema_version": 1,
            "space": self.space.to_json(),
            "body": self.body.to_json(),
            "eps": self.eps,
            "R": self.R,
            "group": self.action.to_json(),
            "window": {
                "component": w.component,
                "s_lo": w.s_lo,
                "s_hi": w.s_hi,
                "interior_points": [list(map(float, p))
                                    for p in self.interior_points],
                "sample_spacing": self.sample_spacing,
            },
            "delta": self.delta,
            "delta_prime": self.delta_prime,
            "lambda": self.lam,
            "order": self.order,
            "name": self.name,
        }

    @staticmethod
    def from_json(doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        space = spaces.ModelSpace.from_json(doc["space"])
        body = retraction.body_from_json(space, doc["body"])
        action = covers.GroupAction.from_json(space, doc["group"])
        w = doc["window"]
        return Scene(
            name=doc.get("name", "scene"),
            window=retraction.Window(body, doc["eps"], w["component"], w["s_lo"], w["s_hi"]),
            R=doc["R"], action=action, delta=doc["delta"], delta_prime=doc["delta_prime"],
            lam=doc["lambda"], order=doc["order"],
            interior_points=[np.asarray(p, float)
                             for p in w.get("interior_points", [])],
            sample_spacing=w.get("sample_spacing"))


def hyperbolic_axis_scene(eps=1.0, R=3.0, period=4.0, delta=4e-3,
                          delta_prime=0.5, lam=SQRT3_OVER_2, order=2):
    """The flagship scene: C = geodesic axis in H^2, H = <boost of the period>,
    window = one period of the plus equidistant curve."""
    space = spaces.ModelSpace.hyperboloid(2)
    body = retraction.LineBody(space, np.array([1.0, 0.0, 0.0]),
                               np.array([math.cosh(1.0), math.sinh(1.0), 0.0]))
    action = covers.GroupAction(
        space, [spaces.Isometry.hyperbolic_boost(period)], word_length=2)
    arc = period * math.cosh(eps)  # arc length of one period of the eps-level curve
    # window centered on the origin keeps coordinates small (conditioning)
    window = retraction.Window(body, eps, "plus", -arc / 2.0, arc / 2.0)
    return Scene("hyperbolic_axis", window, R, action, delta, delta_prime, lam, order)


def euclidean_point_scene(eps=1.0, R=2.0, delta=0.012, delta_prime=0.5,
                          lam=SQRT3_OVER_2, order=1):
    """C = a point in R^2, trivial group; the analytic-oracle scene."""
    space = spaces.ModelSpace.euclidean(2)
    body = retraction.PointBody(space, np.zeros(2))
    action = covers.GroupAction(space, [], word_length=0)
    window = retraction.Window(body, eps, "circle", 0.0, retraction.loop_length(body, eps))
    return Scene("euclidean_point", window, R, action, delta, delta_prime, lam, order)


def euclidean_segment_scene(eps=1.0, R=2.0, delta=0.02, delta_prime=0.5,
                            lam=SQRT3_OVER_2, order=1):
    space = spaces.ModelSpace.euclidean(2)
    body = retraction.SegmentBody(space, np.zeros(2), np.array([1.0, 0.0]))
    action = covers.GroupAction(space, [], word_length=0)
    window = retraction.Window(body, eps, "outer", 0.0, retraction.loop_length(body, eps))
    return Scene("euclidean_segment", window, R, action, delta, delta_prime, lam, order)


def hyperbolic_patch_scene(eps=1.0, R=3.0, width=0.05, delta=4e-3,
                           delta_prime=0.4, lam=SQRT3_OVER_2, order=1):
    """Small slab scene with interior cover elements: exercises the
    designated-interior-point branch with full tightness still attainable."""
    space = spaces.ModelSpace.hyperboloid(2)
    body = retraction.LineBody(space, np.array([1.0, 0.0, 0.0]),
                               np.array([math.cosh(1.0), math.sinh(1.0), 0.0]))
    action = covers.GroupAction(space, [], word_length=0)
    window = retraction.Window(body, eps, "plus", 0.0, width)
    interior = list(retraction.normal_flow(body, window.samples(4, endpoint=True), -delta / 3.0))
    return Scene("hyperbolic_patch", window, R, action, delta, delta_prime, lam, order,
                 interior_points=interior)


def broken_delta_prime_scene():
    """delta' exceeds the gap from K_out to the eps-neighborhood:
    smallness condition (2) must fail."""
    scene = euclidean_point_scene(eps=1.0, R=1.3, delta_prime=0.5)
    scene.name = "broken_delta_prime"
    return scene


# ---------------------------------------------------------------------------
# the report


EXTREMES = ("max_identity_residual", "min_boundary_angle", "escape_all",
            "max_idempotence_residual", "max_radial_residual")


@dataclass
class RetractionReport:
    """The gates, the stage summaries and one array per sampled column (see
    run_pipeline); each printed extreme is computed once, into `extremes`,
    and its gate reads that number."""

    scene: dict
    lam: float
    order: int
    seed: int
    gates: dict = field(default_factory=dict)
    smallness: dict | None = None
    grid: dict | None = None
    extension: dict | None = None
    diam_iota: float | None = None
    diam_K_Kout: float | None = None
    s: np.ndarray | None = None
    identity: np.ndarray | None = None
    angle: np.ndarray | None = None
    escape: np.ndarray | None = None
    idempotence: np.ndarray | None = None
    radial: np.ndarray | None = None
    interior: np.ndarray | None = None
    extremes: dict = field(default_factory=lambda: dict.fromkeys(EXTREMES))
    moduli: dict = field(default_factory=dict)  # scale -> sup d(r q, r q')
    projection_moduli: dict = field(default_factory=dict)  # scale -> sup weight diff
    failure: dict | None = None

    @property
    def ok(self):
        return self.failure is None and all(self.gates.values())

    def to_json(self):
        return {
            "schema_version": 1,
            "scene": self.scene,
            "lambda": self.lam,
            "order": self.order,
            "seed": self.seed,
            "ok": self.ok,
            "gates": self.gates,
            "smallness": self.smallness,
            "grid": self.grid,
            "extension": self.extension,
            "diam_iota": self.diam_iota,
            "diam_K_Kout": self.diam_K_Kout,
            **self.extremes,
            "moduli": self.moduli,
            "projection_moduli": self.projection_moduli,
            "failure": self.failure,
        }

    def samples_csv(self):
        lines = ["# barylab retraction samples v1",
                 "sample_id,s,identity_residual,angle,escape"]
        if self.s is not None:
            rows = zip(self.s.tolist(), self.identity.tolist(), self.angle.tolist(),
                       self.escape.tolist())
            for i, (s, res, angle, escape) in enumerate(rows):
                lines.append(f"{i},{s:.17g},{res:.17g},{angle:.17g},{int(escape)}")
        return "\n".join(lines) + "\n"


def _fail(report, stage, message):
    report.failure = {"stage": stage, "message": message}
    report.gates["pipeline_completed"] = False
    return report


def check_density(density):
    """Refuse a query density below 1 (ValueError) or past SAMPLE_ROWS (BudgetExceeded)."""
    if not density >= 1:
        raise ValueError(f"density {density} is below 1")
    check_budget(density, retraction.SAMPLE_ROWS, f"density {density}")


def run_pipeline(scene, lam=None, order=None, density=200, seed=0):
    """Run the full construction and verify every gate; returns the report.

    Stages: smallness of (delta, delta') -> boundary-tight push-off grid
    (with empirical calibration) -> equivariant order-n shrinking subdivision
    -> push-off by geodesic coning -> retraction checks on level-set samples.
    No stage draws random numbers; `seed` is recorded in the report.
    """
    lam = scene.lam if lam is None else lam
    order = scene.order if order is None else order
    window, R = scene.window, scene.R
    body, eps, space = scene.body, scene.eps, scene.space
    tol = space.tol
    report = RetractionReport(scene=scene.to_json(), lam=lam, order=order,
                              seed=seed)

    check_density(density)
    spacing, _, sig_count = scene.sampling()
    span = window.s_hi - window.s_lo
    K_sigma, K_out = scene.k_samples
    K_samples = list(K_sigma) + [np.asarray(c, float) for c in scene.interior_points]
    gaps = covers.translate_gaps(scene.action, K_samples)
    sigma_dense = window.samples(sig_count, endpoint=True)

    try:
        smallness = retraction.check_small_relative(
            body, eps, gaps, K_out, sigma_dense, scene.delta, scene.delta_prime,
            sample_resolution=2.0 * spacing)
    except GeometryError as exc:
        return _fail(report, "smallness", str(exc))
    report.smallness = smallness.to_json()
    report.gates["smallness"] = smallness.ok
    if not smallness.ok:
        return _fail(report, "smallness", "; ".join(smallness.failing()))

    try:
        grid = retraction.build_boundary_grid(
            window, R, scene.action, scene.delta, (1.0 - lam) * scene.delta_prime,
            interior_points=scene.interior_points)
    except GeometryError as exc:
        return _fail(report, "build-grid", str(exc))

    grid_push = grid.push_off_distance()
    diam_iota_grid = simplicial.map_diameter(grid.nerve, grid.iota)
    report.grid = {
        "delta_achieved": grid.delta,
        "min_witness_angle": grid.min_witness_angle,
        "push_off_distance": grid_push,
        "boundary_map_diameter": grid.boundary_map_diameter,
        "elements": len(grid.adjacency),
    }
    report.diam_iota = diam_iota_grid
    report.gates["grid_angle"] = grid.min_witness_angle >= retraction.ALPHA - 1e-5
    report.gates["push_off_positive"] = grid_push > 0.0
    report.gates["boundary_tightness"] = (
        grid.boundary_map_diameter <= (1.0 - lam) * scene.delta_prime + tol)

    report.diam_K_Kout = covers.diam_K_Kout(scene.action, gaps, K_out, slack=2.0 * grid.delta)
    report.gates["diam_iota_le_diam_K_Kout"] = diam_iota_grid <= report.diam_K_Kout + tol

    try:
        pushoff = retraction.extend_to_pushoff(grid, lam, order, scene.delta_prime)
    except StagedPreconditionError as exc:
        return _fail(report, exc.stage, str(exc))
    except GeometryError as exc:
        return _fail(report, "extension", str(exc))

    sub = pushoff.sub_result
    report.extension = {
        "full_map_diameter": pushoff.full_map_diameter,
        "push_off_distance_n": pushoff.push_off_distance,
        "subdivision_vertices": len(sub.complex.ids),
        "max_stage_ratio": max((st.max_ratio() for st in sub.record.stages),
                               default=0.0),
    }
    report.gates["full_tightness"] = pushoff.full_map_diameter <= scene.delta_prime + tol
    report.gates["push_off_gt_delta_prime"] = pushoff.push_off_distance > scene.delta_prime

    retractor = retraction.Retractor(pushoff)
    margin = min(0.02 * span, grid.delta)  # keep samples off the exact seam
    ss = np.linspace(window.s_lo + margin, window.s_hi - margin, density)
    angle_gate = retraction.ALPHA / 2.0 + math.pi / 4.0

    # one retraction per query (the samples, then interior queries below
    # every fourth), one more of each image; the checks run on the columns:
    # identity d(r(q), q), angle, escape and radial (point bodies) per sample,
    # interior level residuals, idempotence d(r(r(q)), r(q)) over all queries
    Q = window.points(ss)
    Q_in = retraction.normal_flow(body, Q[::4], -grid.delta / 4.0)
    r_all, targets, cells = retractor.retract_rows(np.concatenate([Q, Q_in]))
    r_rows, targets, cells = r_all[:density], targets[:density], cells[:density]
    report.s = ss
    report.identity = spaces.paired_distances(space, r_rows, Q)
    report.angle = retraction.angle_to_C(body, Q, targets)
    report.escape = retraction.check_large_angle_escape(body, eps, Q, targets,
                                                        angles=report.angle)
    report.interior = np.abs(body.dist_rows(r_all[density:]) - eps)
    report.idempotence = spaces.paired_distances(space, r_all, retractor.retract_rows(r_all)[0])
    if body.kind == "point":
        radial, d = Q.copy(), body.dist_rows(Q)
        off = np.flatnonzero(np.abs(d - eps) > tol)
        radial[off] = retraction.normal_flow(body, Q[off], eps - d[off])
        report.radial = spaces.paired_distances(space, r_rows, radial)

    # coning: each target lies near its cell's images, whose diameter obeys the
    # shrinking bound; cells are padded to one width with their first vertex
    cone_bound = (lam ** order) * diam_iota_grid
    coning_ok = True
    for rows in spaces.row_blocks(len(cells), cells.shape[1] ** 2):
        imgs = sub.iota.at(cells[rows])
        cell_diam = np.max(spaces.paired_distances(space, imgs[:, :, None], imgs[:, None]),
                           axis=(1, 2))
        nearest = np.min(spaces.paired_distances(space, targets[rows, None], imgs), axis=1)
        coning_ok &= not np.any((cell_diam > cone_bound + 10 * tol)
                                | (nearest > cell_diam + 10 * tol))
    report.gates["coning_containment"] = coning_ok

    # continuity moduli along the boundary at fixed scales
    mod_scales = (1e-2, 1e-3, 1e-4)
    s_mod = np.linspace(window.s_lo + margin, window.s_hi - margin - max(mod_scales), 33)
    # each q1 is retracted once per scale, beside its q2
    Q1 = window.points(s_mod)
    W1 = np.array([w / np.sum(w) for w in grid.projector.tents(Q1)])
    for h in mod_scales:
        Q2 = window.points(s_mod + h)
        R = retractor.retract_rows(np.concatenate([Q1, Q2]))[0]
        W2 = np.array([w / np.sum(w) for w in grid.projector.tents(Q2)])
        report.moduli[f"{h:g}"] = float(np.max(
            spaces.distance_rows(space, R[:len(Q1)], R[len(Q1):]), initial=0.0))
        report.projection_moduli[f"{h:g}"] = float(np.max(np.abs(W1 - W2), initial=0.0))

    ext = report.extremes
    ext.update(max_identity_residual=float(np.max(report.identity)),
               min_boundary_angle=float(np.min(report.angle)),
               escape_all=bool(np.all(report.escape)),
               max_idempotence_residual=float(np.max(report.idempotence)))
    report.gates["identity"] = ext["max_identity_residual"] <= 1e-8
    report.gates["boundary_angle"] = ext["min_boundary_angle"] >= angle_gate - 1e-6
    report.gates["escape"] = ext["escape_all"]
    report.gates["idempotence"] = ext["max_idempotence_residual"] <= 10 * tol
    report.gates["interior_level"] = float(np.max(report.interior)) <= 1e-7
    vals = [report.moduli[f"{h:g}"] for h in mod_scales]
    report.gates["moduli_nonincreasing"] = all(
        vals[i] >= vals[i + 1] - tol for i in range(len(vals) - 1))
    if body.kind == "point":
        ext["max_radial_residual"] = float(np.max(report.radial))
        report.gates["radial_oracle"] = ext["max_radial_residual"] <= 1e-6
    report.gates["pipeline_completed"] = True
    return report


SCENE_BUILDERS = {
    "hyperbolic_axis": hyperbolic_axis_scene,
    "euclidean_point": euclidean_point_scene,
    "euclidean_segment": euclidean_segment_scene,
    "hyperbolic_patch": hyperbolic_patch_scene,
    "broken_delta_prime": broken_delta_prime_scene,
}
