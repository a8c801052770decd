"""CLI subcommands: exit codes, output schemas, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from barylab import cli, retraction, scenes, spaces
from barylab.errors import DegenerateGeodesic


def run(argv):
    return cli.main(argv)


def write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


EUCLID = {"kind": "euclidean", "dim": 2}
CIRCLE = {"kind": "circle", "radius": 1.0}
TRIPLE = [[1, 0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]


def test_barycenter_found_exit_zero(tmp_path):
    inp = write(tmp_path / "p.json",
                {"space": EUCLID, "P": [[0, 0], [1, 0], [1, 1], [0, 1]],
                 "Q": [], "lambda": 0.75})
    out = str(tmp_path / "cert.json")
    assert run(["barycenter", "--input", inp, "--output", out]) == 0
    cert = json.load(open(out))
    assert cert["status"] == "found"
    assert cert["schema_version"] == 1
    assert abs(cert["achieved_lambda"] - 0.5) < 1e-9


def test_barycenter_not_found_exit_two(tmp_path):
    inp = write(tmp_path / "p.json",
                {"space": CIRCLE, "P": TRIPLE, "Q": [], "lambda": 0.9})
    out = str(tmp_path / "cert.json")
    for lam in ("0.9", "0.99999"):
        assert run(["barycenter", "--input", inp, "--output", out,
                    "--lambda", lam]) == 2
        cert = json.load(open(out))
        assert cert["status"] == "not_found_below"
        assert abs(cert["lambda_bound"] - 1.0) <= 1e-12


def test_barycenter_indeterminate_exit_three(tmp_path, monkeypatch):
    from barylab import barycenters

    def undecided(prob, lam):
        return barycenters.BarycenterCertificate("indeterminate", lam, reason="test")

    monkeypatch.setattr(barycenters, "solve_barycenter", undecided)
    inp = write(tmp_path / "p.json",
                {"space": CIRCLE, "P": TRIPLE, "Q": [], "lambda": 0.9})
    out = str(tmp_path / "cert.json")
    assert run(["barycenter", "--input", inp, "--output", out]) == 3
    assert json.load(open(out))["reason"] == "test"


def test_barycenter_malformed_exit_one(tmp_path):
    inp = write(tmp_path / "p.json", {"space": EUCLID, "P": [], "lambda": 0.5})
    assert run(["barycenter", "--input", inp,
                "--output", str(tmp_path / "x.json")]) == 1
    inp2 = write(tmp_path / "q.json", {"nonsense": 1})
    assert run(["barycenter", "--input", inp2,
                "--output", str(tmp_path / "y.json")]) == 1


def test_phase_sweep_rows(tmp_path):
    inp = write(tmp_path / "phase.json",
                {"space": CIRCLE, "lambdas": [0.5, 0.99],
                 "deltas": [0.8, math.sqrt(3)], "trials": 40})
    out = str(tmp_path / "phase.csv")
    assert run(["phase", "--input", inp, "--output", out, "--seed", "5"]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "# barylab phase sweep v1"
    assert lines[1] == "lambda,delta,trials,pass_rate,worst_witness"
    rows = {}
    for ln in lines[2:]:
        lam, delta, trials, rate = ln.split(",")[:4]
        rows[(round(float(lam), 3), round(float(delta), 3))] = float(rate)
    assert rows[(0.5, 0.8)] == 1.0
    assert rows[(0.5, round(math.sqrt(3), 3))] < 1.0
    assert rows[(0.99, round(math.sqrt(3), 3))] < 1.0


def test_phase_euclidean_all_pass(tmp_path):
    inp = write(tmp_path / "phase.json",
                {"space": EUCLID, "lambdas": [math.sqrt(3) / 2],
                 "deltas": [0.5, 2.0], "trials": 60})
    out = str(tmp_path / "phase.csv")
    assert run(["phase", "--input", inp, "--output", out]) == 0
    for ln in open(out).read().strip().split("\n")[2:]:
        assert float(ln.split(",")[3]) == 1.0


def subdivide_doc(order):
    return {"space": {"kind": "euclidean", "dim": 1},
            "complex": {"vertices": [0, 1],
                        "simplices": [[0], [1], [0, 1]]},
            "vertex_map": {"0": [0.0], "1": [1.0]},
            "lambda": 0.5, "order": order}


def test_subdivide_exit_and_csv(tmp_path):
    inp = write(tmp_path / "s.json", subdivide_doc(3))
    out = str(tmp_path / "shrink.csv")
    assert run(["subdivide", "--input", inp, "--output", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "# barylab shrink record v1"
    assert len(lines) == 2 + 2 + 4 + 8  # header rows + stage edge rows


def test_subdivide_order_zero_identity(tmp_path):
    inp = write(tmp_path / "s.json", subdivide_doc(0))
    out = str(tmp_path / "shrink.csv")
    assert run(["subdivide", "--input", inp, "--output", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 2  # no stages: record equals the input diameters


def labelled_triangle(ids):
    return {"space": EUCLID,
            "complex": {"vertices": ids, "simplices": [[v] for v in ids] + [
                [ids[0], ids[1]], [ids[0], ids[2]], [ids[1], ids[2]], ids]},
            "vertex_map": dict(zip(map(str, ids), [[0, 0], [1, 0], [0, 1]])),
            "lambda": 0.9, "order": 2}


# sha256 of the CSV that `barylab subdivide` wrote for the triangle labelled
# [3, 7, 9] when subdivision vertices were still addressed by their ids
LABELLED_TRIANGLE_CSV = "af41b5335862c1862e09ffef5ff3755df1456ed7128196b6ac8f1b28499de5ad"


def test_subdivide_prints_the_labels_of_the_rows(tmp_path):
    """The labelled triangle's CSV keeps its frozen bytes: stage rows name
    the vertex ids (3, 7, 9, then new ids from 10), and every column but the
    simplex equals the 0-based triangle's."""
    csvs = []
    for ids in ([3, 7, 9], [0, 1, 2]):
        inp = write(tmp_path / "s.json", labelled_triangle(ids))
        out = tmp_path / f"{ids[0]}.csv"
        assert run(["subdivide", "--input", inp, "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert hashlib.sha256(csvs[0]).hexdigest() == LABELLED_TRIANGLE_CSV
    labelled, zero_based = (c.decode().splitlines() for c in csvs)
    assert labelled[2].startswith("1,3 10,") and zero_based[2].startswith("1,0 3,")
    assert [ln.split(",")[2:] for ln in labelled[2:]] == \
        [ln.split(",")[2:] for ln in zero_based[2:]]


def unit_edge_with(**changes):
    return {**subdivide_doc(1), **changes}


@pytest.mark.parametrize("doc", [
    unit_edge_with(complex={"vertices": [0, 1], "simplices": [[1], [0, 1]]}),
    unit_edge_with(complex={"vertices": [0, 1], "simplices": [[0], [1], [7], [0, 7]]}),
    unit_edge_with(vertex_map={"0": [0.0]}),
    unit_edge_with(space={"kind": "sphere", "dim": 2},
                   vertex_map={"0": [1, 0, 0], "1": [0, 1, 0]}),
    unit_edge_with(**{"lambda": 1.0}),
    unit_edge_with(order=-1),
    unit_edge_with(order=2.7),
    unit_edge_with(order=True),
    unit_edge_with(vertex_map={"0": [math.nan], "1": [1.0]}),
    unit_edge_with(space={"kind": "finite", "dim": 3,
                          "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                   vertex_map={"0": 0, "1": 2.5}),
], ids=["not_face_closed", "unlisted_vertex", "vertex_map_misses_vertex",
        "sphere", "lambda_one", "negative_order", "order_fraction", "order_boolean",
        "label_nan", "label_fraction"])
def test_subdivide_rejects_bad_input(tmp_path, capsys, doc):
    inp = write(tmp_path / "s.json", doc)
    out = str(tmp_path / "shrink.csv")
    assert run(["subdivide", "--input", inp, "--output", out]) == 1
    assert_bad_input(capsys, "subdivide")
    assert not os.path.exists(out)


def test_subdivide_over_budget_exits_one(tmp_path, capsys):
    """A triangle grows 6-fold a stage; order 12 is refused before any stage."""
    doc = {"space": EUCLID,
           "complex": {"vertices": [0, 1, 2], "simplices": [
               [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]},
           "vertex_map": {"0": [0, 0], "1": [1, 0], "2": [0, 1]},
           "lambda": 0.9, "order": 12}
    inp = write(tmp_path / "s.json", doc)
    out = str(tmp_path / "shrink.csv")
    t0 = time.monotonic()
    assert run(["subdivide", "--input", inp, "--output", out]) == 1
    assert time.monotonic() - t0 < 1.0
    assert_bad_input(capsys, "subdivide")
    assert not os.path.exists(out)


def test_retract_over_budget_fails_extension(tmp_path, capsys):
    inp = write(tmp_path / "scene.json",
                {"scene": "euclidean_point", "overrides": {"order": 12}})
    out = str(tmp_path / "report.json")
    assert run(["retract", "--input", inp, "--output", out,
                "--density", "60"]) == 4
    assert "budget" in capsys.readouterr().err
    rep = json.load(open(out))
    assert rep["failure"]["stage"] == "extension"
    assert "budget" in rep["failure"]["message"]


def point_scene_with(**window):
    doc = scenes.euclidean_point_scene().to_json()
    doc["window"].update(window)
    return doc


def body_scene(kind, dim, body, component):
    """The euclidean_point scene document with another space, body and window
    component."""
    doc = point_scene_with(component=component)
    doc["space"], doc["body"] = {"kind": kind, "dim": dim}, body
    return doc


CH1, SH1 = math.cosh(1.0), math.sinh(1.0)


def patch_with_interior(point):
    """The hyperbolic_patch scene document with its first interior point replaced."""
    doc = scenes.hyperbolic_patch_scene().to_json()
    doc["window"]["interior_points"][0] = point
    return doc


def axis_with_group(word_length, *extra):
    """The hyperbolic_axis scene document with the given group word length and
    the isometries `extra` appended to its generators."""
    doc = scenes.hyperbolic_axis_scene().to_json()
    doc["group"]["word_length"] = word_length
    doc["group"]["generators"] += [g.to_json() for g in extra]
    return doc


# the scene's boost conjugated by a quarter turn: with it, the group is free
# on two generators and has 2 * 3^L - 1 elements within word length L
TURNED_BOOST = spaces.Isometry.hyperbolic_rotation(math.pi / 2).compose(
    spaces.Isometry.hyperbolic_boost(4.0)).compose(spaces.Isometry.hyperbolic_rotation(-math.pi / 2))


@pytest.mark.parametrize("doc, flags", [
    ({"scene": "euclidean_point"}, ["--order", "-1"]),
    ({"scene": "euclidean_point", "overrides": {"order": -1}}, []),
    ({"scene": "euclidean_point", "overrides": {"order": 1.5}}, []),
    ({"scene": "euclidean_point"}, ["--density", "0"]),
    ({"scene": "euclidean_point"}, ["--density", "-3"]),
    ({"scene": "euclidean_point"}, ["--lambda", "0"]),
    ({"scene": "euclidean_point"}, ["--lambda", "1.5"]),
    ({"scene": "euclidean_point", "overrides": {"lam": 1.0}}, []),
    ({"scene": "euclidean_point", "overrides": {"delta": 0}}, []),
    ({"scene": "euclidean_point", "overrides": {"delta": -0.01}}, []),
    ({"scene": "euclidean_point", "overrides": {"delta_prime": 0}}, []),
    ({"scene": "euclidean_point", "overrides": {"R": 1.0}}, []),
    ({"scene": "euclidean_point", "overrides": {"R": 0.5}}, []),
    ({"scene": "euclidean_point", "overrides": {"eps": math.nan}}, []),
    ({"scene": "hyperbolic_axis", "overrides": {"delta": math.inf}}, []),
    ({"scene": "hyperbolic_axis", "overrides": {"period": 0.0}}, []),
    (point_scene_with(s_lo=1.0, s_hi=1.0), []),
    (point_scene_with(s_lo=2.0, s_hi=1.0), []),
    (point_scene_with(sample_spacing=-1), []),
    ({"scene": "hyperbolic_axis", "overrides": {"eps": 1000}}, []),
    ({"scene": "hyperbolic_patch", "overrides": {"eps": 1000}}, []),
    (body_scene("euclidean", 3, {"type": "point", "point": [0, 0, 0]}, "circle"), []),
    (body_scene("euclidean", 3, {"type": "segment", "a": [0, 0, 0], "b": [1, 0, 0]},
                "outer"), []),
    (body_scene("hyperboloid", 3, {"type": "point", "point": [1, 0, 0, 0]}, "circle"), []),
    (body_scene("hyperboloid", 3, {"type": "line", "a": [1, 0, 0, 0],
                                   "b": [CH1, SH1, 0, 0]}, "plus"), []),
    (body_scene("euclidean", 2, {"type": "line", "a": [1, 2], "b": [1, 2]}, "plus"), []),
    (body_scene("euclidean", 2, {"type": "segment", "a": [1, 2], "b": [1, 2]}, "outer"), []),
    (body_scene("euclidean", 2, {"type": "line", "a": [0, math.nan], "b": [1, 0]},
                "plus"), []),
    (body_scene("hyperboloid", 2, {"type": "line", "a": [3, 1, 1], "b": [1, 0, 0]},
                "plus"), []),
    (body_scene("hyperboloid", 2, {"type": "segment", "a": [1, 0, 0], "b": [3, 1, 1]},
                "plus"), []),
    (body_scene("euclidean", 2, {"type": "line", "a": [0, 0], "b": [1, 0]}, "circle"), []),
    ({"scene": "euclidean_point", "overrides": {"order": True}}, []),
    ({"scene": "euclidean_point", "overrides": {"delta_prime": True}}, []),
    ({"scene": "euclidean_point", "overrides": {"delta": True}}, []),
    ({"scene": "euclidean_point", "overrides": {"eps": True}}, []),
    ({"scene": "hyperbolic_axis", "overrides": {"eps": True}}, []),
    (point_scene_with(sample_spacing=True), []),
    (point_scene_with(s_hi=True), []),
    ({"scene": "hyperbolic_axis", "overrides": {"delta": 1e-3}}, []),
    (point_scene_with(sample_spacing=1e-9), []),
    (point_scene_with(sample_spacing=3e-4), []),
    ({"scene": "euclidean_point"}, ["--density", str(2**40)]),
    (patch_with_interior([0.3, 0.2, 5.0]), []),
    (point_scene_with(interior_points=[[math.nan, 0.0]]), []),
    (point_scene_with(interior_points=[[0.3]]), []),
    (axis_with_group(-1), []),
    (axis_with_group(True), []),
    (axis_with_group(2.7), []),
    (axis_with_group("2"), []),
    (axis_with_group(20, TURNED_BOOST), []),
    ({"scene": "hyperbolic_axis", "overrides": {"period": True}}, []),
], ids=["order_flag", "order_override", "order_fraction", "density_zero",
        "density_negative", "lambda_zero", "lambda_above_one", "lambda_override",
        "delta_zero", "delta_negative", "delta_prime_zero", "R_equal_eps",
        "R_below_eps", "eps_nan", "delta_infinite", "period_zero", "window_empty",
        "window_reversed", "sample_spacing_negative", "axis_eps_overflow",
        "patch_eps_overflow", "r3_point", "r3_segment", "h3_point", "h3_line",
        "r2_line_coincident_ends", "r2_segment_coincident_ends", "r2_line_nan_end",
        "h2_line_off_sheet_end", "h2_segment_off_sheet_end", "r2_line_no_circle",
        "order_true", "delta_prime_true", "delta_true", "eps_true",
        "axis_eps_true", "sample_spacing_true", "window_end_true", "delta_past_sigma_samples",
        "sample_spacing_past_budget", "angle_matrix_past_budget", "density_past_budget",
        "interior_off_sheet", "interior_nan", "interior_short", "word_length_negative",
        "word_length_true", "word_length_fraction", "word_length_string",
        "group_past_element_budget", "period_true"])
def test_retract_rejects_bad_input(tmp_path, capsys, doc, flags):
    inp = write(tmp_path / "scene.json", doc)
    out = str(tmp_path / "report.json")
    assert run(["retract", "--input", inp, "--output", out, *flags]) == 1
    assert_bad_input(capsys, "retract")
    assert not os.path.exists(out)


def point_scene_under_translates(word_length, sample_spacing):
    """The euclidean_point scene document under the translations by (10, 0)
    up to the word length, with K samples sample_spacing apart."""
    doc = point_scene_with(sample_spacing=sample_spacing)
    doc["group"] = {"generators": [{"matrix": [[1.0, 0.0], [0.0, 1.0]],
                                    "translation": [10.0, 0.0]}], "word_length": word_length}
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc, cause", [
    ({"scene": "euclidean_point", "overrides": {"R": 1e300}}, "R 1e+300 "),
    ({"scene": "euclidean_point", "overrides": {"R": 1e155}}, "R 1e+155 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 10.0}}, "R 10.0 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 40.0}}, "R 40.0 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 100.0}}, "R 100.0 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 354.0}}, "R 354.0 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 400.0}}, "R 400.0 "),
    ({"scene": "hyperbolic_axis", "overrides": {"R": 1000.0}}, "R 1000.0 "),
    (point_scene_under_translates(500, 2 * math.pi / 2000), "K x K distance pairs"),
], ids=["point_R_1e300", "point_R_1e155", "axis_R_10", "axis_R_40", "axis_R_100",
        "axis_R_354", "axis_R_400", "axis_R_1000", "group_pairs_past_budget"])
def test_retract_refuses_before_any_stage(tmp_path, capsys, doc, cause):
    """An R that puts K_out or its squares past the float range, or K_out
    off the hyperboloid by more than check_point allows (|<x, x> + 1| is
    2.4e-6 at R = 10 on hyperbolic_axis, 2.2e20 at R = 40), and 1,000
    translates of 2,001 K samples (4e9 pairs, although K x K alone is within
    PAIR_ROWS), exit 1 with one stderr line naming the cause, with
    RuntimeWarnings as errors and before any stage runs."""
    inp = write(tmp_path / "scene.json", doc)
    out = str(tmp_path / "report.json")
    start = time.perf_counter()
    assert run(["retract", "--input", inp, "--output", out]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("barylab retract: bad input: ") and cause in err
    assert err.count("\n") == 1 and not os.path.exists(out)


def test_retract_scene_pass(tmp_path):
    inp = write(tmp_path / "scene.json",
                {"scene": "euclidean_point", "overrides": {"order": 1}})
    out = str(tmp_path / "report.json")
    assert run(["retract", "--input", inp, "--output", out,
                "--density", "60"]) == 0
    rep = json.load(open(out))
    assert rep["ok"] and rep["gates"]["identity"]
    assert os.path.exists(out + ".csv")
    csv = open(out + ".csv").read()
    assert csv.startswith("# barylab retraction samples v1")


def test_retract_gate_failure_exit_four(tmp_path, capsys):
    inp = write(tmp_path / "scene.json", {"scene": "broken_delta_prime"})
    out = str(tmp_path / "report.json")
    assert run(["retract", "--input", inp, "--output", out,
                "--density", "40"]) == 4
    err = capsys.readouterr().err
    assert "condition (2)" in err
    rep = json.load(open(out))
    assert rep["failure"]["stage"] == "smallness"


def test_retract_reports_a_geometry_error_of_the_smallness_stage(tmp_path, capsys,
                                                               monkeypatch):
    """A GeometryError of the smallness check (a DegenerateGeodesic, as the
    inward flow of an off-sheet K_out raised before Scene refused it) is
    reported as a failed smallness stage, exit 4 with one stderr line, no
    traceback."""
    def degenerate(*args, **kwargs):
        raise DegenerateGeodesic("x = y but t != 0")

    monkeypatch.setattr(retraction, "check_small_relative", degenerate)
    inp = write(tmp_path / "scene.json", {"scene": "hyperbolic_axis"})
    out = str(tmp_path / "report.json")
    assert run(["retract", "--input", inp, "--output", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("barylab retract: gate failure: ") and err.count("\n") == 1
    assert "x = y but t != 0" in err
    rep = json.load(open(out))
    assert rep["failure"]["stage"] == "smallness" and rep["ok"] is False


def test_retract_never_imports_numpy_ma(tmp_path):
    """A barylab retract in a fresh interpreter leaves numpy.ma unimported
    (np.unique would import it inside the run), and writes the bytes of an
    in-process run."""
    inp = write(tmp_path / "point.json", {"scene": "euclidean_point"})
    fresh, here = str(tmp_path / "fresh.json"), str(tmp_path / "here.json")
    code = ("import sys; from barylab import cli; "
            f"code = cli.main(['retract', '--input', {inp!r}, '--output', {fresh!r}]); "
            "sys.exit(code or 3 * ('numpy.ma' in sys.modules))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert run(["retract", "--input", inp, "--output", here]) == 0
    for suffix in ("", ".csv"):
        assert open(fresh + suffix, "rb").read() == open(here + suffix, "rb").read()


def test_outputs_byte_identical(tmp_path):
    inp = write(tmp_path / "p.json",
                {"space": EUCLID, "P": [[0, 0], [2, 0]], "Q": [[1, 5]],
                 "lambda": 0.5})
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert run(["barycenter", "--input", inp, "--output", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]

    phase_in = write(tmp_path / "ph.json",
                     {"space": CIRCLE, "lambdas": [0.5], "deltas": [0.8],
                      "trials": 30})
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert run(["phase", "--input", phase_in, "--output", out,
                    "--seed", "9"]) == 0
        csvs.append(open(out, "rb").read())
    assert csvs[0] == csvs[1]


def test_lambda_flag_overrides_input(tmp_path):
    inp = write(tmp_path / "p.json",
                {"space": CIRCLE, "P": TRIPLE, "Q": [], "lambda": 0.9})
    out = str(tmp_path / "cert.json")
    # forcing lambda = 1.05 makes the triple itself feasible
    assert run(["barycenter", "--input", inp, "--output", out,
                "--lambda", "1.05"]) == 0
    cert = json.load(open(out))
    assert cert["requested_lambda"] == 1.05 and cert["status"] == "found"


def test_retract_full_scene_document(tmp_path):
    from barylab import scenes
    doc = scenes.euclidean_point_scene(order=1).to_json()
    inp = write(tmp_path / "scene.json", doc)
    out = str(tmp_path / "rep.json")
    assert run(["retract", "--input", inp, "--output", out,
                "--density", "50"]) == 0
    rep = json.load(open(out))
    assert rep["ok"]


def test_usage_errors_exit_one(tmp_path):
    inp = write(tmp_path / "ph.json",
                {"space": CIRCLE, "lambdas": [0.5], "deltas": [0.8],
                 "trials": 5})
    out = str(tmp_path / "phase.csv")
    # --tol belongs to barycenter only; argparse's own exit code 2 would
    # read as "barycenter not found"
    assert run(["phase", "--input", inp, "--output", out, "--tol", "1e-6"]) == 1
    assert run(["phase", "--input", inp]) == 1
    assert not os.path.exists(out)
    # the circle solve is exact, so the grid resolution flag is gone
    inp = write(tmp_path / "p.json",
                {"space": CIRCLE, "P": TRIPLE, "Q": [], "lambda": 0.9})
    out = str(tmp_path / "cert.json")
    assert run(["barycenter", "--input", inp, "--output", out,
                "--delta", "0.001"]) == 1
    assert not os.path.exists(out)


CORNER = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]  # lambda* = 1/sqrt(3)


def test_barycenter_r3_and_h3_exact(tmp_path):
    inp = write(tmp_path / "p.json", {"space": {"kind": "euclidean", "dim": 3},
                                      "P": CORNER, "Q": [], "lambda": 0.7})
    out = str(tmp_path / "cert.json")
    assert run(["barycenter", "--input", inp, "--output", out]) == 0
    assert run(["barycenter", "--input", inp, "--output", out,
                "--lambda", "0.55"]) == 2
    cert = json.load(open(out))
    assert abs(cert["lambda_bound"] - 1 / math.sqrt(3)) <= 1e-9
    assert len(cert["weights"]) == 4
    s, c = math.sinh(1.0), math.cosh(1.0)
    hyp = [[c, s, 0, 0], [c, 0, s, 0], [c, 0, 0, s], [c, -s, 0, 0]]
    inp = write(tmp_path / "h.json", {"space": {"kind": "hyperboloid", "dim": 3},
                                      "P": hyp, "Q": [[1, 0, 0, 0]], "lambda": 0.8})
    assert run(["barycenter", "--input", inp, "--output", out]) == 0
    assert json.load(open(out))["status"] == "found"


def assert_bad_input(capsys, command):
    err = capsys.readouterr().err
    assert err.startswith(f"barylab {command}: bad input: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_barycenter_rejects_sphere(tmp_path, capsys):
    inp = write(tmp_path / "p.json", {"space": {"kind": "sphere", "dim": 2},
                                      "P": [[1, 0, 0], [0, 1, 0]], "lambda": 0.9})
    assert run(["barycenter", "--input", inp,
                "--output", str(tmp_path / "c.json")]) == 1
    assert_bad_input(capsys, "barycenter")


@pytest.mark.parametrize("space", [
    {"kind": "hyperboloid", "dim": 3}, {"kind": "sphere", "dim": 2},
    {"kind": "finite", "dim": 2, "matrix": [[0, 1], [1, 0]]}])
def test_phase_rejects_spaces_without_sampler(tmp_path, capsys, space):
    inp = write(tmp_path / "ph.json", {"space": space, "lambdas": [0.8],
                                       "deltas": [0.5], "trials": 2})
    out = str(tmp_path / "phase.csv")
    assert run(["phase", "--input", inp, "--output", out]) == 1
    assert_bad_input(capsys, "phase")
    assert not os.path.exists(out)


PHASE = {"space": CIRCLE, "lambdas": [0.5], "deltas": [0.8], "trials": 5}
BARYCENTER = {"space": CIRCLE, "P": TRIPLE, "Q": [], "lambda": 0.9}


@pytest.mark.parametrize("command, doc, flags", [
    ("phase", {**PHASE, "deltas": [-0.5]}, []),
    ("phase", {**PHASE, "deltas": [0.0]}, []),
    ("phase", {**PHASE, "lambdas": [math.nan]}, []),
    ("phase", {**PHASE, "lambdas": 0.5}, []),
    ("phase", {**PHASE, "trials": -3}, []),
    ("phase", {**PHASE, "trials": 2.5}, []),
    ("phase", PHASE, ["--trials", "0"]),
    ("phase", {**PHASE, "trials": True}, []),
    ("phase", {**PHASE, "lambdas": [True]}, []),
    ("phase", {**PHASE, "deltas": [True]}, []),
    ("barycenter", {**BARYCENTER, "lambda": math.nan}, []),
    ("barycenter", {**BARYCENTER, "lambda": "high"}, []),
    ("barycenter", {**BARYCENTER, "lambda": True}, []),
    ("barycenter", BARYCENTER, ["--lambda", "inf"]),
    ("barycenter", BARYCENTER, ["--tol", "0"]),
    ("barycenter", {"space": EUCLID, "P": [[0, 0], [math.nan, 1]], "lambda": 0.9}, []),
    ("barycenter", {"space": EUCLID, "P": [[0, 0], [1, -math.inf]], "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "hyperboloid", "dim": 2},
                    "P": [[1, 0, 0], [math.nan, 0, 0]], "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "hyperboloid", "dim": 2},
                    "P": [[1, 0, 0], [math.inf, math.inf, 0]], "lambda": 0.9}, []),
    ("barycenter", {"space": CIRCLE, "P": [[1, 0], [math.nan, 0]], "lambda": 0.9}, []),
    ("barycenter", {"space": CIRCLE, "P": [[1, 0]], "Q": [[math.inf, 0]],
                    "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "finite", "dim": 3,
                              "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                    "P": [0, 2.5], "lambda": 0.9}, []),
    ("barycenter", {"space": EUCLID, "P": [[True, 0], [0, 1]], "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "euclidean", "dim": True}, "P": [[0], [1]],
                    "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "circle", "radius": True}, "P": TRIPLE,
                    "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "finite", "dim": 2, "matrix": [[0, True], [1, 0]]},
                    "P": [0, 1], "lambda": 0.9}, []),
    ("barycenter", {"space": {"kind": "finite", "dim": 3,
                              "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                    "P": [0, True], "lambda": 0.9}, []),
], ids=["phase_delta_negative", "phase_delta_zero", "phase_lambda_nan",
        "phase_lambdas_not_list", "phase_trials_negative", "phase_trials_fraction",
        "phase_trials_flag_zero", "phase_trials_boolean", "phase_lambda_boolean",
        "phase_delta_boolean", "barycenter_lambda_nan", "barycenter_lambda_text",
        "barycenter_lambda_boolean", "barycenter_lambda_flag_inf", "barycenter_tol_zero",
        "barycenter_r2_nan", "barycenter_r2_inf", "barycenter_h2_nan", "barycenter_h2_inf",
        "barycenter_circle_nan", "barycenter_circle_q_inf", "barycenter_finite_fraction",
        "barycenter_point_boolean", "barycenter_dim_boolean", "barycenter_radius_boolean",
        "barycenter_matrix_boolean", "barycenter_index_boolean"])
def test_rejects_bad_numbers(tmp_path, capsys, command, doc, flags):
    inp = write(tmp_path / "in.json", doc)
    out = str(tmp_path / "out")
    assert run([command, "--input", inp, "--output", out, *flags]) == 1
    assert_bad_input(capsys, command)
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, doc, where, value", [
    ("barycenter", {"space": EUCLID, "P": [[0, 0], [1, False]], "lambda": 0.9},
     "P[1][1]", "false"),
    ("retract", {"scene": "hyperbolic_axis", "overrides": {"period": True}},
     "overrides.period", "true"),
    ("retract", True, "the document", "true"),
    ("retract", {"scene": "hyperbolic_axis", "overrides": {"order": [[False]], "lam": True}},
     "overrides.lam", "true"),
], ids=["point_entry", "override", "document", "shallowest_first"])
def test_boolean_input_names_its_path(tmp_path, capsys, command, doc, where, value):
    """The input loader refuses a JSON boolean anywhere in a document, naming
    its path; of several, the one nearest the top."""
    inp = write(tmp_path / "in.json", doc)
    assert run([command, "--input", inp, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        f"barylab {command}: bad input: {where} is the boolean {value}\n"


@pytest.mark.parametrize("command", ["barycenter", "retract"])
def test_deeply_nested_input_is_bad_input(tmp_path, capsys, command):
    """A document nested far past the recursion limit (written as text, which
    json.dumps cannot make) gives one bad-input line, not a traceback."""
    inp = tmp_path / "deep.json"
    inp.write_text("[" * 100000 + "]" * 100000 + "\n")
    out = str(tmp_path / "out")
    assert run([command, "--input", str(inp), "--output", out]) == 1
    assert capsys.readouterr().err == \
        f"barylab {command}: bad input: the document is nested too deeply to read\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("scene, body", [
    ("euclidean_point", {"type": "polygon", "points": [[0, 0], [1, 0], [0, 1]]}),
    ("hyperbolic_axis", {"type": "segment", "a": [1.0, 0.0, 0.0],
                         "b": [math.cosh(1.0), math.sinh(1.0), 0.0]})])
def test_retract_rejects_bodies_without_sampler(tmp_path, capsys, scene, body):
    from barylab import scenes
    doc = scenes.SCENE_BUILDERS[scene]().to_json()
    doc["body"] = body
    inp = write(tmp_path / "scene.json", doc)
    out = str(tmp_path / "rep.json")
    assert run(["retract", "--input", inp, "--output", out]) == 1
    assert_bad_input(capsys, "retract")
    assert not os.path.exists(out)
