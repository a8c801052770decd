"""Self-tests of the benchmark: its output checks, its trace and its inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from barylab import barycenters, spaces  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference("euclid_oracle")


def test_reference_report_passes(reference):
    assert checks.check_report(copy.deepcopy(reference), reference, 0, 0) == []
    # the report is seed-invariant apart from its seed field
    moved = dict(copy.deepcopy(reference), seed=5)
    assert checks.check_report(moved, reference, 0, 5) == []


def test_checker_rejects_a_flipped_gate(reference):
    report = copy.deepcopy(reference)
    report["gates"]["escape"] = False
    problems = checks.check_report(report, reference, 0, 0)
    assert any("escape" in p for p in problems)


def test_checker_rejects_a_nonzero_exit_code(reference):
    assert checks.check_report(copy.deepcopy(reference), reference, 4, 0)


def test_checker_rejects_a_number_moved_by_1e_9(reference):
    report = copy.deepcopy(reference)
    report["extension"]["full_map_diameter"] += 1e-9
    problems = checks.check_report(report, reference, 0, 0)
    assert problems and "full_map_diameter" in problems[0]
    report = copy.deepcopy(reference)
    report["moduli"]["0.001"] -= 1e-9
    assert checks.check_report(report, reference, 0, 0)


def _trial(space, lam, delta, trial_seed):
    rep = barycenters.has_barycenters_sample(space, lam, delta, 1, trial_seed)
    P, Q = checks.trial_instance(space, delta, trial_seed)
    return P, Q, rep.worst["certificate"]


def test_checker_accepts_and_rejects_grid_certificates():
    space = spaces.ModelSpace.euclidean(2)
    P, Q, cert = _trial(space, 0.7, 1.0, 44)
    assert cert["status"] == "found"
    assert checks.check_certificate(space, 0.7, P, Q, cert) == ([], True)
    unsound = dict(cert, point=[float(x) + 10.0 for x in cert["point"]])
    problems, _ = checks.check_certificate(space, 0.7, P, Q, unsound)
    assert problems

    circle = spaces.ModelSpace.circle(1.0)
    P, Q, cert = _trial(circle, 0.45, 0.8, 3)
    assert cert["status"] == "not_found_below"
    assert checks.check_certificate(circle, 0.45, P, Q, cert) == ([], True)
    unsound = dict(cert, lambda_bound=0.44)
    assert checks.check_certificate(circle, 0.45, P, Q, unsound)[0]
    undecided = dict(cert, status="indeterminate")
    assert checks.check_certificate(circle, 0.45, P, Q, undecided) == ([], False)


def test_checker_rechecks_arc_certificates_in_the_arc_metric():
    circle = spaces.ModelSpace.circle(1.0)
    P, Q, cert = _trial(circle, 0.5, 0.8, 11)
    assert cert["metric"] == "arc"
    assert checks.check_certificate(circle, 0.5, P, Q, cert) == ([], True)
    theta = spaces.circle_angle(circle, np.asarray(cert["point"])) + 0.3
    moved = dict(cert, point=list(spaces.circle_point(circle, theta)))
    assert checks.check_certificate(circle, 0.5, P, Q, moved)[0]


def test_checker_rejects_a_certificate_for_another_instance():
    space = spaces.ModelSpace.euclidean(2)
    P, Q, cert = _trial(space, 0.7, 1.0, 44)
    P2, Q2 = checks.trial_instance(space, 1.0, 45)
    assert checks.check_certificate(space, 0.7, P2, Q2, cert)[0]


def test_checker_that_raises_makes_the_operation_wrong(capsys):
    space = spaces.ModelSpace.euclidean(2)
    P, Q, cert = _trial(space, 0.7, 1.0, 44)
    malformed = {k: v for k, v in cert.items() if k != "point"}

    class Runner:
        def run(self, index):
            return 0.01, malformed

        def check(self, index, outcome):
            return checks.check_certificate(space, 0.7, P, Q, outcome)

    child.run_op(Runner(), 0, None)
    op = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (op["ok"], op["correct"], op["decided"]) == (False, False, False)
    assert "output check raised KeyError" in op["detail"]


def test_the_defect_instance_runs_in_a_worker_of_its_own():
    trials = workloads.phase_trials(3)
    groups = workloads.worker_groups("phase_sweep", 3)
    assert sorted(i for g in groups for i in g) == list(range(len(trials)))
    assert [[trials[i][4] for i in g] for g in groups[1:]] == [[47]]
    assert groups[0] == sorted(groups[0])
    assert workloads.worker_groups("flagship", 3) == [[0]]


def test_seed_changes_phase_instances_and_repeats_them():
    a, b = workloads.phase_trials(0), workloads.phase_trials(1)
    assert a == workloads.phase_trials(0)
    assert a != b
    assert len(a) == len(b) == 274
    assert sorted(a, key=repr) != a  # rows are interleaved
    # the known unbounded-grid instance stays in every sweep
    assert all(("plane_grid", workloads.PLANE, 0.7, 1.0, 47) in t for t in (a, b))


def test_tracer_restores_the_library():
    from barylab import covers

    original = spaces.distance, covers.NerveProjector.tents
    t = tracer.Tracer()
    t.install()
    assert spaces.distance is not original[0]
    space = spaces.ModelSpace.euclidean(2)
    spaces.pairwise_diameter(space, [np.zeros(2), np.ones(2)])
    t.uninstall()
    assert (spaces.distance, covers.NerveProjector.tents) == original
    m = t.metrics()
    assert m["spaces.pairwise_diameter.calls"] == 1
    assert m["spaces.pairwise_diameter.self_s"] >= 0.0


def test_benchmark_json_matches_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == [
        n for n in workloads.NAMES if n != "flagship_full"]


def _run(tmp_root, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tmp_root, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = _run(tmp_path, "--workload", "flagship", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert code != 0
    assert out == ""


def test_a_dead_worker_is_a_failed_operation(tmp_path, monkeypatch):
    def spawn_dying_worker(cfg):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read(); sys.exit(3)"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        proc.stdin.write(json.dumps(cfg).encode())
        proc.stdin.close()
        return proc, time.monotonic()

    monkeypatch.setattr(run, "spawn", spawn_dying_worker)
    r = run.Run("euclid_oracle", 0, 1, False, tmp_path)
    r.run_pass(traced=False)
    assert [(op["ok"], op["detail"]) for op in r.ops] == [(False, "worker died (3)")]
    assert r.passes[0]["whole"]


def test_counts_repeat_exactly_across_two_traced_runs():
    results = []
    for _ in range(2):
        code, out = _run(ROOT, "--workload", "euclid_oracle", "--seed", "0",
                         "--seconds", "1", "--trace", "1")
        assert code == 0
        line = json.loads(out.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0
        results.append({k: v["value"] for k, v in line["metrics"].items()
                        if v["unit"] == "count"})
    assert results[0] == results[1]
    assert results[0]["retraction.Retractor.retract.calls"] == 2698
    assert results[0]["subdivision.vertices"] == 4656
