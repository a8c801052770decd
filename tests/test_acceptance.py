"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS line with its runtime; criterion 9 reruns every
output-producing computation and compares the serialized outputs byte for
byte.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from barylab import barycenters as bc
from barylab import covers, scenes, simplicial, spaces, subdivision as sd
from test_covers import translate_labels
from test_simplicial import labelled

SQ32 = math.sqrt(3) / 2
SEED = 20240817


def _report(n, desc, t0, limit):
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {n} exceeded its runtime budget: {dt:.1f}s"
    print(f"ACCEPTANCE {n}: PASS - {desc} ({dt:.1f}s < {limit}s)")


# ---------------------------------------------------------------------------
# output producers (criterion 9 reruns these and compares bytes)


def produce_circle_obstruction():
    sp = spaces.ModelSpace.circle(1.0)
    trip = [spaces.circle_point(sp, 2 * math.pi * k / 3) for k in range(3)]
    certs = []
    for lam in np.arange(0.5, 0.995, 0.05):
        cert = bc.solve_barycenter(bc.BarycenterProblem(sp, trip, []), float(lam))
        certs.append(cert.to_json())
    diam = spaces.pairwise_diameter(sp, trip)
    return json.dumps({"diam": diam, "certs": certs}, sort_keys=True).encode()


def produce_circle_positive():
    rep = bc.has_barycenters_sample(spaces.ModelSpace.circle(1.0), 0.5, 0.8,
                                    1000, seed=SEED)
    return json.dumps(rep.to_json(), sort_keys=True).encode()


def produce_cat0_trials():
    rng = np.random.default_rng(SEED)
    digests = hashlib.sha256()
    stats = {"min_margin": math.inf, "min_slack": math.inf, "count": 0}

    def hyp_point():
        theta = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0, 0.5)
        return math.cosh(s) * np.array([1.0, 0, 0]) + \
            math.sinh(s) * np.array([0.0, math.cos(theta), math.sin(theta)])

    for space, sampler in [
            (spaces.ModelSpace.euclidean(2), lambda: rng.uniform(-1, 1, 2)),
            (spaces.ModelSpace.euclidean(3), lambda: rng.uniform(-1, 1, 3)),
            (spaces.ModelSpace.hyperboloid(2), hyp_point)]:
        for _ in range(1000):
            P = [sampler() for _ in range(int(rng.integers(2, 7)))]
            Q = [sampler() for _ in range(int(rng.integers(0, 7)))]
            cert = bc.cat0_midpoint_rule(space, P, Q)
            stats["min_margin"] = min(stats["min_margin"],
                                      SQ32 - cert.achieved_lambda)
            if cert.relative_slacks:
                stats["min_slack"] = min(stats["min_slack"],
                                         min(cert.relative_slacks))
            stats["count"] += 1
            digests.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    return stats, digests.hexdigest().encode()


def produce_simplex_model_case():
    rows = []
    for n in range(1, 5):
        space = spaces.ModelSpace.euclidean(n + 1)
        P = [np.eye(n + 1)[i] for i in range(n + 1)]
        centroid = np.full(n + 1, 1.0 / (n + 1))
        cplx = simplicial.SimplicialComplex.from_maximal([tuple(range(n + 1))])
        room_ids = simplicial.room(cplx, tuple(range(n + 1))).vertices
        Q = [P[i] for i in sorted(room_ids)]
        rows.append({
            "n": n,
            "lambda": bc.lambda_of(space, centroid, P),
            "expected": math.sqrt(n / (2.0 * (n + 1))),
            "slacks": [float(s) for s in
                       bc.relative_slacks(space, centroid, P, Q)],
        })
    return rows, json.dumps(rows, sort_keys=True).encode()


def produce_shrinking_records():
    e1 = spaces.ModelSpace.euclidean(1)
    edge = simplicial.SimplicialComplex.from_maximal([(0, 1)])
    iota = labelled(e1, {0: np.array([0.0]), 1: np.array([1.0])})
    res_edge = sd.iterate_subdivision(edge, iota, 0.5, 3)

    e2 = spaces.ModelSpace.euclidean(2)
    tri = simplicial.SimplicialComplex.from_maximal([(0, 1, 2)])
    iota2 = labelled(e2, {0: np.zeros(2), 1: np.array([1.0, 0.0]),
                          2: np.array([0.5, SQ32])})
    res_tri = sd.iterate_subdivision(tri, iota2, SQ32, 2)
    blob = (res_edge.record.to_csv() + res_tri.record.to_csv()).encode()
    return res_edge, res_tri, blob


def projection_test_cover():
    rng = np.random.default_rng(SEED)
    e1 = spaces.ModelSpace.euclidean(1)
    centers = [np.array([0.7 * k]) for k in range(8)]
    cov = covers.BallCover(e1, [(c, 0.5) for c in centers])
    g = spaces.Isometry.euclidean_translation([5.6])
    act = covers.GroupAction(e1, [g], word_length=2)
    return cov, act, g, rng


def produce_projection_weights():
    cov, act, g, rng = projection_test_cover()
    proj = covers.NerveProjector(cov, act)
    digest = hashlib.sha256()
    sums = []
    support_ok = True
    for _ in range(1000):
        q = np.array([rng.uniform(-0.45, 5.3)])
        support, w = proj.project(q)
        sums.append(float(np.sum(w)))
        d = spaces.distances_to(cov.space, proj.adj.centers, q)
        inside = set(int(i) for i in np.nonzero(d < proj.adj.radii)[0])
        support_ok = support_ok and inside <= set(support)
        digest.update(np.asarray(w).tobytes())
        digest.update(str(support).encode())
    # equivariance on 100 orbit pairs
    image = translate_labels(proj.adj, g)
    equi_max = 0.0
    pairs = 0
    while pairs < 100:
        q = np.array([rng.uniform(-0.45, 0.45)])
        s_q, w_q = proj.project(q)
        mapped = [image[i] for i in s_q]
        if None in mapped:
            continue
        s_hq, w_hq = proj.project(g.apply(q))
        if tuple(sorted(mapped)) != s_hq:
            equi_max = math.inf
            break
        order = np.argsort(mapped)
        equi_max = max(equi_max, float(np.max(np.abs(w_q[order] - w_hq))))
        pairs += 1
    return sums, support_ok, equi_max, digest.hexdigest().encode()


@pytest.fixture(scope="module")
def flagship_report():
    t0 = time.monotonic()
    rep = scenes.run_pipeline(scenes.hyperbolic_axis_scene(), density=200,
                              seed=SEED)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def euclid_report():
    t0 = time.monotonic()
    rep = scenes.run_pipeline(scenes.euclidean_point_scene(), density=1000,
                              seed=SEED)
    return rep, time.monotonic() - t0


def report_bytes(rep):
    return (json.dumps(rep.to_json(), sort_keys=True) + rep.samples_csv()).encode()


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_circle_obstruction():
    t0 = time.monotonic()
    blob = produce_circle_obstruction()
    doc = json.loads(blob)
    assert abs(doc["diam"] - math.sqrt(3)) < 1e-9
    for cert in doc["certs"]:
        assert cert["requested_lambda"] <= 0.99
        assert cert["status"] == "not_found_below"
        assert abs(cert["lambda_bound"] - 1.0) <= 1e-12
        assert cert["grid_resolution"] == 0.0
    _report(1, "circle equidistant triple has no lambda-barycenter below 0.99",
            t0, 10)


def test_criterion_2_circle_positive_regime():
    t0 = time.monotonic()
    doc = json.loads(produce_circle_positive())
    assert doc["trials"] == 1000
    assert doc["pass_rate"] == 1.0
    _report(2, "circle has 1/2-barycenters (arc rule) up to diameter 0.8",
            t0, 30)


def test_criterion_3_cat0_midpoint_rule():
    t0 = time.monotonic()
    stats, _ = produce_cat0_trials()
    assert stats["count"] == 3000
    assert stats["min_margin"] >= -1e-9
    assert stats["min_slack"] >= -1e-9
    _report(3, "midpoint rule stays within sqrt(3)/2 with nonneg slacks "
               "on R^2, R^3, H^2", t0, 60)


def test_criterion_4_simplicial_model_case():
    t0 = time.monotonic()
    rows, _ = produce_simplex_model_case()
    for row in rows:
        assert abs(row["lambda"] - row["expected"]) < 1e-9
        assert row["lambda"] <= 1 / math.sqrt(2) + 1e-12
        assert min(row["slacks"]) >= -1e-9
    _report(4, "regular-simplex centroid lambda = sqrt(n/(2(n+1))) <= 1/sqrt(2)",
            t0, 5)


def test_criterion_5_shrinking_bounds():
    t0 = time.monotonic()
    res_edge, res_tri, _ = produce_shrinking_records()
    max_edge = max(res_edge.record.final_diams)
    assert max_edge <= 0.125 + 1e-9
    for max_d in res_edge.record.max_dists:
        assert max_d <= 2.0 + 1e-9
    ver = sd.verify_shrinking(res_edge.record, tol=1e-9)
    assert ver.ok
    max_tri = max(res_tri.record.final_diams)
    assert max_tri <= 0.75 + 1e-9
    assert sd.verify_shrinking(res_tri.record, tol=1e-9).ok
    _report(5, "shrinking bounds: edge n=3 within 1/8 and 2.0; triangle n=2 "
               "within (3/4) diam", t0, 10)


def test_criterion_6_projection_correctness():
    t0 = time.monotonic()
    sums, support_ok, equi_max, _ = produce_projection_weights()
    assert len(sums) == 1000
    assert max(abs(s - 1.0) for s in sums) < 1e-9
    assert support_ok
    assert equi_max <= 1e-12
    _report(6, "projection weights sum to 1, supports contain every covering "
               "element, equivariant on 100 orbit pairs", t0, 10)


def test_criterion_7_flagship_retraction(flagship_report):
    rep, dt = flagship_report
    t0 = time.monotonic() - dt
    assert rep.ok, rep.failure or {k: v for k, v in rep.gates.items() if not v}
    assert np.max(rep.identity) <= 1e-8
    assert np.min(rep.angle) >= 3 * math.pi / 4 - 1e-6
    assert np.all(rep.escape)
    assert rep.diam_iota <= rep.diam_K_Kout + 1e-9
    vals = [rep.moduli[k] for k in ("0.01", "0.001", "0.0001")]
    assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9
    _report(7, "flagship H^2 retraction passes every gate", t0, 300)


def test_criterion_8_euclidean_oracle(euclid_report):
    rep, dt = euclid_report
    t0 = time.monotonic() - dt
    assert rep.ok
    assert len(rep.radial) == 1000
    assert np.max(rep.radial) <= 1e-6
    _report(8, "retraction equals analytic radial projection within 1e-6 "
               "on 1000 samples", t0, 30)


def test_criterion_9_determinism(flagship_report, euclid_report):
    t0 = time.monotonic()
    assert produce_circle_obstruction() == produce_circle_obstruction()
    assert produce_circle_positive() == produce_circle_positive()
    assert produce_cat0_trials()[1] == produce_cat0_trials()[1]
    assert produce_simplex_model_case()[1] == produce_simplex_model_case()[1]
    assert produce_shrinking_records()[2] == produce_shrinking_records()[2]
    assert produce_projection_weights()[3] == produce_projection_weights()[3]
    rep7, _ = flagship_report
    rerun7 = scenes.run_pipeline(scenes.hyperbolic_axis_scene(), density=200,
                                 seed=SEED)
    assert report_bytes(rep7) == report_bytes(rerun7)
    rep8, _ = euclid_report
    rerun8 = scenes.run_pipeline(scenes.euclidean_point_scene(), density=1000,
                                 seed=SEED)
    assert report_bytes(rep8) == report_bytes(rerun8)
    _report(9, "all criterion outputs byte-identical on rerun", t0, 600)
