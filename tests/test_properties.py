"""Property tests (Hypothesis): certificates are invariant under isometries."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from barylab import barycenters as bc  # noqa: E402
from barylab import spaces  # noqa: E402

SPACES = [spaces.ModelSpace.euclidean(2), spaces.ModelSpace.euclidean(3),
          spaces.ModelSpace.hyperboloid(2), spaces.ModelSpace.hyperboloid(3)]


def draw_point(space, rng):
    if space.kind == spaces.EUCLIDEAN:
        return rng.uniform(-1.0, 1.0, space.dim)
    u = rng.normal(size=space.dim)
    s = rng.uniform(0.0, 1.0)
    return np.concatenate(([math.cosh(s)], math.sinh(s) * u / np.linalg.norm(u)))


def random_isometry(space, rng):
    """An orthogonal map and a translation in R^n; a boost of length up to
    2 between two rotations about the basepoint in H^n."""
    n = space.dim
    rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if space.kind == spaces.EUCLIDEAN:
        return spaces.Isometry(spaces.EUCLIDEAN, rot, rng.uniform(-5.0, 5.0, n))
    turn = np.eye(n + 1)
    turn[1:, 1:] = rot
    boost = spaces.Isometry.hyperbolic_boost(rng.uniform(0.0, 2.0), dim=n).matrix
    return spaces.Isometry(spaces.HYPERBOLOID, turn @ boost @ turn.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPACES))))
def test_lambda_star_isometry_invariant(seed, which):
    space = SPACES[which]
    rng = np.random.default_rng(seed)
    P = [draw_point(space, rng) for _ in range(int(rng.integers(2, 7)))]
    Q = [draw_point(space, rng) for _ in range(int(rng.integers(0, 4)))]
    g = random_isometry(space, rng)
    moved = bc.BarycenterProblem(space, [g.apply(p) for p in P], [g.apply(q) for q in Q])
    a = bc.solve_barycenter(bc.BarycenterProblem(space, P, Q), 1.0)
    b = bc.solve_barycenter(moved, 1.0)
    assert a.found and b.found
    assert abs(a.achieved_lambda - b.achieved_lambda) <= 1e-9
    assert abs(a.lambda_bound - b.lambda_bound) <= 1e-9
