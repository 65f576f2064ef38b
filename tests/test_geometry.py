"""Geometry layer: intervals, projections, emptiness, interference checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccbf.errors import DimensionError, EmptyRegionError, GeometryConvergenceError
from ccbf.geometry import (
    ControlRegion,
    Halfspace,
    box_center,
    clamp_to_box,
    closest_point,
    intersect,
    is_empty,
    weakly_non_interfering,
)


def _grid_closest(box, halfspaces, n=100):
    """Two-stage grid oracle for the box point nearest the request polytope.

    Distance from a grid point to the polytope is computed by exact
    enumeration of projection candidates: the point itself, its projection
    onto each plane, and the pairwise plane-intersection points (enough in
    2-D).
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    def dist_to_polytope(u):
        cands = [u]
        for h in halfspaces:
            nn = float(h.normal @ h.normal)
            cands.append(u - (h.value(u) / nn) * h.normal)
        for ha, hb in itertools.combinations(halfspaces, 2):
            mat = np.vstack([ha.normal, hb.normal])
            if abs(np.linalg.det(mat)) < 1e-12:
                continue
            cands.append(np.linalg.solve(mat, -np.array([ha.offset, hb.offset])))
        best = np.inf
        for c in cands:
            if all(h.value(c) >= -1e-9 for h in halfspaces):
                best = min(best, float(np.linalg.norm(u - c)))
        return best

    def sweep(center, half, m):
        axes = [np.linspace(max(center[d] - half[d], lo[d]),
                            min(center[d] + half[d], hi[d]), m) for d in range(len(box))]
        best, best_u = np.inf, None
        for combo in itertools.product(*axes):
            u = np.array(combo)
            d = dist_to_polytope(u)
            if d < best:
                best, best_u = d, u
        return best_u, best

    u1, _ = sweep((lo + hi) / 2.0, (hi - lo) / 2.0, n)
    cell = (hi - lo) / (n - 1)
    return sweep(u1, 2.0 * cell, n)


def test_interval_reduction():
    r = intersect([(0.0, 1.0)], [Halfspace(np.array([1.0]), -0.25),
                                 Halfspace(np.array([-2.0]), 1.6)])
    lo, hi = r.interval()
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(0.8)
    assert not is_empty(r)


def test_interval_empty():
    r = intersect([(0.0, 1.0)], [Halfspace(np.array([1.0]), -1.5)])
    lo, hi = r.interval()
    assert lo > hi
    assert is_empty(r)


def test_zero_normal_halfspace_trivial_or_empty():
    ok = intersect([(0.0, 1.0)], [Halfspace(np.array([0.0]), 0.3)])
    bad = intersect([(0.0, 1.0)], [Halfspace(np.array([0.0]), -0.3)])
    assert not is_empty(ok)
    assert is_empty(bad)


def test_bad_box_rejected():
    with pytest.raises(EmptyRegionError):
        ControlRegion(((1.0, 0.0),))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        ControlRegion(((0.0, 1.0),), (Halfspace(np.array([1.0, 0.0]), 0.0),))
    with pytest.raises(DimensionError, match="must be a vector"):
        Halfspace(np.eye(2), 0.0)
    with pytest.raises(DimensionError, match="frozen point"):
        ControlRegion(((0.0, 1.0),), frozen_point=np.array([0.4, 0.4]))
    with pytest.raises(DimensionError, match="1-D regions"):
        ControlRegion(((0.0, 1.0), (0.0, 1.0))).interval()


def test_frozen_region_contains_only_its_point():
    r = ControlRegion(((0.0, 1.0),), frozen_point=np.array([0.4]))
    assert r.frozen
    assert r.interval() == (0.4, 0.4)
    assert not is_empty(r)


def test_closest_point_1d_exact():
    # box [0,1], request u >= 1.5: nearest box point is 1.0 at distance 0.5
    u, d = closest_point([(0.0, 1.0)], [Halfspace(np.array([1.0]), -1.5)])
    assert u == pytest.approx(np.array([1.0]))
    assert d == pytest.approx(0.5)
    # overlap: distance zero, point feasible
    u, d = closest_point([(0.0, 1.0)], [Halfspace(np.array([1.0]), -0.5)])
    assert d == 0.0
    assert 0.5 <= u[0] <= 1.0
    # a zero normal with a negative offset leaves no request polytope at all
    with pytest.raises(GeometryConvergenceError, match="empty request polytope") as excinfo:
        closest_point([(0.0, 1.0)], [Halfspace(np.array([1.0]), -0.5),
                                     Halfspace(np.array([0.0]), -0.1)])
    assert excinfo.value.residual == np.inf


def test_closest_point_2d_frozen_example():
    # unit box against u1 + u2 >= 3: corner (1,1), distance 1/sqrt(2) to the plane
    box = ((0.0, 1.0), (0.0, 1.0))
    hs = [Halfspace(np.array([1.0, 1.0]), -3.0)]
    u, d = closest_point(box, hs)
    assert np.allclose(u, [1.0, 1.0], atol=1e-7)
    assert d == pytest.approx((3.0 - 2.0) / np.sqrt(2.0), abs=1e-7)


def test_closest_point_2d_against_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(6):
        box = ((0.0, 1.0), (0.0, 1.0))
        hs = []
        for _ in range(rng.integers(1, 4)):
            a = rng.normal(size=2)
            while np.linalg.norm(a) < 0.3:
                a = rng.normal(size=2)
            hs.append(Halfspace(a, float(rng.uniform(-2.0, 1.0))))
        # keep the polytope nonempty: grow offsets until a far point satisfies all
        probe = np.array([50.0, 50.0])
        if not all(h.value(probe) >= 0 for h in hs):
            hs = [Halfspace(h.normal, abs(h.offset) + 100.0 * float(np.sum(np.abs(h.normal))))
                  for h in hs]
        try:
            u, d = closest_point(box, hs)
        except GeometryConvergenceError:
            continue
        _, d_ref = _grid_closest(box, hs)
        assert d == pytest.approx(d_ref, abs=2e-2)


def test_is_empty_2d_cases():
    box = ((0.0, 1.0), (0.0, 1.0))
    assert not is_empty(intersect(box, [Halfspace(np.array([1.0, 1.0]), -1.0)]))
    assert is_empty(intersect(box, [Halfspace(np.array([1.0, 1.0]), -3.0)]))
    # a zero normal excludes every control when its offset is negative
    assert is_empty(intersect(box, [Halfspace(np.zeros(2), -0.3)]))
    assert not is_empty(intersect(box, [Halfspace(np.zeros(2), 0.3)]))


def test_weakly_non_interfering_witness():
    ok, v = weakly_non_interfering([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert ok
    assert np.allclose(v, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-6)
    for a in ([1.0, 0.0], [0.0, 1.0]):
        assert float(np.array(a) @ v) > 0.0


def test_weakly_non_interfering_opposed():
    ok, v = weakly_non_interfering([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    assert not ok
    assert v is None


def test_weakly_non_interfering_1d_signs():
    ok, _ = weakly_non_interfering([np.array([0.5]), np.array([2.0])])
    assert ok
    ok, _ = weakly_non_interfering([np.array([0.5]), np.array([-2.0])])
    assert not ok


def test_weakly_non_interfering_zero_normal_fails():
    ok, v = weakly_non_interfering([np.array([1.0, 0.0]), np.array([0.0, 0.0])])
    assert not ok
    assert v is None


def test_weakly_non_interfering_empty_family():
    ok, v = weakly_non_interfering([])
    assert ok
    assert v is None


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=5))
def test_weakly_non_interfering_witness_is_valid(raw):
    normals = [np.array(a) for a in raw if np.linalg.norm(a) > 1e-6]
    if not normals:
        return
    ok, v = weakly_non_interfering(normals)
    if ok:
        for a in normals:
            assert float(a @ v) > -1e-9


def test_box_helpers():
    box = ((0.0, 1.0), (2.0, 4.0))
    assert np.allclose(box_center(box), [0.5, 3.0])
    assert np.allclose(clamp_to_box(np.array([5.0, -1.0]), box), [1.0, 2.0])
