"""The single-interval PhiIntervalSet, and the sequential subtraction kept
as a reference oracle in reference_intervals (the subtract cases)."""

import math

import numpy as np
import pytest

from coneapprox.intervals import BLOCK_ELEMENTS, PhiIntervalSet, surviving_intervals
from reference_intervals import SequentialIntervalSet


def test_full_and_empty():
    amb = (0.0, 1.0)
    assert PhiIntervalSet(amb, amb).is_full()
    assert not PhiIntervalSet(amb, amb).is_empty()
    assert PhiIntervalSet(amb).is_empty()
    assert PhiIntervalSet(amb, amb).total_length() == 1.0


def test_subtract_middle_splits():
    s = SequentialIntervalSet.full((0.0, 1.0)).subtract(0.4, 0.6)
    assert s.intervals == ((0.0, 0.4), (0.6, 1.0))
    assert s.total_length() == pytest.approx(0.8)
    assert s.min_length() == pytest.approx(0.4)


def test_subtract_edges_and_cover():
    amb = (0.0, 1.0)
    assert SequentialIntervalSet.full(amb).subtract(0.0, 0.25).intervals == ((0.25, 1.0),)
    assert SequentialIntervalSet.full(amb).subtract(0.75, 1.0).intervals == ((0.0, 0.75),)
    assert SequentialIntervalSet.full(amb).subtract(-1.0, 2.0).is_empty()


def test_subtract_disjoint_is_noop():
    s = SequentialIntervalSet((0.0, 1.0), ((0.2, 0.4),))
    assert s.subtract(0.5, 0.9) == s
    assert s.subtract(0.4, 0.9).intervals == ((0.2, 0.4),)  # touching endpoint only


def test_measure_zero_subtrahend_is_invisible():
    s = SequentialIntervalSet.full((0.0, 1.0))
    assert s.subtract(0.5, 0.5) == s


def test_closed_subtraction_drops_osculation_point():
    s = SequentialIntervalSet.full((0.0, 1.0)).subtract(0.0, 0.5).subtract(0.5, 1.0)
    assert s.is_empty()


def test_open_endpoint_survives_as_point():
    s = SequentialIntervalSet.full((0.0, 1.0))
    s = s.subtract(0.0, 0.5, keep_hi=True)
    s = s.subtract(0.5, 1.0, keep_lo=True)
    assert s.intervals == ((0.5, 0.5),)
    assert not s.is_empty()
    assert s.contains(0.5)


def test_open_endpoint_removed_by_interior_cover():
    s = SequentialIntervalSet.full((0.0, 1.0))
    s = s.subtract(0.0, 0.5, keep_hi=True)
    s = s.subtract(0.4, 1.0)
    assert s.is_empty()


def test_degenerate_ambient():
    amb = (0.0, 0.0)
    full = SequentialIntervalSet.full(amb)
    assert not full.is_empty()
    assert full.subtract(0.0, 0.0).is_empty()
    assert full.subtract(-0.5, 0.5).is_empty()
    assert full.subtract(0.3, 0.9) == full


def test_contains_tolerance():
    s = PhiIntervalSet((0.0, 1.0), (0.2, 0.4))
    assert s.contains(0.2)
    assert s.contains(0.4 + 5e-13)
    assert not s.contains(0.5)


def test_total_length_empty_is_zero():
    assert PhiIntervalSet((0.0, 1.0)).total_length() == 0.0


# --- surviving_intervals: the single-interval kernel ----------------------------

GAMMA = 0.75 * math.pi
AMB = (0.0, 0.25 * math.pi)


def kernel(rows, cols, gamma=GAMMA, covering=False):
    lo, hi, alive = surviving_intervals(
        np.array(rows, dtype=float), np.array(cols, dtype=float), gamma, covering=covering
    )
    return [(a, b) if k else None for a, b, k in zip(lo.tolist(), hi.tolist(), alive.tolist())]


def test_prefix_and_suffix_windows_leave_one_interval():
    # A difference at angle gamma - 0.05 blocks the prefix [0, 0.05], one at
    # angle -0.6 the suffix [0.6, a1]; d = row - col, so cols hold -d.
    cols = [(-math.cos(a), -math.sin(a)) for a in (GAMMA - 0.05, -0.6)]
    (got,) = kernel([(0.0, 0.0)], cols)
    assert got == pytest.approx((0.05, 0.6), abs=1e-15)


def test_whole_range_window_and_coinciding_images():
    # d = (1, 1) lies in every admissible cone: the whole range is blocked.
    assert kernel([(2.0, 2.0)], [(1.0, 1.0)]) == [None]
    # A coinciding image is skipped, or, for coverage, covers outright.
    assert kernel([(1.0, 1.0)], [(1.0, 1.0)]) == [AMB]
    assert kernel([(1.0, 1.0)], [(1.0, 1.0)], covering=True) == [None]


def test_tie_endpoints_and_degenerate_range():
    rows, cols = [(2.0, 2.0)], [(1.0, 3.0), (3.0, 1.0)]
    # Supportedness at pi keeps the tie rotation; coverage removes it closed.
    assert kernel(rows, cols, math.pi) == [(0.25 * math.pi, 0.25 * math.pi)]
    assert kernel(rows, cols, math.pi, covering=True) == [None]
    # At pi/2 only phi = 0 is admissible; any window through it removes it.
    for covering in (False, True):
        assert kernel([(2.0, 1.0)], [(1.0, 1.0), (3.0, 0.5)], 0.5 * math.pi, covering) == [None]
        assert kernel([(2.0, 1.0)], [(3.0, 0.5)], 0.5 * math.pi, covering) == [(0.0, 0.0)]


def test_right_angle_band_is_the_right_angle():
    # Within TAU_ANGLE of pi/2 the range is the single rotation 0, so the
    # kernel answers as at pi/2 exactly.
    rows, cols = [(2.0, 1.0)], [(1.0, 1.0 + 1e-13), (3.0, 0.5)]
    for covering in (False, True):
        want = kernel(rows, cols, 0.5 * math.pi, covering)
        for gamma in (0.5 * math.pi + 5e-13, 0.5 * math.pi + 9e-13):
            assert kernel(rows, cols, gamma, covering) == want


def test_blocks_match_one_pass():
    rng = np.random.default_rng(0)
    pts = rng.integers(1, 30, size=(600, 2)) / 4.0
    assert len(pts) ** 2 > BLOCK_ELEMENTS
    # Both rules: ties (supportedness at pi) and closed removal (coverage).
    for gamma, covering in ((math.pi, False), (GAMMA, True)):
        whole = kernel(pts, pts, gamma, covering)
        for i in (0, 57, 599):
            assert kernel(pts[i : i + 1], pts, gamma, covering) == whole[i : i + 1]
