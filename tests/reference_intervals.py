"""Sequential rotation-interval algebra, kept as a reference oracle.

This is the pair-by-pair formulation of gamma-supportedness and of
rotation coverage gaps: a solution's admissible rotations start as the full
range and each other solution's dominating window is subtracted in turn, as
a general union of disjoint intervals.  The library replaces it by a single
vectorized interval per solution; the agreement tests compare the two.

Subtraction is exact up to TAU_ANGLE: remainder slivers not longer than
TAU_ANGLE are dropped, and subtrahends not longer than TAU_ANGLE are
invisible.  A degenerate ambient range (gamma = pi/2, where phi = 0 is the
only admissible rotation) is kept as the single point interval and is
emptied by any subtrahend touching it.

dominating_rotations() is the one-window building block: the rotations at
which a single direction lies in the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import coneapprox as ca
from coneapprox.errors import ConeApproxError
from coneapprox.geometry import Vector2, admissible_range
from coneapprox.intervals import PhiIntervalSet
from coneapprox.tolerances import TAU_ANGLE, TAU_VAL

Interval = tuple[float, float]


class ZeroDirection(ConeApproxError, ValueError):
    """A direction vector of (0, 0) was passed where a nonzero one is required."""


def rotation_window(gamma: float, d: Vector2) -> tuple[float, float]:
    """Unclipped rotation interval [-theta, gamma - theta] on which d lies in
    the cone, with theta = atan2(d2, d1).  Raises ZeroDirection for d = (0, 0).
    numpy's arctan2 (not math.atan2, which can differ in the last bit) keeps
    this bit-identical to the block kernel intervals.surviving_intervals."""
    if d[0] == 0.0 and d[1] == 0.0:
        raise ZeroDirection("direction (0, 0) has no rotation window")
    theta = float(np.arctan2(d[1], d[0]))
    return (-theta, gamma - theta)


@dataclass(frozen=True)
class SequentialIntervalSet:
    """Sorted, pairwise disjoint closed intervals within `ambient`."""

    ambient: Interval
    intervals: tuple[Interval, ...] = ()

    @classmethod
    def full(cls, ambient: Interval) -> "SequentialIntervalSet":
        return cls(ambient, (ambient,))

    @classmethod
    def empty(cls, ambient: Interval) -> "SequentialIntervalSet":
        return cls(ambient, ())

    def is_empty(self) -> bool:
        return not self.intervals

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def min_length(self) -> float:
        if not self.intervals:
            return 0.0
        return min(hi - lo for lo, hi in self.intervals)

    def contains(self, phi: float, tol: float = TAU_ANGLE) -> bool:
        return any(lo - tol <= phi <= hi + tol for lo, hi in self.intervals)

    def subtract(self, lo: float, hi: float, keep_lo: bool = False, keep_hi: bool = False) -> "SequentialIntervalSet":
        """Remove the interval [lo, hi], exact up to TAU_ANGLE.

        keep_lo / keep_hi exclude that endpoint from removal (the subtrahend
        is treated as open there); the surviving endpoint is retained even as
        a degenerate single-point interval.  Closed removal drops remainder
        slivers not longer than TAU_ANGLE.
        """
        a0, a1 = self.ambient
        if a1 - a0 <= TAU_ANGLE:
            # Degenerate range: the single admissible rotation either survives
            # untouched or is removed outright (endpoint flags do not apply).
            if self.intervals and lo - TAU_ANGLE <= a0 <= hi + TAU_ANGLE:
                return SequentialIntervalSet.empty(self.ambient)
            return self
        if hi - lo <= TAU_ANGLE and not (keep_lo or keep_hi):
            return self
        out: list[Interval] = []
        for p, q in self.intervals:
            if q <= lo or p >= hi:
                out.append((p, q))
                continue
            left = min(q, lo) - p
            if left > TAU_ANGLE or (keep_lo and 0.0 <= left):
                out.append((p, min(q, lo)))
            right = q - max(p, hi)
            if right > TAU_ANGLE or (keep_hi and 0.0 <= right):
                out.append((max(p, hi), q))
        return SequentialIntervalSet(self.ambient, tuple(out))


def ref_optimal_phi_set(instance: ca.Instance, gamma: float, solution_id: str) -> SequentialIntervalSet:
    """Admissible range minus every other image's dominating window.

    At gamma = pi a window endpoint inside the range is a tie, not a
    domination, so it survives the subtraction.
    """
    ambient = ca.admissible_range(gamma)
    halfplane = gamma >= math.pi - TAU_ANGLE
    fx = instance.objectives_of(solution_id)
    good = SequentialIntervalSet.full(ambient)
    for other in instance.solutions:
        fy = other.objectives
        if other.id == solution_id or (abs(fx[0] - fy[0]) <= TAU_VAL and abs(fx[1] - fy[1]) <= TAU_VAL):
            continue
        if instance.sense == "max":
            d = (fy[0] - fx[0], fy[1] - fx[1])
        else:
            d = (fx[0] - fy[0], fx[1] - fy[1])
        raw_lo, raw_hi = rotation_window(gamma, d)
        lo = max(ambient[0], raw_lo)
        hi = min(ambient[1], raw_hi)
        if lo > hi:
            continue
        keep_lo = halfplane and raw_lo >= ambient[0]
        keep_hi = halfplane and raw_hi <= ambient[1]
        good = good.subtract(lo, hi, keep_lo=keep_lo, keep_hi=keep_hi)
        if good.is_empty():
            break
    return good


def ref_gamma_supported_set(instance: ca.Instance, gamma: float) -> set[str]:
    return {s.id for s in instance.solutions if not ref_optimal_phi_set(instance, gamma, s.id).is_empty()}


def ref_rotation_coverage_gaps(
    instance: ca.Instance, selection, gamma: float, alpha: float
) -> dict[str, SequentialIntervalSet]:
    """Per target, the admissible range minus every candidate's covering window.

    The windows are taken at the factor alpha + TAU_VAL, the slack of the
    factor rule.
    """
    slack = alpha + TAU_VAL
    ambient = ca.admissible_range(gamma)
    sel_objs = [instance.objectives_of(s) for s in sorted(selection)]
    gaps: dict[str, SequentialIntervalSet] = {}
    for sol in instance.solutions:
        ft = sol.objectives
        uncovered = SequentialIntervalSet.full(ambient)
        for fs in sel_objs:
            if instance.sense == "max":
                d = (slack * fs[0] - ft[0], slack * fs[1] - ft[1])
            else:
                d = (slack * ft[0] - fs[0], slack * ft[1] - fs[1])
            if abs(d[0]) <= TAU_VAL and abs(d[1]) <= TAU_VAL:
                # Scaled images coincide: covered at every rotation.
                uncovered = SequentialIntervalSet.empty(ambient)
                break
            raw_lo, raw_hi = rotation_window(gamma, d)
            lo = max(ambient[0], raw_lo)
            hi = min(ambient[1], raw_hi)
            if lo <= hi:
                uncovered = uncovered.subtract(lo, hi)
            if uncovered.is_empty():
                break
        gaps[sol.id] = uncovered
    return gaps


def dominating_rotations(gamma: float, d: Vector2) -> PhiIntervalSet:
    """All admissible rotations phi for which d lies in the cone (gamma, phi).

    The rotation window of d clipped to the admissible range: empty, a
    single closed interval (possibly a point), or the whole range.  Raises
    ZeroDirection for d = (0, 0), since callers use this to invert dominance
    queries and equal images never dominate.
    """
    ambient = admissible_range(gamma)
    raw_lo, raw_hi = rotation_window(gamma, d)
    lo = max(ambient[0], raw_lo)
    hi = min(ambient[1], raw_hi)
    if lo > hi:
        return PhiIntervalSet(ambient)
    return PhiIntervalSet(ambient, (lo, hi))
