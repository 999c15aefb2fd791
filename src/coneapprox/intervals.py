"""The single rotation interval a solution keeps, and the kernel that finds it.

PhiIntervalSet is what optimal_phi_set and rotation_coverage_gaps return:
an ambient rotation range and at most one closed interval inside it, read
through is_empty, is_full, contains and total_length.

Each other image removes its window [-theta, gamma - theta] from the
admissible range, theta the angle of the image difference: the rotations at
which that difference lies in the cone.  A window is gamma long and
the range only gamma - pi/2, so a clipped window is empty, a prefix [a0, h],
a suffix [l, a1] or the whole range, and what survives is one interval
[max h, min l]: surviving_intervals() finds it in one vectorized O(n) pass
per solution.  It reads the range from geometry.admissible_range, which
alone decides the right angle, and applies one of two rules:

* closed removal (supportedness below pi, and all coverage gaps) ignores
  windows not longer than TAU_ANGLE and leaves a set only if
  U - L > TAU_ANGLE;
* ties (supportedness at gamma = pi, where a window endpoint is an equal
  weighted sum, not a domination; and the one-rotation range at the right
  angle) keep every window and need only U >= L, so a single-rotation
  interval survives.  On a one-rotation range every window that meets it
  is a prefix ending at its end, so the rotation survives exactly when no
  window meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import admissible_range
from .tolerances import TAU_ANGLE, TAU_VAL

Interval = tuple[float, float]

# Entries of the difference matrix per block: bounds the temporaries.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class PhiIntervalSet:
    """At most one closed interval within `ambient`; None means empty."""

    ambient: Interval
    interval: Interval | None = None

    def is_empty(self) -> bool:
        return self.interval is None

    def is_full(self) -> bool:
        return (
            self.interval is not None
            and self.interval[0] <= self.ambient[0] + TAU_ANGLE
            and self.interval[1] >= self.ambient[1] - TAU_ANGLE
        )

    def total_length(self) -> float:
        """Length of the interval; 0.0 if the set is empty."""
        return 0.0 if self.interval is None else self.interval[1] - self.interval[0]

    def contains(self, phi: float, tol: float = TAU_ANGLE) -> bool:
        return self.interval is not None and self.interval[0] - tol <= phi <= self.interval[1] + tol


def surviving_intervals(
    rows: np.ndarray, cols: np.ndarray, gamma: float, *, covering: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, alive): row i keeps the rotations [lo[i], hi[i]] if alive[i],
    after the windows of all differences d = rows[i] - cols[j] (minimization
    direction) are removed from admissible_range(gamma).  `covering` names
    the coverage-gap decision: there a pair coinciding within TAU_VAL covers
    its row and windows are removed closed even at pi; otherwise
    (supportedness) such pairs are skipped."""
    a0, a1 = admissible_range(gamma)
    ties = a0 == a1 or (not covering and gamma >= math.pi - TAU_ANGLE)
    lo_out = np.empty(len(rows))
    hi_out = np.empty(len(rows))
    alive = np.empty(len(rows), dtype=bool)
    step = max(1, BLOCK_ELEMENTS // max(1, len(cols)))
    # The windows are computed in place in the two difference planes,
    # allocated once: a fresh block-sized temporary per step would be mapped
    # and faulted in anew on every block.
    planes = np.empty((2, min(step, len(rows)), len(cols)))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        d1, d2 = planes[:, : len(rows[block])]
        np.subtract(rows[block, 0, None], cols[None, :, 0], out=d1)
        np.subtract(rows[block, 1, None], cols[None, :, 1], out=d2)
        coincide = (d1 >= -TAU_VAL) & (d1 <= TAU_VAL) & (d2 >= -TAU_VAL) & (d2 <= TAU_VAL)
        theta = np.arctan2(d2, d1, out=d1)
        lo = np.maximum(np.negative(theta, out=d2), a0, out=d2)
        hi = np.minimum(np.subtract(gamma, theta, out=theta), a1, out=theta)
        meets = (lo <= hi) & ~coincide
        if not ties:
            meets &= hi - lo > TAU_ANGLE
        prefix = meets & (lo == a0)
        # A whole-range window is a prefix that ends at +inf.
        np.copyto(hi, np.inf, where=hi == a1)
        lower = np.max(hi, axis=1, where=prefix, initial=a0)
        upper = np.min(lo, axis=1, where=meets & ~prefix, initial=a1)
        keep = upper >= lower if ties else upper - lower > TAU_ANGLE
        if covering:
            keep &= ~coincide.any(axis=1)
        lo_out[block], hi_out[block], alive[block] = lower, upper, keep
    return lo_out, hi_out, alive
