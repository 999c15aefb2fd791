"""Solutions that are optimal for at least one cone of a fixed inner angle.

For a fixed inner angle, a solution is supported in the generalized sense if
some admissible rotation makes it optimal for the induced cone order.  On a
finite instance this is decided exactly: each other solution dominates on a
single closed rotation window [-theta, gamma - theta], theta the angle of
the image difference, and what the windows leave of the admissible range is
always a single interval, found in one vectorized O(n) pass per solution
(see intervals.surviving_intervals).

Inner angle pi/2 (and every angle within TAU_ANGLE of it, see
geometry.admissible_range) recovers the efficient set unless two images
differ by less than TAU_VAL in some coordinate: efficient_set counts that
coordinate as tied, the rotation windows do not.  For x = (1, 2) and
y = (1 + 1e-10, 1), efficient_set is {y} but the gamma-supported set at pi/2
is {x, y}.  Inner angle pi gives the classical supported solutions (optima of
positively weighted sums).
"""

from __future__ import annotations

import math

from .geometry import admissible_range
from .instances import Instance
from .intervals import PhiIntervalSet, surviving_intervals


def optimal_phi_set(instance: Instance, gamma: float, solution_id: str) -> PhiIntervalSet:
    """Admissible rotations at which the solution is optimal for the cone order.

    The admissible range minus, for every solution with a different image,
    the rotation window on which that solution dominates.  Dominating
    directions are image differences: f(x) - f(y) when minimizing,
    f(y) - f(x) when maximizing.

    For inner angles below pi a window endpoint puts the difference exactly
    on an extreme ray of the (closed) cone, which still dominates, so the
    window is removed closed.  At gamma = pi the reduction map is singular
    and a window endpoint means equal weighted sums, which is a tie and not
    a domination; such endpoints survive, possibly as a degenerate
    single-rotation interval (interior points of a collinear front are
    optimal exactly at the tie rotation).
    """
    ambient = admissible_range(gamma)
    arr = instance.min_images()
    lo, hi, alive = surviving_intervals(arr[[instance.index_of(solution_id)]], arr, gamma, covering=False)
    return PhiIntervalSet(ambient, (float(lo[0]), float(hi[0])) if alive[0] else None)


def gamma_supported_set(instance: Instance, gamma: float) -> set[str]:
    """Ids of all solutions optimal for some cone of the given inner angle."""
    arr = instance.min_images()
    _, _, alive = surviving_intervals(arr, arr, gamma, covering=False)
    return {s.id for s, keep in zip(instance.solutions, alive) if keep}


def supported_set(instance: Instance) -> set[str]:
    """Classical supported solutions: the inner angle pi case."""
    return gamma_supported_set(instance, math.pi)
