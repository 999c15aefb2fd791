"""Balanced max-ordering scalarizations and the covering sets they induce.

The max-ordering scalarization minimizes max(w1*f1, w2*f2) over the
solutions.  For a transformed instance of inner angle gamma and rotation
phi, the balanced weights

    w1 = sqrt(sin phi)/sqrt(cos phi') + sqrt(cos phi)/sqrt(sin phi')
    w2 = sqrt(sin phi')/sqrt(cos phi) + sqrt(cos phi')/sqrt(sin phi)

equalize the two weighted transformed components of any solution whose
objective ratio f1/f2 equals sqrt(tan phi')/sqrt(tan phi).  Optimizing this
scalarization for the rotation matched to each realized objective ratio is
what drives the covering-set guarantee: every solution gets covered within
factor 1 + sqrt(tan phi * tan phi') <= 1 + tan(gamma/2 - pi/4).

rotation_for_ratio inverts the matching: given a ratio q it returns the
rotation with sqrt(tan phi')/sqrt(tan phi) = q, in closed form

    phi = arctan( (s*tan gamma + sqrt(1 + s^2 * tan^2 gamma)) / q ),
    s = (q + 1/q) / 2,

evaluated through t = tan(gamma - pi/2) > 0: tan gamma = -1/t turns the
numerator into t / (s + hypot(s, t)) exactly, whose denominator adds two
positive terms, so nothing cancels near gamma = pi/2 and nothing overflows
near pi, and one expression serves all of (pi/2, pi).  At gamma = pi the
numerator is exactly 1.

build_cover_set needs neither phi' nor the transformed images.  At the
matched rotation tan phi' = q^2 * tan phi, so with a = tan phi

    w1*T1 = C * (f1/q + q*a*f2),    w2*T2 = C * (a*f1 + f2),
    C = sqrt(cos phi * cos phi') * (1 + q*a) / sqrt(a) > 0,

and the balanced max-ordering scalarization has the optima of
max(f1/q + q*a*f2, a*f1 + f2) on the untransformed objectives, which reads
a alone: no complement is subtracted, so extreme ratios keep their
precision and every inner angle of (pi/2, pi] works.

Per ratio, build_cover_set picks the smallest id among the solutions whose
value v satisfies v <= alpha * best + TAU_VAL, with best the smallest value
(alpha = 1 for the optima); an empty instance gives the empty set.
"""

from __future__ import annotations

import math

import numpy as np

from .approximation import check_alpha
from .errors import DegeneratePhi, InadmissibleCone, InvalidRatio, UnsupportedSense
from .geometry import HALF_PI, ConeParams
from .instances import MIN, Instance
from .tolerances import TAU_ANGLE, TAU_VAL


def balanced_weights(params: ConeParams) -> tuple[float, float]:
    """The weight pair balancing the transformed components at the matched ratio.

    Requires a strictly interior rotation: both the rotation and its
    complement must exceed TAU_ANGLE, otherwise a weight diverges.  The
    complement is ConeParams.phi_prime, gamma - pi/2 - phi by subtraction,
    so at an extreme matched ratio it keeps only the precision of phi: at
    gamma = 0.6pi and q = 1e-3 one ulp of phi moves w1 by about 1e-10
    relative.  build_cover_set does not read these weights.
    """
    phi = params.phi
    phi_p = params.phi_prime
    if phi <= TAU_ANGLE or phi_p <= TAU_ANGLE:
        raise DegeneratePhi(f"interior rotation required, got phi={phi!r}, phi'={phi_p!r}")
    sp, cp = math.sqrt(math.sin(phi)), math.sqrt(math.cos(phi))
    spp, cpp = math.sqrt(math.sin(phi_p)), math.sqrt(math.cos(phi_p))
    return (sp / cpp + cp / spp, spp / cp + cpp / sp)


def _matched_tangent(gamma: float, q: float) -> float:
    """tan of the matched rotation for ratio q: the closed form without the arctan."""
    if not (math.isfinite(q) and q > 0.0):
        raise InvalidRatio(f"ratio must be finite and > 0, got {q!r}")
    if not (gamma - HALF_PI > TAU_ANGLE and gamma <= math.pi + TAU_ANGLE):
        raise InadmissibleCone(f"inner angle {gamma!r} outside (pi/2, pi]")
    if gamma >= math.pi - TAU_ANGLE:
        return 1.0 / q
    t = math.tan(gamma - HALF_PI)
    s = 0.5 * (q + 1.0 / q)
    return t / (q * (s + math.hypot(s, t)))


def rotation_for_ratio(gamma: float, q: float) -> float:
    """The interior rotation whose tangent ratio matches the objective ratio q.

    Returns phi in (0, gamma - pi/2) with sqrt(tan phi')/sqrt(tan phi) = q.
    """
    return math.atan(_matched_tangent(gamma, q))


def build_cover_set(instance: Instance, gamma: float, alpha: float = 1.0) -> set[str]:
    """A covering set from one max-ordering optimum per realized objective ratio.

    For each distinct ratio q = f1/f2 occurring in the instance, pick one
    alpha-approximate solution (the optimum when alpha = 1; ties and level
    sets are broken by lexicographically smallest id) of the balanced
    max-ordering scalarization of the instance transformed at the matched
    rotation.  Only the rotations matched to realized ratios are needed:
    each solution is covered through its own ratio.  The union is an
    (alpha * (1 + tan(gamma/2 - pi/4)))-approximation of the instance.

    The scalarization is evaluated as max(f1/q + q*a*f2, a*f1 + f2) with
    a = tan phi of the matched rotation, which is the balanced value
    divided by C > 0 (see the module docstring); the level
    alpha * best + TAU_VAL is taken on these values, without C.
    """
    if instance.sense != MIN:
        raise UnsupportedSense("build_cover_set is defined for minimization instances")
    check_alpha(alpha)
    f1, f2 = instance.min_images().T
    ids = instance.ids()
    out: set[str] = set()
    for q in sorted({float(r) for r in f1 / f2}):
        a = _matched_tangent(gamma, q)
        vals = np.maximum(f1 / q + q * a * f2, a * f1 + f2)
        level = alpha * vals.min() + TAU_VAL
        out.add(min(ids[i] for i in np.flatnonzero(vals <= level)))
    return out
