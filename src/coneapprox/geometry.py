"""Closed convex planar ordering cones containing the nonnegative orthant.

A cone is described by its inner angle gamma in [pi/2, pi] and a rotation
phi.  The complementary rotation is phi' = gamma - pi/2 - phi, and the cone
is the preimage of the nonnegative orthant under the linear map

    T(y) = ( cos(phi') * y1 + sin(phi') * y2,
             sin(phi)  * y1 + cos(phi)  * y2 ).

The induced vector preorder compares y <= y' exactly when y' - y lies in the
cone, equivalently when T(y) <= T(y') componentwise.  gamma = pi/2 (forcing
phi = 0) recovers the componentwise order; gamma = pi gives the halfplane of
a positively weighted sum.  Admissible rotations form the closed interval
[0, gamma - pi/2] for gamma < pi and the open interval (0, pi/2) for
gamma = pi, where the two axis-aligned halfplanes must be excluded; an
inner angle within TAU_ANGLE of pi/2 admits phi = 0 only.

In direction space the cone spans the angles [-phi, gamma - phi], so a
direction at angle theta lies in the cone exactly for the rotations in the
window [-theta, gamma - theta].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InadmissibleCone
from .tolerances import TAU_ANGLE

HALF_PI = 0.5 * math.pi

Vector2 = tuple[float, float]


def admissible(gamma: float, phi: float) -> bool:
    """Whether (gamma, phi) describes a cone that contains the nonnegative
    orthant and meets the negative orthant only at the origin.

    Pure predicate over admissible_range(gamma), whose ends are relaxed by
    TAU_ANGLE below gamma = pi; at pi they already exclude the rotations 0
    and pi/2 (those halfplanes contain a negative direction).
    """
    try:
        lo, hi = admissible_range(gamma)
    except InadmissibleCone:
        return False
    slack = 0.0 if gamma >= math.pi - TAU_ANGLE else TAU_ANGLE
    return lo - slack <= phi <= hi + slack


def admissible_range(gamma: float) -> tuple[float, float]:
    """Admissible rotation interval for the given inner angle.

    An inner angle within TAU_ANGLE of pi/2 is the right angle: its range is
    the single rotation (0.0, 0.0).  For gamma = pi the mathematically open
    interval (0, pi/2) is represented by shrinking both ends by TAU_ANGLE.
    Raises InadmissibleCone for gamma outside [pi/2, pi].
    """
    if not math.isfinite(gamma) or gamma < HALF_PI - TAU_ANGLE or gamma > math.pi + TAU_ANGLE:
        raise InadmissibleCone(f"inner angle {gamma!r} outside [pi/2, pi]")
    hi = gamma - HALF_PI
    if hi <= TAU_ANGLE:
        return (0.0, 0.0)
    if gamma >= math.pi - TAU_ANGLE:
        return (TAU_ANGLE, hi - TAU_ANGLE)
    return (0.0, hi)


@dataclass(frozen=True)
class ConeParams:
    """An admissible (gamma, phi) pair with its derived angles.

    Raises InadmissibleCone on construction if the pair is not admissible.
    """

    gamma: float
    phi: float

    def __post_init__(self) -> None:
        if not admissible(self.gamma, self.phi):
            raise InadmissibleCone(f"(gamma={self.gamma!r}, phi={self.phi!r}) is not admissible")

    @classmethod
    def pareto(cls) -> "ConeParams":
        """The componentwise order: gamma = pi/2, phi = 0."""
        return cls(HALF_PI, 0.0)

    @property
    def phi_prime(self) -> float:
        return self.gamma - HALF_PI - self.phi

    def matrix(self) -> tuple[Vector2, Vector2]:
        """Rows of the linear map reducing this cone order to componentwise."""
        pp = self.phi_prime
        return (
            (math.cos(pp), math.sin(pp)),
            (math.sin(self.phi), math.cos(self.phi)),
        )


def transform(params: ConeParams, y: Vector2) -> Vector2:
    """Apply the cone's reduction map to a single vector."""
    (a, b), (c, d) = params.matrix()
    return (a * y[0] + b * y[1], c * y[0] + d * y[1])
