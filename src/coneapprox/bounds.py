"""Closed-form guarantee factors and the trigonometric identities behind them.

The covering guarantee for a family of cones of inner angle gamma is
1 + tan(gamma/2 - pi/4): it interpolates from 1 at gamma = pi/2 (efficient
set) to 2 at gamma = pi (supported solutions) and is bounded above by the
linear rule of thumb 2*gamma/pi.  The tangent term S admits four equivalent
closed forms; each is evaluated here in a cancellation-free arrangement so
that the four agree to near machine precision all the way down to
gamma = pi/2 (the raw expressions (1 - sin g)/(-cos g) and
tan g + sqrt(1 + tan^2 g) both cancel catastrophically there):

    S = tan((g - pi/2) / 2)
      = (1 - sin g)/(-cos g)        evaluated as 2 sin^2(u/2) / sin u
      = (-cos g)/(1 + sin g)        evaluated as sin u / (1 + cos u)
      = tan g + sqrt(1 + tan^2 g)   evaluated as 1 / (hypot(1, tan g) - tan g)

with u = g - pi/2.  The balanced-distortion identity checked by
distortion_identity_residual is arranged the same way: with
t = tan(g - pi/2), sqrt(1 + s^2 tan^2 g) + s tan g = t / (s + hypot(s, t)),
the form scalarize.rotation_for_ratio uses.  All functions broadcast over
numpy arrays and return plain floats for scalar input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePhi, InadmissibleCone
from .geometry import HALF_PI
from .tolerances import TAU_ANGLE

FORM_NAMES = ("half_angle", "versine_ratio", "cosine_ratio", "tangent_root")


def _ret(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def guarantee_factor(gamma):
    """Covering guarantee 1 + tan(gamma/2 - pi/4) for inner angle gamma.

    Evaluated via the half-angle form 1 + sin(u)/(1 + cos(u)), u = g - pi/2,
    which is exact at both endpoints (1 at pi/2, 2 at pi) and stable in
    between.
    """
    u = np.asarray(gamma, dtype=float) - HALF_PI
    return _ret(1.0 + np.sin(u) / (1.0 + np.cos(u)))


def rule_of_thumb(gamma):
    """The linear upper bound 2*gamma/pi on the covering guarantee."""
    return _ret(2.0 * np.asarray(gamma, dtype=float) / math.pi)


def alternative_forms(gamma):
    """The four closed forms of the tangent term S, in FORM_NAMES order.

    Scalar input yields a 4-tuple of floats, array input an array of shape
    (4,) + gamma.shape.  At gamma = pi/2 all forms take their common limit 0.
    """
    g = np.asarray(gamma, dtype=float)
    u = g - HALF_PI
    tg = np.tan(g)
    sin_u = np.sin(u)
    s_half = np.tan(0.5 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_versine = np.where(sin_u > 0.0, 2.0 * np.sin(0.5 * u) ** 2 / np.where(sin_u > 0.0, sin_u, 1.0), 0.0)
    s_cosine = sin_u / (1.0 + np.cos(u))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_root = 1.0 / (np.hypot(1.0, tg) - tg)
    # tan is huge and positive at (the double just below) pi/2; the limit is 0.
    s_root = np.where(u <= 0.0, 0.0, s_root)
    out = np.stack([s_half, s_versine, s_cosine, s_root])
    if np.ndim(gamma) == 0:
        return tuple(float(v) for v in out)
    return out


def distortion_gap(gamma, phi):
    """Slack of the symmetric-rotation bound: tan(phi_bar) - sqrt(tan phi * tan phi').

    Nonnegative for every admissible pair, zero exactly at the symmetric
    rotation phi = phi' = gamma/2 - pi/4.
    """
    g = np.asarray(gamma, dtype=float)
    p = np.asarray(phi, dtype=float)
    pp = g - HALF_PI - p
    product = np.maximum(np.tan(p) * np.tan(pp), 0.0)
    return _ret(np.tan(0.5 * g - 0.25 * math.pi) - np.sqrt(product))


def distortion_identity_residual(gamma, phi):
    """Residual of the closed form for the balanced distortion.

    sqrt(tan phi * tan phi') equals sqrt(1 + s^2 tan^2 g) + s tan g with
    s = (sqrt(tan phi / tan phi') + sqrt(tan phi' / tan phi)) / 2.  The
    right side is evaluated as t / (s + hypot(s, t)) with t = tan(g - pi/2),
    which is the same value (tan g = -1/t) without the cancellation of the
    raw sum near pi/2, and as exactly 1 at pi.  The returned difference is
    numerical noise (|residual| well below 1e-9) across the admissible
    interior, right angle included.  Requires gamma > pi/2 and a strictly
    interior rotation.
    """
    g = np.asarray(gamma, dtype=float)
    p = np.asarray(phi, dtype=float)
    if np.any(g - HALF_PI <= TAU_ANGLE):
        raise InadmissibleCone("inner angle must exceed pi/2 for the identity")
    pp = g - HALF_PI - p
    if np.any(p <= TAU_ANGLE) or np.any(pp <= TAU_ANGLE):
        raise DegeneratePhi("interior rotation required")
    tp = np.tan(p)
    tpp = np.tan(pp)
    ratio = np.sqrt(tp / tpp)
    s = 0.5 * (ratio + 1.0 / ratio)
    t = np.tan(g - HALF_PI)
    rhs = np.where(g >= math.pi - TAU_ANGLE, 1.0, t / (s + np.hypot(s, t)))
    return _ret(np.sqrt(tp * tpp) - rhs)


@dataclass(frozen=True)
class BoundTable:
    """Guarantee figures for one inner angle, ready for CSV emission."""

    gamma: float
    factor: float
    forms: tuple[float, float, float, float]
    rule_of_thumb: float

    @classmethod
    def at(cls, gamma: float) -> "BoundTable":
        return cls(
            gamma=float(gamma),
            factor=guarantee_factor(gamma),
            forms=alternative_forms(gamma),
            rule_of_thumb=rule_of_thumb(gamma),
        )

    CSV_HEADER = "gamma,factor," + ",".join(f"s_{n}" for n in FORM_NAMES) + ",rule_of_thumb"

    def csv_row(self) -> str:
        cells = [self.gamma, self.factor, *self.forms, self.rule_of_thumb]
        return ",".join(repr(c) for c in cells)
