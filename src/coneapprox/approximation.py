"""Multiplicative approximation predicates and exact minimal factors.

A candidate c covers a target t at factor alpha when f(c) precedes
alpha * f(t) in the chosen order (minimization) or alpha * f(c) weakly
exceeds f(t) (maximization): componentwise when no cone is given, otherwise
the cone order.  The factor paths work on Instance.min_images(), where
maximization images are negated; negation mirrors the order but cannot move
a factor, which therefore scales the target when minimizing and the
candidate when maximizing.  _scaled_first() alone makes that choice.
Because all (transformed) objectives are strictly positive, the smallest
factor at which c covers t is the largest componentwise ratio of the
unscaled to the scaled (transformed) image, so the exact minimal factor of a
whole selection is a max-min-max expression over those ratios.

There is one cover rule at a fixed order: c covers t at alpha exactly when
that exact factor is <= alpha + TAU_VAL, a slack relative to the factor and
so to the scale of f(t).  is_alpha_approx_pair is the one-candidate case of
verify_approx_set and min_alpha; all three read one factor matrix.

rotation_coverage_gaps() decides "covered at every admissible rotation"
exactly, with the same single-interval kernel as supportedness: at fixed
alpha, the rotations at which c covers t form one closed window, and what
the windows of a whole selection leave uncovered is again one interval,
found in one vectorized O(|selection|) pass per solution.  That decision
reads windows, not factors, but takes them at alpha + TAU_VAL, the slack of
the factor rule: c's window holds a rotation exactly when c's factor over t
in that rotation's cone order is <= alpha + TAU_VAL, so both decisions
apply one threshold.  The window rules of intervals apply on top
(TAU_ANGLE on window and gap lengths, images coinciding within an absolute
TAU_VAL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaBelowOne, EmptySelection
from .geometry import ConeParams, Vector2, admissible_range
from .instances import MAX, Instance
from .intervals import PhiIntervalSet, surviving_intervals
from .tolerances import TAU_VAL


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of a set-coverage query.

    min_alpha is the exact smallest factor at which the selection covers the
    whole instance; the verdict is min_alpha <= alpha_queried + TAU_VAL.
    Witnesses pair every uncovered solution with its best covering candidate.
    """

    is_valid: bool
    alpha_queried: float
    min_alpha: float
    witnesses: tuple[tuple[str, str], ...]

    def to_obj(self) -> dict:
        return {
            "is_valid": self.is_valid,
            "alpha_queried": self.alpha_queried,
            "min_alpha": self.min_alpha,
            "witnesses": [{"uncovered": u, "best_candidate": c} for u, c in self.witnesses],
        }


def check_alpha(alpha: float) -> None:
    """Raise AlphaBelowOne unless alpha is finite and >= 1 (within TAU_VAL)."""
    if not (math.isfinite(alpha) and alpha >= 1.0 - TAU_VAL):
        raise AlphaBelowOne(f"alpha must be finite and >= 1, got {alpha!r}")


def _scaled_first(instance: Instance, target: np.ndarray, candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A target side and a candidate side in minimization images, reordered as
    (scaled, unscaled): the side a covering factor multiplies comes first.

    c covers t at factor alpha when alpha * t - c (minimizing) or
    t - alpha * c (maximizing) lies in the cone, so the smallest covering
    factor per component is unscaled / scaled; for maximization that is
    (-f(t)) / (-f(c)), which equals f(t) / f(c) bit for bit.  The reordering
    is its own inverse: applied to (alpha * scaled, unscaled) it gives back
    (target side, candidate side), whose difference must lie in the cone.
    """
    return (candidate, target) if instance.sense == MAX else (target, candidate)


def _selection(instance: Instance, selection: set[str] | list[str], caller: str) -> tuple[list[str], list[int]]:
    """The selection's ids sorted and their rows; EmptySelection names `caller`."""
    sel = sorted(selection)
    if not sel:
        raise EmptySelection(f"{caller} needs a nonempty selection")
    return sel, [instance.index_of(s) for s in sel]


def _factors(instance: Instance, selection: set[str] | list[str], params: ConeParams | None, caller: str):
    """The sorted selection and its matrix of smallest covering factors,
    selection rows by instance columns: the larger of the two objectives'
    quotient planes, each contiguous, so no reduction runs along a short axis."""
    sel, rows = _selection(instance, selection, caller)
    planes = instance.min_images(params).T
    scaled, unscaled = _scaled_first(instance, planes[:, np.newaxis, :], planes[:, rows, np.newaxis])
    return sel, np.maximum(*(unscaled / scaled))


def is_alpha_approx_pair(
    instance: Instance,
    params: ConeParams | None,
    by: str,
    target: str,
    alpha: float,
) -> bool:
    """Whether `by` covers `target` at factor alpha.

    Minimization: f(by) precedes alpha * f(target); maximization:
    alpha * f(by) weakly exceeds f(target).  params = None means the
    componentwise order.  This is the one-candidate case of
    verify_approx_set: the exact factor must be <= alpha + TAU_VAL.
    """
    check_alpha(alpha)
    _, factors = _factors(instance, [by], params, "is_alpha_approx_pair")
    return bool(factors[0, instance.index_of(target)] <= alpha + TAU_VAL)


def min_alpha(instance: Instance, selection: set[str] | list[str], params: ConeParams | None = None) -> float:
    """Exact smallest factor at which the selection covers every solution.

    max over solutions of (min over the selection of the pairwise covering
    factor); well defined because all (transformed) objectives are strictly
    positive.
    """
    return float(_factors(instance, selection, params, "min_alpha")[1].min(axis=0).max())


def verify_approx_set(
    instance: Instance,
    selection: set[str] | list[str],
    alpha: float,
    params: ConeParams | None = None,
) -> ApproxReport:
    """Check that the selection covers every solution at factor alpha."""
    check_alpha(alpha)
    sel, factors = _factors(instance, selection, params, "verify_approx_set")
    best = factors.min(axis=0)
    best_idx = factors.argmin(axis=0)
    worst = float(best.max())
    witnesses = tuple(
        (s.id, sel[int(k)])
        for s, b, k in zip(instance.solutions, best, best_idx)
        if b > alpha + TAU_VAL
    )
    return ApproxReport(worst <= alpha + TAU_VAL, alpha, worst, witnesses)


def cone_to_componentwise_factor(params: ConeParams, target_objectives: Vector2, alpha: float) -> float:
    """The componentwise factor implied by a cone-order cover of this target.

    A cover at factor alpha in the cone order bounds the componentwise
    ratios by alpha * (1 + max(r * tan(phi), tan(phi') / r)) where r is the
    target's objective ratio f1/f2.
    """
    f1, f2 = target_objectives
    stretch = max(f1 / f2 * math.tan(params.phi), f2 / f1 * math.tan(params.phi_prime))
    return alpha * (1.0 + stretch)


def rotation_coverage_gaps(
    instance: Instance,
    selection: set[str] | list[str],
    gamma: float,
    alpha: float,
) -> dict[str, PhiIntervalSet]:
    """Per solution, the admissible rotations at which nothing covers it.

    For each candidate s and target x, s covers x at exactly the rotations
    whose cone contains a * f(x) - f(s) (minimization) or a * f(s) - f(x)
    (maximization), with a = alpha + TAU_VAL as in the factor rule of
    verify_approx_set; these closed windows are removed
    from the admissible range, and a candidate whose scaled image coincides
    with the target's covers it at every rotation.
    The selection is an alpha-approximation for every admissible rotation
    iff all gap sets are empty.
    """
    check_alpha(alpha)
    _, picks = _selection(instance, selection, "rotation_coverage_gaps")
    ambient = admissible_range(gamma)
    images = instance.min_images()
    scaled, unscaled = _scaled_first(instance, images, images[picks])
    rows, cols = _scaled_first(instance, (alpha + TAU_VAL) * scaled, unscaled)
    lo, hi, alive = surviving_intervals(rows, cols, gamma, ambient, keep_ties=False, coincide_covers=True)
    return {
        s.id: PhiIntervalSet(ambient, (a, b) if keep else None)
        for s, a, b, keep in zip(instance.solutions, lo.tolist(), hi.tolist(), alive.tolist())
    }


def is_alpha_approx_for_all_rotations(
    instance: Instance,
    selection: set[str] | list[str],
    gamma: float,
    alpha: float,
) -> bool:
    """Whether the selection covers every solution at factor alpha in the
    cone order of every admissible rotation of inner angle gamma: true
    exactly when rotation_coverage_gaps leaves no gap.
    """
    gaps = rotation_coverage_gaps(instance, selection, gamma, alpha)
    return all(g.is_empty() for g in gaps.values())
