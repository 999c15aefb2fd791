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
verify_approx_set and min_alpha; all three read one per-target vector of
best factors, which a crossing search finds exactly, in
O((n + |sel|) log |sel|) time and O(n + |sel|) memory:

* IEEE division by a fixed positive number is monotone, so for a fixed
  target each quotient is monotone in the candidate's image, and a
  candidate weakly dominated by another (in minimization images) never has
  the smaller factor.  The selection is reduced to its front: sorted by the
  first image component, a candidate stays only if its second component is
  strictly smaller than every earlier one.
* Along that front, for a fixed target, the first quotient g_k is
  nondecreasing and the second h_k nonincreasing in k, in either sense:
  maximizing, the candidate's positive image is the divisor, and its first
  component falls while its second rises along the front.  So the float
  predicate g_k >= h_k is monotone in k, and one vectorized binary search
  finds, for all targets at once, the first k where it holds.
* Before that k the factor max(g, h) is h, nonincreasing; from it on it is
  g, nondecreasing.  The exact minimum is the smaller factor of k - 1 and k.

The values are the quotients the definition divides, bit for bit; no
tolerance enters.  Witnesses, the smallest sorted id among the minimizers,
are searched only for uncovered targets and among the whole selection,
because a dominated or duplicate candidate can tie with the front.

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AlphaBelowOne, EmptySelection
from .geometry import ConeParams, admissible_range
from .instances import MAX, Instance
from .intervals import BLOCK_ELEMENTS, PhiIntervalSet, surviving_intervals
from .tolerances import TAU_VAL


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of a set-coverage query.

    min_alpha is the exact smallest factor at which the selection covers the
    whole instance; the verdict is min_alpha <= alpha_queried + TAU_VAL.
    Witnesses pair every uncovered solution with its best covering candidate.
    to_obj() writes a min_alpha that overflowed to inf as None, so the
    object is valid JSON.
    """

    is_valid: bool
    alpha_queried: float
    min_alpha: float
    witnesses: tuple[tuple[str, str], ...]

    def to_obj(self) -> dict:
        return {
            "is_valid": self.is_valid,
            "alpha_queried": self.alpha_queried,
            "min_alpha": self.min_alpha if math.isfinite(self.min_alpha) else None,
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


def _quotients(instance: Instance, targets: Sequence[np.ndarray], candidates: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The two componentwise covering quotients, unscaled over scaled side,
    of target and candidate planes (one array per objective, broadcast
    against each other); the factor of a pair is their max.  On subnormal
    or huge images a quotient is inf or 0, which is its exact IEEE value, so
    overflow and underflow are not reported."""
    with np.errstate(over="ignore", under="ignore"):
        return [u / s for s, u in (_scaled_first(instance, t, c) for t, c in zip(targets, candidates))]


def _best_factors(instance: Instance, rows: list[int], params: ConeParams | None) -> np.ndarray:
    """Per solution, the exact smallest covering factor over the candidates
    at `rows`: a crossing search along the candidates' front (see the
    module docstring), O(|rows| log |rows|) to build the front and
    O(n log |rows|) to search it, in O(n + |rows|) memory."""
    images = instance.min_images(params)
    cands = images[rows]
    cands = cands[np.lexsort((cands[:, 1], cands[:, 0]))]
    keep = np.ones(len(cands), dtype=bool)
    keep[1:] = cands[1:, 1] < np.minimum.accumulate(cands[:-1, 1])
    front = np.ascontiguousarray(cands[keep].T)
    targets = np.ascontiguousarray(images.T)
    m = front.shape[1]

    def quotients_at(k: np.ndarray) -> list[np.ndarray]:
        return _quotients(instance, targets, [plane[k] for plane in front])

    # crossing[j] counts the front candidates whose first quotient over
    # target j is below the second; the predicate is monotone along the
    # front, so a branchless binary search finds it for all targets at once.
    crossing = np.zeros(len(images), dtype=np.intp)
    step = 1 << (m.bit_length() - 1)
    while step:
        probe = crossing + (step - 1)
        g, h = quotients_at(np.minimum(probe, m - 1))
        crossing += step * ((probe < m) & (g < h))
        step >>= 1
    before = np.maximum(*quotients_at(np.maximum(crossing - 1, 0)))
    after = np.maximum(*quotients_at(np.minimum(crossing, m - 1)))
    return np.minimum(before, after)


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
    _, rows = _selection(instance, [by], "is_alpha_approx_pair")
    return bool(_best_factors(instance, rows, params)[instance.index_of(target)] <= alpha + TAU_VAL)


def min_alpha(instance: Instance, selection: set[str] | list[str], params: ConeParams | None = None) -> float:
    """Exact smallest factor at which the selection covers every solution.

    max over solutions of (min over the selection of the pairwise covering
    factor); well defined because all (transformed) objectives are strictly
    positive.
    """
    _, rows = _selection(instance, selection, "min_alpha")
    return float(_best_factors(instance, rows, params).max())


def _witness_rows(
    instance: Instance, rows: list[int], params: ConeParams | None, targets: np.ndarray
) -> np.ndarray:
    """Per target, the position in `rows` of the first candidate with the
    smallest factor over it.  Scans every candidate, since a dominated or
    duplicate one can tie with the front; blocked, so its temporaries stay
    bounded."""
    planes = instance.min_images(params).T
    cands = planes[:, rows, np.newaxis]
    out = np.empty(len(targets), dtype=np.intp)
    step = max(1, BLOCK_ELEMENTS // len(rows))
    for start in range(0, len(targets), step):
        block = targets[start : start + step]
        factors = np.maximum(*_quotients(instance, planes[:, np.newaxis, block], cands))
        out[start : start + step] = factors.argmin(axis=0)
    return out


def verify_approx_set(
    instance: Instance,
    selection: set[str] | list[str],
    alpha: float,
    params: ConeParams | None = None,
) -> ApproxReport:
    """Check that the selection covers every solution at factor alpha."""
    check_alpha(alpha)
    sel, rows = _selection(instance, selection, "verify_approx_set")
    best = _best_factors(instance, rows, params)
    worst = float(best.max())
    uncovered = np.flatnonzero(best > alpha + TAU_VAL)
    picks = _witness_rows(instance, rows, params, uncovered)
    witnesses = tuple((instance.solutions[t].id, sel[k]) for t, k in zip(uncovered.tolist(), picks.tolist()))
    return ApproxReport(worst <= alpha + TAU_VAL, alpha, worst, witnesses)


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
    lo, hi, alive = surviving_intervals(rows, cols, gamma, covering=True)
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
