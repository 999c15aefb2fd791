"""The quadratic factor matrix, kept as the oracle for the crossing search.

_factors forms every candidate-target quotient, 2 x |selection| x n floats,
and is what min_alpha, verify_approx_set and is_alpha_approx_pair read
before the crossing search replaced it.  reference_report derives their
answers from it by the same rules: the best factor of a target is the
column minimum, the witness the first minimizer in sorted-id order.
"""

from __future__ import annotations

import numpy as np

from coneapprox.approximation import _scaled_first, _selection
from coneapprox.geometry import ConeParams
from coneapprox.instances import Instance
from coneapprox.tolerances import TAU_VAL


def _factors(instance: Instance, selection: set[str] | list[str], params: ConeParams | None, caller: str):
    """The sorted selection and its matrix of smallest covering factors,
    selection rows by instance columns: the larger of the two objectives'
    quotient planes, each contiguous, so no reduction runs along a short axis."""
    sel, rows = _selection(instance, selection, caller)
    planes = instance.min_images(params).T
    scaled, unscaled = _scaled_first(instance, planes[:, np.newaxis, :], planes[:, rows, np.newaxis])
    return sel, np.maximum(*(unscaled / scaled))


def reference_report(instance: Instance, selection, alpha: float, params: ConeParams | None):
    """(min_alpha, is_valid, witnesses) as read from the factor matrix."""
    with np.errstate(over="ignore", under="ignore"):
        sel, factors = _factors(instance, selection, params, "reference_report")
    best = factors.min(axis=0)
    best_idx = factors.argmin(axis=0)
    worst = float(best.max())
    witnesses = tuple(
        (s.id, sel[int(k)]) for s, b, k in zip(instance.solutions, best, best_idx) if b > alpha + TAU_VAL
    )
    return worst, worst <= alpha + TAU_VAL, witnesses


def reference_pair(instance: Instance, params: ConeParams | None, by: str, target: str, alpha: float) -> bool:
    """The pair verdict as read from the one-row factor matrix."""
    with np.errstate(over="ignore", under="ignore"):
        _, factors = _factors(instance, [by], params, "reference_pair")
    return bool(factors[0, instance.index_of(target)] <= alpha + TAU_VAL)
