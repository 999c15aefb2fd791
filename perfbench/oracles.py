"""Independent reference computations used by the answer checks.

None of these call into `coneapprox`: they work on plain (f1, f2) tuples so
that a defect in the library cannot hide itself from its own check.
"""

from __future__ import annotations

import hashlib

import numpy as np


def digest(ids) -> str:
    """Short, order-independent fingerprint of a set of solution ids."""
    return hashlib.sha256("\n".join(sorted(ids)).encode()).hexdigest()[:16]


def lower_hull_ids(points: dict[str, tuple[float, float]]) -> set[str]:
    """Vertices of the lower-left convex hull of an efficient front.

    `points` must be mutually non-dominated, so sorting by f1 sorts f2
    descending and the whole lower hull is the decreasing chain.  Collinear
    middle points are not vertices (Andrew's monotone chain, strict turns).
    """
    order = sorted(points, key=lambda k: points[k])
    chain: list[str] = []
    for k in order:
        x3, y3 = points[k]
        while len(chain) >= 2:
            x1, y1 = points[chain[-2]]
            x2, y2 = points[chain[-1]]
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) > 0.0:
                break
            chain.pop()
        chain.append(k)
    return set(chain)


def factor_by_target(sel: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per target, the smallest componentwise covering factor over `sel`.

    Minimization: s covers t at factor max(s1/t1, s2/t2).  Rows are
    processed in chunks so the temporary matrix stays small.
    """
    best = np.full(len(targets), np.inf)
    for start in range(0, len(sel), 256):
        chunk = sel[start : start + 256]
        ratios = np.maximum(chunk[:, None, 0] / targets[None, :, 0], chunk[:, None, 1] / targets[None, :, 1])
        best = np.minimum(best, ratios.min(axis=0))
    return best


def factor_double_loop(sel: list[tuple[float, float]], target: tuple[float, float]) -> float:
    """The same factor as `factor_by_target` for one target, in plain Python."""
    best = float("inf")
    for s1, s2 in sel:
        f = max(s1 / target[0], s2 / target[1])
        if f < best:
            best = f
    return best


def same_float(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
