#!/usr/bin/env python3
"""Print the package's answers on a fixed corpus, one line per (instance, function).

Floats print in float.hex, sets as sorted ids, errors by their type name, so
two versions of the package can be compared line by line with diff.  The
script calls only the public API and takes no options; the package comes
from the import path, e.g.

    PYTHONPATH=src python3 scripts/same_answers.py > change.txt
    PYTHONPATH=old/src python3 scripts/same_answers.py > parent.txt
    diff parent.txt change.txt

Corpus: every generator family, seeded random fronts of each shape,
seeded lattice fronts with ties and two badly scaled fronts (objective
ratios from 1e-6 to 1e6), each in both senses, at the inner angles pi/2,
0.75pi and pi.  A numeric section follows: rotation_for_ratio,
balanced_weights, the bound table and the distortion identity on a fixed
grid of inner angles (down to pi/2 + 1e-9) and ratios.
"""

import math

import numpy as np

import coneapprox as ca
from coneapprox.errors import ConeApproxError
from coneapprox.generators import make_family_instance

GAMMAS = {"0.5pi": 0.5 * math.pi, "0.75pi": 0.75 * math.pi, "pi": math.pi}
GAP_ALPHAS = (1.0, 1.1, 1.5)
PAIR_ALPHAS = (1.0, 1.1, 1.5, 2.0)
VERIFY_ALPHA = 1.1
COVER_ALPHAS = (1.0, 1.3)
NUMERIC_GAMMAS = {
    "0.5pi+1e-9": 0.5 * math.pi + 1e-9,
    "0.5pi+1e-6": 0.5 * math.pi + 1e-6,
    "0.6pi": 0.6 * math.pi,
    "0.75pi": 0.75 * math.pi,
    "0.9pi": 0.9 * math.pi,
    "pi": math.pi,
}
NUMERIC_RATIOS = (1e-3, 0.5, 1.0, 3.0, 1e3)
RESIDUAL_FRACTIONS = (0.01, 0.25, 0.5, 0.99)

FAMILY_PARAMS = {
    "single-cone": {"alpha": 2.0, "gamma": 0.75 * math.pi, "phi": 0.1},
    "always-optimal": {"alpha": 2.0, "gamma": 0.75 * math.pi},
    "tightness": {"alpha": 1.5, "gamma": 0.75 * math.pi, "epsilon": 0.1},
    "maximization": {"alpha": 2.0, "gamma": 0.75 * math.pi},
    "convex": {"n": 12, "seed": 1},
    "concave": {"n": 12, "seed": 2},
    "mixed": {"n": 15, "seed": 3},
    "knapsack": {"k": 4, "seed": 1},
}


def fmt(value) -> str:
    """Hex for floats; sorted ids for sets; elementwise for tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(fmt(v) for v in value) + ")"
    return repr(value)


def call(fn, *args) -> str:
    try:
        return fmt(fn(*args))
    except ConeApproxError as exc:  # the type name is the answer
        return f"!{type(exc).__name__}"


def mid_cone(gamma: float) -> ca.ConeParams:
    lo, hi = ca.admissible_range(gamma)
    return ca.ConeParams(gamma, 0.5 * (lo + hi))


def interval(s: ca.PhiIntervalSet):
    return s.interval if s.interval is not None else "empty"


def phi_interval(inst: ca.Instance, gamma: float, sid: str):
    return interval(ca.optimal_phi_set(inst, gamma, sid))


def verify(inst: ca.Instance, selection, params) -> tuple:
    r = ca.verify_approx_set(inst, selection, VERIFY_ALPHA, params)
    return (r.is_valid, r.min_alpha, tuple(w for pair in r.witnesses for w in pair))


def gaps(inst: ca.Instance, selection, gamma: float, alpha: float) -> list:
    return [interval(g) for g in ca.rotation_coverage_gaps(inst, selection, gamma, alpha).values()]


def pairs(inst: ca.Instance, params) -> str:
    """is_alpha_approx_pair on all (by, target) pairs at every PAIR_ALPHAS, as 0/1."""
    ids = inst.ids()
    return "".join(
        "1" if ca.is_alpha_approx_pair(inst, params, by, t, a) else "0" for a in PAIR_ALPHAS for by in ids for t in ids
    )


def answers(name: str, inst: ca.Instance) -> list[str]:
    """The corpus lines of one instance."""
    ids = inst.ids()
    lines = [f"{name} efficient_set {call(ca.efficient_set, inst)}"]
    for gname, gamma in GAMMAS.items():
        params = mid_cone(gamma)
        supported = ca.gamma_supported_set(inst, gamma)
        selections = (supported, ids[::3])
        orders = (None, params)
        out = {
            "cone_efficient_set": call(ca.cone_efficient_set, inst, params),
            "gamma_supported_set": fmt(supported),
            "optimal_phi_set": fmt([call(phi_interval, inst, gamma, s) for s in ids]),
            "min_alpha": fmt([call(ca.min_alpha, inst, sel, p) for sel in selections for p in orders]),
            "verify_approx_set": fmt([call(verify, inst, sel, p) for sel in selections for p in orders]),
            "rotation_coverage_gaps": fmt([call(gaps, inst, supported, gamma, a) for a in GAP_ALPHAS]),
            "build_cover_set": fmt([call(ca.build_cover_set, inst, gamma, a) for a in COVER_ALPHAS]),
            "is_alpha_approx_pair": ",".join(pairs(inst, p) for p in orders),
        }
        lines += [f"{name} {fn}@{gname} {text}" for fn, text in out.items()]
    return lines


def weights_at_ratio(gamma: float, q: float) -> tuple:
    w = ca.balanced_weights(ca.ConeParams(gamma, ca.rotation_for_ratio(gamma, q)))
    return (w.w1, w.w2)


def numeric() -> list[str]:
    """The numeric lines: matched rotations and weights per (angle, ratio), and
    per angle the bound-table row and the identity residual at fixed
    fractions of the admissible range."""
    lines = []
    for gname, gamma in NUMERIC_GAMMAS.items():
        for q in NUMERIC_RATIOS:
            lines.append(f"numeric rotation_for_ratio@{gname},{q!r} {call(ca.rotation_for_ratio, gamma, q)}")
            lines.append(f"numeric balanced_weights@{gname},{q!r} {call(weights_at_ratio, gamma, q)}")
        lines.append(f"numeric BoundTable.csv_row@{gname} {ca.BoundTable.at(gamma).csv_row()}")
        phis = [f * (gamma - 0.5 * math.pi) for f in RESIDUAL_FRACTIONS]
        residuals = [call(ca.distortion_identity_residual, gamma, phi) for phi in phis]
        lines.append(f"numeric distortion_identity_residual@{gname} {fmt(residuals)}")
    return lines


def lattice_front(seed: int, n: int) -> list[tuple[str, float, float]]:
    """Objectives on a coarse 1/8 lattice, so ties and duplicates are common."""
    pts = np.random.default_rng(seed).integers(1, 24, size=(n, 2)) / 8.0
    return [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)]


def corpus() -> list[tuple[str, ca.Instance]]:
    out = []
    for family, params in FAMILY_PARAMS.items():
        inst = make_family_instance(family, **params)
        out.append((family, inst))
        items = [(s.id, *s.objectives) for s in inst.solutions]
        mirror = "min" if inst.sense == "max" else "max"
        out.append((f"{family}-{mirror}", ca.make_instance(mirror, items)))
    for shape in ("convex", "concave", "mixed"):
        for seed in (5, 6):
            inst = make_family_instance(shape, n=10, seed=seed)
            items = [(s.id, *s.objectives) for s in inst.solutions]
            out += [(f"{shape}{seed}-{sense}", ca.make_instance(sense, items)) for sense in ("min", "max")]
    for seed in range(4):
        items = lattice_front(seed, 10)
        out += [(f"lattice{seed}-{sense}", ca.make_instance(sense, items)) for sense in ("min", "max")]
    mixed = make_family_instance("mixed", n=10, seed=5)
    badly_scaled = {
        "spread": [("x0", 1e-3, 1e3), ("x1", 1.0, 1.0), ("x2", 1e3, 1e-3)],
        "mixed5-scaled": [(s.id, s.objectives[0] * 1e-3, s.objectives[1] * 1e3) for s in mixed.solutions],
    }
    for name, items in badly_scaled.items():
        out += [(f"{name}-{sense}", ca.make_instance(sense, items)) for sense in ("min", "max")]
    return out


def main() -> None:
    for name, inst in corpus():
        for line in answers(name, inst):
            print(line)
    for line in numeric():
        print(line)


if __name__ == "__main__":
    main()
