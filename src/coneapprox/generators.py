"""Instance families: structured counterexamples and random desk-scale inputs.

The structured families materialize the constructions that delimit what
cone-order optimality can guarantee:

* single_cone_trap      -- two solutions; the cone-order optimum of one fixed
                           cone fails to alpha-approximate the other solution.
* every_rotation_trap   -- two solutions; one is optimal for every admissible
                           rotation of the inner angle yet does not
                           alpha-approximate the other.
* tightness_instance    -- three solutions showing the covering guarantee
                           alpha * (1 + tan(gamma/2 - pi/4)) cannot be
                           improved by any epsilon.
* maximization_trap     -- three solutions (maximization sense) whose
                           efficient middle point is optimal for no rotation,
                           so no covering guarantee exists for maximization.

Random families (seeded by an integer >= 0, bit-reproducible given the same
numpy version):
fronts on strictly convex or strictly concave decreasing curves, a mixed
front with dominated noise, and exhaustive enumeration of subset instances
that trade selected cost against unselected value.

FAMILIES names each family's builder; the builder's signature alone says
which parameters the family takes (the seeded ones default to seed 0), and
make_family_instance rejects any other.
"""

from __future__ import annotations

import inspect
import math
from functools import partial

import numpy as np

from .errors import InvalidParams, KTooLarge
from .geometry import HALF_PI, admissible, admissible_range
from .instances import MAX, MIN, Instance, Solution
from .tolerances import TAU_ANGLE


def single_cone_trap(alpha: float, gamma: float, phi: float) -> Instance:
    """Two minimization solutions defeating a single cone's efficient set.

    With t = tan(phi): x1 = (1, (alpha-1)*t) and
    x2 = (alpha, (alpha-1)/(alpha+1)*t).  Under the cone (gamma, phi) the
    only optimal solution is x1, but {x1} is not an alpha-approximation of
    the instance while {x2} is.  Needs alpha > 1 and a rotation in
    (0, gamma - pi/2] excluding pi/2 so both second components are positive.
    """
    if not 1.0 < alpha < math.inf:
        raise InvalidParams(f"alpha must be finite and > 1, got {alpha!r}")
    if not (gamma - HALF_PI > TAU_ANGLE and gamma <= math.pi + TAU_ANGLE):
        raise InvalidParams(f"inner angle {gamma!r} outside (pi/2, pi]")
    if phi <= 0.0 or not admissible(gamma, phi):
        raise InvalidParams(f"rotation {phi!r} outside (0, gamma - pi/2] \\ {{pi/2}}")
    t = math.tan(phi)
    return Instance(
        MIN,
        (
            Solution("x1", (1.0, (alpha - 1.0) * t)),
            Solution("x2", (alpha, (alpha - 1.0) / (alpha + 1.0) * t)),
        ),
    )


def every_rotation_trap(alpha: float, gamma: float) -> Instance:
    """Two minimization solutions; x1 is optimal for every admissible rotation
    of the inner angle yet fails to alpha-approximate x2.

    x1 = (alpha + 1, 1), x2 = (1, (-cos g / sin g) * (alpha + 1) + 1).
    Needs gamma strictly between pi/2 and pi.
    """
    if not 1.0 <= alpha < math.inf:
        raise InvalidParams(f"alpha must be finite and >= 1, got {alpha!r}")
    if not (gamma - HALF_PI > TAU_ANGLE and gamma < math.pi - TAU_ANGLE):
        raise InvalidParams(f"inner angle {gamma!r} outside (pi/2, pi)")
    slope = -math.cos(gamma) / math.sin(gamma)
    return Instance(
        MIN,
        (
            Solution("x1", (alpha + 1.0, 1.0)),
            Solution("x2", (1.0, slope * (alpha + 1.0) + 1.0)),
        ),
    )


def tightness_instance(alpha: float, gamma: float, epsilon: float) -> Instance:
    """Three minimization solutions showing the covering guarantee is tight.

    With t = tan(gamma/2 - pi/4) and eps' = min(epsilon/alpha, 1)/2:
    x1 = (alpha*(1 + (1-eps')*t), alpha*eps'), x2 mirrored, x3 = (1, 1).
    {x1, x2} alpha-approximates the instance for every admissible rotation
    of the inner angle, but is not an
    (alpha*(1 + t) - epsilon)-approximation componentwise.
    """
    if not 1.0 <= alpha < math.inf:
        raise InvalidParams(f"alpha must be finite and >= 1, got {alpha!r}")
    if not (HALF_PI - TAU_ANGLE <= gamma <= math.pi + TAU_ANGLE):
        raise InvalidParams(f"inner angle {gamma!r} outside [pi/2, pi]")
    if not epsilon > 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon!r}")
    eps_p = 0.5 * min(epsilon / alpha, 1.0)
    t = math.tan(0.5 * gamma - 0.25 * math.pi)
    hi = alpha * (1.0 + (1.0 - eps_p) * t)
    lo = alpha * eps_p
    return Instance(
        MIN,
        (
            Solution("x1", (hi, lo)),
            Solution("x2", (lo, hi)),
            Solution("x3", (1.0, 1.0)),
        ),
    )


def maximization_trap(alpha: float, gamma: float) -> Instance:
    """Three maximization solutions with an efficient but never-optimal middle.

    With t = tan(gamma/2 - pi/4) and m = alpha + 2 + alpha/t:
    x1 = (1, m), x2 = (m, 1), x3 = (alpha+1, alpha+1).  x3 is efficient yet
    optimal for no admissible rotation, and {x1, x2} is not an
    alpha-approximation.  Needs gamma > pi/2 (t > 0).
    """
    if not 1.0 <= alpha < math.inf:
        raise InvalidParams(f"alpha must be finite and >= 1, got {alpha!r}")
    if not (gamma - HALF_PI > TAU_ANGLE and gamma <= math.pi + TAU_ANGLE):
        raise InvalidParams(f"inner angle {gamma!r} outside (pi/2, pi]")
    t = math.tan(0.5 * gamma - 0.25 * math.pi)
    m = alpha + 2.0 + alpha / t
    return Instance(
        MAX,
        (
            Solution("x1", (1.0, m)),
            Solution("x2", (m, 1.0)),
            Solution("x3", (alpha + 1.0, alpha + 1.0)),
        ),
    )


def random_front(n: int, seed: int, shape: str = "mixed") -> Instance:
    """Seeded random minimization instance with a controlled front shape.

    convex:  points on a strictly convex decreasing curve (all efficient,
             all supported).
    concave: points on a strictly concave decreasing arc (all efficient,
             only the two extremes supported for n >= 3).
    mixed:   convex and concave pieces plus dominated noise points
             (ids prefixed "noise").
    """
    if n < 1:
        raise InvalidParams(f"need n >= 1, got {n!r}")
    if shape not in ("convex", "concave", "mixed"):
        raise InvalidParams(f"unknown shape {shape!r}")
    if seed < 0:
        raise InvalidParams(f"need seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    if shape == "convex":
        pts = _convex_points(rng, n)
    elif shape == "concave":
        pts = _concave_points(rng, n)
    else:
        n_front = max(1, n - n // 3)
        n_convex = n_front // 2
        n_concave = n_front - n_convex
        front = []
        if n_convex:
            front.extend(_convex_points(rng, n_convex))
        if n_concave:
            front.extend(_concave_points(rng, n_concave))
        noise = []
        for _ in range(n - n_front):
            base = front[rng.integers(0, len(front))]
            off = rng.uniform(0.05, 1.0, size=2)
            noise.append((base[0] + off[0], base[1] + off[1]))
        sols = [Solution(f"x{i}", p) for i, p in enumerate(front)]
        sols += [Solution(f"noise{i}", p) for i, p in enumerate(noise)]
        return Instance(MIN, tuple(sols))
    return Instance(MIN, tuple(Solution(f"x{i}", p) for i, p in enumerate(pts)))


def _convex_points(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    # Strictly increasing abscissae on a hyperbola branch: strictly convex,
    # strictly decreasing, strictly positive.
    gaps = rng.uniform(0.05, 1.0, size=n)
    t = 1.0 + np.cumsum(gaps)
    c = float(t[0] * t[-1])
    return [(float(x), c / float(x)) for x in t]


def _concave_points(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    # Points on a quarter-circle arc: strictly concave, strictly decreasing.
    gaps = rng.uniform(0.05, 1.0, size=n)
    cum = np.cumsum(gaps) - gaps[0]
    if n > 1:
        angles = 0.1 + (cum / cum[-1]) * (HALF_PI - 0.2)
    else:
        angles = np.array([0.25 * math.pi])
    r = 2.0
    return [(r * math.sin(a), r * math.cos(a)) for a in angles]


def knapsack_enumeration(k: int, seed: int) -> Instance:
    """All 2^k subsets of k items, id "s" + the item-membership bitstring.

    Minimization of f1 = base cost + costs of the selected items against
    f2 = base loss + values of the items left out: both strictly positive
    and in conflict, so the efficient set is a genuine front.
    """
    if k < 1:
        raise InvalidParams(f"need k >= 1, got {k!r}")
    if k > 20:
        raise KTooLarge(f"subset enumeration capped at k = 20, got {k!r}")
    if seed < 0:
        raise InvalidParams(f"need seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 2.0, size=2)
    items = rng.uniform(0.5, 3.0, size=(k, 2))
    members = (np.arange(2**k)[:, None] >> np.arange(k)[None, :]) & 1
    f1 = base[0] + members @ items[:, 0]
    f2 = base[1] + (1 - members) @ items[:, 1]
    sols = tuple(
        Solution("s" + "".join(str(b) for b in bits), (float(a), float(b)))
        for bits, a, b in zip(members, f1, f2)
    )
    return Instance(MIN, sols)


FAMILIES = {
    "single-cone": single_cone_trap,
    "always-optimal": every_rotation_trap,
    "tightness": tightness_instance,
    "maximization": maximization_trap,
    # A front family's shape is its own, not a parameter.
    "convex": lambda n, seed=0: random_front(n, seed, "convex"),
    "concave": lambda n, seed=0: random_front(n, seed, "concave"),
    "mixed": lambda n, seed=0: random_front(n, seed, "mixed"),
    "knapsack": partial(knapsack_enumeration, seed=0),
}

# Families that build maximization instances; every other one minimizes.
MAXIMIZATION_FAMILIES = {"maximization"}


def _builder(family: str):
    try:
        return FAMILIES[family]
    except KeyError:
        raise InvalidParams(f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None


def takes_inner_angle(family: str) -> bool:
    """Whether the named family's construction depends on the inner angle,
    that is, whether its builder has a `gamma` parameter."""
    return "gamma" in inspect.signature(_builder(family)).parameters


def make_family_instance(family: str, **params) -> Instance:
    """Instantiate a named family with exactly the parameters its builder takes.

    A given inner angle `gamma` is checked first: outside [pi/2, pi] it
    raises InadmissibleCone, whichever the family.  InvalidParams is raised
    for an unknown family, for a parameter the builder lacks or requires but
    was not given, for values outside the family's own ranges (such as
    `always-optimal` at pi), and for values at which an objective overflows.
    """
    build = _builder(family)
    if "gamma" in params:
        admissible_range(params["gamma"])
    try:
        inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise InvalidParams(f"family {family!r}: {exc}") from None
    instance = build(**params)
    if not np.isfinite(instance.objective_array()).all():
        raise InvalidParams(f"family {family!r}: an objective overflows at {params}")
    return instance
