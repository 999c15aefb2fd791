import math

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.errors import InvalidParams
from coneapprox.geometry import ConeParams, Vector2, admissible_range, transform
from coneapprox.instances import MAX, Instance, cone_efficient_set
from coneapprox.tolerances import TAU_ANGLE, TAU_VAL

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# Objective values live on a 1e-3 lattice well away from the 1e-9 comparison
# tolerance, so dominance verdicts never sit on a knife edge.
def lattice_floats(lo: float = 0.05, hi: float = 20.0):
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda k: k / 1000.0)


@st.composite
def min_instances(draw, min_size: int = 1, max_size: int = 10, senses: tuple[str, ...] = ("min",)):
    """Lattice instances; the sense is drawn from `senses` (minimization by default)."""
    sense = draw(st.sampled_from(senses))
    pairs = draw(
        st.lists(st.tuples(lattice_floats(), lattice_floats()), min_size=min_size, max_size=max_size)
    )
    return ca.make_instance(sense, [(f"x{i}", a, b) for i, (a, b) in enumerate(pairs)])


@st.composite
def gammas(draw):
    pick = draw(st.integers(0, 5))
    if pick == 0:
        return 0.5 * math.pi
    if pick == 1:
        return math.pi
    return draw(
        st.floats(min_value=0.5 * math.pi + 1e-6, max_value=math.pi, allow_nan=False)
    )


@st.composite
def cone_params(draw):
    gamma = draw(gammas())
    lo, hi = ca.admissible_range(gamma)
    if gamma >= math.pi - 1e-12:
        # Stay clear of the tolerance-degenerate corner at the shrunk
        # endpoints of the open rotation range.
        inset = 1e-6 * (hi - lo)
        lo, hi = lo + inset, hi - inset
    frac = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    phi = min(max(lo + frac * (hi - lo), lo), hi)
    return ca.ConeParams(gamma, phi)


@st.composite
def vectors(draw, lo: float = -20.0, hi: float = 20.0):
    mk = st.integers(round(lo * 1000), round(hi * 1000)).map(lambda k: k / 1000.0)
    return (draw(mk), draw(mk))


def random_min_instance(seed: int, n: int, lo: float = 0.1, hi: float = 10.0) -> ca.Instance:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 2))
    return ca.make_instance("min", [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pts)])


# --- independent oracles ------------------------------------------------------


def dominates(instance: Instance, a: str, b: str) -> bool:
    """Whether solution `a` dominates solution `b` in the instance's sense.

    Minimization: f(a) <= f(b) componentwise and the images differ, with
    both comparisons relaxed by TAU_VAL.  Maximization mirrors with >=.
    """
    fa = instance.objectives_of(a)
    fb = instance.objectives_of(b)
    if instance.sense == MAX:
        fa, fb = (-fa[0], -fa[1]), (-fb[0], -fb[1])
    if fa[0] > fb[0] + TAU_VAL or fa[1] > fb[1] + TAU_VAL:
        return False
    return fa[0] < fb[0] - TAU_VAL or fa[1] < fb[1] - TAU_VAL


def brute_efficient(instance: ca.Instance) -> set[str]:
    """O(n^2) pairwise dominance check."""
    ids = instance.ids()
    return {a for a in ids if not any(b != a and dominates(instance, b, a) for b in ids)}


def cone_contains(params: ConeParams, d: Vector2, tol: float = TAU_VAL) -> bool:
    """Closed-cone membership, relaxed by an absolute tolerance on the
    transformed coordinates."""
    t1, t2 = transform(params, d)
    return t1 >= -tol and t2 >= -tol


def transformed_instance(instance: ca.Instance, params: ca.ConeParams) -> ca.Instance:
    """The instance with every image pushed through the cone's reduction map,
    one scalar ca.transform call per solution."""
    return ca.Instance(
        instance.sense, tuple(ca.Solution(s.id, ca.transform(params, s.objectives)) for s in instance.solutions)
    )


def oracle_transform(gamma: float, phi: float, y: tuple[float, float]) -> tuple[float, float]:
    """The reduction map written out from scratch."""
    phi_p = gamma - 0.5 * math.pi - phi
    return (
        math.cos(phi_p) * y[0] + math.sin(phi_p) * y[1],
        math.sin(phi) * y[0] + math.cos(phi) * y[1],
    )


def brute_min_alpha(instance: ca.Instance, selection, params: ca.ConeParams | None) -> float:
    """Double-loop max-min-max of componentwise image ratios."""
    def image(sid):
        y = instance.objectives_of(sid)
        if params is None:
            return y
        return oracle_transform(params.gamma, params.phi, y)

    worst = 0.0
    for sol in instance.solutions:
        fx = image(sol.id)
        best = math.inf
        for s in selection:
            fs = image(s)
            if instance.sense == "max":
                pair = max(fx[0] / fs[0], fx[1] / fs[1])
            else:
                pair = max(fs[0] / fx[0], fs[1] / fx[1])
            best = min(best, pair)
        worst = max(worst, best)
    return worst


def grid_oracle_gamma_supported(instance: Instance, gamma: float, steps: int) -> set[str]:
    """Union of cone-order efficient sets over `steps` equally spaced rotations.

    Testing oracle: a subset of the exact set, with equality whenever every
    nonempty rotation interval of the exact computation is at least one grid
    pitch long.  At gamma = pi the grid is inset a little further from the
    excluded endpoints: right at the shrunk boundary the weighted sum carries
    so little of one objective that the value tolerance declares spurious
    ties.
    """
    if steps < 2:
        raise InvalidParams("grid oracle needs at least 2 steps")
    lo, hi = admissible_range(gamma)
    if gamma >= math.pi - TAU_ANGLE:
        inset = 1e-6 * (hi - lo)
        lo, hi = lo + inset, hi - inset
    out: set[str] = set()
    for phi in np.linspace(lo, hi, steps):
        out |= cone_efficient_set(instance, ConeParams(gamma, float(phi)))
        if len(out) == len(instance.solutions):
            break
    return out
