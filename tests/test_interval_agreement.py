"""The single-interval kernel against the sequential reference oracle.

Both decide gamma-supportedness and rotation coverage gaps; the kernel
reduces each solution's windows to one interval in a vectorized pass, the
reference subtracts them one pair at a time as a general interval union.
Verdicts must agree exactly and interval endpoints bit for bit, on inputs
built to hit the tolerance rules: coarse lattices with tied and coinciding
images, collinear fronts (tie endpoints at pi), both senses, and the
degenerate, interior and halfplane inner angles.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.generators import random_front
from coneapprox.intervals import PhiIntervalSet

from conftest import random_min_instance
from reference_intervals import (
    ref_gamma_supported_set,
    ref_optimal_phi_set,
    ref_rotation_coverage_gaps,
)

PI = math.pi
ALPHAS = (1.0, 1.1, 1.5)


def bits(interval_set) -> tuple:
    if isinstance(interval_set, PhiIntervalSet):
        intervals = () if interval_set.interval is None else (interval_set.interval,)
    else:
        intervals = interval_set.intervals
    return tuple((lo.hex(), hi.hex()) for lo, hi in intervals)


@st.composite
def lattice_instances(draw):
    """Few distinct lattice values, so exact ties and shared images are common."""
    sense = draw(st.sampled_from(("min", "max")))
    coord = st.integers(1, 8).map(lambda k: k / 2.0)
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=9))
    return ca.make_instance(sense, [(f"x{i}", a, b) for i, (a, b) in enumerate(pairs)])


@st.composite
def collinear_instances(draw):
    """Points on one decreasing line, plus a few strays off it."""
    sense = draw(st.sampled_from(("min", "max")))
    u, v = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    pts = [(1.0 + k * u, 1.0 + (m - k) * v) for k in range(m + 1)]
    strays = draw(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=3))
    pts += [(float(a), float(b)) for a, b in strays]
    order = draw(st.permutations(range(len(pts))))
    return ca.make_instance(sense, [(f"p{i}", *pts[j]) for i, j in enumerate(order)])


@st.composite
def inner_angles(draw):
    pick = draw(st.integers(0, 4))
    if pick == 0:
        # The right angle, within TAU_ANGLE of it, and just outside.
        return 0.5 * PI + draw(st.sampled_from((0.0, 5e-13, -5e-13, 1e-12)))
    if pick == 1:
        return PI
    if pick == 2:
        return draw(st.sampled_from((0.6 * PI, 0.75 * PI, 2 * PI / 3)))
    if pick == 3:
        return draw(st.floats(min_value=0.5 * PI + 1e-6, max_value=PI - 1e-6, allow_nan=False))
    # An angle that puts a lattice direction's window end on, or within
    # TAU_ANGLE of, an end of the admissible range: the short-window rule.
    k1, k2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    base = draw(st.sampled_from((float(np.arctan2(k2, -k1)), 0.5 * PI + float(np.arctan2(k2, k1)))))
    return base + draw(st.sampled_from((0.0, 5e-13, -5e-13)))


def assert_agrees(inst, gamma, selection):
    assert ca.gamma_supported_set(inst, gamma) == ref_gamma_supported_set(inst, gamma)
    for sid in inst.ids():
        assert bits(ca.optimal_phi_set(inst, gamma, sid)) == bits(ref_optimal_phi_set(inst, gamma, sid)), sid
    for alpha in ALPHAS:
        got = ca.rotation_coverage_gaps(inst, selection, gamma, alpha)
        want = ref_rotation_coverage_gaps(inst, selection, gamma, alpha)
        assert got.keys() == want.keys()
        for sid in want:
            assert bits(got[sid]) == bits(want[sid]), (alpha, sid)


@settings(max_examples=150)
@given(st.one_of(lattice_instances(), collinear_instances()), inner_angles(), st.data())
def test_kernel_agrees_with_sequential_reference(inst, gamma, data):
    ids = inst.ids()
    selection = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=len(ids)))
    assert_agrees(inst, gamma, selection)


def test_agreement_on_seeded_fronts():
    for seed in range(4):
        for inst in (random_min_instance(seed, 30), random_front(40, seed, "mixed"), random_front(25, seed, "concave")):
            ids = inst.ids()
            selection = set(np.random.default_rng(seed).choice(ids, size=len(ids) // 3, replace=False))
            for gamma in (0.5 * PI, 0.75 * PI, PI):
                assert_agrees(inst, gamma, selection)


def test_collinear_interior_keeps_single_tie_rotation():
    inst = ca.make_instance("min", [("a", 1.0, 3.0), ("b", 2.0, 2.0), ("c", 3.0, 1.0)])
    got = ca.optimal_phi_set(inst, PI, "b")
    lo, hi = got.interval
    assert lo == hi == PI / 4
    assert bits(got) == bits(ref_optimal_phi_set(inst, PI, "b"))
