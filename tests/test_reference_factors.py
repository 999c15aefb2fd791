"""min_alpha, verify_approx_set and is_alpha_approx_pair against the
quadratic factor matrix, compared with ==: the crossing search must return
the same floats and the same witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.generators import random_front

from conftest import cone_params, min_instances
from reference_factors import reference_pair, reference_report

BOTH = ("min", "max")


@st.composite
def tie_instances(draw, max_size: int = 12):
    """A coarse integer lattice: equal quotients, tied factors and duplicate
    images are the rule, not the exception."""
    sense = draw(st.sampled_from(BOTH))
    pairs = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=max_size))
    return ca.make_instance(sense, [(f"x{i}", float(a), float(b)) for i, (a, b) in enumerate(pairs)])


instances = tie_instances() | min_instances(min_size=1, max_size=12, senses=BOTH)
alphas = st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 4.0)


def selections(inst):
    """Nonempty id lists, repeats allowed: dominated and duplicate-image
    candidates come with the lattice."""
    return st.lists(st.sampled_from(inst.ids()), min_size=1, max_size=len(inst.solutions) + 2)


def assert_matches_reference(inst, selection, alpha, params):
    report = ca.verify_approx_set(inst, selection, alpha, params)
    want = reference_report(inst, selection, alpha, params)
    assert (report.min_alpha, report.is_valid, report.witnesses) == want
    assert ca.min_alpha(inst, selection, params) == want[0]


@given(instances, st.none() | cone_params(), alphas, st.data())
def test_set_answers_match_factor_matrix(inst, params, alpha, data):
    assert_matches_reference(inst, data.draw(selections(inst)), alpha, params)


@given(instances, st.none() | cone_params(), alphas)
def test_singleton_selections_match_factor_matrix(inst, params, alpha):
    ids = inst.ids()[:6]
    for by in ids:
        assert_matches_reference(inst, [by], alpha, params)
        for target in ids:
            assert ca.is_alpha_approx_pair(inst, params, by, target, alpha) == reference_pair(
                inst, params, by, target, alpha
            )


@given(tie_instances(), st.none() | cone_params(), st.data())
def test_whole_and_front_selections_match_factor_matrix(inst, params, data):
    # The whole instance holds every dominated and duplicate candidate; the
    # efficient set holds the front and its duplicates only.
    alpha = data.draw(alphas)
    for selection in (inst.ids(), sorted(ca.efficient_set(inst)), inst.ids()[::-1]):
        assert_matches_reference(inst, selection, alpha, params)


@pytest.mark.parametrize("shape", ["convex", "concave", "mixed"])
@pytest.mark.parametrize("sense", BOTH)
def test_seeded_large_fronts_match_factor_matrix(shape, sense):
    base = random_front(2000, 7, shape)
    inst = ca.Instance(sense, base.solutions)
    rng = np.random.default_rng(11)
    ids = inst.ids()
    picks = [ids[int(i)] for i in rng.choice(len(ids), size=300, replace=False)]
    cover = sorted(ca.build_cover_set(base, 0.75 * math.pi))
    for params in (None, ca.ConeParams(0.75 * math.pi, 0.2)):
        for selection in (picks, cover):
            for alpha in (1.0, 1.2):
                assert_matches_reference(inst, selection, alpha, params)


def test_overflowing_quotients_match_factor_matrix():
    # Subnormal images: the exact factors are inf and 0.
    for sense in BOTH:
        inst = ca.make_instance(sense, [("t", 1e-310, 1.0), ("c", 1.0, 1e-310), ("d", 1e300, 1e-300)])
        for selection in (["c"], ["t"], ["c", "d"], inst.ids()):
            assert_matches_reference(inst, selection, 2.0, None)
