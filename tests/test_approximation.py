import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.errors import AlphaBelowOne, EmptySelection, UnknownId
from coneapprox.generators import maximization_trap, tightness_instance

from conftest import brute_min_alpha, cone_params, min_instances, random_min_instance

PI = math.pi
BOTH = ("min", "max")


def example1_instance():
    return ca.make_instance("min", [("x1", 1.0, 1.0), ("x2", 2.0, 1.0 / 3.0)])


class TestPairPredicate:
    def test_reflexive_at_one(self):
        inst = example1_instance()
        for sid in inst.ids():
            assert ca.is_alpha_approx_pair(inst, None, sid, sid, 1.0)

    def test_example1_pairs(self):
        inst = example1_instance()
        # x2 covers x1 at factor 2 componentwise, x1 does not cover x2.
        assert ca.is_alpha_approx_pair(inst, None, "x2", "x1", 2.0)
        assert not ca.is_alpha_approx_pair(inst, None, "x1", "x2", 2.0)

    @given(min_instances(min_size=2, max_size=6, senses=BOTH), cone_params(), st.floats(1.0, 4.0))
    def test_componentwise_implies_cone(self, inst, params, alpha):
        ids = inst.ids()
        for by in ids[:3]:
            for target in ids[:3]:
                if ca.is_alpha_approx_pair(inst, None, by, target, alpha):
                    assert ca.is_alpha_approx_pair(inst, params, by, target, alpha)

    def test_alpha_below_one(self):
        inst = example1_instance()
        with pytest.raises(AlphaBelowOne):
            ca.is_alpha_approx_pair(inst, None, "x1", "x2", 0.9)

    def test_unknown_id(self):
        inst = example1_instance()
        with pytest.raises(UnknownId):
            ca.is_alpha_approx_pair(inst, None, "zz", "x1", 1.0)

    @given(
        min_instances(min_size=1, max_size=6, senses=BOTH),
        st.integers(-3, 3),
        st.none() | cone_params(),
        st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 3.0),
    )
    def test_agrees_with_verify_approx_set(self, inst, k, params, alpha):
        # The pair predicate is the one-candidate case of the set verdict, at
        # every scale of the objectives.
        scale = 10.0**k
        items = [(s.id, s.objectives[0] * scale, s.objectives[1] * scale) for s in inst.solutions]
        inst = ca.make_instance(inst.sense, items)
        for by in inst.ids():
            report = ca.verify_approx_set(inst, [by], alpha, params)
            uncovered = {u for u, _ in report.witnesses}
            for target in inst.ids():
                assert ca.is_alpha_approx_pair(inst, params, by, target, alpha) == (target not in uncovered)


# (sense, f(target), f(candidate), whether the candidate covers the target at
# factor 2): exact factors just above 2 but within TAU_VAL of it, and one just
# beyond, where an absolute tolerance on the difference alpha * f(t) - f(c)
# used to give the opposite verdict.
PAIR_AT_SCALE = [
    ("min", (1000.0, 1000.0), (2000.0 + 5e-7, 1.0), True),
    ("min", (1e-3, 1e-3), (2e-3 + 5e-10, 1e-4), False),
    ("max", (1000.0, 1000.0), (500.0 - 1e-7, 2000.0), True),
]


@pytest.mark.parametrize("sense,target,candidate,covers", PAIR_AT_SCALE)
def test_pair_and_set_agree_at_scale(sense, target, candidate, covers):
    inst = ca.make_instance(sense, [("t", *target), ("c", *candidate)])
    report = ca.verify_approx_set(inst, ["c"], 2.0)
    assert report.is_valid == covers
    assert ca.is_alpha_approx_pair(inst, None, "c", "t", 2.0) == covers


@pytest.mark.parametrize(
    "call",
    [
        lambda inst, alpha: ca.is_alpha_approx_pair(inst, None, "x1", "x2", alpha),
        lambda inst, alpha: ca.verify_approx_set(inst, {"x1"}, alpha),
        lambda inst, alpha: ca.rotation_coverage_gaps(inst, {"x1"}, 0.75 * PI, alpha),
    ],
    ids=["is_alpha_approx_pair", "verify_approx_set", "rotation_coverage_gaps"],
)
def test_nan_alpha_rejected(call):
    for alpha in (math.nan, math.inf):
        with pytest.raises(AlphaBelowOne, match="finite"):
            call(example1_instance(), alpha)


class TestVerifyApproxSet:
    def test_whole_set_is_valid(self):
        inst = random_min_instance(0, 15)
        report = ca.verify_approx_set(inst, set(inst.ids()), 1.0)
        assert report.is_valid
        assert report.min_alpha == pytest.approx(1.0, abs=1e-12)
        assert report.witnesses == ()

    def test_efficient_set_is_one_approximation(self):
        for seed in range(10):
            inst = random_min_instance(seed, 30)
            report = ca.verify_approx_set(inst, ca.efficient_set(inst), 1.0)
            assert report.is_valid

    def test_example1_sets(self):
        inst = example1_instance()
        bad = ca.verify_approx_set(inst, {"x1"}, 2.0)
        assert not bad.is_valid
        assert bad.witnesses == (("x2", "x1"),)
        assert ca.verify_approx_set(inst, {"x2"}, 2.0).is_valid

    @pytest.mark.parametrize(
        "sense, target, front, tied",
        [
            ("min", (1.0, 1.0), (2.0, 3.0), (3.0, 3.0)),
            ("min", (1.0, 1.0), (2.0, 3.0), (2.0, 3.0)),
            ("max", (3.0, 3.0), (1.5, 1.0), (1.0, 1.0)),
            ("max", (3.0, 3.0), (1.5, 1.0), (1.5, 1.0)),
        ],
        ids=["min-dominated", "min-duplicate", "max-dominated", "max-duplicate"],
    )
    def test_witness_is_smallest_tied_id(self, sense, target, front, tied):
        # "a" is dominated by or duplicates front candidate "b", and both
        # cover t at factor 3: the witness is the smaller sorted id.
        inst = ca.make_instance(sense, [("t", *target), ("b", *front), ("a", *tied)])
        report = ca.verify_approx_set(inst, ["b", "a"], 2.0)
        assert report.min_alpha == 3.0
        assert report.witnesses == (("t", "a"),)

    def test_report_invariant(self):
        inst = random_min_instance(4, 12)
        for selection in ({"x0"}, {"x0", "x5"}, set(inst.ids())):
            for alpha in (1.0, 1.3, 2.5):
                report = ca.verify_approx_set(inst, selection, alpha)
                assert report.is_valid == (report.min_alpha <= alpha + ca.TAU_VAL)
                assert report.is_valid == (not report.witnesses)

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            ca.verify_approx_set(example1_instance(), set(), 1.0)

    def test_overflowing_factor_is_null_in_json(self):
        inst = ca.make_instance("min", [("t", 1e-310, 1.0), ("c", 1.0, 1e-310)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ca.verify_approx_set(inst, ["c"], 2.0)
        assert report.min_alpha == math.inf and not report.is_valid
        obj = report.to_obj()
        assert obj["min_alpha"] is None
        assert json.loads(json.dumps(obj, allow_nan=False)) == obj


class TestMinAlpha:
    def test_whole_set(self):
        inst = random_min_instance(1, 10)
        assert ca.min_alpha(inst, set(inst.ids())) == pytest.approx(1.0, abs=1e-12)

    def test_example1_hand_value(self):
        assert ca.min_alpha(example1_instance(), {"x1"}) == pytest.approx(3.0, abs=1e-12)

    def test_exact_threshold(self):
        inst = random_min_instance(2, 20)
        selection = {"x0", "x3", "x7"}
        m = ca.min_alpha(inst, selection)
        eps = 1e-6
        assert ca.verify_approx_set(inst, selection, m + eps).is_valid
        if m - eps >= 1.0:
            assert not ca.verify_approx_set(inst, selection, m - eps).is_valid

    @given(min_instances(min_size=2, max_size=10, senses=BOTH), st.data())
    def test_matches_brute_force(self, inst, data):
        ids = inst.ids()
        k = data.draw(st.integers(1, len(ids)))
        selection = ids[:k]
        got = ca.min_alpha(inst, selection)
        want = brute_min_alpha(inst, selection, None)
        assert got == pytest.approx(want, abs=1e-12)

    @given(min_instances(min_size=2, max_size=8, senses=BOTH), cone_params(), st.data())
    def test_matches_brute_force_with_cone(self, inst, params, data):
        ids = inst.ids()
        k = data.draw(st.integers(1, len(ids)))
        selection = ids[:k]
        got = ca.min_alpha(inst, selection, params)
        want = brute_min_alpha(inst, selection, params)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_seeded_brute_force_large(self):
        for seed in range(20):
            inst = random_min_instance(seed, 200)
            selection = inst.ids()[::7]
            assert ca.min_alpha(inst, selection) == pytest.approx(
                brute_min_alpha(inst, selection, None), abs=1e-12
            )

    @given(min_instances(min_size=2, max_size=8), cone_params(), cone_params(), st.data())
    def test_monotone_in_cone_widening(self, inst, p1, p2, data):
        # Wider cones only make covering easier.
        if not (p1.phi <= p2.phi and p1.phi_prime <= p2.phi_prime):
            return
        ids = inst.ids()
        k = data.draw(st.integers(1, len(ids)))
        selection = ids[:k]
        assert ca.min_alpha(inst, selection, p2) <= ca.min_alpha(inst, selection, p1) + 1e-9

    def test_max_sense_reciprocal(self):
        inst = maximization_trap(2.0, 3 * PI / 4)
        m = ca.min_alpha(inst, {"x1", "x2"})
        # Covering x3 = (alpha+1, alpha+1) by x1 = (1, big) needs factor alpha+1.
        assert m == pytest.approx(3.0, abs=1e-12)
        assert ca.min_alpha(inst, set(inst.ids())) == pytest.approx(1.0, abs=1e-12)
        assert ca.is_alpha_approx_pair(inst, None, "x1", "x3", 3.0)
        assert not ca.is_alpha_approx_pair(inst, None, "x1", "x3", 2.9)


class TestRotationCoverageGaps:
    def test_tightness_family_covered_at_alpha(self):
        inst = tightness_instance(2.0, 3 * PI / 4, 0.2)
        assert ca.is_alpha_approx_for_all_rotations(inst, {"x1", "x2"}, 3 * PI / 4, 2.0)

    def test_gap_matches_sampled_verification(self):
        inst = tightness_instance(1.5, 2 * PI / 3, 0.3)
        gamma = 2 * PI / 3
        selection = {"x1", "x2"}
        gaps = ca.rotation_coverage_gaps(inst, selection, gamma, 1.2)
        lo, hi = ca.admissible_range(gamma)
        for phi in np.linspace(lo, hi, 101):
            phi = float(phi)
            report = ca.verify_approx_set(inst, selection, 1.2, ca.ConeParams(gamma, phi))
            uncovered = {sid for sid, g in gaps.items() if g.contains(phi, tol=0.0)}
            near_edge = any(
                abs(phi - e) < 1e-7 for g in gaps.values() for e in g.interval or ()
            )
            if near_edge:
                continue
            assert report.is_valid == (not uncovered)

    @pytest.mark.parametrize(
        "sense, candidate, phi",
        [
            ("min", (2000.0 + 5e-7, 1.0), 0.5 * (0.7853981631473232 + PI / 4)),
            ("max", (500.0 - 1e-7, 2000.0), 0.5 * (0.7853981633307816 + PI / 4)),
        ],
        ids=["min", "max"],
    )
    def test_gaps_read_the_factor_slack(self, sense, candidate, phi):
        # c covers t at a factor within alpha + TAU_VAL at every rotation,
        # phi included, so the every-rotation decision finds no gap either.
        gamma = 3 * PI / 4
        inst = ca.make_instance(sense, [("t", 1000.0, 1000.0), ("c", *candidate)])
        report = ca.verify_approx_set(inst, ["c"], 2.0, ca.ConeParams(gamma, phi))
        assert report.is_valid and report.min_alpha > 2.0
        gaps = ca.rotation_coverage_gaps(inst, {"c"}, gamma, 2.0)
        assert all(g.is_empty() for g in gaps.values())
        assert ca.is_alpha_approx_for_all_rotations(inst, {"c"}, gamma, 2.0)

    def test_self_cover_has_no_gaps(self):
        inst = random_min_instance(8, 10)
        gaps = ca.rotation_coverage_gaps(inst, set(inst.ids()), 3 * PI / 4, 1.0)
        assert all(g.is_empty() for g in gaps.values())
