import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coneapprox as ca
from coneapprox.errors import InvalidParams, UnknownId
from coneapprox.generators import every_rotation_trap, maximization_trap

from conftest import grid_oracle_gamma_supported, min_instances, random_min_instance

PI = math.pi


def concave_three():
    return ca.make_instance("min", [("x1", 1.0, 3.0), ("x2", 3.0, 1.0), ("x3", 2.9, 2.9)])


class TestOptimalPhiSet:
    def test_pareto_degenerate_range(self):
        inst = concave_three()
        for sid in inst.ids():
            got = ca.optimal_phi_set(inst, PI / 2, sid)
            assert not got.is_empty()  # all three are efficient
        inst2 = ca.make_instance("min", [("a", 1.0, 1.0), ("b", 2.0, 2.0)])
        assert ca.optimal_phi_set(inst2, PI / 2, "b").is_empty()
        assert not ca.optimal_phi_set(inst2, PI / 2, "a").is_empty()

    def test_right_angle_band_answers_as_right_angle(self):
        # y lies 1e-13 above x's level: at pi/2 x keeps phi = 0, and an inner
        # angle within TAU_ANGLE of pi/2 must answer the same.
        inst = ca.make_instance("min", [("x", 2.0, 1.0), ("y", 1.0, 1.0 + 1e-13)])
        want = ca.optimal_phi_set(inst, PI / 2, "x")
        assert want.interval == (0.0, 0.0)
        for gamma in (PI / 2 + 5e-13, PI / 2 + 9e-13):
            assert ca.optimal_phi_set(inst, gamma, "x") == want
            assert ca.gamma_supported_set(inst, gamma) == ca.gamma_supported_set(inst, PI / 2)

    def test_always_optimal_instance_full_range(self):
        inst = every_rotation_trap(2.0, 3 * PI / 4)
        assert ca.optimal_phi_set(inst, 3 * PI / 4, "x1").is_full()

    def test_maximization_middle_empty(self):
        inst = maximization_trap(2.0, 3 * PI / 4)
        assert ca.optimal_phi_set(inst, 3 * PI / 4, "x3").is_empty()

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            ca.optimal_phi_set(concave_three(), PI, "zz")

    @given(min_instances(min_size=2, max_size=8), st.integers(0, 10))
    def test_agrees_with_cone_efficiency_on_grid(self, inst, k):
        gamma = PI / 2 + (PI / 2) * k / 10
        lo, hi = ca.admissible_range(gamma)
        if hi <= lo:
            return
        if k == 10:
            inset = 1e-6 * (hi - lo)
            lo, hi = lo + inset, hi - inset
        sets = {sid: ca.optimal_phi_set(inst, gamma, sid) for sid in inst.ids()}
        for phi in np.linspace(lo, hi, 23):
            phi = float(phi)
            eff = ca.cone_efficient_set(inst, ca.ConeParams(gamma, phi))
            for sid, good in sets.items():
                near_edge = any(
                    abs(phi - e) < 1e-7 for e in good.interval or ()
                )
                if near_edge:
                    continue
                assert good.contains(phi) == (sid in eff)


class TestGammaSupported:
    def test_pareto_equals_efficient(self):
        for seed in range(20):
            inst = random_min_instance(seed, 25)
            assert ca.gamma_supported_set(inst, PI / 2) == ca.efficient_set(inst)

    def test_halfplane_equals_supported(self):
        inst = concave_three()
        assert ca.gamma_supported_set(inst, PI) == ca.supported_set(inst) == {"x1", "x2"}

    def test_concave_interior_unsupported_but_efficient(self):
        inst = concave_three()
        assert ca.efficient_set(inst) == {"x1", "x2", "x3"}
        assert ca.optimal_phi_set(inst, PI, "x3").is_empty()

    def test_collinear_front_all_supported(self):
        inst = ca.make_instance(
            "min", [("a", 1.0, 3.0), ("b", 2.0, 2.0), ("c", 3.0, 1.0), ("d", 1.5, 2.5)]
        )
        assert ca.supported_set(inst) == {"a", "b", "c", "d"}

    def test_single_solution(self):
        inst = ca.make_instance("min", [("only", 1.0, 1.0)])
        assert ca.supported_set(inst) == {"only"}

    def test_always_optimal_instance(self):
        inst = every_rotation_trap(1.5, 3 * PI / 4)
        assert not ca.optimal_phi_set(inst, 3 * PI / 4, "x1").is_empty()

    def test_maximization_instance_not_supported(self):
        inst = maximization_trap(2.0, 3 * PI / 4)
        assert ca.optimal_phi_set(inst, 3 * PI / 4, "x3").is_empty()

    @given(min_instances(min_size=1, max_size=10))
    def test_supported_subset_of_efficient(self, inst):
        eff = ca.efficient_set(inst)
        for gamma in (PI / 2, 2 * PI / 3, PI):
            assert ca.gamma_supported_set(inst, gamma) <= eff

    def test_nesting_random(self):
        grid = np.linspace(PI / 2, PI, 10)
        for seed in range(30):
            inst = random_min_instance(seed, 15)
            sets = [ca.gamma_supported_set(inst, float(g)) for g in grid]
            for small, large in zip(sets, sets[1:]):
                assert large <= small


class TestGridOracle:
    def test_needs_two_steps(self):
        with pytest.raises(InvalidParams):
            grid_oracle_gamma_supported(concave_three(), PI, 1)

    def test_pareto_any_steps(self):
        inst = concave_three()
        assert grid_oracle_gamma_supported(inst, PI / 2, 2) == ca.efficient_set(inst)
        assert grid_oracle_gamma_supported(inst, PI / 2, 50) == ca.efficient_set(inst)

    def test_always_optimal_contains_x1(self):
        inst = every_rotation_trap(2.0, 3 * PI / 4)
        assert "x1" in grid_oracle_gamma_supported(inst, 3 * PI / 4, 100)

    def test_sandwich(self):
        for seed in range(15):
            inst = random_min_instance(seed, 20)
            for gamma in (2 * PI / 3, PI):
                exact = ca.gamma_supported_set(inst, gamma)
                for steps in (10, 100, 1000):
                    oracle = grid_oracle_gamma_supported(inst, gamma, steps)
                    assert oracle <= exact

    def test_equality_at_fine_pitch(self):
        for seed in range(10):
            inst = random_min_instance(seed, 20)
            gamma = 3 * PI / 4
            steps = 10_000
            lo, hi = ca.admissible_range(gamma)
            pitch = (hi - lo) / (steps - 1)
            exact = ca.gamma_supported_set(inst, gamma)
            min_len = min(
                ca.optimal_phi_set(inst, gamma, sid).total_length() for sid in exact
            )
            oracle = grid_oracle_gamma_supported(inst, gamma, steps)
            assert oracle <= exact
            if min_len > 1.05 * pitch:
                assert oracle == exact
