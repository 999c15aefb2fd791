import math
import runpy
import sys
from pathlib import Path

import pytest

import coneapprox as ca
from coneapprox import generators as gen
from coneapprox.errors import InadmissibleCone, InvalidParams, KTooLarge

PI = math.pi


class TestSingleConeTrap:
    def test_reference_values(self):
        inst = gen.single_cone_trap(2.0, 3 * PI / 4, PI / 4)
        objs = {s.id: s.objectives for s in inst.solutions}
        assert objs["x1"] == pytest.approx((1.0, 1.0), abs=1e-12)
        assert objs["x2"] == pytest.approx((2.0, 1.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("gamma", [2 * PI / 3, 3 * PI / 4, PI])
    def test_claims_hold_across_grid(self, alpha, gamma):
        for phi in (gamma / 2 - PI / 4, gamma - PI / 2):
            if not ca.admissible(gamma, phi) or phi <= 0.0:
                with pytest.raises(InvalidParams):
                    gen.single_cone_trap(alpha, gamma, phi)
                continue
            inst = gen.single_cone_trap(alpha, gamma, phi)
            assert ca.validate(inst) == []
            assert ca.cone_efficient_set(inst, ca.ConeParams(gamma, phi)) == {"x1"}
            assert not ca.verify_approx_set(inst, {"x1"}, alpha).is_valid
            assert ca.verify_approx_set(inst, {"x2"}, alpha).is_valid

    def test_rejects_alpha_one(self):
        with pytest.raises(InvalidParams):
            gen.single_cone_trap(1.0, 3 * PI / 4, PI / 4)

    def test_rejects_halfplane_axis_rotation(self):
        with pytest.raises(InvalidParams):
            gen.single_cone_trap(2.0, PI, PI / 2)

    def test_rejects_right_angle(self):
        # Within TAU_ANGLE of pi/2 the second objectives would fall below TAU_VAL.
        for gamma, phi in ((PI / 2, 1e-12), (PI / 2 + 5e-13, 1e-12)):
            with pytest.raises(InvalidParams):
                gen.single_cone_trap(2.0, gamma, phi)


class TestEveryRotationTrap:
    def test_reference_values(self):
        inst = gen.every_rotation_trap(1.0, 3 * PI / 4)
        objs = {s.id: s.objectives for s in inst.solutions}
        assert objs["x1"] == pytest.approx((2.0, 1.0), abs=1e-12)
        assert objs["x2"] == pytest.approx((1.0, 3.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [2 * PI / 3, 3 * PI / 4, 0.9 * PI])
    def test_first_solution_always_optimal_but_no_cover(self, alpha, gamma):
        inst = gen.every_rotation_trap(alpha, gamma)
        assert ca.validate(inst) == []
        assert ca.optimal_phi_set(inst, gamma, "x1").is_full()
        assert not ca.is_alpha_approx_pair(inst, None, "x1", "x2", alpha)

    def test_rejects_halfplane(self):
        with pytest.raises(InvalidParams):
            gen.every_rotation_trap(1.0, PI)


class TestTightnessInstance:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [PI / 2 + 0.1, 3 * PI / 4, PI - 0.01, PI])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2])
    def test_claims_hold_across_grid(self, alpha, gamma, epsilon):
        inst = gen.tightness_instance(alpha, gamma, epsilon)
        assert ca.validate(inst) == []
        assert ca.is_alpha_approx_for_all_rotations(inst, {"x1", "x2"}, gamma, alpha)
        level = alpha * ca.guarantee_factor(gamma) - epsilon
        assert ca.min_alpha(inst, {"x1", "x2"}) > level + ca.TAU_VAL

    def test_right_angle_cone_is_fine(self):
        inst = gen.tightness_instance(2.0, PI / 2, 0.5)
        assert ca.validate(inst) == []
        assert ca.is_alpha_approx_for_all_rotations(inst, {"x1", "x2"}, PI / 2, 2.0)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParams):
            gen.tightness_instance(0.5, PI, 0.1)
        with pytest.raises(InvalidParams):
            gen.tightness_instance(1.0, PI, 0.0)


class TestMaximizationTrap:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("gamma", [2 * PI / 3, 3 * PI / 4, PI])
    def test_claims_hold_across_grid(self, alpha, gamma):
        inst = gen.maximization_trap(alpha, gamma)
        assert inst.sense == "max"
        assert ca.validate(inst) == []
        assert ca.optimal_phi_set(inst, gamma, "x3").is_empty()
        assert "x3" in ca.efficient_set(inst)
        assert not ca.verify_approx_set(inst, {"x1", "x2"}, alpha).is_valid

    def test_rejects_right_angle(self):
        with pytest.raises(InvalidParams):
            gen.maximization_trap(1.0, PI / 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda alpha: gen.single_cone_trap(alpha, 0.75 * PI, 0.1 * PI),
        lambda alpha: gen.every_rotation_trap(alpha, 0.75 * PI),
        lambda alpha: gen.tightness_instance(alpha, 0.75 * PI, 0.1),
        lambda alpha: gen.maximization_trap(alpha, 0.75 * PI),
    ],
    ids=["single_cone_trap", "every_rotation_trap", "tightness_instance", "maximization_trap"],
)
def test_nan_alpha_rejected(build):
    for alpha in (math.nan, math.inf):
        with pytest.raises(InvalidParams):
            build(alpha)


@pytest.mark.parametrize(
    "build",
    [
        lambda gamma: gen.single_cone_trap(2.0, gamma, ca.admissible_range(gamma)[1]),
        lambda gamma: gen.every_rotation_trap(2.0, gamma),
        lambda gamma: gen.maximization_trap(2.0, gamma),
    ],
    ids=["single_cone_trap", "every_rotation_trap", "maximization_trap"],
)
def test_right_angle_band_edge(build):
    # The families read the band as admissible_range does: 0.5 * PI + 1e-12
    # lies just outside it and has two rotations; pi/2 + 5e-13 is the right angle.
    assert len(build(0.5 * PI + 1e-12).solutions) >= 2
    with pytest.raises(InvalidParams):
        build(PI / 2 + 5e-13)


class TestRandomFront:
    def test_convex_all_supported(self):
        for n in (1, 2, 8, 30):
            inst = gen.random_front(n, seed=3, shape="convex")
            assert ca.validate(inst) == []
            ids = set(inst.ids())
            assert ca.efficient_set(inst) == ids
            assert ca.supported_set(inst) == ids

    def test_concave_extremes_only(self):
        inst = gen.random_front(9, seed=4, shape="concave")
        assert ca.validate(inst) == []
        assert ca.efficient_set(inst) == set(inst.ids())
        arr = inst.objective_array()
        lo = inst.solutions[int(arr[:, 0].argmin())].id
        hi = inst.solutions[int(arr[:, 0].argmax())].id
        assert ca.supported_set(inst) == {lo, hi}

    def test_mixed_noise_dominated(self):
        inst = gen.random_front(30, seed=5, shape="mixed")
        assert ca.validate(inst) == []
        eff = ca.efficient_set(inst)
        assert all(not sid.startswith("noise") for sid in eff)

    def test_reproducible(self):
        a = gen.random_front(20, seed=9, shape="mixed")
        b = gen.random_front(20, seed=9, shape="mixed")
        assert a == b
        c = gen.random_front(20, seed=10, shape="mixed")
        assert a != c

    def test_single_point(self):
        inst = gen.random_front(1, seed=0, shape="concave")
        assert ca.efficient_set(inst) == set(inst.ids())

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            gen.random_front(0, seed=1, shape="convex")
        with pytest.raises(InvalidParams):
            gen.random_front(3, seed=1, shape="wavy")
        with pytest.raises(InvalidParams):
            gen.random_front(3, seed=-1, shape="convex")


class TestKnapsackEnumeration:
    def test_sizes(self):
        assert len(gen.knapsack_enumeration(1, 0).solutions) == 2
        assert len(gen.knapsack_enumeration(10, 0).solutions) == 1024

    def test_deterministic(self):
        assert gen.knapsack_enumeration(10, 42) == gen.knapsack_enumeration(10, 42)

    def test_valid_and_additive(self):
        inst = gen.knapsack_enumeration(5, 7)
        assert ca.validate(inst) == []
        objs = {s.id: s.objectives for s in inst.solutions}
        base = objs["s" + "0" * 5]
        # Singleton subsets recover item costs; the full subset sums them.
        items = []
        for i in range(5):
            bits = ["0"] * 5
            bits[i] = "1"
            f = objs["s" + "".join(bits)]
            items.append((f[0] - base[0], f[1] - base[1]))
        full = objs["s" + "1" * 5]
        assert full[0] == pytest.approx(base[0] + sum(c[0] for c in items), abs=1e-9)
        assert full[1] == pytest.approx(base[1] + sum(c[1] for c in items), abs=1e-9)

    @pytest.mark.parametrize("k", [3, 6, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objectives_conflict(self, k, seed):
        inst = gen.knapsack_enumeration(k, seed)
        assert len(ca.efficient_set(inst)) > 1

    def test_empirical_factors_script_exceeds_one(self, monkeypatch, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "empirical_factors.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--n", "8", "--k", "6", "--steps", "3"])
        runpy.run_path(str(script), run_name="__main__")
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split()
        knapsack = [float(line.split()[header.index("knapsack")]) for line in lines[1:]]
        bounds = [float(line.split()[header.index("bound")]) for line in lines[1:]]
        assert max(knapsack) > 1.0
        assert all(f <= b + 1e-9 for f, b in zip(knapsack, bounds))

    def test_limits(self):
        with pytest.raises(KTooLarge):
            gen.knapsack_enumeration(21, 0)
        with pytest.raises(InvalidParams):
            gen.knapsack_enumeration(0, 0)
        with pytest.raises(InvalidParams):
            gen.knapsack_enumeration(3, -5)


class TestFamilyRegistry:
    def test_gamma_families_require_gamma(self):
        with pytest.raises(InvalidParams):
            gen.make_family_instance("tightness", alpha=1.0, epsilon=0.1)

    def test_shape_injection(self):
        inst = gen.make_family_instance("concave", n=5, seed=1)
        assert len(inst.solutions) == 5
        assert inst == gen.random_front(5, 1, "concave")
        assert gen.make_family_instance("convex", n=4) == gen.random_front(4, 0, "convex")
        assert gen.make_family_instance("knapsack", k=3) == gen.knapsack_enumeration(3, 0)

    def test_shape_is_fixed_per_family(self):
        for family in ("convex", "concave", "mixed"):
            with pytest.raises(InvalidParams, match="shape"):
                gen.make_family_instance(family, n=3, shape="concave")
            assert gen.make_family_instance(family, n=7, seed=3) == gen.random_front(7, 3, family)

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            gen.make_family_instance("nope")
        with pytest.raises(InvalidParams):
            gen.takes_inner_angle("nope")

    def test_overflowing_objectives(self):
        with pytest.raises(InvalidParams, match="overflow"):
            gen.make_family_instance("tightness", alpha=1e308, gamma=PI, epsilon=0.1)

    def test_angle_outside_range_checked_first(self):
        with pytest.raises(InadmissibleCone):
            gen.make_family_instance("convex", n=3, gamma=0.3 * PI)

    def test_missing_or_unknown_parameter(self):
        with pytest.raises(InvalidParams, match="epsilon"):
            gen.make_family_instance("tightness", gamma=0.75 * PI, alpha=2.0)
        with pytest.raises(InvalidParams, match="alpha"):
            gen.make_family_instance("convex", n=3, seed=0, alpha=2.0)
        with pytest.raises(InvalidParams, match="gamma"):
            gen.make_family_instance("convex", n=3, gamma=0.75 * PI)
        with pytest.raises(InvalidParams, match="seed"):
            gen.make_family_instance("single-cone", alpha=2.0, gamma=0.75 * PI, phi=0.1, seed=4)


# The options each family takes, as the README lists them.
DOCUMENTED_OPTIONS = {
    "single-cone": {"alpha": 2.0, "gamma": 0.75 * PI, "phi": 0.1},
    "always-optimal": {"alpha": 2.0, "gamma": 0.75 * PI},
    "tightness": {"alpha": 1.0, "gamma": 0.75 * PI, "epsilon": 0.1},
    "maximization": {"alpha": 2.0, "gamma": 0.75 * PI},
    "convex": {"n": 5, "seed": 1},
    "concave": {"n": 5},
    "mixed": {"n": 6, "seed": 2},
    "knapsack": {"k": 3},
}


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_every_family_builds_from_documented_options(family):
    params = DOCUMENTED_OPTIONS[family]
    inst = gen.make_family_instance(family, **params)
    assert ca.validate(inst) == []
    assert gen.takes_inner_angle(family) == ("gamma" in params)
    assert (inst.sense == "max") == (family in gen.MAXIMIZATION_FAMILIES)


def test_inner_angle_families():
    angle_families = {f for f in gen.FAMILIES if gen.takes_inner_angle(f)}
    assert angle_families == {"single-cone", "always-optimal", "tightness", "maximization"}
