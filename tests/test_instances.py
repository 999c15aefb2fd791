import json
import math

import numpy as np
import pytest
from hypothesis import given

import coneapprox as ca
from coneapprox.errors import InstanceFormatError, UnknownId

from conftest import brute_efficient, cone_params, dominates, min_instances, random_min_instance, transformed_instance

PI = math.pi


def example1_instance():
    return ca.make_instance("min", [("x1", 1.0, 1.0), ("x2", 2.0, 1.0 / 3.0)])


class TestValidate:
    def test_valid(self):
        assert ca.validate(ca.make_instance("min", [("x1", 1.0, 1.0)])) == []

    def test_nonpositive_objective(self):
        got = ca.validate(ca.make_instance("min", [("x1", 0.0, 1.0)]))
        assert [(v.kind, v.solution_id) for v in got] == [("nonpositive-objective", "x1")]
        assert "component 1" in got[0].detail

    def test_duplicate_id(self):
        inst = ca.make_instance("min", [("x1", 1.0, 1.0), ("x1", 2.0, 2.0)])
        assert any(v.kind == "duplicate-id" and v.solution_id == "x1" for v in ca.validate(inst))

    def test_empty_instance_and_sense(self):
        assert any(v.kind == "empty-instance" for v in ca.validate(ca.Instance("min", ())))
        assert any(v.kind == "bad-sense" for v in ca.validate(ca.make_instance("mid", [("a", 1, 1)])))

    def test_nonfinite(self):
        inst = ca.make_instance("min", [("x1", math.inf, 1.0)])
        assert any(v.kind == "nonfinite-objective" for v in ca.validate(inst))


class TestDominates:
    def test_basic(self):
        inst = ca.make_instance("min", [("a", 1.0, 1.0), ("b", 2.0, 2.0)])
        assert dominates(inst, "a", "b")
        assert not dominates(inst, "b", "a")

    def test_incomparable(self):
        inst = ca.make_instance("min", [("a", 1.0, 2.0), ("b", 2.0, 1.0)])
        assert not dominates(inst, "a", "b")
        assert not dominates(inst, "b", "a")

    def test_equal_images_never_dominate(self):
        inst = ca.make_instance("min", [("a", 1.0, 1.0), ("b", 1.0, 1.0)])
        assert not dominates(inst, "a", "b")
        assert not dominates(inst, "b", "a")

    def test_max_sense_mirrors(self):
        inst = ca.make_instance("max", [("a", 1.0, 1.0), ("b", 2.0, 2.0)])
        assert dominates(inst, "b", "a")
        assert not dominates(inst, "a", "b")

    def test_unknown_id(self):
        inst = ca.make_instance("min", [("a", 1.0, 1.0)])
        with pytest.raises(UnknownId):
            dominates(inst, "a", "zz")


class TestEfficientSet:
    def test_simple(self):
        inst = ca.make_instance("min", [("x1", 1, 2), ("x2", 2, 1), ("x3", 2, 2)])
        assert ca.efficient_set(inst) == {"x1", "x2"}

    def test_example1_both_efficient(self):
        assert ca.efficient_set(example1_instance()) == {"x1", "x2"}

    def test_duplicate_images_both_efficient(self):
        inst = ca.make_instance("min", [("x1", 1, 1), ("x2", 1, 1)])
        assert ca.efficient_set(inst) == {"x1", "x2"}

    def test_max_sense(self):
        inst = ca.make_instance("max", [("a", 1, 3), ("b", 3, 1), ("c", 0.5, 0.5)])
        assert ca.efficient_set(inst) == {"a", "b"}

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_empty_instance(self, sense):
        inst = ca.make_instance(sense, [])
        assert inst.objective_array().shape == (0, 2)
        assert ca.efficient_set(inst) == set()
        assert ca.cone_efficient_set(inst, ca.ConeParams(0.75 * PI, 0.1)) == set()
        assert ca.gamma_supported_set(inst, 0.75 * PI) == set()
        if sense == "min":
            assert ca.build_cover_set(inst, 0.75 * PI) == set()

    @given(min_instances(max_size=12))
    def test_matches_brute_force(self, inst):
        assert ca.efficient_set(inst) == brute_efficient(inst)

    def test_matches_brute_force_seeded(self):
        for seed in range(30):
            inst = random_min_instance(seed, n=int(np.random.default_rng(seed).integers(2, 200)))
            assert ca.efficient_set(inst) == brute_efficient(inst)

    @given(min_instances(max_size=10))
    def test_external_stability(self, inst):
        eff = ca.efficient_set(inst)
        for s in inst.ids():
            if s in eff:
                continue
            assert any(dominates(inst, e, s) for e in eff)


class TestTransformInstance:
    def test_pareto_unchanged(self):
        inst = example1_instance()
        out = transformed_instance(inst, ca.ConeParams.pareto())
        assert out == inst

    def test_hand_values(self):
        out = transformed_instance(example1_instance(), ca.ConeParams(3 * PI / 4, PI / 4))
        objs = dict((s.id, s.objectives) for s in out.solutions)
        assert objs["x1"] == pytest.approx((1.0, math.sqrt(2)), abs=1e-12)
        assert objs["x2"] == pytest.approx((2.0, 7 * math.sqrt(2) / 6), abs=1e-12)

    def test_halfplane_collapses(self):
        inst = ca.make_instance("min", [("a", 1.0, 1.0)])
        out = transformed_instance(inst, ca.ConeParams(PI, PI / 4))
        assert out.solutions[0].objectives == pytest.approx((math.sqrt(2), math.sqrt(2)), abs=1e-12)

    @given(min_instances(), cone_params())
    def test_positivity_preserved(self, inst, params):
        assert ca.validate(transformed_instance(inst, params)) == []


class TestConeEfficientSet:
    def test_example1(self):
        got = ca.cone_efficient_set(example1_instance(), ca.ConeParams(3 * PI / 4, PI / 4))
        assert got == {"x1"}

    def test_pareto_equals_efficient(self):
        for seed in range(10):
            inst = random_min_instance(seed, 40)
            assert ca.cone_efficient_set(inst, ca.ConeParams.pareto()) == ca.efficient_set(inst)

    @given(min_instances(), cone_params())
    def test_equals_efficient_of_transformed(self, inst, params):
        got = ca.cone_efficient_set(inst, params)
        assert got == ca.efficient_set(transformed_instance(inst, params))

    def test_halfplane_tie_keeps_all(self):
        inst = ca.make_instance("min", [("a", 1.0, 3.0), ("b", 2.0, 2.0), ("c", 3.0, 1.0)])
        got = ca.cone_efficient_set(inst, ca.ConeParams(PI, PI / 4))
        assert got == {"a", "b", "c"}

    def test_max_sense_direct_comparison(self):
        inst = ca.make_instance("max", [("a", 1.0, 3.0), ("b", 3.0, 1.0), ("c", 2.0, 2.0)])
        p = ca.ConeParams(3 * PI / 4, PI / 8)
        got = ca.cone_efficient_set(inst, p)
        # oracle: pairwise cone comparison of image differences
        want = set()
        for x in inst.ids():
            fx = inst.objectives_of(x)
            dominated = False
            for y in inst.ids():
                if y == x:
                    continue
                fy = inst.objectives_of(y)
                t = ca.transform(p, (fy[0] - fx[0], fy[1] - fx[1]))
                if t[0] >= -ca.TAU_VAL and t[1] >= -ca.TAU_VAL and max(t) > ca.TAU_VAL:
                    dominated = True
                    break
            if not dominated:
                want.add(x)
        assert got == want


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        inst = example1_instance()
        path = tmp_path / "inst.json"
        ca.dump_instance(inst, path)
        assert ca.load_instance(path) == inst

    def test_unknown_fields_rejected(self):
        with pytest.raises(InstanceFormatError):
            ca.instance_from_obj({"sense": "min", "solutions": [], "extra": 1})
        with pytest.raises(InstanceFormatError):
            ca.instance_from_obj({"sense": "min", "solutions": [{"id": "a", "f": [1, 1], "x": 2}]})

    def test_bad_shapes_rejected(self):
        for obj in (
            [],
            {"sense": "mid", "solutions": []},
            {"sense": "min"},
            {"sense": "min", "solutions": [{"id": "a", "f": [1]}]},
            {"sense": "min", "solutions": [{"id": 3, "f": [1, 1]}]},
            {"sense": "min", "solutions": [{"id": "a", "f": [1, True]}]},
        ):
            with pytest.raises(InstanceFormatError):
                ca.instance_from_obj(obj)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InstanceFormatError):
            ca.load_instance(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"sense": "min", "solutions": [{"id": "a", "f": [1%s, 1]}]}' % ("0" * 400),
            "[" * 100000 + "]" * 100000,
            *(
                '{"sense": "min", "solutions": [{"id": "a", "f": [%s, 1.0]}]}' % token
                for token in ("NaN", "Infinity", "-Infinity")
            ),
        ],
        ids=["int-too-large-for-float", "nested-too-deep", "nan-token", "infinity-token", "minus-infinity-token"],
    )
    def test_unreadable_values_rejected(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(InstanceFormatError):
            ca.load_instance(path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_objective_not_written(self, tmp_path, value):
        path = tmp_path / "inst.json"
        with pytest.raises(InstanceFormatError):
            ca.dump_instance(ca.make_instance("min", [("a", value, 1.0)]), path)
        assert not path.exists()

    def test_field_order_irrelevant(self):
        obj = json.loads('{"solutions": [{"f": [1, 2], "id": "a"}], "sense": "min"}')
        inst = ca.instance_from_obj(obj)
        assert inst.solutions[0].objectives == (1.0, 2.0)
