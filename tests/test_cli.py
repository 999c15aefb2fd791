import json
import math
import re
import runpy
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

import coneapprox as ca
from coneapprox.cli import SWEEP_HEADER, main, parse_angle, parse_generator_spec, read_sweep_csv, write_sweep_csv
from coneapprox.errors import InadmissibleCone, InvalidParams
from coneapprox.svg import svg_to_data

PI = math.pi


# The factor of c over t overflows to inf.
SUBNORMAL_INSTANCE = '{"sense": "min", "solutions": [{"id": "t", "f": [1e-310, 1]}, {"id": "c", "f": [1, 1e-310]}]}'
# Python's own JSON writer emits Infinity by default; the JSON grammar has no such number.
NONJSON_INSTANCE = '{"sense": "min", "solutions": [{"id": "a", "f": [Infinity, 1.0]}]}'


def run(argv):
    return main(argv)


@pytest.fixture
def example1_file(tmp_path):
    inst = ca.make_instance("min", [("x1", 1.0, 1.0), ("x2", 2.0, 1.0 / 3.0)])
    path = tmp_path / "ex1.json"
    ca.dump_instance(inst, path)
    return str(path)


class TestParseAngle:
    def test_radians(self):
        assert parse_angle("2.5") == 2.5

    def test_pi_fractions(self):
        assert parse_angle("0.75pi") == pytest.approx(0.75 * PI)
        assert parse_angle("pi") == pytest.approx(PI)
        assert parse_angle("0.5PI") == pytest.approx(PI / 2)


class TestValidateCommand:
    def test_valid_file(self, example1_file):
        assert run(["validate", example1_file]) == 0

    def test_violations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sense": "min", "solutions": [{"id": "a", "f": [1, -2]}]}')
        assert run(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "a" in err and "component 2" in err

    def test_each_violation_on_its_own_line(self, tmp_path, capsys):
        path = tmp_path / "bad2.json"
        path.write_text('{"sense": "min", "solutions": [{"id": "a", "f": [1, -2]}, {"id": "a", "f": [0, 2]}]}')
        assert run(["validate", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert "component 2" in lines[0] and "duplicate-id" in lines[1] and "component 1" in lines[2]

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{")
        assert run(["validate", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert run(["validate", str(tmp_path / "missing.json")]) == 2


class TestSetsCommand:
    def test_efficient(self, example1_file, capsys):
        assert run(["sets", example1_file, "--mode", "efficient"]) == 0
        assert json.loads(capsys.readouterr().out) == ["x1", "x2"]

    def test_gamma_supported_equals_efficient_at_right_angle(self, example1_file, capsys):
        assert run(["sets", example1_file, "--mode", "gamma-supported", "--gamma", "0.5pi"]) == 0
        assert json.loads(capsys.readouterr().out) == ["x1", "x2"]

    def test_gamma_supported_at_halfplane_equals_supported(self, tmp_path, capsys):
        inst = ca.make_instance("min", [("a", 1, 3), ("b", 3, 1), ("c", 2.9, 2.9)])
        path = tmp_path / "conc.json"
        ca.dump_instance(inst, path)
        assert run(["sets", str(path), "--mode", "gamma-supported", "--gamma", "pi"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["sets", str(path), "--mode", "supported"]) == 0
        assert first == json.loads(capsys.readouterr().out) == ["a", "b"]

    def test_invalid_gamma_exit_one(self, example1_file):
        assert run(["sets", example1_file, "--mode", "gamma-supported", "--gamma", "0.25pi"]) == 1
        assert run(["sets", example1_file, "--mode", "gamma-supported"]) == 1
        assert run(["sets", example1_file, "--mode", "gamma-supported", "--gamma", "huh"]) == 1


class TestVerifyCommand:
    def test_valid_claim(self, example1_file, capsys):
        assert run(["verify", example1_file, "--set", "x2", "--alpha", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_valid"] and report["witnesses"] == []

    def test_violated_claim(self, example1_file, capsys):
        assert run(["verify", example1_file, "--set", "x1", "--alpha", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["witnesses"] == [{"uncovered": "x2", "best_candidate": "x1"}]

    def test_whole_set_alpha_one(self, example1_file):
        assert run(["verify", example1_file, "--set", "x1,x2", "--alpha", "1"]) == 0

    def test_cone_order_claim(self, example1_file):
        rc = run(
            ["verify", example1_file, "--set", "x1", "--alpha", "1",
             "--gamma", "0.75pi", "--phi", "0.25pi"]
        )
        assert rc == 0  # x1 is the cone-order optimum and covers x2 in that order

    def test_unknown_ids_exit_two(self, example1_file):
        assert run(["verify", example1_file, "--set", "zz", "--alpha", "2"]) == 2

    def test_unknown_id_message(self, example1_file, capsys):
        assert run(["verify", example1_file, "--set", "x1,zz", "--alpha", "2"]) == 2
        assert "unknown solution id 'zz'" in capsys.readouterr().err

    def test_inadmissible_cone_exit_one(self, example1_file, capsys):
        rc = run(["verify", example1_file, "--set", "x1", "--alpha", "2", "--gamma", "0.25pi", "--phi", "0"])
        assert rc == 1
        assert "not admissible" in capsys.readouterr().err
        assert run(["verify", example1_file, "--set", "x1", "--alpha", "2", "--gamma", "huh", "--phi", "0"]) == 1

    def test_gamma_without_phi_exit_two(self, example1_file):
        assert run(["verify", example1_file, "--set", "x1", "--alpha", "2", "--gamma", "pi"]) == 2

    @pytest.mark.filterwarnings("error")
    def test_overflowing_factor_prints_valid_json(self, tmp_path, capsys):
        path = tmp_path / "subnormal.json"
        path.write_text(SUBNORMAL_INSTANCE)
        assert run(["verify", str(path), "--set", "c", "--alpha", "2"]) == 1
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
        assert report["min_alpha"] is None
        assert report["witnesses"] == [{"uncovered": "t", "best_candidate": "c"}]


class TestGenerateCommand:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "t.json"
        rc = run(
            ["generate", "tightness", "--alpha", "2", "--gamma", "0.75pi",
             "--epsilon", "0.1", "-o", str(out)]
        )
        assert rc == 0
        inst = ca.load_instance(out)
        assert ca.validate(inst) == []
        assert len(inst.solutions) == 3

    def test_stdout_when_no_out(self, capsys):
        assert run(["generate", "convex", "--n", "4", "--seed", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["solutions"]) == 4

    def test_bad_params_exit_two(self, tmp_path):
        assert run(["generate", "tightness", "--alpha", "2", "--epsilon", "0.1"]) == 2

    def test_seed_defaults_to_zero(self, capsys):
        for family, size in (("mixed", "--n"), ("knapsack", "--k")):
            assert run(["generate", family, size, "4"]) == 0
            default = capsys.readouterr().out
            assert run(["generate", family, size, "4", "--seed", "0"]) == 0
            assert capsys.readouterr().out == default


class TestSweepAndPlot:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        svg_path = tmp_path / "s.svg"
        rc = run(
            ["sweep", "--gamma-from", "0.5pi", "--gamma-to", "pi", "--steps", "7",
             "--generator", "tightness:alpha=1,epsilon=0.1", str(csv_path)]
        )
        assert rc == 0
        rows = read_sweep_csv(str(csv_path))
        assert len(rows) == 7
        assert csv_path.read_text().splitlines()[0] == "gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb"
        for r in rows:
            assert r["empirical_alpha"] <= r["theory_bound"] + ca.TAU_VAL
            assert r["theory_bound"] <= r["rule_of_thumb"] + 1e-12
        assert run(["plot", str(csv_path), str(svg_path)]) == 0
        text = svg_path.read_text()
        assert text.startswith("<svg")
        pts = re.search(r'class="theory"[^>]*points="([^"]+)"', text).group(1).split()
        first = tuple(float(v) for v in pts[0].split(","))
        last = tuple(float(v) for v in pts[-1].split(","))
        g0, f0 = svg_to_data(*first)
        g1, f1 = svg_to_data(*last)
        assert g0 == pytest.approx(PI / 2, abs=0.01)
        assert f0 == pytest.approx(1.0, abs=0.01)
        assert g1 == pytest.approx(PI, abs=0.01)
        assert f1 == pytest.approx(2.0, abs=0.01)

    def test_single_step_sweep(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        rc = run(
            ["sweep", "--gamma-from", "0.75pi", "--gamma-to", "0.75pi", "--steps", "1",
             "--generator", "convex:n=6,seed=2", str(csv_path)]
        )
        assert rc == 0
        rows = read_sweep_csv(str(csv_path))
        assert len(rows) == 1
        assert rows[0]["empirical_alpha"] == pytest.approx(1.0, abs=1e-9)

    def test_bad_range_exit_one(self, tmp_path):
        rc = run(
            ["sweep", "--gamma-from", "pi", "--gamma-to", "0.5pi", "--steps", "2",
             "--generator", "convex:n=3,seed=0", str(tmp_path / "x.csv")]
        )
        assert rc == 1

    def test_unwritable_path_exit_two(self, tmp_path):
        rc = run(
            ["sweep", "--steps", "2", "--generator", "convex:n=3,seed=0",
             str(tmp_path / "no" / "dir" / "x.csv")]
        )
        assert rc == 2

    def test_maximization_family_rejected(self, tmp_path):
        rc = run(
            ["sweep", "--steps", "2", "--generator", "maximization:alpha=2",
             str(tmp_path / "m.csv")]
        )
        assert rc == 2

    def test_maximization_family_message(self, tmp_path, capsys):
        rc = run(["sweep", "--generator", "maximization:alpha=2", str(tmp_path / "m.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep requires a minimization family" in err
        assert "inner angle" not in err

    def test_plot_bounds_only_rows(self, tmp_path):
        # Rows without empirical values still draw both factor curves.
        csv_path = tmp_path / "bounds_only.csv"
        lines = ["gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb"]
        for g in (PI / 2, 3 * PI / 4, PI):
            lines.append(f"{g!r},bounds,,{ca.guarantee_factor(g)!r},{ca.rule_of_thumb(g)!r}")
        csv_path.write_text("\n".join(lines) + "\n")
        svg_path = tmp_path / "bounds_only.svg"
        assert run(["plot", str(csv_path), str(svg_path)]) == 0
        text = svg_path.read_text()
        assert 'class="theory"' in text and 'class="rule"' in text
        assert 'class="empirical"' not in text

    def test_plot_axes_only_for_empty_rows(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb\n")
        svg_path = tmp_path / "empty.svg"
        assert run(["plot", str(csv_path), str(svg_path)]) == 0
        text = svg_path.read_text()
        assert "axis" in text and "theory" not in text

    def test_plot_malformed_csv_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,header\n1,2\n")
        assert run(["plot", str(bad), str(tmp_path / "o.svg")]) == 2
        bad2 = tmp_path / "bad2.csv"
        bad2.write_text("gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb\nx,y,z,w,v\n")
        assert run(["plot", str(bad2), str(tmp_path / "o2.svg")]) == 2

    # The last row is also outside the domain; the finiteness check comes first.
    @pytest.mark.parametrize(
        "row",
        ["nan,x,inf,2.0,2.0", "1.8,x,,inf,2.0", "1.8,x,,2.0,-inf", "1.8,x,nan,2.0,2.0", "100.0,x,nan,0.5,2.0,EXTRA"],
    )
    def test_plot_rejects_nonfinite(self, row, tmp_path, capsys):
        csv_path = tmp_path / "nonfinite.csv"
        csv_path.write_text(f"{SWEEP_HEADER}\n{row}\n")
        svg_path = tmp_path / "o.svg"
        assert run(["plot", str(csv_path), str(svg_path)]) == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize(
        "row,problem",
        [
            ("100.0,x,0.5,-3.0,2.0", "outside [pi/2, pi]"),
            ("1.0,x,,1.2,1.2", "outside [pi/2, pi]"),
            ("1.8,x,0.5,2.0,2.0", "empirical_alpha 0.5 is below 1"),
            ("1.8,x,,0.99,2.0", "theory_bound 0.99 is below 1"),
            ("1.8,x,,2.0,-3.0", "rule_of_thumb -3.0 is below 1"),
            ("2.0,x,1.5,1.6,1.3,EXTRA", "fields beyond the header"),
        ],
    )
    def test_plot_rejects_outside_domain(self, row, problem, tmp_path, capsys):
        csv_path = tmp_path / "outside.csv"
        csv_path.write_text(f"{SWEEP_HEADER}\n{row}\n")
        svg_path = tmp_path / "o.svg"
        assert run(["plot", str(csv_path), str(svg_path)]) == 2
        assert problem in capsys.readouterr().err
        assert not svg_path.exists()

    def test_plot_accepts_empirical_above_two(self, tmp_path):
        # A factor above the guarantee is a result to plot, not a malformed row.
        csv_path = tmp_path / "high.csv"
        csv_path.write_text(f"{SWEEP_HEADER}\n{PI!r},x,3.5,2.0,2.0\n")
        assert run(["plot", str(csv_path), str(tmp_path / "o.svg")]) == 0

    def test_written_rows_read_back(self, tmp_path):
        rows = [
            {"gamma": 0.75 * PI, "instance_id": "a,b", "empirical_alpha": 1.25,
             "theory_bound": ca.guarantee_factor(0.75 * PI), "rule_of_thumb": 1.5},
            {"gamma": PI, "instance_id": "c", "empirical_alpha": 1.0, "theory_bound": 2.0, "rule_of_thumb": 2.0},
        ]
        write_sweep_csv(str(tmp_path / "w.csv"), rows)
        assert read_sweep_csv(str(tmp_path / "w.csv")) == rows

    def test_plot_deterministic(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        run(["sweep", "--steps", "3", "--generator", "tightness:alpha=1,epsilon=0.2", str(csv_path)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["plot", str(csv_path), str(a)])
        run(["plot", str(csv_path), str(b)])
        assert a.read_text() == b.read_text()


class TestBoundsCommand:
    def test_stdout_table(self, capsys):
        assert run(["bounds", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("gamma,factor,")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == 1.0
        last = lines[3].split(",")
        assert float(last[1]) == 2.0


class TestGeneratorSpec:
    def test_parse(self):
        family, kwargs = parse_generator_spec("tightness:alpha=2,epsilon=0.1")
        assert family == "tightness"
        assert kwargs == {"alpha": 2.0, "epsilon": 0.1}
        family, kwargs = parse_generator_spec("convex:n=30,seed=7")
        assert kwargs == {"n": 30, "seed": 7}

    def test_bare_family(self):
        assert parse_generator_spec("maximization") == ("maximization", {})

    def test_bad_option(self):
        with pytest.raises(ValueError):
            parse_generator_spec("convex:n")

    def test_bad_value_is_invalid_params(self):
        with pytest.raises(InvalidParams):
            parse_generator_spec("convex:n=three")

    def test_angles_read_like_generate(self):
        family, kwargs = parse_generator_spec("single-cone:alpha=2,phi=0.1pi,gamma=2.5")
        assert family == "single-cone"
        assert kwargs == {"alpha": 2.0, "phi": 0.1 * PI, "gamma": 2.5}
        with pytest.raises(InadmissibleCone):
            parse_generator_spec("single-cone:alpha=2,phi=huh")


def test_unparsable_angle_is_inadmissible_cone():
    with pytest.raises(InadmissibleCone):
        parse_angle("huh")


# One case per subcommand and exit code: 0 ok, 1 semantic failure (only for
# commands that have one), 2 I/O, parse or usage error.
EXIT_CONTRACT = [
    ("validate {inst}", 0),
    ("validate {bad_inst}", 1),
    ("validate {missing}", 2),
    ("validate {nonjson_inst}", 2),
    ("sets {inst} --mode efficient", 0),
    ("sets {inst} --mode gamma-supported --gamma 0.3pi", 1),
    ("sets {missing} --mode efficient", 2),
    ("sets {inst} --mode efficient --gamma 0.3pi", 2),
    ("sets {inst} --mode supported --gamma huh", 2),
    ("verify {inst} --set x2 --alpha 2", 0),
    ("verify {inst} --set x1 --alpha 0.5", 1),
    ("verify {inst} --set zz --alpha 2", 2),
    ("verify {subnormal_inst} --set c --alpha 2", 1),
    ("generate convex --n 3 -o {out_json}", 0),
    ("generate tightness --alpha 2 --gamma huh --epsilon 0.1", 1),
    ("generate tightness --alpha 2 --gamma 0.3pi --epsilon 0.1", 1),
    ("generate tightness --alpha 2 --gamma 0.75pi", 2),
    ("generate convex --n 2 --gamma 0.75pi", 2),
    ("generate convex --n 2 --gamma 0.3pi", 1),
    ("generate single-cone --alpha 2 --gamma 0.75pi --phi 0.1 --seed 4", 2),
    ("generate convex --n 3 --seed -1", 2),
    ("generate knapsack --k 3 --seed -5", 2),
    ("generate tightness --alpha 1e308 --gamma pi --epsilon 0.1", 2),
    ("sweep --steps 2 --generator convex:n=3,seed=0 {out_csv}", 0),
    ("sweep --gamma-from 0.75pi --gamma-to pi --steps 0 --generator convex:n=3,seed=0 {out_csv}", 1),
    ("sweep --steps 2 --generator nope {out_csv}", 2),
    ("sweep --steps 2 --generator convex:n=3 {out_csv}", 0),
    ("sweep --steps 2 --generator tightness:alpha=1,epsilon=0.1,gamma=2 {out_csv}", 2),
    ("sweep --gamma-from 0.75pi --steps 2 --generator single-cone:alpha=2,phi=0.1pi {out_csv}", 0),
    ("sweep --gamma-from 0.75pi --steps 2 --generator single-cone:alpha=2,phi=huh {out_csv}", 1),
    ("sweep --generator convex:n=3,seed=-1 {out_csv}", 2),
    ("bounds --steps 3", 0),
    ("bounds --gamma-to 1.5pi", 1),
    ("bounds --steps 3 -o {unwritable}", 2),
    ("plot {sweep_csv} {out_svg}", 0),
    ("plot {inst} {out_svg}", 2),
    ("plot {nonfinite_csv} {out_svg}", 2),
    ("plot {wide_gamma_csv} {out_svg}", 2),
    ("plot {low_factor_csv} {out_svg}", 2),
    ("plot {long_row_csv} {out_svg}", 2),
]


def _contract_ids(rows):
    """`<subcommand>-<code>`; a repeated pair gets `-case2`, `-case3`, ..."""
    seen: Counter = Counter()
    ids = []
    for template, code in rows:
        key = f"{template.split()[0]}-{code}"
        seen[key] += 1
        ids.append(key if seen[key] == 1 else f"{key}-case{seen[key]}")
    return ids


@pytest.mark.parametrize("template,code", EXIT_CONTRACT, ids=_contract_ids(EXIT_CONTRACT))
def test_exit_code_contract(template, code, tmp_path, example1_file):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sense": "min", "solutions": [{"id": "a", "f": [1, -2]}]}')
    subnormal = tmp_path / "subnormal.json"
    subnormal.write_text(SUBNORMAL_INSTANCE)
    nonjson = tmp_path / "nonjson.json"
    nonjson.write_text(NONJSON_INSTANCE)
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(f"{SWEEP_HEADER}\n{PI!r},bounds,,2.0,2.0\n")
    nonfinite_csv = tmp_path / "nonfinite.csv"
    nonfinite_csv.write_text(f"{SWEEP_HEADER}\nnan,x,inf,2.0,2.0\n")
    outside = {"wide_gamma_csv": "100.0,x,1.5,2.0,2.0", "low_factor_csv": "2.0,x,1.5,1.6,0.5",
               "long_row_csv": "2.0,x,1.5,1.6,1.3,EXTRA"}
    for name, row in outside.items():
        (tmp_path / f"{name}.csv").write_text(f"{SWEEP_HEADER}\n{row}\n")
    paths = {
        "inst": example1_file,
        "bad_inst": bad,
        "subnormal_inst": subnormal,
        "nonjson_inst": nonjson,
        "missing": tmp_path / "missing.json",
        "out_json": tmp_path / "out.json",
        "out_csv": tmp_path / "out.csv",
        "out_svg": tmp_path / "out.svg",
        "unwritable": tmp_path / "no" / "dir" / "x.csv",
        "sweep_csv": sweep_csv,
        "nonfinite_csv": nonfinite_csv,
        **{name: tmp_path / f"{name}.csv" for name in outside},
    }
    assert run(template.format(**paths).split()) == code


@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_program_errors_propagate(exc, example1_file, monkeypatch):
    def broken(instance):
        raise exc("a bug, not a usage error")

    monkeypatch.setattr("coneapprox.cli.efficient_set", broken)
    with pytest.raises(exc, match="a bug"):
        main(["sets", example1_file, "--mode", "efficient"])


def test_non_utf8_inputs_exit_two(tmp_path, capsys):
    inst = tmp_path / "latin1.json"
    inst.write_bytes('{"sense": "min", "solutions": [{"id": "\xe9", "f": [1, 2]}]}'.encode("latin-1"))
    assert run(["validate", str(inst)]) == 2
    sweep_csv = tmp_path / "latin1.csv"
    sweep_csv.write_bytes(f"{SWEEP_HEADER}\n{PI!r},\xe9,,2.0,2.0\n".encode("latin-1"))
    assert run(["plot", str(sweep_csv), str(tmp_path / "o.svg")]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_bounds_out_of_range_prints_no_rows(capsys):
    assert run(["bounds", "--gamma-from", "0.3pi"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "inner angle" in err


def test_nan_alpha(example1_file, tmp_path, capsys):
    for alpha in ("nan", "inf"):
        assert run(["verify", example1_file, "--set", "x1", "--alpha", alpha]) == 1
        assert capsys.readouterr().out == ""
        out = tmp_path / "t.json"
        rc = run(["generate", "tightness", "--alpha", alpha, "--gamma", "0.75pi", "--epsilon", "0.1", "-o", str(out)])
        assert rc == 2
        assert not out.exists()


def test_guarantee_figure_script(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "guarantee_figure.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--steps", "3", "--outdir", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    rows = read_sweep_csv(str(tmp_path / "guarantee_sweep.csv"))
    assert len(rows) == 3
    assert all(r["empirical_alpha"] <= r["theory_bound"] + ca.TAU_VAL for r in rows)
    svg = ET.parse(tmp_path / "guarantee_sweep.svg").getroot()
    assert svg.tag == "{http://www.w3.org/2000/svg}svg"
    assert "largest gap" in capsys.readouterr().out
