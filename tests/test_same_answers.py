import math
import runpy
from pathlib import Path

import coneapprox as ca

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_answers.py"


def load():
    return runpy.run_path(str(SCRIPT))


def test_answers_are_deterministic_hex_lines():
    script = load()
    inst = ca.make_instance("min", [("a", 1.0, 3.0), ("b", 3.0, 1.0), ("c", 2.9, 2.9)])
    lines = script["answers"]("tiny", inst)
    assert lines == script["answers"]("tiny", inst)
    by_function = dict(line.split(" ", 2)[1:] for line in lines)
    assert by_function["efficient_set"] == "{a,b,c}"
    # One line per function and inner angle, after the efficient set.
    assert len(lines) == 1 + 8 * len(script["GAMMAS"])
    assert (1.0).hex() in by_function["min_alpha@pi"]
    assert by_function["is_alpha_approx_pair@0.75pi"].strip("01,") == ""
    # gamma = pi/2 has no build_cover_set; the error prints by type name.
    assert by_function["build_cover_set@0.5pi"] == "('!InadmissibleCone','!InadmissibleCone')"


def test_fmt_prints_floats_in_hex():
    fmt = load()["fmt"]
    assert fmt(0.1) == "0x1.999999999999ap-4"
    assert fmt((True, math.pi / 4, {"b", "a"})) == "(True,0x1.921fb54442d18p-1,{a,b})"


def test_corpus_names_are_unique_and_cover_both_senses():
    corpus = load()["corpus"]()
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names))
    assert {inst.sense for _, inst in corpus} == {"min", "max"}


def test_numeric_section_names_every_function_and_angle():
    script = load()
    lines = script["numeric"]()
    assert lines == script["numeric"]()
    gammas, ratios = script["NUMERIC_GAMMAS"], script["NUMERIC_RATIOS"]
    assert len(lines) == len(gammas) * (2 * len(ratios) + 2)
    keys = {line.split(" ", 2)[1] for line in lines}
    assert len(keys) == len(lines)
    by_key = dict(line.split(" ", 2)[1:] for line in lines)
    # At gamma = pi the matched rotation is arctan(1/q), printed in hex.
    assert by_key["rotation_for_ratio@pi,0.5"] == math.atan(2.0).hex()
    # A matched rotation within TAU_ANGLE of a range end prints its error.
    assert by_key["balanced_weights@0.5pi+1e-9,1000.0"] == "!DegeneratePhi"
    assert by_key["BoundTable.csv_row@pi"] == ca.BoundTable.at(math.pi).csv_row()
