import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "diff_answers.py"


def load():
    return runpy.run_path(str(SCRIPT))


def test_differing_lines_is_empty_only_for_equal_answers():
    differing_lines = load()["differing_lines"]
    old = ["a efficient_set {x}", "a min_alpha 0x1.0p+0", "b efficient_set {y}"]
    assert differing_lines(old, list(old), "HEAD", "working tree") == []
    new = [old[0], "a min_alpha 0x1.8p+0", old[2]]
    assert differing_lines(old, new, "HEAD", "working tree") == [
        "--- HEAD",
        "+++ working tree",
        "@@ -2 +2 @@",
        "-a min_alpha 0x1.0p+0",
        "+a min_alpha 0x1.8p+0",
    ]


def test_answers_run_same_answers_on_the_given_tree():
    script = load()
    lines = script["answers"](ROOT / "src")
    same = runpy.run_path(str(ROOT / "scripts" / "same_answers.py"))
    name, inst = same["corpus"]()[0]
    first = same["answers"](name, inst)
    assert lines[: len(first)] == first
    assert lines[-1].startswith("numeric ")
