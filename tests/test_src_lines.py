import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

SAMPLE = '''"""Module docstring,
two lines."""

import math  # a trailing comment does not hide the code


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return math.sqrt(x) + len(s)


class C:
    """Class docstring."""

    y = 1
'''


def run_script(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *map(str, args)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    return [line.split() for line in capsys.readouterr().out.strip().splitlines()]


def test_counts_code_lines_only(tmp_path, monkeypatch, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    rows = run_script(monkeypatch, capsys, tmp_path)
    # import, def, s = ... (two lines), return, class, y = 1
    assert rows == [["empty.py", "0"], ["sample.py", "7"], ["total", "7"]]


def test_package_total_is_sum_of_modules(monkeypatch, capsys):
    rows = run_script(monkeypatch, capsys)
    modules = {name: int(count) for name, count in rows[:-1]}
    assert "__init__.py" in modules and "cli.py" in modules
    assert rows[-1] == ["total", str(sum(modules.values()))]
