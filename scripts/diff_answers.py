#!/usr/bin/env python3
"""Diff the package's answers in this checkout against those of a git revision.

Extracts REV's src/ with git archive into a temporary directory, runs
scripts/same_answers.py (this checkout's copy, so both sides answer the
same corpus) once against each src tree, and prints the differing lines as
a unified diff without context, REV first.  Exits 1 if any line differs,
0 otherwise, e.g.

    python3 scripts/diff_answers.py           # working tree against HEAD
    python3 scripts/diff_answers.py HEAD~1
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAME_ANSWERS = ROOT / "scripts" / "same_answers.py"


def answers(src: Path) -> list[str]:
    """The lines same_answers.py prints with the package imported from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, str(SAME_ANSWERS)], env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def revision_answers(rev: str) -> list[str]:
    """The answers of the package as committed at `rev`."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        return answers(Path(tmp) / "src")


def differing_lines(old: list[str], new: list[str], old_name: str, new_name: str) -> list[str]:
    """A unified diff without context lines; empty when the answers agree."""
    return list(difflib.unified_diff(old, new, old_name, new_name, n=0, lineterm=""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args()
    old, new = revision_answers(args.rev), answers(ROOT / "src")
    diff = differing_lines(old, new, args.rev, "working tree")
    if diff:
        print("\n".join(diff), flush=True)
    body = diff[2:]
    removed, added = (sum(line.startswith(sign) for line in body) for sign in "-+")
    print(f"{args.rev}: {len(old)} lines, {removed} changed; working tree: {len(new)} lines, {added} changed", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
