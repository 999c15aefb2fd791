#!/usr/bin/env python3
"""Reproduce the covering-factor figure from the tightness family.

Sweeps the inner angle, generates the tightness instance at each angle,
computes the exact factor achieved by its supported-style set, and renders
the guarantee curve (solid), the 2*gamma/pi rule of thumb (dashed), and the
empirical factors (circles).  The empirical points sit just below the solid
curve: the family is built so the guarantee cannot be improved.
"""

import argparse
import math
from pathlib import Path

from coneapprox.cli import sweep_rows, write_sweep_csv
from coneapprox.svg import render_sweep_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--steps", type=int, default=33)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()

    spec = f"tightness:alpha={args.alpha},epsilon={args.epsilon}"
    rows = sweep_rows(0.5 * math.pi, math.pi, args.steps, spec)

    args.outdir.mkdir(parents=True, exist_ok=True)
    csv_path = args.outdir / "guarantee_sweep.csv"
    write_sweep_csv(str(csv_path), rows)
    svg_path = args.outdir / "guarantee_sweep.svg"
    svg_path.write_text(render_sweep_svg(rows), encoding="utf-8")

    worst_gap = max(r["theory_bound"] - r["empirical_alpha"] for r in rows)
    print(f"wrote {csv_path} and {svg_path}")
    print(f"largest gap between guarantee and empirical factor: {worst_gap:.4f}")


if __name__ == "__main__":
    main()
