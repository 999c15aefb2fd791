"""Command line surface.

Subcommands: validate, sets, verify, generate, sweep, bounds, plot.
Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success / claim holds; 1 semantic failure: an invalid instance, a violated
claim, or an inner angle, rotation or factor outside its range
(InvalidInstance, InadmissibleCone, AlphaBelowOne); 2 any other
ConeApproxError (malformed file, unknown id, bad generator option, usage) or
OSError.  The commands raise; main() alone maps errors to these codes and
prints them, and any other exception is a bug in the program and propagates
with its traceback.

`generate` and `sweep` name no family: they forward the options the user
gave, and the family's builder in `generators.FAMILIES` accepts them or
rejects them (exit 2).

Angles are accepted as radians ("2.35619") or as fractions of pi
("0.75pi"); the internal canonical form is radians.

Instance files are UTF-8 JSON:
    {"sense": "min"|"max", "solutions": [{"id": "x1", "f": [1.0, 2.0]}, ...]}
Unknown fields are rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import generators
from .approximation import min_alpha, verify_approx_set
from .bounds import BoundTable, guarantee_factor, rule_of_thumb
from .errors import (AlphaBelowOne, ConeApproxError, InadmissibleCone, InstanceFormatError, InvalidInstance,
                     InvalidParams, UsageError)
from .geometry import ConeParams, admissible_range
from .instances import Instance, dump_instance, efficient_set, instance_to_obj, load_instance, validate
from .supportedness import gamma_supported_set, supported_set
from .svg import render_sweep_svg
from .tolerances import TAU_VAL

SWEEP_HEADER = "gamma,instance_id,empirical_alpha,theory_bound,rule_of_thumb"

# Errors that exit 1; every other ConeApproxError and every OSError exits 2.
SEMANTIC_ERRORS = (InvalidInstance, InadmissibleCone, AlphaBelowOne)

# Options that `generate` forwards, when given, to the family's builder, and
# the keys of a `sweep --generator` spec, with their types; angles stay text
# until parse_angle reads them.
FAMILY_OPTIONS = {"alpha": float, "gamma": str, "phi": str, "epsilon": float, "n": int, "k": int, "seed": int}


def parse_angle(text: str) -> float:
    """Radians, or a multiple of pi written like '0.75pi'.

    Unparsable text raises InadmissibleCone, like an angle out of range.
    """
    s = text.strip().lower()
    try:
        if s.endswith("pi"):
            head = s[:-2].strip()
            return (float(head) if head else 1.0) * math.pi
        return float(s)
    except ValueError:
        raise InadmissibleCone(f"cannot parse angle {text!r}") from None


def _load_valid(path: str) -> Instance:
    instance = load_instance(path)
    violations = validate(instance)
    if violations:
        raise InvalidInstance(*violations)
    return instance


def cmd_validate(args: argparse.Namespace) -> int:
    _load_valid(args.path)
    return 0


def cmd_sets(args: argparse.Namespace) -> int:
    instance = _load_valid(args.path)
    if args.mode != "gamma-supported" and args.gamma is not None:
        raise UsageError(f"--gamma applies only to --mode gamma-supported, not {args.mode}")
    if args.mode == "efficient":
        ids = efficient_set(instance)
    elif args.mode == "supported":
        ids = supported_set(instance)
    else:
        if args.gamma is None:
            raise InadmissibleCone("gamma-supported mode needs an inner angle (--gamma)")
        ids = gamma_supported_set(instance, parse_angle(args.gamma))
    print(json.dumps(sorted(ids), allow_nan=False))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_valid(args.path)
    if (args.gamma is None) != (args.phi is None):
        raise UsageError("--gamma and --phi must be given together")
    params = None if args.gamma is None else ConeParams(parse_angle(args.gamma), parse_angle(args.phi))
    selection = [s for s in args.set.split(",") if s]
    report = verify_approx_set(instance, selection, args.alpha, params)
    print(json.dumps(report.to_obj(), allow_nan=False))
    return 0 if report.is_valid else 1


def cmd_generate(args: argparse.Namespace) -> int:
    given = {name: getattr(args, name) for name in FAMILY_OPTIONS if getattr(args, name) is not None}
    params = {name: parse_angle(v) if isinstance(v, str) else v for name, v in given.items()}
    instance = generators.make_family_instance(args.family, **params)
    if args.out:
        dump_instance(instance, args.out)
    else:
        print(json.dumps(instance_to_obj(instance), allow_nan=False))
    return 0


def parse_generator_spec(spec: str) -> tuple[str, dict]:
    """Parse 'family:key=value,key=value' into a family name and kwargs.

    Values are read by their kind in FAMILY_OPTIONS, as `generate` reads
    them: angles through parse_angle (unparsable text raises
    InadmissibleCone), the others as int or float; a key `generate` has no
    option for is read as a float and left to the family to reject.  A
    malformed option or number raises InvalidParams.
    """
    family, _, tail = spec.partition(":")
    family = family.strip()
    kwargs: dict = {}
    if tail:
        for piece in tail.split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise InvalidParams(f"bad generator option {piece!r}")
            key = key.strip()
            kind = FAMILY_OPTIONS.get(key, float)
            if kind is str:
                kwargs[key] = parse_angle(value)
                continue
            try:
                kwargs[key] = kind(value)
            except ValueError as exc:
                raise InvalidParams(f"bad generator option {piece!r}: {exc}") from None
    return family, kwargs


def _inner_angles(gamma_from: float, gamma_to: float, steps: int) -> list[float]:
    """`steps` evenly spaced inner angles from gamma_from to gamma_to.

    Raises InadmissibleCone unless both ends pass admissible_range,
    gamma_from <= gamma_to and steps >= 1.
    """
    admissible_range(gamma_from)
    admissible_range(gamma_to)
    if not gamma_from <= gamma_to or steps < 1:
        raise InadmissibleCone(
            f"need pi/2 <= from <= to <= pi and steps >= 1, got {gamma_from!r}, {gamma_to!r}, {steps!r}"
        )
    return [float(g) for g in np.linspace(gamma_from, gamma_to, steps)]


def sweep_rows(gamma_from: float, gamma_to: float, steps: int, spec: str) -> list[dict]:
    """One row per inner angle: empirical factor of the supported-style set
    against the guarantee and the rule of thumb.

    A family that takes an inner angle is built at each angle; any other is
    built once and judged at every angle.
    """
    gammas = _inner_angles(gamma_from, gamma_to, steps)
    family, params = parse_generator_spec(spec)
    if family in generators.MAXIMIZATION_FAMILIES:
        raise ConeApproxError("sweep requires a minimization family")
    if "gamma" in params:
        raise UsageError("sweep sets the inner angle itself; drop gamma from --generator")
    if generators.takes_inner_angle(family):
        instances = [generators.make_family_instance(family, gamma=gamma, **params) for gamma in gammas]
    else:
        instances = [generators.make_family_instance(family, **params)] * len(gammas)
    return [
        {
            "gamma": gamma,
            "instance_id": spec,
            "empirical_alpha": min_alpha(instance, gamma_supported_set(instance, gamma)),
            "theory_bound": guarantee_factor(gamma),
            "rule_of_thumb": rule_of_thumb(gamma),
        }
        for gamma, instance in zip(gammas, instances)
    ]


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [repr(r["gamma"]), r["instance_id"], repr(r["empirical_alpha"]),
                 repr(r["theory_bound"]), repr(r["rule_of_thumb"])]
            )


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_rows(parse_angle(args.gamma_from), parse_angle(args.gamma_to), args.steps, args.generator)
    write_sweep_csv(args.out, rows)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    gammas = _inner_angles(parse_angle(args.gamma_from), parse_angle(args.gamma_to), args.steps)
    lines = [BoundTable.CSV_HEADER] + [BoundTable.at(gamma).csv_row() for gamma in gammas]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def read_sweep_csv(path: str) -> list[dict]:
    """Rows of a sweep CSV; an empty empirical_alpha reads as NaN (no point).

    A wrong header, an unreadable file or a row with a missing, unparsable or
    non-finite number raises InstanceFormatError, and so does a finite value
    outside the figure's domain: an inner angle outside [pi/2, pi], a factor
    below 1, or a field beyond the header.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header, raw_rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InstanceFormatError(f"sweep CSV {path!r} is not readable as UTF-8 CSV: {exc}") from exc
    if header != SWEEP_HEADER.split(","):
        raise InstanceFormatError(f"sweep CSV must have header {SWEEP_HEADER!r}")
    rows = []
    for raw in raw_rows:
        try:
            row = {
                "gamma": _finite(raw["gamma"]),
                "instance_id": raw["instance_id"],
                "empirical_alpha": _finite(raw["empirical_alpha"]) if raw["empirical_alpha"] else math.nan,
                "theory_bound": _finite(raw["theory_bound"]),
                "rule_of_thumb": _finite(raw["rule_of_thumb"]),
            }
            if None in raw:
                raise ValueError(f"fields beyond the header: {raw[None]!r}")
            admissible_range(row["gamma"])
            for name in ("empirical_alpha", "theory_bound", "rule_of_thumb"):
                if row[name] < 1.0 - TAU_VAL:
                    raise ValueError(f"{name} {row[name]!r} is below 1")
        except (KeyError, TypeError, ValueError, InadmissibleCone) as exc:
            raise InstanceFormatError(f"bad sweep CSV row {raw!r}: {exc}") from exc
        rows.append(row)
    return rows


def cmd_plot(args: argparse.Namespace) -> int:
    text = render_sweep_svg(read_sweep_csv(args.csv))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneapprox",
        description="Approximation of biobjective problems via ordering cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sets", help="efficient / supported / gamma-supported ids")
    p.add_argument("path")
    p.add_argument("--mode", required=True, choices=("efficient", "supported", "gamma-supported"))
    p.add_argument("--gamma", help="inner angle (radians or '0.75pi')")
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("verify", help="check an approximation claim")
    p.add_argument("path")
    p.add_argument("--set", required=True, help="comma-separated solution ids")
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--gamma", help="inner angle for a cone-order check")
    p.add_argument("--phi", help="rotation for a cone-order check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit an instance of a named family",
                       description="Each family takes exactly its builder's options; angles are radians or '0.75pi'.")
    p.add_argument("family", choices=sorted(generators.FAMILIES))
    for name, kind in FAMILY_OPTIONS.items():
        p.add_argument(f"--{name}", type=kind)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="empirical factors across inner angles, as CSV")
    p.add_argument("--gamma-from", default="0.5pi")
    p.add_argument("--gamma-to", default="pi")
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--generator", required=True, help="'FAMILY:key=value,...' with generate's family options")
    p.add_argument("out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="guarantee factor table, as CSV")
    p.add_argument("--gamma-from", default="0.5pi")
    p.add_argument("--gamma-to", default="pi")
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("plot", help="render a sweep CSV as SVG")
    p.add_argument("csv")
    p.add_argument("out")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConeApproxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SEMANTIC_ERRORS) else 2


if __name__ == "__main__":
    raise SystemExit(main())
