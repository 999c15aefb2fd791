"""The three closed-loop workloads: inputs, the timed query, answer checks.

Every workload is driven by one caller that issues its next query only after
the previous one has returned.  `setup(seed)` generates every input up front
and computes the reference answers; `run(query, ctx)` is the timed call into
the program; `check(query, out, ctx)` runs outside the timed region and
returns the list of problems it found (empty when the answer is right).

Library calls go through module attributes (`supportedness.gamma_supported_set`
rather than a name bound at import), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coneapprox import approximation, bounds, generators, instances, scalarize, supportedness
from coneapprox.geometry import ConeParams

import oracles

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

# Seeds of the fronts whose answers were recorded in digests.json.  A run
# walks a seeded permutation of one pool; the held-out seed walks a pool of
# its own that no other seed touches, so a claim can be confirmed on inputs
# it was not tuned on.
MAIN_POOL = tuple(range(128))
HELD_OUT_SEED = 1009
HELD_OUT_POOL = tuple(range(100_000, 100_032))

ANGLES = {"0.5pi": 0.5 * math.pi, "0.6pi": 0.6 * math.pi, "0.75pi": 0.75 * math.pi, "pi": math.pi}

# Inputs generated per run, in rounds (one round visits every shape/angle
# pair once).  Far more than a run at the seed commit uses; a much faster
# program wraps around and repeats inputs.
ROUNDS = 32


def pool_for(seed: int) -> list[int]:
    pool = HELD_OUT_POOL if seed == HELD_OUT_SEED else MAIN_POOL
    return [int(s) for s in np.random.default_rng(seed).permutation(pool)]


def fresh_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def points_of(instance) -> dict[str, tuple[float, float]]:
    return {s.id: s.objectives for s in instance.solutions}


@dataclass
class Query:
    index: int
    size: int  # instance size n, summed into throughput
    label: str
    ref: dict = field(default_factory=dict)


# --- supported-fronts -------------------------------------------------------


class SupportedFronts:
    """efficient_set -> gamma_supported_set -> min_alpha(S) -> rotation gaps."""

    name = "supported-fronts"
    round_len = 9
    trace_rounds = 2

    def __init__(self, shapes=(("mixed", 500), ("concave", 300), ("convex", 300)), use_digests=True):
        self.shapes = shapes
        self.digests = json.loads(DIGESTS_PATH.read_text()) if use_digests else None

    def setup(self, seed: int) -> list[Query]:
        pool = pool_for(seed)
        queries = []
        # Every query gets a front of its own, so a run averages over many
        # fronts; a pool length not divisible by 3 keeps (shape, seed) pairs
        # distinct after the pool wraps.
        for i in range(ROUNDS * self.round_len):
            shape, n = self.shapes[i % 3]
            angle = ("0.5pi", "0.75pi", "pi")[i // 3 % 3]
            front_seed = pool[i % len(pool)]
            inst = generators.random_front(n, front_seed, shape)
            ref = {"instance": inst, "gamma": ANGLES[angle], "angle": angle}
            ref["bound"] = bounds.guarantee_factor(ref["gamma"])
            if self.digests is not None:
                key = f"{shape}-{n}-{front_seed}"
                ref["digest_E"] = self.digests["E"].get(key)
                ref["digest_S"] = self.digests["S"].get(f"{key}-{angle}")
            queries.append(Query(i, n, f"{shape}-{n} seed {front_seed} {angle}", ref))
        return queries

    def run(self, q: Query, ctx: dict):
        inst, gamma = q.ref["instance"], q.ref["gamma"]
        E = instances.efficient_set(inst)
        S = supportedness.gamma_supported_set(inst, gamma)
        alpha = approximation.min_alpha(inst, S)
        gaps = approximation.rotation_coverage_gaps(inst, S, gamma, 1.0)
        return E, S, alpha, gaps

    def check(self, q: Query, out, ctx: dict) -> list[str]:
        E, S, alpha, gaps = out
        pts, angle = points_of(q.ref["instance"]), q.ref["angle"]
        bad = []
        if not S <= E:
            bad.append(f"S not within E: {sorted(S - E)[:5]}")
        if angle == "0.5pi" and S != E:
            bad.append("S != E at pi/2")
        if angle == "pi":
            hull = oracles.lower_hull_ids({k: pts[k] for k in E})
            if S != hull:
                bad.append(f"S != lower hull of E at pi ({len(S)} vs {len(hull)})")
        if not alpha <= q.ref["bound"] + 1e-6:
            bad.append(f"min_alpha(S) = {alpha} above guarantee {q.ref['bound']}")
        if S:
            exact = oracles.factor_by_target(np.array([pts[k] for k in S]), np.array(list(pts.values()))).max()
            if not oracles.same_float(alpha, float(exact)):
                bad.append(f"min_alpha(S) = {alpha}, independent factor {exact}")
        if len(gaps) != len(pts) or not all(g.is_empty() for g in gaps.values()):
            bad.append("rotation gaps not all empty at alpha 1")
        if self.digests is not None:
            for what, got in (("E", E), ("S", S)):
                want = q.ref[f"digest_{what}"]
                if want is None:
                    bad.append(f"no recorded digest of {what}")
                elif oracles.digest(got) != want:
                    bad.append(f"{what} differs from the recorded answer")
        return bad


# --- dense-cover ------------------------------------------------------------


class DenseCover:
    """build_cover_set -> min_alpha(C) -> verify_approx_set, componentwise and in the cone order."""

    name = "dense-cover"
    round_len = 6
    trace_rounds = 3
    spot_checks = 8

    def __init__(self, shapes=(("convex", 800), ("concave", 1200))):
        self.shapes = shapes

    def setup(self, seed: int) -> list[Query]:
        queries = []
        for front_seed in fresh_seeds(seed, ROUNDS):
            fronts = {shape: (n, generators.random_front(n, front_seed, shape)) for shape, n in self.shapes}
            for i in range(self.round_len):
                shape = self.shapes[i % 2][0]
                angle = ("0.6pi", "0.75pi", "pi")[i // 2]
                n, inst = fronts[shape]
                gamma = ANGLES[angle]
                ref = {
                    "instance": inst,
                    "gamma": gamma,
                    "bound": bounds.guarantee_factor(gamma),
                    "params": ConeParams(gamma, 0.5 * gamma - 0.25 * math.pi),
                }
                queries.append(Query(len(queries), n, f"{shape}-{n} seed {front_seed} {angle}", ref))
        return queries

    def run(self, q: Query, ctx: dict):
        inst, bound = q.ref["instance"], q.ref["bound"]
        C = scalarize.build_cover_set(inst, q.ref["gamma"], 1.0)
        alpha = approximation.min_alpha(inst, C)
        comp = approximation.verify_approx_set(inst, C, bound)
        cone = approximation.verify_approx_set(inst, C, bound, q.ref["params"])
        return C, alpha, comp, cone

    def check(self, q: Query, out, ctx: dict) -> list[str]:
        C, alpha, comp, cone = out
        pts, bound = points_of(q.ref["instance"]), q.ref["bound"]
        if not C or not C <= pts.keys():
            return [f"cover set is empty or names unknown ids: {sorted(C)[:5]}"]
        bad = []
        if not alpha <= bound + 1e-6:
            bad.append(f"min_alpha(C) = {alpha} above guarantee {bound}")
        if not (comp.is_valid and cone.is_valid):
            bad.append(f"verify_approx_set rejects C (componentwise {comp.is_valid}, cone {cone.is_valid})")
        sel = [pts[k] for k in sorted(C)]
        targets = np.array(list(pts.values()))
        per_target = oracles.factor_by_target(np.array(sel), targets)
        worst = int(per_target.argmax())
        if not (oracles.same_float(alpha, float(per_target[worst])) and oracles.same_float(comp.min_alpha, alpha)):
            bad.append(f"min_alpha(C) = {alpha}, report {comp.min_alpha}, independent {per_target[worst]}")
        if not cone.min_alpha <= alpha + 1e-9:
            bad.append(f"cone-order factor {cone.min_alpha} exceeds componentwise {alpha}")
        sample = np.random.default_rng(q.index).choice(len(targets), size=min(self.spot_checks, len(targets)), replace=False)
        for t in {worst, *map(int, sample)}:
            loop = oracles.factor_double_loop(sel, tuple(targets[t]))
            if not oracles.same_float(loop, float(per_target[t])):
                bad.append(f"double-loop factor {loop} != vectorized {per_target[t]} at target {t}")
        return bad


# --- cli-jobs ---------------------------------------------------------------

SWEEP = ["--gamma-from", "0.5pi", "--gamma-to", "pi", "--steps", "9", "--generator", "tightness:alpha=1,epsilon=0.1"]
SWEEP_ROWS = 9
JOB = ("validate", "sets", "verify", "sweep", "plot")


class CliJobs:
    """validate -> sets --mode efficient -> verify --set <those ids> --alpha 1 -> sweep -> plot.

    Each query is one `python -m coneapprox.cli` subprocess.  The traced run
    replays the same argv through an in-process `cli.main` instead.
    """

    name = "cli-jobs"
    round_len = len(JOB)
    trace_rounds = 4
    files = 12

    def __init__(self, root: Path, workdir: Path, n: int = 3000):
        self.workdir = workdir
        self.n = n
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self, seed: int) -> list[Query]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for j, front_seed in enumerate(fresh_seeds(seed, self.files)):
            inst = generators.random_front(self.n, front_seed, "mixed")
            path = self.workdir / f"front-{j}.json"
            instances.dump_instance(inst, path)
            jobs.append((path, front_seed, instances.efficient_set(inst)))
        queries = []
        for r in range(ROUNDS):
            path, front_seed, eff = jobs[r % len(jobs)]
            sweep_csv = self.workdir / f"sweep-{r % len(jobs)}.csv"
            plot_svg = self.workdir / f"sweep-{r % len(jobs)}.svg"
            for step in JOB:
                ref = {"step": step, "path": str(path), "csv": str(sweep_csv), "svg": str(plot_svg), "efficient": eff}
                size = {"sweep": 3 * SWEEP_ROWS, "plot": 0}.get(step, self.n)
                queries.append(Query(len(queries), size, f"{step} mixed-{self.n} seed {front_seed}", ref))
        return queries

    def argv(self, q: Query, ctx: dict) -> list[str]:
        step, ref = q.ref["step"], q.ref
        if step == "validate":
            return ["validate", ref["path"]]
        if step == "sets":
            return ["sets", ref["path"], "--mode", "efficient"]
        if step == "verify":
            if ctx.get("sets") is None:
                raise RuntimeError("no ids from the preceding sets call")
            return ["verify", ref["path"], "--set", ",".join(ctx["sets"]), "--alpha", "1"]
        if step == "sweep":
            return ["sweep", *SWEEP, ref["csv"]]
        return ["plot", ref["csv"], ref["svg"]]

    def run(self, q: Query, ctx: dict):
        cmd = [sys.executable, "-m", "coneapprox.cli", *self.argv(q, ctx)]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def run_inprocess(self, q: Query, ctx: dict):
        from coneapprox import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(q, ctx))
        return code, out.getvalue()

    def check(self, q: Query, out, ctx: dict) -> list[str]:
        code, stdout = out
        step = q.ref["step"]
        if step == "sets":
            ctx["sets"] = None
        if code != 0:
            return [f"{step} exited {code}"]
        try:
            if step == "sets":
                ids = json.loads(stdout)
                ctx["sets"] = ids
                if set(ids) != q.ref["efficient"] or len(ids) != len(q.ref["efficient"]):
                    return [f"sets printed {len(ids)} ids, the efficient set has {len(q.ref['efficient'])}"]
            elif step == "verify":
                report = json.loads(stdout)
                if report["is_valid"] is not True or report["min_alpha"] != 1.0:
                    return [f"verify reported is_valid={report['is_valid']} min_alpha={report['min_alpha']}"]
            elif step == "sweep":
                with open(q.ref["csv"], encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if len(rows) != SWEEP_ROWS:
                    return [f"sweep wrote {len(rows)} rows"]
                over = [r for r in rows if not float(r["empirical_alpha"]) <= float(r["theory_bound"])]
                if over:
                    return [f"sweep rows above the theory bound: {over}"]
            elif step == "plot":
                text = Path(q.ref["svg"]).read_text(encoding="utf-8")
                if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                    return ["plot did not write an SVG document"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{step} output unreadable: {exc!r}"]
        return []


def make(name: str, root: Path, workdir: Path, tiny: bool = False):
    if name == "supported-fronts":
        if tiny:
            return SupportedFronts((("mixed", 30), ("concave", 20), ("convex", 20)), use_digests=False)
        return SupportedFronts()
    if name == "dense-cover":
        return DenseCover((("convex", 40), ("concave", 60))) if tiny else DenseCover()
    if name == "cli-jobs":
        return CliJobs(root, workdir, n=150 if tiny else 3000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("supported-fronts", "dense-cover", "cli-jobs")
