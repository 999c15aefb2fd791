#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, through run.py,
   and checks that the result line is well formed, names every metric that
   BENCHMARK.json declares, and reports no failed query.
2. Feeds each workload's answer checker a deliberately wrong answer (a set
   with one id dropped, a factor 1 % too small) and requires a rejection.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "1"]
            proc = subprocess.run([*cmd, "--trace", str(trace), "--tiny"], capture_output=True, text=True, timeout=170)
            what = f"{name} --trace {trace} at tiny size"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: no failed query")
            expect(set(result["metrics"]) == declared[trace], f"{what}: metrics match BENCHMARK.json")


def rejects(wl, q, out, ctx: dict, what: str) -> None:
    bad = wl.check(q, out, dict(ctx))
    expect(bool(bad), f"{wl.name} rejects {what}: {bad[:1]}")


def supported_fronts_checker() -> None:
    wl = workloads.make("supported-fronts", ROOT, Path())
    queries = wl.setup(3)
    for angle in ("0.5pi", "pi"):
        q = next(q for q in queries if q.ref["angle"] == angle and q.label.startswith("concave"))
        E, S, alpha, gaps = wl.run(q, {})
        expect(wl.check(q, (E, S, alpha, gaps), {}) == [], f"supported-fronts accepts the right answer at {angle}")
        dropped = set(sorted(S)[1:])
        rejects(wl, q, (E, dropped, alpha, gaps), {}, f"S with one id dropped at {angle}")
        rejects(wl, q, (set(sorted(E)[1:]), S, alpha, gaps), {}, f"E with one id dropped at {angle}")
        if angle == "pi":
            rejects(wl, q, (E, S, alpha * 0.99, gaps), {}, "min_alpha(S) 1 % too small")


def dense_cover_checker() -> None:
    wl = workloads.make("dense-cover", ROOT, Path(), tiny=True)
    for q in wl.setup(3)[: wl.round_len]:
        C, alpha, comp, cone = wl.run(q, {})
        expect(wl.check(q, (C, alpha, comp, cone), {}) == [], f"dense-cover accepts the right answer ({q.label})")
        rejects(wl, q, (C, alpha * 0.99, comp, cone), {}, f"min_alpha(C) 1 % too small ({q.label})")


def cli_jobs_checker(workdir: Path) -> None:
    wl = workloads.make("cli-jobs", ROOT, workdir, tiny=True)
    ctx: dict = {}
    for q in wl.setup(3)[: wl.round_len]:
        code, stdout = wl.run_inprocess(q, ctx)
        step = q.ref["step"]
        if step == "sets":
            ids = json.loads(stdout)
            rejects(wl, q, (code, json.dumps(ids[1:])), ctx, "sets output with one id dropped")
        if step == "verify":
            report = json.loads(stdout)
            rejects(wl, q, (code, json.dumps(dict(report, min_alpha=report["min_alpha"] * 0.99))), ctx, "verify factor 1 % too small")
        rejects(wl, q, (1, stdout), ctx, f"{step} exiting 1")
        expect(wl.check(q, (code, stdout), ctx) == [], f"cli-jobs accepts the right {step} output")


def main() -> int:
    tiny_runs()
    supported_fronts_checker()
    dense_cover_checker()
    workdir = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    try:
        cli_jobs_checker(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
