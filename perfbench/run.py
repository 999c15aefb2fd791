#!/usr/bin/env python3
"""Run one coneapprox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload supported-fronts --seed 1 --seconds 25 --trace 0

With --trace 0 the closed loop runs untraced and the last stdout line is a
JSON object with the end-to-end metrics, in reference seconds (see
calibrate.py); with --trace 1 a separate traced run reports the per-layer
metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per BLAS/OpenMP pool, here and in every child, so the load
# never exceeds one core for the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

# Everything, child processes included, runs on one core: the calibration
# kernel then times the same core the queries ran on.
CPUS = os.sched_getaffinity(0)
os.sched_setaffinity(0, {min(CPUS)})

import calibrate  # noqa: E402  (imports numpy, after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_QUERIES = 100  # so query_s.p90 has at least 10 samples beyond it
HARD_CAP_S = 120.0  # the timed phase stops here whatever --seconds says
SETUP_REPS = 5
SETUP_KERNELS = 5  # calibration samples after each set-up
STARTUP_PROBES = 5
WORKLOAD_NAMES = ("supported-fronts", "dense-cover", "cli-jobs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="query time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def environment(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src = hashlib.sha256()
    for path in sorted((SRC / "coneapprox").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown",
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(CPUS),
        "pinned_cpu": min(CPUS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Closed loop over a query list: run, then check outside the timing."""

    def __init__(self, wl, runner, tracer=None, speed_samples=False):
        self.wl = wl
        self.runner = runner
        self.tracer = tracer  # paused while answers are checked
        self.speed_samples = speed_samples  # time the calibration kernel after each query
        self.durations: list[float] = []
        self.kernel_s: list[float] = []
        self.solutions = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, q, ctx) -> None:
        t0 = time.perf_counter()
        try:
            out = self.runner(q, ctx)
            err = None
        except Exception as exc:  # a query that raises is counted as failed
            err = f"raised {type(exc).__name__}: {exc}"
        self.durations.append(time.perf_counter() - t0)
        self.solutions += q.size
        if self.speed_samples:
            self.kernel_s.append(calibrate.time_kernel())
        if self.tracer is not None:
            self.tracer.enabled = False
        if err is None:
            try:
                bad = self.wl.check(q, out, ctx)
            except Exception:
                bad = ["check raised " + traceback.format_exc(limit=2)]
        else:
            bad = [err]
        if self.tracer is not None:
            self.tracer.enabled = True
        if bad:
            self.failed += 1
            self.problems.append(f"query {q.index} ({q.label}): {'; '.join(bad)}")

    def busy(self) -> float:
        return sum(self.durations)

    def run_list(self, queries) -> float:
        """Run every query once; return the summed query time."""
        start = len(self.durations)
        ctx: dict = {}
        for i, q in enumerate(queries):
            if i % self.wl.round_len == 0:
                ctx = {}
            self.step(q, ctx)
        return sum(self.durations[start:])


def run_untraced(wl, args, import_s: float):
    reps, setup_kernels = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        queries = wl.setup(args.seed)
        wl.run(queries[0], {})  # warm-up: lazy imports, bytecode, page cache
        reps.append(time.perf_counter() - t0)
        setup_kernels += [calibrate.time_kernel() for _ in range(SETUP_KERNELS)]
    setup_wall = import_s + statistics.median(reps)
    setup_scale = calibrate.REF_S / statistics.median(setup_kernels)

    loop = Loop(wl, wl.run, speed_samples=True)
    ctx: dict = {}
    t_begin = time.perf_counter()
    i = 0
    while time.perf_counter() - t_begin < HARD_CAP_S:
        if i % wl.round_len == 0:
            if loop.busy() >= args.seconds and i >= MIN_QUERIES:
                break
            ctx = {}
        loop.step(queries[i % len(queries)], ctx)
        i += 1

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-jobs" else resource.RUSAGE_SELF
    scaled = [d * f for d, f in zip(loop.durations, calibrate.scales(loop.kernel_s))]
    metrics = {
        "query_s.p50": (statistics.median(scaled), "s"),
        "query_s.p90": (statistics.quantiles(scaled, n=10)[8], "s"),
        "throughput.solutions_per_s": (loop.solutions / sum(scaled), "1/s"),
        "setup_s": (setup_wall * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    wall = {
        "query_s.p50": statistics.median(loop.durations),
        "query_s.p90": statistics.quantiles(loop.durations, n=10)[8],
        "throughput.solutions_per_s": loop.solutions / loop.busy(),
        "setup_s": setup_wall,
        "kernel_s.p50": statistics.median(loop.kernel_s),
        "setup_kernel_s.p50": statistics.median(setup_kernels),
    }
    return loop, metrics, wall


def startup_s(env) -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import coneapprox.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(wl, args):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    queries = wl.setup(args.seed)
    tracer.uninstall()
    random_front_s = tracer.self_s.get("generators.random_front", 0.0)

    is_cli = args.workload == "cli-jobs"
    runner = wl.run_inprocess if is_cli else wl.run
    trace_list = queries[: wl.trace_rounds * wl.round_len]
    runner(trace_list[0], {})  # warm-up
    loop = Loop(wl, wl.run, tracer)
    startup = startup_s(dict(os.environ, PYTHONPATH=str(SRC)))
    # For cli-jobs the real query time is the subprocess time, which the
    # in-process replay lacks; shares are taken against it.
    sub_wall = loop.run_list(trace_list) if is_cli else None
    loop.runner = runner

    passes = []
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < min(args.seconds, HARD_CAP_S):
        plain = loop.run_list(trace_list)
        tracer.reset()
        tracer.phase = "query"
        tracer.install()
        traced = loop.run_list(trace_list)
        tracer.uninstall()
        layer = tracer.layer_self_s()
        passes.append(
            {
                "plain": plain,
                "traced": traced,
                "self_s": dict(tracer.self_s),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "layer": layer,
            }
        )

    def med(get) -> float:
        return statistics.median(get(p) for p in passes)

    first = passes[0]
    counts, calls = first["counts"], first["calls"]
    base = sub_wall if is_cli else med(lambda p: p["traced"])
    m = {}
    for name in (
        "supportedness.gamma_supported_set",
        "approximation.rotation_coverage_gaps",
        "approximation.min_alpha",
        "approximation.verify_approx_set",
        "scalarize.build_cover_set",
        "instances.efficient_set",
        "instances.load_instance",
        "instances.validate",
        "instances.index_of",
        "instances.objectives_of",
        "cli.main",
    ):
        m[f"{name}.self_s"] = (med(lambda p: p["self_s"].get(name, 0.0)), "s")
    for name in ("supportedness.gamma_supported_set", "instances.index_of", "instances.objectives_of"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["supportedness.pairs"] = (counts.get("supportedness.pairs", 0), "count")
    m["supportedness.supported_frac"] = (_ratio(counts, "supportedness.supported", "supportedness.solutions"), "ratio")
    m["approximation.gap_pairs"] = (counts.get("approximation.gap_pairs", 0), "count")
    m["approximation.pair_factors"] = (counts.get("approximation.pair_factors", 0), "count")
    m["approximation.matrix_mb"] = (counts.get("approximation.matrix_mb", 0.0), "MB")
    m["scalarize.scalarizations"] = (counts.get("scalarize.scalarizations", 0), "count")
    m["scalarize.cover_frac"] = (_ratio(counts, "scalarize.cover", "scalarize.solutions"), "ratio")
    m["generators.random_front.self_s"] = (random_front_s, "s")
    m["cli.startup_s"] = (startup, "s")
    m["cli.startup.share"] = (startup * len(trace_list) / base if is_cli else 0.0, "ratio")
    for layer in tracing.LAYERS:
        self_s = med(lambda p: p["layer"][layer])
        m[f"layer.{layer}.self_s"] = (self_s, "s")
        m[f"layer.{layer}.share"] = (self_s / base, "ratio")
    m["bench.trace_queries"] = (len(trace_list), "count")
    m["bench.query_wall_s"] = (base, "s")
    m["bench.trace_overhead_s"] = (med(lambda p: p["traced"] - p["plain"]) / len(trace_list), "s")
    for p in passes[1:]:
        if p["counts"] != counts or p["calls"] != calls:
            loop.failed += 1
            loop.problems.append("traced passes disagree on calls or counts")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return loop, m, {}


def _ratio(counts, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coneapprox" / "__init__.py").is_file():
        print(f"error: no coneapprox sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coneapprox  # noqa: F401
    import workloads

    import_s = time.perf_counter() - T_START
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, ROOT, workdir, tiny=args.tiny)
        if args.trace:
            loop, metrics, wall = run_traced(wl, args)
        else:
            loop, metrics, wall = run_untraced(wl, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.durations)
    env = environment(args)
    for line in loop.problems[:20]:
        print("FAILED", line, file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "queries": attempted, "failed_frac": loop.failed / attempted, "problems": loop.problems, "wall": wall, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env", json.dumps(env))
    print(f"workload {args.workload}: queries {attempted}, failed_frac {loop.failed / attempted:.4f}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}" + (f"  (wall {wall[k]:.6g} {u})" if k in wall else ""))
    for k in ("kernel_s.p50", "setup_kernel_s.p50"):
        if k in wall:
            print(f"  {k} = {wall[k]:.6g} s  (reference {calibrate.REF_S} s)")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
