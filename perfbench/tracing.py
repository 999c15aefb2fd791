"""Wrapper spans around the public entry points of each `coneapprox` module.

`Tracer.install()` replaces each target function, wherever a `coneapprox`
module binds it, by a wrapper that records a span (id, parent, name, start,
end) and adds the call's self time, its duration minus the time its child
spans cover.  `uninstall()` puts the originals back.  Nothing under `src/`
changes.  Spans stay in memory until `write()`.

Some targets carry a hook that adds a *computed* count, derived from the
call's input sizes and result, never measured inside the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from coneapprox.instances import Instance


def _n(instance) -> int:
    return len(instance.solutions)


def _count_supported(counts, args, result):
    inst = args[0]
    counts["supportedness.pairs"] += _n(inst) * (_n(inst) - 1)
    counts["supportedness.solutions"] += _n(inst)
    counts["supportedness.supported"] += len(result)


def _count_gaps(counts, args, result):
    counts["approximation.gap_pairs"] += len(args[1]) * _n(args[0])


def _count_factors(counts, args, result):
    pairs = len(args[1]) * _n(args[0])
    counts["approximation.pair_factors"] += pairs
    # _pairwise_factors builds a (|sel|, n, 2) float64 ratio array.
    counts["approximation.matrix_mb"] = max(counts["approximation.matrix_mb"], pairs * 16 / 1e6)


def _count_cover(counts, args, result):
    arr = args[0].objective_array()
    counts["scalarize.scalarizations"] += int(np.unique(arr[:, 0] / arr[:, 1]).size)
    counts["scalarize.solutions"] += _n(args[0])
    counts["scalarize.cover"] += len(result)


# (module, attribute, layer, hook).  "Instance.x" names a method.
TARGETS = (
    ("coneapprox.instances", "efficient_set", "instances", None),
    ("coneapprox.instances", "validate", "instances", None),
    ("coneapprox.instances", "load_instance", "instances", None),
    ("coneapprox.instances", "dump_instance", "instances", None),
    ("coneapprox.instances", "Instance.index_of", "instances", None),
    ("coneapprox.instances", "Instance.objectives_of", "instances", None),
    ("coneapprox.supportedness", "gamma_supported_set", "supportedness", _count_supported),
    ("coneapprox.scalarize", "build_cover_set", "scalarize", _count_cover),
    ("coneapprox.approximation", "min_alpha", "approximation", _count_factors),
    ("coneapprox.approximation", "verify_approx_set", "approximation", _count_factors),
    ("coneapprox.approximation", "rotation_coverage_gaps", "approximation", _count_gaps),
    ("coneapprox.generators", "random_front", "generators", None),
    ("coneapprox.generators", "make_family_instance", "generators", None),
    ("coneapprox.bounds", "guarantee_factor", "bounds", None),
    ("coneapprox.bounds", "rule_of_thumb", "bounds", None),
    ("coneapprox.svg", "render_sweep_svg", "svg", None),
    ("coneapprox.cli", "main", "cli", None),
)

LAYERS = ("instances", "supportedness", "scalarize", "approximation", "generators", "bounds", "svg", "cli")


def _short(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.enabled = True  # False while the benchmark checks answers
        self.reset()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new tally of self times, calls and counts (spans are kept)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.self_s[name] += end - start - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append((span_id, parent, name, tracer.phase, start, end))
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, _, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            name = _short(module_name, attr)
            if attr.startswith("Instance."):
                method = attr.split(".", 1)[1]
                original = getattr(Instance, method)
                self._patch(Instance, method, original, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "coneapprox" or mod_name.startswith("coneapprox.")) and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_self_s(self) -> dict[str, float]:
        layer_of = {_short(m, a): layer for m, a, layer, _ in TARGETS}
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[layer_of[name]] += s
        return out

    def write(self, path) -> None:
        """All spans as JSON: one [id, parent, name, phase, start_s, end_s] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "phase", "start_s", "end_s"], "spans": self.spans}, fh)
