#!/usr/bin/env python3
"""Record the reference answers that the supported-fronts checks compare with.

    python3 perfbench/record_digests.py

For every front seed of the main and held-out pools and every shape of the
supported-fronts workload, stores a digest of the efficient set E and of the
gamma-supported set S at each inner angle.  Run it only at a commit whose
answers are trusted: the benchmark treats any later difference as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from coneapprox import generators, instances, supportedness  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    shapes = workloads.SupportedFronts(use_digests=False).shapes
    digests: dict[str, dict[str, str]] = {"E": {}, "S": {}}
    for front_seed in workloads.MAIN_POOL + workloads.HELD_OUT_POOL:
        for shape, n in shapes:
            inst = generators.random_front(n, front_seed, shape)
            key = f"{shape}-{n}-{front_seed}"
            digests["E"][key] = oracles.digest(instances.efficient_set(inst))
            for angle in ("0.5pi", "0.75pi", "pi"):
                S = supportedness.gamma_supported_set(inst, workloads.ANGLES[angle])
                digests["S"][f"{key}-{angle}"] = oracles.digest(S)
        print(front_seed, file=sys.stderr, flush=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
