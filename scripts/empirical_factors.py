#!/usr/bin/env python3
"""Empirical covering factors of supported-style sets on varied instances.

For a grid of inner angles, prints the exact factor at which the set of
solutions optimal for some cone of that angle covers each instance,
alongside the guarantee 1 + tan(gamma/2 - pi/4) and the 2*gamma/pi rule of
thumb.  Convex fronts sit at factor 1 (their supported sets are the whole
efficient set); on concave fronts and subset-enumeration instances the
factor rises above 1 as the angle widens and stays below the guarantee.
"""

import argparse
import math

import numpy as np

import coneapprox as ca
from coneapprox.generators import knapsack_enumeration, random_front


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=40, help="random front size")
    parser.add_argument("--k", type=int, default=8, help="items for subset enumeration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=7)
    args = parser.parse_args()

    instances = {
        "convex": random_front(args.n, args.seed, "convex"),
        "concave": random_front(args.n, args.seed, "concave"),
        "mixed": random_front(args.n, args.seed, "mixed"),
        "knapsack": knapsack_enumeration(args.k, args.seed),
    }

    print(f"{'gamma/pi':>9} {'bound':>8} {'2g/pi':>8}", end="")
    for name in instances:
        print(f" {name:>10}", end="")
    print()
    for gamma in np.linspace(0.5 * math.pi, math.pi, args.steps):
        gamma = float(gamma)
        print(
            f"{gamma / math.pi:9.4f} {ca.guarantee_factor(gamma):8.4f} "
            f"{ca.rule_of_thumb(gamma):8.4f}",
            end="",
        )
        for inst in instances.values():
            supported = ca.gamma_supported_set(inst, gamma)
            print(f" {ca.min_alpha(inst, supported):10.4f}", end="")
        print()


if __name__ == "__main__":
    main()
