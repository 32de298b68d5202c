#!/usr/bin/env python3
"""Spacing sweep for the cell-graph inner distance on the unit disk.

Compares the weighted shortest-path distance against the closed-form
disk distance for a fixed bundle of random pairs, one row per spacing.

Usage: python scripts/inner_distance_convergence.py
"""

import time

import numpy as np

from invmetrics.domains import Disk
from invmetrics.kobayashi import inner_distance_many
from invmetrics.poincare import poincare_distance

SPACINGS = [0.02, 0.01, 0.005, 0.0025]


def main():
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 12:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
            pairs.append((z, w))
    exact = np.array([poincare_distance(z, w) for z, w in pairs])
    print(f"{'spacing':>8} {'max err':>10} {'mean err':>10} {'secs':>6}")
    for h in SPACINGS:
        start = time.perf_counter()
        values = inner_distance_many(Disk(), pairs, h)
        elapsed = time.perf_counter() - start
        errors = np.abs(values - exact)
        print(f"{h:8g} {errors.max():10.2e} {errors.mean():10.2e} {elapsed:6.1f}")


if __name__ == "__main__":
    main()
