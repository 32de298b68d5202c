#!/usr/bin/env python3
"""Spacing sweep for the cell-graph inner distance on the unit disk.

Compares the weighted shortest-path distance against the closed-form
disk distance for a fixed bundle of random pairs, one row per spacing:
the largest and mean absolute errors and the least signed relative error.

Exits 1 when a value lies below its closed-form distance by more than
1e-12 (relative), which no path of the disk's graph can do since every edge
weighs at least the distance between its ends, or when an error exceeds
acceptance C7's tolerance of 5e-3.

Usage: python scripts/inner_distance_convergence.py
"""

import sys
import time

import numpy as np

from invmetrics.domains import Disk
from invmetrics.kobayashi import inner_distance_many
from invmetrics.poincare import poincare_distance

SPACINGS = [0.02, 0.01, 0.005, 0.0025]
BELOW = 1e-12
TOLERANCE = 5e-3


def main() -> int:
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 12:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
            pairs.append((z, w))
    exact = np.array([poincare_distance(z, w) for z, w in pairs])
    print(f"{'spacing':>8} {'max err':>10} {'mean err':>10} {'least rel':>10} {'secs':>6}")
    failed = False
    for h in SPACINGS:
        start = time.perf_counter()
        values = inner_distance_many(Disk(), pairs, h)
        elapsed = time.perf_counter() - start
        errors = np.abs(values - exact)
        least = ((values - exact) / exact).min()
        print(f"{h:8g} {errors.max():10.2e} {errors.mean():10.2e} {least:10.2e} {elapsed:6.1f}")
        if least < -BELOW or errors.max() > TOLERANCE:
            failed = True
    if failed:
        print(f"FAIL: a value lies below its distance by more than {BELOW:g} (relative) "
              f"or off it by more than {TOLERANCE:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
