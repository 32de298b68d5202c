#!/usr/bin/env python3
"""Spacing sweep for the cell-graph inner distance on the unit disk.

Compares the weighted shortest-path distance against the closed-form
disk distance on two fixed bundles of pairs, one row per bundle and
spacing: twelve random pairs in |z| < 0.7 (acceptance C7's sampling) and
the README's five pairs near the rim.  Each row gives the largest and
mean absolute errors, the least signed relative error, the largest
excess over the closed form as a share of the search limit's slack over
it (above 1: the limited search missed), and the pairs searched again:
on the ellipse at the weight found (retried), or on the whole crop's
graph (whole).

Exits 1 when a value lies below its closed-form distance by more than
1e-12 (relative), which no path of the disk's graph can do since every edge
weighs at least the distance between its ends; when a random pair's
error exceeds acceptance C7's tolerance of 5e-3; or when any pair needs
the whole crop's graph, many times a pair's own in memory.

Usage: python scripts/inner_distance_convergence.py
"""

import math
import sys
import time

import numpy as np

from invmetrics import kobayashi
from invmetrics.domains import Disk
from invmetrics.kobayashi import inner_distance_many
from invmetrics.poincare import poincare_distance

SPACINGS = [0.02, 0.01, 0.005, 0.0025]
BELOW = 1e-12
TOLERANCE = 5e-3
# the README's near-rim pairs: endpoints a cell inside the crop, the crop's
# rim and a pair p == q
RIM = [(0.97, -0.96j), (0.965j, 0.9 + 0.2j), (-0.5, -0.5), (-0.3, 0.2 + 0.1j), (0.97, -0.97)]


def random_pairs():
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 12:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
            pairs.append((z, w))
    return pairs


def main() -> int:
    # each search's Dijkstra limit: a pair's limit, then the weight it found
    # (a retry) or inf (the whole crop)
    kobayashi._load_sparse()
    dijkstra, limits = kobayashi._csgraph_dijkstra, []

    def recorded(*args, **kwargs):
        limits.append(kwargs["limit"])
        return dijkstra(*args, **kwargs)

    kobayashi._csgraph_dijkstra = recorded
    print(f"{'bundle':>8} {'spacing':>8} {'max err':>10} {'mean err':>10} {'least rel':>10} "
          f"{'exc/slack':>9} {'retried':>7} {'whole':>5} {'secs':>6}")
    failed = False
    for name, pairs in (("random", random_pairs()), ("rim", RIM)):
        exact = np.array([poincare_distance(z, w) for z, w in pairs])
        for h in SPACINGS:
            limits.clear()
            start = time.perf_counter()
            values = inner_distance_many(Disk(), pairs, h)
            elapsed = time.perf_counter() - start
            errors = np.abs(values - exact)
            apart = exact > 0
            least = ((values - exact)[apart] / exact[apart]).min()
            below = (values < exact * (1.0 - BELOW)).any()
            slack = (kobayashi._LIMIT_FACTOR - 1.0) * exact + kobayashi._LIMIT_CELLS * h
            whole = limits.count(math.inf)
            retried = len(limits) - len(pairs) - whole
            print(f"{name:>8} {h:8g} {errors.max():10.2e} {errors.mean():10.2e} {least:10.2e} "
                  f"{((values - exact) / slack).max():9.3f} {retried:7d} {whole:5d} "
                  f"{elapsed:6.1f}")
            if below or whole or (name == "random" and errors.max() > TOLERANCE):
                failed = True
    if failed:
        print(f"FAIL: a value lies below its distance by more than {BELOW:g} (relative), "
              f"a random pair's is off it by more than {TOLERANCE:g}, or a pair needed the "
              f"whole crop's graph")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
