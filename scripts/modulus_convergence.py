#!/usr/bin/env python3
"""Convergence table for the grid conformal modulus.

Rasterizes the round annulus at a sweep of spacings and prints the
computed modulus, the canonical inner radius, the relative error
against log(1/r) / (2 pi), the conjugate-gradient iterations, and the
seconds of the first call (which assembles the grid's system) and of a
second call on the same grid (which pays only the solve).  Exits with
status 1 when the relative error at any spacing of at most GATE_SPACING
exceeds GATE_REL_ERR, or when any spacing needs more than GATE_ITERS
iterations.

Usage: python scripts/modulus_convergence.py [INNER_RADIUS]
"""

import math
import sys
import time

from invmetrics import modulus
from invmetrics.domains import grid_annulus
from invmetrics.modulus import (
    bounded_complement_label,
    canonical_annulus_radius,
    conformal_modulus,
)

R = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
SPACINGS = [0.04, 0.02, 0.01, 0.005, 0.0025]
# about twice the 4.2e-4 to 4.9e-4 that the annulus of inner radius 0.25
# reads at spacings 0.01 to 0.0025
GATE_SPACING = 0.01
GATE_REL_ERR = 1e-3
# the iterations the float32 V-cycle preconditioner takes on the annulus of
# inner radius 0.25: 15 / 14 / 14 at spacings 0.01 / 0.005 / 0.0025
GATE_ITERS = 15


def counting_cg(iterations):
    """modulus.cg, appending each solve's iteration count to iterations."""
    modulus._load_sparse()
    real = modulus.cg

    def cg(a, b, callback, **kwargs):
        def step(x):
            iterations[-1] += 1
            callback(x)
        iterations.append(0)
        return real(a, b, callback=step, **kwargs)
    return cg


def main():
    iterations = []
    modulus.cg = counting_cg(iterations)
    exact = math.log(1.0 / R) / (2 * math.pi)
    print(f"annulus inner radius {R}, exact modulus {exact:.6f}")
    print(f"{'spacing':>8} {'modulus':>10} {'rel err':>9} {'rhat':>8} {'iters':>5} "
          f"{'secs':>6} {'again':>6}")
    failed, slow = [], []
    for h in SPACINGS:
        grid = grid_annulus(R, h)
        inner = bounded_complement_label(grid)
        start = time.perf_counter()
        value = conformal_modulus(grid, inner, 3 - inner)
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        conformal_modulus(grid, inner, 3 - inner)
        resident = time.perf_counter() - start
        rhat = canonical_annulus_radius(value)
        rel_err = abs(value - exact) / exact
        print(f"{h:8.4f} {value:10.6f} {rel_err:9.2e} {rhat:8.4f} {iterations[-1]:5d} "
              f"{elapsed:6.2f} {resident:6.2f}")
        if h <= GATE_SPACING and not rel_err <= GATE_REL_ERR:
            failed.append(h)
        if iterations[-1] > GATE_ITERS:
            slow.append(h)
    if failed:
        print(f"relative error above {GATE_REL_ERR:g} at spacing "
              + ", ".join(f"{h:g}" for h in failed), file=sys.stderr)
    if slow:
        print(f"more than {GATE_ITERS} iterations at spacing "
              + ", ".join(f"{h:g}" for h in slow), file=sys.stderr)
    return 1 if failed or slow else 0


if __name__ == "__main__":
    sys.exit(main())
