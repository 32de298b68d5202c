#!/usr/bin/env python3
"""Do the catalog distance intervals enclose the true distance?

Samples 300 random pairs in each of Disk, HalfPlane, PuncturedDisk and
Annulus 0.1 / 0.5 / 0.9, and 50 pairs in each hard regime (thin annuli
up to r = 0.9999, a point 1e-12 (relative) from a wall, distances above
19, ordinary pairs, and half-plane pairs whose -Re z is log-uniform down
to 1e-320, where |z - w| / (2 sqrt(-Re z) sqrt(-Re w)) overflows, and
half-plane pairs near the float limit: half of them with imaginary parts
of 1e308 to 1.7e308 and opposite signs, where z - w overflows, and -Re z
log-uniform from 1e-320 to 1.7e308, the other half with both real parts
and the imaginary parts of size 1e308, where the denominator overflows
too), all from ``default_rng(0)``.  Each pair's
``kob_distance`` ends and ``car_interval`` upper end are compared with the
distance at 60 digits in mpmath, and, on the disk and punctured disk,
where the dictionary is exact, ``car_interval``'s lower end with the
disk distance rho(p, q).  Prints the misses and the widest interval,
relative to max(1, d), per sample, and exits 1 on any miss.  A pair
misses when any of those ends does.

Usage: python scripts/enclosure_sweep.py
"""

import cmath
import math
import sys

import mpmath
import numpy as np

from invmetrics.caratheodory import car_interval
from invmetrics.domains import Annulus, Disk, HalfPlane, PuncturedDisk
from invmetrics.kobayashi import kob_distance

PAIRS = 300
REGIME_PAIRS = 50


def exact(domain, p, q):
    """The distance at 60 digits: the disk's atanh form and the half-plane's
    asinh form (its atanh form would need hundreds of digits next to the
    wall); the covered domains lift by log, go to the upper half-plane and
    take the nearest of three deck translates of q."""
    with mpmath.workdps(60):
        a, b = mpmath.mpc(p.real, p.imag), mpmath.mpc(q.real, q.imag)
        if isinstance(domain, Disk):
            return mpmath.atanh(abs(a - b) / abs(1 - a * mpmath.conj(b)))
        if isinstance(domain, HalfPlane):
            return mpmath.asinh(abs(a - b) / (2 * mpmath.sqrt(a.real * b.real)))
        if isinstance(domain, PuncturedDisk):
            def upper(w):
                return -1j * w
        else:
            log_r = mpmath.log(domain.r)

            def upper(w):
                return mpmath.exp(1j * mpmath.pi * (w - log_r) / -log_r)
        u = upper(mpmath.log(a))
        return min(mpmath.asinh(abs(u - v) / (2 * mpmath.sqrt(u.imag * v.imag)))
                   for v in (upper(mpmath.log(b) + 2j * mpmath.pi * k) for k in (-1, 0, 1)))


def point(rng, domain):
    """A random point of the sweep's distribution for the domain."""
    angle = rng.uniform(-math.pi, math.pi)
    if isinstance(domain, Disk):
        return cmath.rect(0.99 * math.sqrt(rng.uniform()), angle)
    if isinstance(domain, HalfPlane):
        return complex(-math.exp(rng.uniform(-3, 1)), rng.uniform(-3, 3))
    if isinstance(domain, PuncturedDisk):
        return cmath.rect(math.exp(rng.uniform(math.log(1e-3), math.log(0.99))), angle)
    return cmath.rect(domain.r ** rng.uniform(0.01, 0.99), angle)


def wall_point(rng, domain, gap):
    """A point ``gap`` (relative) inside a wall of the domain."""
    angle = rng.uniform(-math.pi, math.pi)
    if isinstance(domain, HalfPlane):
        return complex(-gap * math.exp(rng.uniform(-3, 3)), rng.uniform(-3, 3))
    inner = getattr(domain, "r", 0.0) if not isinstance(domain, Disk) else None
    if inner is not None and rng.uniform() < 0.5:
        return cmath.rect(inner * (1 + gap) if inner else gap, angle)
    return cmath.rect(1 - gap, angle)


def regime_pair(rng, regime):
    """(domain, p, q) drawn in one of the hard regimes."""
    if regime == "thin":
        domain = Annulus(1 - 10 ** rng.uniform(-4, -1))
        p = point(rng, domain)
        # half the pairs a small angle apart, where k magnifies the angles' rounding
        turn = rng.uniform(-math.pi, math.pi) * (10 ** rng.uniform(-6, 0) if rng.uniform() < 0.5
                                                 else 1.0)
        return domain, p, cmath.rect(domain.r ** rng.uniform(0.01, 0.99), cmath.phase(p) + turn)
    if regime == "halfplane":
        return (HalfPlane(), *(complex(-10.0 ** rng.uniform(-320, 0), rng.uniform(-3, 3))
                               for _ in range(2)))
    if regime == "float-limit":
        if rng.uniform() < 0.5:
            # z - w overflows; s runs from about 1 to past the float range
            top, bottom = rng.uniform(1.0, 1.7, 2) * 1e308
            left, right = -10.0 ** rng.uniform(-320, 308.23, 2)
            return HalfPlane(), complex(left, top), complex(right, -bottom)
        # the denominator overflows too, in about two pairs of three
        return (HalfPlane(), *(1e308 * complex(-rng.uniform(0.5, 1.7), rng.uniform(-1.7, 1.7))
                               for _ in range(2)))
    domain = [Disk(), HalfPlane(), PuncturedDisk(), Annulus(rng.uniform(0.05, 0.95))][
        rng.integers(4)]
    if regime == "wall":
        return domain, wall_point(rng, domain, 1e-12), point(rng, domain)
    if regime == "far":
        while True:
            p = wall_point(rng, domain, 10 ** rng.uniform(-12, -9))
            q = wall_point(rng, domain, 10 ** rng.uniform(-12, -9))
            if exact(domain, p, q) > 19:
                return domain, p, q
    return domain, point(rng, domain), point(rng, domain)


def check(domain, p, q):
    """(whether an interval end misses, relative width) for the pair."""
    want = exact(domain, p, q)
    kob = kob_distance(domain, p, q)
    car = car_interval(domain, p, q)
    miss = want not in kob or not want <= car.upper
    if isinstance(domain, (Disk, PuncturedDisk)):
        miss = miss or not car.lower <= exact(Disk(), p, q)
    return miss, kob.width / max(1.0, kob.upper)


def main() -> int:
    rng = np.random.default_rng(0)
    samples = [(repr(domain), [(domain, point(rng, domain), point(rng, domain))
                               for _ in range(PAIRS)])
               for domain in (Disk(), HalfPlane(), PuncturedDisk(),
                              Annulus(0.1), Annulus(0.5), Annulus(0.9))]
    samples += [(regime, [regime_pair(rng, regime) for _ in range(REGIME_PAIRS)])
                for regime in ("thin", "wall", "far", "ordinary", "halfplane", "float-limit")]
    print(f"{'sample':>16} {'pairs':>6} {'misses':>6} {'widest rel':>11}")
    total = 0
    for name, pairs in samples:
        results = [check(*pair) for pair in pairs]
        misses = sum(m for m, _ in results)
        total += misses
        print(f"{name:>16} {len(pairs):6d} {misses:6d} {max(w for _, w in results):11.2e}")
    if total:
        print(f"FAIL: {total} pairs have an interval end that misses the 60-digit distance")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
