"""Independent reference values for the benchmark's correctness checks.

Every catalog distance is computed from the half-plane closed form

    sinh d = |u - v| / (2 sqrt(Im u Im v))      (curvature -4 normalization)

after sending both points to a half-plane model by an explicit map; the
deck group then shifts only one real coordinate, so the nearest translate
is read off ``angle(p / q)`` instead of being enumerated.

* ``exact_distance`` works in mpmath at 60 significant digits on the exact
  binary values of the float inputs.  It is the reference for every
  scalar answer.
* ``distance_row`` is the same formula in float64, vectorized, written so
  that no step cancels (sin of the nearer wall, ``1 - |z|`` factored).  It
  classifies ball-raster cells; ``self_check`` ties it to the mpmath form.

Nothing here imports the library under test.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

DIGITS = 60

# Known values the oracle must reproduce before any answer is judged by it.
HALF_LOG3 = 0.5493061443340548                       # atanh(1/2)
ANNULUS_CORE_HALF = math.pi ** 2 / (2 * math.log(10))  # Annulus(0.1), +-sqrt(0.1)
# Counterexamples to the deck enumeration listed in ROADMAP.md: inner radius
# and points as quoted, the half-width of the rounding of each (0 when the
# quoted numbers were the exact inputs), and the true value with the number
# of decimals it was quoted with.
COUNTEREXAMPLES = (
    (0.838, complex(0.2539, -0.9444), complex(-0.3880, -0.7657), 5e-4, 5e-5,
     7.4223, 4),
    (0.8, complex(0.2538897, -0.9443621), complex(-0.3880236, -0.7656528), 0.0, 0.0,
     5.82620996, 8),
)


def _mp(z):
    return mpmath.mpc(mpmath.mpf(float(z.real)), mpmath.mpf(float(z.imag)))


def exact_distance(kind: str, r: float | None, p: complex, q: complex) -> float:
    """Kobayashi distance on a catalog domain, rounded from 60 digits.

    ``kind`` is one of ``disk``, ``halfplane`` (the left half-plane
    Re z < 0), ``punctured`` and ``annulus`` (with inner radius ``r``).
    """
    with mpmath.workdps(DIGITS):
        a, b = _mp(p), _mp(q)
        if kind == "disk":
            s = abs(a - b) / mpmath.sqrt((1 - abs(a) ** 2) * (1 - abs(b) ** 2))
        elif kind == "halfplane":
            s = abs(a - b) / (2 * mpmath.sqrt(a.real * b.real))
        elif kind == "punctured":
            x1, x2 = mpmath.log(abs(a)), mpmath.log(abs(b))
            dy = mpmath.arg(a / b)
            s = mpmath.sqrt((x1 - x2) ** 2 + dy ** 2) / (2 * mpmath.sqrt(x1 * x2))
        elif kind == "annulus":
            log_r = mpmath.log(mpmath.mpf(r))
            big_l = -log_r
            t1 = mpmath.pi * (mpmath.log(abs(a)) - log_r) / big_l
            t2 = mpmath.pi * (mpmath.log(abs(b)) - log_r) / big_l
            ds = mpmath.pi * mpmath.arg(a / b) / big_l
            s = mpmath.sqrt((mpmath.sinh(ds / 2) ** 2 + mpmath.sin((t1 - t2) / 2) ** 2)
                            / (mpmath.sin(t1) * mpmath.sin(t2)))
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
        return float(mpmath.asinh(s))


def distance_row(kind: str, r: float | None, p, z) -> np.ndarray:
    """Float64 distances between ``p`` and ``z`` (broadcast), same formulas."""
    p = np.asarray(p, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if kind == "disk":
        m1, m2 = np.abs(p), np.abs(z)
        s = np.abs(z - p) / np.sqrt((1 - m1) * (1 + m1) * (1 - m2) * (1 + m2))
    elif kind == "halfplane":
        s = np.abs(z - p) / (2 * np.sqrt(p.real * z.real))
    elif kind == "punctured":
        x1, x2 = np.log(np.abs(p)), np.log(np.abs(z))
        s = np.hypot(x1 - x2, np.angle(p / z)) / (2 * np.sqrt(x1 * x2))
    elif kind == "annulus":
        big_l = -math.log(r)
        t1 = np.pi * (np.log(np.abs(p)) - math.log(r)) / big_l
        t2 = np.pi * (np.log(np.abs(z)) - math.log(r)) / big_l
        ds = np.pi * np.angle(p / z) / big_l
        # sin measured from the nearer wall keeps its digits at either edge
        wall1 = np.sin(np.minimum(t1, np.pi - t1))
        wall2 = np.sin(np.minimum(t2, np.pi - t2))
        s = np.sqrt((np.sinh(ds / 2) ** 2 + np.sin((t1 - t2) / 2) ** 2) / (wall1 * wall2))
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    return np.arcsinh(s)


def inside(kind: str, r: float | None, z) -> np.ndarray:
    """Membership in the open catalog domain."""
    z = np.asarray(z, dtype=complex)
    m = np.abs(z)
    if kind == "disk":
        return m < 1
    if kind == "halfplane":
        return z.real < 0
    if kind == "punctured":
        return (m > 0) & (m < 1)
    return (m > r) & (m < 1)


def deck_self_distance(kind: str, r: float | None, c: complex) -> float:
    """Distance from a lift of ``c`` to its nearest deck translate.

    A ball of radius R about ``c`` wraps the hole exactly when 2R exceeds
    this value; it is infinite on the simply connected domains.
    """
    if kind == "annulus":
        big_l = -math.log(r)
        theta = math.pi * (math.log(abs(c)) - math.log(r)) / big_l
        return math.asinh(math.sinh(math.pi ** 2 / big_l) / math.sin(theta))
    if kind == "punctured":
        return math.asinh(math.pi / abs(math.log(abs(c))))
    return math.inf


def self_check(rng: np.random.Generator) -> list[str]:
    """Problems found in the oracle itself; an empty list means trusted."""
    problems = []

    def expect(label, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{label}: got {got!r}, expected {want!r} +- {tol:g}")

    expect("disk 0..1/2", exact_distance("disk", None, 0j, 0.5 + 0j), HALF_LOG3, 1e-15)
    s = math.sqrt(0.1)
    expect("annulus core", exact_distance("annulus", 0.1, s + 0j, -s + 0j),
           ANNULUS_CORE_HALF, 1e-14)
    for r, p, q, r_half, pt_half, value, decimals in COUNTEREXAMPLES:
        # Rounded inputs: the quoted value only has to lie within the range
        # the distance takes over the corners of the rounding box.
        corners = [exact_distance("annulus", r + e * r_half,
                                  p + complex(a, b) * pt_half, q + complex(c, d) * pt_half)
                   for e, a, b, c, d in itertools.product((-1, 1), repeat=5)]
        tol = 0.5 * 10.0 ** -decimals
        if not min(corners) - tol <= value <= max(corners) + tol:
            problems.append(f"Annulus({r}) counterexample: {value} outside "
                            f"[{min(corners)!r}, {max(corners)!r}]")
    # the half-plane image of the disk, and the float64 rows against mpmath
    with mpmath.workdps(DIGITS):
        p, q = 0.3 - 0.4j, -0.55 + 0.2j
        hp = [complex((z + 1) / (z - 1)) for z in (p, q)]
        expect("disk vs half-plane", exact_distance("disk", None, p, q),
               exact_distance("halfplane", None, hp[0], hp[1]), 1e-12)
    cases = [("disk", None), ("halfplane", None), ("punctured", None),
             ("annulus", 0.05), ("annulus", 0.3), ("annulus", 0.7)]
    for kind, r in cases:
        lo = 0.0 if r is None else math.log(r)
        for _ in range(20):
            if kind == "halfplane":
                pts = -np.exp(rng.uniform(-4, 1, 2)) + 1j * rng.uniform(-3, 3, 2)
            else:
                mods = np.exp(rng.uniform(lo if r else -5, 0, 2) * 0.98)
                pts = mods * np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
            p, q = complex(pts[0]), complex(pts[1])
            want = exact_distance(kind, r, p, q)
            got = float(distance_row(kind, r, p, np.array([q]))[0])
            expect(f"float row {kind} {r}", got, want, 1e-11 * max(1.0, want))
    return problems
