"""The unit-disk metric: distance, geodesics, and Euclidean ball shapes.

The normalization is the half-log form

    rho(z, w) = atanh |(z - w) / (1 - z conj(w))|

(curvature -4, unit density at the origin).  Every other module follows
this convention.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfDomain
from .mobius import as_finite, disk_automorphism


def check_in_disk(z) -> complex:
    z = as_finite(z)
    if abs(z) >= 1.0:
        raise OutOfDomain(f"point not strictly inside the unit disk: {z!r}")
    return z


def poincare_distance(z, w) -> float:
    """Hyperbolic distance between two points of the open unit disk."""
    return float(rho_vec(check_in_disk(z), check_in_disk(w)))


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitting constant for float64


def _square(a):
    """a*a as three floats whose sum is exact (Dekker's split a = hi + lo)."""
    hi = _SPLIT * a - (_SPLIT * a - a)
    lo = a - hi
    return hi * hi, 2.0 * hi * lo, lo * lo


def abs2_minus(z, c):
    """|z|^2 - c^2 without the cancellation of the naive difference.

    (|z| - c)(|z| + c) keeps twelve digits unless |z| is within 1e-3 of c.
    There the nine exact parts of the three squares are added with
    error-free two-sums (Ogita, Rump and Oishi's Sum2), as accurately as
    double-double arithmetic would: a point one float step from the
    circle still gets its gap to nearly full relative precision.
    """
    z = np.asarray(z, dtype=complex)
    m = np.abs(z)
    gap = m - c
    out = np.asarray(gap * (m + c))
    near = np.abs(gap) < 1e-3 * c
    if near.any():
        zn = z[near]
        terms = (*_square(zn.real), *_square(zn.imag), *(-t for t in _square(np.float64(c))))
        total, err = terms[0], 0.0
        for t in terms[1:]:
            s = total + t
            b = s - total
            err = err + ((total - (s - b)) + (t - b))
            total = s
        out[near] = total + err
    return out


def rho_vec(z, w):
    """Vectorized distance; no domain checks, intended for rasters.

    Uses sinh rho = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)) with both
    factors from ``abs2_minus``, so nothing cancels: points within 1e-12
    of the rim keep their digits and large distances do not saturate.
    A point on or outside the rim is at infinite distance.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    gz = np.maximum(-abs2_minus(z, 1.0), 0.0)
    gw = np.maximum(-abs2_minus(w, 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arcsinh(np.abs(z - w) / np.sqrt(gz * gw))


def halfplane_rho_vec(z, w):
    """Left half-plane Re z < 0 distance, no checks: sinh rho = |z - w| / (2 sqrt(Re z Re w))."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.arcsinh(np.abs(z - w) / (2.0 * np.sqrt(z.real * w.real)))


def poincare_geodesic(z, w, t: float):
    """Constant-speed geodesic with gamma(0) = z, gamma(1) = w.

    For equal endpoints the curve is constant at z.
    """
    z = check_in_disk(z)
    w = check_in_disk(w)
    if z == w:
        return z
    move = disk_automorphism(z, 0.0)  # sends z to the origin
    w1 = move(w)
    r = abs(w1)
    s = math.tanh(t * math.atanh(r))
    point = (w1 / r) * s
    return move.inverse()(point)


def poincare_ball_euclidean(center, radius: float):
    """Euclidean center and radius of the hyperbolic ball {rho(center,.) < radius}.

    Hyperbolic disks in this model are Euclidean disks with shifted
    centers; for center 0 the Euclidean radius is tanh(radius).
    """
    c = check_in_disk(center)
    if radius <= 0:
        raise OutOfDomain(f"ball radius must be positive: {radius!r}")
    t = math.tanh(radius)
    m = abs(c) ** 2
    den = 1.0 - t * t * m
    return c * (1.0 - t * t) / den, t * (1.0 - m) / den
