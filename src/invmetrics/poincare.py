"""The unit-disk metric: distance, geodesics, and Euclidean ball shapes.

The normalization is the half-log form

    rho(z, w) = atanh |(z - w) / (1 - z conj(w))|

(curvature -4, unit density at the origin).  Every other module follows
this convention.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import OutOfDomain, ValidationError
from .mobius import as_finite


def check_in_disk(z) -> complex:
    z = as_finite(z)
    if abs(z) >= 1.0:
        raise OutOfDomain(f"point not strictly inside the unit disk: {z!r}")
    return z


# Each catalog kernel states next to it a forward error bound, to first
# order in U (README, numerical design notes).  The bounds assume +, -, *, /
# and sqrt correctly rounded, np.abs of a complex and np.hypot within 2 ulp,
# and every other ufunc they read, and math.log, within 4 ulp.
U = 2.0 ** -53
NEAR = 1e-3  # abs2_minus adds exact parts where | |z| - c | < NEAR c


def poincare_distance(z, w) -> float:
    """Hyperbolic distance between two points of the open unit disk."""
    return float(rho_vec(check_in_disk(z), check_in_disk(w)))


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitting constant for float64


def _square(a):
    """a*a as three floats whose sum is exact (Dekker's split a = hi + lo)."""
    hi = _SPLIT * a - (_SPLIT * a - a)
    lo = a - hi
    return hi * hi, 2.0 * hi * lo, lo * lo


def abs2_minus(z, c, m=None):
    """|z|^2 - c^2 without the cancellation of the naive difference; c is a
    radius, or a column of radii (shape (k,) + (1,) * z.ndim) for k rows of
    results, and m is np.abs(z) where the caller has it.

    (|z| - c)(|z| + c) keeps twelve digits unless |z| is within 1e-3 of c.
    There the nine exact parts of the three squares are added with
    error-free two-sums (Ogita, Rump and Oishi's Sum2), as accurately as
    double-double arithmetic would: a point one float step from the
    circle still gets its gap to nearly full relative precision.
    """
    if m is None:
        m = np.abs(z)
    gap = m - c
    out = gap * (m + c)
    near = np.abs(gap) < NEAR * c
    if np.count_nonzero(near):
        out = np.asarray(out)
        z = np.asarray(z, dtype=complex)
        if near.ndim == z.ndim:
            zn, cn = z[near], c
        else:  # a column of radii: one row of entries per radius
            i = np.flatnonzero(near)
            zn, cn = z.reshape(-1)[i % z.size], np.ravel(c)[i // z.size]
        terms = (*_square(zn.real), *_square(zn.imag), *(-t for t in _square(cn)))
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


def asinh_error(s, ds, d) -> float:
    """Error bound of d = asinh(s) from an s within ds of the exact one."""
    return ds / math.hypot(1.0, max(0.0, s - ds)) + 8.0 * U * d


def _rim(z):
    """(|z|, a lower bound on g = 1 - |z|^2, a bound on the relative error
    of g as ``rho_vec`` computes it): 7U + 4U m (1 + m) / g off the circle,
    as the 4U of np.abs(z) is magnified by m - 1, and 7U + 64.1U^2 (1 + m^2)
    / g within NEAR of it (Sum2), where (1 - m)(1 + m) is within 9U of g.
    The far form bounds either branch, so it is read wherever m is near
    the switch."""
    m = abs(z)
    g = (1.0 - m) * (1.0 + m)
    if abs(m - 1.0) >= 0.999 * NEAR:
        return m, g, 7.0 * U + 4.0 * U * m * (1.0 + m) / g
    g = g - 9.0 * U if g > 18.0 * U else max(-float(abs2_minus(z, 1.0)), sys.float_info.min)
    return m, g, 7.0 * U + 64.1 * U * U * (1.0 + m * m) / g


def rho_error(z, w, d, rounding=0.0) -> float:
    """Error bound of ``rho_vec``'s value d for one pair: s = sinh d is
    within 7.5U plus half of each g's relative error.  z and w are within
    ``rounding`` U (relative) of the exact points, which moves d by that
    times the density |z| / (1 - |z|^2)."""
    (mz, gz, ez), (mw, gw, ew) = _rim(complex(z)), _rim(complex(w))
    d = float(d)
    s = math.sinh(d)
    e = asinh_error(s, (7.5 * U + 0.5 * (ez + ew)) * s, d)
    return e + rounding * U * (mz / gz + mw / gw)


def halfplane_rho_vec(z, w):
    """Left half-plane Re z < 0 distance, no checks: sinh rho = |z - w| / (2 sqrt(Re z Re w)).

    The square roots are taken one by one: the product Re z Re w leaves
    the normal float range once both points are within about 1e-154 of
    the wall, and reaches 0 a little further in.  The quotient s itself
    overflows once they are within about 1e-308 of it (subnormal real
    parts); from s = 2^1023 on, asinh s = log 2s to far below a float step
    is taken in log form, log |z - w| - (log(-Re z) + log(-Re w)) / 2.
    z - w overflows once a coordinate passes 2^1021, and the denominator
    once both real parts pass 2^1022, however small s is.  In those rows s
    is formed from p = sqrt(-Re z) sqrt(-Re w), which cannot overflow, as
    2 |z/4 - w/4| / p (the quarters cannot overflow) or |z - w| / p / 2,
    and the log form, where s reaches 2^1023, reads log |z/4 - w/4| + log 4.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    with np.errstate(over="ignore"):
        top = np.abs(z - w)
        den = 2.0 * np.sqrt(-z.real) * np.sqrt(-w.real)
    big = den < top * 2.0 ** -1023
    huge = np.isinf(den)
    if not np.count_nonzero(big | huge):
        return np.arcsinh(top / den)
    over = np.isinf(top)
    huge |= over
    top = np.where(over, np.abs(0.25 * z - 0.25 * w), top)
    p = np.sqrt(-z.real) * np.sqrt(-w.real)
    with np.errstate(over="ignore"):
        s = np.where(huge, top / p * np.where(over, 2.0, 0.5), top / den)
    big = np.where(huge, s >= 2.0 ** 1023, big)
    d = np.arcsinh(s)
    log_top = np.log(np.where(big, top, 1.0)) + math.log(4.0) * over
    return np.where(big, log_top - 0.5 * (np.log(-z.real) + np.log(-w.real)), d)


def halfplane_rho_error(z, w, d) -> float:
    """Error bound of ``halfplane_rho_vec``'s value d for one pair: s is
    within 9U (-Re z is exact; where z - w or the denominator overflows,
    the quarters and the halving or doubling are exact but for
    coordinates below 2^-1020, far too small to move s).  Past s = 2^1022
    the value may come from the log form, in which |z - w| is within 4U
    (relative), each logarithm within 8U of its size, and the sum, the
    halving and the difference add U d; the bound there is the sum of
    both forms' bounds.  Where z - w overflows, adding log 4 adds
    U (|log |z - w|| + 2)."""
    z, w, d = complex(z), complex(w), float(d)
    try:
        top = abs(z - w)
    except OverflowError:  # |z - w| past the float range, its parts not
        top = math.inf
    a, b = math.sqrt(-z.real), math.sqrt(-w.real)
    over = math.isinf(top)
    if over:
        top = abs(0.25 * z - 0.25 * w)
        s = top / (a * b) * 2.0
    elif math.isinf(2.0 * a * b):
        s = top / (a * b) * 0.5
    else:
        s = top / (2.0 * a * b)
    if s < 2.0 ** 1022:
        return asinh_error(s, 9.0 * U * s, d)
    log_top = math.log(top) + over * math.log(4.0)
    extra = abs(log_top) + 2.0 if over else 0.0
    logs = 8.0 * abs(log_top) + 4.0 * (abs(math.log(-z.real)) + abs(math.log(-w.real)))
    return U * (13.0 + 9.0 * d + logs + extra)


def _log_sinh(x):
    """log sinh x for x >= 0 (-inf at 0), finite however large x is."""
    with np.errstate(divide="ignore"):
        return x + np.log(-np.expm1(-2.0 * x)) - math.log(2.0)


def geodesic_weights(d, t):
    """(log a, log b) with X(t) = a X(0) + b X(1) the constant-speed geodesic.

    X are the points of the hyperboloid model (curvature -1, where the
    distance is 2d), on which the geodesic through X(0) and X(1) is
    [sinh((1 - t) 2d) X(0) + sinh(t 2d) X(1)] / sinh(2d).  Both weights lie
    in [0, 1], a zero weight as log -inf, and a + b <= 1.
    """
    t = np.asarray(t, dtype=float)
    top = _log_sinh(2.0 * d)
    return _log_sinh((1.0 - t) * 2.0 * d) - top, _log_sinh(t * 2.0 * d) - top


def halfplane_geodesic(s, cot, d, t):
    """Upper half-plane geodesic in log-polar form, vectorized over t.

    The endpoints are u_k = exp(s[k] + i theta_k), k = 0, 1, given by
    s[k] and cot[k] = cot theta_k, at distance d.  Returns (s, cot theta) of
    the points at arclength t * d from u_0.  On the hyperboloid the point
    u = e^s (cos theta + i sin theta) has the null coordinates e^(+-s) / sin
    theta and the third coordinate cot theta, all linear in the points, so
    the first two are summed in log form: nothing overflows however large
    |s| grows, and sin theta keeps its digits next to the real axis.
    """
    log_a, log_b = geodesic_weights(d, t)
    # a dilation, an isometry, centers the pair on s = 0
    mid = 0.5 * (s[0] + s[1])
    s0, s1 = s[0] - mid, s[1] - mid
    # -log sin theta of the endpoints
    h0, h1 = math.log(math.hypot(1.0, cot[0])), math.log(math.hypot(1.0, cot[1]))
    plus = np.logaddexp(log_a + (s0 + h0), log_b + (s1 + h1))
    minus = np.logaddexp(log_a + (h0 - s0), log_b + (h1 - s1))
    return mid + 0.5 * (plus - minus), np.exp(log_a) * cot[0] + np.exp(log_b) * cot[1]


def poincare_ball_euclidean(center, radius: float):
    """Euclidean center and radius of the hyperbolic ball {rho(center,.) < radius}.

    Hyperbolic disks in this model are Euclidean disks with shifted
    centers; for center 0 the Euclidean radius is tanh(radius).  With
    t = tanh(radius), g = 1 - |c|^2 (``abs2_minus``) and
    q = sech^2(radius) + t^2 g, the centre is c sech^2(radius) / q and the
    radius t g / q.  q is the 1 - t^2 |c|^2 of the textbook form written
    as a sum of positive terms, so both keep their digits for a centre
    next to the rim and a large radius, where that difference cancels.
    """
    c = check_in_disk(center)
    if not isinstance(radius, numbers.Real) or math.isnan(radius):
        raise ValidationError(f"ball radius must be a real number: {radius!r}")
    if radius <= 0:
        raise OutOfDomain(f"ball radius must be positive: {radius!r}")
    t = math.tanh(radius)
    # sech^2 = 4e / (1 + e)^2 with e = exp(-2 radius), which underflows to 0
    # where cosh would overflow
    e = math.exp(-2.0 * radius)
    sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    g = -float(abs2_minus(c, 1.0))
    q = sech2 + t * t * g
    return c * sech2 / q, t * g / q
