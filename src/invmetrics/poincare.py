"""The unit-disk metric: distance, geodesics, and Euclidean ball shapes.

The normalization is the half-log form

    rho(z, w) = atanh |(z - w) / (1 - z conj(w))|

(curvature -4, unit density at the origin).  Every other module follows
this convention.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfDomain, ValidationError
from .mobius import as_finite


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


def abs2_minus(z, c, m=None):
    """|z|^2 - c^2 without the cancellation of the naive difference; m is
    np.abs(z) where the caller has it.

    (|z| - c)(|z| + c) keeps twelve digits unless |z| is within 1e-3 of c.
    There the nine exact parts of the three squares are added with
    error-free two-sums (Ogita, Rump and Oishi's Sum2), as accurately as
    double-double arithmetic would: a point one float step from the
    circle still gets its gap to nearly full relative precision.
    """
    z = np.asarray(z, dtype=complex)
    if m is None:
        m = np.abs(z)
    gap = m - c
    out = np.asarray(gap * (m + c))
    near = np.abs(gap) < 1e-3 * c
    if np.count_nonzero(near):
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
    """Left half-plane Re z < 0 distance, no checks: sinh rho = |z - w| / (2 sqrt(Re z Re w)).

    The square roots are taken one by one: the product Re z Re w leaves
    the normal float range once both points are within about 1e-154 of
    the wall, and reaches 0 a little further in.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.arcsinh(np.abs(z - w) / (2.0 * np.sqrt(-z.real) * np.sqrt(-w.real)))


def poincare_geodesic(z, w, t: float):
    """Constant-speed geodesic with gamma(0) = z, gamma(1) = w, 0 <= t <= 1.

    A 0-d call of ``Disk.geodesic``; for equal endpoints the curve is
    constant at z.
    """
    from .domains import Disk

    z = check_in_disk(z)
    w = check_in_disk(w)
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"geodesic parameter must lie in [0, 1]: {t!r}")
    if z == w:
        return z
    return complex(Disk().geodesic(z, w, t))


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
    centers; for center 0 the Euclidean radius is tanh(radius).
    """
    c = check_in_disk(center)
    if radius <= 0:
        raise OutOfDomain(f"ball radius must be positive: {radius!r}")
    t = math.tanh(radius)
    m = abs(c) ** 2
    den = 1.0 - t * t * m
    return c * (1.0 - t * t) / den, t * (1.0 - m) / den
