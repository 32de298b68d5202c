"""Domain catalog, raster grid domains, and universal-cover data.

Each catalog variant (unit disk, left half-plane, punctured disk,
annulus) is a class that owns its mathematics: membership, the exact
hyperbolic density, the lift of points to a model of its universal
cover, the model distance at the nearest deck translate, and the
constant-speed geodesic in that model.  The methods are vectorized and
do no membership checks; a scalar is a 0-d array.  The checked scalar entry
points (``contains``, ``density``) follow the classes.  Arbitrary bounded
domains are boolean occupancy grids.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import OutOfDomain, ParseError, Unsupported, ValidationError
from .mobius import as_finite, is_infinity
from .poincare import (
    NEAR,
    U,
    abs2_minus,
    asinh_error,
    geodesic_weights,
    halfplane_geodesic,
    halfplane_rho_error,
    halfplane_rho_vec,
    poincare_ball_euclidean,
    rho_error,
    rho_vec,
)

DECK_STEP = 2j * math.pi
TAU = 2.0 * math.pi
FRAME_MARGIN = 1.1  # frame extends 10% beyond the domain's bounding circle
# Most cells a raster frame may hold (4096 x 4096): about 20 times the largest
# frame the package's own sweeps build, the 881 x 881 frame at spacing 0.0025
MAX_FRAME_CELLS = 4096 ** 2
# A point that ``contains`` accepts can lie less than a float step inside a
# wall (0.6 * exp(1.1875i) in Annulus(0.6) has gap 4.7e-17).  Computed gaps
# are raised to this floor, far below the gaps of such points, which keeps
# the kernel finite: a product of two heights stays a normal float.
_MIN_GAP = 2.0 ** -500
# np.abs(z) is within a few float steps of |z|, so it can only put z on the
# wrong side of a circle it lies this close to (relative)
_ABS_SLACK = 2.0 ** -50

# Raster neighbourhoods, as ndimage.generate_binary_structure(2, 1) and (2, 2).
# scipy.ndimage is imported inside the functions that label, dilate or
# transform a raster: it costs about 0.3 s and 27 MB at import, which the
# scalar paths never need.
STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
STRUCT_8 = np.ones((3, 3), dtype=bool)
STRUCT_4.flags.writeable = STRUCT_8.flags.writeable = False
# Spacing of the raster whose kept cell centres check catalog maps
SAMPLE_SPACING = 0.04


def _array(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


# ---------------------------------------------------------------------------
# Models of the universal cover
# ---------------------------------------------------------------------------

class Lift(NamedTuple):
    """Lifts w = log z of covered-domain points, as ``distance`` reads them.

    ``outer`` and ``inner`` are the gaps from Re w to the walls 0 and log r
    (None on the punctured disk), computed from |z| to keep their digits.
    ``height`` is the height in the half-plane model up to a common factor:
    sin(pi * nearer gap / L) on the annulus, L = log(1/r); ``outer`` else.
    """

    im: np.ndarray
    outer: np.ndarray
    inner: np.ndarray | None
    height: np.ndarray


def lift_row(w, i):
    """Row i of a batched ``lift``: a ``Lift`` of scalars, or a model point;
    an index array i gives the batch of those rows."""
    if isinstance(w, Lift):
        return Lift(w.im[i], w.outer[i], None if w.inner is None else w.inner[i], w.height[i])
    return w[i]


def lift_pair(domain: "CatalogDomain", pq: np.ndarray, m=None):
    """(wp, wq): the rows of one ``lift`` call on the 2-element array
    pq = [p, q], in Python scalars; m is np.abs(pq) where the caller has it."""
    w = domain.lift(pq, m)
    if not isinstance(w, Lift):
        return tuple(w.tolist())
    inner = (None, None) if w.inner is None else w.inner.tolist()
    return tuple(map(Lift, w.im.tolist(), w.outer.tolist(), inner, w.height.tolist()))


def _log_ratio(z, c, m) -> np.ndarray:
    """log(|z| / c), m = np.abs(z), with full relative accuracy next to the
    circle |z| = c: log1p of the error-free |z|^2 / c^2 - 1 within a factor
    2 of c, log of the ratio elsewhere.  c is a radius, or a column of radii
    (shape (walls,) + (1,) * m.ndim) for one row of ratios per circle, all
    in one pass.  Each point's logarithm is taken by the one branch that it
    reads."""
    ratio = np.asarray(m / c)
    near = (ratio > 0.5) & (ratio < 2.0)
    count = np.count_nonzero(near)
    if count == near.size:
        return 0.5 * np.log1p(abs2_minus(z, c, m) / (c * c))
    # log(0) = -inf at z = 0 is the only warning either branch can meet, so
    # the error state is switched only where some |z| is 0
    with np.errstate(divide="ignore") if np.count_nonzero(m) < m.size else nullcontext():
        out = np.log(ratio, out=ratio, where=~near)
    if count:
        x = abs2_minus(z, c, m)
        x /= c * c
        np.multiply(np.log1p(x, out=x, where=near), 0.5, out=out, where=near)
    return out


def _gap_error(g: float) -> float:
    """Error bound of a gap g = |log(|z| / c)| from ``_log_ratio``: 17U g
    (log1p's condition number is at most 2.17 there) plus 5U from
    np.abs(z), or plus 65U^2 within NEAR of the circle (Sum2)."""
    return 17.0 * U * g + (5.0 * U if g >= 0.999 * NEAR else 65.0 * U * U)


def _hypot_error(x, dx, y, dy, h) -> float:
    """Error bound of h = hypot(x, y) from an x within dx and a y within
    dy: a leg moves h by at most its error times min(1, (2|leg| + error) / h)."""
    if not h:
        return dx + dy
    return (dx * min(1.0, (2.0 * abs(x) + dx) / h) + dy * min(1.0, (2.0 * abs(y) + dy) / h)
            + 4.0 * U * h)


def _inside(z, m, c: float) -> np.ndarray:
    """|z| < c, read off m = np.abs(z) but never true on or past the circle.

    np.abs can round a point on or just past the circle below c; where m
    is that close to c, the exact sign of |z|^2 - c^2 decides instead.
    Points np.abs rounds up to c or beyond stay outside.
    """
    out = m < c
    edge = out & (m >= c - _ABS_SLACK * c)
    if np.count_nonzero(edge):
        out = np.array(out)
        out[edge] = abs2_minus(_array(z)[edge], c) < 0.0
    return out


def _between(z, m, lo: float, hi: float) -> np.ndarray:
    """lo < |z| < hi, as ``_inside`` on both circles in one pass: when some
    point is not clear of both circles by the slack, a point within the
    slack of either circle is decided by both exact signs."""
    clear = (m > lo + _ABS_SLACK * lo) & (m < hi - _ABS_SLACK * hi)
    if np.count_nonzero(clear) == clear.size:
        return clear
    out = (m > lo) & (m < hi)
    edge = out & ~clear
    if np.count_nonzero(edge):
        out = np.array(out)
        ze = _array(z)[edge]
        out[edge] = (abs2_minus(ze, lo) > 0.0) & (abs2_minus(ze, hi) < 0.0)
    return out


def _deck_offset(wp: Lift, wq: Lift) -> np.ndarray:
    """Im(wp - wq) reduced to the nearest deck translate, |dy| <= pi."""
    dy = wp.im - wq.im
    return dy - TAU * np.rint(dy / TAU)


def _offset(wp: Lift, wq: Lift):
    """(dy, error bound) of one pair's ``_deck_offset``, in floats: arctan2's
    8U on each angle, the difference, and a reduction only when
    |Im wp| + |Im wq| > pi."""
    p, q = float(wp.im), float(wq.im)
    dy = p - q
    return dy - TAU * round(dy / TAU), 12.0 * U * (abs(p) + abs(q))


def _left_halfplane_geodesic(wp: complex, wq: complex, d, t) -> np.ndarray:
    """Points at arclength t * d on the geodesic of Re w < 0 from wp to wq.

    The real parts must carry the digits of the gaps to the wall Re w = 0.
    """
    # u = -i w lies in the upper half-plane: log |u| and cot arg u = Re u / Im u
    s, cot = halfplane_geodesic((math.log(abs(wp)), math.log(abs(wq))),
                                (wp.imag / -wp.real, wq.imag / -wq.real), d, t)
    # w = i u = e^s sin(arg u) (i cot(arg u) - 1)
    return np.exp(s) / np.hypot(1.0, cot) * (1j * cot - 1.0)


class BallHull(NamedTuple):
    """Closed-form hull of a catalog ball B(c, R), from a class's
    ``ball_hull``: the Euclidean disk |z - center| <= radius, cut, where
    ``cut`` = (lo, hi, direction, half_width) is given, by the annular sector
    lo <= |z| <= hi, |arg(z / direction)| <= half_width (no angular cut
    once the half-width reaches pi).

    ``contains`` widens each bound for rounding by 1e-9 of its size and of
    the size of what it is compared with (|center| for the disk, pi for an
    angle), far more than the rounding of the bounds, of the points and of
    the distance kernel, which all stay within some ulps of the
    coordinates.  An angular cut is dropped where the widened half-width
    comes within that margin of pi.
    """

    center: complex
    radius: float
    cut: tuple | None = None

    @property
    def reach(self) -> float:
        """The disk's radius as ``contains`` widens it."""
        return self.radius + 1e-9 * (self.radius + abs(self.center))

    def contains(self, x, y) -> np.ndarray:
        """Whether the widened hull holds the points x + iy, from real
        arrays x and y that broadcast (a row and a column of a frame).

        Each circle is tested on the coordinates divided by its radius, so
        no square leaves the float range but far outside the circle, where
        it overflows to inf (nan for the origin under a radius of 0).
        """
        reach, (cx, cy) = self.reach, (self.center.real, self.center.imag)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inside = np.square((x - cx) / reach) + np.square((y - cy) / reach) <= 1.0
            if self.cut is None:
                return inside
            lo, hi, direction, half_width = self.cut
            lo, hi = lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)
            inside &= np.square(x / hi) + np.square(y / hi) <= 1.0
            if lo > 0.0:
                inside &= np.square(x / lo) + np.square(y / lo) >= 1.0
        margin = 1e-9 * (half_width + math.pi)
        if half_width + 2.0 * margin < math.pi:
            # |arg(z / direction)| <= half_width + margin, read as
            # |z| sin(half_width + margin - |arg|) >= 0, which is at least
            # |z| sin(margin) inside the unwidened cut
            sin, cos = math.sin(half_width + margin), math.cos(half_width + margin)
            a, b = direction.real, direction.imag
            inside &= x * (a * sin) + y * (b * sin) >= np.abs(y * a - x * b) * cos
        return inside


# ---------------------------------------------------------------------------
# Catalog variants
# ---------------------------------------------------------------------------
#
# The covered domains (punctured disk, annulus) are covered through exp:
# their model is the left half-plane, resp. the band log r < Re w < 0, the
# deck group is generated by w -> w + ``deck_step``, and ``distance`` is
# the model distance to the nearest translate, in closed form.  Sending
# the model to the upper half-plane, where
# sinh d = |u - v| / (2 sqrt(Im u Im v)), gives with the offset
# dy = Im(wp - wq) reduced to the nearest translate, |dy| <= pi:
#
# * punctured disk: sinh d = |dw| / (2 sqrt(Re wp Re wq));
# * annulus: sinh d = sqrt(sinh^2(k dy) + sin^2(k dx)) / sqrt(sin t_p sin t_q),
#   with k = pi / (2L), dx = Re(wp - wq) and t the model angle pi(Re w - log r)/L.
#
# The disk and the half-plane are their own models, with no deck group.
#
# ``geodesic(p, q, t)`` returns the points at arclength t d, with d the
# pair's ``distance``, on the model geodesic between the lifts that
# ``distance`` reads, projected back to the domain.

@dataclass(frozen=True)
class Disk:
    """The open unit disk."""

    deck_step = 0j

    def contains(self, z, m=None):
        return _inside(z, np.abs(_array(z)) if m is None else m, 1.0)

    def density(self, z):
        return 1.0 / (1.0 - np.abs(_array(z)) ** 2)

    def lift(self, z, m=None):
        return _array(z)

    def distance(self, wp, wq):
        return rho_vec(wp, wq)

    distance_error = staticmethod(rho_error)

    def ball_hull(self, c: complex, radius: float) -> BallHull:
        """The ball itself, a Euclidean disk."""
        return BallHull(*poincare_ball_euclidean(c, radius))

    def geodesic(self, p: complex, q: complex, t):
        # on the hyperboloid, z = X / (1 + X0), X = (1 + |z|^2, 2z) / (1 - |z|^2);
        # every term of the denominator is positive (a + b <= 1)
        a, b = np.exp(geodesic_weights(self.distance(p, q), t))
        gp, gq = -abs2_minus(p, 1.0), -abs2_minus(q, 1.0)
        return (a * p / gp + b * q / gq) / (0.5 * (1.0 - a - b) + a / gp + b / gq)


@dataclass(frozen=True)
class HalfPlane:
    """The left half-plane Re z < 0."""

    deck_step = 0j

    def contains(self, z, m=None):
        return _array(z).real < 0.0

    def density(self, z):
        return 1.0 / (2.0 * np.abs(_array(z).real))

    def lift(self, z, m=None):
        return _array(z)

    def distance(self, wp, wq):
        return halfplane_rho_vec(wp, wq)

    distance_error = staticmethod(halfplane_rho_error)

    def ball_hull(self, c: complex, radius: float) -> BallHull:
        """The ball itself: under the density 1/(2|Re z|) the ball of radius
        R about x + iy is the disk with centre x cosh 2R + iy and radius
        |x| sinh 2R (infinite past R of about 355)."""
        x, y = c.real, c.imag
        with np.errstate(over="ignore"):
            cosh, sinh = float(np.cosh(2.0 * radius)), float(np.sinh(2.0 * radius))
        return BallHull(complex(x * cosh, y), abs(x) * sinh)

    def geodesic(self, p: complex, q: complex, t):
        return _left_halfplane_geodesic(p, q, self.distance(p, q), t)


@dataclass(frozen=True)
class PuncturedDisk:
    """The unit disk minus the origin."""

    deck_step = DECK_STEP

    def contains(self, z, m=None):
        return _between(z, np.abs(_array(z)) if m is None else m, 0.0, 1.0)

    def density(self, z):
        m = np.abs(_array(z))
        return 1.0 / (2.0 * m * np.log(1.0 / m))

    def wall_gaps(self, z: np.ndarray, m=None) -> np.ndarray:
        """The costly part of ``lift`` on a complex array z: the gap
        log(1/|z|) from Re w to the wall, the one row of an array shaped
        (1,) + z.shape."""
        return np.maximum(-_log_ratio(z, 1.0, np.abs(z) if m is None else m), _MIN_GAP)[None]

    def lift_from_gaps(self, x, y, gaps) -> Lift:
        """The lift of the points x + iy whose ``wall_gaps`` are ``gaps``."""
        return Lift(np.arctan2(y, x), gaps[0], None, gaps[0])

    def lift(self, z, m=None) -> Lift:
        z = _array(z)
        return self.lift_from_gaps(z.real, z.imag, self.wall_gaps(z, m))

    def distance(self, wp: Lift, wq: Lift):
        dw = np.hypot(wq.outer - wp.outer, _deck_offset(wp, wq))
        return np.arcsinh(dw / (2.0 * np.sqrt(wp.height * wq.height)))

    def distance_error(self, wp: Lift, wq: Lift, d) -> float:
        """Error bound of ``distance``'s value d for one pair, from each
        gap's ``_gap_error`` and the offset's (``_offset``); the product,
        square root and quotient add 2.5U."""
        op, oq = float(wp.outer), float(wq.outer)
        dx, (dy, ddy) = oq - op, _offset(wp, wq)
        ep, eq = _gap_error(op), _gap_error(oq)
        dw = math.hypot(dx, dy)
        ddw = _hypot_error(dx, ep + eq + U * abs(dx), dy, ddy, dw)
        root = 2.0 * math.sqrt(op * oq)
        rel = 0.5 * (ep / op + eq / oq) + 2.5 * U
        return asinh_error(dw / root, (ddw + rel * dw) / root, float(d))

    def ball_hull(self, c: complex, radius: float) -> BallHull:
        """The disk's ball about c (the inclusion into the disk does not
        increase distances), cut by the projection of the model ball: with
        x = log|c| = -g, the ball of radius R about x in Re w < 0 is the disk
        with centre x cosh 2R and radius g sinh 2R, so |z| lies in
        [exp(x e^2R), exp(x e^-2R)] and |arg(z / c)| <= g sinh 2R."""
        g = float(self.lift(c).outer)
        with np.errstate(over="ignore"):
            grow = float(np.exp(2.0 * radius))
            half_width = g * float(np.sinh(2.0 * radius))
        return BallHull(*poincare_ball_euclidean(c, radius),
                        (math.exp(-g * grow), math.exp(-g / grow), c / abs(c), half_width))

    def geodesic(self, p: complex, q: complex, t):
        wp, wq = lift_pair(self, np.array([p, q]))
        # q's lift at the nearest deck translate, the pair centered on Im w = 0
        dy = float(_deck_offset(wp, wq))
        w = _left_halfplane_geodesic(complex(-wp.outer, 0.5 * dy), complex(-wq.outer, -0.5 * dy),
                                     self.distance(wp, wq), t)
        return np.exp(w + 1j * (float(wp.im) - 0.5 * dy))

    def deck_loop_length(self, lifts: Lift) -> float:
        """Least model distance from a lift to its translate by ``deck_step``."""
        # sinh d(w, w + 2 pi i) = pi / |Re w|
        return math.asinh(math.pi / float(lifts.outer.max()))


@dataclass(frozen=True)
class Annulus:
    """The round annulus r < |z| < 1."""

    r: float
    deck_step = DECK_STEP

    def __post_init__(self):
        if not (isinstance(self.r, numbers.Real) and 0.0 < self.r < 1.0):
            raise ValidationError(f"annulus inner radius must be a real number in (0, 1): "
                                  f"{self.r!r}")

    def contains(self, z, m=None):
        return _between(z, np.abs(_array(z)) if m is None else m, self.r, 1.0)

    def density(self, z):
        m = np.abs(_array(z))
        big_l = math.log(1.0 / self.r)
        return math.pi / (2.0 * m * big_l * np.sin(math.pi * np.log(m) / math.log(self.r)))

    def wall_gaps(self, z: np.ndarray, m=None) -> np.ndarray:
        """The costly part of ``lift`` on a complex array z: the gaps from
        Re w to the walls, row 0 the outer gap log(1 / |z|), row 1 the
        inner gap log(|z| / r), of an array shaped (2,) + z.shape."""
        m = np.abs(z) if m is None else m
        # both walls in one pass, row 0 read off as log(|z| / 1) <= 0
        gaps = _log_ratio(z, np.array((1.0, self.r)).reshape((2,) + (1,) * m.ndim), m)
        gaps[0] *= -1.0
        return np.maximum(gaps, _MIN_GAP, out=gaps)

    def lift_from_gaps(self, x, y, gaps) -> Lift:
        """The lift of the points x + iy whose ``wall_gaps`` are ``gaps``."""
        outer, inner = gaps
        scale = math.pi / -math.log(self.r)
        return Lift(np.arctan2(y, x), outer, inner, np.sin(scale * np.minimum(inner, outer)))

    def lift(self, z, m=None) -> Lift:
        z = _array(z)
        return self.lift_from_gaps(z.real, z.imag, self.wall_gaps(z, m))

    def distance(self, wp: Lift, wq: Lift):
        dy = _deck_offset(wp, wq)
        k = math.pi / (2.0 * -math.log(self.r))
        # Re(wp - wq), read off the wall the pair is nearer to
        dx = np.where(wp.inner + wq.inner < wp.outer + wq.outer,
                      wp.inner - wq.inner, wq.outer - wp.outer)
        a = k * abs(dy)
        heights = wp.height * wq.height
        # below a = 350 s cannot overflow (heights > 2^-1016); |dy| <= pi keeps
        # every a there when k pi < 349, r < e^(-pi^2 / 698) = 0.98596 (the
        # unit of margin covers the rounding of dy and a)
        if k * math.pi < 349.0:
            return np.arcsinh(np.hypot(np.sinh(a), np.sin(k * dx)) / np.sqrt(heights))
        with np.errstate(over="ignore"):
            d = np.arcsinh(np.hypot(np.sinh(a), np.sin(k * dx)) / np.sqrt(heights))
        # past a = 350, asinh s = a - log(heights) / 2 to far below a float step
        big = a >= 350.0
        if np.count_nonzero(big):
            d = np.where(big, a - 0.5 * np.log(heights), d)
        return d

    def distance_error(self, wp: Lift, wq: Lift, d) -> float:
        """Error bound of ``distance``'s value d for one pair.  k is within
        10U and multiplies each lift's angle and gap errors: a = k |dy| is
        within k ddy + 11U a, b = k dx within k ddx + 12U |b|.  A height
        sin(pi g / L) is within 19U + error(g) / g.  Past a = 350 the value
        a - log(heights) / 2 is within da, half the heights' error and
        9U d."""
        ip, iq, op, oq, d = map(float, (wp.inner, wq.inner, wp.outer, wq.outer, d))
        k = math.pi / (2.0 * -math.log(self.r))
        # Re(wp - wq), read off the wall the pair is nearer to
        cp, cq = (ip, iq) if ip + iq < op + oq else (-op, -oq)
        dy, ddy = _offset(wp, wq)
        a, b = k * abs(dy), k * (cp - cq)
        da = k * ddy + 11.0 * U * a
        db = k * (_gap_error(abs(cp)) + _gap_error(abs(cq))) + 12.0 * U * abs(b)
        gp, gq = min(ip, op), min(iq, oq)
        rel = 0.5 * (_gap_error(gp) / gp + _gap_error(gq) / gq) + 21.5 * U
        if a >= 350.0:
            return da + rel + 9.0 * U * d
        root = math.sqrt(float(wp.height) * float(wq.height))
        x, y = math.sinh(a), math.sin(b)
        h = math.hypot(x, y)
        # cosh a <= sinh a + 1
        dh = _hypot_error(x, (x + 1.0) * da + 8.0 * U * x, y, db + 8.0 * U * abs(y), h)
        return asinh_error(h / root, (dh + rel * h) / root, d)

    def deck_loop_length(self, lifts: Lift) -> float:
        """Least model distance from a lift to its translate by ``deck_step``."""
        # sinh d(w, w + 2 pi i) = sinh(pi^2 / L) / sin t, least where sin t is
        # largest; past float range asinh(sinh(a) / h) = a - log h
        a = math.pi ** 2 / -math.log(self.r)
        h = float(lifts.height.max())
        return math.asinh(math.sinh(a) / h) if a < 700.0 else a - math.log(h)

    def ball_hull(self, c: complex, radius: float) -> BallHull:
        """The disk's ball about c (the inclusion into the disk does not
        increase distances), cut by the projection of the model ball.

        u = exp(i scale (log z - log r)), scale = pi / L, sends the band
        to the upper half-plane, arg u = scale * inner gap and
        log |u| = -scale arg z.  A ray arg u = theta is the curve at signed
        distance asinh(cot theta) (density 1/Im u) from the imaginary axis,
        so the ball of radius R (2R in that density) about u_c holds the
        rays with signed distances within 2R of c's; its Euclidean disk,
        for |u_c| = 1, has centre (cos theta_c, sin theta_c cosh 2R) and
        radius sin theta_c sinh 2R, so log |u| lies within
        asinh(sin theta_c sinh 2R) of 0.
        """
        w = self.lift(c)
        scale = math.pi / -math.log(self.r)
        # cot theta_c from the nearer wall, as ``geodesic`` reads it
        delta = math.asinh(math.copysign(1.0 / math.tan(scale * float(min(w.inner, w.outer))),
                                         float(w.outer - w.inner)))
        with np.errstate(over="ignore"):
            # the nearest rays to either wall: theta = arctan2(1, sinh(delta +- 2R))
            # from the inner wall, and pi - theta from the outer one
            inner = float(np.arctan2(1.0, np.sinh(delta + 2.0 * radius)))
            outer = float(np.arctan2(1.0, np.sinh(2.0 * radius - delta)))
            half_width = float(np.arcsinh(float(w.height) * np.sinh(2.0 * radius))) / scale
        return BallHull(*poincare_ball_euclidean(c, radius),
                        (math.exp((inner - math.pi) / scale), math.exp(-outer / scale),
                         c / abs(c), half_width))

    def geodesic(self, p: complex, q: complex, t):
        # u = exp(i scale (w - log r)) sends the band onto the upper half-plane,
        # so log u = -scale Im w + i theta, theta = scale * inner gap, is kept
        # in place of u, whose modulus overflows on thin annuli
        wp, wq = lift_pair(self, np.array([p, q]))
        scale = math.pi / -math.log(self.r)
        # q's lift at the nearest deck translate, the pair centered on Im w = 0
        dy = float(_deck_offset(wp, wq))

        def cot(w: Lift) -> float:
            # from the nearer wall: cot(pi - x) = -cot x
            return math.copysign(1.0 / math.tan(scale * float(min(w.inner, w.outer))),
                                 float(w.outer - w.inner))

        s, cot_t = halfplane_geodesic((-0.5 * scale * dy, 0.5 * scale * dy), (cot(wp), cot(wq)),
                                      self.distance(wp, wq), t)
        # Re w = -(outer gap) = -(pi - theta) / scale
        return np.exp(-np.arctan2(1.0, -cot_t) / scale
                      + 1j * (float(wp.im) - 0.5 * dy - s / scale))


# ---------------------------------------------------------------------------
# Grid domains
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class GridDomain:
    """Bounded domain sampled on a square grid of cell centers.

    ``mask[iy, ix]`` is True when the center ``origin + spacing*(ix + iy*1j)``
    belongs to the domain.  Row 0 is the minimal-imaginary row.  The True
    cells must form a single 4-connected component and the border ring must
    be False, so the domain is bounded strictly inside the frame.

    A grid is immutable (its fields cannot be reassigned and its mask is a
    read-only copy), so the caches keyed on it by identity (graph,
    dictionary, modulus system, cached properties) never go stale.

    The grid caches, for as long as it lives, the per-cell arrays that take
    a labelling, dilation or distance transform to compute: ``complement``
    (its labels frame), ``near_complement`` and
    ``dist_to_complement_cells``, besides the small ``bounding_circle``.
    ``centers`` (from the origin and spacing) and ``cell_density_bound``
    (from the distance transform) take arithmetic alone and are not kept;
    each call computes the cells it is asked for, so a caller that needs
    a full frame reads it once.
    """

    origin: complex
    spacing: float
    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_finite(self.origin))
        if not (self.spacing > 0) or not math.isfinite(self.spacing):
            raise ValidationError(f"grid spacing must be positive: {self.spacing!r}")
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        if mask.ndim != 2 or mask.shape[0] < 3 or mask.shape[1] < 3:
            raise ValidationError(f"mask must be 2-D and at least 3x3: {mask.shape}")
        if not mask.any():
            raise ValidationError("mask has no domain cells")
        check_ring(mask)
        from scipy import ndimage

        _, count = ndimage.label(mask, structure=STRUCT_4)
        if count != 1:
            raise ValidationError(f"domain cells form {count} 4-connected components")
        object.__setattr__(self, "mask", mask)

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    def cell_center(self, ix: int, iy: int) -> complex:
        return self.origin + self.spacing * (ix + 1j * iy)

    def cell_index(self, z: complex):
        """Indices (ix, iy) of the cell containing z, or None outside the frame."""
        z = as_finite(z)
        ix = math.floor((z.real - self.origin.real) / self.spacing + 0.5)
        iy = math.floor((z.imag - self.origin.imag) / self.spacing + 0.5)
        if 0 <= ix < self.width and 0 <= iy < self.height:
            return ix, iy
        return None

    @property
    def centers(self) -> np.ndarray:
        """Complex cell centres of the whole frame, computed on each access."""
        return cell_centers(self.origin, self.spacing, np.arange(self.height)[:, None],
                            np.arange(self.width))

    @cached_property
    def complement(self):
        """``complement_holes(mask)``: (labels, holes) of the 8-connected complement."""
        return complement_holes(self.mask)

    # perfbench/workloads.py reads this tuple; the library reads ``complement``.
    @property
    def complement_labels(self):
        """(labels, count, unbounded_label) of the 8-connected complement,
        the unbounded component being the one holding the border ring."""
        labels, holes = self.complement
        return labels, len(holes) + 1, int(labels[0, 0])

    @cached_property
    def near_complement(self) -> np.ndarray:
        """Read-only band of cells that are 8-neighbours of a domain cell
        8-adjacent to the complement (or such a cell themselves)."""
        from scipy import ndimage

        edge = self.mask & ndimage.binary_dilation(~self.mask, STRUCT_8)
        band = ndimage.binary_dilation(edge, STRUCT_8)
        band.flags.writeable = False
        return band

    @cached_property
    def dist_to_complement_cells(self) -> np.ndarray:
        """Per-cell Euclidean distance (in cell units) to the nearest complement cell center."""
        from scipy import ndimage

        return ndimage.distance_transform_edt(self.mask)

    def cell_density_bound(self, index):
        """Upper bound on the hyperbolic density at the cell centres that the
        numpy index ``index`` picks from the frame (``...``: every cell);
        read only at domain cells.

        The density of any domain at z is at most 1/delta(z) with delta the
        distance to the complement (compare with the disk B(z, delta)).  The
        complement here is a union of closed cells, so the center-to-center
        transform is shrunk by half a cell diagonal to stay on the safe side.
        """
        delta = (self.dist_to_complement_cells[index] - math.sqrt(0.5)) * self.spacing
        return 1.0 / np.maximum(delta, 1e-300)

    @cached_property
    def bounding_circle(self):
        """(center, radius) of a circle containing every domain cell center."""
        cells = self.centers[self.mask]
        center = complex((cells.real.min() + cells.real.max()) / 2.0,
                         (cells.imag.min() + cells.imag.max()) / 2.0)
        radius = float(np.abs(cells - center).max()) + self.spacing
        return center, radius

    def contains(self, z, m=None):
        """Membership of the cells containing z; False outside the frame.
        m, the np.abs(z) the catalog classes read, is not needed."""
        z = _array(z)
        # a coordinate too large for an int casts to one outside the frame
        with np.errstate(invalid="ignore"):
            ix = np.floor((z.real - self.origin.real) / self.spacing + 0.5).astype(int)
            iy = np.floor((z.imag - self.origin.imag) / self.spacing + 0.5).astype(int)
        ok = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        out = np.zeros(z.shape, dtype=bool)
        out[ok] = self.mask[iy[ok], ix[ok]]
        return out

    def distance_to_complement(self, z) -> float:
        """Exact Euclidean distance from z to the union of complement cells."""
        z = as_finite(z)
        idx = self.cell_index(z)
        if idx is None or not self.mask[idx[1], idx[0]]:
            return 0.0
        ix, iy = idx
        reach = int(math.ceil(self.dist_to_complement_cells[iy, ix])) + 1
        x0, x1 = max(0, ix - reach), min(self.width, ix + reach + 1)
        y0, y1 = max(0, iy - reach), min(self.height, iy + reach + 1)
        window = ~self.mask[y0:y1, x0:x1]
        cy, cx = np.nonzero(window)
        half = 0.5 * self.spacing
        px = self.origin.real + self.spacing * (cx + x0)
        py = self.origin.imag + self.spacing * (cy + y0)
        dx = np.maximum(np.abs(z.real - px) - half, 0.0)
        dy = np.maximum(np.abs(z.imag - py) - half, 0.0)
        return float(np.sqrt(dx * dx + dy * dy).min())


def cell_centers(origin: complex, spacing: float, iy, ix):
    """Complex centres of the cells in rows ``iy`` and columns ``ix`` of the
    frame with this origin and spacing; the index arrays broadcast."""
    return (origin.real + spacing * ix) + 1j * (origin.imag + spacing * iy)


def disk_box(grid: GridDomain, center: complex, radius: float):
    """(rows, cols): slices of ``grid``'s frame that hold the cells of the
    box of the Euclidean disk |z - center| <= radius, widened by one cell
    against rounding (clipped below at 0; numpy clips the upper ends)."""
    lo = (center - radius * (1 + 1j) - grid.origin) / grid.spacing
    hi = (center + radius * (1 + 1j) - grid.origin) / grid.spacing
    return (slice(max(math.ceil(lo.imag) - 1, 0), max(math.floor(hi.imag) + 2, 0)),
            slice(max(math.ceil(lo.real) - 1, 0), max(math.floor(hi.real) + 2, 0)))


def hull_cells(grid: GridDomain, hull: BallHull):
    """(iy, ix): the mask cells of ``grid`` whose centres ``hull`` holds,
    row-major, as np.nonzero gives them; only the cells of the box of the
    hull's disk (``disk_box``) are tested, on their centres' coordinates
    as ``cell_centers`` computes them."""
    rows, cols = disk_box(grid, hull.center, hull.reach)
    ix, iy = np.arange(grid.width)[cols], np.arange(grid.height)[rows]
    keep = grid.mask[rows, cols] & hull.contains(grid.origin.real + grid.spacing * ix,
                                                 (grid.origin.imag + grid.spacing * iy)[:, None])
    iy, ix = np.nonzero(keep)
    return iy + rows.start, ix + cols.start


def check_ring(mask: np.ndarray):
    if mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any():
        raise ValidationError("cells touch the frame border ring")


def complement_holes(mask: np.ndarray):
    """(labels, holes) of a raster's 8-connected complement.

    The raster's cells must leave the frame's border ring free; that ring
    then lies in one complement component, the unbounded one.  ``labels``
    numbers the complement components from 1 (0 on the raster's cells), and
    ``holes`` lists, ascending, the labels of the bounded ones.  Holes are
    8-connected because the raster is read 4-connected (Rosenfeld,
    *Connectivity in digital pictures*, J. ACM 1970).
    """
    mask = np.asarray(mask, dtype=bool)
    check_ring(mask)
    from scipy import ndimage

    labels, count = ndimage.label(~mask, structure=STRUCT_8)
    ring = labels[0, 0]
    return labels, tuple(lab for lab in range(1, count + 1) if lab != ring)


def cell_pair_mask(mask_a: np.ndarray, mask_b: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """True at the cells of ``mask_a`` whose neighbour one move (dx, dy) away,
    dx columns and dy rows, is a cell of ``mask_b``; shaped like the masks.

    The grid bound's graph and the modulus Laplacian take their edges from
    here; the inner-distance builder reads the same pairs from an array of
    node numbers, a block of cells at a time.
    """
    h, w = mask_a.shape
    y0, x0 = max(0, -dy), max(0, -dx)
    # a move as long as the frame leaves no pair (and no negative slice end)
    ny, nx = max(0, h - abs(dy)), max(0, w - abs(dx))
    pair = np.zeros((h, w), dtype=bool)
    pair[y0:y0 + ny, x0:x0 + nx] = (mask_a[y0:y0 + ny, x0:x0 + nx]
                                    & mask_b[max(0, dy):max(0, dy) + ny,
                                             max(0, dx):max(0, dx) + nx])
    return pair


def cell_pairs(mask_a: np.ndarray, mask_b: np.ndarray, dx: int, dy: int):
    """Flat indices (i, j) of ``cell_pair_mask``'s cells i and their
    neighbours j = i + dy * width + dx; row-major in i."""
    i = np.flatnonzero(cell_pair_mask(mask_a, mask_b, dx, dy))
    return i, i + (dy * mask_a.shape[1] + dx)


# types.UnionType: isinstance against it runs in C, unlike typing.Union
CatalogDomain = Disk | HalfPlane | PuncturedDisk | Annulus
Domain = CatalogDomain | GridDomain


# ---------------------------------------------------------------------------
# Checked scalar entry points
# ---------------------------------------------------------------------------

def contains(domain: Domain, z) -> bool:
    """Membership test; total (INFINITY belongs to no domain here)."""
    if not isinstance(domain, Domain):
        raise Unsupported(f"unknown domain {domain!r}")
    if is_infinity(z):
        return False
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return False
    return bool(domain.contains(z))


def density(domain: Domain, z) -> float:
    """Hyperbolic density of a catalog domain at an interior point."""
    if isinstance(domain, GridDomain):
        raise Unsupported("grid domains expose only density bounds")
    z = as_finite(z)
    if not contains(domain, z):
        raise OutOfDomain(f"{z!r} not in {domain!r}")
    return float(domain.density(z))


# ---------------------------------------------------------------------------
# Rasterization and grid file format
# ---------------------------------------------------------------------------

def _frame_mask(predicate: Callable[[np.ndarray], np.ndarray],
                bounding_radius: float, spacing: float, center: complex = 0j):
    """(origin, cell centres, mask) of ``grid_from_predicate``'s frame."""
    for name, value in (("spacing", spacing), ("bounding radius", bounding_radius)):
        if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
            raise ValidationError(f"{name} must be positive and finite: {value!r}")
    half = FRAME_MARGIN * bounding_radius
    side = 2.0 * half / spacing
    # counted before anything is allocated; the quotient can overflow to inf
    n = int(round(side)) + 1 if math.isfinite(side) else math.inf
    if n * n > MAX_FRAME_CELLS:
        raise ValidationError(f"a frame of half-width {half!r} at spacing {spacing!r} "
                              f"exceeds the budget of {MAX_FRAME_CELLS} cells")
    origin = complex(center) - half * (1 + 1j)
    centers = cell_centers(origin, spacing, np.arange(n)[:, None], np.arange(n))
    # a copy, so the border ring can be cleared on a read-only result too
    mask = np.array(predicate(centers), dtype=bool)
    if mask.shape != centers.shape:
        raise ValidationError(f"the predicate must return one truth value per cell "
                              f"centre, shape {centers.shape}: got shape {mask.shape}")
    mask[0, :] = mask[-1, :] = False
    mask[:, 0] = mask[:, -1] = False
    return origin, centers, mask


def grid_from_predicate(predicate: Callable[[np.ndarray], np.ndarray],
                        bounding_radius: float,
                        spacing: float,
                        center: complex = 0j) -> GridDomain:
    """Rasterize {z : predicate(z)} on a frame with a 10% margin.

    ``predicate`` receives a complex ndarray of cell centers and returns a
    boolean array; a cell is a domain cell iff its center satisfies it.
    """
    origin, _, mask = _frame_mask(predicate, bounding_radius, spacing, center)
    return GridDomain(origin=origin, spacing=spacing, mask=mask)


def rasterize(domain: Domain, spacing: float) -> GridDomain:
    """Grid version of a bounded catalog domain (identity on grids)."""
    if isinstance(domain, GridDomain):
        return domain
    if isinstance(domain, HalfPlane):
        raise Unsupported("the half-plane is unbounded; rasterize a ball instead")
    return grid_from_predicate(domain.contains, 1.0, spacing)


@lru_cache(maxsize=32)
def sample_points(domain: CatalogDomain) -> np.ndarray:
    """The cell centres ``rasterize(domain, SAMPLE_SPACING)`` keeps, as one
    read-only array, without the raster's connectivity check."""
    if isinstance(domain, GridDomain):
        raise Unsupported("sample points are drawn on catalog domains")
    if isinstance(domain, HalfPlane):
        raise Unsupported("the half-plane is unbounded; it has no finite sample")
    _, centers, mask = _frame_mask(domain.contains, 1.0, SAMPLE_SPACING)
    points = centers[mask]
    points.flags.writeable = False
    return points


def grid_annulus(r: float, spacing: float) -> GridDomain:
    """Raster fixture for the round annulus r < |z| < 1."""
    for name, value in (("inner radius", r), ("spacing", spacing)):
        if not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number: {value!r}")
    if not (0.0 < r < 1.0):
        raise ValidationError(f"inner radius must be in (0, 1): {r!r}")
    if not (spacing < (1.0 - r) / 4.0):
        raise ValidationError(
            f"spacing {spacing!r} too coarse for annulus width {1.0 - r!r}")
    return rasterize(Annulus(r), spacing)


GRID_FORMAT_VERSION = 1


def grid_save(frame, **meta) -> bytes:
    """Canonical text encoding; byte-exact on round trip.

    ``frame`` is a GridDomain or anything else with ``origin``, ``spacing``
    and ``mask`` (a ball raster); ``meta`` entries follow the grid fields.
    """
    mask = frame.mask
    height, width = mask.shape
    payload = {
        "format_version": GRID_FORMAT_VERSION,
        "origin": [frame.origin.real, frame.origin.imag],
        "spacing": frame.spacing,
        "width": width,
        "height": height,
        "rows": [],
        **meta,
    }
    text = json.dumps(payload, indent=1)
    if height:
        # the rows as json.dumps lays them out, without its per-item Python
        # loop: one byte a cell, "0" or "1", decoded at once and cut into
        # rows; an unescaped '"rows": []' is only ever that key
        cells = (mask.astype(np.uint8) + np.uint8(ord("0"))).tobytes().decode("ascii")
        rows = ",\n".join(f'  "{cells[i * width:(i + 1) * width]}"' for i in range(height))
        text = text.replace('"rows": []', f'"rows": [\n{rows}\n ]', 1)
    return (text + "\n").encode("utf-8")


def is_json_number(value) -> bool:
    """A JSON number as ``json`` reads it: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def grid_frame_load(data):
    """(payload, origin, spacing, mask) of a file in the grid format.

    Checks the format but not the GridDomain invariants, which a ball
    raster saved in the same format need not meet.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, offset=exc.colno) from exc
    if not isinstance(payload, dict):
        raise ParseError("top-level value must be an object")
    version = payload.get("format_version")
    if type(version) is not int or version != GRID_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    try:
        origin, spacing, width, height, rows = (
            payload[name] for name in ("origin", "spacing", "width", "height", "rows"))
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    # JSON reads a number as an int or a float; a bool or a string is none
    if not (isinstance(origin, list) and len(origin) == 2 and all(map(is_json_number, origin))):
        raise ParseError(f"origin must be a list of two numbers: {origin!r}")
    if not is_json_number(spacing):
        raise ParseError(f"spacing must be a number: {spacing!r}")
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int:
            raise ParseError(f"{name} must be an integer: {value!r}")
    try:
        ox, oy, spacing = float(origin[0]), float(origin[1]), float(spacing)
    except OverflowError as exc:
        raise ValidationError(f"origin and spacing must be finite: {exc}") from exc
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValidationError(f"spacing must be positive and finite: {spacing!r}")
    if not (math.isfinite(ox) and math.isfinite(oy)):
        raise ValidationError(f"origin must be finite: {[ox, oy]!r}")
    if width < 0 or height < 0:
        raise ParseError(f"width and height must be non-negative: {width}, {height}")
    if not isinstance(rows, list):
        raise ParseError("rows must be a list of strings")
    if len(rows) != height:
        raise ParseError(f"expected {height} rows, got {len(rows)}")
    # every row is checked before the mask is allocated, so a header's
    # width and height alone never size an allocation
    for iy, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != width:
            raise ParseError(f"row {iy} is not a string of length {width}")
        if set(row) - {"0", "1"}:
            raise ParseError(f"row {iy} contains characters other than 0/1")
    mask = np.zeros((height, width), dtype=bool)
    for iy, row in enumerate(rows):
        mask[iy] = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("1")
    return payload, complex(ox, oy), spacing, mask


def grid_load(data) -> GridDomain:
    """Parse the grid-domain file format; ValidationError on bad invariants."""
    _, origin, spacing, mask = grid_frame_load(data)
    return GridDomain(origin=origin, spacing=spacing, mask=mask)
