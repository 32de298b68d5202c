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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import OutOfDomain, ParseError, Unsupported, ValidationError
from .mobius import as_finite, is_infinity
from .poincare import (
    abs2_minus,
    geodesic_weights,
    halfplane_geodesic,
    halfplane_rho_vec,
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


def lift_pair(domain: "CatalogDomain", p: complex, q: complex):
    """(wp, wq): the lifts of p and q, from one ``lift`` call on [p, q]."""
    w = domain.lift(np.array([p, q]))
    if isinstance(w, Lift):
        inner = (None, None) if w.inner is None else w.inner
        return (Lift(w.im[0], w.outer[0], inner[0], w.height[0]),
                Lift(w.im[1], w.outer[1], inner[1], w.height[1]))
    return w[0], w[1]


def _log_ratio(z, c: float, m) -> np.ndarray:
    """log(|z| / c), m = np.abs(z), with full relative accuracy next to the
    circle |z| = c: log1p of the error-free |z|^2 / c^2 - 1 within a factor
    2 of c, log of the ratio elsewhere.  Each point's logarithm is taken
    by the one branch that it reads."""
    ratio = m / c
    near = (ratio > 0.5) & (ratio < 2.0)
    count = np.count_nonzero(near)
    if count == near.size:
        return 0.5 * np.log1p(abs2_minus(z, c, m) / (c * c))
    out = np.empty(ratio.shape)
    with np.errstate(divide="ignore"):
        np.log(ratio, out=out, where=~near)
    if count:
        np.log1p(abs2_minus(z, c, m) / (c * c), out=out, where=near)
        np.multiply(out, 0.5, out=out, where=near)
    return out


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
        out[edge] = abs2_minus(z[edge], c) < 0.0
    return out


def _outside(z, m, c: float) -> np.ndarray:
    """|z| > c, as ``_inside`` with the sides swapped."""
    out = m > c
    edge = out & (m <= c + _ABS_SLACK * c)
    if np.count_nonzero(edge):
        out = np.array(out)
        out[edge] = abs2_minus(z[edge], c) > 0.0
    return out


def _deck_offset(wp: Lift, wq: Lift) -> np.ndarray:
    """Im(wp - wq) reduced to the nearest deck translate, |dy| <= pi."""
    dy = wp.im - wq.im
    return dy - TAU * np.rint(dy / TAU)


def _left_halfplane_geodesic(wp: complex, wq: complex, d, t) -> np.ndarray:
    """Points at arclength t * d on the geodesic of Re w < 0 from wp to wq.

    The real parts must carry the digits of the gaps to the wall Re w = 0.
    """
    # u = -i w lies in the upper half-plane: log |u| and cot arg u = Re u / Im u
    s, cot = halfplane_geodesic((math.log(abs(wp)), math.log(abs(wq))),
                                (wp.imag / -wp.real, wq.imag / -wq.real), d, t)
    # w = i u = e^s sin(arg u) (i cot(arg u) - 1)
    return np.exp(s) / np.hypot(1.0, cot) * (1j * cot - 1.0)


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

    def contains(self, z):
        z = _array(z)
        return _inside(z, np.abs(z), 1.0)

    def density(self, z):
        return 1.0 / (1.0 - np.abs(_array(z)) ** 2)

    def lift(self, z):
        return _array(z)

    def distance(self, wp, wq):
        return rho_vec(wp, wq)

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

    def contains(self, z):
        return _array(z).real < 0.0

    def density(self, z):
        return 1.0 / (2.0 * np.abs(_array(z).real))

    def lift(self, z):
        return _array(z)

    def distance(self, wp, wq):
        return halfplane_rho_vec(wp, wq)

    def geodesic(self, p: complex, q: complex, t):
        return _left_halfplane_geodesic(p, q, self.distance(p, q), t)


@dataclass(frozen=True)
class PuncturedDisk:
    """The unit disk minus the origin."""

    deck_step = DECK_STEP

    def contains(self, z):
        z = _array(z)
        m = np.abs(z)
        return (m > 0.0) & _inside(z, m, 1.0)

    def density(self, z):
        m = np.abs(_array(z))
        return 1.0 / (2.0 * m * np.log(1.0 / m))

    def lift(self, z) -> Lift:
        z = _array(z)
        outer = np.maximum(-_log_ratio(z, 1.0, np.abs(z)), _MIN_GAP)
        return Lift(np.arctan2(z.imag, z.real), outer, None, outer)

    def distance(self, wp: Lift, wq: Lift):
        dw = np.hypot(wq.outer - wp.outer, _deck_offset(wp, wq))
        return np.arcsinh(dw / (2.0 * np.sqrt(wp.height * wq.height)))

    def geodesic(self, p: complex, q: complex, t):
        wp, wq = lift_pair(self, p, q)
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

    def contains(self, z):
        z = _array(z)
        m = np.abs(z)
        return _outside(z, m, self.r) & _inside(z, m, 1.0)

    def density(self, z):
        m = np.abs(_array(z))
        big_l = math.log(1.0 / self.r)
        return math.pi / (2.0 * m * big_l * np.sin(math.pi * np.log(m) / math.log(self.r)))

    def lift(self, z) -> Lift:
        z = _array(z)
        m = np.abs(z)
        outer = np.maximum(-_log_ratio(z, 1.0, m), _MIN_GAP)
        inner = np.maximum(_log_ratio(z, self.r, m), _MIN_GAP)
        scale = math.pi / -math.log(self.r)
        return Lift(np.arctan2(z.imag, z.real), outer, inner,
                    np.sin(scale * np.minimum(inner, outer)))

    def distance(self, wp: Lift, wq: Lift):
        dy = _deck_offset(wp, wq)
        k = math.pi / (2.0 * -math.log(self.r))
        # Re(wp - wq), read off the wall the pair is nearer to
        dx = np.where(wp.inner + wq.inner < wp.outer + wq.outer,
                      wp.inner - wq.inner, wq.outer - wp.outer)
        a = k * np.abs(dy)
        heights = wp.height * wq.height
        with np.errstate(over="ignore"):
            s = np.hypot(np.sinh(a), np.sin(k * dx)) / np.sqrt(heights)
        d = np.arcsinh(s)
        # sinh a overflows only on very thin annuli; there asinh s = a - log(heights)/2
        big = a >= 700.0
        if np.count_nonzero(big):
            d = np.where(big, a - 0.5 * np.log(heights), d)
        return d

    def deck_loop_length(self, lifts: Lift) -> float:
        """Least model distance from a lift to its translate by ``deck_step``."""
        # sinh d(w, w + 2 pi i) = sinh(pi^2 / L) / sin t, least where sin t is
        # largest; past float range asinh(sinh(a) / h) = a - log h
        a = math.pi ** 2 / -math.log(self.r)
        h = float(lifts.height.max())
        return math.asinh(math.sinh(a) / h) if a < 700.0 else a - math.log(h)

    def geodesic(self, p: complex, q: complex, t):
        # u = exp(i scale (w - log r)) sends the band onto the upper half-plane,
        # so log u = -scale Im w + i theta, theta = scale * inner gap, is kept
        # in place of u, whose modulus overflows on thin annuli
        wp, wq = lift_pair(self, p, q)
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
        _check_ring(mask)
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

    @cached_property
    def centers(self) -> np.ndarray:
        xs = self.origin.real + self.spacing * np.arange(self.width)
        ys = self.origin.imag + self.spacing * np.arange(self.height)
        return xs[None, :] + 1j * ys[:, None]

    @cached_property
    def complement(self):
        """``complement_holes(mask)``: (labels, holes) of the 8-connected complement."""
        return complement_holes(self.mask)

    @property
    def complement_labels(self):
        """(labels, count, unbounded_label) of the 8-connected complement,
        the unbounded component being the one holding the border ring."""
        labels, holes = self.complement
        return labels, len(holes) + 1, int(labels[0, 0])

    @cached_property
    def dist_to_complement_cells(self) -> np.ndarray:
        """Per-cell Euclidean distance (in cell units) to the nearest complement cell center."""
        from scipy import ndimage

        return ndimage.distance_transform_edt(self.mask)

    @cached_property
    def density_upper_bound(self) -> np.ndarray:
        """Certified per-cell upper bound on the hyperbolic density.

        The density of any domain at z is at most 1/delta(z) with delta the
        distance to the complement (compare with the disk B(z, delta)).  The
        complement here is a union of closed cells, so the center-to-center
        transform is shrunk by half a cell diagonal to stay on the safe side.
        """
        delta = (self.dist_to_complement_cells - math.sqrt(0.5)) * self.spacing
        return np.where(self.mask, 1.0 / np.maximum(delta, 1e-300), np.inf)

    @cached_property
    def bounding_circle(self):
        """(center, radius) of a circle containing every domain cell center."""
        cells = self.centers[self.mask]
        center = complex((cells.real.min() + cells.real.max()) / 2.0,
                         (cells.imag.min() + cells.imag.max()) / 2.0)
        radius = float(np.abs(cells - center).max()) + self.spacing
        return center, radius

    def contains(self, z):
        """Membership of the cells containing z; False outside the frame."""
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


def _check_ring(mask: np.ndarray):
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
    _check_ring(mask)
    from scipy import ndimage

    labels, count = ndimage.label(~mask, structure=STRUCT_8)
    ring = labels[0, 0]
    return labels, tuple(lab for lab in range(1, count + 1) if lab != ring)


def cell_pair_mask(mask_a: np.ndarray, mask_b: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """True at the cells of ``mask_a`` whose neighbour one move (dx, dy) away,
    dx columns and dy rows, is a cell of ``mask_b``; shaped like the masks.

    Every lattice graph of the package (grid bounds, inner distances, the
    modulus Laplacian) takes its edges from here.
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


CatalogDomain = Union[Disk, HalfPlane, PuncturedDisk, Annulus]
Domain = Union[CatalogDomain, GridDomain]


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
    xs = origin.real + spacing * np.arange(n)
    ys = origin.imag + spacing * np.arange(n)
    centers = xs[None, :] + 1j * ys[:, None]
    mask = np.asarray(predicate(centers), dtype=bool)
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
    height, width = frame.mask.shape
    payload = {
        "format_version": GRID_FORMAT_VERSION,
        "origin": [frame.origin.real, frame.origin.imag],
        "spacing": frame.spacing,
        "width": width,
        "height": height,
        "rows": ["".join("1" if v else "0" for v in row) for row in frame.mask],
        **meta,
    }
    return (json.dumps(payload, indent=1) + "\n").encode("utf-8")


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
    if version != GRID_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    try:
        ox, oy = (float(v) for v in payload["origin"])
        spacing = float(payload["spacing"])
        width = int(payload["width"])
        height = int(payload["height"])
        rows = payload["rows"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or ill-typed field: {exc}") from exc
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
    mask = np.zeros((height, width), dtype=bool)
    for iy, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != width:
            raise ParseError(f"row {iy} is not a string of length {width}")
        if set(row) - {"0", "1"}:
            raise ParseError(f"row {iy} contains characters other than 0/1")
        mask[iy] = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("1")
    return payload, complex(ox, oy), spacing, mask


def grid_load(data) -> GridDomain:
    """Parse the grid-domain file format; ValidationError on bad invariants."""
    _, origin, spacing, mask = grid_frame_load(data)
    return GridDomain(origin=origin, spacing=spacing, mask=mask)
