"""Domain catalog, raster grid domains, and universal-cover data.

Catalog variants (unit disk, left half-plane, punctured disk, annulus)
carry exact hyperbolic densities and, for the covered ones, an explicit
covering atlas built on the exponential map.  Arbitrary bounded domains
are represented as boolean occupancy grids.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy import ndimage

from .errors import LiftFailure, OutOfDomain, ParseError, Unsupported, ValidationError
from .mobius import as_finite, is_infinity
from .poincare import halfplane_rho_vec

DECK_STEP = 2j * math.pi
FRAME_MARGIN = 1.1  # frame extends 10% beyond the domain's bounding circle

STRUCT_4 = ndimage.generate_binary_structure(2, 1)
STRUCT_8 = ndimage.generate_binary_structure(2, 2)


# ---------------------------------------------------------------------------
# Catalog variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    """The open unit disk."""


@dataclass(frozen=True)
class HalfPlane:
    """The left half-plane Re z < 0."""


@dataclass(frozen=True)
class PuncturedDisk:
    """The unit disk minus the origin."""


@dataclass(frozen=True)
class Annulus:
    """The round annulus r < |z| < 1."""

    r: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ValidationError(f"annulus inner radius must be in (0, 1): {self.r!r}")


# ---------------------------------------------------------------------------
# Grid domains
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GridDomain:
    """Bounded domain sampled on a square grid of cell centers.

    ``mask[iy, ix]`` is True when the center ``origin + spacing*(ix + iy*1j)``
    belongs to the domain.  Row 0 is the minimal-imaginary row.  The True
    cells must form a single 4-connected component and the border ring must
    be False, so the domain is bounded strictly inside the frame.
    """

    origin: complex
    spacing: float
    mask: np.ndarray

    def __post_init__(self):
        self.origin = as_finite(self.origin)
        if not (self.spacing > 0) or not math.isfinite(self.spacing):
            raise ValidationError(f"grid spacing must be positive: {self.spacing!r}")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] < 3 or mask.shape[1] < 3:
            raise ValidationError(f"mask must be 2-D and at least 3x3: {mask.shape}")
        if not mask.any():
            raise ValidationError("mask has no domain cells")
        border = np.zeros_like(mask)
        border[0, :] = border[-1, :] = True
        border[:, 0] = border[:, -1] = True
        if (mask & border).any():
            raise ValidationError("domain cells touch the frame border ring")
        _, count = ndimage.label(mask, structure=STRUCT_4)
        if count != 1:
            raise ValidationError(f"domain cells form {count} 4-connected components")
        self.mask = mask

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
    def complement_labels(self):
        """(labels, count, unbounded_label) of the 8-connected complement.

        The border ring is all complement, so the unbounded component is the
        one containing the frame border.
        """
        labels, count = ndimage.label(~self.mask, structure=STRUCT_8)
        unbounded = int(labels[0, 0])
        return labels, int(count), unbounded

    @cached_property
    def dist_to_complement_cells(self) -> np.ndarray:
        """Per-cell Euclidean distance (in cell units) to the nearest complement cell center."""
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

    def contains_point(self, z) -> bool:
        if is_infinity(z):
            return False
        idx = self.cell_index(z)
        if idx is None:
            return False
        ix, iy = idx
        return bool(self.mask[iy, ix])

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


Domain = Union[Disk, HalfPlane, PuncturedDisk, Annulus, GridDomain]


# ---------------------------------------------------------------------------
# Membership and density
# ---------------------------------------------------------------------------

def contains(domain: Domain, z) -> bool:
    """Membership test; total (INFINITY belongs to no domain here)."""
    if is_infinity(z):
        return False
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return False
    if isinstance(domain, Disk):
        return abs(z) < 1.0
    if isinstance(domain, HalfPlane):
        return z.real < 0.0
    if isinstance(domain, PuncturedDisk):
        return 0.0 < abs(z) < 1.0
    if isinstance(domain, Annulus):
        return domain.r < abs(z) < 1.0
    if isinstance(domain, GridDomain):
        return domain.contains_point(z)
    raise Unsupported(f"unknown domain {domain!r}")


def contains_vec(domain: Domain, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, Disk):
        return np.abs(z) < 1.0
    if isinstance(domain, HalfPlane):
        return z.real < 0.0
    if isinstance(domain, PuncturedDisk):
        m = np.abs(z)
        return (m > 0.0) & (m < 1.0)
    if isinstance(domain, Annulus):
        m = np.abs(z)
        return (m > domain.r) & (m < 1.0)
    if isinstance(domain, GridDomain):
        ix = np.floor((z.real - domain.origin.real) / domain.spacing + 0.5).astype(int)
        iy = np.floor((z.imag - domain.origin.imag) / domain.spacing + 0.5).astype(int)
        ok = (ix >= 0) & (ix < domain.width) & (iy >= 0) & (iy < domain.height)
        out = np.zeros(z.shape, dtype=bool)
        out[ok] = domain.mask[iy[ok], ix[ok]]
        return out
    raise Unsupported(f"unknown domain {domain!r}")


def density(domain: Domain, z) -> float:
    """Hyperbolic density of a catalog domain at an interior point."""
    if isinstance(domain, GridDomain):
        raise Unsupported("grid domains expose only density bounds")
    z = as_finite(z)
    if not contains(domain, z):
        raise OutOfDomain(f"{z!r} not in {domain!r}")
    return float(density_vec(domain, np.asarray(z)))


def density_vec(domain: Domain, z: np.ndarray) -> np.ndarray:
    """Vectorized density; no membership checks."""
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, Disk):
        return 1.0 / (1.0 - np.abs(z) ** 2)
    if isinstance(domain, HalfPlane):
        return 1.0 / (2.0 * np.abs(z.real))
    if isinstance(domain, PuncturedDisk):
        m = np.abs(z)
        return 1.0 / (2.0 * m * np.log(1.0 / m))
    if isinstance(domain, Annulus):
        m = np.abs(z)
        big_l = math.log(1.0 / domain.r)
        return math.pi / (2.0 * m * big_l * np.sin(math.pi * np.log(m) / math.log(domain.r)))
    raise Unsupported(f"no closed-form density for {domain!r}")


# ---------------------------------------------------------------------------
# Covering atlases
# ---------------------------------------------------------------------------

def _cayley_lhp(w):
    """Left half-plane Re w < 0 onto the unit disk."""
    w = np.asarray(w, dtype=complex) if isinstance(w, np.ndarray) else complex(w)
    return (w + 1.0) / (w - 1.0)


def _cayley_lhp_deriv(w):
    return -2.0 / (np.asarray(w, dtype=complex) - 1.0) ** 2 if isinstance(w, np.ndarray) \
        else -2.0 / (complex(w) - 1.0) ** 2


@dataclass(frozen=True)
class CoveringAtlas:
    """Universal-cover data for a catalog domain.

    ``cover`` maps model coordinates onto the domain, ``lift`` is the
    principal local inverse, and ``model_to_disk`` is a biholomorphism
    from the model onto the unit disk, through which model geodesics are
    computed.  For covered domains the deck group is generated by the
    translation w -> w + ``deck_step``.  It moves only Im w, and the model
    distance grows with that offset, so the distance between two points
    is the model distance to the nearest deck translate, in closed form
    (``kobayashi.lift_infimum_vec``).
    """

    domain: Domain
    model: str
    cover: Callable
    lift: Callable
    model_to_disk: Callable
    model_to_disk_deriv: Callable
    disk_to_model: Callable
    deck_step: complex = 0j

    @property
    def has_deck(self) -> bool:
        return self.deck_step != 0

    def model_density(self, w):
        """Density of the model metric, pulled back from the disk."""
        z = self.model_to_disk(w)
        return np.abs(self.model_to_disk_deriv(w)) / (1.0 - np.abs(z) ** 2)

    def model_geodesic_point(self, w1, w2, t: float):
        """Constant-speed model geodesic, via the disk conjugation."""
        from .poincare import poincare_geodesic

        z = poincare_geodesic(complex(self.model_to_disk(w1)),
                              complex(self.model_to_disk(w2)), t)
        return self.disk_to_model(z)


def halfplane_distance(w1: complex, w2: complex) -> float:
    """Closed-form distance of the left half-plane Re w < 0."""
    w1, w2 = as_finite(w1), as_finite(w2)
    if w1.real >= 0 or w2.real >= 0:
        raise OutOfDomain("points must have negative real part")
    return float(halfplane_rho_vec(w1, w2))


def _log_lift(domain: Domain) -> Callable:
    """Principal branch of log, the lift of the domains covered through exp."""
    def lift(z):
        if isinstance(z, np.ndarray):
            return np.log(z.astype(complex))
        z = as_finite(z)
        if not contains(domain, z):
            raise LiftFailure(f"{z!r} has no lift in the model of {domain!r}")
        return cmath.log(z)
    return lift


def covering_atlas(domain: Domain) -> CoveringAtlas:
    """Build the covering atlas of a catalog domain."""
    if isinstance(domain, GridDomain):
        raise Unsupported("grid domains carry no explicit covering atlas")

    if isinstance(domain, Disk):
        ident = lambda w: w
        return CoveringAtlas(
            domain=domain, model="disk",
            cover=ident, lift=ident,
            model_to_disk=ident,
            model_to_disk_deriv=lambda w: np.ones_like(np.asarray(w, dtype=complex))
            if isinstance(w, np.ndarray) else 1.0,
            disk_to_model=ident,
        )

    if isinstance(domain, (HalfPlane, PuncturedDisk)):
        # the punctured disk is the left half-plane modulo w -> w + 2 pi i
        covered = isinstance(domain, PuncturedDisk)
        ident = lambda w: w
        return CoveringAtlas(
            domain=domain, model="left-half-plane",
            cover=np.exp if covered else ident,
            lift=_log_lift(domain) if covered else ident,
            model_to_disk=_cayley_lhp,
            model_to_disk_deriv=_cayley_lhp_deriv,
            disk_to_model=lambda z: (1.0 + z) / (z - 1.0),
            deck_step=DECK_STEP if covered else 0j,
        )

    if isinstance(domain, Annulus):
        log_r = math.log(domain.r)
        scale = 1j * math.pi / -log_r

        def band_to_disk(w):
            u = np.exp(scale * (np.asarray(w, dtype=complex) - log_r))
            return (u - 1j) / (u + 1j)

        def band_to_disk_deriv(w):
            u = np.exp(scale * (np.asarray(w, dtype=complex) - log_r))
            return (2j / (u + 1j) ** 2) * u * scale

        def disk_to_band(z):
            u = 1j * (1.0 + z) / (1.0 - z)
            if isinstance(u, np.ndarray):
                return log_r + np.log(u) / scale
            return log_r + cmath.log(u) / scale

        return CoveringAtlas(
            domain=domain, model="band",
            cover=np.exp, lift=_log_lift(domain),
            model_to_disk=band_to_disk,
            model_to_disk_deriv=band_to_disk_deriv,
            disk_to_model=disk_to_band,
            deck_step=DECK_STEP,
        )

    raise Unsupported(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# Rasterization and grid file format
# ---------------------------------------------------------------------------

def grid_from_predicate(predicate: Callable[[np.ndarray], np.ndarray],
                        bounding_radius: float,
                        spacing: float,
                        center: complex = 0j) -> GridDomain:
    """Rasterize {z : predicate(z)} on a frame with a 10% margin.

    ``predicate`` receives a complex ndarray of cell centers and returns a
    boolean array; a cell is a domain cell iff its center satisfies it.
    """
    if spacing <= 0:
        raise ValidationError(f"spacing must be positive: {spacing!r}")
    half = FRAME_MARGIN * bounding_radius
    n = int(round(2.0 * half / spacing)) + 1
    origin = complex(center) - half * (1 + 1j)
    xs = origin.real + spacing * np.arange(n)
    ys = origin.imag + spacing * np.arange(n)
    centers = xs[None, :] + 1j * ys[:, None]
    mask = np.asarray(predicate(centers), dtype=bool)
    mask[0, :] = mask[-1, :] = False
    mask[:, 0] = mask[:, -1] = False
    return GridDomain(origin=origin, spacing=spacing, mask=mask)


def rasterize(domain: Domain, spacing: float) -> GridDomain:
    """Grid version of a bounded catalog domain (identity on grids)."""
    if isinstance(domain, GridDomain):
        return domain
    if isinstance(domain, HalfPlane):
        raise Unsupported("the half-plane is unbounded; rasterize a ball instead")
    return grid_from_predicate(lambda z: contains_vec(domain, z), 1.0, spacing)


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
    if isinstance(data, bytes):
        data = data.decode("utf-8")
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
    if spacing <= 0:
        raise ValidationError(f"spacing must be positive: {spacing!r}")
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
