"""Caratheodory-type lower bounds from a finite holomorphic-map dictionary.

The supremum over all holomorphic maps into the unit disk is replaced by
a finite dictionary of catalog competitors: the identity, Cayley map or
inclusion, and one reciprocal about each hole.  rho is invariant under
the disk automorphisms, so post-composing an entry with one cannot raise
the maximum; the dictionary holds none.  The maximum over the dictionary
is itself a pseudodistance of the same kind, so it is a certified lower
bound everywhere, exact on the disk, and inherits the subharmonicity and
compact-component behavior of the full distance.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domains import (
    Annulus,
    Disk,
    Domain,
    GridDomain,
    HalfPlane,
    PuncturedDisk,
    STRUCT_4,
    cell_centers,
    complement_holes,
    contains,
    disk_box,
    rasterize,
    sample_points,
)
from .errors import (
    EmptyBall,
    MarginTooSmall,
    OutOfDomain,
    TheoremViolation,
    Unsupported,
    ValidationError,
)
from .mobius import as_finite
from .poincare import poincare_ball_euclidean, rho_error, rho_vec

# Relative error of a map that is one complex division: numpy's (Smith's
# method) is within 13U normwise of the quotient of its operands, which
# are within U (z + 1, z - 1) or exact; measured: at most 3.5U
_DIVISION_ROUNDING = 16.0


@dataclass(frozen=True)
class DictionaryMap:
    """One holomorphic competitor into the unit disk, with a readable tag;
    ``rounding`` bounds its computed image's relative error, in units of U."""

    tag: str
    func: Callable
    rounding: float = 0.0

    def __call__(self, z):
        return self.func(z)


@dataclass(frozen=True)
class MapDictionary:
    """Finite family of holomorphic maps from a domain into the unit disk."""

    domain: Domain
    entries: tuple

    def __len__(self):
        return len(self.entries)


def _validate_entries(domain: Domain, entries, samples: np.ndarray):
    for entry in entries:
        values = np.asarray(entry(samples))
        if not np.isfinite(values).all() or not (np.abs(values) < 1.0).all():
            raise ValidationError(
                f"dictionary entry {entry.tag!r} leaves the unit disk on samples")


def _cayley(z):
    """(z + 1) / (z - 1), the half-plane onto the disk.  The division's
    scaling overflows once both parts of z - 1 pass about 2^1022; there it
    reads (z/2 + 1/2) / (z/2 - 1/2), the same quotient."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        f = (z + 1.0) / (z - 1.0)
    if np.isfinite(f).all():
        return f
    return (0.5 * z + 0.5) / (0.5 * z - 0.5)


def _build_dictionary(domain: Domain) -> MapDictionary:
    if isinstance(domain, Disk):
        entries = [DictionaryMap("identity", lambda z: np.asarray(z, dtype=complex))]
        return MapDictionary(domain, tuple(entries))
    if isinstance(domain, HalfPlane):
        entries = [DictionaryMap("cayley", _cayley, _DIVISION_ROUNDING)]
        return MapDictionary(domain, tuple(entries))
    if isinstance(domain, PuncturedDisk):
        # The puncture is removable for bounded maps, so the inclusion is extremal.
        entries = [DictionaryMap("inclusion", lambda z: np.asarray(z, dtype=complex))]
        return MapDictionary(domain, tuple(entries))
    if isinstance(domain, Annulus):
        r = domain.r
        entries = [
            DictionaryMap("inclusion", lambda z: np.asarray(z, dtype=complex)),
            DictionaryMap(f"reciprocal r0={r:g} about 0",
                          lambda z, r=r: r / np.asarray(z, dtype=complex), _DIVISION_ROUNDING),
        ]
        dictionary = MapDictionary(domain, tuple(entries))
        _validate_entries(domain, dictionary.entries, sample_points(domain))
        return dictionary
    if isinstance(domain, GridDomain):
        center, radius = domain.bounding_circle
        entries = [DictionaryMap(
            "inclusion rescaled",
            lambda z, c=center, s=radius: (np.asarray(z, dtype=complex) - c) / s)]
        labels, holes = domain.complement
        cells = domain.centers
        inside = cells[domain.mask]
        for lab in holes:
            hole = labels == lab
            w0 = complex(cells[hole].mean())
            r0 = float(np.abs(inside - w0).min()) - domain.spacing
            if r0 <= 0:
                continue
            entries.append(DictionaryMap(
                f"reciprocal r0={r0:.6g} about {w0:.6g}",
                lambda z, w0=w0, r0=r0: r0 / (np.asarray(z, dtype=complex) - w0)))
        dictionary = MapDictionary(domain, tuple(entries))
        _validate_entries(domain, dictionary.entries, inside)
        return dictionary
    raise Unsupported(f"unknown domain {domain!r}")


@lru_cache(maxsize=32)
def _catalog_dictionary(domain) -> MapDictionary:
    return _build_dictionary(domain)


# Entries only: a cached MapDictionary would hold its grid strongly and keep
# the weak key, and every grid ever queried, alive.
_GRID_ENTRIES: "weakref.WeakKeyDictionary[GridDomain, tuple]" = weakref.WeakKeyDictionary()


def default_dictionary(domain: Domain) -> MapDictionary:
    """Catalog dictionary: the identity, Cayley map or (rescaled) inclusion,
    and one reciprocal per hole."""
    if isinstance(domain, GridDomain):
        entries = _GRID_ENTRIES.get(domain)
        if entries is None:
            entries = _build_dictionary(domain).entries
            _GRID_ENTRIES[domain] = entries
        return MapDictionary(domain, entries)
    return _catalog_dictionary(domain)


def car_lower(domain: Domain, p, q, dictionary: MapDictionary | None = None) -> float:
    """Lower bound: the max over dictionary entries of rho(f(p), f(q)),
    each lowered by its ``rho_error`` and the max rounded down on a catalog
    domain; the raw max on a grid, whose intervals are not certified."""
    p, q = as_finite(p), as_finite(q)
    if not contains(domain, p) or not contains(domain, q):
        raise OutOfDomain("both points must lie in the domain")
    if dictionary is None:
        dictionary = default_dictionary(domain)
    if isinstance(domain, GridDomain):
        return float(car_lower_field(dictionary, p, np.asarray(q)))
    best = 0.0
    for entry in dictionary.entries:
        fp, fq = np.asarray(entry(np.array([p, q])), dtype=complex)
        d = float(rho_vec(fp, fq))
        best = max(best, d - rho_error(fp, fq, d, entry.rounding))
    return max(math.nextafter(best, -math.inf), 0.0)


def car_lower_field(dictionary: MapDictionary, p, z) -> np.ndarray:
    """Vectorized dictionary lower bound from a base point to an array."""
    p = as_finite(p)
    z = np.asarray(z, dtype=complex)
    best = np.zeros(z.shape, dtype=float)
    for entry in dictionary.entries:
        fp = complex(np.asarray(entry(np.asarray(p, dtype=complex))))
        fz = np.asarray(entry(z), dtype=complex)
        np.maximum(best, rho_vec(fp, fz), out=best)
    return best


def car_interval(domain: Domain, p, q, dictionary: MapDictionary | None = None):
    """[dictionary lower bound, Kobayashi upper bound]; the Kobayashi
    distance dominates the Caratheodory one, so this encloses it wherever
    the Kobayashi interval is certified, and carries that flag."""
    from .kobayashi import DistanceInterval, kob_distance

    lower = car_lower(domain, p, q, dictionary)
    kob = kob_distance(domain, p, q)
    return DistanceInterval(min(lower, kob.upper), kob.upper, kob.certified)


# ---------------------------------------------------------------------------
# Subharmonicity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubharmonicityReport:
    cells_checked: int
    violations: int
    worst_gap: float

    def to_text(self) -> str:
        return (f"cells_checked: {self.cells_checked}\n"
                f"violations: {self.violations}\n"
                f"worst_gap: {self.worst_gap:.9g}\n")


def subharmonicity_check(grid: GridDomain, values: np.ndarray, radii,
                         tol_scale: float = 1e-3) -> SubharmonicityReport:
    """Sub-mean-value test on circles of the given radii.

    For every cell where the value and all 32 trapezoid samples on the
    circle interpolate from finite in-domain values, checks
    value <= circle average + tol_scale * (1 + |value|).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.mask.shape:
        raise ValidationError("values grid must match the domain raster")
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValidationError(f"radii must be finite and positive: {radii!r}")
    if not (isinstance(tol_scale, numbers.Real) and 0.0 <= tol_scale < math.inf):
        raise ValidationError(f"tol_scale must be finite and non-negative: {tol_scale!r}")
    h, w = values.shape
    half_extent = 0.5 * grid.spacing * (min(h, w) - 1)
    if max(radii) >= half_extent:
        raise MarginTooSmall(
            f"radius {max(radii):g} does not fit in a frame of half-extent {half_extent:g}")
    valid = grid.mask & np.isfinite(values)
    vals = np.where(valid, values, 0.0)
    angles = 2.0 * math.pi * np.arange(32) / 32.0
    iy, ix = np.mgrid[0:h, 0:w]
    checked = 0
    violations = 0
    worst = -math.inf
    for radius in radii:
        rc = radius / grid.spacing
        ok = valid.copy()
        acc = np.zeros((h, w), dtype=float)
        for a in angles:
            sx = ix + rc * math.cos(a)
            sy = iy + rc * math.sin(a)
            x0 = np.floor(sx).astype(int)
            y0 = np.floor(sy).astype(int)
            inside = (x0 >= 0) & (x0 + 1 < w) & (y0 >= 0) & (y0 + 1 < h)
            x0c = np.clip(x0, 0, w - 2)
            y0c = np.clip(y0, 0, h - 2)
            fx = sx - x0c
            fy = sy - y0c
            stencil_ok = (valid[y0c, x0c] & valid[y0c, x0c + 1]
                          & valid[y0c + 1, x0c] & valid[y0c + 1, x0c + 1]) & inside
            sample = ((1 - fx) * (1 - fy) * vals[y0c, x0c]
                      + fx * (1 - fy) * vals[y0c, x0c + 1]
                      + (1 - fx) * fy * vals[y0c + 1, x0c]
                      + fx * fy * vals[y0c + 1, x0c + 1])
            acc += sample
            ok &= stencil_ok
        avg = acc / 32.0
        gap = np.where(ok, values - avg, -np.inf)
        tol = tol_scale * (1.0 + np.abs(values))
        checked += int(ok.sum())
        violations += int((ok & (gap > tol)).sum())
        if ok.any():
            worst = max(worst, float(gap[ok].max()))
    if checked == 0:
        raise MarginTooSmall("no cell admits all circle samples")
    return SubharmonicityReport(cells_checked=checked, violations=violations,
                                worst_gap=worst)


# ---------------------------------------------------------------------------
# Ball component analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    component_id: int
    mask: np.ndarray
    cell_count: int
    relatively_compact: bool
    connectivity_number: int
    complement_component_count: int

    def to_text(self) -> str:
        return (f"id: {self.component_id} cell_count: {self.cell_count} "
                f"relatively_compact: {str(self.relatively_compact).lower()} "
                f"connectivity_number: {self.connectivity_number}")


@dataclass(frozen=True)
class BallComponentReport:
    domain: Domain
    center: complex
    radius: float
    spacing: float
    ball_mask: np.ndarray
    components: tuple

    def to_text(self) -> str:
        lines = [f"components: {len(self.components)}"]
        lines += [c.to_text() for c in self.components]
        return "\n".join(lines) + "\n"


def _widened(box, origin=(0, 0)):
    """A box (a pair of slices) grown by one cell on each side, shifted by origin."""
    return tuple(slice(o + s.start - 1, o + s.stop + 1) for s, o in zip(box, origin))


def car_ball_components(domain: Domain, p, radius: float,
                        dictionary: MapDictionary | None = None,
                        spacing: float | None = None) -> BallComponentReport:
    """Components of the dictionary ball {z : car_lower(p, z) < radius}.

    Each component touching no cell next to the domain's complement is
    flagged relatively compact.  For those, finite connectivity is
    recorded, and none of their complement components may sit strictly
    inside the domain (farther than two cells from the complement); a
    breach raises TheoremViolation since the maximum principle forbids it.
    """
    p = as_finite(p)
    if not contains(domain, p):
        raise OutOfDomain(f"{p!r} not in {domain!r}")
    if not isinstance(radius, numbers.Real):
        raise ValidationError(f"ball radius must be a real number: {radius!r}")
    if not (radius > 0):
        raise EmptyBall(f"ball radius must be positive: {radius!r}")
    if isinstance(domain, GridDomain):
        grid = domain
    else:
        if spacing is None:
            raise ValidationError("catalog domains need an explicit raster spacing")
        grid = rasterize(domain, spacing)
    rows, cols = slice(0, grid.height), slice(0, grid.width)
    if dictionary is None:
        dictionary = default_dictionary(domain)
        if isinstance(domain, GridDomain):
            # The first entry, the rescaled inclusion z -> (z - c) / s, has a
            # Euclidean disk for its ball; only the cells of the disk's box,
            # widened by one cell against rounding, can lie in the ball.
            c, s = domain.bounding_circle
            e, rho = poincare_ball_euclidean((p - c) / s, radius)
            rows, cols = disk_box(grid, c + s * e, s * rho)
    # the entries' maximum is below the radius exactly when each entry is, so
    # each is evaluated, as in car_lower_field, on the cells kept so far
    iy, ix = np.nonzero(grid.mask[rows, cols])
    iy += rows.start
    ix += cols.start
    cells = iy * grid.width + ix
    z = cell_centers(grid.origin, grid.spacing, iy, ix)
    for entry in dictionary.entries:
        fp = complex(np.asarray(entry(np.asarray(p, dtype=complex))))
        inside = rho_vec(fp, np.asarray(entry(z), dtype=complex)) < radius
        cells, z = cells[inside], z[inside]
    ball = np.zeros(grid.mask.shape, dtype=bool)
    ball.flat[cells] = True
    idx = grid.cell_index(p)
    if idx is not None and grid.mask[idx[1], idx[0]]:
        ball[idx[1], idx[0]] = True
    if not ball.any():
        raise EmptyBall("the rasterized ball contains no cell")

    from scipy import ndimage

    # Ball cells avoid the frame's border ring, so a box widened by one cell
    # stays in the frame.  A component's widened box holds all its holes,
    # and the box's border ring lies in one complement component.
    ball_box = _widened(ndimage.find_objects(ball.view(np.int8))[0])
    labels, count = ndimage.label(ball[ball_box], structure=STRUCT_4)
    # relatively compact: no cell in the grid's band along the complement
    near_boundary = np.bincount(labels[grid.near_complement[ball_box]], minlength=count + 1)
    origin = (ball_box[0].start, ball_box[1].start)
    components = []
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        comp = labels[_widened(box)] == lab
        at = _widened(box, origin)
        hole_labels, holes = complement_holes(comp)
        relcomp = not near_boundary[lab]
        if relcomp and holes:
            # a hole's gap is its least distance to the domain's complement,
            # which is 0 on complement cells
            for gap in ndimage.minimum(grid.dist_to_complement_cells[at], hole_labels, holes):
                if gap > 2.0:
                    raise TheoremViolation(
                        "a relatively compact ball component encloses a hole lying "
                        f"strictly inside the domain (gap {gap:.2f} cells)")
        mask = np.zeros(ball.shape, dtype=bool)
        mask[at] = comp
        components.append(ComponentReport(
            component_id=lab,
            mask=mask,
            cell_count=int(comp.sum()),
            relatively_compact=relcomp,
            connectivity_number=len(holes),
            complement_component_count=len(holes) + 1,
        ))
    return BallComponentReport(domain=domain, center=p, radius=radius,
                               spacing=grid.spacing, ball_mask=ball,
                               components=tuple(components))
