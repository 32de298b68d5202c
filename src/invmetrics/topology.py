"""Raster topology: components, connectivity, separating cycles, nerves.

Foreground uses 4-connectivity and background 8-connectivity throughout,
the standard duality that keeps labeling and winding numbers consistent
on a square grid.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .domains import STRUCT_4, STRUCT_8, CatalogDomain, Domain, GridDomain, complement_holes
from .errors import (
    CoverScaleTooLarge,
    EmptyRegion,
    LabelNotBounded,
    NoCorridor,
    OnBoundary,
    OutOfDomain,
    Unsupported,
    ValidationError,
)


@dataclass(frozen=True)
class LabeledRaster:
    """Integer component labels, 0 for off cells, 1..count dense."""

    labels: np.ndarray
    component_count: int


def flood_components(mask: np.ndarray, connectivity: int = 4) -> LabeledRaster:
    """Label connected components (4 for foreground, 8 for background)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError("mask must be two-dimensional")
    if connectivity == 4:
        structure = STRUCT_4
    elif connectivity == 8:
        structure = STRUCT_8
    else:
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity!r}")
    from scipy import ndimage

    labels, count = ndimage.label(mask, structure=structure)
    return LabeledRaster(labels=labels, component_count=int(count))


def connectivity_number(mask: np.ndarray) -> int:
    """Number of bounded complement components (``complement_holes``) of
    a region that leaves the frame's border ring free."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptyRegion("the region mask has no cells")
    return len(complement_holes(mask)[1])


# ---------------------------------------------------------------------------
# Polygons on the half-integer lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplePolygon:
    """Closed simple polygon with vertices on the half-integer cell lattice.

    Vertices are stored in doubled integer coordinates (odd numbers are
    half-integers), so crossing tests against cell centers (even doubled
    coordinates) are exact integer arithmetic with no ties.
    ``winding_point2`` answers one point; ``winding_field`` answers every
    cell center of a frame at once for axis-parallel polygons.
    """

    vertices2: tuple
    origin: complex = 0j
    spacing: float = 1.0

    def __post_init__(self):
        if len(self.vertices2) < 4:
            raise ValidationError("a closed polygon needs at least 4 vertices")
        if len(set(self.vertices2)) != len(self.vertices2):
            raise ValidationError("polygon revisits a vertex; not simple")

    @property
    def vertices(self):
        """Vertex list in complex plane coordinates."""
        return [self.origin + 0.5 * self.spacing * complex(x, y)
                for (x, y) in self.vertices2]

    def __len__(self):
        return len(self.vertices2)

    def to_text(self) -> str:
        lines = [f"vertices: {len(self.vertices2)}"]
        lines += [f"{v.real:.9g} {v.imag:.9g}" for v in self.vertices]
        return "\n".join(lines) + "\n"

    def winding_point2(self, qx: int, qy: int) -> int:
        """Winding number around a point given in doubled coordinates."""
        total = 0
        n = len(self.vertices2)
        for i in range(n):
            x1, y1 = self.vertices2[i]
            x2, y2 = self.vertices2[(i + 1) % n]
            if y1 == y2:
                if y1 == qy and min(x1, x2) <= qx <= max(x1, x2):
                    raise OnBoundary(f"query point lies on the polygon: ({qx}, {qy})")
                continue
            cross = (x2 - x1) * (qy - y1) - (qx - x1) * (y2 - y1)
            if cross == 0 and min(y1, y2) <= qy <= max(y1, y2) \
                    and min(x1, x2) <= qx <= max(x1, x2):
                raise OnBoundary(f"query point lies on the polygon: ({qx}, {qy})")
            if y1 <= qy < y2 and cross > 0:
                total += 1
            elif y2 <= qy < y1 and cross < 0:
                total -= 1
        return total

    def winding_field(self, shape) -> np.ndarray:
        """Winding number around every cell center of an h x w frame.

        Equals ``winding_point2(2 ix, 2 iy)`` at [iy, ix] for polygons with
        axis-parallel edges on odd doubled coordinates, the contours of
        ``separating_cycle``.  Under the half-open crossing rule a vertical
        edge adds its direction (+1 up) to the centers left of it in the
        rows it spans: a difference array, summed down the rows and then
        leftward along them, gives every center in one pass.
        """
        h, w = shape
        v = np.asarray(self.vertices2, dtype=np.int64)
        nxt = np.roll(v, -1, axis=0)
        if not ((v % 2).all() and (v == nxt).any(axis=1).all()):
            raise ValidationError("winding_field needs axis-parallel edges on odd coordinates")
        vertical = v[:, 0] == nxt[:, 0]
        x, y1, y2 = v[vertical, 0], v[vertical, 1], nxt[vertical, 1]
        sign = np.sign(y2 - y1)
        col = np.clip((x + 1) // 2, 0, w)  # one past the last column left of the edge
        row0 = np.clip((np.minimum(y1, y2) + 1) // 2, 0, h)
        row1 = np.clip((np.maximum(y1, y2) + 1) // 2, 0, h)
        diff = np.zeros((h + 1, w + 1), dtype=np.int64)
        np.add.at(diff, (row0, col), sign)
        np.add.at(diff, (row1, col), -sign)
        rows = np.cumsum(diff[:h], axis=0)
        # column 0 collects edges left of the frame, which wind no center
        return np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1]


def winding_number(poly: SimplePolygon, z) -> int:
    """Exact winding number of the polygon around a point off the polygon."""
    w = (complex(z) - poly.origin) / (0.5 * poly.spacing)
    qx, qy = round(w.real), round(w.imag)
    if abs(w.real - qx) > 1e-9 or abs(w.imag - qy) > 1e-9:
        # Point off the doubled lattice: fall back to scaled exact test on
        # a refined lattice; ties then raise OnBoundary.
        scale = 2 ** 20
        qx = round(w.real * scale)
        qy = round(w.imag * scale)
        scaled = SimplePolygon(
            tuple((x * scale, y * scale) for (x, y) in poly.vertices2))
        return scaled.winding_point2(qx, qy)
    return poly.winding_point2(qx, qy)


# ---------------------------------------------------------------------------
# Separating cycle
# ---------------------------------------------------------------------------

def _trace_outer_contour(blob: np.ndarray):
    """Outer boundary of a union of cells as doubled-lattice vertices.

    Directed edges keep the blob on the left; at pinch vertices the
    rightmost turn is taken, matching the foreground-4 convention.
    Returns None when the traced cycle revisits a vertex.
    """
    rows = np.flatnonzero(blob.any(axis=1))
    if len(rows) == 0:
        return None
    h, w = blob.shape
    pad = np.zeros((h + 2, w + 2), dtype=bool)
    pad[1:-1, 1:-1] = blob
    # Lattice vertex (2i - 1, 2j - 1) sits at [j, i] of these views of the
    # cells to its south-west, south-east, north-west and north-east.
    sw, se, nw, ne = pad[:-1, :-1], pad[:-1, 1:], pad[1:, :-1], pad[1:, 1:]
    # One bit per boundary edge leaving the vertex with the blob on its left.
    leaving = (sw & ~nw) | (se & ~sw) << 1 | (nw & ~ne) << 2 | (ne & ~se) << 3
    bit = {(-2, 0): 1, (0, -2): 2, (0, 2): 4, (2, 0): 8}

    # The bottom-most then left-most cell's bottom edge lies on the outer
    # cycle, and is the only boundary edge leaving its left end.
    iy0 = int(rows[0])
    start = (2 * int(np.argmax(blob[iy0])) - 1, 2 * iy0 - 1)
    path = [start]
    seen = {start}
    x, y = start
    dx, dy = 2, 0
    while True:
        x, y = x + dx, y + dy
        if (x, y) == start:
            return path
        if (x, y) in seen:
            return None
        seen.add((x, y))
        path.append((x, y))
        out = int(leaving[(y + 1) // 2, (x + 1) // 2])
        # rightmost turn first; no boundary edge leaves back along its twin
        for d in ((dy, -dx), (dx, dy), (-dy, dx)):
            if out & bit[d]:
                dx, dy = d
                break


def _compress_collinear(vertices):
    out = []
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i - 1]
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (x1 - x0) * (y2 - y1) != (y1 - y0) * (x2 - x1):
            out.append(vertices[i])
    return out


def separating_cycle(grid: GridDomain, k1_label: int, k2_label: int) -> SimplePolygon:
    """Simple polygon in the domain winding once around one bounded
    complement component and zero times around another.

    The polygon is the outer contour of the widest dilation of the first
    component that keeps two cells of clearance from every other
    complement cell, so both sides of the contour are domain cells.  A
    contour is accepted when its exact winding field over the frame
    (``SimplePolygon.winding_field``, one difference-array pass) reads 1
    on every cell of the first component and 0 on every cell of the
    second.
    """
    labels, count, unbounded = grid.complement_labels
    if k1_label == k2_label:
        raise ValidationError("the two components must be distinct")
    for lab in (k1_label, k2_label):
        if not (1 <= lab <= count):
            raise ValidationError(f"no complement component labeled {lab}")
    if k1_label == unbounded:
        raise LabelNotBounded(f"component {k1_label} is the unbounded one")
    k1 = labels == k1_label
    other = (~grid.mask) & (labels != k1_label)

    from scipy import ndimage

    taxi = ndimage.distance_transform_cdt(~k1, metric="taxicab")
    clearance = int(taxi[other].min()) if other.any() else (grid.width + grid.height)
    t_max = clearance - 3  # dilation by t + 2 must avoid all other complement
    if t_max < 1:
        raise NoCorridor(
            "no dilation step separates the components at this resolution")
    for t in range(t_max, 0, -1):
        blob = taxi <= t  # dilation of k1 by t steps of the diamond
        contour = _trace_outer_contour(blob)
        if contour is None:
            continue
        poly = SimplePolygon(tuple(_compress_collinear(contour)),
                             origin=grid.origin, spacing=grid.spacing)
        field = poly.winding_field(labels.shape)
        if (field[k1] == 1).all() and (field[labels == k2_label] == 0).all():
            return poly
    raise NoCorridor("no dilation step yields a simple separating contour")


# ---------------------------------------------------------------------------
# Nerve of a metric-disk cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NerveGraph:
    """Nerve of a greedy cover of a ball raster by metric disks.

    ``graph_cycle_rank`` is the raw graph cycle count E - V + C;
    ``cycle_rank`` additionally fills triangle relations (witnessed triple
    intersections, plus pairwise-intersection triangles when the cover
    scale is safely below one sixth of the shortest noncontractible loop)
    and equals the number of independent loops of the covered region.
    """

    centers: tuple
    cover_radius: float
    edges: tuple
    triangles: tuple
    component_count: int
    graph_cycle_rank: int
    cycle_rank: int

    @property
    def vertex_count(self) -> int:
        return len(self.centers)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_text(self) -> str:
        lines = [f"vertices: {len(self.centers)}"]
        lines += [f"v{i} {c.real:.9g} {c.imag:.9g}" for i, c in enumerate(self.centers)]
        lines.append(f"edges: {len(self.edges)}")
        lines += [f"e {i} {j}" for (i, j) in self.edges]
        lines.append(f"cycle_rank: {self.cycle_rank}")
        return "\n".join(lines) + "\n"


def injectivity_lower_bound(domain: Domain, ball) -> float:
    """Radius at which the cover map is injective over every ball point.

    Half the minimal model distance from the lifted ball cells to their
    own deck translates; infinite for domains with a trivial cover.
    """
    if not isinstance(domain, CatalogDomain):
        raise Unsupported("injectivity bounds need a catalog domain")
    if not domain.deck_step:
        return math.inf
    cells = ball.centers[ball.mask]
    if cells.size == 0:
        raise OutOfDomain("the ball raster is empty")
    return (domain.deck_loop_length(domain.lift(cells)) - 1e-9) / 2.0


def nerve_cover(domain: Domain, ball, r_cover: float) -> NerveGraph:
    """Greedy metric-disk cover of the ball raster and its nerve.

    Ball cells are chosen as disk centers (farthest-point order, fixed
    row-major scan for ties) until every ball cell is within ``r_cover``
    of a center.  Edges join centers whose disks share a ball cell.
    """
    inj = injectivity_lower_bound(domain, ball)
    if not (isinstance(r_cover, numbers.Real) and r_cover > 0):
        raise ValidationError(f"cover radius must be a positive real number: {r_cover!r}")
    if r_cover > inj / 2.0:
        raise CoverScaleTooLarge(
            f"cover radius {r_cover:g} exceeds half the injectivity bound {inj:g}")
    cells = ball.centers[ball.mask]
    if cells.size == 0:
        raise OutOfDomain("the ball raster is empty")
    lifts = domain.lift(cells)

    def dist_from(i):
        return domain.distance(domain.lift(cells[i]), lifts)

    center_ids = [0]
    mindist = dist_from(0)
    covered = [mindist < r_cover]  # one boolean row per center
    while True:
        nxt = int(np.argmax(mindist))
        if mindist[nxt] <= r_cover:
            break
        center_ids.append(nxt)
        row = dist_from(nxt)
        covered.append(row < r_cover)
        np.minimum(mindist, row, out=mindist)

    # Each cell's set of covering centers is a clique of the nerve.  Cells
    # share few distinct sets, so deduplicate the packed column patterns
    # before the Python loop over cliques.
    m = len(center_ids)
    packed = np.ascontiguousarray(np.packbits(covered, axis=0).T)
    patterns = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    members = np.unpackbits(patterns.view(np.uint8).reshape(len(patterns), -1),
                            axis=1)[:, :m]
    cliques = [np.flatnonzero(bits).tolist() for bits in members]
    edges = set()
    witness_triangles = set()
    for clique in cliques:
        for pair in itertools.combinations(clique, 2):
            edges.add(pair)
        for tri in itertools.combinations(clique, 3):
            witness_triangles.add(tri)
    edges = sorted(edges)
    triangles = set(witness_triangles)

    # Pairwise-intersection triangles are null-homotopic when three cover
    # disks fit inside a ball smaller than the shortest loop, which holds
    # for 6 * r_cover below the doubled injectivity bound.
    if 6.0 * r_cover < 2.0 * inj:
        adjacency = [set() for _ in range(m)]
        for i, j in edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        for i, j in edges:
            for k in adjacency[i] & adjacency[j]:
                if k > j:
                    triangles.add((i, j, k))
    triangles = sorted(triangles)

    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    component_count = len({find(i) for i in range(m)})
    graph_rank = len(edges) - m + component_count
    rank2 = _gf2_rank(edges, triangles)
    cycle_rank = graph_rank - rank2
    if cycle_rank < 0:
        raise ValidationError("triangle relations exceeded the graph cycle count")
    return NerveGraph(
        centers=tuple(complex(cells[i]) for i in center_ids),
        cover_radius=r_cover,
        edges=tuple(edges),
        triangles=tuple(triangles),
        component_count=component_count,
        graph_cycle_rank=graph_rank,
        cycle_rank=cycle_rank,
    )


def _gf2_rank(edges, triangles) -> int:
    """Rank over GF(2) of the triangle boundary matrix."""
    edge_index = {e: i for i, e in enumerate(edges)}
    pivots = {}
    rank = 0
    for i, j, k in triangles:
        row = (1 << edge_index[(i, j)]) | (1 << edge_index[(j, k)]) \
            | (1 << edge_index[(i, k)])
        while row:
            low = row.bit_length() - 1
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank
