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

from .domains import (CatalogDomain, Domain, GridDomain, cell_centers, check_ring,
                      complement_holes, lift_row)
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


def connectivity_number(mask: np.ndarray) -> int:
    """Number of bounded complement components (``complement_holes``) of
    a region that leaves the frame's border ring free.

    Every cell outside the region's bounding box joins the border ring
    through cells outside the box, so the holes lie inside it: only the
    box widened by one cell, whose own ring is then free, is labelled.
    """
    mask = np.asarray(mask, dtype=bool)
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    if not rows.size:
        raise EmptyRegion("the region mask has no cells")
    check_ring(mask)
    return len(complement_holes(mask[rows[0] - 1:rows[-1] + 2, cols[0] - 1:cols[-1] + 2])[1])


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
    labels, holes = grid.complement
    if k1_label == k2_label:
        raise ValidationError("the two components must be distinct")
    for lab in (k1_label, k2_label):
        if not (isinstance(lab, numbers.Real) and 1 <= lab <= len(holes) + 1):
            raise ValidationError(f"no complement component labeled {lab!r}")
    if k1_label not in holes:
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


def _packed(rows, dtype, shape) -> np.ndarray:
    out = np.array(rows, dtype=dtype).reshape(shape)
    out.flags.writeable = False
    return out


class NerveGraph:
    """Nerve of a greedy cover of a ball raster by metric disks.

    ``graph_cycle_rank`` is the raw graph cycle count E - V + C;
    ``cycle_rank`` additionally fills triangle relations (witnessed triple
    intersections, plus pairwise-intersection triangles when the cover
    scale is safely below one sixth of the shortest noncontractible loop)
    and equals the number of independent loops of the covered region.

    The constructor takes the centers, edges and triangles as sequences
    and keeps them packed: a ``complex128`` array and ``int32`` rows.
    ``centers``, ``edges`` and ``triangles`` give tuples of Python numbers
    on each access.  Equality and the hash are by value.
    """

    __slots__ = ("_centers", "cover_radius", "_edges", "_triangles", "component_count",
                 "graph_cycle_rank", "cycle_rank")

    def __init__(self, centers, cover_radius: float, edges, triangles, component_count: int,
                 graph_cycle_rank: int, cycle_rank: int):
        self._centers = _packed(centers, np.complex128, -1)
        self._edges = _packed(edges, np.int32, (-1, 2))
        self._triangles = _packed(triangles, np.int32, (-1, 3))
        self.cover_radius = cover_radius
        self.component_count = component_count
        self.graph_cycle_rank = graph_cycle_rank
        self.cycle_rank = cycle_rank

    @property
    def centers(self) -> tuple:
        return tuple(self._centers.tolist())

    @property
    def edges(self) -> tuple:
        return tuple(map(tuple, self._edges.tolist()))

    @property
    def triangles(self) -> tuple:
        return tuple(map(tuple, self._triangles.tolist()))

    @property
    def vertex_count(self) -> int:
        return len(self._centers)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _key(self):
        return (self.centers, self.cover_radius, self.edges, self.triangles,
                self.component_count, self.graph_cycle_rank, self.cycle_rank)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"NerveGraph(vertices={self.vertex_count}, edges={self.edge_count}, "
                f"triangles={len(self._triangles)}, cycle_rank={self.cycle_rank})")

    def to_text(self) -> str:
        lines = [f"vertices: {self.vertex_count}"]
        lines += [f"v{i} {c.real:.9g} {c.imag:.9g}" for i, c in enumerate(self.centers)]
        lines.append(f"edges: {self.edge_count}")
        lines += [f"e {i} {j}" for (i, j) in self.edges]
        lines.append(f"cycle_rank: {self.cycle_rank}")
        return "\n".join(lines) + "\n"


def _injectivity(domain: CatalogDomain, lifts) -> float:
    """Half the least model distance from the lifts to their own deck
    translates; infinite for domains with a trivial cover."""
    if not domain.deck_step:
        return math.inf
    return (domain.deck_loop_length(lifts) - 1e-9) / 2.0


# Side of the square raster tiles that share one pivot in ``nerve_cover``.
_TILE = 8


def _tile_slots(mask: np.ndarray):
    """Tile-major layout of a raster's True cells for ``nerve_cover``.

    The bounding box of the True cells is cut into _TILE x _TILE tiles,
    and the k-th tile holding a True cell owns slots k * _TILE**2 onward,
    row-major inside the tile.  Returns (index, pad, pivots): the
    row-major frame index of each slot's cell; the mask of pad slots,
    which hold no cell and repeat their tile's pivot in ``index``; and
    each tile's pivot slot, its cell nearest the tile's middle.
    """
    w = mask.shape[1]
    ys, xs = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    box = mask[ys[0]:ys[-1] + 1, xs[0]:xs[-1] + 1]
    bh, bw = box.shape
    th, tw = -(-bh // _TILE), -(-bw // _TILE)
    frame = np.full((th * _TILE, tw * _TILE), -1)
    frame[:bh, :bw] = np.where(box, np.arange(ys[0], ys[-1] + 1)[:, None] * w
                                + np.arange(xs[0], xs[-1] + 1), -1)
    tiles = frame.reshape(th, _TILE, tw, _TILE).swapaxes(1, 2).reshape(th * tw, -1)
    tiles = tiles[(tiles >= 0).any(axis=1)]
    pad = tiles < 0
    at = np.arange(_TILE * _TILE)
    middle = (_TILE - 1) / 2
    offset = (at // _TILE - middle) ** 2 + (at % _TILE - middle) ** 2
    pivots = np.argmin(np.where(pad, np.inf, offset), axis=1)
    tiles = np.where(pad, tiles[np.arange(len(tiles)), pivots][:, None], tiles)
    return tiles.ravel(), pad.ravel(), pivots + at.size * np.arange(len(tiles))


def _distinct_runs(words: np.ndarray) -> np.ndarray:
    """The columns of ``words`` that differ from the column before."""
    return words[:, np.r_[True, (words[:, 1:] != words[:, :-1]).any(axis=0)]]


def nerve_cover(domain: Domain, ball, r_cover: float) -> NerveGraph:
    """Greedy metric-disk cover of the ball raster and its nerve.

    Ball cells are chosen as disk centers (farthest-point order, fixed
    row-major scan for ties) until every ball cell is within ``r_cover``
    of a center.  Edges join centers whose disks share a ball cell.  A new
    center's distance row is evaluated only on the cells that the
    triangle inequality through each raster tile's pivot does not rule
    out.
    """
    if not isinstance(domain, CatalogDomain):
        raise Unsupported("injectivity bounds need a catalog domain")
    mask = ball.mask
    if not mask.any():
        raise OutOfDomain("the ball raster is empty")
    index, pad, pivots = _tile_slots(mask)
    cells = cell_centers(ball.origin, ball.spacing, index // ball.width, index % ball.width)
    lifts = domain.lift(cells)
    inj = _injectivity(domain, lifts)
    if not (isinstance(r_cover, numbers.Real) and r_cover > 0):
        raise ValidationError(f"cover radius must be a positive real number: {r_cover!r}")
    if r_cover > inj / 2.0:
        raise CoverScaleTooLarge(
            f"cover radius {r_cover:g} exceeds half the injectivity bound {inj:g}")

    n_tiles, size = len(pivots), _TILE * _TILE
    pivot_lifts = lift_row(lifts, pivots)
    # Each slot's distance to its tile's pivot, and the tile's reach: the
    # largest of them.  Pads read -inf, so no bound below keeps them.
    to_pivot = domain.distance(lift_row(lifts, np.repeat(pivots, size)), lifts)
    to_pivot[pad] = -np.inf
    to_pivot = to_pivot.reshape(n_tiles, size)
    reach = to_pivot.max(axis=1)
    order = index.reshape(n_tiles, size)

    first = int(np.argmin(np.where(pad, mask.size, index)))
    ids = [first]
    mindist = domain.distance(lift_row(lifts, first), lifts)
    mindist[pad] = -np.inf
    # A cell's covering centers are the bits of its column: center k is
    # bit k & 63 of word k >> 6, and the words double in number as needed.
    covers = ((mindist < r_cover) & ~pad).astype(np.uint64)[None, :]
    flat, mindist = mindist, mindist.reshape(n_tiles, size)
    tile_max = mindist.max(axis=1)
    while True:
        top = tile_max.max()
        if top <= r_cover:
            break
        # the first farthest cell of each tied tile, then the least row-major
        # index among those, as a row-major argmax would pick
        tied = np.flatnonzero(tile_max == top)
        at = np.argmax(mindist[tied] == top, axis=1)
        best = int(np.argmin(order[tied, at]))
        nxt = int(tied[best]) * size + int(at[best])
        # The new center c changes cell j only if d(c, j) < max(mindist[j],
        # r_cover), and d(c, j) >= d(c, o) - d(o, j) for the pivot o of j's
        # tile (the LAESA bound), so only the cells with d(c, o) < d(o, j) +
        # max(mindist[j], r_cover) get a distance, and only the tiles with
        # d(c, o) < reach + max(tile_max, r_cover) hold such cells.  The
        # 1e-9 relative margin is far above the kernels' error of at most
        # 1.5e-14 * max(1, d) for any cover radius above 1e-4, so the
        # skipped cells are those the full row leaves alone.
        c = lift_row(lifts, nxt)
        to_c = domain.distance(c, pivot_lifts)
        near_tiles = np.flatnonzero(
            to_c < (reach + np.maximum(tile_max, r_cover)) * (1 + 1e-9))
        bound = (to_pivot[near_tiles] + np.maximum(mindist[near_tiles], r_cover)) * (1 + 1e-9)
        t, s = np.nonzero(to_c[near_tiles, None] < bound)
        near = near_tiles[t] * size + s
        row = domain.distance(c, lift_row(lifts, near))
        k = len(ids)
        ids.append(nxt)
        if k >> 6 == len(covers):
            covers = np.vstack([covers, np.zeros_like(covers)])
        covers[k >> 6, near[row < r_cover]] |= np.uint64(1 << (k & 63))
        flat[near] = np.minimum(flat[near], row)
        tile_max[near_tiles] = mindist[near_tiles].max(axis=1)

    # Each cell's set of covering centers is a clique of the nerve (a pad's
    # set is empty).  Cells share few distinct sets: neighbours in tile
    # order mostly repeat one, so runs are dropped before the sort that
    # leaves each set once.
    m = len(ids)
    patterns = _distinct_runs(covers[:(m + 63) >> 6])
    patterns = _distinct_runs(patterns[:, np.lexsort(patterns)]).T
    members = np.unpackbits(patterns.astype("<u8").view(np.uint8), axis=1,
                            bitorder="little")[:, :m].astype(np.float32)
    # two centers share a cell exactly when some set holds both
    adjacent = members.T @ members > 0
    np.fill_diagonal(adjacent, False)
    i, j = np.nonzero(np.triu(adjacent))

    # Pairwise-intersection triangles are null-homotopic when three cover
    # disks fit inside a ball smaller than the shortest loop, which holds
    # for 6 * r_cover below the doubled injectivity bound; then the
    # triangles are all 3-cliques of the edge graph, the witnessed ones
    # among them.  Otherwise only witnessed triple intersections count.
    if 6.0 * r_cover < 2.0 * inj:
        e, third = np.nonzero(adjacent[i] & adjacent[j] & (np.arange(m) > j[:, None]))
        triangles = np.column_stack([i[e], j[e], third])
    else:
        triangles = sorted({tri for bits in members
                            for tri in itertools.combinations(np.flatnonzero(bits).tolist(), 3)})
        triangles = np.array(triangles, dtype=np.intp).reshape(-1, 3)

    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    component_count = len({find(a) for a in range(m)})
    graph_rank = len(i) - m + component_count
    cycle_rank = graph_rank - _gf2_rank(m, i, j, triangles)
    if cycle_rank < 0:
        raise ValidationError("triangle relations exceeded the graph cycle count")
    return NerveGraph(
        centers=cells[ids],
        cover_radius=r_cover,
        edges=np.column_stack([i, j]),
        triangles=triangles,
        component_count=component_count,
        graph_cycle_rank=graph_rank,
        cycle_rank=cycle_rank,
    )


def _gf2_rank(m: int, i: np.ndarray, j: np.ndarray, triangles: np.ndarray) -> int:
    """Rank over GF(2) of the boundary matrix of triangles on m vertices,
    whose edges (i, j), i < j, are numbered in lexicographic order."""
    keys = i * m + j    # ascending, so an edge's number is its key's rank
    a, b, c = triangles.T
    pivots = {}
    rank = 0
    for x, y, z in zip(*(np.searchsorted(keys, u * m + v).tolist()
                         for u, v in ((a, b), (b, c), (a, c)))):
        row = (1 << x) | (1 << y) | (1 << z)
        while row:
            low = row.bit_length() - 1
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank
