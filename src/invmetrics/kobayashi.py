"""Kobayashi distance, geodesics, curve length, and rasterized balls.

Catalog domains use the covering route: the distance between two points
is the infimum over deck translates of the model distance between their
lifts.  The deck group shifts only Im w of a lift w = log z, and the
model distance grows with that offset, so the infimum sits at the
nearest translate and has a closed form.  Each catalog class in
``domains`` owns that route (``domain.distance(domain.lift(p),
domain.lift(q))``, vectorized); this module adds the checked entry
points, geodesics, curve lengths and ball rasters on top of it.  Grid
domains get a two-sided interval instead: an upper end from a weighted
shortest path and a lower bound from the finite holomorphic-map
dictionary.  It is not certified, since the path's weights are not shown
to bound its hyperbolic length.  Geodesics, curve lengths and ball
rasters need the closed form and raise ``Unsupported`` on grids.  The
cell-graph inner distance runs on the disk alone, as a convergence check
of that closed form.
"""

from __future__ import annotations

import math
import numbers
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domains import (
    FRAME_MARGIN,
    Disk,
    Domain,
    GridDomain,
    HalfPlane,
    cell_centers,
    cell_pairs,
    contains,
    grid_frame_load,
    grid_from_predicate,
    grid_save,
    hull_cells,
    is_json_number,
    lift_pair,
    rasterize,
)
from .errors import (
    DegenerateEndpoints,
    Disconnected,
    NonConvergence,
    OutOfDomain,
    ParseError,
    Unsupported,
    ValidationError,
)
from .mobius import as_finite
from .poincare import poincare_ball_euclidean


# scipy.sparse costs about 10 MB at import, and only the graph paths need it
coo_matrix = csr_matrix = _csgraph_dijkstra = None


def _load_sparse():
    global coo_matrix, csr_matrix, _csgraph_dijkstra
    if _csgraph_dijkstra is None:
        from scipy.sparse import coo_matrix, csr_matrix
        from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra


@dataclass(frozen=True)
class DistanceInterval:
    """Two-sided enclosure of a distance value; ``certified`` is False
    where an end is an estimate not shown to bound the value."""

    lower: float
    upper: float
    certified: bool = True

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValidationError(f"ill-formed interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __contains__(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True, eq=False)
class PolyPath:
    """Polyline through the domain; consecutive segments sampled inside.

    ``vertices`` is built once, from any sequence of finite points, as a
    read-only 1-D complex ndarray; equality and hashing are by identity.
    """

    vertices: np.ndarray

    def __post_init__(self):
        try:
            verts = np.array(self.vertices, dtype=complex)
        except TypeError:
            raise OutOfDomain("path vertices must be finite points, not INFINITY") from None
        if verts.ndim != 1 or verts.size < 2:
            raise ValidationError("a path needs at least two vertices")
        if not np.isfinite(verts).all():
            raise OutOfDomain("path vertices must have finite coordinates")
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)

    def __len__(self):
        return len(self.vertices)


class MetricBall:
    """Rasterized open sublevel set {z : dist(center, z) < radius}.

    The constructor takes the raster as a boolean ``mask`` and keeps it
    packed, one bit a cell (``np.packbits`` bytes in ``bits``, plus its
    ``shape``): a ball holds an eighth of the memory of its mask.  ``mask``
    unpacks a read-only array on each access.  Equality is by identity.
    """

    __slots__ = ("domain", "center", "radius", "metric", "origin", "spacing", "shape", "bits")

    def __init__(self, domain: Domain | None, center: complex, radius: float, metric: str,
                 origin: complex, spacing: float, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        self.domain, self.center, self.radius, self.metric = domain, center, radius, metric
        self.origin, self.spacing = origin, spacing
        self.shape = mask.shape
        self.bits = np.packbits(mask).tobytes()

    @property
    def mask(self) -> np.ndarray:
        mask = np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8),
                             count=self.height * self.width).view(bool).reshape(self.shape)
        mask.flags.writeable = False
        return mask

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def centers(self) -> np.ndarray:
        return cell_centers(self.origin, self.spacing, np.arange(self.height)[:, None],
                            np.arange(self.width))

    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def ball_save(ball: MetricBall) -> bytes:
    """Grid-domain file format plus {metric, center, radius} metadata."""
    return grid_save(ball, metric=ball.metric, center=[ball.center.real, ball.center.imag],
                     radius=ball.radius)


# The metrics a ball export names: the CLI's Carathéodory ball is the
# approximant's.
BALL_METRICS = ("kobayashi", "caratheodory", "caratheodory-approximant")


def ball_load(data) -> MetricBall:
    """Parse a ball export; the domain reference is not serialized.

    Besides the grid fields (``grid_frame_load``), ``center`` must be a
    list of two JSON numbers, ``radius`` a JSON number and ``metric`` one
    of ``BALL_METRICS``; anything else is a ``ParseError`` naming the field.
    """
    payload, origin, spacing, mask = grid_frame_load(data)
    try:
        center, radius, metric = (payload[name] for name in ("center", "radius", "metric"))
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if not (isinstance(center, list) and len(center) == 2 and all(map(is_json_number, center))):
        raise ParseError(f"center must be a list of two numbers: {center!r}")
    if not is_json_number(radius):
        raise ParseError(f"radius must be a number: {radius!r}")
    if not (isinstance(metric, str) and metric in BALL_METRICS):
        raise ParseError(f"metric must be one of {', '.join(BALL_METRICS)}: {metric!r}")
    try:
        values = [float(v) for v in (*center, radius)]
    except OverflowError as exc:
        raise ValidationError(f"center and radius must be finite: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"center and radius must be finite: {center!r}, {radius!r}")
    center, radius = complex(*values[:2]), values[2]
    return MetricBall(domain=None, center=center, radius=radius, metric=metric,
                      origin=origin, spacing=spacing, mask=mask)


# ---------------------------------------------------------------------------
# Covering-route distances
# ---------------------------------------------------------------------------

def kob_distance(domain: Domain, p, q) -> DistanceInterval:
    """Interval around the Kobayashi distance.

    On a catalog domain it is [v - e, v + e], rounded outward, with v the
    domain's ``distance`` and e its ``distance_error`` bound; it is
    certified.  Grids get a genuine two-sided interval, not certified
    (``_grid_graph``).  A catalog pair is one 2-element call each of the
    domain's ``contains`` and ``lift``, which share one [p, q] array and
    its np.abs.
    """
    p, q = as_finite(p), as_finite(q)
    if not isinstance(domain, Domain):
        raise Unsupported(f"unknown domain {domain!r}")
    # one pass of each vectorized kernel over the pair [p, q]
    pq = np.array([p, q])
    m = np.abs(pq)
    for z, ok in zip((p, q), domain.contains(pq, m)):
        if not ok:
            raise OutOfDomain(f"{z!r} not in {domain!r}")
    if p == q:
        return DistanceInterval(0.0, 0.0)
    if isinstance(domain, GridDomain):
        return _grid_interval(domain, p, q)
    wp, wq = lift_pair(domain, pq, m)
    v = domain.distance(wp, wq)
    return enclosure(v, domain.distance_error(wp, wq, v))


def enclosure(value, error) -> DistanceInterval:
    """[value - error, value + error], each end one float step outward
    (the lower end 0 where the difference is NaN: inf - inf)."""
    value, error = float(value), float(error)
    return DistanceInterval(max(0.0, math.nextafter(value - error, -math.inf)),
                            math.nextafter(value + error, math.inf))


# ---------------------------------------------------------------------------
# Grid-domain interval machinery
# ---------------------------------------------------------------------------

_GRID_GRAPH_CACHE: "weakref.WeakKeyDictionary[GridDomain, object]" = (
    weakref.WeakKeyDictionary())


def _grid_graph(grid: GridDomain):
    """Sparse 8-neighbor graph weighed by the endpoint density bounds.

    Edge weight is the Euclidean step length times the larger endpoint
    density bound.  That is not shown to bound the step's hyperbolic
    length: a diagonal step next to the complement can pass a complement
    cell (centre offset (-1, 2)) closer than either end, where 1/delta
    exceeds the factor by up to 8.1%.  Diagonal steps require both
    orthogonal corner cells, which keeps the polyline inside the domain.
    """
    _load_sparse()
    cached = _GRID_GRAPH_CACHE.get(grid)
    if cached is not None:
        return cached
    mask = grid.mask.ravel()
    bound = grid.cell_density_bound(...).ravel()
    rows, cols, weights = [], [], []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        i, j = cell_pairs(grid.mask, grid.mask, dx, dy)
        if dx and dy:
            # corner guard: both orthogonal neighbors must be domain cells
            ok = mask[i + dx] & mask[j - dx]
            i, j = i[ok], j[ok]
        rows.append(i)
        cols.append(j)
        weights.append(math.hypot(dx, dy) * grid.spacing * np.maximum(bound[i], bound[j]))
    graph = coo_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(mask.size, mask.size)).tocsr()
    _GRID_GRAPH_CACHE[grid] = graph
    return graph


def _straight_path_weight(graph, width: int, cp, cq) -> float:
    """Weight in ``_grid_graph``'s ``graph``, on a frame ``width`` cells
    wide, of the straight 8-neighbour path between cells ``cp`` and ``cq``,
    summed left to right from ``cp`` as a search from there sums it; inf
    when a step of it is no edge (a cell off the domain, or a diagonal the
    corner guard refuses).

    The path visits the cells rint(c0 + (c1 - c0) k / n), k = 0 .. n, with n
    the larger coordinate difference, so each step moves at most one cell
    along each axis.
    """
    (x0, y0), (x1, y1) = cp, cq
    n = max(abs(x1 - x0), abs(y1 - y0))
    k = np.arange(n + 1)
    cells = (np.rint(y0 + (y1 - y0) * k / n).astype(np.intp) * width
             + np.rint(x0 + (x1 - x0) * k / n).astype(np.intp))
    a, b = cells[:-1], cells[1:]
    # the graph stores each edge once, in one of its two directions
    steps = np.asarray(graph[a, b] + graph[b, a]).ravel()
    if not (steps > 0).all():
        return math.inf
    # np.cumsum adds in order, as Dijkstra's relaxations along the path do
    return float(np.cumsum(steps)[-1])


def _grid_upper(grid: GridDomain, p: complex, q: complex) -> float:
    """Upper end of a grid interval: the graph's shortest path between the
    endpoint cells plus the links from p and q to their cells' centres.

    The search is limited by the weight of the straight path between the two
    cells, where it is a path of the graph, times 1 + 1e-9. Rounding is
    monotone, so Dijkstra's value at the target is at most that path's sum,
    and a limited search gives every node within the limit its unlimited
    value (the limit is inclusive): the value is the unlimited one, bit for
    bit, while the search settles only the nodes within the limit.
    """
    cp = grid.cell_index(p)
    cq = grid.cell_index(q)
    bound_p = 1.0 / max(grid.distance_to_complement(p), 1e-300)
    bound_q = 1.0 / max(grid.distance_to_complement(q), 1e-300)
    if cp == cq:
        return float(abs(p - q) * max(bound_p, bound_q))
    zp = grid.cell_center(*cp)
    zq = grid.cell_center(*cq)
    link_p = abs(p - zp) * max(bound_p, grid.cell_density_bound((cp[1], cp[0])))
    link_q = abs(q - zq) * max(bound_q, grid.cell_density_bound((cq[1], cq[0])))
    graph = _grid_graph(grid)
    source = cp[1] * grid.width + cp[0]
    target = cq[1] * grid.width + cq[0]
    limit = _straight_path_weight(graph, grid.width, cp, cq) * (1.0 + 1e-9)
    dist = _csgraph_dijkstra(graph, directed=False, indices=source,
                             min_only=False, limit=limit)
    value = float(dist[target])
    if not math.isfinite(value):
        raise Disconnected("grid cells of the endpoints are not connected")
    return float(link_p + value + link_q)


def _grid_interval(grid: GridDomain, p: complex, q: complex) -> DistanceInterval:
    from .caratheodory import car_lower, default_dictionary

    upper = _grid_upper(grid, p, q)
    lower = car_lower(grid, p, q, default_dictionary(grid))
    # the graph's weights are not shown to bound step lengths (_grid_graph)
    return DistanceInterval(min(lower, upper), upper, certified=False)


# ---------------------------------------------------------------------------
# Curve length and inner distance
# ---------------------------------------------------------------------------

def curve_length(domain: Domain, path: PolyPath, rel_tol: float = 1e-8,
                 max_levels: int = 22) -> float:
    """Length of a polyline under the domain's distance (catalog only).

    The supremum over partitions is approached by dyadic refinement of
    every segment until the summed pairwise distances are stable to
    ``rel_tol``; ``NonConvergence`` if ``max_levels`` levels do not get
    there.  Grids raise ``Unsupported``: their pairwise values are upper
    estimates that converge at O(h), never to ``rel_tol``.
    """
    if isinstance(domain, GridDomain):
        raise Unsupported("curve length needs exact distances: catalog domains only")
    if not isinstance(max_levels, (int, np.integer)) or max_levels < 2:
        raise ValidationError(f"max_levels must be an integer of at least 2: {max_levels!r}")
    if not (isinstance(rel_tol, numbers.Real) and 0.0 < rel_tol < math.inf):
        raise ValidationError(f"rel_tol must be finite and positive: {rel_tol!r}")
    verts = path.vertices
    outside = np.flatnonzero(~domain.contains(verts))
    if outside.size:
        raise OutOfDomain(f"path vertex {verts[outside[0]]!r} leaves {domain!r}")
    prev = None
    for level in range(max_levels):
        pieces = 1 << level
        t = np.arange(1, pieces) / pieces
        pts = [verts[:1]]
        for a, b in zip(verts[:-1], verts[1:]):
            if pieces > 1:
                pts.append(a + (b - a) * t)
            pts.append(np.array([b]))
        samples = np.concatenate(pts)
        if level > 0 and not domain.contains(samples).all():
            raise OutOfDomain("a refinement sample leaves the domain")
        a, b = samples[:-1], samples[1:]
        total = float(domain.distance(domain.lift(a), domain.lift(b)).sum())
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-30):
            return total
        last, prev = prev, total
    raise NonConvergence(f"curve length not stable to {rel_tol!r} in {max_levels} levels: "
                         f"last two totals {last!r}, {prev!r}")


def geodesic(domain: Domain, p, q, samples: int = 256) -> PolyPath:
    """Projected model geodesic from p to q, sampled at ``samples`` vertices.

    Vertex k lies at arclength k d / (samples - 1) from p, d the closed-form
    distance, on the geodesic between the lifts ``distance`` reads (on the
    covered domains, q's at the nearest deck translate).  All vertices come
    from one vectorized closed form, ``domain.geodesic``.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValidationError(f"samples must be an integer of at least 2: {samples!r}")
    if isinstance(domain, GridDomain):
        raise Unsupported("geodesics are available on catalog domains only")
    p, q = as_finite(p), as_finite(q)
    if not contains(domain, p) or not contains(domain, q):
        raise OutOfDomain("geodesic endpoints must lie in the domain")
    if p == q:
        raise DegenerateEndpoints("geodesic endpoints coincide")
    return PolyPath(domain.geodesic(p, q, np.linspace(0.0, 1.0, samples)))


# Coprime lattice moves reach this many cells: fine enough a direction
# quantization that the inner distance converges well inside acceptance C7.
_MOVE_RADIUS = 8
# Each pair's search stops past this multiple of the pair's closed-form
# distance plus this many cells, its limit.  Over 560 random pairs in
# |z| < 0.7 at spacing 0.02 / 0.01 / 0.005 the lattice value used at most
# 0.17 / 0.42 / 0.70 of that slack over the closed form; of 104 pairs with
# |z| in [0.9, 0.99], 7 / 4 / 2 passed it (by up to 2.3 times) and were
# searched again on the ellipse at the weight found.
_LIMIT_FACTOR = 1.001
_LIMIT_CELLS = 0.5
# a lattice graph's rows are assembled this many cells at a time: the block's
# cells x moves buffers (about 16 kB a float array) and the table and node
# arrays of the graph's box keep a call's peak within 1.2 times its largest
# graph on acceptance C7's pairs at spacing 0.01 (about 1 MB); 64-cell blocks
# are about a fifth faster but pass 1.3 times
_BLOCK_CELLS = 16


def inner_distance(domain: Domain, p, q, grid_spacing: float) -> float:
    """Shortest weighted cell-graph path between p and q on the unit disk.

    Converges to the true distance as the spacing shrinks.  An edge weighs
    its hyperbolic length, so the value is never below the true distance.
    The graph is ``inner_distance_many``'s; its move reach is fixed, not a
    parameter.  Other domains raise ``Unsupported``.
    """
    return float(inner_distance_many(domain, [(p, q)], grid_spacing)[0])


def _coprime_moves(radius: int):
    moves = []
    for dx in range(-radius, radius + 1):
        for dy in range(0, radius + 1):
            if dy == 0 and dx <= 0:
                continue
            if dx * dx + dy * dy > radius * radius or math.gcd(abs(dx), dy) != 1:
                continue
            moves.append((dx, dy))
    return moves


def _lattice_steps(moves) -> np.ndarray:
    """The moves (dx, dy) and their reverses as a (2 len(moves), 2) integer
    array in ascending (dy, dx) order, the order of a lattice graph row."""
    steps = np.array(list(moves) + [(-dx, -dy) for dx, dy in moves], dtype=np.intp)
    steps = steps.reshape(-1, 2)
    return steps[np.lexsort((steps[:, 0], steps[:, 1]))]


def inner_distance_many(domain: Domain, pairs, grid_spacing: float) -> np.ndarray:
    """Batch inner distances on the unit disk, each pair's the shortest path
    of a cell graph.

    The graph is a convergence check of the closed form.  On a hyperbolic
    planar domain the Kobayashi distance is the inner distance of its
    metric, so on every catalog domain ``kob_distance`` gives the inner
    distance, certified; every domain but the disk raises ``Unsupported``
    before a cell is built.

    The cells of a round disk |z| <= half about 0 that holds the endpoints
    (geodesically convex disks about 0 keep the competing paths near them)
    are joined by every coprime lattice move of at most ``_MOVE_RADIUS``
    cells (``_lattice_graph``); the reach is a constant, not a knob.  Each
    endpoint is linked to the cells within that reach, and a close pair
    directly; an endpoint within half a cell of the rim, past the crop
    |z| <= 1 - spacing, is linked alike (within about 1e-7 of the rim the
    rounding of its chords can put a value below the true distance).  The
    crop and the disk are convex, so every such segment lies in the disk.
    Every edge and link weighs the hyperbolic length of its straight
    segment, in closed form (``_chord_weigher``), so every path's weight is
    at least the distance between its ends and each value is at least the
    true distance.

    A graph stores both directions of every lattice edge and an outgoing
    row for the pair's source p, to the cells within a move's reach.  Each
    pair gets its own search from that row (one multi-source search to the
    largest limit settles every node within it of every source, about twice
    as slow).  The target q is no node: its value is the least dist[k] + w
    over q's links and the direct link of a close pair, so no path runs
    through another pair's endpoint and no value depends on its batch.  A
    search stops past a margin over the pair's closed-form distance, its
    limit (``_LIMIT_FACTOR``, ``_LIMIT_CELLS``).

    Each pair's search walks a graph of its own.  A path of weight at most
    a bound keeps its cells in the hyperbolic ellipse d(p, x) + d(x, q) <=
    bound, since no weight is below the distance between its ends, so the
    pair's graph joins only the crop cells of the ellipse at its limit
    (``_disk_ellipse``): a value within the limit is the round crop's own.
    A value V above it is the weight of a path of the round crop, so the
    ellipse at V holds the shortest one, and a search to V on that
    ellipse's graph gives the round crop's value too.  That one rule holds
    for a search that reaches no link of q: V is inf, and the ellipse at inf
    is the round crop itself; ``Disconnected`` comes only from that search.
    A pair's graph is dropped before the next is built.
    """
    if not isinstance(domain, Disk):
        raise Unsupported(f"the cell-graph inner distance runs on the disk only, not on "
                          f"{type(domain).__name__}; kob_distance gives its distance")
    try:
        pairs = [(p, q) for p, q in pairs]
    except (TypeError, ValueError):
        raise ValidationError(f"pairs must be an iterable of (p, q) point pairs: "
                              f"{pairs!r}") from None
    pairs = [(as_finite(p), as_finite(q)) for p, q in pairs]
    endpoints = [z for pair in pairs for z in pair]
    for z in endpoints:
        if not contains(domain, z):
            raise OutOfDomain(f"{z!r} not in {domain!r}")
    h = grid_spacing
    # past 0.5 the crop |z| <= 1 - h leaves a frame of fewer than 3 x 3 cells
    if not (isinstance(h, numbers.Real) and 0 < h <= 0.5):
        raise ValidationError(f"spacing must lie in (0, 0.5] on the disk; a coarser one leaves "
                              f"the round crop |z| <= 1 - spacing no 3 x 3 frame: {h!r}")
    # Hyperbolic disks about 0 are geodesically convex (Beardon, The Geometry
    # of Discrete Groups, section 7), so the geodesics stay within the
    # endpoints' reach of 0; a few moves beyond it, the disk |z| <= half holds
    # every competing path with far fewer cells than the whole disk.
    reach = max((abs(z) for z in endpoints), default=0.0)
    half = min(1.0 - h, reach + (_MOVE_RADIUS + 2) * h + 0.02)
    frame = grid_from_predicate(lambda z: np.abs(z) <= half, half / FRAME_MARGIN, h)
    if not pairs:
        return np.zeros(0)

    _load_sparse()
    height, width = frame.mask.shape

    def centers(iy, ix):
        return cell_centers(frame.origin, h, iy, ix)

    def edge_weights(a, b):
        """The hyperbolic lengths of the straight links from a to the points b."""
        c = np.abs(b - a) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = _disk_chord(1.0 - abs(a) ** 2, 1.0 - np.abs(b) ** 2, c)
        w[c == 0] = 0.0
        return w

    # the moves that fit in the frame, both ways
    steps = _lattice_steps([(dx, dy) for dx, dy in _coprime_moves(_MOVE_RADIUS)
                            if abs(dx) < width and dy < height])
    weigher = _chord_weigher(frame, steps)

    # the cells within a move's reach of an endpoint, and the weights of the
    # straight links to them
    link_reach = _MOVE_RADIUS * h

    def links(z):
        # z's cell as ``frame.cell_index`` finds it, but z may lie past the
        # crop and its frame, within half a cell of the rim: the crop cells
        # within a move's reach of it are its links all the same
        ix = math.floor((z.real - frame.origin.real) / h + 0.5)
        iy = math.floor((z.imag - frame.origin.imag) / h + 0.5)
        (x0, x1), (y0, y1) = ((max(0, i - _MOVE_RADIUS), min(n, i + _MOVE_RADIUS + 1))
                              for i, n in ((ix, width), (iy, height)))
        iy, ix = np.nonzero(frame.mask[y0:y1, x0:x1])
        iy, ix = iy + y0, ix + x0
        c = centers(iy, ix)
        near_z = np.abs(c - z) <= link_reach
        return (iy * width + ix)[near_z], edge_weights(z, c[near_z])

    # the direct link of a very close pair (inf: none)
    direct = np.full(len(pairs), math.inf)
    for k, (p, q) in enumerate(pairs):
        if abs(q - p) <= link_reach:
            direct[k] = edge_weights(p, np.array([q]))[0]

    def search(k, bound):
        """Pair k's value from a search to ``bound`` on the lattice graph of
        its ellipse at ``bound``; the graph and the endpoints' links are
        dropped on return."""
        p, q = pairs[k]
        keep, y0, x0 = _disk_ellipse(frame, p, q, bound)
        # a kept cell's node counts the kept cells of the rows above it and
        # of its row left of it
        per_row = np.count_nonzero(keep, axis=1)
        above = np.cumsum(per_row) - per_row

        def nodes(cells, w):
            """The links (frame cells, weights) to the graph's nodes."""
            iy, ix = np.divmod(cells, width)
            iy, ix = iy - y0, ix - x0
            box = (iy >= 0) & (iy < keep.shape[0]) & (ix >= 0) & (ix < keep.shape[1])
            iy, ix, w = iy[box], ix[box], w[box]
            kept = keep[iy, ix]
            iy, ix, w = iy[kept], ix[kept], w[kept]
            # links reach a few rows of the box, counted on those rows alone
            top = iy.min(initial=0)
            left = keep[top:iy.max(initial=-1) + 1].cumsum(axis=1)
            return above[iy] + left[iy - top, ix] - 1, w

        searched = _lattice_graph(keep, steps, weigher(y0, x0, keep.shape), nodes(*links(p)))
        dist = _csgraph_dijkstra(searched, directed=True, indices=searched.shape[0] - 1,
                                 limit=bound)
        cols, w = nodes(*links(q))
        return min(direct[k], (dist[cols] + w).min(initial=math.inf))

    ps, qs = np.array(pairs).T
    limits = _LIMIT_FACTOR * domain.distance(domain.lift(ps), domain.lift(qs)) + _LIMIT_CELLS * h
    out = np.empty(len(pairs))
    for k, limit in enumerate(limits):
        # the search settles only the nodes within the limit of the source;
        # a value within it is exact, as a shorter path would end at a
        # settled link cell.  A value V above it is the weight of a path (or
        # inf), so the ellipse at V holds the shortest one: the search to V
        # on it is exact.
        value = search(k, limit)
        if value > limit:
            value = search(k, value)
        if not math.isfinite(value):
            raise Disconnected("an endpoint failed to connect to the cell graph")
        out[k] = value
    return out


def _disk_chord(g, g2, c):
    """Hyperbolic length on the unit disk, density 1/(1 - |z|^2), of the
    segment between points a and b, from g = 1 - |a|^2, g2 = 1 - |b|^2 and
    c = |b - a|^2, arrays that broadcast.

    With q = g + g2 + c and r = sqrt((g - g2)^2 - c^2 + 2cq), it is the
    closed form 2 sqrt(c) atanh(r/q)/r of the integral of |b - a|/(1 -
    |a + t(b - a)|^2) over 0 <= t <= 1 (nan where a = b), which is
    symmetric in a and b to the bit.  It is at least the distance between
    a and b, and equal to it on a diameter.  g2, a float array of the
    result's shape, is overwritten, and one more such array is made: q is
    recovered from 2cq, to a few units in the last place.
    """
    q = g2 + g
    g2 -= g
    g2 *= g2
    q += c
    g2 -= c * c
    q *= 2.0 * c
    g2 += q
    q /= 2.0 * c
    r = np.sqrt(g2, out=g2)
    np.divide(r, q, out=q)
    np.arctanh(q, out=q)
    q /= r
    q *= 2.0 * np.sqrt(c)
    return q


def _chord_weigher(frame: GridDomain, steps):
    """``inner_distance_many``'s weights on the disk's round crop: for the
    box of ``frame`` from row y0 and column x0 of this shape,
    ``weigher(y0, x0, shape)`` is the ``_lattice_graph`` weigh that gives
    each edge its hyperbolic length (``_disk_chord``), read from a table of
    1 - |z|^2 at the box's cell centres.  Both directions of an edge weigh
    the same to the bit.  The crop is convex, so every edge between its
    cells lies in the disk, and every one has a weight.
    """
    h = frame.spacing
    # per step |u|^2, the same for its reverse
    ux, uy = h * steps.T
    c = ux * ux + uy * uy

    def weigher(y0, x0, shape):
        # the table over the box, from the coordinates ``cell_centers``
        # gives, so a cell's entry is the same in every box
        width = shape[1]
        x = frame.origin.real + h * np.arange(x0, x0 + width)
        y = (frame.origin.imag + h * np.arange(y0, y0 + shape[0]))[:, None]
        g = (1.0 - (x * x + y * y)).ravel()
        # intp, which take reads without a copy
        at_step = steps[:, 1] * width + steps[:, 0]

        def weigh(y, x):
            at = y * width + x
            # an edge's far end is a cell of the box; the entries that are
            # no edge read any cell (clipped), and the graph stores none of them
            with np.errstate(divide="ignore", invalid="ignore"):
                return _disk_chord(g[at, None], g.take(at[:, None] + at_step, mode="clip"), c)

        return weigh

    return weigher


def _disk_ellipse(frame: GridDomain, p, q, limit):
    """(keep, y0, x0): the frame's cells x with d(p, x) + d(x, q) <= bound
    on the unit disk, as a mask of the least box of cells that holds them,
    from row y0 and column x0.  The bound is the limit times 1 + 1e-9, which
    covers the rounding of the weights, of their sums and of the distances
    compared with them.

    The distance to a point is convex along geodesics (Bridson & Haefliger,
    Metric Spaces of Non-Positive Curvature, II.2.2), so for the geodesic
    midpoint m of p and q, d(m, x) <= (d(p, x) + d(x, q)) / 2: the ellipse
    lies in the hyperbolic disk of radius bound / 2 about m, a Euclidean
    disk (``poincare_ball_euclidean``).  Only the cells of that disk's box,
    widened by a cell, are tested, from rows of their real coordinates.
    """
    h = frame.spacing
    bound = limit * (1.0 + 1e-9)
    if not bound > 0:
        return np.zeros((0, 0), dtype=bool), 0, 0  # at most the point p = q
    m = p if p == q else complex(Disk().geodesic(p, q, 0.5))
    e, r = poincare_ball_euclidean(m, 0.5 * bound)
    r += h
    (x0, x1), (y0, y1) = ((max(0, math.floor((c - r - o) / h)),
                           min(max(0, math.ceil((c + r - o) / h) + 1), n))
                          for c, o, n in ((e.real, frame.origin.real, frame.width),
                                          (e.imag, frame.origin.imag, frame.height)))
    # the cell centres' coordinates, as ``cell_centers`` gives them
    x = frame.origin.real + h * np.arange(x0, x1)
    y = (frame.origin.imag + h * np.arange(y0, y1))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # sinh d = |z - c| / sqrt((1 - |z|^2)(1 - |c|^2)), with no value off
        # the disk, where the frame holds no cell
        g = 1.0 - (x ** 2 + y ** 2)
        s = sum(np.arcsinh(np.sqrt(((x - c.real) ** 2 + (y - c.imag) ** 2)
                                   / (g * (1.0 - abs(c) ** 2)))) for c in (p, q))
    keep = frame.mask[y0:y1, x0:x1] & (s <= bound)
    # the box of the kept cells alone
    rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
    if not rows.size:
        return keep[:0, :0], 0, 0
    keep = keep[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].copy()
    return keep, int(y0 + rows[0]), int(x0 + cols[0])


def _lattice_graph(keep, steps, weigh, source):
    """CSR graph over the cells of the 2-D mask ``keep``, compact: node k is
    its k-th cell in row-major order and the last node, ``cells``, the
    source.

    ``steps`` lists lattice moves (dx, dy) in ascending (dy, dx) order, each
    with its reverse (``_lattice_steps``).  A cell's row holds an entry for
    each step that lands on a cell of ``keep``, in that order, so that its
    columns ascend.  For the cells at rows y and columns x of ``keep`` (a
    block of them in row-major order), ``weigh(y, x)`` returns weights,
    cells x steps, of which those of the entries are stored.  An edge must
    weigh the same in both directions: the graph then stores both, and a
    directed search walks it as undirected.  ``source`` is (ascending
    nodes, weights), the source's outgoing row, which no path enters.

    Neighbours are read from an array of node numbers padded by a step's
    reach: one gather per block of cells, with no bounds test.  The storage
    is sized exactly by the count of cell pairs one step apart
    (``_count_step_pairs``) and filled ``_BLOCK_CELLS`` cells at a time, so
    no cells x steps array of the whole graph is ever held; the work follows
    the cells of ``keep``, not the frame they lie in.
    """
    _load_sparse()
    height, width = keep.shape
    reach = int(np.abs(steps).max(initial=0))
    # node numbers on the frame of keep padded by a step's reach (-1: none)
    padded = width + 2 * reach
    node = np.full((height + 2 * reach, padded), -1, dtype=np.int32)
    y, x = (i.astype(np.int32) for i in np.nonzero(keep))
    cells = y.size
    node[y + reach, x + reach] = np.arange(cells, dtype=np.int32)
    at_cell = (y + reach) * padded + x + reach
    # intp, so the gathers' indices are intp, which take reads without a copy
    offset = steps[:, 1] * padded + steps[:, 0]
    edges, (k, w) = _count_step_pairs(keep, steps, reach), source
    data = np.empty(edges + k.size)
    indices = np.empty(data.size, dtype=np.int32)
    indptr = np.zeros(cells + 2, dtype=np.int32)
    # the source's row follows the cells'
    data[edges:], indices[edges:], indptr[-1] = w, k, data.size
    at = 0
    for k0 in range(0, cells, _BLOCK_CELLS):
        k1 = min(k0 + _BLOCK_CELLS, cells)
        column = node.take(at_cell[k0:k1, None] + offset)
        edge = column >= 0
        counts = np.add.accumulate(np.add.reduce(edge, axis=1, dtype=np.intp))
        end = at + int(counts[-1])
        # the block's columns are stored and dropped before its weights are made
        indices[at:end] = column[edge]
        del column
        data[at:end] = weigh(y[k0:k1], x[k0:k1])[edge]
        indptr[k0 + 1:k1 + 1] = at + counts
        at = end
        # freed before the next block's are made
        del edge
    return csr_matrix((data, indices, indptr), shape=(cells + 1,) * 2)


def _count_step_pairs(keep, steps, reach):
    """The number of ordered pairs of cells of ``keep`` one of ``steps``
    apart, from one autocorrelation of the mask: its sum at the steps.

    The FFT's period pads the mask by ``reach``, the longest step, so no
    lag of a step wraps around; the values are integers far below 2^52, and
    the rounding error of the FFT far below a half.
    """
    if not keep.any():
        return 0
    shape = (keep.shape[0] + reach, keep.shape[1] + reach)
    f = np.fft.rfft2(keep, shape)
    f = np.fft.irfft2(f.real ** 2 + f.imag ** 2, shape)
    return int(np.rint(f[steps[:, 1], steps[:, 0]].sum()))


# ---------------------------------------------------------------------------
# Ball rasters
# ---------------------------------------------------------------------------

class _Frame(NamedTuple):
    """A bounded catalog domain's ball frame with its table: on the covered
    domains, ``gaps`` holds the ``wall_gaps`` of every mask cell, one
    column a cell in np.nonzero order, and ``rows`` (int32, frame-shaped)
    each mask cell's column; both are None on the disk, whose lift is the
    cell centre itself."""

    grid: GridDomain
    rows: np.ndarray | None
    gaps: np.ndarray | None

    @property
    def nbytes(self) -> int:
        return self.grid.mask.nbytes + sum(a.nbytes for a in (self.rows, self.gaps)
                                           if a is not None)


# (domain, spacing type, spacing) -> _Frame, least recently used first.  The
# entries' arrays hold at most _FRAMES_BYTES together: the seven frames of
# spacing 0.01 that the catalog benchmark rasters on take about 4 MB, and
# an entry grows as the spacing's inverse square.  The spacing's type is
# part of the key because the frame keeps the caller's spacing.
_FRAMES: "OrderedDict[tuple, _Frame]" = OrderedDict()
_FRAMES_BYTES = 16 * 2 ** 20


def _catalog_frame(domain: Domain, spacing) -> _Frame:
    """``rasterize(domain, spacing)`` and its table, kept in ``_FRAMES``;
    a first call lifts the whole mask once."""
    key = (domain, type(spacing), spacing)
    entry = _FRAMES.get(key)
    if entry is not None:
        _FRAMES.move_to_end(key)
        return entry
    grid = rasterize(domain, spacing)
    rows = gaps = None
    if domain.deck_step:
        iy, ix = np.nonzero(grid.mask)
        rows = (np.cumsum(grid.mask, dtype=np.int32) - 1).reshape(grid.mask.shape)
        gaps = domain.wall_gaps(cell_centers(grid.origin, grid.spacing, iy, ix))
    entry = _FRAMES[key] = _Frame(grid, rows, gaps)
    # an entry larger than the whole budget is not kept either
    while sum(e.nbytes for e in _FRAMES.values()) > _FRAMES_BYTES:
        _FRAMES.popitem(last=False)
    return entry


def distance_field(domain: Domain, center, grid: GridDomain, cells=None) -> np.ndarray:
    """Distances from ``center`` to the cell centres of ``grid`` (catalog
    only), as an array of the frame's shape: at ``cells``, index arrays
    (iy, ix) of mask cells as np.nonzero gives them (by default every mask
    cell), and inf at every other cell.  The grid is the domain's own
    raster (``grid_from_predicate(domain.contains, ...)``), so its mask
    already is the domain's membership test on the cell centres.

    On the frame ``ball_frame`` keeps for a covered domain, the cells' wall
    gaps are read from the frame's table; any other grid's cells are lifted
    here.  Both give the same lifts, bit for bit.
    """
    iy, ix = np.nonzero(grid.mask) if cells is None else cells
    out = np.full(grid.mask.shape, np.inf)
    entry = _FRAMES.get((domain, type(grid.spacing), grid.spacing))
    if entry is not None and entry.grid is grid and entry.gaps is not None:
        # the coordinates as cell_centers computes them
        lifts = domain.lift_from_gaps(grid.origin.real + grid.spacing * ix,
                                      grid.origin.imag + grid.spacing * iy,
                                      entry.gaps[:, entry.rows[iy, ix]])
    else:
        lifts = domain.lift(cell_centers(grid.origin, grid.spacing, iy, ix))
    out[iy, ix] = domain.distance(domain.lift(as_finite(center)), lifts)
    return out


def kob_ball_raster(domain: Domain, center, radius: float,
                    spacing: float) -> MetricBall:
    """Cell true iff the distance from the center is below the radius; the
    center's own cell is always in.

    The frame is ``ball_frame``'s: ``rasterize``'s, kept per (domain,
    spacing) with its cells' wall gaps, or on the half-plane one around
    the ball, which is a Euclidean disk.  The distance is evaluated only
    on the mask cells inside the ball's closed-form hull (the class's
    ``ball_hull``, ``hull_cells``), which holds every cell whose computed
    distance is below the radius: the raster is the one ``distance_field``
    gives on every mask cell, bit for bit, from about half as many cells.
    """
    if isinstance(domain, GridDomain):
        raise Unsupported("ball rasters need exact distances: catalog domains only")
    center = as_finite(center)
    if not contains(domain, center):
        raise OutOfDomain(f"{center!r} not in {domain!r}")
    if not isinstance(radius, numbers.Real):
        raise ValidationError(f"ball radius must be a real number: {radius!r}")
    if not (radius > 0):
        raise OutOfDomain(f"ball radius must be positive: {radius!r}")
    if not math.isfinite(radius):
        raise ValidationError(f"ball radius must be finite: {radius!r}")
    grid = ball_frame(domain, center, radius, spacing)
    hull = domain.ball_hull(center, radius)
    mask = distance_field(domain, center, grid, hull_cells(grid, hull)) < radius
    idx = grid.cell_index(center)
    if idx is not None and grid.mask[idx[1], idx[0]]:
        mask[idx[1], idx[0]] = True  # the center's own cell is always in
    return MetricBall(domain=domain, center=center, radius=radius,
                      metric="kobayashi", origin=grid.origin,
                      spacing=grid.spacing, mask=mask)


def ball_frame(domain: Domain, center: complex, radius: float, spacing: float) -> GridDomain:
    """The frame ``kob_ball_raster`` rasterizes the ball on: ``rasterize``'s,
    kept per (domain, spacing) with its table (``_catalog_frame``), or on
    the half-plane a new one around the Euclidean disk the ball occupies,
    its ``ball_hull``."""
    if not isinstance(domain, HalfPlane):
        return _catalog_frame(domain, spacing).grid
    hull = domain.ball_hull(center, radius)
    return grid_from_predicate(domain.contains, hull.radius, spacing, hull.center)
