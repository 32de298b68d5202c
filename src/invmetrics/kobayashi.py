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
to bound its hyperbolic length.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .domains import (
    FRAME_MARGIN,
    Disk,
    Domain,
    GridDomain,
    HalfPlane,
    cell_pair_mask,
    cell_pairs,
    contains,
    grid_frame_load,
    grid_from_predicate,
    grid_save,
    lift_pair,
    rasterize,
)
from .errors import (
    DegenerateEndpoints,
    Disconnected,
    OutOfDomain,
    ParseError,
    Unsupported,
    ValidationError,
)
from .mobius import as_finite


# scipy.sparse and scipy.ndimage cost about 10 MB and 27 MB at import, and
# only the graph paths need them
coo_matrix = csr_matrix = _csgraph_dijkstra = ndimage = None


def _load_sparse():
    global coo_matrix, csr_matrix, _csgraph_dijkstra, ndimage
    if _csgraph_dijkstra is None:
        from scipy import ndimage
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
        if not (0.0 <= self.lower <= self.upper + 1e-15):
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


@dataclass(eq=False)
class MetricBall:
    """Rasterized open sublevel set {z : dist(center, z) < radius}."""

    domain: Domain | None
    center: complex
    radius: float
    metric: str
    origin: complex
    spacing: float
    mask: np.ndarray

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def centers(self) -> np.ndarray:
        xs = self.origin.real + self.spacing * np.arange(self.width)
        ys = self.origin.imag + self.spacing * np.arange(self.height)
        return xs[None, :] + 1j * ys[:, None]

    def cell_count(self) -> int:
        return int(self.mask.sum())


def ball_save(ball: MetricBall) -> bytes:
    """Grid-domain file format plus {metric, center, radius} metadata."""
    return grid_save(ball, metric=ball.metric, center=[ball.center.real, ball.center.imag],
                     radius=ball.radius)


def ball_load(data) -> MetricBall:
    """Parse a ball export; the domain reference is not serialized."""
    payload, origin, spacing, mask = grid_frame_load(data)
    try:
        return MetricBall(domain=None, center=complex(*payload["center"]),
                          radius=float(payload["radius"]), metric=str(payload["metric"]),
                          origin=origin, spacing=spacing, mask=mask)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or ill-typed field: {exc}") from exc


# ---------------------------------------------------------------------------
# Covering-route distances
# ---------------------------------------------------------------------------

def kob_distance(domain: Domain, p, q, tol: float = 1e-9) -> DistanceInterval:
    """Interval around the Kobayashi distance.

    Catalog domains are exact up to rounding: a degenerate interval on
    the disk and half-plane, [value - tol, value] through the covering
    route; both are certified.  Grids get a genuine two-sided interval,
    not certified (``_grid_graph``).  A catalog pair is one 2-element
    call each of the domain's ``contains``, ``lift`` and ``distance``.
    """
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and non-negative: {tol!r}")
    p, q = as_finite(p), as_finite(q)
    if not isinstance(domain, Domain):
        raise Unsupported(f"unknown domain {domain!r}")
    # one pass of each vectorized kernel over the pair [p, q]
    inside = domain.contains(np.array([p, q]))
    for z, ok in zip((p, q), inside):
        if not ok:
            raise OutOfDomain(f"{z!r} not in {domain!r}")
    if p == q:
        return DistanceInterval(0.0, 0.0)
    if isinstance(domain, GridDomain):
        return _grid_interval(domain, p, q)
    v = float(domain.distance(*lift_pair(domain, p, q)))
    if domain.deck_step:
        return DistanceInterval(max(v - tol, 0.0), v)
    return DistanceInterval(v, v)


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
    bound = grid.density_upper_bound.ravel()
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


def _point_density_bounds(grid: GridDomain, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=complex)
    out = np.empty(pts.shape, dtype=float)
    flat = pts.ravel()
    res = out.ravel()
    for i, z in enumerate(flat):
        delta = grid.distance_to_complement(z)
        res[i] = 1.0 / max(delta, 1e-300)
    return out


def _grid_upper(grid: GridDomain, p: complex, q: complex) -> float:
    cp = grid.cell_index(p)
    cq = grid.cell_index(q)
    bound_p = 1.0 / max(grid.distance_to_complement(p), 1e-300)
    bound_q = 1.0 / max(grid.distance_to_complement(q), 1e-300)
    if cp == cq:
        return abs(p - q) * max(bound_p, bound_q)
    cell_bound = grid.density_upper_bound
    zp = grid.cell_center(*cp)
    zq = grid.cell_center(*cq)
    link_p = abs(p - zp) * max(bound_p, cell_bound[cp[1], cp[0]])
    link_q = abs(q - zq) * max(bound_q, cell_bound[cq[1], cq[0]])
    graph = _grid_graph(grid)
    source = cp[1] * grid.width + cp[0]
    target = cq[1] * grid.width + cq[0]
    dist = _csgraph_dijkstra(graph, directed=False, indices=source,
                             min_only=False)
    value = float(dist[target])
    if not math.isfinite(value):
        raise Disconnected("grid cells of the endpoints are not connected")
    return link_p + value + link_q


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
    """Length of a polyline under the domain's distance.

    The supremum over partitions is approached by dyadic refinement of
    every segment until the summed pairwise distances are stable to
    ``rel_tol``.  On grid domains the pairwise values are upper bounds,
    so the result is an upper estimate there.
    """
    if not isinstance(max_levels, (int, np.integer)) or max_levels < 1:
        raise ValidationError(f"max_levels must be an integer of at least 1: {max_levels!r}")
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
        if isinstance(domain, GridDomain):
            lengths = np.abs(a - b) * np.maximum(_point_density_bounds(domain, a),
                                                 _point_density_bounds(domain, b))
        else:
            lengths = domain.distance(domain.lift(a), domain.lift(b))
        total = float(lengths.sum())
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-30):
            return total
        prev = total
    return prev


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
# distance plus this many cells, and reruns unlimited if that misses the target.
# The lattice value lies within 0.1% of the closed form on the disk at spacing
# 0.01 and 0.005; coarser frames (Annulus(0.9) at 0.05) can miss and rerun.
_LIMIT_FACTOR = 1.004
_LIMIT_CELLS = 2
# frame rows whose edges are weighed at a time when assembling the
# inner-distance graph, and graph rows gathered at a time from those weights;
# the band's weights (moves x band cells) are the assembly's largest buffer
_BAND_ROWS = 12
_CSR_BLOCK = 128


def inner_distance(domain: Domain, p, q, grid_spacing: float) -> float:
    """Shortest weighted cell-graph path with density line-integral weights.

    Converges to the true distance as the spacing shrinks.  The graph is
    ``inner_distance_many``'s; its move reach is fixed, not a parameter.
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


def inner_distance_many(domain: Domain, pairs, grid_spacing: float) -> np.ndarray:
    """Batch inner distances over one shared cell graph.

    The cells of a raster frame are joined by every coprime lattice move of
    at most ``_MOVE_RADIUS`` cells (``domains.cell_pair_mask``, the kernel
    of every lattice graph here); the reach is a constant, not a knob.  Each
    endpoint is linked to the cells within that reach, and a close pair
    directly.  An edge weighs its length times the density at its
    midpoint, and is kept only if its interior sub-samples and that
    midpoint lie in the domain.  Every edge midpoint is a point of the
    half-spacing lattice, so the density is read from one table of that
    lattice per band of frame rows, never evaluated per edge.  The frame is
    ``rasterize``'s, except on the disk, where it is cropped to a round disk
    about 0 that holds the endpoints (geodesically convex disks about 0
    keep the competing paths near them).

    The graph stores both directions of every lattice edge and one
    outgoing row per pair, from its source p to the cells within a move's
    reach.  Each pair gets its own search from that row (one multi-source
    search to the largest limit settles every node within it of every
    source, about twice as slow).  The target q is no node: its value is
    the least dist[k] + w over q's links and the direct link of a close
    pair, so no path runs through another pair's endpoint and no value
    depends on its batch.  A search stops past a margin over the pair's
    closed-form distance, its limit; a value above it is recomputed with no
    limit, so each value is the graph's own shortest path either way.

    On the disk the limited searches walk a smaller graph.  There no edge or
    link is longer than ``_MOVE_RADIUS`` h, and log density is G-Lipschitz
    on the crop, G = 2 half / (1 - half^2), so each is at most kappa =
    exp(``_MOVE_RADIUS`` h G / 2) times its weight long (``_disk_kappa``).
    A path of weight at most a pair's limit therefore keeps its cells in the
    hyperbolic ellipse d(p, x) + d(x, q) <= kappa * limit, and the graph
    joins only the crop cells in some pair's ellipse: a value within its
    limit is the round crop's own.  A value above it is recomputed on the
    whole crop's graph, built at most once per call, and ``Disconnected``
    comes only from that search.  kappa is about 1.08 at spacing 0.005 and
    1.21 at 0.01, where the ellipses keep about a quarter and a half of the
    crop for pairs within |z| < 0.7.
    """
    if isinstance(domain, GridDomain):
        raise Unsupported("inner distance is defined for catalog domains")
    pairs = [(as_finite(p), as_finite(q)) for p, q in pairs]
    endpoints = [z for pair in pairs for z in pair]
    for z in endpoints:
        if not contains(domain, z):
            raise OutOfDomain(f"{z!r} not in {domain!r}")
    h = grid_spacing
    if isinstance(domain, Disk):
        if not (isinstance(h, numbers.Real) and 0 < h < 1):
            raise ValidationError(f"spacing must lie between 0 and 1 on the disk: {h!r}")
        # Hyperbolic disks about 0 are geodesically convex (Beardon, The
        # Geometry of Discrete Groups, section 7), so the geodesics stay within
        # the endpoints' reach of 0; a few moves beyond it, the disk |z| <= half
        # holds every competing path with far fewer cells than the whole disk.
        reach = max((abs(z) for z in endpoints), default=0.0)
        half = min(1.0 - h, reach + (_MOVE_RADIUS + 2) * h + 0.02)
        frame = grid_from_predicate(lambda z: np.abs(z) <= half, half / FRAME_MARGIN, h)
    else:
        frame = rasterize(domain, h)
    if not pairs:
        return np.zeros(0)

    _load_sparse()
    cells = frame.mask.size
    centers = frame.centers.ravel()
    # distance in cells to the nearest frame cell outside the domain; the
    # cells the disk crop leaves out lie in the disk and do not count
    near = ndimage.distance_transform_edt(domain.contains(frame.centers)).ravel()
    cell_mask = frame.mask.ravel()

    def inside(a, b, steps):
        """Whether the samples a + (b - a) k / steps, 0 < k < steps, and the
        midpoint, where the weight reads the density, are in the domain."""
        t = np.append(np.arange(1, steps) / steps, 0.5)[:, None]
        return domain.contains(a + (b - a) * t).all(axis=0)

    # a kept edge with its midpoint off the domain: a hole that holds no cell
    # centre, so no edge near it was sampled
    too_coarse = f"spacing {h!r} is too coarse to resolve {domain!r}"

    def edge_weights(a, b):
        """Length times the density at the midpoint."""
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.abs(b - a) * domain.density((a + b) / 2.0)
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ValidationError(too_coarse)
        return w

    height, width = frame.mask.shape
    # the moves that fit in the frame, each with its own flat offset
    moves = [(dx, dy) for dx, dy in _coprime_moves(_MOVE_RADIUS)
             if abs(dx) < width and dy < height]
    offsets = np.array([dy * width + dx for dx, dy in moves])

    # the half-spacing lattice: the midpoint of cells (x, y) and (x + dx, y + dy)
    # is its point (2x + dx, 2y + dy), and its even points are the cell centres,
    # bit for bit; its columns 2x + dx run over x = 0 .. width - 1 for every dx,
    # so that each move reads a whole strided slice
    mid_x = frame.origin.real + (h / 2) * np.arange(-_MOVE_RADIUS, 2 * width + _MOVE_RADIUS - 1)

    def band_weights(y0, y1, out, mask):
        """out[m, k] weighs the edge from cell y0 * width + k, in rows y0 to
        y1 - 1, to that cell plus offsets[m] (NaN: none), both cells of
        ``mask``."""
        out.fill(np.nan)
        n = y1 - y0
        # the density at every midpoint of the band's edges: rows 2 y0 to
        # 2 (y1 - 1) + _MOVE_RADIUS of the half-spacing lattice
        mid_y = frame.origin.imag + (h / 2) * np.arange(2 * y0, 2 * y1 + _MOVE_RADIUS - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            table = domain.density(mid_x + 1j * mid_y[:, None])
        off_domain = ~(np.isfinite(table) & (table >= 0))
        # the least distance to the outside over the ends of the band's edges
        ends = np.s_[y0 * width:(y1 + _MOVE_RADIUS) * width]
        closest = near[ends][cell_mask[ends]].min(initial=np.inf)
        for m, (dx, dy) in enumerate(moves):
            rows = mask[y0:y1 + dy]
            pair = cell_pair_mask(rows, rows, dx, dy)[:n]
            length = math.hypot(dx, dy)
            # a sample outside the domain lies within length / 2 of an end and,
            # where every hole holds a cell centre, within two cells of a frame
            # cell outside, so only edges with an end in that band are sampled
            if closest <= length / 2 + 2:
                k = np.flatnonzero(pair)
                i = k + y0 * width
                j = i + offsets[m]
                band = np.flatnonzero(np.minimum(near[i], near[j]) <= length / 2 + 2)
                drop = band[~inside(centers[i[band]], centers[j[band]],
                                    max(2, math.ceil(2 * length)))]
                pair.flat[k[drop]] = False
            midpoints = np.s_[dy:dy + 2 * n:2, dx + _MOVE_RADIUS:dx + _MOVE_RADIUS + 2 * width:2]
            if (pair & off_domain[midpoints]).any():
                raise ValidationError(too_coarse)
            np.multiply(table[midpoints], h * length, out=out[m].reshape(n, width), where=pair)

    # the cells within a move's reach of an endpoint that a straight link
    # joins to it inside the domain, and the links' weights
    link_reach = _MOVE_RADIUS * h

    def links(z):
        cell = frame.cell_index(z)
        if cell is None:
            raise Disconnected(f"{z!r} lies outside the cell frame at spacing {h!r}")
        (x0, x1), (y0, y1) = ((max(0, i - _MOVE_RADIUS), min(n, i + _MOVE_RADIUS + 1))
                              for i, n in zip(cell, (width, height)))
        k = (np.arange(y0, y1)[:, None] * width + np.arange(x0, x1))[frame.mask[y0:y1, x0:x1]]
        k = k[np.abs(centers[k] - z) <= link_reach]
        k = k[inside(z, centers[k], 8)]
        return k, edge_weights(z, centers[k])

    sources, targets = zip(*[(links(p), links(q)) for p, q in pairs])
    # the direct link of a very close pair (inf: none)
    direct = np.full(len(pairs), math.inf)
    for k, (p, q) in enumerate(pairs):
        samples = p + (q - p) * np.linspace(0.0, 1.0, 9)
        if abs(q - p) <= link_reach and domain.contains(samples).all():
            direct[k] = edge_weights(p, np.array([q]))[0]

    def graph(mask):
        """The graph of the edges between cells of ``mask``, sized by the
        edges before any is dropped."""
        edges = sum(np.count_nonzero(cell_pair_mask(mask, mask, dx, dy)) for dx, dy in moves)
        return _lattice_graph(lambda y0, y1, out: band_weights(y0, y1, out, mask), offsets,
                              mask.shape, edges, sources, mask.ravel())

    ps, qs = np.array(pairs).T
    limits = _LIMIT_FACTOR * domain.distance(domain.lift(ps), domain.lift(qs)) + _LIMIT_CELLS * h
    # the whole frame's graph, built at most once; on the disk the limited
    # searches walk the graph of the pairs' ellipses, as a path of weight at
    # most a pair's limit is at most kappa times as long
    disk = isinstance(domain, Disk)
    full = None if disk else graph(frame.mask)
    limited = graph(_disk_ellipses(frame, ps, qs, _disk_kappa(h, half) * limits)) if disk else full
    out = np.empty(len(pairs))
    for k, (limit, (cols, w)) in enumerate(zip(limits, targets)):
        # the search settles only the nodes within the limit of the source;
        # a value within it is exact, as a shorter path would end at a
        # settled link cell, and a value above it is recomputed unlimited
        # on the whole frame's graph
        for bound in (limit, math.inf):
            if bound == math.inf and full is None:
                full = graph(frame.mask)
            dist = _csgraph_dijkstra(full if bound == math.inf else limited, directed=True,
                                     indices=cells + k, limit=bound)
            out[k] = min(direct[k], (dist[cols] + w).min(initial=math.inf))
            if out[k] <= bound:
                break
        if not math.isfinite(out[k]):
            raise Disconnected("an endpoint failed to connect to the cell graph")
    return out


def _disk_kappa(h: float, half: float) -> float:
    """Bound on the hyperbolic length of an edge or link of the disk's
    inner-distance graph over its weight, where the frame is |z| <= half.

    There log(1/(1 - |z|^2)) has gradient 2|z|/(1 - |z|^2), at most
    G = 2 half/(1 - half^2), and no edge or link is longer than
    ``_MOVE_RADIUS`` h, so the density on one is at most exp(G
    ``_MOVE_RADIUS`` h / 2) times the density at its midpoint, which its
    weight reads.  The factor 1 + 1e-9 covers the rounding of the weights,
    of their sums and of the distances compared with them.
    """
    return math.exp(_MOVE_RADIUS * h * half / (1.0 - half * half)) * (1.0 + 1e-9)


def _disk_ellipses(frame: GridDomain, ps, qs, bounds) -> np.ndarray:
    """Mask of the frame's cells x with d(p, x) + d(x, q) <= bound for some
    pair (p, q) and its bound, on the unit disk.

    Each ellipse lies in the hyperbolic disks of radius bound about p and
    about q, Euclidean disks; only the cells of the box that holds both,
    widened by a cell, are tested.
    """
    h = frame.spacing
    keep = np.zeros(frame.mask.shape, dtype=bool)
    centers = frame.centers
    origin = np.array([frame.origin.real, frame.origin.imag])
    for p, q, bound in zip(ps, qs, bounds):
        # the disk of radius bound about c: |z - c| <= t |1 - conj(c) z|, with
        # t = tanh(bound), the Euclidean disk about c (1 - t^2) / den of
        # radius t (1 - |c|^2) / den, den = 1 - t^2 |c|^2
        t = math.tanh(bound)
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        for c in (p, q):
            den = 1.0 - t * t * abs(c) ** 2
            e = np.array([c.real, c.imag]) * (1.0 - t * t) / den
            r = t * (1.0 - abs(c) ** 2) / den + h
            lo, hi = np.maximum(lo, e - r), np.minimum(hi, e + r)
        x0, y0 = np.maximum(0, np.floor((lo - origin) / h)).astype(int)
        x1, y1 = np.maximum(0, np.ceil((hi - origin) / h) + 1).astype(int)
        box = np.s_[y0:y1, x0:x1]
        z = centers[box]
        with np.errstate(divide="ignore", invalid="ignore"):
            # sinh d = |z - c| / sqrt((1 - |z|^2)(1 - |c|^2)), with no
            # value off the disk, where the frame holds no cell
            g = 1.0 - (z.real ** 2 + z.imag ** 2)
            s = sum(np.arcsinh(np.sqrt(((z.real - c.real) ** 2 + (z.imag - c.imag) ** 2)
                                       / (g * (1.0 - abs(c) ** 2)))) for c in (p, q))
            keep[box] |= frame.mask[box] & (s <= bound)
    return keep


def _lattice_graph(band_weights, offsets, shape, edges: int, sources, keep=None):
    """CSR graph of the cell lattice, both directions of every edge stored,
    so that a directed search walks it as undirected, and one outgoing row
    per source after the cells.

    ``band_weights(y0, y1, out)`` fills ``out[m, k]`` with the weight of the
    edge between cell ``y0 * width + k`` of frame rows y0 to y1 - 1 and that
    cell plus ``offsets[m]`` (NaN: no edge); there are at most ``edges`` such
    edges.  Source s is node ``cells + s``, and ``sources[s]`` is the pair
    (ascending cells, weights) of its links.  The rows are filled one band
    of ``_BAND_ROWS`` frame rows at a time: a forward entry reads the weight
    of its own cell, a backward one the weight at its lower neighbour, at
    most the largest offset back, so no edge list and no weights beyond one
    band and those cells are held in memory.  ``keep``, if given, is a flat
    mask of the cells that every edge joins: bands and blocks of rows with
    no such cell hold no entry and are skipped.
    """
    height, width = shape
    cells = height * width
    # directed lattice moves, by ascending column offset; move m backwards
    # reads the weight stored offsets[m] cells before the row
    signed = np.concatenate([-offsets, offsets])
    order = np.argsort(signed)
    column_offset = signed[order]
    move = np.tile(np.arange(offsets.size), 2)[order]

    data = np.empty(2 * edges + sum(k.size for k, _ in sources))
    indices = np.empty(data.size, dtype=np.int32)
    indptr = np.zeros(cells + len(sources) + 1, dtype=np.int32)
    # the weights of the band's rows, after those of the cells before it
    # that a backward move reaches (NaN before row 0)
    back = int(offsets.max())
    window = np.full((offsets.size, back + _BAND_ROWS * width), np.nan)
    flat = window.ravel()
    # graph rows r to r + n - 1, the band's cells a to a + n - 1: block[t, c]
    # weighs directed move c at row r + t, flat[a + gather[t, c]], and leads
    # to column r + column[t, c]
    gather = (move * window.shape[1] + back + np.minimum(column_offset, 0)
              + np.arange(_CSR_BLOCK)[:, None]).astype(np.int32)
    column = (np.arange(_CSR_BLOCK)[:, None] + column_offset).astype(np.int32)
    block = np.empty(gather.shape)
    edge = np.empty(gather.shape, dtype=bool)

    def skip(a, b):
        """Whether cells a to b - 1 hold no kept cell."""
        return keep is not None and not keep[a:b].any()

    at = 0
    for y0 in range(0, height, _BAND_ROWS):
        y1 = min(y0 + _BAND_ROWS, height)
        window[:, :back] = window[:, -back:]
        if skip(y0 * width, y1 * width):
            window[:, back:].fill(np.nan)
            indptr[y0 * width + 1:y1 * width + 1] = at
            continue
        band_weights(y0, y1, window[:, back:back + (y1 - y0) * width])
        for r in range(y0 * width, y1 * width, _CSR_BLOCK):
            n = min(_CSR_BLOCK, y1 * width - r)
            if skip(r, r + n):
                indptr[r + 1:r + n + 1] = at
                continue
            np.take(flat[r - y0 * width:], gather[:n], out=block[:n], mode="clip")
            np.isnan(block[:n], out=edge[:n])
            np.logical_not(edge[:n], out=edge[:n])
            # the NaN-free entries, row by row
            counts = np.cumsum(np.count_nonzero(edge[:n], axis=1))
            end = at + int(counts[-1])
            data[at:end] = block[:n][edge[:n]]
            indices[at:end] = column[:n][edge[:n]] + r
            indptr[r + 1:r + n + 1] = at + counts
            at = end
    for s, (k, w) in enumerate(sources):
        data[at:at + k.size] = w
        indices[at:at + k.size] = k
        at += k.size
        indptr[cells + s + 1] = at
    # drop the room left by the edges band_weights dropped
    data.resize(at)
    indices.resize(at)
    return csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


# ---------------------------------------------------------------------------
# Ball rasters
# ---------------------------------------------------------------------------

def distance_field(domain: Domain, center, grid: GridDomain) -> np.ndarray:
    """Distances from ``center`` to every cell center of ``grid`` (catalog only)."""
    cells = grid.centers
    inside = grid.mask & domain.contains(cells)
    out = np.full(cells.shape, np.inf)
    out[inside] = domain.distance(domain.lift(as_finite(center)), domain.lift(cells[inside]))
    return out


def kob_ball_raster(domain: Domain, center, radius: float,
                    spacing: float) -> MetricBall:
    """Cell true iff the distance from the center is below the radius."""
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
    if isinstance(domain, HalfPlane):
        grid = _halfplane_ball_frame(domain, center, radius, spacing)
    else:
        grid = rasterize(domain, spacing)
    mask = distance_field(domain, center, grid) < radius
    idx = grid.cell_index(center)
    if idx is not None and grid.mask[idx[1], idx[0]]:
        mask[idx[1], idx[0]] = True  # the center's own cell is always in
    return MetricBall(domain=domain, center=center, radius=radius,
                      metric="kobayashi", origin=grid.origin,
                      spacing=grid.spacing, mask=mask)


def _halfplane_ball_frame(domain: HalfPlane, center: complex, radius: float,
                          spacing: float) -> GridDomain:
    """Frame around the Euclidean disk the half-plane ball occupies.

    Under the density 1/(2|Re z|) the ball of radius R about x + iy is the
    disk with centre x cosh 2R + iy and radius |x| sinh 2R.
    """
    x, y = center.real, center.imag
    with np.errstate(over="ignore"):  # a radius past ~355 fails the frame's own check
        cosh, sinh = float(np.cosh(2.0 * radius)), float(np.sinh(2.0 * radius))
    return grid_from_predicate(domain.contains, abs(x) * sinh, spacing, complex(x * cosh, y))
