"""Kobayashi distance, geodesics, curve length, and rasterized balls.

Catalog domains use the covering route: the distance between two points
is the infimum over deck translates of the model distance between their
lifts.  The deck group shifts only Im w of a lift w = log z, and the
model distance grows with that offset, so the infimum sits at the
nearest translate and has a closed form (``lift_infimum_vec``).  Grid
domains get a certified interval instead: an upper bound from a weighted
shortest path and a lower bound from the finite holomorphic-map
dictionary.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domains import (
    DECK_STEP,
    Annulus,
    CoveringAtlas,
    Disk,
    Domain,
    GridDomain,
    HalfPlane,
    PuncturedDisk,
    contains,
    contains_vec,
    covering_atlas,
    density_vec,
    grid_frame_load,
    grid_from_predicate,
    grid_save,
    rasterize,
)
from .errors import (
    DegenerateEndpoints,
    Disconnected,
    LiftFailure,
    OutOfDomain,
    ParseError,
    Unsupported,
)
from .mobius import as_finite
from .poincare import abs2_minus, halfplane_rho_vec, rho_vec

TAU = 2.0 * math.pi
# Every point that ``contains`` accepts lies at least one float step (a
# relative 2**-53) inside each boundary circle, so no true wall gap is
# smaller; computed gaps are raised to it, keeping the kernel finite.
_MIN_GAP = 2.0 ** -54


# scipy.sparse costs about 10 MB at import and only the graph paths need it
coo_matrix = _csgraph_dijkstra = None


def _load_sparse():
    global coo_matrix, _csgraph_dijkstra
    if _csgraph_dijkstra is None:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra


@dataclass(frozen=True)
class DistanceInterval:
    """Two-sided enclosure of a distance value."""

    lower: float
    upper: float
    certified: bool = True

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise ValueError(f"ill-formed interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __contains__(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class PolyPath:
    """Polyline through the domain; consecutive segments sampled inside."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(as_finite(v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
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

class Lift(NamedTuple):
    """Lifts w = log z of covered-domain points, as ``lift_infimum_vec`` reads them.

    ``outer`` and ``inner`` are the gaps from Re w to the walls 0 and log r
    (None on the punctured disk), computed from |z| to keep their digits.
    ``height`` is the height in the half-plane model up to a common factor:
    sin(pi * nearer gap / L) on the annulus, L = log(1/r); ``outer`` else.
    """

    im: np.ndarray
    outer: np.ndarray
    inner: np.ndarray | None
    height: np.ndarray


def _log_ratio(z, c: float) -> np.ndarray:
    """log(|z| / c), with full relative accuracy next to the circle |z| = c."""
    m = np.abs(z) / c
    with np.errstate(divide="ignore"):
        return np.where((m > 0.5) & (m < 2.0),
                        0.5 * np.log1p(abs2_minus(z, c) / (c * c)), np.log(m))


def lift_points(domain: Domain, z):
    """Lifts for ``lift_infimum_vec``: the points themselves on the disk and
    half-plane, a ``Lift`` on the covered domains.  No membership checks."""
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, (Disk, HalfPlane)):
        return z
    outer = np.maximum(-_log_ratio(z, 1.0), _MIN_GAP)
    if isinstance(domain, PuncturedDisk):
        return Lift(np.angle(z), outer, None, outer)
    inner = np.maximum(_log_ratio(z, domain.r), _MIN_GAP)
    scale = math.pi / -math.log(domain.r)
    return Lift(np.angle(z), outer, inner, np.sin(scale * np.minimum(inner, outer)))


def lift_infimum_vec(atlas: CoveringAtlas, wp, wq) -> np.ndarray:
    """Model distance between lifts at the nearest deck translate, elementwise.

    ``wp`` and ``wq`` come from ``lift_points`` and broadcast together.
    Sending the model to the upper half-plane, where
    sinh d = |u - v| / (2 sqrt(Im u Im v)), gives with the offset
    dy = Im(wp - wq) reduced to the nearest translate, |dy| <= pi:

    * punctured disk: sinh d = |dw| / (2 sqrt(Re wp Re wq));
    * annulus: sinh d = sqrt(sinh^2(k dy) + sin^2(k dx)) / sqrt(sin t_p sin t_q),
      with k = pi / (2L), dx = Re(wp - wq) and t the model angle pi(Re w - log r)/L.
    """
    domain = atlas.domain
    if isinstance(domain, Disk):
        return rho_vec(wp, wq)
    if isinstance(domain, HalfPlane):
        return halfplane_rho_vec(wp, wq)
    dy = wp.im - wq.im
    dy = dy - TAU * np.round(dy / TAU)
    if isinstance(domain, PuncturedDisk):
        dw = np.hypot(wq.outer - wp.outer, dy)
        return np.arcsinh(dw / (2.0 * np.sqrt(wp.height * wq.height)))
    k = math.pi / (2.0 * -math.log(domain.r))
    # Re(wp - wq), read off the wall the pair is nearer to
    dx = np.where(wp.inner + wq.inner < wp.outer + wq.outer,
                  wp.inner - wq.inner, wq.outer - wp.outer)
    a = k * np.abs(dy)
    heights = wp.height * wq.height
    with np.errstate(over="ignore"):
        s = np.hypot(np.sinh(a), np.sin(k * dx)) / np.sqrt(heights)
    # sinh a overflows only on very thin annuli; there asinh s = a - log(heights)/2
    return np.where(a < 700.0, np.arcsinh(s), a - 0.5 * np.log(heights))


def lift_infimum(atlas: CoveringAtlas, p, q, tol: float = 1e-9) -> float:
    """Distance through the cover: inf over deck translates of lift distances.

    The closed form of ``lift_infimum_vec`` is exact up to rounding, so
    ``tol`` no longer bounds an enumeration; it is kept for callers.
    """
    for z in (p, q):
        if not contains(atlas.domain, z):
            raise LiftFailure(f"{z!r} has no lift in the model of {atlas.domain!r}")
    wp = lift_points(atlas.domain, as_finite(p))
    wq = lift_points(atlas.domain, as_finite(q))
    return float(lift_infimum_vec(atlas, wp, wq))


def _pair_distance_vec(domain: Domain, atlas: CoveringAtlas | None,
                       a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (catalog) or upper-bound (grid) distances, elementwise."""
    if isinstance(domain, GridDomain):
        ub = _point_density_bounds(domain, a)
        vb = _point_density_bounds(domain, b)
        return np.abs(a - b) * np.maximum(ub, vb)
    return lift_infimum_vec(atlas, lift_points(domain, a), lift_points(domain, b))


def kob_distance(domain: Domain, p, q, tol: float = 1e-9) -> DistanceInterval:
    """Certified interval around the Kobayashi distance.

    Catalog domains are exact up to rounding: a degenerate interval on
    the disk and half-plane, [value - tol, value] through the covering
    route; grids get a genuine two-sided interval.
    """
    p, q = as_finite(p), as_finite(q)
    if not contains(domain, p):
        raise OutOfDomain(f"{p!r} not in {domain!r}")
    if not contains(domain, q):
        raise OutOfDomain(f"{q!r} not in {domain!r}")
    if p == q:
        return DistanceInterval(0.0, 0.0)
    if isinstance(domain, GridDomain):
        return _grid_interval(domain, p, q)
    atlas = covering_atlas(domain)
    v = lift_infimum(atlas, p, q, tol)
    if atlas.has_deck:
        return DistanceInterval(max(v - tol, 0.0), v)
    return DistanceInterval(v, v)


# ---------------------------------------------------------------------------
# Grid-domain interval machinery
# ---------------------------------------------------------------------------

_GRID_GRAPH_CACHE: "weakref.WeakKeyDictionary[GridDomain, object]" = (
    weakref.WeakKeyDictionary())


def _grid_graph(grid: GridDomain):
    """Sparse 8-neighbor graph with certified length-bound weights.

    Edge weight is the Euclidean step length times the larger endpoint
    density bound, so every graph path bounds the hyperbolic length of
    the corresponding polyline from above.  Diagonal steps require both
    orthogonal corner cells, which keeps the polyline inside the domain.
    """
    _load_sparse()
    cached = _GRID_GRAPH_CACHE.get(grid)
    if cached is not None:
        return cached
    h, w = grid.mask.shape
    bound = grid.density_upper_bound
    idx = np.arange(h * w).reshape(h, w)
    rows, cols, weights = [], [], []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        if dy >= 0:
            src = np.s_[: h - dy, : w - dx] if dx else np.s_[: h - dy, :]
            dst = np.s_[dy:, dx:] if dx else np.s_[dy:, :]
        else:
            src = np.s_[-dy:, : w - dx]
            dst = np.s_[: h + dy, dx:]
        ok = grid.mask[src] & grid.mask[dst]
        if dx and dy:
            # corner guard: both orthogonal neighbors must be domain cells
            ok &= grid.mask[src[0], dst[1]] & grid.mask[dst[0], src[1]]
        step = math.hypot(dx, dy) * grid.spacing
        wgt = step * np.maximum(bound[src], bound[dst])
        rows.append(idx[src][ok])
        cols.append(idx[dst][ok])
        weights.append(wgt[ok])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    weights = np.concatenate(weights)
    graph = coo_matrix((weights, (rows, cols)), shape=(h * w, h * w)).tocsr()
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
    return DistanceInterval(min(lower, upper), upper)


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
    verts = np.asarray(path.vertices, dtype=complex)
    for v in path.vertices:
        if not contains(domain, v):
            raise OutOfDomain(f"path vertex {v!r} leaves {domain!r}")
    atlas = None if isinstance(domain, GridDomain) else covering_atlas(domain)
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
        if level > 0 and not contains_vec(domain, samples).all():
            raise OutOfDomain("a refinement sample leaves the domain")
        total = float(_pair_distance_vec(domain, atlas, samples[:-1], samples[1:]).sum())
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-30):
            return total
        prev = total
    return prev


def geodesic(domain: Domain, p, q, samples: int = 256) -> PolyPath:
    """Projected model geodesic between the optimal lift pair."""
    if isinstance(domain, GridDomain):
        raise Unsupported("geodesics are available on catalog domains only")
    p, q = as_finite(p), as_finite(q)
    if not contains(domain, p) or not contains(domain, q):
        raise OutOfDomain("geodesic endpoints must lie in the domain")
    if p == q:
        raise DegenerateEndpoints("geodesic endpoints coincide")
    atlas = covering_atlas(domain)
    wp, wq = complex(atlas.lift(p)), complex(atlas.lift(q))
    shift = 0j
    if atlas.has_deck:
        # nearest deck translate of q's lift, then a vertical shift (an
        # isometry of the model) that centers the pair on Im w = 0 and so
        # keeps the band's exponential small
        wq += DECK_STEP * round((wp.imag - wq.imag) / TAU)
        shift = 0.5j * (wp.imag + wq.imag)
    ts = np.linspace(0.0, 1.0, samples)
    ws = [atlas.model_geodesic_point(wp - shift, wq - shift, float(t)) + shift
          for t in ts]
    if atlas.has_deck:
        verts = [complex(np.exp(w)) for w in ws]
    else:
        verts = [complex(w) for w in ws]
    return PolyPath(tuple(verts))


def inner_distance(domain: Domain, p, q, grid_spacing: float,
                   move_radius: int = 8) -> float:
    """Shortest weighted cell-graph path with density line-integral weights.

    Converges to the true distance as the spacing shrinks; the move
    neighborhood controls the direction quantization of the lattice.
    """
    p, q = as_finite(p), as_finite(q)
    if p == q:
        if not contains(domain, p):
            raise OutOfDomain(f"{p!r} not in {domain!r}")
        return 0.0
    return float(inner_distance_many(domain, [(p, q)], grid_spacing,
                                     move_radius=move_radius)[0])


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


def inner_distance_many(domain: Domain, pairs, grid_spacing: float,
                        move_radius: int = 8) -> np.ndarray:
    """Batch inner distances over one shared cell graph."""
    if isinstance(domain, GridDomain):
        raise Unsupported("inner distance is defined for catalog domains")
    endpoints = []
    for p, q in pairs:
        endpoints.append(as_finite(p))
        endpoints.append(as_finite(q))
    for z in endpoints:
        if not contains(domain, z):
            raise OutOfDomain(f"{z!r} not in {domain!r}")

    _load_sparse()
    h = grid_spacing
    if isinstance(domain, Disk):
        reach = max(abs(z) for z in endpoints)
        half = min(1.0 - h, reach + (move_radius + 2) * h + 0.02)
    elif isinstance(domain, HalfPlane):
        raise Unsupported("inner distance on the half-plane is not rasterized")
    else:
        half = 1.0 + h
    n = int(math.ceil(2.0 * half / h)) + 1
    origin = complex(-half, -half)
    xs = origin.real + h * np.arange(n)
    ys = origin.imag + h * np.arange(n)
    centers = xs[None, :] + 1j * ys[:, None]
    mask = contains_vec(domain, centers)
    idx = np.arange(n * n).reshape(n, n)

    needs_segment_check = isinstance(domain, Annulus)
    rows, cols, weights = [], [], []
    for dx, dy in _coprime_moves(move_radius):
        if dy >= 0 and dx >= 0:
            src = np.s_[: n - dy, : n - dx]
            dst = np.s_[dy:, dx:]
        elif dy >= 0:
            src = np.s_[: n - dy, -dx:]
            dst = np.s_[dy:, : n + dx]
        ok = mask[src] & mask[dst]
        if needs_segment_check and ok.any():
            a = centers[src][ok]
            b = centers[dst][ok]
            inner_ok = np.ones(a.shape, dtype=bool)
            steps = max(2, int(math.ceil(2 * math.hypot(dx, dy))))
            for s in range(1, steps):
                t = s / steps
                inner_ok &= np.abs(a + (b - a) * t) > domain.r
            tmp = np.zeros(ok.shape, dtype=bool)
            tmp[ok] = inner_ok
            ok = tmp
        if not ok.any():
            continue
        a = centers[src][ok]
        b = centers[dst][ok]
        lam = density_vec(domain, (a + b) / 2.0)
        weights.append(np.abs(b - a) * lam)
        rows.append(idx[src][ok])
        cols.append(idx[dst][ok])

    # extra nodes: two per pair, linked to every reachable nearby cell
    n_nodes = n * n + len(endpoints)
    ex_rows, ex_cols, ex_w = [], [], []
    link_reach = move_radius * h
    for e, z in enumerate(endpoints):
        node = n * n + e
        ix = int(math.floor((z.real - origin.real) / h + 0.5))
        iy = int(math.floor((z.imag - origin.imag) / h + 0.5))
        r = move_radius
        x0, x1 = max(0, ix - r), min(n, ix + r + 1)
        y0, y1 = max(0, iy - r), min(n, iy + r + 1)
        sub = mask[y0:y1, x0:x1]
        cand = centers[y0:y1, x0:x1][sub]
        cand_idx = idx[y0:y1, x0:x1][sub]
        keep = np.abs(cand - z) <= link_reach
        cand, cand_idx = cand[keep], cand_idx[keep]
        if needs_segment_check and cand.size:
            good = np.ones(cand.shape, dtype=bool)
            for s in range(1, 8):
                t = s / 8.0
                good &= np.abs(z + (cand - z) * t) > domain.r
            cand, cand_idx = cand[good], cand_idx[good]
        lam = density_vec(domain, (cand + z) / 2.0)
        ex_rows.append(np.full(cand.shape, node))
        ex_cols.append(cand_idx)
        ex_w.append(np.abs(cand - z) * lam)
    # direct endpoint-to-endpoint links for very close pairs
    for i, (p, q) in enumerate(pairs):
        p, q = complex(p), complex(q)
        if abs(q - p) <= link_reach:
            samples = p + (q - p) * np.linspace(0.0, 1.0, 9)
            if contains_vec(domain, samples).all():
                ex_rows.append(np.array([n * n + 2 * i]))
                ex_cols.append(np.array([n * n + 2 * i + 1]))
                ex_w.append(np.array([abs(q - p)
                                      * float(density_vec(domain, np.asarray((p + q) / 2)))]))

    rows = np.concatenate(rows + ex_rows)
    cols = np.concatenate(cols + ex_cols)
    weights = np.concatenate(weights + ex_w)
    graph = coo_matrix((weights, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    sources = [n * n + 2 * i for i in range(len(pairs))]
    dist = _csgraph_dijkstra(graph, directed=False, indices=sources)
    out = np.array([dist[i, n * n + 2 * i + 1] for i in range(len(pairs))])
    if not np.isfinite(out).all():
        raise Disconnected("an endpoint failed to connect to the cell graph")
    return out


# ---------------------------------------------------------------------------
# Ball rasters
# ---------------------------------------------------------------------------

def distance_field(domain: Domain, center, grid: GridDomain) -> np.ndarray:
    """Distances from ``center`` to every cell center of ``grid`` (catalog only)."""
    atlas = covering_atlas(domain)
    cells = grid.centers
    inside = grid.mask & contains_vec(domain, cells)
    out = np.full(cells.shape, np.inf)
    out[inside] = lift_infimum_vec(atlas, lift_points(domain, as_finite(center)),
                                   lift_points(domain, cells[inside]))
    return out


def kob_ball_raster(domain: Domain, center, radius: float,
                    spacing: float) -> MetricBall:
    """Cell true iff the distance from the center is below the radius."""
    if isinstance(domain, GridDomain):
        raise Unsupported("ball rasters need exact distances: catalog domains only")
    center = as_finite(center)
    if not contains(domain, center):
        raise OutOfDomain(f"{center!r} not in {domain!r}")
    if radius <= 0:
        raise OutOfDomain(f"ball radius must be positive: {radius!r}")
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
    """Frame around the Euclidean disk the half-plane ball occupies."""
    from .poincare import poincare_ball_euclidean

    atlas = covering_atlas(domain)
    ec, er = poincare_ball_euclidean(complex(atlas.model_to_disk(center)), radius)
    pts = [atlas.disk_to_model(ec + er), atlas.disk_to_model(ec - er),
           atlas.disk_to_model(ec + 1j * er)]
    ctr, rad = _circumcircle(*(complex(p) for p in pts))
    return grid_from_predicate(lambda z: contains_vec(domain, z),
                               bounding_radius=rad, spacing=spacing, center=ctr)


def _circumcircle(z1: complex, z2: complex, z3: complex):
    ax, ay = z1.real, z1.imag
    bx, by = z2.real, z2.imag
    cx, cy = z3.real, z3.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    center = complex(ux, uy)
    return center, abs(center - z1)
