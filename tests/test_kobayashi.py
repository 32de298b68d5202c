import cmath
import hashlib
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annulus_points, disk_points
from invmetrics import kobayashi
from invmetrics.caratheodory import car_ball_components, car_interval
from invmetrics.domains import (
    FRAME_MARGIN,
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    cell_pairs,
    grid_annulus,
    grid_from_predicate,
    lift_row,
    rasterize,
)
from invmetrics.errors import (
    DegenerateEndpoints,
    EmptyBall,
    NonConvergence,
    OutOfDomain,
    ParseError,
    Unsupported,
    ValidationError,
)
from invmetrics.kobayashi import (
    PolyPath,
    ball_load,
    ball_save,
    curve_length,
    geodesic,
    inner_distance,
    inner_distance_many,
    kob_ball_raster,
    kob_distance,
)
from invmetrics.mobius import INFINITY
from invmetrics.modulus import canonical_annulus_radius
from invmetrics.poincare import poincare_ball_euclidean, poincare_distance
from invmetrics.topology import nerve_cover

HALF_LOG2 = 0.34657359027997264
HALF_LOG3 = 0.5493061443340548
ANNULUS_CORE_HALF = 2.1431573649805785  # pi^2 / (2 log 10)
SQRT_TENTH = math.sqrt(0.1)
NAN = float("nan")


class TestLiftInfimum:
    """The covering route: the model distance between the lifts at the
    nearest deck translate, read off ``kob_distance``."""

    def test_punctured_pair_matches_halfplane_form(self):
        value = kob_distance(PuncturedDisk(), math.exp(-1), math.exp(-2)).upper
        assert value == pytest.approx(HALF_LOG2, abs=1e-10)
        assert value == pytest.approx(float(HalfPlane().distance(-1, -2)), abs=1e-12)

    def test_equal_points(self):
        domain = Annulus(0.1)
        lift = domain.lift(0.5)
        assert float(domain.distance(lift, lift)) == 0.0
        assert kob_distance(domain, 0.5, 0.5).upper == 0.0

    def test_annulus_antipodal_core(self):
        value = kob_distance(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH).upper
        assert value == pytest.approx(ANNULUS_CORE_HALF, abs=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 0.6])
    def test_antipodal_core_closed_form(self, r):
        # the mid-circle is a projected model geodesic, so the antipodal
        # distance closes to pi^2 / (2 log(1/r)) for every inner radius
        s = math.sqrt(r)
        value = kob_distance(Annulus(r), s, -s).upper
        assert value == pytest.approx(math.pi**2 / (2 * math.log(1 / r)),
                                      abs=1e-12)

    def test_lift_failure_outside(self):
        # a point in the hole, past the outer wall or on either wall has no
        # lift, whichever argument it is
        for outside in (0.05, 0.1, 1.0, -1.5j):
            for p, q in ((outside, 0.5), (0.5, outside)):
                with pytest.raises(OutOfDomain):
                    kob_distance(Annulus(0.1), p, q)


class TestKobDistance:
    def test_disk_equals_poincare(self):
        interval = kob_distance(Disk(), 0, 0.5)
        assert interval.lower < poincare_distance(0, 0.5) < interval.upper
        assert interval.width <= 1e-14
        assert interval.certified

    def test_halfplane_closed_form(self):
        interval = kob_distance(HalfPlane(), -1, -2)
        assert interval.lower < HALF_LOG2 < interval.upper
        assert interval.width <= 1e-14

    def test_punctured_interval(self):
        interval = kob_distance(PuncturedDisk(), math.exp(-1), math.exp(-2))
        assert interval.upper == pytest.approx(HALF_LOG2, abs=1e-8)
        assert interval.width <= 1e-8

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            kob_distance(Annulus(0.1), 0.05, 0.5)

    @pytest.mark.parametrize("domain, p, q", [(Disk(), 0, 0.5), (HalfPlane(), -1, -2),
                                              (Annulus(0.5), 0.7, -0.7)])
    @pytest.mark.parametrize("tol", [NAN, -1.0, math.inf])
    def test_bad_tol(self, domain, p, q, tol):
        # the interval's width comes from the kernel's error bound: there is
        # no tolerance to pass, good or bad
        with pytest.raises(TypeError):
            kob_distance(domain, p, q, tol)
        with pytest.raises(TypeError):
            kob_distance(domain, p, q, tol=tol)

    @given(disk_points(0.9), disk_points(0.9), disk_points(0.9))
    @settings(max_examples=60)
    def test_disk_triangle_inequality(self, a, b, c):
        dab = kob_distance(Disk(), a, b).upper
        dac = kob_distance(Disk(), a, c).upper
        dcb = kob_distance(Disk(), c, b).upper
        assert dab <= dac + dcb + 1e-8

    @given(annulus_points(), annulus_points(), annulus_points())
    @settings(max_examples=40, deadline=None)
    def test_annulus_symmetry_and_triangle(self, a, b, c):
        domain = Annulus(0.1)
        dab = kob_distance(domain, a, b).upper
        dba = kob_distance(domain, b, a).upper
        assert dab == pytest.approx(dba, abs=1e-8)
        dac = kob_distance(domain, a, c).upper
        dcb = kob_distance(domain, c, b).upper
        assert dab <= dac + dcb + 1e-8


@st.composite
def catalog_rows(draw, size=6):
    """(domain, P, Q, off): a catalog domain, rows of points drawn in its
    hard regimes (annuli up to r = 0.99, points within 1e-12 of a wall,
    far-apart pairs) and a point drawn outside it."""
    kind = draw(st.sampled_from(["disk", "halfplane", "punctured", "annulus"]))
    r = draw(st.one_of(st.floats(1e-3, 0.6), st.floats(0.6, 0.99))) if kind == "annulus" else 0.0
    domain = {"disk": Disk(), "halfplane": HalfPlane(), "punctured": PuncturedDisk()}.get(
        kind) or Annulus(r)
    wall_gap = st.floats(1e-15, 1e-12)

    def point():
        angle = draw(st.floats(-math.pi, math.pi))
        regime = draw(st.sampled_from(["interior", "outer wall", "inner wall"]))
        if kind == "halfplane":
            gap = draw(wall_gap) if regime != "interior" else 10.0 ** draw(st.floats(-3, 3))
            return complex(-gap, 100.0 * angle)
        if regime == "outer wall":
            return cmath.rect(1.0 - draw(wall_gap), angle)
        if regime == "inner wall":
            # the annulus' inner circle, else the puncture (the disk's centre)
            return cmath.rect(r * (1.0 + draw(wall_gap)) if r else draw(wall_gap), angle)
        # log-modulus uniform across the band (the puncture: down to 1e-6)
        return cmath.rect(math.exp(draw(st.floats(0.0, 1.0)) * math.log(r or 1e-6)), angle)

    P = np.array([point() for _ in range(size)])
    Q = np.array([point() for _ in range(size)])
    if kind == "halfplane":
        off = complex(draw(st.floats(0.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    else:
        off = cmath.rect(draw(st.one_of(st.floats(0.0, r), st.floats(1.0, 3.0))),
                         draw(st.floats(-math.pi, math.pi)))
    return domain, P, Q, off


@given(catalog_rows())
@settings(max_examples=150, deadline=None)
def test_scalar_query_is_a_row_of_the_batched_kernel(rows):
    # kob_distance is the enclosure of one row of the vectorized kernel
    # and its error bound, bit for bit, in every regime; its checks name
    # the first endpoint that is outside
    domain, P, Q, off = rows
    keep = domain.contains(P) & domain.contains(Q)
    P, Q = P[keep], Q[keep]
    wp, wq = domain.lift(P), domain.lift(Q)
    batch = domain.distance(wp, wq)
    for i in range(P.size):
        error = domain.distance_error(lift_row(wp, i), lift_row(wq, i), batch[i])
        # equal points are exactly 0 apart, whatever their row's bound
        want = (kobayashi.enclosure(batch[i], error) if P[i] != Q[i]
                else kobayashi.DistanceInterval(0.0, 0.0))
        assert kob_distance(domain, P[i], Q[i]) == want
    if P.size and not domain.contains(off):
        inside = complex(P[0])
        for p, q in ((off, inside), (inside, off), (off, -off)):
            with pytest.raises(OutOfDomain, match=f"^{re.escape(repr(off))} not in"):
                kob_distance(domain, p, q)
    with pytest.raises(Unsupported):
        kob_distance(type(domain).__name__, 0.5, 0.25)


@pytest.fixture(scope="module")
def coarse_annulus():
    return grid_annulus(0.25, 0.02)


class TestGridInterval:
    def test_contains_analytic_value(self, coarse_annulus):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            q = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if not (0.3 < abs(p) < 0.95 and 0.3 < abs(q) < 0.95):
                continue
            analytic = kob_distance(Annulus(0.25), p, q).upper
            interval = kob_distance(coarse_annulus, p, q)
            assert interval.lower <= analytic <= interval.upper
            # the graph's diagonal weights are not shown to bound a step's
            # length next to the complement, so no grid interval is certified
            assert not interval.certified

    def test_graph_matches_double_loop(self):
        grid = grid_annulus(0.3, 0.05)
        m, (h, w) = grid.mask, grid.mask.shape
        bound = np.where(m, grid.cell_density_bound(...), np.inf)
        expected = {}
        for y in range(h):
            for x in range(w):
                for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                    u, v = x + dx, y + dy
                    # diagonal steps need both corner cells
                    if (0 <= v < h and u < w and m[y, x] and m[v, u]
                            and m[y, u] and m[v, x]):
                        expected[y * w + x, v * w + u] = (
                            math.hypot(dx, dy) * grid.spacing
                            * max(bound[y, x], bound[v, u]))
        graph = kobayashi._grid_graph(grid).tocoo()
        assert dict(zip(zip(graph.row.tolist(), graph.col.tolist()),
                        graph.data.tolist())) == expected

    def test_same_cell_pair(self, coarse_annulus):
        interval = kob_distance(coarse_annulus, 0.6, 0.601)
        assert interval.upper > 0
        assert interval.lower <= interval.upper

    def test_interval_ends_are_floats(self, coarse_annulus):
        # a searched pair, a pair in one cell, and the Caratheodory interval
        for p, q in ((0.5, -0.5j), (0.6, 0.601)):
            interval = kob_distance(coarse_annulus, p, q)
            assert type(interval.lower) is float and type(interval.upper) is float
        interval = car_interval(coarse_annulus, 0.5, -0.5j)
        assert type(interval.lower) is float and type(interval.upper) is float


def _pants(h):
    return grid_from_predicate(lambda z: ((np.abs(z) < 1.0) & (np.abs(z - 0.45) > 0.25)
                                          & (np.abs(z + 0.45) > 0.25)), 1.0, h)


def _slit(h):
    # the unit disk less a horizontal slit one to three cells thick
    return grid_from_predicate(lambda z: ((np.abs(z) < 1.0)
                                          & ~((np.abs(z.imag) < 0.015) & (np.abs(z.real) < 0.5))),
                               1.0, h)


def _corridor(h, turn=1):
    # a strip five cells wide, along the real axis turned by ``turn``: between
    # cells of its middle line, away from its ends, every step of any other
    # path is longer or weighs more
    def pred(z):
        w = z / turn
        return (np.abs(w.imag) < 2.5 * h) & (np.abs(w.real) < 0.8)

    return grid_from_predicate(pred, 0.8, h)


SEARCH_GRIDS = {"pants": _pants, "ring": lambda h: grid_annulus(0.3, h), "slit": _slit}


def _straight_weight(grid, p, q):
    return kobayashi._straight_path_weight(kobayashi._grid_graph(grid), grid.width,
                                           grid.cell_index(p), grid.cell_index(q))


def _unlimited_upper(grid, p, q, monkeypatch):
    """``_grid_upper`` with no limit on its search."""
    with monkeypatch.context() as patch:
        patch.setattr(kobayashi, "_straight_path_weight", lambda *args: math.inf)
        return kobayashi._grid_upper(grid, p, q)


class TestGridSearchBound:
    """The grid interval's search, limited by the weight of the straight
    path between the endpoint cells, gives the unlimited value bit for bit."""

    def test_scipy_limit_is_inclusive(self):
        # a search limited at exactly a node's distance still reaches it
        kobayashi._load_sparse()
        graph = scipy.sparse.csr_matrix(([0.1, 0.2], ([0, 1], [1, 2])), shape=(3, 3))
        exact = 0.1 + 0.2  # 0.30000000000000004, as the search sums it
        for directed in (True, False):
            dist = kobayashi._csgraph_dijkstra(graph, directed=directed, indices=0, limit=exact)
            assert dist[2] == exact
            dist = kobayashi._csgraph_dijkstra(graph, directed=directed, indices=0,
                                               limit=np.nextafter(exact, 0.0))
            assert dist[1] == 0.1 and dist[2] == math.inf

    @pytest.mark.parametrize("h", [0.02, 0.01])
    @pytest.mark.parametrize("name", sorted(SEARCH_GRIDS))
    def test_limited_search_is_the_unlimited_one(self, name, h, monkeypatch):
        # 40 random pairs jittered within their cells, and 10 pairs of
        # neighbouring cells
        grid = SEARCH_GRIDS[name](h)
        rng = np.random.default_rng([len(name), int(1 / h)])
        iy, ix = np.nonzero(grid.mask)
        cells = rng.integers(0, ix.size, (40, 2))
        jitter = h * (rng.uniform(-0.4, 0.4, (40, 2)) + 1j * rng.uniform(-0.4, 0.4, (40, 2)))
        pairs = [tuple(grid.cell_center(ix[k], iy[k]) + e for k, e in zip(ks, es))
                 for ks, es in zip(cells, jitter)]
        for k in rng.integers(0, ix.size, 10):
            (dx, dy), = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1)], 1)
            if grid.mask[iy[k] + dy, ix[k] + dx]:
                pairs.append((grid.cell_center(ix[k], iy[k]),
                              grid.cell_center(ix[k] + dx, iy[k] + dy)))
        assert len(pairs) > 45
        limited = 0
        for p, q in pairs:
            assert kobayashi._grid_upper(grid, p, q) == _unlimited_upper(grid, p, q, monkeypatch)
            limited += math.isfinite(_straight_weight(grid, p, q))
        # most pairs see one another along a path of the graph
        assert limited > len(pairs) / 2

    @pytest.mark.parametrize("turn", [1, 1j])
    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_straight_corridor(self, h, turn, monkeypatch):
        # along the strip's middle line the straight path is the shortest
        # one, so the search reaches the target at exactly its limit's weight
        grid = _corridor(h, turn)
        graph = kobayashi._grid_graph(grid)
        for p, q in ((-0.4, 0.4), (-0.3, 0.1), (0.05, 0.05 + h)):
            p, q = p * turn, q * turn
            cp, cq = grid.cell_index(p), grid.cell_index(q)
            weight = _straight_weight(grid, p, q)
            dist = kobayashi._csgraph_dijkstra(graph, directed=False,
                                               indices=cp[1] * grid.width + cp[0])
            assert dist[cq[1] * grid.width + cq[0]] == weight < math.inf
            assert kobayashi._grid_upper(grid, p, q) == _unlimited_upper(grid, p, q, monkeypatch)

    def test_path_that_fails_only_the_corner_guard(self, monkeypatch):
        # a straight path of domain cells, three to four steps long, one of
        # whose diagonal steps passes a complement corner: no limit, and the
        # same value
        grid = _pants(0.02)
        m = grid.mask
        found = 0
        for y, x in zip(*np.nonzero(m & grid.near_complement)):
            for dx, dy in ((3, 3), (3, -3), (4, 2), (2, -4)):
                n = max(abs(dx), abs(dy))
                k = np.arange(n + 1)
                ys = np.rint(y + dy * k / n).astype(int)
                xs = np.rint(x + dx * k / n).astype(int)
                if not m[ys, xs].all():
                    continue
                p, q = grid.cell_center(x, y), grid.cell_center(x + dx, y + dy)
                if _straight_weight(grid, p, q) < math.inf:
                    continue
                value = kobayashi._grid_upper(grid, p, q)
                assert math.isfinite(value) and value == _unlimited_upper(grid, p, q, monkeypatch)
                found += 1
        assert found >= 4

    @pytest.mark.parametrize("make, p, q", [
        (_pants, -0.75, -0.15), (_pants, 0.45 + 0.3j, 0.45 - 0.3j),
        (lambda h: grid_annulus(0.3, h), 0.6, -0.6), (_slit, 0.3j, -0.3j)],
        ids=["pants-left", "pants-right", "ring", "slit"])
    def test_pairs_across_a_hole(self, make, p, q, monkeypatch):
        grid = make(0.02)
        assert _straight_weight(grid, p, q) == math.inf
        assert kobayashi._grid_upper(grid, p, q) == _unlimited_upper(grid, p, q, monkeypatch)


class TestCurveLength:
    def test_degenerate_path(self):
        assert curve_length(Disk(), PolyPath((0.1, 0.1))) == 0.0

    def test_single_vertex_path_rejected(self):
        with pytest.raises(ValidationError):
            PolyPath((0.1,))

    @pytest.mark.parametrize("max_levels", [0, -1, 1.5])
    def test_max_levels_below_one_rejected(self, max_levels):
        # no level means no length; it used to come back as None
        with pytest.raises(ValidationError, match="max_levels"):
            curve_length(Disk(), PolyPath((0, 0.5)), max_levels=max_levels)

    @pytest.mark.parametrize("rel_tol", [NAN, -1.0, 0.0, math.inf, "a", None])
    def test_bad_rel_tol_rejected(self, rel_tol):
        # NaN and -1 ran every level, then reported "not stable to nan";
        # text leaked a TypeError
        with pytest.raises(ValidationError, match="^rel_tol must be finite and positive"):
            curve_length(Disk(), PolyPath((0, 0.5)), rel_tol=rel_tol)

    def test_one_level_rejected(self):
        # one total has nothing to be stable against
        with pytest.raises(ValidationError, match="^max_levels must be an integer of at least 2"):
            curve_length(Disk(), PolyPath((0, 0.5)), max_levels=1)

    def test_unconverged_refinement_raises(self):
        # the totals still move in the third digit at the third level; the
        # converged length is 1.70056
        path = PolyPath((0.5, 0.5j, -0.5))
        with pytest.raises(NonConvergence, match=r"in 3 levels: last two totals "
                                                 r"1\.69459\d*, 1\.69898\d*$"):
            curve_length(Disk(), path, max_levels=3)
        assert curve_length(Disk(), path) == pytest.approx(1.70056, abs=1e-5)

    def test_grid_unsupported(self, coarse_annulus):
        # grid pairwise values are upper estimates that converge at O(h)
        with pytest.raises(Unsupported):
            curve_length(coarse_annulus, PolyPath((0.5, 0.6j)))

    def test_disk_diameter_segment(self):
        length = curve_length(Disk(), PolyPath((0, 0.5)))
        assert length == pytest.approx(HALF_LOG3, abs=1e-8)

    def test_annulus_core_half_circle(self):
        theta = np.linspace(0, math.pi, 257)
        verts = tuple(SQRT_TENTH * np.exp(1j * theta))
        length = curve_length(Annulus(0.1), PolyPath(verts))
        assert length == pytest.approx(ANNULUS_CORE_HALF, abs=1e-3)

    def test_out_of_domain_vertex(self):
        with pytest.raises(OutOfDomain):
            curve_length(Annulus(0.1), PolyPath((0.5, 0.05)))

    def test_near_inner_wall_arc(self):
        # deck enumeration must stay certified terminating next to the hole
        s = 0.105
        verts = tuple(s * np.exp(1j * t) for t in np.linspace(0, 1.0, 17))
        length = curve_length(Annulus(0.1), PolyPath(verts))
        endpoints = kob_distance(Annulus(0.1), verts[0], verts[-1]).upper
        assert length >= endpoints - 1e-9
        # independent oracle: fine midpoint quadrature of the density along
        # each straight chord of the polyline
        quad = 0.0
        ts = (np.arange(400) + 0.5) / 400
        for a, b in zip(verts[:-1], verts[1:]):
            pts = a + (b - a) * ts
            quad += float(abs(b - a) / 400 * Annulus(0.1).density(pts).sum())
        assert length == pytest.approx(quad, rel=1e-4)

    @given(st.lists(disk_points(0.8), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_length_dominates_endpoint_distance(self, verts):
        path = PolyPath(tuple(verts))
        length = curve_length(Disk(), path)
        d = poincare_distance(verts[0], verts[-1])
        assert length >= d - 1e-9


class TestGeodesic:
    def test_disk_diameter_passes_through_origin(self):
        path = geodesic(Disk(), -0.5, 0.5, samples=65)
        assert min(abs(v) for v in path.vertices) < 1e-12

    def test_punctured_radial(self):
        path = geodesic(PuncturedDisk(), math.exp(-1), math.exp(-2), samples=64)
        assert all(abs(v.imag) < 1e-12 for v in path.vertices)
        assert all(v.real > 0 for v in path.vertices)

    def test_annulus_core_stays_on_circle(self):
        path = geodesic(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH, samples=64)
        assert all(abs(abs(v) - SQRT_TENTH) < 1e-12 for v in path.vertices)

    def test_length_close_to_distance(self):
        domain = Annulus(0.1)
        path = geodesic(domain, SQRT_TENTH, -SQRT_TENTH, samples=256)
        upper = kob_distance(domain, SQRT_TENTH, -SQRT_TENTH).upper
        assert curve_length(domain, path) <= upper + 1e-4

    def test_degenerate_endpoints(self):
        with pytest.raises(DegenerateEndpoints):
            geodesic(Disk(), 0.3, 0.3)

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2.5])
    def test_samples_must_be_an_integer_of_at_least_two(self, samples):
        with pytest.raises(ValidationError):
            geodesic(Annulus(0.1), 0.5, -0.5, samples=samples)


def _random_pairs(domain, half: float, count: int = 200):
    """``count`` pairs drawn uniformly from the square |Re z|, |Im z| < half,
    points outside the domain rejected."""
    rng = np.random.default_rng(0)
    points = []
    while len(points) < 2 * count:
        z = rng.uniform(-half, half, 4096) + 1j * rng.uniform(-half, half, 4096)
        points += z[domain.contains(z)].tolist()
    return list(zip(points[0:2 * count:2], points[1:2 * count:2]))


def _mp_distance(domain, p, q):
    """The covered-domain distance at 60 digits: the least half-plane model
    distance over the deck translates of q's lift next to the nearest one."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        wp, wq = mpmath.log(mpmath.mpc(p)), mpmath.log(mpmath.mpc(q))
        if isinstance(domain, Annulus):
            log_r = mpmath.log(mpmath.mpf(domain.r))
            model = lambda w: mpmath.exp(1j * mpmath.pi * (w - log_r) / -log_r)  # noqa: E731
        else:
            model = lambda w: -1j * w  # noqa: E731
        u = model(wp)
        nearest = int(mpmath.nint((wp.imag - wq.imag) / (2 * mpmath.pi)))
        values = []
        for k in range(nearest - 1, nearest + 2):
            v = model(wq + 2j * mpmath.pi * k)
            values.append(mpmath.asinh(abs(u - v) / (2 * mpmath.sqrt(u.imag * v.imag))))
        return min(values)


class TestPolyPath:
    def test_vertices_are_one_read_only_array(self):
        path = geodesic(Annulus(0.1), 0.5, -0.5, samples=9)
        assert isinstance(path.vertices, np.ndarray)
        assert path.vertices.dtype == complex and path.vertices.shape == (9,)
        with pytest.raises(ValueError):
            path.vertices[3] = 0.5

    def test_tuple_input_is_copied(self):
        source = np.array([0.1, 0.2 + 0.1j, -0.3j])
        path = PolyPath(tuple(source))
        source[0] = 0.9
        assert path.vertices.tolist() == [0.1, 0.2 + 0.1j, -0.3j]
        assert not path.vertices.flags.writeable

    @pytest.mark.parametrize("bad", [INFINITY, math.nan, complex(0.1, math.inf)])
    def test_non_finite_vertex_out_of_domain(self, bad):
        with pytest.raises(OutOfDomain):
            PolyPath((0.1, bad, 0.2))

    def test_single_vertex_rejected(self):
        with pytest.raises(ValidationError):
            PolyPath(np.array([0.1 + 0.1j]))


class TestGeodesicRegimes:
    """Far-apart pairs on thin annuli, where the distance reaches ~490, and
    pairs next to the puncture."""

    @pytest.mark.parametrize("domain, half", [(Annulus(0.5), 1.0), (Annulus(0.9), 1.0),
                                              (Annulus(0.99), 1.0), (PuncturedDisk(), 0.01)])
    def test_constant_speed_inside_the_domain(self, domain, half):
        samples = 256
        t = np.linspace(0.0, 1.0, samples)
        for p, q in _random_pairs(domain, half):
            path = geodesic(domain, p, q, samples=samples)
            assert len(path) == samples
            assert domain.contains(path.vertices).all()
            d = _mp_distance(domain, p, q)
            # kob_distance(p, v_k).upper for every vertex, as one array call;
            # the first vertex is held to the tolerance of the second
            along = domain.distance(domain.lift(p), domain.lift(path.vertices))
            assert (np.abs(along - t * float(d)) <= 1e-9 * float(d) * np.maximum(t, t[1])).all()
            k = samples // 2
            mid = _mp_distance(domain, p, complex(path.vertices[k]))
            assert abs(mid - t[k] * d) <= 1e-9 * t[k] * d


class TestBallRaster:
    def test_disk_ball_matches_euclidean_shape(self):
        radius = math.atanh(0.5)
        ball = kob_ball_raster(Disk(), 0, radius, 0.01)
        ecenter, eradius = poincare_ball_euclidean(0, radius)
        cells = ball.centers
        well_inside = np.abs(cells - ecenter) < eradius - 2 * 0.01
        well_outside = np.abs(cells - ecenter) > eradius + 2 * 0.01
        assert ball.mask[well_inside].all()
        assert not ball.mask[well_outside].any()

    def test_center_cell_always_true(self):
        ball = kob_ball_raster(Annulus(0.1), 0.5, 1e-6, 0.02)
        idx_x = round((0.5 - ball.origin.real) / ball.spacing)
        idx_y = round((0.0 - ball.origin.imag) / ball.spacing)
        assert ball.mask[idx_y, idx_x]

    def test_monotone_in_radius(self):
        small = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.02)
        large = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 2.5, 0.02)
        assert not (small.mask & ~large.mask).any()

    def test_halfplane_ball(self):
        ball = kob_ball_raster(HalfPlane(), -1.0, 0.5, 0.02)
        assert ball.cell_count() > 0
        assert (ball.centers[ball.mask].real < 0).all()

    def test_halfplane_frame_is_the_closed_form_disk(self):
        x, y, radius = -0.7, 0.4, 0.9
        centre = complex(x * math.cosh(2 * radius), y)
        rim = centre + abs(x) * math.sinh(2 * radius) * np.exp(1j * np.linspace(0, 6, 16))
        np.testing.assert_allclose(HalfPlane().distance(complex(x, y), rim), radius, rtol=1e-12)
        ball = kob_ball_raster(HalfPlane(), complex(x, y), radius, 0.02)
        frame_centre = ball.origin + 0.5 * ball.spacing * (ball.width - 1) * (1 + 1j)
        assert abs(frame_centre - centre) < ball.spacing

    def test_export_round_trip(self):
        ball = kob_ball_raster(Disk(), 0.2, 0.5, 0.05)
        again = ball_load(ball_save(ball))
        assert again.metric == "kobayashi"
        assert again.radius == ball.radius
        assert np.array_equal(again.mask, ball.mask)

    PACKED_BALLS = pytest.mark.parametrize("domain, center, radius, digest", [
        (Annulus(0.1), SQRT_TENTH, 2.5,
         "cb5c5553baca84a14b8a28ef5223e0d4d01b0fd7b07b627e343f5cb5e91e62eb"),
        (PuncturedDisk(), 0.6j, 0.8,
         "d20cfdc6f538df68e230123a8f70192108d3f50ba7eee1c09884eeefafce4c19"),
        (HalfPlane(), -0.5 + 0.2j, 1.0,
         "0632835377e044c4877867cda89c81479ebd60747b6488f780826d245e5ee2e5"),
    ], ids=["annulus", "punctured", "halfplane"])

    @PACKED_BALLS
    def test_mask_is_the_thresholded_field(self, domain, center, radius, digest):
        ball = kob_ball_raster(domain, center, radius, 0.04)
        frame = kobayashi.ball_frame(domain, center, radius, 0.04)
        want = kobayashi.distance_field(domain, center, frame) < radius
        ix, iy = frame.cell_index(center)
        want[iy, ix] = True
        mask = ball.mask
        assert mask.dtype == bool and np.array_equal(mask, want)
        assert ball.cell_count() == np.count_nonzero(want)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[iy, ix] = False

    @PACKED_BALLS
    def test_saved_bytes_pinned(self, domain, center, radius, digest):
        # ball_save's bytes as pinned before the raster was stored bit-packed
        blob = ball_save(kob_ball_raster(domain, center, radius, 0.04))
        assert hashlib.sha256(blob).hexdigest() == digest
        assert ball_save(ball_load(blob)) == blob

    def test_ball_holds_only_its_packed_bits(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 2.5, 0.02)
        ball.mask  # an unpacked mask is not kept
        limit = math.ceil(ball.height * ball.width / 8)
        assert len(ball.bits) == limit
        assert not hasattr(ball, "__dict__")
        for name in type(ball).__slots__:
            value = getattr(ball, name)
            size = len(value) if isinstance(value, bytes) else getattr(value, "nbytes", 0)
            assert size <= limit, name

    @pytest.mark.parametrize("field, value", [
        ("spacing", math.nan), ("spacing", math.inf), ("origin", [math.nan, 0.0]),
        ("radius", 10**400), ("center", [0.2, -10**400]), ("radius", math.nan),
        ("radius", math.inf), ("center", [math.inf, 0.0])])
    def test_load_rejects_non_finite_fields(self, field, value):
        blob = ball_save(kob_ball_raster(Disk(), 0.2, 0.5, 0.05))
        payload = json.loads(blob)
        payload[field] = value
        with pytest.raises(ValidationError):
            ball_load(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [
        ("radius", True), ("radius", "0.5"), ("radius", None), ("radius", [0.5]),
        ("center", "0.2"), ("center", [0.2]), ("center", [0.2, 0.0, 0.0]),
        ("center", [True, 0.0]), ("center", ["0.2", 0.0]), ("center", 0.2),
        ("metric", 5), ("metric", "poincare"), ("metric", None), ("metric", ["kobayashi"]),
    ])
    def test_load_rejects_ill_typed_ball_fields(self, field, value):
        # each of these loaded before: True as radius 1.0, "0.5" through
        # float(), 5 as the metric "5"
        payload = json.loads(ball_save(kob_ball_raster(Disk(), 0.2, 0.5, 0.05)))
        assert ball_load(json.dumps(payload)).radius == 0.5
        with pytest.raises(ParseError, match=f"^{field} must be"):
            ball_load(json.dumps({**payload, field: value}))

    @pytest.mark.parametrize("field", ["radius", "center", "metric"])
    def test_load_names_a_missing_ball_field(self, field):
        payload = json.loads(ball_save(kob_ball_raster(Disk(), 0.2, 0.5, 0.05)))
        del payload[field]
        with pytest.raises(ParseError, match=f"^missing field: '{field}'$"):
            ball_load(json.dumps(payload))

    @pytest.mark.parametrize("metric", kobayashi.BALL_METRICS)
    def test_load_keeps_every_ball_metric(self, metric):
        ball = kob_ball_raster(Disk(), 0.2, 0.5, 0.05)
        ball.metric = metric
        again = ball_load(ball_save(ball))
        assert (again.metric, again.center, again.radius) == (metric, 0.2, 0.5)

    def test_load_reads_the_cli_caratheodory_ball(self, tmp_path):
        from invmetrics.cli import main

        target = tmp_path / "car.json"
        assert main(["ball", "--domain", "annulus:0.1", "--metric", "caratheodory",
                     "--center", "0.3162,0", "--radius", "1.5", "--spacing", "0.04",
                     "--format", "grid", "--out", str(target)]) == 0
        assert ball_load(target.read_bytes()).metric == "caratheodory-approximant"


# Inner distances on acceptance C7's 20 disk pairs at spacing 0.01 and 0.005;
# each edge and link weighs the hyperbolic length of its segment
# (kobayashi._disk_chord), so every value lies above the closed form ...
C7_INNER_001 = [
    0.9415798593545378, 0.9798005673232704, 0.5942466335970399,
    1.1481108299115985, 1.099076076319705, 1.6216578347818893,
    0.567258548067687, 0.34169708235861784, 0.6106150682541345,
    1.0797032025682056, 0.5185349939240796, 0.13407553881812648,
    1.1066223486553306, 0.41275397243251866, 0.2254860253824085,
    0.8327365496674897, 0.48879906138637386, 0.4601656792471218,
    0.23105544575833337, 0.833810191804934,
]
C7_INNER_0005 = [
    0.9415727225895473, 0.979705083545549, 0.5942351593449301,
    1.1481087028548467, 1.0991192532841656, 1.62166149004655,
    0.5673198557437141, 0.34167100040614773, 0.6106114201152653,
    1.0797041028144765, 0.5185382141079402, 0.13405126689877322,
    1.106585651216085, 0.412791730451256, 0.2254810732184025,
    0.8326383590998744, 0.4887414310117569, 0.4601656468133378,
    0.23105224589454543, 0.8337814411546604,
]
# ... and the entries of the graphs of the first four C7 pairs at spacing
# 0.02, one graph a pair: twice the lattice edges between the crop cells in
# the pair's ellipse d(p, x) + d(x, q) <= limit, plus the pair's links
ENTRIES_C7_002 = [8353, 8935, 3558, 13670]


def _c7_pairs():
    """Acceptance C7's sample of disk pairs."""
    rng = np.random.default_rng(707)
    pairs = []
    while len(pairs) < 20:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
            pairs.append((z, w))
    return pairs


def _record_graphs(monkeypatch, calls=None):
    """List that collects every graph inner_distance_many assembles, and in
    ``calls`` the arguments each was assembled from."""
    graphs = []
    build = kobayashi._lattice_graph

    def record(*args):
        if calls is not None:
            calls.append(args)
        graphs.append(build(*args))
        return graphs[-1]

    monkeypatch.setattr(kobayashi, "_lattice_graph", record)
    return graphs


def _record_boxes(monkeypatch):
    """List that collects the (keep, y0, x0) box of every pair's disk graph,
    in the order the graphs are assembled."""
    boxes = []
    ellipse = kobayashi._disk_ellipse

    def record(*args):
        boxes.append(ellipse(*args))
        return boxes[-1]

    monkeypatch.setattr(kobayashi, "_disk_ellipse", record)
    return boxes


def _frame_nodes(frame_shape, keep, y0=0, x0=0):
    """Graph node of each frame cell (flat, -1: none) for a graph over the
    cells of ``keep``, the box of the frame from row y0 and column x0."""
    node = np.full(frame_shape, -1)
    node[y0:y0 + keep.shape[0], x0:x0 + keep.shape[1]][keep] = np.arange(keep.sum())
    return node.ravel()


def _chord(a, b):
    """Hyperbolic length of the segment from a to b in the unit disk:
    sqrt(C/D) atanh(sqrt(D)/(g - B)) with g = 1 - |a|^2, B = Re(conj(a) u),
    C = |u|^2 and D = B^2 + gC for u = b - a, the integral of
    |u|/(1 - |a + tu|^2) over 0 <= t <= 1, and 0 where a = b."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    u = b - a
    g = 1.0 - np.abs(a) ** 2
    big_b = (np.conj(a) * u).real
    c = np.abs(u) ** 2
    d = big_b ** 2 + g * c
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c > 0, np.sqrt(c / d) * np.arctanh(np.sqrt(d) / (g - big_b)), 0.0)


def _per_edge_chord_weigh(frame):
    """``weigh`` step by step for disk graphs over ``frame``'s cells, and the
    steps it reads: each step's hyperbolic length from its lower cell, for
    every step that stays in the frame (nan for the others)."""
    width = frame.mask.shape[1]
    centers = frame.centers.ravel()
    moves = [(dx, dy) for dx, dy in kobayashi._coprime_moves(kobayashi._MOVE_RADIUS)
             if abs(dx) < width and dy < frame.mask.shape[0]]
    steps = kobayashi._lattice_steps(moves)

    def weigh(y, x):
        w = np.full((y.size, len(steps)), np.nan)
        for s, (dx, dy) in enumerate(steps):
            t = np.flatnonzero((y + dy >= 0) & (y + dy < frame.mask.shape[0])
                               & (x + dx >= 0) & (x + dx < width))
            i, j = y[t] * width + x[t], (y[t] + dy) * width + x[t] + dx
            i, j = np.minimum(i, j), np.maximum(i, j)
            w[t, s] = _chord(centers[i], centers[j])
        return w

    return weigh, steps


def _disk_crop(pairs, h):
    """The disk's inner-distance frame for these pairs, |z| <= half, and half."""
    reach = max(abs(z) for pair in pairs for z in pair)
    half = min(1.0 - h, reach + (kobayashi._MOVE_RADIUS + 2) * h + 0.02)
    return grid_from_predicate(lambda z: np.abs(z) <= half, half / FRAME_MARGIN, h), half


def _assert_same_graph(graph, reference):
    assert np.array_equal(graph.indptr, reference.indptr)
    assert np.array_equal(graph.indices, reference.indices)
    np.testing.assert_allclose(graph.data, reference.data, rtol=1e-12, atol=0)


class TestInnerDistance:
    def test_equal_points(self):
        assert inner_distance(Disk(), 0.3, 0.3, 0.01) == 0.0

    def test_disk_example(self):
        value = inner_distance(Disk(), 0, 0.5, 0.01)
        assert value == pytest.approx(HALF_LOG3, abs=5e-3)

    @pytest.mark.parametrize("spacing, expected", [(0.01, C7_INNER_001),
                                                   (0.005, C7_INNER_0005)])
    def test_pinned_disk(self, spacing, expected):
        assert inner_distance_many(Disk(), _c7_pairs(), spacing).tolist() == expected

    def test_values_do_not_depend_on_the_batch(self):
        # every batch holds the same anchor pair on |z| = 0.69, so the round
        # crop is the same, and a pair's value in a batch is its value
        # alone: no path runs through another pair's endpoint
        rng = np.random.default_rng(12)
        anchor = (cmath.rect(0.69, 1.0), cmath.rect(0.3, -2.0))
        pairs = [tuple(cmath.rect(rng.uniform(0.05, 0.65), rng.uniform(0, math.tau))
                       for _ in range(2)) for _ in range(10)]
        alone = [inner_distance_many(Disk(), [anchor, pair], 0.02)[1] for pair in pairs]
        assert inner_distance_many(Disk(), [anchor] + pairs, 0.02)[1:].tolist() == alone

    @pytest.mark.parametrize("pairs, spacing, entries", [
        ([(0, 0.5)], 0.5, 1),
        (_c7_pairs()[:4], 0.02, sum(ENTRIES_C7_002)),
    ])
    def test_graph_stores_both_directions(self, pairs, spacing, entries, monkeypatch):
        # entries, over the graphs: every lattice edge twice, then the links
        # from source p, one way; the target q is no node of a graph.  Each
        # pair searches a graph of its own, of the crop cells in its ellipse
        # (a mask of a box of the frame)
        graphs = _record_graphs(monkeypatch)
        boxes = _record_boxes(monkeypatch)
        inner_distance_many(Disk(), pairs, spacing)
        assert sum(graph.nnz for graph in graphs) == entries
        if spacing < 0.5:
            assert [graph.nnz for graph in graphs] == ENTRIES_C7_002
        # the frame is cropped to |z| <= 0.5 at spacing 0.5
        frame, _ = _disk_crop(pairs, spacing)
        assert len(boxes) == len(graphs) == len(pairs)
        reach = kobayashi._MOVE_RADIUS * spacing
        centers = frame.centers.ravel()
        for graph, (keep, y0, x0), (p, _) in zip(graphs, boxes, pairs):
            cells = int(keep.sum())
            node = _frame_nodes(frame.mask.shape, keep, y0, x0)
            assert not (node >= 0)[~frame.mask.ravel()].any()
            assert graph.shape == (cells + 1,) * 2
            assert graph.indices.dtype == np.int32
            lattice = graph[:cells]
            assert lattice.nnz == graph.indptr[cells] and (lattice[:, cells:]).nnz == 0
            assert (lattice[:, :cells] != lattice[:, :cells].T).nnz == 0
            # the source row holds p's links to the graph's cells within a
            # move's reach, each weighing its hyperbolic length
            row = graph[cells]
            near = np.flatnonzero((node >= 0) & (np.abs(centers - p) <= reach))
            assert np.array_equal(row.indices, node[near])
            np.testing.assert_allclose(row.data, _chord(p, centers[near]), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("block, seed, links", [
        pytest.param(block, seed, links, id=f"{block}-{seed}" + ("" if links else "-unlinked"))
        for block, seed in [(3, 7), (9, 3), (9, 2048), (100, 7), (1, 1), (1000, 1)]
        for links in ([0, 60, -1], [])])
    def test_banded_assembly_matches_an_edge_list(self, block, seed, links, monkeypatch):
        # a 29 x 5 mask of random cells, with random weights (alike both
        # ways) and a source row to the given nodes (-1: the last) or none,
        # assembled in bands of one cell, 3, 9 and 100 cells, which split
        # rows every way, and all of them at once; the longest move reaches
        # _MOVE_RADIUS rows
        rng = np.random.default_rng(seed)
        height, width = 29, 5
        keep = rng.random((height, width)) < 0.8
        reach = kobayashi._MOVE_RADIUS
        moves = [(1, 0), (-1, 1), (0, 1), (1, 1), (1, 2), (-1, reach), (2, reach)]
        steps = kobayashi._lattice_steps(moves)
        assert [tuple(s) for s in steps] == sorted(
            moves + [(-dx, -dy) for dx, dy in moves], key=lambda m: (m[1], m[0]))
        cells = int(keep.sum())
        node = np.full(keep.shape, -1)
        node[keep] = np.arange(cells)
        weight = {}
        for y, x in zip(*np.nonzero(keep)):
            for dx, dy in moves:
                v, u = y + dy, x + dx
                if 0 <= v < height and 0 <= u < width and keep[v, u]:
                    weight[node[y, x], node[v, u]] = weight[node[v, u], node[y, x]] = rng.random()
        blocks = []

        def weigh(y, x):
            # the weights of the entries; every other slot is nan and must
            # not be stored
            blocks.append(y.size)
            w = np.full((y.size, len(steps)), np.nan)
            for t in range(y.size):
                for s, (dx, dy) in enumerate(steps):
                    v, u = y[t] + dy, x[t] + dx
                    if 0 <= v < height and 0 <= u < width and keep[v, u]:
                        w[t, s] = weight[node[y[t], x[t]], node[v, u]]
            return w

        k = np.array(links, dtype=int) % cells
        source = k, rng.random(k.size)
        monkeypatch.setattr(kobayashi, "_BLOCK_CELLS", block)
        graph = kobayashi._lattice_graph(keep, steps, weigh, source)
        assert sum(blocks) == cells and max(blocks) == min(block, cells)
        ends = np.array(list(weight), dtype=int).reshape(-1, 2)
        a = np.concatenate([ends[:, 0], np.full(k.size, cells)])
        b = np.concatenate([ends[:, 1], k])
        w = np.concatenate([list(weight.values()), source[1]])
        expected = kobayashi.coo_matrix((w, (a, b)), shape=(cells + 1,) * 2).tocsr()
        expected.sort_indices()
        assert graph.shape == (cells + 1,) * 2
        assert graph.has_sorted_indices
        assert np.array_equal(graph.indptr, expected.indptr)
        assert np.array_equal(graph.indices, expected.indices)
        assert np.array_equal(graph.data, expected.data)

    @pytest.mark.parametrize("shape, fill", [((29, 5), 0.8), ((3, 40), 0.5), ((1, 1), 1.0),
                                             ((0, 0), 1.0), ((60, 61), 0.3), ((9, 9), 1.0)])
    def test_count_step_pairs_matches_the_shifted_slices(self, shape, fill):
        # one autocorrelation of the mask against a count over each step's
        # shifted slice of the mask padded by the reach, on masks narrower
        # and wider than the reach
        rng = np.random.default_rng(sum(shape))
        keep = rng.random(shape) < fill
        steps = kobayashi._lattice_steps(kobayashi._coprime_moves(kobayashi._MOVE_RADIUS))
        reach = int(np.abs(steps).max())
        (height, width), padded = shape, np.pad(keep, reach)
        expected = sum(np.count_nonzero(keep & padded[reach + dy:reach + dy + height,
                                                      reach + dx:reach + dx + width])
                       for dx, dy in steps)
        assert kobayashi._count_step_pairs(keep, steps, reach) == expected

    def test_disk_crop_keeps_the_edges_inside_it(self, monkeypatch):
        # each pair's graph is the square frame's, each edge weighing its
        # hyperbolic length, less every lattice edge with an end outside
        # |z| <= half or outside that pair's ellipse d(p, x) + d(x, q) <=
        # limit (with its 1e-9 rounding margin), and its source row keeps
        # p's links to the cells it keeps
        graphs = _record_graphs(monkeypatch)
        boxes = _record_boxes(monkeypatch)
        pairs, h = _c7_pairs(), 0.01
        inner_distance_many(Disk(), pairs, h)
        crop, half = _disk_crop(pairs, h)
        square = grid_from_predicate(Disk().contains, half / FRAME_MARGIN, h)
        assert square.mask.shape == crop.mask.shape
        weigh, steps = _per_edge_chord_weigh(square)
        ps, qs = np.array(pairs).T
        limits = (kobayashi._LIMIT_FACTOR * Disk().distance(ps, qs)
                  + kobayashi._LIMIT_CELLS * h)
        bounds = (1.0 + 1e-9) * limits
        z = square.centers
        assert len(graphs) == len(boxes) == len(pairs)
        for graph, (keep, y0, x0), p, q, bound in zip(graphs, boxes, ps, qs, bounds):
            kept = (square.mask & (np.abs(z) <= half)
                    & (Disk().distance(p, z) + Disk().distance(z, q) <= bound))
            assert 0 < kept.sum() < crop.mask.sum()
            node = _frame_nodes(kept.shape, keep, y0, x0)
            assert np.array_equal(node >= 0, kept.ravel())
            c = z.ravel()
            near = np.flatnonzero(kept.ravel() & (np.abs(c - p) <= kobayashi._MOVE_RADIUS * h))
            links = node[near], _chord(p, c[near])
            _assert_same_graph(graph, kobayashi._lattice_graph(kept, steps, weigh, links))

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_disk_weights_bound_hyperbolic_lengths(self, h, monkeypatch):
        # every stored edge and link weighs at least the distance between its
        # ends, so no path weighs less than the distance between its ends;
        # and a straight segment a few cells long is hardly longer than the
        # geodesic, so the weights are tight as well
        graphs = _record_graphs(monkeypatch)
        boxes = _record_boxes(monkeypatch)
        rng = np.random.default_rng(33)
        pairs = [tuple(cmath.rect(rng.uniform(0, 0.6), rng.uniform(0, math.tau))
                       for _ in range(2)) for _ in range(4)]
        inner_distance_many(Disk(), pairs, h)
        crop, _ = _disk_crop(pairs, h)
        ratios = []
        for graph, (keep, y0, x0), (p, _) in zip(graphs, boxes, pairs):
            box = crop.centers[y0:y0 + keep.shape[0], x0:x0 + keep.shape[1]]
            ends = np.append(box[keep], p)
            coo = graph.tocoo()
            ratios.append(Disk().distance(ends[coo.row], ends[coo.col]) / coo.data)
        ratio = np.concatenate(ratios)
        assert ratio.size > 10000
        assert (ratio <= 1.0 + 1e-12).all()
        assert ratio.min() > 0.99

    @pytest.mark.parametrize("h, pairs, restricted", [
        (0.01, [(0.1, 0.1 + 0.03j), (0.4, 0.4), (0.6j, -0.55 - 0.2j), (0.3 - 0.5j, 0.05)], True),
        (0.02, [(0.6, -0.59j), (0.1, 0.1 - 0.1j), (-0.2j, -0.2j), (0.55j, -0.5)], True),
        # endpoints a cell inside the crop |z| <= 1 - h, which cuts their
        # links; the ellipses keep only part of the crop there too
        (0.02, [(0.97, -0.96j), (0.965j, 0.9 + 0.2j), (-0.5, -0.5), (-0.3, 0.2 + 0.1j)], True),
    ])
    def test_ellipses_keep_the_round_crop_values(self, h, pairs, restricted, monkeypatch):
        # a direct-link pair, p == q, far pairs and pairs near the crop's
        # rim get the same value as on the whole round crop's graph
        rng = np.random.default_rng(len(pairs) + int(1 / h))
        pairs = pairs + [tuple(cmath.rect(0.6 * rng.uniform() ** 0.5, rng.uniform(0, math.tau))
                               for _ in range(2)) for _ in range(6)]
        boxes = _record_boxes(monkeypatch)
        values = inner_distance_many(Disk(), pairs, h)
        crop, _ = _disk_crop(pairs, h)
        kept = [keep.sum() for keep, _, _ in boxes]
        assert len(kept) == len(pairs)
        assert (max(kept) < crop.mask.sum()) == restricted
        monkeypatch.setattr(kobayashi, "_disk_ellipse", lambda frame, *args: (frame.mask, 0, 0))
        assert values.tolist() == inner_distance_many(Disk(), pairs, h).tolist()

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_disk_values_bound_the_distance(self, h):
        # a disk value is the weight of a path whose edges and links weigh at
        # least the distance between their ends, so it is never below the
        # closed form, and the limited search finds it within the pair's
        # limit: near the rim, at p == q, closer than a cell, on diameters
        # and on acceptance C7's pairs
        rng = np.random.default_rng(2026)
        rim = [(0.97, -0.97)] + [tuple(cmath.rect(rng.uniform(0.9, 0.975), rng.uniform(0, math.tau))
                                       for _ in range(2)) for _ in range(4)]
        points = [cmath.rect(rng.uniform(0, 0.95), rng.uniform(0, math.tau)) for _ in range(6)]
        same = [(z, z) for z in points[:2]]
        close = [(z, z + cmath.rect(rng.uniform(0.1, 0.9) * h, rng.uniform(0, math.tau)))
                 for z in points[2:]]
        diameters = [(cmath.rect(rng.uniform(0.1, 0.9), t), cmath.rect(-rng.uniform(0.1, 0.9), t))
                     for t in rng.uniform(0, math.pi, 3)]
        pairs = rim + same + close + diameters + _c7_pairs()
        values = inner_distance_many(Disk(), pairs, h)
        ps, qs = np.array(pairs).T
        exact = Disk().distance(ps, qs)
        limits = kobayashi._LIMIT_FACTOR * exact + kobayashi._LIMIT_CELLS * h
        assert (values >= exact * (1.0 - 1e-12)).all()
        assert (values <= limits).all()
        assert values[0] == pytest.approx(2 * math.atanh(0.97), rel=2e-3)

    def test_peak_memory_is_the_graph(self, monkeypatch):
        # each pair's graph is dropped before the next is assembled, and edge
        # weights are held a block of cells at a time, so the call's traced
        # peak stays near the largest pair's graph; a moves x cells float
        # array would add over a third of it here.  A first call, untraced,
        # loads what any call loads once (scipy.ndimage for the crop's frame)
        inner_distance_many(Disk(), _c7_pairs(), 0.01)
        sizes, built = [], []
        build = kobayashi._lattice_graph

        def record(*args):
            assert all(graph() is None for graph in built)
            graph = build(*args)
            sizes.append(graph.data.nbytes + graph.indices.nbytes + graph.indptr.nbytes)
            built.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(kobayashi, "_lattice_graph", record)
        tracemalloc.start()
        try:
            inner_distance_many(Disk(), _c7_pairs(), 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 20
        assert peak < 1.2 * max(sizes)

    def test_limit_miss_retries_on_the_ellipse_at_the_weight_found(self, monkeypatch):
        # limits at the closed form, which every lattice value exceeds.  The
        # ellipse at that limit holds next to no cell, so the first search
        # walks the whole crop instead and finds q past its limit, at a
        # finite weight V; the retry searches the ellipse at V to V and must
        # give the round crop's value
        kobayashi._load_sparse()
        limits = []
        search = kobayashi._csgraph_dijkstra
        monkeypatch.setattr(kobayashi, "_csgraph_dijkstra", lambda *args, **kwargs: (
            limits.append(kwargs["limit"]) or search(*args, **kwargs)))
        monkeypatch.setattr(kobayashi, "_LIMIT_FACTOR", 1.0)
        monkeypatch.setattr(kobayashi, "_LIMIT_CELLS", 0)
        pairs = _c7_pairs()
        exact = Disk().distance(*np.array(pairs).T)
        first = dict(zip(pairs, exact))
        ellipse = kobayashi._disk_ellipse
        monkeypatch.setattr(kobayashi, "_disk_ellipse", lambda frame, p, q, limit: (
            (frame.mask, 0, 0) if limit == first[p, q] else ellipse(frame, p, q, limit)))
        values = inner_distance_many(Disk(), pairs, 0.01)
        assert values.tolist() == C7_INNER_001
        assert len(limits) == 2 * len(pairs)
        assert limits[::2] == exact.tolist()
        found = np.array(limits[1::2])
        assert (np.isfinite(found) & (found > exact) & (values <= found)).all()

    @pytest.mark.parametrize("p, q, expected", [
        (0, 0.999, 3.800201167250205),
        (-0.999, 0.999, 7.600402334500412),
        (0.9999j, 0.5, 5.208480481376525),
    ])
    def test_rim_endpoints_link_to_the_crop(self, p, q, expected):
        # an endpoint within half a cell of the rim lies past the crop
        # |z| <= 1 - h and its frame; it is linked to the crop cells within a
        # move's reach by chords, which stay in the disk and weigh at least
        # the distance between their ends
        value = inner_distance(Disk(), p, q, 0.01)
        assert value >= Disk().distance(p, q) * (1.0 - 1e-12)
        assert value == expected

    def test_limit_miss_falls_back_to_the_full_search(self, monkeypatch):
        # no margin: every limited search stops short of its target, so each
        # pair is searched again to inf, on the ellipse at inf: the whole
        # round crop, every one of its cells and the source
        kobayashi._load_sparse()
        limits, rows = [], []
        search = kobayashi._csgraph_dijkstra
        monkeypatch.setattr(kobayashi, "_csgraph_dijkstra", lambda *args, **kwargs: (
            limits.append(kwargs.get("limit", math.inf)) or search(*args, **kwargs)))
        build = kobayashi._lattice_graph

        def record(*args):
            graph = build(*args)
            rows.append(graph.shape[0])
            return graph

        monkeypatch.setattr(kobayashi, "_lattice_graph", record)
        monkeypatch.setattr(kobayashi, "_LIMIT_FACTOR", 0.0)
        monkeypatch.setattr(kobayashi, "_LIMIT_CELLS", 0)
        pairs = _c7_pairs()
        assert inner_distance_many(Disk(), pairs, 0.01).tolist() == C7_INNER_001
        assert limits == [0.0, math.inf] * 20
        crop, _ = _disk_crop(pairs, 0.01)
        assert rows[1::2] == [crop.mask.sum() + 1] * 20

    def test_ellipse_at_inf_is_the_round_crop(self):
        # the bound inf keeps every cell of the crop, whatever the pair:
        # apart, equal, and with an endpoint past the crop, next to the rim
        for pairs, h in [(_c7_pairs(), 0.01), ([(0.97, -0.96j), (-0.5, -0.5)], 0.02),
                         ([(0, 0.999), (0.9999j, 0.5)], 0.01)]:
            crop, _ = _disk_crop(pairs, h)
            for p, q in pairs:
                keep, y0, x0 = kobayashi._disk_ellipse(crop, p, q, math.inf)
                kept = _frame_nodes(crop.mask.shape, keep, y0, x0) >= 0
                assert np.array_equal(kept, crop.mask.ravel())

    @pytest.mark.parametrize("domain", [Disk(), Annulus(0.3), PuncturedDisk()])
    def test_no_pairs(self, domain):
        # off the disk an empty batch is refused like any other
        if isinstance(domain, Disk):
            assert inner_distance_many(domain, [], 0.01).shape == (0,)
        else:
            with pytest.raises(Unsupported, match="kob_distance"):
                inner_distance_many(domain, [], 0.01)

    def test_coarse_frame_uses_the_direct_link(self):
        # one domain cell at spacing 0.5: the pair is joined directly, and
        # the segment, a diameter's, is the geodesic
        value = inner_distance(Disk(), 0, 0.5, 0.5)
        assert value == pytest.approx(HALF_LOG3, rel=1e-15)


def _pred_disk(z):
    return np.abs(z) < 1


@pytest.mark.parametrize("call, error", [
    (lambda: rasterize(Disk(), NAN), ValidationError),
    (lambda: grid_from_predicate(_pred_disk, NAN, 0.1), ValidationError),
    (lambda: grid_from_predicate(_pred_disk, math.inf, 0.1), ValidationError),
    (lambda: grid_from_predicate(_pred_disk, 0.0, 0.1), ValidationError),
    (lambda: grid_from_predicate(_pred_disk, 1.0, math.inf), ValidationError),
    (lambda: kob_ball_raster(Disk(), 0, 0.5, NAN), ValidationError),
    (lambda: kob_ball_raster(Disk(), 0, NAN, 0.05), OutOfDomain),
    (lambda: kob_ball_raster(HalfPlane(), -1, 400.0, 0.05), ValidationError),
    (lambda: kob_ball_raster(HalfPlane(), -1, math.inf, 0.05), ValidationError),
    (lambda: car_ball_components(Disk(), 0, NAN, spacing=0.05), EmptyBall),
    (lambda: inner_distance(Disk(), 0, 0.5, NAN), ValidationError),
    (lambda: inner_distance(Disk(), 0, 0.5, 0.0), ValidationError),
    (lambda: inner_distance(Disk(), 0, 0.5, -0.01), ValidationError),
    # past 0.5 the round crop |z| <= 1 - h leaves no 3 x 3 frame
    (lambda: inner_distance(Disk(), 0, 0.5, 0.6), ValidationError),
    (lambda: inner_distance(Disk(), 0, 0.5, 0.9), ValidationError),
    # the cell graph runs on the disk only, empty batches included
    (lambda: inner_distance(Annulus(0.1), 0.5, -0.5, 0.01), Unsupported),
    (lambda: inner_distance(PuncturedDisk(), 0.3, -0.3, 0.01), Unsupported),
    (lambda: inner_distance_many(Annulus(0.1), [], 0.01), Unsupported),
    (lambda: inner_distance_many(PuncturedDisk(), [], 0.01), Unsupported),
    (lambda: inner_distance_many(HalfPlane(), [(-1, -2)], 0.01), Unsupported),
    (lambda: inner_distance_many(grid_annulus(0.5, 0.05), [(0.7, -0.7)], 0.01),
     Unsupported),
    # equal endpoints take the same checks as any pair
    (lambda: inner_distance(grid_annulus(0.5, 0.05), 0.7, 0.7, 0.01), Unsupported),
    (lambda: inner_distance(HalfPlane(), -1, -1, 0.01), Unsupported),
    (lambda: inner_distance(Disk(), 0.1, 0.1, NAN), ValidationError),
    # an infinite ball is the whole domain, not a ball
    (lambda: kob_ball_raster(Disk(), 0, math.inf, 0.05), ValidationError),
    (lambda: kob_ball_raster(Annulus(0.1), 0.5, math.inf, 0.05), ValidationError),
])
def test_bad_raster_inputs_raise_named_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("bad", ["a", None, [0.1, 0.2]], ids=["text", "None", "list"])
@pytest.mark.parametrize("call", [
    lambda z: kob_distance(Disk(), z, 0.1),
    lambda z: geodesic(Disk(), 0.1, z),
    lambda z: inner_distance(Disk(), z, 0.1, 0.01),
    lambda z: inner_distance_many(Disk(), [(0, z)], 0.01),
], ids=["kob_distance", "geodesic", "inner_distance", "inner_distance_many"])
def test_malformed_points_raise_validation_errors(call, bad):
    # what complex() cannot read is no point
    with pytest.raises(ValidationError):
        call(bad)


@pytest.mark.parametrize("pairs", [5, None, [(0.1, 0.2, 0.3)], [0.1], "ab"],
                         ids=["int", "None", "triple", "point", "text"])
def test_malformed_pairs_raise_validation_errors(pairs):
    # no iterable of (p, q) pairs: named, not a bare TypeError or ValueError
    with pytest.raises(ValidationError, match="pairs"):
        inner_distance_many(Disk(), pairs, 0.01)


@pytest.mark.parametrize("bad", ["0.01", None], ids=["text", "None"])
@pytest.mark.parametrize("call, error, name", [
    (lambda v: inner_distance(Disk(), 0, 0.5, v), ValidationError, "spacing"),
    # refused off the disk before the spacing is read
    (lambda v: inner_distance(Annulus(0.1), 0.5, -0.5, v), Unsupported, "kob_distance"),
    (lambda v: kob_ball_raster(Disk(), 0, 0.5, v), ValidationError, "spacing"),
    (lambda v: kob_ball_raster(Disk(), 0, v, 0.05), ValidationError, "ball radius"),
    (Annulus, ValidationError, "annulus inner radius"),
    (lambda v: car_ball_components(Disk(), 0, v, spacing=0.05), ValidationError, "ball radius"),
    (lambda v: nerve_cover(Disk(), kob_ball_raster(Disk(), 0, 0.5, 0.05), v), ValidationError,
     "cover radius"),
    (canonical_annulus_radius, ValidationError, "modulus"),
], ids=["disk_inner_distance", "annulus_inner_distance", "ball_spacing", "ball_radius",
        "annulus_radius", "car_ball_radius", "nerve_cover_radius",
        "canonical_annulus_modulus"])
def test_non_numbers_raise_validation_errors(call, error, name, bad):
    # a number given as text or left out is named, not a bare TypeError
    with pytest.raises(error, match=name):
        call(bad)


@pytest.mark.parametrize("spacing", [1.0, 5.0, math.inf, NAN])
def test_disk_inner_distance_names_a_coarse_spacing(spacing):
    with pytest.raises(ValidationError, match="spacing"):
        inner_distance(Disk(), 0, 0.5, spacing)


class TestDistanceDecreasing:
    @given(annulus_points(0.1, margin=0.05))
    @settings(max_examples=30, deadline=None)
    def test_inclusion_chain(self, p):
        q = -0.5 + 0.1j
        d_ann = kob_distance(Annulus(0.1), p, q).upper
        d_punct = kob_distance(PuncturedDisk(), p, q).upper
        d_disk = kob_distance(Disk(), p, q).upper
        assert d_punct <= d_ann + 1e-8
        assert d_disk <= d_punct + 1e-8

    @given(st.floats(-3, -0.1), st.floats(-3, 3), st.floats(-3, -0.1),
           st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_exponential_cover_decreases(self, a, b, c, d):
        w1, w2 = complex(a, b), complex(c, d)
        source = kob_distance(HalfPlane(), w1, w2).upper
        target = kob_distance(PuncturedDisk(), complex(np.exp(w1)),
                              complex(np.exp(w2))).upper
        assert target <= source + 1e-8

    @given(disk_points(0.9), disk_points(0.9))
    @settings(max_examples=60)
    def test_square_map_decreases(self, p, q):
        source = kob_distance(Disk(), p, q).upper
        target = kob_distance(Disk(), p * p, q * q).upper
        assert target <= source + 1e-8
