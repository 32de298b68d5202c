import cmath
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import annulus_points, disk_points
from invmetrics import kobayashi
from invmetrics.caratheodory import car_ball_components
from invmetrics.domains import (
    FRAME_MARGIN,
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    cell_pairs,
    grid_annulus,
    grid_from_predicate,
    rasterize,
)
from invmetrics.errors import (
    DegenerateEndpoints,
    Disconnected,
    EmptyBall,
    OutOfDomain,
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
        assert interval.lower == interval.upper == poincare_distance(0, 0.5)
        assert interval.certified

    def test_halfplane_closed_form(self):
        interval = kob_distance(HalfPlane(), -1, -2)
        assert interval.upper == pytest.approx(HALF_LOG2, abs=1e-15)

    def test_punctured_interval(self):
        interval = kob_distance(PuncturedDisk(), math.exp(-1), math.exp(-2),
                                tol=1e-8)
        assert interval.upper == pytest.approx(HALF_LOG2, abs=1e-8)
        assert interval.width <= 1e-8

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            kob_distance(Annulus(0.1), 0.05, 0.5)

    @pytest.mark.parametrize("domain, p, q", [(Disk(), 0, 0.5), (HalfPlane(), -1, -2),
                                              (Annulus(0.5), 0.7, -0.7)])
    @pytest.mark.parametrize("tol", [NAN, -1.0, math.inf])
    def test_bad_tol(self, domain, p, q, tol):
        with pytest.raises(ValidationError, match="tol"):
            kob_distance(domain, p, q, tol)

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
    # kob_distance is one row of the vectorized kernel, bit for bit, in
    # every regime; its checks name the first endpoint that is outside
    domain, P, Q, off = rows
    keep = domain.contains(P) & domain.contains(Q)
    P, Q = P[keep], Q[keep]
    batch = domain.distance(domain.lift(P), domain.lift(Q))
    for i in range(P.size):
        assert kob_distance(domain, P[i], Q[i]).upper == batch[i]
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
        m, bound, (h, w) = grid.mask, grid.density_upper_bound, grid.mask.shape
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

    @pytest.mark.parametrize("field, value", [
        ("spacing", math.nan), ("spacing", math.inf), ("origin", [math.nan, 0.0])])
    def test_load_rejects_non_finite_fields(self, field, value):
        blob = ball_save(kob_ball_raster(Disk(), 0.2, 0.5, 0.05))
        payload = json.loads(blob)
        payload[field] = value
        with pytest.raises(ValidationError):
            ball_load(json.dumps(payload))


# Inner distances on acceptance C7's 20 disk pairs at spacing 0.01 and 0.005
# since edge weights are read from one density table on the half-spacing
# lattice: the table's midpoint coordinates and the constant edge lengths
# differ from the per-edge (a + b) / 2 and |b - a| in the last bits, which
# moved 12 and 16 of the values by at most 7.2e-16 relative ...
C7_INNER_001 = [
    0.941090867966171, 0.9791050673294923, 0.5939612350356079,
    1.147461863304492, 1.0983906159196526, 1.6202041803826484,
    0.5668931286075461, 0.34155338036235955, 0.6103520189854761,
    1.0791196384515906, 0.5183127470397373, 0.134005728944803,
    1.1058768820606746, 0.4126255452593225, 0.22537217126123577,
    0.8320589815873528, 0.4884032133580056, 0.4600269797019956,
    0.23090797871366858, 0.8334212380207136,
]
C7_INNER_0005 = [
    0.9414230004923064, 0.9795784753195428, 0.5941661111716243,
    1.1479724737432255, 1.0989544122678263, 1.621338356081591,
    0.5672482320394917, 0.3416340242885729, 0.6105574794548401,
    1.079567821665465, 0.5184977720138118, 0.1340350061214603,
    1.1063881190507057, 0.4127557840070817, 0.225442478642166,
    0.8325005265042102, 0.4886597623554026, 0.4601328731402809,
    0.2310240836502885, 0.8336966807268045,
]
# ... and _ring_pairs(r) in Annulus(r), _PUNCTURED_PAIRS under the key None,
# at spacing 0.01 (the frame's half-width moved from 1 + h to 1.1, which
# changes the cell centres in their last digits; the antipodal pairs of
# r = 0.1 and 0.9 moved up once no path could run through another pair's
# endpoint)
RING_INNER_001 = {
    0.02: [1.2678314588296127, 0.9673878039366276, 1.9681546203262539],
    0.1: [2.147365345224361, 1.1865477777441202, 2.380680742268024],
    0.5: [7.125107330861956, 3.4199747642780696, 5.9651215016585715],
    0.9: [46.872385714665135, 22.380555830847864, 37.46699966986576],
    None: [1.0824888044559753, 1.0593755017331894, 1.3012987067918516],
}
_PUNCTURED_PAIRS = [(0.3, -0.3), (0.05 + 0.02j, -0.6j),
                    (cmath.rect(0.8, 1.0), cmath.rect(0.2, 2.5))]


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


def _ring_pairs(r):
    """An antipodal pair on the core circle and two pairs across the ring."""
    rho, mid = math.sqrt(r), (1 + r) / 2
    return [(rho, -rho), (cmath.rect(rho, 0.4), cmath.rect(mid, 1.9)),
            (cmath.rect(mid, -0.3), cmath.rect(0.5 * (1 + mid), -2.8))]


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


def _per_edge_band_weights(domain, frame):
    """``band_weights`` weighing edge by edge, the reference for the density
    table: each move's cell pairs, the interior sub-sample test near the
    complement, and |b - a| times the density at (a + b) / 2 for each edge."""
    height, width = frame.mask.shape
    centers = frame.centers.ravel()
    near = ndimage.distance_transform_edt(domain.contains(frame.centers)).ravel()
    moves = [(dx, dy) for dx, dy in kobayashi._coprime_moves(kobayashi._MOVE_RADIUS)
             if abs(dx) < width and dy < height]

    def band_weights(y0, y1, out):
        out.fill(np.nan)
        for m, (dx, dy) in enumerate(moves):
            rows = frame.mask[y0:y1 + dy]
            k = cell_pairs(rows, rows, dx, dy)[0]
            i = k + y0 * width
            j = i + dy * width + dx
            length = math.hypot(dx, dy)
            band = np.flatnonzero(np.minimum(near[i], near[j]) <= length / 2 + 2)
            steps = max(2, math.ceil(2 * length))
            t = np.append(np.arange(1, steps) / steps, 0.5)[:, None]
            a, b = centers[i[band]], centers[j[band]]
            keep = np.ones(k.size, dtype=bool)
            keep[band] = domain.contains(a + (b - a) * t).all(axis=0)
            a, b = centers[i[keep]], centers[j[keep]]
            out[m, k[keep]] = np.abs(b - a) * domain.density((a + b) / 2.0)

    return band_weights, len(moves)


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

    def test_annulus_antipodal(self):
        value = inner_distance(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH, 0.005)
        assert value == pytest.approx(ANNULUS_CORE_HALF, abs=2e-2)

    def test_diagonal_midpoint_in_the_hole(self):
        # at this spacing some diagonal edges have both thirds outside the
        # hole but the midpoint, where the weight is read, inside it
        value = inner_distance(Annulus(0.25), 0.5, -0.5, 0.02)
        exact = kob_distance(Annulus(0.25), 0.5, -0.5).upper
        assert value == pytest.approx(exact, abs=2e-2)

    @pytest.mark.parametrize("spacing, expected", [(0.01, C7_INNER_001),
                                                   (0.005, C7_INNER_0005)])
    def test_pinned_disk(self, spacing, expected):
        assert inner_distance_many(Disk(), _c7_pairs(), spacing).tolist() == expected

    @pytest.mark.parametrize("r", sorted(RING_INNER_001, key=str))
    def test_pinned_covered(self, r):
        domain, pairs = ((PuncturedDisk(), _PUNCTURED_PAIRS) if r is None
                         else (Annulus(r), _ring_pairs(r)))
        values = inner_distance_many(domain, pairs, 0.01)
        np.testing.assert_allclose(values, RING_INNER_001[r], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("domain, pairs, radii, spacing", [
        (Annulus(0.5), _ring_pairs(0.5), (0.55, 0.95), 0.02),
        (PuncturedDisk(), _PUNCTURED_PAIRS, (0.05, 0.9), 0.01),
    ])
    def test_values_do_not_depend_on_the_batch(self, domain, pairs, radii, spacing):
        # the frame does not depend on the pairs here, so a pair's value in
        # a batch is its value alone: no path runs through another pair's
        # endpoint
        rng = np.random.default_rng(12)
        pairs = pairs + [tuple(cmath.rect(rng.uniform(*radii), rng.uniform(0, math.tau))
                               for _ in range(2)) for _ in range(10)]
        alone = [inner_distance_many(domain, [pair], spacing)[0] for pair in pairs]
        assert inner_distance_many(domain, pairs, spacing).tolist() == alone

    @pytest.mark.parametrize("r", [0.02, 0.1, 0.5, 0.9])
    def test_segment_band_is_sound(self, r, monkeypatch):
        # an edge is sampled only near the complement; sampling every edge
        # (a zero distance transform puts all of them in the band) must
        # drop no further edge
        graphs = _record_graphs(monkeypatch)
        inner_distance_many(Annulus(r), _ring_pairs(r), 0.02)
        monkeypatch.setattr(kobayashi, "ndimage", SimpleNamespace(
            distance_transform_edt=lambda inside: np.zeros(inside.shape)))
        inner_distance_many(Annulus(r), _ring_pairs(r), 0.02)
        banded, full = graphs
        assert banded.shape == full.shape and (banded != full).nnz == 0

    @pytest.mark.parametrize("domain, pairs, spacing, entries", [
        (Annulus(0.1), _ring_pairs(0.1), 0.02, 861855),
        (Annulus(0.5), _ring_pairs(0.5), 0.02, 611319),
        (Disk(), [(0, 0.5)], 0.5, 1),
    ])
    def test_graph_stores_both_directions(self, domain, pairs, spacing, entries, monkeypatch):
        # entries: every lattice edge twice, then each pair's links from its
        # source p, one way; the target q is no node of the graph
        graphs = _record_graphs(monkeypatch)
        inner_distance_many(domain, pairs, spacing)
        graph, = graphs
        # the disk's frame is cropped to |z| <= 0.5 at this spacing
        frame = (grid_from_predicate(lambda z: np.abs(z) <= 0.5, 0.5 / FRAME_MARGIN, 0.5)
                 if isinstance(domain, Disk) else rasterize(domain, spacing))
        cells, reach = frame.mask.size, kobayashi._MOVE_RADIUS * spacing
        assert graph.shape == (cells + len(pairs),) * 2
        assert graph.nnz == entries
        assert graph.indices.dtype == np.int32
        lattice = graph[:cells]
        assert lattice.nnz == graph.indptr[cells] and (lattice[:, cells:]).nnz == 0
        assert (lattice[:, :cells] != lattice[:, :cells].T).nnz == 0
        # each source row holds p's links to the domain cells within a
        # move's reach, which lie well inside the domain here
        centers = frame.centers.ravel()
        for s, (p, _) in enumerate(pairs):
            row = graph[cells + s]
            near = np.flatnonzero(frame.mask.ravel() & (np.abs(centers - p) <= reach))
            assert np.array_equal(row.indices, near)
            a = centers[near]
            np.testing.assert_allclose(row.data, np.abs(a - p) * domain.density((a + p) / 2),
                                       rtol=1e-15, atol=0)

    @pytest.mark.parametrize("band_rows, block", [
        (3, 7), (kobayashi._MOVE_RADIUS + 1, 3), (kobayashi._MOVE_RADIUS + 1, 2048), (100, 7)])
    def test_banded_assembly_matches_an_edge_list(self, band_rows, block, monkeypatch):
        # a 29 x 5 frame with random edges and source rows, assembled in
        # bands (fewer rows than a move reaches back, exactly that many, and
        # the whole frame) and in blocks that split rows every way; the
        # longest move reaches _MOVE_RADIUS + 1 rows back
        rng = np.random.default_rng(band_rows * block)
        height, width = 29, 5
        cells, reach = height * width, kobayashi._MOVE_RADIUS
        offsets = np.array([1, width - 1, width, width + 1, 2 * width + 1,
                            reach * width - 1, reach * width + 2])
        weights = rng.random((offsets.size, cells))
        neighbour = np.arange(cells) + offsets[:, None]
        weights[neighbour >= cells] = np.nan
        # room for every edge before some are dropped, as cell_pairs counts them
        edges = np.count_nonzero(neighbour < cells)
        weights[rng.random(weights.shape) < 0.3] = np.nan
        # five sources, one of them with no link
        links = [np.array([0, 60, 144]), np.array([2]), np.array([], dtype=int),
                 np.array([60, 61, 62, 100]), np.array([144])]
        sources = [(k, rng.random(k.size)) for k in links]

        def band_weights(y0, y1, out):
            out[...] = weights[:, y0 * width:y1 * width]

        monkeypatch.setattr(kobayashi, "_BAND_ROWS", band_rows)
        monkeypatch.setattr(kobayashi, "_CSR_BLOCK", block)
        kobayashi._load_sparse()
        graph = kobayashi._lattice_graph(band_weights, offsets, (height, width), edges, sources)
        m, i = np.nonzero(~np.isnan(weights))
        a = np.concatenate([i, i + offsets[m]]
                           + [np.full(k.size, cells + s) for s, k in enumerate(links)])
        b = np.concatenate([i + offsets[m], i] + links)
        w = np.concatenate([weights[m, i], weights[m, i]] + [w for _, w in sources])
        expected = kobayashi.coo_matrix((w, (a, b)), shape=(150, 150)).tocsr()
        expected.sort_indices()
        assert graph.shape == (150, 150)
        assert graph.has_sorted_indices
        assert np.array_equal(graph.indptr, expected.indptr)
        assert np.array_equal(graph.indices, expected.indices)
        assert np.array_equal(graph.data, expected.data)

    @pytest.mark.parametrize("domain, pairs, spacing", [
        (Annulus(0.1), _ring_pairs(0.1), 0.01),
        (PuncturedDisk(), _PUNCTURED_PAIRS, 0.01),
        # edges near the hole, dropped by the sub-sample test
        (Annulus(0.5), _ring_pairs(0.5), 0.02),
        (Annulus(0.25), [(0.5, -0.5)], 0.02),
    ])
    def test_density_table_matches_per_edge_weights(self, domain, pairs, spacing,
                                                    monkeypatch):
        calls = []
        graphs = _record_graphs(monkeypatch, calls)
        inner_distance_many(domain, pairs, spacing)
        (graph,), ((_, offsets, *rest),) = graphs, calls
        band_weights, moves = _per_edge_band_weights(domain, rasterize(domain, spacing))
        assert moves == offsets.size
        _assert_same_graph(graph, kobayashi._lattice_graph(band_weights, offsets, *rest))

    def test_disk_crop_keeps_the_edges_inside_it(self, monkeypatch):
        # the disk's graph is the square frame's, per-edge weighed, less every
        # lattice edge with an end outside |z| <= half or outside every pair's
        # ellipse d(p, x) + d(x, q) <= kappa * limit; the source rows keep
        # their links, a link to a cell off the ellipses leading nowhere
        calls = []
        graphs = _record_graphs(monkeypatch, calls)
        pairs, h = _c7_pairs(), 0.01
        inner_distance_many(Disk(), pairs, h)
        (graph,), ((_, offsets, shape, _, sources, _),) = graphs, calls
        crop, half = _disk_crop(pairs, h)
        square = grid_from_predicate(Disk().contains, half / FRAME_MARGIN, h)
        assert square.mask.shape == shape
        band_weights, _ = _per_edge_band_weights(Disk(), square)
        full = kobayashi._lattice_graph(band_weights, offsets, shape,
                                        int(square.mask.sum()) * offsets.size, sources)
        ps, qs = np.array(pairs).T
        limits = (kobayashi._LIMIT_FACTOR * Disk().distance(ps, qs)
                  + kobayashi._LIMIT_CELLS * h)
        bounds = kobayashi._disk_kappa(h, half) * limits
        z = square.centers
        ellipses = np.zeros(shape, dtype=bool)
        for p, q, bound in zip(ps, qs, bounds):
            ellipses |= Disk().distance(p, z) + Disk().distance(z, q) <= bound
        kept = square.mask & (np.abs(z) <= half) & ellipses
        assert 0 < kept.sum() < crop.mask.sum()
        cells = kept.size
        lattice = (scipy.sparse.diags(kept.ravel().astype(float)) @ full[:cells]
                   @ scipy.sparse.diags(np.append(kept.ravel(), np.ones(len(sources)))))
        reference = scipy.sparse.vstack([lattice, full[cells:]]).tocsr()
        reference.eliminate_zeros()
        reference.sort_indices()
        assert reference.nnz < full.nnz
        _assert_same_graph(graph, reference)

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_disk_weights_bound_hyperbolic_lengths(self, h, monkeypatch):
        # every stored edge and link is at most kappa times its weight long
        # in the metric, and some is longer than its weight: the midpoint
        # density alone would not bound a path's length
        graphs = _record_graphs(monkeypatch)
        rng = np.random.default_rng(33)
        pairs = [tuple(cmath.rect(rng.uniform(0, 0.6), rng.uniform(0, math.tau))
                       for _ in range(2)) for _ in range(4)]
        inner_distance_many(Disk(), pairs, h)
        graph, = graphs
        crop, half = _disk_crop(pairs, h)
        kappa = kobayashi._disk_kappa(h, half)
        assert kappa < 1.5
        ends = np.append(crop.centers.ravel(), [p for p, _ in pairs])
        coo = graph.tocoo()
        ratio = Disk().distance(ends[coo.row], ends[coo.col]) / coo.data
        assert 1.0 < ratio.max() <= kappa

    @pytest.mark.parametrize("h, pairs, restricted", [
        (0.01, [(0.1, 0.1 + 0.03j), (0.4, 0.4), (0.6j, -0.55 - 0.2j), (0.3 - 0.5j, 0.05)], True),
        (0.02, [(0.6, -0.59j), (0.1, 0.1 - 0.1j), (-0.2j, -0.2j), (0.55j, -0.5)], True),
        # endpoints a cell inside the crop |z| <= 1 - h, which cuts their
        # links; kappa is so large there that every crop cell is kept
        (0.02, [(0.97, -0.96j), (0.965j, 0.9 + 0.2j), (-0.5, -0.5), (-0.3, 0.2 + 0.1j)], False),
    ])
    def test_ellipses_keep_the_round_crop_values(self, h, pairs, restricted, monkeypatch):
        # a direct-link pair, p == q, far pairs and pairs near the crop's
        # rim get the same value as on the whole round crop's graph
        rng = np.random.default_rng(len(pairs) + int(1 / h))
        pairs = pairs + [tuple(cmath.rect(0.6 * rng.uniform() ** 0.5, rng.uniform(0, math.tau))
                               for _ in range(2)) for _ in range(6)]
        calls = []
        _record_graphs(monkeypatch, calls)
        values = inner_distance_many(Disk(), pairs, h)
        crop, _ = _disk_crop(pairs, h)
        (*_, kept), = calls
        assert (kept.sum() < crop.mask.sum()) == restricted
        monkeypatch.setattr(kobayashi, "_disk_ellipses", lambda frame, *args: frame.mask)
        assert values.tolist() == inner_distance_many(Disk(), pairs, h).tolist()

    def test_peak_memory_is_the_graph(self, monkeypatch):
        # edge weights are held a band of rows at a time, so the call's
        # traced peak stays near the graph it returns; a moves x cells float
        # array would add over a third of it here
        graphs = _record_graphs(monkeypatch)
        kobayashi._load_sparse()
        tracemalloc.start()
        try:
            inner_distance_many(Disk(), _c7_pairs(), 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        graph, = graphs
        assert peak < 1.2 * (graph.data.nbytes + graph.indices.nbytes + graph.indptr.nbytes)

    def test_limit_miss_falls_back_to_the_full_search(self, monkeypatch):
        # no margin: every limited search stops short of its target
        kobayashi._load_sparse()
        limits = []
        search = kobayashi._csgraph_dijkstra
        monkeypatch.setattr(kobayashi, "_csgraph_dijkstra", lambda *args, **kwargs: (
            limits.append(kwargs.get("limit", math.inf)) or search(*args, **kwargs)))
        monkeypatch.setattr(kobayashi, "_LIMIT_FACTOR", 0.0)
        monkeypatch.setattr(kobayashi, "_LIMIT_CELLS", 0)
        assert inner_distance_many(Disk(), _c7_pairs(), 0.01).tolist() == C7_INNER_001
        assert limits == [0.0, math.inf] * 20

    @pytest.mark.parametrize("domain", [Disk(), Annulus(0.3), PuncturedDisk()])
    def test_no_pairs(self, domain):
        assert inner_distance_many(domain, [], 0.01).shape == (0,)

    def test_coarse_frame_uses_the_direct_link(self):
        # one domain cell at spacing 0.5: the pair is joined directly
        value = inner_distance(Disk(), 0, 0.5, 0.5)
        assert value == pytest.approx(0.5 * float(Disk().density(0.25)), rel=1e-15)


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
    # an endpoint in the disk but past the cropped frame
    (lambda: inner_distance(Disk(), 0, 0.999, 0.01), Disconnected),
    # the raster misses the hole, and an edge midpoint falls into it
    (lambda: inner_distance(Annulus(0.1), 0.5, -0.5, 0.3), ValidationError),
    # an edge midpoint exactly at 0, where the annulus density has no value
    (lambda: inner_distance(Annulus(0.1), 0.5, -0.5, 0.2), ValidationError),
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


@pytest.mark.parametrize("bad", ["0.01", None], ids=["text", "None"])
@pytest.mark.parametrize("call, name", [
    (lambda v: inner_distance(Disk(), 0, 0.5, v), "spacing"),
    (lambda v: inner_distance(Annulus(0.1), 0.5, -0.5, v), "spacing"),
    (lambda v: kob_ball_raster(Disk(), 0, 0.5, v), "spacing"),
    (lambda v: kob_ball_raster(Disk(), 0, v, 0.05), "ball radius"),
    (lambda v: kob_distance(Disk(), 0, 0.5, tol=v), "tol"),
    (Annulus, "annulus inner radius"),
    (lambda v: car_ball_components(Disk(), 0, v, spacing=0.05), "ball radius"),
    (lambda v: nerve_cover(Disk(), kob_ball_raster(Disk(), 0, 0.5, 0.05), v), "cover radius"),
    (canonical_annulus_radius, "modulus"),
], ids=["disk_inner_distance", "annulus_inner_distance", "ball_spacing", "ball_radius",
        "kob_distance_tol", "annulus_radius", "car_ball_radius", "nerve_cover_radius",
        "canonical_annulus_modulus"])
def test_non_numbers_raise_validation_errors(call, name, bad):
    # a number given as text or left out is named, not a bare TypeError
    with pytest.raises(ValidationError, match=name):
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
