import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annulus_points, disk_points
from invmetrics.domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    covering_atlas,
    density_vec,
    grid_annulus,
    halfplane_distance,
)
from invmetrics.errors import (
    DegenerateEndpoints,
    LiftFailure,
    OutOfDomain,
)
from invmetrics.kobayashi import (
    PolyPath,
    ball_load,
    ball_save,
    curve_length,
    geodesic,
    inner_distance,
    kob_ball_raster,
    kob_distance,
    lift_infimum,
)
from invmetrics.poincare import poincare_ball_euclidean, poincare_distance

HALF_LOG2 = 0.34657359027997264
HALF_LOG3 = 0.5493061443340548
ANNULUS_CORE_HALF = 2.1431573649805785  # pi^2 / (2 log 10)
SQRT_TENTH = math.sqrt(0.1)


class TestLiftInfimum:
    def test_punctured_pair_matches_halfplane_form(self):
        atlas = covering_atlas(PuncturedDisk())
        value = lift_infimum(atlas, math.exp(-1), math.exp(-2), tol=1e-10)
        assert value == pytest.approx(HALF_LOG2, abs=1e-10)
        assert value == pytest.approx(halfplane_distance(-1, -2), abs=1e-12)

    def test_equal_points(self):
        atlas = covering_atlas(Annulus(0.1))
        assert lift_infimum(atlas, 0.5, 0.5) == 0.0

    def test_annulus_antipodal_core(self):
        atlas = covering_atlas(Annulus(0.1))
        value = lift_infimum(atlas, SQRT_TENTH, -SQRT_TENTH)
        assert value == pytest.approx(ANNULUS_CORE_HALF, abs=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 0.6])
    def test_antipodal_core_closed_form(self, r):
        # the mid-circle is a projected model geodesic, so the antipodal
        # distance closes to pi^2 / (2 log(1/r)) for every inner radius
        atlas = covering_atlas(Annulus(r))
        s = math.sqrt(r)
        value = lift_infimum(atlas, s, -s)
        assert value == pytest.approx(math.pi**2 / (2 * math.log(1 / r)),
                                      abs=1e-12)

    def test_lift_failure_outside(self):
        atlas = covering_atlas(Annulus(0.1))
        with pytest.raises(LiftFailure):
            lift_infimum(atlas, 0.05, 0.5)


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


@pytest.fixture(scope="module")
def coarse_annulus():
    return grid_annulus(0.25, 0.02)


class TestGridInterval:
    def test_contains_analytic_value(self, coarse_annulus):
        atlas = covering_atlas(Annulus(0.25))
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            q = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if not (0.3 < abs(p) < 0.95 and 0.3 < abs(q) < 0.95):
                continue
            analytic = lift_infimum(atlas, p, q)
            interval = kob_distance(coarse_annulus, p, q)
            assert interval.lower <= analytic <= interval.upper
            assert interval.certified

    def test_same_cell_pair(self, coarse_annulus):
        interval = kob_distance(coarse_annulus, 0.6, 0.601)
        assert interval.upper > 0
        assert interval.lower <= interval.upper


class TestCurveLength:
    def test_degenerate_path(self):
        assert curve_length(Disk(), PolyPath((0.1, 0.1))) == 0.0

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
            quad += float(abs(b - a) / 400 * density_vec(Annulus(0.1), pts).sum())
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

    def test_export_round_trip(self):
        ball = kob_ball_raster(Disk(), 0.2, 0.5, 0.05)
        again = ball_load(ball_save(ball))
        assert again.metric == "kobayashi"
        assert again.radius == ball.radius
        assert np.array_equal(again.mask, ball.mask)


class TestInnerDistance:
    def test_equal_points(self):
        assert inner_distance(Disk(), 0.3, 0.3, 0.01) == 0.0

    def test_disk_example(self):
        value = inner_distance(Disk(), 0, 0.5, 0.01)
        assert value == pytest.approx(HALF_LOG3, abs=5e-3)

    def test_annulus_antipodal(self):
        value = inner_distance(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH, 0.005,
                               move_radius=6)
        assert value == pytest.approx(ANNULUS_CORE_HALF, abs=2e-2)


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
