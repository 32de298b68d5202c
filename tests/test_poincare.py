import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disk_points
from invmetrics.domains import Disk
from invmetrics.errors import OutOfDomain, ValidationError
from invmetrics.mobius import disk_automorphism
from invmetrics.poincare import poincare_ball_euclidean, poincare_distance

HALF_LOG3 = 0.5493061443340548  # atanh(1/2)
LOG3 = 1.0986122886681098       # atanh(4/5)


class TestDistance:
    def test_zero_at_equal_points(self):
        assert poincare_distance(0, 0) == 0.0

    def test_radial_value(self):
        assert poincare_distance(0, 0.5) == pytest.approx(HALF_LOG3, abs=1e-15)

    def test_diameter_value(self):
        assert poincare_distance(0.5, -0.5) == pytest.approx(LOG3, abs=1e-15)

    @pytest.mark.parametrize("z,w", [(1.0, 0.0), (0.0, 1.0 + 0j), (2j, 0.1)])
    def test_out_of_domain(self, z, w):
        with pytest.raises(OutOfDomain):
            poincare_distance(z, w)

    @given(disk_points(), disk_points())
    @settings(max_examples=100)
    def test_symmetry_exact(self, z, w):
        assert poincare_distance(z, w) == poincare_distance(w, z)

    @given(disk_points(), disk_points(), disk_points())
    @settings(max_examples=100)
    def test_triangle_inequality(self, z, w, v):
        assert poincare_distance(z, w) <= (
            poincare_distance(z, v) + poincare_distance(v, w) + 1e-9)

    @given(disk_points(0.85), disk_points(0.85), disk_points(0.85),
           st.floats(0, 2 * math.pi))
    @settings(max_examples=150)
    def test_isometry_invariance(self, a, z, w, theta):
        phi = disk_automorphism(a, theta)
        d0 = poincare_distance(z, w)
        d1 = poincare_distance(complex(phi(z)), complex(phi(w)))
        assert d1 == pytest.approx(d0, abs=1e-9)

    def test_zero_iff_equal(self):
        assert poincare_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
        assert poincare_distance(0.3, 0.3001) > 0.0


def disk_geodesic(z, w, t):
    """The point at parameter t of ``Disk.geodesic`` from z to w."""
    return complex(Disk().geodesic(complex(z), complex(w), t))


class TestGeodesic:
    def test_endpoints(self):
        z, w = 0.1 + 0.2j, -0.4 + 0.3j
        assert disk_geodesic(z, w, 0.0) == pytest.approx(z, abs=1e-15)
        assert disk_geodesic(z, w, 1.0) == pytest.approx(w, abs=1e-12)

    def test_radial_midpoint(self):
        mid = disk_geodesic(0, 0.5, 0.5)
        assert mid.real == pytest.approx(0.2679491924311227, abs=1e-12)
        assert mid.imag == pytest.approx(0.0, abs=1e-15)

    def test_diameter_midpoint_is_origin(self):
        assert abs(disk_geodesic(-0.5, 0.5, 0.5)) < 1e-15

    @given(disk_points(0.85), disk_points(0.85), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_constant_speed(self, z, w, t):
        if z == w:
            return
        total = poincare_distance(z, w)
        point = disk_geodesic(z, w, t)
        assert poincare_distance(z, point) == pytest.approx(t * total, abs=1e-9)

    @given(disk_points(0.85), disk_points(0.85), st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_image_on_arc_orthogonal_to_unit_circle(self, z, w, t):
        # the trace is the diameter or the circle through z and w whose
        # center c satisfies 2 Re(y conj(c)) = |y|^2 + 1 on every point y
        cross = (z * w.conjugate()).imag
        if abs(cross) < 1e-6:
            return  # collinear with the origin: diameter case
        y = disk_geodesic(z, w, t)
        # solve the two linear equations for c = (cx, cy)
        import numpy as np

        lhs = np.array([[2 * z.real, 2 * z.imag], [2 * w.real, 2 * w.imag]])
        rhs = np.array([abs(z) ** 2 + 1, abs(w) ** 2 + 1])
        cx, cy = np.linalg.solve(lhs, rhs)
        residual = 2 * (y.real * cx + y.imag * cy) - (abs(y) ** 2 + 1)
        assert abs(residual) <= 1e-8 * (1 + cx * cx + cy * cy)


class TestBallEuclidean:
    def test_centered_radius_is_tanh(self):
        center, radius = poincare_ball_euclidean(0, HALF_LOG3)
        assert center == 0
        assert radius == pytest.approx(0.5, abs=1e-15)

    def test_small_radius_shrinks_to_center(self):
        center, radius = poincare_ball_euclidean(0, 1e-9)
        assert radius == pytest.approx(1e-9, rel=1e-6)
        assert center == 0

    def test_offcenter_ball_is_metric_sphere(self):
        c, r = 0.5, 0.1
        ecenter, eradius = poincare_ball_euclidean(c, r)
        assert abs(ecenter) + eradius < 1.0
        assert abs(ecenter - c) < eradius  # the hyperbolic center is inside
        for k in range(8):
            boundary = ecenter + eradius * complex(math.cos(k * math.pi / 4),
                                                   math.sin(k * math.pi / 4))
            assert poincare_distance(c, boundary) == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("radius", ["a", float("nan")], ids=["string", "nan"])
    def test_bad_radius_is_named(self, radius):
        with pytest.raises(ValidationError, match=f"^ball radius must be a real number: "
                                                  f"{radius!r}$"):
            poincare_ball_euclidean(0, radius)

    @given(disk_points(0.8), st.floats(0.01, 2.0))
    @settings(max_examples=100)
    def test_boundary_points_at_distance(self, c, r):
        ecenter, eradius = poincare_ball_euclidean(c, r)
        boundary = ecenter + eradius
        assert abs(boundary) < 1.0
        assert poincare_distance(c, boundary) == pytest.approx(r, abs=1e-9)
