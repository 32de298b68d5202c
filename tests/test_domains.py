import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annulus_points
from invmetrics.domains import (
    Annulus,
    Disk,
    GridDomain,
    HalfPlane,
    PuncturedDisk,
    contains,
    covering_atlas,
    density,
    grid_annulus,
    grid_load,
    grid_save,
    rasterize,
)
from invmetrics.errors import Unsupported, ValidationError, ParseError
from invmetrics.kobayashi import lift_infimum
from invmetrics.topology import connectivity_number

TAU = 2 * math.pi


class TestContains:
    @pytest.mark.parametrize("domain,z,expected", [
        (Disk(), 0, True),
        (Disk(), 1.0, False),
        (HalfPlane(), -1 + 5j, True),
        (HalfPlane(), 0.5, False),
        (PuncturedDisk(), 0, False),
        (PuncturedDisk(), 0.5j, True),
        (Annulus(0.1), 0.05, False),
        (Annulus(0.1), 0.5, True),
        (Annulus(0.1), 1.2, False),
    ])
    def test_catalog(self, domain, z, expected):
        assert contains(domain, z) is expected


class TestDensity:
    def test_disk_at_center(self):
        assert density(Disk(), 0) == 1.0

    def test_punctured_at_inverse_e(self):
        assert density(PuncturedDisk(), math.exp(-1)) == pytest.approx(
            1.3591409142295225, abs=1e-12)  # e/2

    def test_annulus_at_core(self):
        assert density(Annulus(0.1), math.sqrt(0.1)) == pytest.approx(
            2.157268431908021, abs=1e-12)

    def test_halfplane(self):
        assert density(HalfPlane(), -2 + 7j) == pytest.approx(0.25)

    def test_grid_unsupported(self, square_with_hole_grid):
        with pytest.raises(Unsupported):
            density(square_with_hole_grid, 0.7)

    @given(annulus_points(0.1, margin=0.05))
    @settings(max_examples=60)
    def test_density_comparison_under_inclusion(self, z):
        # smaller domain, larger density
        assert density(Annulus(0.1), z) >= density(PuncturedDisk(), z) - 1e-12
        assert density(PuncturedDisk(), z) >= density(Disk(), z) - 1e-12

    @given(st.floats(0.3, 0.9), st.floats(0, TAU))
    @settings(max_examples=40)
    def test_punctured_is_annulus_limit(self, m, theta):
        # ratio of the two densities is (pi x) / sin(pi x), x = log|z| / log r,
        # so the relative gap decays like (pi x)^2 / 6 as r -> 0
        z = m * complex(math.cos(theta), math.sin(theta))
        target = density(PuncturedDisk(), z)
        for r in (1e-6, 1e-12):
            x = math.log(abs(z)) / math.log(r)
            rate = (math.pi * x) ** 2 / 6.0
            gap = abs(density(Annulus(r), z) - target) / target
            assert gap <= 1.05 * rate + 1e-12
        gap6 = abs(density(Annulus(1e-6), z) - target) / target
        if abs(z) >= 0.72:
            assert gap6 <= 1e-3


class TestCoveringAtlas:
    def test_punctured_cover_value(self):
        atlas = covering_atlas(PuncturedDisk())
        assert complex(atlas.cover(-1 + 0j)) == pytest.approx(math.exp(-1))

    def test_punctured_deck_invariance(self):
        atlas = covering_atlas(PuncturedDisk())
        for k in range(-3, 4):
            image = complex(atlas.cover(-1 + 0j + atlas.deck_step * k))
            assert image == pytest.approx(math.exp(-1), abs=1e-10)

    def test_annulus_midline_covers_core_circle(self):
        atlas = covering_atlas(Annulus(0.1))
        image = complex(atlas.cover(math.log(0.1) / 2 + 0j))
        assert image == pytest.approx(math.sqrt(0.1), abs=1e-12)

    def test_trivial_atlases_have_no_deck(self):
        assert not covering_atlas(Disk()).has_deck
        assert not covering_atlas(HalfPlane()).has_deck

    @pytest.mark.parametrize("domain", [PuncturedDisk(), Annulus(0.1)])
    def test_local_isometry_by_finite_differences(self, domain):
        atlas = covering_atlas(domain)
        rng = np.random.default_rng(5)
        log_r = math.log(domain.r) if isinstance(domain, Annulus) else -4.0
        for _ in range(25):
            w = complex(rng.uniform(log_r * 0.95, -0.05), rng.uniform(-3, 3))
            h = 1e-6
            deriv = (complex(atlas.cover(w + h)) - complex(atlas.cover(w - h))) / (2 * h)
            lhs = density(domain, complex(atlas.cover(w))) * abs(deriv)
            rhs = float(atlas.model_density(w))
            assert abs(lhs - rhs) / rhs <= 1e-6

    def test_grid_unsupported(self, square_with_hole_grid):
        with pytest.raises(Unsupported):
            covering_atlas(square_with_hole_grid)

    @given(st.floats(0.02, 0.95), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0, TAU), st.floats(0, TAU), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_nearest_translate_matches_enumeration(self, r, sp, sq, tp, tq, punctured):
        # the closed form at the nearest deck translate must equal the least
        # half-plane distance over the translates |k| <= 50, found by brute
        # force in complex arithmetic; the points sit at fractions sp, sq of
        # the band width (of log 1/r = 5 on the punctured disk)
        domain = PuncturedDisk() if punctured else Annulus(r)
        log_r = -5.0 if punctured else math.log(r)
        zp = cmath.rect(math.exp(log_r * (1 - sp)), tp)
        zq = cmath.rect(math.exp(log_r * (1 - sq)), tq)
        wp = cmath.log(zp) - 1j * cmath.log(zp).imag   # common rotation: Im wp = 0
        wq = cmath.log(zq) - 1j * cmath.log(zp).imag + 2j * math.pi * np.arange(-50, 51)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if punctured:
                u, v = -1j * wp, -1j * wq       # left half-plane onto the upper one
            else:
                scale = 1j * math.pi / -log_r   # band onto the upper half-plane
                u, v = np.exp(scale * (wp - log_r)), np.exp(scale * (wq - log_r))
            translates = np.arcsinh(np.abs(u - v) / (2 * np.sqrt(u.imag * v.imag)))
        brute = float(np.nanmin(translates))
        value = lift_infimum(covering_atlas(domain), zp, zq)
        assert value == pytest.approx(brute, rel=1e-10, abs=1e-12)


class TestGridDomain:
    def test_round_trip_bytes_exact(self, square_with_hole_grid):
        blob = grid_save(square_with_hole_grid)
        again = grid_load(blob)
        assert np.array_equal(again.mask, square_with_hole_grid.mask)
        assert grid_save(again) == blob

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[1, 1] = mask[3, 3] = True
        with pytest.raises(ValidationError):
            GridDomain(origin=0j, spacing=0.1, mask=mask)

    def test_zero_spacing_rejected(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        with pytest.raises(ValidationError):
            GridDomain(origin=0j, spacing=0.0, mask=mask)

    def test_border_ring_must_be_off(self):
        mask = np.ones((5, 5), dtype=bool)
        with pytest.raises(ValidationError):
            GridDomain(origin=0j, spacing=0.1, mask=mask)

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError):
            grid_load(b"{not json")

    def test_load_rejects_zero_spacing(self, square_with_hole_grid):
        blob = grid_save(square_with_hole_grid).decode()
        spacing = square_with_hole_grid.spacing
        with pytest.raises(ValidationError):
            grid_load(blob.replace(f'"spacing": {spacing!r}', '"spacing": 0.0'))

    def test_bad_row_content(self):
        blob = grid_save(grid_annulus(0.5, 0.1)).decode()
        with pytest.raises(ParseError):
            grid_load(blob.replace("1", "x", 1))


class TestGridAnnulus:
    def test_complement_components(self):
        grid = grid_annulus(0.25, 0.02)
        assert grid.complement_labels[1] == 2
        assert connectivity_number(grid.mask) == 1

    def test_origin_cell_false(self):
        grid = grid_annulus(0.25, 0.02)
        assert not grid.contains_point(0)

    def test_core_cell_true(self):
        grid = grid_annulus(0.25, 0.02)
        assert grid.contains_point(0.6)

    def test_spacing_guard(self):
        with pytest.raises(ValidationError):
            grid_annulus(0.25, 0.3)

    def test_rasterize_matches_membership(self):
        grid = rasterize(Annulus(0.25), 0.05)
        cells = grid.centers
        expected = (np.abs(cells) > 0.25) & (np.abs(cells) < 1.0)
        expected[0, :] = expected[-1, :] = False
        expected[:, 0] = expected[:, -1] = False
        assert np.array_equal(grid.mask, expected)
