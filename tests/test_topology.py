import hashlib
import json
import math

import numpy as np
import pytest

from invmetrics.domains import Annulus, Disk, PuncturedDisk, grid_annulus
from invmetrics.errors import (
    CoverScaleTooLarge,
    EmptyRegion,
    LabelNotBounded,
    OnBoundary,
    ValidationError,
)
from invmetrics.kobayashi import kob_ball_raster
from invmetrics.topology import (
    SimplePolygon,
    connectivity_number,
    flood_components,
    injectivity_lower_bound,
    nerve_cover,
    separating_cycle,
    winding_number,
)

SQRT_TENTH = math.sqrt(0.1)
ANNULUS_CORE_HALF = 2.1431573649805785


def framed(mask_rows):
    inner = np.array(mask_rows, dtype=bool)
    out = np.zeros((inner.shape[0] + 2, inner.shape[1] + 2), dtype=bool)
    out[1:-1, 1:-1] = inner
    return out


class TestFlood:
    def test_full_block(self):
        assert flood_components(framed(np.ones((4, 4)))).component_count == 1

    def test_diagonal_cells_split_under_4(self):
        mask = framed([[1, 0], [0, 1]])
        assert flood_components(mask, 4).component_count == 2
        assert flood_components(mask, 8).component_count == 1

    def test_square_with_hole(self, square_with_hole_grid):
        assert flood_components(square_with_hole_grid.mask).component_count == 1

    def test_labels_dense(self):
        mask = framed([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
        labeled = flood_components(mask, 4)
        assert labeled.component_count == 4
        assert set(np.unique(labeled.labels)) == {0, 1, 2, 3, 4}


class TestConnectivity:
    def test_disk_raster(self):
        ball = kob_ball_raster(Disk(), 0, 1.0, 0.05)
        assert connectivity_number(ball.mask) == 0

    def test_annulus_raster(self):
        assert connectivity_number(grid_annulus(0.25, 0.05).mask) == 1

    def test_pair_of_pants(self, pants_grid):
        assert connectivity_number(pants_grid.mask) == 2

    def test_empty_region(self):
        with pytest.raises(EmptyRegion):
            connectivity_number(np.zeros((5, 5), dtype=bool))

    def test_resolution_stable(self):
        for spacing in (0.04, 0.02):
            assert connectivity_number(grid_annulus(0.25, spacing).mask) == 1

    def test_ball_connectivity_bounded_by_domain(self):
        # balls never pick up more holes than the domain itself has
        for domain, limit in ((PuncturedDisk(), 1), (Annulus(0.1), 1)):
            for radius in (0.4, 1.3, 2.6):
                ball = kob_ball_raster(domain, 0.4, radius, 0.02)
                assert 0 <= connectivity_number(ball.mask) <= limit

    @pytest.mark.parametrize("r", [0.1, 0.3])
    def test_wrap_threshold_at_half_core_length(self, r):
        # a core-centered ball wraps the hole exactly when its radius
        # crosses the antipodal core distance
        half_core = math.pi**2 / (2 * math.log(1 / r))
        center = math.sqrt(r)
        below = kob_ball_raster(Annulus(r), center, 0.93 * half_core, 0.02)
        above = kob_ball_raster(Annulus(r), center, 1.07 * half_core, 0.02)
        assert connectivity_number(below.mask) == 0
        assert connectivity_number(above.mask) == 1


class TestWinding:
    def test_ccw_square_center(self):
        poly = SimplePolygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
        assert winding_number(poly, 0) == 1

    def test_ccw_square_outside(self):
        poly = SimplePolygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
        assert winding_number(poly, 5 + 0j) == 0

    def test_cw_square_center(self):
        poly = SimplePolygon(((-1, -1), (-1, 1), (1, 1), (1, -1)))
        assert winding_number(poly, 0) == -1

    def test_on_boundary_raises(self):
        poly = SimplePolygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
        with pytest.raises(OnBoundary):
            poly.winding_point2(1, 0)

    def test_simplicity_enforced(self):
        with pytest.raises(ValidationError):
            SimplePolygon(((-1, -1), (1, -1), (-1, -1), (1, 1)))


class TestSeparatingCycle:
    def test_annulus_hole_vs_unbounded(self):
        grid = grid_annulus(0.25, 0.02)
        labels, count, unbounded = grid.complement_labels
        hole = 1 if unbounded == 2 else 2
        poly = separating_cycle(grid, hole, unbounded)
        ys, xs = np.nonzero(labels == hole)
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {1}
        ys, xs = np.nonzero(labels == unbounded)
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {0}

    def test_pants_separates_the_holes(self, pants_grid):
        labels, count, unbounded = pants_grid.complement_labels
        holes = [lab for lab in range(1, count + 1) if lab != unbounded]
        poly = separating_cycle(pants_grid, holes[0], holes[1])
        ys, xs = np.nonzero(labels == holes[0])
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {1}
        ys, xs = np.nonzero(labels == holes[1])
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {0}

    def test_same_labels_rejected(self, pants_grid):
        with pytest.raises(ValidationError):
            separating_cycle(pants_grid, 1, 1)

    def test_unbounded_first_label_rejected(self, pants_grid):
        labels, count, unbounded = pants_grid.complement_labels
        bounded = next(lab for lab in range(1, count + 1) if lab != unbounded)
        with pytest.raises(LabelNotBounded):
            separating_cycle(pants_grid, unbounded, bounded)

    def test_polygon_vertices_inside_domain(self):
        grid = grid_annulus(0.25, 0.02)
        labels, count, unbounded = grid.complement_labels
        hole = 1 if unbounded == 2 else 2
        poly = separating_cycle(grid, hole, unbounded)
        for v in poly.vertices:
            assert 0.25 < abs(v) < 1.0


class TestInjectivity:
    def test_disk_sentinel(self):
        ball = kob_ball_raster(Disk(), 0, 1.0, 0.05)
        assert injectivity_lower_bound(Disk(), ball) == math.inf

    def test_punctured_positive(self):
        ball = kob_ball_raster(PuncturedDisk(), math.exp(-1), 1.0, 0.02)
        bound = injectivity_lower_bound(PuncturedDisk(), ball)
        assert bound > 0
        # oracle: half the minimal half-plane distance between the lifts
        # and their own translates by 2 pi i, which closes to
        # atanh(pi / sqrt(a^2 + pi^2)) at real part a
        cells = ball.centers[ball.mask]
        a = np.log(np.abs(cells))
        deck = float(np.arctanh(math.pi / np.sqrt(a * a + math.pi**2)).min())
        assert bound == pytest.approx(deck / 2, abs=1e-6)

    def test_annulus_wrap_below_half_core(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 2.5, 0.02)
        bound = injectivity_lower_bound(Annulus(0.1), ball)
        assert 0 < bound < ANNULUS_CORE_HALF
        # half the shortest loop through the core circle
        assert bound == pytest.approx(ANNULUS_CORE_HALF, rel=1e-6)


class TestNerve:
    def test_disk_ball_rank_zero(self):
        ball = kob_ball_raster(Disk(), 0.2, 1.0, 0.02)
        nerve = nerve_cover(Disk(), ball, 5.0)
        assert nerve.cycle_rank == 0
        assert nerve.component_count == 1

    def test_small_annulus_ball_rank_zero(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.02)
        nerve = nerve_cover(Annulus(0.1), ball, 0.7)
        assert nerve.cycle_rank == 0

    def test_wrapping_ball_rank_one(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 2.5, 0.01)
        nerve = nerve_cover(Annulus(0.1), ball, 0.7)
        assert nerve.cycle_rank == 1
        assert nerve.graph_cycle_rank >= nerve.cycle_rank

    def test_rank_matches_connectivity(self):
        for radius, expected in ((0.5, 0), (2.5, 1)):
            ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, radius, 0.01)
            nerve = nerve_cover(Annulus(0.1), ball, 0.7)
            assert nerve.cycle_rank == connectivity_number(ball.mask) == expected

    def test_pinned_annulus_nerve(self):
        # sha256 of json.dumps([edges, triangles]) as computed by the former
        # deck-enumeration kernel, which agrees with the closed form here
        ball = kob_ball_raster(Annulus(0.1), 1j * SQRT_TENTH, 1.5, 0.02)
        nerve = nerve_cover(Annulus(0.1), ball, 0.5)
        assert (ball.cell_count(), nerve.vertex_count) == (3411, 42)
        assert (len(nerve.edges), len(nerve.triangles), nerve.cycle_rank) == (89, 51, 0)
        digest = hashlib.sha256(json.dumps([nerve.edges, nerve.triangles]).encode())
        assert digest.hexdigest() == (
            "81e28591e870afbf6969de72a4879bc827a0b4f66ab99c7f7411e95b318db369")

    def test_cover_scale_guard(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.02)
        with pytest.raises(CoverScaleTooLarge):
            nerve_cover(Annulus(0.1), ball, 2.0)

    def test_export_text(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.04)
        nerve = nerve_cover(Annulus(0.1), ball, 0.7)
        text = nerve.to_text()
        assert "cycle_rank: 0" in text
