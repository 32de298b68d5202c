import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invmetrics.domains import Annulus, Disk, PuncturedDisk, grid_annulus, grid_from_predicate
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
    _compress_collinear,
    _trace_outer_contour,
    border_labels,
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

    def test_border_labels(self):
        labels = np.array([[0, 1, 0, 0],
                           [0, 2, 3, 0],
                           [4, 0, 5, 0],
                           [0, 0, 6, 0]])
        assert border_labels(labels) == {1, 4, 6}

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


def _reference_contour(blob):
    """Reference tracer: a cell-by-cell table of boundary edges, then the walk."""
    ys, xs = np.nonzero(blob)
    if len(xs) == 0:
        return None
    h, w = blob.shape

    def cell(ix, iy):
        return 0 <= ix < w and 0 <= iy < h and blob[iy, ix]

    edges = {}
    for ix, iy in zip(xs.tolist(), ys.tolist()):
        bl, br = (2 * ix - 1, 2 * iy - 1), (2 * ix + 1, 2 * iy - 1)
        tr, tl = (2 * ix + 1, 2 * iy + 1), (2 * ix - 1, 2 * iy + 1)
        for side, a, b in (((ix, iy - 1), bl, br), ((ix + 1, iy), br, tr),
                           ((ix, iy + 1), tr, tl), ((ix - 1, iy), tl, bl)):
            if not cell(*side):
                edges.setdefault(a, []).append(b)
    iy0 = int(ys.min())
    start = (2 * int(xs[ys == iy0].min()) - 1, 2 * iy0 - 1)
    path, seen, current, prev = [start], {start}, start, None

    def turn_rank(cand):
        dx, dy = cand[0] - current[0], cand[1] - current[1]
        crossz = prev[0] * dy - prev[1] * dx
        if crossz < 0:
            return 0
        return 1 if crossz == 0 and prev[0] * dx + prev[1] * dy > 0 else 2

    while True:
        outs = edges.get(current, [])
        if not outs:
            return None
        nxt = outs[0] if len(outs) == 1 or prev is None else min(outs, key=turn_rank)
        outs.remove(nxt)
        prev = (nxt[0] - current[0], nxt[1] - current[1])
        if nxt == start:
            return path
        if nxt in seen:
            return None
        seen.add(nxt)
        path.append(nxt)
        current = nxt


@st.composite
def blobs(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=bool).reshape(h, w)


class TestWindingField:
    @given(blobs())
    @settings(max_examples=300, deadline=None)
    def test_contour_matches_cellwise_reference(self, blob):
        assert _trace_outer_contour(blob) == _reference_contour(blob)

    @given(blobs(), st.booleans(), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-2, 3), st.integers(-2, 3))
    @settings(max_examples=300, deadline=None)
    def test_field_matches_point_oracle(self, blob, reverse, sx, sy, dh, dw):
        # blobs may fill the frame, so contours run along the border ring;
        # shifting and resizing the frame puts polygon edges outside it on
        # every side
        contour = _trace_outer_contour(blob)
        assume(contour is not None)
        vertices = _compress_collinear(contour)
        assume(len(vertices) >= 4)
        if reverse:
            vertices = vertices[::-1]
        poly = SimplePolygon(tuple((x + 2 * sx, y + 2 * sy) for x, y in vertices))
        h, w = max(blob.shape[0] + dh, 1), max(blob.shape[1] + dw, 1)
        field = poly.winding_field((h, w))
        assert field.shape == (h, w)
        oracle = [[poly.winding_point2(2 * ix, 2 * iy) for ix in range(w)]
                  for iy in range(h)]
        assert field.tolist() == oracle
        assert set(np.unique(field).tolist()) <= {0, -1 if reverse else 1}

    @pytest.mark.parametrize("vertices2", [
        ((-1, -1), (3, -1), (3, 3), (1, 5)),   # diagonal edge
        ((0, 0), (2, 0), (2, 2), (0, 2)),      # corners on cell centers
    ])
    def test_off_lattice_polygons_rejected(self, vertices2):
        with pytest.raises(ValidationError, match="axis-parallel"):
            SimplePolygon(vertices2).winding_field((4, 4))


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

    @pytest.mark.parametrize("fixture, digest", [
        ("annulus", "ba664a9052d45b9e7402c894a3c2672e70d2bf5b2d66842b4de7a2594db598f7"),
        ("pants0.02", "4ed42ed0027bc023df9768a0bae27259caa2328884b08d2e85dbee36a23ccdde"),
        ("pants0.005", "8cb25cbef421bf1886430b101dc1857c15a981dea0705a7cc190428e358e4243"),
    ])
    def test_pinned_vertices(self, fixture, digest):
        # sha256 of json.dumps(vertices2) as computed by the cell-by-cell
        # contour tracer and point-by-point winding check
        if fixture == "annulus":
            grid = grid_annulus(0.25, 0.02)
        else:
            grid = grid_from_predicate(
                lambda z: (np.abs(z) < 1.0) & (np.abs(z - 0.45) > 0.25)
                & (np.abs(z + 0.45) > 0.25), 1.0, float(fixture[5:]))
        labels, count, unbounded = grid.complement_labels
        holes = [lab for lab in range(1, count + 1) if lab != unbounded]
        k2 = unbounded if fixture == "annulus" else holes[1]
        poly = separating_cycle(grid, holes[0], k2)
        assert hashlib.sha256(json.dumps(poly.vertices2).encode()).hexdigest() == digest

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
