import cmath
import gc
import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invmetrics.domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    grid_annulus,
    grid_from_predicate,
)
from invmetrics.errors import (
    CoverScaleTooLarge,
    EmptyRegion,
    LabelNotBounded,
    OnBoundary,
    OutOfDomain,
    Unsupported,
    ValidationError,
)
from invmetrics.domains import lift_row
from invmetrics.kobayashi import MetricBall, kob_ball_raster
from invmetrics.render import render_ball_svg
from invmetrics.topology import (
    _TILE,
    NerveGraph,
    SimplePolygon,
    _compress_collinear,
    _injectivity,
    _trace_outer_contour,
    connectivity_number,
    nerve_cover,
    separating_cycle,
)

SQRT_TENTH = math.sqrt(0.1)
ANNULUS_CORE_HALF = 2.1431573649805785


def injectivity(domain, ball):
    """``nerve_cover``'s injectivity bound over the ball's cells."""
    return _injectivity(domain, domain.lift(ball.centers[ball.mask]))


class TestConnectivity:
    def test_disk_raster(self):
        ball = kob_ball_raster(Disk(), 0, 1.0, 0.05)
        assert connectivity_number(ball.mask) == 0

    def test_annulus_raster(self):
        assert connectivity_number(grid_annulus(0.25, 0.05).mask) == 1

    def test_pair_of_pants(self, pants_grid):
        assert connectivity_number(pants_grid.mask) == 2

    @pytest.mark.parametrize("call", [
        connectivity_number,
        lambda mask: render_ball_svg(mask, np.zeros_like(mask)),
    ], ids=["connectivity_number", "render_ball_svg"])
    def test_border_ring_must_be_off(self, call):
        with pytest.raises(ValidationError, match="border ring"):
            call(np.ones((5, 5), dtype=bool))

    @pytest.mark.parametrize("domain_mask, ball_mask", [
        (np.zeros((5, 5), bool), np.zeros((4, 4), bool)),
        (np.zeros(5, bool), np.zeros(5, bool)),
    ], ids=["different", "1-D"])
    def test_render_names_mismatched_masks(self, domain_mask, ball_mask):
        # named with both shapes, not numpy's broadcast or unpacking error
        with pytest.raises(ValidationError, match=re.escape(f"{domain_mask.shape} and "
                                                            f"{ball_mask.shape}")):
            render_ball_svg(domain_mask, ball_mask)

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
        assert poly.winding_point2(0, 0) == 1

    def test_ccw_square_outside(self):
        poly = SimplePolygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
        assert poly.winding_point2(10, 0) == 0

    def test_cw_square_center(self):
        poly = SimplePolygon(((-1, -1), (-1, 1), (1, 1), (1, -1)))
        assert poly.winding_point2(0, 0) == -1

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
        labels, _, unbounded = grid.complement_labels
        (hole,) = grid.complement[1]
        poly = separating_cycle(grid, hole, unbounded)
        ys, xs = np.nonzero(labels == hole)
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {1}
        ys, xs = np.nonzero(labels == unbounded)
        assert {poly.winding_point2(2 * ix, 2 * iy)
                for ix, iy in zip(xs.tolist(), ys.tolist())} == {0}

    def test_pants_separates_the_holes(self, pants_grid):
        labels, holes = pants_grid.complement
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
        _, _, unbounded = grid.complement_labels
        holes = grid.complement[1]
        k2 = unbounded if fixture == "annulus" else holes[1]
        poly = separating_cycle(grid, holes[0], k2)
        assert hashlib.sha256(json.dumps(poly.vertices2).encode()).hexdigest() == digest

    def test_same_labels_rejected(self, pants_grid):
        with pytest.raises(ValidationError):
            separating_cycle(pants_grid, 1, 1)

    @pytest.mark.parametrize("bad", ["a", None], ids=["text", "None"])
    @pytest.mark.parametrize("first", [True, False], ids=["k1", "k2"])
    def test_non_numeric_label_is_named(self, pants_grid, bad, first):
        # no component has such a label: named, not a bare TypeError
        labels = (bad, 1) if first else (pants_grid.complement[1][0], bad)
        with pytest.raises(ValidationError, match=f"labeled {bad!r}"):
            separating_cycle(pants_grid, *labels)

    def test_unbounded_first_label_rejected(self, pants_grid):
        _, _, unbounded = pants_grid.complement_labels
        with pytest.raises(LabelNotBounded):
            separating_cycle(pants_grid, unbounded, pants_grid.complement[1][0])

    def test_polygon_vertices_inside_domain(self):
        grid = grid_annulus(0.25, 0.02)
        labels, _, unbounded = grid.complement_labels
        (hole,) = grid.complement[1]
        poly = separating_cycle(grid, hole, unbounded)
        for v in poly.vertices:
            assert 0.25 < abs(v) < 1.0


class TestInjectivity:
    def test_disk_sentinel(self):
        ball = kob_ball_raster(Disk(), 0, 1.0, 0.05)
        assert injectivity(Disk(), ball) == math.inf

    def test_punctured_positive(self):
        ball = kob_ball_raster(PuncturedDisk(), math.exp(-1), 1.0, 0.02)
        bound = injectivity(PuncturedDisk(), ball)
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
        bound = injectivity(Annulus(0.1), ball)
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

    def test_packed_graph_reads_as_tuples(self):
        ball = kob_ball_raster(Annulus(0.1), 1j * SQRT_TENTH, 1.5, 0.02)
        nerve = nerve_cover(Annulus(0.1), ball, 0.5)
        for rows, width in ((nerve.edges, 2), (nerve.triangles, 3)):
            assert type(rows) is tuple and rows
            assert all(type(row) is tuple and len(row) == width for row in rows)
            assert all(type(v) is int for row in rows for v in row)
        assert type(nerve.centers) is tuple
        assert all(type(c) is complex for c in nerve.centers)
        assert json.loads(json.dumps([nerve.edges, nerve.triangles]))[0][0] == list(nerve.edges[0])
        # the text export as pinned before the graph was packed
        digest = hashlib.sha256(nerve.to_text().encode()).hexdigest()
        assert digest == "ea09805eaee24a35725ed41eec997fad0fa50b36f5a158cb765aef1e01fb560b"

    def test_packed_graph_equals_a_tuple_built_one(self):
        ball = kob_ball_raster(Annulus(0.1), 1j * SQRT_TENTH, 1.5, 0.02)
        nerve = nerve_cover(Annulus(0.1), ball, 0.5)
        fields = dict(centers=tuple(nerve.centers), cover_radius=0.5, edges=tuple(nerve.edges),
                      triangles=tuple(nerve.triangles), component_count=nerve.component_count,
                      graph_cycle_rank=nerve.graph_cycle_rank, cycle_rank=nerve.cycle_rank)
        built = NerveGraph(**fields)
        assert built == nerve and hash(built) == hash(nerve)
        assert built.to_text() == nerve.to_text()
        assert len({built, nerve}) == 1
        for name, value in (("centers", fields["centers"][:-1] + (0j,)),
                            ("edges", fields["edges"][:-1]),
                            ("triangles", fields["triangles"][1:]),
                            ("cover_radius", 0.4), ("cycle_rank", 1)):
            assert NerveGraph(**{**fields, name: value}) != nerve, name
        assert nerve != nerve.to_text()

    def test_empty_rows_pack(self):
        lone = NerveGraph(centers=(0.5 + 0j,), cover_radius=0.1, edges=(), triangles=(),
                          component_count=1, graph_cycle_rank=0, cycle_rank=0)
        assert (lone.edges, lone.triangles, lone.vertex_count, lone.edge_count) == ((), (), 1, 0)
        assert lone.to_text() == "vertices: 1\nv0 0.5 0\nedges: 0\ncycle_rank: 0\n"

    def test_kept_graph_is_packed(self):
        # the graph kept of a 143-center nerve: about 48 KB as tuples of
        # Python numbers, under 10 KB as packed arrays
        domain = Annulus(0.1)
        ball = kob_ball_raster(domain, SQRT_TENTH, 2.5, 0.01)
        nerve_cover(domain, ball, 0.7)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nerve = nerve_cover(domain, ball, 0.7)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (nerve.vertex_count, nerve.edge_count) == (143, 352)
        assert kept < 16_000

    def test_cover_scale_guard(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.02)
        with pytest.raises(CoverScaleTooLarge):
            nerve_cover(Annulus(0.1), ball, 2.0)

    def test_export_text(self):
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, 0.5, 0.04)
        nerve = nerve_cover(Annulus(0.1), ball, 0.7)
        text = nerve.to_text()
        assert "cycle_rank: 0" in text


def _gf2_rank_dense(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix by Gauss-Jordan elimination."""
    rows = rows.copy()
    rank = 0
    for col in range(rows.shape[1]):
        if rank == rows.shape[0]:
            break
        pivots = rank + np.flatnonzero(rows[rank:, col])
        if pivots.size == 0:
            continue
        rows[[rank, pivots[0]]] = rows[[pivots[0], rank]]
        others = np.flatnonzero(rows[:, col])
        rows[others[others != rank]] ^= rows[rank]
        rank += 1
    return rank


def reference_nerve(domain, ball, r_cover) -> NerveGraph:
    """``nerve_cover`` by brute force: each center lifted on its own, one
    boolean row per center, and the cliques read off the matrix's
    distinct columns."""
    from scipy.sparse.csgraph import connected_components

    cells = ball.centers[ball.mask]
    lifts = domain.lift(cells)
    inj = (domain.deck_loop_length(lifts) - 1e-9) / 2.0 if domain.deck_step else math.inf
    assert r_cover <= inj / 2.0

    def row(i):
        return domain.distance(domain.lift(cells[i]), lifts)

    ids = [0]
    mindist = row(0)
    covered = [mindist < r_cover]
    while mindist.max() > r_cover:
        ids.append(int(np.argmax(mindist)))
        d = row(ids[-1])
        covered.append(d < r_cover)
        mindist = np.minimum(mindist, d)
    m = len(ids)
    edges, triangles = set(), set()
    for column in np.unique(np.array(covered), axis=1).T:
        clique = np.flatnonzero(column).tolist()
        edges.update(itertools.combinations(clique, 2))
        triangles.update(itertools.combinations(clique, 3))
    adjacent = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adjacent[i, j] = adjacent[j, i] = True
    if 6.0 * r_cover < 2.0 * inj:
        triangles.update((i, j, int(k)) for i, j in edges
                         for k in np.flatnonzero(adjacent[i] & adjacent[j]) if k > j)
    edges, triangles = sorted(edges), sorted(triangles)
    components = connected_components(adjacent, directed=False)[0]
    index = {e: n for n, e in enumerate(edges)}
    boundary = np.zeros((len(triangles), len(edges)), dtype=np.uint8)
    for n, (i, j, k) in enumerate(triangles):
        boundary[n, [index[(i, j)], index[(j, k)], index[(i, k)]]] = 1
    graph_rank = len(edges) - m + components
    return NerveGraph(
        centers=tuple(complex(cells[i]) for i in ids),
        cover_radius=r_cover,
        edges=tuple(edges),
        triangles=tuple(triangles),
        component_count=components,
        graph_cycle_rank=graph_rank,
        cycle_rank=graph_rank - _gf2_rank_dense(boundary),
    )


def _catalog_cover_radius(kind, r, center_modulus, radius):
    """The benchmark's cover radius: 0.7, shrunk to 0.3 of the loop scale."""
    if kind == "annulus":
        inj = math.pi ** 2 / (2 * -math.log(r))
    elif kind == "punctured":
        inj = math.asinh(math.pi / abs(math.log(center_modulus) * math.exp(2 * radius))) / 2
    else:
        return 0.7
    return min(0.7, 0.3 * inj)


# The nine ball templates of the catalog-balls benchmark: (kind, r, |center|, R)
CATALOG_BALLS = (
    ("annulus", 0.1, SQRT_TENTH, 2.5),
    ("disk", None, 0.4, 1.0),
    ("annulus", 0.1, SQRT_TENTH, 1.5),
    ("annulus", 0.35, math.sqrt(0.35), 1.0),
    ("annulus", 0.05, math.sqrt(0.05), 2.0),
    ("annulus", 0.2, math.sqrt(0.2), 1.5),
    ("punctured", None, 0.5, 0.5),
    ("annulus", 0.2, math.sqrt(0.2), 2.0),
    ("annulus", 0.5, math.sqrt(0.5), 2.0),
)


def _cross_tile_ties(domain, ball, r_cover) -> int:
    """How often the reference greedy cover's farthest cells tie across
    different pivot tiles of ``nerve_cover``."""
    iy, ix = np.nonzero(ball.mask)
    tiles = {(int(y - iy.min()) // _TILE, int(x - ix.min()) // _TILE) for y, x in zip(iy, ix)}
    assert len(tiles) > 1
    tile = (iy - iy.min()) // _TILE * (ball.width + 1) + (ix - ix.min()) // _TILE
    lifts = domain.lift(ball.centers[ball.mask])
    mindist = domain.distance(domain.lift(ball.centers[ball.mask][0]), lifts)
    ties = 0
    while mindist.max() > r_cover:
        tied = np.flatnonzero(mindist == mindist.max())
        ties += len(set(tile[tied].tolist())) > 1
        mindist = np.minimum(mindist, domain.distance(lift_row(lifts, tied[0]), lifts))
    return ties


class TestNerveReference:
    @pytest.mark.parametrize("template", CATALOG_BALLS,
                             ids=lambda t: f"{t[0]}{t[1] or ''}-R{t[3]}")
    def test_catalog_balls_match(self, template):
        kind, r, center_modulus, radius = template
        domain = {"disk": Disk, "punctured": PuncturedDisk}.get(kind, lambda: Annulus(r))()
        r_cover = _catalog_cover_radius(*template)
        for k in range(12):
            angle = -math.pi + 2 * math.pi * (k + 0.37) / 12
            ball = kob_ball_raster(domain, cmath.rect(center_modulus, angle), radius, 0.02)
            assert nerve_cover(domain, ball, r_cover) == reference_nerve(domain, ball, r_cover)

    @pytest.mark.parametrize("domain, center, radius, r_cover, min_centers", [
        # more than 128 centers: the bit rows widen twice
        (Annulus(0.1), SQRT_TENTH, 2.5, 0.45, 129),
        # the half-plane's lift is the point array itself, not a Lift
        (HalfPlane(), -0.5 + 0.2j, 1.0, 0.5, 9),
        (PuncturedDisk(), 0.6j, 0.8, 0.2, 9),
        # the balls whose ranks are far off (ROADMAP item 1)
        (PuncturedDisk(), 0.6j, 0.8, 0.13, 9),
        (PuncturedDisk(), 0.6j, 1.2, 0.147, 9),
        (HalfPlane(), -0.5 + 0.2j, 1.5, 0.5, 9),
        # cover radii above a third of the injectivity bound: only witnessed
        # triangles count
        (Annulus(0.1), SQRT_TENTH, 2.5, 0.45 * ANNULUS_CORE_HALF, 9),
        (PuncturedDisk(), 0.6j, 0.8, 0.23, 9),
    ], ids=["annulus-wide-rows", "halfplane", "punctured", "punctured-fine-cover",
            "punctured-R1.2", "halfplane-R1.5", "annulus-witnessed", "punctured-witnessed"])
    def test_other_balls_match(self, domain, center, radius, r_cover, min_centers):
        ball = kob_ball_raster(domain, center, radius, 0.02)
        nerve = nerve_cover(domain, ball, r_cover)
        assert nerve.vertex_count >= min_centers
        assert nerve == reference_nerve(domain, ball, r_cover)

    @pytest.mark.parametrize("radius", [0.5, 2.5])
    def test_acceptance_balls_match(self, radius):
        # acceptance C04's nerve balls
        ball = kob_ball_raster(Annulus(0.1), SQRT_TENTH, radius, 0.01)
        assert nerve_cover(Annulus(0.1), ball, 0.7) == reference_nerve(Annulus(0.1), ball, 0.7)

    def test_mirror_ties_across_tiles(self):
        # a disk ball centred at 0 is symmetric, so farthest cells tie, in
        # different pivot tiles; the least row-major index must win
        ball = kob_ball_raster(Disk(), 0, 1.0, 0.02)
        assert _cross_tile_ties(Disk(), ball, 0.3) >= 5
        assert nerve_cover(Disk(), ball, 0.3) == reference_nerve(Disk(), ball, 0.3)

    @pytest.mark.parametrize("radius, r_cover, min_centers, side", [
        (0.035, 0.015, 4, _TILE),   # inside one tile
        (1e-3, 0.5, 1, 1),          # the center cell alone
    ], ids=["inside-one-tile", "one-cell"])
    def test_small_balls_match(self, radius, r_cover, min_centers, side):
        ball = kob_ball_raster(Disk(), 0.3 + 0.1j, radius, 0.01)
        rows, cols = np.nonzero(ball.mask)
        assert max(np.ptp(rows), np.ptp(cols)) < side
        nerve = nerve_cover(Disk(), ball, r_cover)
        assert nerve.vertex_count >= min_centers
        assert nerve == reference_nerve(Disk(), ball, r_cover)

    @pytest.mark.parametrize("domain, center, radius, r_cover", [
        (Disk(), 0.3, 1.0, 0.2),
        (Annulus(0.1), SQRT_TENTH, 2.5, 0.5),
    ], ids=["disk", "annulus"])
    def test_ball_cut_by_the_frame_edge(self, domain, center, radius, r_cover):
        # the frame's left, bottom and right edges cut through the ball, at
        # offsets that are no multiple of the tile side
        ball = kob_ball_raster(domain, center, radius, 0.02)
        rows, cols = np.flatnonzero(ball.mask.any(axis=1)), np.flatnonzero(ball.mask.any(axis=0))
        y0, x0 = rows[0] + 5, cols[0] + 3
        x1 = (cols[0] + cols[-1]) // 2 + 2
        cut = MetricBall(domain, ball.center, ball.radius, ball.metric,
                         ball.origin + ball.spacing * complex(x0, y0), ball.spacing,
                         ball.mask[y0:, x0:x1])
        mask = cut.mask
        assert mask[0].any() and mask[:, 0].any() and mask[:, -1].any()
        assert mask.shape[1] % _TILE and mask.shape[0] % _TILE
        nerve = nerve_cover(domain, cut, r_cover)
        assert nerve.vertex_count >= 9
        assert nerve == reference_nerve(domain, cut, r_cover)

    def test_pruned_rows(self, monkeypatch):
        # the pivot bounds leave most cells out of each new center's
        # distance row
        domain = Annulus(0.1)
        ball = kob_ball_raster(domain, SQRT_TENTH, 2.5, 0.01)
        elements = []
        distance = Annulus.distance

        def counted(self, wp, wq):
            out = distance(self, wp, wq)
            elements.append(np.size(out))
            return out

        monkeypatch.setattr(Annulus, "distance", counted)
        nerve = nerve_cover(domain, ball, 0.7)
        assert nerve.vertex_count == 143
        assert sum(elements) < 0.25 * nerve.vertex_count * ball.cell_count()

    def test_single_fault_errors(self):
        domain = Annulus(0.1)
        ball = kob_ball_raster(domain, SQRT_TENTH, 0.5, 0.04)
        empty = MetricBall(domain, ball.center, ball.radius, ball.metric, ball.origin,
                           ball.spacing, np.zeros(ball.shape, dtype=bool))
        inj = injectivity(domain, ball)
        cases = [
            (grid_annulus(0.25, 0.05), ball, 0.5, Unsupported,
             "injectivity bounds need a catalog domain"),
            (domain, empty, 0.5, OutOfDomain, "the ball raster is empty"),
            (Disk(), empty, 0.5, OutOfDomain, "the ball raster is empty"),
            (domain, ball, "0.5", ValidationError,
             "cover radius must be a positive real number: '0.5'"),
            (domain, ball, 2.0, CoverScaleTooLarge,
             f"cover radius 2 exceeds half the injectivity bound {inj:g}"),
        ]
        for dom, b, r_cover, error, message in cases:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                nerve_cover(dom, b, r_cover)
