import cmath
import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annulus_points
from invmetrics import domains
from invmetrics.domains import (
    Annulus,
    Disk,
    GridDomain,
    HalfPlane,
    PuncturedDisk,
    cell_pairs,
    complement_holes,
    contains,
    density,
    grid_annulus,
    grid_from_predicate,
    grid_load,
    grid_save,
    rasterize,
    sample_points,
)
from invmetrics.errors import Unsupported, ValidationError, ParseError
from invmetrics.kobayashi import ball_load, kob_distance
from invmetrics.topology import connectivity_number

TAU = 2 * math.pi


def _float_steps(x, k: int):
    """x moved by k float steps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x


def _near_walls(domain) -> np.ndarray:
    """Points within three float steps of every wall of ``domain``."""
    steps = range(-3, 4)
    theta = np.linspace(-math.pi, math.pi, 97)
    if isinstance(domain, GridDomain):
        # walls are the cell edges, half a spacing off the cell centers
        h = domain.spacing
        xs = domain.origin.real + h * (np.arange(-1, domain.width) + 0.5)
        ys = domain.origin.imag + h * (np.arange(-1, domain.height) + 0.5)
        cx = domain.origin.real + h * np.arange(domain.width)
        cy = domain.origin.imag + h * np.arange(domain.height)
        pts = [(_float_steps(xs, k)[None, :] + 1j * cy[:, None]).ravel() for k in steps]
        pts += [(cx[None, :] + 1j * _float_steps(ys, k)[:, None]).ravel() for k in steps]
        return np.concatenate(pts)
    if isinstance(domain, HalfPlane):
        im = np.linspace(-3.0, 3.0, 97)
        return np.concatenate([_float_steps(np.zeros_like(im), k) + 1j * im for k in steps])
    radii = [1.0] + ([domain.r] if isinstance(domain, Annulus) else [])
    pts = [_float_steps(c * np.cos(theta), j) + 1j * _float_steps(c * np.sin(theta), k)
           for c in radii for j in steps for k in steps]
    if isinstance(domain, PuncturedDisk):
        pts += [complex(_float_steps(0.0, j), _float_steps(0.0, k)) * np.ones(1)
                for j in steps for k in steps]
    return np.concatenate(pts)


SCALAR_CASES = [Disk(), HalfPlane(), PuncturedDisk(), Annulus(0.1), Annulus(0.9),
                rasterize(Annulus(0.5), 0.1)]


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

    @pytest.mark.parametrize("domain", SCALAR_CASES)
    def test_scalar_call_is_the_0d_call(self, domain):
        rng = np.random.default_rng(3)
        interior = rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-1.2, 1.2, 400)
        points = np.concatenate([_near_walls(domain), interior])
        scalar = [contains(domain, z) for z in points.tolist()]
        assert scalar == [bool(domain.contains(np.asarray(z))) for z in points.tolist()]
        if isinstance(domain, GridDomain):
            return
        inside = points[scalar].tolist()
        assert len(inside) > 100
        with np.errstate(all="ignore"):  # densities overflow on the walls
            np.testing.assert_array_equal([density(domain, z) for z in inside],
                                          [float(domain.density(z)) for z in inside])

    @pytest.mark.parametrize("domain", SCALAR_CASES[:5])
    def test_never_accepts_a_point_on_or_past_a_wall(self, domain):
        # np.abs rounds |z| and can put such points inside; exact rational
        # arithmetic decides here
        points = _near_walls(domain)
        accepted = points[domain.contains(points)]
        assert accepted.size > 100
        for z in accepted.tolist():
            x, y = Fraction(z.real), Fraction(z.imag)
            if isinstance(domain, HalfPlane):
                assert x < 0
                continue
            assert x * x + y * y < 1
            if isinstance(domain, Annulus):
                assert x * x + y * y > Fraction(domain.r) ** 2

    def test_non_domain_is_unsupported(self):
        with pytest.raises(Unsupported):
            contains(object(), 0.5)
        with pytest.raises(Unsupported):
            kob_distance("disk", 0, 0.5)


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


def _assert_deck_invariant(domain):
    """exp(w + k deck_step) = z for the lift w = log z of points z."""
    rng = np.random.default_rng(7)
    r = getattr(domain, "r", 0.0)
    z = (r + (1 - r) * rng.uniform(0.01, 0.99, 50)) * np.exp(1j * rng.uniform(-4, 4, 50))
    lift = domain.lift(z)
    for k in range(-2, 3):
        images = np.exp(-lift.outer + 1j * lift.im + domain.deck_step * k)
        assert np.abs(images - z).max() <= 1e-12


class TestCoveringAtlas:
    """Universal-cover data each catalog class owns: ``lift`` and ``deck_step``."""

    def test_punctured_cover_value(self):
        lift = PuncturedDisk().lift(math.exp(-1))
        assert float(lift.outer) == pytest.approx(1.0, abs=1e-15)  # w = -1
        assert float(lift.im) == 0.0

    def test_punctured_deck_invariance(self):
        _assert_deck_invariant(PuncturedDisk())

    def test_annulus_deck_invariance(self):
        _assert_deck_invariant(Annulus(0.1))

    def test_annulus_midline_covers_core_circle(self):
        lift = Annulus(0.1).lift(math.sqrt(0.1))
        assert -float(lift.outer) == pytest.approx(math.log(0.1) / 2, abs=1e-12)
        assert float(lift.inner) == pytest.approx(-math.log(0.1) / 2, abs=1e-12)
        assert float(lift.height) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_atlases_have_no_deck(self):
        assert Disk().deck_step == 0
        assert HalfPlane().deck_step == 0

    @pytest.mark.parametrize("domain", [PuncturedDisk(), Annulus(0.1), Disk(), HalfPlane(),
                                        Annulus(0.6), Annulus(0.9)])
    def test_local_isometry_by_finite_differences(self, domain):
        # the distance through the cover has the density as its
        # infinitesimal form: d(z - h u, z + h u) / 2h -> density(z)
        rng = np.random.default_rng(5)
        r = getattr(domain, "r", 0.0)
        for _ in range(300):
            if isinstance(domain, HalfPlane):
                z = complex(-rng.uniform(0.01, 3), rng.uniform(-3, 3))
            else:
                z = (r + (1 - r) * rng.uniform(0.01, 0.99)) * np.exp(1j * rng.uniform(-4, 4))
            u = np.exp(1j * rng.uniform(0, TAU))
            lam = density(domain, z)
            h = 1e-4 / lam
            slope = kob_distance(domain, z - h * u, z + h * u).upper / (2 * h)
            assert abs(slope - lam) / lam <= 1e-6

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
        value = kob_distance(domain, zp, zq).upper
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

    def test_mask_is_a_read_only_copy(self):
        # the caches keyed on a grid assume its mask never changes
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        grid = GridDomain(origin=0j, spacing=0.1, mask=mask)
        mask[2, 1] = True
        assert np.flatnonzero(grid.mask).tolist() == [12]
        with pytest.raises(ValueError):
            grid.mask[2, 1] = True
        assert np.flatnonzero(grid.mask).tolist() == [12]

    @pytest.mark.parametrize("field, value", [("origin", 1j), ("spacing", 0.2),
                                              ("mask", np.ones((5, 5), dtype=bool))])
    def test_fields_cannot_be_reassigned(self, field, value):
        # a reassigned field would leave the caches keyed on the grid stale
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        grid = GridDomain(origin=0j, spacing=0.1, mask=mask)
        assert grid.dist_to_complement_cells[2, 2] > 0  # a cached property still works
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, field, value)
        assert (grid.origin, grid.spacing) == (0j, 0.1)
        assert np.flatnonzero(grid.mask).tolist() == [12]

    def test_near_complement_is_the_two_dilation_band(self, pants_grid):
        from scipy import ndimage

        for grid in (pants_grid, grid_annulus(0.25, 0.02)):
            edge = grid.mask & ndimage.binary_dilation(~grid.mask, domains.STRUCT_8)
            band = grid.near_complement
            assert np.array_equal(band, ndimage.binary_dilation(edge, domains.STRUCT_8))
            assert grid.near_complement is band
            with pytest.raises(ValueError):
                band[0, 0] = not band[0, 0]

    def test_keeps_no_full_frame_copies(self):
        # the cell centres and the density bound follow from the grid's
        # fields by arithmetic, so no query leaves a full frame of either
        from invmetrics.caratheodory import car_ball_components, default_dictionary

        grid = grid_annulus(0.3, 0.05)
        kob_distance(grid, 0.6, -0.5j)
        car_ball_components(grid, 0.6, 0.5)
        default_dictionary(grid)
        assert "dist_to_complement_cells" in vars(grid)
        # the fields and the cached per-grid arrays, nothing else
        assert set(vars(grid)) <= {"origin", "spacing", "mask", "complement",
                                   "near_complement", "dist_to_complement_cells",
                                   "bounding_circle"}
        assert grid.centers[0, 0] == grid.origin

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

    @pytest.mark.parametrize("field, value", [
        ("spacing", math.nan), ("spacing", math.inf), ("origin", [math.nan, 0.0])])
    def test_load_rejects_non_finite_fields(self, square_with_hole_grid, field, value):
        payload = json.loads(grid_save(square_with_hole_grid))
        payload[field] = value
        with pytest.raises(ValidationError):
            grid_load(json.dumps(payload))

    def test_bad_row_content(self):
        blob = grid_save(grid_annulus(0.5, 0.1)).decode()
        with pytest.raises(ParseError):
            grid_load(blob.replace("1", "x", 1))

    @pytest.mark.parametrize("load", [grid_load, ball_load])
    @pytest.mark.parametrize("corrupt", [
        # bytes that are not UTF-8
        lambda payload: b"\xff" + json.dumps(payload).encode(),
        # rows that are no list
        lambda payload: json.dumps({**payload, "rows": 5}),
        # a negative width, before numpy sees it
        lambda payload: json.dumps({**payload, "width": -3}),
        lambda payload: json.dumps({**payload, "height": -1, "rows": []}),
    ], ids=["not-utf8", "rows-not-a-list", "negative-width", "negative-height"])
    def test_malformed_files_raise_parse_errors(self, load, corrupt):
        grid = grid_annulus(0.5, 0.1)
        payload = {**json.loads(grid_save(grid)), "metric": "kobayashi",
                   "center": [0.7, 0.0], "radius": 0.5}
        assert load(json.dumps(payload)).mask.shape == grid.mask.shape
        with pytest.raises(ParseError):
            load(corrupt(payload))

    @pytest.mark.parametrize("load", [grid_load, ball_load])
    @pytest.mark.parametrize("width, height", [(2 ** 62, 4), (10 ** 5, 1000)],
                             ids=["2**62x4", "1e5x1000"])
    def test_header_size_waits_for_the_rows(self, load, width, height):
        # the rows are checked before the mask is sized from the header:
        # 2**62 x 4 made numpy raise a bare "array is too big", and
        # 10**5 x 1000 allocated 100 MB before the first row was read
        payload = {**json.loads(grid_save(grid_annulus(0.5, 0.1))), "metric": "kobayashi",
                   "center": [0.7, 0.0], "radius": 0.5,
                   "width": width, "height": height, "rows": ["00000"] * height}
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="row 0 "):
                load(json.dumps(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("load", [grid_load, ball_load])
    @pytest.mark.parametrize("field, value", [
        ("width", 5.9), ("width", "5"), ("height", 5.5),
        ("spacing", True), ("spacing", "0.1"),
        ("origin", "12"), ("origin", ["1", "2"]),
        ("format_version", True), ("format_version", 1.0),
    ])
    def test_ill_typed_fields_raise_parse_errors(self, load, field, value):
        # each value reads as a number of the right size through int(),
        # float() or ==, so the 5 x 5 file would load: a float width was
        # truncated, True read as spacing 1.0 and "12" as the origin 1 + 2i
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        payload = {**json.loads(grid_save(GridDomain(origin=1 + 2j, spacing=0.1, mask=mask))),
                   "metric": "kobayashi", "center": [1.2, 2.2], "radius": 0.5}
        assert np.array_equal(load(json.dumps(payload)).mask, mask)
        with pytest.raises(ParseError, match=field):
            load(json.dumps({**payload, field: value}))

    def test_cli_names_an_ill_typed_field(self, tmp_path, capsys):
        from invmetrics.cli import main

        payload = {**json.loads(grid_save(grid_annulus(0.5, 0.1))), "spacing": True}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        assert main(["dist", "--domain", f"grid:{path}", "--p", "0.7,0", "--q", "-0.7,0"]) == 1
        assert "cannot load grid file: spacing must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(7, 5), (1, 1), (0, 3), (3, 0)])
    def test_save_is_json_dumps_layout(self, shape):
        # the rows are laid out by hand as json.dumps(indent=1) lays them out,
        # after every field, and metadata text that looks like the rows key
        # stays as it is
        rng = np.random.default_rng(sum(shape))
        frame = SimpleNamespace(mask=rng.random(shape) < 0.5, origin=0.25 - 1j, spacing=0.1)
        meta = {"metric": '"rows": []', "center": [0.5, 0.0], "radius": 2.0}
        payload = {"format_version": 1, "origin": [0.25, -1.0], "spacing": 0.1,
                   "width": shape[1], "height": shape[0],
                   "rows": ["".join("1" if v else "0" for v in row) for row in frame.mask],
                   **meta}
        assert grid_save(frame, **meta) == (json.dumps(payload, indent=1) + "\n").encode()

    def test_pinned_files_load(self, pants_grid, square_with_hole_grid):
        # every saved grid and ball reads back byte for byte
        from invmetrics.kobayashi import ball_save, kob_ball_raster

        for grid in (pants_grid, square_with_hole_grid, grid_annulus(0.25, 0.02)):
            blob = grid_save(grid)
            assert grid_save(grid_load(blob)) == blob
        blob = ball_save(kob_ball_raster(domains.Annulus(0.2), 0.5, 2.0, 0.05))
        assert ball_save(ball_load(blob)) == blob


class TestCellPairs:
    @pytest.mark.parametrize("move", [
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1),
        (2, -1), (-3, 2), (1, -4), (5, -3), (0, 12), (-10, 1)])
    def test_matches_double_loop(self, move):
        rng = np.random.default_rng(11)
        mask_a, mask_b = rng.random((2, 7, 9)) < 0.6
        dx, dy = move
        h, w = mask_a.shape
        expected = [(y * w + x, (y + dy) * w + x + dx)
                    for y in range(h) for x in range(w)
                    if mask_a[y, x] and 0 <= y + dy < h and 0 <= x + dx < w
                    and mask_b[y + dy, x + dx]]
        i, j = cell_pairs(mask_a, mask_b, dx, dy)
        assert list(zip(i.tolist(), j.tolist())) == expected


def _never_called(z):
    raise AssertionError("the frame was allocated")


class TestFrameBudget:
    # the cell count is checked before the frame's centres exist, so these
    # calls allocate nothing large
    @pytest.mark.parametrize("radius, spacing", [
        (1.0, 1e-300),             # 2.2e300 cells a side: numpy could not size it
        (1e300, 1e-10),            # the side overflows to inf
        (1024 / 1.1, 0.5),         # 4097 cells a side, one more than the budget allows
    ])
    def test_over_budget_raises(self, radius, spacing):
        with pytest.raises(ValidationError, match="budget"):
            grid_from_predicate(_never_called, radius, spacing)

    def test_rasterize_over_budget_raises(self):
        with pytest.raises(ValidationError, match="budget"):
            rasterize(Disk(), 1e-300)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(domains, "MAX_FRAME_CELLS", 25)
        assert grid_from_predicate(lambda z: np.abs(z) < 1, 1.0 / 1.1, 0.5).mask.shape == (5, 5)
        with pytest.raises(ValidationError, match="budget"):
            grid_from_predicate(_never_called, 1.25 / 1.1, 0.5)


class TestPredicateResult:
    @pytest.mark.parametrize("predicate", [lambda z: 1, lambda z: np.abs(z).ravel() < 1],
                             ids=["scalar", "flat"])
    def test_wrong_shape_is_named(self, predicate):
        # one truth value per cell centre, or a named error, not an IndexError
        with pytest.raises(ValidationError, match="predicate"):
            grid_from_predicate(predicate, 1.0, 0.5)

    def test_read_only_result_is_copied(self):
        # the border ring is cleared on a copy, not on the predicate's array
        def predicate(z):
            inside = np.ones(z.shape, dtype=bool)
            inside.flags.writeable = False
            return inside

        mask = grid_from_predicate(predicate, 1.0, 0.5).mask
        assert mask.shape == (5, 5)
        assert mask[1:-1, 1:-1].all() and mask.sum() == 9


class TestSamplePoints:
    @pytest.mark.parametrize("domain", [Disk(), PuncturedDisk(), Annulus(0.1), Annulus(0.73)])
    def test_are_the_kept_raster_centres(self, domain):
        grid = rasterize(domain, 0.04)
        points = sample_points(domain)
        assert points.dtype == complex
        assert points.tobytes() == grid.centers[grid.mask].tobytes()
        assert sample_points(domain) is points
        with pytest.raises(ValueError):
            points[0] = 0

    def test_unsupported_off_the_bounded_catalog(self, square_with_hole_grid):
        for domain in (HalfPlane(), square_with_hole_grid):
            with pytest.raises(Unsupported):
                sample_points(domain)


def test_raster_structures_are_ndimage_s_and_read_only():
    from scipy import ndimage

    for structure, connectivity in ((domains.STRUCT_4, 1), (domains.STRUCT_8, 2)):
        assert structure.dtype == bool
        assert np.array_equal(structure, ndimage.generate_binary_structure(2, connectivity))
        with pytest.raises(ValueError):
            structure[0, 0] = not structure[0, 0]


class TestComplementHoles:
    def test_two_holes_ascending(self):
        mask = np.zeros((5, 7), dtype=bool)
        mask[1:4, 1:6] = True
        mask[2, 2] = mask[2, 4] = False
        labels, holes = complement_holes(mask)
        assert holes == (2, 3)
        assert labels[0, 0] == 1 and labels[2, 2] == 2 and labels[2, 4] == 3
        assert (labels[mask] == 0).all()

    def test_diagonal_leak_is_no_hole(self):
        # the cells form two 4-components, so the centre cell reaches the
        # outside through a diagonal of the 8-connected complement
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 1] = mask[1, 2] = mask[2, 1] = True
        mask[2, 3] = mask[3, 2] = mask[3, 3] = True
        assert complement_holes(mask)[1] == ()

    @pytest.mark.parametrize("row, col", [(0, 2), (4, 2), (2, 0), (2, 4)])
    def test_border_ring_must_be_off(self, row, col):
        mask = np.zeros((5, 5), dtype=bool)
        mask[row, col] = True
        with pytest.raises(ValidationError, match="border ring"):
            complement_holes(mask)

    def test_grid_reads_the_helper(self, pants_grid):
        labels, holes = pants_grid.complement
        assert np.array_equal(labels, complement_holes(pants_grid.mask)[0])
        assert holes == (2, 3)
        assert pants_grid.complement_labels[1:] == (3, 1)


class TestGridAnnulus:
    def test_complement_components(self):
        grid = grid_annulus(0.25, 0.02)
        assert grid.complement_labels[1] == 2
        assert connectivity_number(grid.mask) == 1

    def test_origin_cell_false(self):
        grid = grid_annulus(0.25, 0.02)
        assert not contains(grid, 0)

    def test_core_cell_true(self):
        grid = grid_annulus(0.25, 0.02)
        assert contains(grid, 0.6)

    def test_spacing_guard(self):
        with pytest.raises(ValidationError):
            grid_annulus(0.25, 0.3)

    @pytest.mark.parametrize("r, spacing, message", [
        (0.3, "x", "spacing must be a real number: 'x'"),
        ("x", 0.01, "inner radius must be a real number: 'x'"),
    ], ids=["spacing", "inner-radius"])
    def test_non_numeric_argument_is_named(self, r, spacing, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            grid_annulus(r, spacing)

    def test_rasterize_matches_membership(self):
        grid = rasterize(Annulus(0.25), 0.05)
        cells = grid.centers
        expected = (np.abs(cells) > 0.25) & (np.abs(cells) < 1.0)
        expected[0, :] = expected[-1, :] = False
        expected[:, 0] = expected[:, -1] = False
        assert np.array_equal(grid.mask, expected)
