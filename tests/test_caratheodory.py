import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import annulus_points
from invmetrics import kobayashi
from invmetrics.caratheodory import (
    BallComponentReport,
    ComponentReport,
    DictionaryMap,
    MapDictionary,
    car_ball_components,
    car_interval,
    car_lower,
    car_lower_field,
    default_dictionary,
    subharmonicity_check,
)
from invmetrics.domains import (
    STRUCT_4,
    STRUCT_8,
    Annulus,
    Disk,
    GridDomain,
    PuncturedDisk,
    complement_holes,
    grid_annulus,
    grid_from_predicate,
    grid_load,
    grid_save,
    rasterize,
)
from invmetrics.errors import (
    EmptyBall,
    MarginTooSmall,
    OutOfDomain,
    TheoremViolation,
    ValidationError,
)
from invmetrics.kobayashi import kob_distance
from invmetrics.poincare import poincare_distance, rho_vec

SQRT_TENTH = math.sqrt(0.1)
ANTIPODAL_LOWER = 0.6549003004745169  # atanh(2 sqrt(0.1) / 1.1)


class TestDictionary:
    def test_disk_is_identity_only(self):
        d = default_dictionary(Disk())
        assert [e.tag for e in d.entries] == ["identity"]

    def test_annulus_contains_inclusion_and_reciprocal(self):
        d = default_dictionary(Annulus(0.1))
        tags = [e.tag for e in d.entries]
        assert "inclusion" in tags
        assert any(t.startswith("reciprocal") for t in tags)
        reciprocal = next(e for e in d.entries if e.tag.startswith("reciprocal"))
        z = 0.3 + 0.4j
        assert complex(reciprocal(np.asarray(z))) == pytest.approx(0.1 / z)

    def test_grid_one_reciprocal_per_hole(self, pants_grid):
        d = default_dictionary(pants_grid)
        reciprocals = [e.tag for e in d.entries if e.tag.startswith("reciprocal")]
        assert len(reciprocals) == 2

    def test_base_maps_only(self, pants_grid):
        # rho is invariant under disk automorphisms, so post-composed copies
        # of an entry never raise the maximum; the dictionary holds none
        assert len(default_dictionary(Annulus(0.1))) == 2
        assert len(default_dictionary(pants_grid)) == 3

    def test_cached_grid_entries_do_not_keep_the_grid_alive(self, pants_grid):
        grid = grid_load(grid_save(pants_grid))
        first = default_dictionary(grid)
        assert default_dictionary(grid).entries is first.entries
        kob_distance(grid, 0.05 + 0.6j, -0.05 - 0.6j)
        ref = weakref.ref(grid)
        del grid, first
        gc.collect()
        assert ref() is None

    def test_entries_map_into_disk(self, pants_grid):
        d = default_dictionary(pants_grid)
        samples = pants_grid.centers[pants_grid.mask]
        for entry in d.entries:
            assert (np.abs(entry(samples)) < 1.0).all()


class TestCarLower:
    def test_disk_pair_is_poincare(self):
        assert car_lower(Disk(), 0, 0.5) == pytest.approx(
            poincare_distance(0, 0.5), abs=1e-12)

    def test_equal_points(self):
        assert car_lower(Annulus(0.1), 0.5, 0.5) == 0.0

    def test_annulus_antipodal_value(self):
        value = car_lower(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH)
        assert value == pytest.approx(ANTIPODAL_LOWER, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            car_lower(Annulus(0.1), 0.05, 0.5)

    @given(annulus_points(), annulus_points())
    @settings(max_examples=60, deadline=None)
    def test_below_kobayashi(self, p, q):
        domain = Annulus(0.1)
        assert car_lower(domain, p, q) <= kob_distance(domain, p, q).upper + 1e-9

    @given(annulus_points(), annulus_points())
    @settings(max_examples=60)
    def test_push_forward_is_never_above(self, p, q):
        domain = Annulus(0.1)
        d = default_dictionary(domain)
        value = car_lower(domain, p, q, d)
        for entry in d.entries:
            fp = complex(entry(np.asarray(p)))
            fq = complex(entry(np.asarray(q)))
            assert float(rho_vec(fp, fq)) <= value + 1e-12

    def test_below_kobayashi_next_to_a_wall(self):
        # 300 pairs per annulus with one point 1e-15..1e-9 (relative) inside
        # a wall, where rounding in the entries is largest; the lower bound
        # must stay finite and below the distance
        rng = np.random.default_rng(0)
        for r in (0.1, 0.5, 0.9):
            domain = Annulus(r)
            checked = 0
            while checked < 300:
                p = r ** rng.uniform(0.01, 0.99) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                gap = 10.0 ** rng.uniform(-15, -9)
                radius = r * (1 + gap) if rng.uniform() < 0.5 else 1 - gap
                q = radius * np.exp(1j * rng.uniform(0, 2 * math.pi))
                if not domain.contains(q):
                    continue
                lower = car_lower(domain, p, q)
                assert math.isfinite(lower), (r, p, q)
                assert lower <= kob_distance(domain, p, q).upper + 1e-9, (r, p, q)
                checked += 1

    def test_dictionary_monotone_under_extension(self):
        domain = Annulus(0.1)
        base = default_dictionary(domain)
        bigger = MapDictionary(domain, base.entries + (DictionaryMap(
            "extra", lambda z: 0.5 * np.asarray(z, dtype=complex)),))
        p, q = SQRT_TENTH, -0.4 + 0.2j
        assert car_lower(domain, p, q, bigger) >= car_lower(domain, p, q, base)


class TestCarInterval:
    def test_disk_degenerate(self):
        interval = car_interval(Disk(), 0, 0.5)
        assert interval.lower == pytest.approx(interval.upper, abs=1e-12)

    def test_annulus_antipodal_bounds(self):
        interval = car_interval(Annulus(0.1), SQRT_TENTH, -SQRT_TENTH)
        assert interval.lower == pytest.approx(ANTIPODAL_LOWER, abs=1e-9)
        assert interval.upper == pytest.approx(2.1431573649805785, abs=1e-9)

    def test_nearby_pair_width(self):
        # exact enclosure computed from the dictionary and the deck route;
        # width is 0.01009 for this pair
        interval = car_interval(Annulus(0.1), SQRT_TENTH, SQRT_TENTH + 0.01)
        assert interval.lower == pytest.approx(0.011150751369669, abs=1e-9)
        assert interval.upper == pytest.approx(0.021245004523323, abs=1e-9)
        assert interval.width < 0.0105

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_tol(self, tol):
        # the lower end is rounded down past its error bound and the upper
        # end is the Kobayashi one: there is no tolerance to pass
        with pytest.raises(TypeError):
            car_interval(Annulus(0.5), 0.7, -0.7, tol=tol)


@pytest.fixture(scope="module")
def disk_grid():
    return rasterize(Disk(), 0.02)


class TestSubharmonicity:
    def _log_distance_field(self, grid, p):
        u = np.full(grid.mask.shape, np.nan)
        with np.errstate(divide="ignore"):
            u[grid.mask] = np.log(rho_vec(p, grid.centers[grid.mask]))
        u[np.abs(grid.centers - p) < 2.5 * grid.spacing] = np.nan
        return u

    def test_log_poincare_passes(self, disk_grid):
        u = self._log_distance_field(disk_grid, 0.2 + 0.0137j)
        report = subharmonicity_check(disk_grid, u, [0.04, 0.06, 0.08])
        assert report.violations == 0
        assert report.cells_checked > 10000

    def test_negated_control_fails(self, disk_grid):
        u = self._log_distance_field(disk_grid, 0.2 + 0.0137j)
        report = subharmonicity_check(disk_grid, -u, [0.04, 0.06, 0.08])
        assert report.violations >= 1

    def test_log_dictionary_bound_passes(self):
        grid = rasterize(Annulus(0.1), 0.02)
        d = default_dictionary(Annulus(0.1))
        u = np.full(grid.mask.shape, np.nan)
        field = car_lower_field(d, SQRT_TENTH, grid.centers[grid.mask])
        with np.errstate(divide="ignore"):
            u[grid.mask] = np.log(np.maximum(field, 1e-300))
        u[np.abs(grid.centers - SQRT_TENTH) < 2.5 * grid.spacing] = np.nan
        report = subharmonicity_check(grid, u, [0.04, 0.06, 0.08])
        assert report.violations == 0

    @pytest.mark.parametrize("radii", [[math.nan], [0.04, math.nan], [math.inf], [0.0], []])
    def test_radii_must_be_finite_and_positive(self, disk_grid, radii):
        # a NaN radius got past min(radii) <= 0 and was cast to int
        u = self._log_distance_field(disk_grid, 0.2 + 0.0137j)
        with pytest.raises(ValidationError, match="^radii must be finite and positive"):
            subharmonicity_check(disk_grid, u, radii)

    @pytest.mark.parametrize("tol_scale", [math.nan, -1.0, math.inf, "a"])
    def test_tol_scale_must_be_finite_and_non_negative(self, disk_grid, tol_scale):
        # with NaN every comparison was false: the negated control, which
        # has thousands of violations, reported none
        u = self._log_distance_field(disk_grid, 0.2 + 0.0137j)
        with pytest.raises(ValidationError, match="^tol_scale must be finite and non-negative"):
            subharmonicity_check(disk_grid, -u, [0.04, 0.06, 0.08], tol_scale=tol_scale)

    def test_margin_guard(self, disk_grid):
        u = self._log_distance_field(disk_grid, 0.2)
        with pytest.raises(MarginTooSmall):
            subharmonicity_check(disk_grid, u, [5.0])


class TestBallComponents:
    def test_disk_ball_simply_connected(self):
        report = car_ball_components(Disk(), 0, 0.54, spacing=0.02)
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.relatively_compact
        assert comp.connectivity_number == 0
        assert comp.complement_component_count == 1

    def test_small_annulus_ball(self):
        report = car_ball_components(Annulus(0.1), SQRT_TENTH, 0.3, spacing=0.02)
        assert [c.connectivity_number for c in report.components] == [0]
        assert report.components[0].relatively_compact

    def test_radius_sweep_has_no_lemma_violation(self):
        for radius in np.linspace(0.15, 1.2, 10):
            report = car_ball_components(Annulus(0.1), SQRT_TENTH,
                                         float(radius), spacing=0.02)
            assert sum(c.cell_count for c in report.components) \
                == int(report.ball_mask.sum())

    def test_pants_sweep(self, pants_grid):
        for radius in np.linspace(0.1, 1.0, 10):
            report = car_ball_components(pants_grid, 0.05 + 0.45j, float(radius))
            for comp in report.components:
                assert comp.connectivity_number >= 0

    def test_empty_ball(self):
        with pytest.raises(EmptyBall):
            car_ball_components(Disk(), 0, -1.0, spacing=0.05)

    def test_non_holomorphic_entry_is_a_violation(self):
        # a real-valued, non-holomorphic "entry" gives a round ball shell
        # about |z| = 0.5 whose inner hole lies well inside the disk, which
        # the maximum principle forbids for a genuine dictionary
        entry = DictionaryMap("not holomorphic",
                              lambda z: 0.5 * (np.abs(np.asarray(z)) ** 2 - 0.25))
        with pytest.raises(TheoremViolation, match=r"gap 61\.39 cells"):
            car_ball_components(Disk(), 0.5, 0.05, spacing=0.01,
                                dictionary=MapDictionary(Disk(), (entry,)))

    def test_report_text(self):
        report = car_ball_components(Disk(), 0, 0.54, spacing=0.05)
        text = report.to_text()
        assert "relatively_compact: true" in text
        assert "connectivity_number: 0" in text


def reference_ball_components(domain, p, radius, dictionary=None, spacing=None):
    """car_ball_components on valid input, done on the whole frame: the
    dictionary field on every domain cell, the boundary band from two
    frame-wide dilations, and each component labelled and analysed on the
    whole frame."""
    from scipy import ndimage

    grid = domain if isinstance(domain, GridDomain) else rasterize(domain, spacing)
    if dictionary is None:
        dictionary = default_dictionary(domain)
    values = np.full(grid.mask.shape, np.inf)
    values[grid.mask] = car_lower_field(dictionary, p, grid.centers[grid.mask])
    ball = grid.mask & (values < radius)
    idx = grid.cell_index(p)
    if idx is not None and grid.mask[idx[1], idx[0]]:
        ball[idx[1], idx[0]] = True
    labels, count = ndimage.label(ball, structure=STRUCT_4)
    boundary_cells = grid.mask & ndimage.binary_dilation(~grid.mask, STRUCT_8)
    near_boundary = np.bincount(labels[ndimage.binary_dilation(boundary_cells, STRUCT_8)],
                                minlength=count + 1)
    components = []
    for lab in range(1, count + 1):
        comp = labels == lab
        hole_labels, holes = complement_holes(comp)
        relcomp = not near_boundary[lab]
        if relcomp and holes:
            for gap in ndimage.minimum(grid.dist_to_complement_cells, hole_labels, holes):
                if gap > 2.0:
                    raise TheoremViolation(
                        "a relatively compact ball component encloses a hole lying "
                        f"strictly inside the domain (gap {gap:.2f} cells)")
        components.append(ComponentReport(
            component_id=lab, mask=comp, cell_count=int(comp.sum()),
            relatively_compact=relcomp, connectivity_number=len(holes),
            complement_component_count=len(holes) + 1))
    return BallComponentReport(domain=domain, center=p, radius=radius,
                               spacing=grid.spacing, ball_mask=ball,
                               components=tuple(components))


def assert_same_report(got, want):
    assert (got.domain, got.center, got.radius, got.spacing) \
        == (want.domain, want.center, want.radius, want.spacing)
    assert got.ball_mask.shape == want.ball_mask.shape
    assert np.array_equal(got.ball_mask, want.ball_mask)
    assert len(got.components) == len(want.components)
    for g, w in zip(got.components, want.components):
        assert g.mask.shape == w.mask.shape
        assert np.array_equal(g.mask, w.mask)
        assert (g.component_id, g.cell_count, g.relatively_compact,
                g.connectivity_number, g.complement_component_count) \
            == (w.component_id, w.cell_count, w.relatively_compact,
                w.connectivity_number, w.complement_component_count)
    assert got.to_text() == want.to_text()


def _ring_grid():
    return grid_annulus(0.3, 0.02)


def _slit_grid():
    # the unit disk less a horizontal slit one or two cells thick
    def pred(z):
        return (np.abs(z) < 1.0) & ~((np.abs(z.imag) < 0.015) & (np.abs(z.real) < 0.5))

    return grid_from_predicate(pred, 1.0, 0.02)


# radii from below one cell up to past the whole domain
REFERENCE_RADII = (1e-6, 0.05, 0.2, 0.5, 1.0, 2.0, 8.0)


class TestBallComponentsReference:
    @pytest.mark.parametrize("center", [0.05 + 0.45j, 0.45 + 0.3j, 0.93j, -0.72 - 0.1j])
    def test_pants(self, pants_grid, center):
        for radius in REFERENCE_RADII:
            assert_same_report(car_ball_components(pants_grid, center, radius),
                               reference_ball_components(pants_grid, center, radius))

    @pytest.mark.parametrize("make, center", [
        (_ring_grid, 0.55), (_ring_grid, -0.33j), (_ring_grid, 0.66 - 0.7j),
        (_slit_grid, 0.1j), (_slit_grid, 0.05 - 0.6j), (_slit_grid, 0.97),
    ], ids=["ring-mid", "ring-inner", "ring-outer", "slit-above", "slit-below", "slit-rim"])
    def test_ring_and_slit(self, make, center):
        grid = make()
        for radius in REFERENCE_RADII:
            assert_same_report(car_ball_components(grid, center, radius),
                               reference_ball_components(grid, center, radius))

    @pytest.mark.parametrize("domain, center", [
        (Disk(), 0.3 - 0.2j), (PuncturedDisk(), 0.15j), (Annulus(0.1), SQRT_TENTH),
    ], ids=["disk", "punctured", "annulus"])
    def test_catalog(self, domain, center):
        for radius in REFERENCE_RADII:
            assert_same_report(
                car_ball_components(domain, center, radius, spacing=0.02),
                reference_ball_components(domain, center, radius, spacing=0.02))

    @pytest.mark.parametrize("center", [0.45 + 0.3j, 0.05 + 0.7j])
    def test_several_components(self, pants_grid, center):
        # z -> z^2 is two-to-one, so its balls about a point off the axis
        # split into two components, one about each square root
        middle, scale = pants_grid.bounding_circle
        square = DictionaryMap("square", lambda z: ((np.asarray(z, dtype=complex)
                                                     - middle) / scale) ** 2)
        dictionary = MapDictionary(pants_grid, (square,))
        counts = set()
        for radius in REFERENCE_RADII:
            got = car_ball_components(pants_grid, center, radius, dictionary)
            assert_same_report(got, reference_ball_components(pants_grid, center, radius,
                                                              dictionary))
            counts.add(len(got.components))
        assert max(counts) >= 2

    def test_shell_about_a_hole(self):
        # a non-holomorphic shell about |z| = 0.6 encloses the grid's hole:
        # a relatively compact component whose hole holds complement cells
        entry = DictionaryMap("not holomorphic",
                              lambda z: 0.5 * (np.abs(np.asarray(z)) ** 2 - 0.36))
        grid = _ring_grid()
        dictionary = MapDictionary(grid, (entry,))
        got = car_ball_components(grid, 0.6, 0.05, dictionary)
        assert_same_report(got, reference_ball_components(grid, 0.6, 0.05, dictionary))
        assert [(c.relatively_compact, c.connectivity_number) for c in got.components] \
            == [(True, 1)]

    def test_violation(self):
        entry = DictionaryMap("not holomorphic",
                              lambda z: 0.5 * (np.abs(np.asarray(z)) ** 2 - 0.25))
        dictionary = MapDictionary(Disk(), (entry,))
        with pytest.raises(TheoremViolation) as want:
            reference_ball_components(Disk(), 0.5, 0.05, dictionary, 0.01)
        with pytest.raises(TheoremViolation) as got:
            car_ball_components(Disk(), 0.5, 0.05, dictionary, 0.01)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def reference_grid_interval(grid, p, q):
    """(lower, upper) of kob_distance(grid, p, q) on distinct points, read
    from the full frames ``grid.centers`` and the density bound (from
    ``cell_density_bound``, inf off the domain): the links to the endpoint
    cells index the bound frame, and the dictionary's hole centres and
    radii come from the centre frame."""
    from scipy.sparse.csgraph import dijkstra

    centers = grid.centers
    bound = np.where(grid.mask, grid.cell_density_bound(...), np.inf)
    cp, cq = grid.cell_index(p), grid.cell_index(q)
    bound_p = 1.0 / max(grid.distance_to_complement(p), 1e-300)
    bound_q = 1.0 / max(grid.distance_to_complement(q), 1e-300)
    if cp == cq:
        upper = abs(p - q) * max(bound_p, bound_q)
    else:
        link_p = abs(p - grid.cell_center(*cp)) * max(bound_p, bound[cp[1], cp[0]])
        link_q = abs(q - grid.cell_center(*cq)) * max(bound_q, bound[cq[1], cq[0]])
        dist = dijkstra(kobayashi._grid_graph(grid), directed=False,
                        indices=cp[1] * grid.width + cp[0])
        upper = link_p + float(dist[cq[1] * grid.width + cq[0]]) + link_q
    middle, scale = grid.bounding_circle
    entries = [DictionaryMap("inclusion rescaled",
                             lambda z: (np.asarray(z, dtype=complex) - middle) / scale)]
    labels, holes = grid.complement
    for lab in holes:
        w0 = complex(centers[labels == lab].mean())
        r0 = float(np.abs(centers[grid.mask] - w0).min()) - grid.spacing
        entries.append(DictionaryMap("reciprocal", lambda z, w0=w0, r0=r0:
                                     r0 / (np.asarray(z, dtype=complex) - w0)))
    lower = car_lower(grid, p, q, MapDictionary(grid, tuple(entries)))
    return min(lower, upper), upper


class TestFullFrameReference:
    @pytest.mark.parametrize("which", ["pants", "ring"])
    def test_reports_and_intervals(self, pants_grid, which):
        grid = pants_grid if which == "pants" else _ring_grid()
        rng = np.random.default_rng(11)
        iy, ix = np.nonzero(grid.mask)
        # points jittered within their cells, and one pair in a single cell
        points = [grid.cell_center(int(ix[k]), int(iy[k]))
                  + grid.spacing * complex(*rng.uniform(-0.4, 0.4, 2))
                  for k in rng.integers(0, ix.size, 12)]
        pairs = list(zip(points[::2], points[1::2])) + [(points[0], points[0] + 0.1 * grid.spacing)]
        for p, q in pairs:
            got = kob_distance(grid, p, q)
            assert (got.lower, got.upper) == reference_grid_interval(grid, p, q)
        for p in points[:4]:
            for radius in (0.3, 1.0):
                assert_same_report(car_ball_components(grid, p, radius),
                                   reference_ball_components(grid, p, radius))
