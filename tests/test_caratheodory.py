import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import annulus_points
from invmetrics.caratheodory import (
    DictionaryMap,
    MapDictionary,
    car_ball_components,
    car_interval,
    car_lower,
    car_lower_field,
    default_dictionary,
    subharmonicity_check,
)
from invmetrics.domains import Annulus, Disk, grid_load, grid_save, rasterize
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
        assert d.tags() == ["identity"]

    def test_annulus_contains_inclusion_and_reciprocal(self):
        d = default_dictionary(Annulus(0.1))
        tags = d.tags()
        assert "inclusion" in tags
        assert any(t.startswith("reciprocal") for t in tags)
        reciprocal = next(e for e in d.entries if e.tag.startswith("reciprocal"))
        z = 0.3 + 0.4j
        assert complex(reciprocal(np.asarray(z))) == pytest.approx(0.1 / z)

    def test_grid_one_reciprocal_per_hole(self, pants_grid):
        d = default_dictionary(pants_grid)
        reciprocals = [t for t in d.tags() if t.startswith("reciprocal")]
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
        bigger = base.extended([DictionaryMap(
            "extra", lambda z: 0.5 * np.asarray(z, dtype=complex))])
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
        with pytest.raises(ValidationError, match="tol"):
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
