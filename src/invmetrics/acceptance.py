"""Property-based acceptance suite, shared by pytest and the CLI.

Each criterion returns a result with the measured and expected values at
its pinned tolerance; ``run_all`` prints one line per criterion.  The
``quick`` flag trims sample counts and raster resolutions without
touching any tolerance that has a stated quick variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caratheodory as car
from . import conformal as conf
from . import kobayashi as kob
from . import modulus as mod
from . import topology as top
from .domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    grid_annulus,
    grid_from_predicate,
    rasterize,
)
from .mobius import disk_automorphism, is_infinity
from .poincare import poincare_distance, rho_vec

HALF_LOG3 = 0.5493061443340548          # atanh(1/2)
LOG3 = 1.0986122886681098               # atanh(4/5)
HALF_LOG2 = 0.34657359027997264         # atanh(1/3)
ANNULUS_CORE_HALF = math.pi**2 / (2 * math.log(10.0))  # 2.1431573649805785
WATT_GAP = 0.2938933324510594           # atanh(1/2) - atanh(1/4)
MODULUS_QUARTER = math.log(4.0) / (2 * math.pi)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: str
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"C{self.cid:02d} {status} {self.name}: measured {self.measured} "
                f"expected {self.expected}")


def _disk_pairs(rng, count, radius=0.9):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        w = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) < radius and abs(w) < radius:
            out.append((z, w))
    return out


def criterion_1(quick: bool = False) -> CriterionResult:
    """Unit-disk distance values and isometry invariance."""
    err_vals = max(abs(poincare_distance(0, 0.5) - HALF_LOG3),
                   abs(poincare_distance(0.5, -0.5) - LOG3))
    rng = np.random.default_rng(101)
    n = 200 if quick else 1000
    worst = 0.0
    for _ in range(n):
        a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        while abs(a) >= 0.95:
            a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        phi = disk_automorphism(a, rng.uniform(0, 2 * math.pi))
        (z, w), = _disk_pairs(rng, 1)
        d0 = poincare_distance(z, w)
        d1 = poincare_distance(complex(phi(z)), complex(phi(w)))
        worst = max(worst, abs(d1 - d0))
    passed = err_vals <= 1e-9 and worst <= 1e-9
    return CriterionResult(1, "poincare-exactness", passed,
                           f"value err {err_vals:.2e}, invariance err {worst:.2e}",
                           "both <= 1e-09")


def criterion_2(quick: bool = False) -> CriterionResult:
    """Covering-route distance on the punctured disk."""
    value = kob.kob_distance(PuncturedDisk(), math.exp(-1), math.exp(-2)).upper
    closed = float(HalfPlane().distance(-1 + 0j, -2 + 0j))
    err = max(abs(value - HALF_LOG2), abs(value - closed))
    return CriterionResult(2, "covering-infimum", err <= 1e-8,
                           f"{value:.9f} (err {err:.2e})",
                           f"{HALF_LOG2:.9f} +- 1e-08")


def criterion_3(quick: bool = False) -> CriterionResult:
    """Annulus deck infimum vs geodesic line integral vs closed form."""
    s = math.sqrt(0.1)
    domain = Annulus(0.1)
    value = kob.kob_distance(domain, s, -s).upper
    path = kob.geodesic(domain, s, -s, samples=512)
    verts = np.asarray(path.vertices)
    mids = (verts[:-1] + verts[1:]) / 2.0
    integral = float((np.abs(np.diff(verts)) * domain.density(mids)).sum())
    err_geo = abs(value - integral)
    err_closed = abs(value - ANNULUS_CORE_HALF)
    passed = err_geo <= 1e-3 and err_closed <= 1e-3
    return CriterionResult(3, "annulus-geodesic", passed,
                           f"deck {value:.6f}, integral {integral:.6f}, "
                           f"closed {ANNULUS_CORE_HALF:.6f}",
                           "pairwise within 1e-03")


def criterion_4(quick: bool = False) -> CriterionResult:
    """Ball connectivity and nerve cycle ranks on the annulus and disk."""
    s = math.sqrt(0.1)
    domain = Annulus(0.1)
    spacing_ball = 0.02
    # The nerve needs the fine raster: coarser cells near the outer rim sit
    # farther apart than the cover scale and fake extra loops.
    spacing_nerve = 0.01
    got = {}
    ranks = {}
    for radius, expected in ((0.5, 0), (2.5, 1)):
        ball = kob.kob_ball_raster(domain, s, radius, spacing_ball)
        got[radius] = top.connectivity_number(ball.mask)
        nerve_ball = kob.kob_ball_raster(domain, s, radius, spacing_nerve)
        ranks[radius] = top.nerve_cover(domain, nerve_ball, 0.7).cycle_rank
    rng = np.random.default_rng(404)
    disk_ok = True
    n = 8 if quick else 20
    for _ in range(n):
        c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(c) >= 0.7:
            continue
        radius = rng.uniform(0.1, 2.0)
        ball = kob.kob_ball_raster(Disk(), c, radius, 0.02)
        if top.connectivity_number(ball.mask) != 0:
            disk_ok = False
    passed = (got == {0.5: 0, 2.5: 1} and ranks == {0.5: 0, 2.5: 1} and disk_ok)
    return CriterionResult(4, "ball-connectivity", passed,
                           f"conn {got}, nerve {ranks}, disk 0-connected {disk_ok}",
                           "conn {0.5: 0, 2.5: 1}, nerve equal, disk all 0")


def _pants_grid(spacing=0.02):
    def pred(z):
        return ((np.abs(z) < 1.0) & (np.abs(z - 0.45) > 0.25)
                & (np.abs(z + 0.45) > 0.25))

    return grid_from_predicate(pred, 1.0, spacing)


def criterion_5(quick: bool = False) -> CriterionResult:
    """Relatively compact dictionary-ball components: finite connectivity
    and no complement component strictly inside the domain."""
    fixtures = [
        (Annulus(0.1), math.sqrt(0.1), np.linspace(0.15, 1.2, 10)),
        (_pants_grid(), 0.05 + 0.45j, np.linspace(0.1, 1.0, 10)),
    ]
    relcomp_seen = 0
    checked = 0
    for domain, p, radii in fixtures:
        for radius in radii:
            report = car.car_ball_components(domain, p, float(radius), spacing=0.02)
            checked += 1
            for comp in report.components:
                if comp.relatively_compact:
                    relcomp_seen += 1
                    if comp.connectivity_number < 0:
                        return CriterionResult(5, "compact-ball-components", False,
                                               "negative connectivity", "impossible")
    passed = relcomp_seen > 0
    return CriterionResult(5, "compact-ball-components", passed,
                           f"{checked} radii, {relcomp_seen} relatively compact "
                           "components, 0 violations",
                           "0 violations over the sweep")


def criterion_6(quick: bool = False) -> CriterionResult:
    """Separating cycles: simple polygons with exact winding 1 / 0."""
    results = []
    ga = grid_annulus(0.25, 0.02)
    labels, _, unbounded = ga.complement_labels
    (hole,) = ga.complement[1]
    poly = top.separating_cycle(ga, hole, unbounded)
    results.append(_winding_values(poly, labels, hole) == {1}
                   and _winding_values(poly, labels, unbounded) == {0})
    gp = _pants_grid()
    labels, holes = gp.complement
    poly = top.separating_cycle(gp, holes[0], holes[1])
    results.append(_winding_values(poly, labels, holes[0]) == {1}
                   and _winding_values(poly, labels, holes[1]) == {0})
    passed = all(results)
    return CriterionResult(6, "separating-cycle", passed,
                           f"annulus {results[0]}, pants {results[1]}",
                           "winding exactly 1 on K1, 0 on K2")


def _winding_values(poly, labels, lab):
    return set(np.unique(poly.winding_field(labels.shape)[labels == lab]).tolist())


def criterion_7(quick: bool = False) -> CriterionResult:
    """Inner-distance consistency on the disk."""
    rng = np.random.default_rng(707)
    count = 6 if quick else 20
    pairs = []
    while len(pairs) < count:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
            pairs.append((z, w))
    exact = np.array([poincare_distance(z, w) for z, w in pairs])
    coarse = np.abs(kob.inner_distance_many(Disk(), pairs, 0.01) - exact)
    fine = np.abs(kob.inner_distance_many(Disk(), pairs, 0.005) - exact)
    passed = (coarse.max() <= 5e-3 and fine.max() <= 5e-3
              and fine.mean() < coarse.mean())
    return CriterionResult(7, "inner-distance", passed,
                           f"max err {coarse.max():.2e} -> {fine.max():.2e}, "
                           f"mean {coarse.mean():.2e} -> {fine.mean():.2e}",
                           "max <= 5e-03 and mean decreasing")


def criterion_8(quick: bool = False) -> CriterionResult:
    """Dictionary bound below the distance, and distance decreasing maps."""
    rng = np.random.default_rng(808)
    per_domain = 75 if quick else 250
    domains = [Disk(), HalfPlane(), PuncturedDisk(), Annulus(0.1)]
    violations = 0
    worst = -math.inf

    def sample(domain):
        while True:
            if isinstance(domain, HalfPlane):
                z = complex(-math.exp(rng.uniform(-3, 1)), rng.uniform(-3, 3))
                return z
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if isinstance(domain, Disk) and abs(z) < 0.98:
                return z
            if isinstance(domain, PuncturedDisk) and 1e-3 < abs(z) < 0.98:
                return z
            if isinstance(domain, Annulus) and domain.r * 1.02 < abs(z) < 0.98:
                return z

    for domain in domains:
        for _ in range(per_domain):
            p, q = sample(domain), sample(domain)
            lower = car.car_lower(domain, p, q)
            upper = kob.kob_distance(domain, p, q).upper
            gap = lower - upper
            worst = max(worst, gap)
            if gap > 1e-8:
                violations += 1

    maps = [
        ("annulus-into-punctured", Annulus(0.1), PuncturedDisk(), lambda z: z),
        ("punctured-into-disk", PuncturedDisk(), Disk(), lambda z: z),
        ("exp-cover", HalfPlane(), PuncturedDisk(),
         lambda z: complex(np.exp(z))),
        ("square", Disk(), Disk(), lambda z: z * z),
    ]
    for _, src, dst, f in maps:
        for _ in range(per_domain):
            p, q = sample(src), sample(src)
            d_src = kob.kob_distance(src, p, q).upper
            d_dst = kob.kob_distance(dst, f(p), f(q)).upper
            gap = d_dst - d_src
            worst = max(worst, gap)
            if gap > 1e-8:
                violations += 1
    return CriterionResult(8, "metric-comparisons", violations == 0,
                           f"{violations} violations, worst gap {worst:.2e}",
                           "0 violations at 1e-08")


def criterion_9(quick: bool = False) -> CriterionResult:
    """Sub-mean-value checks for the metric logs, with a negated control."""
    spacing = 0.02
    radii = [0.04, 0.06, 0.08]
    grid = rasterize(Disk(), spacing)
    p = 0.2 + 0.0137j  # off the cell lattice
    u = np.full(grid.mask.shape, np.nan)
    with np.errstate(divide="ignore"):
        u[grid.mask] = np.log(rho_vec(p, grid.centers[grid.mask]))
    u[np.abs(grid.centers - p) < 2.5 * spacing] = np.nan  # log pole blanked
    rep_disk = car.subharmonicity_check(grid, u, radii)
    rep_neg = car.subharmonicity_check(grid, -u, radii)

    s = math.sqrt(0.1)
    ga = rasterize(Annulus(0.1), spacing)
    dictionary = car.default_dictionary(Annulus(0.1))
    ua = np.full(ga.mask.shape, np.nan)
    with np.errstate(divide="ignore"):
        ua[ga.mask] = np.log(np.maximum(
            car.car_lower_field(dictionary, s, ga.centers[ga.mask]), 1e-300))
    ua[np.abs(ga.centers - s) < 2.5 * spacing] = np.nan
    rep_ann = car.subharmonicity_check(ga, ua, radii)
    passed = (rep_disk.violations == 0 and rep_ann.violations == 0
              and rep_neg.violations >= 1)
    return CriterionResult(9, "subharmonicity", passed,
                           f"disk {rep_disk.violations}, annulus "
                           f"{rep_ann.violations}, negated {rep_neg.violations}",
                           "0, 0, >= 1 violations")


def criterion_10(quick: bool = False) -> CriterionResult:
    """Self-map rigidity: derivative bound, contraction witness, isotropy,
    and Mobius-level three-fixed-point rigidity."""
    rng = np.random.default_rng(1010)
    n_blaschke = 60 if quick else 200
    bound_ok = True
    equality_only_rotations = True
    for _ in range(n_blaschke):
        deg = int(rng.integers(1, 5))
        zeros = [complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
                 for _ in range(deg - 1)]
        zeros = [a for a in zeros if abs(a) < 0.85]
        f = conf.blaschke_product(zeros, theta=rng.uniform(0, 2 * math.pi))
        rep = conf.cartan_check(Disk(), f, 0, tol=1e-9)
        if rep.deriv_modulus > 1 + 1e-9:
            bound_ok = False
        if abs(rep.deriv_modulus - 1) <= 1e-9 and zeros:
            equality_only_rotations = False

    sq = conf.HoloSelfMap(Disk(), lambda z: np.asarray(z, complex) ** 2,
                          tag="square")
    verdict = conf.watt_check(Disk(), sq, 0, 0.5, tol=1e-6)
    gap_ok = (verdict.kind == "contraction_witness"
              and abs(verdict.gap - WATT_GAP) <= 1e-6)

    n_iso = 40 if quick else 100
    iso_ok = True
    for _ in range(n_iso):
        r = rng.uniform(0.02, 0.6)
        on_circle = rng.uniform() < 0.5
        mod_val = math.sqrt(r) if on_circle else math.exp(
            rng.uniform(math.log(r) * 0.95, -0.05))
        p = mod_val * complex(np.exp(2j * math.pi * rng.uniform()))
        rep = conf.isotropy_group(r, p)
        if rep.order not in (1, 2) or any(abs(m - 1) > 1e-9
                                          for m in rep.derivative_moduli):
            iso_ok = False

    from .mobius import FixedKind

    rigidity_ok = True
    desc = conf.annulus_automorphisms(0.1)
    for theta in np.linspace(0.1, 2 * math.pi - 0.1, 25):
        fixed = desc.rotation(float(theta)).mobius.fixed_points()
        if any(not is_infinity(p) and 0.1 < abs(p) < 1.0 for p in fixed.points):
            rigidity_ok = False  # a nontrivial rotation fixing an annulus point
        fixed = desc.inversion(float(theta)).mobius.fixed_points()
        if fixed.kind != FixedKind.TWO:
            rigidity_ok = False  # inversions fix exactly two points

    passed = bound_ok and equality_only_rotations and gap_ok and iso_ok \
        and rigidity_ok
    return CriterionResult(10, "selfmap-rigidity", passed,
                           f"bound {bound_ok}, rotations-only "
                           f"{equality_only_rotations}, gap {verdict.gap:.9f}, "
                           f"isotropy {iso_ok}, rigidity {rigidity_ok}",
                           f"gap {WATT_GAP:.9f} +- 1e-06, all True")


def criterion_11(quick: bool = False) -> CriterionResult:
    """Canonical annulus radius from the grid modulus, with invariance."""
    spacing = 0.02 if quick else 0.01
    tol = 0.05 if quick else 0.02
    ga = grid_annulus(0.25, spacing)
    inner = mod.bounded_complement_label(ga)
    modulus = mod.conformal_modulus(ga, inner, 3 - inner)
    rhat = mod.canonical_annulus_radius(modulus)
    radius_err = abs(rhat - 0.25) / 0.25

    def moved(z):
        w = (z - (0.11 + 0.06j)) * np.exp(-0.5j) / 0.9
        return (np.abs(w) > 0.25) & (np.abs(w) < 1.0)

    gm = grid_from_predicate(moved, 0.9, spacing * 0.9, center=0.11 + 0.06j)
    inner_m = mod.bounded_complement_label(gm)
    modulus_m = mod.conformal_modulus(gm, inner_m, 3 - inner_m)
    invariance = abs(modulus_m - modulus) / modulus
    passed = radius_err <= tol and invariance <= 0.01
    return CriterionResult(11, "canonical-annulus", passed,
                           f"rhat {rhat:.4f} ({radius_err * 100:.2f}%), "
                           f"invariance {invariance * 100:.2f}%",
                           f"radius within {tol * 100:.0f}%, invariance within 1%")


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_all(quick: bool = False, stream=None):
    """Run every criterion, print one line each, return (results, exit_code).

    A criterion that raises (for example a TheoremViolation triggered deep
    in a pipeline) is reported as a FAIL line rather than aborting the
    remaining criteria.
    """
    import sys

    stream = stream or sys.stdout
    results = []
    for cid, criterion in enumerate(CRITERIA, start=1):
        try:
            result = criterion(quick=quick)
        except Exception as exc:
            result = CriterionResult(cid, criterion.__name__, False,
                                     f"{type(exc).__name__}: {exc}",
                                     "no exception")
        results.append(result)
        print(result.line(), file=stream)
    code = 0 if all(r.passed for r in results) else 2
    return results, code
