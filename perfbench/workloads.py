"""The three benchmark workloads: inputs, operations and answer checks.

A workload builds its fixtures in ``setup`` and a few cycle variants of
operations from the seed.  The runner replays whole rounds of cycles
(variant ``j % VARIANTS`` on the j-th cycle), so every run executes the
same inputs in the same proportions and its percentiles do not depend on
where the clock stopped.  An operation's ``call`` is the timed part; its ``check`` runs
after the timed loop and returns a description of what is wrong with the
answer, or None.

Library functions are looked up through their modules at call time (for
example ``lib.kobayashi.kob_distance``) so that the traced run's wrappers,
installed after setup, see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle

VARIANTS = 4

# Pinned tolerances, each taken from the library's own default or from the
# acceptance criterion that checks the same quantity.
DIST_TOL = 1e-9          # kob_distance(tol=1e-9): exact or certified to this
CLI_REL = 5e-9           # nine significant digits on the CLI
GEODESIC_REL = 1e-3      # acceptance C3: geodesic length vs deck value
SELFMAP_TOL = 1e-6       # cartan_check / watt_check default tol, C10 Watt gap
ISOTROPY_TOL = 1e-9      # C10: isotropy derivative moduli
MODULUS_RADIUS_REL = 0.02  # C11: canonical radius within 2% at spacing 0.01
INNER_TOL = 5e-3         # C7: inner distance vs exact disk distance

# Fixed design seed of the point-queries panel; see PointQueries.
PANEL_SEED = 20251017


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


class CliFailure(Exception):
    """The CLI exited non-zero; ``type_name`` is the error class it printed."""

    def __init__(self, type_name: str, message: str):
        super().__init__(message)
        self.type_name = type_name


exact = functools.lru_cache(maxsize=None)(oracle.exact_distance)


def _slack(t: float) -> float:
    return DIST_TOL * max(1.0, t)


def check_exact_interval(kind, r, p, q, lower, upper):
    """The interval must hold the true distance and be tight to ``DIST_TOL``."""
    t = exact(kind, r, p, q)
    if lower > t + _slack(t) or not (abs(upper - t) <= _slack(t)):
        return f"[{lower!r}, {upper!r}] vs true {t!r}"
    return None


def _make_domain(lib, kind, r):
    d = lib.domains
    return {"disk": d.Disk, "halfplane": d.HalfPlane,
            "punctured": d.PuncturedDisk}[kind]() if kind != "annulus" else d.Annulus(r)


# ---------------------------------------------------------------------------
# catalog-balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallTemplate:
    kind: str
    r: float | None
    center_modulus: float
    radius: float
    export: bool = False


class CatalogBalls:
    """Ball raster at spacing 0.01, its connectivity number and its nerve.

    The seed rotates the center of the disk, punctured-disk and small
    annulus ball to a new angle per cycle variant, which moves every raster
    cell relative to the ball.  Annulus balls with R > 1.2 reach the rim
    cells, where the raster is coarse against the cover scale; their nerve
    rank flips with the raster alignment (even under the raster's own
    symmetries), so drawing their angle per seed would make the failure
    count depend on the seed.  They take fixed angles from ``PANEL_SEED``
    and show the defect at the same share in every run.  Annulus centers
    sit on the core circle |c| = sqrt(r); Annulus(0.1) at R = 2.5 and
    Annulus(0.05) at R = 2.0 wrap the hole, the others do not, and every
    radius is at least 10% away from its wrapping threshold.
    """

    name = "catalog-balls"
    tail_pct = 100 * 6.5 / 9    # the middle of the 7th of 9 ops by cost
    spacing = 0.01
    # Three cheap balls, three near 0.2 s and three heavy ones, so that the
    # median falls inside a group of similar ops.
    templates = (
        BallTemplate("annulus", 0.1, math.sqrt(0.1), 2.5),
        BallTemplate("disk", None, 0.4, 1.0, export=True),
        BallTemplate("annulus", 0.1, math.sqrt(0.1), 1.5),
        BallTemplate("annulus", 0.35, math.sqrt(0.35), 1.0),
        BallTemplate("annulus", 0.05, math.sqrt(0.05), 2.0),
        BallTemplate("annulus", 0.2, math.sqrt(0.2), 1.5),
        BallTemplate("punctured", None, 0.5, 0.5),
        BallTemplate("annulus", 0.2, math.sqrt(0.2), 2.0, export=True),
        BallTemplate("annulus", 0.5, math.sqrt(0.5), 2.0),
    )

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def setup(self):
        self.variants = []
        for v in range(VARIANTS):
            drawn = np.random.default_rng([self.seed, v])
            fixed = np.random.default_rng([PANEL_SEED, v])
            self.variants.append([
                self._op(t, float((fixed if self.fixed_angle(t) else drawn)
                                  .uniform(-math.pi, math.pi)))
                for t in self.templates])

    @staticmethod
    def fixed_angle(t: BallTemplate) -> bool:
        return t.kind == "annulus" and t.radius > 1.2

    @staticmethod
    def cover_radius(t: BallTemplate) -> float:
        """The acceptance suite's 0.7, shrunk to 0.3 of the injectivity bound."""
        if t.kind == "annulus":
            inj = math.pi ** 2 / (2 * -math.log(t.r))
        elif t.kind == "punctured":
            # the ball reaches in along its ray to log-modulus x_c * e^(2R)
            x_in = math.log(t.center_modulus) * math.exp(2 * t.radius)
            inj = math.asinh(math.pi / abs(x_in)) / 2
        else:
            return 0.7
        return min(0.7, 0.3 * inj)

    def _op(self, t: BallTemplate, angle: float) -> Op:
        lib = self.lib
        domain = _make_domain(lib, t.kind, t.r)
        center = cmath.rect(t.center_modulus, angle)
        r_cover = self.cover_radius(t)
        wraps = 2 * t.radius > oracle.deck_self_distance(t.kind, t.r, center)
        spacing = self.spacing

        def call():
            ball = lib.kobayashi.kob_ball_raster(domain, center, t.radius, spacing)
            conn = lib.topology.connectivity_number(ball.mask)
            nerve = lib.topology.nerve_cover(domain, ball, r_cover)
            saved = svg = None
            if t.export:
                saved = lib.kobayashi.ball_save(ball)
                svg = lib.render.render_ball_svg(
                    lib.domains.rasterize(domain, spacing).mask, ball.mask)
            return ball, conn, nerve, saved, svg

        def check(result):
            ball, conn, nerve, saved, svg = result
            problems = []
            cells = ball.centers
            inside = oracle.inside(t.kind, t.r, cells)
            with np.errstate(all="ignore"):
                d = np.where(inside, oracle.distance_row(t.kind, t.r, center, cells), np.inf)
            want = d < t.radius
            clear = np.abs(d - t.radius) > DIST_TOL * t.radius
            idx = (int(math.floor((center.real - ball.origin.real) / ball.spacing + 0.5)),
                   int(math.floor((center.imag - ball.origin.imag) / ball.spacing + 0.5)))
            clear[idx[1], idx[0]] = False   # the center cell is always in
            bad = int(((ball.mask != want) & clear).sum())
            if bad:
                problems.append(f"{bad} raster cells misclassified")
            expected_loops = 1 if wraps else 0
            if conn != expected_loops:
                problems.append(f"connectivity {conn}, expected {expected_loops}")
            if nerve.cycle_rank != expected_loops:
                problems.append(f"nerve cycle rank {nerve.cycle_rank}, expected {expected_loops}")
            if saved is not None:
                payload = json.loads(saved)
                rows = ["".join("1" if v else "0" for v in row) for row in ball.mask]
                if payload["rows"] != rows or payload["radius"] != t.radius:
                    problems.append("ball_save does not round-trip the raster")
                ball_cells = sum(int(part.split('width="')[1].split('"')[0])
                                 for part in svg.split("<rect ")[1:]
                                 if 'fill="#3b6fd4"' in part)
                if not svg.rstrip().endswith("</svg>") or ball_cells != ball.cell_count():
                    problems.append(f"svg paints {ball_cells} ball cells, raster has "
                                    f"{ball.cell_count()}")
            return "; ".join(problems) or None

        return Op(f"ball/{t.kind}" + (f"{t.r:g}" if t.r else "") + f"/R{t.radius:g}", call, check)

    def oracle_spot_checks(self, rng) -> list[str]:
        """Float rows against mpmath at random points of every template's domain."""
        problems = []
        for t in self.templates:
            center = cmath.rect(t.center_modulus, 0.3)
            for _ in range(3):
                z = cmath.rect(rng.uniform(0.05, 0.99), rng.uniform(-math.pi, math.pi))
                if not oracle.inside(t.kind, t.r, z):
                    continue
                want = exact(t.kind, t.r, center, z)
                got = float(oracle.distance_row(t.kind, t.r, center, z))
                if not abs(got - want) <= 1e-11 * max(1.0, want):
                    problems.append(f"float row {t.kind} {t.r}: {got!r} vs {want!r}")
        return problems


# ---------------------------------------------------------------------------
# grid-domains
# ---------------------------------------------------------------------------

def _winding(vertices2, qx, qy, chunk=2048) -> np.ndarray:
    """Winding numbers of a doubled-lattice polygon around integer points."""
    v = np.asarray(vertices2, dtype=np.int64)
    x1, y1 = v[:, 0][:, None], v[:, 1][:, None]
    x2, y2 = np.roll(v[:, 0], -1)[:, None], np.roll(v[:, 1], -1)[:, None]
    out = []
    for i in range(0, len(qx), chunk):
        px, py = np.asarray(qx[i:i + chunk])[None, :], np.asarray(qy[i:i + chunk])[None, :]
        cross = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
        up = (y1 <= py) & (py < y2) & (cross > 0)
        down = (y2 <= py) & (py < y1) & (cross < 0)
        out.append(up.sum(axis=0) - down.sum(axis=0))
    return np.concatenate(out)


class GridDomains:
    """Raster domains: pants and ring grids at spacing 0.01 and 0.005.

    The seed places each fixture: the pants grid (unit disk minus two
    disks of radius 0.25) is rotated and shifted, the ring grid (round
    annulus of ratio 0.25, scaled by 0.9 with the spacing scaled alike, as
    in acceptance C11) is shifted.  Query points are drawn per cycle
    variant.  The cold path decodes a grid_save payload inside the timed
    call, so it pays the codec, distance transform, dictionary and graph
    build that the resident grids already hold.
    """

    name = "grid-domains"
    tail_pct = 100 * 15.5 / 19  # the middle of the 16th of 19 ops by cost
    ring_ratio = 0.25
    ring_scale = 0.9

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def setup(self):
        lib = self.lib
        rng = np.random.default_rng([self.seed, 1000])
        turn = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        shift = complex(*rng.uniform(-0.05, 0.05, 2))
        ring_center = complex(*rng.uniform(-0.1, 0.1, 2))

        def pants_pred(z):
            w = (z - shift) / turn
            return (np.abs(w) < 1.0) & (np.abs(w - 0.45) > 0.25) & (np.abs(w + 0.45) > 0.25)

        def ring_pred(z):
            m = np.abs(z - ring_center) / self.ring_scale
            return (m > self.ring_ratio) & (m < 1.0)

        gfp = lib.domains.grid_from_predicate
        self.grids = {
            "pants01": gfp(pants_pred, 1.05, 0.01, center=shift),
            "pants005": gfp(pants_pred, 1.05, 0.005, center=shift),
            "ring01": gfp(ring_pred, self.ring_scale, 0.01 * self.ring_scale,
                          center=ring_center),
            "ring005": gfp(ring_pred, self.ring_scale, 0.005 * self.ring_scale,
                           center=ring_center),
        }
        self.payloads = {k: lib.domains.grid_save(self.grids[k])
                         for k in ("pants01", "ring005")}
        for g in self.grids.values():   # resident grids hold graph and dictionary
            p, q = self._points(g, np.random.default_rng(0), 2)
            lib.kobayashi.kob_distance(g, p, q)
        # the first solve in a process pays a one-off start-up (about 1 s at
        # spacing 0.005); a long-lived caller pays it once, so set-up does
        self._modulus("ring01").call()
        self.variants = [self._cycle(np.random.default_rng([self.seed, v]))
                         for v in range(VARIANTS)]

    @staticmethod
    def _points(grid, rng, count):
        iy, ix = np.nonzero(grid.mask)
        pick = rng.integers(0, ix.size, count)
        jitter = rng.uniform(-0.4, 0.4, (count, 2)) * grid.spacing
        return [grid.cell_center(int(ix[k]), int(iy[k])) + complex(*jitter[i])
                for i, k in enumerate(pick)]

    def _cycle(self, rng):
        # By cost: eight ops under 50 ms, three near 50 ms (the median), and
        # eight from 0.1 s to 3 s; the tail percentile sits on the 0.01
        # inner-distance op, the fourth from the top.
        return [
            self._kob("pants005", rng), self._inner(0.01, 8, rng),
            self._kob("pants01", rng), self._modulus("ring005"),
            self._kob_cold("pants01", rng), self._car_ball("pants01", rng),
            self._kob("ring005", rng), self._separating("pants005"),
            self._kob("pants01", rng), self._modulus("ring01"),
            self._kob("ring01", rng), self._car_ball("pants005", rng),
            self._kob_cold("ring005", rng), self._separating("pants01"),
            self._kob("pants01", rng), self._inner(0.005, 4, rng),
            self._kob("pants01", rng), self._kob("pants005", rng),
            self._kob("pants01", rng),
        ]

    def _kob(self, key, rng) -> Op:
        lib, grid = self.lib, self.grids[key]
        p, q = self._points(grid, rng, 2)

        def check(res):
            if not (0.0 <= res.lower <= res.upper and math.isfinite(res.upper)):
                return f"interval [{res.lower!r}, {res.upper!r}]"
            return None

        return Op("grid_kob/resident", lambda: lib.kobayashi.kob_distance(grid, p, q), check)

    def _kob_cold(self, key, rng) -> Op:
        lib, grid, payload = self.lib, self.grids[key], self.payloads[key]
        p, q = self._points(grid, rng, 2)

        def call():
            return lib.kobayashi.kob_distance(lib.domains.grid_load(payload), p, q)

        def check(res):
            warm = lib.kobayashi.kob_distance(grid, p, q)
            if (res.lower, res.upper) != (warm.lower, warm.upper) or res.lower > res.upper:
                return f"decoded grid gives [{res.lower!r}, {res.upper!r}], " \
                       f"resident [{warm.lower!r}, {warm.upper!r}]"
            return None

        return Op("grid_kob/cold", call, check)

    def _modulus(self, key) -> Op:
        lib, grid = self.lib, self.grids[key]

        def call():
            inner = lib.modulus.bounded_complement_label(grid)
            return lib.modulus.conformal_modulus(grid, inner, 3 - inner)

        def check(m):
            rhat = math.exp(-2 * math.pi * m)
            if not abs(rhat - self.ring_ratio) <= MODULUS_RADIUS_REL * self.ring_ratio:
                return f"modulus {m!r} gives radius {rhat!r}, expected {self.ring_ratio}"
            return None

        return Op("modulus", call, check)

    def _separating(self, key) -> Op:
        lib, grid = self.lib, self.grids[key]
        labels, count, unbounded = grid.complement_labels
        holes = [lab for lab in range(1, count + 1) if lab != unbounded]

        def call():
            return lib.topology.separating_cycle(grid, holes[0], holes[1])

        def check(poly):
            for lab, want in ((holes[0], 1), (holes[1], 0)):
                ys, xs = np.nonzero(labels == lab)
                got = set(_winding(poly.vertices2, 2 * xs, 2 * ys).tolist())
                if got != {want}:
                    return f"winding {sorted(got)} around component {lab}, expected {want}"
            return None

        return Op("separating_cycle", call, check)

    def _car_ball(self, key, rng) -> Op:
        lib, grid = self.lib, self.grids[key]
        p, = self._points(grid, rng, 1)
        radius = float(rng.uniform(0.3, 1.0))

        def check(rep):
            ball = rep.ball_mask
            idx = grid.cell_index(p)
            if (ball & ~grid.mask).any() or not ball[idx[1], idx[0]]:
                return "ball leaves the domain or misses its center"
            if sum(c.cell_count for c in rep.components) != int(ball.sum()):
                return "components do not partition the ball"
            if any(c.relatively_compact and c.connectivity_number < 0
                   for c in rep.components):
                return "negative connectivity"
            return None

        return Op("car_ball_components",
                  lambda: lib.caratheodory.car_ball_components(grid, p, radius), check)

    def _inner(self, spacing, count, rng) -> Op:
        lib = self.lib
        disk = lib.domains.Disk()
        # One endpoint on |z| = 0.69 fixes the raster's extent, which the
        # farthest endpoint sets; the rest is acceptance C7's sampling.
        pairs = [(cmath.rect(0.69, rng.uniform(-math.pi, math.pi)),
                  cmath.rect(0.3, rng.uniform(-math.pi, math.pi)))]
        while len(pairs) < count:
            z, w = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
            if abs(z) < 0.7 and abs(w) < 0.7 and abs(z - w) > 0.05:
                pairs.append((z, w))

        def check(values):
            errs = [abs(v - exact("disk", None, z, w)) for v, (z, w) in zip(values, pairs)]
            if max(errs) > INNER_TOL:
                return f"inner distance error {max(errs):.3e}"
            return None

        return Op("inner_distance_many",
                  lambda: lib.kobayashi.inner_distance_many(disk, pairs, spacing), check)


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

def _lhs(rng, n, dims=6):
    """Latin hypercube: every column puts one point in each of n strata."""
    return (np.argsort(rng.random((dims, n)), axis=1).T + rng.random((n, dims))) / n


def _band_point(rng, r, lo=0.1, hi=0.9):
    """Annulus point whose log-modulus sits at a fraction in [lo, hi] of the band."""
    u = rng.uniform(lo, hi)
    return cmath.rect(r ** (1 - u), rng.uniform(-math.pi, math.pi))


def _edge_point(rng, r):
    """Point 1e-12 to 1e-6 (relative) from a boundary circle of the annulus."""
    eps = 10.0 ** rng.uniform(-12, -6)
    m = 1 - eps if (r is None or rng.uniform() < 0.5) else r * (1 + eps)
    return cmath.rect(m, rng.uniform(-math.pi, math.pi))


# Annulus radii of the drawn point queries: the midpoints of eight strata of
# (0.02, 0.6).  The deck enumeration's cost depends mostly on r, so a
# per-seed draw of the radii would move the median op with the seed.
RADII = tuple(0.02 + 0.58 * (k + 0.5) / 8 for k in range(8))


class PointQueries:
    """Scalar calls, one pair at a time, on every catalog domain.

    Each cycle is 122 drawn operations plus a fixed panel of 28.  The drawn
    ones change with the seed: annulus points on the eight ``RADII`` are
    kept in the middle 80% of the band, and 4 of the 20 disk and half-plane
    pairs have a point 1e-12..1e-6 from the boundary.  The panel is drawn
    once from ``PANEL_SEED`` and is the same for every seed: 16 thin annuli
    with r in (0.6, 0.9), 6 pairs with a point 1e-12..1e-6 from an annulus
    boundary, the four boundary pairs and the two counterexamples that
    ROADMAP.md lists.  That is where the library's known defects live
    (NonConvergence after about a second, bare ValueError, intervals that
    miss the true value), and their outcome there is not invariant under
    the domain's symmetries, so drawing it per seed would make the failure
    count, and with it every timing, depend on the seed.  Keeping it fixed
    keeps the defects in every run at a stated share.
    """

    name = "point-queries"
    tail_pct = 100 * 147.5 / 150  # the middle of the five NonConvergence ops
    thin_panel = 16
    edge_panel = 6

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def setup(self):
        for r in RADII:    # a caller with a fixed annulus reuses its dictionary
            self.lib.caratheodory.default_dictionary(self.lib.domains.Annulus(r))
        panel = self._panel(np.random.default_rng(PANEL_SEED))
        self.variants = []
        for v in range(VARIANTS):
            ops = self._drawn(np.random.default_rng([self.seed, v]))
            # spread the panel through the cycle
            step = len(ops) // len(panel)
            for i, op in enumerate(panel):
                ops.insert(i * (step + 1), op)
            self.variants.append(ops)

    # -- operation builders -------------------------------------------------

    def kob(self, kind, r, p, q) -> Op:
        lib = self.lib
        domain = _make_domain(lib, kind, r)
        return Op(f"kob_distance/{kind}",
                  lambda: lib.kobayashi.kob_distance(domain, p, q),
                  lambda res: check_exact_interval(kind, r, p, q, res.lower, res.upper))

    def car(self, kind, r, p, q) -> Op:
        lib = self.lib
        domain = _make_domain(lib, kind, r)

        def check(res):
            t = exact(kind, r, p, q)
            if res.lower > t + _slack(t) or not abs(res.upper - t) <= _slack(t):
                return f"[{res.lower!r}, {res.upper!r}] vs Kobayashi {t!r}"
            return None

        return Op(f"car_interval/{kind}",
                  lambda: lib.caratheodory.car_interval(domain, p, q), check)

    def geodesic(self, kind, r, p, q) -> Op:
        lib = self.lib
        domain = _make_domain(lib, kind, r)

        def check(path):
            v = np.asarray(path.vertices)
            t = exact(kind, r, p, q)
            ends = max(abs(v[0] - p), abs(v[-1] - q))
            length = float(oracle.distance_row(kind, r, v[:-1], v[1:]).sum())
            if not oracle.inside(kind, r, v).all():
                return "geodesic leaves the domain"
            if ends > 1e-9 * max(1.0, abs(p), abs(q)) or \
                    not abs(length - t) <= GEODESIC_REL * t:
                return f"length {length!r} vs {t!r}, endpoint error {ends:.2e}"
            return None

        return Op(f"geodesic/{kind}", lambda: lib.kobayashi.geodesic(domain, p, q), check)

    def cartan(self, zeros, theta) -> Op:
        lib = self.lib
        want = math.prod(abs(a) for a in zeros)

        def call():
            f = lib.conformal.blaschke_product(zeros, theta)
            return lib.conformal.cartan_check(lib.domains.Disk(), f, 0)

        def check(rep):
            if not abs(rep.deriv_modulus - want) <= SELFMAP_TOL \
                    or rep.is_contraction != (want < 1 - SELFMAP_TOL):
                return f"|f'(0)| {rep.deriv_modulus!r}, expected {want!r}"
            return None

        return Op("cartan_check", call, check)

    def watt_square(self, b) -> Op:
        lib = self.lib

        def call():
            disk = lib.domains.Disk()
            f = lib.conformal.HoloSelfMap(disk, lambda z: np.asarray(z, complex) ** 2,
                                          tag="square")
            return lib.conformal.watt_check(disk, f, 0, b)

        def check(v):
            gap = exact("disk", None, 0j, b) - exact("disk", None, 0j, b * b)
            if v.kind != "contraction_witness" or not abs(v.gap - gap) <= SELFMAP_TOL:
                return f"{v.kind} gap {v.gap!r}, expected contraction gap {gap!r}"
            return None

        return Op("watt_check/disk", call, check)

    def watt_inversion(self, r, theta, b) -> Op:
        lib = self.lib
        a = cmath.rect(math.sqrt(r), theta / 2)

        def call():
            domain = lib.domains.Annulus(r)
            g = lib.conformal.AutomorphismGroupDesc(domain).inversion(theta)
            f = lib.conformal.HoloSelfMap(domain, g, dfunc=g.derivative, tag=g.tag)
            return lib.conformal.watt_check(domain, f, a, b)

        def check(v):
            t = exact("annulus", r, a, b)
            if v.kind != "automorphism_certified" or not abs(v.d_ab - t) <= _slack(t):
                return f"{v.kind} d(a,b) {v.d_ab!r}, expected automorphism and {t!r}"
            return None

        return Op("watt_check/annulus", call, check)

    def isotropy(self, r, p, order) -> Op:
        lib = self.lib

        def check(rep):
            if rep.order != order or any(abs(m - 1) > ISOTROPY_TOL
                                         for m in rep.derivative_moduli):
                return f"order {rep.order}, expected {order}"
            return None

        return Op("isotropy_group", lambda: lib.conformal.isotropy_group(r, p), check)

    def cli(self, kind, r, p, q, metric="kobayashi") -> Op:
        lib = self.lib
        spec = {"disk": "disk", "halfplane": "halfplane", "punctured": "punctured",
                "annulus": f"annulus:{r!r}"}[kind]
        argv = ["dist", "--domain", spec, "--metric", metric,
                "--p", f"{p.real!r},{p.imag!r}", "--q", f"{q.real!r},{q.imag!r}"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)
            if code != 0:
                text = err.getvalue().strip().splitlines() or [f"exit {code}"]
                raise CliFailure(text[-1].split(":")[0], text[-1])
            return out.getvalue()

        def check(text):
            fields = dict(line.split(": ", 1) for line in text.strip().splitlines())
            lower, upper = float(fields["lower"]), float(fields["upper"])
            t = exact(kind, r, p, q)
            slack = _slack(t) + CLI_REL * t
            if lower > t + slack or not abs(upper - t) <= slack:
                return f"printed [{lower!r}, {upper!r}] vs true {t!r}"
            return None

        return Op(f"cli_dist/{kind}", call, check)

    # -- inputs ---------------------------------------------------------------

    def _pair(self, kind, u, edge=False):
        """A drawn pair (kind, r, p, q) away from the defect regime, from six
        uniforms ``u`` (one Latin-hypercube row)."""
        turn = math.pi * (2 * u[2] - 1)
        spread = math.pi * (2 * u[4] - 1)
        if kind == "annulus":
            r = RADII[int(u[0] * len(RADII))]
            p = cmath.rect(r ** (1 - (0.1 + 0.8 * u[1])), turn)
            q = cmath.rect(r ** (1 - (0.1 + 0.8 * u[3])), turn + spread)
            return kind, r, p, q
        if kind == "halfplane":
            p = complex(-math.exp(-3 + 4 * u[1]), 3 * turn / math.pi)
            q = complex(-math.exp(-3 + 4 * u[3]), 3 * spread / math.pi)
            if edge:
                p = complex(-10.0 ** (-12 + 6 * u[5]), p.imag)
            return kind, None, p, q
        if kind == "disk":
            p = cmath.rect(1 - 10.0 ** (-12 + 6 * u[5]) if edge else 0.95 * math.sqrt(u[1]),
                           turn)
            return kind, None, p, cmath.rect(0.95 * math.sqrt(u[3]), turn + spread)
        lo, hi = math.log(1e-3), math.log(0.95)
        return (kind, None, cmath.rect(math.exp(lo + (hi - lo) * u[1]), turn),
                cmath.rect(math.exp(lo + (hi - lo) * u[3]), turn + spread))

    def _drawn(self, rng) -> list[Op]:
        """The seeded part of a cycle; every kind's pairs are a Latin
        hypercube, so each variant covers the same ranges evenly."""
        def pairs(kind, count, edges=0):
            u = _lhs(rng, count)
            return [self._pair(kind, u[i], edge=i < edges) for i in range(count)]

        ops = []
        for kind, count in (("disk", 10), ("halfplane", 10), ("punctured", 10),
                            ("annulus", 30)):
            edges = 2 if kind in ("disk", "halfplane") else 0
            ops += [self.kob(*pair) for pair in pairs(kind, count, edges)]
        for kind, count in (("annulus", 9), ("punctured", 3), ("disk", 3)):
            ops += [self.car(*pair) for pair in pairs(kind, count)]
        for kind, count in (("annulus", 6), ("punctured", 2), ("halfplane", 2)):
            ops += [self.geodesic(*pair) for pair in pairs(kind, count)]
        for _ in range(6):
            zeros = [cmath.rect(rng.uniform(0.05, 0.85), rng.uniform(-math.pi, math.pi))
                     for _ in range(int(rng.integers(1, 4)))]
            ops.append(self.cartan(zeros, float(rng.uniform(0, 2 * math.pi))))
        for _ in range(3):
            ops.append(self.watt_square(
                cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(-math.pi, math.pi))))
        for _, r, _, b in pairs("annulus", 3):
            ops.append(self.watt_inversion(r, float(rng.uniform(0, 2 * math.pi)), b))
        for i in range(10):
            r = float(rng.uniform(0.02, 0.6))
            if i < 5:
                p, order = cmath.rect(math.sqrt(r), rng.uniform(-math.pi, math.pi)), 2
            else:
                p, order = _band_point(rng, r), 1
                if abs(abs(p) ** 2 - r) <= 1e-6 * r:
                    p, order = _band_point(rng, r, 0.6, 0.9), 1
            ops.append(self.isotropy(r, p, order))
        for kind, count in (("annulus", 8), ("punctured", 3), ("disk", 2),
                            ("halfplane", 2)):
            ops += [self.cli(*pair, metric="caratheodory" if i == 0 else "kobayashi")
                    for i, pair in enumerate(pairs(kind, count))]
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _panel(self, rng) -> list[Op]:
        ops = []
        for _ in range(self.thin_panel):
            r = float(rng.uniform(0.6, 0.9))
            ops.append(self.kob("annulus", r, _band_point(rng, r, 0, 1),
                                _band_point(rng, r, 0, 1)))
        for _ in range(self.edge_panel):
            r = float(rng.uniform(0.02, 0.6))
            ops.append(self.kob("annulus", r, _edge_point(rng, r), _band_point(rng, r)))
        edge = 1 - 1e-12
        ops += [self.kob("annulus", 0.1, edge + 0j, -edge + 0j),
                self.kob("punctured", None, edge + 0j, -edge + 0j),
                self.kob("disk", None, edge + 0j, -edge + 0j),
                self.kob("halfplane", None, -1e-12 + 0j, -1e-12 + 1j)]
        (r1, p1, q1, *_), (r2, p2, q2, *_) = oracle.COUNTEREXAMPLES
        ops += [self.kob("annulus", r1, p1, q1), self.cli("annulus", r2, p2, q2)]
        return ops


WORKLOADS = {w.name: w for w in (CatalogBalls, GridDomains, PointQueries)}
