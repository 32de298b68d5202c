"""Closed-form catalog distances against 60-digit mpmath values.

The reference lifts both points by log in mpmath, sends the model to the
upper half-plane, tries the three deck translates next to q's principal
lift and evaluates sinh d = |u - v| / (2 sqrt(Im u Im v)) there; on the
disk and half-plane it evaluates the atanh forms.  It shares no code with
the library's kernels.  Every comparison is relative to max(1, d).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invmetrics import cli
from invmetrics.caratheodory import car_interval
from invmetrics.domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    contains,
    rasterize,
)
from invmetrics.kobayashi import distance_field, kob_distance
from invmetrics.poincare import halfplane_rho_vec, poincare_ball_euclidean, poincare_distance

mpmath = pytest.importorskip("mpmath")

REL = 1e-12


def exact(domain, p, q) -> float:
    return float(exact_digits(domain, p, q))


def exact_digits(domain, p, q):
    """The distance as a 60-digit mpmath number."""
    with mpmath.workdps(60):
        a = mpmath.mpc(p.real, p.imag)
        b = mpmath.mpc(q.real, q.imag)
        if isinstance(domain, Disk):
            return mpmath.atanh(abs(a - b) / abs(1 - a * mpmath.conj(b)))
        if isinstance(domain, HalfPlane):
            return mpmath.atanh(abs(a - b) / abs(a + mpmath.conj(b)))
        if isinstance(domain, PuncturedDisk):
            def upper(w):
                return -1j * w
        else:
            log_r = mpmath.log(domain.r)

            def upper(w):
                return mpmath.exp(1j * mpmath.pi * (w - log_r) / -log_r)
        u = upper(mpmath.log(a))
        best = None
        for k in (-1, 0, 1):
            v = upper(mpmath.log(b) + 2j * mpmath.pi * k)
            d = mpmath.asinh(abs(u - v) / (2 * mpmath.sqrt(u.imag * v.imag)))
            best = d if best is None else min(best, d)
        return best


def assert_exact(domain, p, q):
    value = kob_distance(domain, p, q).upper
    want = exact(domain, p, q)
    assert abs(value - want) <= REL * max(1.0, want), (domain, p, q, value, want)
    return value


@given(st.floats(0.6, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=60, deadline=None)
@example(r=0.6, sp=0.5, sq=0.0, tp=0.0, tq=1.1875)  # q 4.7e-17 inside the inner wall
def test_thin_annuli(r, sp, sq, tp, tq):
    domain = Annulus(r)
    p = cmath.rect(r ** (1 - sp), tp)
    q = cmath.rect(r ** (1 - sq), tq)
    if contains(domain, p) and contains(domain, q) and p != q:
        assert_exact(domain, p, q)


def _near_wall_pairs():
    rng = np.random.default_rng(7)
    for gap in (1e-12, 1e-10, 1e-8, 1e-6):
        for r in (0.05, 0.3, 0.7, 0.9):
            for m in (1 - gap, r * (1 + gap)):
                p = cmath.rect(m, rng.uniform(-math.pi, math.pi))
                q = cmath.rect(r ** rng.uniform(0.1, 0.9), rng.uniform(-math.pi, math.pi))
                yield Annulus(r), p, q
        yield PuncturedDisk(), cmath.rect(1 - gap, rng.uniform(-math.pi, math.pi)), 0.3j
        yield Disk(), cmath.rect(1 - gap, rng.uniform(-math.pi, math.pi)), 0.2 - 0.1j
        yield HalfPlane(), complex(-gap, rng.uniform(-3, 3)), -0.5 + 1j


@pytest.mark.parametrize("domain,p,q", list(_near_wall_pairs()))
def test_points_near_each_wall(domain, p, q):
    assert_exact(domain, p, q)


@pytest.mark.parametrize("domain,p,q", [
    (Annulus(0.1), 1 - 1e-12, -(1 - 1e-12)),
    (Annulus(0.1), 0.1 * (1 + 1e-12), -(1 - 1e-12)),
    (Annulus(0.9), cmath.rect(0.9 * (1 + 1e-11), 0.5), cmath.rect(1 - 1e-11, -2.0)),
    (PuncturedDisk(), 1 - 1e-12, -(1 - 1e-12)),
    (Disk(), 1 - 1e-12, -(1 - 1e-12)),
    (HalfPlane(), -1e-12, -1e-12 + 1j),
    # s = sinh(a) / sqrt(heights) overflows at a = 692, which the kernel
    # read as an infinite distance while it switched forms at a = 700
    (Annulus(0.9953123455163939), -0.5106530004721604 - 0.859786899823892j,
     -0.5106530004721604 + 0.859786899823892j),
])
def test_distances_above_19(domain, p, q):
    assert assert_exact(domain, p, q) > 19.0
    assert exact_digits(domain, p, q) in kob_distance(domain, p, q)


def test_boundary_pairs_have_values():
    edge = 1 - 1e-12
    assert poincare_distance(edge, -edge) == pytest.approx(
        exact(Disk(), complex(edge), complex(-edge)), rel=REL)
    assert kob_distance(HalfPlane(), -1e-12, -1e-12 + 1j).upper == pytest.approx(
        exact(HalfPlane(), complex(-1e-12), complex(-1e-12, 1)), rel=REL)


def test_halfplane_heights_whose_product_underflows():
    # Re p Re q = 1e-600 is below the float range; atanh of the ratio in
    # exact() would need 600 digits, so the reference is the asinh form
    p, q = complex(-1e-300), complex(-1e-300, 1)
    with mpmath.workdps(60):
        a, b = mpmath.mpc(p.real, p.imag), mpmath.mpc(q.real, q.imag)
        want = float(mpmath.asinh(abs(a - b) / (2 * mpmath.sqrt(a.real * b.real))))
    assert want == pytest.approx(690.775527898213705, rel=1e-15)
    assert kob_distance(HalfPlane(), p, q).upper == pytest.approx(want, rel=REL)


@pytest.mark.parametrize("p,q", [
    (-1e-320, -1e-320 + 1j),
    (-5e-324, -5e-324 + 1e300j),
    (-1e-310, -2e-315 + 3j),
])
def test_halfplane_subnormal_real_parts(p, q):
    # |z - w| / (2 sqrt(-Re z) sqrt(-Re w)) overflows: the kernel takes
    # asinh in log form there, and its bound covers that form
    p, q = complex(p), complex(q)
    with mpmath.workdps(60):
        a, b = mpmath.mpc(p.real, p.imag), mpmath.mpc(q.real, q.imag)
        want = mpmath.asinh(abs(a - b) / (2 * mpmath.sqrt(a.real * b.real)))
    interval = kob_distance(HalfPlane(), p, q)
    assert want in interval
    assert interval.width <= 1e-14 * interval.upper


@pytest.mark.parametrize("p,q", [
    (-1 + 1e308j, -1 - 1e308j),
    (-1 + 1.7e308j, -1 - 1.7e308j),
    (-1e-320 + 1.7e308j, -2.5 - 1.7e308j),
    (-1.7e308 + 1.7e308j, -1e-300 - 1.7e308j),
    (-1e305 + 1e308j, -1e305 - 1e308j),
    (-1.6e308 + 0.8e308j, -1e-300 - 0.8e308j),
    (-1.7e308 + 1j, -1.7e308 - 1j),
    (-1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j),
])
def test_halfplane_coordinates_near_the_float_limit(p, q):
    # z - w or 2 sqrt(-Re z) sqrt(-Re w) overflows: the kernel forms s from
    # 4 |z/4 - w/4| and sqrt(-Re z) sqrt(-Re w) and takes the asinh form
    # below s = 2^1023 (asinh 1000 for the pair at -1e305), the log form
    # past it; its bound covers either.  The Cayley map of car_interval
    # must not overflow either
    p, q = complex(p), complex(q)
    with mpmath.workdps(60):
        a, b = mpmath.mpc(p.real, p.imag), mpmath.mpc(q.real, q.imag)
        want = mpmath.asinh(abs(a - b) / (2 * mpmath.sqrt(a.real * b.real)))
    interval = kob_distance(HalfPlane(), p, q)
    assert want in interval
    assert interval.width <= 1e-14 * interval.upper
    assert want in car_interval(HalfPlane(), p, q)


def test_halfplane_kernel_rows_are_independent():
    # one batch mixing a zero distance, the asinh and log forms and both
    # overflows gives each row the value it has alone, with no warning
    pairs = [(-1 + 0j, -1 + 0j), (-0.5 + 0.2j, -1.3 - 0.7j), (-1e-320 + 0j, -1e-320 + 1j),
             (-1e305 + 1e308j, -1e305 - 1e308j), (-1 + 1.7e308j, -1 - 1.7e308j),
             (-1.7e308 + 1j, -1.7e308 - 1j)]
    z, w = (np.array(column) for column in zip(*pairs))
    alone = [float(halfplane_rho_vec(p, q)) for p, q in pairs]
    assert halfplane_rho_vec(z, w).tolist() == alone
    assert alone[0] == 0.0


@pytest.mark.parametrize("gap, radius", [(1e-12, 14.0), (1e-9, 10.5), (1e-6, 7.0), (0.5, 20.0),
                                         (1e-12, 1e-3)])
def test_euclidean_ball_next_to_the_rim(gap, radius):
    # with 1 - |c|^2 and sech^2 R of one size, 1 - tanh^2 R |c|^2 cancels;
    # the centre and radius must keep their digits there
    c = cmath.rect(1.0 - gap, 0.7)
    centre, rho = poincare_ball_euclidean(c, radius)
    with mpmath.workdps(60):
        z, t = mpmath.mpc(c.real, c.imag), mpmath.tanh(radius)
        den = 1 - t * t * abs(z) ** 2
        want_centre, want_rho = z * (1 - t * t) / den, t * (1 - abs(z) ** 2) / den
    assert abs(rho - want_rho) <= 1e-14 * want_rho
    assert abs(centre - complex(want_centre)) <= 1e-14 * abs(want_centre)


@st.composite
def regime_pairs(draw, kind):
    """(regime, domain, p, q) in one of the hard regimes: thin annuli (r up to
    0.9999, annulus only), a point 1e-12 (relative) from a wall, both
    points next to walls and far apart (d > 19), and ordinary pairs."""
    regimes = ["wall", "far", "ordinary"] + (["thin"] if kind == "annulus" else [])
    regime = draw(st.sampled_from(regimes))
    if kind == "annulus":
        r = 1 - 10 ** draw(st.floats(-4, -1)) if regime == "thin" else draw(st.floats(0.01, 0.9))
        domain = Annulus(r)
    else:
        domain = {"disk": Disk(), "halfplane": HalfPlane(), "punctured": PuncturedDisk()}[kind]

    def angle():
        return draw(st.floats(-math.pi, math.pi))

    def ordinary():
        if kind == "disk":
            return cmath.rect(draw(st.floats(0.0, 0.99)), angle())
        if kind == "halfplane":
            return complex(-math.exp(draw(st.floats(-3, 1))), draw(st.floats(-3, 3)))
        if kind == "punctured":
            return cmath.rect(math.exp(draw(st.floats(math.log(1e-3), math.log(0.99)))), angle())
        return cmath.rect(r ** draw(st.floats(0.01, 0.99)), angle())

    def at_wall(gap, theta, inner):
        if kind == "halfplane":
            return complex(-gap, theta)
        if inner and kind != "disk":
            return cmath.rect(r * (1 + gap) if kind == "annulus" else gap, theta)
        return cmath.rect(1 - gap, theta)

    if regime == "wall":
        p = at_wall(1e-12 * draw(st.floats(1, 10)), angle(), draw(st.booleans()))
        return regime, domain, p, ordinary()
    if regime == "far":
        # half a turn or more apart next to the walls (the outer one on the
        # punctured disk, as points next to the puncture are near each other)
        inner = kind == "annulus" and draw(st.booleans())
        theta = angle()
        gap = st.floats(1e-12, 1e-10)
        p = at_wall(draw(gap), theta, inner)
        q = at_wall(draw(gap), theta + draw(st.floats(math.pi / 2, 3 * math.pi / 2)),
                    inner != (kind == "annulus" and draw(st.booleans())))
        return regime, domain, p, q
    p = ordinary()
    if regime == "thin" and draw(st.booleans()):
        # a small angle apart, where k = pi / 2L magnifies the angles' rounding
        return regime, domain, p, cmath.rect(r ** draw(st.floats(0.01, 0.99)),
                                             cmath.phase(p) + 10 ** draw(st.floats(-8, 0)))
    return regime, domain, p, ordinary()


@pytest.mark.parametrize("kind", ["disk", "halfplane", "punctured", "annulus"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_interval_encloses_the_exact_value(kind, data):
    # compared with the 60-digit value itself, not with its float rounding
    regime, domain, p, q = data.draw(regime_pairs(kind))
    assume(contains(domain, p) and contains(domain, q) and p != q)
    interval = kob_distance(domain, p, q)
    want = exact_digits(domain, p, q)
    assert interval.certified
    assert want in interval, (domain, p, q)
    assert regime != "far" or want > 19
    if kind in ("disk", "punctured"):
        # the dictionary is exact there: the Caratheodory distance is rho(p, q)
        assert car_interval(domain, p, q).lower <= exact_digits(Disk(), p, q), (p, q)


def test_thin_annulus_counterexample():
    # points quoted to four decimals with the true value 7.4223: it must lie
    # within the range the distance takes over the rounding box of the inputs
    p, q = 0.2539 - 0.9444j, -0.3880 - 0.7657j
    assert_exact(Annulus(0.838), p, q)
    corners = [kob_distance(Annulus(0.838 + e * 5e-4), p + complex(a, b) * 5e-5,
                            q + complex(c, d) * 5e-5).upper
               for e in (-1, 1) for a in (-1, 1) for b in (-1, 1)
               for c in (-1, 1) for d in (-1, 1)]
    assert min(corners) <= 7.4223 <= max(corners)


def test_cli_interval_holds_true_value(capsys):
    p, q = 0.2538897 - 0.9443621j, -0.3880236 - 0.7656528j
    assert assert_exact(Annulus(0.8), p, q) == pytest.approx(5.82620996, abs=5e-9)
    code = cli.main(["dist", "--domain", "annulus:0.8", "--p", "0.2538897,-0.9443621",
                     "--q", "-0.3880236,-0.7656528"])
    assert code == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(fields["lower"]) <= 5.82620996 <= float(fields["upper"])
    assert fields["certified"] == "true"


def _accepted_near_walls(domain, inner):
    """Points one to four float steps inside each boundary circle that
    ``contains`` accepts, at many angles."""
    steps = np.arange(1, 5)
    mods = 1 - steps * 2.0 ** -53
    if inner:
        mods = np.concatenate([mods, inner * (1 + steps * 2.0 ** -52)])
    z = (mods[:, None] * np.exp(1j * np.linspace(-math.pi, math.pi, 64))[None, :]).ravel()
    z = np.concatenate([z, mods.astype(complex)])
    return z[domain.contains(z)]


@pytest.mark.parametrize("domain,inner", [
    (Annulus(0.35), 0.35),
    (Annulus(0.9), 0.9),
    (Annulus(1e-3), 1e-3),
    (PuncturedDisk(), None),
    (Disk(), None),
])
def test_kernel_is_finite_on_every_accepted_point(domain, inner):
    z = _accepted_near_walls(domain, inner)
    assert z.size > 100
    for center in (z[0], z[-1], 0.95):
        d = domain.distance(domain.lift(center), domain.lift(z))
        assert np.isfinite(d).all()


def test_raster_field_is_finite_inside():
    # Annulus(0.35) at spacing 0.01 has a raster cell at |z| = 0.35000000000000003
    domain = Annulus(0.35)
    grid = rasterize(domain, 0.01)
    field = distance_field(domain, 0.6, grid)
    assert np.isfinite(field[grid.mask]).all()
