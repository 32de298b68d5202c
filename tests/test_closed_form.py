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
from hypothesis import given, settings
from hypothesis import strategies as st

from invmetrics import cli
from invmetrics.domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    contains,
    contains_vec,
    covering_atlas,
    rasterize,
)
from invmetrics.kobayashi import distance_field, kob_distance, lift_infimum_vec, lift_points
from invmetrics.poincare import poincare_distance

mpmath = pytest.importorskip("mpmath")

REL = 1e-12


def exact(domain, p, q) -> float:
    with mpmath.workdps(60):
        a = mpmath.mpc(p.real, p.imag)
        b = mpmath.mpc(q.real, q.imag)
        if isinstance(domain, Disk):
            return float(mpmath.atanh(abs(a - b) / abs(1 - a * mpmath.conj(b))))
        if isinstance(domain, HalfPlane):
            return float(mpmath.atanh(abs(a - b) / abs(a + mpmath.conj(b))))
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
        return float(best)


def assert_exact(domain, p, q):
    value = kob_distance(domain, p, q).upper
    want = exact(domain, p, q)
    assert abs(value - want) <= REL * max(1.0, want), (domain, p, q, value, want)
    return value


@given(st.floats(0.6, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=60, deadline=None)
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
])
def test_distances_above_19(domain, p, q):
    assert assert_exact(domain, p, q) > 19.0


def test_boundary_pairs_have_values():
    edge = 1 - 1e-12
    assert poincare_distance(edge, -edge) == pytest.approx(
        exact(Disk(), complex(edge), complex(-edge)), rel=REL)
    assert kob_distance(HalfPlane(), -1e-12, -1e-12 + 1j).upper == pytest.approx(
        exact(HalfPlane(), complex(-1e-12), complex(-1e-12, 1)), rel=REL)


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
    return z[contains_vec(domain, z)]


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
    atlas = covering_atlas(domain)
    for center in (z[0], z[-1], 0.95):
        d = lift_infimum_vec(atlas, lift_points(domain, center), lift_points(domain, z))
        assert np.isfinite(d).all()


def test_raster_field_is_finite_inside():
    # Annulus(0.35) at spacing 0.01 has a raster cell at |z| = 0.35000000000000003
    domain = Annulus(0.35)
    grid = rasterize(domain, 0.01)
    field = distance_field(domain, 0.6, grid)
    assert np.isfinite(field[grid.mask]).all()
