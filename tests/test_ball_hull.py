"""Closed-form ball hulls and the rasters cropped to them.

``kob_ball_raster`` evaluates the distance only on the mask cells inside
the class's ``ball_hull``; these tests hold it to the uncropped reference,
``distance_field`` on every mask cell of the same frame thresholded at the
radius, with the centre cell always in.  The hulls themselves are checked
against the kernel: every point whose computed distance is below the
radius must pass the hull test, including points a float step inside the
ball's edge.  ``connectivity_number`` labels only the region's box, and is
checked against the full-frame count.
"""

import cmath
import math

import numpy as np
import pytest

from invmetrics.domains import (
    Annulus,
    Disk,
    HalfPlane,
    PuncturedDisk,
    complement_holes,
)
from invmetrics.errors import EmptyRegion, InvMetricsError, ValidationError
from invmetrics.kobayashi import ball_frame, distance_field, kob_ball_raster
from invmetrics.topology import connectivity_number

KINDS = ("disk", "halfplane", "punctured", "annulus")
SPACINGS = (0.04, 0.02, 0.01)


def near_wall(rng) -> float:
    """A relative gap within 1e-6 of a wall."""
    return 10.0 ** rng.uniform(-12, -6)


def random_ball(rng, kind):
    """(domain, centre, radius): a quarter of the centres within 1e-6 of a
    wall, radii log-uniform from 1e-3 to 1.5 times the wrap threshold on the
    covered domains (the radius where the ball meets its own deck translate)."""
    angle = rng.uniform(-math.pi, math.pi)
    wall = rng.uniform() < 0.25
    if kind == "disk":
        domain = Disk()
        c = cmath.rect(1.0 - near_wall(rng) if wall else 0.99 * math.sqrt(rng.uniform()), angle)
        top = 10.0
    elif kind == "halfplane":
        domain = HalfPlane()
        c = complex(-(near_wall(rng) if wall else 10.0 ** rng.uniform(-2, 0)), rng.uniform(-2, 2))
        # balls of Euclidean radius 0.05 to 0.5 (a frame at most 111 cells
        # across), and a fifth from R = 1e-3, most of them below a cell
        top = math.asinh(0.5 / -c.real) / 2.0
        if rng.uniform() < 0.8:
            bottom = math.asinh(0.05 / -c.real) / 2.0
            return domain, c, math.exp(rng.uniform(math.log(bottom), math.log(top)))
    else:
        domain = PuncturedDisk() if kind == "punctured" else Annulus(rng.uniform(0.01, 0.95))
        inner = getattr(domain, "r", 0.0)
        if wall and rng.uniform() < 0.5:
            m = inner * (1.0 + near_wall(rng)) if inner else near_wall(rng)
        elif wall:
            m = 1.0 - near_wall(rng)
        else:
            m = math.exp(rng.uniform(math.log(max(inner, 1e-4)), 0.0))
        c = cmath.rect(min(max(m, inner * (1.0 + 1e-12)), 1.0 - 1e-12), angle)
        top = 1.5 * domain.deck_loop_length(domain.lift(np.array([c]))) / 2.0
    return domain, c, 10.0 ** rng.uniform(-3.0, math.log10(max(top, 2e-3)))


def reference(domain, c, radius, spacing):
    """The uncropped raster: the frame ``kob_ball_raster`` builds, the
    distance on every mask cell, and the centre cell always in."""
    frame = ball_frame(domain, c, radius, spacing)
    want = distance_field(domain, c, frame) < radius
    idx = frame.cell_index(c)
    if idx is not None and frame.mask[idx[1], idx[0]]:
        want[idx[1], idx[0]] = True
    return frame, want


def outcome(call):
    try:
        return call()
    except InvMetricsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", KINDS)
def test_cropped_raster_is_the_reference(kind):
    rng = np.random.default_rng([29, KINDS.index(kind)])
    rasters = 0
    for _ in range(130):
        domain, c, radius = random_ball(rng, kind)
        spacing = SPACINGS[rng.integers(3)]
        ball = outcome(lambda: kob_ball_raster(domain, c, radius, spacing))
        want = outcome(lambda: reference(domain, c, radius, spacing))
        if isinstance(want, tuple) and not isinstance(want[1], np.ndarray):
            assert ball == want, (domain, c, radius, spacing)
            continue
        frame, want = want
        where = (domain, c, radius, spacing)
        assert ball.bits == np.packbits(want).tobytes(), where
        assert (ball.origin, ball.spacing, ball.shape) == (frame.origin, spacing, want.shape)
        if want.any():
            assert connectivity_number(ball.mask) == len(complement_holes(want)[1])
        rasters += 1
    # the frames that fail (coarse spacings on thin annuli, half-plane balls
    # smaller than a cell) must fail alike, but most balls are rasters
    assert rasters >= 100


def boundary_points(domain, c, radius, hull, rays=256):
    """Points whose computed distance from c is below the radius, each a
    float step or so inside a crossing of the ball's edge: a bisection along
    rays from c between a point inside and one outside the domain or the
    ball's hull disk."""
    wc = domain.lift(c)
    turn = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, rays, endpoint=False))
    far = 2.0 * (abs(c - hull.center) + hull.radius) if isinstance(domain, HalfPlane) else 4.0
    lo, hi = np.zeros(rays), np.full(rays, far)

    def below(t):
        z = c + t * turn
        ok = domain.contains(z)
        d = np.full(rays, np.inf)
        d[ok] = domain.distance(wc, domain.lift(z[ok]))
        return d < radius

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = below(mid)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    z = c + lo * turn
    return z[below(lo)]


def cloud(rng, domain, c, hull, n=4000):
    """Random points of the domain: half about the hull's disk, half over
    the domain's own extent."""
    spread = hull.radius * 1.5 + 1e-300
    near = hull.center + spread * np.sqrt(rng.uniform(size=n)) * np.exp(
        2j * math.pi * rng.uniform(size=n))
    if isinstance(domain, HalfPlane):
        wide = c + 4.0 * abs(c.real) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    else:
        wide = np.sqrt(rng.uniform(size=n)) * np.exp(2j * math.pi * rng.uniform(size=n))
    z = np.concatenate([near, wide])
    return z[domain.contains(z)]


@pytest.mark.parametrize("kind", KINDS)
def test_hull_holds_every_point_below_the_radius(kind):
    rng = np.random.default_rng([291, KINDS.index(kind)])
    for _ in range(120):
        domain, c, radius = random_ball(rng, kind)
        if isinstance(domain, HalfPlane):
            radius = min(radius, 300.0)  # past ~355 the disk is infinite
        hull = domain.ball_hull(c, radius)
        z = np.concatenate([cloud(rng, domain, c, hull), boundary_points(domain, c, radius, hull),
                            [c]])
        d = domain.distance(domain.lift(c), domain.lift(z))
        inside = z[d < radius]
        held = hull.contains(inside.real, inside.imag)
        assert held.all(), (domain, c, radius, inside[~held][:3])


def test_hull_is_the_ball_on_the_disk_and_half_plane():
    # there the hull is the ball itself: a point well outside it is outside
    for domain, c in ((Disk(), 0.3 - 0.5j), (HalfPlane(), -0.4 + 2.0j)):
        hull = domain.ball_hull(c, 0.7)
        rim = hull.center + hull.radius * np.exp(1j * np.linspace(0.0, 6.0, 32))
        np.testing.assert_allclose(domain.distance(domain.lift(c), domain.lift(rim)), 0.7,
                                   rtol=1e-12)
        out = hull.center + 1.001 * hull.radius * np.exp(1j * np.linspace(0.0, 6.0, 32))
        assert not hull.contains(out.real, out.imag).any()


@pytest.mark.parametrize("domain, c", [(PuncturedDisk(), 0.5j), (Annulus(0.2), -0.6),
                                       (Annulus(0.9), 0.95j)])
def test_sector_cut_is_tight_on_the_covered_domains(domain, c):
    # each bound of the annular sector is met by the ball: the nearest and
    # farthest |z| and the widest angle of points inside come within 1% of it
    radius = 0.4
    hull = domain.ball_hull(c, radius)
    lo, hi, direction, half_width = hull.cut
    rng = np.random.default_rng(3)
    z = cloud(rng, domain, c, hull, n=200000)
    z = z[domain.distance(domain.lift(c), domain.lift(z)) < radius]
    span = hi - lo
    assert abs(np.abs(z).min() - lo) < 0.01 * span
    assert abs(np.abs(z).max() - hi) < 0.01 * span
    assert abs(np.abs(np.angle(z / direction)).max() - half_width) < 0.01 * half_width


def random_region(rng, height, width):
    """A random region in a frame whose border ring is free: rectangles with
    rectangular and single-cell holes, some next to the region's box."""
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(rng.integers(1, 4)):
        y0, x0 = rng.integers(1, height - 3), rng.integers(1, width - 3)
        y1, x1 = rng.integers(y0 + 2, height), rng.integers(x0 + 2, width)
        mask[y0:y1, x0:x1] = True
        for _ in range(rng.integers(0, 4)):
            # a hole one cell in from the rectangle's edge, or anywhere in it
            hy = y0 + 1 if rng.uniform() < 0.5 else rng.integers(y0, y1)
            hx = rng.integers(x0, x1)
            mask[hy:hy + rng.integers(1, 3), hx:hx + rng.integers(1, 3)] = False
    mask &= rng.uniform(size=mask.shape) < 0.97
    mask[0] = mask[-1] = mask[:, 0] = mask[:, -1] = False
    return mask


def test_cropped_connectivity_is_the_full_frame_count():
    rng = np.random.default_rng(2929)
    holes_seen = 0
    for _ in range(600):
        mask = random_region(rng, rng.integers(6, 30), rng.integers(6, 30))
        if not mask.any():
            with pytest.raises(EmptyRegion):
                connectivity_number(mask)
            continue
        want = len(complement_holes(mask)[1])
        assert connectivity_number(mask) == want
        holes_seen += want > 0
    assert holes_seen > 100


def test_connectivity_checks_the_whole_ring():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:5, 2:5] = True
    mask[3, 3] = False
    assert connectivity_number(mask) == 1
    mask[7, 6] = True
    with pytest.raises(ValidationError, match="border ring"):
        connectivity_number(mask)
