"""The covered-domain kernels, pinned bit for bit.

SHA-256 digests of every ``lift`` field and of ``distance`` on a fixed
point set: the bulk, both sides of ``_log_ratio``'s branch switches
(|z| / c = 0.5 and 2) and of ``abs2_minus``'s Sum2 switch (1e-3), points
1e-12 (relative) and a float step from each wall, and pairs whose deck
offset is near pi, where the thin annuli read their overflow form.  A
change to how the kernels are evaluated must keep these digests.

The digests were recorded with numpy 2.4 on x86-64 with AVX-512, whose
float64 ``log``, ``log1p``, ``sin`` and the like may round differently from
other builds in the last bit; the pins are checked where a canary of those
ufuncs matches the recording.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

from invmetrics.domains import Annulus, PuncturedDisk, lift_row

ANGLES = (0.0, 0.3, 1.2345, -2.0, math.pi / 2, math.pi, -math.pi / 2, 3.0)


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def moduli(domain):
    """|z| in the bulk, around each branch switch and next to each wall."""
    r = getattr(domain, "r", 0.0)
    walls = (1.0, r) if r else (1.0,)
    out = [r + (1.0 - r) * t for t in (0.01, 0.1, 0.37, 0.5, 0.8, 0.99)]
    for c in walls:
        # log1p's window (ratio 0.5 and 2) and the Sum2 window (1e-3)
        for m in (0.5 * c, 2.0 * c, c * (1.0 - 1e-3), c * (1.0 + 1e-3)):
            out += [m, np.nextafter(m, 0.0), np.nextafter(m, 2.0)]
        out += [c * (1.0 - 1e-12), c * (1.0 + 1e-12), np.nextafter(c, 0.0), np.nextafter(c, 2.0)]
    return np.array(sorted({m for m in out if r < m < 1.0}))


def points(domain):
    m = moduli(domain)
    return (m[:, None] * np.exp(1j * np.array(ANGLES))).ravel()


def pairs(domain):
    """Every point against a rolled copy, then pairs whose angles differ by
    pi and by pi less a small turn, at moduli in the bulk and next to walls."""
    z = points(domain)
    m = moduli(domain)
    p, q = [z], [np.roll(z, 7)]
    for turn in (0.0, 1e-15, 1e-9, 1e-3, -1e-6):
        for theta in (0.4, -1.1, 2.9):
            p.append(m * np.exp(1j * theta))
            q.append(m[::-1] * np.exp(1j * (theta + math.pi - turn)))
    return np.concatenate(p), np.concatenate(q)


DOMAINS = {
    "punctured": PuncturedDisk(),
    **{f"annulus{r}": Annulus(r) for r in (0.05, 0.3, 0.9, 0.99, 0.999, 0.9999)},
}

# (im, outer, inner, height, distance) digests, 16 hex digits each
PINS = {
    "punctured": ("a39b6c58314b4446", "a621a08dafabae91", None,
                  "a621a08dafabae91", "40d1eab8e44960e8"),
    "annulus0.05": ("18c56c01e281d94d", "ae13d8d75b1fd870", "b99608102b077daa",
                    "c977332beebfa140", "cd1833c57d3fc2a0"),
    "annulus0.3": ("04f4561751f842ab", "8f5a508cc217cf41", "e23390508faeb59a",
                   "ad5855cc4ba8105c", "f1c433262c320d6c"),
    "annulus0.9": ("fff16b84db8b0c6e", "bb696a69e388fa46", "58992b00246ce457",
                   "16ac005d724da897", "43cd91436bdb61d1"),
    "annulus0.99": ("895209bf8aa33327", "7d47547c92af6bd8", "01f80270e4708d09",
                    "32b6018ae8f64b67", "180c8a80ac62e5c8"),
    "annulus0.999": ("dc0e1cd7ab987f59", "8a870c8f99b02244", "610d6cbb01d40e32",
                     "9fb41c6447d0ded9", "a0cf4a6466c849da"),
    "annulus0.9999": ("2edd233817fe63f3", "fe66a374a41ce63d", "47bb607fb11ed9b9",
                      "de7a0101ec2e6530", "5d4b6c8f5559ca19"),
}


def digests(domain):
    w = domain.lift(points(domain))
    p, q = pairs(domain)
    d = domain.distance(domain.lift(p), domain.lift(q))
    fields = (w.im, w.outer, w.inner, w.height, d)
    return tuple(None if f is None else sha256(f)[:16] for f in fields)


def _canary() -> str:
    x = np.linspace(1e-3, 3.0, 257)
    return sha256(np.concatenate([np.log(x), np.log1p(x - 1e-3), np.sin(x), np.sinh(x),
                                  np.arcsinh(x), np.arctan2(x, x[::-1]), np.hypot(x, x[::-1])]))


CANARY = "4ef1b55c3ad7d347906c59d749cba5654cf51752d551c59133716c9a0c2b73cc"


@pytest.mark.skipif(_canary() != CANARY, reason="numpy's float64 ufuncs round differently "
                                                "from the build the pins were recorded with")
@pytest.mark.parametrize("name", DOMAINS)
def test_lift_and_distance_digests(name):
    assert digests(DOMAINS[name]) == PINS[name]


def test_thin_annulus_pair_takes_the_overflow_form():
    # r = 0.999 has k pi = 4932, past the r = 0.98596 below which the kernel
    # skips its overflow guard: a pair with |dy| near pi reads a - log(heights) / 2
    domain = Annulus(0.999)
    w = domain.lift(np.array([0.9995, 0.9995 * np.exp(1j * (math.pi - 1e-9))]))
    wp, wq = lift_row(w, 0), lift_row(w, 1)
    k = math.pi / (2.0 * -math.log(domain.r))
    a = k * abs(float(wp.im - wq.im))
    assert a >= 350.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = domain.distance(wp, wq)
    assert d == a - 0.5 * np.log(wp.height * wq.height)


@pytest.mark.parametrize("domain", [PuncturedDisk(), Annulus(0.3)], ids=["punctured", "annulus"])
def test_lifting_the_origin_does_not_warn(domain):
    # the log branch meets log(0) at z = 0, which no covered domain holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = domain.lift(np.array([0j, 0.5]))
        domain.lift(0j)
    assert np.isinf(w.outer[0])
