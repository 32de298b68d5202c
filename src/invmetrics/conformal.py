"""Rigidity checks for holomorphic self-maps of catalog domains.

Fixed-point derivative bounds, the equal-distance automorphism
criterion, three-fixed-point rigidity through the Mobius representation,
and isotropy groups of annulus points.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import Annulus, Disk, Domain, GridDomain, contains, sample_points
from .errors import (
    NotFixed,
    NotMobiusRepresentable,
    OutOfDomain,
    TheoremViolation,
    Unsupported,
    ValidationError,
)
from .kobayashi import kob_distance
from .mobius import MobiusMap, as_finite, is_infinity, mobius_is_identity_given_three_fixed


@dataclass(frozen=True)
class HoloSelfMap:
    """Holomorphic self-map of a catalog domain, with a derivative route.

    The map is sample-validated at construction: each of the domain's
    ``sample_points`` must land back inside the domain.  The derivative is
    the closed form when one is supplied, otherwise a Richardson-extrapolated
    central difference.
    """

    domain: Domain
    func: Callable
    dfunc: Callable | None = None
    tag: str = "self-map"

    def __post_init__(self):
        if isinstance(self.domain, GridDomain):
            raise Unsupported("self-map checks run on catalog domains")
        values = np.asarray(self.func(sample_points(self.domain)), dtype=complex)
        if not np.isfinite(values.view(float)).all() \
                or not self.domain.contains(values).all():
            raise ValidationError(
                f"map {self.tag!r} does not send the domain into itself")

    def __call__(self, z):
        return self.func(z)

    def derivative(self, z) -> complex:
        z = as_finite(z)
        if self.dfunc is not None:
            return complex(self.dfunc(z))
        h = 1e-5 * max(1.0, abs(z))
        coarse = (complex(self.func(z + h)) - complex(self.func(z - h))) / (2 * h)
        fine = (complex(self.func(z + h / 2)) - complex(self.func(z - h / 2))) / h
        return fine + (fine - coarse) / 3.0


def blaschke_product(zeros, theta: float = 0.0) -> HoloSelfMap:
    """Disk self-map e^{i theta} z * prod (z - a)/(1 - conj(a) z) fixing 0."""
    try:
        finite = isinstance(theta, numbers.Real) and math.isfinite(theta)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValidationError(f"Blaschke theta must be a finite real number: {theta!r}")
    try:
        points = iter(zeros)
    except TypeError:
        raise ValidationError(f"Blaschke zeros must be an iterable of points: {zeros!r}") from None
    checked = []
    for z in points:
        try:
            a = complex(z)
        except (TypeError, ValueError):
            raise ValidationError(f"Blaschke zero must be a complex number: {z!r}") from None
        if cmath.isnan(a):
            raise ValidationError(f"Blaschke zero must not be NaN: {z!r}")
        if abs(a) >= 1:
            raise OutOfDomain(f"Blaschke zero outside the disk: {a!r}")
        checked.append(a)
    zeros = tuple(checked)
    phase = cmath.exp(1j * theta)

    def func(z):
        z = np.asarray(z, dtype=complex)
        out = phase * z.copy()
        for a in zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    tag = f"blaschke deg {len(zeros) + 1}"
    return HoloSelfMap(domain=Disk(), func=func, tag=tag)


# ---------------------------------------------------------------------------
# Fixed-point derivative bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartanReport:
    fixed_point: complex
    deriv_modulus: float
    is_contraction: bool
    automorphism_flag: bool
    tol: float

    def to_text(self) -> str:
        return (f"fixed_point: {self.fixed_point.real:.9g} {self.fixed_point.imag:.9g}\n"
                f"deriv_modulus: {self.deriv_modulus:.9g}\n"
                f"is_contraction: {str(self.is_contraction).lower()}\n"
                f"automorphism_flag: {str(self.automorphism_flag).lower()}\n"
                f"tol: {self.tol:.9g}\n")


def _check_tol(tol) -> None:
    """The checks' tolerance must be a finite real number >= 0: every
    comparison with a NaN is false, and a negative one rejects exact
    answers."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol <= sys.float_info.max):
        raise ValidationError(f"tol must be a finite real number >= 0: {tol!r}")


def _require_fixed(f: HoloSelfMap, a: complex, tol: float) -> complex:
    a = as_finite(a)
    if not contains(f.domain, a):
        raise OutOfDomain(f"{a!r} not in {f.domain!r}")
    image = complex(np.asarray(f(np.asarray(a, dtype=complex))))
    residual = abs(image - a)
    if residual > tol:
        raise NotFixed(a, residual)
    return a


def cartan_check(domain: Domain, f: HoloSelfMap, a, tol: float = 1e-6) -> CartanReport:
    """Derivative bound at an interior fixed point.

    |f'(a)| above 1 + tol is impossible for a self-map and raises
    TheoremViolation; modulus within tol of 1 flags an automorphism
    candidate.
    """
    _check_tol(tol)
    if f.domain != domain:
        raise ValidationError("map and domain disagree")
    a = _require_fixed(f, a, tol)
    modulus = abs(f.derivative(a))
    if modulus > 1.0 + tol:
        raise TheoremViolation(
            f"|f'(a)| = {modulus:.12g} exceeds 1 at a fixed point")
    return CartanReport(
        fixed_point=a,
        deriv_modulus=modulus,
        is_contraction=modulus < 1.0 - tol,
        automorphism_flag=abs(modulus - 1.0) <= tol,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Equal-distance automorphism criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WattVerdict:
    kind: str  # "automorphism_certified" | "contraction_witness"
    fixed_point: complex
    probe: complex
    d_ab: float
    d_a_fb: float
    gap: float
    deriv_modulus: float
    tol: float

    def to_text(self) -> str:
        return (f"verdict: {self.kind}\n"
                f"fixed_point: {self.fixed_point.real:.9g} {self.fixed_point.imag:.9g}\n"
                f"probe: {self.probe.real:.9g} {self.probe.imag:.9g}\n"
                f"d(a,b): {self.d_ab:.9g}\n"
                f"d(a,f(b)): {self.d_a_fb:.9g}\n"
                f"gap: {self.gap:.9g}\n"
                f"deriv_modulus: {self.deriv_modulus:.9g}\n"
                f"tol: {self.tol:.9g}\n")


def watt_check(domain: Domain, f: HoloSelfMap, a, b, tol: float = 1e-6) -> WattVerdict:
    """Equal distances d(a,b) = d(a,f(b)) at a fixed point force an
    automorphism; otherwise the strict decrease is witnessed.

    Certification confirms |f'(a)| = 1, the pivot the equality implies.
    """
    _check_tol(tol)
    if f.domain != domain:
        raise ValidationError("map and domain disagree")
    a = _require_fixed(f, a, tol)
    b = as_finite(b)
    if b == a:
        raise ValidationError("the probe point must differ from the fixed point")
    if not contains(domain, b):
        raise OutOfDomain(f"{b!r} not in {domain!r}")
    fb = complex(np.asarray(f(np.asarray(b, dtype=complex))))
    d_ab = kob_distance(domain, a, b).upper
    d_afb = kob_distance(domain, a, fb).upper
    modulus = abs(f.derivative(a))
    if d_afb > d_ab + tol:
        raise TheoremViolation(
            f"distance increased under a self-map: {d_afb:.12g} > {d_ab:.12g}")
    if abs(d_ab - d_afb) <= tol:
        if abs(modulus - 1.0) > tol:
            raise TheoremViolation(
                "equal distances at a fixed point but |f'(a)| = "
                f"{modulus:.12g} is not 1")
        kind = "automorphism_certified"
        gap = 0.0
    else:
        kind = "contraction_witness"
        gap = d_ab - d_afb
    return WattVerdict(kind=kind, fixed_point=a, probe=b, d_ab=d_ab,
                       d_a_fb=d_afb, gap=gap, deriv_modulus=modulus, tol=tol)


def two_fixed_point_check(domain: Domain, f: HoloSelfMap, a, b,
                          tol: float = 1e-6) -> WattVerdict:
    """Two interior fixed points force an automorphism."""
    _check_tol(tol)
    a = _require_fixed(f, a, tol)
    b = _require_fixed(f, b, tol)
    verdict = watt_check(domain, f, a, b, tol)
    if verdict.kind != "automorphism_certified":
        raise TheoremViolation(
            "two fixed points but the equal-distance certification failed")
    return verdict


# ---------------------------------------------------------------------------
# Annulus automorphisms, three-fixed-point rigidity, isotropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismElement:
    """Automorphism with an exact Mobius representation."""

    theta: float
    mobius: MobiusMap
    tag: str

    def __call__(self, z):
        m = self.mobius
        z = np.asarray(z, dtype=complex)
        return (m.a * z + m.b) / (m.c * z + m.d)

    def derivative(self, z) -> complex:
        m = self.mobius
        z = complex(z)
        return 1.0 / (m.c * z + m.d) ** 2  # det is 1 after normalization


@dataclass(frozen=True)
class AutomorphismGroupDesc:
    """Generators of the annulus automorphism group: rotations z ->
    e^{i theta} z and inversions z -> e^{i theta} r / z.

    Both preserve the annulus exactly: |e^{i theta} r / z| lies in (r, 1)
    exactly when |z| does."""

    domain: Annulus

    def rotation(self, theta: float) -> AutomorphismElement:
        phase = cmath.exp(1j * theta)
        return AutomorphismElement(
            theta=theta,
            mobius=MobiusMap(phase, 0.0, 0.0, 1.0),
            tag=f"rot({theta:g})")

    def inversion(self, theta: float) -> AutomorphismElement:
        phase = cmath.exp(1j * theta)
        return AutomorphismElement(
            theta=theta,
            mobius=MobiusMap(0.0, phase * self.domain.r, 1.0, 0.0),
            tag=f"inv({theta:g})")


def maskit_demo(domain: Domain, g, p1, p2, p3, tol: float = 1e-9) -> str:
    """Three fixed points force the identity, checked at the Mobius level.

    The automorphism must carry an exact Mobius representation; any
    verdict other than identity is a defect, not a finding.
    """
    _check_tol(tol)
    mob = getattr(g, "mobius", None)
    if isinstance(g, MobiusMap):
        mob = g
    if mob is None:
        raise NotMobiusRepresentable(f"{g!r} carries no Mobius representation")
    for p in (p1, p2, p3):
        if not is_infinity(p) and not contains(domain, as_finite(p)):
            raise OutOfDomain(f"{p!r} not in {domain!r}")
    if mobius_is_identity_given_three_fixed(mob, p1, p2, p3, tol):
        return "identity"
    raise TheoremViolation("three fixed points without identity coefficients")


@dataclass(frozen=True)
class IsotropyReport:
    point: complex
    elements: tuple
    order: int
    cyclic: bool
    derivative_moduli: tuple

    def to_text(self) -> str:
        lines = [f"point: {self.point.real:.9g} {self.point.imag:.9g}",
                 f"order: {self.order}",
                 f"cyclic: {str(self.cyclic).lower()}"]
        for el, dm in zip(self.elements, self.derivative_moduli):
            lines.append(f"element: {el.tag} deriv_modulus: {dm:.9g}")
        return "\n".join(lines) + "\n"


def isotropy_group(r: float, p, tol: float = 1e-9) -> IsotropyReport:
    """Automorphisms of the annulus r < |z| < 1 fixing the point p.

    Rotations fix nothing unless trivial; an inversion fixes p exactly
    when |p|^2 = r, with angle twice the argument of p.  The group is
    the identity alone or a two-element cyclic group.
    """
    _check_tol(tol)
    domain = Annulus(r)
    p = as_finite(p)
    if not contains(domain, p):
        raise OutOfDomain(f"{p!r} not in {domain!r}")
    desc = AutomorphismGroupDesc(domain=domain)
    elements = [desc.rotation(0.0)]
    # Relative tolerance on |p|^2 = r keeps |f'(p)| within ~tol of 1.
    if abs(abs(p) ** 2 - r) <= tol * r:
        theta = 2.0 * cmath.phase(p)
        elements.append(desc.inversion(theta))
    moduli = []
    for el in elements:
        image = complex(el(np.asarray(p, dtype=complex)))
        if abs(image - p) > math.sqrt(tol) * abs(p):
            raise NotFixed(p, abs(image - p))
        moduli.append(abs(el.derivative(p)))
    if any(abs(m - 1.0) > 2 * tol for m in moduli):
        raise TheoremViolation("an isotropy element has |f'(p)| away from 1")
    order = len(elements)
    if order == 2:
        square = elements[1].mobius @ elements[1].mobius
        if not square.is_identity(1e-12):
            raise TheoremViolation("isotropy inversion fails to be an involution")
    return IsotropyReport(point=p, elements=tuple(elements), order=order,
                          cyclic=True, derivative_moduli=tuple(moduli))
