"""Mobius transformations on the extended complex plane.

Maps are stored as 2x2 complex coefficient matrices normalized to
determinant one, with a canonical sign so that equal maps have equal
coefficients.  All operations are pure; instances are immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DegenerateMap, Inconsistent, NotFixed, OutOfDomain, ValidationError

# Post-normalization threshold below which a coefficient counts as zero.
COEFF_EPS = 1e-12


class Infinity:
    """The point at infinity.  A singleton, equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __hash__(self):
        return hash("invmetrics-infinity")


INFINITY = Infinity()

ExtComplex = Union[complex, Infinity]


def is_infinity(z) -> bool:
    return isinstance(z, Infinity)


def as_finite(z) -> complex:
    """Coerce to a finite complex number, rejecting INFINITY and NaN;
    ValidationError for what ``complex()`` cannot read."""
    if is_infinity(z):
        raise OutOfDomain("expected a finite point, got INFINITY")
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise ValidationError(f"expected a complex number, got {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OutOfDomain(f"point has non-finite coordinates: {z!r}")
    return z


def points_equal(p: ExtComplex, q: ExtComplex) -> bool:
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    return complex(p) == complex(q)


class FixedKind(Enum):
    IDENTITY = "identity"
    ONE = "one"
    TWO = "two"


@dataclass(frozen=True)
class FixedPointSet:
    """Fixed points of a Mobius map: all points, one point, or two."""

    kind: FixedKind
    points: tuple

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), normalized to a d - b c = 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        coeffs = tuple(complex(x) for x in (self.a, self.b, self.c, self.d))
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in coeffs):
            raise DegenerateMap("non-finite coefficient")
        a, b, c, d = coeffs
        det = a * d - b * c
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if scale == 0.0 or abs(det) < 1e-12 * scale * scale:
            raise DegenerateMap(f"determinant {det!r} degenerate at scale {scale!r}")
        s = cmath.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
        # Canonical sign: first nonzero coefficient gets nonnegative real
        # part, ties broken by nonnegative imaginary part.  All thresholds
        # are relative so renormalizing a normalized map is a no-op.
        top = max(abs(a), abs(b), abs(c), abs(d))
        for x in (a, b, c, d):
            if abs(x) > COEFF_EPS * top:
                if x.real < -COEFF_EPS * abs(x) or (
                        abs(x.real) <= COEFF_EPS * abs(x) and x.imag < 0):
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- factories ---------------------------------------------------------
    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    # -- algebra -----------------------------------------------------------
    def apply(self, z: ExtComplex) -> ExtComplex:
        if is_infinity(z):
            if abs(self.c) <= COEFF_EPS:
                return INFINITY
            return self.a / self.c
        z = as_finite(z)
        den = self.c * z + self.d
        if den == 0:
            return INFINITY
        return (self.a * z + self.b) / den

    __call__ = apply

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Map acting as self after other: (self @ other)(z) = self(other(z))."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def trace(self) -> complex:
        return self.a + self.d

    def is_identity(self, tol: float = COEFF_EPS) -> bool:
        return (
            abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.a - self.d) <= tol
            and abs(abs(self.a) - 1.0) <= tol
        )

    # -- analysis ----------------------------------------------------------
    def fixed_points(self) -> FixedPointSet:
        """Exact roots of c z^2 + (d - a) z - b = 0 on the extended plane."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if self.is_identity():
            return FixedPointSet(FixedKind.IDENTITY, ())
        if abs(c) <= COEFF_EPS:
            # Affine case: infinity is always fixed.
            if abs(d - a) <= COEFF_EPS:
                return FixedPointSet(FixedKind.ONE, (INFINITY,))
            return FixedPointSet(FixedKind.TWO, (INFINITY, b / (d - a)))
        disc = (d - a) ** 2 + 4 * b * c  # equals tr^2 - 4 for det 1
        if abs(disc) <= COEFF_EPS**2:
            return FixedPointSet(FixedKind.ONE, ((a - d) / (2 * c),))
        s = cmath.sqrt(disc)
        bq = d - a
        # Pick the root pairing that avoids cancellation.
        if (bq.conjugate() * s).real < 0:
            s = -s
        z1 = (-(bq + s)) / (2 * c)
        if z1 == 0:
            z2 = -bq / c
        else:
            z2 = (-b) / (c * z1)  # Vieta: z1 z2 = -b / c
        return FixedPointSet(FixedKind.TWO, (z1, z2))


def mobius_is_identity_given_three_fixed(
    m: MobiusMap,
    p1: ExtComplex,
    p2: ExtComplex,
    p3: ExtComplex,
    tol: float = 1e-9,
) -> bool:
    """Certify that a map fixing three distinct points is the identity.

    Raises NotFixed if some point moves by more than ``tol``.  A map that
    passes the three fixed-point checks but is not the identity within
    tolerance contradicts the degree-two algebra, so that case raises
    Inconsistent instead of returning False.
    """
    pts = (p1, p2, p3)
    for i in range(3):
        for j in range(i + 1, 3):
            if points_equal(pts[i], pts[j]):
                raise ValidationError(f"fixed points must be pairwise distinct: {pts!r}")
    for p in pts:
        image = m.apply(p)
        if is_infinity(p):
            if not is_infinity(image):
                raise NotFixed(p)
            continue
        if is_infinity(image):
            raise NotFixed(p)
        residual = abs(image - complex(p))
        if residual > tol:
            raise NotFixed(p, residual)
    if m.is_identity(max(tol, COEFF_EPS)):
        return True
    raise Inconsistent(
        "map fixes three distinct points but its coefficients are not the "
        f"identity within tolerance: {m!r}"
    )


def disk_automorphism(a: complex, theta: float) -> MobiusMap:
    """The disk automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z)."""
    a = as_finite(a)
    if abs(a) >= 1.0:
        raise OutOfDomain(f"automorphism anchor must be inside the unit disk: {a!r}")
    phase = cmath.exp(1j * theta)
    return MobiusMap(phase, -phase * a, -a.conjugate(), 1.0)
