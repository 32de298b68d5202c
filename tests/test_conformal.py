import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmetrics.conformal import (
    AutomorphismGroupDesc,
    HoloSelfMap,
    blaschke_product,
    cartan_check,
    isotropy_group,
    maskit_demo,
    two_fixed_point_check,
    watt_check,
)
from invmetrics.domains import Annulus, Disk, HalfPlane, grid_annulus, sample_points
from invmetrics.errors import (
    NotFixed,
    NotMobiusRepresentable,
    OutOfDomain,
    Unsupported,
    ValidationError,
)
from invmetrics.mobius import FixedKind

SQRT_TENTH = math.sqrt(0.1)
WATT_GAP = 0.2938933324510594  # atanh(1/2) - atanh(1/4)


def square_map():
    return HoloSelfMap(Disk(), lambda z: np.asarray(z, complex) ** 2, tag="square")


def rotation_map(theta):
    phase = cmath.exp(1j * theta)
    return HoloSelfMap(Disk(), lambda z: phase * np.asarray(z, complex),
                       dfunc=lambda z: phase, tag=f"rot({theta:g})")


class TestHoloSelfMap:
    def test_validation_rejects_escaping_map(self):
        with pytest.raises(ValidationError):
            HoloSelfMap(Disk(), lambda z: 2.0 * np.asarray(z, complex), tag="double")

    @pytest.mark.parametrize("domain", [HalfPlane(), grid_annulus(0.5, 0.05)])
    def test_unbounded_and_grid_domains_are_unsupported(self, domain):
        with pytest.raises(Unsupported):
            HoloSelfMap(domain, lambda z: np.asarray(z, complex), tag="identity")

    def test_numeric_derivative_matches_closed_form(self):
        f = square_map()
        for z in (0.1 + 0.2j, -0.3, 0.4j):
            assert f.derivative(z) == pytest.approx(2 * z, abs=1e-9)


class TestBlaschkeProduct:
    @pytest.mark.parametrize("zero, message", [
        ("a", "Blaschke zero must be a complex number: 'a'"),
        # rejected before any image is computed, so no RuntimeWarning first
        (float("nan"), "Blaschke zero must not be NaN: nan"),
    ], ids=["string", "nan"])
    def test_bad_zero_is_named(self, zero, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            blaschke_product([zero])

    def test_bad_theta_is_named(self):
        with pytest.raises(ValidationError,
                           match="^Blaschke theta must be a finite real number: 'x'$"):
            blaschke_product([0.5], "x")

    def test_theta_past_the_float_range_is_named(self):
        # math.isfinite raises OverflowError on such an int
        with pytest.raises(ValidationError, match="^Blaschke theta must be a finite real number"):
            blaschke_product([0.5], 10**400)

    def test_zeros_must_be_iterable(self):
        with pytest.raises(ValidationError,
                           match="^Blaschke zeros must be an iterable of points: 3$"):
            blaschke_product(3)

    def test_numpy_theta_accepted(self):
        f = blaschke_product([0.5], np.float64(0.7))
        assert f.derivative(0) == pytest.approx(-0.5 * cmath.exp(0.7j), abs=1e-9)


class TestCartan:
    def test_square_map_at_origin(self):
        report = cartan_check(Disk(), square_map(), 0)
        assert report.deriv_modulus == pytest.approx(0.0, abs=1e-9)
        assert report.is_contraction
        assert not report.automorphism_flag

    def test_rotation_is_automorphism_candidate(self):
        report = cartan_check(Disk(), rotation_map(0.7), 0)
        assert report.deriv_modulus == pytest.approx(1.0, abs=1e-12)
        assert report.automorphism_flag

    def test_blaschke_factor_derivative(self):
        f = HoloSelfMap(
            Disk(),
            lambda z: np.asarray(z, complex)
            * (np.asarray(z, complex) - 0.3) / (1 - 0.3 * np.asarray(z, complex)),
            tag="one-zero")
        report = cartan_check(Disk(), f, 0)
        assert report.deriv_modulus == pytest.approx(0.3, abs=1e-9)

    def test_not_fixed(self):
        with pytest.raises(NotFixed):
            cartan_check(Disk(), square_map(), 0.5)

    @given(st.lists(st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                                       allow_infinity=False), max_size=3),
           st.floats(0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_derivative_bound_on_blaschke_products(self, zeros, theta):
        f = blaschke_product(zeros, theta)
        report = cartan_check(Disk(), f, 0, tol=1e-9)
        assert report.deriv_modulus <= 1 + 1e-9
        if not zeros:
            assert report.automorphism_flag


class TestWatt:
    def test_rotation_certified(self):
        verdict = watt_check(Disk(), rotation_map(math.pi), 0, 0.5)
        assert verdict.kind == "automorphism_certified"
        assert verdict.deriv_modulus == pytest.approx(1.0, abs=1e-9)

    def test_square_map_witness_gap(self):
        verdict = watt_check(Disk(), square_map(), 0, 0.5)
        assert verdict.kind == "contraction_witness"
        assert verdict.gap == pytest.approx(WATT_GAP, abs=1e-9)

    def test_annulus_inversion_certified(self):
        desc = AutomorphismGroupDesc(Annulus(0.1))
        inv = desc.inversion(0.0)
        f = HoloSelfMap(Annulus(0.1), inv, dfunc=inv.derivative, tag=inv.tag)
        verdict = watt_check(Annulus(0.1), f, SQRT_TENTH, 0.5, tol=1e-6)
        assert verdict.kind == "automorphism_certified"

    def test_strict_contraction_dichotomy(self):
        rng = np.random.default_rng(3)
        f = blaschke_product([0.4 + 0.1j])
        for _ in range(50):
            b = 0.15 + 0.7 * rng.uniform()
            b = b * complex(np.exp(2j * math.pi * rng.uniform()))
            verdict = watt_check(Disk(), f, 0, b)
            assert verdict.kind == "contraction_witness"
            assert verdict.gap > 1e-12


class TestTwoFixedPoints:
    def test_identity_certified(self):
        ident = HoloSelfMap(Disk(), lambda z: np.asarray(z, complex),
                            dfunc=lambda z: 1.0, tag="identity")
        verdict = two_fixed_point_check(Disk(), ident, 0.1, -0.4 + 0.2j)
        assert verdict.kind == "automorphism_certified"

    def test_single_fixed_blaschke_rejects_second_point(self):
        # z (z + c) / (1 + c z) with real c in (0, 1) fixes only the origin
        c = 0.5
        f = HoloSelfMap(
            Disk(),
            lambda z: np.asarray(z, complex) * (np.asarray(z, complex) + c)
            / (1 + c * np.asarray(z, complex)),
            tag="one-fixed")
        with pytest.raises(NotFixed):
            two_fixed_point_check(Disk(), f, 0, 0.3)

    def test_annulus_rotation_has_no_fixed_points(self):
        desc = AutomorphismGroupDesc(Annulus(0.1))
        rot = desc.rotation(math.pi)
        f = HoloSelfMap(Annulus(0.1), rot, dfunc=rot.derivative, tag=rot.tag)
        with pytest.raises(NotFixed):
            two_fixed_point_check(Annulus(0.1), f, 0.5, -0.5)


class TestMaskit:
    def test_identity_on_three_points(self):
        desc = AutomorphismGroupDesc(Annulus(0.1))
        verdict = maskit_demo(Annulus(0.1), desc.rotation(0.0),
                              SQRT_TENTH, -SQRT_TENTH, 0.5j)
        assert verdict == "identity"

    def test_rotation_not_fixed(self):
        desc = AutomorphismGroupDesc(Annulus(0.1))
        with pytest.raises(NotFixed):
            maskit_demo(Annulus(0.1), desc.rotation(0.5),
                        SQRT_TENTH, -SQRT_TENTH, 0.5j)

    def test_inversion_fixes_only_two(self):
        desc = AutomorphismGroupDesc(Annulus(0.1))
        inv = desc.inversion(0.0)
        fixed = inv.mobius.fixed_points()
        assert fixed.kind == FixedKind.TWO
        assert sorted(abs(p) for p in fixed.points) == pytest.approx(
            [SQRT_TENTH, SQRT_TENTH])
        with pytest.raises(NotFixed):
            maskit_demo(Annulus(0.1), inv, SQRT_TENTH, -SQRT_TENTH, 0.5)

    def test_plain_callable_rejected(self):
        with pytest.raises(NotMobiusRepresentable):
            maskit_demo(Annulus(0.1), lambda z: z, SQRT_TENTH, -SQRT_TENTH, 0.5)

    def test_rigidity_exhaustive_over_generators(self):
        # every non-identity annulus automorphism fixes at most 2 points,
        # and nontrivial rotations fix none inside the annulus
        from invmetrics.mobius import is_infinity

        desc = AutomorphismGroupDesc(Annulus(0.1))
        for theta in np.linspace(0.05, 2 * math.pi - 0.05, 40):
            rot = desc.rotation(float(theta)).mobius.fixed_points()
            assert len(rot.points) <= 2
            assert not any(not is_infinity(p) and 0.1 < abs(p) < 1.0
                           for p in rot.points)
            inv = desc.inversion(float(theta)).mobius.fixed_points()
            assert inv.kind == FixedKind.TWO
            assert all(abs(abs(p) - SQRT_TENTH) < 1e-12 for p in inv.points)


class TestIsotropy:
    def test_generic_point_is_trivial(self):
        report = isotropy_group(0.1, 0.5)
        assert report.order == 1
        assert report.cyclic

    def test_core_point_has_order_two(self):
        report = isotropy_group(0.1, SQRT_TENTH)
        assert report.order == 2
        assert report.derivative_moduli == pytest.approx((1.0, 1.0), abs=1e-12)
        inv = report.elements[1]
        assert complex(inv(np.asarray(0.2 + 0j))) == pytest.approx(0.5)

    def test_rotated_core_point(self):
        p = SQRT_TENTH * cmath.exp(1j * math.pi / 3)
        report = isotropy_group(0.1, p)
        assert report.order == 2
        assert report.elements[1].theta == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_inversion_derivative_is_minus_one(self):
        # the nontrivial element maps to -1 under f -> f'(p); the group
        # embeds in the unit circle
        report = isotropy_group(0.1, SQRT_TENTH)
        inv = report.elements[1]
        assert inv.derivative(SQRT_TENTH) == pytest.approx(-1.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            isotropy_group(0.1, 0.05)

    @given(st.floats(0.02, 0.6), st.floats(0, 2 * math.pi), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_orders_divide_two(self, r, theta, on_circle):
        if on_circle:
            p = math.sqrt(r) * cmath.exp(1j * theta)
        else:
            p = math.exp(0.5 * (math.log(r) + 0.0) * 0.9) * cmath.exp(1j * theta)
            if not (r < abs(p) < 1.0):
                return
        report = isotropy_group(r, p)
        assert report.order in (1, 2)
        for m in report.derivative_moduli:
            assert m == pytest.approx(1.0, abs=1e-9)
        if on_circle:
            assert report.order == 2


class TestGroupDescriptor:
    def test_inversion_is_involution(self):
        desc = AutomorphismGroupDesc(Annulus(0.2))
        inv = desc.inversion(1.3)
        assert (inv.mobius @ inv.mobius).is_identity(1e-12)

    def test_generators_preserve_annulus(self):
        domain = Annulus(0.3)
        desc = AutomorphismGroupDesc(domain)
        points = sample_points(domain)
        for g in (desc.rotation(0.9), desc.inversion(0.4)):
            assert domain.contains(g(points)).all(), g.tag


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, "a", None])
@pytest.mark.parametrize("check", [
    lambda tol: cartan_check(Disk(), blaschke_product([0.5]), 0, tol=tol),
    lambda tol: watt_check(Disk(), square_map(), 0, 0.5, tol=tol),
    lambda tol: two_fixed_point_check(Disk(), rotation_map(0.0), 0.1, -0.4 + 0.2j, tol=tol),
    lambda tol: isotropy_group(0.1, 0.3, tol=tol),
    lambda tol: maskit_demo(Annulus(0.1), AutomorphismGroupDesc(Annulus(0.1)).rotation(0.0),
                            SQRT_TENTH, -SQRT_TENTH, 0.5j, tol=tol),
], ids=["cartan_check", "watt_check", "two_fixed_point_check", "isotropy_group",
        "maskit_demo"])
def test_tolerance_must_be_finite_and_non_negative(check, tol):
    # NaN made every comparison false (cartan_check called z -> z/2 no
    # contraction, isotropy_group returned a group), -1 rejected exact
    # fixed points and text leaked a TypeError
    with pytest.raises(ValidationError, match="^tol must be a finite real number >= 0"):
        check(tol)
