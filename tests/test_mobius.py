
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bounded_complex
from invmetrics.errors import DegenerateMap, NotFixed, ValidationError
from invmetrics.mobius import (
    COEFF_EPS,
    INFINITY,
    FixedKind,
    MobiusMap,
    disk_automorphism,
    is_infinity,
    mobius_is_identity_given_three_fixed,
)


def nondegenerate_maps(bound=5.0):
    coeff = bounded_complex(bound)

    def build(a, b, c, d):
        assume(abs(a * d - b * c) > 1e-3 * max(abs(a), abs(b), abs(c), abs(d), 1.0) ** 2)
        return MobiusMap(a, b, c, d)

    return st.builds(build, coeff, coeff, coeff, coeff)


def coefficient_gap(m1, m2):
    """Largest coefficient difference of two normalized maps."""
    return max(abs(x - y) for x, y in zip((m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d)))


class TestApply:
    def test_identity(self):
        m = MobiusMap.identity()
        assert m(3 + 4j) == 3 + 4j

    def test_reciprocal_at_infinity(self):
        m = MobiusMap(0, 1, 1, 0)
        assert m(INFINITY) == 0
        assert is_infinity(m(0))

    def test_disk_automorphism_sends_anchor_to_origin(self):
        m = disk_automorphism(0.5, 0.0)
        assert m(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_translation_at_infinity(self):
        assert is_infinity(MobiusMap(1, 1, 0, 1)(INFINITY))


class TestCompose:
    def test_inverse_gives_identity(self):
        m = MobiusMap(2, 1 + 1j, 0.5j, 1)
        assert (m @ m.inverse()).is_identity(1e-12)

    def test_translations_add(self):
        t = MobiusMap(1, 1, 0, 1)
        assert coefficient_gap(t @ t, MobiusMap(1, 2, 0, 1)) <= 1e-12

    def test_reciprocal_is_involution(self):
        m = MobiusMap(0, 1, 1, 0)
        assert (m @ m).is_identity(1e-12)

    @given(nondegenerate_maps(), nondegenerate_maps(), nondegenerate_maps(),
           bounded_complex(2.0))
    @settings(max_examples=60)
    def test_associative_on_points(self, m1, m2, m3, z):
        left = (m1 @ m2) @ m3
        right = m1 @ (m2 @ m3)
        lz, rz = left(z), right(z)
        assume(not is_infinity(lz) and not is_infinity(rz))
        assume(abs(lz) < 1e6)
        assert abs(lz - rz) <= 1e-9 * max(1.0, abs(lz))


class TestFixedPoints:
    def test_identity_kind(self):
        assert MobiusMap.identity().fixed_points().kind == FixedKind.IDENTITY

    def test_translation_is_parabolic_at_infinity(self):
        fp = MobiusMap(1, 1, 0, 1).fixed_points()
        assert fp.kind == FixedKind.ONE
        assert is_infinity(fp.points[0])

    def test_reciprocal_fixes_plus_minus_one(self):
        fp = MobiusMap(0, 1, 1, 0).fixed_points()
        assert fp.kind == FixedKind.TWO
        assert sorted([p.real for p in fp.points]) == pytest.approx([-1.0, 1.0])

    @given(nondegenerate_maps())
    @settings(max_examples=120)
    def test_reported_points_are_fixed(self, m):
        fp = m.fixed_points()
        if fp.kind == FixedKind.IDENTITY:
            return
        assert len(fp.points) <= 2
        for p in fp.points:
            image = m(p)
            if is_infinity(p):
                assert is_infinity(image)
            else:
                assume(abs(p) < 1e4)
                assert not is_infinity(image)
                assert abs(image - p) <= 1e-9 * max(1.0, abs(p) ** 2)

    @given(nondegenerate_maps())
    @settings(max_examples=120)
    def test_non_identity_has_at_most_two(self, m):
        fp = m.fixed_points()
        if fp.kind != FixedKind.IDENTITY:
            assert len(fp.points) in (1, 2)


class TestDegeneracy:
    def test_zero_determinant_rejected(self):
        with pytest.raises(DegenerateMap):
            MobiusMap(1, 2, 2, 4)

    def test_scale_invariant_rejection(self):
        with pytest.raises(DegenerateMap):
            MobiusMap(1e8, 2e8, 2e8, 4e8)

    def test_scaling_two_trace(self):
        m = MobiusMap(2, 0, 0, 1)
        assert (m.trace() ** 2).real == pytest.approx(4.5)

    def test_normalized_determinant_is_one(self):
        m = MobiusMap(3, 1, 2, 5)
        assert abs(m.a * m.d - m.b * m.c - 1) < 1e-12


class TestThreeFixedPoints:
    def test_identity_certified(self):
        assert mobius_is_identity_given_three_fixed(
            MobiusMap.identity(), 0, 1, INFINITY, 1e-9)

    def test_rotation_fails_on_unfixed_point(self):
        rot = MobiusMap(1j, 0, 0, 1)
        with pytest.raises(NotFixed):
            mobius_is_identity_given_three_fixed(rot, 0, INFINITY, 1, 1e-9)

    def test_elliptic_with_third_random_point(self):
        m = disk_automorphism(0.3 + 0.1j, 1.1)
        fp = m.fixed_points()
        assert len(fp.points) == 2
        with pytest.raises(NotFixed):
            mobius_is_identity_given_three_fixed(
                m, fp.points[0], fp.points[1], 0.77 + 0.1j, 1e-7)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValidationError):
            mobius_is_identity_given_three_fixed(
                MobiusMap.identity(), 1, 1, 2, 1e-9)


class TestCanonicalForm:
    @given(nondegenerate_maps())
    @example(MobiusMap(-1.57e-14, 1 + 1j, 1 + 1j, 1))  # b = -3.77e-15 + 1j
    @settings(max_examples=80)
    def test_first_nonzero_coefficient_sign(self, m):
        # zero is relative, as in the canonicalization: to the largest
        # coefficient for the coefficient, to |x| for its real part
        top = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
        for x in (m.a, m.b, m.c, m.d):
            if abs(x) > COEFF_EPS * top:
                assert x.real > COEFF_EPS * abs(x) \
                    or (abs(x.real) <= COEFF_EPS * abs(x) and x.imag >= 0)
                break

    @given(nondegenerate_maps())
    @settings(max_examples=80)
    def test_renormalization_is_stable(self, m):
        again = MobiusMap(m.a, m.b, m.c, m.d)
        assert coefficient_gap(again, m) <= 1e-12
