"""Group law on fully enumerable toy curves, affine and projective."""

import pytest

from eccnoc.curves import (AffinePoint, CurveParams, INFINITY,
                           ProjectivePoint, is_on_curve, point_add_affine,
                           point_add_projective, point_double_affine,
                           point_double_projective, point_neg, to_affine,
                           to_projective)
from eccnoc.errors import BadValue, FieldMismatch, NotOnCurve
from eccnoc.fields import FieldKind, FieldSpec, ff_mul, ff_sqr
from eccnoc.presets import curve_from_ints

from conftest import enumerate_points, multiples, seeded


def _points(preset):
    return enumerate_points(preset.curve)


def test_p17_point_census_against_plain_int_oracle(p17):
    # independent membership oracle in plain int arithmetic
    want = {(x, y) for x in range(17) for y in range(17)
            if (y * y - (x ** 3 + 2 * x + 2)) % 17 == 0}
    got = {(P.x.value, P.y.value) for P in _points(p17) if not P.is_infinity}
    assert got == want
    assert len(want) + 1 == 19


def test_b4_point_census_against_plain_int_oracle(b4):
    # same oracle for GF(2^4): y^2 + xy = x^3 + x^2 + 6, all in raw ints
    f = b4.curve.field

    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & 0b10000:
                a ^= 0b10011
        return r

    want = set()
    for x in range(16):
        for y in range(16):
            lhs = mul(y, y) ^ mul(x, y)
            rhs = mul(mul(x, x), x) ^ mul(x, x) ^ 6
            if lhs == rhs:
                want.add((x, y))
    got = {(P.x.value, P.y.value) for P in _points(b4) if not P.is_infinity}
    assert got == want
    assert len(want) + 1 == 24


def test_known_orders(p17, b4):
    assert len(multiples(p17.curve, p17.base)) == 19
    assert len(multiples(b4.curve, b4.base)) == 24


def test_a_stated_order_is_checked(p17):
    # p17's parameters: a multiple of the order passes, as 19 does
    spec = p17.curve.field
    assert curve_from_ints(spec, 2, 2, 5, 1, 38)[0].order == 38
    for order in (-19, 0, 18, 20):
        with pytest.raises(BadValue, match="order"):
            curve_from_ints(spec, 2, 2, 5, 1, order)


def test_frozen_small_multiples(p17):
    e = p17.curve.field.element
    G = p17.base
    twoG = point_double_affine(p17.curve, G)
    assert twoG == AffinePoint(e(6), e(3))
    assert point_add_affine(p17.curve, G, twoG) == AffinePoint(e(10), e(6))


def test_membership_errors(p17):
    e = p17.curve.field.element
    off = AffinePoint(e(5), e(2))
    assert not is_on_curve(p17.curve, off)
    with pytest.raises(NotOnCurve):
        point_add_affine(p17.curve, off, p17.base)
    with pytest.raises(NotOnCurve):
        point_neg(p17.curve, off)
    foreign = FieldSpec.prime(19)
    with pytest.raises(FieldMismatch):
        is_on_curve(p17.curve, AffinePoint(foreign.element(5),
                                           foreign.element(1)))
    # infinity is on the curve, but has no affine coordinates to add
    with pytest.raises(NotOnCurve, match="finite affine addend"):
        point_add_projective(p17.curve, to_projective(p17.curve, p17.base),
                             INFINITY)


@pytest.mark.parametrize("preset_name", ["p17", "b4"])
def test_projective_scaling_invariance(preset_name, p17, b4):
    preset = {"p17": p17, "b4": b4}[preset_name]
    curve = preset.curve
    f = curve.field
    rng = seeded(911)
    finite = [P for P in _points(preset) if not P.is_infinity]
    for P in finite:
        Pp = to_projective(curve, P)
        for _ in range(4):
            lam = f.random_element(rng)
            if lam.value == 0:
                continue
            if f.kind is FieldKind.PRIME:
                scaled = ProjectivePoint(
                    ff_mul(Pp.X, ff_sqr(lam)),
                    ff_mul(Pp.Y, ff_mul(ff_sqr(lam), lam)),
                    ff_mul(Pp.Z, lam))
            else:
                scaled = ProjectivePoint(
                    ff_mul(Pp.X, lam),
                    ff_mul(Pp.Y, ff_sqr(lam)),
                    ff_mul(Pp.Z, lam))
            assert to_affine(curve, scaled) == P
            D1 = point_double_projective(curve, Pp)
            D2 = point_double_projective(curve, scaled)
            assert to_affine(curve, D1) == to_affine(curve, D2)


def test_projective_infinity_is_canonical(p17):
    curve = p17.curve
    inf = to_projective(curve, INFINITY)
    assert (inf.X.value, inf.Y.value, inf.Z.value) == (1, 1, 0)
    assert inf.is_infinity
    assert to_affine(curve, inf) == INFINITY
    # doubling keeps the canonical triple
    D = point_double_projective(curve, inf)
    assert (D.X.value, D.Y.value, D.Z.value) == (1, 1, 0)


def test_madd_degenerate_branches(p17):
    curve = p17.curve
    G = p17.base
    Gp = to_projective(curve, G)
    # equal points fall back to doubling
    S = point_add_projective(curve, Gp, G)
    assert to_affine(curve, S) == point_double_affine(curve, G)
    # inverse points give infinity
    S = point_add_projective(curve, Gp, point_neg(curve, G))
    assert to_affine(curve, S) == INFINITY
    # infinity accumulator embeds the addend
    S = point_add_projective(curve, to_projective(curve, INFINITY), G)
    assert to_affine(curve, S) == G


def test_two_torsion_doubles_to_infinity(b4):
    # x = 0 is the 2-torsion point on a binary curve
    curve = b4.curve
    tor = [P for P in _points(b4)
           if not P.is_infinity and P.x.value == 0]
    assert tor, "toy curve should have a 2-torsion point"
    for P in tor:
        assert point_double_affine(curve, P) == INFINITY
        D = point_double_projective(curve, to_projective(curve, P))
        assert D.is_infinity


def test_system_mismatch(p17, b4):
    # a Lopez-Dahab point handed to a Jacobian curve: its field differs
    Pp = to_projective(b4.curve, b4.base)
    with pytest.raises(FieldMismatch):
        to_affine(p17.curve, Pp)
    with pytest.raises(FieldMismatch):
        point_double_projective(p17.curve, Pp)
    with pytest.raises(FieldMismatch):
        point_add_projective(p17.curve, Pp, p17.base)


def test_singular_curves_rejected():
    f = FieldSpec.prime(17)
    with pytest.raises(ValueError):
        CurveParams(field=f, a=f.zero, b=f.zero)
    g = FieldSpec.binary(4, 0b10011)
    with pytest.raises(ValueError):
        CurveParams(field=g, a=g.one, b=g.zero)
    with pytest.raises(FieldMismatch):
        CurveParams(field=f, a=g.one, b=f.one)
