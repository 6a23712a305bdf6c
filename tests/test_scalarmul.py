"""Scalar multiplication: oracle equivalence, trace structure, audit."""

import pytest

from eccnoc.curves import AffinePoint, INFINITY, point_add_affine
from eccnoc.errors import EmptyTrace, NotOnCurve, OracleBoundExceeded
from eccnoc.fields import OpKind
from eccnoc.scalarmul import (AUDIT_BASELINE, OpTrace, Phase, count_report,
                              scalar_mul, scalar_mul_reference)

from conftest import seeded


def test_frozen_multiples_p17(p17):
    e = p17.curve.field.element
    G = p17.base
    assert scalar_mul(p17.curve, 2, G) == AffinePoint(e(6), e(3))
    assert scalar_mul(p17.curve, 3, G) == AffinePoint(e(10), e(6))
    assert scalar_mul(p17.curve, 5, G) == AffinePoint(e(9), e(16))
    assert scalar_mul(p17.curve, 19, G) == INFINITY
    assert scalar_mul(p17.curve, 20, G) == G


def test_frozen_multiples_b4(b4):
    e = b4.curve.field.element
    G = b4.base
    assert scalar_mul(b4.curve, 2, G) == AffinePoint(e(5), e(7))
    assert scalar_mul(b4.curve, 3, G) == AffinePoint(e(9), e(6))
    assert scalar_mul(b4.curve, 5, G) == AffinePoint(e(15), e(0))
    assert scalar_mul(b4.curve, 12, G) == AffinePoint(e(0), e(7))
    assert scalar_mul(b4.curve, 23, G) == AffinePoint(e(8), e(8))
    assert scalar_mul(b4.curve, 24, G) == INFINITY
    assert scalar_mul(b4.curve, 25, G) == G


@pytest.mark.parametrize("preset_name", ["p17", "b4"])
def test_matches_reference_for_sampled_scalars(preset_name, p17, b4):
    preset = {"p17": p17, "b4": b4}[preset_name]
    rng = seeded(1312)
    ks = list(range(0, 70)) + [rng.randrange(70, 1 << 9) for _ in range(30)]
    for k in ks:
        assert scalar_mul(preset.curve, k, preset.base) == \
            scalar_mul_reference(preset.curve, k, preset.base), k


def test_trace_structure_matches_scalar_shape(p17, b4):
    rng = seeded(42)
    for preset in (p17, b4):
        for _ in range(30):
            k = rng.randrange(2, 1 << 12)
            t = OpTrace()
            scalar_mul(preset.curve, k, preset.base, t)
            assert t.n_point_doubles == k.bit_length() - 1
            assert t.n_point_adds == bin(k).count("1") - 1


def test_single_inversion_at_convert(p17, b4):
    rng = seeded(7)
    for preset in (p17, b4):
        order = preset.curve.order
        for _ in range(40):
            k = rng.randrange(2, 1 << 12)
            if k % order == 0:
                continue  # infinite results have no conversion inversion
            t = OpTrace()
            R = scalar_mul(preset.curve, k, preset.base, t)
            assert not R.is_infinity
            assert t.phase_counts(Phase.ITERATE)[OpKind.INV] == 0
            assert t.phase_counts(Phase.INIT)[OpKind.INV] == 0
            assert t.phase_counts(Phase.CONVERT)[OpKind.INV] == 1
            assert t.totals()[OpKind.INV] == 1


def test_infinite_result_skips_the_inversion(p17):
    t = OpTrace()
    assert scalar_mul(p17.curve, 19, p17.base, t) == INFINITY
    assert t.totals()[OpKind.INV] == 0
    assert t.n_point_doubles == 4  # 19 = 0b10011 still walks the loop
    assert t.n_point_adds == 2


def test_totals_equal_phase_sums(p17):
    t = OpTrace()
    scalar_mul(p17.curve, 0b110101, p17.base, t)
    totals = t.totals()
    for kind in totals:
        assert totals[kind] == sum(
            t.phase_counts(ph)[kind] for ph in Phase)


def test_trivial_scalars(p17):
    t = OpTrace()
    assert scalar_mul(p17.curve, 0, p17.base, t) == INFINITY
    assert all(n == 0 for n in t.totals().values())
    t = OpTrace()
    assert scalar_mul(p17.curve, 1, p17.base, t) == p17.base
    assert t.n_point_doubles == 0 and t.n_point_adds == 0
    # k = 1 still pays the conversion
    assert t.phase_counts(Phase.CONVERT)[OpKind.INV] == 1
    assert scalar_mul(p17.curve, 5, INFINITY) == INFINITY


def test_input_validation(p17):
    with pytest.raises(ValueError):
        scalar_mul(p17.curve, -1, p17.base)
    e = p17.curve.field.element
    with pytest.raises(NotOnCurve):
        scalar_mul(p17.curve, 3, AffinePoint(e(5), e(2)))
    with pytest.raises(OracleBoundExceeded):
        scalar_mul_reference(p17.curve, (1 << 16) + 1, p17.base)


def test_reference_is_literal_repeated_addition(p17):
    acc = INFINITY
    for k in range(12):
        assert scalar_mul_reference(p17.curve, k, p17.base) == acc
        acc = point_add_affine(p17.curve, acc, p17.base)


def test_audit_baseline_cells_are_frozen():
    # the baseline table itself, spelled out
    assert AUDIT_BASELINE["point_add"] == {
        "ADD": 2, "MUL": 4, "INV": 0, "SQR": 1}
    assert AUDIT_BASELINE["point_double"] == {
        "ADD": 1, "MUL": 2, "INV": 0, "SQR": 4}
    assert AUDIT_BASELINE["convert"] == {
        "ADD": 6, "MUL": 10, "INV": 1, "SQR": 1}


def test_count_report_arithmetic(p17):
    # k = 13 = 0b1101: 3 doublings, 2 additions
    t = OpTrace()
    scalar_mul(p17.curve, 13, p17.base, t)
    rep = count_report(t, t.n_point_doubles, t.n_point_adds)
    assert rep.n_point_doubles == 3 and rep.n_point_adds == 2
    dbl = t.column_counts("point_double")
    cell = rep.cells["point_double"]["MUL"]
    assert cell["baseline"] == 2
    assert cell["measured"] == dbl[OpKind.MUL] / 3
    assert cell["deviation"] == cell["measured"] - 2
    add_row = rep.cells["point_add"]["ADD"]
    seg = t.column_counts("point_add")
    assert add_row["measured"] == (seg[OpKind.ADD] + seg[OpKind.SUB]) / 2
    conv = rep.cells["convert"]
    assert conv["INV"]["measured"] == 1.0
    assert conv["INV"]["deviation"] == 0.0
    assert rep.format_text()  # renders without error


def test_count_report_without_additions(p17):
    # k = 8 = 0b1000: doublings only
    t = OpTrace()
    scalar_mul(p17.curve, 8, p17.base, t)
    rep = count_report(t, t.n_point_doubles, t.n_point_adds)
    assert rep.n_point_adds == 0
    for row in ("ADD", "MUL", "INV", "SQR"):
        assert rep.cells["point_add"][row]["measured"] is None
        assert rep.cells["point_add"][row]["deviation"] is None
    assert rep.cells["point_double"]["MUL"]["measured"] is not None
    assert rep.format_text()


def test_count_report_empty_trace(p17):
    t = OpTrace()
    scalar_mul(p17.curve, 1, p17.base, t)
    with pytest.raises(EmptyTrace):
        count_report(t, t.n_point_doubles, t.n_point_adds)
