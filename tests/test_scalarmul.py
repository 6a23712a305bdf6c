"""Scalar multiplication: oracle equivalence, trace structure, audit."""

import pytest

from eccnoc import procmodel, scalarmul
from eccnoc.curves import AffinePoint, INFINITY, point_add_affine
from eccnoc.errors import EmptyTrace, NotOnCurve, OracleBoundExceeded
from eccnoc.fields import OpKind
from eccnoc.scalarmul import (AUDIT_BASELINE, OpTrace, Phase, count_report,
                              run_binary_method, scalar_mul,
                              scalar_mul_reference)

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


class _StampingTape(scalarmul._Tape):
    """Oracle tape: stamps each op with its kind, phase, step, label and
    input value as it is recorded, the way a tape of per-op rows does.
    It never reads `step_starts` or `convert_start`; an XFER is stamped
    init and -1 wherever a kernel first asks for it."""

    def __init__(self, spec):
        super().__init__(spec)
        self.stamps = []            # (kind, phase, step, label, value)
        self.step_is_add = []
        self.phase, self.step = Phase.INIT, -1

    def _stamp(self, kind):
        self.stamps.append((kind, self.phase, self.step, "", None))

    def add(self, a, b):
        self._stamp(OpKind.ADD)
        return super().add(a, b)

    def sub(self, a, b):
        self._stamp(OpKind.SUB)
        return super().sub(a, b)

    def mul(self, a, b):
        self._stamp(OpKind.MUL)
        return super().mul(a, b)

    def sqr(self, a):
        self._stamp(OpKind.SQR)
        return super().sqr(a)

    def inv(self, a):
        self._stamp(OpKind.INV)
        return super().inv(a)

    def const(self, elem, label):
        n = len(self.stamps)
        idx = super().const(elem, label)
        if idx == n:  # a new input, not one already on the tape
            self.stamps.append(
                (OpKind.XFER, Phase.INIT, -1, label, elem.value))
        return idx

    def begin_step(self, is_add):
        super().begin_step(is_add)
        self.phase, self.step = Phase.ITERATE, len(self.step_is_add)
        self.step_is_add.append(is_add)

    def begin_convert(self):
        super().begin_convert()
        self.phase, self.step = Phase.CONVERT, -1


def test_column_counts_equal_a_per_op_recount(p17, b4, monkeypatch):
    """The column counts sliced at the tape's boundaries, and the phases,
    steps, labels and values compile stamps from them, agree with a
    tape that stamps every op as it is recorded; k up to twice the order
    reaches the doubling-only, madd-to-double and infinite-result
    branches."""
    monkeypatch.setattr(scalarmul, "_Tape", _StampingTape)
    for preset in (p17, b4):
        curve, P = preset.curve, preset.base
        for k in range(1, 2 * curve.order + 1):
            tape = run_binary_method(curve, k, P)
            t = OpTrace()
            t._count(tape)
            want = {col: {kind: 0 for kind in OpKind if kind is not OpKind.XFER}
                    for col in ("init", "point_double", "point_add",
                                "convert")}
            for kind, phase, step, _, _ in tape.stamps:
                if kind is OpKind.XFER:
                    continue
                if step < 0:
                    col = phase.value
                else:
                    col = ("point_add" if tape.step_is_add[step]
                           else "point_double")
                want[col][kind] += 1
            assert {col: t.column_counts(col) for col in want} == want, k
            if tape.result is None:
                continue  # no graph for a result at infinity
            # compile this very tape
            monkeypatch.setattr(procmodel, "run_binary_method",
                                lambda *args: tape)
            G = procmodel.compile_scalar_mul(curve, k, P)
            assert (G.kinds, G.phases, G.point_op_index, G.labels,
                    G.values) == tuple(zip(*tape.stamps)), k


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
