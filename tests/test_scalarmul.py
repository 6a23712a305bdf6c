"""Scalar multiplication: frozen multiples, the tape's columns, input
checks, audit.  The whole pipeline on each toy input is checked by
`conftest.check_scalar_mul`, in acceptance criteria 3, 4 and 6."""

import pytest

from eccnoc import procmodel, scalarmul
from eccnoc.curves import AffinePoint, INFINITY, point_add_affine
from eccnoc.errors import (BadValue, EmptyTrace, NotOnCurve,
                           OracleBoundExceeded)
from eccnoc.fields import OpKind
from eccnoc.presets import get_preset
from eccnoc.scalarmul import (AUDIT_BASELINE, OpTrace, Phase, count_report,
                              run_binary_method, scalar_mul,
                              scalar_mul_reference)


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


class _StampingTape(scalarmul._Tape):
    """Oracle tape: stamps each op with its kind, phase, step, label and
    input value as it is recorded, the way a tape of per-op rows does.
    It wraps each of the tape's recorders on the instance, and never
    reads the tape's segment list; an XFER is stamped init and -1
    wherever a kernel first asks for it."""

    def __init__(self, spec):
        super().__init__(spec)
        self.stamps = []            # (kind, phase, step, label, value)
        self.step_columns = []
        self.phase, self.step = Phase.INIT, -1
        for name in ("add", "sub", "mul", "sqr", "inv"):
            setattr(self, name,
                    self._stamped(OpKind[name.upper()], getattr(self, name)))

    def _stamped(self, kind, record):
        def stamped(*args):
            self.stamps.append((kind, self.phase, self.step, "", None))
            return record(*args)
        return stamped

    def const(self, elem, label):
        n = len(self.stamps)
        idx = super().const(elem, label)
        if idx == n:  # a new input, not one already on the tape
            self.stamps.append(
                (OpKind.XFER, Phase.INIT, -1, label, elem.value))
        return idx

    def begin_step(self, column):
        super().begin_step(column)
        if column == "convert":
            self.phase, self.step = Phase.CONVERT, -1
        else:
            self.phase, self.step = Phase.ITERATE, len(self.step_columns)
            self.step_columns.append(column)


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
                    col = tape.step_columns[step]
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


def test_a_run_without_work_is_an_empty_tape(p17):
    for k, P in ((0, p17.base), (5, INFINITY)):
        tape = run_binary_method(p17.curve, k, P)
        assert (tape.values, bytes(tape.kinds), tape.operands, tape.inputs,
                tape.starts, tape.result) == ([], b"", [], {}, [], None)
        t = OpTrace()
        t._count(tape)
        assert t.to_dict() == OpTrace().to_dict()


def test_a_tape_without_segments_is_all_init(p17):
    # the tape one kernel runs on (`curves`) opens no segment, so none of
    # its ops counts as a conversion
    tape = scalarmul._Tape(p17.curve.field)
    tape.sqr(tape.const(p17.base.x, "x"))
    assert list(tape.segments()) == [("init", 0, 2)]


def test_input_validation(p17):
    with pytest.raises(ValueError):
        scalar_mul(p17.curve, -1, p17.base)
    e = p17.curve.field.element
    with pytest.raises(NotOnCurve):
        scalar_mul(p17.curve, 3, AffinePoint(e(5), e(2)))
    with pytest.raises(OracleBoundExceeded):
        scalar_mul_reference(p17.curve, (1 << 16) + 1, p17.base)
    with pytest.raises(BadValue, match="nonnegative"):
        scalar_mul_reference(p17.curve, -1, p17.base)


@pytest.mark.parametrize("k,match", [
    (3.0, "must be an int, got float"),
    (True, "must be an int, got bool"),
    ("3", "must be an int, got str"),
    (1 << scalarmul.MAX_SCALAR_BITS, "4097 bits"),
    (-(1 << scalarmul.MAX_SCALAR_BITS), "4097 bits"),
])
def test_scalar_type_and_width_are_checked_first(p17, k, match):
    assert scalarmul.MAX_SCALAR_BITS == 4096
    t = OpTrace()
    with pytest.raises(BadValue, match=match):
        scalar_mul(p17.curve, k, p17.base, t)
    assert all(n == 0 for n in t.totals().values())
    with pytest.raises(BadValue, match=match):
        procmodel.compile_scalar_mul(p17.curve, k, p17.base)
    if type(k) is not int:
        with pytest.raises(BadValue, match=match):
            scalar_mul_reference(p17.curve, k, p17.base)


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
    # counts other than the trace's own are refused, not mixed in
    for n_doubles, n_adds in ((4, 2), (3, 1), (0, 0)):
        with pytest.raises(BadValue, match="disagree with the trace's 3 "):
            count_report(t, n_doubles, n_adds)


def test_count_report_of_repeated_runs_is_that_of_one():
    # every column, the conversion included, is divided by the runs the
    # trace recorded, so two runs of one k audit as one run
    preset = get_preset("prime32")
    one, two = OpTrace(), OpTrace()
    scalar_mul(preset.curve, 0xb7a3, preset.base, one)
    for _ in range(2):
        scalar_mul(preset.curve, 0xb7a3, preset.base, two)
    assert (one.n_conversions, two.n_conversions) == (1, 2)
    audit = [count_report(t, t.n_point_doubles, t.n_point_adds).cells
             for t in (one, two)]
    assert audit[0] == audit[1]
    assert audit[1]["convert"]["INV"]["measured"] == 1.0


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
