"""Scalar multiplication: frozen multiples, the tape's columns, input
checks, audit.  The whole pipeline on each toy input is checked by
`conftest.check_scalar_mul`, in acceptance criteria 3, 4 and 6."""

import inspect
from collections import Counter

import pytest

from eccnoc import procmodel, scalarmul
from eccnoc.curves import (_COORDINATES, _KERNELS, AffinePoint, CurveParams,
                           INFINITY, ProjectivePoint, _run_table,
                           point_add_affine, point_neg, to_affine)
from eccnoc.errors import (BadValue, EmptyTrace, NotOnCurve,
                           OracleBoundExceeded)
from eccnoc.fields import FieldKind, OpKind, _define
from eccnoc.presets import PRESETS, get_preset
from eccnoc.scalarmul import (AUDIT_BASELINE, OpTrace, Phase, count_report,
                              run_binary_method, scalar_mul,
                              scalar_mul_reference)

from conftest import enumerate_points, even_order_toy, seeded


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

    def __init__(self, spec, table):
        super().__init__(spec, table)
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

    def input(self, label):
        n = len(self.stamps)
        idx = super().input(label)
        if idx == n:  # a new input, not one already on the tape
            self.stamps.append(
                (OpKind.XFER, Phase.INIT, -1, label, self.table[label]))
        return idx

    def begin_step(self, column):
        super().begin_step(column)
        if column == "convert":
            self.phase, self.step = Phase.CONVERT, -1
        else:
            self.phase, self.step = Phase.ITERATE, len(self.step_columns)
            self.step_columns.append(column)


def _interpreted(monkeypatch):
    """Run every loop step on its interpreted kernel, which records
    through the tape's recorders, as for a step no compiled one takes;
    each kernel asks for its own inputs, the run asks for none of them
    beforehand."""
    def declined(*args):
        return None
    monkeypatch.setattr(scalarmul, "_COMPILED", dict.fromkeys(
        scalarmul._COMPILED, dict.fromkeys(scalarmul._STEPS, (declined, ()))))


def test_column_counts_equal_a_per_op_recount(p17, b4, monkeypatch):
    """The column counts sliced at the tape's boundaries, and the phases,
    steps, labels and values compile stamps from them, agree with a
    tape that stamps every op as it is recorded; k up to twice the order
    reaches the doubling-only, madd-to-double and infinite-result
    branches.  The stamps need the interpreted kernels: a compiled step
    records its ops without the tape's recorders."""
    monkeypatch.setattr(scalarmul, "_Tape", _StampingTape)
    _interpreted(monkeypatch)
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


def _tape_columns(tape):
    """A copy of the tape's columns, its first segment opened past any
    inputs at its start: a run asks for its steps' inputs before its
    first step, while the interpreted kernels ask for them inside it."""
    starts = list(tape.starts)
    if starts:
        column, a = starts[0]
        while a < len(tape.kinds) and tape.kinds[a] == scalarmul._XFER:
            a += 1
        starts[0] = (column, a)
    return (list(tape.values), bytes(tape.kinds), tape.operands,
            dict(tape.inputs), starts, tape.result)


def test_compiled_steps_record_the_interpreted_tape(monkeypatch):
    """The compiled doubling and doubling followed by mixed addition
    leave every column of the tape as the interpreted kernels do, on
    every input criterion 3 runs through the pipeline, on the even-order
    toy curve and on sampled 64-bit inputs; each degenerate mixed
    addition declines to its kernel, on both field kinds, and no general
    one does."""
    toys = [(PRESETS[name].curve, PRESETS[name].base)
            for name in ("p17", "b4")] + [even_order_toy()]
    inputs = [(curve, k, P) for curve, _ in toys
              for P in enumerate_points(curve)
              for k in range(2 * curve.order + 2)]
    for name in ("prime64", "binary63"):
        rng = seeded(3100 + len(name))
        preset = PRESETS[name]
        inputs += [(preset.curve, k, preset.base)
                   for k in [1, 1 << 63, *((1 << 63) | rng.getrandbits(63)
                                           for _ in range(8))]]
    declined = Counter()
    for kind, kernels in list(_KERNELS.items()):
        def counted(ops, X1, Y1, Z1, madd=kernels["point_add"]):
            # the curve and the addend, read from the run's table
            e, table = ops.spec.element, ops.table
            curve = CurveParams(ops.spec, e(table["a"]), e(table["b"]))
            Q = AffinePoint(e(table["Px"]), e(table["Py"]))
            acc = to_affine(curve, ProjectivePoint(
                *map(ops.element, (X1, Y1, Z1))))
            declined[ops.spec.kind, "at infinity" if acc.is_infinity
                     else "equal" if acc == Q
                     else "inverse" if acc == point_neg(curve, Q)
                     else "general"] += 1
            return madd(ops, X1, Y1, Z1)
        monkeypatch.setitem(_KERNELS, kind, {**kernels, "point_add": counted})
    compiled = [_tape_columns(run_binary_method(*args)) for args in inputs]
    assert set(declined) == {(kind, case) for kind in FieldKind
                             for case in ("at infinity", "equal", "inverse")}
    _interpreted(monkeypatch)
    for args, columns in zip(inputs, compiled, strict=True):
        assert _tape_columns(run_binary_method(*args)) == columns, args
        # k = 1 runs no loop step, so no step's input is asked for
        if args[1] == 1 and not args[2].is_infinity:
            assert list(columns[3]) == ["Px", "Py", "one"]


def test_a_fused_step_that_declines_records_nothing(p17, monkeypatch):
    """On p17 (order 19), k = 39 = 0b100111 runs three set bits after two
    clear ones: 8P + P is general; 18P + P adds inverse points, and the
    last bit doubles infinity, then adds P to it.  The doubling half of
    the fused step is general each time; its addition half is not in
    the last two, where the fused step declines having recorded nothing,
    and the tape is the one the interpreted kernels record."""
    curve, P = p17.curve, p17.base
    both, labels = scalarmul._COMPILED[curve.field.kind]["double_madd"]
    calls = []

    def watched(tape, X1, Y1, Z1, ins):
        # the columns only grow, so their lengths show what was recorded
        def lengths():
            return [len(column) for column in (
                tape.values, tape.kinds, tape.starts, tape._operands)]
        before = lengths()
        out = both(tape, X1, Y1, Z1, ins)
        calls.append((tape.values[Z1] == 0, out is None, lengths() == before))
        return out
    monkeypatch.setitem(scalarmul._COMPILED[curve.field.kind], "double_madd",
                        (watched, labels))
    compiled = _tape_columns(run_binary_method(curve, 39, P))
    assert calls == [(False, False, False), (False, True, True),
                     (True, True, True)]
    _interpreted(monkeypatch)
    assert _tape_columns(run_binary_method(curve, 39, P)) == compiled
    assert scalar_mul(curve, 39, P) == P


def test_a_step_tests_an_input_before_any_op(p17, b4, monkeypatch):
    """A step of the mixed addition alone, compiled as a loop step is,
    tests its input Z1 before any op.  At Z1 = 0 (the accumulator at
    infinity) it declines having recorded nothing, as it does at equal
    and inverse points; from any other accumulator it records the tape
    its interpreted kernel records; on both field kinds."""
    monkeypatch.setitem(scalarmul._STEPS, "madd", ("point_add",))
    for preset in (p17, b4):
        curve, P, kind = preset.curve, preset.base, preset.curve.field.kind
        source, labels = scalarmul._step_source("madd", kind)
        # Z1 is the third input, v2; the ops begin after `n` is read
        lines = source.splitlines()
        assert lines.index("    if v2 == 0: return None") < \
            lines.index("    n = len(values)")
        step = _define(source, f"<{kind.value} madd>")["madd"]
        for R in enumerate_points(curve):
            xyz = (1, 1, 0) if R.is_infinity else (R.x.value, R.y.value, 1)

            def fresh():
                tape = scalarmul._Tape(curve.field, {
                    **_run_table(curve, P), **dict(zip("XYZ", xyz))})
                return (tape, tuple(map(tape.input, "XYZ")),
                        tuple(map(tape.input, labels)))
            tape, inputs, ins = fresh()
            before = _tape_columns(tape)
            out = step(tape, *inputs, ins)
            if R.is_infinity or R.x == P.x:
                assert out is None and _tape_columns(tape) == before, R
                continue
            ref, inputs, _ = fresh()
            ref.begin_step("point_add")
            assert out == _KERNELS[kind]["point_add"](ref, *inputs), R
            assert _tape_columns(tape) == _tape_columns(ref), R


def test_a_run_asks_for_its_inputs_before_its_first_step():
    """For k >= 2 the embedding's and both steps' inputs are on the tape
    before the first step's segment opens, and `inputs` names every XFER
    of the run by one label and holds that label's value from the run's
    table.  The only input a loop step may add is `zero`, which a mixed
    addition of inverse points asks for; on both field kinds."""
    toys = [(PRESETS[name].curve, PRESETS[name].base)
            for name in ("p17", "b4")] + [even_order_toy()]
    # every finite point: the list starts with infinity
    inputs = [(curve, k, P) for curve, _ in toys
              for P in enumerate_points(curve)[1:]
              for k in range(2, 2 * curve.order + 2)]
    for name in ("prime64", "binary63"):
        rng = seeded(3300 + len(name))
        preset = PRESETS[name]
        inputs += [(preset.curve, (1 << 63) | rng.getrandbits(63),
                    preset.base) for _ in range(8)]
    later = set()
    for curve, k, P in inputs:
        tape = run_binary_method(curve, k, P)
        steps = scalarmul._COMPILED[curve.field.kind]
        first = ["Px", "Py", "one", *steps["double"][1]]
        assert all(set(labels) <= set(first) for _, labels in steps.values())
        assert tape.starts[0] == ("point_double", len(first))
        assert list(tape.inputs)[:len(first)] == first
        assert sorted(tape.inputs.values()) == [
            i for i, code in enumerate(tape.kinds) if code == scalarmul._XFER]
        assert [tape.values[i] for i in tape.inputs.values()] == \
            list(map(tape.table.__getitem__, tape.inputs))
        later.add((curve.field.kind, *list(tape.inputs)[len(first):]))
    assert later == {(kind, *zero) for kind in FieldKind
                     for zero in ((), ("zero",))}


def test_operands_are_built_only_when_read(monkeypatch):
    """`scalar_mul` builds no operand tuple of a compiled step; compiling
    a run expands each compiled step once, a clear bit's doubling and a
    set bit's doubling followed by mixed addition; each read of the
    column expands it again, to the same tuples.  Each step holds its
    operand writer as a default, where the calls are counted."""
    calls = Counter()
    for kind, steps in scalarmul._COMPILED.items():
        for step, _ in steps.values():
            name = f"{step.__name__}_operands"
            def counted(frame, write=step.__defaults__[0], key=(kind, name)):
                calls[key] += 1
                return write(frame)
            monkeypatch.setattr(step, "__defaults__", (counted,))
    for name, k in (("prime64", 0xe3c45e0ad1bbea06),
                    ("binary63", 0xa5942337f65e5924)):
        preset = PRESETS[name]
        curve, P, kind = preset.curve, preset.base, preset.curve.field.kind
        trace = OpTrace()
        scalar_mul(curve, k, P, trace)
        count_report(trace, trace.n_point_doubles, trace.n_point_adds)
        assert not calls
        procmodel.compile_scalar_mul(curve, k, P)
        steps = {(kind, "double_operands"): k.bit_length() - k.bit_count(),
                 (kind, "double_madd_operands"): k.bit_count() - 1}
        assert calls == steps
        calls.clear()
        tape = run_binary_method(curve, k, P)
        assert tape.operands == tape.operands
        assert calls == {key: 2 * n for key, n in steps.items()}
        calls.clear()


def test_compiled_steps_show_their_source():
    """Each compiled step's source is in `linecache` under its file name,
    so `inspect.getsource` returns the straight-line code."""
    for kind, steps in scalarmul._COMPILED.items():
        assert list(steps) == list(scalarmul._STEPS)
        for name, (step, labels) in steps.items():
            assert step.__name__ == name
            assert step.__code__.co_filename == f"<{_COORDINATES[kind]} steps>"
            writer = step.__defaults__[0]
            assert (inspect.getsource(writer) + inspect.getsource(step),
                    labels) == scalarmul._step_source(step.__name__, kind)


def test_a_run_without_work_is_an_empty_tape(p17):
    for k, P in ((0, p17.base), (5, INFINITY)):
        tape = run_binary_method(p17.curve, k, P)
        assert (tape.values, bytes(tape.kinds), tape.operands, tape.inputs,
                tape.starts, tape.result) == ([], b"", (), {}, [], None)
        t = OpTrace()
        t._count(tape)
        assert t.to_dict() == OpTrace().to_dict()


def test_a_tape_without_segments_is_all_init(p17):
    # the tape one kernel runs on (`curves`) opens no segment, so none of
    # its ops counts as a conversion
    tape = scalarmul._Tape(p17.curve.field, {"x": p17.base.x.value})
    tape.sqr(tape.input("x"))
    _, _, phases, pidxs, _, _ = tape.columns()
    assert (phases, pidxs) == ((Phase.INIT,) * 2, (-1, -1))
    t = OpTrace()
    t._count(tape)
    want = {kind: 0 for kind in OpKind if kind is not OpKind.XFER}
    want[OpKind.SQR] = 1
    assert t.column_counts("init") == t.totals() == want


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
