"""Binary-method scalar multiplication, recorded op by op.

The left-to-right double-and-add loop runs over the shared projective
kernels.  A scalar k with bit length l costs l-1 point doublings and
HW(k)-1 mixed additions, and the single field inversion of the whole run
happens in the final conversion back to affine coordinates.

Every run is recorded on a tape (`run_binary_method`) held as columns.
The tape has one recorder per arity, a binary one for add, sub and mul
and a unary one for sqr and inv; each computes the op's value on raw
ints and appends it, its kind as a one-byte code and its operands.  The
tape also keeps one list of segments: where each point operation and
the conversion begin, each named by the audit column it counts under
(`point_double`, `point_add` or `convert`) and recorded by that
column's kernel (`curves._KERNELS`); an op's phase and step follow
from its segment, not from the op.  Each op's code also carries its
segment's column in bits 3-4 (`_TAGS`), and an XFER the init column's.
A run that does no work (k = 0 or P at infinity) is an empty tape with
no result.

A loop step is named in `_STEPS` by the columns of the segments it
opens, in order: `double` is a doubling, `double_madd` a doubling then
a mixed addition.  It is recorded by a compiled step first
(`_COMPILED`).  At import, each step of each field kind is interpreted
once (`_interpret`: the kernel of each of its columns in turn, each in
a segment it opens) on a tape whose every input's value is its label
(`_Texts`), taking the general branch at every zero test and logging
the value tested as a guard; the ops it records become one
straight-line function, compiled once per field kind, and the labels
it asks for are kept beside it.  The function computes each op as
`fields.op_expression` writes it, inline where the field kind has an
expression for it (every GF(p) add, sub, mul and sqr, every GF(2^m)
add and sub) and by the field's closure otherwise, and appends the
step's values and tagged kind codes to the columns and its segments'
starts to `starts` at once.
Its operand indices are built on read: the step appends one frame for
them, which `_Tape.operands` expands only when `compile_scalar_mul` or
a test reads it, so `scalar_mul` never builds them.  A tape input is
named by its label alone, its value read from the run's table
(`curves._run_table`).  The inputs a step reads (curve constants, the
base point) are asked for once per run, right after the embedding and
in the order the first doubling's kernel asks for them, so each keeps
the id the kernels alone give it.  A clear bit of k runs the compiled
`double`, a set bit the compiled `double_madd`.  One rule covers every
step that declines: when a guard's value is 0 (an accumulator at
infinity, equal or inverse points) the compiled step returns None
having recorded nothing, and the loop interprets the step as it was
traced, op by op, its columns' kernels each in a segment it opens
(`begin_step`).  Either way the tape is the one the kernels alone
record.  The kernels stay the one statement of the formulas.

The tape is the one program both consumers read.  `scalar_mul` counts
it into an `OpTrace` by column and phase:

  Init     embedding the base point (no arithmetic)
  Iterate  every doubling and mixed addition in the loop
  Convert  the one projective-to-affine conversion

counting each column's ops as `bytearray.count` of their tagged codes
over the whole tape and its point operations by its segments, and
`procmodel.compile_scalar_mul` builds a task graph from the columns
the tape decodes for it (`_Tape.columns`).  The op-kind facts the tape
shares with `procmodel` (each kind's code, arity and raw op) are
stated once, in `fields`.

`count_report` compares the measured per-point-op averages against a
fixed baseline cost table and reports the deviations; the baseline is an
idealised count per point operation, so nonzero deviations are expected
and are exactly what the report is for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Optional

from .curves import (AffinePoint, CurveParams, INFINITY, _add_affine_raw,
                     _COORDINATES, _KERNELS, _embed_kernel,
                     _require_on_curve, _run_table)
from .errors import BadValue, EmptyTrace, OracleBoundExceeded
from .fields import (ARITH_KINDS, ARITY, KIND_CODES, MAX_FIELD_BITS,
                     FieldElement, FieldKind, FieldSpec, OpKind, _RAW_OPS,
                     _define, _function, _Texts, op_expression, op_locals)

ORACLE_BOUND = 1 << 16
# twice the widest field: a 4096-bit k compiles in a fraction of a second,
# and the tape grows linearly with the width past it
MAX_SCALAR_BITS = 2 * MAX_FIELD_BITS

# the tape records each op's kind as its code (`fields.KIND_CODES`),
# tagged with its column (`_TAGS`); the getter of a field's raw ops as a
# tuple indexed by code
_XFER = KIND_CODES.index(OpKind.XFER)
_raw_ops = attrgetter(*_RAW_OPS)


class Phase(enum.Enum):
    INIT = "init"
    ITERATE = "iterate"
    CONVERT = "convert"

    __hash__ = object.__hash__   # identity, as for OpKind


# every count column: its phase and, for the audit's columns (in the
# audit's order), the idealised field-op cost of one of its point
# operations by row, where the ADD row covers additions and subtractions
# together; a loop op counts under the column its step is named by
_ROWS = ("ADD", "MUL", "INV", "SQR")
_COLUMNS = {
    "init": (Phase.INIT, None),
    "point_double": (Phase.ITERATE, (1, 2, 0, 4)),
    "point_add": (Phase.ITERATE, (2, 4, 0, 1)),
    "convert": (Phase.CONVERT, (6, 10, 1, 1)),
}
AUDIT_BASELINE = {col: dict(zip(_ROWS, base))
                  for col, (_, base) in _COLUMNS.items() if base}

# a kind code on the tape carries its segment's column in bits 3-4, the
# column's tag; an XFER carries the init column's, 0, wherever it is
# recorded.  A column's ops count as `bytearray.count` of their tagged
# codes, `_CODE_KINDS` decodes every tagged code, None where no op
# has it, and `_CODE_PHASES` gives every tagged code its column's phase
_TAGS = {col: i << 3 for i, col in enumerate(_COLUMNS)}
_CODE_KINDS = (*KIND_CODES, *(None,) * (8 - len(KIND_CODES))) * len(_TAGS)
_CODE_PHASES = tuple(phase for phase, _ in _COLUMNS.values()
                     for _ in range(8))


# the tape's recorder of an arithmetic kind code, binary or unary by its
# kind's arity (see `_Tape`)
def _recorder(code: int):
    if ARITY[KIND_CODES[code]] == 2:
        def record(self, a: int, b: int) -> int:
            values = self.values
            values.append(self._ops[code](values[a], values[b]))
            self.kinds.append(code | self._tag)
            self._operands.append((a, b))
            return len(values) - 1
    else:
        def record(self, a: int) -> int:
            values = self.values
            values.append(self._ops[code](values[a]))
            self.kinds.append(code | self._tag)
            self._operands.append((a,))
            return len(values) - 1
    return record


class _Tape:
    """The recorder the curve kernels run on, held as columns.

    A kernel value is an index into the tape.  `add`, `sub` and `mul`
    are the one binary recorder and `sqr` and `inv` the one unary
    recorder, by their kinds' `fields.ARITY`, each made once for its
    kind's code (`fields.KIND_CODES`): it computes the raw int with the
    field's raw op for that code (bound once per tape in `_ops`) and
    appends its value to `values`, the code tagged with the open
    segment's column to the `kinds` bytearray and its operand indices to
    `_operands`, and returns the new index.  A compiled step appends one
    frame to `_operands` for all its ops instead (`_step_source`);
    `operands` is the read-only view of every op's operand indices in
    tape order, built from both on each read.  `input` appends an input
    (XFER, its code untagged) once per label, its value read from the
    run's table of raw values by label, and files its index in `inputs`
    under the label, in the order the inputs were first asked for.
    `is_zero` reads the computed value, so the kernels branch exactly as
    the real run does.

    No op carries its phase or step.  `starts` holds one (column, index)
    pair per segment after the init ops: the audit column the segment
    counts under and the index where it begins, appended by a compiled
    step for each segment it opens, and by `begin_step` before each
    kernel run op by op (`_interpret`); the conversion is the segment
    named `convert`.
    An op's phase follows from its segment's column (`_COLUMNS`) and its
    step from its segment, the init ops being those before the first,
    except that an XFER belongs to the init phase wherever a kernel
    first asks for it; `columns` reads the tape as a task graph's
    columns.
    """

    def __init__(self, spec: FieldSpec, table: dict[str, int]):
        self.spec = spec
        self.table = table
        self.values: list[int] = []
        self.kinds = bytearray()
        # in tape order, the operand tuple of each op recorded one by one
        # and one frame (a list) for each compiled step's ops
        self._operands: list = []
        self.inputs: dict[str, int] = {}
        self.starts: list[tuple[str, int]] = []
        self.result: Optional[tuple[int, int]] = None
        # the tag of the open segment's column, which each op's code
        # carries; the init column's until a segment opens
        self._tag = 0
        # the field's raw ops, indexed by kind code
        self._ops = _raw_ops(spec)

    add, sub, mul, sqr, inv = map(_recorder, range(len(ARITH_KINDS)))

    def input(self, label: str) -> int:
        idx = self.inputs.get(label)
        if idx is None:
            idx = self.inputs[label] = len(self.values)
            self.values.append(self.table[label])
            self.kinds.append(_XFER)
            self._operands.append(())
        return idx

    @property
    def operands(self) -> tuple[tuple[int, ...], ...]:
        """Each op's operand indices, by index, built on every read: a
        compiled step's frame [writer, n, *inputs] expands to its ops'
        operand tuples by calling its writer on it."""
        out = []
        for entry in self._operands:
            if type(entry) is tuple:
                out.append(entry)
            else:
                out += entry[0](entry)
        return tuple(out)

    def is_zero(self, a: int) -> bool:
        return self.values[a] == 0

    def element(self, a: int) -> FieldElement:
        return FieldElement(self.spec, self.values[a])

    def begin_step(self, column: str) -> None:
        """Open the next segment at the current end of the tape; its ops
        count under column `column`, their codes tagged with its tag."""
        self.starts.append((column, len(self.values)))
        self._tag = _TAGS[column]

    def columns(self) -> tuple[tuple, ...]:
        """The six `procmodel.TaskGraph` columns of a tape with a result,
        one entry per op: its kind and phase, decoded from its tagged
        code (an XFER's names the init column); its operands; its loop
        step's index, numbered by segment, or -1 outside the loop; and
        an input's label and value, "" and None for any other op."""
        # a tape with a result holds at least the base point's two
        # inputs, so the getter of its codes returns tuples
        decode = itemgetter(*self.kinds)
        # the init ops, then each segment, as (column, start) pairs
        bounds = [("init", 0), *self.starts, ("", len(self.values))]
        pidxs, steps = [], count()
        for (col, a), (_, b) in zip(bounds, bounds[1:]):
            pidxs += [next(steps) if _COLUMNS[col][0] is Phase.ITERATE
                      else -1] * (b - a)
        labels, values = [""] * len(pidxs), [None] * len(pidxs)
        # an input belongs to the whole run, wherever a kernel asked for it
        for label, i in self.inputs.items():
            labels[i] = label
            values[i] = self.values[i]
            pidxs[i] = -1
        return (decode(_CODE_KINDS), self.operands, decode(_CODE_PHASES),
                tuple(pidxs), tuple(labels), tuple(values))


# ---------------------------------------------------------------------------
# the compiled steps

# the field a kernel is traced on: raw ops that compute nothing
_TRACE_FIELD = SimpleNamespace(**dict.fromkeys(_RAW_OPS, lambda *_: None))


def _tuple_of(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


# each loop step by name: the column of each segment it opens, in order
_STEPS = {"double": ("point_double",),
          "double_madd": ("point_double", "point_add")}


def _interpret(tape: _Tape, kernels: dict, columns: tuple[str, ...], out):
    """Record a loop step op by op from the accumulator `out`: the kernel
    of each of its `columns` (`curves._KERNELS`) in turn, each in a
    segment it opens; return the last kernel's outputs."""
    for column in columns:
        tape.begin_step(column)
        out = kernels[column](tape, *out)
    return out


def _trace(kind: FieldKind, columns: tuple[str, ...], labels=()):
    """A tape of `_Texts` on which the step of `columns` was interpreted
    over field kind `kind` from the inputs X1, Y1 and Z1, after the
    inputs `labels` were asked for; the indices its `is_zero` logged,
    answering False to each; and the indices the last kernel returned."""
    tape = _Tape(_TRACE_FIELD, _Texts())
    guards: list[int] = []
    tape.is_zero = guards.append
    xyz = tuple(map(tape.input, ("X1", "Y1", "Z1")))
    for label in labels:
        tape.input(label)
    return tape, guards, _interpret(tape, _KERNELS[kind], columns, xyz)


def _step_source(name: str, kind: FieldKind) -> tuple[str, tuple[str, ...]]:
    """The source of the compiled step `name`'s operand writer
    `name_operands` and of `name`, the general path of its kernels over
    a field of kind `kind` (`_STEPS`) as one straight-line function of
    (tape, X1, Y1, Z1, ins) that holds the writer as a default; and the
    label of each input its kernels ask for besides X1, Y1 and Z1, in
    the order `ins` holds their tape indices.

    The kernels are traced twice (`_trace`): once to learn which inputs
    they ask for, then asking for all of those first, so the function
    reads its inputs before any op.  It computes every op into a local
    as `fields.op_expression` writes it, inline where the field kind
    has an expression for the op and by the field's closure otherwise.
    It returns None as soon as a logged value is 0, having written
    nothing.  Otherwise it appends the values
    and tagged kind codes of all its ops at once, its segments' (column,
    start) pairs to `starts`, and for their operands one frame, [writer,
    n, X1, Y1, Z1, *ins] with n the index of its first op, from which
    the writer returns the operand tuples the kernels record; so they
    are built only when `_Tape.operands` is read.
    """
    columns = _STEPS[name]
    xyz = ("X1", "Y1", "Z1")
    labels = tuple(_trace(kind, columns)[0].inputs)[len(xyz):]
    tape, guards, out = _trace(kind, columns, labels)
    n_in = len(tape.inputs)
    assert _XFER not in tape.kinds[n_in:], "an input asked for after an op"

    def at(i: int) -> str:
        return f"n + {i - n_in}" if i > n_in else "n"

    refs = [*xyz, *(f"i{i}" for i in range(len(xyz), n_in))]
    frame = ", ".join(("n", *refs))
    ops, operands = range(n_in, len(tape.values)), tape.operands
    # each op's kind code, with the tag cleared
    codes = {i: tape.kinds[i] & 7 for i in ops}
    names, closures = op_locals(kind, "tape.spec", sorted({*codes.values()}))
    step = [f"def {name}(tape, X1, Y1, Z1, ins, _writer={name}_operands):",
            "values = tape.values", *names]
    if labels:
        step.append(f"{', '.join(refs[len(xyz):])}, = ins")
    for i in range(n_in):
        step.append(f"v{i} = values[{refs[i]}]")
        if i in guards:
            step.append(f"if v{i} == 0: return None")
    step += [*closures, "n = len(values)"]
    for i in ops:
        refs.append(at(i))
        step.append(f"v{i} = " + op_expression(
            kind, codes[i], [f"v{a}" for a in operands[i]]))
        if i in guards:
            step.append(f"if v{i} == 0: return None")
    step += [f"values += {_tuple_of(f'v{i}' for i in ops)}",
             f"tape.kinds += {bytes(tape.kinds[n_in:])!r}",
             "tape.starts += " + _tuple_of(f"({column!r}, {at(i)})"
                                           for column, i in tape.starts),
             f"tape._operands.append([_writer, {frame}])",
             f"return {', '.join(refs[i] for i in out)}"]
    writer = [f"def {name}_operands(frame):",
              f"_, {frame} = frame",
              "return " + _tuple_of(_tuple_of(refs[a] for a in operands[i])
                                    for i in ops)]
    return _function(writer) + _function(step), labels


def _compile_steps(kind: FieldKind):
    """The compiled steps of field kind `kind`'s kernels by name, in
    `_STEPS`' order, from one `_define`, each with the labels of its
    inputs."""
    sources, labels = zip(*(_step_source(name, kind) for name in _STEPS))
    # every input a step asks for is on the tape from the embedding or
    # the first step, the doubling, so asking for it before the first
    # doubling moves no XFER (see `run_binary_method`)
    assert all(set(names) <= {"Px", "Py", *labels[0]} for names in labels), \
        "a step asks for an input no doubling asks for"
    # each step holds its writer as a default
    steps = _define("".join(sources), f"<{_COORDINATES[kind]} steps>")
    return {name: (steps[name], names) for name, names in zip(_STEPS, labels)}


# per field kind, each compiled step by name, which records its general
# path and returns its outputs, or returns None, having recorded
# nothing, when a zero test of that path fails; each with the labels of
# the inputs whose tape indices it reads as `ins`
_COMPILED = {kind: _compile_steps(kind) for kind in _KERNELS}



class OpTrace:
    """Monotone field-op counters of the runs recorded into it, kept
    per column (init, point_double, point_add, convert), and the number
    of point doublings, point additions and conversions they ran.

    Phase counts and totals are sums over sets of columns, so the totals
    always equal the sum of the per-phase counts.
    """

    def __init__(self):
        self._columns = {col: dict.fromkeys(ARITH_KINDS, 0)
                         for col in _COLUMNS}
        self.n_point_doubles = 0
        self.n_point_adds = 0
        self.n_conversions = 0

    def _count(self, tape: _Tape) -> None:
        # each column's ops by their tagged codes over the whole tape, and
        # its point operations by its segments; XFERs (inputs, wherever
        # recorded) are never counted
        kinds = tape.kinds
        for col, tag in _TAGS.items():
            counters = self._columns[col]
            for code, kind in enumerate(ARITH_KINDS):
                counters[kind] += kinds.count(code | tag)
        columns = [col for col, _ in tape.starts]
        self.n_point_doubles += columns.count("point_double")
        self.n_point_adds += columns.count("point_add")
        self.n_conversions += columns.count("convert")

    def _sum(self, columns) -> dict[OpKind, int]:
        out = dict.fromkeys(ARITH_KINDS, 0)
        for col in columns:
            for kind, n in self._columns[col].items():
                out[kind] += n
        return out

    def column_counts(self, column: str) -> dict[OpKind, int]:
        return dict(self._columns[column])

    def phase_counts(self, phase: Phase) -> dict[OpKind, int]:
        return self._sum(col for col, (col_phase, _) in _COLUMNS.items()
                         if col_phase is phase)

    def totals(self) -> dict[OpKind, int]:
        return self._sum(_COLUMNS)

    def to_dict(self) -> dict:
        return {
            "point_doubles": self.n_point_doubles,
            "point_adds": self.n_point_adds,
            "phases": {
                phase.value: {k.value: n
                              for k, n in self.phase_counts(phase).items()}
                for phase in Phase},
            "totals": {k.value: n for k, n in self.totals().items()},
        }


def run_binary_method(curve: CurveParams, k: int, P: AffinePoint) -> _Tape:
    """Record one double-and-add run of k*P on a fresh tape.

    Raises NotOnCurve for a foreign P and BadValue for a k that is not
    an int, is negative or is wider than MAX_SCALAR_BITS.  The tape's
    `result` holds the indices of the affine coordinates, or None when
    k*P is the point at infinity; for k = 0 or P at infinity the tape
    is empty.
    """
    if type(k) is not int:
        raise BadValue(f"scalar must be an int, got {type(k).__name__}")
    if k.bit_length() > MAX_SCALAR_BITS:
        raise BadValue(f"scalar has {k.bit_length()} bits; scalars wider "
                       f"than {MAX_SCALAR_BITS} bits are refused")
    _require_on_curve(curve, P)
    if k < 0:
        raise BadValue("scalar must be nonnegative")
    tape = _Tape(curve.field, _run_table(curve, P))
    if k == 0 or P.is_infinity:
        return tape
    kernels = _KERNELS[curve.field.kind]
    X, Y, Z = _embed_kernel(tape)
    if k > 1:
        # every step's inputs, asked for once in `_STEPS`' order, the
        # doubling's first in the order its kernel would ask for them;
        # the embedding and that doubling ask for every one another step
        # asks for, so each XFER keeps the id the kernels alone give it
        steps = {name: (step, tuple(map(tape.input, labels)), _STEPS[name])
                 for name, (step, labels)
                 in _COMPILED[curve.field.kind].items()}
        # the bits of k after its leading one: a clear one doubles, a set
        # one doubles then adds, each in one compiled step; a step that
        # declines has recorded nothing, and its columns' kernels record
        # it instead
        by_bit = {"0": steps["double"], "1": steps["double_madd"]}
        for step, ins, columns in map(by_bit.__getitem__, bin(k)[3:]):
            X, Y, Z = (step(tape, X, Y, Z, ins)
                       or _interpret(tape, kernels, columns, (X, Y, Z)))
    tape.begin_step("convert")
    tape.result = kernels["convert"](tape, X, Y, Z)
    return tape


def scalar_mul(curve: CurveParams, k: int, P: AffinePoint,
               trace: Optional[OpTrace] = None) -> AffinePoint:
    """Compute k*P by the binary method, counting its ops into `trace`."""
    tape = run_binary_method(curve, k, P)
    if trace is not None:
        trace._count(tape)
    if tape.result is None:
        return INFINITY
    x, y = tape.result
    return AffinePoint(tape.element(x), tape.element(y))


def scalar_mul_reference(curve: CurveParams, k: int,
                         P: AffinePoint) -> AffinePoint:
    """Independent oracle: literal k-fold repeated affine addition."""
    if type(k) is not int:
        raise BadValue(f"scalar must be an int, got {type(k).__name__}")
    if k < 0:
        raise BadValue("scalar must be nonnegative")
    if k > ORACLE_BOUND:
        raise OracleBoundExceeded(
            f"reference scalar {k} exceeds the oracle bound {ORACLE_BOUND}")
    _require_on_curve(curve, P)
    acc = INFINITY
    for _ in range(k):
        acc = _add_affine_raw(curve, acc, P)
    return acc


# ---------------------------------------------------------------------------
# the audit report

def _row_value(counts: dict[OpKind, int], row: str) -> int:
    if row == "ADD":
        return counts[OpKind.ADD] + counts[OpKind.SUB]
    return counts[OpKind[row]]


@dataclass
class CountReport:
    """Measured-vs-baseline op counts per point operation."""

    n_point_doubles: int
    n_point_adds: int
    cells: dict  # cells[point_op][row] = {baseline, measured, deviation}

    def to_dict(self) -> dict:
        return {
            "point_doubles": self.n_point_doubles,
            "point_adds": self.n_point_adds,
            "cells": self.cells,
        }

    def format_text(self) -> str:
        lines = [
            f"point doublings: {self.n_point_doubles}   "
            f"point additions: {self.n_point_adds}",
            f"{'op':<5}" + "".join(f"{col:>34}" for col in AUDIT_BASELINE),
            f"{'':<5}" + "".join(f"{'base':>12}{'measured':>11}{'dev':>11}"
                                 for _ in AUDIT_BASELINE),
        ]
        for row in _ROWS:
            parts = [f"{row:<5}"]
            for col in AUDIT_BASELINE:
                cell = self.cells[col][row]
                base = cell["baseline"]
                if cell["measured"] is None:
                    parts.append(f"{base:>12}{'-':>11}{'-':>11}")
                else:
                    parts.append(f"{base:>12}{cell['measured']:>11.3f}"
                                 f"{cell['deviation']:>+11.3f}")
            lines.append("".join(parts))
        return "\n".join(lines)


def count_report(trace: OpTrace, n_doubles: int, n_adds: int) -> CountReport:
    """Audit a trace against the baseline cost table.

    Measured cells are per-point-op averages (doubling and addition
    columns divided by their op counts, the conversion column by the
    conversions recorded, one per run), None in a column that ran no
    point operation.  `n_doubles` and `n_adds` must equal the trace's own
    counts, else BadValue.  Raises EmptyTrace when the run performed no
    point operations at all.
    """
    n_of = {"point_double": trace.n_point_doubles,
            "point_add": trace.n_point_adds, "convert": trace.n_conversions}
    if (n_doubles, n_adds) != (n_of["point_double"], n_of["point_add"]):
        raise BadValue(
            f"{n_doubles} doublings and {n_adds} additions disagree with the "
            f"trace's {n_of['point_double']} and {n_of['point_add']}")
    if n_doubles == 0 and n_adds == 0:
        raise EmptyTrace("the run performed no point operations to audit")
    cells = {}
    for col, baseline in AUDIT_BASELINE.items():
        n, counts = n_of[col], trace.column_counts(col)
        cells[col] = {}
        for row, base in baseline.items():
            measured = _row_value(counts, row) / n if n else None
            cells[col][row] = {"baseline": base, "measured": measured,
                               "deviation": measured - base if n else None}
    return CountReport(n_point_doubles=n_doubles, n_point_adds=n_adds,
                       cells=cells)
