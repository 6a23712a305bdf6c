"""Binary-method scalar multiplication, recorded op by op.

The left-to-right double-and-add loop runs over the shared projective
kernels.  A scalar k with bit length l costs l-1 point doublings and
HW(k)-1 mixed additions, and the single field inversion of the whole run
happens in the final conversion back to affine coordinates.

Every run is recorded on a tape (`run_binary_method`) held as columns.
The tape has one recorder per arity, a binary one for add, sub and mul
and a unary one for sqr and inv; each computes the op's value on raw
ints and appends it, its kind as a one-byte code and its operands.  The
tape also keeps one list of segments: where each loop step and the
conversion begin, each named by the audit column it counts under
(`point_double`, `point_add` or `convert`); an op's phase and step
follow from its segment, not from the op.  A run that does no work
(k = 0 or P at infinity) is an empty tape with no result.  The tape is
the one program both consumers read.  `scalar_mul` counts it into an
`OpTrace` by column and phase:

  Init     embedding the base point (no arithmetic)
  Iterate  every doubling and mixed addition in the loop
  Convert  the one projective-to-affine conversion

slicing the kind codes at the boundaries and counting each slice with
`bytes.count`, and `procmodel.compile_scalar_mul` turns the same columns
into tasks.

`count_report` compares the measured per-point-op averages against a
fixed baseline cost table and reports the deviations; the baseline is an
idealised count per point operation, so nonzero deviations are expected
and are exactly what the report is for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .curves import (AffinePoint, CurveParams, INFINITY, _add_affine_raw,
                     _KERNELS, _embed_kernel, _require_on_curve)
from .errors import BadValue, EmptyTrace, OracleBoundExceeded
from .fields import (ARITH_KINDS, MAX_FIELD_BITS, FieldElement, FieldSpec,
                     OpKind)

ORACLE_BOUND = 1 << 16
# twice the widest field: a 4096-bit k compiles in a fraction of a second,
# and the tape grows linearly with the width past it
MAX_SCALAR_BITS = 2 * MAX_FIELD_BITS

# one-byte kind codes, indices into _KINDS: the tape records each op's
# kind as its code, so counting a column is `bytes.count`
_KINDS = (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.SQR, OpKind.INV,
          OpKind.XFER)
_ADD, _SUB, _MUL, _SQR, _INV, _XFER = range(len(_KINDS))
_ARITH_CODES = tuple((kind, _KINDS.index(kind)) for kind in ARITH_KINDS)


class Phase(enum.Enum):
    INIT = "init"
    ITERATE = "iterate"
    CONVERT = "convert"

    __hash__ = object.__hash__   # identity, as for OpKind


# the one recorder per arity, made once per kind code (see `_Tape`)
def _binary(code: int):
    def record(self, a: int, b: int) -> int:
        values = self.values
        values.append(self._ops[code](values[a], values[b]))
        self.kinds.append(code)
        self.operands.append((a, b))
        return len(values) - 1
    return record


def _unary(code: int):
    def record(self, a: int) -> int:
        values = self.values
        values.append(self._ops[code](values[a]))
        self.kinds.append(code)
        self.operands.append((a,))
        return len(values) - 1
    return record


class _Tape:
    """The recorder the curve kernels run on, held as columns.

    A kernel value is an index into the tape.  `add`, `sub` and `mul`
    are the one binary recorder and `sqr` and `inv` the one unary
    recorder, each made once for its kind's code (an index into
    `_KINDS`): it computes the raw int with the field's raw op for that
    code (bound once per tape in `_ops`) and appends its value to
    `values`, the code to the `kinds` bytearray and its operand indices
    to `operands`, and returns the new index.  `const` appends an input
    value (XFER) once per (label, value) and files its index in `inputs`
    under that pair, in the order the inputs were first asked for.
    `is_zero` reads the computed value, so the kernels branch exactly as
    the real run does.

    No op carries its phase or step.  `starts` holds one (column, index)
    pair per segment after the init ops: the audit column the segment
    counts under and the index where it begins, appended by
    `begin_step`; the conversion is the segment named `convert`.
    `segments` reads them as (column, start, end) ranges: the init ops,
    then each segment in tape order.  An op's phase follows from its
    segment's column (`_COLUMNS`) and its step from its segment, except
    that an XFER belongs to the init phase wherever a kernel first asks
    for it.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.values: list[int] = []
        self.kinds = bytearray()
        self.operands: list[tuple[int, ...]] = []
        self.inputs: dict[tuple[str, int], int] = {}
        self.starts: list[tuple[str, int]] = []
        self.result: Optional[tuple[int, int]] = None
        # the field's raw ops, indexed by kind code
        self._ops = (spec._add, spec._sub, spec._mul, spec._sqr, spec._inv)

    add, sub, mul = _binary(_ADD), _binary(_SUB), _binary(_MUL)
    sqr, inv = _unary(_SQR), _unary(_INV)

    def const(self, elem: FieldElement, label: str) -> int:
        key = (label, elem.value)
        idx = self.inputs.get(key)
        if idx is None:
            idx = self.inputs[key] = len(self.values)
            self.values.append(elem.value)
            self.kinds.append(_XFER)
            self.operands.append(())
        return idx

    def is_zero(self, a: int) -> bool:
        return self.values[a] == 0

    def element(self, a: int) -> FieldElement:
        return FieldElement(self.spec, self.values[a])

    def begin_step(self, column: str) -> None:
        """Open the next segment at the current end of the tape; its ops
        count under column `column`."""
        self.starts.append((column, len(self.values)))

    def segments(self):
        """(column, start, end) of the init ops and each segment, in tape
        order; an empty tape has none."""
        if self.values:
            bounds = [("init", 0), *self.starts, ("", len(self.values))]
            for (column, a), (_, b) in zip(bounds, bounds[1:]):
                yield column, a, b


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
        # each column's kind codes and its number of segments; XFERs
        # (inputs, wherever recorded) are never counted
        cols = {col: bytearray() for col in _COLUMNS}
        runs = dict.fromkeys(_COLUMNS, 0)
        for col, a, b in tape.segments():
            cols[col] += tape.kinds[a:b]
            runs[col] += 1
        self.n_point_doubles += runs["point_double"]
        self.n_point_adds += runs["point_add"]
        self.n_conversions += runs["convert"]
        for col, codes in cols.items():
            counters = self._columns[col]
            for kind, code in _ARITH_CODES:
                counters[kind] += codes.count(code)

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
    tape = _Tape(curve.field)
    if k == 0 or P.is_infinity:
        return tape
    double, madd, to_aff, _ = _KERNELS[curve.field.kind]
    X, Y, Z = _embed_kernel(tape, curve, P.x, P.y)
    for i in range(k.bit_length() - 2, -1, -1):
        tape.begin_step("point_double")
        X, Y, Z = double(tape, curve, X, Y, Z)
        if (k >> i) & 1:
            tape.begin_step("point_add")
            X, Y, Z = madd(tape, curve, X, Y, Z, P.x, P.y)
    tape.begin_step("convert")
    tape.result = to_aff(tape, curve, X, Y, Z)
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
