"""Binary-method scalar multiplication, recorded op by op.

The left-to-right double-and-add loop runs over the shared projective
kernels.  A scalar k with bit length l costs l-1 point doublings and
HW(k)-1 mixed additions, and the single field inversion of the whole run
happens in the final conversion back to affine coordinates.

Every run is recorded on a tape (`run_binary_method`) held as columns:
each field operation computes its value on raw ints and appends it, its
kind as a one-byte code and its operands.  The tape also records where
each loop step and the conversion begin; an op's phase and step follow
from those boundaries, not from the op.  The tape is the one program
both consumers read.  `scalar_mul` counts it into an `OpTrace` by phase:

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
                     _embed_kernel, _require_on_curve, kernels_for)
from .errors import BadValue, EmptyTrace, OracleBoundExceeded
from .fields import ARITH_KINDS, FieldElement, FieldSpec, OpKind

ORACLE_BOUND = 1 << 16

# one-byte kind codes, indexed like tuple(OpKind): the tape records each
# op's kind as its code, so counting a column is `bytes.count`
_KINDS = tuple(OpKind)
_ADD, _SUB, _MUL, _SQR, _INV, _XFER = map(_KINDS.index, (
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.SQR, OpKind.INV, OpKind.XFER))
_ARITH_CODES = tuple((kind, _KINDS.index(kind)) for kind in ARITH_KINDS)


class Phase(enum.Enum):
    INIT = "init"
    ITERATE = "iterate"
    CONVERT = "convert"

    __hash__ = object.__hash__   # identity, as for OpKind


class _Tape:
    """The recorder the curve kernels run on, held as columns.

    A kernel value is an index into the tape.  Each arithmetic op
    computes its raw int with the field's raw op (bound once per tape)
    and appends to three columns: its value to `values`, its kind's code
    (an index into `tuple(OpKind)`) to the `kinds` bytearray, and its
    operand indices to `operands`.  `const` appends an input value
    (XFER) once per (label, value) and files its label in `labels` under
    its index.  `is_zero` reads the computed value, so the kernels
    branch exactly as the real run does.

    No op carries its phase or step.  `steps` holds one entry per loop
    step, True for a mixed addition and False for a doubling;
    `step_starts` holds the index where each step begins and
    `convert_start` the index where the conversion begins.  An op's
    phase and step follow from those boundaries, except that an XFER
    belongs to the init phase wherever a kernel first asks for it.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._add, self._sub, self._mul, self._sqr, self._inv = (
            spec._add, spec._sub, spec._mul, spec._sqr, spec._inv)
        self.values: list[int] = []
        self.kinds = bytearray()
        self.operands: list[tuple[int, ...]] = []
        self.labels: dict[int, str] = {}
        self.steps: list[bool] = []
        self.step_starts: list[int] = []
        self.convert_start: Optional[int] = None
        self.result: Optional[tuple[int, int]] = None
        self._consts: dict[tuple[str, int], int] = {}

    def add(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._add(v[a], v[b]))
        self.kinds.append(_ADD)
        self.operands.append((a, b))
        return len(v) - 1

    def sub(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._sub(v[a], v[b]))
        self.kinds.append(_SUB)
        self.operands.append((a, b))
        return len(v) - 1

    def mul(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._mul(v[a], v[b]))
        self.kinds.append(_MUL)
        self.operands.append((a, b))
        return len(v) - 1

    def sqr(self, a: int) -> int:
        v = self.values
        v.append(self._sqr(v[a]))
        self.kinds.append(_SQR)
        self.operands.append((a,))
        return len(v) - 1

    def inv(self, a: int) -> int:
        v = self.values
        v.append(self._inv(v[a]))
        self.kinds.append(_INV)
        self.operands.append((a,))
        return len(v) - 1

    def const(self, elem: FieldElement, label: str) -> int:
        key = (label, elem.value)
        idx = self._consts.get(key)
        if idx is None:
            idx = self._consts[key] = len(self.values)
            self.values.append(elem.value)
            self.kinds.append(_XFER)
            self.operands.append(())
            self.labels[idx] = label
        return idx

    def is_zero(self, a: int) -> bool:
        return self.values[a] == 0

    def element(self, a: int) -> FieldElement:
        return FieldElement(self.spec, self.values[a])

    def begin_step(self, is_add: bool) -> None:
        """Open the next loop step at the current end of the tape."""
        self.steps.append(is_add)
        self.step_starts.append(len(self.values))

    def begin_convert(self) -> None:
        """Close the loop; the ops that follow convert to affine."""
        self.convert_start = len(self.values)


# the audit's point-operation columns plus the init phase (named as their
# phases); a loop op falls into a doubling or an addition column by the
# step that ran it
_COLUMN_PHASE = {"init": Phase.INIT, "point_double": Phase.ITERATE,
                 "point_add": Phase.ITERATE, "convert": Phase.CONVERT}


class OpTrace:
    """Monotone field-op counters of the runs recorded into it, kept
    per column (init, point_double, point_add, convert).

    Phase counts and totals are derived sums over the columns, so the
    totals always equal the sum of the per-phase counts.
    """

    def __init__(self):
        self._columns = {
            col: {kind: 0 for kind in ARITH_KINDS} for col in _COLUMN_PHASE}
        self.n_point_doubles = 0
        self.n_point_adds = 0

    def _count(self, tape: _Tape) -> None:
        n_adds = sum(tape.steps)
        self.n_point_adds += n_adds
        self.n_point_doubles += len(tape.steps) - n_adds
        # each column's kind codes, sliced at the step and conversion
        # starts; XFERs (inputs, wherever recorded) are never counted
        kinds, conv = tape.kinds, tape.convert_start
        starts = [*tape.step_starts, conv]
        cols = {"init": kinds[:starts[0]], "point_double": bytearray(),
                "point_add": bytearray(), "convert": kinds[conv:]}
        for is_add, a, b in zip(tape.steps, starts, starts[1:]):
            cols["point_add" if is_add else "point_double"] += kinds[a:b]
        for col, codes in cols.items():
            counters = self._columns[col]
            for kind, code in _ARITH_CODES:
                counters[kind] += codes.count(code)

    def column_counts(self, column: str) -> dict[OpKind, int]:
        return dict(self._columns[column])

    def phase_counts(self, phase: Phase) -> dict[OpKind, int]:
        out = {kind: 0 for kind in ARITH_KINDS}
        for col, col_phase in _COLUMN_PHASE.items():
            if col_phase is phase:
                for kind, n in self._columns[col].items():
                    out[kind] += n
        return out

    def totals(self) -> dict[OpKind, int]:
        out = {kind: 0 for kind in ARITH_KINDS}
        for counters in self._columns.values():
            for kind, n in counters.items():
                out[kind] += n
        return out

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


def run_binary_method(curve: CurveParams, k: int,
                      P: AffinePoint) -> Optional[_Tape]:
    """Record one double-and-add run of k*P on a fresh tape.

    Raises NotOnCurve for a foreign P and BadValue for a
    negative k.
    Returns None when k*P is infinity without any work (k = 0 or P at
    infinity).  Otherwise the tape's `result` holds the indices of the
    affine coordinates, or None when k*P is the point at infinity.
    """
    _require_on_curve(curve, P)
    if k < 0:
        raise BadValue("scalar must be nonnegative")
    if k == 0 or P.is_infinity:
        return None
    double, madd, to_aff = kernels_for(curve)
    tape = _Tape(curve.field)
    X, Y, Z = _embed_kernel(tape, curve, P.x, P.y)
    for i in range(k.bit_length() - 2, -1, -1):
        tape.begin_step(is_add=False)
        X, Y, Z = double(tape, curve, X, Y, Z)
        if (k >> i) & 1:
            tape.begin_step(is_add=True)
            X, Y, Z = madd(tape, curve, X, Y, Z, P.x, P.y)
    tape.begin_convert()
    tape.result = to_aff(tape, curve, X, Y, Z)
    return tape


def scalar_mul(curve: CurveParams, k: int, P: AffinePoint,
               trace: Optional[OpTrace] = None) -> AffinePoint:
    """Compute k*P by the binary method, counting its ops into `trace`."""
    tape = run_binary_method(curve, k, P)
    if tape is None:
        return INFINITY
    if trace is not None:
        trace._count(tape)
    if tape.result is None:
        return INFINITY
    x, y = tape.result
    return AffinePoint(tape.element(x), tape.element(y))


def scalar_mul_reference(curve: CurveParams, k: int,
                         P: AffinePoint) -> AffinePoint:
    """Independent oracle: literal k-fold repeated affine addition."""
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
# baseline cost table and the audit report

# Idealised field-op cost of each projective point operation; the audit
# compares measured averages against these cells.  The ADD row covers
# additions and subtractions together.
AUDIT_BASELINE = {
    "point_add": {"ADD": 2, "MUL": 4, "INV": 0, "SQR": 1},
    "point_double": {"ADD": 1, "MUL": 2, "INV": 0, "SQR": 4},
    "convert": {"ADD": 6, "MUL": 10, "INV": 1, "SQR": 1},
}

_ROW_ORDER = ("ADD", "MUL", "INV", "SQR")
_COL_ORDER = ("point_double", "point_add", "convert")


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
            f"{'op':<5}" + "".join(f"{col:>34}" for col in _COL_ORDER),
            f"{'':<5}" + "".join(f"{'base':>12}{'measured':>11}{'dev':>11}"
                                 for _ in _COL_ORDER),
        ]
        for row in _ROW_ORDER:
            parts = [f"{row:<5}"]
            for col in _COL_ORDER:
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
    columns divided by their op counts; conversion happens once).
    Raises EmptyTrace when the run performed no point operations at all.
    """
    if n_doubles == 0 and n_adds == 0:
        raise EmptyTrace("the run performed no point operations to audit")
    n_of = {"point_double": n_doubles, "point_add": n_adds, "convert": 1}
    cells = {}
    for col in _COL_ORDER:
        n = n_of[col]
        counts = trace.column_counts(col)
        cells[col] = {}
        for row in _ROW_ORDER:
            base = AUDIT_BASELINE[col][row]
            if n == 0:
                cells[col][row] = {
                    "baseline": base, "measured": None, "deviation": None}
            else:
                measured = _row_value(counts, row) / n
                cells[col][row] = {
                    "baseline": base,
                    "measured": measured,
                    "deviation": measured - base,
                }
    return CountReport(n_point_doubles=n_doubles, n_point_adds=n_adds,
                       cells=cells)
