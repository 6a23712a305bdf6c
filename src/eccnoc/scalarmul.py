"""Binary-method scalar multiplication, recorded op by op.

The left-to-right double-and-add loop runs over the shared projective
kernels.  A scalar k with bit length l costs l-1 point doublings and
HW(k)-1 mixed additions, and the single field inversion of the whole run
happens in the final conversion back to affine coordinates.

Every run is recorded on a tape (`run_binary_method`): each field
operation computes its value on raw ints and appends its kind, its
operands and where in the run it happened.  The tape is the one program
both consumers read.  `scalar_mul` counts it into an `OpTrace` by phase:

  Init     embedding the base point (no arithmetic)
  Iterate  every doubling and mixed addition in the loop
  Convert  the one projective-to-affine conversion

and `procmodel.compile_scalar_mul` turns the same entries into tasks.

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

# module-level names for the kinds the tape records per op: reading a
# member off its Enum class is a much slower lookup before Python 3.12
_ADD, _SUB, _MUL, _SQR, _INV = (OpKind.ADD, OpKind.SUB, OpKind.MUL,
                                OpKind.SQR, OpKind.INV)


class Phase(enum.Enum):
    INIT = "init"
    ITERATE = "iterate"
    CONVERT = "convert"

    __hash__ = object.__hash__   # identity, as for OpKind


class _Tape:
    """The recorder the curve kernels run on.

    A kernel value is an index into the tape.  Each arithmetic op
    computes its raw int with the field's raw op (bound once per tape),
    appends it to `values` and appends (kind, operands, phase,
    point_op_index, label) to `ops`.  `const` appends an input value
    (XFER, in the init phase) once per (label, value).  `is_zero` reads
    the computed value, so the kernels branch exactly as the real run
    does.  `steps` holds one entry per loop step, True for a mixed
    addition and False for a doubling; `step_starts` holds the index in
    `ops` where each step begins, and `convert_start` the index where
    the conversion begins.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._add, self._sub, self._mul, self._sqr, self._inv = (
            spec._add, spec._sub, spec._mul, spec._sqr, spec._inv)
        self.values: list[int] = []
        self.ops: list[tuple] = []
        self.steps: list[bool] = []
        self.step_starts: list[int] = []
        self.convert_start: Optional[int] = None
        self.phase = Phase.INIT
        self.pidx = -1
        self.result: Optional[tuple[int, int]] = None
        self._consts: dict[tuple[str, int], int] = {}

    def add(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._add(v[a], v[b]))
        self.ops.append((_ADD, (a, b), self.phase, self.pidx, ""))
        return len(v) - 1

    def sub(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._sub(v[a], v[b]))
        self.ops.append((_SUB, (a, b), self.phase, self.pidx, ""))
        return len(v) - 1

    def mul(self, a: int, b: int) -> int:
        v = self.values
        v.append(self._mul(v[a], v[b]))
        self.ops.append((_MUL, (a, b), self.phase, self.pidx, ""))
        return len(v) - 1

    def sqr(self, a: int) -> int:
        v = self.values
        v.append(self._sqr(v[a]))
        self.ops.append((_SQR, (a,), self.phase, self.pidx, ""))
        return len(v) - 1

    def inv(self, a: int) -> int:
        v = self.values
        v.append(self._inv(v[a]))
        self.ops.append((_INV, (a,), self.phase, self.pidx, ""))
        return len(v) - 1

    def const(self, elem: FieldElement, label: str) -> int:
        key = (label, elem.value)
        idx = self._consts.get(key)
        if idx is None:
            idx = self._consts[key] = len(self.values)
            self.values.append(elem.value)
            self.ops.append((OpKind.XFER, (), Phase.INIT, -1, label))
        return idx

    def is_zero(self, a: int) -> bool:
        return self.values[a] == 0

    def element(self, a: int) -> FieldElement:
        return FieldElement(self.spec, self.values[a])

    def begin_step(self, is_add: bool) -> None:
        """Open the next loop step; its ops carry its point_op_index."""
        self.phase = Phase.ITERATE
        self.pidx = len(self.steps)
        self.steps.append(is_add)
        self.step_starts.append(len(self.ops))

    def begin_convert(self) -> None:
        """Close the loop; the ops that follow convert to affine."""
        self.phase, self.pidx = Phase.CONVERT, -1
        self.convert_start = len(self.ops)


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
        # each column's op kinds, sliced at the step and conversion
        # starts; XFERs (inputs, wherever recorded) are never counted
        kinds = [op[0] for op in tape.ops]
        starts = [*tape.step_starts, tape.convert_start]
        cols = {"init": kinds[:starts[0]], "point_double": [],
                "point_add": [], "convert": kinds[tape.convert_start:]}
        for is_add, a, b in zip(tape.steps, starts, starts[1:]):
            cols["point_add" if is_add else "point_double"] += kinds[a:b]
        for col, col_kinds in cols.items():
            counters = self._columns[col]
            for kind in ARITH_KINDS:
                counters[kind] += col_kinds.count(kind)

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
