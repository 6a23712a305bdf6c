"""Task-graph compilation of one scalar multiplication.

`compile_scalar_mul` turns the tape of one binary-method run
(`scalarmul.run_binary_method`) into tasks, one per recorded field
operation, so data-dependent branches are decided by the real run and
the graph is exactly the executed op sequence: the same tape
`scalar_mul` counts.  Input values (base-point coordinates, curve
constants) are XFER source tasks, one per distinct (label, value); no
other common subexpression is merged.

Tasks are numbered in emission order, so task ids are a topological
order of the DAG.  The graph remembers the field width so downstream
consumers can size value transfers.  A `TaskGraph` is validated once,
when it is built, and cannot be changed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curves import AffinePoint, CurveParams
from .errors import FieldMismatch, MalformedGraph, ResultAtInfinity
from .fields import (FieldElement, FieldKind, OpKind, ff_add, ff_inv, ff_mul,
                     ff_sqr, ff_sub)
from .scalarmul import Phase, run_binary_method

_ARITY = {OpKind.ADD: 2, OpKind.SUB: 2, OpKind.MUL: 2,
          OpKind.SQR: 1, OpKind.INV: 1, OpKind.XFER: 0}

_FORMAT_HEADER = "taskgraph 1"


@dataclass(frozen=True)
class Task:
    """One field operation (or one XFER input value) in the DAG."""

    id: int
    kind: OpKind
    operands: tuple[int, ...]
    phase: Phase
    point_op_index: int      # loop position; -1 for init and convert work
    label: str = ""          # XFER only: input name (Px, Py, a, b, one, zero)
    value: Optional[int] = None  # XFER only: the raw field value


@dataclass(frozen=True)
class TaskGraph:
    """A field-op dependency DAG with a designated result pair; checked
    when built, immutable after."""

    tasks: tuple[Task, ...]
    result: tuple[int, int]
    field_bits: int

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "result",
                           (int(self.result[0]), int(self.result[1])))
        object.__setattr__(self, "field_bits", int(self.field_bits))
        self._validate()

    def _validate(self) -> None:
        if not self.tasks:
            raise MalformedGraph("graph has no tasks")
        if self.field_bits < 1:
            raise MalformedGraph("field width must be positive")
        for pos, t in enumerate(self.tasks):
            if t.id != pos:
                raise MalformedGraph(
                    f"task ids must be consecutive from 0; saw {t.id} at {pos}")
            if len(t.operands) != _ARITY[t.kind]:
                raise MalformedGraph(
                    f"task {t.id}: {t.kind.value} takes {_ARITY[t.kind]} "
                    f"operands, got {len(t.operands)}")
            for o in t.operands:
                if not 0 <= o < t.id:
                    raise MalformedGraph(
                        f"task {t.id} references {o}, which is not an "
                        f"earlier task")
            if t.kind is OpKind.XFER:
                if t.value is None or t.value < 0:
                    raise MalformedGraph(f"XFER task {t.id} has no value")
                if not t.label:
                    raise MalformedGraph(f"XFER task {t.id} has no label")
            elif t.value is not None:
                raise MalformedGraph(
                    f"task {t.id} carries a value but is not an XFER")
        n = len(self.tasks)
        for r in self.result:
            if not 0 <= r < n:
                raise MalformedGraph(f"result id {r} does not exist")

    def counts_by_phase(self) -> dict[Phase, dict[OpKind, int]]:
        """Arithmetic task counts per phase (XFER inputs excluded)."""
        out = {phase: {} for phase in Phase}
        for t in self.tasks:
            if t.kind is OpKind.XFER:
                continue
            bucket = out[t.phase]
            bucket[t.kind] = bucket.get(t.kind, 0) + 1
        return out

    def n_arith_tasks(self) -> int:
        return sum(1 for t in self.tasks if t.kind is not OpKind.XFER)

    def ancestors_of_result(self) -> set[int]:
        """Ids of the tasks the result pair depends on (inclusive)."""
        seen: set[int] = set()
        stack = list(self.result)
        while stack:
            tid = stack.pop()
            if tid in seen:
                continue
            seen.add(tid)
            stack.extend(self.tasks[tid].operands)
        return seen

    # -- text round trip ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{_FORMAT_HEADER} fieldbits {self.field_bits}"]
        for t in self.tasks:
            ops = ",".join(str(o) for o in t.operands) if t.operands else "-"
            label = t.label if t.label else "-"
            value = f"{t.value:x}" if t.value is not None else "-"
            lines.append(f"{t.id} {t.kind.value} {t.phase.value} "
                         f"{t.point_op_index} {ops} {label} {value}")
        lines.append(f"result {self.result[0]} {self.result[1]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TaskGraph":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if len(lines) < 3:
            raise MalformedGraph("graph text needs a header, tasks, and a result")
        head = lines[0].split()
        if head[:2] != _FORMAT_HEADER.split() or len(head) != 4 \
                or head[2] != "fieldbits":
            raise MalformedGraph(f"unrecognised header: {lines[0]!r}")
        try:
            field_bits = int(head[3])
        except ValueError as exc:
            raise MalformedGraph(f"bad field width: {head[3]!r}") from exc
        tail = lines[-1].split()
        if len(tail) != 3 or tail[0] != "result":
            raise MalformedGraph(f"last line must name the result pair: "
                                 f"{lines[-1]!r}")
        tasks = []
        for ln in lines[1:-1]:
            parts = ln.split()
            if len(parts) != 7:
                raise MalformedGraph(f"task line needs 7 fields: {ln!r}")
            sid, skind, sphase, spidx, sops, slabel, svalue = parts
            try:
                kind = OpKind(skind)
                phase = Phase(sphase)
                tid = int(sid)
                pidx = int(spidx)
                operands = tuple() if sops == "-" else tuple(
                    int(o) for o in sops.split(","))
                value = None if svalue == "-" else int(svalue, 16)
            except ValueError as exc:
                raise MalformedGraph(f"unparseable task line: {ln!r}") from exc
            label = "" if slabel == "-" else slabel
            tasks.append(Task(id=tid, kind=kind, operands=operands,
                              phase=phase, point_op_index=pidx, label=label,
                              value=value))
        try:
            result = (int(tail[1]), int(tail[2]))
        except ValueError as exc:
            raise MalformedGraph(f"bad result ids: {lines[-1]!r}") from exc
        return cls(tasks, result, field_bits)


# ---------------------------------------------------------------------------
# cost model

@dataclass(frozen=True)
class CostModel:
    """Cycle cost per op kind; XFER tasks cost nothing to execute."""

    add: int = 1
    sub: int = 1
    mul: int = 4
    sqr: int = 2
    inv: int = 40

    def __post_init__(self):
        for name in ("add", "sub", "mul", "sqr", "inv"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} cost must be at least 1 cycle")

    @classmethod
    def default(cls, kind: FieldKind) -> "CostModel":
        # squaring is near-free in a binary field, a full product in GF(p)
        return cls(sqr=1 if kind is FieldKind.BINARY else 2)

    def cost(self, kind: OpKind) -> int:
        if kind is OpKind.XFER:
            return 0
        return getattr(self, kind.value.lower())


# ---------------------------------------------------------------------------
# compilation and the independent interpreter

def compile_scalar_mul(curve: CurveParams, k: int, P: AffinePoint) -> TaskGraph:
    """Compile one binary-method run of k*P into a task graph."""
    tape = run_binary_method(curve, k, P)
    if tape is None or tape.result is None:
        raise ResultAtInfinity(
            "k*P is the point at infinity, which has no coordinate tasks")
    values = tape.values
    tasks = [Task(id=i, kind=kind, operands=operands, phase=phase,
                  point_op_index=pidx, label=label,
                  value=values[i] if kind is OpKind.XFER else None)
             for i, (kind, operands, phase, pidx, label)
             in enumerate(tape.ops)]
    return TaskGraph(tasks, tape.result, curve.field.bits)


def replay(G: TaskGraph, curve: CurveParams) -> AffinePoint:
    """Re-execute a graph task by task and return the result point."""
    if G.field_bits != curve.field.bits:
        raise FieldMismatch(
            f"graph was compiled for a {G.field_bits}-bit field, curve "
            f"field has {curve.field.bits} bits")
    values: list[FieldElement] = []
    for t in G.tasks:
        if t.kind is OpKind.XFER:
            values.append(curve.field.element(t.value))
        elif t.kind is OpKind.ADD:
            values.append(ff_add(values[t.operands[0]], values[t.operands[1]]))
        elif t.kind is OpKind.SUB:
            values.append(ff_sub(values[t.operands[0]], values[t.operands[1]]))
        elif t.kind is OpKind.MUL:
            values.append(ff_mul(values[t.operands[0]], values[t.operands[1]]))
        elif t.kind is OpKind.SQR:
            values.append(ff_sqr(values[t.operands[0]]))
        else:
            values.append(ff_inv(values[t.operands[0]]))
    return AffinePoint(values[G.result[0]], values[G.result[1]])


def critical_path(G: TaskGraph, cm: CostModel) -> int:
    """Longest cost-weighted dependency chain ending at the result pair.

    Only tasks the result depends on contribute; a chain through them is
    a lower bound on any schedule's completion time for the result.
    """
    anc = G.ancestors_of_result()
    dist: dict[int, int] = {}
    for t in G.tasks:
        if t.id not in anc:
            continue
        best = max((dist[o] for o in t.operands), default=0)
        dist[t.id] = best + cm.cost(t.kind)
    return max(dist[r] for r in G.result)
