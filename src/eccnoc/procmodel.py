"""Task-graph compilation of one scalar multiplication.

`compile_scalar_mul` turns the tape of one binary-method run
(`scalarmul.run_binary_method`) into tasks, one per recorded field
operation, so data-dependent branches are decided by the real run and
the graph is exactly the executed op sequence: the same tape
`scalar_mul` counts.  The tape reads itself as the graph's columns
(`_Tape.columns`): each op's kind and its column's phase, decoded from
its tagged kind code, and each loop step's tasks stamped with that
step's index, numbered by tape segment.  Input values (base-point
coordinates, curve constants) are XFER source tasks, one per label, in
the init phase wherever the run first asked for them, since their codes
carry the init column's tag; no other common subexpression is merged.

A `TaskGraph` is a frozen dataclass of one tuple per task attribute,
indexed by task id (`kinds`, `operands`, `phases`, `point_op_index`,
`labels`, and `values`: an XFER's raw value, None for the others), the
`result` pair and the field width, at most `fields.MAX_FIELD_BITS`,
which sizes value transfers.  Ids are emission order, so they are a
topological order of the DAG.
`compile_scalar_mul` and `from_text` call the generated constructor,
whose `__post_init__` is the one validator.  `tasks` is a row view of
`Task` objects, built only on request; hand-written graphs are text.

Graph text (`to_text`, `from_text`) gives every number one spelling.
Task ids, point-op indices and operands are spelled and read through
one module-level table of the decimal spellings of -1 .. n - 1, both
ways: int -> str for writing, str -> int for reading.  It is built on
first use, not at import.  Each way grows in one step when a graph
longer than any before is written or read, and never shrinks, so it is
as long as the longest graph the process has handled; a text that does
not read as a graph leaves it as it was.  The str -> int way reuses the
strings of the int -> str way as far as that reaches, so both ways hold
one str per number.  A task line's operand field is `-` or is split
once, at its first comma, into one or two spellings, each looked up in
the table.  A line with a spelling past the table, or an operand field
of any other shape (`1,2,3`, `1,`), is read again by `_numbers_of`,
which splits the field at every comma and reads a number past the table
by `_number`; `to_text` spells a number past the table by `str`.  So no
text or error depends on what the process handled before.

`replay` re-executes a graph on raw ints through one loop per field
kind, generated on first use and cached: each task computes its op as
`fields.op_expression` writes it, inline where the field kind has an
expression for the op (GF(p) add, sub, mul and sqr, GF(2^m) add and
sub) and by the field's raw closure otherwise (`FieldSpec._mul` ...
`_inv`, the ones the tape runs), an XFER's value is reduced by
`element`, and only the result coordinates are wrapped as
`FieldElement`s.

`TaskGraph.plan(cm)` is what scheduling needs of the graph under one
cost model, none of it placement-dependent: each task's cost, the pair
of operand ids a schedule estimate and the critical path read for it (a
binary task's operands, in id order when both are computed, or a unary
task's operand twice; an input reads as ready at 0), the arithmetic
tasks in decreasing upward rank, ties by id, and the count of dependency
edges between computed tasks from each op kind to each consumer kind,
result delivery included.  It is built on first use and memoised per
cost model on the immutable graph, so `critical_path` and every
`nocsim.simulate` call on one graph and cost model share it.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from typing import Callable, Optional

from .curves import AffinePoint, CurveParams
from .errors import BadValue, FieldMismatch, MalformedGraph, ResultAtInfinity
from .fields import (ARITH_KINDS, ARITY, KIND_CODES, MAX_FIELD_BITS,
                     FieldElement, FieldKind, OpKind, _define, _function,
                     _require_ints, _show, _Texts, op_expression, op_locals)
from .scalarmul import Phase, run_binary_method

_FORMAT_HEADER = "taskgraph 1"
# task lines name kinds and phases by value and write operands by arity
_KIND_TEXT = {kind: kind.value for kind in OpKind}
_PHASE_TEXT = {phase: phase.value for phase in Phase}
_KIND_OF = {text: kind for kind, text in _KIND_TEXT.items()}
_PHASE_OF = {text: phase for phase, text in _PHASE_TEXT.items()}
_OPERANDS_TEXT = ("-", "%d", "%d,%d")
# a plan counts edges by the position of each end here; the last
# consumer, None, is the delivery of a result value to IO
_FLOW_ENDS = (*KIND_CODES, None)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}


def _number(text: str) -> int:
    """The nonnegative int `text` spells as `str` spells it; any other
    spelling (`05`, `-01`, `0x5`) is a KeyError."""
    if not text.isdigit() or text[0] == "0" and text != "0":
        raise KeyError(text)
    return int(text)


def _numbers_of(num: dict[str, int], sid: str, spidx: str,
                sops: str) -> tuple:
    """A task line's id, point-op index and operands, each read by
    lookup in `num` or, past it, by `_number`."""
    def read(text: str) -> int:
        value = num.get(text)
        return _number(text) if value is None else value
    return read(sid), read(spidx), () if sops == "-" else tuple(
        map(read, sops.split(",")))


# the shared spelling table (see the module docstring): int -> str,
# grown by `to_text`, and str -> int, replaced by a longer one by
# `from_text`; both empty at import
_SPELLINGS: list[dict] = [_Texts(), {}]


def _task_columns(rows: list[str], num: dict[str, int]) -> list[list]:
    """The six task columns of the task lines `rows`; ids, point-op
    indices and operands are read by lookup in `num`, an exact dict,
    which CPython reads faster than a subclass, the operand field split
    once at its first comma, and on a line with a spelling past `num`
    or a field of any other shape by `_numbers_of`."""
    kinds, operands, phases, pidxs, labels, values = \
        columns = [], [], [], [], [], []
    for pos, ln in enumerate(rows):
        try:
            sid, skind, sphase, spidx, sops, slabel, svalue = ln.split()
        except ValueError:
            raise MalformedGraph(
                f"task line needs 7 fields: {_show(ln)}") from None
        try:
            kinds.append(_KIND_OF[skind])
            phases.append(_PHASE_OF[sphase])
            try:
                tid, pidx = num[sid], num[spidx]
                if sops == "-":
                    ops = ()
                else:
                    sa, comma, sb = sops.partition(",")
                    ops = (num[sa], num[sb]) if comma else (num[sa],)
            except KeyError:
                tid, pidx, ops = _numbers_of(num, sid, spidx, sops)
            pidxs.append(pidx)
            operands.append(ops)
            if svalue == "-":
                values.append(None)
            else:
                values.append(int(svalue, 16))
                if values[-1] < 0 or format(values[-1], "x") != svalue:
                    raise ValueError(svalue)
        except (KeyError, ValueError) as exc:
            raise MalformedGraph(
                f"unparseable task line: {_show(ln)}") from exc
        if tid != pos:
            raise MalformedGraph(f"task ids must be consecutive from 0; "
                                 f"saw {_show(tid)} at {pos}")
        labels.append("" if slabel == "-" else slabel)
    return columns


# the one message for a graph whose columns, operand tuples, result pair
# or field width are not of the shape a graph is built from
_SHAPE = ("a graph needs tuple columns of one length, tuple operands, "
          "two int result ids and an int field width")


def _stray(column: str, entry) -> MalformedGraph:
    return MalformedGraph(
        f"{column} column holds a {type(entry).__name__} entry")


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
    """A field-op dependency DAG with a designated result pair, held as
    columns indexed by task id; immutable, and checked when built: the
    shapes of the columns and the result pair, then one pass over the
    tasks, each task's entries in column order, then the result ids.
    The first fault in that order is the one reported."""

    kinds: tuple[OpKind, ...]
    operands: tuple[tuple[int, ...], ...]
    phases: tuple[Phase, ...]
    point_op_index: tuple[int, ...]
    labels: tuple[str, ...]
    values: tuple[Optional[int], ...]
    result: tuple[int, int]
    field_bits: int

    def __post_init__(self) -> None:
        if any(type(c) is not tuple or len(c) != len(self.kinds) for c in (
                self.kinds, self.operands, self.phases, self.point_op_index,
                self.labels, self.values)) \
                or type(self.result) is not tuple or len(self.result) != 2 \
                or not all(type(i) is int
                           for i in (*self.result, self.field_bits)):
            raise MalformedGraph(_SHAPE)
        if not self.kinds:
            raise MalformedGraph("graph has no tasks")
        if self.field_bits < 1:
            raise MalformedGraph("field width must be positive")
        if self.field_bits > MAX_FIELD_BITS:
            raise MalformedGraph(
                f"field width {_show(self.field_bits)} is wider than the "
                f"widest field, {MAX_FIELD_BITS} bits")
        bits, xfer, init, iterate = \
            self.field_bits, OpKind.XFER, Phase.INIT, Phase.ITERATE
        # one pass over the tasks: each task's entries in column order,
        # each entry's type before any rule reads it
        for tid, (kind, ops, phase, pidx, label, value) in enumerate(zip(
                self.kinds, self.operands, self.phases, self.point_op_index,
                self.labels, self.values)):
            if type(kind) is not OpKind:
                raise _stray("kinds", kind)
            if type(phase) is not Phase:
                raise _stray("phases", phase)
            if type(pidx) is not int:
                raise _stray("point_op_index", pidx)
            if (pidx >= 0) is not (phase is iterate) or pidx < -1:
                raise MalformedGraph(
                    f"task {tid} has point-op index {_show(pidx)} in the "
                    f"{phase.value} phase; an iterate task's is 0 or more, "
                    f"any other's is -1")
            if type(label) is not str:
                raise _stray("labels", label)
            if type(ops) is not tuple:
                raise MalformedGraph(_SHAPE)
            if len(ops) != ARITY[kind]:
                raise MalformedGraph(
                    f"task {tid}: {kind.value} takes {ARITY[kind]} "
                    f"operands, got {len(ops)}")
            for o in ops:
                if type(o) is not int or not 0 <= o < tid:
                    shown = _show(o) if type(o) is int else reprlib.repr(o)
                    raise MalformedGraph(
                        f"task {tid} references {shown}, which is not an "
                        f"earlier task")
            if value is not None and type(value) is not int:
                raise _stray("values", value)
            if kind is xfer:
                if value is None:
                    raise MalformedGraph(f"XFER task {tid} has no value")
                if value < 0:
                    raise MalformedGraph(f"XFER task {tid} value is negative")
                if value.bit_length() > bits:
                    raise MalformedGraph(f"XFER task {tid} value is wider "
                                         f"than {bits} bits")
                if not label:
                    raise MalformedGraph(f"XFER task {tid} has no label")
                if phase is not init:
                    raise MalformedGraph(
                        f"XFER task {tid} is not in the init phase")
            elif value is not None:
                raise MalformedGraph(
                    f"task {tid} carries a value but is not an XFER")
            elif label:
                raise MalformedGraph(
                    f"task {tid} carries a label but is not an XFER")
        for r in self.result:
            if not 0 <= r < len(self.kinds):
                raise MalformedGraph(f"result id {_show(r)} does not exist")

    @cached_property
    def tasks(self) -> tuple[Task, ...]:
        """The graph as `Task` rows, built on first use."""
        return tuple(Task(tid, *row) for tid, row in enumerate(zip(
            self.kinds, self.operands, self.phases, self.point_op_index,
            self.labels, self.values)))

    @cached_property
    def _plans(self) -> dict[CostModel, Plan]:
        return {}

    def plan(self, cm: CostModel) -> Plan:
        """The graph's schedule plan under `cm`: built on first use and
        memoised per cost model, since the graph cannot change."""
        plan = self._plans.get(cm)
        if plan is None:
            plan = self._plans[cm] = Plan.build(self, cm)
        return plan

    def n_arith_tasks(self) -> int:
        return len(self.kinds) - self.kinds.count(OpKind.XFER)

    def ancestors_of_result(self) -> set[int]:
        """Ids of the tasks the result pair depends on (inclusive)."""
        seen: set[int] = set()
        stack = list(self.result)
        while stack:
            tid = stack.pop()
            if tid in seen:
                continue
            seen.add(tid)
            stack.extend(self.operands[tid])
        return seen

    # -- text round trip ----------------------------------------------------

    def to_text(self) -> str:
        # one task line per id, joined from the columns' texts
        n = len(self.kinds)
        texts = _SPELLINGS[0]
        if len(texts) <= n:
            new = range(len(texts) - 1, n)
            texts.update(zip(new, map(str, new)))
        spell = texts.__getitem__
        rows = map(" ".join, zip(
            map(spell, range(n)),
            map(_KIND_TEXT.__getitem__, self.kinds),
            map(_PHASE_TEXT.__getitem__, self.phases),
            map(spell, self.point_op_index),
            [_OPERANDS_TEXT[len(ops)] % ops for ops in self.operands],
            [label or "-" for label in self.labels],
            ["-" if value is None else format(value, "x")
             for value in self.values]))
        return "\n".join((f"{_FORMAT_HEADER} fieldbits {self.field_bits}",
                          *rows, f"result {self.result[0]} {self.result[1]}",
                          ""))

    @classmethod
    def from_text(cls, text: str) -> TaskGraph:
        """Parse `to_text`'s format.  Every number has one spelling, the
        one `to_text` writes: decimal without a sign (but for a point-op
        index of -1) or a leading zero, and XFER values in lowercase hex
        without a prefix, a sign or a leading zero."""
        # whole-text checks, at C speed: `int` would read a fullwidth 5,
        # `+5` and `0_5` as 5, and no recorded label holds a `_` or `+`
        if not text.isascii() or "_" in text or "+" in text:
            raise MalformedGraph(
                "graph text must be ASCII without '_' or '+'")
        lines = list(filter(None, map(str.strip, text.splitlines())))
        if len(lines) < 3:
            raise MalformedGraph("graph text needs a header, tasks, and a result")
        head = lines[0].split()
        if head[:2] != _FORMAT_HEADER.split() or len(head) != 4 \
                or head[2] != "fieldbits":
            raise MalformedGraph(f"unrecognised header: {_show(lines[0])}")
        try:
            field_bits = _number(head[3])
        except (KeyError, ValueError) as exc:
            raise MalformedGraph(f"bad field width: {_show(head[3])}") \
                from exc
        tail = lines[-1].split()
        if len(tail) != 3 or tail[0] != "result":
            raise MalformedGraph(f"last line must name the result pair: "
                                 f"{_show(lines[-1])}")
        # a table of the spellings of -1 .. len(lines) - 1 or more: the
        # shared one, or for a longer text one of its own, shared once
        # the text reads as a graph; a spelling past it is read by
        # `_number`, which reads canonical numbers, so the validator
        # names them, and refuses any other spelling
        numbers = _SPELLINGS[1]
        if len(numbers) <= len(lines):
            # int -> str is filled in order from -1: its first entries
            # are the spellings of -1 .. len(lines) - 1, as far as it goes
            texts = _SPELLINGS[0]
            numbers = dict(islice(zip(texts.values(), texts),
                                  len(lines) + 1))
            numbers.update((str(i), i)
                           for i in range(len(texts) - 1, len(lines)))
        columns = _task_columns(lines[1:-1], numbers)
        try:
            result = (_number(tail[1]), _number(tail[2]))
        except (KeyError, ValueError) as exc:
            raise MalformedGraph(
                f"bad result ids: {_show(lines[-1])}") from exc
        graph = cls(*map(tuple, columns), result, field_bits)
        if len(numbers) > len(_SPELLINGS[1]):
            _SPELLINGS[1] = numbers
        return graph


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
        names = ("add", "sub", "mul", "sqr", "inv")
        _require_ints(self, "cost", names)
        for name in names:
            if getattr(self, name) < 1:
                raise BadValue(f"{name} cost must be at least 1 cycle")

    @classmethod
    def default(cls, kind: FieldKind) -> "CostModel":
        # squaring is near-free in a binary field, a full product in GF(p)
        return cls(sqr=1 if kind is FieldKind.BINARY else 2)

    def cost(self, kind: OpKind) -> int:
        if kind is OpKind.XFER:
            return 0
        return getattr(self, kind.value.lower())


@dataclass(frozen=True)
class Plan:
    """What scheduling one graph under one cost model needs, none of it
    placement-dependent; `TaskGraph.plan` builds and memoises it."""

    costs: tuple[int, ...]              # cycles per task, by id; XFER 0
    # the two ids a schedule estimate reads per task: a binary task's
    # operands, in id order when both are computed, or a unary task's
    # operand twice; none for an XFER, which is never scheduled
    pairs: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]              # arithmetic tasks, highest upward
                                        # rank first, ties by id
    # (producer kind, consumer kind, edge count) for every pair with an
    # edge between distinct computed tasks, producer kinds in `OpKind`
    # order; a consumer of None is the delivery of a result value to IO
    flows: tuple[tuple[OpKind, Optional[OpKind], int], ...]

    @classmethod
    def build(cls, G: TaskGraph, cm: CostModel) -> Plan:
        table = {kind: cm.cost(kind) for kind in OpKind}
        costs = tuple(map(table.__getitem__, G.kinds))
        # every arithmetic cost is at least 1 and an XFER's is 0, so a
        # cost says whether its task is computed.  Upward rank: longest
        # remaining cost-weighted path to any sink; every cost is >= 1, so
        # decreasing rank is a topological order.  Tasks are visited last
        # id first, so a task's entry holds its successors' highest rank
        # until its own cost is added.  The same walk finds each task's
        # pair and its distinct computed operands (`ops`, in id order;
        # inputs are preloaded, so they carry no edge), and counts those
        # edges by (producer, consumer) kind code, in a row of one column
        # per consumer kind, then delivery
        n = len(costs)
        arith = list(compress(range(n), costs))
        pairs: list[tuple[int, ...]] = [()] * n
        code = list(map(_KIND_CODE.__getitem__, G.kinds))
        width = len(_FLOW_ENDS)
        edges = [0] * (len(_KIND_CODE) * width)
        rank = [0] * n
        operands = G.operands
        for tid in reversed(arith):
            ops = pair = operands[tid]
            if len(ops) == 2:
                a, b = ops
                if not costs[a]:
                    ops = (b,) if costs[b] else ()
                elif not costs[b] or a == b:
                    ops = (a,)
                elif a > b:
                    ops = pair = (b, a)
            else:
                pair = ops * 2
                if not costs[ops[0]]:
                    ops = ()
            pairs[tid] = pair
            r = rank[tid] = rank[tid] + costs[tid]
            to = code[tid]
            for o in ops:
                edges[code[o] * width + to] += 1
                if r > rank[o]:
                    rank[o] = r
        for r in set(G.result):
            if costs[r]:
                edges[code[r] * width + width - 1] += 1
        flows = tuple((_FLOW_ENDS[i // width], _FLOW_ENDS[i % width], n)
                      for i, n in enumerate(edges) if n)
        # the stable sort keeps equal ranks in id order
        return cls(costs, tuple(pairs),
                   tuple(sorted(arith, key=rank.__getitem__, reverse=True)),
                   flows)


# ---------------------------------------------------------------------------
# compilation and the independent interpreter

def compile_scalar_mul(curve: CurveParams, k: int, P: AffinePoint) -> TaskGraph:
    """Compile one binary-method run of k*P into a task graph."""
    tape = run_binary_method(curve, k, P)
    if tape.result is None:
        raise ResultAtInfinity(
            "k*P is the point at infinity, which has no coordinate tasks")
    return TaskGraph(*tape.columns(), tape.result, curve.field.bits)


def _replay_source(kind: FieldKind) -> str:
    """The source of `replay(spec, kinds, operands, xfers)`, the loop
    that runs a graph's columns over a field `spec` of kind `kind` and
    returns every task's raw value: one branch per arithmetic kind, in
    kind-code order, each computing its op as `fields.op_expression`
    writes it, inline where the field kind has an expression for the op
    and by the field's closure otherwise, then the XFER's, which reduces
    its value through `spec.element`."""
    names, closures = op_locals(kind, "spec", range(len(ARITH_KINDS)))
    loop = ["def replay(spec, kinds, operands, xfers):",
            f"{', '.join(op.name for op in KIND_CODES)} = _KINDS",
            *names, *closures,
            "element = spec.element",
            "values = []",
            "append = values.append",
            "for kind, ops, value in zip(kinds, operands, xfers):"]
    for code, op in enumerate(ARITH_KINDS):
        if ARITY[op] == 2:
            read, args = "a, b = ops", ("values[a]", "values[b]")
        else:
            read, args = "a = values[ops[0]]", ("a",)
        loop += [f"    {'elif' if code else 'if'} kind is {op.name}:",
                 f"        {read}",
                 f"        append({op_expression(kind, code, args)})"]
    # XFER, last in kind-code order, is the one kind left: the graph's
    # validator admits only OpKind members
    loop += ["    else:", "        append(element(value).value)",
             "return values"]
    return _function(loop)


# per field kind, its generated replay loop (`_replay_source`), built on
# first use
_REPLAY_LOOPS: dict[FieldKind, Callable] = {}


def replay(G: TaskGraph, curve: CurveParams) -> AffinePoint:
    """Re-execute a graph task by task and return the result point.

    Each task runs the curve field's raw op on the raw ints of its
    operands, through the generated loop of the field's kind; only an
    XFER's value is reduced (`element`), since the graph text may spell
    it non-canonically, and only the two result coordinates become
    `FieldElement`s."""
    spec = curve.field
    if G.field_bits != spec.bits:
        raise FieldMismatch(
            f"graph was compiled for a {G.field_bits}-bit field, curve "
            f"field has {spec.bits} bits")
    loop = _REPLAY_LOOPS.get(spec.kind)
    if loop is None:
        loop = _REPLAY_LOOPS[spec.kind] = _define(
            _replay_source(spec.kind), f"<{spec.kind.value} replay>",
            _KINDS=KIND_CODES)["replay"]
    values = loop(spec, G.kinds, G.operands, G.values)
    x, y = G.result
    return AffinePoint(FieldElement(spec, values[x]),
                       FieldElement(spec, values[y]))


def critical_path(G: TaskGraph, cm: CostModel) -> int:
    """Longest cost-weighted dependency chain ending at the result pair.

    A task's chain runs only through its own ancestors, so tasks the
    result does not depend on never stretch it; the chain is a lower
    bound on any schedule's completion time for the result.
    """
    plan = G.plan(cm)
    dist, pairs = list(plan.costs), plan.pairs
    # the visit order is topological, and an input's chain is 0
    for tid in plan.order:
        a, b = pairs[tid]
        da, db = dist[a], dist[b]
        dist[tid] += da if da > db else db
    return max(dist[r] for r in G.result)
