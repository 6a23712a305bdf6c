"""Task-graph compilation, validation, text round trip, critical path."""

import dataclasses
import pickle
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from eccnoc import procmodel
from eccnoc.cli import main
from eccnoc.errors import (DivisionByZero, FieldMismatch, MalformedGraph,
                           ResultAtInfinity)
from eccnoc.fields import OpKind, ff_add, ff_inv, ff_mul, ff_sqr, ff_sub
from eccnoc.procmodel import (CostModel, Plan, TaskGraph,
                              compile_scalar_mul, critical_path, replay)
from eccnoc.scalarmul import scalar_mul
from eccnoc.fields import FieldKind
from eccnoc.nocsim import (DEFAULT_ROLE_COUNTS, MeshConfig,
                           default_placement, role_usage, simulate)
from eccnoc.presets import PRESETS

from conftest import seeded


def _compile(preset, k):
    return compile_scalar_mul(preset.curve, k, preset.base)


# two parallel MULs feed one ADD, which is both result coordinates
_TINY_TEXT = """taskgraph 1 fieldbits 5
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 MUL iterate 0 0,0 - -
4 ADD iterate 1 2,3 - -
result 4 4
"""


@cache
def _long_spellings():
    """The spelling tables as a 128-bit prime64 round trip leaves them,
    from empty ones."""
    tables = [procmodel._Texts(), {}]
    preset = PRESETS["prime64"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(procmodel, "_SPELLINGS", tables)
        TaskGraph.from_text(compile_scalar_mul(
            preset.curve, (1 << 127) | 0xe3c45e0ad1bbea06, preset.base
        ).to_text())
    assert min(map(len, tables)) > 3000
    return tables


def _with_each_table(monkeypatch, run):
    """`run()` against empty spelling tables, then against tables a long
    round trip extended: a text or message that depended on what the
    process handled before would differ."""
    outs = []
    for texts, numbers in (({}, {}), _long_spellings()):
        monkeypatch.setattr(procmodel, "_SPELLINGS",
                            [procmodel._Texts(texts), dict(numbers)])
        outs.append(run())
    assert outs[0] == outs[1]


def test_malformed_graphs_rejected(monkeypatch):
    _with_each_table(monkeypatch, _malformed_graph_messages)


def _malformed_graph_messages():
    messages, numbers = [], dict(procmodel._SPELLINGS[1])
    px = "0 XFER init -1 - Px 3\n"
    for body, reason in (
            ("result 0 0", "needs a header, tasks"),
            ("1 XFER init -1 - Px 3\nresult 0 0", "consecutive from 0"),
            (px + "1 SQR iterate 0 2 - -\n2 XFER init -1 - Py 4\nresult 1 1",
             "not an earlier task"),
            # an id past the text's line count is still read
            (px + "1 SQR iterate 0 99 - -\nresult 1 1",
             "references 99, which is not an earlier task"),
            (px + "1 MUL iterate 0 0 - -\nresult 1 1", "takes 2 operands"),
            ("0 XFER init -1 - Px -\nresult 0 0", "has no value"),
            # a value's one spelling has no sign
            ("0 XFER init -1 - Px -3\nresult 0 0", "unparseable task line"),
            ("0 XFER init -1 - - 3\nresult 0 0", "XFER task 0 has no label"),
            (px + "1 SQR iterate 0 0 - 9\nresult 1 1", "not an XFER"),
            (px + "result 0 7", "result id 7"),
            # 6 and 160 bits of Px in a 5-bit graph: too few flits each
            ("0 XFER init -1 - Px 20\nresult 0 0", "wider than 5 bits"),
            ("0 XFER init -1 - Px " + "f" * 40 + "\nresult 0 0",
             "wider than 5 bits")):
        with pytest.raises(MalformedGraph, match=reason) as exc:
            TaskGraph.from_text(f"taskgraph 1 fieldbits 5\n{body}\n")
        messages.append(str(exc.value))
    # a refused text leaves the shared table as it was
    assert procmodel._SPELLINGS[1] == numbers
    for text, reason in (
            (_TINY_TEXT.replace("fieldbits 5", "fieldbits 0"),
             "field width must be positive"),
            ("nonsense\n" + _TINY_TEXT, "unrecognised header"),
            (_TINY_TEXT.replace("result 4 4", "result 4"),
             "must name the result pair"),
            (_TINY_TEXT.replace("MUL", "MULL"), "unparseable task line")):
        with pytest.raises(MalformedGraph, match=reason) as exc:
            TaskGraph.from_text(text)
        messages.append(str(exc.value))
    # the constructor rejects an empty graph and a negative value, which
    # text cannot spell
    with pytest.raises(MalformedGraph, match="no tasks"):
        TaskGraph((), (), (), (), (), (), (0, 0), 5)
    tiny = TaskGraph.from_text(_TINY_TEXT)
    with pytest.raises(MalformedGraph, match="XFER task 0 value is negative"):
        dataclasses.replace(tiny, values=(-3, *tiny.values[1:]))
    # small round trips, one with a point-op index past the text's
    # line count, are byte-identical whatever the tables hold
    texts = [_TINY_TEXT, _TINY_TEXT.replace("ADD iterate 1", "ADD iterate 99"),
             _compile(PRESETS["p17"], 13).to_text()]
    assert [TaskGraph.from_text(text).to_text() for text in texts] == texts
    return messages, texts


@pytest.mark.parametrize("old,new", [
    ("fieldbits 5", "fieldbits \uff15"),     # a fullwidth 5
    ("fieldbits 5", "fieldbits +5"),
    ("fieldbits 5", "fieldbits 0_5"),
    ("result 4 4", "result +4 4"),
    ("MUL iterate 0 0,1", "MUL iterate 0 0,+1"),
    ("Px 3", "Px 0_3"),
    # each number has the one spelling `to_text` writes
    ("fieldbits 5", "fieldbits 05"),
    ("3 MUL", "03 MUL"),
    ("MUL iterate 0 0,0", "MUL iterate -01 0,0"),
    ("MUL iterate 0 0,0", "MUL iterate -2 0,0"),   # below -1
    ("MUL iterate 0 0,1", "MUL iterate 0 00,01"),
    ("result 4 4", "result 04 4"),
    ("Px 3", "Px 0x3"),
    ("Px 3", "Px 0X3"),
    ("Px 3", "Px 03"),
    ("Py 4", "Py A"),
])
def test_lenient_graph_spellings_are_refused(monkeypatch, old, new):
    # `int` read each as the graph without its odd spelling (`A` as `a`)
    text = _TINY_TEXT.replace(old, new, 1)
    assert text != _TINY_TEXT
    why = "ASCII without '_' or '[+]'" if {"_", "+", "\uff15"} & set(new) \
        else "unparseable|bad field width|bad result ids"

    def message():
        with pytest.raises(MalformedGraph, match=why) as exc:
            TaskGraph.from_text(text)
        return str(exc.value)

    _with_each_table(monkeypatch, message)

def test_built_graph_cannot_be_mutated(p17):
    G = _compile(p17, 13)
    text = G.to_text()
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.result = (0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.tasks = ()
    with pytest.raises(TypeError):
        G.tasks[0] = G.tasks[1]
    with pytest.raises(AttributeError):
        G.tasks.append(G.tasks[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.tasks[0].operands = (1,)
    # every column is a tuple of its own, never one of the tape's lists,
    # and none can be replaced
    for field in dataclasses.fields(G):
        column = getattr(G, field.name)
        assert isinstance(column, (tuple, int)), field.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(G, field.name, column)
    assert all(type(ops) is tuple for ops in G.operands)
    # list columns are rejected, so no graph shares a caller's list
    for bad in ({"kinds": list(G.kinds)},
                {"operands": tuple(map(list, G.operands))},
                {"values": G.values[:-1]}, {"result": list(G.result)},
                {"result": (G.result[0],)}, {"result": (0, "1")},
                {"field_bits": float(G.field_bits)}):
        with pytest.raises(MalformedGraph):
            dataclasses.replace(G, **bad)
    assert G.to_text() == text


def test_column_entry_types_are_checked(p17):
    """A library caller's graph with a wrongly typed entry in any column
    ends in MalformedGraph, never in a KeyError or TypeError."""
    G = _compile(p17, 13)
    arith = G.kinds.index(OpKind.MUL)

    def put(column, tid, entry):
        col = getattr(G, column)
        return {column: (*col[:tid], entry, *col[tid + 1:])}

    for bad, reason in (
            (put("kinds", 0, "XFER"), "kinds column holds a str"),
            (put("operands", arith, ("0", "0")), "references '0'"),
            (put("operands", arith, (0.0, 0)), "references 0.0"),
            (put("phases", 0, "init"), "phases column holds a str"),
            (put("point_op_index", arith, 0.0),
             "point_op_index column holds a float"),
            (put("labels", 0, None), "labels column holds a NoneType"),
            (put("values", 0, "3"), "values column holds a str"),
            (put("values", 0, True), "values column holds a bool"),
            # bools are ints to isinstance, and would be written as text
            # that from_text rejects
            ({"result": (True, False)}, "two int result ids"),
            ({"field_bits": True}, "an int field width")):
        with pytest.raises(MalformedGraph, match=reason):
            dataclasses.replace(G, **bad)


@pytest.mark.parametrize("name,k", [("p17", 13), ("b4", 0b100101),
                                    ("prime32", 0xb7a3),
                                    ("binary33", 0x1b2d3c4e5)])
def test_row_view_agrees_with_columns(name, k):
    preset = PRESETS[name]
    G = compile_scalar_mul(preset.curve, k, preset.base)
    assert len(G.tasks) == len(G.kinds)
    for t in G.tasks:
        assert (t.kind, t.operands, t.phase, t.point_op_index, t.label,
                t.value) == (G.kinds[t.id], G.operands[t.id], G.phases[t.id],
                             G.point_op_index[t.id], G.labels[t.id],
                             G.values[t.id])
    rebuilt = dataclasses.replace(G)
    assert rebuilt == G
    assert rebuilt.to_text() == G.to_text()


def test_pipeline_never_builds_the_row_view(monkeypatch, capsys):
    """Everything in the package reads the columns; the row view is
    built only on request."""
    preset = PRESETS["prime32"]
    cm = CostModel.default(preset.curve.field.kind)
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    G2 = TaskGraph.from_text(G.to_text())
    replay(G2, preset.curve)
    critical_path(G2, cm)
    G2.n_arith_tasks()
    mesh = MeshConfig()
    simulate(G2, cm, mesh,
             default_placement(mesh, DEFAULT_ROLE_COUNTS, role_usage(G2)))
    assert "tasks" not in vars(G) and "tasks" not in vars(G2)
    # the commands too: any read of the row view fails them
    monkeypatch.setattr(TaskGraph, "tasks", property(
        lambda self: pytest.fail("the row view was built")))
    for command in ("graph", "simulate", "compare"):
        assert main([command, "--curve", "p17", "--k", "d"]) == 0
    capsys.readouterr()


@cache
def _fuzz_texts():
    """The compiled texts the fuzz mutates, built on first draw, so that
    a fault in compiling fails the fuzz test alone."""
    return [_compile(PRESETS[name], k).to_text()
            for name, k in (("p17", 13), ("b4", 0b100101))]


@st.composite
def _mutated_graph_text(draw):
    """A compiled graph text with a few character insertions, deletions
    or substitutions, or task lines swapped or duplicated."""
    text = draw(st.sampled_from(_fuzz_texts()))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(
            ("insert", "delete", "substitute", "swap", "duplicate")))
        if op in ("swap", "duplicate"):
            lines = text.splitlines(keepends=True)
            i, j = (draw(st.integers(1, len(lines) - 2)) for _ in range(2))
            if op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(j, lines[i])
            text = "".join(lines)
            continue
        pos = draw(st.integers(0, max(len(text) - 1, 0)))
        char = draw(st.one_of(st.sampled_from("0123456789abcdef,- \n"),
                              st.characters()))
        if op == "insert":
            text = text[:pos] + char + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + char + text[pos + 1:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_mutated_graph_text())
def test_mutated_graph_text_is_rejected_or_round_trips(text):
    try:
        G = TaskGraph.from_text(text)
    except MalformedGraph:
        return
    out = G.to_text()
    assert TaskGraph.from_text(out).to_text() == out


def _replay_by_elements(G, curve):
    """Element-level interpreter, the oracle for `replay`: each task
    builds a `FieldElement` through the checked `ff_*` functions, by
    branching on its kind rather than through a kind-to-op table."""
    values = []
    for kind, ops, value in zip(G.kinds, G.operands, G.values):
        if kind is OpKind.XFER:
            values.append(curve.field.element(value))
        elif kind is OpKind.ADD:
            values.append(ff_add(values[ops[0]], values[ops[1]]))
        elif kind is OpKind.SUB:
            values.append(ff_sub(values[ops[0]], values[ops[1]]))
        elif kind is OpKind.MUL:
            values.append(ff_mul(values[ops[0]], values[ops[1]]))
        elif kind is OpKind.SQR:
            values.append(ff_sqr(values[ops[0]]))
        else:
            assert kind is OpKind.INV
            values.append(ff_inv(values[ops[0]]))
    return values[G.result[0]], values[G.result[1]]


@pytest.mark.parametrize("name", ["p17", "b4"])
def test_replay_equals_element_interpreter(name):
    preset = PRESETS[name]
    curve = preset.curve
    for k in range(1, 2 * curve.order + 1):
        if scalar_mul(curve, k, preset.base).is_infinity:
            with pytest.raises(ResultAtInfinity):
                _compile(preset, k)
            continue
        G = _compile(preset, k)
        R = replay(G, curve)
        assert (R.x, R.y) == _replay_by_elements(G, curve), k


def test_replay_hand_graphs_agree_with_element_interpreter(p17):
    zero_inverse = TaskGraph.from_text(
        "taskgraph 1 fieldbits 5\n0 XFER init -1 - zero 0\n"
        "1 INV convert -1 0 - -\nresult 1 1\n")
    for run in (replay, _replay_by_elements):
        with pytest.raises(DivisionByZero):
            run(zero_inverse, p17.curve)
    # values in [17, 32) fit the 5-bit width but are not canonical mod 17
    for value in range(17, 32):
        G = TaskGraph.from_text(
            f"taskgraph 1 fieldbits 5\n0 XFER init -1 - Px {value:x}\n"
            f"1 XFER init -1 - Py 3\n2 MUL iterate 0 0,1 - -\n"
            f"3 SUB iterate 0 2,0 - -\nresult 0 3\n")
        R = replay(G, p17.curve)
        assert (R.x, R.y) == _replay_by_elements(G, p17.curve)
        assert R.x.value == value - 17


def test_replay_checks_field_width(p17, b4):
    G = _compile(p17, 13)
    with pytest.raises(FieldMismatch):
        replay(G, b4.curve)  # 5-bit graph, 4-bit field


def test_critical_path_hand_graphs():
    cm = CostModel(add=1, sub=1, mul=3, sqr=1, inv=40)
    single = TaskGraph.from_text(
        "taskgraph 1 fieldbits 5\n0 XFER init -1 - Px 3\n"
        "1 XFER init -1 - Py 4\n2 MUL convert -1 0,1 - -\nresult 2 2\n")
    assert critical_path(single, cm) == 3
    fanin = TaskGraph.from_text(_TINY_TEXT)
    # two parallel MULs (3 each) feed one ADD (1)
    assert critical_path(fanin, cm) == 4
    # a dead expensive task does not stretch the result's path
    orphan = TaskGraph.from_text(_TINY_TEXT.replace(
        "result", "5 INV convert -1 2 - -\nresult"))
    assert critical_path(orphan, cm) == 4


def _critical_path_oracle(G, cm):
    """The longest-path pass over the raw operand tuples, XFER operands
    and repeats included."""
    dist = []
    for kind, ops in zip(G.kinds, G.operands):
        dist.append(cm.cost(kind) + max(map(dist.__getitem__, ops),
                                        default=0))
    return max(dist[r] for r in G.result)


def _plan_oracle(G, cm):
    """Costs, needs (distinct computed operands), pairs and visit order
    derived with sets and a sort per task."""
    costs = tuple(cm.cost(kind) for kind in G.kinds)
    inputs = {tid for tid, kind in enumerate(G.kinds) if kind is OpKind.XFER}
    needs = tuple(tuple(sorted(set(ops) - inputs)) for ops in G.operands)
    # both needs, else a binary task's operands or a unary task's operand
    # twice; none for an input
    pairs = tuple(() if tid in inputs else need if len(need) == 2 else
                  ops if len(ops) == 2 else ops * 2
                  for tid, (ops, need) in enumerate(zip(G.operands, needs)))
    rank = {}
    for tid in reversed(range(len(G.kinds))):
        if tid not in inputs:
            users = [rank[u] for u in range(tid + 1, len(G.kinds))
                     if tid in needs[u]]
            rank[tid] = costs[tid] + max(users, default=0)
    order = tuple(sorted(rank, key=lambda tid: (-rank[tid], tid)))
    return costs, needs, pairs, order


# XFER-only operands (2), a repeated operand (4), descending operands (5),
# an XFER next to a computed operand (7) and a dead expensive task (6)
_PLAN_TEXT = """taskgraph 1 fieldbits 5
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 SQR iterate 0 2 - -
4 MUL iterate 0 3,3 - -
5 ADD iterate 0 4,2 - -
6 INV convert -1 5 - -
7 SUB convert -1 1,5 - -
result 7 5
"""


def test_plan_of_a_hand_graph():
    G = TaskGraph.from_text(_PLAN_TEXT)
    cm = CostModel(add=1, sub=2, mul=3, sqr=5, inv=40)
    plan = G.plan(cm)
    assert plan.costs == (0, 0, 3, 5, 3, 1, 40, 2)
    assert plan.pairs == ((), (), (0, 1), (2, 2), (3, 3), (2, 4), (5, 5),
                          (1, 5))
    # upward ranks 52, 49, 44, 41, 40, 2
    assert plan.order == (2, 3, 4, 5, 6, 7)
    costs, needs, pairs, order = _plan_oracle(G, cm)
    assert needs == ((), (), (), (2,), (3,), (2, 4), (5,), (5,))
    assert (plan.costs, plan.pairs, plan.order) == (costs, pairs, order)
    # 3 + 5 + 3 + 1 + 2 through the SUB; the INV feeds nothing
    assert critical_path(G, cm) == _critical_path_oracle(G, cm) == 14


def _flows_oracle(G, cm):
    """Edges between computed tasks counted by (producer, consumer) kind,
    plus one per distinct computed result, in the plan's order."""
    needs = _plan_oracle(G, cm)[1]
    edges = Counter((G.kinds[o], G.kinds[tid])
                    for tid, ops in enumerate(needs) for o in ops)
    edges.update((G.kinds[r], None) for r in set(G.result)
                 if G.kinds[r] is not OpKind.XFER)
    consumers = [*OpKind, None]
    return tuple((a, b, edges[a, b]) for a in OpKind for b in consumers
                 if edges[a, b])


def test_plan_counts_edges_by_kind():
    G = TaskGraph.from_text(_PLAN_TEXT)
    plan = G.plan(CostModel())
    # 3 <- 2, 4 <- 3, 5 <- 2 and 4, 6 <- 5, 7 <- 5, and results 7 and 5
    assert plan.flows == (
        (OpKind.ADD, OpKind.SUB, 1), (OpKind.ADD, OpKind.INV, 1),
        (OpKind.ADD, None, 1), (OpKind.SUB, None, 1),
        (OpKind.MUL, OpKind.ADD, 2), (OpKind.MUL, OpKind.SQR, 1),
        (OpKind.SQR, OpKind.MUL, 1))
    assert plan.flows == _flows_oracle(G, CostModel())
    # the plan stays hashable
    assert hash(plan) == hash(Plan.build(G, CostModel()))
    rng = seeded(43)
    for name in ("p17", "b4", "prime32", "binary33"):
        preset = PRESETS[name]
        cm = CostModel.default(preset.curve.field.kind)
        k = rng.randrange(2, 1 << 12)
        try:
            G = _compile(preset, k)
        except ResultAtInfinity:
            continue
        assert G.plan(cm).flows == _flows_oracle(G, cm), (name, k)


def test_critical_path_and_plan_match_oracles_on_every_preset():
    rng = seeded(41)
    cms = (CostModel(), CostModel(add=2, sub=3, mul=5, sqr=1, inv=17))
    for preset in PRESETS.values():
        bits = min(preset.curve.field.bits, 20)
        for _ in range(3):
            k = rng.randrange(2, 1 << bits)
            try:
                G = _compile(preset, k)
            except ResultAtInfinity:
                continue
            for cm in cms:
                assert critical_path(G, cm) == _critical_path_oracle(G, cm)
                plan = G.plan(cm)
                costs, _, pairs, order = _plan_oracle(G, cm)
                assert (plan.costs, plan.pairs, plan.order) == \
                    (costs, pairs, order), (preset.name, k)


def test_plan_is_memoised_per_cost_model():
    preset = PRESETS["prime32"]
    a = CostModel.default(preset.curve.field.kind)
    b = CostModel(add=2, sub=2, mul=7, sqr=3, inv=20)
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    bare = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    mesh = MeshConfig()
    pl = default_placement(mesh, DEFAULT_ROLE_COUNTS, role_usage(G))
    reports = []
    for cm in (a, b, a):
        fresh = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
        assert critical_path(G, cm) == critical_path(fresh, cm)
        report = simulate(G, cm, mesh, pl)
        assert report == simulate(fresh, cm, mesh, pl)
        reports.append(report)
    assert reports[0] == reports[2] != reports[1]
    # equal cost models built apart share one plan
    assert G.plan(CostModel(mul=5)) is G.plan(CostModel(mul=5))
    assert G.plan(a) is G.plan(CostModel.default(preset.curve.field.kind))
    # the memo is no part of the graph's value
    assert G == bare and hash(G) == hash(bare)
    copy = pickle.loads(pickle.dumps(G))
    assert copy == G and hash(copy) == hash(G)
    assert copy.plan(b) == G.plan(b)
    assert simulate(copy, b, mesh, pl) == reports[1]


def test_critical_path_scales_with_cost_model(p17):
    G = _compile(p17, 13)
    slow = CostModel(add=1, sub=1, mul=8, sqr=2, inv=100)
    fast = CostModel(add=1, sub=1, mul=2, sqr=1, inv=10)
    assert critical_path(G, slow) > critical_path(G, fast)


def test_cost_model_defaults_and_validation():
    assert CostModel.default(FieldKind.PRIME).sqr == 2
    assert CostModel.default(FieldKind.BINARY).sqr == 1
    cm = CostModel()
    assert cm.cost(OpKind.XFER) == 0
    assert cm.cost(OpKind.MUL) == 4
    assert cm.cost(OpKind.INV) == 40
    with pytest.raises(ValueError):
        CostModel(add=0)


def test_ancestor_set(p17):
    G = _compile(p17, 13)
    anc = G.ancestors_of_result()
    assert set(G.result) <= anc
    assert anc <= set(range(len(G.kinds)))
    # every ancestor's operands are ancestors too
    for tid in anc:
        assert set(G.operands[tid]) <= anc
