"""Task-graph compilation, validation, text round trip, critical path."""

import dataclasses

import pytest

from eccnoc.curves import INFINITY
from eccnoc.errors import (FieldMismatch, MalformedGraph, ResultAtInfinity)
from eccnoc.fields import OpKind
from eccnoc.procmodel import (CostModel, Task, TaskGraph, compile_scalar_mul,
                              critical_path, replay)
from eccnoc.scalarmul import (OpTrace, Phase, scalar_mul,
                              scalar_mul_reference)
from eccnoc.fields import FieldKind

from conftest import seeded


def _compile(preset, k):
    return compile_scalar_mul(preset.curve, k, preset.base)


def test_compiled_graph_shape(p17):
    G = _compile(p17, 13)
    # ids are a topological order
    for pos, t in enumerate(G.tasks):
        assert t.id == pos
        for o in t.operands:
            assert o < t.id
    # inputs appear once per (label, value)
    xfers = [t for t in G.tasks if t.kind is OpKind.XFER]
    assert len({(t.label, t.value) for t in xfers}) == len(xfers)
    labels = {t.label for t in xfers}
    assert {"Px", "Py", "one", "a"} <= labels
    # the single inversion lives in the convert phase
    invs = [t for t in G.tasks if t.kind is OpKind.INV]
    assert len(invs) == 1 and invs[0].phase is Phase.CONVERT
    # both result coordinates come from convert-phase multiplies
    for r in G.result:
        assert G.tasks[r].kind is OpKind.MUL
        assert G.tasks[r].phase is Phase.CONVERT


def test_replay_matches_direct_run(p17, b4):
    rng = seeded(23)
    for preset in (p17, b4):
        for _ in range(25):
            k = rng.randrange(2, 1 << 12)
            if k % preset.curve.order == 0:
                continue
            G = _compile(preset, k)
            want = scalar_mul(preset.curve, k, preset.base)
            assert replay(G, preset.curve) == want


def test_graph_counts_equal_trace_counts(p17, b4):
    rng = seeded(31)
    for preset in (p17, b4):
        for _ in range(10):
            k = rng.randrange(2, 1 << 10)
            if k % preset.curve.order == 0:
                continue
            G = _compile(preset, k)
            tr = OpTrace()
            scalar_mul(preset.curve, k, preset.base, tr)
            by_phase = G.counts_by_phase()
            for ph in Phase:
                want = {kk: n for kk, n in tr.phase_counts(ph).items() if n}
                got = {kk: n for kk, n in by_phase[ph].items() if n}
                assert want == got, (preset.curve.field.tag, k, ph)


def test_k_one_has_only_convert_arithmetic(p17):
    G = _compile(p17, 1)
    for t in G.tasks:
        if t.kind is not OpKind.XFER:
            assert t.phase is Phase.CONVERT


def test_infinite_results_refuse_to_compile(p17):
    with pytest.raises(ResultAtInfinity):
        _compile(p17, 0)
    with pytest.raises(ResultAtInfinity):
        _compile(p17, 19)   # order of the base point
    with pytest.raises(ResultAtInfinity):
        _compile(p17, 38)   # hits infinity mid-loop and stays there
    with pytest.raises(ResultAtInfinity):
        compile_scalar_mul(p17.curve, 3, INFINITY)


def test_degenerate_equal_point_fallback_still_replays(p17):
    # 42 = 0b101010 walks through the accumulator equalling the base
    # point at a mixed addition, taking the doubling fallback
    G = _compile(p17, 42)
    want = scalar_mul_reference(p17.curve, 42, p17.base)
    assert replay(G, p17.curve) == want
    assert want == scalar_mul(p17.curve, 42, p17.base)


def test_text_round_trip_is_identical(p17, b4):
    for preset, k in ((p17, 13), (b4, 0b100101)):
        G = _compile(preset, k)
        text = G.to_text()
        G2 = TaskGraph.from_text(text)
        assert G2.to_text() == text
        assert G2.result == G.result
        assert G2.field_bits == G.field_bits
        assert replay(G2, preset.curve) == replay(G, preset.curve)


def _tiny_graph(costed=False):
    tasks = [
        Task(0, OpKind.XFER, (), Phase.INIT, -1, label="Px", value=3),
        Task(1, OpKind.XFER, (), Phase.INIT, -1, label="Py", value=4),
        Task(2, OpKind.MUL, (0, 1), Phase.ITERATE, 0),
        Task(3, OpKind.MUL, (0, 0), Phase.ITERATE, 0),
        Task(4, OpKind.ADD, (2, 3), Phase.ITERATE, 1),
    ]
    return TaskGraph(tasks, (4, 4), 5)


def test_malformed_graphs_rejected():
    with pytest.raises(MalformedGraph):
        TaskGraph([], (0, 0), 5)
    with pytest.raises(MalformedGraph):  # non-consecutive ids
        TaskGraph([Task(1, OpKind.XFER, (), Phase.INIT, -1, "Px", 3)],
                  (0, 0), 5)
    with pytest.raises(MalformedGraph):  # forward reference
        TaskGraph([
            Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", 3),
            Task(1, OpKind.SQR, (2,), Phase.ITERATE, 0),
            Task(2, OpKind.XFER, (), Phase.INIT, -1, "Py", 4),
        ], (1, 1), 5)
    with pytest.raises(MalformedGraph):  # wrong arity
        TaskGraph([
            Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", 3),
            Task(1, OpKind.MUL, (0,), Phase.ITERATE, 0),
        ], (1, 1), 5)
    with pytest.raises(MalformedGraph):  # XFER without value
        TaskGraph([Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", None)],
                  (0, 0), 5)
    with pytest.raises(MalformedGraph):  # value on an arithmetic task
        TaskGraph([
            Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", 3),
            Task(1, OpKind.SQR, (0,), Phase.ITERATE, 0, value=9),
        ], (1, 1), 5)
    with pytest.raises(MalformedGraph):  # result id out of range
        TaskGraph([Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", 3)],
                  (0, 7), 5)
    g = _tiny_graph()
    with pytest.raises(MalformedGraph):
        TaskGraph.from_text("nonsense\n" + g.to_text())
    with pytest.raises(MalformedGraph):
        TaskGraph.from_text(g.to_text().replace("result 4 4", "result 4"))
    with pytest.raises(MalformedGraph):
        TaskGraph.from_text(g.to_text().replace("MUL", "MULL"))


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
    # a graph built from a list does not share it with the caller
    tasks = list(_tiny_graph().tasks)
    g = TaskGraph(tasks, (4, 4), 5)
    tasks.append(Task(5, OpKind.SQR, (4,), Phase.ITERATE, 1))
    assert len(g.tasks) == 5
    assert G.to_text() == text


def test_replay_checks_field_width(p17, b4):
    G = _compile(p17, 13)
    with pytest.raises(FieldMismatch):
        replay(G, b4.curve)  # 5-bit graph, 4-bit field


def test_critical_path_hand_graphs():
    cm = CostModel(add=1, sub=1, mul=3, sqr=1, inv=40)
    single = TaskGraph([
        Task(0, OpKind.XFER, (), Phase.INIT, -1, "Px", 3),
        Task(1, OpKind.XFER, (), Phase.INIT, -1, "Py", 4),
        Task(2, OpKind.MUL, (0, 1), Phase.CONVERT, -1),
    ], (2, 2), 5)
    assert critical_path(single, cm) == 3
    fanin = _tiny_graph()
    # two parallel MULs (3 each) feed one ADD (1)
    assert critical_path(fanin, cm) == 4
    # a dead expensive task does not stretch the result's path
    orphan = TaskGraph(
        [*fanin.tasks, Task(5, OpKind.INV, (2,), Phase.CONVERT, -1)],
        (4, 4), 5)
    assert critical_path(orphan, cm) == 4


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
    assert anc <= {t.id for t in G.tasks}
    # every ancestor's operands are ancestors too
    for tid in anc:
        for o in G.tasks[tid].operands:
            assert o in anc
