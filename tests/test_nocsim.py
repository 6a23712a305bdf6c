"""Mesh routing, placement construction, and schedule simulation."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eccnoc.errors import (BadValue, EccNocError, MissingCoreRole, OutOfMesh,
                           TooManyCores)
from eccnoc.fields import OpKind
from eccnoc.nocsim import (CoreRole, DEFAULT_ROLE_COUNTS, MAX_FLITS_PER_VALUE,
                           MAX_TILES, MeshConfig, Placement, centrality,
                           corner_first_placement, default_placement,
                           manhattan, role_for_kind, role_usage,
                           simulate, xy_route, _slot)
from eccnoc.procmodel import CostModel, TaskGraph, compile_scalar_mul
from eccnoc.scalarmul import OpTrace, scalar_mul
from eccnoc.presets import PRESETS

from conftest import check_schedule, deadline, seeded

MESH = MeshConfig()


def test_xy_route_frozen_examples():
    assert xy_route(MESH, (0, 0), (2, 1)) == [
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1))]
    assert xy_route(MESH, (3, 2), (1, 0)) == [
        ((3, 2), (2, 2)), ((2, 2), (1, 2)),
        ((1, 2), (1, 1)), ((1, 1), (1, 0))]
    assert xy_route(MESH, (2, 1), (2, 1)) == []


def test_xy_route_length_is_manhattan():
    rng = seeded(5150)
    tiles = MESH.tiles()
    for _ in range(100):
        a, b = rng.choice(tiles), rng.choice(tiles)
        route = xy_route(MESH, a, b)
        assert len(route) == manhattan(a, b)
        # contiguous unit steps, column moves first
        pos = a
        col_done = False
        for (u, v) in route:
            assert u == pos and manhattan(u, v) == 1
            if u[0] == v[0]:
                col_done = True
            else:
                assert not col_done, "column step after a row step"
            pos = v
        assert pos == b


@pytest.mark.parametrize("tile", [(0.5, 0), ("1", 0), (True, 0), (1, 0, 0)])
def test_route_ends_must_be_pairs_of_ints(tile):
    # a float column made the column walk step past it for ever
    for src, dst in ((tile, (1, 0)), ((1, 0), tile)):
        with deadline(3), pytest.raises(BadValue, match="route runs"):
            xy_route(MESH, src, dst)


def test_route_outside_mesh():
    with pytest.raises(OutOfMesh):
        xy_route(MESH, (0, 0), (4, 0))
    with pytest.raises(OutOfMesh):
        xy_route(MESH, (-1, 0), (0, 0))
    # formatting an int of over 4300 digits raises the interpreter's own
    # ValueError
    with pytest.raises(OutOfMesh, match="outside the 4x3 mesh"):
        xy_route(MESH, (10**5000, 0), (0, 0))


def test_centrality_frozen_4x3():
    cent = centrality(MESH)
    assert cent == {
        (1, 1): 20, (2, 1): 20,
        (1, 0): 24, (1, 2): 24, (2, 0): 24, (2, 2): 24,
        (0, 1): 26, (3, 1): 26,
        (0, 0): 30, (0, 2): 30, (3, 0): 30, (3, 2): 30,
    }


_USAGE = {CoreRole.MUL_UNIT: 100, CoreRole.ADD_UNIT: 50,
          CoreRole.SQR_UNIT: 30, CoreRole.INV_UNIT: 5,
          CoreRole.IO: 2}


def test_default_placement_frozen():
    pl = default_placement(MESH, DEFAULT_ROLE_COUNTS, _USAGE)
    assert pl.entries == {
        "mul0": (1, 1), "mul1": (2, 1), "mul2": (1, 0), "mul3": (1, 2),
        "add0": (2, 0), "add1": (2, 2), "add2": (0, 1),
        "sqr0": (3, 1), "sqr1": (0, 0),
        "inv0": (0, 2), "io0": (3, 0),
    }


def test_corner_first_placement_frozen():
    pl = corner_first_placement(MESH, DEFAULT_ROLE_COUNTS, _USAGE)
    assert pl.entries["mul0"] == (0, 0)
    assert pl.entries["mul1"] == (0, 2)
    assert pl.entries["mul2"] == (3, 0)
    assert pl.entries["mul3"] == (3, 2)
    assert pl.entries["io0"] == (1, 1)
    # busiest role ends up strictly less central than in the default
    cent = centrality(MESH)
    dflt = default_placement(MESH, DEFAULT_ROLE_COUNTS, _USAGE)
    assert cent[pl.entries["mul0"]] > cent[dflt.entries["mul0"]]


def test_placement_validation():
    with pytest.raises(TooManyCores):
        counts = dict(DEFAULT_ROLE_COUNTS)
        counts[CoreRole.MUL_UNIT] = 6  # 13 cores on 12 tiles
        default_placement(MESH, counts, _USAGE)
    with pytest.raises(OutOfMesh):
        Placement({"mul0": (9, 9), "io0": (0, 0)}).validate(MESH)
    with pytest.raises(ValueError):
        Placement({"mul0": (1, 1), "io0": (1, 1)}).validate(MESH)
    with pytest.raises(ValueError):
        Placement({"widget0": (0, 0)})
    with pytest.raises(TooManyCores):
        Placement({f"mul{i}": (i, 0) for i in range(13)}).validate(MESH)


def test_role_mapping():
    assert role_for_kind(OpKind.ADD) is CoreRole.ADD_UNIT
    assert role_for_kind(OpKind.SUB) is CoreRole.ADD_UNIT
    assert role_for_kind(OpKind.MUL) is CoreRole.MUL_UNIT
    assert role_for_kind(OpKind.SQR) is CoreRole.SQR_UNIT
    assert role_for_kind(OpKind.INV) is CoreRole.INV_UNIT
    assert sum(DEFAULT_ROLE_COUNTS.values()) == 11


def test_role_usage_matches_trace(p17):
    G = compile_scalar_mul(p17.curve, 13, p17.base)
    tr = OpTrace()
    scalar_mul(p17.curve, 13, p17.base, tr)
    totals = tr.totals()
    usage = role_usage(G)
    assert usage[CoreRole.ADD_UNIT] == totals[OpKind.ADD] + totals[OpKind.SUB]
    assert usage[CoreRole.MUL_UNIT] == totals[OpKind.MUL]
    assert usage[CoreRole.SQR_UNIT] == totals[OpKind.SQR]
    assert usage[CoreRole.INV_UNIT] == totals[OpKind.INV]
    assert usage[CoreRole.IO] == 2


def test_mesh_validation():
    with pytest.raises(ValueError):
        MeshConfig(cols=0)
    with pytest.raises(ValueError):
        MeshConfig(hop_cycles=0)
    with pytest.raises(ValueError):
        MeshConfig(flits_per_value=0)
    # at most MAX_TILES tiles and MAX_FLITS_PER_VALUE flits
    assert MeshConfig(cols=32, rows=32).n_tiles == MAX_TILES
    assert MeshConfig(flits_per_value=MAX_FLITS_PER_VALUE)
    for bad in ({"cols": 33, "rows": 32}, {"cols": 10**6, "rows": 10**6},
                {"flits_per_value": MAX_FLITS_PER_VALUE + 1},
                {"flits_per_value": 10**9}):
        with pytest.raises(BadValue):
            MeshConfig(**bad)


@pytest.mark.parametrize("cls, field, value", [
    # on p17 with k=7 these gave a makespan of 137.0 and a critical path
    # of 83.5, were taken as 1, or ended in a bare TypeError
    (MeshConfig, "hop_cycles", 1.5),
    (MeshConfig, "flits_per_value", True),
    (MeshConfig, "cols", 4.0),
    (MeshConfig, "rows", "3"),
    (CostModel, "mul", 2.5),
    (CostModel, "mul", True),
    (CostModel, "mul", "3"),
    (CostModel, "inv", 40.0),
], ids=lambda v: repr(v) if not isinstance(v, type) else v.__name__)
def test_mesh_and_cost_fields_must_be_ints(cls, field, value):
    with pytest.raises(BadValue, match=f"{field}.* must be an int"):
        cls(**{field: value})


def test_core_count_is_checked_before_any_core_is_named():
    # a count this large could never be named; it is refused at once,
    # and one past the interpreter's int digit limit is named by width
    usage = {role: 1 for role in CoreRole}
    for build in (default_placement, corner_first_placement):
        for n, shown in ((10**12, "1000000000007"),
                         (10**5000, "a 16610-bit int")):
            with pytest.raises(TooManyCores, match=f"^{shown} cores"):
                build(MESH, {**DEFAULT_ROLE_COUNTS, CoreRole.MUL_UNIT: n},
                      usage)


@pytest.mark.parametrize("bad", [
    # unchecked, the first ends in a bare TypeError from the sort key and
    # the others are taken, which can move roles onto other tiles
    {CoreRole.MUL_UNIT: "x"},
    {"mul": 100},
    {CoreRole.MUL_UNIT: 2.5},
    {CoreRole.MUL_UNIT: True},
    {CoreRole.MUL_UNIT: -3},
], ids=["str count", "str key", "float", "bool", "negative"])
def test_placement_usage_is_checked(bad):
    for build in (default_placement, corner_first_placement):
        with pytest.raises(BadValue, match="^usage must map a CoreRole"):
            build(MESH, DEFAULT_ROLE_COUNTS, {**_USAGE, **bad})


# ---------------------------------------------------------------------------
# hand-checkable schedules

_TWO_MULS_ONE_ADD = """taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 MUL iterate 0 0,0 - -
4 ADD iterate 1 2,3 - -
result 4 4
"""

_BACKFILL = """taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 INV convert -1 0 - -
4 MUL convert -1 3,0 - -
5 MUL convert -1 2,2 - -
result 4 5
"""

_SPLIT_GAP = """taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 INV convert -1 0 - -
3 MUL convert -1 2,0 - -
4 SQR convert -1 0 - -
5 MUL convert -1 4,0 - -
6 MUL convert -1 5,5 - -
7 MUL convert -1 3,3 - -
result 6 7
"""

_IO_INV_MUL_SQR = {"io0": (0, 0), "inv0": (1, 0), "mul0": (2, 0),
                   "sqr0": (3, 0)}


# Each row: the graph's text, the mesh, the placement, the costs, then the
# schedule worked out by hand: each task's (id, core, start, end) in visit
# order, each message's (producer, consumer, launch, arrival) in booking
# order (consumer -1 is the result's delivery to IO), and the makespan.
_HAND_TRACES = [
    # one MUL (cost 4) next to the IO core; result is one 2-flit value:
    # execute [0,4), flits cross at cycles 4 and 5, makespan 6
    pytest.param("""taskgraph 1 fieldbits 64
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL convert -1 0,1 - -
result 2 2
""", MeshConfig(cols=2, rows=1, flits_per_value=2),
        {"mul0": (1, 0), "io0": (0, 0)},
        CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
        [(2, "mul0", 0, 4)], [(2, -1, 4, 6)], 6,
        id="single_task_two_flit_delivery"),
    # one MUL core: 2 then 3 back to back; each value launches when its
    # producer ends and crosses link (2,0)->(1,0) alone, 2 at cycle 3
    # (arrives 4) and 3 at cycle 6 (arrives 7); ADD runs [7,8); result
    # reaches IO at 9.  Flits: ceil(32/32) = 1
    pytest.param(_TWO_MULS_ONE_ADD, MeshConfig(cols=3, rows=1),
                 {"io0": (0, 0), "add0": (1, 0), "mul0": (2, 0)},
                 CostModel(add=1, sub=1, mul=3, sqr=1, inv=40),
                 [(2, "mul0", 0, 3), (3, "mul0", 3, 6), (4, "add0", 7, 8)],
                 [(2, 4, 3, 4), (3, 4, 6, 7), (4, -1, 8, 9)], 9,
                 id="serialized_muls_on_one_core"),
    # two MUL cores run 2 and 3 in parallel [0,3); the farther value
    # arrives at cycle 5; ADD [5,6); result at IO at 7
    pytest.param(_TWO_MULS_ONE_ADD, MeshConfig(cols=4, rows=1),
                 {"io0": (0, 0), "add0": (1, 0), "mul0": (2, 0),
                  "mul1": (3, 0)},
                 CostModel(add=1, sub=1, mul=3, sqr=1, inv=40),
                 [(2, "mul0", 0, 3), (3, "mul1", 0, 3), (4, "add0", 5, 6)],
                 [(2, 4, 3, 4), (3, 4, 3, 5), (4, -1, 6, 7)], 7,
                 id="parallel_muls_on_two_cores"),
    # as above with 2-flit values: mul0 and mul1 both run [0,3); mul0's
    # flits take link (2,0)->(1,0) at cycles 3 and 4 (value arrives 5);
    # mul1's flits cross (3,0)->(2,0) at 3 and 4, but (2,0)->(1,0) is
    # taken at 4, so they cross it at 5 and 6 and the value arrives at
    # 7, one cycle after its contention-free 6; ADD [7,8); the result's
    # flits cross (1,0)->(0,0) at 8 and 9 and reach IO at 10
    pytest.param(_TWO_MULS_ONE_ADD, MeshConfig(cols=4, rows=1,
                                               flits_per_value=2),
                 {"io0": (0, 0), "add0": (1, 0), "mul0": (2, 0),
                  "mul1": (3, 0)},
                 CostModel(add=1, sub=1, mul=3, sqr=1, inv=40),
                 [(2, "mul0", 0, 3), (3, "mul1", 0, 3), (4, "add0", 7, 8)],
                 [(2, 4, 3, 5), (3, 4, 3, 7), (4, -1, 8, 10)], 10,
                 id="two_flit_values_contend_for_a_link"),
    # MUL 3 reads MUL 2's value on the core that made it: 2 runs [0,4),
    # 3 runs [4,8) with no transfer between them; only the result
    # travels, its two flits crossing (1,0)->(0,0) at 8 and 9 (IO at 10).
    # Flits: ceil(64/32) = 2
    pytest.param("""taskgraph 1 fieldbits 64
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 MUL iterate 0 2,0 - -
result 3 3
""", MeshConfig(cols=2, rows=1), {"io0": (0, 0), "mul0": (1, 0)},
        CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
        [(2, "mul0", 0, 4), (3, "mul0", 4, 8)], [(3, -1, 8, 10)], 10,
        id="chained_muls_on_one_core_send_nothing_between_them"),
    # MUL 2 feeds ADDs 3 and 4, both on the only ADD core: one message
    # carries 2 to (1,0) (launch 3, arrival 4); ADD 3 runs [4,5) and
    # ADD 4 runs [5,6) on the resident copy, with no second transfer;
    # the results reach IO at 6 and 7
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 ADD iterate 1 2,0 - -
4 ADD iterate 1 2,1 - -
result 3 4
""", MeshConfig(cols=3, rows=1),
        {"io0": (0, 0), "add0": (1, 0), "mul0": (2, 0)},
        CostModel(add=1, sub=1, mul=3, sqr=1, inv=40),
        [(2, "mul0", 0, 3), (3, "add0", 4, 5), (4, "add0", 5, 6)],
        [(2, 3, 3, 4), (3, -1, 5, 6), (4, -1, 6, 7)], 7,
        id="shipped_value_stays_resident"),
    # mul0 runs MUL 2 [0,4), then waits for INV 3 (inv0, [0,40)), whose
    # value crosses one link to arrive at 41: MUL 4 runs [41,45) and
    # leaves mul0 idle in [4,41).  MUL 5 is visited last (rank 4, after
    # MUL 4 by id); its operand 2 sits on mul0 from cycle 4, so it runs
    # [4,8) in that gap, with no message, not [45,49) after MUL 4.  The
    # results reach IO two hops away at 47 (4) and 10 (5)
    pytest.param(_BACKFILL, MeshConfig(cols=3, rows=1),
                 {"io0": (0, 0), "inv0": (1, 0), "mul0": (2, 0)},
                 CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
                 [(3, "inv0", 0, 40), (2, "mul0", 0, 4),
                  (4, "mul0", 41, 45), (5, "mul0", 4, 8)],
                 [(3, 4, 40, 41), (4, -1, 45, 47), (5, -1, 8, 10)], 47,
                 id="task_backfills_the_idle_gap_of_its_operand_core"),
    # as above with a second MUL core, mul1, one hop past mul0 and so
    # tried after it: MUL 2 ties at [0,4) on both idle cores and takes
    # mul0, and MUL 4 runs [41,45) there as before.  MUL 5's operand 2
    # is ready on mul0 at 4, in its idle gap [4,41), and would reach the
    # idle mul1 at 5, so mul0 runs it [4,8).  An estimate that looked
    # only past mul0's last task would give 45 there and put MUL 5 on
    # mul1 at [5,9)
    pytest.param(_BACKFILL, MeshConfig(cols=4, rows=1),
                 {"io0": (0, 0), "inv0": (1, 0), "mul0": (2, 0),
                  "mul1": (3, 0)},
                 CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
                 [(3, "inv0", 0, 40), (2, "mul0", 0, 4),
                  (4, "mul0", 41, 45), (5, "mul0", 4, 8)],
                 [(3, 4, 40, 41), (4, -1, 45, 47), (5, -1, 8, 10)], 47,
                 id="estimate_finds_the_gap_before_an_idle_core"),
    # visit order 3, 4, 2, 5, 6, 7 by rank.  MUL 4 waits for INV 3
    # (inv0, [0,40), one hop) and runs [41,45), leaving mul0 idle in
    # [0,41); MUL 2 runs [0,4) in it, leaving [4,41).  ADD 5 on add0
    # takes 4's value at 46 and runs [46,47); MUL 6 waits for it until
    # 48 and runs [48,52), leaving the gap [45,48), too short for a MUL.
    # MUL 7 reads only 2's value, ready on mul0 at 4: it runs [4,8) in
    # the earlier gap, not [52,56) after MUL 6.  The results reach IO two
    # hops away at 54 (6) and 10 (7)
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL convert -1 0,1 - -
3 INV convert -1 0 - -
4 MUL convert -1 3,0 - -
5 ADD convert -1 4,0 - -
6 MUL convert -1 5,0 - -
7 MUL convert -1 2,2 - -
result 6 7
""", MeshConfig(cols=4, rows=1),
        {"io0": (0, 0), "inv0": (1, 0), "mul0": (2, 0), "add0": (3, 0)},
        CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
        [(3, "inv0", 0, 40), (4, "mul0", 41, 45), (2, "mul0", 0, 4),
         (5, "add0", 46, 47), (6, "mul0", 48, 52), (7, "mul0", 4, 8)],
        [(3, 4, 40, 41), (4, 5, 45, 46), (5, 6, 47, 48), (6, -1, 52, 54),
         (7, -1, 8, 10)], 54,
        id="task_takes_the_earlier_of_two_idle_gaps"),
    # visit order 2, 4, 3, 5, 6, 7 by rank, ties by id.  MUL 3 waits for
    # INV 2 (inv0, [0,40), one hop) and runs [41,45), leaving mul0 idle
    # in [0,41).  MUL 5 waits for SQR 4 (sqr0, [0,29), one hop) and runs
    # [30,34) inside that gap, which splits into [0,30) and [34,41).
    # MUL 6 reads 5's value on mul0 at 34: only the smaller, later part
    # holds it, so it runs [34,38) there, not [45,49) after MUL 3, and
    # MUL 7 runs [45,49).  The results reach IO two hops away at 40 (6)
    # and 51 (7)
    pytest.param(_SPLIT_GAP, MeshConfig(cols=4, rows=1), _IO_INV_MUL_SQR,
                 CostModel(add=1, sub=1, mul=4, sqr=29, inv=40),
                 [(2, "inv0", 0, 40), (4, "sqr0", 0, 29),
                  (3, "mul0", 41, 45), (5, "mul0", 30, 34),
                  (6, "mul0", 34, 38), (7, "mul0", 45, 49)],
                 [(2, 3, 40, 41), (4, 5, 29, 30), (6, -1, 38, 40),
                  (7, -1, 49, 51)], 51,
                 id="task_takes_the_smaller_part_of_a_split_gap"),
    # as above, but SQR 4 runs [0,32): MUL 5 runs [33,37), splitting the
    # gap into [0,33) and [37,41).  MUL 6 reads 5's value on mul0 at 37
    # and fills [37,41) exactly, so that gap is gone, and MUL 7 runs
    # [45,49) after MUL 3.  The results reach IO two hops away at 43 (6)
    # and 51 (7)
    pytest.param(_SPLIT_GAP, MeshConfig(cols=4, rows=1), _IO_INV_MUL_SQR,
                 CostModel(add=1, sub=1, mul=4, sqr=32, inv=40),
                 [(2, "inv0", 0, 40), (4, "sqr0", 0, 32),
                  (3, "mul0", 41, 45), (5, "mul0", 33, 37),
                  (6, "mul0", 37, 41), (7, "mul0", 45, 49)],
                 [(2, 3, 40, 41), (4, 5, 32, 33), (6, -1, 41, 43),
                  (7, -1, 49, 51)], 51,
                 id="task_that_fills_a_gap_deletes_it"),
    # visit order 2, 4, 3, 5, 6, 7 by rank, ties by id.  MUL 3 waits for
    # INV 2 (inv0, [0,40), one hop) and runs [41,45), leaving mul0 idle
    # in [0,41).  MUL 5 waits for SQR 4 (sqr0, [0,36), one hop) and runs
    # [37,41), up to the gap's end, so only [0,37) stays.  MUL 6 reads
    # only inputs and runs [0,4) there; MUL 7 waits for MUL 3 and runs
    # [45,49).  The results reach IO two hops away at 6 (6) and 51 (7)
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 INV convert -1 0 - -
3 MUL convert -1 2,0 - -
4 SQR convert -1 0 - -
5 MUL convert -1 4,0 - -
6 MUL convert -1 0,1 - -
7 MUL convert -1 3,5 - -
result 6 7
""", MeshConfig(cols=4, rows=1), _IO_INV_MUL_SQR,
        CostModel(add=1, sub=1, mul=4, sqr=36, inv=40),
        [(2, "inv0", 0, 40), (4, "sqr0", 0, 36), (3, "mul0", 41, 45),
         (5, "mul0", 37, 41), (6, "mul0", 0, 4), (7, "mul0", 45, 49)],
        [(2, 3, 40, 41), (4, 5, 36, 37), (6, -1, 4, 6), (7, -1, 49, 51)],
        51, id="task_that_ends_a_gap_keeps_the_part_before_it"),
    # MUL 2 reads only inputs, so both idle MUL cores estimate [0,4)
    # with no new hops; its consumer is ADD 3, and add0 sits one hop
    # from mul1 but two from mul0, so mul1 takes it: the value crosses
    # one link (arrival 5), ADD 3 runs [5,6) and the result reaches IO
    # at 7.  On mul0 the ADD would start at 6 and the run end at 8
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL iterate 0 0,1 - -
3 ADD iterate 0 2,0 - -
result 3 3
""", MeshConfig(cols=4, rows=1),
        {"mul0": (0, 0), "io0": (1, 0), "add0": (2, 0), "mul1": (3, 0)},
        CostModel(add=1, sub=1, mul=4, sqr=1, inv=40),
        [(2, "mul1", 0, 4), (3, "add0", 5, 6)],
        [(2, 3, 4, 5), (3, -1, 6, 7)], 7,
        id="equal_estimates_go_to_the_core_nearer_the_consumers"),
    # MULs 2 and 3 read only inputs.  Both feed ADD 4 on add0, one hop
    # from mul1 and two from mul0, so mul1 is tried first: MUL 2 ties at
    # [0,3) on both idle cores and takes mul1.  MUL 3 would wait on mul1
    # until 3 and takes the idle mul0 at 0.  The values reach add0 at 4
    # and 5 (MUL 3's crosses (2,0)->(1,0) after MUL 2's); ADD 4 runs
    # [5,6) and the result reaches IO at 7
    pytest.param(_TWO_MULS_ONE_ADD, MeshConfig(cols=4, rows=1),
                 {"io0": (0, 0), "mul0": (3, 0), "mul1": (2, 0),
                  "add0": (1, 0)},
                 CostModel(add=1, sub=1, mul=3, sqr=1, inv=40),
                 [(2, "mul1", 0, 3), (3, "mul0", 0, 3), (4, "add0", 5, 6)],
                 [(2, 4, 3, 4), (3, 4, 3, 5), (4, -1, 6, 7)], 7,
                 id="input_only_tasks_take_the_idle_cores"),
    # MULs 2 and 3 run [0,2) and [2,4) on mul0.  sqr0 sits one hop from
    # IO and is tried first; sqr1 sits one hop from mul0.  SQR 4 reads 2:
    # it would arrive on sqr0 at 5 and on sqr1 at 3, so sqr1 runs it
    # [3,7).  SQR 5 reads 3: on sqr0 it arrives at 7 over three hops; on
    # sqr1 at 5 over one, where the core is free from 7.  Both estimates
    # are 7, and sqr1, with fewer hops for the new transfer, wins the tie
    # though it is tried second: [7,11).  The results reach IO three hops
    # away at 10 (4) and 14 (5)
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL convert -1 0,1 - -
3 MUL convert -1 1,1 - -
4 SQR convert -1 2 - -
5 SQR convert -1 3 - -
result 4 5
""", MeshConfig(cols=5, rows=1),
        {"io0": (0, 0), "sqr0": (1, 0), "sqr1": (3, 0), "mul0": (4, 0)},
        CostModel(add=1, sub=1, mul=2, sqr=4, inv=40),
        [(2, "mul0", 0, 2), (3, "mul0", 2, 4), (4, "sqr1", 3, 7),
         (5, "sqr1", 7, 11)],
        [(2, 4, 2, 3), (3, 5, 4, 5), (4, -1, 7, 10), (5, -1, 11, 14)], 14,
        id="unary_task_with_a_remote_operand_ties_on_its_one_wire"),
    # sqr0 sits one hop from IO and is tried first; sqr1 sits one hop
    # from mul0 and mul1, sqr0 three.  MULs 2 and 3 run [0,2) on mul0
    # and mul1.  SQR 4 reads 3 and runs [3,5) on sqr1 (arrival 3, against
    # 5 on sqr0); SQR 5 reads 3 too and ties at 5 on both, where sqr1
    # holds 3 and ships nothing: [5,7).  SQR 6 reads 2: 5 on sqr0, 7 on
    # the busy sqr1, so sqr0 runs it [5,7) and 2 crosses three links.
    # SQR 7 reads 2: sqr0 holds it and is free from 7; sqr1 is free from
    # 7 with 2 one hop away.  The estimates tie at 7, and the resident
    # copy costs no new transfer, so sqr0 keeps it, though its own
    # transfer of 2 took three hops: [7,9).  The results reach IO at 8
    # (6) and 10 (7)
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 MUL convert -1 0,1 - -
3 MUL convert -1 1,1 - -
4 SQR convert -1 3 - -
5 SQR convert -1 3 - -
6 SQR convert -1 2 - -
7 SQR convert -1 2 - -
result 6 7
""", MeshConfig(cols=4, rows=2),
        {"io0": (0, 0), "sqr0": (0, 1), "sqr1": (2, 1), "mul0": (2, 0),
         "mul1": (3, 1)},
        CostModel(add=1, sub=1, mul=2, sqr=2, inv=40),
        [(2, "mul0", 0, 2), (3, "mul1", 0, 2), (4, "sqr1", 3, 5),
         (5, "sqr1", 5, 7), (6, "sqr0", 5, 7), (7, "sqr0", 7, 9)],
        [(3, 4, 2, 3), (2, 6, 2, 5), (6, -1, 7, 8), (7, -1, 9, 10)], 10,
        id="operand_already_shipped_costs_no_new_transfer"),
    # visit order 2, 5, 4, 3, 6 by rank, ties by id.  MUL 3 waits for
    # INV 2 (inv0, [0,40), one hop) and runs [41,45), leaving mul0 idle
    # in [0,41).  MUL 6 reads ADD 4 (add0, [0,35), two hops) and SQR 5
    # (sqr0, [0,36), one hop): without contention both arrive at 37, and
    # [37,41) fits the gap.  But 4's value takes link (3,0)->(2,0) at 36,
    # so 5's crosses it at 37 and arrives at 38, too late for the gap:
    # MUL 6 runs [45,49) after MUL 3.  The results reach IO two hops away
    # at 47 (3) and 51 (6)
    pytest.param("""taskgraph 1 fieldbits 32
0 XFER init -1 - Px 3
1 XFER init -1 - Py 4
2 INV convert -1 0 - -
3 MUL convert -1 2,0 - -
4 ADD convert -1 0,1 - -
5 SQR convert -1 1 - -
6 MUL convert -1 4,5 - -
result 3 6
""", MeshConfig(cols=5, rows=1), {**_IO_INV_MUL_SQR, "add0": (4, 0)},
        CostModel(add=35, sub=1, mul=4, sqr=36, inv=40),
        [(2, "inv0", 0, 40), (5, "sqr0", 0, 36), (4, "add0", 0, 35),
         (3, "mul0", 41, 45), (6, "mul0", 45, 49)],
        [(2, 3, 40, 41), (4, 6, 35, 37), (5, 6, 36, 38), (3, -1, 45, 47),
         (6, -1, 49, 51)], 51,
        id="task_estimated_into_a_gap_is_appended_on_its_real_arrivals"),
]


@pytest.mark.parametrize(
    "text, mesh, tiles, cm, schedule, messages, makespan", _HAND_TRACES)
def test_hand_traced_schedule(text, mesh, tiles, cm, schedule, messages,
                              makespan):
    """`simulate` gives the hand-traced schedule, read from the report's
    columns, and the report passes every invariant."""
    G = TaskGraph.from_text(text)
    rep = simulate(G, cm, mesh, Placement(tiles))
    names, core, end = rep.placement.names, rep.core, rep.end
    assert [(t, names[core[t]], rep.start[t], end[t])
            for t in rep.order] == schedule
    assert list(zip(rep.msg_producer, rep.msg_consumer,
                    [end[p] for p in rep.msg_producer],
                    rep.msg_arrival)) == messages
    assert rep.makespan_cycles == makespan
    check_schedule(G, cm, mesh, rep)


@st.composite
def _gaps(draw):
    """A core's free intervals: sorted, disjoint idle gaps, then an open
    one from the core's last end; and a task's ready cycle and cost."""
    starts, ends, t = [], [], draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 8))):
        starts.append(t)
        t += draw(st.integers(1, 12))
        ends.append(t)
        t += draw(st.integers(1, 6))
    starts.append(t)
    ends.append(math.inf)
    return starts, ends, draw(st.integers(0, t + 3)), draw(st.integers(1, 14))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=_gaps())
def test_slot_agrees_with_a_linear_scan(case):
    """`_slot` gives the first free interval that holds the task, found
    by a plain scan of every interval."""
    starts, ends, ready, cost = case
    want = next((max(s, ready), i) for i, (s, e) in
                enumerate(zip(starts, ends)) if max(s, ready) + cost <= e)
    assert _slot(starts, ends, ready, cost) == want


def test_huge_costs_schedule_as_exact_integers():
    """Costs far past any fixed-width integer schedule as the small ones
    do; the makespan is exact."""
    preset = PRESETS["prime32"]
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    cm = CostModel(mul=10**30, inv=10**40)
    pl = default_placement(MESH, DEFAULT_ROLE_COUNTS, role_usage(G))
    rep = simulate(G, cm, MESH, pl)
    assert rep.makespan_cycles == 10000000049000000000000000000000000000303
    assert rep.total_flit_hops == 739
    check_schedule(G, cm, MESH, rep)


def test_missing_role_detected():
    G = TaskGraph.from_text(_TWO_MULS_ONE_ADD)
    mesh = MeshConfig(cols=3, rows=1)
    pl = Placement({"io0": (0, 0), "mul0": (2, 0)})  # no ADD core
    with pytest.raises(MissingCoreRole, match="has no add core"):
        simulate(G, CostModel(), mesh, pl)
    pl2 = Placement({"add0": (0, 0), "mul0": (2, 0)})  # no IO core
    with pytest.raises(MissingCoreRole, match="has no io core"):
        simulate(G, CostModel(), mesh, pl2)


def test_default_flit_count_follows_field_width(p17):
    G = compile_scalar_mul(p17.curve, 5, p17.base)
    cm = CostModel.default(p17.curve.field.kind)
    usage = role_usage(G)
    pl = default_placement(MESH, DEFAULT_ROLE_COUNTS, usage)
    assert simulate(G, cm, MESH, pl).flits_per_value == 1  # 5-bit field
    pr64 = PRESETS["prime64"]
    G64 = compile_scalar_mul(pr64.curve, 0b1011, pr64.base)
    pl64 = default_placement(MESH, DEFAULT_ROLE_COUNTS, role_usage(G64))
    rep = simulate(G64, CostModel.default(pr64.curve.field.kind), MESH, pl64)
    assert rep.flits_per_value == 2  # 64-bit values, 32-bit flits
    override = MeshConfig(flits_per_value=5)
    rep = simulate(G64, CostModel.default(pr64.curve.field.kind), override,
                   pl64)
    assert rep.flits_per_value == 5
    # the width is an exact int: rounded up to 32-bit flits, to the limit
    text = G.to_text()

    def flits(field_bits):
        Gw = TaskGraph.from_text(text.replace(
            "fieldbits 5", f"fieldbits {field_bits}", 1))
        return simulate(Gw, cm, MESH, pl).flits_per_value

    assert flits(32 * 3) == 3 and flits(32 * 3 + 1) == 4
    assert flits(32 * MAX_FLITS_PER_VALUE) == MAX_FLITS_PER_VALUE
    for field_bits in (32 * MAX_FLITS_PER_VALUE + 1, 10**400):
        with pytest.raises(BadValue, match="flits"):
            flits(field_bits)


@st.composite
def _simulation_setup(draw):
    """A p17 or b4 graph, a mesh of up to 6x6, 0-4 cores per role placed
    by default, corner-first or by hand, and arbitrary costs."""
    preset = PRESETS[draw(st.sampled_from(("p17", "b4")))]
    k = draw(st.integers(1, 2 * preset.curve.order))
    # some draws lack one role; the others have 1-4 cores of each
    missing = draw(st.none() | st.sampled_from(CoreRole))
    counts = {role: 0 if role is missing else draw(st.integers(1, 4))
              for role in CoreRole}
    names = [f"{role.value}{i}" for role, n in counts.items()
             for i in range(n)]
    # some meshes get rows enough for every core, where 6 rows will do
    cols = draw(st.integers(1, 6))
    fit = min(6, -(-len(names) // cols)) if draw(st.booleans()) else 1
    mesh = dict(cols=cols, rows=draw(st.integers(fit, 6)),
                hop_cycles=draw(st.integers(1, 3)),
                flits_per_value=draw(st.none() | st.integers(1, 4)))
    costs = {name: draw(st.integers(1, 50))
             for name in ("add", "sub", "mul", "sqr", "inv")}
    tiles = draw(st.permutations([(c, r) for c in range(mesh["cols"])
                                  for r in range(mesh["rows"])]))
    # cores past the last tile share (0, 0): too many for the mesh
    hand = dict(zip(names, [*tiles, *[(0, 0)] * len(names)]))
    how = draw(st.sampled_from((default_placement, corner_first_placement,
                                hand)))
    return preset, k, mesh, costs, counts, how


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(setup=_simulation_setup())
def test_simulate_property(setup):
    """Any machine either raises an `EccNocError` or yields a schedule
    that passes every invariant."""
    preset, k, mesh_args, costs, counts, how = setup
    try:
        G = compile_scalar_mul(preset.curve, k, preset.base)
        mesh, cm = MeshConfig(**mesh_args), CostModel(**costs)
        pl = Placement(how) if isinstance(how, dict) else \
            how(mesh, counts, role_usage(G))
        rep = simulate(G, cm, mesh, pl)
    except EccNocError:
        return
    check_schedule(G, cm, mesh, rep)


@pytest.mark.parametrize("corrupt", ["start", "cores", "arrival",
                                     "message", "makespan"])
def test_check_schedule_fails_a_corrupt_report(p17, corrupt):
    """The battery passes a real report and fails it once one entry of
    its columns is corrupted."""
    G, rep = _report(p17)
    cm = CostModel.default(p17.curve.field.kind)
    check_schedule(G, cm, MESH, rep)
    t = rep.order[-1]
    if corrupt == "start":
        rep.start[t] += 1
    elif corrupt == "cores":
        u = next(u for u in rep.order if rep.core[u] != rep.core[t])
        rep.core[t], rep.core[u] = rep.core[u], rep.core[t]
    elif corrupt == "arrival":
        rep.msg_arrival[0] -= 1
    elif corrupt == "message":
        for column in (rep.msg_producer, rep.msg_consumer, rep.msg_dst,
                       rep.msg_arrival):
            column.pop()
    else:
        rep.makespan_cycles -= 1
    with pytest.raises(AssertionError):
        check_schedule(G, cm, MESH, rep)


def test_simulation_is_deterministic(p17):
    G = compile_scalar_mul(p17.curve, 45, p17.base)
    cm = CostModel.default(p17.curve.field.kind)
    pl = default_placement(MESH, DEFAULT_ROLE_COUNTS, role_usage(G))
    a = simulate(G, cm, MESH, pl)
    b = simulate(G, cm, MESH, pl)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.schedule_rows() == b.schedule_rows()
    for column in ("msg_producer", "msg_consumer", "msg_dst", "msg_arrival"):
        assert getattr(a, column) == getattr(b, column)


def test_sequential_baseline_sums_costs(p17):
    G = compile_scalar_mul(p17.curve, 13, p17.base)
    cm = CostModel.default(p17.curve.field.kind)
    tr = OpTrace()
    scalar_mul(p17.curve, 13, p17.base, tr)
    tot = tr.totals()
    want = sum(tot[k] * cm.cost(k) for k in tot)
    rep = simulate(G, cm, MESH, default_placement(MESH, DEFAULT_ROLE_COUNTS,
                                                  role_usage(G)))
    assert rep.sequential_baseline_cycles == want


# ---------------------------------------------------------------------------
# the report's columns and row views

def _report(p17, k=45, place=default_placement):
    G = compile_scalar_mul(p17.curve, k, p17.base)
    cm = CostModel.default(p17.curve.field.kind)
    return G, simulate(G, cm, MESH, place(MESH, DEFAULT_ROLE_COUNTS,
                                          role_usage(G)))


def test_report_rows_are_built_only_when_read(p17):
    """`simulate` fills columns only; `schedule` and `messages` are
    built on first read and kept, and nothing else depends on them."""
    _, rep = _report(p17)
    assert "schedule" not in vars(rep) and "messages" not in vars(rep)
    doc, rows = rep.to_json_dict(), rep.schedule_rows()
    assert "schedule" not in vars(rep) and "messages" not in vars(rep)
    schedule, messages = rep.schedule, rep.messages
    assert rep.schedule is schedule and rep.messages is messages
    assert rep.to_json_dict() == doc and rep.schedule_rows() == rows
    assert doc["n_scheduled_tasks"] == len(schedule) == len(rows) - 1
    assert [[e.task, e.kind, e.core, e.start, e.end]
            for e in schedule] == rows[1:]


def _attributes_read(path: Path, name: str) -> set[str]:
    """Every `name.<attr>` that the module at `path` reads."""
    tree = ast.parse(path.read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == name}


@pytest.mark.parametrize("place", (default_placement, corner_first_placement))
def test_rows_carry_what_the_benchmark_reads(p17, place):
    """Each row agrees with the columns it is built from, and carries
    every attribute the benchmark's schedule checks read (`e` is a
    schedule entry there, `m` a message)."""
    G, rep = _report(p17, 29, place)
    model = Path(__file__).parent.parent / "bench" / "model.py"
    assert _attributes_read(model, "e") == {"task", "core", "start", "end"}
    assert _attributes_read(model, "m") == {"producer", "consumer", "src",
                                            "dst", "launch", "arrival"}
    names = list(rep.placement.entries)
    tiles = list(rep.placement.entries.values())
    assert [e.task for e in rep.schedule] == list(rep.order)
    for e in rep.schedule:
        assert (e.kind, e.core, e.start, e.end) == (
            G.kinds[e.task].value, names[rep.core[e.task]],
            rep.start[e.task], rep.end[e.task])
    assert len(rep.messages) == len(rep.msg_arrival) > 0
    for i, m in enumerate(rep.messages):
        assert (m.producer, m.consumer, m.arrival) == (
            rep.msg_producer[i], rep.msg_consumer[i], rep.msg_arrival[i])
        assert m.src == tiles[rep.core[m.producer]]
        assert m.dst == tiles[rep.msg_dst[i]]
        assert m.launch == rep.end[m.producer]
    # XFER tasks run on no core
    assert all(rep.core[t] == -1 for t, kind in enumerate(G.kinds)
               if kind is OpKind.XFER)


@pytest.mark.parametrize("tile", [
    (0.5, 0),      # xy_route stepped past a non-integer column for ever
    (1, 1.5),
    ("1", 0),
    (1, 0, 0),
    (1,),
    (True, 0),     # passed as (1, 0)
    (2.0, 0),
    [1, 0],
    1,
    None,
])
def test_placement_tiles_must_be_pairs_of_ints(p17, tile):
    G = compile_scalar_mul(p17.curve, 7, p17.base)
    cm = CostModel.default(p17.curve.field.kind)
    entries = dict(default_placement(MESH, DEFAULT_ROLE_COUNTS,
                                     role_usage(G)).entries)
    entries["io0"] = tile
    with deadline(10), pytest.raises(BadValue, match="core io0 must sit"):
        simulate(G, cm, MESH, Placement(entries))


def test_out_of_mesh_tile_with_a_huge_coordinate():
    # the message names the core; formatting the tile would raise the
    # interpreter's own ValueError for an int of over 4300 digits
    pl = Placement({"io0": (10**5000, 0)})
    with pytest.raises(OutOfMesh, match="core io0 sits outside the 4x3"):
        pl.validate(MESH)
