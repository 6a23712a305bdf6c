"""Deterministic schedule simulation of a task graph on a 2D-mesh NoC.

Model
-----
Tiles form a cols x rows grid; each placed core owns one tile.  Values
travel as messages of `flits_per_value` flits (default: one flit per 32
bits of field width) along the XY dimension-order route: all column
steps first, then all row steps.  Every directed link carries at most
one flit per cycle; a flit needs `hop_cycles` to cross a link, and flits
of one message stay in order.  Link-cycle conflicts are resolved by
booking the earliest free cycle, in the order transfers are booked.

Scheduling is one earliest-finish-time pass in the style of HEFT
(Topcuoglu, Hariri & Wu, IEEE TPDS 13(3), 2002).  Arithmetic tasks are
visited once, longest remaining cost-weighted path to a sink (upward
rank) first, ties by id.  Every core of the task's role, busy or idle,
gets an estimated start once its operands are ready on its tile, where
an operand is ready when its copy on that tile arrived, or else at its
producer's end plus the contention-free latency
hops * hop_cycles + flits - 1.  Each core keeps its free time as one
sorted list of intervals: the idle gaps between its tasks, then an open
interval from its last end on.  The start is max(ready, interval start)
in the first interval that holds the task, ending by the interval's end;
operands ready at or after the core's last end give that estimate as it
is.  This is HEFT's insertion-based policy, and `_slot` is its one
search.  Candidates are tried nearest the task's consumers first: each
kind's cores are ordered once per run by the sum, over the plan's edges
from that kind, of the hops to the nearest core that runs the consumer
(the IO core for a result), then by index.  The task goes to the first
with the lowest (estimate, hops of new transfers), so a tie goes to the
core nearer where the value goes next.  Only then, in the same step of
the loop, are the flits of the missing operands booked on the links,
each launched when its producer ends, and the same search is made from
the real arrivals.  The task splits its interval into the parts before
and after it and keeps those that are not empty, so a task appended
after the last end, idle cycles before it or not, is one more such
split.  Tasks run without preemption.  A value shipped to a tile stays
resident there, so it never crosses to the same tile twice.

The visit order, the task costs, the two operand ids each task reads and
the edge counts between kinds come from the graph's plan
(`TaskGraph.plan`), which is built on first use and memoised per cost
model on the immutable graph; `simulate` keeps only the
placement-dependent work.

Input (XFER) values are preloaded into every core's local store before
cycle 0, so only computed values cross the network.  Control traffic
(assigning tasks to cores) is not charged.  Each computed coordinate of
the result pair launches towards the IO core when its task ends; the run
ends when both have arrived, and that arrival cycle is the makespan.
The delivery is one more step of the task loop, after the last task:
the result pair's values are booked to IO as a task's operands are, by
the same code, and the step's start is the makespan.

A run keeps one availability row per core, indexed by task id: the cycle
at which a value can be used on that core.  A row starts at 0 for every
input (XFER) id, since inputs are preloaded, and None elsewhere; a
computed value's entry becomes its end on the core that computed it and
its arrival on each core it is shipped to.  The estimate of a task on a
candidate reads exactly two entries, the plan's pair for the task: a
binary task's operands (in id order when both are computed) or a unary
task's operand twice.  A missing entry costs the contention-free
latency, read from the cores' hops times `hop_cycles`, and the start
reads the same two entries once the transfers are booked.  Reading one
operand twice doubles its wire cycles on every candidate alike, so no
choice or tie changes.  The rows hold one reference per (core, task):
about 180 KB for a 64-bit k on the 11 default cores, about 33 MB for a
4100-task graph on 1024 cores.  The table of hop cycles and the route
table hold one reference per core pair, about 8 MB each on 1024 cores.
A core's free intervals are two lists, their starts and their ends: one
open interval plus at most one gap per task placed on the core, so the
intervals of a run hold at most two references per core and two per
task.

Each directed link's set of booked cycles is the one record of traffic:
the report reads a link's flit count as the size of its set, and total
flit-hops (one flit crossing one link, the traffic/energy proxy) as the
sum of those counts.  A run builds each core pair's route once, on first
use, as the list of its links' booked-cycle sets, and holds the routes
in a cores x cores table.

A `SimReport` holds the run as columns: each task's core, start and end
cycle indexed by task id, the visit order, and one producer, consumer,
destination core and arrival per message.  `schedule` (`ScheduleEntry`
rows) and `messages` (`MessageRecord` rows) are views of those columns,
built on first read and kept; `to_json_dict` and `schedule_rows` read
the columns, so `simulate` and `compare` never build a row object.
"""

from __future__ import annotations

import enum
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import BadValue, MissingCoreRole, OutOfMesh, TooManyCores
from .fields import MAX_FIELD_BITS, OpKind, _require_ints, _show
from .procmodel import CostModel, TaskGraph

Tile = tuple[int, int]

# placement is quadratic in the tile count and shipping a value books its
# flits one by one, so both are bounded; 64 flits carry the widest field
MAX_TILES = 1024
MAX_FLITS_PER_VALUE = MAX_FIELD_BITS // 32


@dataclass(frozen=True)
class MeshConfig:
    cols: int = 4
    rows: int = 3
    hop_cycles: int = 1
    flits_per_value: Optional[int] = None  # None: ceil(field_bits / 32)

    def __post_init__(self):
        _require_ints(self, "mesh", ("cols", "rows", "hop_cycles") + (
            () if self.flits_per_value is None else ("flits_per_value",)))
        if self.cols < 1 or self.rows < 1:
            raise BadValue("mesh needs at least one column and one row")
        if self.cols * self.rows > MAX_TILES:
            raise BadValue(f"mesh has more than {MAX_TILES} tiles")
        if self.hop_cycles < 1:
            raise BadValue("hop_cycles must be at least 1")
        if self.flits_per_value is not None and not \
                1 <= self.flits_per_value <= MAX_FLITS_PER_VALUE:
            raise BadValue(f"flits_per_value must be 1 to "
                           f"{MAX_FLITS_PER_VALUE}")

    @property
    def n_tiles(self) -> int:
        return self.cols * self.rows

    def tiles(self) -> list[Tile]:
        return [(c, r) for c in range(self.cols) for r in range(self.rows)]

    def contains(self, tile: Tile) -> bool:
        c, r = tile
        return 0 <= c < self.cols and 0 <= r < self.rows


class CoreRole(enum.Enum):
    ADD_UNIT = "add"
    MUL_UNIT = "mul"
    SQR_UNIT = "sqr"
    INV_UNIT = "inv"
    IO = "io"


DEFAULT_ROLE_COUNTS = {
    CoreRole.ADD_UNIT: 3,
    CoreRole.MUL_UNIT: 4,
    CoreRole.SQR_UNIT: 2,
    CoreRole.INV_UNIT: 1,
    CoreRole.IO: 1,
}

_KIND_ROLE = {
    OpKind.ADD: CoreRole.ADD_UNIT,
    OpKind.SUB: CoreRole.ADD_UNIT,
    OpKind.MUL: CoreRole.MUL_UNIT,
    OpKind.SQR: CoreRole.SQR_UNIT,
    OpKind.INV: CoreRole.INV_UNIT,
}

# a role and at most 9 ASCII index digits without a leading zero, so the
# index always converts to an int and no two names (`mul3`, `mul03`,
# `mul٣`) share one
_CORE_NAME = re.compile(
    f"({'|'.join(role.value for role in CoreRole)})(0|[1-9][0-9]{{0,8}})")


def role_for_kind(kind: OpKind) -> CoreRole:
    """The core role that executes a task kind (XFER runs nowhere)."""
    return _KIND_ROLE[kind]


def _is_tile(tile) -> bool:
    """True for a (col, row) tuple of two ints.  A float would step
    `xy_route` past its column for ever, and a bool or str would reach
    the simulator's arithmetic."""
    return isinstance(tile, tuple) and len(tile) == 2 and \
        all(type(v) is int for v in tile)


def manhattan(a: Tile, b: Tile) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def xy_route(mesh: MeshConfig, src: Tile, dst: Tile) -> list[tuple[Tile, Tile]]:
    """Directed links of the XY route: column steps first, then rows."""
    for tile in (src, dst):
        if not _is_tile(tile):
            raise BadValue("a route runs between (col, row) tuples of "
                           "two ints")
        if not mesh.contains(tile):
            # no tile in the message: a huge int cannot be formatted
            raise OutOfMesh(f"a route end lies outside the "
                            f"{mesh.cols}x{mesh.rows} mesh")
    route = []
    c, r = src
    while c != dst[0]:
        step = 1 if dst[0] > c else -1
        route.append(((c, r), (c + step, r)))
        c += step
    while r != dst[1]:
        step = 1 if dst[1] > r else -1
        route.append(((c, r), (c, r + step)))
        r += step
    return route


def centrality(mesh: MeshConfig) -> dict[Tile, int]:
    """Sum of Manhattan distances from each tile to every tile; lower
    means more central."""
    tiles = mesh.tiles()
    return {t: sum(manhattan(t, u) for u in tiles) for t in tiles}


class Placement:
    """Assignment of named cores (role + instance index) to tiles.

    A core's index is its position in `entries`.  The core table is
    built once, when the placement is: `names` and `tiles` by core index,
    and `cores`, each role's core indices in order of instance index.
    """

    def __init__(self, entries: dict[str, Tile]):
        self.entries = dict(entries)
        self.names = list(self.entries)
        self.tiles = list(self.entries.values())
        by_role: dict[CoreRole, list[tuple[int, int]]] = {
            role: [] for role in CoreRole}
        for i, (name, tile) in enumerate(self.entries.items()):
            m = _CORE_NAME.fullmatch(name)
            if m is None:
                raise BadValue(
                    f"core name {_show(name)} is not <role><index>")
            if not _is_tile(tile):
                raise BadValue(f"core {name} must sit on a (col, row) "
                               f"tuple of two ints")
            by_role[CoreRole(m.group(1))].append((int(m.group(2)), i))
        self.cores = {role: [i for _, i in sorted(pairs)]
                      for role, pairs in by_role.items()}

    def validate(self, mesh: MeshConfig) -> None:
        if len(self.entries) > mesh.n_tiles:
            raise TooManyCores(
                f"{len(self.entries)} cores will not fit on "
                f"{mesh.n_tiles} tiles")
        seen: dict[Tile, str] = {}
        for name, tile in self.entries.items():
            if not mesh.contains(tile):
                # no tile in the message: a huge int cannot be formatted
                raise OutOfMesh(f"core {name} sits outside the "
                                f"{mesh.cols}x{mesh.rows} mesh")
            if tile in seen:
                raise BadValue(
                    f"cores {seen[tile]} and {name} share tile {tile}")
            seen[tile] = name

    def cores_of_role(self, role: CoreRole) -> list[tuple[str, Tile]]:
        return [(self.names[i], self.tiles[i]) for i in self.cores[role]]


def role_usage(G: TaskGraph) -> dict[CoreRole, int]:
    """Task count per role; IO is charged one unit per result value."""
    usage = {role: 0 for role in CoreRole}
    for kind, n in Counter(G.kinds).items():
        if kind is not OpKind.XFER:
            usage[role_for_kind(kind)] += n
    usage[CoreRole.IO] = len(set(G.result))
    return usage


def _build_placement(mesh: MeshConfig, role_counts: dict[CoreRole, int],
                     usage: dict[CoreRole, int], sign: int) -> Placement:
    """Busiest roles first onto tiles ordered by sign * centrality."""
    for what, table in (("role counts", role_counts), ("usage", usage)):
        for role, n in table.items():
            if not isinstance(role, CoreRole) or type(n) is not int or n < 0:
                raise BadValue(f"{what} must map a CoreRole to an int >= 0")
    n_cores = sum(role_counts.values())
    if n_cores > mesh.n_tiles:  # before any name is built
        raise TooManyCores(f"{_show(n_cores)} cores will not fit on "
                           f"{mesh.n_tiles} tiles")
    roles = sorted(CoreRole, key=lambda r: -usage.get(r, 0))
    names = [f"{role.value}{i}" for role in roles
             for i in range(role_counts.get(role, 0))]
    cent = centrality(mesh)
    tiles = sorted(mesh.tiles(), key=lambda t: (sign * cent[t], t))
    return Placement(dict(zip(names, tiles)))


def default_placement(mesh: MeshConfig, role_counts: dict[CoreRole, int],
                      usage: dict[CoreRole, int]) -> Placement:
    """Busiest roles on the most central tiles."""
    return _build_placement(mesh, role_counts, usage, 1)


def corner_first_placement(mesh: MeshConfig, role_counts: dict[CoreRole, int],
                           usage: dict[CoreRole, int]) -> Placement:
    """Adversarial control: busiest roles pushed to the rim."""
    return _build_placement(mesh, role_counts, usage, -1)


# ---------------------------------------------------------------------------
# simulation

@dataclass(slots=True)
class ScheduleEntry:
    task: int
    kind: str
    core: str
    start: int
    end: int


@dataclass(slots=True)
class MessageRecord:
    producer: int         # task whose value moves
    consumer: int         # receiving task, or -1 for result delivery
    src: Tile
    dst: Tile
    launch: int
    arrival: int


@dataclass
class SimReport:
    """One run's totals, plus the run itself held as columns.

    `core`, `start` and `end` are indexed by task id: each task's core
    (an index into `placement.entries`, -1 for an XFER) and its start
    and end cycles (0 for an XFER).  `order` lists the arithmetic tasks
    in the order they were scheduled.  The `msg_*` columns hold one entry
    per message in booking order: the producing task, the consuming task
    (-1 for result delivery), the destination core and the arrival
    cycle; a message leaves its producer's core when the producer ends.
    `schedule` and `messages` are row views of those columns, built on
    first read and kept.
    """

    makespan_cycles: int
    sequential_baseline_cycles: int
    speedup: float
    total_flit_hops: int
    flits_per_value: int
    per_core_busy_cycles: dict[str, int]
    per_link_flits: dict[str, int]
    mesh: MeshConfig
    placement: Placement
    kinds: tuple[OpKind, ...]
    core: list[int]
    start: list[int]
    end: list[int]
    order: tuple[int, ...]
    msg_producer: list[int]
    msg_consumer: list[int]
    msg_dst: list[int]
    msg_arrival: list[int]

    @cached_property
    def schedule(self) -> list[ScheduleEntry]:
        """One `ScheduleEntry` per arithmetic task, in `order`."""
        return [ScheduleEntry(*row) for row in self.schedule_rows()[1:]]

    @cached_property
    def messages(self) -> list[MessageRecord]:
        """One `MessageRecord` per message, in booking order."""
        tiles = self.placement.tiles
        core, end = self.core, self.end
        return [MessageRecord(p, c, tiles[core[p]], tiles[d], end[p], a)
                for p, c, d, a in zip(self.msg_producer, self.msg_consumer,
                                      self.msg_dst, self.msg_arrival)]

    def to_json_dict(self) -> dict:
        return {
            "makespan_cycles": self.makespan_cycles,
            "sequential_baseline_cycles": self.sequential_baseline_cycles,
            "speedup": self.speedup,
            "total_flit_hops": self.total_flit_hops,
            "flits_per_value": self.flits_per_value,
            "mesh": {"cols": self.mesh.cols, "rows": self.mesh.rows,
                     "hop_cycles": self.mesh.hop_cycles},
            "placement": {name: list(tile)
                          for name, tile in sorted(self.placement.entries.items())},
            "per_core_busy_cycles": dict(sorted(self.per_core_busy_cycles.items())),
            "per_link_flits": dict(sorted(self.per_link_flits.items())),
            "n_scheduled_tasks": len(self.order),
        }

    def schedule_rows(self) -> list[list]:
        names, kinds = self.placement.names, self.kinds
        core, start, end = self.core, self.start, self.end
        return [["task", "kind", "core", "start_cycle", "end_cycle"]] + [
            [t, kinds[t].value, names[core[t]], start[t], end[t]]
            for t in self.order]


def _slot(starts: list[int], ends: list[float], ready: int,
          cost: int) -> tuple[int, int]:
    """The start of a task of `cost` cycles whose operands are ready on
    a core at `ready`, and the index i of the free interval [starts[i],
    ends[i]) it runs in: the first interval that holds the task started
    at max(ready, interval start).  The intervals are disjoint and
    sorted, and the last is open (its end is infinite), so one always
    holds the task.

    Intervals ending before ready + cost cannot hold the task, so the
    search bisects the ends; the first interval left holds the task at
    `ready` if it is already open then.  Else each later interval starts
    after `ready`, and the walk takes the first one long enough."""
    i = bisect_left(ends, ready + cost)
    s = starts[i]
    if s <= ready:
        return ready, i
    while s + cost > ends[i]:
        i += 1
        s = starts[i]
    return s, i


def simulate(G: TaskGraph, cm: CostModel, mesh: MeshConfig,
             placement: Placement) -> SimReport:
    """Run the deterministic schedule simulation; see the module doc."""
    placement.validate(mesh)
    # `validate` gave each core its own tile, so a core index stands for
    # its tile
    names, tiles, cores = placement.names, placement.tiles, placement.cores
    kinds = G.kinds
    # IO receives the result; every other role is needed when the graph
    # holds a kind it runs
    needed = {_KIND_ROLE[kind] for kind in set(kinds) - {OpKind.XFER}}
    for role in CoreRole:
        if not cores[role] and (role in needed or role is CoreRole.IO):
            raise MissingCoreRole(
                f"placement has no {role.value} core; the graph needs one")
    io = cores[CoreRole.IO][0]
    hop = mesh.hop_cycles
    flits = mesh.flits_per_value or -(-G.field_bits // 32)
    if flits > MAX_FLITS_PER_VALUE:
        raise BadValue(f"values wider than {MAX_FIELD_BITS} bits "
                       f"need more than {MAX_FLITS_PER_VALUE} flits")
    # the cycles a value's head flit takes from core a's tile to core b's,
    # its contention-free latency less the `tail` flits behind it; since
    # hop >= 1, sums of these order cores as sums of hops do
    wire = [[manhattan(a, b) * hop for b in tiles] for a in tiles]
    tail = flits - 1
    flit_range = range(flits)

    plan = G.plan(cm)
    costs, pairs = plan.costs, plan.pairs

    # each arithmetic kind's candidate cores, nearest its consumers
    # first: by the sum, over the plan's edges from the kind, of the hops
    # to the nearest core that runs the consumer (IO for a result), then
    # by index
    runs_on = {}
    for kind, role in _KIND_ROLE.items():
        targets = [(n, cores[_KIND_ROLE.get(consumer, CoreRole.IO)])
                   for producer, consumer, n in plan.flows
                   if producer is kind]
        runs_on[kind] = sorted(cores[role], key=lambda c: (sum(
            n * min(map(wire[c].__getitem__, to)) for n, to in targets), c))

    # per core: its free intervals [idle_starts[i], idle_ends[i]) in
    # cycle order; the last is open and starts where its last task ends
    idle_starts: list[list[int]] = [[0] for _ in names]
    idle_ends: list[list[float]] = [[math.inf] for _ in names]
    busy = [0] * len(names)
    # core, start and end cycle of each computed value, by task id
    loc = [-1] * len(kinds)
    begin = [0] * len(kinds)
    end = [0] * len(kinds)
    # per core, by task id: the cycle the value can be used there: 0 for
    # an input, preloaded everywhere (its cost, 0, is the one key of the
    # map), its end on its own core, its arrival where it was shipped,
    # else None
    row = list(map({0: 0}.get, costs))
    avail = [row.copy() for _ in names]

    # the occupied cycles of each directed link: the only traffic record
    booked: dict[tuple[Tile, Tile], set[int]] = {}
    # per source core, per destination core: its route's booked-cycle sets
    routes: list[list[Optional[list[set[int]]]]] = [
        [None] * len(names) for _ in names]
    # per message: producer, consumer, destination core, arrival cycle
    producers: list[int] = []
    consumers: list[int] = []
    dsts: list[int] = []
    arrivals: list[int] = []

    # after the last task, the result pair's delivery to IO is one more
    # step (task id -1), whose values are booked as a task's operands are
    for tid in (*plan.order, -1):
        if tid < 0:
            core = io
            a, b = pair = sorted(G.result)
        else:
            a, b = pair = pairs[tid]
            cost = costs[tid]
            # the contention-free arrival of a missing operand; an input
            # is never missing, so its row of `wire` (core -1's) is unread
            wire_a, end_a = wire[loc[a]], end[a] + tail
            wire_b, end_b = wire[loc[b]], end[b] + tail
            # `ready` is the estimate less the task's cost, which every
            # candidate shares; only a strictly lower (estimate, wire
            # cycles of new transfers) displaces the best, so ties go to
            # the candidate tried first, and a start of at least `ready`
            # above the best cannot win.  A task that reads one operand
            # twice doubles every candidate's wire, so no tie changes
            best, best_wire = math.inf, 0
            for c in runs_on[kinds[tid]]:
                here = avail[c]
                ready, ready_b, new_wire = here[a], here[b], 0
                if ready is None:
                    new_wire = wire_a[c]
                    ready = end_a + new_wire
                if ready_b is None:
                    w = wire_b[c]
                    new_wire += w
                    ready_b = end_b + w
                if ready_b > ready:
                    ready = ready_b
                if ready > best:
                    continue
                if ready < idle_starts[c][-1]:
                    ready = _slot(idle_starts[c], idle_ends[c], ready,
                                  cost)[0]
                if ready < best or ready == best and new_wire < best_wire:
                    best, best_wire, core = ready, new_wire, c
        # book each missing value's flits from its producer's core,
        # launched when the producer ends.  First fit keeps the flits in
        # order on every link: each reaches a link later than the flit
        # before it, and every cycle from that flit's reaching it to its
        # booked cycle is taken
        here = avail[core]
        for o in pair:
            if here[o] is None:
                src, launch = loc[o], end[o]
                route = routes[src][core]
                if route is None:
                    route = routes[src][core] = [
                        booked.setdefault(link, set())
                        for link in xy_route(mesh, tiles[src], tiles[core])]
                for _ in flit_range:
                    t = launch
                    for taken in route:
                        while t in taken:
                            t += 1
                        taken.add(t)
                        t += hop
                here[o] = t
                producers.append(o)
                consumers.append(tid)
                dsts.append(core)
                arrivals.append(t)
        start, start_b = here[a], here[b]
        if start_b > start:
            start = start_b
        if tid < 0:
            break
        # the same rule on the real arrivals: operands ready at or after
        # the last end need no search, as the open interval holds the
        # task.  Interval i keeps its parts before and after the task
        # that are not empty
        starts, ends = idle_starts[core], idle_ends[core]
        i = len(ends) - 1
        if start < starts[i]:
            start, i = _slot(starts, ends, start, cost)
        gs, ge, e = starts[i], ends[i], start + cost
        if start > gs:
            ends[i] = start
            if e < ge:
                starts.insert(i + 1, e)
                ends.insert(i + 1, ge)
        elif e < ge:
            starts[i] = e
        else:
            del starts[i], ends[i]
        begin[tid] = start
        end[tid] = here[tid] = e
        busy[core] += cost
        loc[tid] = core

    makespan = start  # the delivery step's: 0 if both results are inputs
    per_link_flits = {f"{c1},{r1}->{c2},{r2}": len(taken)
                      for ((c1, r1), (c2, r2)), taken in booked.items()}
    baseline = sum(costs)
    return SimReport(
        makespan_cycles=makespan,
        sequential_baseline_cycles=baseline,
        speedup=baseline / makespan if makespan > 0 else 1.0,
        total_flit_hops=sum(per_link_flits.values()),
        flits_per_value=flits,
        per_core_busy_cycles=dict(zip(names, busy)),
        per_link_flits=per_link_flits,
        mesh=mesh,
        placement=placement,
        kinds=kinds,
        core=loc,
        start=begin,
        end=end,
        order=plan.order,
        msg_producer=producers,
        msg_consumer=consumers,
        msg_dst=dsts,
        msg_arrival=arrivals,
    )


def compare_placements(G: TaskGraph, cm: CostModel, mesh: MeshConfig,
                       placements: list[tuple[str, Placement]]
                       ) -> list[tuple[str, SimReport]]:
    """Simulate every named placement and rank by makespan, then
    traffic, then name."""
    if len(placements) < 2:
        raise BadValue("placement comparison needs at least two entries")
    names = [name for name, _ in placements]
    if len(set(names)) != len(names):
        raise BadValue("placement names must be unique")
    results = [(name, simulate(G, cm, mesh, pl)) for name, pl in placements]
    results.sort(key=lambda item: (item[1].makespan_cycles,
                                   item[1].total_flit_hops, item[0]))
    return results
