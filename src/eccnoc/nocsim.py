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
hops * hop_cycles + flits - 1.  Each core keeps every idle gap below
its last end, sorted: a task appended after idle cycles leaves [previous
end, its start) free.  Operands ready at or after the core's last end
give that estimate as it is.  Operands ready before it give the start
in the first gap that holds the task, max(ready, gap start) with the
task ending by the gap's end, else the core's last end; this is HEFT's
insertion-based policy, and `_slot` is its one search.  Candidates are
tried nearest the task's consumers first: each kind's cores are ordered
once per run by the sum, over the plan's edges from that kind, of the
hops to the nearest core that runs the consumer (the IO core for a
result), then by index.  The task goes to the first with the lowest
(estimate, hops of new transfers), so a tie goes to the core nearer
where the value goes next.  Only then are the missing operands booked
on the links, each launched when its producer ends, and the same search
is made from the real arrivals.  A task placed in a gap splits it into
the parts before and after it and keeps those that are not empty.
Tasks run without preemption.  A value shipped to a tile stays resident
there, so it never crosses to the same tile twice.

The visit order, the task costs, each task's computed operands and the
edge counts between kinds come from the graph's plan (`TaskGraph.plan`),
which is built on first use and memoised per cost model on the
immutable graph; `simulate` keeps only the placement-dependent work.

Input (XFER) values are preloaded into every core's local store before
cycle 0, so only computed values cross the network.  Control traffic
(assigning tasks to cores) is not charged.  Each computed coordinate of
the result pair launches towards the IO core when its task ends; the run
ends when both have arrived, and that arrival cycle is the makespan.

A run keeps one availability row per core, indexed by task id: the
cycle at which a value can be used on that core, which is its end on
the core that computed it, its arrival on a core it was shipped to, and
None elsewhere.  Both the estimate and the start of a task read an
operand's entry there; only a missing one costs the contention-free
latency, read from the cores' hops times `hop_cycles`, or a transfer.
The rows hold one reference per (core, task): about 180 KB for a
64-bit k on the 11 default cores, about 33 MB for a 4100-task graph on
1024 cores.  The table of hop cycles and the route table hold one
reference per core pair, about 8 MB each on 1024 cores.  A core's idle
gaps are two int lists, their starts and their ends; a core holds at
most one gap per task placed on it, so the gaps of a run hold at most
two references per task.

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
    n_cores = sum(max(role_counts.get(role, 0), 0) for role in CoreRole)
    if n_cores > mesh.n_tiles:  # before any name is built
        raise TooManyCores(f"{n_cores} cores will not fit on "
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


def _slot(starts: list[int], ends: list[int], last: int, ready: int,
          cost: int, limit: float) -> tuple[int, int]:
    """The start of a task of `cost` cycles whose operands are ready on
    a core at `ready`, and the index i of the idle gap [starts[i],
    ends[i]) it runs in: the first gap that holds the task started at
    max(ready, gap start), else `last`, the core's last end, with
    i = len(ends).  The gaps are disjoint, sorted and below `last`.

    Gaps ending before ready + cost cannot hold the task, so the
    search bisects the ends; the first gap left holds the task at
    `ready` if it is already open then.  Else each later gap starts
    after `ready`, and the walk takes the first one long enough.  It
    stops at a start above `limit`, returning that start with a gap
    that may not hold the task: a caller looking for a start at or
    below `limit` need not look further."""
    i = bisect_left(ends, ready + cost)
    if i == len(ends):
        return last, i
    s = starts[i]
    if s <= ready:
        return ready, i
    while s + cost > ends[i] and s <= limit:
        i += 1
        if i == len(ends):
            return last, i
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

    plan = G.plan(cm)
    costs, needs = plan.costs, plan.needs

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

    # per core: the cycle its last task ends, and its idle gaps below
    # it, [idle_starts[i], idle_ends[i]) in cycle order
    free = [0] * len(names)
    idle_starts: list[list[int]] = [[] for _ in names]
    idle_ends: list[list[int]] = [[] for _ in names]
    busy = [0] * len(names)
    # core, start and end cycle of each computed value, by task id
    loc = [-1] * len(kinds)
    begin = [0] * len(kinds)
    end = [0] * len(kinds)
    # per core, by task id: the cycle the value can be used there (its
    # end on its own core, its arrival where it was shipped), else None
    avail = [[None] * len(kinds) for _ in names]

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

    def ship(producer: int, consumer: int, dst: int) -> int:
        """Book one value's flits from its producer's core to core dst,
        launched when the producer ends; returns the arrival cycle."""
        src, launch = loc[producer], end[producer]
        route = routes[src][dst]
        if route is None:
            route = routes[src][dst] = [
                booked.setdefault(link, set())
                for link in xy_route(mesh, tiles[src], tiles[dst])]
        # first fit keeps the flits in order on every link: each reaches
        # a link later than the flit before it, and every cycle from
        # that flit's reaching it to its booked cycle is taken
        arrival = launch
        for _ in range(flits):
            t = launch
            for taken in route:
                while t in taken:
                    t += 1
                taken.add(t)
                t += hop
            arrival = t
        producers.append(producer)
        consumers.append(consumer)
        dsts.append(dst)
        arrivals.append(arrival)
        return arrival

    for tid in plan.order:
        candidates = runs_on[kinds[tid]]
        operands, cost = needs[tid], costs[tid]
        # `ready` is the estimate less the task's cost, which every
        # candidate shares; only a strictly lower (estimate, wire cycles
        # of new transfers) displaces the best, so ties go to the
        # candidate tried first
        best, best_wire = math.inf, 0
        for c in candidates:
            ready, new_wire, here = 0, 0, avail[c]
            for o in operands:
                arr = here[o]
                if arr is None:
                    w = wire[loc[o]][c]
                    arr = end[o] + w + tail
                    new_wire += w
                if arr > ready:
                    ready = arr
            if ready < free[c]:
                ready = _slot(idle_starts[c], idle_ends[c], free[c], ready,
                              cost, best)[0]
            if ready < best or ready == best and new_wire < best_wire:
                best, best_wire, core = ready, new_wire, c
        # the same rule on the real arrivals
        start, here, last = 0, avail[core], free[core]
        for o in operands:
            arr = here[o]
            if arr is None:
                arr = here[o] = ship(o, tid, core)
            if arr > start:
                start = arr
        if start < last:
            starts, ends = idle_starts[core], idle_ends[core]
            start, i = _slot(starts, ends, last, start, cost, math.inf)
            if i < len(ends):
                # gap i keeps its parts before and after the task that
                # are not empty
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
        if start >= last:
            if start > last:
                idle_starts[core].append(last)
                idle_ends[core].append(start)
            free[core] = start + cost
        begin[tid] = start
        end[tid] = here[tid] = start + cost
        busy[core] += cost
        loc[tid] = core

    makespan = 0  # inputs are preloaded everywhere, IO included
    for r in sorted({r for r in G.result if loc[r] >= 0}):
        makespan = max(makespan, ship(r, -1, io))
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
