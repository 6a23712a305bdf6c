import bisect
import random
import signal
from contextlib import contextmanager

import pytest

from eccnoc.curves import INFINITY, AffinePoint, _add_affine_raw, is_on_curve
from eccnoc.errors import OracleBoundExceeded
from eccnoc.fields import OpKind, ff_inv, ff_sqr
from eccnoc.nocsim import role_for_kind
from eccnoc.presets import PRESETS
from eccnoc.procmodel import critical_path

_POINT_SCAN_BOUND = 1 << 16


@pytest.fixture
def p17():
    return PRESETS["p17"]


@pytest.fixture
def b4():
    return PRESETS["b4"]


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def check_field_axioms(spec, triples):
    """The field axioms on every (a, b, c): commutativity, associativity,
    distributivity, both identities, the additive inverse, squaring as a
    product, and the multiplicative inverse of a nonzero a."""
    zero, one = spec.zero, spec.one
    for a, b, c in triples:
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a + zero) == a and (a * one) == a
        assert (a + (-a)).value == 0
        assert ff_sqr(a) == a * a
        if a.value:
            assert (a * ff_inv(a)) == one


def check_schedule(G, cm, mesh, rep):
    """Every invariant of the `simulate` report `rep` of graph `G` under
    `cm` on `mesh`, read from the graph's and the report's columns alone.
    A message leaves its producer's core when the producer ends: the
    columns define its source and launch, so neither is checked."""
    kinds, operands = G.kinds, G.operands
    tiles = rep.placement.tiles
    core, start, end, order = rep.core, rep.start, rep.end, rep.order
    arith = {t for t, kind in enumerate(kinds) if kind is not OpKind.XFER}
    # each arithmetic task runs once, for its cost, on a core
    assert len(order) == len(arith) and set(order) == arith
    per_core = {}
    for t in order:
        assert 0 <= core[t] < len(tiles)
        assert end[t] == start[t] + cm.cost(kinds[t])
        per_core.setdefault(core[t], []).append((start[t], end[t]))
    # no overlap on any core
    for intervals in per_core.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
    # dependencies respected
    for t in order:
        for o in operands[t]:
            if o in arith:
                assert end[o] <= start[t]
    # link traffic, replayed here rather than through xy_route or the
    # simulator's booking: each message in booking order walks its
    # column-first route, and each of its flits takes, link by link, the
    # first cycle at or after the one it reaches that link that is still
    # free in this replay's own (link, cycle) table, so no link carries
    # two flits in one cycle.  A simulator that let two flits share a
    # link-cycle, or timed a hop otherwise, gets other arrival cycles.
    # Each value is shipped at most once to a core, and the result pair
    # is delivered once
    hop = mesh.hop_cycles
    occupied, walked, shipped, delivered = set(), {}, {}, {}
    for p, c, d, arrival in zip(rep.msg_producer, rep.msg_consumer,
                                rep.msg_dst, rep.msg_arrival, strict=True):
        assert p in arith and 0 <= d < len(tiles)
        (x, y), (dx, dy) = tiles[core[p]], tiles[d]
        route = []
        while (x, y) != (dx, dy):
            if x != dx:
                nx, ny = x + (1 if dx > x else -1), y
            else:
                nx, ny = x, y + (1 if dy > y else -1)
            route.append(f"{x},{y}->{nx},{ny}")
            x, y = nx, ny
        prev = None     # the cycles the message's previous flit crossed at
        for _ in range(rep.flits_per_value):
            t, crossed = end[p], []
            for link in route:
                while (link, t) in occupied:
                    t += 1
                occupied.add((link, t))
                crossed.append(t)
                walked[link] = walked.get(link, 0) + 1
                t += hop
            # flits of a message stay in order on every link
            assert prev is None or all(b > a for a, b in zip(prev, crossed))
            prev = crossed
        # the message arrives when its last flit clears its last link,
        # no sooner than its contention-free latency
        assert arrival == t >= \
            end[p] + len(route) * hop + rep.flits_per_value - 1
        if c >= 0:
            assert c in arith and d == core[c] and arrival <= start[c]
            assert (p, d) not in shipped
            shipped[p, d] = arrival
        else:
            assert p not in delivered
            delivered[p] = arrival
    assert walked == rep.per_link_flits
    assert sum(walked.values()) == rep.total_flit_hops
    # every operand made on another core is there by its consumer's start
    for t in order:
        for o in operands[t]:
            if o in arith and core[o] != core[t]:
                assert shipped[o, core[t]] <= start[t]
    # each core is busy for the summed cost of the tasks placed on it
    assert sum(rep.per_core_busy_cycles.values()) == \
        rep.sequential_baseline_cycles
    assert rep.per_core_busy_cycles == {
        name: sum(e - s for s, e in per_core.get(i, ()))
        for i, name in enumerate(rep.placement.names)}
    # insertion: in visit order, each task starts at the first cycle, from
    # its operands' arrival on its core, at which it fits between the
    # tasks placed on its core before it
    placed = {}     # core -> busy intervals so far, sorted and disjoint
    for t in order:
        here = core[t]
        ready = max((end[o] if core[o] == here else shipped[o, here]
                     for o in operands[t] if o in arith), default=0)
        busy = placed.setdefault(here, [])
        for a, b in busy[max(bisect.bisect(busy, (ready, ready)) - 1, 0):]:
            if ready + end[t] - start[t] <= a:
                break
            ready = max(ready, b)
        assert start[t] == ready
        bisect.insort(busy, (start[t], end[t]))
    # the run ends when the last computed result reaches IO; tasks the
    # result depends on are done by then, while dead side branches
    # (degenerate point-op fallbacks) may overrun it
    makespan = rep.makespan_cycles
    assert set(delivered) == {r for r in G.result if r in arith}
    assert makespan == max(delivered.values(), default=0)
    anc = set(G.result)     # operands have lower ids than their tasks
    for t in reversed(range(len(kinds))):
        if t in anc:
            anc.update(operands[t])
    assert all(end[t] <= makespan for t in order if t in anc)
    # bounds
    assert critical_path(G, cm) <= makespan <= \
        rep.sequential_baseline_cycles + rep.total_flit_hops * hop
    assert rep.speedup == pytest.approx(
        rep.sequential_baseline_cycles / makespan)
    # communication-aware critical path: cores of different roles never
    # share a tile, so a cross-role edge and the delivery of a computed
    # result to IO each take at least hop_cycles + flits - 1 cycles
    comm = hop + rep.flits_per_value - 1
    dist = {}
    for t in sorted(anc & arith):
        role = role_for_kind(kinds[t])
        dist[t] = cm.cost(kinds[t]) + max(
            (dist[o] + (comm if role_for_kind(kinds[o]) is not role else 0)
             for o in operands[t] if o in arith), default=0)
    assert makespan >= max(
        (dist[r] + comm for r in G.result if r in arith), default=0)


# desk-scale enumeration oracles for the toy curves

def enumerate_points(curve):
    """All points including infinity, by scanning every (x, y) pair."""
    pts = [INFINITY]
    for x in curve.field.elements():
        for y in curve.field.elements():
            P = AffinePoint(x, y)
            if is_on_curve(curve, P):
                pts.append(P)
    return pts


def point_order(curve, P):
    """Additive order of P by repeated addition (bounded)."""
    if P.is_infinity:
        return 1
    acc = P
    n = 1
    while not acc.is_infinity:
        acc = _add_affine_raw(curve, acc, P)
        n += 1
        if n > _POINT_SCAN_BOUND:
            raise OracleBoundExceeded(
                f"point order exceeds the scan bound {_POINT_SCAN_BOUND}")
    return n


@contextmanager
def deadline(seconds: float):
    """Fail the test, rather than hang it, if the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
