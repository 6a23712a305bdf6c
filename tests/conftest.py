import bisect
import random
import signal
from collections import Counter
from contextlib import contextmanager

import pytest

from eccnoc.curves import (INFINITY, AffinePoint, _add_affine_raw,
                           is_on_curve, point_add_affine, point_double_affine)
from eccnoc.errors import OracleBoundExceeded, ResultAtInfinity
from eccnoc.fields import FieldSpec, OpKind, ff_inv, ff_sqr
from eccnoc.nocsim import role_for_kind
from eccnoc.presets import PRESETS, curve_from_ints
from eccnoc.procmodel import (TaskGraph, compile_scalar_mul, critical_path,
                              replay)
from eccnoc.scalarmul import OpTrace, Phase, scalar_mul

_POINT_SCAN_BOUND = 1 << 16


@pytest.fixture
def p17():
    return PRESETS["p17"]


@pytest.fixture
def b4():
    return PRESETS["b4"]


def even_order_toy():
    """(curve, G) of a prime toy curve of even order, kept out of
    `PRESETS`: y^2 = x^3 + x + 1 over GF(13), whose 18 points G = (1, 4)
    generates (found by enumeration), so 9*G = (7, 0) has y = 0."""
    return curve_from_ints(FieldSpec.prime(13), 1, 1, 1, 4, order=18)


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


def double_and_add(curve, k, P):
    """k*P by left-to-right double-and-add over the affine group law."""
    acc = INFINITY
    for bit in bin(k)[2:]:
        acc = point_double_affine(curve, acc)
        if bit == "1":
            acc = point_add_affine(curve, acc, P)
    return acc


def check_scalar_mul(curve, k, P, want):
    """The whole scalar-multiplication pipeline on one input: `scalar_mul`
    gives the oracle's `want`, its trace has the binary method's shape
    and one inversion, in the conversion, for a finite result; a finite
    result compiles to a graph that agrees with the trace, writes the
    same text after a round trip and replays, before and after, to
    `want`, and an infinite one refuses to compile."""
    trace = OpTrace()
    assert scalar_mul(curve, k, P, trace) == want, (k, P)
    phases = [trace.phase_counts(phase) for phase in Phase]
    totals = trace.totals()
    # l-1 doublings and HW(k)-1 additions; k = 0 or P at infinity does
    # no work at all
    if k == 0 or P.is_infinity:
        assert not any(totals.values()), (k, P)
        shape = (0, 0)
    else:
        shape = (k.bit_length() - 1, bin(k).count("1") - 1)
    assert (trace.n_point_doubles, trace.n_point_adds) == shape, (k, P)
    assert totals == {kind: sum(c[kind] for c in phases) for kind in totals}
    # INV by phase: init, iterate, convert
    assert tuple(c[OpKind.INV] for c in phases) == \
        ((0, 0, 0) if want.is_infinity else (0, 0, 1)), (k, P)
    if want.is_infinity:
        with pytest.raises(ResultAtInfinity):
            compile_scalar_mul(curve, k, P)
        return
    G = compile_scalar_mul(curve, k, P)
    # ids are a topological order, and each input appears once
    assert all(o < t for t, ops in enumerate(G.operands) for o in ops)
    inputs = [(label, value) for kind, label, value
              in zip(G.kinds, G.labels, G.values) if kind is OpKind.XFER]
    assert len(set(inputs)) == len(inputs), (k, P)
    # both result coordinates come from convert-phase multiplies
    assert all(G.kinds[r] is OpKind.MUL and G.phases[r] is Phase.CONVERT
               for r in G.result), (k, P)
    # the graph's kinds by phase are the trace's counts
    assert Counter((phase, kind) for phase, kind in zip(G.phases, G.kinds)
                   if kind is not OpKind.XFER) == {
        (phase, kind): n for phase, c in zip(Phase, phases)
        for kind, n in c.items() if n}, (k, P)
    text = G.to_text()
    G2 = TaskGraph.from_text(text)
    assert G2.to_text() == text
    assert replay(G, curve) == replay(G2, curve) == want, (k, P)


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


def multiples(curve, P):
    """The repeated-addition chain infinity, P, 2P, ... up to its return
    to infinity (bounded).  The chain is a recurrence, so it repeats from
    there: k*P is chain[k % len(chain)], and len(chain) is P's order."""
    chain = [INFINITY]
    while not (acc := _add_affine_raw(curve, chain[-1], P)).is_infinity:
        chain.append(acc)
        if len(chain) > _POINT_SCAN_BOUND:
            raise OracleBoundExceeded(
                f"point order exceeds the scan bound {_POINT_SCAN_BOUND}")
    return chain


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
