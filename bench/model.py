"""Checks and bounds for the modelled mesh, kept apart from the simulator.

`schedule_failures` mirrors the invariant battery of the test suite's
`_invariant_check` and adds two checks of its own: the makespan equals
the latest result-delivery arrival, and no message arrives sooner than
its contention-free latency.  `list_bound` is a greedy list schedule of
the same graph on the same role counts with free, instant communication:
the makespan a communication-aware scheduler would aim for.
"""

from __future__ import annotations

import heapq
import math

from eccnoc.fields import OpKind
from eccnoc.nocsim import manhattan, role_for_kind
from eccnoc.procmodel import critical_path


def schedule_failures(G, cm, mesh, rep) -> list[str]:
    """Every broken invariant of one simulation report, as messages."""
    bad = []
    n_arith = G.n_arith_tasks()
    if len(rep.schedule) != n_arith or \
            len({e.task for e in rep.schedule}) != n_arith:
        bad.append("schedule does not run every arithmetic task exactly once")
    ends, per_core = {}, {}
    for e in rep.schedule:
        if e.end != e.start + cm.cost(G.tasks[e.task].kind):
            bad.append(f"task {e.task} runs {e.end - e.start} cycles")
        ends[e.task] = e.end
        per_core.setdefault(e.core, []).append((e.start, e.end))
    for core, intervals in per_core.items():
        intervals.sort()
        for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
            if e1 > s2:
                bad.append(f"core {core} runs two tasks at cycle {s2}")
    for e in rep.schedule:
        for o in G.tasks[e.task].operands:
            if G.tasks[o].kind is not OpKind.XFER and ends.get(o, 0) > e.start:
                bad.append(f"task {e.task} starts before operand {o} ends")
    if sum(rep.per_link_flits.values()) != rep.total_flit_hops:
        bad.append("per-link flits do not sum to the flit-hops")
    if sum(rep.per_core_busy_cycles.values()) != \
            rep.sequential_baseline_cycles:
        bad.append("busy cycles do not sum to the sequential baseline")
    anc = G.ancestors_of_result()
    if any(e.end > rep.makespan_cycles for e in rep.schedule if e.task in anc):
        bad.append("a task the result needs ends after the makespan")
    if critical_path(G, cm) > rep.makespan_cycles:
        bad.append("makespan is below the critical path")
    if rep.makespan_cycles > rep.sequential_baseline_cycles + \
            rep.total_flit_hops * mesh.hop_cycles:
        bad.append("makespan exceeds serial work plus all link time")
    if not math.isclose(rep.speedup, rep.sequential_baseline_cycles
                        / rep.makespan_cycles):
        bad.append("speedup is not baseline over makespan")
    delivered = {}
    for m in rep.messages:
        hops = manhattan(m.src, m.dst)
        if m.arrival < m.launch + hops * mesh.hop_cycles \
                + rep.flits_per_value - 1:
            bad.append(f"message {m.producer}->{m.consumer} beats the "
                       f"contention-free latency")
        if m.consumer == -1:
            delivered[m.producer] = m.arrival
    if set(delivered) != set(G.result) or \
            max(delivered.values(), default=-1) != rep.makespan_cycles:
        bad.append("makespan is not the latest result-delivery arrival")
    return bad


def contention_cycles(rep, mesh) -> int:
    """In-flight cycles beyond each message's contention-free latency."""
    return sum(m.arrival - m.launch - manhattan(m.src, m.dst) * mesh.hop_cycles
               - rep.flits_per_value + 1 for m in rep.messages)


def list_bound(G, cm, role_counts) -> int:
    """Makespan of a greedy list schedule with no communication cost.

    Arithmetic tasks run on `role_counts` cores per role; a ready task
    goes to any free core of its role, highest remaining cost-weighted
    path first, and its result is visible everywhere the cycle it ends.
    """
    tasks = G.tasks
    succ = {t.id: [] for t in tasks}
    waiting = {}
    arith = [t for t in tasks if t.kind is not OpKind.XFER]
    for t in arith:
        deps = {o for o in t.operands if tasks[o].kind is not OpKind.XFER}
        waiting[t.id] = len(deps)
        for o in deps:
            succ[o].append(t.id)
    prio = {}
    for t in reversed(arith):
        prio[t.id] = cm.cost(t.kind) + max((prio[s] for s in succ[t.id]),
                                           default=0)
    free = {role: n for role, n in role_counts.items()}
    ready = {role: [] for role in role_counts}
    for t in arith:
        if waiting[t.id] == 0:
            heapq.heappush(ready[role_for_kind(t.kind)], (-prio[t.id], t.id))
    events, finish = [], {}

    def dispatch(now: int) -> None:
        for role, queue in ready.items():
            while queue and free[role]:
                _, tid = heapq.heappop(queue)
                free[role] -= 1
                heapq.heappush(events, (now + cm.cost(tasks[tid].kind), tid))

    dispatch(0)
    while events:
        now = events[0][0]
        while events and events[0][0] == now:
            _, tid = heapq.heappop(events)
            finish[tid] = now
            free[role_for_kind(tasks[tid].kind)] += 1
            for s in succ[tid]:
                waiting[s] -= 1
                if waiting[s] == 0:
                    heapq.heappush(ready[role_for_kind(tasks[s].kind)],
                                   (-prio[s], s))
        dispatch(now)
    return max(finish.get(r, 0) for r in G.result)
