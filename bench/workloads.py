"""Inputs, items, output checks and probes of the benchmark workloads.

An item is one closed-loop request: the public calls a workload makes
for one generated `(curve, k)`.  Its checks run after the item's clock
stops and never reuse the code under test to decide what is right: a
point is compared with an affine double-and-add computed at set-up, a
graph with its own text, a schedule with the invariants in `model.py`.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from eccnoc import PRESETS, cli
from eccnoc.curves import (AffinePoint, point_add_affine, point_add_projective,
                           point_double_affine, point_double_projective,
                           to_projective)
from eccnoc.fields import OpKind, ff_add, ff_inv, ff_mul, ff_sqr
from eccnoc.nocsim import (DEFAULT_ROLE_COUNTS, CoreRole, MeshConfig,
                           corner_first_placement, default_placement,
                           role_usage, simulate)
from eccnoc.procmodel import (CostModel, TaskGraph, compile_scalar_mul,
                              critical_path, replay)
from eccnoc.scalarmul import OpTrace, Phase, count_report, scalar_mul

from model import contention_cycles, list_bound, schedule_failures
from spec import CAL_REF_S, INPUTS, calibrate

POOL = {"mul-prime": 32, "mul-binary": 32, "graph": 16, "schedule": 16}
MODEL_INPUTS = 8   # the first inputs of the pool, for the modelled metrics
MESH = MeshConfig()
MESH_6X4 = MeshConfig(cols=6, rows=4)
ROLES_6X4 = {role: 2 * n for role, n in DEFAULT_ROLE_COUNTS.items()}


@dataclass(frozen=True)
class Input:
    curve_name: str
    curve: object
    base: AffinePoint
    k: int
    expected: Optional[AffinePoint]   # k*P by affine double-and-add


def affine_double_and_add(curve, k: int, P: AffinePoint) -> AffinePoint:
    acc = P
    for i in range(k.bit_length() - 2, -1, -1):
        acc = point_double_affine(curve, acc)
        if (k >> i) & 1:
            acc = point_add_affine(curve, acc, P)
    return acc


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's input pool; the same seed gives the same pool.

    Every k has its top bit set and Hamming weight bits/2, the mean of a
    random scalar, so all items of a workload do the same number of
    point operations and differ only in where the additions fall; this
    keeps the spread between seeds small.
    """
    names, bits = INPUTS[workload]
    rng = random.Random(f"eccnoc-bench/{workload}/{seed}")
    out = []
    for i in range(POOL[workload]):
        name = names[i % len(names)]
        preset = PRESETS[name]
        k = sum(1 << i for i in rng.sample(range(bits - 1), bits // 2 - 1))
        k |= 1 << (bits - 1)
        expected = None
        if workload != "schedule":
            expected = affine_double_and_add(preset.curve, k, preset.base)
        out.append(Input(name, preset.curve, preset.base, k, expected))
    return out


# ---------------------------------------------------------------------------
# items and their checks

def mul_item(tr, inp: Input):
    trace = OpTrace()
    with tr.span("scalarmul.scalar_mul"):
        R = scalar_mul(inp.curve, inp.k, inp.base, trace)
    with tr.span("scalarmul.count_report"):
        report = count_report(trace, trace.n_point_doubles, trace.n_point_adds)
    return R, trace, report


def mul_check(inp: Input, out) -> list[str]:
    R, trace, report = out
    bad = []
    if R != inp.expected:
        bad.append("k*P differs from affine double-and-add")
    want = (inp.k.bit_length() - 1, bin(inp.k).count("1") - 1)
    if (trace.n_point_doubles, trace.n_point_adds) != want or \
            (report.n_point_doubles, report.n_point_adds) != want:
        bad.append("not l-1 doublings and HW(k)-1 additions")
    if trace.totals()[OpKind.INV] != 1 or \
            trace.phase_counts(Phase.CONVERT)[OpKind.INV] != 1:
        bad.append("not exactly one INV, in convert")
    return bad


def graph_item(tr, inp: Input):
    with tr.span("procmodel.compile"):
        G = compile_scalar_mul(inp.curve, inp.k, inp.base)
    with tr.span("procmodel.to_text"):
        text = G.to_text()
    with tr.span("procmodel.from_text"):
        G2 = TaskGraph.from_text(text)
    with tr.span("procmodel.replay"):
        R = replay(G2, inp.curve)
    return text, G2, R


def graph_check(inp: Input, out) -> list[str]:
    text, G2, R = out
    bad = []
    if G2.to_text() != text:
        bad.append("from_text(to_text(G)).to_text() differs from the text")
    if R != inp.expected:
        bad.append("replay differs from affine double-and-add")
    return bad


def _placements(tr, G):
    with tr.span("nocsim.placement"):
        usage = role_usage(G)
        return usage, (default_placement(MESH, DEFAULT_ROLE_COUNTS, usage),
                       corner_first_placement(MESH, DEFAULT_ROLE_COUNTS, usage))


def schedule_item(tr, inp: Input):
    cm = CostModel.default(inp.curve.field.kind)
    with tr.span("procmodel.compile"):
        G = compile_scalar_mul(inp.curve, inp.k, inp.base)
    with tr.span("procmodel.critical_path"):
        critical_path(G, cm)
    _, placements = _placements(tr, G)
    reps = []
    for pl in placements:
        with tr.span("nocsim.simulate"):
            reps.append(simulate(G, cm, MESH, pl))
    return G, cm, reps


def schedule_check(inp: Input, out) -> list[str]:
    G, cm, reps = out
    return [msg for rep in reps for msg in schedule_failures(G, cm, MESH, rep)]


ITEMS = {
    "mul-prime": (mul_item, mul_check),
    "mul-binary": (mul_item, mul_check),
    "graph": (graph_item, graph_check),
    "schedule": (schedule_item, schedule_check),
}


# ---------------------------------------------------------------------------
# the model pass: every layer on one input, untimed

def model_run(tr, inp: Input, full: bool) -> tuple[dict, list[str]]:
    """Modelled metrics of one input on the default mesh, and failures.

    With `full`, also the per-layer counts and the extra meshes and
    placements of the traced run.
    """
    cm = CostModel.default(inp.curve.field.kind)
    with tr.span("procmodel.compile"):
        G = compile_scalar_mul(inp.curve, inp.k, inp.base)
    with tr.span("procmodel.critical_path"):
        cp = critical_path(G, cm)
    usage, (dflt, corner) = _placements(tr, G)
    with tr.span("nocsim.simulate") as sp:
        rep = simulate(G, cm, MESH, dflt)
    bad = schedule_failures(G, cm, MESH, rep)
    m = {
        "makespan_cycles": rep.makespan_cycles,
        "speedup": rep.speedup,
        "makespan_over_cp": rep.makespan_cycles / cp,
        "flit_hops": rep.total_flit_hops,
    }
    if not full:
        return m, bad
    # raw host rate; the harness normalises it like every host time
    m["nocsim.sim_tasks_per_s"] = len(rep.schedule) / (sp.end - sp.start)

    trace = OpTrace()
    with tr.span("scalarmul.scalar_mul"):
        scalar_mul(inp.curve, inp.k, inp.base, trace)
    with tr.span("scalarmul.count_report"):
        count_report(trace, trace.n_point_doubles, trace.n_point_adds)
    for kind, n in trace.totals().items():
        m[f"fields.ops.{kind.value.lower()}"] = n
    m["scalarmul.point_doubles"] = trace.n_point_doubles
    m["scalarmul.point_adds"] = trace.n_point_adds

    with tr.span("procmodel.to_text"):
        text = G.to_text()
    with tr.span("procmodel.from_text"):
        G2 = TaskGraph.from_text(text)
    with tr.span("procmodel.replay"):
        replay(G2, inp.curve)
    m["procmodel.tasks"] = len(G.tasks)
    m["procmodel.text_bytes"] = len(text.encode())

    m["nocsim.messages"] = len(rep.messages)
    m["nocsim.in_flight_cycles"] = sum(x.arrival - x.launch
                                       for x in rep.messages)
    m["nocsim.contention_cycles"] = contention_cycles(rep, MESH)
    m["nocsim.busy_cycles"] = sum(rep.per_core_busy_cycles.values())
    for role in (CoreRole.ADD_UNIT, CoreRole.MUL_UNIT, CoreRole.SQR_UNIT,
                 CoreRole.INV_UNIT):
        cores = [name for name, _ in dflt.cores_of_role(role)]
        busy = sum(rep.per_core_busy_cycles[c] for c in cores)
        m[f"nocsim.util.{role.value}"] = \
            busy / (len(cores) * rep.makespan_cycles)
    m["nocsim.max_link_flits"] = max(rep.per_link_flits.values())

    with tr.span("nocsim.simulate"):
        rep_c = simulate(G, cm, MESH, corner)
    bad += schedule_failures(G, cm, MESH, rep_c)
    m["nocsim.corner_first.makespan_cycles"] = rep_c.makespan_cycles
    m["nocsim.corner_first.flit_hops"] = rep_c.total_flit_hops

    with tr.span("nocsim.simulate_6x4"):
        pl = default_placement(MESH_6X4, ROLES_6X4, usage)
        rep_6x4 = simulate(G, cm, MESH_6X4, pl)
    bad += schedule_failures(G, cm, MESH_6X4, rep_6x4)
    m["nocsim.6x4.makespan_cycles"] = rep_6x4.makespan_cycles

    lb = list_bound(G, cm, DEFAULT_ROLE_COUNTS)
    if not cp <= lb <= rep.sequential_baseline_cycles:
        bad.append(f"list bound {lb} outside [critical path {cp}, serial]")
    m["nocsim.list_bound_cycles"] = lb
    return m, bad


# ---------------------------------------------------------------------------
# probes of the traced run

def _ns_per_call(fn, args, calls: int, reps: int = 5) -> float:
    """Median normalised ns per call over `reps` batches."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        took = perf_counter() - t0
        times.append(took / calls * CAL_REF_S / calibrate())
    return statistics.median(times) * 1e9


def kernel_probes(tr) -> dict:
    """Field-op and point-kernel host times on both field kinds,
    normalised like every host time."""
    m = {}
    for kind, name in (("prime", "prime64"), ("binary", "binary63")):
        curve, base = PRESETS[name].curve, PRESETS[name].base
        x, y = base.x, base.y
        for op, fn, args, calls in (("add", ff_add, (x, y), 4000),
                                    ("mul", ff_mul, (x, y), 1000),
                                    ("sqr", ff_sqr, (x,), 1000),
                                    ("inv", ff_inv, (x,), 500)):
            with tr.span(f"fields.ff_{op}"):
                m[f"fields.{op}_ns.{kind}"] = _ns_per_call(fn, args, calls)
        P = point_double_projective(curve, to_projective(curve, base))
        with tr.span("curves.point_double_projective"):
            m[f"curves.double_us.{kind}"] = _ns_per_call(
                point_double_projective, (curve, P), 100) / 1e3
        with tr.span("curves.point_add_projective"):
            m[f"curves.madd_us.{kind}"] = _ns_per_call(
                point_add_projective, (curve, P, base), 100) / 1e3
    return m


def cli_probe(tr, inp: Input, makespan: int, reps: int = 3):
    """Normalised host ms of an in-process `eccnoc compare`, and
    failures if its default row disagrees with `simulate`."""
    argv = ["compare", "--curve", inp.curve_name, "--k", f"{inp.k:x}"]
    times, bad = [], []
    for _ in range(reps):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tr.span("cli.compare") as sp:
            rc = cli.main(argv)
        times.append((sp.end - sp.start) * CAL_REF_S / calibrate())
        row = next((ln.split() for ln in buf.getvalue().splitlines()
                    if ln.startswith("default ")), [])
        if rc != 0 or row[1:2] != [str(makespan)]:
            bad.append("cli compare disagrees with simulate on the default "
                       "placement")
    return statistics.median(times) * 1e3, bad
