"""Workloads and metric definitions of the eccnoc benchmark.

This file is the single source of the names, units, directions and
bounds that `run.py` reports and that `BENCHMARK.json` lists.  Run it to
rewrite `BENCHMARK.json` at the repository root:

    python3 bench/spec.py

Host metrics are wall-clock times of the Python pipeline, normalised to
the reference speed of `calibrate` (see README.md).  Modelled metrics
are cycles and traffic of the simulated mesh; they repeat exactly for a
fixed seed.  No hardware reference exists in the repository, so the
mesh model is unvalidated and no error figure is given for it.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from time import perf_counter

RUN_SECONDS = 15

# The reference machine is shared: its speed drifts by up to 2x within
# seconds as other tenants load it.  Every host time is therefore
# normalised to a reference speed, at which `calibrate` takes CAL_REF_S;
# the calibration loop runs after every item, so the scale follows the
# drift.
CAL_REF_S = 1e-3
_P64 = 18446744073709551427


class _Cell:
    __slots__ = ("value", "index")

    def __init__(self, value: int, index: int):
        self.value, self.index = value, index


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop shaped like the package's
    work: big-int multiply-mod, a bit-serial shift-and-xor product,
    small object allocation, dict stores and a bounded heap.  It does
    not touch eccnoc."""
    t0 = perf_counter()
    x, cells, heap = 7, {}, []
    for i in range(800):
        x = x * 0x4f4bbdf88bae1a87 % _P64
        cell = _Cell(x, i)
        cells[i & 255] = cell
        if i & 3 == 0:
            heapq.heappush(heap, (cell.value & 0xffff, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    a, b, r = x, 0x6880800080000001, 0
    for _ in range(20):
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> 63:
                a ^= 0x8000000000000003
        a, b = r | 1, x
    return perf_counter() - t0


# name -> (curve presets, cycled in order; scalar bit length)
INPUTS = {
    "mul-prime": (("prime64",), 64),
    "mul-binary": (("binary63",), 64),
    "graph": (("prime64",), 128),
    "schedule": (("prime64", "binary63"), 64),
}

# name -> why the workload is in the benchmark; each layer dominates one
WORKLOADS = {
    "mul-prime": (
        "scalar_mul + count_report on prime64, random 64-bit k: the "
        "FieldElement/FieldOps/sink plumbing of fields, curves and scalarmul; "
        "procmodel and nocsim are bypassed"),
    "mul-binary": (
        "the same call on binary63, dominated by the bit-serial GF(2^m) "
        "multiply, so a change that helps one field kind and costs the other "
        "shows"),
    "graph": (
        "compile, to_text, from_text and replay on prime64 with 128-bit k "
        "(about 4k tasks): task allocation, validation and parsing in "
        "procmodel; nocsim is never called"),
    "schedule": (
        "compile, critical_path and simulate under the default and "
        "corner_first placements (eccnoc compare), alternating prime64 and "
        "binary63 with 64-bit k: nocsim dominates; source of the modelled "
        "metrics"),
}

# (name, unit, better, bound, definition)
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.2,
     "items of the closed loop (1 client) over the sum of their host "
     "times; an item under 50 ms is timed as the best of two back-to-back "
     "runs, and checks are outside the item clock"),
    ("item_ms_p50", "ms", "lower", 0.2, "median host time of one item"),
    ("item_ms_p90", "ms", "lower", 0.25,
     "90th percentile host time of one item; the loop runs at least 100 "
     "items so that 10 samples lie beyond it"),
    ("setup_s", "s", "lower", 0.25,
     "importing eccnoc and eccnoc.cli and resolving the workload's presets; "
     "median of 11 fresh imports in one run"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set size of the benchmark process"),
    ("correct_ratio", "ratio", "higher", 0.01,
     "1 - failed_ratio: items whose outputs pass the independent checks, "
     "over items attempted; a raising item counts as failed"),
    ("makespan_cycles", "cycles", "lower", 0.05,
     "modelled: mean makespan of the workload's first model inputs on the "
     "default 4x3 mesh with the default placement"),
    ("speedup", "x", "higher", 0.05,
     "modelled: mean sequential-baseline cycles over makespan, same runs"),
    ("makespan_over_cp", "x", "lower", 0.05,
     "modelled: mean makespan over the critical path, same runs"),
    ("flit_hops", "count", "lower", 0.05,
     "modelled: mean flit-hops (one flit crossing one link), same runs"),
]

_MUL_P50 = "item_ms_p50 on mul-prime and mul-binary"


def _per_layer():
    out = []
    for op in ("add", "mul", "sqr", "inv"):
        for kind, wl in (("prime", "mul-prime"), ("binary", "mul-binary")):
            out.append((f"fields.{op}_ns.{kind}", "ns", "lower",
                        f"item_ms_p50 on {wl}",
                        f"host ns per ff_{op} on {kind} preset elements"))
    for op in ("add", "sub", "mul", "sqr", "inv"):
        out.append((f"fields.ops.{op}", "count", "lower",
                     "moves only with an algorithm change",
                     f"{op.upper()} field ops per scalar_mul (OpTrace)"))
    for op, fn in (("double", "point_double_projective"),
                   ("madd", "point_add_projective")):
        for kind in ("prime", "binary"):
            out.append((f"curves.{op}_us.{kind}", "us", "lower", _MUL_P50,
                        f"host us per {fn} on the {kind} preset"))
    out += [
        ("scalarmul.scalar_mul_ms", "ms", "lower",
         "items_per_s on mul-prime and mul-binary", "host ms per scalar_mul"),
        ("scalarmul.count_report_ms", "ms", "lower",
         "items_per_s on mul-prime and mul-binary", "host ms per count_report"),
        ("scalarmul.point_doubles", "count", "lower",
         "items_per_s on mul-prime and mul-binary",
         "point doublings per scalar_mul"),
        ("scalarmul.point_adds", "count", "lower",
         "items_per_s on mul-prime and mul-binary",
         "point additions per scalar_mul"),
    ]
    for op in ("compile", "to_text", "from_text", "replay", "critical_path"):
        moves = "items_per_s on graph"
        if op in ("compile", "critical_path"):
            moves += "; item_ms_p50 on schedule a little"
        out.append((f"procmodel.{op}_ms", "ms", "lower", moves,
                    f"host ms per {op} call"))
    out += [
        ("procmodel.tasks", "count", "lower", "items_per_s on graph",
         "tasks per compiled graph"),
        ("procmodel.text_bytes", "bytes", "lower", "items_per_s on graph",
         "bytes of taskgraph text per graph"),
        ("nocsim.simulate_ms", "ms", "lower", "item_ms_p50 on schedule",
         "host ms per simulate on the 4x3 mesh"),
        ("nocsim.sim_tasks_per_s", "1/s", "higher", "item_ms_p50 on schedule",
         "arithmetic tasks simulated per host second"),
        ("nocsim.placement_ms", "ms", "lower", "item_ms_p50 on schedule",
         "host ms of role_usage plus the default and corner_first placements"),
    ]
    modelled = "makespan_cycles, speedup, makespan_over_cp and flit_hops " \
               "on schedule"
    out += [
        ("nocsim.messages", "count", "lower", modelled,
         "modelled: messages per run, default placement"),
        ("nocsim.in_flight_cycles", "cycles", "lower", modelled,
         "modelled: sum of arrival minus launch over messages"),
        ("nocsim.contention_cycles", "cycles", "lower", modelled,
         "modelled: in-flight cycles minus the contention-free latency "
         "hops*hop_cycles + flits - 1"),
        ("nocsim.busy_cycles", "cycles", "lower", modelled,
         "modelled: sum of per-core busy cycles"),
    ]
    for role in ("add", "mul", "sqr", "inv"):
        out.append((f"nocsim.util.{role}", "ratio", "higher", modelled,
                    f"modelled: busy cycles of the {role} cores over "
                    f"cores times makespan"))
    out += [
        ("nocsim.max_link_flits", "count", "lower", modelled,
         "modelled: flits on the busiest directed link"),
        ("nocsim.corner_first.makespan_cycles", "cycles", "lower", modelled,
         "modelled: makespan under the corner_first placement"),
        ("nocsim.corner_first.flit_hops", "count", "lower", modelled,
         "modelled: flit-hops under the corner_first placement"),
        ("nocsim.6x4.makespan_cycles", "cycles", "lower", modelled,
         "modelled: makespan on a 6x4 mesh with doubled role counts"),
        ("nocsim.list_bound_cycles", "cycles", "lower",
         "target of communication-aware scheduling: makespan_cycles on "
         "schedule",
         "modelled: greedy list schedule with no communication cost on the "
         "default role counts; critical_path <= it is checked"),
        ("cli.compare_ms", "ms", "lower", "item_ms_p50 on schedule",
         "host ms of an in-process cli.main(['compare', ...]), stdout "
         "captured"),
    ]
    for layer in ("bench", "scalarmul", "procmodel", "nocsim"):
        out.append((f"self_share.{layer}", "ratio", "lower",
                    "shows which layer an item's time goes to",
                    f"self time of {layer} spans over item span time "
                    f"('bench' is the item span's own self time)"))
    out += [
        ("trace.overhead_ms", "ms", "lower", "none: cost of the tracing",
         "item_ms_p50 of traced passes minus that of untraced passes"),
        ("trace.spans_per_item", "count", "lower", "none: cost of the tracing",
         "spans recorded per traced item, over all its runs"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(render())
    print(f"wrote {out}")
