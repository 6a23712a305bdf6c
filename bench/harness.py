"""The timed loop, the tracer and the metrics of one benchmark run.

One client, one thread, closed loop: the next item starts when the
previous one and its checks are done.  An item shorter than 50 ms runs
twice back to back, both outputs are checked, and the faster run is its
time.  An untraced run reports the end-to-end metrics.  A traced run
alternates untraced and traced passes over the input pool, so the
difference of their medians is the tracing overhead, and reports the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from spec import CAL_REF_S, END_TO_END, PER_LAYER, calibrate

MIN_ITEMS = 100   # so that 10 samples lie beyond p90
# A burst of load from another tenant can cover a short run whole, so an
# item whose first run is shorter than this runs again and keeps the
# faster run; longer runs average such bursts out.
REPEAT_BELOW_S = 0.05
OUT_DIR = Path(__file__).resolve().parent / "out"

# span name -> per-layer metric: the median span duration in ms
_SPAN_MS = {
    "scalarmul.scalar_mul": "scalarmul.scalar_mul_ms",
    "scalarmul.count_report": "scalarmul.count_report_ms",
    "procmodel.compile": "procmodel.compile_ms",
    "procmodel.to_text": "procmodel.to_text_ms",
    "procmodel.from_text": "procmodel.from_text_ms",
    "procmodel.replay": "procmodel.replay_ms",
    "procmodel.critical_path": "procmodel.critical_path_ms",
    "nocsim.simulate": "nocsim.simulate_ms",
    "nocsim.placement": "nocsim.placement_ms",
}
_SHARE_LAYERS = ("scalarmul", "procmodel", "nocsim")


class Span:
    __slots__ = ("name", "item", "parent", "start", "end")

    def __init__(self, name, item, parent, start):
        self.name, self.item, self.parent = name, item, parent
        self.start = self.end = start


class Tracer:
    """Spans in memory: name, start, end, parent index and item id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        s = Span(name, self.item, parent, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.item, s.name, s.parent, round(s.start * 1e6, 1),
                 round(s.end * 1e6, 1)] for s in self.spans]
        path.write_text(json.dumps(
            {"columns": ["item", "name", "parent", "start_us", "end_us"],
             "spans": rows}) + "\n")


class NullTracer:
    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def _self_shares(spans: list[Span]) -> dict:
    """Self time of each layer under item spans, over item span time."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_time = defaultdict(float)
    total = 0.0
    for i, s in enumerate(spans):
        root = s
        while root.parent >= 0:
            root = spans[root.parent]
        if root.name != "item":
            continue
        if s is root:
            total += s.end - s.start
        layer = "bench" if s is root else s.name.split(".")[0]
        self_time[layer] += s.end - s.start - child[i]
    return {f"self_share.{layer}": self_time[layer] / total
            for layer in ("bench",) + _SHARE_LAYERS}


def _local_scales(cal: list[float], half: int = 2) -> list[float]:
    """Per-item speed scale from the calibration runs after each item.

    An item is charged the slower of the runs just before and just
    after it, so a burst of load that overlaps it is seen; the median
    over the item and its neighbours then drops single outliers.
    """
    around = [max(before, after) for before, after in zip(cal[:1] + cal, cal)]
    return [CAL_REF_S
            / statistics.median(around[max(0, i - half):i + half + 1])
            for i in range(len(around))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_s: float, min_items: int = MIN_ITEMS) -> dict:
    """Run one workload.  Returns the keys of the result object plus
    `log`, lines to print before it."""
    inputs = workloads.make_inputs(workload, seed)
    item, check = workloads.ITEMS[workload]
    tracer, null = Tracer(), NullTracer()
    raw, cal, traced_flags = [], [], []
    failures: list[str] = []
    n = failed = 0
    t_start = perf_counter()
    while True:
        done_pass = n % len(inputs) == 0
        if perf_counter() - t_start >= seconds and (
                done_pass and n // len(inputs) % 2 == 0 and n > 0
                if trace else n >= min_items):
            break
        traced = trace and n // len(inputs) % 2 == 1
        tr = tracer if traced else null
        tracer.item = n
        inp = inputs[n % len(inputs)]
        n += 1
        t0 = perf_counter()
        try:
            bad, took = [], []
            for _ in range(2):
                t1 = perf_counter()
                with tr.span("item"):
                    out = item(tr, inp)
                took.append(perf_counter() - t1)
                bad += check(inp, out)
                if took[0] >= REPEAT_BELOW_S:
                    break
            raw.append(min(took))
        except Exception:  # a raising item is a failed item
            raw.append(perf_counter() - t0)
            bad = [traceback.format_exc()]
        if bad:
            failed += 1
            failures.append(f"item {n - 1} (k={inp.k:x}): " + "; ".join(bad))
        traced_flags.append(traced)
        cal.append(calibrate())
    loop_s = perf_counter() - t_start
    scale = dict(enumerate(_local_scales(cal)))
    times = {False: [], True: []}
    for i, (t, traced) in enumerate(zip(raw, traced_flags)):
        times[traced].append(t * scale[i])

    # modelled metrics: deterministic, over the first inputs of the pool;
    # model input j is traced as item -1 - j
    model_tr = tracer if trace else null
    rows = []
    model_failures = []
    for j, inp in enumerate(inputs[:workloads.MODEL_INPUTS]):
        tracer.item = -1 - j
        with model_tr.span("model"):
            m, bad = workloads.model_run(model_tr, inp, full=trace)
        scale[tracer.item] = CAL_REF_S / calibrate()
        if trace:
            m["nocsim.sim_tasks_per_s"] /= scale[tracer.item]
        rows.append(m)
        model_failures += bad
    means = {key: statistics.fmean(r[key] for r in rows) for key in rows[0]}

    if trace:
        tracer.item = None
        metrics = workloads.kernel_probes(tracer)
        metrics["cli.compare_ms"], bad = workloads.cli_probe(
            tracer, inputs[0], rows[0]["makespan_cycles"])
        model_failures += bad
        metrics.update(_span_metrics(tracer.spans, scale))
        metrics.update((key, value) for key, value in means.items()
                       if "." in key)
        metrics.update(_self_shares(tracer.spans))
        metrics["trace.overhead_ms"] = (statistics.median(times[True])
                                        - statistics.median(times[False])) * 1e3
        in_items = sum(1 for s in tracer.spans
                       if s.item is not None and s.item >= 0)
        metrics["trace.spans_per_item"] = in_items / len(times[True])
        tracer.write(OUT_DIR / f"spans-{workload}-{seed}.json")
        names = [name for name, *_ in PER_LAYER]
    else:
        item_ms = [t * 1e3 for t in times[False]]
        metrics = {
            "setup_s": setup_s,
            "items_per_s": len(item_ms) / (sum(item_ms) / 1e3),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90":
                statistics.quantiles(item_ms, n=10, method="inclusive")[8],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_ratio": 1 - failed / n,
        }
        for key in ("makespan_cycles", "speedup", "makespan_over_cp",
                    "flit_hops"):
            metrics[key] = means[key]
        names = [name for name, *_ in END_TO_END]
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    log = [f"workload {workload} seed {seed}: {n} items in {loop_s:.1f} s, "
           f"{failed} failed; p50/p90 over {len(times[False])} untraced "
           f"samples, {len(times[False]) // 10} beyond p90",
           f"raw item ms p50 {statistics.median(raw) * 1e3:.3f}; "
           f"calibration ms median {statistics.median(cal) * 1e3:.4f}, "
           f"min {min(cal) * 1e3:.4f}, max {max(cal) * 1e3:.4f}"]
    log += failures[:5] + model_failures[:5]
    return {
        "correct": failed == 0 and not model_failures,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
        "log": log,
    }


def _span_metrics(spans: list[Span], scale: dict) -> dict:
    """Median normalised duration of each layer call, over the items'
    and the model pass's spans."""
    by_name = defaultdict(list)
    for s in spans:
        if s.item is not None:
            by_name[s.name].append((s.end - s.start) * scale[s.item])
    return {metric: statistics.median(by_name[span_name]) * 1e3
            for span_name, metric in _SPAN_MS.items()}
