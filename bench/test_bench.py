"""Self-test of the benchmark: its checks catch corrupted outputs, its
modelled metrics repeat for a seed, and BENCHMARK.json matches spec.py.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from eccnoc import PRESETS  # noqa: E402
from eccnoc.curves import point_neg  # noqa: E402
from eccnoc.nocsim import DEFAULT_ROLE_COUNTS  # noqa: E402
from eccnoc.procmodel import (CostModel, compile_scalar_mul,  # noqa: E402
                              critical_path)
from model import list_bound  # noqa: E402

MODELLED = ("makespan_cycles", "speedup", "makespan_over_cp", "flit_hops")


def _run(workload, seed=1, trace=False):
    return harness.run_workload(workload, seed, seconds=0, trace=trace,
                                setup_s=1.0, min_items=4)


def test_wrong_point_raises_failed_ratio(monkeypatch):
    real = workloads.scalar_mul

    def wrong(curve, k, P, trace):
        return point_neg(curve, real(curve, k, P, trace))

    monkeypatch.setattr(workloads, "scalar_mul", wrong)
    res = _run("mul-prime")
    assert res["failed"] == res["attempted"] == 4
    assert res["metrics"]["correct_ratio"]["value"] == 0
    assert not res["correct"]


def test_overlapping_core_interval_raises_failed_ratio(monkeypatch):
    real = workloads.simulate

    def overlapping(G, cm, mesh, placement):
        rep = real(G, cm, mesh, placement)
        first = rep.schedule[0]
        other = next(e for e in rep.schedule[1:] if e.core == first.core)
        other.end = first.start + other.end - other.start
        other.start = first.start
        return rep

    monkeypatch.setattr(workloads, "simulate", overlapping)
    res = _run("schedule")
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["correct_ratio"]["value"] < 1
    assert any("runs two tasks at cycle" in line for line in res["log"])


def test_seed_repeats_modelled_metrics(monkeypatch, tmp_path):
    a, b = _run("schedule", seed=7), _run("schedule", seed=7)
    assert a["correct"] and b["correct"]
    assert {m: a["metrics"][m] for m in MODELLED} == \
        {m: b["metrics"][m] for m in MODELLED}
    assert _run("schedule", seed=8)["metrics"]["makespan_cycles"] != \
        a["metrics"]["makespan_cycles"]

    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    counted = [name for name, unit, *_ in spec.PER_LAYER
               if unit in ("count", "cycles", "bytes")
               and name != "trace.spans_per_item"]
    ta, tb = _run("mul-prime", seed=7, trace=True), \
        _run("mul-prime", seed=7, trace=True)
    assert ta["correct"] and tb["correct"]
    assert {m: ta["metrics"][m] for m in counted} == \
        {m: tb["metrics"][m] for m in counted}
    assert set(ta["metrics"]) == {name for name, *_ in spec.PER_LAYER}
    assert (tmp_path / "spans-mul-prime-7.json").is_file()


def test_list_bound_meets_critical_path_with_unlimited_cores():
    preset = PRESETS["prime32"]
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    cm = CostModel.default(preset.curve.field.kind)
    many = {role: 10_000 for role in DEFAULT_ROLE_COUNTS}
    assert list_bound(G, cm, many) == critical_path(G, cm)
    assert critical_path(G, cm) <= list_bound(G, cm, DEFAULT_ROLE_COUNTS)


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()
