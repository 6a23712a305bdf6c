"""Run one workload of the eccnoc benchmark and print its metrics.

    python3 bench/run.py --workload schedule --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Lines before
it record the environment and the sample counts.  The traced run also
writes its spans to `bench/out/`.  Workloads and metrics are defined in
`spec.py`; `README.md` explains them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spec

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 11


def timed_setup(presets: tuple[str, ...]) -> float:
    """Median host time of a fresh import of eccnoc and its CLI plus the
    preset lookups, each normalised by the slower of the calibration
    runs around it; the last import stays loaded for the run."""
    times = []
    before = spec.calibrate()
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules
                     if m == "eccnoc" or m.startswith("eccnoc.")]:
            del sys.modules[name]
        t0 = perf_counter()
        eccnoc = importlib.import_module("eccnoc")
        importlib.import_module("eccnoc.cli")
        for name in presets:
            eccnoc.PRESETS[name]
        took = perf_counter() - t0
        after = spec.calibrate()
        times.append(took * spec.CAL_REF_S / max(before, after))
        before = after
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eccnoc" / "__init__.py").is_file():
        print(f"error: no eccnoc package under {src}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_s = timed_setup(spec.INPUTS[args.workload][0])

    import harness   # binds to the eccnoc import that timed_setup left
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), setup_s)
    env = {"python": platform.python_version(),
           "cpu": platform.processor() or platform.machine(),
           "nproc": os.cpu_count(), "seed": args.seed,
           "workload": args.workload, "trace": args.trace,
           "setup_reps": SETUP_REPS}
    print("env " + json.dumps(env))
    for line in result.pop("log"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
