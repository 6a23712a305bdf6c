"""Command-line interface.

Commands:
  mul       compute k*P, print the result with per-phase op counts and
            the measured-vs-baseline audit table
  verify    check scalar_mul against the repeated-addition oracle for
            every k in [0, kmax] on a toy-scale curve
  graph     compile one run into a task graph and dump its text form
  simulate  schedule a compiled run on the mesh and report makespan,
            speedup, and traffic
  compare   rank two or more placements on the same compiled run

Scalars and coordinates are lowercase unprefixed hex.  Every command is
deterministic.  Each subparser names its command function as `run`;
`main` resolves the run config and calls it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional

from .config import (RunConfig, _parse_dec, load_placement, load_run_config,
                     parse_hex)
from .curves import _COORDINATES
from .errors import BadValue, EccNocError, EmptyTrace, OracleBoundExceeded
from .fields import _show
from .nocsim import (DEFAULT_ROLE_COUNTS, corner_first_placement,
                     default_placement, role_usage, simulate)
from .presets import PRESETS, get_preset
from .procmodel import compile_scalar_mul, critical_path
from .scalarmul import (OpTrace, count_report, scalar_mul,
                        scalar_mul_reference)

_VERIFY_FIELD_BITS = 20
# the oracle adds P to itself k times for each k, kmax*(kmax+1)/2 in all
_VERIFY_WORK_LIMIT = 1 << 20


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _point_doc(R) -> dict:
    if R.is_infinity:
        return {"infinity": True}
    return {"infinity": False, "x": f"{R.x.value:x}", "y": f"{R.y.value:x}"}


def _nonzero(counts: dict, empty: str) -> str:
    return " ".join(f"{k}={v}" for k, v in counts.items() if v) or empty


def cmd_mul(cfg: RunConfig, args: argparse.Namespace) -> int:
    trace = OpTrace()
    R = scalar_mul(cfg.curve, cfg.k, cfg.base, trace)
    try:
        audit = count_report(trace, trace.n_point_doubles, trace.n_point_adds)
    except EmptyTrace:
        audit = None
    doc = {
        "curve": cfg.curve_name,
        "k": f"{cfg.k:x}",
        "result": _point_doc(R),
        "trace": trace.to_dict(),
        "audit": audit.to_dict() if audit is not None else None,
    }
    if args.format == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name} ({cfg.curve.field.tag}, "
              f"{_COORDINATES[cfg.curve.field.kind]})")
        print(f"k: {cfg.k:x}")
        res, t = doc["result"], doc["trace"]
        print("result: " + ("infinity" if res["infinity"]
                            else f"x={res['x']} y={res['y']}"))
        for phase, counts in t["phases"].items():
            print(f"{phase:>8}: {_nonzero(counts, '(no field ops)')}")
        print(f"  totals: {_nonzero(t['totals'], '(none)')}")
        if audit is None:
            print("audit: no point operations in this run")
        else:
            print(audit.format_text())
    if args.out:
        Path(args.out).write_text(_dump_json(doc) + "\n")
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    kmax = _parse_dec(args.kmax, "kmax")
    if kmax * (kmax + 1) // 2 > _VERIFY_WORK_LIMIT:
        raise OracleBoundExceeded(
            f"verify needs kmax*(kmax+1)/2 <= {_VERIFY_WORK_LIMIT} repeated "
            f"additions; got kmax {_show(args.kmax)}")
    if cfg.curve.field.bits > _VERIFY_FIELD_BITS:
        raise OracleBoundExceeded(
            f"verify brute-forces every scalar and is capped at "
            f"{_VERIFY_FIELD_BITS}-bit fields; {cfg.curve_name} has "
            f"{cfg.curve.field.bits}")
    bad = []
    for k in range(kmax + 1):
        got = scalar_mul(cfg.curve, k, cfg.base)
        want = scalar_mul_reference(cfg.curve, k, cfg.base)
        if got != want:
            bad.append(k)
    n = kmax + 1
    if bad:
        print(f"verify {cfg.curve_name}: FAIL "
              f"({len(bad)}/{n} scalars disagree, first: {bad[:5]})")
        return 1
    print(f"verify {cfg.curve_name}: PASS "
          f"({n} scalars against repeated addition)")
    return 0


def cmd_graph(cfg: RunConfig, args: argparse.Namespace) -> int:
    G = compile_scalar_mul(cfg.curve, cfg.k, cfg.base)
    text = G.to_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(G.kinds)} tasks ({G.n_arith_tasks()} arithmetic) "
              f"to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# the placements built from the config's mesh and role counts when no
# file is given; `simulate` runs the first
_BUILT_INS = (("default", default_placement),
              ("corner_first", corner_first_placement))


def _simulate_each(cfg: RunConfig, files: list[str], built_ins):
    """Compile the run once and simulate it under each placement: the
    files, named by their stem, or else `built_ins` on the config's mesh
    and role counts.  Return the graph, the cost model and a list of
    (name, report) pairs in the order given."""
    stems = [Path(f).stem for f in files]
    for stem in stems:
        if stems.count(stem) > 1:
            raise BadValue(f"placement names must be unique: two files "
                           f"are named {_show(stem)}")
    if files and cfg.role_counts is not None:
        raise BadValue("[roles] sets the cores of the built-in placements "
                       "and cannot be used with --placement")
    G = compile_scalar_mul(cfg.curve, cfg.k, cfg.base)
    if files:
        named = [(stem, load_placement(f)) for stem, f in zip(stems, files)]
    else:
        usage = role_usage(G)
        counts = cfg.role_counts or DEFAULT_ROLE_COUNTS
        named = [(name, build(cfg.mesh, counts, usage))
                 for name, build in built_ins]
    cm = cfg.cost_model()
    return G, cm, [(name, simulate(G, cm, cfg.mesh, pl))
                   for name, pl in named]


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    G, cm, [(pl_name, rep)] = _simulate_each(
        cfg, [args.placement] if args.placement else [], _BUILT_INS[:1])
    cp = critical_path(G, cm)
    doc = {
        "curve": cfg.curve_name,
        "k": f"{cfg.k:x}",
        "placement_name": pl_name,
        "n_tasks": len(G.kinds),
        "n_arith_tasks": G.n_arith_tasks(),
        "critical_path_cycles": cp,
    }
    doc.update(rep.to_json_dict())
    if args.format == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name}   k: {cfg.k:x}   "
              f"tasks: {len(G.kinds)} ({G.n_arith_tasks()} arithmetic)")
        print(f"mesh: {cfg.mesh.cols}x{cfg.mesh.rows}   flits/value: "
              f"{rep.flits_per_value}   placement: {pl_name}")
        print(f"makespan: {rep.makespan_cycles} cycles   "
              f"sequential: {rep.sequential_baseline_cycles}   "
              f"speedup: {rep.speedup:.3f}")
        print(f"critical path: {cp} cycles   "
              f"flit-hops: {rep.total_flit_hops}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(_dump_json(doc) + "\n")
        with (outdir / "schedule.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rep.schedule_rows())
        if args.format == "text":
            print(f"wrote {outdir / 'report.json'} and "
                  f"{outdir / 'schedule.csv'}")
    return 0


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    if len(args.placement) == 1:
        raise BadValue("compare needs at least two --placement files")
    G, _, ranked = _simulate_each(cfg, args.placement, _BUILT_INS)
    ranked.sort(key=lambda item: (item[1].makespan_cycles,
                                  item[1].total_flit_hops, item[0]))
    doc = {
        "curve": cfg.curve_name,
        "k": f"{cfg.k:x}",
        "ranking": [
            {"name": name,
             "makespan_cycles": rep.makespan_cycles,
             "total_flit_hops": rep.total_flit_hops,
             "speedup": rep.speedup}
            for name, rep in ranked],
    }
    if args.format == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name}   k: {cfg.k:x}   "
              f"tasks: {len(G.kinds)}")
        width = max(16, *(len(name) for name, _ in ranked))
        print(f"{'placement':<{width}}{'makespan':>10}{'flit-hops':>11}"
              f"{'speedup':>9}")
        for name, rep in ranked:
            print(f"{name:<{width}}{rep.makespan_cycles:>10}"
                  f"{rep.total_flit_hops:>11}{rep.speedup:>9.3f}")
        print(f"best: {ranked[0][0]}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "compare.json").write_text(_dump_json(doc) + "\n")
    return 0


def _add_command(sub, name: str, run, help: str, with_k: bool = True,
                 with_format: bool = False) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    p.add_argument("--curve", metavar="NAME",
                   help="curve preset: " + ", ".join(sorted(PRESETS)))
    p.add_argument("--config", metavar="FILE", help="INI run config")
    if with_k:
        p.add_argument("--k", metavar="HEX",
                       help="scalar, lowercase unprefixed hex")
    if with_format:
        p.add_argument("--format", choices=("text", "json"), default="text")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eccnoc",
        description="Scalar multiplication with op metering, task-graph "
                    "compilation, and mesh schedule simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "mul", cmd_mul,
                     "compute k*P and audit the op counts", with_format=True)
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p = _add_command(sub, "verify", cmd_verify,
                     "brute-force check k*P for every k in [0, kmax]",
                     with_k=False)
    p.add_argument("--kmax", default="64", metavar="N",
                   help="largest scalar to check, decimal (default 64)")

    p = _add_command(sub, "graph", cmd_graph, "dump the compiled task graph")
    p.add_argument("--out", metavar="FILE",
                   help="write the graph text here instead of stdout")

    p = _add_command(sub, "simulate", cmd_simulate,
                     "schedule one run on the mesh", with_format=True)
    p.add_argument("--placement", metavar="FILE",
                   help="INI placement (default: centrality placement)")
    p.add_argument("--out", metavar="DIR",
                   help="write report.json and schedule.csv here")

    p = _add_command(sub, "compare", cmd_compare,
                     "rank placements on one run", with_format=True)
    p.add_argument("--placement", metavar="FILE", action="append",
                   default=[],
                   help="INI placement; repeat for each candidate "
                        "(default: centrality vs corner-first)")
    p.add_argument("--out", metavar="DIR", help="write compare.json here")
    return ap


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.curve:
        preset = get_preset(args.curve)
        cfg.curve, cfg.base, cfg.curve_name = \
            preset.curve, preset.base, preset.name
    need_k = "k" in vars(args)   # the command has a --k option
    if need_k and args.k is not None:
        cfg.k = parse_hex(args.k)
    if cfg.curve is None:
        raise BadValue("no curve selected; pass --curve or a config "
                       "with a [curve] section")
    if need_k and cfg.k is None:
        raise BadValue("no scalar given; pass --k or a config with k")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_resolve(args), args)
    except EccNocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads raise ConfigError, so this is an --out
        print(f"error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
