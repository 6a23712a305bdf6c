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
deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional

from .config import (RunConfig, format_hex, load_placement, load_run_config,
                     parse_hex, preset_names)
from .errors import EccNocError, EmptyTrace, OracleBoundExceeded
from .nocsim import (corner_first_placement, default_placement, role_usage,
                     simulate)
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
    return {"infinity": False, "x": format_hex(R.x.value),
            "y": format_hex(R.y.value)}


def _describe_point(R) -> str:
    if R.is_infinity:
        return "infinity"
    return f"x={format_hex(R.x.value)} y={format_hex(R.y.value)}"


def cmd_mul(cfg: RunConfig, fmt: str, out: Optional[str]) -> int:
    trace = OpTrace()
    R = scalar_mul(cfg.curve, cfg.k, cfg.base, trace)
    try:
        audit = count_report(trace, trace.n_point_doubles, trace.n_point_adds)
    except EmptyTrace:
        audit = None
    doc = {
        "curve": cfg.curve_name,
        "k": format_hex(cfg.k),
        "result": _point_doc(R),
        "trace": trace.to_dict(),
        "audit": audit.to_dict() if audit is not None else None,
    }
    if fmt == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name} ({cfg.curve.field.tag}, "
              f"{cfg.curve.system.value})")
        print(f"k: {format_hex(cfg.k)}")
        print(f"result: {_describe_point(R)}")
        t = trace.to_dict()
        for phase in ("init", "iterate", "convert"):
            counts = {k: v for k, v in t["phases"][phase].items() if v}
            print(f"{phase:>8}: " + (" ".join(
                f"{k}={v}" for k, v in counts.items()) or "(no field ops)"))
        print(f"  totals: " + (" ".join(
            f"{k}={v}" for k, v in t["totals"].items() if v) or "(none)"))
        if audit is None:
            print("audit: no point operations in this run")
        else:
            print(audit.format_text())
    if out:
        Path(out).write_text(_dump_json(doc) + "\n")
    return 0


def cmd_verify(cfg: RunConfig, kmax: int) -> int:
    if kmax < 0 or kmax * (kmax + 1) // 2 > _VERIFY_WORK_LIMIT:
        raise OracleBoundExceeded(
            f"verify needs 0 <= kmax and kmax*(kmax+1)/2 <= "
            f"{_VERIFY_WORK_LIMIT} repeated additions; got kmax={kmax}")
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


def cmd_graph(cfg: RunConfig, out: Optional[str]) -> int:
    G = compile_scalar_mul(cfg.curve, cfg.k, cfg.base)
    text = G.to_text()
    if out:
        Path(out).write_text(text)
        print(f"wrote {len(G.tasks)} tasks ({G.n_arith_tasks()} arithmetic) "
              f"to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _graph_and_machine(cfg: RunConfig):
    G = compile_scalar_mul(cfg.curve, cfg.k, cfg.base)
    return G, cfg.cost_model(), cfg.mesh, role_usage(G)


def cmd_simulate(cfg: RunConfig, placement_file: Optional[str], fmt: str,
                 out: Optional[str]) -> int:
    G, cm, mesh, usage = _graph_and_machine(cfg)
    if placement_file:
        pl = load_placement(placement_file)
        pl_name = Path(placement_file).stem
    else:
        pl = default_placement(mesh, cfg.role_counts, usage)
        pl_name = "default"
    rep = simulate(G, cm, mesh, pl)
    cp = critical_path(G, cm)
    doc = {
        "curve": cfg.curve_name,
        "k": format_hex(cfg.k),
        "placement_name": pl_name,
        "n_tasks": len(G.tasks),
        "n_arith_tasks": G.n_arith_tasks(),
        "critical_path_cycles": cp,
    }
    doc.update(rep.to_json_dict())
    if fmt == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name}   k: {format_hex(cfg.k)}   "
              f"tasks: {len(G.tasks)} ({G.n_arith_tasks()} arithmetic)")
        print(f"mesh: {mesh.cols}x{mesh.rows}   flits/value: "
              f"{rep.flits_per_value}   placement: {pl_name}")
        print(f"makespan: {rep.makespan_cycles} cycles   "
              f"sequential: {rep.sequential_baseline_cycles}   "
              f"speedup: {rep.speedup:.3f}")
        print(f"critical path: {cp} cycles   "
              f"flit-hops: {rep.total_flit_hops}")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(_dump_json(doc) + "\n")
        with (outdir / "schedule.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rep.schedule_rows())
        if fmt == "text":
            print(f"wrote {outdir / 'report.json'} and "
                  f"{outdir / 'schedule.csv'}")
    return 0


def cmd_compare(cfg: RunConfig, placement_files: list[str], fmt: str,
                out: Optional[str]) -> int:
    from .nocsim import compare_placements
    G, cm, mesh, usage = _graph_and_machine(cfg)
    if placement_files:
        if len(placement_files) < 2:
            raise ValueError("compare needs at least two --placement files")
        entries = [(Path(p).stem, load_placement(p)) for p in placement_files]
    else:
        entries = [
            ("default", default_placement(mesh, cfg.role_counts, usage)),
            ("corner_first",
             corner_first_placement(mesh, cfg.role_counts, usage)),
        ]
    ranked = compare_placements(G, cm, mesh, entries)
    doc = {
        "curve": cfg.curve_name,
        "k": format_hex(cfg.k),
        "ranking": [
            {"name": name,
             "makespan_cycles": rep.makespan_cycles,
             "total_flit_hops": rep.total_flit_hops,
             "speedup": rep.speedup}
            for name, rep in ranked],
    }
    if fmt == "json":
        print(_dump_json(doc))
    else:
        print(f"curve: {cfg.curve_name}   k: {format_hex(cfg.k)}   "
              f"tasks: {len(G.tasks)}")
        print(f"{'placement':<16}{'makespan':>10}{'flit-hops':>11}"
              f"{'speedup':>9}")
        for name, rep in ranked:
            print(f"{name:<16}{rep.makespan_cycles:>10}"
                  f"{rep.total_flit_hops:>11}{rep.speedup:>9.3f}")
        print(f"best: {ranked[0][0]}")
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / "compare.json").write_text(_dump_json(doc) + "\n")
    return 0


def _add_common(p: argparse.ArgumentParser, with_k: bool) -> None:
    p.add_argument("--curve", metavar="NAME",
                   help="curve preset: " + ", ".join(preset_names()))
    p.add_argument("--config", metavar="FILE", help="INI run config")
    if with_k:
        p.add_argument("--k", metavar="HEX",
                       help="scalar, lowercase unprefixed hex")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eccnoc",
        description="Scalar multiplication with op metering, task-graph "
                    "compilation, and mesh schedule simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="compute k*P and audit the op counts")
    _add_common(p, with_k=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p = sub.add_parser("verify",
                       help="brute-force check k*P for every k in [0, kmax]")
    _add_common(p, with_k=False)
    p.add_argument("--kmax", type=int, default=64, metavar="N",
                   help="largest scalar to check (default 64)")

    p = sub.add_parser("graph", help="dump the compiled task graph")
    _add_common(p, with_k=True)
    p.add_argument("--out", metavar="FILE",
                   help="write the graph text here instead of stdout")

    p = sub.add_parser("simulate", help="schedule one run on the mesh")
    _add_common(p, with_k=True)
    p.add_argument("--placement", metavar="FILE",
                   help="INI placement (default: centrality placement)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="DIR",
                   help="write report.json and schedule.csv here")

    p = sub.add_parser("compare", help="rank placements on one run")
    _add_common(p, with_k=True)
    p.add_argument("--placement", metavar="FILE", action="append",
                   default=[],
                   help="INI placement; repeat for each candidate "
                        "(default: centrality vs corner-first)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="DIR", help="write compare.json here")
    return ap


def _resolve(args: argparse.Namespace, need_k: bool) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.curve:
        cfg.use_preset(args.curve)
    if getattr(args, "k", None) is not None:
        cfg.k = parse_hex(args.k)
    if cfg.curve is None:
        raise ValueError("no curve selected; pass --curve or a config "
                         "with a [curve] section")
    if need_k and cfg.k is None:
        raise ValueError("no scalar given; pass --k or a config with k")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mul":
            cfg = _resolve(args, need_k=True)
            return cmd_mul(cfg, args.format, args.out)
        if args.command == "verify":
            cfg = _resolve(args, need_k=False)
            return cmd_verify(cfg, args.kmax)
        if args.command == "graph":
            cfg = _resolve(args, need_k=True)
            return cmd_graph(cfg, args.out)
        if args.command == "simulate":
            cfg = _resolve(args, need_k=True)
            return cmd_simulate(cfg, args.placement, args.format, args.out)
        cfg = _resolve(args, need_k=True)
        return cmd_compare(cfg, args.placement, args.format, args.out)
    except (EccNocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
