"""Acceptance gate: eight criteria, one test per criterion.

Each test prints a single PASS line (visible with -s; pytest -v shows
the same verdict per test name).  Tolerances are pinned below; algebra
and counter checks are exact, scheduling claims use the stated bounds.
"""

import json
import time
from pathlib import Path

from eccnoc.curves import (INFINITY, is_on_curve, point_add_affine,
                           point_add_projective, point_double_affine,
                           point_double_projective, point_neg, to_affine,
                           to_projective)
from eccnoc.fields import FieldSpec, ff_sqr
from eccnoc.nocsim import (DEFAULT_ROLE_COUNTS, MeshConfig, Placement,
                           corner_first_placement, default_placement,
                           role_usage, simulate)
from eccnoc.presets import PRESETS
from eccnoc.procmodel import CostModel, TaskGraph, compile_scalar_mul
from eccnoc.scalarmul import OpTrace, count_report, scalar_mul

from conftest import (check_field_axioms, check_scalar_mul, check_schedule,
                      double_and_add, enumerate_points, even_order_toy,
                      multiples, seeded)

GOLDEN_DIR = Path(__file__).parent / "golden"

# pinned tolerances and bounds
AXIOM_TIME_BUDGET_S = 10.0       # criterion 1 must finish within this
PLACEMENT_TIME_BUDGET_S = 60.0   # criterion 8 must finish within this
ORACLE_SCALAR_CAP = 1 << 16      # largest random scalar (criterion 3)
RANDOM_ORACLE_SAMPLES = 200      # random scalars per toy curve (criterion 3)
SPEEDUP_FLOOR = 1.0              # criterion 8: strictly above this
# everything else is exact integer / point equality

TOYS = ("p17", "b4")
MIDSIZE = ("prime17", "prime32", "prime48", "prime64",
           "binary17", "binary33", "binary47", "binary63")


def toy_curves():
    """(name, curve, base) of each toy preset, then of the even-order
    prime curve, whose point of order 2 neither preset has: doubling it
    takes the affine y = 0 branch and a Jacobian doubling to Z = 0."""
    return [(name, PRESETS[name].curve, PRESETS[name].base)
            for name in TOYS] + [("p13", *even_order_toy())]


def test_criterion_1_field_axioms():
    t0 = time.monotonic()
    toy_specs = [FieldSpec.prime(17), FieldSpec.binary(4, 0b10011)]
    big_specs = [PRESETS["prime64"].curve.field,
                 PRESETS["binary63"].curve.field]
    for spec in toy_specs:
        elems = list(spec.elements())
        check_field_axioms(spec, [(a, b, c) for a in elems for b in elems
                                  for c in elems])
    rng = seeded(4001)
    for spec in big_specs:
        triples = [tuple(spec.random_element(rng) for _ in range(3))
                   for _ in range(250)]
        check_field_axioms(spec, triples)
        if spec.kind.value == "binary":
            for a, b, _ in triples[:80]:
                assert ff_sqr(a + b) == ff_sqr(a) + ff_sqr(b)
    elapsed = time.monotonic() - t0
    assert elapsed < AXIOM_TIME_BUDGET_S
    print(f"\nCRITERION 1 PASS: field axioms exact "
          f"(exhaustive toys + seeded 64-bit sweeps) in {elapsed:.1f}s")


def test_criterion_2_group_law_exhaustive():
    for _, curve, _ in toy_curves():
        pts = enumerate_points(curve)
        finite = [P for P in pts if not P.is_infinity]
        for P in pts:
            assert point_add_affine(curve, P, INFINITY) == P
            assert point_add_affine(curve, P, point_neg(curve, P)) == INFINITY
            Pp = to_projective(curve, P)
            assert to_affine(curve, Pp) == P
            assert to_affine(curve, point_double_projective(curve, Pp)) == \
                point_double_affine(curve, P)
        for P in pts:
            Pp = to_projective(curve, P)
            for Q in pts:
                S = point_add_affine(curve, P, Q)
                assert is_on_curve(curve, S)
                assert S == point_add_affine(curve, Q, P)
                if not Q.is_infinity:
                    assert to_affine(
                        curve, point_add_projective(curve, Pp, Q)) == S
        for P in pts:
            for Q in pts:
                PQ = point_add_affine(curve, P, Q)
                for R in pts:
                    assert point_add_affine(curve, PQ, R) == \
                        point_add_affine(curve, P, point_add_affine(curve, Q, R))
    print("\nCRITERION 2 PASS: exhaustive group law on the three toy curves, "
          "affine and projective agree everywhere")


def test_criterion_3_scalar_mul_oracle_equivalence():
    runs = 0
    for name, curve, base in toy_curves():
        # every point on the curve, infinity included, times every scalar
        # in [0, 64], against its repeated-addition chain: the whole
        # pipeline up to twice the base point's order plus one (on p17,
        # k = 39 is the first to add into an accumulator at infinity; on
        # p13, k = 18 doubles 9*G to Z = 0 in the loop), `scalar_mul`
        # past it
        for P in enumerate_points(curve):
            chain = multiples(curve, P)
            for k in range(65):
                want = chain[k % len(chain)]
                if k <= 2 * curve.order + 1:
                    check_scalar_mul(curve, k, P, want)
                    runs += 1
                else:
                    assert scalar_mul(curve, k, P) == want, (name, k, P)
        # 200 seeded random scalars up to the oracle cap, against the
        # base point's chain
        chain = multiples(curve, base)
        rng = seeded(30000 + len(name))
        for _ in range(RANDOM_ORACLE_SAMPLES):
            k = rng.randrange(0, ORACLE_SCALAR_CAP + 1)
            assert scalar_mul(curve, k, base) == \
                chain[k % len(chain)], (name, k)
        # the base-point order annihilates
        assert scalar_mul(curve, curve.order, base) == INFINITY
    print(f"\nCRITERION 3 PASS: scalar_mul, its trace, graph, graph text "
          f"and replay equal repeated addition on all toy points for "
          f"k<=2*order+1 ({runs} runs); scalar_mul does for k<=64 and "
          f"{RANDOM_ORACLE_SAMPLES} random k<=2^16 per curve; "
          f"order*P = infinity")


def test_criterion_4_single_inversion_discipline():
    checked = 0
    for name in TOYS + ("prime32", "binary33"):
        preset = PRESETS[name]
        curve, P = preset.curve, preset.base
        rng = seeded(500 + len(name))
        for _ in range(25):
            k = rng.randrange(2, 1 << 14)
            want = double_and_add(curve, k, P)
            check_scalar_mul(curve, k, P, want)
            checked += not want.is_infinity
        if curve.order is not None:
            check_scalar_mul(curve, curve.order, P, INFINITY)
    assert checked >= 80
    print(f"\nCRITERION 4 PASS: exactly one inversion, always in the "
          f"convert phase, across {checked} finite runs; infinite results "
          f"invert nothing")


def test_criterion_5_audit_against_committed_goldens():
    # the baseline cells, spelled out independently of the package constant
    frozen_baseline = {
        "point_add": {"ADD": 2, "MUL": 4, "INV": 0, "SQR": 1},
        "point_double": {"ADD": 1, "MUL": 2, "INV": 0, "SQR": 4},
        "convert": {"ADD": 6, "MUL": 10, "INV": 1, "SQR": 1},
    }
    k = 0xb7a3  # 15 doublings, 9 additions
    for name in ("prime32", "binary33"):
        preset = PRESETS[name]
        t = OpTrace()
        R = scalar_mul(preset.curve, k, preset.base, t)
        assert not R.is_infinity
        rep = count_report(t, t.n_point_doubles, t.n_point_adds)
        doc = rep.to_dict()
        golden_path = GOLDEN_DIR / f"audit_{name}.json"
        golden = json.loads(golden_path.read_text())
        assert doc == golden, f"audit drifted from {golden_path}"
        regenerated = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert regenerated == golden_path.read_text()
        for col, rows in frozen_baseline.items():
            for row, base in rows.items():
                cell = doc["cells"][col][row]
                assert cell["baseline"] == base
                assert cell["deviation"] == cell["measured"] - base
    print("\nCRITERION 5 PASS: measured-vs-baseline audit matches the "
          "committed goldens byte for byte; deviations reported, not hidden")


def test_criterion_6_task_graph_replay_fidelity():
    rng = seeded(616)
    n = 0
    for name, preset in PRESETS.items():
        bits = preset.curve.field.bits
        ks = [rng.randrange(2, 1 << min(bits + 4, 16)) for _ in range(3)]
        ks.append(rng.randrange(1 << (bits - 1), 1 << bits))
        for k in ks:
            want = double_and_add(preset.curve, k, preset.base)
            check_scalar_mul(preset.curve, k, preset.base, want)
            n += not want.is_infinity
    assert n >= 35
    print(f"\nCRITERION 6 PASS: {n} compiled graphs replay to the direct "
          f"result, including after a text round trip")


def test_criterion_7_noc_simulation_invariants():
    # frozen hand schedule: one MUL (cost 4) adjacent to IO, 2-flit value
    mesh = MeshConfig(cols=2, rows=1, flits_per_value=2)
    pl = Placement({"mul0": (1, 0), "io0": (0, 0)})
    G1 = TaskGraph.from_text(
        "taskgraph 1 fieldbits 64\n0 XFER init -1 - Px 3\n"
        "1 XFER init -1 - Py 4\n2 MUL convert -1 0,1 - -\nresult 2 2\n")
    rep = simulate(G1, CostModel(mul=4), mesh, pl)
    assert rep.makespan_cycles == 6 and rep.total_flit_hops == 2
    # invariant battery over a matrix of real graphs and both placements
    mesh = MeshConfig()
    rng = seeded(717)
    runs = 0
    for name in ("p17", "b4", "prime32", "binary63"):
        preset = PRESETS[name]
        cm = CostModel.default(preset.curve.field.kind)
        for _ in range(3):
            k = rng.randrange(2, 1 << 14)
            if preset.curve.order and k % preset.curve.order == 0:
                continue
            G = compile_scalar_mul(preset.curve, k, preset.base)
            usage = role_usage(G)
            for pl in (default_placement(mesh, DEFAULT_ROLE_COUNTS, usage),
                       corner_first_placement(mesh, DEFAULT_ROLE_COUNTS,
                                              usage)):
                r = simulate(G, cm, mesh, pl)
                check_schedule(G, cm, mesh, r)
                r2 = simulate(G, cm, mesh, pl)
                assert r.to_json_dict() == r2.to_json_dict()
                runs += 1
    assert runs >= 20
    print(f"\nCRITERION 7 PASS: hand-traced makespan reproduced and "
          f"{runs} simulations satisfy every schedule/traffic invariant "
          f"deterministically")


def test_criterion_8_placement_claim_holds_everywhere():
    t0 = time.monotonic()
    rng = seeded(808)
    mesh = MeshConfig()
    total, wins_traffic, wins_speedup = 0, 0, 0
    for name in MIDSIZE:
        preset = PRESETS[name]
        bits = preset.curve.field.bits
        cm = CostModel.default(preset.curve.field.kind)
        for _ in range(10):
            k = rng.randrange(1 << (bits - 1), 1 << bits)
            G = compile_scalar_mul(preset.curve, k, preset.base)
            usage = role_usage(G)
            rep_d = simulate(G, cm, mesh,
                             default_placement(mesh, DEFAULT_ROLE_COUNTS,
                                               usage))
            rep_c = simulate(G, cm, mesh,
                             corner_first_placement(mesh, DEFAULT_ROLE_COUNTS,
                                                    usage))
            total += 1
            assert rep_d.total_flit_hops <= rep_c.total_flit_hops, (name, k)
            wins_traffic += 1
            assert rep_d.speedup > SPEEDUP_FLOOR, (name, k, rep_d.speedup)
            wins_speedup += 1
    elapsed = time.monotonic() - t0
    assert total == 80
    assert wins_traffic == total and wins_speedup == total
    assert elapsed < PLACEMENT_TIME_BUDGET_S
    print(f"\nCRITERION 8 PASS: central placement moved no more flits than "
          f"corner-first and kept speedup > {SPEEDUP_FLOOR} in "
          f"{total}/{total} runs (16-64 bit fields, both kinds) "
          f"in {elapsed:.1f}s")
