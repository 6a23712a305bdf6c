"""CLI commands, config parsing, and artifact round trips."""

import csv
import json
from pathlib import Path

import pytest

from eccnoc.cli import _VERIFY_WORK_LIMIT, main
from eccnoc.config import load_placement, load_run_config, parse_hex
from eccnoc.errors import ConfigError
from eccnoc.nocsim import CoreRole, DEFAULT_ROLE_COUNTS, MeshConfig, \
    default_placement, role_usage
from eccnoc.procmodel import TaskGraph, compile_scalar_mul, replay
from eccnoc.scalarmul import scalar_mul

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_text(capsys, p17):
    code, out, err = run_cli(capsys, "mul", "--curve", "p17", "--k", "d")
    assert code == 0 and not err
    assert "result: x=10 y=4" in out
    assert "point doublings: 3" in out


def test_mul_json_round_trip(capsys, p17):
    code, out, _ = run_cli(capsys, "mul", "--curve", "p17", "--k", "d",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    R = scalar_mul(p17.curve, 0xd, p17.base)
    assert doc["result"] == {"infinity": False, "x": f"{R.x.value:x}",
                             "y": f"{R.y.value:x}"}
    assert doc["trace"]["point_doubles"] == 3
    assert doc["audit"]["cells"]["convert"]["INV"]["measured"] == 1.0


def test_mul_infinity_and_no_audit(capsys, p17):
    code, out, _ = run_cli(capsys, "mul", "--curve", "p17", "--k", "13")
    assert code == 0  # 0x13 = 19 = the base point order
    assert "result: infinity" in out
    code, out, _ = run_cli(capsys, "mul", "--curve", "p17", "--k", "1")
    assert code == 0
    assert "no point operations" in out


def test_verify_passes_and_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--curve", "b4", "--kmax", "70")
    assert code == 0 and "PASS" in out
    code, _, err = run_cli(capsys, "verify", "--curve", "prime64")
    assert code == 1 and "error:" in err
    # refused before any scalar is checked: a negative kmax, and the
    # least kmax whose kmax*(kmax+1)/2 additions exceed the limit
    kmax = 0
    while (kmax + 1) * (kmax + 2) // 2 <= _VERIFY_WORK_LIMIT:
        kmax += 1
    for bad in (-5, kmax + 1):
        code, out, err = run_cli(capsys, "verify", "--curve", "b4",
                                 "--kmax", str(bad))
        assert code == 1 and not out
        assert "error: verify needs" in err and str(_VERIFY_WORK_LIMIT) in err


def test_graph_dump_replays(capsys, tmp_path, b4):
    out_file = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "graph", "--curve", "b4", "--k", "19",
                           "--out", str(out_file))
    assert code == 0
    G = TaskGraph.from_text(out_file.read_text())
    want = scalar_mul(b4.curve, 0x19, b4.base)
    assert replay(G, b4.curve) == want


def test_graph_stdout(capsys):
    code, out, _ = run_cli(capsys, "graph", "--curve", "p17", "--k", "3")
    assert code == 0
    assert out.startswith("taskgraph 1 fieldbits 5")
    assert out.rstrip().splitlines()[-1].startswith("result ")


def test_simulate_writes_artifacts(capsys, tmp_path):
    outdir = tmp_path / "sim"
    code, out, _ = run_cli(capsys, "simulate", "--curve", "prime17",
                           "--k", "b7a3", "--out", str(outdir))
    assert code == 0
    assert "makespan:" in out and "speedup:" in out
    doc = json.loads((outdir / "report.json").read_text())
    assert doc["makespan_cycles"] > 0
    assert doc["speedup"] > 1.0
    with (outdir / "schedule.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "kind", "core", "start_cycle", "end_cycle"]
    assert len(rows) - 1 == doc["n_arith_tasks"]


def test_simulate_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "simulate", "--curve", "binary17",
                            "--k", "1f2d", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "simulate", "--curve", "binary17",
                            "--k", "1f2d", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["critical_path_cycles"] <= doc["makespan_cycles"]


def test_compare_builtin_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "--curve", "prime32",
                           "--k", "beef")
    assert code == 0
    assert "best: default" in out
    code, out, _ = run_cli(capsys, "compare", "--curve", "prime32",
                           "--k", "beef", "--format", "json")
    doc = json.loads(out)
    names = {e["name"] for e in doc["ranking"]}
    assert names == {"default", "corner_first"}


def test_run_config_file(capsys, tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("""
[curve]
preset = p17

[run]
k = d

[costs]
mul = 5

[mesh]
cols = 5
rows = 4

[roles]
mul = 5
""")
    cfg = load_run_config(cfg_file)
    assert cfg.curve_name == "p17" and cfg.k == 0xd
    assert cfg.cost_model().mul == 5
    assert cfg.cost_model().sqr == 2  # prime-field default fills the rest
    assert cfg.mesh.cols == 5 and cfg.mesh.rows == 4
    assert cfg.role_counts[CoreRole.MUL_UNIT] == 5
    code, out, _ = run_cli(capsys, "mul", "--config", str(cfg_file))
    assert code == 0 and "result: x=10 y=4" in out
    # cli --k overrides the file
    code, out, _ = run_cli(capsys, "mul", "--config", str(cfg_file),
                           "--k", "2")
    assert code == 0 and "result: x=6 y=3" in out


def test_cost_overrides_follow_the_cli_curve(capsys, tmp_path):
    # a [costs] override applies over the default of the curve actually
    # run, so --curve binary33 keeps the binary sqr=1
    cfg_file = tmp_path / "costs.ini"
    cfg_file.write_text("[costs]\nmul = 4\n")
    argv = ("simulate", "--curve", "binary33", "--k", "b7a3")
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "makespan: 500 cycles   sequential: 934 " in want
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg_file))
    assert code == 0 and not err
    assert out == want
    cfg_file.write_text("[costs]\nsqr = 0\n")
    with pytest.raises(ConfigError, match="sqr cost must be at least 1"):
        load_run_config(cfg_file)


def test_inline_curve_config(tmp_path, p17):
    cfg_file = tmp_path / "inline.ini"
    cfg_file.write_text("""
[curve]
kind = prime
p = 11
a = 2
b = 2
gx = 5
gy = 1
order = 19
""")
    cfg = load_run_config(cfg_file)
    assert cfg.curve_name == "inline"
    assert cfg.curve.field.modulus == 17
    assert cfg.curve.order == 19
    assert cfg.base == p17.base


def test_inline_curve_rejects_strong_pseudoprime(tmp_path):
    # 1287836182261 * 2575672364521 passes Miller-Rabin to bases 2..41
    cfg_file = tmp_path / "psp.ini"
    cfg_file.write_text(f"""
[curve]
kind = prime
p = {3317044064679887385961981:x}
a = 2
b = 3
gx = 5
gy = 1
""")
    with pytest.raises(ConfigError, match="not prime"):
        load_run_config(cfg_file)


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[curve]\npreset = p17\n\n[mesh]\ncolz = 4\n")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    bad.write_text("[wat]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    bad.write_text("[curve]\npreset = p17\nkind = prime\n")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    bad.write_text("[curve]\npreset = p17\n\n[run]\nseed = 9\n")
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        load_run_config(bad)
    bad.write_text("[curve]\npreset = p17\n\n[roles]\nctrl = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'ctrl'"):
        load_run_config(bad)
    bad.write_text("[curve]\npreset = nope\n")
    with pytest.raises(ConfigError, match="unknown curve preset 'nope'"):
        load_run_config(bad)


def test_readme_config_example_runs(capsys, tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Config files", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_file = tmp_path / "readme.ini"
    cfg_file.write_text(block)
    code, out, err = run_cli(capsys, "mul", "--config", str(cfg_file))
    assert code == 0 and not err
    assert out.startswith("curve: prime32 ") and "k: b7a3" in out


@pytest.mark.parametrize("argv,golden", [
    (("graph", "--curve", "prime32", "--k", "b7a3"),
     "graph_prime32_b7a3.txt"),
    (("graph", "--curve", "binary33", "--k", "1b2d3c4e5"),
     "graph_binary33_1b2d3c4e5.txt"),
    (("simulate", "--curve", "prime32", "--k", "b7a3", "--format", "json"),
     "simulate_prime32_b7a3.json"),
    # 33-bit values travel as 2 flits, so these pin flit order and
    # link contention
    (("simulate", "--curve", "binary33", "--k", "1b2d3c4e5", "--format",
      "json"), "simulate_binary33_1b2d3c4e5.json"),
    (("compare", "--curve", "binary33", "--k", "1b2d3c4e5", "--format",
      "json"), "compare_binary33_1b2d3c4e5.json"),
])
def test_outputs_match_goldens(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    assert out == (GOLDEN_DIR / golden).read_text()


def test_schedule_csv_matches_golden(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--curve", "binary33", "--k",
                           "1b2d3c4e5", "--out", str(tmp_path))
    assert code == 0 and not err
    assert (tmp_path / "schedule.csv").read_text() == \
        (GOLDEN_DIR / "schedule_binary33_1b2d3c4e5.csv").read_text()


def _readme_cli_examples():
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    return [block.split("\n")[1:-1] for block in blocks
            if block.startswith("\n$ eccnoc ")]


@pytest.mark.parametrize("lines", _readme_cli_examples(),
                         ids=lambda lines: lines[0][2:])
def test_readme_cli_examples(capsys, lines):
    argv = lines[0].split()[2:]
    want = lines[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    got = out.splitlines()
    if "..." not in want:
        assert got == want
        return
    # a block cut with ... shows a prefix and a suffix of the output
    cut = want.index("...")
    head, tail = want[:cut], want[cut + 1:]
    assert got[:len(head)] == head
    assert got[len(got) - len(tail):] == tail


def test_hex_is_strict():
    assert parse_hex("b7a3") == 0xb7a3
    with pytest.raises(ConfigError):
        parse_hex("B7A3")
    with pytest.raises(ConfigError):
        parse_hex("0x12")
    with pytest.raises(ConfigError):
        parse_hex("")


def test_placement_file_round_trip(capsys, tmp_path):
    pr_curve = "prime17"
    code, out, _ = run_cli(capsys, "simulate", "--curve", pr_curve,
                           "--k", "b7a3", "--format", "json")
    default_doc = json.loads(out)
    # write the same default placement as an INI and feed it back
    from eccnoc.presets import PRESETS
    preset = PRESETS[pr_curve]
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    pl = default_placement(MeshConfig(), DEFAULT_ROLE_COUNTS, role_usage(G))
    lines = ["[placement]"]
    for name, (c, r) in sorted(pl.entries.items()):
        lines.append(f"{name} = {c},{r}")
    pl_file = tmp_path / "custom.ini"
    pl_file.write_text("\n".join(lines) + "\n")
    assert load_placement(pl_file).entries == pl.entries
    code, out, _ = run_cli(capsys, "simulate", "--curve", pr_curve,
                           "--k", "b7a3", "--format", "json",
                           "--placement", str(pl_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["makespan_cycles"] == default_doc["makespan_cycles"]
    assert doc["total_flit_hops"] == default_doc["total_flit_hops"]


def test_compare_with_placement_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compare", "--curve", "p17", "--k", "d",
                           "--placement", str(tmp_path / "only.ini"))
    assert code == 1 and "at least two" in err


def test_bad_usage_errors(capsys):
    code, _, err = run_cli(capsys, "mul", "--curve", "nope", "--k", "d")
    assert code == 1 and "unknown curve preset" in err
    code, _, err = run_cli(capsys, "mul", "--curve", "p17", "--k", "XYZ")
    assert code == 1 and "hex" in err
    code, _, err = run_cli(capsys, "mul", "--k", "d")
    assert code == 1 and "no curve" in err
    code, _, err = run_cli(capsys, "mul", "--curve", "p17")
    assert code == 1 and "no scalar" in err
