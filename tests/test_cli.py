"""CLI commands, config parsing, and artifact round trips."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eccnoc import cli
from eccnoc.cli import _VERIFY_WORK_LIMIT, main
from eccnoc.config import _parse_dec, load_placement, load_run_config, \
    parse_hex
from eccnoc.curves import INFINITY
from eccnoc.errors import BadValue, ConfigError, EccNocError
from eccnoc.nocsim import CoreRole, DEFAULT_ROLE_COUNTS, MeshConfig, \
    Placement, corner_first_placement, default_placement, role_usage, \
    simulate
from eccnoc.presets import get_preset
from eccnoc.procmodel import CostModel, TaskGraph, compile_scalar_mul, \
    replay
from eccnoc.scalarmul import scalar_mul

from conftest import deadline

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_text(capsys, p17):
    code, out, err = run_cli(capsys, "mul", "--curve", "p17", "--k", "d")
    assert code == 0 and not err
    assert out.startswith("curve: p17 (GF(17), jacobian)\n")
    assert "result: x=10 y=4" in out
    assert "point doublings: 3" in out
    # each field kind's line names its coordinate system
    code, out, err = run_cli(capsys, "mul", "--curve", "b4", "--k", "d")
    assert code == 0 and not err
    assert out.startswith("curve: b4 (GF(2^4), lopez-dahab)\n")


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
    # refused before any scalar is checked: the least kmax whose
    # kmax*(kmax+1)/2 additions exceed the limit, and a kmax that is not
    # bare ASCII decimal (`1_0` and ' \uff15' were read as 10 and 5)
    kmax = 0
    while (kmax + 1) * (kmax + 2) // 2 <= _VERIFY_WORK_LIMIT:
        kmax += 1
    for bad, want in ((str(kmax + 1), "error: verify needs"),
                      ("-5", "error: kmax must be a decimal integer"),
                      ("1_0", "error: kmax must be a decimal integer"),
                      (" \uff15", "error: kmax must be a decimal integer")):
        code, out, err = run_cli(capsys, "verify", "--curve", "b4",
                                 "--kmax", bad)
        assert code == 1 and not out and err.count("\n") == 1
        assert err.startswith(want), bad
    assert str(_VERIFY_WORK_LIMIT) in run_cli(
        capsys, "verify", "--curve", "b4", "--kmax", str(kmax + 1))[2]


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
    # corner_first ends in 580 cycles, the default in 581 with 806
    # flit-hops against 882
    assert "best: corner_first" in out
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
    assert "makespan: 493 cycles   sequential: 934 " in want
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg_file))
    assert code == 0 and not err
    assert out == want
    cfg_file.write_text("[costs]\nsqr = 0\n")
    with pytest.raises(ConfigError, match="sqr cost must be at least 1"):
        load_run_config(cfg_file)


def test_huge_config_costs_schedule_exactly(capsys, tmp_path):
    # costs far past any fixed-width integer reach the schedule intact
    cfg_file = tmp_path / "huge.ini"
    cfg_file.write_text("[curve]\npreset = prime32\n\n[run]\nk = b7a3\n\n"
                        f"[costs]\nmul = {10**30}\ninv = {10**40}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_file),
                             "--format", "json")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["makespan_cycles"] == \
        10000000049000000000000000000000000000303
    assert doc["total_flit_hops"] == 739


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


@pytest.mark.parametrize("gy,order,why", [
    (1, 18, None),          # (0, 1) on y^2 = x^3 + x + 1 over GF(17)
    (1, 5, "order 5 is not a positive multiple of the base point's order"),
    (1, 0, "order 0 is not a positive multiple"),
    (2, 5, "does not satisfy the curve equation"),
    # Hasse: a curve over GF(17) has at most 26 points; one bit more
    # than 17 is the widest order taken
    (1, 2**5000, "order a 5001-bit int is wider than 6 bits"),
], ids=("order 18", "order 5", "order 0", "off the curve", "order 2^5000"))
def test_inline_curve_order_is_checked(capsys, tmp_path, gy, order, why):
    # an unchecked order 5 used to load, and `mul --k 5` gave x=10 y=4
    cfg_file = tmp_path / "order.ini"
    cfg_file.write_text("[curve]\nkind = prime\np = 11\na = 1\nb = 1\n"
                        f"gx = 0\ngy = {gy}\norder = {order}\n")
    code, out, err = run_cli(capsys, "mul", "--config", str(cfg_file),
                             "--k", "5")
    if why is None:
        assert code == 0 and load_run_config(cfg_file).curve.order == order
        return
    assert code == 1 and not out and err.count("\n") == 1
    with pytest.raises(ConfigError, match=why):
        load_run_config(cfg_file)


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


def test_inline_curve_wider_than_2048_bits_fails_fast(capsys, tmp_path):
    """A 32768-bit binary field is refused before Rabin's test, which
    would run for minutes on it."""
    m = 32768
    big = tmp_path / "big.ini"
    big.write_text(f"""
[curve]
kind = binary
m = {m}
poly = {1 << m | 1 << 71 | 1:x}
a = 1
b = 1
gx = 1
gy = 1
[run]
k = 3
""")
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="wider than 2048 bits"):
        load_run_config(big)
    code, _, err = run_cli(capsys, "mul", "--config", str(big))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err.count("\n") == 1
    assert err.startswith("error: bad curve parameters: binary field degree "
                          "is 32768; fields wider than 2048 bits")


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
    bad.write_text("[curve]\np = 11\n")
    with pytest.raises(ConfigError, match="needs either preset or kind"):
        load_run_config(bad)
    bad.write_text("[curve]\nkind = prime\np = 11\na = 1\nb = 1\ngx = 0\n")
    with pytest.raises(ConfigError, match="is missing key 'gy'"):
        load_run_config(bad)
    bad.write_text("[costs]\nmul = " + "9" * 5000 + "\n")
    with pytest.raises(ConfigError, match="too many digits"):
        load_run_config(bad)
    for mesh, reason in (("cols = 1000000\nrows = 1000000", "1024 tiles"),
                         ("flits_per_value = 1000000000", "1 to 64")):
        bad.write_text(f"[curve]\npreset = p17\n\n[mesh]\n{mesh}\n")
        with pytest.raises(ConfigError, match=reason):
            load_run_config(bad)
    for text in ("[placement]\nmul0 = 1,1\n[mesh]\ncols = 4\n",
                 "[placements]\nmul0 = 1,1\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match=r"one \[placement\] section"):
            load_placement(bad)


@pytest.mark.parametrize("option,text,why", [
    ("--config", "[DEFAULT]\nseed = 9\n", "unknown section 'DEFAULT'"),
    ("--config", "[DEFAULT]\nk = d\n[curve]\npreset = p17\n",
     "unknown section 'DEFAULT'"),
    ("--placement", "[DEFAULT]\nmul1 = 1,1\n[placement]\nadd0 = 0,0\n",
     r"one \[placement\] section and no other, got 'DEFAULT, placement'"),
    ("--placement", "[DEFAULT]\nio0 = 3,0\n",
     r"one \[placement\] section and no other, got 'DEFAULT'"),
], ids=("run config", "run config with a curve", "placement",
        "placement alone"))
def test_default_section_is_an_unknown_section(capsys, tmp_path, option,
                                                text, why):
    # configparser merges `[DEFAULT]` into every section and leaves it
    # out of `sections()`, so it used to slip past both checks
    path = tmp_path / "default.ini"
    path.write_text(text)
    load = load_run_config if option == "--config" else load_placement
    with pytest.raises(ConfigError, match=why):
        load(path)
    code, out, err = run_cli(capsys, "simulate", "--curve", "p17", "--k",
                             "5", option, str(path))
    assert code == 1 and not out and err.count("\n") == 1
    assert err.startswith("error: ")


def _readme_config_block():
    section = (ROOT / "README.md").read_text().split("## Config files", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


_INI_TEXTS = [
    _readme_config_block(),
    "[curve]\nkind = prime\np = 11\na = 2\nb = 2\ngx = 5\ngy = 1\n"
    "order = 19\n[run]\nk = d\n",
    "[curve]\nkind = binary\nm = 4\npoly = 13\na = 1\nb = 6\ngx = 8\n"
    "gy = 0\norder = 24\n[mesh]\ncols = 2\nrows = 6\n",
    "[placement]\nmul0 = 1,1\nadd0 = 2,1\nio0 = 3,0\nsqr0 = 0,2\n",
]


@st.composite
def _mutated_ini(draw):
    """One of the INI texts above with 1-4 characters inserted, deleted
    or substituted."""
    text = draw(st.sampled_from(_INI_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text) - 1))
        char = draw(st.one_of(st.sampled_from("0123456789abcdef,=;[] \n"),
                              st.characters()))
        text = draw(st.sampled_from((
            text[:pos] + char + text[pos:], text[:pos] + text[pos + 1:],
            text[:pos] + char + text[pos + 1:])))
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_mutated_ini())
def test_mutated_ini_loads_or_raises_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated.ini"
    # lone surrogates become bytes that are not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    for load in (load_run_config, load_placement):
        try:
            load(path)
        except ConfigError:
            pass


def test_readme_config_example_runs(capsys, tmp_path):
    block = _readme_config_block()
    cfg_file = tmp_path / "readme.ini"
    cfg_file.write_text(block)
    code, out, err = run_cli(capsys, "mul", "--config", str(cfg_file))
    assert code == 0 and not err
    assert out.startswith("curve: prime32 ") and "k: b7a3" in out


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    makespan, speedup = capsys.readouterr().out.split()
    want = json.loads((GOLDEN_DIR / "simulate_prime32_b7a3.json").read_text())
    assert int(makespan) == want["makespan_cycles"]
    assert float(speedup) == want["speedup"]


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


@pytest.mark.parametrize("argv,golden", [
    (("graph",), "graph_binary33_1b2d3c4e5.txt"),
    (("simulate", "--format", "json"), "simulate_binary33_1b2d3c4e5.json"),
    (("compare", "--format", "json"), "compare_binary33_1b2d3c4e5.json"),
])
def test_output_does_not_depend_on_hash_seeds(argv, golden):
    """Op kinds and phases hash by identity, which differs between
    processes, and strings by PYTHONHASHSEED; no set or dict of them may
    order any output."""
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "eccnoc", *argv, "--curve", "binary33",
             "--k", "1b2d3c4e5"], env=env, capture_output=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].decode() == (GOLDEN_DIR / golden).read_text()


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


@pytest.mark.parametrize("what,text", [
    ("tile", "1_0,+1"),       # read as (10, 1)
    ("tile", "\uff11,1"),     # a fullwidth 1, read as (1, 1)
    ("tile", "-1,0"),         # refused only at simulate, as OutOfMesh
    ("k", "b7a3\n"),          # `$` matched before the newline
    ("dec", "5\n"),
    ("core", "mul\u0663"),    # an Arabic-Indic 3, the index of mul3 too
    ("core", "mul03"),        # a leading zero, the index of mul3 too
])
def test_lenient_spellings_are_refused(capsys, tmp_path, what, text):
    if what == "tile":
        path = tmp_path / "pl.ini"
        path.write_text(f"[placement]\nmul0 = {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be decimal 'col,row'"):
            load_placement(path)
    elif what == "k":
        code, out, err = run_cli(capsys, "mul", "--curve", "p17", "--k", text)
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
    elif what == "dec":
        with pytest.raises(ConfigError, match="decimal integer"):
            _parse_dec(text, "cols")
    else:
        with pytest.raises(BadValue, match="not <role><index>"):
            Placement({text: (0, 0), "mul3": (1, 0)})


_BIG = "g" * 10**6   # 1 MB of outside text that no reader accepts
_GRAPH = """taskgraph 1 fieldbits 5
0 XFER init -1 - Px 3
1 MUL iterate 0 0,0 - -
result 1 1
"""


def _ini(name, text):
    Path(name).write_text(text, encoding="utf-8")
    return name


_ECHO_SITES = {
    "hex": lambda: parse_hex(_BIG),
    "dec": lambda: _parse_dec(_BIG, "cols"),
    "tile": lambda: load_placement(
        _ini("pl.ini", f"[placement]\nmul0 = {_BIG}\n")),
    "tile name": lambda: load_placement(
        _ini("pl.ini", f"[placement]\n{_BIG} = 0\n")),
    "sections": lambda: load_placement(
        _ini("pl.ini", f"[placement]\nmul0 = 0,0\n[{_BIG}]\n")),
    "curve kind": lambda: load_run_config(
        _ini("run.ini", f"[curve]\nkind = {_BIG}\n")),
    "section": lambda: load_run_config(_ini("run.ini", f"[{_BIG}]\n")),
    "key": lambda: load_run_config(_ini("run.ini", f"[run]\n{_BIG} = 1\n")),
    "preset": lambda: get_preset(_BIG),
    "core name": lambda: Placement({_BIG: (0, 0)}),
    "header": lambda: TaskGraph.from_text(
        _GRAPH.replace("fieldbits 5", f"fieldbits 5 {_BIG}")),
    "field width": lambda: TaskGraph.from_text(
        _GRAPH.replace("fieldbits 5", f"fieldbits {_BIG}")),
    "task line": lambda: TaskGraph.from_text(
        _GRAPH.replace("MUL iterate", f"{_BIG} iterate")),
    "task fields": lambda: TaskGraph.from_text(
        _GRAPH.replace("- -\n", f"- - {_BIG}\n")),
    "result line": lambda: TaskGraph.from_text(
        _GRAPH.replace("result 1", f"result {_BIG}")),
    "last line": lambda: TaskGraph.from_text(
        _GRAPH.replace("result 1 1", f"result 1 1 {_BIG}")),
}


@pytest.mark.parametrize("site", _ECHO_SITES)
def test_rejected_input_is_echoed_short(tmp_path, monkeypatch, site):
    # each message used to repeat the whole 1 MB input
    monkeypatch.chdir(tmp_path)
    with pytest.raises(EccNocError) as info:
        _ECHO_SITES[site]()
    msg = str(info.value)
    assert len(msg) < 200 and "\n" not in msg and " characters)" in msg


@pytest.mark.parametrize("argv", [
    ("verify", "--curve", "b4", "--kmax", _BIG),
    ("mul", "--curve", "p17", "--k", _BIG),
    ("mul", "--curve", _BIG, "--k", "3"),
], ids=("kmax", "k", "curve"))
def test_cli_echoes_rejected_input_short(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) - len("error: \n") < 200


@pytest.mark.parametrize("text,lineno", [
    ("ggg\n[run]\nk = 1\n", 1),              # no section header
    ("[run]\nk = 1\nk = 2\n", 3),             # a duplicate option
    ("[run]\nk = 1\n\n[run]\nk = 2\n", 4),    # a duplicate section
    (f"[curve]\npreset = p17\n{_BIG}\n", 3),  # 1 MB without `=`
], ids=("header", "option", "section", "1MB line"))
def test_config_parse_error_is_one_line_naming_its_line(
        capsys, tmp_path, monkeypatch, text, lineno):
    # configparser's own message spans lines and repeats the whole line
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "mul", "--curve", "p17", "--k", "d",
                             "--config", _ini("c.ini", text))
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) - len("error: \n") < 200 and f"line {lineno} " in err


def test_scalar_width_is_bounded(capsys):
    # 1025 hex digits, 4097 bits: one past the bound
    with deadline(10):
        code, out, err = run_cli(capsys, "mul", "--curve", "p17",
                                 "--k", "1" + "0" * 1024)
    assert code == 1 and not out
    assert err == "error: scalar has 4097 bits; scalars wider than 4096 " \
        "bits are refused\n"
    with deadline(10):
        code, out, err = run_cli(capsys, "mul", "--curve", "p17",
                                 "--k", "f" * 1024)
    assert code == 0 and not err
    assert "point doublings: 4095   point additions: 4095" in out


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


def _write_placements(tmp_path, G, *names):
    """The default and corner-first placements of G, written to
    tmp_path/<name>.ini in turn; return their --placement arguments
    and the (stem, placement) pairs."""
    argv, entries = [], []
    for name, place in zip(names, (default_placement,
                                   corner_first_placement)):
        pl = place(MeshConfig(), DEFAULT_ROLE_COUNTS, role_usage(G))
        path = tmp_path / f"{name}.ini"
        path.parent.mkdir(exist_ok=True)
        path.write_text("[placement]\n" + "".join(
            f"{core} = {c},{r}\n" for core, (c, r) in pl.entries.items()))
        argv += ["--placement", str(path)]
        entries.append((path.stem, pl))
    return argv, entries


def test_compare_with_placement_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compare", "--curve", "p17", "--k", "d",
                           "--placement", str(tmp_path / "only.ini"))
    assert code == 1 and "at least two" in err


def test_compare_placement_names_must_be_unique(capsys, p17, tmp_path):
    # two files with one stem would give two ranking rows of one name
    G = compile_scalar_mul(p17.curve, 0xd, p17.base)
    argv, _ = _write_placements(tmp_path, G, "a/x", "b/x")
    code, out, err = run_cli(capsys, "compare", "--curve", "p17", "--k", "d",
                             *argv)
    assert (code, out, err) == (
        1, "", "error: placement names must be unique: two files are "
               "named 'x'\n")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_roles_are_refused_with_placement_files(capsys, p17, tmp_path,
                                                command):
    # [roles] sizes the built-in placements only; a placement file names
    # its own cores, so the two together end in an error, not in a
    # schedule that ignores the stated counts
    G = compile_scalar_mul(p17.curve, 0xd, p17.base)
    argv, _ = _write_placements(tmp_path, G, "p", "q")
    if command == "simulate":
        argv = argv[:2]
    cfg_file = tmp_path / "roles.ini"
    cfg_file.write_text("[roles]\nmul = 0\n")
    code, out, err = run_cli(capsys, command, "--curve", "p17", "--k", "d",
                             "--config", str(cfg_file), *argv)
    assert (code, out) == (1, "")
    assert err == "error: [roles] sets the cores of the built-in " \
        "placements and cannot be used with --placement\n"
    # without the files the counts size the built-ins: no MUL core
    code, _, err = run_cli(capsys, command, "--curve", "p17", "--k", "d",
                           "--config", str(cfg_file))
    assert (code, err) == (
        1, "error: placement has no mul core; the graph needs one\n")
    # a config without [roles] states no counts, and the files run
    cfg_file.write_text("[mesh]\nhop_cycles = 1\n")
    assert load_run_config(cfg_file).role_counts is None
    code, _, err = run_cli(capsys, command, "--curve", "p17", "--k", "d",
                           "--config", str(cfg_file), *argv)
    assert code == 0 and not err


def test_compare_ranks_placement_files(capsys, tmp_path):
    # the default and corner-first placements of prime32, written out
    preset = get_preset("prime32")
    G = compile_scalar_mul(preset.curve, 0xb7a3, preset.base)
    argv, entries = _write_placements(tmp_path, G, "default_placement",
                                      "corner_first_placement")
    code, out, err = run_cli(capsys, "compare", "--curve", "prime32", "--k",
                             "b7a3", "--format", "json",
                             "--out", str(tmp_path / "out"), *argv)
    assert code == 0 and not err
    ranking = [(row["name"], row["makespan_cycles"], row["total_flit_hops"])
               for row in json.loads(out)["ranking"]]
    assert ranking == [("corner_first_placement", 529, 768),
                       ("default_placement", 530, 670)]
    # the library's own reports, ranked by makespan, flit-hops, name
    cm = CostModel.default(preset.curve.field.kind)
    rows = []
    for name, pl in entries:
        rep = simulate(G, cm, MeshConfig(), pl)
        rows.append((name, rep.makespan_cycles, rep.total_flit_hops))
    assert ranking == sorted(rows, key=lambda row: (row[1], row[2], row[0]))
    assert ranking != rows   # given default first, ranked second
    assert (tmp_path / "out" / "compare.json").read_text() == out


def test_compare_column_fits_a_long_name(capsys, p17, tmp_path):
    # the name column widens to the longest name, so a long stem keeps
    # its row's numbers under the header
    G = compile_scalar_mul(p17.curve, 0xd, p17.base)
    argv, _ = _write_placements(tmp_path, G, "a_rather_long_placement_name",
                                "b")
    code, out, err = run_cli(capsys, "compare", "--curve", "p17", "--k", "d",
                             *argv)
    assert code == 0 and not err
    head, *rows = out.splitlines()[1:-1]
    assert head == f"{'placement':<28}  makespan  flit-hops  speedup"
    assert len(rows) == 2 and {len(row) for row in rows} == {len(head)}


def test_verify_reports_a_disagreeing_scalar(capsys, monkeypatch):
    reference = cli.scalar_mul_reference

    def wrong_at_7(curve, k, P):
        return INFINITY if k == 7 else reference(curve, k, P)

    monkeypatch.setattr(cli, "scalar_mul_reference", wrong_at_7)
    code, out, err = run_cli(capsys, "verify", "--curve", "p17")
    assert (code, out, err) == (
        1, "verify p17: FAIL (1/65 scalars disagree, first: [7])\n", "")


def test_bad_usage_errors(capsys):
    code, _, err = run_cli(capsys, "mul", "--curve", "nope", "--k", "d")
    assert code == 1 and "unknown curve preset" in err
    code, _, err = run_cli(capsys, "mul", "--curve", "p17", "--k", "XYZ")
    assert code == 1 and "hex" in err
    code, _, err = run_cli(capsys, "mul", "--k", "d")
    assert code == 1 and "no curve" in err
    code, _, err = run_cli(capsys, "mul", "--curve", "p17")
    assert code == 1 and "no scalar" in err


@pytest.mark.parametrize("command,option,path,why", [
    ("graph", "--out", "missing/graph.txt", "cannot write"),
    ("mul", "--out", "missing/mul.json", "cannot write"),
    ("simulate", "--out", "taken", "cannot write"),
    ("compare", "--out", "taken", "cannot write"),
    ("mul", "--config", "latin1.ini", "cannot read"),
    ("mul", "--config", "missing.ini", "no such config file:"),
    ("simulate", "--placement", "latin1.ini", "cannot read"),
])
def test_file_errors_end_in_one_error_line(capsys, tmp_path, command, option,
                                           path, why):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    (tmp_path / "latin1.ini").write_bytes(
        "[placement]\nmul0 = 0,0 ; caf\u00e9\n".encode("latin-1"))
    code, _, err = run_cli(capsys, command, "--curve", "p17", "--k", "d",
                           option, str(tmp_path / path))
    assert code == 1
    assert err.startswith(f"error: {why} ") and err.count("\n") == 1
