"""The public surface that code outside the package relies on: typed
errors for bad values, and every name the benchmark imports."""

import ast
import importlib
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from eccnoc.errors import EccNocError
from eccnoc.nocsim import CoreRole, MeshConfig, Placement, default_placement
from eccnoc.presets import get_preset
from eccnoc.scalarmul import scalar_mul

ROOT = Path(__file__).parent.parent


def test_bad_values_raise_typed_errors(p17):
    calls = (lambda: scalar_mul(p17.curve, -1, p17.base),
             lambda: MeshConfig(cols=0),
             lambda: get_preset("nope"),
             lambda: get_preset(None),
             lambda: get_preset([]),
             lambda: Placement({"foo0": (0, 0)}),
             # an index past the interpreter's int digit limit
             lambda: Placement({"mul" + "1" * 5000: (0, 0)}),
             # role counts: a key that is not a CoreRole, a count that is
             # not an exact int >= 0
             *(partial(default_placement, MeshConfig(), counts, {})
               for counts in ({CoreRole.MUL_UNIT: 1.5},
                              {CoreRole.MUL_UNIT: "2"},
                              {CoreRole.MUL_UNIT: True},
                              {CoreRole.MUL_UNIT: -1},
                              {"mul": 2})))
    for call in calls:
        with pytest.raises(EccNocError) as info:
            call()
        # still a ValueError, so `except ValueError` callers keep working
        assert isinstance(info.value, ValueError)


def _bench_imports():
    """(file, module, name) for every `from eccnoc... import name` in
    bench/*.py."""
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "eccnoc":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    # the same lookup `from module import name` does: an attribute,
    # else a submodule
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    found = list(_bench_imports())
    assert found, "bench/ should import from eccnoc"
    missing = [f"{fname}: from {module} import {name}"
               for fname, module, name in found
               if not _resolves(module, name)]
    assert not missing


def test_op_facts_are_read_from_their_one_home():
    """`procmodel` reads no `_`-prefixed name of `scalarmul`, and no
    module but `fields` reads `INLINE_OPS`: the tape decodes its own
    columns, and `fields` holds the op-kind facts and the one writer of
    a field op into generated code."""
    private, readers = [], []
    for path in sorted((ROOT / "src" / "eccnoc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if path.stem == "procmodel" and \
                        (node.module or "").split(".")[-1] == "scalarmul":
                    private += [name for name in names if name[0] == "_"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                if path.stem == "procmodel" and node.attr[0] == "_" and \
                        getattr(node.value, "id", None) == "scalarmul":
                    private.append(node.attr)
            else:
                names = [getattr(node, "id", None)]
            if "INLINE_OPS" in names and path.stem != "fields":
                readers.append(path.name)
    assert private == []
    assert readers == []


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `harness` and `workloads` modules."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("harness"), importlib.import_module(
        "workloads")


def test_bench_items_and_model_pass_run_clean(bench):
    """The benchmark's items, checks and model pass on one input per
    workload: a change that breaks what bench/ reads of the package
    (`rep.schedule`, `G.tasks`, `trace.phase_counts`, `cores_of_role`
    ...) fails here, not only in bench/test_bench.py."""
    harness, workloads = bench
    for workload, (item, check) in workloads.ITEMS.items():
        inp = workloads.make_inputs(workload, seed=1)[0]
        assert check(inp, item(harness.Tracer(), inp)) == [], workload
        metrics, bad = workloads.model_run(harness.Tracer(), inp, full=True)
        assert bad == [] and metrics["makespan_cycles"] > 0, workload


def test_bench_traced_probes_run_clean(bench):
    """The probes only a traced benchmark run reaches: the field ops and
    point kernels (`point_*_projective`, run on the recorder) and an
    in-process `eccnoc compare` checked against `simulate`."""
    harness, workloads = bench
    probes = workloads.kernel_probes(harness.Tracer())
    assert probes and all(ns > 0 for ns in probes.values())
    inp = workloads.make_inputs("schedule", seed=1)[0]
    metrics, bad = workloads.model_run(harness.Tracer(), inp, full=False)
    assert bad == []
    compare_ms, bad = workloads.cli_probe(harness.Tracer(), inp,
                                          metrics["makespan_cycles"])
    assert bad == [] and compare_ms > 0


@pytest.mark.parametrize("tree", ["src", "tests", "bench", "tools"])
def test_sources_parse_as_python_3_10(tree):
    """`requires-python` is >=3.10: syntax that needs a later release,
    such as `except*`, fails to parse here on any interpreter.  Library
    calls that are new in a later release are not checked."""
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def _tool(name: str, *args: str) -> str:
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, check=True).stdout


def test_tools_agree_with_the_golden_and_with_themselves():
    """`tools/model_table.py` prints its committed golden table, and the
    total `tools/code_lines.py` prints is its files' sum."""
    assert _tool("model_table.py") == \
        (ROOT / "tests" / "golden" / "model_table.md").read_text()
    paths = sorted(map(str, (ROOT / "src" / "eccnoc").glob("*.py")))
    *files, total = [line.split() for line in
                     _tool("code_lines.py", *paths).splitlines()]
    assert [path for _, path in files] == paths
    assert total == [str(sum(int(n) for n, _ in files)), "total"]


def test_every_mutant_text_occurs_once():
    """Each mutant in `tools/mutants.py` still finds the one text it
    replaces, so the table cannot drift from the code between runs of
    the tool."""
    assert _tool("mutants.py", "--check") == ""
