"""Show that the tier-1 tests catch each mutant in one table.

A mutant is a file, an exact text that occurs in it once, the text that
replaces it and a line saying what the change breaks.  For each mutant
the tree is copied to a temporary directory, the mutant applied there,
and the tier-1 tests run on the copy with `-x -p no:cacheprovider`; the
mutant is killed when they fail and survives when they pass.  Before
any run, every text is checked to occur exactly once in its file.

    python3 tools/mutants.py            # run every mutant
    python3 tools/mutants.py --check    # only check that each text matches

Prints killed or SURVIVED per mutant, and exits 1 when any mutant
survives or any text does not occur exactly once.  The table only grows,
unless the code a mutant targets is deleted; a change that adds a check
adds a mutant that only the new check kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what the copy leaves out: version control, caches and benchmark output
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "out")
# a mutant whose run outlasts this is a hang, which fails tier-1 too
_TIMEOUT_S = 600
# the one tier-1 test a run leaves out: it checks this table against the
# tree, which every mutant's copy fails
_SELF_CHECK = "tests/test_api.py::test_every_mutant_text_occurs_once"


class Mutant(NamedTuple):
    path: str       # relative to the repository root
    text: str       # occurs exactly once in the file
    new: str
    breaks: str


MUTANTS = (
    Mutant("src/eccnoc/nocsim.py",
           "                        t += hop\n",
           "                        t += hop - 1\n",
           "each flit crosses a link one cycle early"),
    Mutant("src/eccnoc/nocsim.py",
           "        busy[core] += cost\n",
           "        busy[core] += cost + 1\n",
           "a core's busy cycles count one cycle too many per task"),
    Mutant("src/eccnoc/curves.py",
           "ops.mul(ops.add(x2, y2), ops.sqr(z3))",
           "ops.mul(ops.add(x2, y2), ops.mul(z3, z3))",
           "the Lopez-Dahab mixed addition records a MUL for a SQR"),
    Mutant("src/eccnoc/procmodel.py",
           "ops = (num[sa], num[sb]) if comma else (num[sa],)",
           "ops = (num[sb], num[sa]) if comma else (num[sa],)",
           "graph text reads a binary task's operands swapped"),
    Mutant("src/eccnoc/fields.py",
           '"_mul": "{0} * {1} % p"',
           '"_mul": "({0} + {1}) % p"',
           "generated GF(p) code adds where it multiplies"),
    Mutant("src/eccnoc/procmodel.py",
           'read, args = "a, b = ops", ("values[a]", "values[b]")',
           'read, args = "a, b = ops", ("values[b]", "values[a]")',
           "replay runs a binary op on its operands swapped"),
    Mutant("src/eccnoc/procmodel.py",
           "append(element(value).value)",
           "append(value)",
           "replay keeps an XFER's value unreduced"),
    Mutant("src/eccnoc/scalarmul.py",
           "_CODE_PHASES = tuple(phase for phase, _ in _COLUMNS.values()",
           "_CODE_PHASES = tuple(phase if phase is not Phase.ITERATE "
           "else Phase.INIT for phase, _ in _COLUMNS.values()",
           "compiled loop tasks land in the init phase"),
    Mutant("src/eccnoc/procmodel.py",
           "not 0 <= o < tid:",
           "not 0 <= o <= tid:",
           "the validator lets a task read itself"),
    Mutant("src/eccnoc/fields.py",
           "raw, inline = _RAW_OPS[code], INLINE_OPS[kind][1]",
           "raw, inline = _RAW_OPS[code or 1], INLINE_OPS[kind][1]",
           "the shared op writer writes ADD as SUB"),
    Mutant("src/eccnoc/fields.py",
           "OpKind.SUB: 2",
           "OpKind.SUB: 1",
           "SUB takes one operand"),
    Mutant("src/eccnoc/scalarmul.py",
           "pidxs, steps = [], count()",
           "pidxs, steps = [], count(1)",
           "the tape numbers its loop steps from 1"),
    Mutant("src/eccnoc/scalarmul.py",
           "or _interpret(tape, kernels, columns, (X, Y, Z))",
           "or _interpret(tape, kernels, columns[:1], (X, Y, Z))",
           "a declined step records only its first column"),
    Mutant("src/eccnoc/procmodel.py",
           "if self.field_bits > MAX_FIELD_BITS:",
           "if self.field_bits > MAX_FIELD_BITS + 1:",
           "a graph one bit wider than the widest field is built"),
    Mutant("src/eccnoc/scalarmul.py",
           'values[{refs[i]}]")\n        if i in guards:',
           'values[{refs[i]}]")\n        if False:',
           "a compiled step never tests an input"),
    Mutant("src/eccnoc/procmodel.py",
           "if not label:",
           "if label is None:",
           "the validator lets an XFER go without a label"),
    Mutant("src/eccnoc/procmodel.py",
           '"_" in text or "+" in text',
           '"_" in text',
           "graph text may hold a '+'"),
    Mutant("src/eccnoc/nocsim.py",
           "a, b = pair = sorted(G.result)",
           "a, b = pair = [G.result[0]] * 2",
           "simulate delivers the result's x alone"),
    Mutant("src/eccnoc/config.py",
           '_DEC = re.compile(r"[0-9]+")',
           '_DEC = re.compile(r"[0-9_]+")',
           "a decimal may hold a '_'"),
    Mutant("src/eccnoc/fields.py",
           "        if b & 8:\n            r ^= a << 3",
           "        if b & 16:\n            r ^= a << 3",
           "a carry-less product by a short operand drops its bit 3"),
)


def _unmatched() -> list[str]:
    """A line for each mutant whose text does not occur exactly once."""
    bad = []
    for m in MUTANTS:
        n = (ROOT / m.path).read_text(encoding="utf-8").count(m.text)
        if n != 1:
            bad.append(f"{m.path}: {m.text.strip()!r} occurs {n} times")
    return bad


def _killed(m: Mutant) -> tuple[bool, str]:
    """Whether tier-1 fails on a copy of the tree with `m` applied, and
    how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        path = tree / m.path
        path.write_text(path.read_text(encoding="utf-8")
                        .replace(m.text, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(
            None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 "--deselect", _SELF_CHECK],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {_TIMEOUT_S} s"
    # the test that failed, or the error that stopped pytest before any
    lines = (done.stdout + done.stderr).strip().splitlines()
    failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return done.returncode != 0, (failed or lines[-1:] or [""])[0][:120]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    bad = _unmatched()
    for line in bad:
        print(f"no match: {line}")
    if bad or argv:
        return 1 if bad else 0
    survived = 0
    for m in MUTANTS:
        began = time.perf_counter()
        killed, how = _killed(m)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED'}  {m.path}: {m.breaks} "
              f"({time.perf_counter() - began:.0f} s; {how})", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
