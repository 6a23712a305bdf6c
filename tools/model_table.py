"""Print the modelled machine's numbers for a fixed list of inputs.

For each (preset, k) pair below, one row per machine, all with the
default role counts unless said otherwise:

- `default`: the default placement on the default 4x3 mesh;
- `corner_first`: the corner-first placement on that mesh;
- `default 6x4`: the default placement on a 6x4 mesh with twice the
  cores of each role;
- `default 6x4 hop2 3flit`: the same, with 2-cycle hops and 3-flit
  values.

Each row gives the makespan, flit-hops, message count, speedup,
critical path and the first 12 hex digits of a sha256 of the schedule
rows and the messages, as a Markdown table.  Nothing is timed, so two
checkouts give comparable tables on any host, and equal digests mean
equal schedules.  `tests/golden/model_table.md` is this table, the one
pinned record of the full-size schedules:

    python3 tools/model_table.py

The package is imported from this checkout's `src/`.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eccnoc import PRESETS  # noqa: E402
from eccnoc.nocsim import (DEFAULT_ROLE_COUNTS, MeshConfig,  # noqa: E402
                           corner_first_placement, default_placement,
                           role_usage, simulate)
from eccnoc.procmodel import (CostModel, compile_scalar_mul,  # noqa: E402
                              critical_path)

# the README's and the goldens' examples, then the full-size pair
CASES = (("prime32", 0xb7a3), ("binary33", 0x1b2d3c4e5),
         ("prime64", 0xe3c45e0ad1bbea06), ("binary63", 0xa5942337f65e5924))
_TWICE = {role: 2 * n for role, n in DEFAULT_ROLE_COUNTS.items()}
MACHINES = (
    ("default", MeshConfig(), DEFAULT_ROLE_COUNTS, default_placement),
    ("corner_first", MeshConfig(), DEFAULT_ROLE_COUNTS,
     corner_first_placement),
    ("default 6x4", MeshConfig(cols=6, rows=4), _TWICE, default_placement),
    ("default 6x4 hop2 3flit",
     MeshConfig(cols=6, rows=4, hop_cycles=2, flits_per_value=3), _TWICE,
     default_placement),
)


def rows() -> list[list[str]]:
    out = []
    for name, k in CASES:
        preset = PRESETS[name]
        G = compile_scalar_mul(preset.curve, k, preset.base)
        cm = CostModel.default(preset.curve.field.kind)
        cp = critical_path(G, cm)
        usage = role_usage(G)
        for machine, mesh, counts, place in MACHINES:
            rep = simulate(G, cm, mesh, place(mesh, counts, usage))
            trail = json.dumps([rep.schedule_rows(), [
                (m.producer, m.consumer, m.src, m.dst, m.launch, m.arrival)
                for m in rep.messages]])
            out.append([name, f"{k:x}", machine, str(rep.makespan_cycles),
                        str(rep.total_flit_hops), str(len(rep.msg_arrival)),
                        f"{rep.speedup:.3f}", str(cp),
                        hashlib.sha256(trail.encode()).hexdigest()[:12]])
    return out


def main() -> int:
    head = ["curve", "k", "placement", "makespan", "flit-hops", "messages",
            "speedup", "critical path", "schedule sha256"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for row in rows():
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
