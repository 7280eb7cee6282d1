#!/usr/bin/env python3
"""Record the reference report fingerprints the benchmark checks runs against.

    python3 perfbench/make_references.py SEED [SEED...]

SEED is an input seed (see workloads.input_seed); the benchmark maps every
--seed onto one of them, so all of 0 .. INPUT_SEEDS - 1 must be recorded.

Run from the root of a graphstress source tree whose outputs are known to be
right. For every workload and seed it makes one `stress run` at --workers 1
and stores the fingerprint (see gate.py) in references.json, keeping the
entries of other seeds. A run whose outputs fail the gate's range checks is
not recorded. Re-record after any change to the workloads' inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gate
    import run
    import workloads

    refs = json.loads(gate.REFERENCES.read_text()) if gate.REFERENCES.is_file() else {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in map(int, argv):
            bench = run.Bench(root, wl, seed)
            ref = bench.stress("reference", 1, record=True)["fingerprint"]
            if bench.failed:
                print(f"{name} seed {seed}: reference run failed", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(bench.seed)] = ref
            print(f"{name} seed {bench.seed}: {len(ref['rows'])} cells")
    refs = {name: dict(sorted(per_seed.items(), key=lambda kv: int(kv[0])))
            for name, per_seed in sorted(refs.items())}
    gate.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
