"""Golden run bytes: the sha256 of every file two refmodel runs write under --out,
and of what three subcommands write at their default flags.

    PYTHONPATH=src python tests/golden_runs.py   # rewrites tests/golden_runs.json

Each run case is an all-axes run of the built-in model with operator outputs.
The "subcommands" entry holds `stress refmodel`, `stress fairness --kind
structural` and `stress interpret emit`, each given only its required flags.
Datasets, config and output directory are given as paths relative to the
working directory, so the config hash in report.json, which covers the
manifest paths, does not depend on where the run happens. Regenerate the file
only for a change that is meant to alter what a run writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from graphstress.cli import main as stress
from graphstress.graph_store import Dataset, Graph, save_dataset
from graphstress.interpret import SaliencyTable, write_saliency_file
from graphstress.synthetic import make_node_dataset

GOLDEN = Path(__file__).with_name("golden_runs.json")
ALL_AXES = ["corruption", "ood", "imbalance", "fairness", "interpret"]
WORKERS = (1, 8)


def _acceptance() -> Dataset:
    """The 10^4-node dataset of acceptance criterion 1."""
    return make_node_dataset(name="grid10k", num_nodes=10_000, seed=17)


def _with_self_loops() -> Dataset:
    """A 2000-node dataset with a self-loop on every seventh node."""
    ds = make_node_dataset(name="loops2k", num_nodes=2000, seed=3)
    g = ds.graph
    src, dst = g.arcs()
    loops = np.arange(0, g.num_nodes, 7)
    ds.graph = Graph.from_arcs(g.num_nodes, np.concatenate([src, loops]),
                               np.concatenate([dst, loops]), undirected=True,
                               features=g.features, labels=g.labels,
                               num_classes=g.num_classes, meta=g.meta)
    return ds


CASES = {"acceptance": _acceptance, "self_loops": _with_self_loops}


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(case: str, workers: int) -> dict:
    """Relative path -> sha256 of every file the case's run writes; cwd is a scratch dir."""
    manifest = save_dataset(CASES[case](), Path("ds") / case)
    config = Path(f"{case}.json")
    config.write_text(json.dumps({
        "datasets": [{"manifest": manifest.as_posix()}],
        "methods": [{"kind": "refmodel"}],
        "axes": ALL_AXES, "seeds": [0], "interpret_targets": 2,
        "write_operator_outputs": True,
    }))
    out = Path(f"{case}_w{workers}")
    assert stress(["run", "--config", str(config), "--out", str(out),
                   "--workers", str(workers)]) == 0
    return _digests(out)


def run_subcommands() -> dict:
    """Relative path -> sha256 of the subcommand outputs on the self-loop graph; cwd is a
    scratch dir."""
    dataset = _with_self_loops()
    manifest = save_dataset(dataset, Path("ds") / "subcommands").as_posix()
    n = dataset.graph.num_nodes
    saliency = Path("saliency.tsv")
    write_saliency_file(saliency, SaliencyTable("node_grad_norm", np.arange(n),
                                                np.arange(n) * 37 % 101 / 101))
    out = Path("subcommands")
    out.mkdir()
    pred = str(out / "refmodel.pred")
    for argv in (["refmodel", "--out", pred],
                 ["fairness", "--kind", "structural", "--pred", pred,
                  "--out", str(out / "fairness.json")],
                 ["interpret", "emit", "--saliency", str(saliency), "--out", str(out / "emit")]):
        assert stress([*argv, "--dataset", manifest]) == 0
    return _digests(out)


@contextlib.contextmanager
def _in_scratch_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden_runs_") as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def main() -> int:
    with _in_scratch_dir():
        golden = {case: run_case(case, 1) for case in CASES}
        golden["subcommands"] = run_subcommands()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {sum(map(len, golden.values()))} files in {len(golden)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
