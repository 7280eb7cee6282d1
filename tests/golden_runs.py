"""Golden run bytes: the sha256 of every file four runs write under --out, and of
what three subcommands write at their default flags.

    PYTHONPATH=src python tests/golden_runs.py   # rewrites tests/golden_runs.json

Two run cases are all-axes runs of the built-in model with operator outputs.
Two score an external method from its files, with operator outputs:
"external_ood" reads the ood predictions and ranking of a node graph, a
molecule collection and a knowledge graph, and "external_interpret" reads the
saliency and re-scored probabilities of a node graph's interpret targets.
The "subcommands" entry holds `stress refmodel`, `stress fairness --kind
structural` and `stress interpret emit`, each given only its required flags.
Datasets, config, method files and output directory are given as paths
relative to the working directory, so the config hash in report.json, which
covers those paths, does not depend on where the run happens. Regenerate the
file only for a change that is meant to alter what a run writes.
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
from graphstress.graph_store import Dataset, Graph, read_table, save_dataset
from graphstress.interpret import (
    SaliencyTable,
    read_manifest_file,
    write_probs_file,
    write_saliency_file,
)
from graphstress.metrics import PredictionTable, write_prediction_file, write_ranking_file
from graphstress.synthetic import make_molecule_collection, make_node_dataset, make_triple_store

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


def _refmodel_run(make):
    """A case: an all-axes run of the built-in model on ``make()``."""
    def inputs(case: str) -> dict:
        manifest = save_dataset(make(), Path("ds") / case)
        return {"datasets": [{"manifest": manifest.as_posix()}],
                "methods": [{"kind": "refmodel"}],
                "axes": ALL_AXES, "seeds": [0], "interpret_targets": 2,
                "write_operator_outputs": True}
    return inputs


def _fractions(ids: np.ndarray, mult: int, mod: int = 101) -> np.ndarray:
    """Fixed values in (0, 1), one per id, that need no random generator."""
    return (ids * mult % mod + 1) / (mod + 1)


def _external_run(case: str, datasets: list, axes: list) -> dict:
    """The config of a seed-0 run of one external method, whose files are under
    ds/<case>/preds, over the saved ``datasets``."""
    return {"datasets": [{"manifest": save_dataset(ds, Path("ds") / case / ds.name).as_posix()}
                         for ds in datasets],
            "methods": [{"kind": "external", "name": "ext", "has_saliency": True,
                         "pred_dir": (Path("ds") / case / "preds").as_posix()}],
            "axes": axes, "seeds": [0], "interpret_targets": 2, "write_operator_outputs": True}


def _external_ood(case: str) -> dict:
    """Predictions for the degree and temporal splits of a node graph and the scaffold and
    random splits of a molecule collection, and a ranking of every entity for each
    inductive query of a knowledge graph."""
    node = make_node_dataset(name="nodes", num_nodes=300, seed=5)
    mol = make_molecule_collection(name="mols", num_graphs=60, seed=3)
    # pairs of molecules as scaffold groups, set here so these digests do not move with the
    # generator's own scaffold draws
    mol.collection.scaffold_ids = np.arange(60) // 2
    kg = make_triple_store(name="kg", num_entities=60, seed=3)
    config = _external_run(case, [node, mol, kg], ["ood"])
    preds = Path(config["methods"][0]["pred_dir"])
    ids = np.arange(node.graph.num_nodes)
    for i, sub in enumerate(("degree", "temporal")):
        rows = _fractions(ids[:, None] + np.arange(node.graph.num_classes), 37 + i)
        (preds / "nodes" / "ood" / sub).mkdir(parents=True)
        write_prediction_file(preds / "nodes" / "ood" / sub / "seed0.pred",
                              PredictionTable(ids, rows / rows.sum(axis=1, keepdims=True)))
    ids = np.arange(mol.collection.num_graphs)
    for i, sub in enumerate(("scaffold", "random")):
        (preds / "mols" / "ood" / sub).mkdir(parents=True)
        write_prediction_file(preds / "mols" / "ood" / sub / "seed0.pred",
                              PredictionTable(ids, _fractions(ids, 29 + i)[:, None]))
    assert stress(["split", "--mechanism", "kg", "--dataset", config["datasets"][2]["manifest"],
                   "--out", f"{case}_kg_split"]) == 0
    head, _rel, tail, side = read_table(Path(f"{case}_kg_split") / "queries.tsv",
                                        (np.int64,) * 4)
    truth = np.where(side == 0, head, tail)
    queries = np.repeat(np.arange(len(truth)), kg.store.num_entities)
    cands = np.tile(np.arange(kg.store.num_entities), len(truth))
    (preds / "kg" / "ood" / "kg").mkdir(parents=True)
    write_ranking_file(preds / "kg" / "ood" / "kg" / "seed0.ranking", queries, cands,
                       _fractions(queries * 7 + cands, 31, 53) + 0.5 * (cands == truth[queries]))
    return config


def _external_interpret(case: str) -> dict:
    """A saliency file of a node graph and re-scored probabilities for every condition of
    the manifests `stress interpret emit` builds from it."""
    node = make_node_dataset(name="nodes", num_nodes=300, seed=5)
    config = _external_run(case, [node], ["interpret"])
    files = Path(config["methods"][0]["pred_dir"]) / "nodes" / "interpret"
    files.mkdir(parents=True)
    ids = np.arange(node.graph.num_nodes)
    write_saliency_file(files / "seed0.saliency",
                        SaliencyTable("node_grad_norm", ids, _fractions(ids, 37)))
    emit = Path(f"{case}_emit")
    assert stress(["interpret", "emit", "--dataset", config["datasets"][0]["manifest"],
                   "--saliency", str(files / "seed0.saliency"), "--num-targets", "2",
                   "--out", str(emit)]) == 0
    conditions = {t: ["clean", *sorted(read_manifest_file(emit / f"target_{t}.manifest")
                                       .conditions)]
                  for t in json.loads((emit / "emit.json").read_text())["targets"]}
    write_probs_file(files / "seed0.probs", {
        (t, c): float(_fractions(np.int64(t * 13 + j), 7, 19))
        for t, names in conditions.items() for j, c in enumerate(names)})
    return config


CASES = {"acceptance": _refmodel_run(_acceptance), "self_loops": _refmodel_run(_with_self_loops),
         "external_ood": _external_ood, "external_interpret": _external_interpret}


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(case: str, workers: int) -> dict:
    """Relative path -> sha256 of every file the case's run writes; cwd is a scratch dir."""
    config = Path(f"{case}.json")
    config.write_text(json.dumps(CASES[case](case)))
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
