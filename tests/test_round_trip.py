"""The built-in model, run as an external method, scores every cell it scores built in.

A run with ``write_operator_outputs`` leaves in ``ops/`` every input an
outside method needs. This test builds an external method's files from that
directory alone: ``stress refmodel`` on the dataset, on each corruption copy
and on copies of the dataset with an ``ops/`` split swapped in, plus the
model's saliency and its probability of every manifest condition. Scored as
an external method, those files must give the built-in method's values.
"""

import json
import shutil
from pathlib import Path

import numpy as np

from graphstress.cli import AXES, main
from graphstress.graph_store import Role, load_dataset, save_dataset
from graphstress.interpret import (
    SaliencyTable,
    masked_graph,
    read_manifest_file,
    write_probs_file,
    write_saliency_file,
)
from graphstress.refmodel import propagate_predict
from graphstress.synthetic import make_node_dataset

# the built-in model is feature-blind, so it marks these cells inapplicable
FEATURE_CELLS = {("corruption", f"feature_sev{i}") for i in range(1, 6)} | {
    ("corruption", "feature_drop")}


def _run(name: str, method: dict, manifest: Path) -> dict:
    """(axis, subcondition) -> per-seed values of a one-seed, all-axes run into ``name``."""
    config = Path(f"{name}.json")
    config.write_text(json.dumps({
        "datasets": [{"manifest": str(manifest)}], "methods": [method], "axes": list(AXES),
        "seeds": [0], "interpret_targets": 3, "write_operator_outputs": True}))
    assert main(["run", "--config", str(config), "--out", name]) == 0
    records = (json.loads(p.read_text()) for p in Path(name, "values").glob("*.json"))
    return {(rec["axis"], rec["subcondition"]): rec["values"] for rec in records}


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _probs(dataset, manifests: list) -> dict:
    """(target, condition) -> the probability the clean graph's predicted class keeps."""
    g, train = dataset.graph, dataset.split.units(Role.TRAIN)
    labels = np.full(g.num_nodes, -1)
    labels[train] = g.labels[train]
    probs = {}
    for path in manifests:
        m = read_manifest_file(path)
        clean, = propagate_predict(g, labels, g.num_classes, rows=[m.target])
        predicted = int(clean.rows[0].argmax())
        probs[m.target, "clean"] = float(clean.rows[0, predicted])
        for condition in m.conditions:
            table, = propagate_predict(masked_graph(g, m, condition), labels, g.num_classes,
                                       rows=[m.target])
            probs[m.target, condition] = float(table.rows[0, predicted])
    return probs


def test_the_built_in_model_as_an_external_method_gives_the_built_in_cells(tmp_path,
                                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    # two classes, so the demographic gaps are defined
    manifest = save_dataset(make_node_dataset(name="rt", num_nodes=300, num_classes=2, seed=4),
                            Path("data"))
    built_in = _run("built_in", {"kind": "refmodel"}, manifest)
    ops, preds = Path("built_in/ops/rt"), Path("preds/rt")

    def refmodel(dataset: Path, *subs: str) -> None:
        for sub in subs:
            assert main(["refmodel", "--dataset", str(dataset),
                         "--out", str(preds / sub / "seed0.pred")]) == 0

    def with_split(tag: str) -> Path:
        """A copy of the dataset whose split is ops/<tag>/split.tsv."""
        copy = Path("swapped", tag)
        shutil.copytree(manifest.parent, copy)
        shutil.copyfile(ops / tag / "split.tsv", copy / "split.tsv")
        return copy / manifest.name

    refmodel(manifest, "corruption/clean", "fairness/clean")
    for channel in ("feature", "edge"):
        for i in range(1, 6):
            refmodel(ops / f"corrupt_{channel}_sev{i}_seed0" / "manifest.json",
                     f"corruption/{channel}_sev{i}")
    for mechanism in ("degree", "temporal"):
        refmodel(with_split(f"split_{mechanism}_seed0"), f"ood/{mechanism}")
    for rho in (5, 10, 20):
        refmodel(with_split(f"imbalance_rho{rho}_seed0"), f"imbalance/rho{rho}")
    # the built-in saliency marks the train nodes, the propagation's label sources
    dataset = load_dataset(manifest)
    g, train = dataset.graph, dataset.split.units(Role.TRAIN)
    (preds / "interpret").mkdir()
    write_saliency_file(preds / "interpret/seed0.saliency",
                        SaliencyTable("node_grad_norm", np.arange(g.num_nodes),
                                      np.isin(np.arange(g.num_nodes), train).astype(float)))
    manifests = sorted((ops / "interpret_seed0").glob("target_*.manifest"))
    assert manifests
    write_probs_file(preds / "interpret/seed0.probs", _probs(dataset, manifests))

    external = _run("external", {"kind": "external", "name": "ext", "pred_dir": "preds",
                                 "has_saliency": True}, manifest)
    assert _tree(Path("external/ops")) == _tree(Path("built_in/ops"))
    assert len(built_in) == 33 and external.keys() == built_in.keys()
    assert all(values != [None] for values in built_in.values())  # every cell is defined
    assert {cell: values for cell, values in external.items() if cell not in FEATURE_CELLS} == {
        cell: values for cell, values in built_in.items() if cell not in FEATURE_CELLS}
    assert all(built_in[cell] == ["inapplicable"] for cell in FEATURE_CELLS)
    # the features the noise reaches are never read: each level scores as clean
    for i in range(1, 6):
        assert external["corruption", f"feature_sev{i}"] == built_in["corruption", "clean"]
