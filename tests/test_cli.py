"""End-to-end command tests: every subcommand, the pipeline runner, exit codes."""

import ctypes
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graphstress
import graphstress.cli as cli
from graphstress import graph_store
from graphstress.cli import main
from graphstress.graph_store import (Graph, Role, SplitAssignment, load_dataset, read_split_file,
                                     remove_edges, save_dataset)
from graphstress.imbalance import partition_classes
from graphstress.interpret import (
    RANKINGS,
    SaliencyTable,
    condition_name,
    read_manifest_file,
    write_probs_file,
    write_saliency_file,
)
from graphstress.metrics import (
    PredictionTable,
    read_prediction_file,
    write_prediction_file,
    write_ranking_file,
)
from graphstress.report import load_report
from graphstress.synthetic import make_molecule_collection, make_node_dataset, make_triple_store


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    """150-node binary dataset (small enough for full pipeline tests)."""
    out = tmp_path_factory.mktemp("cli_ds")
    ds = make_node_dataset(name="tiny", num_nodes=150, num_classes=2, seed=3)
    return save_dataset(ds, out / "tiny")


@pytest.fixture(scope="module")
def mol_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_mol")
    ds = make_molecule_collection(name="tinymol", num_graphs=40, seed=3)
    return save_dataset(ds, out / "tinymol")


@pytest.fixture(scope="module")
def kg_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_kg")
    ds = make_triple_store(name="tinykg", num_entities=60, seed=3)
    return save_dataset(ds, out / "tinykg")


def _write_config(path, **overrides):
    config = {
        "datasets": [{"manifest": str(overrides.pop("manifest"))}],
        "methods": [{"kind": "refmodel", "name": "refmodel"}],
        "axes": ["corruption", "ood", "imbalance", "fairness", "interpret"],
        "seeds": 2,
        "interpret_targets": 3,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this graphstress."""
    src = str(Path(graphstress.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------

def test_corrupt_feature_severity_zero_is_clean_copy(small_ds, tmp_path):
    out = tmp_path / "sev0"
    assert main(["corrupt", "--dataset", str(small_ds), "--channel", "feature",
                 "--severity-index", "0", "--out", str(out)]) == 0
    original = load_dataset(small_ds)
    copied = load_dataset(out / "manifest.json")
    assert copied.graph.features.tobytes() == original.graph.features.tobytes()
    sidecar = json.loads((out / "corrupt.json").read_text())
    assert sidecar["level"] is None and sidecar["severity_index"] == 0
    assert len(sidecar["key"]) == 16  # hex stream key


def test_corrupt_feature_perturbs_and_preserves_rest(small_ds, tmp_path):
    out = tmp_path / "sev3"
    assert main(["corrupt", "--dataset", str(small_ds), "--channel", "feature",
                 "--severity-index", "3", "--seed", "1", "--out", str(out)]) == 0
    original = load_dataset(small_ds)
    corrupted = load_dataset(out / "manifest.json")
    assert corrupted.graph.features.tobytes() != original.graph.features.tobytes()
    assert np.array_equal(corrupted.graph.labels, original.graph.labels)
    assert np.array_equal(corrupted.graph.neighbors, original.graph.neighbors)
    assert json.loads((out / "corrupt.json").read_text())["level"] == 0.5

    # identical invocation reproduces identical bytes
    out2 = tmp_path / "sev3_again"
    main(["corrupt", "--dataset", str(small_ds), "--channel", "feature",
          "--severity-index", "3", "--seed", "1", "--out", str(out2)])
    assert (out / "features.gsf").read_bytes() == (out2 / "features.gsf").read_bytes()


def test_corrupt_edge_outputs_nest(small_ds, tmp_path):
    edges = {}
    for idx in (1, 5):
        out = tmp_path / f"edge{idx}"
        assert main(["corrupt", "--dataset", str(small_ds), "--channel", "edge",
                     "--severity-index", str(idx), "--out", str(out)]) == 0
        g = load_dataset(out / "manifest.json").graph
        src, dst = g.arcs()
        edges[idx] = {(min(u, v), max(u, v)) for u, v in zip(src.tolist(), dst.tolist())}
    assert edges[5] <= edges[1]  # higher severity deletes a superset


def test_corrupt_bad_severity_exits_2(small_ds, tmp_path):
    assert main(["corrupt", "--dataset", str(small_ds), "--channel", "feature",
                 "--severity-index", "9", "--out", str(tmp_path / "x")]) == 2


def test_corrupt_missing_dataset_exits_2(tmp_path):
    assert main(["corrupt", "--dataset", str(tmp_path / "absent.json"),
                 "--channel", "edge", "--severity-index", "1",
                 "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_degree(small_ds, tmp_path):
    out = tmp_path / "deg"
    assert main(["split", "--mechanism", "degree", "--dataset", str(small_ds),
                 "--out", str(out)]) == 0
    ds = load_dataset(small_ds)
    split = read_split_file(out / "split.tsv", ds.graph.num_nodes)
    n = len(ds.graph.labeled_nodes())
    counts = split.counts()
    assert counts["train"] == int(0.6 * n)
    assert counts["ood_val"] == int(0.2 * n)
    assert json.loads((out / "split.json").read_text())["mechanism"] == "degree"


def test_split_temporal(small_ds, tmp_path):
    out = tmp_path / "temp"
    assert main(["split", "--mechanism", "temporal", "--dataset", str(small_ds),
                 "--out", str(out)]) == 0
    ds = load_dataset(small_ds)
    split = read_split_file(out / "split.tsv", ds.graph.num_nodes)
    years = ds.graph.meta.year
    train = split.units(Role.TRAIN)
    assert np.all(years[train] <= 2010)
    ood_test = split.units(Role.OOD_TEST)
    assert np.all(years[ood_test] >= 2017)


def test_split_scaffold(mol_ds, tmp_path):
    out = tmp_path / "scaf"
    assert main(["split", "--mechanism", "scaffold", "--dataset", str(mol_ds),
                 "--out", str(out)]) == 0
    ds = load_dataset(mol_ds)
    split = read_split_file(out / "split.tsv", ds.collection.num_graphs)
    ids = ds.collection.scaffold_ids
    for gid in np.unique(ids):
        assert len(np.unique(split.roles[ids == gid])) == 1


def test_split_scaffold_of_the_demo_molecules_has_a_test_set(tmp_path):
    # the 60-molecule seed-0 collection that scripts/make_synthetic_dataset.py writes
    manifest = save_dataset(make_molecule_collection(seed=0), tmp_path / "synthmol")
    assert main(["split", "--mechanism", "scaffold", "--dataset", str(manifest), "--seed", "0",
                 "--out", str(tmp_path / "scaf")]) == 0
    split = read_split_file(tmp_path / "scaf" / "split.tsv", 60)
    assert split.counts()["test"] > 0


def test_split_kg(kg_ds, tmp_path):
    out = tmp_path / "kg"
    assert main(["split", "--mechanism", "kg", "--dataset", str(kg_ds),
                 "--out", str(out)]) == 0
    for name in ("train_triples.tsv", "queries.tsv", "train_entities.tsv",
                 "test_entities.tsv"):
        assert (out / name).is_file()
    queries = [l.split("\t") for l in (out / "queries.tsv").read_text().splitlines()]
    assert all(len(q) == 4 for q in queries)
    train_entities = {int(l) for l in (out / "train_entities.tsv").read_text().split()}
    assert len(train_entities) == int(0.75 * 60)


# ---------------------------------------------------------------------------
# imbalance
# ---------------------------------------------------------------------------

def test_imbalance_command(small_ds, tmp_path):
    out = tmp_path / "imb"
    assert main(["imbalance", "--dataset", str(small_ds), "--rho", "10",
                 "--out", str(out)]) == 0
    ds = load_dataset(small_ds)
    reduced = read_split_file(out / "split.tsv", ds.graph.num_nodes)
    sidecar = json.loads((out / "imbalance.json").read_text())
    labels = ds.graph.labels
    kept_train = reduced.units(Role.TRAIN)
    for cls_str, target in sidecar["targets"].items():
        assert int(np.sum(labels[kept_train] == int(cls_str))) == target
    # val and test roles are untouched
    assert np.array_equal(reduced.units(Role.TEST), ds.split.units(Role.TEST))
    assert np.array_equal(reduced.units(Role.VAL), ds.split.units(Role.VAL))


def test_unlabeled_train_units_are_not_an_imbalance_class(tmp_path):
    # an unlabeled unit carries the label num_classes; as a train unit it must
    # neither be counted as a class nor be kept
    ds = make_node_dataset(name="imb", num_nodes=400, num_classes=4, seed=1)
    unlabeled = ds.split.units(Role.TRAIN)[:30]
    ds.graph.labels[unlabeled] = ds.graph.num_classes
    excluded = ds.split.roles.copy()
    excluded[unlabeled] = int(Role.EXCLUDED)
    written = {}
    for variant, split in (("unlabeled", ds.split), ("excluded", SplitAssignment(excluded))):
        ds.split = split
        manifest = save_dataset(ds, tmp_path / variant)
        out = tmp_path / f"{variant}_imb"
        assert main(["imbalance", "--dataset", str(manifest), "--rho", "10",
                     "--out", str(out)]) == 0
        written[variant] = [(out / name).read_bytes() for name in ("imbalance.json", "split.tsv")]
    assert written["unlabeled"] == written["excluded"]


# ---------------------------------------------------------------------------
# refmodel and fairness
# ---------------------------------------------------------------------------

EMIT = ["interpret", "emit", "--saliency", "SALIENCY"]
# the threshold is checked before the predictions are read
FAIRNESS = ["fairness", "--kind", "demographic", "--pred", "no.pred"]


@pytest.mark.parametrize("argv, error, words", [
    (["imbalance", "--rho", "0"], "ConfigError", "rhos"),
    (["imbalance", "--rho", "-5"], "ConfigError", "rhos"),
    (["imbalance", "--rho", "10", "--seed", "-3"], "ConfigError", "seeds"),
    (["corrupt", "--channel", "edge", "--severity-index", "1", "--seed", "-3"],
     "ConfigError", "seeds"),
    (["split", "--mechanism", "degree", "--seed", "-3"], "ConfigError", "seeds"),
    ([*EMIT, "--seed", "-3"], "ConfigError", "seeds"),
    ([*EMIT, "--num-targets", "-1"], "ConfigError", "interpret_targets"),
    ([*EMIT, "--num-targets", "0"], "ConfigError", "interpret_targets"),
    ([*EMIT, "--k", "0,200"], "ConfigError", "k_levels"),
    ([*EMIT, "--k", "5,x"], "ConfigError", "--k"),
    ([*EMIT, "--hops", "0"], "ConfigError", "hops"),
    ([*EMIT, "--targets", "a,b"], "ConfigError", "--targets"),
    ([*EMIT, "--targets", "99999"], "BadId", "99999"),
    ([*EMIT, "--targets", "3,-1"], "BadId", "-1"),
    ([*FAIRNESS, "--threshold", "5"], "ConfigError", "threshold"),
    ([*FAIRNESS, "--threshold", "nan"], "ConfigError", "threshold"),
    ([*FAIRNESS, "--quantile", "0.7"], "ConfigError", "head_tail_quantile"),
    ([*FAIRNESS, "--quantile", "nan"], "ConfigError", "head_tail_quantile"),
    (["refmodel", "--hops", "0"], "ConfigError", "hops"),
    (["refmodel", "--alpha", "nan"], "ConfigError", "alpha"),
    (["refmodel", "--alpha", "inf"], "ConfigError", "alpha"),
    (["refmodel", "--alpha", "0"], "ConfigError", "alpha"),
    (["corrupt", "--channel", "edge", "--severity-index", "9"], "ConfigError", "severity_index"),
    (["corrupt", "--channel", "feature", "--severity-index", "-1"], "ConfigError",
     "severity_index"),
], ids=["rho-0", "rho-negative", "imbalance-seed", "corrupt-seed", "split-seed", "emit-seed",
        "emit-num-targets-negative", "emit-num-targets-0", "emit-k-out-of-range",
        "emit-k-not-a-number", "emit-hops-0", "emit-targets-not-numbers",
        "emit-target-too-large", "emit-target-negative", "fairness-threshold-5",
        "fairness-threshold-nan", "fairness-quantile-0.7", "fairness-quantile-nan",
        "refmodel-hops-0", "refmodel-alpha-nan", "refmodel-alpha-inf", "refmodel-alpha-0",
        "corrupt-severity-9", "corrupt-severity-negative"])
def test_out_of_range_subcommand_flag_exits_2(small_ds, tmp_path, capsys, monkeypatch, argv,
                                              error, words):
    loads = []
    real = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", lambda *a: loads.append(a) or real(*a))
    saliency = tmp_path / "saliency.tsv"
    write_saliency_file(saliency, SaliencyTable("node_grad_norm", np.arange(150), np.ones(150)))
    out = tmp_path / "out"
    argv = [str(saliency) if a == "SALIENCY" else a for a in argv]
    assert main([*argv, "--dataset", str(small_ds), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert error in err and words in err
    assert not out.exists()
    if error == "ConfigError":  # a bad flag value is caught before the dataset loads
        assert not loads


def test_refmodel_then_fairness(small_ds, tmp_path):
    pred = tmp_path / "ref.pred"
    assert main(["refmodel", "--dataset", str(small_ds), "--out", str(pred)]) == 0
    table = read_prediction_file(pred)
    ds = load_dataset(small_ds)
    assert len(table.unit_ids) == ds.graph.num_nodes
    assert np.allclose(table.rows.sum(axis=1), 1.0)

    fair = tmp_path / "fair.json"
    assert main(["fairness", "--dataset", str(small_ds), "--kind", "structural",
                 "--pred", str(pred), "--out", str(fair)]) == 0
    result = json.loads(fair.read_text())
    assert "head_tail_gap_pp" in result
    assert result["head_size"] == result["tail_size"] > 0

    demo = tmp_path / "demo.json"
    assert main(["fairness", "--dataset", str(small_ds), "--kind", "demographic",
                 "--pred", str(pred), "--out", str(demo)]) == 0
    gaps = json.loads(demo.read_text())
    assert 0.0 <= gaps["d_sp"] <= 1.0


def test_node_dataset_without_split_exits_2(tmp_path, capsys):
    ds = make_node_dataset(name="nosplit", num_nodes=60, num_classes=2, seed=4)
    ds.split = None
    manifest = save_dataset(ds, tmp_path / "nosplit")
    assert main(["imbalance", "--dataset", str(manifest), "--rho", "10",
                 "--out", str(tmp_path / "imb")]) == 2
    assert main(["refmodel", "--dataset", str(manifest),
                 "--out", str(tmp_path / "ref.pred")]) == 2
    assert "MissingInput" in capsys.readouterr().err

    # in a run the same cause is a named MissingInput cell failure
    config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=1,
                           axes=["imbalance"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    log = (out / "errors.log").read_text()
    assert "MissingInput" in log and "split" in log


@pytest.fixture(scope="module")
def unlabeled_ds(tmp_path_factory):
    """A 200-node graph saved without labels: its manifest has no label_file."""
    ds = make_node_dataset(name="nolab", num_nodes=200, seed=2)
    ds.graph = replace(ds.graph, labels=None, num_classes=0)
    return save_dataset(ds, tmp_path_factory.mktemp("nolab") / "nolab")


def test_an_unlabeled_node_graph_fails_each_cell_that_reads_labels(unlabeled_ds, tmp_path,
                                                                   monkeypatch):
    # the operators and the external attribution cell that read no label still run
    monkeypatch.chdir(tmp_path)
    assert main(["corrupt", "--dataset", str(unlabeled_ds), "--channel", "edge",
                 "--severity-index", "2", "--out", "corrupt"]) == 0
    assert main(["split", "--mechanism", "temporal", "--dataset", str(unlabeled_ds),
                 "--out", "split"]) == 0
    files = Path("preds/nolab/interpret")
    files.mkdir(parents=True)
    write_saliency_file(files / "seed0.saliency",
                        SaliencyTable("node_grad_norm", np.arange(200), np.arange(200) % 7 / 7))
    assert main(["interpret", "emit", "--dataset", str(unlabeled_ds), "--saliency",
                 str(files / "seed0.saliency"), "--num-targets", "3", "--out", "emit"]) == 0
    targets = json.loads(Path("emit/emit.json").read_text())["targets"]
    write_probs_file(files / "seed0.probs", {
        (t, c): 0.5 for t in targets
        for c in ["clean", *read_manifest_file(f"emit/target_{t}.manifest").conditions]})
    config = _write_config(Path("config.json"), manifest=unlabeled_ds, seeds=[0],
                           methods=[{"kind": "refmodel", "name": "refmodel"},
                                    {"kind": "external", "name": "m_ext", "pred_dir": "preds",
                                     "has_saliency": True}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    log = Path("r/errors.log").read_text().splitlines()
    failed = [(axis, "refmodel") for axis in cli.AXES] + [
        (axis, "m_ext") for axis in cli.AXES if axis != "interpret"]
    assert sorted(log) == sorted(
        f"({axis}, nolab, {method}, seed 0)\tMissingInput: nolab: no node labels (label_file) "
        "in its manifest" for axis, method in failed)
    assert {k[1] for k in load_report(Path("r/report.json")).cells} == {
        f"char_{r}_{k}" for r in RANKINGS for k in (5, 10, 20, 50)} | {
        f"delta_char_{k}" for k in (5, 10, 20, 50)}


@pytest.mark.parametrize("argv", [
    ["refmodel"], ["imbalance", "--rho", "10"],
    ["fairness", "--kind", "structural", "--pred", "any.pred"],
    ["fairness", "--kind", "demographic", "--pred", "any.pred"],
], ids=["refmodel", "imbalance", "fairness-structural", "fairness-demographic"])
def test_a_labels_reading_subcommand_on_an_unlabeled_graph_exits_2(unlabeled_ds, tmp_path,
                                                                    monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_prediction_file("any.pred", PredictionTable(np.arange(200), np.full((200, 2), 0.5)))
    assert main(argv + ["--dataset", str(unlabeled_ds), "--out", "out"]) == 2
    assert ("error: MissingInput: nolab: no node labels (label_file) in its manifest"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# interpret emit / score
# ---------------------------------------------------------------------------

def test_interpret_emit_and_score(small_ds, tmp_path):
    ds = load_dataset(small_ds)
    rng = np.random.default_rng(0)
    sal_path = tmp_path / "saliency.tsv"
    write_saliency_file(sal_path, SaliencyTable(
        "node_grad_norm", np.arange(ds.graph.num_nodes), rng.random(ds.graph.num_nodes)))

    man_dir = tmp_path / "manifests"
    assert main(["interpret", "emit", "--dataset", str(small_ds),
                 "--saliency", str(sal_path), "--num-targets", "3",
                 "--out", str(man_dir)]) == 0
    meta = json.loads((man_dir / "emit.json").read_text())
    assert meta["k_levels"] == [5, 10, 20, 50]
    assert len(meta["targets"]) + len(meta["skipped"]) == 3

    # external model stand-in: strong saliency effect, weak random effect
    probs = {}
    for t in meta["targets"]:
        manifest = read_manifest_file(man_dir / f"target_{t}.manifest")
        probs[(t, "clean")] = 0.9
        for name in manifest.conditions:
            if name.startswith("saliency_top"):
                probs[(t, name)] = 0.2
            elif name.startswith("saliency_comp"):
                probs[(t, name)] = 0.85
            elif name.startswith("random_top"):
                probs[(t, name)] = 0.6
            else:
                probs[(t, name)] = 0.6
    probs_path = tmp_path / "rescored.tsv"
    write_probs_file(probs_path, probs)

    scored = tmp_path / "fidelity.json"
    assert main(["interpret", "score", "--manifest", str(man_dir),
                 "--probs", str(probs_path), "--out", str(scored)]) == 0
    payload = json.loads(scored.read_text())
    assert payload["n_targets"] == len(meta["targets"])
    for k in (5, 10, 20, 50):
        sal = payload["cells"][f"char_saliency_{k}"]
        rand = payload["cells"][f"char_random_{k}"]
        delta = payload["cells"][f"delta_char_{k}"]
        assert sal["mean"] > rand["mean"]
        assert delta["mean"] == pytest.approx(sal["mean"] - rand["mean"])

    # a probs file missing one condition names the gap and exits 2
    del probs[(meta["targets"][0], "saliency_top_5")]
    write_probs_file(probs_path, probs)
    assert main(["interpret", "score", "--manifest", str(man_dir),
                 "--probs", str(probs_path), "--out", str(scored)]) == 2


def test_interpret_score_without_targets_writes_undefined_cells(tmp_path):
    man_dir = tmp_path / "manifests"
    man_dir.mkdir()
    (man_dir / "emit.json").write_text(json.dumps(
        {"k_levels": [5, 10], "targets": [], "skipped": [3, 4]}))
    probs_path = tmp_path / "rescored.tsv"
    write_probs_file(probs_path, {})
    scored = tmp_path / "fidelity.json"
    assert main(["interpret", "score", "--manifest", str(man_dir),
                 "--probs", str(probs_path), "--out", str(scored)]) == 0
    payload = json.loads(scored.read_text())
    assert payload["n_targets"] == 0 and payload["records"] == {}
    assert sorted(payload["cells"]) == sorted(
        f"{name}_{k}" for name in ("char_saliency", "char_random", "delta_char")
        for k in (5, 10))
    assert all(cell["undefined"] for cell in payload["cells"].values())


@pytest.mark.parametrize("change, code, words", [
    ({}, 0, ""),
    ({(7, "clean"): 0.5}, 2, "BadId: x.probs has a row for target 7, condition clean"),
    ({(3, "saliency_top_7"): 0.5}, 2, "target 3, condition saliency_top_7"),
    ({(3, "random_comp_5"): None}, 2, "MissingInput: x.probs lacks the random_comp_5"),
], ids=["exact", "added-target", "unknown-condition", "missing-condition"])
def test_interpret_score_needs_exactly_the_emitted_rows(tmp_path, monkeypatch, capsys, change,
                                                        code, words):
    monkeypatch.chdir(tmp_path)
    Path("m").mkdir()
    Path("m/emit.json").write_text(json.dumps({"k_levels": [5], "targets": [3], "skipped": []}))
    probs = {(3, c): 0.5 for c in ("saliency_top_5", "saliency_comp_5", "random_top_5",
                                   "random_comp_5")}
    probs[(3, "clean")] = 0.9
    probs.update(change)
    write_probs_file("x.probs", {key: p for key, p in probs.items() if p is not None})
    assert main(["interpret", "score", "--manifest", "m", "--probs", "x.probs",
                 "--out", "f.json"]) == code
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("change, error", [
    ("exact", None), ("drop-hardest", "MissingInput"), ("added-target", "BadId"),
    ("no-saliency", "MissingInput")])
def test_run_scores_an_external_interpret_cell_on_the_harness_targets(small_ds, tmp_path,
                                                                      monkeypatch, change, error):
    # the method's probs answer the manifests `stress interpret emit` writes for its saliency
    monkeypatch.chdir(tmp_path)
    files = Path("preds/tiny/interpret")
    files.mkdir(parents=True)
    saliency = files / "seed0.saliency"
    write_saliency_file(saliency, SaliencyTable("node_grad_norm", np.arange(150),
                                                np.arange(150) * 37 % 101 / 101))
    assert main(["interpret", "emit", "--dataset", str(small_ds), "--saliency", str(saliency),
                 "--num-targets", "3", "--out", "emit"]) == 0
    targets = json.loads(Path("emit/emit.json").read_text())["targets"]
    assert len(targets) > 1
    rng = np.random.default_rng(1)
    probs = {(t, c): float(rng.random()) for t in targets
             for c in ["clean", *read_manifest_file(f"emit/target_{t}.manifest").conditions]}
    write_probs_file("all.probs", probs)
    assert main(["interpret", "score", "--manifest", "emit", "--probs", "all.probs",
                 "--out", "score.json"]) == 0
    scored = json.loads(Path("score.json").read_text())
    # the hardest target: the lowest saliency char summed over k
    hardest = min(targets, key=lambda t: sum(v for c, v in scored["records"][str(t)].items()
                                             if c.startswith("saliency_char_")))
    named = None  # what the failed cell's error names
    if change == "drop-hardest":
        probs = {key: p for key, p in probs.items() if key[0] != hardest}
        named = f"target {hardest}"
    elif change == "added-target":
        extra = int(load_dataset(small_ds).split.units(Role.TEST)[3])
        probs.update({(extra, c): p for (t, c), p in probs.items() if t == targets[0]})
        named = f"target {extra}"
    elif change == "no-saliency":
        saliency.unlink()
        named = str(saliency)
    write_probs_file(files / "seed0.probs", probs)
    config = _write_config(Path("config.json"), manifest=small_ds, seeds=[0], axes=["interpret"],
                           write_operator_outputs=True,
                           methods=[{"kind": "external", "name": "m_ext", "pred_dir": "preds",
                                     "has_saliency": True}])
    code = main(["run", "--config", str(config), "--out", "r"])
    if error is not None:
        assert code == 1
        log = Path("r/errors.log").read_text()
        assert error in log and named in log
        return
    assert code == 0
    report = load_report(Path("r/report.json"))
    for name, cell in scored["cells"].items():
        assert report.cells["interpret", name, "tiny", "m_ext"].mean == cell["mean"], name
    ops = Path("r/ops/tiny/interpret_seed0")
    assert sorted(p.name for p in ops.iterdir()) == sorted(f"target_{t}.manifest" for t in targets)
    for path in ops.iterdir():
        assert path.read_bytes() == (Path("emit") / path.name).read_bytes()


@pytest.mark.parametrize("table", ["pred", "probs", "saliency"])
def test_a_repeated_key_in_an_external_table_exits_2_or_fails_its_cell(small_ds, tmp_path,
                                                                       monkeypatch, capsys, table):
    monkeypatch.chdir(tmp_path)
    files = Path("preds/tiny/interpret")
    files.mkdir(parents=True)
    saliency, probs = files / "seed0.saliency", files / "seed0.probs"
    write_saliency_file(saliency, SaliencyTable("node_grad_norm", np.arange(150),
                                                np.arange(150) * 37 % 101 / 101))
    assert main(["interpret", "emit", "--dataset", str(small_ds), "--saliency", str(saliency),
                 "--num-targets", "3", "--out", "emit"]) == 0
    t = json.loads(Path("emit/emit.json").read_text())["targets"][0]
    conditions = read_manifest_file(f"emit/target_{t}.manifest").conditions
    write_probs_file(probs, {(t, c): 0.5 for c in ["clean", *conditions]})
    pred = Path("preds/tiny/fairness/clean/seed0.pred")
    assert main(["refmodel", "--dataset", str(small_ds), "--out", str(pred)]) == 0
    # a second row of one key, appended after the first
    repeated, line, named, argv = {
        "pred": (pred, pred.read_text().splitlines()[1] + "\n", "unit id 0",
                 ["fairness", "--dataset", str(small_ds), "--kind", "structural",
                  "--pred", str(pred), "--out", "f.json"]),
        "probs": (probs, f"{t}\tclean\t0.1\n", f"target {t}, condition clean",
                  ["interpret", "score", "--manifest", "emit", "--probs", str(probs),
                   "--out", "f.json"]),
        "saliency": (saliency, "5\t0.5\n", "unit id 5",
                     ["interpret", "emit", "--dataset", str(small_ds), "--saliency",
                      str(saliency), "--targets", str(t), "--out", "emit2"]),
    }[table]
    with open(repeated, "a") as f:
        f.write(line)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"LengthMismatch: {repeated}: {named}" in err
    config = _write_config(Path("config.json"), manifest=small_ds, seeds=[0],
                           axes=["fairness" if table == "pred" else "interpret"],
                           interpret_targets=1,
                           methods=[{"kind": "external", "name": "m_ext", "pred_dir": "preds",
                                     "has_saliency": True}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    assert f"LengthMismatch: {repeated}: {named}" in Path("r/errors.log").read_text()


def test_interpret_score_without_emit_json_exits_2(tmp_path, capsys):
    man_dir = tmp_path / "manifests"
    man_dir.mkdir()
    probs_path = tmp_path / "rescored.tsv"
    write_probs_file(probs_path, {})
    assert main(["interpret", "score", "--manifest", str(man_dir),
                 "--probs", str(probs_path), "--out", str(tmp_path / "fidelity.json")]) == 2
    err = capsys.readouterr().err
    assert "MissingFile" in err and "emit.json" in err


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("document, change, named", [
    ("manifest", lambda m: [m], "must be a JSON object"),
    ("manifest", _without("num_nodes"), "lacks the key 'num_nodes'"),
    ("manifest", _without("edge_file"), "lacks the key 'edge_file'"),
    ("manifest", lambda m: {**m, "num_nodes": "x"}, "num_nodes must be a non-negative integer"),
    ("manifest", lambda m: {**m, "num_classes": -1}, "num_classes must be a non-negative"),
    ("manifest", lambda m: {**m, "label_file": 3}, "label_file must be a string"),
    ("manifest", lambda m: {**m, "name": 5}, "name must be a string"),
    ("manifest", lambda m: {**m, "undirected": "false"}, "undirected must be true or false"),
    ("manifest", lambda m: {**m, "kind": [m["kind"]]}, "kind must be one of node_graph"),
    ("values", "{", "does not parse as JSON"),
    ("values", _without("subcondition"), "lacks the key 'subcondition'"),
    ("values", lambda r: {**r, "values": 5}, 'values must be a list of numbers, null or "inap'),
    ("values", lambda r: {**r, "values": ["abc"]}, "values must be a list of numbers"),
    ("values", lambda r: {**r, "axis": 3}, "axis must be a string, got 3"),
    ("emit", "{", "does not parse as JSON"),
    ("emit", _without("k_levels"), "lacks the key 'k_levels'"),
    ("emit", lambda e: {**e, "k_levels": 5}, "k_levels must be a non-empty list of distinct"),
    ("emit", lambda e: {**e, "targets": [3, -1]}, "targets must be a list of non-negative"),
], ids=["manifest-list", "manifest-no-num-nodes", "manifest-no-edge-file",
        "manifest-num-nodes-string", "manifest-negative-count", "manifest-file-not-a-string",
        "manifest-name-not-a-string", "manifest-undirected-string", "manifest-kind-list",
        "values-no-parse", "values-no-subcondition", "values-not-a-list", "values-string",
        "values-axis-not-a-string", "emit-no-parse", "emit-no-k-levels", "emit-k-levels-int",
        "emit-negative-target"])
def test_malformed_json_input_exits_2(tmp_path, monkeypatch, capsys, document, change, named):
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_node_dataset(name="tiny", num_nodes=60, num_classes=2, seed=4),
                            Path("tiny"))
    path, doc, argv = {
        "manifest": (manifest, json.loads(manifest.read_text()),
                     ["refmodel", "--dataset", str(manifest), "--out", "x.pred"]),
        "values": (Path("r/values/fairness.head_tail_gap.tiny.refmodel.json"),
                   {"axis": "fairness", "subcondition": "head_tail_gap", "dataset": "tiny",
                    "method": "refmodel", "seeds": [0], "values": [1.0]},
                   ["report", "--results", "r", "--out", "rep"]),
        "emit": (Path("m/emit.json"), {"k_levels": [5], "targets": [], "skipped": []},
                 ["interpret", "score", "--manifest", "m", "--probs", "x.probs",
                  "--out", "f.json"]),
    }[document]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(change if isinstance(change, str) else json.dumps(change(doc)))
    write_probs_file("x.probs", {})
    assert main(argv) == 2
    assert f"LengthMismatch: {path}: {named}" in capsys.readouterr().err
    if document == "manifest":
        monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                            lambda self, job: pytest.fail(f"cell {job} ran"))
        config = _write_config(Path("config.json"), manifest=manifest, seeds=1)
        assert main(["run", "--config", str(config), "--out", "out"]) == 2
        assert f"LengthMismatch: {path}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("file", ["labels.tsv", "split.tsv", "meta.tsv", "graph_sizes.tsv",
                                  "graph_labels.tsv", "scaffolds.tsv"])
def test_a_repeated_id_in_a_dataset_file_exits_2(tmp_path, monkeypatch, capsys, file):
    monkeypatch.chdir(tmp_path)
    on_nodes = file in ("labels.tsv", "split.tsv", "meta.tsv")
    dataset = (make_node_dataset(name="tiny", num_nodes=60, num_classes=2, seed=4) if on_nodes
               else make_molecule_collection(name="tinymol", num_graphs=60, seed=4))
    manifest = save_dataset(dataset, Path("ds"))
    path = Path("ds") / file
    first = path.read_text().splitlines()[0]
    with open(path, "a") as f:
        f.write(first + "\n")  # the first id again, with its value
    what = "unit id" if file == "split.tsv" else "node id" if on_nodes else "graph id"
    named = f"LengthMismatch: {path}: {what} {first.split()[0]} has more than one row"
    monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                        lambda self, job: pytest.fail(f"cell {job} ran"))
    config = _write_config(Path("config.json"), manifest=manifest, seeds=1)
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    assert named in capsys.readouterr().err


def test_a_graph_missing_from_graph_sizes_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    dataset = make_molecule_collection(name="tinymol", num_graphs=8, seed=4)
    dataset.collection.graphs[3] = Graph.from_arcs(2, [], [])  # two atoms, no bonds
    manifest = save_dataset(dataset, Path("ds"))
    path = Path("ds") / "graph_sizes.tsv"
    rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join(rows[:3] + rows[4:]))  # no row for graph 3
    monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                        lambda self, job: pytest.fail(f"cell {job} ran"))
    config = _write_config(Path("config.json"), manifest=manifest, seeds=1)
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    assert (f"LengthMismatch: {path}: graph sizes must cover every graph; graph 3 has no row"
            in capsys.readouterr().err)


@pytest.mark.parametrize("change, named", [
    ("negative", "BadId: {path}: scaffold id -1 is negative"),
    ("no-row", "LengthMismatch: {path}: scaffold ids must cover every graph; graph 3 has no row"),
], ids=["negative", "no-row"])
def test_a_bad_scaffolds_file_exits_2_naming_it(tmp_path, monkeypatch, capsys, change, named):
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_molecule_collection(name="tinymol", num_graphs=8, seed=4),
                            Path("ds"))
    path = Path("ds") / "scaffolds.tsv"
    rows = path.read_text().splitlines(keepends=True)
    rows[3] = "3\t-1\n" if change == "negative" else ""
    path.write_text("".join(rows))
    monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                        lambda self, job: pytest.fail(f"cell {job} ran"))
    config = _write_config(Path("config.json"), manifest=manifest, seeds=1)
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    assert named.format(path=path) in capsys.readouterr().err


def test_a_collection_without_scaffold_ids_fails_its_ood_cells(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ds = make_molecule_collection(name="noscaf", num_graphs=20, seed=3)
    ds.collection.scaffold_ids = None
    manifest = save_dataset(ds, Path("ds"))
    missing = "MissingInput: noscaf: scaffold split needs scaffold ids (scaffold_file)"
    assert main(["split", "--mechanism", "scaffold", "--dataset", str(manifest),
                 "--out", "split"]) == 2
    assert f"error: {missing}" in capsys.readouterr().err
    config = _write_config(Path("config.json"), manifest=manifest, seeds=[0], axes=["ood"],
                           methods=[{"kind": "refmodel", "name": "refmodel"},
                                    {"kind": "external", "name": "m_ext", "pred_dir": "preds"}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    assert sorted(Path("r/errors.log").read_text().splitlines()) == [
        f"(ood, noscaf, {method}, seed 0)\t{missing}" for method in ("m_ext", "refmodel")]


def test_scaffold_auc_leaves_out_molecules_without_a_task_label(tmp_path, monkeypatch):
    # a missing label scored 1.0 would count as a negative ranked first; over the labeled
    # test molecules the scores are the true labels, so both AUCs are 100 and the gap 0
    monkeypatch.chdir(tmp_path)
    ds = make_molecule_collection(name="mol", num_graphs=400, seed=3)
    labels = ds.collection.labels[:, 0]
    labels[::3] = -1
    manifest = save_dataset(ds, Path("ds"))
    scores = np.where(labels < 0, 1.0, labels).astype(np.float64)
    for sub in ("scaffold", "random"):
        (Path("preds/mol/ood") / sub).mkdir(parents=True)
        write_prediction_file(Path("preds/mol/ood") / sub / "seed0.pred",
                              PredictionTable(np.arange(400), scores[:, None]))
    config = _write_config(Path("config.json"), manifest=manifest, seeds=[0], axes=["ood"],
                           methods=[{"kind": "external", "name": "m_ext", "pred_dir": "preds"}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 0
    values = {sub: json.loads(Path(f"r/values/ood.{sub}.mol.m_ext.json").read_text())["values"]
              for sub in ("scaffold_auc", "scaffold_gap")}
    assert values == {"scaffold_auc": [100.0], "scaffold_gap": [0.0]}
    # with no labeled test molecule left, the AUC is undefined: the cell fails
    ds.collection.labels[:, 0] = -1
    save_dataset(ds, Path("ds"))
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    assert "OneClassOnly" in Path("r/errors.log").read_text()


# ---------------------------------------------------------------------------
# pipeline runner
# ---------------------------------------------------------------------------

def test_run_refmodel_all_axes(small_ds, tmp_path, capsys):
    config = _write_config(tmp_path / "config.json", manifest=small_ds)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "report:" in printed

    report = load_report(out / "report.json")
    assert (out / "report.csv").is_file()
    assert len(report.cells) > 20
    # refmodel ignores features: feature cells are inapplicable, edge cells real
    assert report.cells["corruption", "feature_sev1", "tiny", "refmodel"].note == "inapplicable"
    edge = report.cells["corruption", "edge_sev5", "tiny", "refmodel"]
    assert not edge.undefined and 0.0 <= edge.mean <= 100.0
    clean = report.cells["corruption", "clean", "tiny", "refmodel"]
    drop = report.cells["corruption", "edge_drop", "tiny", "refmodel"]
    assert drop.mean == pytest.approx(clean.mean - edge.mean, abs=1e-9)
    assert clean.n == 2  # two seeds
    # interpret lift cells were derived
    assert not report.cells["interpret", "delta_char_5", "tiny", "refmodel"].undefined
    # per-cell value files exist
    assert (out / "values" / "corruption.clean.tiny.refmodel.json").is_file()


def test_run_is_idempotent_and_worker_invariant(small_ds, tmp_path):
    config = _write_config(tmp_path / "config.json", manifest=small_ds,
                           write_operator_outputs=True, seeds=1)
    outs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out)

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    base = tree(outs[0])
    assert base  # includes report + values + operator outputs
    assert any(p.startswith("ops/") for p in base)
    assert tree(outs[1]) == base  # rerun: byte-identical
    assert tree(outs[2]) == base  # more workers: byte-identical


def test_run_external_method_with_predictions(small_ds, tmp_path):
    ds = load_dataset(small_ds)
    g = ds.graph
    rng = np.random.default_rng(5)
    rows = rng.random((g.num_nodes, 2))
    rows /= rows.sum(axis=1, keepdims=True)
    table = PredictionTable(np.arange(g.num_nodes), rows)

    pred_dir = tmp_path / "preds"
    subs = {
        "corruption": ["clean"] + [f"feature_sev{i}" for i in range(1, 6)]
        + [f"edge_sev{i}" for i in range(1, 6)],
        "ood": ["degree", "temporal"],
        "imbalance": ["rho5", "rho10", "rho20"],
        "fairness": ["clean"],
    }
    for axis, names in subs.items():
        for sub in names:
            d = pred_dir / "tiny" / axis / sub
            d.mkdir(parents=True)
            write_prediction_file(d / "seed0.pred", table)

    config = _write_config(
        tmp_path / "config.json", manifest=small_ds, seeds=1,
        methods=[{"kind": "external", "name": "m_ext", "pred_dir": str(pred_dir)}])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    # feature cells are real for a feature-consuming method
    assert not report.cells["corruption", "feature_sev5", "tiny", "m_ext"].undefined
    # no saliency interface: interpretation cells are inapplicable, not errors
    assert report.cells["interpret", "char_saliency_5", "tiny", "m_ext"].note == "inapplicable"


def test_run_missing_predictions_fails_with_named_cell(small_ds, tmp_path, capsys):
    config = _write_config(
        tmp_path / "config.json", manifest=small_ds, seeds=1,
        axes=["corruption"],
        methods=[{"kind": "external", "name": "m_ext",
                  "pred_dir": str(tmp_path / "nowhere")}])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "cell failed" in err
    log = (out / "errors.log").read_text()
    assert "corruption" in log and "tiny" in log and "m_ext" in log
    assert "MissingInput" in log


def test_run_partial_failure_still_writes_good_cells(small_ds, tmp_path):
    # refmodel succeeds while the external method starves: values for the
    # good cells land on disk even though the run exits 1
    config = _write_config(
        tmp_path / "config.json", manifest=small_ds, seeds=1, axes=["fairness"],
        methods=[{"kind": "refmodel", "name": "refmodel"},
                 {"kind": "external", "name": "m_ext",
                  "pred_dir": str(tmp_path / "nowhere")}])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert (out / "values" / "fairness.head_tail_gap.tiny.refmodel.json").is_file()
    log_lines = (out / "errors.log").read_text().splitlines()
    assert len(log_lines) == 1 and "m_ext" in log_lines[0]
    assert "refmodel" not in log_lines[0]


def test_reused_out_holds_only_the_last_run(small_ds, tmp_path, monkeypatch):
    # a run with ops/, a failed cell's errors.log and corruption values, then
    # a fairness-only run into the same directory given as "."
    results = tmp_path / "results"
    first = _write_config(
        tmp_path / "first.json", manifest=small_ds, seeds=1, axes=["corruption", "fairness"],
        write_operator_outputs=True,
        methods=[{"kind": "refmodel", "name": "refmodel"},
                 {"kind": "external", "name": "m_ext", "pred_dir": str(tmp_path / "nowhere")}])
    assert main(["run", "--config", str(first), "--out", str(results)]) == 1
    assert (results / "ops").is_dir() and (results / "errors.log").is_file()
    (results / "notes.txt").write_text("mine\n")
    (results / "keep").mkdir()
    second = _write_config(tmp_path / "second.json", manifest=small_ds, seeds=1,
                           axes=["fairness"])
    monkeypatch.chdir(results)
    assert main(["run", "--config", str(second), "--out", "."]) == 0
    assert sorted(p.name for p in results.iterdir()) == [
        "keep", "notes.txt", "report.csv", "report.json", "values"]
    assert (results / "notes.txt").read_text() == "mine\n"
    assert all(p.name.startswith("fairness.") for p in (results / "values").iterdir())
    assert main(["report", "--results", ".", "--out", str(tmp_path / "rebuilt")]) == 0
    assert {k[0] for k in load_report(tmp_path / "rebuilt.json").cells} == {"fairness"}


def _failed_interpret_cell(tmp_path, ds) -> str:
    """The one errors.log line of a refmodel interpret run on ds, named "arcs"."""
    config = _write_config(tmp_path / "config.json", manifest=save_dataset(ds, tmp_path / "arcs"),
                           seeds=1, axes=["interpret"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 1 and "(interpret, arcs, refmodel, seed 0)" in log[0]
    return log[0]


def test_directed_graph_fails_the_refmodel_interpret_cell(tmp_path):
    # masking removes undirected edges; a directed graph is a named cell failure
    ds = make_node_dataset(name="arcs", num_nodes=150, num_classes=2, seed=3)
    ds.graph.undirected = False
    assert "DirectedGraph" in _failed_interpret_cell(tmp_path, ds)


def test_directed_graph_fails_interpret_emit_and_an_external_interpret_cell(tmp_path, monkeypatch,
                                                                           capsys):
    # a one-way arc is in no maskable edge list, so no method is scored on such masks
    monkeypatch.chdir(tmp_path)
    ds = make_node_dataset(name="arcs", num_nodes=150, num_classes=2, seed=3)
    ds.graph.undirected = False
    manifest = save_dataset(ds, tmp_path / "arcs")
    files = Path("preds/arcs/interpret")
    files.mkdir(parents=True)
    saliency = files / "seed0.saliency"
    write_saliency_file(saliency, SaliencyTable("node_grad_norm", np.arange(150),
                                                np.arange(150) * 37 % 101 / 101))
    assert main(["interpret", "emit", "--dataset", str(manifest), "--saliency", str(saliency),
                 "--num-targets", "1", "--out", "emit"]) == 2
    assert "error: DirectedGraph" in capsys.readouterr().err
    assert not Path("emit/emit.json").exists()
    # probs a scorer could read for the first test target, so only masking can fail the cell
    t = int(ds.split.units(Role.TEST)[0])
    write_probs_file(files / "seed0.probs", {
        (t, c): 0.5 for c in ["clean", *(condition_name(r, side, k) for r in RANKINGS
                                         for side in ("top", "comp") for k in (5, 10, 20, 50))]})
    config = _write_config(Path("config.json"), manifest=manifest, seeds=[0], axes=["interpret"],
                           interpret_targets=1,
                           methods=[{"kind": "external", "name": "m_ext", "pred_dir": "preds",
                                     "has_saliency": True}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    log = Path("r/errors.log").read_text().splitlines()
    assert len(log) == 1 and "(interpret, arcs, m_ext, seed 0)" in log[0]
    assert "DirectedGraph" in log[0]


def _isolated_first_target(tmp_path, name: str, in_test: bool = True) -> tuple:
    """(manifest, t): a graph "iso" whose first test node t has no edge; with in_test
    false, t is excluded from the split instead, and every other role stays."""
    ds = make_node_dataset(name="iso", num_nodes=150, num_classes=2, seed=3)
    g = ds.graph
    t = int(ds.split.units(Role.TEST)[0])
    keys = g.edge_keys()
    ds.graph = remove_edges(g, (keys // g.num_nodes == t) | (keys % g.num_nodes == t))
    if not in_test:
        ds.split.roles[t] = int(Role.EXCLUDED)
    return save_dataset(ds, tmp_path / name), t


def test_a_target_without_edges_is_skipped_by_emit_and_fails_an_external_row(tmp_path,
                                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest, t = _isolated_first_target(tmp_path, "iso")
    files = Path("preds/iso/interpret")
    files.mkdir(parents=True)
    write_saliency_file(files / "seed0.saliency",
                        SaliencyTable("node_grad_norm", np.arange(150), np.arange(150) % 7 / 7))
    assert main(["interpret", "emit", "--dataset", str(manifest), "--saliency",
                 str(files / "seed0.saliency"), "--num-targets", "3", "--out", "emit"]) == 0
    emitted = json.loads(Path("emit/emit.json").read_text())
    test = load_dataset(manifest).split.units(Role.TEST)
    assert emitted["skipped"] == [t] and emitted["targets"] == test[1:3].tolist()
    assert not Path(f"emit/target_{t}.manifest").exists()
    # probs for every emitted target, plus the skipped one's: no manifest holds that row
    conditions = ["clean", *read_manifest_file(f"emit/target_{test[1]}.manifest").conditions]
    write_probs_file(files / "seed0.probs",
                     {(u, c): 0.5 for u in [t, *emitted["targets"]] for c in conditions})
    config = _write_config(Path("config.json"), manifest=manifest, seeds=[0], axes=["interpret"],
                           methods=[{"kind": "external", "name": "m_ext", "pred_dir": "preds",
                                     "has_saliency": True}])
    assert main(["run", "--config", str(config), "--out", "r"]) == 1
    log = Path("r/errors.log").read_text()
    assert "(interpret, iso, m_ext, seed 0)\tBadId" in log and f"target {t}," in log


def test_the_refmodel_interpret_cell_averages_the_targets_left_after_a_skip(tmp_path):
    # the same graph with the edgeless target out of the test set and one target fewer
    results = {}
    for in_test, targets in ((True, 3), (False, 2)):
        manifest, _ = _isolated_first_target(tmp_path, f"iso_{in_test}", in_test)
        config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=2,
                               axes=["interpret"], interpret_targets=targets)
        out = tmp_path / f"r_{in_test}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        results[in_test] = {p.name: p.read_bytes() for p in (out / "values").iterdir()}
    assert results[True] == results[False] and len(results[True]) == 8


def test_a_graph_without_years_has_an_inapplicable_temporal_cell(tmp_path):
    ds = make_node_dataset(name="noyears", num_nodes=150, num_classes=2, seed=3)
    ds.graph.meta.year = None
    config = _write_config(tmp_path / "config.json", manifest=save_dataset(ds, tmp_path / "ds"),
                           seeds=1, axes=["ood"])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    cells = load_report(tmp_path / "r" / "report.json").cells
    assert cells["ood", "temporal", "noyears", "refmodel"].note == cli.INAPPLICABLE
    assert not cells["ood", "degree", "noyears", "refmodel"].undefined


@pytest.mark.parametrize("field, argv, named", [
    ("year", ["split", "--mechanism", "temporal"], "temporal split needs per-node years"),
    ("features", ["corrupt", "--channel", "feature", "--severity-index", "1"],
     "feature noise needs node features"),
    ("sensitive_attr", ["fairness", "--kind", "demographic", "--pred", "any.pred"],
     "demographic gaps need a sensitive attribute"),
], ids=["years", "features", "sensitive-attribute"])
def test_an_operator_without_its_node_field_exits_2(tmp_path, monkeypatch, capsys, field, argv,
                                                    named):
    monkeypatch.chdir(tmp_path)
    ds = make_node_dataset(name="lacking", num_nodes=60, num_classes=2, seed=4)
    setattr(ds.graph if field == "features" else ds.graph.meta, field, None)
    manifest = save_dataset(ds, Path("ds"))
    write_prediction_file("any.pred", PredictionTable(np.arange(60), np.full((60, 2), 0.5)))
    assert main(argv + ["--dataset", str(manifest), "--out", "out"]) == 2
    assert f"error: MissingInput: lacking: {named}" in capsys.readouterr().err


def test_split_without_train_nodes_fails_the_refmodel_interpret_cell(tmp_path):
    ds = make_node_dataset(name="arcs", num_nodes=150, num_classes=2, seed=3)
    ds.split.roles[ds.split.roles == int(Role.TRAIN)] = int(Role.EXCLUDED)
    assert "NoTrainLabels" in _failed_interpret_cell(tmp_path, ds)


def test_one_sided_sensitive_attribute_keeps_head_tail_gap(tmp_path):
    ds = make_node_dataset(name="onesided", num_nodes=150, num_classes=2, seed=3)
    ds.graph.meta.sensitive_attr[:] = 0
    manifest = save_dataset(ds, tmp_path / "onesided")
    config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=1,
                           axes=["fairness"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    gap = report.cells["fairness", "head_tail_gap", "onesided", "refmodel"]
    assert not gap.undefined
    for sub in ("d_sp", "d_eo", "d_util"):
        cell = report.cells["fairness", sub, "onesided", "refmodel"]
        assert cell.undefined and cell.note != "inapplicable"
        rec = json.loads((out / "values" / f"fairness.{sub}.onesided.refmodel.json").read_text())
        assert rec["values"] == [None]


def test_a_test_split_without_a_minor_class_leaves_its_recall_undefined(tmp_path):
    # a group with no test support has no recall; the run still writes every cell
    ds = make_node_dataset(name="skew", num_nodes=300, num_classes=2, seed=3)
    train_counts = np.bincount(ds.graph.labels[ds.split.units(Role.TRAIN)], minlength=2)
    (major,), _ = partition_classes(train_counts)
    ds.graph.labels[ds.split.units(Role.TEST)] = major
    config = _write_config(tmp_path / "config.json", manifest=save_dataset(ds, tmp_path / "skew"),
                           seeds=1, axes=["imbalance"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    for rho in (5, 10, 20):
        assert not report.cells["imbalance", f"rho{rho}_major_recall", "skew", "refmodel"].undefined
        cell = report.cells["imbalance", f"rho{rho}_minor_recall", "skew", "refmodel"]
        assert cell.undefined and cell.note != "inapplicable"
        rec = json.loads((out / "values" / f"imbalance.rho{rho}_minor_recall.skew.refmodel.json")
                         .read_text())
        assert rec["values"] == [None]


def test_an_unlabeled_test_unit_fails_the_cells_that_score_the_test_split(tmp_path, capsys):
    ds = make_node_dataset(name="one", num_nodes=150, num_classes=2, seed=3)
    unit = int(ds.split.units(Role.TEST)[2])
    ds.graph.labels[unit] = ds.graph.num_classes
    manifest = save_dataset(ds, tmp_path / "one")
    config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=[0])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert sorted((out / "errors.log").read_text().splitlines()) == [
        f"({axis}, one, refmodel, seed 0)\tMissingInput: one: test unit {unit} has no label"
        for axis in ("corruption", "fairness", "imbalance")]
    computed = {cell[:2] for cell in load_report(out / "report.json").cells}
    assert ("ood", "degree") in computed and ("interpret", "char_saliency_5") in computed
    assert {axis for axis, _ in computed} == {"ood", "interpret"}

    pred = tmp_path / "ref.pred"
    assert main(["refmodel", "--dataset", str(manifest), "--out", str(pred)]) == 0
    capsys.readouterr()
    assert main(["fairness", "--dataset", str(manifest), "--kind", "structural",
                 "--pred", str(pred), "--out", str(tmp_path / "fair.json")]) == 2
    assert (f"error: MissingInput: one: test unit {unit} has no label"
            in capsys.readouterr().err)


def test_demographic_fairness_of_a_multiclass_graph_exits_2_naming_the_class_count(
        tmp_path, capsys):
    manifest = save_dataset(make_node_dataset(name="three", num_nodes=150, num_classes=3,
                                              seed=3), tmp_path / "three")
    pred = tmp_path / "ref.pred"
    assert main(["refmodel", "--dataset", str(manifest), "--out", str(pred)]) == 0
    assert main(["fairness", "--dataset", str(manifest), "--kind", "demographic",
                 "--pred", str(pred), "--out", str(tmp_path / "demo.json")]) == 2
    assert ("error: MissingInput: three: demographic gaps need 2 classes, not 3"
            in capsys.readouterr().err)


def test_a_ranking_keyed_by_1_based_query_ids_fails_the_kg_cell(kg_ds, tmp_path, capsys):
    # a .ranking query id is the 0-based row of the queries.tsv that stress split writes
    assert main(["split", "--mechanism", "kg", "--dataset", str(kg_ds), "--seed", "0",
                 "--out", str(tmp_path / "split")]) == 0
    num_queries = len((tmp_path / "split" / "queries.tsv").read_text().splitlines())
    ranking = tmp_path / "preds" / "tinykg" / "ood" / "kg" / "seed0.ranking"
    ranking.parent.mkdir(parents=True)
    queries = np.repeat(np.arange(num_queries), 60)
    cands = np.tile(np.arange(60), num_queries)
    config = _write_config(tmp_path / "config.json", manifest=kg_ds, seeds=[0], axes=["ood"],
                           methods=[{"kind": "external", "name": "m_ext",
                                     "pred_dir": str(tmp_path / "preds")}])
    for base, code in ((0, 0), (1, 1)):
        write_ranking_file(ranking, queries + base, cands, (cands * 7 % 11) / 11.0)
        out = tmp_path / f"results{base}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == code
    assert (out / "errors.log").read_text().splitlines() == [
        "(ood, tinykg, m_ext, seed 0)\tMissingPrediction: no true candidate recorded for query "
        f"{num_queries}"]


def test_programming_error_in_a_cell_propagates(small_ds, tmp_path, monkeypatch):
    def broken(self, dataset, method, seed):
        return 1 / 0

    monkeypatch.setattr(cli.PipelineRunner, "_axis_fairness", broken)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=2,
                           axes=["fairness"])
    for workers in ("1", "2"):
        with pytest.raises(ZeroDivisionError):
            main(["run", "--config", str(config), "--out", str(tmp_path / workers),
                  "--workers", workers])


def test_a_programming_error_on_a_helper_thread_propagates(small_ds, tmp_path, monkeypatch):
    helper_ran = threading.Event()
    fairness = cli.PipelineRunner._axis_fairness

    def broken_off_main(self, dataset, method, seed):
        if threading.current_thread() is threading.main_thread():
            helper_ran.wait(timeout=60)  # leaves the other job to the helper
            return fairness(self, dataset, method, seed)
        helper_ran.set()
        return 1 / 0

    monkeypatch.setattr(cli.PipelineRunner, "_axis_fairness", broken_off_main)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=2,
                           axes=["fairness"])
    with pytest.raises(ZeroDivisionError):
        main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert helper_ran.is_set()


def test_jobs_shared_by_more_threads_than_cores_each_run_once_in_job_order(tmp_path):
    runner = cli.PipelineRunner({}, tmp_path, workers=8)
    taken = []

    def job(i):
        taken.append(i)
        return i * i

    runner._run_job = job
    jobs, result = list(range(5000)), {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over often, so threads interleave inside a job
    try:
        caller = threading.Thread(target=lambda: result.update(outcomes=runner._run_jobs(jobs)))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(taken) == jobs
    assert result["outcomes"] == [i * i for i in jobs]


def _record_threads(monkeypatch) -> dict:
    """{"load": [...], "job": [...]}: the thread of every load_dataset and axis driver call."""
    threads = {"load": [], "job": []}
    load = cli.load_dataset

    def recorded_load(*args, **kwargs):
        threads["load"].append(threading.current_thread())
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_dataset", recorded_load)
    for axis in cli.AXES:
        def recorded_driver(self, *args, _driver=getattr(cli.PipelineRunner, f"_axis_{axis}")):
            threads["job"].append(threading.current_thread())
            return _driver(self, *args)

        monkeypatch.setattr(cli.PipelineRunner, f"_axis_{axis}", recorded_driver)
    return threads


def test_a_one_worker_run_loads_and_runs_every_job_on_the_main_thread(small_ds, tmp_path,
                                                                       monkeypatch):
    threads = _record_threads(monkeypatch)
    config = _write_config(tmp_path / "config.json", manifest=small_ds,
                           datasets=[{"manifest": str(small_ds), "name": "a"},
                                     {"manifest": str(small_ds), "name": "b"}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 0
    assert len(threads["load"]) == 2 and len(threads["job"]) == 2 * len(cli.AXES) * 2
    assert set(threads["load"] + threads["job"]) == {threading.main_thread()}


@pytest.mark.parametrize("workers, cap", [(64, 4), (3, 3)])
def test_a_run_never_uses_more_threads_than_jobs_or_workers(small_ds, tmp_path, monkeypatch,
                                                            workers, cap):
    threads = _record_threads(monkeypatch)
    started = []
    start = threading.Thread.start

    def recorded_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=2,
                           axes=["fairness", "imbalance"])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--workers", str(workers)]) == 0
    # the main thread is the first worker, so a run starts at most cap - 1 threads
    assert len(started) <= cap - 1
    assert len(threads["job"]) == 4 and len(set(threads["job"])) <= cap
    assert threads["load"] == [threading.main_thread()]


def _write_external_preds(manifest, pred_dir, axis, subs):
    """One valid seed-0 prediction file per subcondition of an external method."""
    g = load_dataset(manifest).graph
    rows = np.random.default_rng(5).random((g.num_nodes, 2))
    table = PredictionTable(np.arange(g.num_nodes), rows / rows.sum(axis=1, keepdims=True))
    for sub in subs:
        (pred_dir / "tiny" / axis / sub).mkdir(parents=True)
        write_prediction_file(pred_dir / "tiny" / axis / sub / "seed0.pred", table)


def test_malformed_table_token_exits_2_or_fails_its_cell(small_ds, tmp_path, capsys):
    bad_pred = tmp_path / "bad.pred"
    bad_pred.write_text("#num_classes\t4\n0\t0.25\t0.25\t0.25\tx\n")
    assert main(["fairness", "--dataset", str(small_ds), "--kind", "structural",
                 "--pred", str(bad_pred), "--out", str(tmp_path / "fair.json")]) == 2
    assert "LengthMismatch" in capsys.readouterr().err

    bad_labels = tmp_path / "bad_labels"
    shutil.copytree(small_ds.parent, bad_labels)
    with open(bad_labels / "labels.tsv", "a") as f:
        f.write("3\tfoo\n")
    assert main(["refmodel", "--dataset", str(bad_labels / "manifest.json"),
                 "--out", str(tmp_path / "ref.pred")]) == 2
    assert "LengthMismatch" in capsys.readouterr().err

    # in a run the same file is a named cell failure, not an aborted run
    pred_dir = tmp_path / "preds"
    (pred_dir / "tiny" / "fairness" / "clean").mkdir(parents=True)
    shutil.copy(bad_pred, pred_dir / "tiny" / "fairness" / "clean" / "seed0.pred")
    config = _write_config(
        tmp_path / "config.json", manifest=small_ds, seeds=1, axes=["fairness"],
        methods=[{"kind": "external", "name": "m_ext", "pred_dir": str(pred_dir)}])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    log = (out / "errors.log").read_text()
    assert "m_ext" in log and "LengthMismatch" in log and "seed0.pred" in log


@pytest.mark.parametrize("argv, dataset", [
    (["corrupt", "--channel", "edge", "--severity-index", "1"], "kg"),
    (["corrupt", "--channel", "edge", "--severity-index", "1"], "mol"),
    (["split", "--mechanism", "degree"], "kg"),
    (["split", "--mechanism", "kg"], "mol"),
    (["split", "--mechanism", "scaffold"], "tiny"),
    (["imbalance", "--rho", "10"], "mol_split"),
    (["refmodel"], "mol_split"),
], ids=["corrupt-kg", "corrupt-mol", "split-degree-kg", "split-kg-mol", "split-scaffold-node",
        "imbalance-mol", "refmodel-mol"])
def test_subcommand_on_the_wrong_dataset_kind_exits_2(small_ds, mol_ds, kg_ds, tmp_path, capsys,
                                                       argv, dataset):
    if dataset == "mol_split":  # a molecule collection that does carry a split
        ds = make_molecule_collection(name="splitmol", num_graphs=20, seed=3)
        ds.split = SplitAssignment(np.arange(20, dtype=np.int8) % 3)
        manifest = save_dataset(ds, tmp_path / "splitmol")
    else:
        manifest = {"tiny": small_ds, "mol": mol_ds, "kg": kg_ds}[dataset]
    assert main(argv + ["--dataset", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "MissingInput" in err and "needs a" in err


@pytest.mark.parametrize("rhos", [[2, 2.5], [10, 10.0], [5, 20, 5], 10, [0], [5, -10], [True],
                                  []],
                         ids=["fraction", "same-level", "repeat", "not-a-list", "zero",
                              "negative", "bool", "empty"])
def test_colliding_or_fractional_rhos_exit_2_before_loading(small_ds, tmp_path, monkeypatch,
                                                            capsys, rhos):
    def no_load(manifest):
        raise AssertionError("a bad config must be rejected before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=1,
                           axes=["imbalance"], rhos=rhos)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "rhos" in err


@pytest.mark.parametrize("kind, write_ops, deletions", [
    ("external", False, 0), ("external", True, 1), ("refmodel", False, 1)])
def test_edges_are_deleted_only_for_a_reader_of_the_deleted_graph(small_ds, tmp_path,
                                                                  monkeypatch, kind,
                                                                  write_ops, deletions):
    calls = []
    real = cli.edge_delete
    monkeypatch.setattr(cli, "edge_delete", lambda *a, **k: calls.append(a) or real(*a, **k))
    pred_dir = tmp_path / "preds"
    _write_external_preds(small_ds, pred_dir, "corruption",
                          ["clean"] + [f"{c}_sev{i}" for c in ("feature", "edge")
                                       for i in range(1, 6)])
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=1,
                           axes=["corruption"], write_operator_outputs=write_ops,
                           methods=[{"kind": kind, "name": "m", "pred_dir": str(pred_dir)}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == deletions


def test_an_external_method_without_files_writes_every_operator_output(small_ds, tmp_path):
    # the copies and splits are what a method's files are made from, so a
    # missing file must not stop them being written
    trees = {}
    for kind, code in (("external", 1), ("refmodel", 0)):
        config = _write_config(tmp_path / f"{kind}.json", manifest=small_ds, seeds=[0],
                               axes=["corruption", "ood", "imbalance"],
                               write_operator_outputs=True,
                               methods=[{"kind": kind, "name": "m",
                                         "pred_dir": str(tmp_path / "nowhere")}])
        assert main(["run", "--config", str(config), "--out", str(tmp_path / kind)]) == code
        ops = tmp_path / kind / "ops" / "tiny"
        trees[kind] = {p.relative_to(ops).as_posix(): p.read_bytes()
                       for p in sorted(ops.rglob("*")) if p.is_file()}
    assert sorted({name.split("/")[0] for name in trees["external"]}) == sorted(
        [f"corrupt_{channel}_sev{i}_seed0" for channel in ("feature", "edge") for i in range(1, 6)]
        + ["split_degree_seed0", "split_temporal_seed0"]
        + [f"imbalance_rho{rho}_seed0" for rho in (5, 10, 20)])
    assert trees["external"] == trees["refmodel"]


@pytest.mark.parametrize("axis", ["corruption", "ood", "imbalance", "fairness", "interpret"])
def test_refmodel_cells_score_only_the_units_they_evaluate(small_ds, tmp_path, monkeypatch,
                                                          axis):
    calls = []
    real = cli.propagate_predict
    monkeypatch.setattr(cli, "propagate_predict",
                        lambda *a, **k: calls.append(k["rows"]) or real(*a, **k))
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=[3], axes=[axis])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    dataset = load_dataset(small_ds)
    test = dataset.split.units(Role.TEST).tolist()
    want = {"corruption": [test],  # clean and five edge levels in one call
            "ood": [cli._ood_split(dataset, m, 3).units(Role.OOD_TEST).tolist()
                    for m in ("degree", "temporal")],
            "imbalance": [test], "fairness": [test], "interpret": []}[axis]
    assert [rows.tolist() for rows in calls] == want


def test_a_node100k_shaped_run_propagates_five_times_per_seed(small_ds, tmp_path, monkeypatch):
    # one call for the clean and five edge-level corruption tables, two ood
    # splits, one fairness table, and one call that scores the three default
    # rhos' labelings together
    stacks = []
    real = cli.propagate_predict
    monkeypatch.setattr(cli, "propagate_predict",
                        lambda *a, **k: stacks.append(len(a[1])) or real(*a, **k))
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=[3],
                           axes=["corruption", "ood", "imbalance", "fairness"])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    assert len(stacks) == 5
    assert sorted(stacks) == [1, 1, 1, 1, 3]


@pytest.fixture(scope="module")
def ops_run(small_ds, mol_ds, tmp_path_factory):
    """Runs at seed 1 that write their operator outputs; dataset name -> its ops/ dir."""
    root = tmp_path_factory.mktemp("ops_run")
    ops = {}
    for name, manifest, axes in (("tiny", small_ds, ["corruption", "ood", "imbalance"]),
                                 ("tinymol", mol_ds, ["ood"])):
        config = _write_config(root / f"{name}.json", manifest=manifest, axes=axes,
                               seeds=[1], write_operator_outputs=True)
        assert main(["run", "--config", str(config), "--out", str(root / name)]) == 0
        ops[name] = root / name / "ops" / name
    return ops


@pytest.mark.parametrize("argv, dataset, tag, sidecar", [
    (["corrupt", "--channel", "feature", "--severity-index", "3"], "tiny",
     "corrupt_feature_sev3_seed1", "corrupt.json"),
    (["corrupt", "--channel", "edge", "--severity-index", "5"], "tiny",
     "corrupt_edge_sev5_seed1", "corrupt.json"),
    (["split", "--mechanism", "degree"], "tiny", "split_degree_seed1", "split.json"),
    (["split", "--mechanism", "temporal"], "tiny", "split_temporal_seed1", "split.json"),
    (["split", "--mechanism", "scaffold"], "tinymol", "split_scaffold_seed1", "split.json"),
    (["imbalance", "--rho", "10"], "tiny", "imbalance_rho10_seed1", "imbalance.json"),
], ids=["corrupt-feature", "corrupt-edge", "split-degree", "split-temporal",
        "split-scaffold", "imbalance"])
def test_subcommand_output_equals_run_operator_output(ops_run, small_ds, mol_ds, tmp_path,
                                                      argv, dataset, tag, sidecar):
    manifest = small_ds if dataset == "tiny" else mol_ds
    out = tmp_path / "sub"
    assert main(argv + ["--dataset", str(manifest), "--seed", "1", "--out", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != sidecar}
    from_run = {p.name: p.read_bytes() for p in sorted((ops_run[dataset] / tag).iterdir())}
    assert written and written == from_run


def test_run_config_errors_exit_2(small_ds, tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["run", "--config", str(missing)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2

    unknown_axis = _write_config(tmp_path / "ua.json", manifest=small_ds,
                                 axes=["corruption", "time_travel"])
    assert main(["run", "--config", str(unknown_axis)]) == 2

    no_datasets = tmp_path / "nd.json"
    no_datasets.write_text(json.dumps({"datasets": [], "axes": ["corruption"]}))
    assert main(["run", "--config", str(no_datasets)]) == 2


@pytest.mark.parametrize("where, overrides, key", [
    ("config", {"seed": 1}, "seed"),
    ("config", {"head_tail_quantlie": 0.4}, "head_tail_quantlie"),
    ("method", {"methods": [{"kind": "refmodel", "hops": 3}]}, "hops"),
    ("dataset", {"datasets": [{"manifest": "m.json", "path": "x"}]}, "path"),
], ids=["seed", "misspelt-quantile", "method-hops", "dataset-path"])
def test_unknown_config_key_exits_2_before_loading(small_ds, tmp_path, monkeypatch, capsys,
                                                   where, overrides, key):
    def no_load(manifest):
        raise AssertionError("a bad config must be rejected before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, **overrides)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and repr(key) in err and where in err


@pytest.mark.parametrize("overrides, key", [
    ({"datasets": [{"name": "x"}]}, "manifest"),
    ({"datasets": [{"manifest": 3}]}, "manifest"),
    ({"seeds": 0}, "seeds"),
    ({"seeds": -2}, "seeds"),
    ({"seeds": True}, "seeds"),
    ({"seeds": []}, "seeds"),
    ({"seeds": [1, 1]}, "seeds"),
    ({"seeds": [0, -1]}, "seeds"),
    ({"datasets": ["ds/manifest.json"]}, "a dataset entry must be a JSON object"),
    ({"methods": ["refmodel"]}, "a method entry must be a JSON object"),
], ids=["no-manifest", "manifest-not-a-string", "seeds-0", "seeds-negative", "seeds-bool",
        "seeds-empty", "seeds-repeat", "seeds-negative-entry", "dataset-not-an-object",
        "method-not-an-object"])
def test_bad_dataset_entry_or_seeds_exit_2_before_loading(small_ds, tmp_path, monkeypatch,
                                                          capsys, overrides, key):
    def no_load(manifest):
        raise AssertionError("a bad config must be rejected before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, axes=["fairness"],
                           **overrides)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and key in err


EXTERNAL = {"kind": "external", "name": "ext", "pred_dir": "preds"}
NAME_RULE = "name must be a string of letters, digits, _ and -"


@pytest.mark.parametrize("overrides, argv, key", [
    ({}, ["--seed", "-1"], "seeds"),
    ({"interpret_targets": -1}, [], "interpret_targets"),
    ({"interpret_targets": 0}, [], "interpret_targets"),
    ({"interpret_targets": "x"}, [], "interpret_targets"),
    ({"k_levels": [0, 200]}, [], "k_levels"),
    ({"k_levels": "5"}, [], "k_levels"),
    ({"k_levels": []}, [], "k_levels"),
    ({"k_levels": [5, 5.0]}, [], "k_levels"),
    ({"workers": 0}, [], "workers"),
    ({"workers": "x"}, [], "workers"),
    ({}, ["--workers", "0"], "workers"),
    ({"head_tail_quantile": 0.7}, [], "head_tail_quantile"),
    ({"head_tail_quantile": 0}, [], "head_tail_quantile"),
    ({"head_tail_quantile": "x"}, [], "head_tail_quantile"),
    ({"out": 5}, [], "out"),
    ({"write_operator_outputs": "no"}, [], "write_operator_outputs"),
    ({"methods": [{**EXTERNAL, "pred_dir": 7}]}, [], "pred_dir"),
    ({"methods": [{**EXTERNAL, "has_saliency": "no"}]}, [], "has_saliency"),
    ({"methods": [{**EXTERNAL, "name": ["ext"]}]}, [], "name"),
    ({"methods": []}, [], "methods"),
    ({"methods": [{"kind": "refmodel"}, {"kind": "refmodel"}]}, [], "name"),
    ({"methods": [EXTERNAL, {"kind": "refmodel", "name": "ext"}]}, [], "name"),
    ({"datasets": 5}, [], "datasets"),
    ({"axes": 5}, [], "axes"),
    ({"methods": 5}, [], "methods"),
    ({"axes": "fairness"}, [], "axes"),
    ({"axes": ["fairness", "fairness"]}, [], "axes"),
    # a name is part of values/<axis>.<sub>.<dataset>.<method>.json: a '/' breaks the path,
    # and dataset x.y with method z would write the file of dataset x with method y.z
    ({"methods": [{**EXTERNAL, "name": "a/b"}]}, [], NAME_RULE + ", got 'a/b'"),
    ({"methods": [{**EXTERNAL, "name": "y.z"}]}, [], NAME_RULE + ", got 'y.z'"),
    ({"methods": [{**EXTERNAL, "name": ""}]}, [], NAME_RULE + ", got ''"),
    ({"datasets": [{"manifest": "m.json", "name": "x.y"}]}, [], NAME_RULE + ", got 'x.y'"),
], ids=["seed-flag-negative", "targets-negative", "targets-0", "targets-str", "k-out-of-range",
        "k-str", "k-empty", "k-repeat", "workers-0", "workers-str", "workers-flag-0",
        "quantile-above-half", "quantile-0", "quantile-str", "out-int", "write-ops-str",
        "pred-dir-int", "has-saliency-str", "name-list", "no-methods", "two-default-names",
        "one-name-twice", "datasets-int", "axes-int", "methods-int", "axes-str", "axes-repeat",
        "name-slash", "name-dot", "name-empty", "dataset-name-dot"])
def test_out_of_range_run_value_exits_2_before_loading(small_ds, tmp_path, monkeypatch, capsys,
                                                       overrides, argv, key):
    def no_load(manifest):
        raise AssertionError("a bad config must be rejected before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, **overrides)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r"), *argv]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and key in err


@pytest.mark.parametrize("entries", [[{}, {}], [{"name": "a"}, {"name": "a"}],
                                     [{}, {"name": "tiny"}]],
                         ids=["same-manifest", "same-name", "rename-onto-manifest-name"])
def test_datasets_loading_under_one_name_exit_2_before_any_job(small_ds, tmp_path, monkeypatch,
                                                               capsys, entries):
    def no_job(self, job):
        raise AssertionError("a name collision must be rejected before any job runs")

    def no_load(manifest):
        raise AssertionError("a name collision must be rejected before any dataset loads")

    monkeypatch.setattr(cli.PipelineRunner, "_run_job", no_job)
    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds,
                           datasets=[{"manifest": str(small_ds), **e} for e in entries])
    out = tmp_path / "r"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "distinct 'name'" in err
    assert list(out.iterdir()) == []


def test_a_manifest_naming_a_missing_file_exits_2_before_any_load(small_ds, tmp_path,
                                                                  monkeypatch, capsys):
    # the entry sorts after small_ds's "tiny", so a dataset-by-dataset check would load "tiny"
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_node_dataset(name="zz", num_nodes=60, seed=4), Path("zz"))
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "edge_file": "missing.tsv"}))

    def no_load(manifest):
        raise AssertionError("a missing file must be reported before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                        lambda self, job: pytest.fail(f"cell {job} ran"))
    config = _write_config(Path("config.json"), manifest=small_ds, seeds=1,
                           datasets=[{"manifest": str(small_ds)}, {"manifest": str(manifest)}])
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    assert f"error: MissingFile: {Path('zz') / 'missing.tsv'}" in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


@pytest.mark.parametrize("key, argv", [
    ("label_file", ["refmodel", "--out", "pred.tsv"]),
    ("foo_file", ["imbalance", "--rho", "5", "--out", "imb.tsv"]),
], ids=["refmodel-missing-labels", "imbalance-unknown-key"])
def test_a_subcommand_given_a_missing_named_file_exits_2_before_parsing_any(tmp_path, monkeypatch,
                                                                            capsys, key, argv):
    # every command checks a manifest's files before it parses one, unknown *_file keys too
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_node_dataset(name="m", num_nodes=60, seed=4), Path("m"))
    doc = json.loads(manifest.read_text())
    doc.setdefault(key, "foo.tsv")
    manifest.write_text(json.dumps(doc))
    missing = Path("m") / doc[key]
    missing.unlink(missing_ok=True)
    monkeypatch.setattr(graph_store, "read_table",
                        lambda path, dtypes: pytest.fail(f"{path} was parsed"))
    assert main([argv[0], "--dataset", str(manifest), *argv[1:]]) == 2
    assert f"error: MissingFile: {missing}" in capsys.readouterr().err


def test_a_fault_inside_a_later_dataset_fails_the_run_at_its_turn(small_ds, tmp_path,
                                                                  monkeypatch, capsys):
    # "zz" comes first in the config and loads second, after "tiny"'s jobs have run
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_node_dataset(name="zz", num_nodes=60, seed=4), Path("zz"))
    with open(Path("zz") / "edges.tsv", "a") as f:
        f.write("0\tx\n")
    threads = _record_threads(monkeypatch)
    config = _write_config(Path("config.json"), manifest=manifest, seeds=1,
                           axes=["fairness", "imbalance"],
                           datasets=[{"manifest": str(manifest)}, {"manifest": str(small_ds)}])
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"^error: LengthMismatch: {re.escape(str(Path('zz') / 'edges.tsv'))}",
                     err, re.M), err
    assert len(threads["load"]) == 2 and len(threads["job"]) == 2  # "tiny"'s two cells
    assert not Path("out/report.json").exists() and not Path("out/values").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_dataset_is_gone_when_the_next_datasets_jobs_start(small_ds, mol_ds, tmp_path,
                                                             monkeypatch, workers):
    # "a" is a collection, so its corruption cells fail: a failed cell must not keep it alive.
    # The weakref is taken on the Dataset the jobs hold. No gc.collect(): the dataset is freed
    # as its last reference goes, not by the collector
    held = {}
    first_alive = []
    run_job = cli.PipelineRunner._run_job

    def recorded_job(self, job):
        held.setdefault(job[0].name, weakref.ref(job[0]))
        if job[0].name == "b":
            first_alive.append(held["a"]() is not None)
        return run_job(self, job)

    monkeypatch.setattr(cli.PipelineRunner, "_run_job", recorded_job)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=2,
                           axes=["corruption", "ood"],
                           datasets=[{"manifest": str(small_ds), "name": "b"},
                                     {"manifest": str(mol_ds), "name": "a"}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--workers", str(workers)]) == 1
    assert sorted(held) == ["a", "b"] and first_alive == [False] * 4


def test_a_second_copy_of_a_large_dataset_adds_little_to_the_peak(tmp_path):
    # _release_freed_heap between datasets: without it, or with malloc_trim alone, the second
    # copy of a 10^5-node graph peaks ~7 MiB above the first; with it, ~1 MiB
    try:
        ctypes.CDLL("libc.so.6")
    except OSError:
        pytest.skip("libc.so.6 cannot be loaded")
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status")
    manifest = save_dataset(make_node_dataset(name="big", num_nodes=100_000, seed=0),
                            tmp_path / "big")
    # the child's VmHWM (KiB): its ru_maxrss would keep this test process's peak across the
    # fork and exec that start it
    script = ("import sys; from graphstress.cli import main; assert main(sys.argv[1:]) == 0; "
              "print(next(line.split()[1] for line in open('/proc/self/status') "
              "if line.startswith('VmHWM:')))")
    peaks = []
    for copies in (1, 2):
        config = _write_config(tmp_path / f"c{copies}.json", manifest=manifest, seeds=1,
                               axes=["fairness"],
                               datasets=[{"manifest": str(manifest), "name": f"c{i}"}
                                         for i in range(copies)])
        proc = subprocess.run([sys.executable, "-c", script, "run", "--config", str(config),
                               "--out", str(tmp_path / f"r{copies}")],
                              capture_output=True, text=True, env=_src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.split()[-1]) / 1024)
    assert peaks[1] <= peaks[0] + 3, f"peak MiB of one copy, two copies: {peaks}"


def test_releasing_the_freed_heap_is_a_no_op_without_libc(monkeypatch):
    def no_libc(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert cli._release_freed_heap() is None


@pytest.mark.parametrize("source", ["name", "file-stem"])
def test_a_manifest_name_outside_the_name_rule_exits_2_before_any_job(tmp_path, monkeypatch,
                                                                      capsys, source):
    monkeypatch.chdir(tmp_path)
    manifest = save_dataset(make_node_dataset(name="x.y", num_nodes=60, seed=4), Path("ds"))
    if source == "file-stem":  # no name in the manifest: its file stem names the dataset
        doc = json.loads(manifest.read_text())
        del doc["name"]
        manifest.unlink()
        manifest = manifest.with_name("x.y.json")
        manifest.write_text(json.dumps(doc))
    monkeypatch.setattr(cli.PipelineRunner, "_run_job",
                        lambda self, job: pytest.fail(f"cell {job} ran"))
    config = _write_config(Path("config.json"), manifest=manifest, seeds=1)
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    assert (f"ConfigError: {manifest}: dataset name 'x.y' must be a string of letters, digits, "
            "_ and -; give the entry a 'name'") in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


@pytest.fixture(scope="module")
def node100k_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_node100k")
    return save_dataset(make_node_dataset(name="big", num_nodes=100_000, seed=0), out / "big")


@pytest.mark.parametrize("axis, subs", [
    ("ood", ["degree", "temporal"]),
    ("corruption", ["clean", *(f"{c}_sev{i}" for c in ("feature", "edge") for i in range(1, 6))]),
    ("scaffold", ["scaffold", "random"]),
])
def test_an_external_method_holds_one_prediction_table_at_a_time(node100k_ds, tmp_path,
                                                                 monkeypatch, axis, subs):
    # each .pred file is read only once the previous table is scored and dropped; the weakrefs
    # need no gc.collect(), as a table holds no reference cycle
    if axis == "scaffold":
        manifest = save_dataset(make_molecule_collection(name="big", num_graphs=400, seed=1),
                                tmp_path / "mol")
        units = 400
    else:
        manifest, units = node100k_ds, 100_000
    rows = np.random.default_rng(2).random((units, 2))
    one = tmp_path / "one.pred"
    write_prediction_file(one, PredictionTable(np.arange(units), rows / rows.sum(axis=1, keepdims=True)))
    pred_axis = "ood" if axis == "scaffold" else axis
    for sub in subs:
        (tmp_path / "preds" / "big" / pred_axis / sub).mkdir(parents=True)
        os.link(one, tmp_path / "preds" / "big" / pred_axis / sub / "seed0.pred")
    tables, alive_at_read = [], []
    read = cli.read_prediction_file

    def recorded(path):
        alive_at_read.append(sum(table() is not None for table in tables))
        table = read(path)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(cli, "read_prediction_file", recorded)
    config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=1, axes=[pred_axis],
                           methods=[{"kind": "external", "name": "ext",
                                     "pred_dir": str(tmp_path / "preds")}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert alive_at_read == [0] * len(subs)


_BLAS_PROBE = ("import os; {first}import graphstress.cli; "
               "print(os.environ.get('OPENBLAS_NUM_THREADS'), next(line.split()[1] for line in "
               "open('/proc/self/status') if line.startswith('Threads:')))")


@pytest.mark.parametrize("first, preset, expected", [
    ("", None, ("1", "1")),
    ("", "2", ("2", None)),
    ("import numpy; ", None, ("None", None)),
], ids=["unset", "user-set", "numpy-first"])
def test_the_cli_import_starts_no_blas_thread_pool(first, preset, expected):
    # graphstress calls no BLAS routine: the import asks OpenBLAS for one thread unless the
    # user set a count, or numpy was imported before (its pool then already exists)
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status")
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE.format(first=first)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    variable, threads = expected
    assert out[0] == variable
    if threads is not None:
        assert out[1] == threads


def test_every_shipped_config_passes_the_key_check(small_ds, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    configs = [workloads.stress_config(w, tmp_path) for w in workloads.WORKLOADS]
    configs.append(json.loads(_write_config(tmp_path / "t.json", manifest=small_ds,
                                            write_operator_outputs=True, rhos=[5],
                                            k_levels=[5], head_tail_quantile=0.2,
                                            workers=1, out="r").read_text()))
    for i, config in enumerate(configs):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(config))
        assert cli._load_config(path)["datasets"]


def _readme_keys() -> tuple[dict, set]:
    """README's pipeline config block, parsed, and the keys its flag table checks flags as."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Pipeline config", 1)[1].split("```jsonc\n", 1)[1].split("```")[0]
    table = readme.split("The subcommand flags go through the same checks:", 1)[1]
    rows = [line.split("|")[2] for line in table.split("\n\n")[1].splitlines()[2:]]
    return (json.loads(re.sub(r"//.*", "", block)),
            {key for row in rows for key in re.findall(r"`(\w+)`", row)})


def test_readme_documents_every_parameter():
    config, flag_keys = _readme_keys()
    entries = [config, *config["datasets"], *config["methods"]]
    config_keys = {key for entry in entries for key in entry}
    assert sorted(cli.PARAMS.keys() - config_keys - flag_keys) == []
    assert sorted(flag_keys - cli.PARAMS.keys()) == []
    assert sorted(config_keys - cli.PARAMS.keys()) == ["kind"]  # checked apart from PARAMS
    # the config block shows every optional top-level key at its default
    assert {key: value for key, value in config.items()
            if cli.PARAMS[key][0] is not cli.REQUIRED} == {
        key: cli.PARAMS[key][0] for key in cli.CONFIG_KEYS
        if cli.PARAMS[key][0] is not cli.REQUIRED}


def test_external_method_without_pred_dir_exits_2_before_loading(small_ds, tmp_path,
                                                               monkeypatch, capsys):
    def no_load(manifest):
        raise AssertionError("a bad config must be rejected before any dataset loads")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=1,
                           methods=[{"kind": "external", "name": "m_ext"}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "pred_dir" in err

    unknown_kind = _write_config(tmp_path / "uk.json", manifest=small_ds,
                                 methods=[{"kind": "oracle"}])
    assert main(["run", "--config", str(unknown_kind)]) == 2


def test_run_seed_override(small_ds, tmp_path):
    config = _write_config(tmp_path / "config.json", manifest=small_ds,
                           axes=["fairness"], seeds=3)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--seed", "7"]) == 0
    rec = json.loads(
        (out / "values" / "fairness.head_tail_gap.tiny.refmodel.json").read_text())
    assert rec["seeds"] == [7]


# ---------------------------------------------------------------------------
# report regeneration
# ---------------------------------------------------------------------------

def test_report_command_regenerates_cells(small_ds, tmp_path):
    config = _write_config(tmp_path / "config.json", manifest=small_ds, seeds=1,
                           axes=["corruption", "interpret"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    prefix = tmp_path / "rebuilt"
    assert main(["report", "--results", str(out), "--out", str(prefix)]) == 0
    original = load_report(out / "report.json")
    rebuilt = load_report(prefix.with_suffix(".json"))
    assert len(rebuilt.cells) == len(original.cells)
    for axis, sub, ds_name, method, cell in original.rows():
        assert rebuilt.cells[axis, sub, ds_name, method] == cell
    # CSV rows match modulo provenance
    run_csv = (out / "report.csv").read_bytes()
    rebuilt_csv = prefix.with_suffix(".csv").read_bytes()
    assert rebuilt_csv == run_csv


def test_report_without_values_exits_2(tmp_path):
    assert main(["report", "--results", str(tmp_path), "--out",
                 str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("argv, written", [
    (["refmodel", "--dataset", "DS"], ["x"]),
    (["fairness", "--dataset", "DS", "--kind", "structural", "--pred", "ref.pred"], ["x"]),
    (["interpret", "score", "--manifest", "m", "--probs", "x.probs"], ["x"]),
    (["report", "--results", "r"], ["x.csv", "x.json"]),
], ids=["refmodel", "fairness", "interpret-score", "report"])
def test_missing_parent_of_out_is_created(small_ds, tmp_path, monkeypatch, argv, written):
    monkeypatch.chdir(tmp_path)
    assert main(["refmodel", "--dataset", str(small_ds), "--out", "ref.pred"]) == 0
    Path("m").mkdir()
    Path("m/emit.json").write_text(json.dumps({"k_levels": [5], "targets": [], "skipped": []}))
    write_probs_file("x.probs", {})
    Path("r/values").mkdir(parents=True)
    Path("r/values/fairness.head_tail_gap.tiny.refmodel.json").write_text(json.dumps(
        {"axis": "fairness", "subcondition": "head_tail_gap", "dataset": "tiny",
         "method": "refmodel", "seeds": [0], "values": [1.5]}))
    argv = [str(small_ds) if a == "DS" else a for a in argv]
    assert main([*argv, "--out", "no/such/x"]) == 0
    assert sorted(p.name for p in Path("no/such").iterdir()) == written


# ---------------------------------------------------------------------------
# on-disk bytes of every text writer
# ---------------------------------------------------------------------------

# sha256 of each file below as written by the per-format writers that the
# shared table writer replaced; features.gsf is binary and depends on float
# arithmetic, so it is left out
GOLDEN_SHA256 = {
    "kg/manifest.json": "232d47e1602da44b2ea14dd9d0f0acb1ea3945d61af41a39949f75df42d04f32",
    "kg/triples.tsv": "cbdc2e3bc278b00d8786aa548c7c645c7e6b0060fb528329f3137655e7e3e7f9",
    "kgsplit/queries.tsv": "330d4a1956dfc114060125105f54ec5ca5533e143350caa1e522f58433caad4f",
    "kgsplit/split.json": "66f4d608c58aedf935b25052dbcdb2957b9f104ac08e635f4715d330c7ef184e",
    "kgsplit/test_entities.tsv": "bcb882f7b9a1fc7220f14ba4c62bb5f519da58665a21654467792601d94d613c",
    "kgsplit/train_entities.tsv": "422f2249c61decdd186c67553b0cdb32bb1ca5256a6229757a55a4814bf40a4f",
    "kgsplit/train_triples.tsv": "a76d5c93ff9dd2b7741883c676dea22e3fb862aaaf5d2dc84f492ed8071980e4",
    "mol/graph_edges.tsv": "093c10ff2db7e0f3abf09b8366fd142becb234ee19859ceaaed7a928f40b0e97",
    "mol/graph_labels.tsv": "6ade3e126ef243f4393858c84aa68b1ab9e59089dd95381b7f27a1ff0afdcb84",
    "mol/graph_sizes.tsv": "dc69af6d83c1c514e2b0c23c9e92a44765b5596e4b6406531466224d9644b2c4",
    "mol/manifest.json": "ea52c4a86779385cb6cf9d39b3dc250fc9d5ffb47f8f706e12fd385c2f5640ee",
    "mol/scaffolds.tsv": "7a193b12fe1644486dc2ab7cdade945b658d5a0c423c97687c6432c1c8c1c7b6",
    "multi.pred": "277e2bbaf067c57cb405ab8f92accc918835b9348aaa1206da7f84bb82b50b73",
    "node/edges.tsv": "35a02d8b196ba2010b6220603f3ab826b29f388c060c9f08f8d5bf758e038134",
    "node/labels.tsv": "f124866ea3f24041bf69a0dece932c5b72b170fd88204318dffdc8f03bfc1abc",
    "node/manifest.json": "c4d51bde7c7acb7931a5d0f36e268dbd49ec7c826eb89f63e9b682ac38791c17",
    "node/meta.tsv": "b54ed1529126f6f62b6fb93e821bdde10511609fe8f73044749839faca2e5eea",
    "node/split.tsv": "ac61049148a677eb47feb2941382f262ef41a9229bb28113378bfa30208fc5ae",
    "scalar.pred": "903ad0e05404ec0344d03cd9e4324b0914492713562081e9766d552878200bcc",
    "x.probs": "dc76a78c403f7d21fd38a8fe160d25c7def94791e94ec4f678458125d49174fe",
    "x.ranking": "2b35f7fea33fc0fce35a4cedc02d4888cbc21cbf43d8212d1762cc1231f8a830",
    "x.saliency": "d0091af37e785bf0e34a477727d0ea3569b8438ae7e98b115e4d70f42bc7f1a6",
}


def test_writers_emit_pinned_bytes(tmp_path):
    node = make_node_dataset(name="gold", num_nodes=40, num_classes=3, seed=2)
    g = node.graph
    g.labels[[1, 5]] = g.num_classes  # unlabeled: no labels.tsv row
    g.meta.year[[2, 3]] = -1          # '-' for a missing year
    g.meta.sensitive_attr[[3, 4]] = -1  # node 3 has no meta.tsv row at all
    save_dataset(node, tmp_path / "node")
    mol = make_molecule_collection(name="goldmol", num_graphs=6, seed=2)
    second_task = np.array([-1, 0, 1, 1, -1, 0], dtype=np.int8)
    mol.collection.labels = np.column_stack([mol.collection.labels[:, 0], second_task])
    save_dataset(mol, tmp_path / "mol")
    kg = save_dataset(make_triple_store(name="goldkg", num_entities=30, seed=2), tmp_path / "kg")
    assert main(["split", "--mechanism", "kg", "--dataset", str(kg), "--seed", "1",
                 "--out", str(tmp_path / "kgsplit")]) == 0
    write_prediction_file(tmp_path / "multi.pred", PredictionTable(
        [4, 0, 2], [[1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.7], [1.0, 0.0, 0.0]]))
    write_prediction_file(tmp_path / "scalar.pred", PredictionTable([0, 1], [[0.25], [1e-17]]))
    write_ranking_file(tmp_path / "x.ranking", np.array([0, 0, 1]), np.array([3, 4, 3]),
                       np.array([2, -1, 0]))  # integer scores are written as floats
    write_saliency_file(tmp_path / "x.saliency",
                        SaliencyTable("node_grad_norm", [2, 0, 1], [0.0, 1e-20, 3.5]))
    write_probs_file(tmp_path / "x.probs", {(3, "saliency_top_5"): np.float64(0.125),
                                            (1, "clean"): 1, (1, "random_comp_12.5"): 2 / 3})
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.suffix != ".gsf"}
    assert digests == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_console_script_help(tmp_path):
    """Install a copy of this checkout into tmp_path and run its `stress`.

    A `PATH` lookup would find whatever `stress` happens to be installed, not
    the entry point of the code under test. The install needs setuptools but
    no network, no `wheel` and no write to the checkout.
    """
    pytest.importorskip("setuptools")
    checkout = Path(__file__).resolve().parents[1]
    copy, prefix, record = tmp_path / "checkout", tmp_path / "prefix", tmp_path / "record.txt"
    copy.mkdir()
    shutil.copy2(checkout / "pyproject.toml", copy)
    shutil.copytree(checkout / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    install = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "install",
         "--single-version-externally-managed", "--prefix", str(prefix),
         "--record", str(record)],
        cwd=copy, capture_output=True, text=True, timeout=300)
    assert install.returncode == 0, install.stderr
    installed = [Path(line) for line in record.read_text().splitlines()]
    site = next(p.parents[1] for p in installed
                if p.parts[-2:] == ("graphstress", "__init__.py"))
    exe = next((p for p in installed if p.name in ("stress", "stress.exe")), None)
    assert exe and exe.is_file(), "console script should be installed with the package"
    proc = subprocess.run([str(exe), "--help"], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(site)),
                          timeout=120)
    assert proc.returncode == 0
    for sub in ("corrupt", "split", "imbalance", "fairness", "refmodel",
                "interpret", "report", "run"):
        assert sub in proc.stdout


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "graphstress.cli", "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: stress")


@pytest.mark.filterwarnings("ignore:Input line")  # the in-process load below, as in test_graph_store
def test_no_data_warnings_stay_silent_in_a_stress_process(tmp_path):
    # read_table passes np.loadtxt max_rows, so numpy warns of every file with a blank or # line
    # among its rows unless graph_store's own filter holds. pytest drops filters added while it
    # collects, so only a fresh process shows it; -W always makes an unfiltered warning print
    ds = make_node_dataset(name="gaps", num_nodes=60, num_classes=2, seed=1)
    manifest = save_dataset(ds, tmp_path / "gaps")
    labels = manifest.parent / json.loads(manifest.read_text())["label_file"]
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:3] + ["\n", "# gap\n"] + lines[3:]))
    pred = tmp_path / "ref.pred"
    assert main(["refmodel", "--dataset", str(manifest), "--out", str(pred)]) == 0
    assert pred.read_text().startswith("#num_classes\t2\n")
    proc = subprocess.run([sys.executable, "-W", "always::UserWarning", "-m", "graphstress.cli",
                           "fairness", "--dataset", str(manifest), "--kind", "structural",
                           "--pred", str(pred), "--out", str(tmp_path / "fair.json")],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "contained no data" not in proc.stderr
    assert json.loads((tmp_path / "fair.json").read_text())["head_size"] > 0


def test_importing_the_cli_leaves_scipy_unimported():
    # nothing in graphstress needs scipy, so importing the cli must not load it
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, graphstress.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'))"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_built_in_method_runs_every_axis_with_scipy_unimportable(small_ds, tmp_path):
    # ``sys.modules["scipy"] = None`` makes any scipy import raise ImportError
    config = _write_config(tmp_path / "config.json", manifest=small_ds)
    script = ("import sys; sys.modules['scipy'] = None; from graphstress.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    for args in (["run", "--config", str(config), "--out", str(tmp_path / "r")],
                 ["refmodel", "--dataset", str(small_ds), "--out", str(tmp_path / "all.pred")]):
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=_src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report and (tmp_path / "all.pred").is_file()
