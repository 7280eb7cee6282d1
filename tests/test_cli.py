"""End-to-end command tests: every subcommand, the pipeline runner, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphstress
import graphstress.cli as cli
from graphstress.cli import main
from graphstress.graph_store import Role, load_dataset, read_split_file, save_dataset
from graphstress.interpret import (
    SaliencyTable,
    read_manifest_file,
    write_probs_file,
    write_saliency_file,
)
from graphstress.metrics import PredictionTable, read_prediction_file, write_prediction_file
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


# ---------------------------------------------------------------------------
# refmodel and fairness
# ---------------------------------------------------------------------------

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
    assert report.num_cells > 20
    # refmodel ignores features: feature cells are inapplicable, edge cells real
    assert report.get("corruption", "feature_sev1", "tiny", "refmodel").note == "inapplicable"
    edge = report.get("corruption", "edge_sev5", "tiny", "refmodel")
    assert not edge.undefined and 0.0 <= edge.mean <= 100.0
    clean = report.get("corruption", "clean", "tiny", "refmodel")
    drop = report.get("corruption", "edge_drop", "tiny", "refmodel")
    assert drop.mean == pytest.approx(clean.mean - edge.mean, abs=1e-9)
    assert clean.n == 2  # two seeds
    # interpret lift cells were derived
    assert not report.get("interpret", "delta_char_5", "tiny", "refmodel").undefined
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
    assert not report.get("corruption", "feature_sev5", "tiny", "m_ext").undefined
    # no saliency interface: interpretation cells are inapplicable, not errors
    assert report.get("interpret", "char_saliency_5", "tiny", "m_ext").note == "inapplicable"


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


def test_one_sided_sensitive_attribute_keeps_head_tail_gap(tmp_path):
    ds = make_node_dataset(name="onesided", num_nodes=150, num_classes=2, seed=3)
    ds.graph.meta.sensitive_attr[:] = 0
    manifest = save_dataset(ds, tmp_path / "onesided")
    config = _write_config(tmp_path / "config.json", manifest=manifest, seeds=1,
                           axes=["fairness"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    gap = report.get("fairness", "head_tail_gap", "onesided", "refmodel")
    assert not gap.undefined
    for sub in ("d_sp", "d_eo", "d_util"):
        cell = report.get("fairness", sub, "onesided", "refmodel")
        assert cell.undefined and cell.note != "inapplicable"
        rec = json.loads((out / "values" / f"fairness.{sub}.onesided.refmodel.json").read_text())
        assert rec["values"] == [None]


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
    assert rebuilt.num_cells == original.num_cells
    for axis, sub, ds_name, method, cell in original.rows():
        assert rebuilt.get(axis, sub, ds_name, method) == cell
    # CSV rows match modulo provenance
    run_csv = (out / "report.csv").read_bytes()
    rebuilt_csv = prefix.with_suffix(".csv").read_bytes()
    assert rebuilt_csv == run_csv


def test_report_without_values_exits_2(tmp_path):
    assert main(["report", "--results", str(tmp_path), "--out",
                 str(tmp_path / "r")]) == 2


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
    src = str(Path(graphstress.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "graphstress.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: stress")
