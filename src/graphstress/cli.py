"""`stress`: single entry point for all operators and the pipeline runner.

Subcommands mirror the toolkit's modules: corrupt, split, imbalance,
fairness, refmodel, interpret (emit/score), report, run. The runner executes
every requested (axis, subcondition, dataset, method, seed) cell, writes
per-cell values plus the aggregated report, and exits 0 only when every
requested cell was computed or is explicitly inapplicable.

Verbosity comes from the GSH_LOG environment variable (DEBUG/INFO/...).
Cells are independent jobs; --workers controls thread parallelism and never
changes any output byte (all randomness is counter-addressed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .corruption import EDGE_LEVELS, FEATURE_LEVELS, drop_metric, edge_delete, feature_noise
from .determinism import derive_key
from .errors import ConfigError, EmptySubgraph, MissingInput, PartialFailure, StressError
from .fairness import demographic_gaps, head_tail_gap, head_tail_groups
from .graph_store import (
    Dataset,
    Graph,
    Role,
    SplitAssignment,
    load_dataset,
    save_dataset,
    write_split_file,
    write_triple_file,
)
from .imbalance import DEFAULT_RHOS, build_spec, major_minor_recall, step_downsample, train_units_by_class
from .interpret import (
    K_PERCENT_LEVELS,
    RANKINGS,
    SaliencyTable,
    build_edge_manifest,
    char_lift,
    condition_name,
    fidelity,
    masked_graph,  # noqa: F401  perfbench/child.py wraps this name when tracing
    read_probs_file,
    read_saliency_file,
    write_manifest_file,
)
from .metrics import (
    PredictionTable,
    accuracy,
    hits_at_k,
    mrr,
    ranks_from_ranking,
    read_prediction_file,
    read_ranking_file,
    roc_auc,
    write_prediction_file,
)
from .ood_splits import (
    degree_shift_split,
    inductive_entity_split,
    scaffold_gap,
    scaffold_split,
    temporal_split,
)
from .refmodel import PropagationConfig, predict_node, predicted_class_prob, propagate_predict
from .report import MetricCell, Report, aggregate_seeds, emit_report

log = logging.getLogger("graphstress")

# method capability matrix: feature-noise cells need a feature-consuming
# method, interpretation cells need a saliency source
METHOD_TRAITS = {
    "refmodel": {"uses_features": False, "saliency": "builtin"},
    "external": {"uses_features": True, "saliency": "file"},
}


def _setup_logging() -> None:
    level = os.environ.get("GSH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _train_labels(dataset: Dataset, train_units: np.ndarray) -> np.ndarray:
    g = dataset.graph
    out = np.full(g.num_nodes, -1, dtype=np.int64)
    out[train_units] = g.labels[train_units]
    return out


def _refmodel_saliency(dataset: Dataset, train_units: np.ndarray) -> SaliencyTable:
    # train-labeled nodes are the label sources the propagation model reads
    g = dataset.graph
    scores = np.zeros(g.num_nodes, dtype=np.float64)
    scores[train_units] = 1.0
    return SaliencyTable(kind="node_grad_norm",
                         unit_ids=np.arange(g.num_nodes, dtype=np.int64), scores=scores)


# ---------------------------------------------------------------------------
# operator subcommands
# ---------------------------------------------------------------------------

def cmd_corrupt(args) -> int:
    dataset = load_dataset(args.dataset)
    g = dataset.graph
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    idx = args.severity_index
    if args.channel == "feature":
        if g.features is None:
            raise MissingInput(f"{dataset.name}: feature noise needs node features")
        if dataset.split is None:
            raise MissingInput(f"{dataset.name}: feature noise needs a train split")
        levels = FEATURE_LEVELS
        if not 0 <= idx <= len(levels):
            raise ConfigError(f"severity index {idx} outside 0..{len(levels)}")
        key = derive_key("corruption", dataset.name, "feature_noise", idx, args.seed)
        if idx == 0:
            corrupted = g.features.copy()
        else:
            train = dataset.split.units(Role.TRAIN)
            corrupted = feature_noise(g.features, train, levels[idx - 1], key)
        new_graph = Dataset(kind=dataset.kind, name=dataset.name, split=dataset.split,
                            graph=_with_features(g, corrupted))
    else:
        levels = EDGE_LEVELS
        if not 0 <= idx <= len(levels):
            raise ConfigError(f"severity index {idx} outside 0..{len(levels)}")
        # severity enters through p only, so deletion sets nest across levels
        key = derive_key("corruption", dataset.name, "edge_delete", 0, args.seed)
        corrupted_graph = g if idx == 0 else edge_delete(g, levels[idx - 1], key)
        new_graph = Dataset(kind=dataset.kind, name=dataset.name, split=dataset.split,
                            graph=corrupted_graph)
    save_dataset(new_graph, out)
    sidecar = {
        "axis": "corruption", "dataset": dataset.name,
        "op": "feature_noise" if args.channel == "feature" else "edge_delete",
        "severity_index": idx, "seed": args.seed,
        "level": None if idx == 0 else levels[idx - 1],
        "key": f"{key.key:016x}",
    }
    (out / "corrupt.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def _with_features(g, features):
    return Graph(num_nodes=g.num_nodes, offsets=g.offsets, neighbors=g.neighbors,
                 undirected=g.undirected, features=features, labels=g.labels,
                 num_classes=g.num_classes, meta=g.meta)


def cmd_split(args) -> int:
    dataset = load_dataset(args.dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mechanism == "degree":
        split = degree_shift_split(dataset.graph, dataset.graph.labeled_nodes())
        write_split_file(out / "split.tsv", split)
    elif args.mechanism == "temporal":
        years = dataset.graph.meta.year
        if years is None:
            raise MissingInput(f"{dataset.name}: temporal split needs per-node years")
        split = temporal_split(years, dataset.graph.labeled_nodes())
        write_split_file(out / "split.tsv", split)
    elif args.mechanism == "scaffold":
        key = derive_key("ood", dataset.name, "scaffold", 0, args.seed)
        split = scaffold_split(dataset.collection.scaffold_ids, key)
        write_split_file(out / "split.tsv", split)
    else:  # kg
        key = derive_key("ood", dataset.name, "kg_inductive", 0, args.seed)
        ksplit = inductive_entity_split(dataset.store, key)
        write_triple_file(out / "train_triples.tsv", ksplit.train_triples)
        with open(out / "queries.tsv", "w") as f:
            for h, r, t, d in ksplit.test_queries.tolist():
                f.write(f"{h}\t{r}\t{t}\t{d}\n")
        with open(out / "train_entities.tsv", "w") as f:
            for e in ksplit.train_entities.tolist():
                f.write(f"{e}\n")
        with open(out / "test_entities.tsv", "w") as f:
            for e in ksplit.test_entities.tolist():
                f.write(f"{e}\n")
    sidecar = {"axis": "ood", "mechanism": args.mechanism, "dataset": dataset.name,
               "seed": args.seed}
    (out / "split.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_imbalance(args) -> int:
    dataset = load_dataset(args.dataset)
    g = dataset.graph
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train = dataset.split.units(Role.TRAIN)
    counts = np.bincount(g.labels[train], minlength=g.num_classes)
    spec = build_spec(counts, args.rho)
    key = derive_key("imbalance", dataset.name, "downsample", int(args.rho), args.seed)
    kept = step_downsample(train_units_by_class(g.labels, train, g.num_classes), spec, key)
    roles = dataset.split.roles.copy()
    dropped = np.setdiff1d(train, kept)
    roles[dropped] = int(Role.EXCLUDED)
    write_split_file(out / "split.tsv", SplitAssignment(roles))
    sidecar = {
        "axis": "imbalance", "dataset": dataset.name, "rho": args.rho, "seed": args.seed,
        "major_classes": list(spec.major_classes), "minor_classes": list(spec.minor_classes),
        "n_major": spec.n_major, "targets": {str(k): v for k, v in sorted(spec.targets.items())},
    }
    (out / "imbalance.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_fairness(args) -> int:
    dataset = load_dataset(args.dataset)
    g = dataset.graph
    preds = read_prediction_file(args.pred)
    test = dataset.split.units(Role.TEST)
    result: dict = {"dataset": dataset.name, "kind": args.kind}
    if args.kind == "structural":
        groups = head_tail_groups(test, g.degrees(), args.quantile)
        result["head_tail_gap_pp"] = head_tail_gap(preds, g.labels, groups)
        result["head_size"] = len(groups.first)
        result["tail_size"] = len(groups.second)
    else:
        sens = g.meta.sensitive_attr
        if sens is None:
            raise MissingInput(f"{dataset.name}: demographic gaps need a sensitive attribute")
        binary = preds.predicted_classes(test, threshold=args.threshold)
        scores = preds.scores_for(test)
        gaps = demographic_gaps(binary, scores, g.labels[test], sens[test])
        result["d_sp"] = gaps.d_sp
        result["d_eo"] = gaps.d_eo
        result["d_util"] = gaps.d_util
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_refmodel(args) -> int:
    dataset = load_dataset(args.dataset)
    g = dataset.graph
    train = dataset.split.units(Role.TRAIN)
    config = PropagationConfig(hops=args.hops, alpha=args.alpha)
    table = propagate_predict(g, _train_labels(dataset, train), g.num_classes, config)
    write_prediction_file(args.out, table)
    return 0


def cmd_interpret_emit(args) -> int:
    dataset = load_dataset(args.dataset)
    g = dataset.graph
    saliency = read_saliency_file(args.saliency)
    k_levels = tuple(float(x) if "." in x else int(x) for x in args.k.split(","))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.targets:
        targets = [int(t) for t in args.targets.split(",")]
    else:
        targets = dataset.split.units(Role.TEST)[:args.num_targets].tolist()
    written, skipped = [], []
    for t in targets:
        key = derive_key("interpret", dataset.name, f"mask_target_{t}", 0, args.seed)
        try:
            manifest = build_edge_manifest(g, t, saliency, key, hops=args.hops,
                                           k_levels=k_levels)
        except EmptySubgraph:
            log.info("target %d skipped: empty receptive field", t)
            skipped.append(int(t))
            continue
        write_manifest_file(out / f"target_{t}.manifest", manifest)
        written.append(int(t))
    sidecar = {"axis": "interpret", "dataset": dataset.name, "seed": args.seed,
               "k_levels": list(k_levels), "targets": written, "skipped": skipped}
    (out / "emit.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_interpret_score(args) -> int:
    manifest_dir = Path(args.manifest)
    probs = read_probs_file(args.probs)
    emit_meta = json.loads((manifest_dir / "emit.json").read_text())
    k_levels = emit_meta["k_levels"]
    records: dict = {}
    per_k: dict = {}
    for t in emit_meta["targets"]:
        if (t, "clean") not in probs:
            raise MissingInput(f"probs file lacks clean probability for target {t}")
        p0 = probs[(t, "clean")]
        records[str(t)] = {}
        for ranking in RANKINGS:
            for k in k_levels:
                top = condition_name(ranking, "top", k)
                comp = condition_name(ranking, "comp", k)
                if (t, top) not in probs or (t, comp) not in probs:
                    raise MissingInput(f"probs file lacks condition {top}/{comp} for target {t}")
                rec = fidelity(p0, probs[(t, top)], probs[(t, comp)])
                records[str(t)][condition_name(ranking, "char", k)] = rec.char
                records[str(t)][condition_name(ranking, "fid_plus", k)] = rec.fid_plus
                records[str(t)][condition_name(ranking, "fid_minus", k)] = rec.fid_minus
                per_k.setdefault((ranking, k), []).append(rec.char)
    cells: dict = {}
    for k in k_levels:
        sal = aggregate_seeds(per_k[("saliency", k)])
        rand = aggregate_seeds(per_k[("random", k)])
        cells[f"char_saliency_{k}"] = sal.as_dict()
        cells[f"char_random_{k}"] = rand.as_dict()
        cells[f"delta_char_{k}"] = char_lift(sal, rand).as_dict()
    payload = {"records": records, "cells": cells, "n_targets": len(emit_meta["targets"])}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args) -> int:
    values_dir = Path(args.results) / "values"
    if not values_dir.is_dir():
        raise MissingInput(f"no values directory under {args.results}")
    report = Report(cells={}, provenance={"tool_version": __version__})
    for path in sorted(values_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        cell = _cell_from_values(rec["values"])
        report.put(rec["axis"], rec["subcondition"], rec["dataset"], rec["method"], cell)
    _emit_lifts(report)
    out = Path(args.out)
    emit_report(report, json_path=out.with_suffix(".json"), csv_path=out.with_suffix(".csv"))
    return 0


# ---------------------------------------------------------------------------
# pipeline runner
# ---------------------------------------------------------------------------

AXES = ("corruption", "ood", "imbalance", "fairness", "interpret")


def _load_config(path: Path) -> dict:
    try:
        config = json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingInput(f"config file {path} does not exist")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: config does not parse: {e}")
    for axis in config.get("axes", []):
        if axis not in AXES:
            raise ConfigError(f"unknown axis {axis!r}; valid: {', '.join(AXES)}")
    if not config.get("datasets"):
        raise ConfigError("config lists no datasets")
    if not config.get("axes"):
        raise ConfigError("config lists no axes")
    for m in config.get("methods", []):
        kind = m.get("kind", "refmodel")
        if kind not in METHOD_TRAITS:
            raise ConfigError(f"unknown method kind {kind!r}")
        if kind == "external" and not m.get("pred_dir"):
            raise ConfigError(f"external method {m.get('name', kind)!r} needs a pred_dir")
    seeds = config.get("seeds", 5)
    if isinstance(seeds, int):
        config["seeds"] = list(range(seeds))
    return config


INAPPLICABLE = "inapplicable"


def _cell_from_values(values: list) -> MetricCell:
    if all(v == INAPPLICABLE for v in values):
        return MetricCell(mean=None, std=None, n=len(values), undefined=True,
                          note=INAPPLICABLE)
    if any(v is None for v in values):
        return MetricCell.undef(len(values))
    return aggregate_seeds([float(v) for v in values])


class _CellJob:
    """One (dataset, method, axis, seed) computation producing sub -> value."""

    def __init__(self, runner, dataset_name, method, axis, seed):
        self.runner = runner
        self.dataset_name = dataset_name
        self.method = method
        self.axis = axis
        self.seed = seed

    def run(self) -> dict:
        dataset = self.runner.datasets[self.dataset_name]
        fn = getattr(self.runner, f"_axis_{self.axis}")
        return fn(dataset, self.method, self.seed)


class PipelineRunner:
    """Executes the requested cell grid and writes the result tree."""

    def __init__(self, config: dict, out_dir: Path, workers: int = 1):
        self.config = config
        self.out = out_dir
        self.workers = max(1, workers)
        self.write_ops = bool(config.get("write_operator_outputs", False))
        self.rhos = config.get("rhos", list(DEFAULT_RHOS))
        self.k_levels = config.get("k_levels", list(K_PERCENT_LEVELS))
        self.num_targets = int(config.get("interpret_targets", 10))
        self.quantile = float(config.get("head_tail_quantile", 0.2))
        self.datasets: dict[str, Dataset] = {}
        self.failures: list[tuple[str, str]] = []
        self._ops_method: str | None = None  # single designated op-output writer

    def _writes_ops(self, method: dict) -> bool:
        # operator outputs are method-independent; one method writes them so
        # parallel jobs never race on the same file
        return self.write_ops and method["name"] == self._ops_method

    # -- axis drivers: return {subcondition: value | None | INAPPLICABLE} --

    def _score_table(self, dataset: Dataset, method: dict, axis: str, sub: str,
                     seed: int, graph=None, train=None) -> PredictionTable:
        g = graph if graph is not None else dataset.graph
        if method["kind"] == "refmodel":
            if train is None:
                train = dataset.split.units(Role.TRAIN)
            labels = np.full(g.num_nodes, -1, dtype=np.int64)
            labels[train] = g.labels[train]
            return propagate_predict(g, labels, g.num_classes)
        pred_path = (Path(method["pred_dir"]) / dataset.name / axis / sub
                     / f"seed{seed}.pred")
        if not pred_path.is_file():
            raise MissingInput(
                f"cell ({axis}, {sub}, {dataset.name}, {method['name']}, seed {seed}): "
                f"missing prediction file {pred_path}")
        return read_prediction_file(pred_path)

    def _axis_corruption(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        test = dataset.split.units(Role.TEST)
        train = dataset.split.units(Role.TRAIN)
        out: dict = {}
        clean = accuracy(self._score_table(dataset, method, "corruption", "clean", seed),
                         g.labels, test) * 100.0
        out["clean"] = clean

        feature_ok = g.features is not None and METHOD_TRAITS[method["kind"]]["uses_features"]
        write_feature_ops = self._writes_ops(method) and g.features is not None
        for i, sigma in enumerate(FEATURE_LEVELS, start=1):
            sub = f"feature_sev{i}"
            if feature_ok or write_feature_ops:
                key = derive_key("corruption", dataset.name, "feature_noise", i, seed)
                noisy = feature_noise(g.features, train, sigma, key)
                if write_feature_ops:
                    self._write_op_dataset(dataset, _with_features(g, noisy),
                                           f"corrupt_feature_sev{i}_seed{seed}")
            if not feature_ok:
                out[sub] = INAPPLICABLE
                continue
            table = self._score_table(dataset, method, "corruption", sub, seed)
            out[sub] = accuracy(table, g.labels, test) * 100.0
        out["feature_drop"] = (drop_metric(out["clean"], out["feature_sev5"])
                               if feature_ok else INAPPLICABLE)

        edge_key = derive_key("corruption", dataset.name, "edge_delete", 0, seed)
        for i, p in enumerate(EDGE_LEVELS, start=1):
            sub = f"edge_sev{i}"
            deleted = edge_delete(g, p, edge_key)
            if self._writes_ops(method):
                self._write_op_dataset(dataset, deleted, f"corrupt_edge_sev{i}_seed{seed}")
            table = self._score_table(dataset, method, "corruption", sub, seed,
                                      graph=deleted, train=train)
            out[sub] = accuracy(table, g.labels, test) * 100.0
        out["edge_drop"] = drop_metric(out["clean"], out["edge_sev5"])
        return out

    def _axis_ood(self, dataset: Dataset, method: dict, seed: int) -> dict:
        out: dict = {}
        if dataset.kind != "node_graph":
            return self._axis_ood_nonnode(dataset, method, seed)
        g = dataset.graph
        split = degree_shift_split(g, g.labeled_nodes())
        if self._writes_ops(method):
            self._write_op_split(dataset, split, f"split_degree_seed{seed}")
        table = self._score_table(dataset, method, "ood", "degree", seed,
                                  train=split.units(Role.TRAIN))
        out["degree"] = accuracy(table, g.labels, split.units(Role.OOD_TEST)) * 100.0
        if g.meta.year is None:
            out["temporal"] = INAPPLICABLE
        else:
            tsplit = temporal_split(g.meta.year, g.labeled_nodes())
            if self._writes_ops(method):
                self._write_op_split(dataset, tsplit, f"split_temporal_seed{seed}")
            ttable = self._score_table(dataset, method, "ood", "temporal", seed,
                                       train=tsplit.units(Role.TRAIN))
            out["temporal"] = accuracy(ttable, g.labels, tsplit.units(Role.OOD_TEST)) * 100.0
        return out

    def _axis_ood_nonnode(self, dataset: Dataset, method: dict, seed: int) -> dict:
        out: dict = {}
        if dataset.kind == "graph_collection":
            key = derive_key("ood", dataset.name, "scaffold", 0, seed)
            split = scaffold_split(dataset.collection.scaffold_ids, key)
            if self._writes_ops(method):
                self._write_op_split(dataset, split, f"split_scaffold_seed{seed}")
            if method["kind"] != "external":
                out["scaffold_auc"] = INAPPLICABLE
                out["scaffold_gap"] = INAPPLICABLE
                return out
            labels = dataset.collection.labels[:, 0]
            test = split.units(Role.TEST)
            aucs = {}
            for sub in ("scaffold", "random"):
                table = self._score_table(dataset, method, "ood", sub, seed)
                aucs[sub] = roc_auc(table.scores_for(test), labels[test]) * 100.0
            out["scaffold_auc"] = aucs["scaffold"]
            out["scaffold_gap"] = scaffold_gap(aucs["random"], aucs["scaffold"])
            return out
        # triples: inductive-entity ranking
        key = derive_key("ood", dataset.name, "kg_inductive", 0, seed)
        ksplit = inductive_entity_split(dataset.store, key)
        if self._writes_ops(method):
            op_dir = self.out / "ops" / dataset.name / f"split_kg_seed{seed}"
            op_dir.mkdir(parents=True, exist_ok=True)
            write_triple_file(op_dir / "train_triples.tsv", ksplit.train_triples)
        if method["kind"] != "external":
            out["kg_mrr"] = INAPPLICABLE
            out["kg_hits10"] = INAPPLICABLE
            return out
        rank_path = (Path(method["pred_dir"]) / dataset.name / "ood" / "kg"
                     / f"seed{seed}.ranking")
        if not rank_path.is_file():
            raise MissingInput(
                f"cell (ood, kg, {dataset.name}, {method['name']}, seed {seed}): "
                f"missing ranking file {rank_path}")
        queries, cands, scores = read_ranking_file(rank_path)
        truth = {i: ksplit.held_out_entity(row)
                 for i, row in enumerate(ksplit.test_queries)}
        ranks = ranks_from_ranking(queries, cands, scores, truth)
        out["kg_mrr"] = mrr(ranks)
        out["kg_hits10"] = hits_at_k(ranks, 10)
        return out

    def _axis_imbalance(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        train = dataset.split.units(Role.TRAIN)
        test = dataset.split.units(Role.TEST)
        counts = np.bincount(g.labels[train], minlength=g.num_classes)
        out: dict = {}
        for rho in self.rhos:
            spec = build_spec(counts, rho)
            key = derive_key("imbalance", dataset.name, "downsample", int(rho), seed)
            kept = step_downsample(train_units_by_class(g.labels, train, g.num_classes),
                                   spec, key)
            if self._writes_ops(method):
                roles = dataset.split.roles.copy()
                roles[np.setdiff1d(train, kept)] = int(Role.EXCLUDED)
                self._write_op_split(dataset, SplitAssignment(roles),
                                     f"imbalance_rho{int(rho)}_seed{seed}")
            sub = f"rho{int(rho)}"
            table = self._score_table(dataset, method, "imbalance", sub, seed, train=kept)
            major, minor = major_minor_recall(table, g.labels, spec, test)
            out[f"{sub}_major_recall"] = major * 100.0
            out[f"{sub}_minor_recall"] = minor * 100.0
        return out

    def _axis_fairness(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        test = dataset.split.units(Role.TEST)
        table = self._score_table(dataset, method, "fairness", "clean", seed)
        out: dict = {}
        groups = head_tail_groups(test, g.degrees(), self.quantile)
        if len(groups.first) == 0:
            out["head_tail_gap"] = None
        else:
            out["head_tail_gap"] = head_tail_gap(table, g.labels, groups)
        sens = g.meta.sensitive_attr
        if sens is None or g.num_classes != 2:
            out["d_sp"] = INAPPLICABLE
            out["d_eo"] = INAPPLICABLE
            out["d_util"] = INAPPLICABLE
            return out
        binary = table.predicted_classes(test)
        scores = table.scores_for(test)
        gaps = demographic_gaps(binary, scores, g.labels[test], sens[test])
        out["d_sp"] = gaps.d_sp
        out["d_eo"] = gaps.d_eo
        out["d_util"] = gaps.d_util
        return out

    def _axis_interpret(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        if METHOD_TRAITS[method["kind"]]["saliency"] != "builtin":
            probs_path = (Path(method["pred_dir"]) / dataset.name / "interpret"
                          / f"seed{seed}.probs")
            if not method.get("has_saliency", False):
                # no per-edge gradient interface: protocol excludes the method
                return {f"char_{r}_{k}": INAPPLICABLE
                        for r in RANKINGS for k in self.k_levels}
            if not probs_path.is_file():
                raise MissingInput(
                    f"cell (interpret, char, {dataset.name}, {method['name']}, "
                    f"seed {seed}): missing probabilities file {probs_path}")
            return self._score_external_probs(dataset, method, seed, probs_path)

        train = dataset.split.units(Role.TRAIN)
        train_labels = _train_labels(dataset, train)
        saliency = _refmodel_saliency(dataset, train)
        targets = dataset.split.units(Role.TEST)[:self.num_targets]
        per_condition: dict[str, list[float]] = {}
        used = 0
        for t in targets.tolist():
            key = derive_key("interpret", dataset.name, f"mask_target_{t}", 0, seed)
            try:
                manifest = build_edge_manifest(g, t, saliency, key,
                                               k_levels=self.k_levels)
            except EmptySubgraph:
                log.info("target %d skipped: empty receptive field", t)
                continue
            used += 1
            if self._writes_ops(method):
                op_dir = self.out / "ops" / dataset.name / f"interpret_seed{seed}"
                op_dir.mkdir(parents=True, exist_ok=True)
                write_manifest_file(op_dir / f"target_{t}.manifest", manifest)
            row = predict_node(g, train_labels, g.num_classes, t)
            clean_class = int(np.argmax(row))
            p0 = float(row[clean_class])
            # a search of the clean graph that skips the masked edges gives
            # the same bits as rescoring masked_graph, without a rebuild
            for ranking in RANKINGS:
                for k in self.k_levels:
                    top = manifest.edges[manifest.conditions[condition_name(ranking, "top", k)]]
                    comp = manifest.edges[manifest.conditions[condition_name(ranking, "comp", k)]]
                    p_plus = predicted_class_prob(g, train_labels, g.num_classes, t,
                                                  clean_class, masked_edges=top)
                    p_minus = predicted_class_prob(g, train_labels, g.num_classes, t,
                                                   clean_class, masked_edges=comp)
                    rec = fidelity(p0, p_plus, p_minus)
                    per_condition.setdefault(f"char_{ranking}_{k}", []).append(rec.char)
        if used == 0:
            return {f"char_{r}_{k}": None for r in RANKINGS for k in self.k_levels}
        return {name: float(np.mean(vals)) for name, vals in sorted(per_condition.items())}

    def _score_external_probs(self, dataset, method, seed, probs_path) -> dict:
        probs = read_probs_file(probs_path)
        targets = sorted({t for (t, _c) in probs})
        per_condition: dict[str, list[float]] = {}
        for t in targets:
            if (t, "clean") not in probs:
                raise MissingInput(f"probs file lacks clean probability for target {t}")
            p0 = probs[(t, "clean")]
            for ranking in RANKINGS:
                for k in self.k_levels:
                    top = condition_name(ranking, "top", k)
                    comp = condition_name(ranking, "comp", k)
                    if (t, top) not in probs or (t, comp) not in probs:
                        raise MissingInput(
                            f"cell (interpret, {top}, {dataset.name}, {method['name']}, "
                            f"seed {seed}): missing condition in {probs_path}")
                    rec = fidelity(p0, probs[(t, top)], probs[(t, comp)])
                    per_condition.setdefault(f"char_{ranking}_{k}", []).append(rec.char)
        return {name: float(np.mean(vals)) for name, vals in sorted(per_condition.items())}

    # -- operator output writers (byte-deterministic paths + contents) --

    def _write_op_dataset(self, dataset: Dataset, graph, tag: str) -> None:
        op_dir = self.out / "ops" / dataset.name / tag
        save_dataset(Dataset(kind=dataset.kind, name=dataset.name, graph=graph,
                             split=dataset.split), op_dir)

    def _write_op_split(self, dataset: Dataset, split, tag: str) -> None:
        op_dir = self.out / "ops" / dataset.name / tag
        op_dir.mkdir(parents=True, exist_ok=True)
        write_split_file(op_dir / "split.tsv", split)

    # -- orchestration --

    def run(self) -> Report:
        for spec in self.config["datasets"]:
            ds = load_dataset(spec["manifest"])
            if "name" in spec:
                ds.name = spec["name"]
            self.datasets[ds.name] = ds
        methods = self.config.get("methods", [])
        for m in methods:
            m.setdefault("kind", "refmodel")
            m.setdefault("name", m["kind"])
        if methods:
            self._ops_method = methods[0]["name"]
        seeds = self.config["seeds"]
        axes = self.config["axes"]

        jobs = [
            _CellJob(self, ds_name, method, axis, seed)
            for ds_name in sorted(self.datasets)
            for method in methods
            for axis in axes
            for seed in seeds
        ]
        results: dict[tuple, dict] = {}
        if self.workers == 1:
            outcomes = [self._run_job(j) for j in jobs]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(pool.map(self._run_job, jobs))
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, Exception):
                self.failures.append(
                    (f"({job.axis}, {job.dataset_name}, {job.method['name']}, "
                     f"seed {job.seed})", f"{type(outcome).__name__}: {outcome}"))
                continue
            for sub, value in outcome.items():
                cell_key = (job.axis, sub, job.dataset_name, job.method["name"])
                results.setdefault(cell_key, {})[job.seed] = value

        report = self._aggregate(results, seeds)
        self._write_results(results, seeds, report)
        if self.failures:
            log_path = self.out / "errors.log"
            with open(log_path, "w") as f:
                for cell, err in self.failures:
                    f.write(f"{cell}\t{err}\n")
            raise PartialFailure([f"{cell}: {err}" for cell, err in self.failures])
        return report

    def _run_job(self, job: _CellJob):
        try:
            return job.run()
        except Exception as e:  # collected into the per-cell error log
            return e

    def _aggregate(self, results: dict, seeds: list) -> Report:
        config_text = json.dumps(self.config, sort_keys=True)
        report = Report(cells={}, provenance={
            "tool_version": __version__,
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
            "seeds": list(seeds),
        })
        for (axis, sub, ds, m), per_seed in sorted(results.items()):
            values = [per_seed[s] for s in seeds if s in per_seed]
            if not values:
                continue
            report.put(axis, sub, ds, m, _cell_from_values(values))
        _emit_lifts(report)
        return report

    def _write_results(self, results: dict, seeds: list, report: Report) -> None:
        values_dir = self.out / "values"
        values_dir.mkdir(parents=True, exist_ok=True)
        for (axis, sub, ds, m), per_seed in sorted(results.items()):
            rec = {
                "axis": axis, "subcondition": sub, "dataset": ds, "method": m,
                "seeds": [s for s in seeds if s in per_seed],
                "values": [per_seed[s] for s in seeds if s in per_seed],
            }
            path = values_dir / f"{axis}.{sub}.{ds}.{m}.json"
            path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
        if report.num_cells:
            emit_report(report, json_path=self.out / "report.json",
                        csv_path=self.out / "report.csv")


def _emit_lifts(report: Report) -> None:
    """Add delta_char cells (saliency minus random, std-propagated) per k."""
    interpret = report.cells.get("interpret", {})
    sal_subs = [s for s in list(interpret) if s.startswith("char_saliency_")]
    for sal_sub in sal_subs:
        k = sal_sub.removeprefix("char_saliency_")
        rand_sub = f"char_random_{k}"
        if rand_sub not in interpret:
            continue
        for ds in interpret[sal_sub]:
            for m in interpret[sal_sub][ds]:
                rand_cell = interpret.get(rand_sub, {}).get(ds, {}).get(m)
                if rand_cell is None:
                    continue
                lift = char_lift(interpret[sal_sub][ds][m], rand_cell)
                report.put("interpret", f"delta_char_{k}", ds, m, lift)


def cmd_run(args) -> int:
    config = _load_config(Path(args.config))
    if args.seed is not None:
        config["seeds"] = [args.seed]
    out = Path(args.out) if args.out else Path(config.get("out", "results"))
    out.mkdir(parents=True, exist_ok=True)
    workers = args.workers if args.workers else int(config.get("workers", 1))
    runner = PipelineRunner(config, out, workers=workers)
    try:
        report = runner.run()
    except PartialFailure as e:
        for failure in e.failures:
            print(f"cell failed: {failure}", file=sys.stderr)
        print(f"{len(e.failures)} cell(s) failed; see {out / 'errors.log'}",
              file=sys.stderr)
        return 1
    if report.num_cells == 0:
        print(f"operator outputs written under {out} (no metric cells requested)")
        return 0
    n_inapplicable = sum(1 for *_k, cell in report.rows() if cell.note == INAPPLICABLE)
    print(f"report: {out / 'report.json'} ({report.num_cells} cells, "
          f"{n_inapplicable} inapplicable)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stress",
        description="Multi-axis graph-safety stress evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="emit a corrupted copy of a dataset")
    p.add_argument("--dataset", required=True, help="manifest path")
    p.add_argument("--channel", required=True, choices=["feature", "edge"])
    p.add_argument("--severity-index", type=int, required=True,
                   help="0 = clean, 1..5 = schedule position")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("split", help="construct an OOD split")
    p.add_argument("--mechanism", required=True,
                   choices=["degree", "temporal", "scaffold", "kg"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("imbalance", help="emit a step-imbalanced train split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_imbalance)

    p = sub.add_parser("fairness", help="compute fairness gaps from predictions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", required=True, choices=["structural", "demographic"])
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quantile", type=float, default=0.2)
    p.add_argument("--threshold", type=float, default=None,
                   help="binary decision threshold (default argmax)")
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("refmodel", help="score a dataset with the built-in propagation model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_refmodel)

    p = sub.add_parser("interpret", help="attribution-fidelity protocol")
    isub = p.add_subparsers(dest="interpret_command", required=True)
    pe = isub.add_parser("emit", help="write ablation manifests for external re-scoring")
    pe.add_argument("--dataset", required=True)
    pe.add_argument("--saliency", required=True)
    pe.add_argument("--k", default="5,10,20,50")
    pe.add_argument("--targets", default=None, help="comma-separated target ids")
    pe.add_argument("--num-targets", type=int, default=10)
    pe.add_argument("--hops", type=int, default=2)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_interpret_emit)
    ps = isub.add_parser("score", help="combine re-scored probabilities into fidelity cells")
    ps.add_argument("--manifest", required=True)
    ps.add_argument("--probs", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_interpret_score)

    p = sub.add_parser("report", help="aggregate per-cell values into report files")
    p.add_argument("--results", required=True, help="pipeline output directory")
    p.add_argument("--out", required=True, help="output path prefix (.json/.csv added)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StressError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
