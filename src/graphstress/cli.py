"""`stress`: single entry point for all operators and the pipeline runner.

Subcommands mirror the toolkit's modules: corrupt, split, imbalance,
fairness, refmodel, interpret (emit/score), report, run. The runner executes
every requested (axis, subcondition, dataset, method, seed) cell, writes
per-cell values plus the aggregated report, and exits 0 only when every
requested cell was computed or is explicitly inapplicable.

Verbosity comes from the GSH_LOG environment variable (DEBUG/INFO/...).
Cells are independent jobs. The calling thread loads the datasets one at a
time, each just before its jobs, and drops it when they end. --workers N
runs a dataset's jobs on the calling thread plus N - 1 helper threads (never
more threads than jobs); it never changes any output byte (all randomness is
counter-addressed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import shutil
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corruption import EDGE_LEVELS, FEATURE_LEVELS, drop_metric, edge_delete, feature_noise
from .determinism import derive_key
from .errors import (
    BadId,
    ConfigError,
    DegenerateGroup,
    EmptySubgraph,
    MissingInput,
    NoTrainLabels,
    PartialFailure,
    StressError,
)
from .fairness import DemographicGaps, demographic_gaps, head_tail_gap, head_tail_groups
from .graph_store import (
    Dataset,
    Graph,
    Role,
    SplitAssignment,
    _id_dtype,
    _read_manifest,
    load_dataset,
    read_json,
    remove_edges,
    save_dataset,
    write_json,
    write_split_file,
    write_table,
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
from .refmodel import (
    PropagationConfig,
    predicted_class_prob,
    propagate_predict,
)
from .report import MetricCell, Report, aggregate_seeds, emit_report

log = logging.getLogger("graphstress")


def _setup_logging() -> None:
    level = os.environ.get("GSH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _train_labels(g: Graph, train_units: np.ndarray) -> np.ndarray:
    """Each node's label if it is a train unit, else -1, in the narrowest signed dtype."""
    out = np.full(g.num_nodes, -1, dtype=np.min_scalar_type(-1 - g.num_classes))
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
# operator layer: the subcommands and the runner's axis drivers both call
# these, so a subcommand's output is byte-equal to the runner's ops/ copy
# ---------------------------------------------------------------------------

KIND_NOUNS = {"node_graph": "node graph", "graph_collection": "molecule collection",
              "triples": "triple store"}


def _check_kind(dataset: Dataset, kind: str, what: str) -> None:
    if dataset.kind != kind:
        raise MissingInput(f"{dataset.name}: {what} needs a {KIND_NOUNS[kind]}")


def _check_labels(dataset: Dataset) -> None:
    if dataset.graph.labels is None:
        raise MissingInput(f"{dataset.name}: no node labels (label_file) in its manifest")


def _given_split(dataset: Dataset) -> SplitAssignment:
    if dataset.split is None:
        raise MissingInput(f"{dataset.name}: no train/test split (split_file) in its manifest")
    return dataset.split


def _test_units(dataset: Dataset) -> np.ndarray:
    """The given split's test units; an unlabeled one is a MissingInput naming it."""
    test = _given_split(dataset).units(Role.TEST)
    unlabeled = test[dataset.graph.labels[test] == dataset.graph.num_classes]
    if len(unlabeled):
        raise MissingInput(f"{dataset.name}: test unit {unlabeled[0]} has no label")
    return test


def _edge_key(dataset: Dataset, seed: int):
    # severity enters through p only, so one key serves every level and deletion sets nest
    return derive_key("corruption", dataset.name, "edge_delete", 0, seed)


def _corrupted(dataset: Dataset, channel: str, idx: int, seed: int):
    """(dataset, level, key) at severity index idx of channel feature|edge; 0 is clean."""
    levels = FEATURE_LEVELS if channel == "feature" else EDGE_LEVELS
    level = None if idx == 0 else levels[idx - 1]
    _check_kind(dataset, "node_graph", f"{channel} corruption")
    g = dataset.graph
    if channel == "feature":
        if g.features is None:
            raise MissingInput(f"{dataset.name}: feature noise needs node features")
        train = _given_split(dataset).units(Role.TRAIN)
        key = derive_key("corruption", dataset.name, "feature_noise", idx, seed)
    else:
        key = _edge_key(dataset, seed)
    if idx == 0:
        graph = g
    elif channel == "feature":
        graph = replace(g, features=feature_noise(g.features, train, level, key))
    else:
        graph = remove_edges(g, edge_delete(g, EDGE_LEVELS, key) < idx)
    return replace(dataset, graph=graph), level, key


def _ood_split(dataset: Dataset, mechanism: str, seed: int):
    """Split of one OOD mechanism; a KgInductiveSplit for kg, else a SplitAssignment."""
    kind = {"scaffold": "graph_collection", "kg": "triples"}.get(mechanism, "node_graph")
    _check_kind(dataset, kind, f"the {mechanism} split")
    g = dataset.graph
    if mechanism == "degree":
        return degree_shift_split(g, g.labeled_nodes())
    if mechanism == "temporal":
        if g.meta.year is None:
            raise MissingInput(f"{dataset.name}: temporal split needs per-node years")
        return temporal_split(g.meta.year, g.labeled_nodes())
    if mechanism == "scaffold":
        if dataset.collection.scaffold_ids is None:
            raise MissingInput(f"{dataset.name}: scaffold split needs scaffold ids (scaffold_file)")
        key = derive_key("ood", dataset.name, "scaffold", 0, seed)
        return scaffold_split(dataset.collection.scaffold_ids, key)
    key = derive_key("ood", dataset.name, "kg_inductive", 0, seed)
    return inductive_entity_split(dataset.store, key)


def _write_split(out_dir: Path, split) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(split, SplitAssignment):
        write_split_file(out_dir / "split.tsv", split)
    else:
        write_triple_file(out_dir / "train_triples.tsv", split.train_triples)


def _imbalanced(dataset: Dataset, rho: float, seed: int):
    """(spec, kept train units, reduced split) of a step-imbalance downsample."""
    _check_kind(dataset, "node_graph", "an imbalanced split")
    _check_labels(dataset)
    g = dataset.graph
    split = _given_split(dataset)
    train = split.units(Role.TRAIN)
    # an unlabeled train unit's label is num_classes: it counts in no class
    spec = build_spec(np.bincount(g.labels[train], minlength=g.num_classes + 1)[:-1], rho)
    key = derive_key("imbalance", dataset.name, "downsample", int(rho), seed)
    kept = step_downsample(train_units_by_class(g.labels, train, g.num_classes), spec, key)
    dropped = np.zeros(split.num_units, dtype=bool)
    dropped[train] = True
    dropped[kept] = False
    roles = split.roles.copy()
    roles[dropped] = int(Role.EXCLUDED)
    return spec, kept, SplitAssignment(roles)


def _head_tail(dataset: Dataset, table: PredictionTable, quantile: float):
    """(groups, gap) of the test split's degree head and tail; gap is None for empty groups."""
    g = dataset.graph
    groups = head_tail_groups(_test_units(dataset), g.degrees(), quantile)
    gap = head_tail_gap(table, g.labels, groups) if len(groups.first) else None
    return groups, gap


def _demographic(dataset: Dataset, table: PredictionTable,
                 threshold: float | None = None) -> DemographicGaps:
    """Demographic gaps on the test split; all None when a sensitive group is empty."""
    g = dataset.graph
    sens = g.meta.sensitive_attr
    if sens is None:
        raise MissingInput(f"{dataset.name}: demographic gaps need a sensitive attribute")
    if g.num_classes != 2:
        raise MissingInput(f"{dataset.name}: demographic gaps need 2 classes, not {g.num_classes}")
    test = _test_units(dataset)
    binary = table.predicted_classes(test, threshold=threshold)
    scores = table.scores_for(test)
    try:
        return demographic_gaps(binary, scores, g.labels[test], sens[test])
    except DegenerateGroup as e:
        log.warning("%s: demographic gaps undefined: %s", dataset.name, e)
        return DemographicGaps(d_sp=None, d_eo=None, d_util=None)


def _edge_manifests(dataset: Dataset, saliency: SaliencyTable, targets: list, seed: int,
                    k_levels, hops: int, out_dir: Path | None = None) -> dict:
    """Target -> edge manifest, leaving out targets whose receptive field has no edge.

    With ``out_dir`` each manifest is also written to target_<t>.manifest there.
    """
    manifests = {}
    for t in targets:
        key = derive_key("interpret", dataset.name, f"mask_target_{t}", 0, seed)
        try:
            manifests[t] = build_edge_manifest(dataset.graph, t, saliency, key, hops=hops,
                                               k_levels=k_levels)
        except EmptySubgraph:
            log.info("target %d skipped: empty receptive field", t)
            continue
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_manifest_file(out_dir / f"target_{t}.manifest", manifests[t])
    return manifests


def _check_probs(probs: dict, targets, k_levels, source) -> None:
    """A probs file's rows must be exactly clean plus every condition of every target."""
    conditions = ["clean", *(condition_name(r, side, k) for r in RANKINGS for k in k_levels
                             for side in ("top", "comp"))]
    rows = [(t, c) for t in targets for c in conditions]
    extra = sorted(probs.keys() - set(rows))
    if extra:
        raise BadId(f"{source} has a row for target {extra[0][0]}, condition {extra[0][1]}, "
                    "which no manifest holds")
    for t, c in rows:
        if (t, c) not in probs:
            raise MissingInput(f"{source} lacks the {c} probability of target {t}")


FAMILIES = [(r, side) for r in RANKINGS for side in ("top", "comp")]
FAMILY_LEVELS = 127  # edge survival counts are int8


def _refmodel_probs(graph: Graph, train_labels: np.ndarray, manifests: dict, k_levels) -> dict:
    """(target, condition) -> the built-in model's predicted-class probability, clean included.

    A (ranking, side) family's masked edge sets nest across k: ``top``'s grow with k,
    ``comp``'s as k falls. So a target is scored on one block-diagonal graph of four copies
    of its ``graph.induced(manifest.nodes)``, one per family, each edge surviving the
    family's levels that leave it unmasked: one leveled propagation per at most
    FAMILY_LEVELS k levels gives clean and every condition. A manifest's nodes are the
    propagation's own ``reach``, so the result equals scoring ``masked_graph``'s output.
    """
    if not np.any((train_labels >= 0) & (train_labels < graph.num_classes)):
        raise NoTrainLabels("propagation needs at least one labeled train node")
    ks = sorted(k_levels)
    copies = np.arange(len(FAMILIES))[:, None]
    probs = {}
    for t, m in manifests.items():
        sub = graph.induced(m.nodes)
        block = Graph(num_nodes=len(FAMILIES) * sub.num_nodes,
                      offsets=np.append(sub.offsets[:-1] + copies * sub.num_arcs,
                                        len(FAMILIES) * sub.num_arcs),
                      neighbors=np.add(sub.neighbors, copies * sub.num_nodes,
                                       dtype=_id_dtype(len(FAMILIES) * sub.num_nodes)).ravel())
        node = int(np.searchsorted(m.nodes, t))
        labels = train_labels[m.nodes]
        labels[node] = 0  # t never counts itself: a label-free ball raises no NoTrainLabels
        for lo in range(0, len(ks), FAMILY_LEVELS):
            chain = ks[lo:lo + FAMILY_LEVELS]
            names = [[condition_name(r, side, k) for k in (chain if side == "top" else chain[::-1])]
                     for r, side in FAMILIES]
            survived = np.full((len(FAMILIES), len(m.edges)), len(chain), dtype=np.int8)
            for f, family in enumerate(names):
                for name in family:
                    survived[f, m.conditions[name]] -= 1
            p = predicted_class_prob(block, np.tile(labels, len(FAMILIES)), graph.num_classes,
                                     node + copies.ravel() * sub.num_nodes, survived.ravel(),
                                     len(chain))
            probs[(t, "clean")] = float(p[0, 0])
            for f, family in enumerate(names):
                probs.update({(t, name): float(q) for name, q in zip(family, p[1:, f])})
    return probs


def _fidelity_records(probs: dict, targets, k_levels) -> dict:
    """Target -> {(ranking, k): FidelityRecord} of a (target, condition) -> p table."""
    return {t: {(r, k): fidelity(probs[(t, "clean")], probs[(t, condition_name(r, "top", k))],
                                 probs[(t, condition_name(r, "comp", k))])
                for r in RANKINGS for k in k_levels}
            for t in targets}


def _chars(records: dict, ranking: str, k) -> list[float]:
    return [rec[(ranking, k)].char for rec in records.values()]


FILE_NOUNS = {".pred": "prediction", ".ranking": "ranking", ".probs": "probabilities",
              ".saliency": "saliency"}


def _external_file(method: dict, dataset: Dataset, axis: str, sub: str, seed: int,
                   name: str) -> Path:
    """``pred_dir/<dataset>/<axis>/<name>``, the external method's file of one cell."""
    path = Path(method["pred_dir"]) / dataset.name / axis / name
    if not path.is_file():
        raise MissingInput(f"cell ({axis}, {sub}, {dataset.name}, {method['name']}, seed {seed}): "
                           f"missing {FILE_NOUNS[path.suffix]} file {path}")
    return path


# ---------------------------------------------------------------------------
# operator subcommands
# ---------------------------------------------------------------------------

def cmd_corrupt(args) -> int:
    dataset = load_dataset(args.dataset)
    corrupted, level, key = _corrupted(dataset, args.channel, args.severity_index, args.seed)
    out = Path(args.out)
    save_dataset(corrupted, out)
    sidecar = {
        "axis": "corruption", "dataset": dataset.name,
        "op": "feature_noise" if args.channel == "feature" else "edge_delete",
        "severity_index": args.severity_index, "seed": args.seed, "level": level,
        "key": f"{key.key:016x}",
    }
    write_json(out / "corrupt.json", sidecar)
    return 0


def cmd_split(args) -> int:
    dataset = load_dataset(args.dataset)
    out = Path(args.out)
    split = _ood_split(dataset, args.mechanism, args.seed)
    _write_split(out, split)
    if args.mechanism == "kg":
        write_table(out / "queries.tsv", split.test_queries.T)
        write_table(out / "train_entities.tsv", (split.train_entities,))
        write_table(out / "test_entities.tsv", (split.test_entities,))
    sidecar = {"axis": "ood", "mechanism": args.mechanism, "dataset": dataset.name,
               "seed": args.seed}
    write_json(out / "split.json", sidecar)
    return 0


def cmd_imbalance(args) -> int:
    dataset = load_dataset(args.dataset)
    spec, _kept, split = _imbalanced(dataset, args.rho, args.seed)
    out = Path(args.out)
    _write_split(out, split)
    sidecar = {
        "axis": "imbalance", "dataset": dataset.name, "rho": args.rho, "seed": args.seed,
        "major_classes": list(spec.major_classes), "minor_classes": list(spec.minor_classes),
        "n_major": spec.n_major, "targets": {str(k): v for k, v in sorted(spec.targets.items())},
    }
    write_json(out / "imbalance.json", sidecar)
    return 0


def cmd_fairness(args) -> int:
    dataset = load_dataset(args.dataset)
    _check_kind(dataset, "node_graph", "stress fairness")
    _check_labels(dataset)
    preds = read_prediction_file(args.pred)
    result: dict = {"dataset": dataset.name, "kind": args.kind}
    if args.kind == "structural":
        groups, gap = _head_tail(dataset, preds, args.head_tail_quantile)
        result["head_tail_gap_pp"] = gap
        result["head_size"] = len(groups.first)
        result["tail_size"] = len(groups.second)
    else:
        result.update(asdict(_demographic(dataset, preds, args.threshold)))
    write_json(args.out, result)
    return 0


def cmd_refmodel(args) -> int:
    dataset = load_dataset(args.dataset)
    _check_kind(dataset, "node_graph", "stress refmodel")
    _check_labels(dataset)
    g = dataset.graph
    table, = propagate_predict(g, _train_labels(g, _given_split(dataset).units(Role.TRAIN)),
                               g.num_classes, PropagationConfig(hops=args.hops, alpha=args.alpha))
    write_prediction_file(args.out, table)
    return 0


def cmd_interpret_emit(args) -> int:
    dataset = load_dataset(args.dataset)
    _check_kind(dataset, "node_graph", "stress interpret emit")
    saliency = read_saliency_file(args.saliency)
    targets = (args.targets
               or _given_split(dataset).units(Role.TEST)[:args.interpret_targets].tolist())
    outside = [t for t in targets if not 0 <= t < dataset.graph.num_nodes]
    if outside:
        raise BadId(f"--targets: node {outside[0]} out of range for "
                    f"{dataset.graph.num_nodes} nodes")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifests = _edge_manifests(dataset, saliency, targets, args.seed, args.k_levels,
                                hops=args.hops, out_dir=out)
    sidecar = {"axis": "interpret", "dataset": dataset.name, "seed": args.seed,
               "k_levels": args.k_levels, "targets": list(manifests),
               "skipped": [t for t in targets if t not in manifests]}
    write_json(out / "emit.json", sidecar)
    return 0


def cmd_interpret_score(args) -> int:
    emit_meta = read_json(Path(args.manifest) / "emit.json", EMIT_KEYS)
    k_levels, targets = emit_meta["k_levels"], emit_meta["targets"]
    probs = read_probs_file(args.probs)
    _check_probs(probs, targets, k_levels, args.probs)
    records = _fidelity_records(probs, targets, k_levels)
    per_target = {str(t): {condition_name(r, part, k): getattr(rec, part)
                           for (r, k), rec in recs.items()
                           for part in ("char", "fid_plus", "fid_minus")}
                  for t, recs in records.items()}
    cells: dict = {}
    for k in k_levels:
        sal, rand = (aggregate_seeds(_chars(records, r, k)) if records else MetricCell.undef()
                     for r in ("saliency", "random"))
        cells[f"char_saliency_{k}"] = sal.as_dict()
        cells[f"char_random_{k}"] = rand.as_dict()
        cells[f"delta_char_{k}"] = char_lift(sal, rand).as_dict()
    payload = {"records": per_target, "cells": cells, "n_targets": len(targets)}
    write_json(args.out, payload)
    return 0


def cmd_report(args) -> int:
    values_dir = Path(args.results) / "values"
    if not values_dir.is_dir():
        raise MissingInput(f"no values directory under {args.results}")
    records = [read_json(path, RECORD_KEYS) for path in sorted(values_dir.glob("*.json"))]
    report = _build_report(records, {"tool_version": __version__})
    out = Path(args.out)
    emit_report(report, json_path=out.with_suffix(".json"), csv_path=out.with_suffix(".csv"))
    return 0


# ---------------------------------------------------------------------------
# pipeline runner
# ---------------------------------------------------------------------------

AXES = ("corruption", "ood", "imbalance", "fairness", "interpret")


CONFIG_KEYS = ("seeds", "axes", "datasets", "methods", "rhos", "k_levels", "interpret_targets",
               "head_tail_quantile", "workers", "write_operator_outputs", "out")
METHOD_KEYS = ("kind", "name", "pred_dir", "has_saliency")
DATASET_KEYS = ("manifest", "name")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    return _is_int(value) and value > 0


def _is_name(value) -> bool:
    # a dataset or method name is part of the run directory's file names
    return isinstance(value, str) and re.fullmatch(r"[A-Za-z0-9_-]+", value) is not None


def _distinct_list(values, ok, level=lambda v: v) -> bool:
    """A non-empty list whose every value passes ``ok``, no two values at the same level."""
    return (isinstance(values, list) and values != [] and all(map(ok, values))
            and len(set(map(level, values))) == len(values))


REQUIRED = object()  # the default of a key that its entry must give

# key of a config, dataset or method entry, or dest of a checked subcommand flag ->
# (default, test of a value, what a valid value is); None is no default
PARAMS = {
    "datasets": (REQUIRED, lambda v: isinstance(v, list) and v != [],
                 "a non-empty list of dataset entries"),
    "methods": (REQUIRED, lambda v: isinstance(v, list) and v != [],
                "a non-empty list of method entries"),
    "axes": (REQUIRED, lambda axes: _distinct_list(axes, lambda axis: axis in AXES),
             f"a non-empty list of distinct axes out of {', '.join(AXES)}"),
    "seeds": (5, lambda seeds: _is_positive_int(seeds) or _distinct_list(
                  seeds, lambda s: _is_int(s) and s >= 0),
              "a positive count or a non-empty list of distinct non-negative integers"),
    # a level is named rho{int(rho)}, so two rhos must not share that name
    "rhos": (list(DEFAULT_RHOS),
             lambda rhos: _distinct_list(
                 rhos, lambda r: _is_number(r) and r > 0 and float(r).is_integer(), int),
             "a non-empty list of positive whole numbers, each level once"),
    "k_levels": (list(K_PERCENT_LEVELS),
                 lambda ks: _distinct_list(ks, lambda k: _is_number(k) and 0 < k <= 100),
                 "a non-empty list of distinct numbers in (0, 100]"),
    "interpret_targets": (10, _is_positive_int, "a positive integer"),
    "head_tail_quantile": (0.2, lambda q: _is_number(q) and 0 < q <= 0.5,
                           "a number in (0, 0.5]"),
    "workers": (1, _is_positive_int, "a positive integer"),
    "write_operator_outputs": (False, lambda v: isinstance(v, bool), "true or false"),
    "out": ("results", lambda v: isinstance(v, str), "a path string"),
    "manifest": (REQUIRED, lambda v: isinstance(v, str), "a path string"),
    "name": (None, _is_name, "a string of letters, digits, _ and -"),
    "pred_dir": (None, lambda v: isinstance(v, str), "a path string"),
    "has_saliency": (False, lambda v: isinstance(v, bool), "true or false"),
    "hops": (PropagationConfig.hops, _is_positive_int, "a positive integer"),
    "alpha": (PropagationConfig.alpha, lambda a: _is_number(a) and math.isfinite(a) and a > 0,
              "a finite number > 0"),
    "threshold": (None, lambda t: _is_number(t) and 0 <= t <= 1, "a number in [0, 1]"),
    "severity_index": (None, lambda i: _is_int(i) and 0 <= i <= len(EDGE_LEVELS),
                       f"an integer in 0..{len(EDGE_LEVELS)}"),
}


def _setting(entry: dict, key: str):
    """The entry's value of key, else the key's PARAMS default."""
    return entry.get(key, PARAMS[key][0])


def _check_range(key: str, value) -> None:
    _default, ok, expected = PARAMS[key]
    if not ok(value):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _check_entry(entry, keys: tuple, what: str) -> None:
    """A config, dataset or method entry: a JSON object of known keys, every value in range."""
    if not isinstance(entry, dict):
        raise ConfigError(f"a {what} entry must be a JSON object, got {entry!r}")
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                          f"valid: {', '.join(keys)}")
    for key in filter(PARAMS.__contains__, keys):
        if key in entry:
            _check_range(key, entry[key])
        elif PARAMS[key][0] is REQUIRED:
            raise ConfigError(f"a {what} entry needs {key!r}, {PARAMS[key][2]}")


def _load_config(path: Path, seed: int | None = None) -> dict:
    """The checked config; a ``seed`` (``stress run --seed``) replaces its seeds."""
    try:
        config = json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingInput(f"config file {path} does not exist")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: config does not parse: {e}")
    _check_entry(config, CONFIG_KEYS, "config")
    for d in config["datasets"]:
        _check_entry(d, DATASET_KEYS, "dataset")
    for m in config["methods"]:
        _check_entry(m, METHOD_KEYS, "method")
        m.setdefault("kind", "refmodel")
        m.setdefault("name", m["kind"])
        if m["kind"] not in ("refmodel", "external"):
            raise ConfigError(f"unknown method kind {m['kind']!r}")
        if m["kind"] == "external" and not m.get("pred_dir"):
            raise ConfigError(f"external method {m['name']!r} needs a pred_dir")
    names = [m["name"] for m in config["methods"]]
    if len(set(names)) != len(names):
        raise ConfigError(f"two methods share a name in {names}; give each a distinct 'name'")
    seeds = _setting(config, "seeds")
    config["seeds"] = ([seed] if seed is not None
                       else list(range(seeds)) if _is_int(seeds) else seeds)
    return config


INAPPLICABLE = "inapplicable"

# the keys of a values/*.json record and of emit.json -> (test, what a valid value is)
RECORD_KEYS = {**dict.fromkeys(("axis", "subcondition", "dataset", "method"),
                               (lambda v: isinstance(v, str), "a string")),
               "values": (lambda values: isinstance(values, list) and all(
                              v is None or v == INAPPLICABLE or _is_number(v) for v in values),
                          'a list of numbers, null or "inapplicable"')}
EMIT_KEYS = {"k_levels": PARAMS["k_levels"][1:],
             "targets": (lambda ts: isinstance(ts, list) and all(_is_int(t) and t >= 0 for t in ts),
                         "a list of non-negative integers")}


def _cell_from_values(values: list) -> MetricCell:
    if all(v == INAPPLICABLE for v in values):
        return MetricCell.undef(len(values), note=INAPPLICABLE)
    if any(v is None for v in values):
        return MetricCell.undef(len(values))
    return aggregate_seeds([float(v) for v in values])


def _release_freed_heap() -> None:
    """Hand the heap pages malloc holds free back to the OS, and map large blocks on their own
    from here on; a no-op where libc is not glibc.

    glibc keeps the pages a dropped dataset freed, so the next dataset's large tables would be
    mapped beside them. And glibc raises its mmap threshold to the largest mapped block freed so
    far (the first dataset's parsed edge table), so the next load would take its arc-sized
    arrays from the heap, where what they free stays resident: a second copy of one graph then
    peaked well above the first. A fixed threshold, which also ends the raising, keeps them
    mapped."""
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        trim, mallopt = libc.malloc_trim, libc.mallopt
    except (OSError, AttributeError):
        return
    trim(0)
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD: blocks of 1 MiB and up are mapped on their own


# every path a run writes under its output directory; nothing else there is touched
RUN_OUTPUTS = ("values", "ops", "errors.log", "report.json", "report.csv")


class PipelineRunner:
    """Executes the requested cell grid and writes the result tree."""

    def __init__(self, config: dict, out_dir: Path, workers: int):
        self.config = config
        self.out = out_dir
        self.workers = workers
        self.write_ops = _setting(config, "write_operator_outputs")
        self.rhos = _setting(config, "rhos")
        self.k_levels = _setting(config, "k_levels")
        self.num_targets = _setting(config, "interpret_targets")
        self.quantile = _setting(config, "head_tail_quantile")
        self.failures: list[tuple[str, str]] = []
        self._ops_method: str | None = None  # single designated op-output writer

    def _writes_ops(self, method: dict) -> bool:
        # operator outputs are method-independent; one method writes them so
        # parallel jobs never race on the same file
        return self.write_ops and method["name"] == self._ops_method

    def _op_dir(self, dataset: Dataset, tag: str) -> Path:
        return self.out / "ops" / dataset.name / tag

    # -- axis drivers: return {subcondition: value | None | INAPPLICABLE} --

    def _tables(self, dataset: Dataset, method: dict, axis: str, subs: list, seed: int,
                rows: np.ndarray, trains=None, survived=None):
        """One prediction table per entry of ``subs``: an external method's ``{sub}/seed{S}.pred``
        files, each read in its turn, or one built-in propagation scoring the units ``rows``
        for each train unit set of ``trains`` (default: the given split's), with ``survived``
        at the clean graph and then every EDGE_LEVELS deletion level, level-major."""
        if method["kind"] == "external":
            return (read_prediction_file(_external_file(method, dataset, axis, sub, seed,
                                                        f"{sub}/seed{seed}.pred"))
                    for sub in subs)
        g = dataset.graph
        if trains is None:
            trains = [_given_split(dataset).units(Role.TRAIN)]
        return propagate_predict(g, [_train_labels(g, train) for train in trains], g.num_classes,
                                 rows=rows, survived=survived,
                                 num_levels=0 if survived is None else len(EDGE_LEVELS))

    def _axis_corruption(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        test = _test_units(dataset)
        external = method["kind"] == "external"
        # one draw gives every deletion level; an external method never reads
        # the deleted graphs, so they are drawn only for the ops/ copies
        survived = (edge_delete(g, EDGE_LEVELS, _edge_key(dataset, seed))
                    if not external or self._writes_ops(method) else None)
        # the built-in model is feature-blind; an external method is scored on
        # the noisy features from its own files
        feature_ok = external and g.features is not None
        features = [f"feature_sev{i}" for i in range(1, len(FEATURE_LEVELS) + 1)]
        edges = [f"edge_sev{i}" for i in range(1, len(EDGE_LEVELS) + 1)]
        if self._writes_ops(method):  # before any method file is read
            for i, sub in enumerate(features if g.features is not None else [], 1):
                save_dataset(_corrupted(dataset, "feature", i, seed)[0],
                             self._op_dir(dataset, f"corrupt_{sub}_seed{seed}"))
            for i, sub in enumerate(edges, 1):
                save_dataset(replace(dataset, graph=remove_edges(g, survived < i)),
                             self._op_dir(dataset, f"corrupt_{sub}_seed{seed}"))
        subs = ["clean", *(features if feature_ok else []), *edges]
        tables = self._tables(dataset, method, "corruption", subs, seed, test, survived=survived)
        out = dict.fromkeys([*features, "feature_drop"], INAPPLICABLE)
        out.update((sub, accuracy(t, g.labels, test) * 100.0) for sub, t in zip(subs, tables))
        if feature_ok:
            out["feature_drop"] = drop_metric(out["clean"], out["feature_sev5"])
        out["edge_drop"] = drop_metric(out["clean"], out["edge_sev5"])
        return out

    def _split_op(self, dataset: Dataset, method: dict, mechanism: str, seed: int):
        split = _ood_split(dataset, mechanism, seed)
        if self._writes_ops(method):
            _write_split(self._op_dir(dataset, f"split_{mechanism}_seed{seed}"), split)
        return split

    def _axis_ood(self, dataset: Dataset, method: dict, seed: int) -> dict:
        if dataset.kind != "node_graph":
            return self._axis_ood_nonnode(dataset, method, seed)
        g = dataset.graph
        mechanisms = ["degree", *(["temporal"] if g.meta.year is not None else [])]
        splits = [self._split_op(dataset, method, m, seed) for m in mechanisms]
        out: dict = {"temporal": INAPPLICABLE}
        for mechanism, split in zip(mechanisms, splits):
            ood_test = split.units(Role.OOD_TEST)
            table, = self._tables(dataset, method, "ood", [mechanism], seed, ood_test,
                                  trains=[split.units(Role.TRAIN)])
            out[mechanism] = accuracy(table, g.labels, ood_test) * 100.0
        return out

    def _axis_ood_nonnode(self, dataset: Dataset, method: dict, seed: int) -> dict:
        scaffold = dataset.kind == "graph_collection"
        split = self._split_op(dataset, method, "scaffold" if scaffold else "kg", seed)
        if method["kind"] != "external":  # the built-in model scores node graphs only
            return dict.fromkeys(("scaffold_auc", "scaffold_gap") if scaffold
                                 else ("kg_mrr", "kg_hits10"), INAPPLICABLE)
        if scaffold:
            labels = dataset.collection.labels[:, 0]
            test = split.units(Role.TEST)
            test = test[labels[test] >= 0]  # a '-' task label is left out
            subs = ["scaffold", "random"]
            tables = self._tables(dataset, method, "ood", subs, seed, test)
            aucs = {sub: roc_auc(t.scores_for(test), labels[test]) * 100.0
                    for sub, t in zip(subs, tables)}
            return {"scaffold_auc": aucs["scaffold"],
                    "scaffold_gap": scaffold_gap(aucs["random"], aucs["scaffold"])}
        # triples: inductive-entity ranking
        queries, cands, scores = read_ranking_file(
            _external_file(method, dataset, "ood", "kg", seed, f"kg/seed{seed}.ranking"))
        ranks = ranks_from_ranking(queries, cands, scores,
                                   split.held_out_entity(split.test_queries))
        return {"kg_mrr": mrr(ranks), "kg_hits10": hits_at_k(ranks, 10)}

    def _axis_imbalance(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        test = _test_units(dataset)
        levels = {}  # sub -> (spec, kept train units, split)
        for rho in self.rhos:
            sub = f"rho{int(rho)}"
            levels[sub] = _imbalanced(dataset, rho, seed)
            if self._writes_ops(method):
                _write_split(self._op_dir(dataset, f"imbalance_{sub}_seed{seed}"), levels[sub][2])
        tables = self._tables(dataset, method, "imbalance", list(levels), seed, test,
                              trains=[kept for _, kept, _ in levels.values()])
        out: dict = {}
        for (sub, (spec, _, _)), table in zip(levels.items(), tables):
            major, minor = major_minor_recall(table, g.labels, spec, test)
            # a group with no test support has a NaN recall: its cell is undefined
            out[f"{sub}_major_recall"] = None if math.isnan(major) else major * 100.0
            out[f"{sub}_minor_recall"] = None if math.isnan(minor) else minor * 100.0
        return out

    def _axis_fairness(self, dataset: Dataset, method: dict, seed: int) -> dict:
        g = dataset.graph
        # head/tail and demographic gaps read only the test units
        table, = self._tables(dataset, method, "fairness", ["clean"], seed, _test_units(dataset))
        out: dict = {"head_tail_gap": _head_tail(dataset, table, self.quantile)[1]}
        if g.meta.sensitive_attr is None or g.num_classes != 2:
            return {**out, **dict.fromkeys(("d_sp", "d_eo", "d_util"), INAPPLICABLE)}
        return {**out, **asdict(_demographic(dataset, table))}

    def _axis_interpret(self, dataset: Dataset, method: dict, seed: int) -> dict:
        external = method["kind"] == "external"
        if external and not _setting(method, "has_saliency"):
            # no per-edge gradient interface: protocol excludes the method
            return {f"char_{r}_{k}": INAPPLICABLE for r in RANKINGS for k in self.k_levels}
        split = _given_split(dataset)
        train = split.units(Role.TRAIN)
        # both kinds are scored on the manifests of the same test-prefix targets
        saliency = (read_saliency_file(_external_file(method, dataset, "interpret", "char", seed,
                                                      f"seed{seed}.saliency"))
                    if external else _refmodel_saliency(dataset, train))
        op_dir = (self._op_dir(dataset, f"interpret_seed{seed}")
                  if self._writes_ops(method) else None)
        manifests = _edge_manifests(dataset, saliency,
                                    split.units(Role.TEST)[:self.num_targets].tolist(),
                                    seed, self.k_levels, PropagationConfig().hops, op_dir)
        if external:
            path = _external_file(method, dataset, "interpret", "char", seed, f"seed{seed}.probs")
            probs = read_probs_file(path)
            _check_probs(probs, manifests, self.k_levels, path)
        else:
            probs = _refmodel_probs(dataset.graph, _train_labels(dataset.graph, train), manifests,
                                    self.k_levels)
        records = _fidelity_records(probs, manifests, self.k_levels)
        return {f"char_{r}_{k}": float(np.mean(_chars(records, r, k))) if records else None
                for r in RANKINGS for k in self.k_levels}

    # -- orchestration --

    def run(self) -> Report:
        """Run every cell, a dataset at a time in name order, and write the result tree.

        Every manifest, name and named file is checked before any dataset loads. Then the
        calling thread loads one dataset, runs its jobs through ``_run_jobs`` and drops it, and
        hands the freed heap back to the OS (``_release_freed_heap``) before the next load, so
        at most one dataset is live at any worker count. The cost above one worker: helpers
        may sit idle while the last job of a dataset finishes, as the next dataset loads only
        after it.
        """
        methods = self.config["methods"]
        self._ops_method = methods[0]["name"]
        seeds = self.config["seeds"]
        manifests = self._dataset_manifests()
        cells = [(method, axis, seed)
                 for method in methods for axis in self.config["axes"] for seed in seeds]
        # what an earlier run left here would otherwise be read as this run's
        for name in RUN_OUTPUTS:
            path = self.out / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        results: dict[tuple, dict] = {}
        for i, ds_name in enumerate(sorted(manifests)):
            if i:
                _release_freed_heap()
            outcomes = self._run_dataset(manifests[ds_name], ds_name, cells)
            for (method, axis, seed), outcome in zip(cells, outcomes):
                if isinstance(outcome, str):
                    self.failures.append(
                        (f"({axis}, {ds_name}, {method['name']}, seed {seed})", outcome))
                    continue
                for sub, value in outcome.items():
                    results.setdefault((axis, sub, ds_name, method["name"]), {})[seed] = value

        records = [{"axis": axis, "subcondition": sub, "dataset": ds, "method": m,
                    "seeds": [s for s in seeds if s in per_seed],
                    "values": [per_seed[s] for s in seeds if s in per_seed]}
                   for (axis, sub, ds, m), per_seed in sorted(results.items())]
        config_text = json.dumps(self.config, sort_keys=True)
        report = _build_report(records, {
            "tool_version": __version__,
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
            "seeds": list(seeds),
        })
        self._write_results(records, report)
        if self.failures:
            write_table(self.out / "errors.log", tuple(zip(*self.failures)))
            raise PartialFailure([f"{cell}: {err}" for cell, err in self.failures])
        return report

    def _dataset_manifests(self) -> dict[str, str]:
        """Dataset name -> manifest path, for every entry of the config, before any data file
        is read: each manifest is checked, every file it names exists (``_read_manifest``),
        and each name is valid and distinct."""
        manifests: dict[str, str] = {}
        for spec in self.config["datasets"]:
            path = Path(spec["manifest"])
            manifest = _read_manifest(path)
            name = spec.get("name", manifest["name"])
            if not _is_name(name):  # an entry's own name passed the config check
                raise ConfigError(f"{path}: dataset name {name!r} must be "
                                  f"{PARAMS['name'][2]}; give the entry a 'name'")
            if name in manifests:
                raise ConfigError(f"two dataset entries load as {name!r}; "
                                  "give each a distinct 'name'")
            manifests[name] = spec["manifest"]
        return manifests

    def _run_dataset(self, manifest: str, name: str, cells: list) -> list:
        """Each (method, axis, seed) cell's outcome on the dataset at ``manifest``; the dataset
        dies with this call. It loads on this thread, which then runs jobs too: memory a
        thread frees is reused only by that thread's malloc arena."""
        dataset = replace(load_dataset(manifest), name=name)
        return self._run_jobs([(dataset, *cell) for cell in cells])

    def _run_jobs(self, jobs: list) -> list:
        """Each job's outcome, in job order.

        The calling thread runs jobs itself beside min(workers, jobs) - 1
        helper threads, all taking the next index from one queue, so no
        thread's arena is spent on waiting and one worker starts no thread.
        """
        outcomes: list = [None] * len(jobs)
        pending = deque(range(len(jobs)))  # popleft is thread-safe

        def drain():
            try:
                while True:
                    try:
                        i = pending.popleft()
                    except IndexError:  # every job is taken
                        return
                    outcomes[i] = self._run_job(jobs[i])
            except BaseException:  # a programming error: the other threads take no further job
                pending.clear()
                raise

        helpers = min(self.workers, len(jobs)) - 1
        # the pool starts a thread per submit only, so no helper means no thread
        with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
            started = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for future in started:
                future.result()  # re-raises a helper's error
        return outcomes

    def _run_job(self, job: tuple):
        dataset, method, axis, seed = job
        try:
            if axis != "ood":
                _check_kind(dataset, "node_graph", f"the {axis} axis")
            if dataset.kind == "node_graph" and (axis != "interpret" or method["kind"] == "refmodel"):
                _check_labels(dataset)  # an external attribution cell reads no label
            return getattr(self, f"_axis_{axis}")(dataset, method, seed)
        except StressError as e:  # collected into the per-cell error log
            # as its message: the error's traceback would keep the job's frames, and with them
            # the dataset, alive until the run ends
            return f"{type(e).__name__}: {e}"

    def _write_results(self, records: list, report: Report) -> None:
        values_dir = self.out / "values"
        values_dir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            write_json(values_dir / "{axis}.{subcondition}.{dataset}.{method}.json".format(**rec),
                       rec)
        if report.cells:
            emit_report(report, json_path=self.out / "report.json",
                        csv_path=self.out / "report.csv")


def _build_report(records: list, provenance: dict) -> Report:
    """Report of values records (one cell's per-seed values each), plus the delta_char cells."""
    cells = {(rec["axis"], rec["subcondition"], rec["dataset"], rec["method"]):
             _cell_from_values(rec["values"]) for rec in records}
    for (axis, sub, ds, m), sal in list(cells.items()):
        k = sub.removeprefix("char_saliency_")
        rand = cells.get((axis, f"char_random_{k}", ds, m))
        if axis == "interpret" and sub.startswith("char_saliency_") and rand is not None:
            cells[axis, f"delta_char_{k}", ds, m] = char_lift(sal, rand)
    return Report(cells=cells, provenance=provenance)


def cmd_run(args) -> int:
    config = _load_config(Path(args.config), seed=args.seed)
    workers = _setting(config, "workers") if args.workers is None else args.workers
    out = Path(args.out or _setting(config, "out"))
    out.mkdir(parents=True, exist_ok=True)
    runner = PipelineRunner(config, out, workers=workers)
    try:
        report = runner.run()
    except PartialFailure as e:
        for failure in e.failures:
            print(f"cell failed: {failure}", file=sys.stderr)
        print(f"{len(e.failures)} cell(s) failed; see {out / 'errors.log'}",
              file=sys.stderr)
        return 1
    n_inapplicable = sum(cell.note == INAPPLICABLE for cell in report.cells.values())
    print(f"report: {out / 'report.json'} ({len(report.cells)} cells, "
          f"{n_inapplicable} inapplicable)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _numbers(flag: str, parse):
    """``type=`` of a comma-separated flag; a token ``parse`` rejects is a ConfigError."""
    def values(text: str) -> list:
        try:
            return [parse(x) for x in text.split(",")]
        except ValueError:
            raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stress",
        description="Multi-axis graph-safety stress evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="emit a corrupted copy of a dataset")
    p.add_argument("--dataset", required=True, help="manifest path")
    p.add_argument("--channel", required=True, choices=["feature", "edge"])
    p.add_argument("--severity-index", dest="severity_index", type=int, required=True,
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
    p.add_argument("--quantile", dest="head_tail_quantile", type=float, metavar="QUANTILE",
                   default=PARAMS["head_tail_quantile"][0])
    p.add_argument("--threshold", type=float, default=PARAMS["threshold"][0],
                   help="binary decision threshold (default argmax)")
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("refmodel", help="score a dataset with the built-in propagation model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hops", type=int, default=PARAMS["hops"][0])
    p.add_argument("--alpha", type=float, default=PARAMS["alpha"][0])
    p.set_defaults(func=cmd_refmodel)

    p = sub.add_parser("interpret", help="attribution-fidelity protocol")
    isub = p.add_subparsers(dest="interpret_command", required=True)
    pe = isub.add_parser("emit", help="write ablation manifests for external re-scoring")
    pe.add_argument("--dataset", required=True)
    pe.add_argument("--saliency", required=True)
    pe.add_argument("--k", dest="k_levels", default=PARAMS["k_levels"][0], metavar="K",
                    type=_numbers("--k", lambda x: float(x) if "." in x else int(x)))
    pe.add_argument("--targets", type=_numbers("--targets", int),
                    help="comma-separated target ids")
    pe.add_argument("--num-targets", dest="interpret_targets", type=int, metavar="NUM_TARGETS",
                    default=PARAMS["interpret_targets"][0])
    pe.add_argument("--hops", type=int, default=PARAMS["hops"][0])
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


# a flag whose value is one entry of a list-valued key
ENTRY_FLAGS = {"seed": "seeds", "rho": "rhos"}


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        # every flag value with a PARAMS row is checked before anything loads (None: not given)
        for dest, value in vars(args).items():
            key = ENTRY_FLAGS.get(dest, dest)
            if key in PARAMS and value is not None:
                _check_range(key, [value] if dest in ENTRY_FLAGS else value)
        if getattr(args, "out", None):  # a file or directory --out may name a new parent
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except StressError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
