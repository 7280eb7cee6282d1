"""Acceptance gate: nine release criteria, one printed verdict line each.

Each criterion is a standalone test so a failure names the broken guarantee.
The verdict lines print with -s (or in the captured output of a failure).
"""

import json
import logging
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphstress.cli import main
from graphstress.corruption import drop_metric, edge_delete, feature_noise
from graphstress.determinism import derive_key
from graphstress.fairness import GroupSpec, head_tail_gap
from graphstress.graph_store import (
    Graph,
    Role,
    TripleStore,
    remove_edges,
    save_dataset,
    validate_graph,
)
from graphstress.imbalance import build_spec, step_downsample
from graphstress.interpret import char_lift, fidelity, mask_count
from graphstress.metrics import (
    PredictionTable,
    accuracy,
    balanced_accuracy,
    hits_at_k,
    macro_f1,
    mrr,
    per_class_recall,
    ranks_from_ranking,
    roc_auc,
)
from graphstress.ood_splits import (
    degree_shift_split,
    inductive_entity_split,
    scaffold_split,
    temporal_split,
)
from graphstress.report import MetricCell, cross_dataset, load_report
from graphstress.synthetic import make_molecule_collection, make_node_dataset, make_triple_store

from oracles import (
    accuracy_oracle,
    auc_pairwise_oracle,
    canonical_edges_oracle,
    confusion_matrix,
    rank_and_mask,
    rank_oracle,
    rows_ascend_oracle,
)


class _verdict:
    """Prints `criterion N [label]: PASS|FAIL` when the block exits."""

    def __init__(self, num: int, label: str):
        self.num, self.label = num, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nacceptance criterion {self.num} [{self.label}]: {status}", flush=True)
        return False


# ---------------------------------------------------------------------------
# 1. parallel determinism
# ---------------------------------------------------------------------------

def test_criterion_1_parallel_determinism(tmp_path):
    with _verdict(1, "1 vs 8 workers byte-identical, < 5 s on 10^4 nodes"):
        ds_dir = tmp_path / "ds"
        node_m = save_dataset(
            make_node_dataset(name="grid10k", num_nodes=10_000, seed=17), ds_dir / "grid10k")
        mol_m = save_dataset(
            make_molecule_collection(name="detmol", num_graphs=60, seed=17), ds_dir / "detmol")
        kg_m = save_dataset(
            make_triple_store(name="detkg", num_entities=200, seed=17), ds_dir / "detkg")

        def config(path, manifest, axes):
            path.write_text(json.dumps({
                "datasets": [{"manifest": str(manifest)}],
                "methods": [{"kind": "refmodel"}],
                "axes": axes, "seeds": [0], "interpret_targets": 2,
                "write_operator_outputs": True,
            }))
            return path

        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        all_axes = ["corruption", "ood", "imbalance", "fairness", "interpret"]
        cases = [
            ("node", config(tmp_path / "node.json", node_m, all_axes)),
            ("mol", config(tmp_path / "mol.json", mol_m, ["ood"])),
            ("kg", config(tmp_path / "kg.json", kg_m, ["ood"])),
        ]
        for name, cfg in cases:
            out1, out8 = tmp_path / f"{name}_w1", tmp_path / f"{name}_w8"
            t0 = time.perf_counter()
            assert main(["run", "--config", str(cfg), "--out", str(out1),
                         "--workers", "1"]) == 0
            dt1 = time.perf_counter() - t0
            t0 = time.perf_counter()
            assert main(["run", "--config", str(cfg), "--out", str(out8),
                         "--workers", "8"]) == 0
            dt8 = time.perf_counter() - t0
            t1, t8 = tree(out1), tree(out8)
            assert t1 and t1 == t8, f"{name}: worker count changed output bytes"
            if name == "node":
                assert dt1 < 5.0 and dt8 < 5.0, f"10^4-node runs too slow: {dt1:.2f}s/{dt8:.2f}s"
                tags = {p.split("/")[2] for p in t1 if p.startswith("ops/")}
                assert tags == {
                    *(f"corrupt_feature_sev{i}_seed0" for i in range(1, 6)),
                    *(f"corrupt_edge_sev{i}_seed0" for i in range(1, 6)),
                    "split_degree_seed0", "split_temporal_seed0",
                    "imbalance_rho5_seed0", "imbalance_rho10_seed0",
                    "imbalance_rho20_seed0", "interpret_seed0",
                }
            elif name == "mol":
                assert any("split_scaffold_seed0" in p for p in t1)
            else:
                assert any("split_kg_seed0" in p for p in t1)


# ---------------------------------------------------------------------------
# 2. edge-deletion statistics
# ---------------------------------------------------------------------------

def test_criterion_2_edge_deletion_statistics():
    with _verdict(2, "binomial deletion bound, symmetry, self-loops kept"):
        rng = np.random.default_rng(202)
        n_nodes, m, p = 2000, 10_000, 0.3
        u = rng.integers(0, n_nodes, 5 * m)
        v = rng.integers(0, n_nodes, 5 * m)
        off = u != v
        pairs = np.unique(np.minimum(u, v)[off] * n_nodes + np.maximum(u, v)[off])
        assert len(pairs) >= m
        pairs = pairs[:m]
        loops = np.array([5, 17, 1999], dtype=np.int64)
        g = Graph.from_arcs(n_nodes,
                            np.concatenate([pairs // n_nodes, loops]),
                            np.concatenate([pairs % n_nodes, loops]),
                            symmetrize=True)
        assert len(canonical_edges_oracle(g)[0]) == m

        bound = 3.0 * np.sqrt(m * p * (1 - p))  # ~137.5
        for seed in range(20):
            key = derive_key("corruption", "edgestats", "edge_delete", 0, seed)
            deleted_graph = remove_edges(g, edge_delete(g, [p], key) < 1)
            validate_graph(deleted_graph)  # symmetric
            assert rows_ascend_oracle(deleted_graph)
            edges, self_loops = canonical_edges_oracle(deleted_graph)
            deleted = m - len(edges)
            assert abs(deleted - m * p) <= bound, f"seed {seed}: deleted {deleted}"
            assert self_loops == loops.tolist()


# ---------------------------------------------------------------------------
# 3. feature-noise statistics
# ---------------------------------------------------------------------------

def test_criterion_3_feature_noise_statistics():
    with _verdict(3, "sigma 2.0 within 1% over 10^6 cells; sigma 0 bit-identical"):
        rng = np.random.default_rng(303)
        x = rng.normal(5.0, 3.0, size=(2500, 400))
        x = (x - x.mean(axis=0)) / x.std(axis=0)  # unit train std per dimension
        train = np.arange(x.shape[0])
        key = derive_key("corruption", "noisestats", "feature_noise", 5, 0)

        noisy = feature_noise(x, train, 2.0, key)
        noise = noisy - x
        assert noise.size == 1_000_000
        assert abs(noise.std() - 2.0) / 2.0 < 0.01
        assert abs(noise.mean()) < 0.01

        untouched = feature_noise(x, train, 0.0, key)
        assert untouched.tobytes() == x.tobytes()


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------

def _onehot_table(predicted: np.ndarray, num_classes: int) -> PredictionTable:
    return PredictionTable(np.arange(len(predicted)), np.eye(num_classes)[predicted])


def test_criterion_4_metric_oracles():
    with _verdict(4, "classification, AUC, and ranking metrics match brute force"):
        rng = np.random.default_rng(404)

        # confusion-matrix metrics: exact equality on 500 random instances
        for _ in range(500):
            c = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            y = rng.integers(0, c, n)
            yhat = rng.integers(0, c, n)
            table = _onehot_table(yhat, c)
            units = np.arange(n)

            assert accuracy(table, y, units) == accuracy_oracle(y, yhat)

            cm = confusion_matrix(y, yhat, c)
            recall = per_class_recall(table, y, units, num_classes=c)
            oracle_recall = np.array([np.nan if cm[k].sum() == 0 else cm[k, k] / cm[k].sum()
                                      for k in range(c)])
            assert np.array_equal(recall, oracle_recall, equal_nan=True)
            assert balanced_accuracy(table, y, units, num_classes=c) \
                == float(np.nanmean(oracle_recall))

            # per-class F1 recomputed in exact rational arithmetic
            f1s = [float(Fraction(2 * int(cm[k, k]), int(cm[k].sum() + cm[:, k].sum())))
                   for k in range(c) if cm[k].sum() > 0]
            assert macro_f1(table, y, units, num_classes=c) == float(np.mean(f1s))

        # AUC vs the O(n^2) pairwise oracle, heavy ties included
        for trial in range(200):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            distinct = int(rng.integers(1, 6))  # few levels force big tie groups
            scores = rng.choice(np.linspace(0.0, 1.0, distinct), n)
            assert roc_auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores.tolist(), labels.tolist()), abs=1e-12)

        # ranking: the kernel's average-tie ranks, one query per draw, vs a full-sort oracle,
        # then MRR / Hits@10
        queries, cands, scores, truth, oracle_ranks = [], [], [], [], []
        for q in range(300):
            n_cand = int(rng.integers(2, 50))
            row = rng.choice(np.linspace(-1.0, 1.0, 7), n_cand).tolist()
            true_idx = int(rng.integers(0, n_cand))
            queries += [q] * n_cand
            cands += range(n_cand)
            scores += row
            truth.append(true_idx)
            oracle_ranks.append(rank_oracle(row, true_idx))
        impl_ranks = ranks_from_ranking(np.array(queries), np.array(cands), np.array(scores),
                                        np.array(truth))
        oracle_ranks = np.array(oracle_ranks)
        assert np.array_equal(impl_ranks, oracle_ranks)
        assert mrr(impl_ranks) == float(np.mean(1.0 / oracle_ranks))
        assert hits_at_k(impl_ranks, 10) == float(np.mean(oracle_ranks <= 10))


# ---------------------------------------------------------------------------
# 5. split invariants, 1000 random cases per constructor
# ---------------------------------------------------------------------------

def test_criterion_5_split_invariants(caplog):
    caplog.set_level(logging.ERROR, logger="graphstress.ood_splits")
    with _verdict(5, "split constructors hold invariants on 1000 cases each"):
        rng = np.random.default_rng(505)

        for case in range(1000):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(0, 4 * n))
            g = Graph.from_arcs(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                symmetrize=True)
            labeled = np.flatnonzero(rng.random(n) < 0.8)
            if len(labeled) == 0:
                labeled = np.array([0], dtype=np.int64)
            split = degree_shift_split(g, labeled)
            train = split.units(Role.TRAIN)
            val = split.units(Role.OOD_VAL)
            test = split.units(Role.OOD_TEST)
            n_lab = len(labeled)
            assert len(train) == int(0.6 * n_lab)
            assert len(val) == int(0.2 * n_lab)
            assert len(test) == n_lab - len(train) - len(val)
            assert np.array_equal(np.sort(np.concatenate([train, val, test])),
                                  np.sort(labeled))
            deg = g.degrees()
            if len(train) and len(val):
                assert deg[train].min() >= deg[val].max()
            if len(val) and len(test):
                assert deg[val].min() >= deg[test].max()
            if len(train) and len(test):
                assert deg[train].min() >= deg[test].max()

        for case in range(1000):
            n = int(rng.integers(1, 50))
            years = rng.integers(2000, 2022, n)
            labeled = np.flatnonzero(rng.random(n) < 0.9)
            split = temporal_split(years, labeled)
            train = split.units(Role.TRAIN)
            val = split.units(Role.OOD_VAL)
            test = split.units(Role.OOD_TEST)
            assert np.all(years[train] <= 2010)
            assert np.all((years[val] >= 2011) & (years[val] <= 2016))
            assert np.all(years[test] >= 2017)
            assert np.array_equal(np.sort(np.concatenate([train, val, test])),
                                  np.sort(labeled))

        for case in range(1000):
            n_mol = int(rng.integers(2, 60))
            n_groups = int(rng.integers(1, min(10, n_mol) + 1))
            ids = rng.integers(0, n_groups, n_mol)
            key = derive_key("ood", "prop", "scaffold", 0, case)
            split = scaffold_split(ids, key)
            roles = split.roles
            assert set(np.unique(roles)) <= {int(Role.TRAIN), int(Role.VAL), int(Role.TEST)}
            assert np.any(roles == int(Role.TRAIN))
            for gid in np.unique(ids):
                assert len(np.unique(roles[ids == gid])) == 1, "scaffold group straddles"

        for case in range(1000):
            n_ent = int(rng.integers(4, 30))
            n_rel = int(rng.integers(1, 4))
            t = int(rng.integers(1, 80))
            triples = np.unique(np.stack([rng.integers(0, n_ent, t),
                                          rng.integers(0, n_rel, t),
                                          rng.integers(0, n_ent, t)], axis=1), axis=0)
            store = TripleStore(num_entities=n_ent, num_relations=n_rel, triples=triples)
            ks = inductive_entity_split(store, derive_key("ood", "prop", "kg", 0, case))
            assert len(ks.train_entities) == int(0.75 * n_ent)
            assert np.array_equal(
                np.sort(np.concatenate([ks.train_entities, ks.test_entities])),
                np.arange(n_ent))
            in_pool = np.zeros(n_ent, dtype=bool)
            in_pool[ks.train_entities] = True
            both_in = [row for row in triples if in_pool[row[0]] and in_pool[row[2]]]
            one_out = [row for row in triples if in_pool[row[0]] != in_pool[row[2]]]
            both_out = [row for row in triples if not in_pool[row[0]] and not in_pool[row[2]]]
            assert len(ks.train_triples) == len(both_in)
            assert all(in_pool[h] and in_pool[t_] for h, _r, t_ in ks.train_triples)
            assert len(ks.test_queries) == len(one_out)
            for row in ks.test_queries:
                held = ks.held_out_entity(row)
                other = int(row[2]) if held == int(row[0]) else int(row[0])
                assert not in_pool[held] and in_pool[other]
            assert ks.num_discarded == len(both_out)

        base = 0
        for case in range(1000):
            c = int(rng.integers(2, 8))
            counts = rng.integers(1, 40, c)
            rho = float(rng.choice([2.0, 5.0, 10.0, 20.0]))
            spec = build_spec(counts, rho)
            n_major = int(max(counts[list(spec.major_classes)]))
            target = max(1, int(n_major // rho))
            for cls in spec.minor_classes:
                assert spec.targets[cls] == min(int(counts[cls]), target)
            for cls in spec.major_classes:
                assert spec.targets[cls] == int(counts[cls])

            # downsample never reaches outside the train units it was given
            units, val_ids = {}, set(range(base + 100_000, base + 100_000 + 50))
            cursor = base
            for cls in range(c):
                units[cls] = np.arange(cursor, cursor + counts[cls], dtype=np.int64)
                cursor += int(counts[cls])
            train_ids = np.concatenate(list(units.values()))
            labels = np.full(cursor, -1, dtype=np.int64)
            labels[base:] = np.repeat(np.arange(c), counts)
            kept = step_downsample(labels, train_ids, spec,
                                   derive_key("imbalance", "prop", "down", 0, case))
            assert np.all(np.isin(kept, train_ids))
            assert not val_ids & set(kept.tolist())
            for cls in range(c):
                assert int(np.isin(kept, units[cls]).sum()) == spec.targets[cls]
            base = cursor


# ---------------------------------------------------------------------------
# 6. interpretation fidelity formulas
# ---------------------------------------------------------------------------

def test_criterion_6_fidelity_formulas():
    with _verdict(6, "char fixtures, lift std propagation, mask partition"):
        perfect = fidelity(1.0, 0.0, 1.0)  # full drop masked, no drop on complement
        assert perfect.fid_plus == 1.0 and perfect.fid_minus == 0.0
        assert abs(perfect.char - 1.0) < 1e-6
        for p_minus in (0.0, 0.3, 1.0):
            assert fidelity(0.7, 0.7, p_minus).char == 0.0  # no masked effect

        lift = char_lift(MetricCell(mean=0.8, std=3.0, n=5),
                         MetricCell(mean=0.5, std=4.0, n=5))
        assert lift.std == 5.0
        assert lift.mean == pytest.approx(0.3)

        rng = np.random.default_rng(606)
        for i in range(200):
            m = int(rng.integers(1, 400))
            scores = np.round(rng.random(m), 1)  # coarse values force ties
            key = derive_key("interpret", "partition", "case", 0, i)
            for ranking in ("saliency", "random"):
                for k in (5, 10, 20, 50):
                    top, comp = rank_and_mask(scores, k, key, ranking)
                    assert len(top) == mask_count(k, m)
                    assert len(np.intersect1d(top, comp)) == 0
                    assert np.array_equal(np.sort(np.concatenate([top, comp])),
                                          np.arange(m))


# ---------------------------------------------------------------------------
# 7. published-value fixtures
# ---------------------------------------------------------------------------

def test_criterion_7_published_value_fixtures():
    with _verdict(7, "drop 1.18, head/tail gap +5.71, cross-dataset 73.9"):
        assert drop_metric(75.08, 73.90) == pytest.approx(1.18, abs=1e-9)

        head = np.arange(10_000)
        tail = np.arange(10_000, 20_000)
        labels = np.zeros(20_000, dtype=np.int64)
        predicted = np.ones(20_000, dtype=np.int64)
        predicted[head[:8173]] = 0  # 81.73% correct on head
        predicted[tail[:7602]] = 0  # 76.02% correct on tail
        table = _onehot_table(predicted, 2)
        groups = GroupSpec(first=head, second=tail)
        gap = head_tail_gap(table, labels, groups)
        assert gap == pytest.approx(5.71, abs=1e-9)

        datasets = [MetricCell(mean=v, std=0.0, n=5) for v in (67.1, 73.3, 77.4, 77.9)]
        overall = cross_dataset(datasets)
        assert abs(overall.mean - 73.9) <= 0.05
        assert round(overall.mean, 1) == 73.9


# ---------------------------------------------------------------------------
# 8. end-to-end smoke
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_smoke(tmp_path):
    with _verdict(8, "1k-node run, 5 seeds, all axes populated, < 60 s"):
        manifest = save_dataset(
            make_node_dataset(name="smoke1k", num_nodes=1000, seed=23), tmp_path / "smoke1k")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "datasets": [{"manifest": str(manifest)}],
            "methods": [{"kind": "refmodel"}],
            "axes": ["corruption", "ood", "imbalance", "fairness", "interpret"],
            "seeds": 5,
        }))
        out = tmp_path / "results"
        t0 = time.perf_counter()
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"smoke run took {elapsed:.1f}s"

        report = load_report(out / "report.json")
        assert len(report.cells) >= 30
        populated = 0
        for axis, sub, ds, method, cell in report.rows():
            if cell.note == "inapplicable":
                continue
            assert not cell.undefined, f"({axis}, {sub}) undefined without note"
            assert np.isfinite(cell.mean) and np.isfinite(cell.std)
            assert cell.n == 5
            populated += 1
        assert populated > 0
        assert {"corruption", "ood", "imbalance", "fairness", "interpret"} \
            <= {k[0] for k in report.cells}


# ---------------------------------------------------------------------------
# 9. scale envelope
# ---------------------------------------------------------------------------

def test_criterion_9_scale_envelope():
    with _verdict(9, "2.3M-arc edge delete and degree split < 2 s, < 1 GB"):
        rng = np.random.default_rng(909)
        n = 169_343
        m = 1_166_000
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        off = src != dst
        g = Graph.from_arcs(n, src[off], dst[off], symmetrize=True)
        assert g.num_arcs > 2_300_000

        key = derive_key("corruption", "scale", "edge_delete", 0, 0)
        tracemalloc.start()
        t0 = time.perf_counter()
        deleted = remove_edges(g, edge_delete(g, [0.3], key) < 1)
        dt_edge = time.perf_counter() - t0
        _, peak_edge = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert deleted.num_arcs < g.num_arcs
        assert dt_edge < 2.0, f"edge deletion took {dt_edge:.2f}s"
        assert peak_edge < 1 << 30, f"edge deletion peaked at {peak_edge / 2**20:.0f} MiB"

        tracemalloc.start()
        t0 = time.perf_counter()
        split = degree_shift_split(g, np.arange(n, dtype=np.int64))
        dt_split = time.perf_counter() - t0
        _, peak_split = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(split.units(Role.TRAIN)) == int(0.6 * n)
        assert dt_split < 2.0, f"degree split took {dt_split:.2f}s"
        assert peak_split < 1 << 30, f"degree split peaked at {peak_split / 2**20:.0f} MiB"
