import pytest

import gate
import workloads
from small import shrink


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, monkeypatch, name):
    shrink(monkeypatch)
    a = workloads.input_dir(tmp_path / "a", name, 7)
    b = workloads.input_dir(tmp_path / "b", name, 7)
    c = workloads.input_dir(tmp_path / "c", name, 8)
    assert gate.tree_digest(a) == gate.tree_digest(b)
    assert gate.tree_digest(a) != gate.tree_digest(c)


def test_cache_keeps_only_the_newest_seed(tmp_path, monkeypatch):
    shrink(monkeypatch)
    first = workloads.input_dir(tmp_path, "node10k-allaxes", 1)
    assert workloads.input_dir(tmp_path, "node10k-allaxes", 1) == first
    second = workloads.input_dir(tmp_path, "node10k-allaxes", 2)
    assert second.is_dir() and not first.exists()


def test_changed_generator_regenerates_the_inputs(tmp_path, monkeypatch):
    shrink(monkeypatch)
    first = workloads.input_dir(tmp_path, "node10k-allaxes", 1)
    monkeypatch.setattr(workloads, "NODE10K", dict(workloads.NODE10K, num_nodes=301))
    second = workloads.input_dir(tmp_path, "node10k-allaxes", 1)
    assert second != first and second.is_dir() and not first.exists()


def test_every_seed_maps_onto_a_recorded_input_seed():
    assert workloads.input_seed(5) == 5
    assert workloads.input_seed(workloads.INPUT_SEEDS + 5) == 5
    assert workloads.input_seed(10**9) in range(workloads.INPUT_SEEDS)


def test_kg_rankings_score_every_query_with_its_true_entity(tmp_path, monkeypatch):
    import numpy as np
    from graphstress.metrics import read_ranking_file
    shrink(monkeypatch)
    inputs = workloads.input_dir(tmp_path, "ood-external", 3)
    queries = np.loadtxt(inputs / "kg_splits" / "seed0" / "queries.tsv", dtype=np.int64,
                         delimiter="\t", ndmin=2)
    truth = np.where(queries[:, 3] == 0, queries[:, 0], queries[:, 2])
    qids, cands, _ = read_ranking_file(inputs / "preds" / "kg" / "ood" / "kg" / "seed0.ranking")
    per_query = cands.reshape(len(queries), workloads.NUM_CANDIDATES)
    assert np.array_equal(qids, np.repeat(np.arange(len(queries)), workloads.NUM_CANDIDATES))
    assert all(t in row for t, row in zip(truth, per_query))
    assert all(len(set(row)) == len(row) for row in per_query.tolist())
