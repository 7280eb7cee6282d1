"""Feature-noise and edge-deletion operators: scaling, nesting, invariants."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.corruption import (
    EDGE_LEVELS,
    _DRAW_BLOCK,
    _NOISE_ROWS,
    drop_metric,
    edge_delete,
    feature_noise,
)
from graphstress.determinism import derive_key, uniform
from graphstress.errors import DirectedGraph, EmptyTrainMask
from graphstress.graph_store import Graph, check_symmetry, remove_edges
from oracles import canonical_edges_oracle

KEY = derive_key("corruption", "unit", "feature_noise", 1, 0)
EDGE_KEY = derive_key("corruption", "unit", "edge_deletion", 0, 0)


def _deleted(graph, p, key):
    # the graph at the one severity p: edges that survive no level go
    return remove_edges(graph, edge_delete(graph, [p], key) < 1)


def _deleted_edge_mask(num_edges, p, key):
    # the per-edge decision written out: edge i goes when uniform(key, i) < p
    return uniform(key, np.arange(num_edges, dtype=np.int64)) < p


def _features(n=30, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)).astype(np.float32)


# ---------------------------------------------------------------------------
# feature noise
# ---------------------------------------------------------------------------

def test_sigma_zero_bit_identical():
    x = _features()
    out = feature_noise(x, np.arange(10), 0.0, KEY)
    assert out.tobytes() == x.tobytes()
    assert out is not x  # still a copy


def test_noise_is_deterministic():
    x = _features()
    a = feature_noise(x, np.arange(10), 0.5, KEY)
    b = feature_noise(x, np.arange(10), 0.5, KEY)
    assert a.tobytes() == b.tobytes()
    c = feature_noise(x, np.arange(10), 0.5, derive_key("corruption", "unit", "feature_noise", 2, 0))
    assert a.tobytes() != c.tobytes()


def test_constant_dimension_untouched():
    x = _features()
    x[:, 2] = 7.5  # zero variance on every row, train included
    out = feature_noise(x, np.arange(30), 1.0, KEY)
    assert np.array_equal(out[:, 2], x[:, 2])
    assert not np.array_equal(out[:, 0], x[:, 0])


def test_constant_on_train_only_is_untouched():
    x = _features()
    x[:10, 3] = -1.0  # constant on the train rows only
    out = feature_noise(x, np.arange(10), 1.0, KEY)
    assert np.array_equal(out[:, 3], x[:, 3])


def test_every_row_gets_noise():
    x = _features()
    out = feature_noise(x, np.arange(10), 1.0, KEY)
    changed = np.any(out != x, axis=1)
    assert changed.all()  # eval rows are perturbed too


def test_train_std_scaling_monte_carlo():
    # 2000 x 600 = 1.2M cells of unit-variance data: the added noise must
    # have std sigma_rel * std_train(dim) within 1 percent.
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2000, 600))
    train = np.arange(1000)
    sigma = 2.0
    out = feature_noise(x, train, sigma, derive_key("corruption", "mc", "feature_noise", 5, 0))
    delta = out - x
    expected = sigma * x[train].std(axis=0)  # population std, n denominator
    measured = delta.std()
    assert abs(measured - expected.mean()) / expected.mean() < 0.01
    assert abs(delta.mean()) < 0.01


def test_noise_preserves_dtype():
    x = _features()
    assert feature_noise(x, np.arange(5), 0.3, KEY).dtype == np.float32
    assert feature_noise(x.astype(np.float64), np.arange(5), 0.3, KEY).dtype == np.float64


def test_noise_bytes_are_pinned():
    # 10^6 float32 values over 16 row blocks, the last one partial, and one constant column.
    # The input is built from uniform draws only, so it is the same on every CPU; the digest
    # catches a change to the noise arithmetic and any SIMD drift in gaussian that survives
    # the float32 cast
    n, d = 62_500, 16
    draws = uniform(derive_key("corruption", "pin", "features", 0, 0), np.arange(n * d))
    x = (draws * 4 - 2).astype(np.float32).reshape(n, d)
    x[:, 3] = 0.25
    out = feature_noise(x, np.arange(0, n, 3), 0.5, KEY)
    assert out.dtype == np.float32
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "bf57ff5c24c3f83232a49652206aa15913e0adcc69a73c3da8e9b9643ad3fcd0")


def test_noise_holds_its_result_and_one_row_block():
    # the index, draws and float64 sums of one block stay under 64 B per value; a few train
    # rows keep the std step below that. Drawn whole, the noise held ~6x the result
    n, d = 100_000, 16
    x = _features(n, d)
    tracemalloc.start()
    try:
        out = feature_noise(x, np.arange(0, n, 10), 0.5, KEY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 64 * _NOISE_ROWS * d


def test_noise_input_validation():
    x = _features()
    with pytest.raises(EmptyTrainMask):
        feature_noise(x, np.array([], dtype=np.int64), 0.5, KEY)


# ---------------------------------------------------------------------------
# edge deletion
# ---------------------------------------------------------------------------

def test_p_zero_returns_graph_unchanged(random_graph):
    assert _deleted(random_graph, 0.0, EDGE_KEY) is random_graph


def test_p_one_keeps_only_self_loops(random_graph):
    out = _deleted(random_graph, 1.0, EDGE_KEY)
    edges, loops = canonical_edges_oracle(out)
    assert edges == []
    assert loops == canonical_edges_oracle(random_graph)[1]
    assert 7 in loops


def test_deletion_preserves_symmetry_and_payload(random_graph):
    random_graph.features = _features(random_graph.num_nodes, 4)
    random_graph.labels = np.zeros(random_graph.num_nodes, dtype=np.int64)
    random_graph.num_classes = 2
    out = _deleted(random_graph, 0.3, EDGE_KEY)
    check_symmetry(out)
    assert out.features is random_graph.features
    assert out.labels is random_graph.labels
    assert out.num_classes == 2
    random_graph.features = None
    random_graph.labels = None
    random_graph.num_classes = 0


def test_deletion_rate_binomial_bound(random_graph):
    # over 20 keyed replicates the total deletions stay within 3 sigma of m*p
    p = 0.3
    m = len(canonical_edges_oracle(random_graph)[0])
    for seed in range(20):
        key = derive_key("corruption", "unit", "edge_deletion", 0, seed)
        out = _deleted(random_graph, p, key)
        deleted = m - len(canonical_edges_oracle(out)[0])
        bound = 3.0 * np.sqrt(m * p * (1 - p))
        assert abs(deleted - m * p) <= bound
        assert deleted == int(_deleted_edge_mask(m, p, key).sum())


def test_deletions_nest_across_severities(random_graph):
    m = len(random_graph.edge_keys())
    survived = edge_delete(random_graph, EDGE_LEVELS, EDGE_KEY)
    assert survived.dtype == np.int8 and len(survived) == m
    masks = [survived < i for i in range(1, len(EDGE_LEVELS) + 1)]
    for p, mask in zip(EDGE_LEVELS, masks):
        assert np.array_equal(mask, _deleted_edge_mask(m, p, EDGE_KEY))
    for low, high in zip(masks, masks[1:]):
        assert not np.any(low & ~high)  # deleted at p_low implies deleted at p_high


def test_surviving_edges_are_subset(random_graph):
    before = set(canonical_edges_oracle(random_graph)[0])
    out = _deleted(random_graph, 0.2, EDGE_KEY)
    after = set(canonical_edges_oracle(out)[0])
    assert after <= before


def test_edge_delete_validation():
    directed = Graph.from_arcs(3, [0], [1], undirected=False)
    with pytest.raises(DirectedGraph):
        edge_delete(directed, [0.5], EDGE_KEY)


def test_edge_delete_holds_at_most_24_bytes_per_edge():
    # the counts are 1 B per edge; the draws and their indices 16 B more
    rng = np.random.default_rng(3)
    g = Graph.from_arcs(20_000, rng.integers(0, 20_000, 100_000), rng.integers(0, 20_000, 100_000),
                        symmetrize=True)
    edge_delete(g, EDGE_LEVELS, EDGE_KEY)  # the graph's reverse-arc order is cached from here on
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        survived = edge_delete(g, EDGE_LEVELS, EDGE_KEY)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(survived) > 99_000
    assert peak <= 24 * len(survived)


def test_edge_delete_holds_its_counts_and_one_block_of_draws():
    # 1 B per edge for the counts; the index, draw and count of one block are 8 B each
    rng = np.random.default_rng(3)
    n = 100_000
    g = Graph.from_arcs(n, rng.integers(0, n, 500_000), rng.integers(0, n, 500_000),
                        symmetrize=True)
    edge_delete(g, EDGE_LEVELS, EDGE_KEY)  # the graph's reverse-arc order is cached from here on
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        survived = edge_delete(g, EDGE_LEVELS, EDGE_KEY)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(survived) > 490_000
    assert peak <= 2 * len(survived) + 24 * _DRAW_BLOCK


# ---------------------------------------------------------------------------
# degradation metric
# ---------------------------------------------------------------------------

def test_drop_metric_fixtures():
    # published accuracy pairs reproduce the printed degradations
    assert drop_metric(75.08, 73.90) == pytest.approx(1.18)
    assert drop_metric(81.73, 76.02) == pytest.approx(5.71)
    assert drop_metric(50.0, 60.0) == pytest.approx(-10.0)  # gains are negative drops


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.floats(0.01, 1.0), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_deletion_mask_matches_graph_property(p, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 30, size=60)
    dst = rng.integers(0, 30, size=60)
    g = Graph.from_arcs(30, src, dst, symmetrize=True)
    key = derive_key("corruption", "prop", "edge_deletion", 0, seed)
    edges = canonical_edges_oracle(g)[0]
    mask = _deleted_edge_mask(len(edges), p, key)
    out = _deleted(g, p, key)
    # edge i of the (u, v)-sorted listing goes exactly when mask[i] is set
    assert canonical_edges_oracle(out)[0] == [e for e, d in zip(edges, mask) if not d]
    check_symmetry(out)


@given(st.floats(0.05, 3.0), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_noise_replayable_property(sigma, seed):
    x = _features(seed=seed)
    key = derive_key("corruption", "prop", "feature_noise", 1, seed)
    a = feature_noise(x, np.arange(15), sigma, key)
    b = feature_noise(x, np.arange(15), sigma, key)
    assert a.tobytes() == b.tobytes()
    assert np.all(np.isfinite(a))
