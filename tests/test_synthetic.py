import tracemalloc

import numpy as np
import pytest

from graphstress import synthetic
from graphstress.determinism import derive_key, gaussian, uniform
from graphstress.graph_store import Graph
from graphstress.synthetic import make_node_dataset
from oracles import node_dataset_arcs_oracle, node_features_oracle


@pytest.mark.parametrize("num_nodes, num_classes, seed", [
    (1000, 4, 0), (2000, 2, 5), (300, 7, 11), (50, 1, 2),
    (5, 9, 3),  # more classes than nodes: some class has one member or none
])
def test_node_dataset_arcs_match_the_per_node_loop(num_nodes, num_classes, seed):
    ds = make_node_dataset(name="arcs", num_nodes=num_nodes, num_classes=num_classes, seed=seed)
    g = ds.graph
    draws = uniform(derive_key("synthetic", "arcs", "edges", 0, seed),
                    np.arange(num_nodes * 5, dtype=np.int64))
    src, dst = node_dataset_arcs_oracle(g.labels, draws)
    ref = Graph.from_arcs(num_nodes, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                          undirected=True, symmetrize=True)
    np.testing.assert_array_equal(g.offsets, ref.offsets)
    np.testing.assert_array_equal(g.neighbors, ref.neighbors)
    if num_classes > num_nodes:
        assert np.bincount(g.labels, minlength=num_classes).min() <= 1


def test_node_features_are_made_a_row_block_at_a_time():
    # the features hold the bytes of the whole-array formula for a node count that is not a
    # multiple of the block, and generation never holds the float64 noise of every node
    n, dim = 200_000, 16
    assert n % synthetic._FEATURE_ROWS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = make_node_dataset(name="feat", num_nodes=n, num_classes=5, feature_dim=dim, seed=4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    g = ds.graph
    kept = sum(a.nbytes for a in (g.offsets, g.neighbors, g.features, g.labels, g.meta.year,
                                  g.meta.sensitive_attr, ds.split.roles))
    assert peak <= 4 * kept
    noise = gaussian(derive_key("synthetic", "feat", "features", 0, 4), np.arange(n * dim, dtype=np.int64))
    want = node_features_oracle(g.labels, 5, noise.reshape(n, dim))
    assert g.features.dtype == np.float32 and g.features.tobytes() == want.tobytes()
