import numpy as np
import pytest

from graphstress.determinism import derive_key, uniform
from graphstress.graph_store import Graph
from graphstress.synthetic import make_node_dataset
from oracles import node_dataset_arcs_oracle


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
