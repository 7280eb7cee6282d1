"""Label-propagation scorer: counting semantics, locality and nested edge levels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.corruption import edge_delete
from graphstress.determinism import derive_key, uniform
from graphstress.errors import EmptySubgraph, NoTrainLabels
from graphstress.graph_store import Graph, remove_edges
from graphstress.cli import _refmodel_probs
from graphstress.interpret import SaliencyTable, TargetManifest, build_edge_manifest, masked_graph
from graphstress import refmodel
from graphstress.refmodel import (
    PropagationConfig,
    predicted_class_prob,
    propagate_predict,
)
from oracles import (adjacency_from_graph, neighbors_of, propagation_oracle,
                     reachability_oracle)


def _chain(n):
    return Graph.from_arcs(n, np.arange(n - 1), np.arange(1, n), symmetrize=True)


def test_probabilities_concentrate_on_neighborhood_label():
    # chain 0-1-2-3-4 with train labels 0 at node 0 and 1 at node 4
    g = _chain(5)
    train = np.array([0, -1, -1, -1, 1], dtype=np.int64)
    table = propagate_predict(g, train, 2)[0]
    rows = table.rows_for(np.arange(5))
    assert rows[1, 0] > rows[1, 1]  # node 1 sees the class-0 node
    assert rows[3, 1] > rows[3, 0]
    assert np.argmax(rows[0]) == 0 or rows[0, 0] == rows[0, 1]


def test_uniform_fallback_when_nothing_reachable():
    g = Graph.from_arcs(3, [0], [1], symmetrize=True)
    train = np.array([-1, -1, 0], dtype=np.int64)  # only the isolated node labeled
    rows = propagate_predict(g, train, 2)[0].rows_for(np.arange(3))
    assert rows[0].tolist() == [0.5, 0.5]  # sees no labels: smoothing only
    assert rows[2].tolist() == [0.5, 0.5]  # own label never counts for itself


def test_self_label_excluded():
    g = _chain(2)
    train = np.array([0, 1], dtype=np.int64)
    rows = propagate_predict(g, train, 2)[0].rows_for(np.arange(2))
    # node 0 counts only node 1's label: (alpha, alpha+1) normalized
    assert rows[0].tolist() == pytest.approx([1 / 3, 2 / 3])
    assert rows[1].tolist() == pytest.approx([2 / 3, 1 / 3])


def test_matches_bfs_count_oracle():
    rng = np.random.default_rng(8)
    g = Graph.from_arcs(50, rng.integers(0, 50, 150), rng.integers(0, 50, 150),
                        symmetrize=True)
    train = np.where(rng.random(50) < 0.4, rng.integers(0, 3, 50), -1).astype(np.int64)
    config = PropagationConfig(hops=2, alpha=1.0)
    table = propagate_predict(g, train, 3, config)[0]
    adjacency = adjacency_from_graph(g)
    rows = table.rows_for(np.arange(50))
    for node in range(50):
        want = propagation_oracle(adjacency, train, 3, 2, 1.0, node)
        assert np.allclose(rows[node], want, atol=1e-12)


def test_rows_sum_to_one(random_graph):
    train = np.full(100, -1, dtype=np.int64)
    train[:30] = np.random.default_rng(1).integers(0, 4, 30)
    rows = propagate_predict(random_graph, train, 4)[0].rows_for(np.arange(100))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(rows > 0)  # smoothing keeps every class possible


def test_hop_locality():
    # labels beyond the hop horizon must not influence the row
    g = _chain(6)
    train = np.array([-1, -1, -1, -1, -1, 0], dtype=np.int64)
    rows1 = propagate_predict(g, train, 2, PropagationConfig(hops=1))[0].rows_for(np.arange(6))
    assert rows1[0].tolist() == [0.5, 0.5]
    rows5 = propagate_predict(g, train, 2, PropagationConfig(hops=5))[0].rows_for(np.arange(6))
    assert rows5[0, 0] > 0.5  # now reachable


def test_predicted_class_prob():
    # chain 0-1-2; level 1 drops edge (1, 2), level 2 both edges
    g = _chain(3)
    train = np.array([0, -1, 1], dtype=np.int64)
    p = predicted_class_prob(g, train, 2, np.array([0, 1, 2]), np.array([1, 0], np.int8), 2)
    # clean classes 1, 0, 0: each level's probability of them
    assert p == pytest.approx(np.array([[2 / 3, 0.5, 2 / 3], [0.5, 2 / 3, 0.5], [0.5, 0.5, 0.5]]))


def test_no_train_labels():
    g = _chain(3)
    with pytest.raises(NoTrainLabels):
        propagate_predict(g, np.full(3, -1, dtype=np.int64), 2)
    with pytest.raises(NoTrainLabels):
        predicted_class_prob(g, np.full(3, -1, dtype=np.int64), 2, np.array([0]),
                             np.zeros(2, np.int8), 1)


CHUNKS = [1, 3, refmodel._CHUNK_ROWS]
# key widths: the narrow one, and 0, which no node fits, so every key is an int64
WIDTHS = [refmodel._NARROW_BITS, 0]


def _layout(chunk, width):
    # the rows whose reach is held at once and the narrow key width
    return mock.patch.multiple(refmodel, _CHUNK_ROWS=chunk, _NARROW_BITS=width)


def _self_loop_graph(rng, undirected, arcs=True):
    # directed or undirected graphs with self-loops and, often, isolated nodes; or no arcs at all
    n = int(rng.integers(1, 30))
    if not arcs:
        return Graph.from_arcs(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                               undirected=undirected)
    src = np.append(rng.integers(0, n, 2 * n), rng.integers(0, n, 3))
    dst = np.append(rng.integers(0, n, 2 * n), src[-3:])
    return Graph.from_arcs(n, src, dst, undirected=undirected, symmetrize=undirected)


def _row_subset(rng, n, order):
    # distinct node ids to score: a shuffled subset, a descending one, or none
    if order == "empty":
        return np.empty(0, dtype=np.int64)
    rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    return np.sort(rows)[::-1] if order == "descending" else rows


@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans(), st.sampled_from(CHUNKS),
       st.sampled_from(WIDTHS), st.booleans(), st.sampled_from(["shuffled", "descending", "empty"]))
@settings(max_examples=100, deadline=None)
def test_reachability_matches_bfs_oracle_property(seed, hops, undirected, chunk, width, arcs,
                                                  order):
    # with every node labeled as its own class, row i reads off the set of
    # nodes the hop matrix reaches from i: those j != i get count 1, the rest 0
    rng = np.random.default_rng(seed)
    g = _self_loop_graph(rng, undirected, arcs)
    n = g.num_nodes
    config = PropagationConfig(hops=hops)
    with _layout(chunk, width):
        own = propagate_predict(g, np.arange(n), n, config)[0].rows
    rows, cols = np.nonzero(own > own.diagonal()[:, None])
    got = set(zip(rows.tolist(), cols.tolist()))
    adjacency = adjacency_from_graph(g)
    assert got == reachability_oracle(adjacency, hops)
    train = np.where(rng.random(n) < 0.5, rng.integers(0, 3, n), -1).astype(np.int64)
    train[int(rng.integers(0, n))] = 0
    rows = _row_subset(rng, n, order)
    with _layout(chunk, width):
        full = propagate_predict(g, train, 3, config)[0]
        part = propagate_predict(g, train, 3, config, rows=rows)[0]
    for node in range(n):
        want = propagation_oracle(adjacency, train, 3, hops, 1.0, node)
        assert np.allclose(full.rows[node], want, atol=1e-12)
    assert part.unit_ids.tolist() == rows.tolist()
    assert part.rows.tobytes() == full.rows[rows].tobytes()


def _labeling(rng, kind, n, previous):
    # "relabel" keeps the previous labeling's nodes and moves each to another class
    if kind == "relabel" and previous is not None:
        return np.where(previous >= 0, (previous + 1) % 3, -1)
    out = np.full(n, -1, dtype=np.int64)
    if kind != "single":
        share = 0.1 if kind == "sparse" else 0.7
        out = np.where(rng.random(n) < share, rng.integers(0, 3, n), -1).astype(np.int64)
    out[int(rng.integers(0, n))] = int(rng.integers(0, 3))  # one labeled node at least
    return out


@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans(), st.sampled_from(CHUNKS),
       st.sampled_from(WIDTHS),
       st.lists(st.sampled_from(["sparse", "dense", "single", "relabel"]), min_size=1, max_size=4),
       st.booleans(), st.sampled_from(["shuffled", "descending", "empty"]))
@settings(max_examples=150, deadline=None)
def test_stacked_labelings_equal_each_labeling_alone_property(seed, hops, undirected, chunk,
                                                              width, kinds, arcs, order):
    # one reach into the labeled columns of the whole stack scores every labeling
    # as it scores alone, whether the labelings overlap, are sparse or hold one node
    rng = np.random.default_rng(seed)
    g = _self_loop_graph(rng, undirected, arcs)
    n = g.num_nodes
    stack = []
    for kind in kinds:
        stack.append(_labeling(rng, kind, n, stack[-1] if stack else None))
    rows = _row_subset(rng, n, order)
    config = PropagationConfig(hops=hops)
    with _layout(chunk, width):
        tables = propagate_predict(g, np.array(stack), 3, config, rows=rows)
        alone = [propagate_predict(g, train, 3, config, rows=rows) for train in stack]
    assert len(tables) == len(stack) and all(len(a) == 1 for a in alone)
    adjacency = adjacency_from_graph(g)
    for table, (single,), train in zip(tables, alone, stack):
        assert table.unit_ids.tolist() == rows.tolist()
        assert table.rows.tobytes() == single.rows.tobytes()
        for row, node in zip(table.rows, rows.tolist()):
            assert np.allclose(row, propagation_oracle(adjacency, train, 3, hops, 1.0, node),
                               atol=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from(CHUNKS),
       st.sampled_from(WIDTHS), st.booleans(),
       st.lists(st.sampled_from(["sparse", "dense", "single", "relabel"]), min_size=1, max_size=3),
       st.sampled_from(["shuffled", "descending", "empty"]), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_edge_levels_equal_each_deleted_graph_alone_property(seed, hops, chunk, width, arcs,
                                                             kinds, order, num_levels):
    # one call over the clean graph scores every nested deletion level as
    # scoring that level's own graph does, for every labeling of the stack
    rng = np.random.default_rng(seed)
    g = _self_loop_graph(rng, True, arcs)
    n = g.num_nodes
    stack = []
    for kind in kinds:
        stack.append(_labeling(rng, kind, n, stack[-1] if stack else None))
    rows = _row_subset(rng, n, order)
    levels = np.sort(rng.random(num_levels))
    key = derive_key("corruption", "prop", "edge_delete", 0, seed)
    survived = edge_delete(g, levels, key)
    u = uniform(key, np.arange(len(g.edge_keys()), dtype=np.int64))
    config = PropagationConfig(hops=hops)
    with _layout(chunk, width):
        tables = propagate_predict(g, np.array(stack), 3, config, rows=rows, survived=survived,
                                   num_levels=num_levels)
        assert len(tables) == (num_levels + 1) * len(stack)
        for level in range(num_levels + 1):
            if level:
                assert np.array_equal(survived < level, u < levels[level - 1])
            deleted = remove_edges(g, survived < level)
            alone = propagate_predict(deleted, np.array(stack), 3, config, rows=rows)
            adjacency = adjacency_from_graph(deleted)
            for j, (single, train) in enumerate(zip(alone, stack)):
                table = tables[level * len(stack) + j]
                assert table.unit_ids.tolist() == rows.tolist()
                assert table.rows.tobytes() == single.rows.tobytes(), (level, j)
                for row, node in zip(table.rows, rows.tolist()):
                    want = propagation_oracle(adjacency, train, 3, hops, 1.0, node)
                    assert np.allclose(row, want, atol=1e-12)


def test_edges_surviving_every_level_score_as_the_clean_graph():
    train = np.array([0, -1, 1], dtype=np.int64)
    g = _chain(3)
    tables = propagate_predict(g, train, 2, survived=np.full(2, 3, np.int8), num_levels=3)
    assert len({t.rows.tobytes() for t in tables}) == 1


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_given_reachability_is_bit_equal_to_building_it(random_graph, hops):
    # a cell that passes the rows it reads gets them bit for bit as the full table has them
    rng = np.random.default_rng(hops)
    train = np.where(rng.random(100) < 0.3, rng.integers(0, 4, 100), -1).astype(np.int64)
    config = PropagationConfig(hops=hops)
    built = propagate_predict(random_graph, train, 4, config)[0]
    assert built.unit_ids.tolist() == list(range(100))
    rows = rng.permutation(100)[:37]
    given = propagate_predict(random_graph, train, 4, config, rows=rows)[0]
    assert given.unit_ids.tolist() == rows.tolist()
    assert given.rows.tobytes() == built.rows[rows].tobytes()


@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans(), st.sampled_from(CHUNKS),
       st.sampled_from(WIDTHS))
@settings(max_examples=100, deadline=None)
def test_scored_rows_equal_the_full_table_rows_property(seed, hops, undirected, chunk, width):
    # any duplicate-free row set in any order, cut into chunks of any size
    rng = np.random.default_rng(seed)
    g = _self_loop_graph(rng, undirected)
    n = g.num_nodes
    train = np.where(rng.random(n) < 0.5, rng.integers(0, 3, n), -1).astype(np.int64)
    train[int(rng.integers(0, n))] = 0
    config = PropagationConfig(hops=hops)
    full = propagate_predict(g, train, 3, config)[0]
    assert full.unit_ids.tolist() == list(range(n))
    rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    with _layout(chunk, width):
        part = propagate_predict(g, train, 3, config, rows=rows)[0]
    assert part.unit_ids.tolist() == rows.tolist()
    assert part.rows.tobytes() == full.rows[rows].tobytes()


def _recording_hop(calls):
    # refmodel._hop, recording the dtype and the largest key of every reach it returns
    hop = refmodel._hop

    def recorded(*args, **kwargs):
        keys = hop(*args, **kwargs)
        calls.append((keys.dtype, int(keys.max())))
        return keys
    return recorded


@pytest.mark.parametrize("num_levels, step", [(0, 2048), (1, 1024)])
def test_keys_that_fill_the_narrow_width_match_the_oracle(num_levels, step):
    # 2**20 + 2**19 nodes take 21 bits: with no level bit, a 2048-row chunk's 11 row
    # bits fill the 32 bits exactly; one level bit is a bit over, so a chunk holds
    # 1024 rows. The arcs join the top 2100 ids, scored shuffled, so keys reach 2**31
    rng = np.random.default_rng(num_levels)
    n, m = 2**20 + 2**19, 2100
    base = n - m
    src = rng.integers(0, m, 3 * m) + base
    dst = rng.integers(0, m, 3 * m) + base
    dst[:5] = src[:5]  # five self-loops
    g = Graph.from_arcs(n, src, dst, symmetrize=True)
    train = np.full(n, -1, dtype=np.int64)
    train[base:] = np.where(rng.random(m) < 0.5, rng.integers(0, 3, m), -1)
    rows = rng.permutation(m) + base
    survived = edge_delete(g, np.sort(rng.random(num_levels)),
                           derive_key("corruption", "prop", "edge_delete", 0, num_levels))
    calls = []
    with mock.patch.object(refmodel, "_hop", _recording_hop(calls)):
        tables = propagate_predict(g, train, 3, rows=rows,
                                   survived=survived if num_levels else None,
                                   num_levels=num_levels)
    hops = PropagationConfig().hops
    assert len(calls) == hops * -(-m // step)
    assert {dtype for dtype, _ in calls} == {np.dtype(np.uint32)}
    assert max(top for _, top in calls) >= 2**31
    for level, table in enumerate(tables):
        deleted = remove_edges(g, survived < level)
        adjacency = {u: neighbors_of(deleted, u).tolist() for u in range(base, n)}
        want = [propagation_oracle(adjacency, train, 3, hops, 1.0, node) for node in rows.tolist()]
        assert table.rows.tobytes() == np.array(want).tobytes(), level


def _full_graph_prob(g, train, manifest, condition, clean_class):
    # the oracle: the propagate_predict row of the whole graph after masked_graph
    masked = masked_graph(g, manifest, condition)
    table = propagate_predict(masked, train, g.num_classes)[0]
    return float(table.rows_for(np.array([manifest.target]))[0][clean_class])


def _assert_probs_equal_the_oracle(g, train, manifest, k_levels):
    target = manifest.target
    probs = _refmodel_probs(g, train, {target: manifest}, k_levels)
    assert sorted(probs) == sorted((target, c) for c in ["clean", *manifest.conditions])
    clean_row = propagate_predict(g, train, g.num_classes)[0].rows_for(np.array([target]))[0]
    clean_class = int(np.argmax(clean_row))
    assert probs[(target, "clean")] == float(clean_row[clean_class])
    for name in manifest.conditions:
        want = _full_graph_prob(g, train, manifest, name, clean_class)
        assert probs[(target, name)] == want, name


# distinct k levels drawn in any order: whole and fractional, and small ones whose
# mask counts tie on a small receptive field
K_LEVELS = st.lists(st.sampled_from([0.1, 1, 1.5, 2, 5, 10, 20, 33.3, 50, 75, 99.9, 100]),
                    min_size=1, max_size=6, unique=True)


@given(st.integers(0, 10_000), st.integers(2, 3), st.sampled_from([0.05, 0.5]), K_LEVELS)
@settings(max_examples=100, deadline=None)
def test_masked_traversal_equals_full_graph_masking_property(seed, manifest_hops, labeled,
                                                             k_levels):
    # graphs with self-loops; every condition of a manifest whose ball is at
    # least the propagation ball; sparse labels leave some balls without any
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    src = np.append(rng.integers(0, n, 2 * n), rng.integers(0, n, 3))
    dst = np.append(rng.integers(0, n, 2 * n), src[-3:])
    g = Graph.from_arcs(n, src, dst, symmetrize=True, num_classes=3)
    train = np.where(rng.random(n) < labeled, rng.integers(0, 3, n), -1).astype(np.int64)
    train[int(rng.integers(0, n))] = 0
    scores = SaliencyTable("node_grad_norm", np.arange(n), rng.random(n))
    target = int(rng.integers(0, n))
    try:
        manifest = build_edge_manifest(g, target, scores, derive_key("t", "p", "m", 0, seed),
                                       hops=manifest_hops, k_levels=k_levels)
    except EmptySubgraph:
        return
    _assert_probs_equal_the_oracle(g, train, manifest, k_levels)


def test_more_k_levels_than_one_propagation_carries():
    # 200 shuffled levels: scored in slices of at most 127, each slice a nested chain
    rng = np.random.default_rng(11)
    g = Graph.from_arcs(12, rng.integers(0, 12, 30), rng.integers(0, 12, 30), symmetrize=True,
                        num_classes=3)
    train = np.where(rng.random(12) < 0.5, rng.integers(0, 3, 12), -1).astype(np.int64)
    train[0] = 1
    k_levels = rng.permutation(np.arange(1, 201) / 2).tolist()
    manifest = build_edge_manifest(g, 3, SaliencyTable("node_grad_norm", np.arange(12),
                                                       rng.random(12)),
                                   derive_key("t", "p", "m", 0, 11), hops=2, k_levels=k_levels)
    assert len(manifest.edges) > 5
    _assert_probs_equal_the_oracle(g, train, manifest, k_levels)


def test_masked_edges_block_both_directions():
    # chain 0-1-2 with (1, 2) masked: no label crosses that edge either way
    g = Graph.from_arcs(3, [0, 1], [1, 2], symmetrize=True, num_classes=2)
    train = np.array([-1, 0, 1], dtype=np.int64)
    mask_01, mask_12 = np.array([0]), np.array([1])
    conditions = {"saliency_top_50": mask_12, "saliency_comp_50": mask_01,
                  "random_top_50": mask_01, "random_comp_50": mask_12}
    manifests = {t: TargetManifest(target=t, nodes=np.arange(3), edges=np.array([[0, 1], [1, 2]]),
                                   conditions=conditions) for t in range(3)}
    probs = _refmodel_probs(g, train, manifests, [50])
    clean = [probs[(t, "clean")] for t in range(3)]
    assert clean == [0.5, 2 / 3, 2 / 3]  # clean classes 0, 1, 0
    for name, masked in conditions.items():
        got = [probs[(t, name)] for t in range(3)]
        # (0, 1) masked: 0 sees no label, and 1 and 2 still see each other
        assert got == ([2 / 3, 0.5, 0.5] if masked is mask_12 else [0.5, 2 / 3, 2 / 3]), name
        for t, clean_class in enumerate([0, 1, 0]):
            assert got[t] == _full_graph_prob(g, train, manifests[t], name, clean_class)
