"""Distribution-shift split constructors: sizes, membership rules, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.determinism import derive_key, permutation
from graphstress.errors import EmptyLabeledSet, MissingScaffoldId, MissingYear
from graphstress.graph_store import Graph, Role, TripleStore
from graphstress.ood_splits import (
    HEAD_CORRUPT,
    TAIL_CORRUPT,
    degree_shift_split,
    inductive_entity_split,
    scaffold_gap,
    scaffold_split,
    temporal_split,
)
from graphstress.synthetic import make_triple_store
from oracles import scaffold_split_oracle

KEY = derive_key("ood", "unit", "scaffold", 0, 0)


def _chain_graph(n):
    src = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    dst = np.concatenate([np.arange(1, n), np.arange(n - 1)])
    return Graph.from_arcs(n, src, dst)


# ---------------------------------------------------------------------------
# degree shift
# ---------------------------------------------------------------------------

def test_degree_split_sizes_ten_nodes():
    g = _chain_graph(10)
    split = degree_shift_split(g, np.arange(10))
    counts = split.counts()
    assert counts["train"] == 6 and counts["ood_val"] == 2 and counts["ood_test"] == 2
    assert counts["excluded"] == 0


def test_degree_split_floor_sizes():
    # 3 labeled nodes: floor(1.8)=1 train, floor(0.6)=0 ood_val, 2 ood_test
    g = _chain_graph(5)
    split = degree_shift_split(g, np.array([0, 2, 4]))
    counts = split.counts()
    assert counts["train"] == 1 and counts["ood_val"] == 0 and counts["ood_test"] == 2
    assert counts["excluded"] == 2


def test_degree_split_dominance_oracle(random_graph):
    labeled = np.arange(random_graph.num_nodes)
    split = degree_shift_split(random_graph, labeled)
    deg = random_graph.degrees()
    # every train node has degree >= every ood_test node
    assert deg[split.units(Role.TRAIN)].min() >= deg[split.units(Role.OOD_TEST)].max()
    assert deg[split.units(Role.TRAIN)].min() >= deg[split.units(Role.OOD_VAL)].max()
    assert deg[split.units(Role.OOD_VAL)].min() >= deg[split.units(Role.OOD_TEST)].max()


def test_degree_split_tie_break_by_id():
    # star from node 4 plus isolated labeled nodes: all leaves tie at degree 1
    src = np.array([4, 4, 4, 0, 1, 2])
    dst = np.array([0, 1, 2, 4, 4, 4])
    g = Graph.from_arcs(6, src, dst)
    split = degree_shift_split(g, np.arange(6))
    # order: node 4 (deg 3), then 0,1,2 (deg 1, ascending id), then 3,5 (deg 0)
    assert split.units(Role.TRAIN).tolist() == [0, 1, 4]
    assert split.units(Role.OOD_VAL).tolist() == [2]
    assert split.units(Role.OOD_TEST).tolist() == [3, 5]


def test_degree_split_unlabeled_excluded(random_graph):
    labeled = np.arange(0, 100, 2)
    split = degree_shift_split(random_graph, labeled)
    excluded = split.units(Role.EXCLUDED)
    assert np.array_equal(excluded, np.arange(1, 100, 2))


def test_degree_split_empty_labeled(random_graph):
    with pytest.raises(EmptyLabeledSet):
        degree_shift_split(random_graph, np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# temporal shift
# ---------------------------------------------------------------------------

def test_temporal_boundaries():
    years = np.array([2009, 2010, 2011, 2016, 2017, 2020])
    split = temporal_split(years, np.arange(6))
    assert split.roles[0] == int(Role.TRAIN) and split.roles[1] == int(Role.TRAIN)
    assert split.roles[2] == int(Role.OOD_VAL) and split.roles[3] == int(Role.OOD_VAL)
    assert split.roles[4] == int(Role.OOD_TEST) and split.roles[5] == int(Role.OOD_TEST)


def test_temporal_missing_year_raises():
    years = np.array([2009, -1, 2018])
    with pytest.raises(MissingYear):
        temporal_split(years, np.arange(3))
    # but a missing year on an unlabeled node is fine
    split = temporal_split(years, labeled=np.array([0, 2]))
    assert split.roles[1] == int(Role.EXCLUDED)


# ---------------------------------------------------------------------------
# scaffold split
# ---------------------------------------------------------------------------

def test_scaffold_groups_never_straddle():
    ids = np.repeat(np.arange(12), 5)  # 12 scaffolds x 5 molecules
    split = scaffold_split(ids, KEY)
    for gid in range(12):
        roles = np.unique(split.roles[ids == gid])
        assert len(roles) == 1


def test_scaffold_ratio_targets():
    ids = np.repeat(np.arange(10), 10)  # 100 molecules, groups of 10
    split = scaffold_split(ids, KEY)
    counts = split.counts()
    assert counts["train"] == 80 and counts["val"] == 10 and counts["test"] == 10


def test_scaffold_greedy_overshoot():
    # one giant scaffold (60) plus 4 singles: train overshoots past 80 percent
    ids = np.array([0] * 60 + [1, 2, 3, 4])
    split = scaffold_split(ids, KEY)
    counts = split.counts()
    assert counts["train"] >= 52  # ceil(0.8 * 64) allowing greedy overshoot
    assert counts["train"] + counts["val"] + counts["test"] == 64


def test_scaffold_degenerate_warning(caplog):
    ids = np.zeros(50, dtype=np.int64)  # single scaffold holds every molecule
    with caplog.at_level("WARNING", logger="graphstress"):
        split = scaffold_split(ids, KEY)
    assert split.counts()["train"] == 50
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_scaffold_requires_ids():
    with pytest.raises(MissingScaffoldId):
        scaffold_split(np.array([], dtype=np.int64), KEY)
    with pytest.raises(MissingScaffoldId):
        scaffold_split(np.array([0, -1, 2]), KEY)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=200), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_scaffold_split_matches_greedy_loop_oracle(ids, seed):
    key = derive_key("ood", "unit", "scaffold", 0, seed)
    split = scaffold_split(np.array(ids), key)
    order = permutation(key, len(set(ids)))
    assert split.roles.dtype == np.int8
    assert split.roles.tolist() == scaffold_split_oracle(ids, order.tolist())


def test_scaffold_deterministic():
    ids = np.repeat(np.arange(7), 3)
    a = scaffold_split(ids, KEY)
    b = scaffold_split(ids, KEY)
    assert np.array_equal(a.roles, b.roles)
    other = scaffold_split(ids, derive_key("ood", "unit", "scaffold", 0, 1))
    assert not np.array_equal(a.roles, other.roles)


# ---------------------------------------------------------------------------
# inductive entity split
# ---------------------------------------------------------------------------

def test_inductive_membership_oracle():
    ds = make_triple_store(num_entities=50, seed=4)
    store = ds.store
    split = inductive_entity_split(store, KEY)
    in_train = set(split.train_entities.tolist())
    in_test = set(split.test_entities.tolist())
    assert in_train.isdisjoint(in_test)
    assert len(in_train) == int(0.75 * store.num_entities)
    assert in_train | in_test == set(range(store.num_entities))

    # recount every triple the slow way
    n_train = n_query = n_discard = 0
    for h, r, t in store.triples.tolist():
        if h in in_train and t in in_train:
            n_train += 1
        elif h in in_train or t in in_train:
            n_query += 1
        else:
            n_discard += 1
    assert len(split.train_triples) == n_train
    assert len(split.test_queries) == n_query
    assert split.num_discarded == n_discard

    # directions point at the held-out endpoint
    for row in split.test_queries:
        h, _, t, direction = row.tolist()
        if direction == HEAD_CORRUPT:
            assert h in in_test and t in in_train
        else:
            assert direction == TAIL_CORRUPT and t in in_test and h in in_train
        assert split.held_out_entity(row) == (h if direction == HEAD_CORRUPT else t)


def test_held_out_entity_of_the_query_table_is_that_of_each_row():
    split = inductive_entity_split(make_triple_store(num_entities=50, seed=4).store, KEY)
    held = split.held_out_entity(split.test_queries)
    assert held.dtype == np.int64 and held.shape == (len(split.test_queries),)
    assert held.tolist() == [int(split.held_out_entity(row)) for row in split.test_queries]
    none = split.held_out_entity(np.empty((0, 4), dtype=np.int64))
    assert none.dtype == np.int64 and none.shape == (0,)
    # a store without triples has a (0, 4) query table
    empty = inductive_entity_split(
        TripleStore(num_entities=8, num_relations=1, triples=np.empty((0, 3), dtype=np.int64)),
        KEY).test_queries
    assert empty.dtype == np.int64 and empty.shape == (0, 4)


def test_inductive_train_triples_stay_internal():
    ds = make_triple_store(num_entities=40, seed=9)
    split = inductive_entity_split(ds.store, KEY)
    in_train = np.zeros(40, dtype=bool)
    in_train[split.train_entities] = True
    assert np.all(in_train[split.train_triples[:, 0]])
    assert np.all(in_train[split.train_triples[:, 2]])


# ---------------------------------------------------------------------------
# scaffold generalization gap
# ---------------------------------------------------------------------------

def test_scaffold_gap_fixtures():
    # percentage-scale AUC pairs from published tables
    assert scaffold_gap(66.7, 56.9) == pytest.approx(9.8, abs=1e-9)
    assert scaffold_gap(85.3, 61.7) == pytest.approx(23.6, abs=1e-9)
    # the first pair is printed as 9.7 after per-seed rounding; arithmetic wins
    assert round(scaffold_gap(66.7, 56.9), 1) != 9.7
    # fraction scale works too
    assert scaffold_gap(0.85, 0.61) == pytest.approx(0.24)



# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(1, 200), st.integers(0, 50))
@settings(max_examples=1000, deadline=None)
def test_degree_split_partition_property(n_labeled, seed):
    rng = np.random.default_rng(seed)
    n = n_labeled + int(rng.integers(0, 20))
    src = rng.integers(0, n, size=max(1, 2 * n))
    dst = rng.integers(0, n, size=max(1, 2 * n))
    g = Graph.from_arcs(n, src, dst, symmetrize=True)
    labeled = np.sort(rng.permutation(n)[:n_labeled]).astype(np.int64)
    split = degree_shift_split(g, labeled)
    counts = split.counts()
    m = len(labeled)
    assert counts["train"] == int(0.6 * m)
    assert counts["ood_val"] == int(0.2 * m)
    assert counts["ood_test"] == m - int(0.6 * m) - int(0.2 * m)
    assert counts["excluded"] == n - m
    # roles partition the labeled set
    assigned = np.concatenate([split.units(Role.TRAIN), split.units(Role.OOD_VAL),
                               split.units(Role.OOD_TEST)])
    assert np.array_equal(np.sort(assigned), labeled)


@given(st.lists(st.integers(2005, 2022), min_size=1, max_size=120))
@settings(max_examples=1000, deadline=None)
def test_temporal_partition_property(year_list):
    years = np.array(year_list, dtype=np.int64)
    split = temporal_split(years, np.arange(len(years)))
    counts = split.counts()
    assert counts["train"] == int(np.sum(years <= 2010))
    assert counts["ood_val"] == int(np.sum((years > 2010) & (years < 2017)))
    assert counts["ood_test"] == int(np.sum(years >= 2017))
    assert counts["excluded"] == 0


@given(st.lists(st.integers(0, 8), min_size=1, max_size=100), st.integers(0, 20))
@settings(max_examples=1000, deadline=None)
def test_scaffold_partition_property(id_list, seed):
    ids = np.array(id_list, dtype=np.int64)
    key = derive_key("ood", "prop", "scaffold", 0, seed)
    split = scaffold_split(ids, key)
    counts = split.counts()
    assert counts["train"] >= 1  # first visited group always lands in train
    assert counts["train"] + counts["val"] + counts["test"] == len(ids)
    assert counts["excluded"] == 0
    for gid in np.unique(ids):
        assert len(np.unique(split.roles[ids == gid])) == 1


@given(st.integers(4, 60), st.integers(0, 20))
@settings(max_examples=1000, deadline=None)
def test_inductive_split_property(num_entities, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 80))
    triples = np.column_stack([
        rng.integers(0, num_entities, size=m),
        rng.integers(0, 3, size=m),
        rng.integers(0, num_entities, size=m),
    ]).astype(np.int64)
    keys = (triples[:, 0] * 3 + triples[:, 1]) * num_entities + triples[:, 2]
    triples = triples[np.sort(np.unique(keys, return_index=True)[1])]
    store = TripleStore(num_entities=num_entities, num_relations=3, triples=triples)
    split = inductive_entity_split(store, derive_key("ood", "prop", "kg", 0, seed))
    assert len(split.train_entities) == int(0.75 * num_entities)
    assert len(split.train_triples) + len(split.test_queries) + split.num_discarded == len(triples)
