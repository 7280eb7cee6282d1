"""Degree head/tail accuracy gap and demographic disparity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.errors import DegenerateGroup, EmptyGroup
from graphstress.fairness import (
    demographic_gaps,
    head_tail_gap,
    head_tail_groups,
)
from graphstress.metrics import PredictionTable
from oracles import auc_pairwise_oracle


def _table_for(units, predicted, num_classes=2):
    rows = np.full((len(units), num_classes), 0.0)
    rows[np.arange(len(units)), predicted] = 1.0
    return PredictionTable(np.asarray(units), rows)


# ---------------------------------------------------------------------------
# head/tail group construction
# ---------------------------------------------------------------------------

def test_groups_degrees_one_to_ten():
    degrees = np.arange(1, 11)  # node i has degree i+1
    nodes = np.arange(10)
    groups = head_tail_groups(nodes, degrees, q=0.2)
    assert groups.second.tolist() == [0, 1]   # lowest-degree fifth
    assert groups.first.tolist() == [8, 9]    # highest-degree fifth


def test_groups_tie_break_by_node_id():
    degrees = np.array([3, 3, 3, 3, 3])
    groups = head_tail_groups(np.arange(5), degrees, q=0.4)
    # all degrees tie: ascending id ordering decides membership
    assert groups.second.tolist() == [0, 1]
    assert groups.first.tolist() == [3, 4]


def test_groups_floor_can_be_empty(caplog):
    with caplog.at_level("WARNING", logger="graphstress"):
        groups = head_tail_groups(np.arange(4), np.arange(4), q=0.2)  # floor(0.8) = 0
    assert len(groups.first) == 0 and len(groups.second) == 0
    assert any("undefined" in rec.message for rec in caplog.records)


def test_groups_of_an_empty_test_set_raise():
    with pytest.raises(EmptyGroup):
        head_tail_groups(np.array([], dtype=np.int64), np.arange(10), q=0.2)


def test_groups_subset_of_test_nodes(random_graph):
    test_nodes = np.arange(10, 60)
    groups = head_tail_groups(test_nodes, random_graph.degrees(), q=0.2)
    assert len(groups.first) == 10 and len(groups.second) == 10
    assert set(groups.first.tolist()) <= set(test_nodes.tolist())
    assert set(groups.first.tolist()).isdisjoint(groups.second.tolist())
    deg = random_graph.degrees()
    assert deg[groups.first].min() >= deg[groups.second].max()


# ---------------------------------------------------------------------------
# head/tail gap
# ---------------------------------------------------------------------------

def test_gap_published_fixtures():
    # head 81.73 vs tail 76.02 -> +5.71 pp
    units = np.arange(20000)
    labels = np.zeros(20000, dtype=np.int64)
    head, tail = units[:10000], units[10000:]
    predicted = np.ones(20000, dtype=np.int64)
    predicted[:8173] = 0
    predicted[10000:17602] = 0
    table = _table_for(units, predicted)
    from graphstress.fairness import GroupSpec
    gap = head_tail_gap(table, labels, GroupSpec(head, tail))
    assert gap == pytest.approx(5.71, abs=1e-9)


def test_gap_negative_fixture():
    # head 72.22 vs tail 72.51: arithmetic gives -0.29 even though the source
    # table prints -0.28 after per-seed rounding
    units = np.arange(20000)
    labels = np.zeros(20000, dtype=np.int64)
    predicted = np.ones(20000, dtype=np.int64)
    predicted[:7222] = 0
    predicted[10000:17251] = 0
    table = _table_for(units, predicted)
    from graphstress.fairness import GroupSpec
    gap = head_tail_gap(table, labels, GroupSpec(units[:10000], units[10000:]))
    assert gap == pytest.approx(-0.29, abs=1e-9)
    assert gap == pytest.approx(-0.28, abs=0.015)


def test_gap_antisymmetry():
    rng = np.random.default_rng(3)
    units = np.arange(50)
    labels = rng.integers(0, 2, size=50).astype(np.int64)
    predicted = rng.integers(0, 2, size=50).astype(np.int64)
    table = _table_for(units, predicted)
    from graphstress.fairness import GroupSpec
    groups = GroupSpec(units[:10], units[40:])
    assert head_tail_gap(table, labels, groups) == pytest.approx(
        -head_tail_gap(table, labels, GroupSpec(units[40:], units[:10])))


# ---------------------------------------------------------------------------
# demographic gaps
# ---------------------------------------------------------------------------

def test_gaps_trivial_perfect_parity():
    predicted = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.1, 0.9, 0.1])
    labels = np.array([1, 0, 1, 0])
    sensitive = np.array([0, 0, 1, 1])
    gaps = demographic_gaps(predicted, scores, labels, sensitive)
    assert gaps.d_sp == 0.0 and gaps.d_eo == 0.0 and gaps.d_util == 0.0


def test_gaps_known_values():
    # s=0: rate 1.0, TPR 1.0; s=1: rate 0.25, TPR 0.5
    predicted = np.array([1, 1, 1, 1, 1, 0, 0, 0])
    labels = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    sensitive = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    scores = predicted.astype(np.float64)
    gaps = demographic_gaps(predicted, scores, labels, sensitive)
    assert gaps.d_sp == pytest.approx(0.75)
    assert gaps.d_eo == pytest.approx(0.5)
    auc0 = auc_pairwise_oracle(scores[:4].tolist(), labels[:4].tolist())
    auc1 = auc_pairwise_oracle(scores[4:].tolist(), labels[4:].tolist())
    assert gaps.d_util == pytest.approx(abs(auc0 - auc1))


def test_gaps_eo_undefined_without_positives():
    predicted = np.array([1, 0, 1, 0])
    labels = np.array([1, 0, 0, 0])  # s=1 group has no positive unit
    sensitive = np.array([0, 0, 1, 1])
    gaps = demographic_gaps(predicted, predicted.astype(float), labels, sensitive)
    assert gaps.d_eo is None
    assert gaps.d_sp is not None


def test_gaps_util_undefined_for_one_class_group():
    predicted = np.array([1, 0, 1, 1])
    labels = np.array([1, 0, 1, 1])  # s=1 group is all-positive
    sensitive = np.array([0, 0, 1, 1])
    gaps = demographic_gaps(predicted, predicted.astype(float), labels, sensitive)
    assert gaps.d_util is None
    assert gaps.d_eo is not None


def test_gaps_require_both_groups():
    with pytest.raises(DegenerateGroup):
        demographic_gaps(np.array([1, 0]), np.array([0.5, 0.5]),
                         np.array([1, 0]), np.array([0, 0]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(10, 80), st.integers(0, 40), st.floats(0.05, 0.5))
@settings(max_examples=300, deadline=None)
def test_head_tail_group_sizes_property(n, seed, q):
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 15, size=n)
    nodes = np.arange(n)
    groups = head_tail_groups(nodes, degrees, q=q)
    k = int(q * n)
    assert len(groups.first) == k and len(groups.second) == k
    if k:
        assert degrees[groups.first].min() >= degrees[groups.second].max()
    assert set(groups.first.tolist()).isdisjoint(groups.second.tolist())


@given(st.integers(2, 60), st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_demographic_gap_ranges_property(n, seed):
    rng = np.random.default_rng(seed)
    predicted = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    sensitive = rng.integers(0, 2, size=n)
    if sensitive.min() == sensitive.max():
        sensitive[0] = 1 - sensitive[0]
    gaps = demographic_gaps(predicted, rng.random(n), labels, sensitive)
    assert 0.0 <= gaps.d_sp <= 1.0
    for value in (gaps.d_eo, gaps.d_util):
        if value is not None:
            assert 0.0 <= value <= 1.0
