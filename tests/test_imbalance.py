"""Step-imbalance downsampling plan and grouped recall."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstress.determinism import derive_key
from graphstress.errors import EmptyEvalSet, TooFewClasses
from graphstress.imbalance import (
    DEFAULT_RHOS,
    build_spec,
    major_minor_recall,
    partition_classes,
    step_downsample,
)
from graphstress.metrics import PredictionTable
from oracles import step_downsample_oracle, train_units_by_class_oracle

KEY = derive_key("imbalance", "unit", "downsample", 10, 0)


# ---------------------------------------------------------------------------
# class partition
# ---------------------------------------------------------------------------

def test_partition_examples():
    major, minor = partition_classes(np.array([100, 30, 60, 10]))
    assert minor == (1, 3) and major == (0, 2)
    # odd class count: floor(5/2) = 2 minor
    major, minor = partition_classes(np.array([50, 40, 30, 20, 10]))
    assert minor == (3, 4) and major == (0, 1, 2)


def test_partition_tie_breaks_toward_low_id_minor():
    major, minor = partition_classes(np.array([20, 20, 20, 20]))
    assert minor == (0, 1) and major == (2, 3)


def test_partition_requires_two_populated():
    with pytest.raises(TooFewClasses):
        partition_classes(np.array([10, 0, 0]))
    with pytest.raises(TooFewClasses):
        partition_classes(np.array([0, 0]))


def test_default_rhos():
    assert DEFAULT_RHOS == (5.0, 10.0, 20.0)


# ---------------------------------------------------------------------------
# downsampling plan
# ---------------------------------------------------------------------------

def _minor_target(spec):
    # the protocol's kept count of a minor class: max(1, floor(n_major / rho))
    return max(1, int(spec.n_major // spec.rho))


def test_build_spec_targets():
    counts = np.array([100, 30, 60, 10])
    spec = build_spec(counts, rho=5.0)
    assert spec.n_major == 100
    assert spec.targets == {0: 100, 2: 60, 1: 20, 3: 10}  # class 3 already below target


def test_build_spec_floor_and_minimum():
    spec = build_spec(np.array([7, 3]), rho=20.0)
    assert spec.targets[1] == 1  # floor(7/20)=0 clamps to 1
    spec = build_spec(np.array([45, 45, 7, 3]), rho=10.0)
    assert spec.targets[2] == 4  # floor(45/10)


def _labeled(units):
    """(labels, train) of a class -> units dict: train in the dict's order, and every id
    outside it labeled -1."""
    train = np.concatenate(list(units.values()))
    labels = np.full(train.max() + 1, -1, dtype=np.int64)
    for cls, ids in units.items():
        labels[ids] = cls
    return labels, train


def test_downsample_recount_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=400).astype(np.int64)
    train_set = np.arange(0, 400, 2, dtype=np.int64)
    counts = np.bincount(labels[train_set], minlength=4)
    spec = build_spec(counts, rho=10.0)
    kept = step_downsample(labels, train_set, spec, KEY)
    kept_counts = np.bincount(labels[kept], minlength=4)
    for cls in spec.major_classes:
        assert kept_counts[cls] == counts[cls]  # majors untouched
    for cls in spec.minor_classes:
        assert kept_counts[cls] == min(counts[cls], _minor_target(spec))
    assert np.all(np.isin(kept, train_set))  # never invents units
    assert np.array_equal(kept, np.sort(kept))


def test_downsample_order_independence():
    units = {0: np.array([5, 1, 9, 3]), 1: np.array([2, 8, 4, 6, 0, 7])}
    spec = build_spec(np.array([4, 6]), rho=3.0)
    a = step_downsample(*_labeled(units), spec, KEY)
    shuffled = {1: units[1][::-1].copy(), 0: units[0][[2, 0, 3, 1]]}
    b = step_downsample(*_labeled(shuffled), spec, KEY)
    assert np.array_equal(a, b)


def test_downsample_deterministic_and_key_sensitive():
    units = {0: np.arange(50), 1: np.arange(50, 120)}
    spec = build_spec(np.array([50, 70]), rho=5.0)
    a = step_downsample(*_labeled(units), spec, KEY)
    assert np.array_equal(a, step_downsample(*_labeled(units), spec, KEY))
    other = step_downsample(*_labeled(units), spec,
                            derive_key("imbalance", "unit", "downsample", 10, 1))
    assert not np.array_equal(a, other)


def test_downsample_selection_matches_priority_oracle():
    units = {0: np.arange(30), 1: np.arange(30, 60)}
    spec = build_spec(np.array([30, 30]), rho=6.0)
    kept = step_downsample(*_labeled(units), spec, KEY)
    from graphstress.determinism import uniform
    minor = spec.minor_classes[0]
    ids = units[minor]
    pri = uniform(KEY, ids)
    expected = np.sort(ids[np.argsort(pri, kind="stable")[:spec.targets[minor]]])
    assert np.array_equal(kept[np.isin(kept, ids)], expected)


def test_val_and_test_untouched_by_protocol():
    # the plan only ever references train unit ids
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
    train_set = np.array([0, 1, 4, 5])
    spec = build_spec(np.bincount(labels[train_set]), rho=2.0)
    kept = step_downsample(labels, train_set, spec, KEY)
    assert set(kept.tolist()) <= set(train_set.tolist())


# ---------------------------------------------------------------------------
# grouped recall
# ---------------------------------------------------------------------------

def _perfect_on(classes, labels, eval_set, num_classes, hit_mask):
    rows = np.full((len(eval_set), num_classes), 0.0)
    for i, unit in enumerate(eval_set):
        true = labels[unit]
        predicted = true if hit_mask[i] else (true + 1) % num_classes
        rows[i, predicted] = 1.0
    return PredictionTable(eval_set, rows)


def test_major_minor_recall_fixture():
    # major classes {0}: recall 0.75; minor {1}: recall 0.0
    labels = np.array([0, 0, 0, 0, 1, 1], dtype=np.int64)
    eval_set = np.arange(6)
    spec = build_spec(np.array([10, 2]), rho=5.0)
    hits = [True, True, True, False, False, False]
    table = _perfect_on({0}, labels, eval_set, 2, hits)
    major, minor = major_minor_recall(table, labels, spec, eval_set)
    assert major == pytest.approx(0.75)
    assert minor == 0.0


def test_major_minor_recall_skips_unsupported():
    labels = np.array([0, 0, 2, 2], dtype=np.int64)  # class 1 and 3 absent from eval
    eval_set = np.arange(4)
    spec = build_spec(np.array([10, 2, 8, 1]), rho=5.0)
    assert spec.minor_classes == (1, 3)
    table = _perfect_on({0, 2}, labels, eval_set, 4, [True] * 4)
    major, minor = major_minor_recall(table, labels, spec, eval_set)
    assert major == 1.0
    assert np.isnan(minor)  # no minor class has eval support


def test_major_minor_recall_empty_eval():
    spec = build_spec(np.array([5, 3]), rho=5.0)
    table = PredictionTable(np.array([0]), np.array([[0.5, 0.5]]))
    with pytest.raises(EmptyEvalSet):
        major_minor_recall(table, np.array([0]), spec, np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

counts_strategy = st.lists(st.integers(0, 200), min_size=2, max_size=10).filter(
    lambda c: sum(1 for x in c if x > 0) >= 2)


@given(counts_strategy)
@settings(max_examples=1000, deadline=None)
def test_partition_property(count_list):
    counts = np.array(count_list, dtype=np.int64)
    major, minor = partition_classes(counts)
    c = len(counts)
    assert len(minor) == c // 2 and len(major) == c - c // 2
    assert sorted(major + minor) == list(range(c))
    # no minor class outranks any major class in the (count, id) order
    if minor and major:
        worst_minor = max((counts[c], c) for c in minor)
        best_major = min((counts[c], c) for c in major)
        assert worst_minor < best_major


@given(counts_strategy, st.sampled_from(DEFAULT_RHOS), st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_downsample_property(count_list, rho, seed):
    counts = np.array(count_list, dtype=np.int64)
    spec = build_spec(counts, rho)
    # lay units out consecutively per class
    units, start = {}, 0
    for cls, c in enumerate(counts):
        if c:
            units[cls] = np.arange(start, start + c, dtype=np.int64)
            start += c
    key = derive_key("imbalance", "prop", "downsample", int(rho), seed)
    kept = step_downsample(*_labeled(units), spec, key)
    for cls, ids in units.items():
        got = int(np.isin(kept, ids).sum())
        if cls in spec.minor_classes:
            assert got == min(len(ids), _minor_target(spec))
            assert got >= 1
        else:
            assert got == len(ids)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_downsample_equals_the_per_class_oracle(data):
    # random labels, label num_classes marking an unlabeled unit; a train set of distinct
    # units in any order and either id width; any rho and key
    num_classes = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(2, 150))
    labels = np.array(data.draw(st.lists(st.integers(0, num_classes), min_size=n, max_size=n)))
    order = data.draw(st.permutations(range(n)))
    train = np.array(order[:data.draw(st.integers(0, n))],
                     dtype=data.draw(st.sampled_from([np.int32, np.int64])))
    counts = np.bincount(labels[train], minlength=num_classes + 1)[:-1]
    assume(np.count_nonzero(counts) >= 2)
    rho = data.draw(st.sampled_from([1.5, 2.0, 5.0, 10.0, 20.0, 100.0]))
    spec = build_spec(counts, rho)
    key = derive_key("imbalance", "prop", "downsample", int(rho), data.draw(st.integers(0, 999)))
    expected = step_downsample_oracle(train_units_by_class_oracle(labels, train, num_classes),
                                      spec, key)
    kept = step_downsample(labels, train, spec, key)
    assert kept.dtype == np.int64
    assert np.array_equal(kept, expected)
