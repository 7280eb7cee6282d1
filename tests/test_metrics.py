"""Classification, ranking, and AUC metrics against brute-force references."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress import metrics
from graphstress.errors import (
    BadProbability,
    EmptyEvalSet,
    EmptyQuerySet,
    LengthMismatch,
    MissingPrediction,
    OneClassOnly,
)
from graphstress.metrics import (
    _RANK_ROWS,
    PredictionTable,
    accuracy,
    balanced_accuracy,
    hits_at_k,
    macro_f1,
    mrr,
    per_class_recall,
    ranks_from_ranking,
    read_prediction_file,
    read_ranking_file,
    roc_auc,
    write_prediction_file,
    write_ranking_file,
)
from oracles import accuracy_oracle, auc_pairwise_oracle, macro_f1_oracle, rank_oracle, recall_oracle


def _table(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(rows))
    return PredictionTable(np.asarray(ids, dtype=np.int64), rows)


def _random_instance(rng):
    n = int(rng.integers(3, 40))
    num_classes = int(rng.integers(2, 6))
    labels = rng.integers(0, num_classes, size=n)
    rows = rng.random((n, num_classes))
    rows /= rows.sum(axis=1, keepdims=True)
    return _table(rows), labels.astype(np.int64)


# ---------------------------------------------------------------------------
# prediction table
# ---------------------------------------------------------------------------

def test_table_validation():
    with pytest.raises(LengthMismatch):
        _table([[0.5, 0.5], [0.5, 0.5]], ids=[3, 3])
    with pytest.raises(BadProbability):
        _table([[0.6, 0.6]])
    with pytest.raises(BadProbability):
        _table([[np.nan, 1.0]])
    with pytest.raises(LengthMismatch):
        PredictionTable(np.array([0, 1]), np.array([[0.5, 0.5]]))


def test_rows_for_request_order():
    t = _table([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], ids=[10, 5, 7])
    rows = t.rows_for(np.array([7, 10]))
    assert rows.tolist() == [[0.5, 0.5], [1.0, 0.0]]
    with pytest.raises(MissingPrediction):
        t.rows_for(np.array([10, 99]))
    with pytest.raises(MissingPrediction):
        t.rows_for(np.array([0]))


def test_argmax_tie_goes_to_lowest_class():
    t = _table([[0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3]])
    assert t.predicted_classes(np.array([0, 1])).tolist() == [0, 0]


def test_scores_for_variants():
    binary = _table([[0.3, 0.7], [0.9, 0.1]])
    assert binary.scores_for(np.array([0, 1])).tolist() == [0.7, 0.1]
    scalar = _table([[0.2], [0.8]])
    assert scalar.scores_for(np.array([0, 1])).tolist() == [0.2, 0.8]
    with pytest.raises(LengthMismatch):
        _table([[0.2, 0.3, 0.5]]).scores_for(np.array([0]))


def test_threshold_predictions():
    scalar = _table([[0.2], [0.5], [0.8]])
    assert scalar.predicted_classes(np.arange(3)).tolist() == [0, 1, 1]
    assert scalar.predicted_classes(np.arange(3), threshold=0.7).tolist() == [0, 0, 1]
    binary = _table([[0.4, 0.6], [0.9, 0.1]])
    assert binary.predicted_classes(np.arange(2), threshold=0.05).tolist() == [1, 1]


# ---------------------------------------------------------------------------
# confusion-matrix metrics vs oracles
# ---------------------------------------------------------------------------

def test_accuracy_small_fixture():
    t = _table([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
    labels = np.array([0, 1, 1, 1])
    assert accuracy(t, labels, np.arange(4)) == 0.75


def test_metrics_match_oracles_500_random():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        t, labels = _random_instance(rng)
        eval_set = np.arange(len(labels))
        predicted = t.predicted_classes(eval_set)
        num_classes = t.num_classes
        assert accuracy(t, labels, eval_set) == pytest.approx(
            accuracy_oracle(labels, predicted), abs=1e-12)
        got = per_class_recall(t, labels, eval_set, num_classes)
        want = recall_oracle(labels, predicted, num_classes)
        assert np.allclose(got, want, atol=1e-12, equal_nan=True)
        assert balanced_accuracy(t, labels, eval_set, num_classes) == pytest.approx(
            float(np.nanmean(want)), abs=1e-12)
        assert macro_f1(t, labels, eval_set, num_classes) == pytest.approx(
            macro_f1_oracle(labels, predicted, num_classes), abs=1e-12)


def test_recall_nan_for_missing_class():
    t = _table([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1]])
    labels = np.array([0, 1])
    recall = per_class_recall(t, labels, np.arange(2), num_classes=3)
    assert recall[0] == 1.0 and recall[1] == 1.0 and np.isnan(recall[2])
    # balanced accuracy averages only the defined entries
    assert balanced_accuracy(t, labels, np.arange(2), num_classes=3) == 1.0


def test_macro_f1_counts_unpredicted_supported_class():
    # class 1 has support but is never predicted: F1 contribution is 0
    t = _table([[0.9, 0.1], [0.8, 0.2]])
    labels = np.array([0, 1])
    assert macro_f1(t, labels, np.arange(2)) == pytest.approx((2 * 1 / 3 + 0.0) / 2)


def test_empty_eval_set():
    t = _table([[0.5, 0.5]])
    with pytest.raises(EmptyEvalSet):
        accuracy(t, np.array([0]), np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# ROC-AUC
# ---------------------------------------------------------------------------

def test_auc_trivial_cases():
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
    assert roc_auc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5


def test_auc_one_class_raises():
    with pytest.raises(OneClassOnly):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(OneClassOnly):
        roc_auc(np.array([0.1, 0.2, 0.3])[[0, 1]], np.array([1, 1, 0])[[0, 1]])


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force heavy ties on most trials
        levels = int(rng.integers(2, 8)) if trial % 2 else 10 ** 6
        scores = np.floor(rng.random(n) * levels) / levels
        assert roc_auc(scores, labels) == pytest.approx(
            auc_pairwise_oracle(scores.tolist(), labels.tolist()), abs=1e-12)


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(scores * 100 - 7, labels) == pytest.approx(base, abs=1e-12)


def test_auc_negation_antisymmetry():
    rng = np.random.default_rng(6)
    scores = np.floor(rng.random(40) * 5) / 5  # ties included
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------

def test_rank_of_true_trivials():
    # the tie rule, better + equal-others/2 + 1: the best of three, the worst, one of five tied
    three = [0.9, 0.1, 0.5]
    ranks = ranks_from_ranking(np.repeat([0, 1, 2], [3, 3, 5]), np.array([0, 1, 2, 0, 1, 2, *range(5)]),
                               np.array(three + three + [0.3] * 5), np.array([0, 1, 2]))
    assert ranks.tolist() == [1.0, 3.0, 3.0]


def test_mrr_and_hits():
    ranks = np.array([1.0, 2.0, 4.0])
    assert mrr(ranks) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert hits_at_k(ranks, 1) == pytest.approx(1 / 3)
    assert hits_at_k(ranks, 2) == pytest.approx(2 / 3)
    assert hits_at_k(ranks, 4) == 1.0  # boundary rank counts as a hit


def test_ranks_from_ranking_full_sort():
    queries = np.array([0, 0, 0, 1, 1])
    cands = np.array([5, 6, 7, 5, 6])
    scores = np.array([0.9, 0.9, 0.1, 0.2, 0.8])
    ranks = ranks_from_ranking(queries, cands, scores, np.array([6, 5]))
    assert ranks.tolist() == [1.5, 2.0]
    with pytest.raises(MissingPrediction, match="query 1: true candidate not scored"):
        ranks_from_ranking(queries, cands, scores, np.array([6, 99]))
    with pytest.raises(MissingPrediction, match="no true candidate recorded for query 1"):
        ranks_from_ranking(queries, cands, scores, np.array([6]))
    with pytest.raises(EmptyQuerySet):
        ranks_from_ranking(np.array([]), np.array([]), np.array([]), np.array([], dtype=np.int64))


def test_ranks_from_ranking_requires_every_truth_query():
    queries = np.array([0, 0, 1, 1])
    cands = np.array([6, 5, 5, 7])
    scores = np.array([0.9, 0.1, 0.3, 0.2])
    with pytest.raises(MissingPrediction, match="query 2: no rows"):
        ranks_from_ranking(queries, cands, scores, np.array([6, 5, 7]))


def test_ranks_from_ranking_of_zero_queries():
    none = np.array([], dtype=np.int64)
    with pytest.raises(EmptyQuerySet):
        ranks_from_ranking(none, none, np.array([]), none)
    # every id of a non-empty table lies outside an empty truth: the least is named
    for ids, least in (([0, 0, 1], 0), ([3, -2, 5], -2)):
        with pytest.raises(MissingPrediction) as e:
            ranks_from_ranking(np.array(ids), np.array([4, 5, 4]), np.array([0.1, 0.2, 0.3]), none)
        assert str(e.value) == f"no true candidate recorded for query {least}"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ranks_from_ranking_matches_oracle_per_query(seed):
    rng = np.random.default_rng(seed)
    truth = np.empty(int(rng.integers(1, 10)), dtype=np.int64)
    rows = []
    for q in range(len(truth)):
        n = int(rng.integers(1, 12))
        cands = rng.choice(40, size=n, replace=False)
        truth[q] = cands[rng.integers(0, n)]
        # one decimal forces ties; the true candidate may appear twice
        rows += [(q, int(c), round(float(rng.random()), 1)) for c in cands]
        if rng.random() < 0.5:
            rows.append((q, int(truth[q]), round(float(rng.random()), 1)))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    queries, cands, scores = (np.array(col) for col in zip(*rows))
    expected = []
    for q in range(len(truth)):
        q_rows = [(c, sc) for qq, c, sc in rows if qq == q]
        first = [c for c, _ in q_rows].index(truth[q])  # first row in table order
        expected.append(rank_oracle([sc for _, sc in q_rows], first))
    for block in (1, 2, 3, _RANK_ROWS):  # small blocks split queries and repeated true rows
        with patch.object(metrics, "_RANK_ROWS", block):
            got = ranks_from_ranking(queries, cands, scores.astype(np.float64), truth)
        assert got.dtype == np.float64
        assert got.tolist() == expected, block


@pytest.mark.parametrize("block", [1, 2, 3])
def test_ranks_from_ranking_takes_the_first_true_row_across_a_block_boundary(block):
    # query 1's true candidate 7 is the last row of block 0 (score 0.9) and the first of block 1
    # (score 0.2); query 0's true row comes after query 1's in the table
    lead = [(0, 5, 0.3)] * (block - 1)
    rows = lead + [(1, 7, 0.9), (1, 7, 0.2), (1, 6, 0.5), (0, 4, 0.6), (1, 8, 0.95)]
    queries, cands, scores = (np.array(col) for col in zip(*rows))
    with patch.object(metrics, "_RANK_ROWS", block):
        got = ranks_from_ranking(queries, cands, scores.astype(np.float64), np.array([4, 7]))
    q0 = [sc for q, _, sc in rows if q == 0]
    assert got.tolist() == [rank_oracle(q0, len(q0) - 1), rank_oracle([0.9, 0.2, 0.5, 0.95], 0)]
    assert got[1] == 2.0  # the later row of candidate 7 would rank 4th


GOOD_TRUTH = [6, 5, 7, 9]


@pytest.mark.parametrize("change, message", [
    ({"ids": {0: -1}}, "no true candidate recorded for query -1"),
    ({"truth": [6, 5, 7]}, "no true candidate recorded for query 3"),
    ({"truth": [6, 5, 99, 9]}, "query 2: true candidate not scored"),
    ({"truth": [6, 5, 99]}, "query 2: true candidate not scored"),
    ({"truth": [6, 5, 7, 9, 1]}, "query 4: no rows in the ranking table"),
    ({"truth": [6, 5, 7, 99, 1]}, "query 3: true candidate not scored"),
    ({"ids": {1: 7, 3: 5}}, "no true candidate recorded for query 5"),
])
def test_ranks_from_ranking_errors_name_the_same_query_for_every_block_size(change, message):
    # each query's rows straddle the blocks, and the true rows of queries 2 and 3 come late;
    # "ids" renames table ids, "truth" replaces the true candidates
    queries = np.array([3, 0, 2, 1, 0, 2, 3, 1, 2, 3, 0, 1])
    cands = np.array([1, 6, 2, 5, 4, 3, 2, 8, 7, 9, 1, 2])
    scores = np.linspace(0.1, 0.9, len(queries))
    renamed = np.array([change.get("ids", {}).get(q, q) for q in queries.tolist()])
    truth = np.array(change.get("truth", GOOD_TRUTH))
    for block in (1, 2, 3, 5, _RANK_ROWS):
        with patch.object(metrics, "_RANK_ROWS", block), pytest.raises(MissingPrediction) as e:
            ranks_from_ranking(renamed, cands, scores, truth)
        assert str(e.value) == message, block
    assert len(ranks_from_ranking(queries, cands, scores, np.array(GOOD_TRUTH))) == 4


def test_ranks_from_ranking_of_2_18_rows_peaks_at_two_mib_above_the_table():
    # 1024 queries of 256 candidates; only one block of rows has temporaries at a time
    rng = np.random.default_rng(5)
    queries = np.repeat(np.arange(1024), 256)
    cands = np.tile(np.arange(256), 1024)
    scores = rng.random(len(queries))
    truth = rng.integers(0, 256, 1024)
    # a process's first call of some numpy functions imports modules (~1 MiB of objects)
    ranks_from_ranking(queries[:512], cands[:512], scores[:512], truth[:2])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ranks = ranks_from_ranking(queries, cands, scores, truth)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ranks) == 1024
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_prediction_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.random((20, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    t = _table(rows, ids=rng.permutation(100)[:20])
    p = tmp_path / "a.pred"
    write_prediction_file(p, t)
    assert p.read_text().splitlines()[0] == "#num_classes\t3"
    back = read_prediction_file(p)
    assert np.array_equal(back.unit_ids, t.unit_ids)
    assert back.rows.tobytes() == t.rows.tobytes()  # repr round-trips float64 exactly


def test_prediction_file_errors(tmp_path):
    p = tmp_path / "a.pred"
    p.write_text("bad header\n")
    with pytest.raises(LengthMismatch):
        read_prediction_file(p)
    p.write_text("#num_classes\t2\n0\t0.5\n")
    with pytest.raises(LengthMismatch):
        read_prediction_file(p)
    p.write_text("#num_classes\t2\n")
    with pytest.raises(EmptyEvalSet):
        read_prediction_file(p)


def _traced_1e5_row_read(tmp_path):
    """The table read from a 10^5-row, 2-class .pred file, and the read's traced peak."""
    n = 100_000
    p = tmp_path / "big.pred"
    with open(p, "w") as f:
        f.write("#num_classes\t2\n")
        f.writelines(f"{i}\t0.25\t0.75\n" for i in range(n))
    read_prediction_file(p)  # a process's first parse imports modules
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = read_prediction_file(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.rows.shape == (n, 2) and table.unit_ids[-1] == n - 1
    return table, peak


def test_a_1e5_row_prediction_file_peaks_under_five_mib(tmp_path):
    # the table keeps the parsed record array, 24 B a row for 2 classes (2.29 MiB), as its
    # ids and rows, and its unit order (0.76 MiB). A copy of the ids (+0.76 MiB) or a stacked
    # copy of the probabilities (+1.53 MiB) passes 5 MiB
    assert _traced_1e5_row_read(tmp_path)[1] <= 5 * 2**20


def test_a_1e5_row_prediction_file_frees_its_row_sums_before_ordering(tmp_path):
    # the read peaks at +3.91 MiB (numpy 2.4.6) while the unit order is built. The row-sum
    # check works in its one row-sized array and frees it first; with two more row-sized
    # temporaries (+4.58 MiB), or its array alive through the ordering (+4.68), it passes 4 MiB
    assert _traced_1e5_row_read(tmp_path)[1] <= 4 * 2**20


def test_ranking_file_round_trip(tmp_path):
    q = np.array([0, 0, 1], dtype=np.int64)
    c = np.array([4, 5, 4], dtype=np.int64)
    s = np.array([0.25, -1.5, 3.0])
    p = tmp_path / "r.tsv"
    write_ranking_file(p, q, c, s)
    q2, c2, s2 = read_ranking_file(p)
    assert np.array_equal(q, q2) and np.array_equal(c, c2)
    assert s2.tobytes() == s.tobytes()


@pytest.mark.parametrize("bad, row", [(0, 1), (2, 3), (1, 2)],
                         ids=["nan-true-candidate", "nan-other-candidate", "inf"])
def test_ranking_file_rejects_non_finite_scores(tmp_path, bad, row):
    # candidate 4 stands for the query's true candidate: a NaN there used to
    # rank 0.5, and a NaN elsewhere sorted below every score
    s = np.array([0.25, 0.5, 0.75])
    s[bad] = np.inf if bad == 1 else np.nan
    p = tmp_path / "r.ranking"
    write_ranking_file(p, np.zeros(3, dtype=np.int64), np.array([4, 5, 6]), s)
    with pytest.raises(BadProbability, match=f"r.ranking: data row {row} "):
        read_ranking_file(p)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_accuracy_bounds_property(pairs):
    true = np.array([t for t, _ in pairs], dtype=np.int64)
    predicted = np.array([p for _, p in pairs], dtype=np.int64)
    rows = np.full((len(pairs), 4), 0.01)
    rows[np.arange(len(pairs)), predicted] = 0.97
    t = _table(rows)
    acc = accuracy(t, true, np.arange(len(pairs)))
    assert 0.0 <= acc <= 1.0
    assert acc == accuracy_oracle(true, predicted)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=40),
       st.data())
@settings(max_examples=200, deadline=None)
def test_auc_property(scores, data):
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    got = roc_auc(np.array(scores), np.array(labels))
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-9)
