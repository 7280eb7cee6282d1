"""Metric kernels shared by every stress axis.

All kernels are pure functions over numpy arrays. Classification metrics take
a PredictionTable (per-unit class probabilities produced by an external model
or the built-in reference model), integer labels and an explicit evaluation
unit set; ranking metrics take precomputed ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadProbability,
    EmptyEvalSet,
    EmptyQuerySet,
    LengthMismatch,
    MissingPrediction,
    OneClassOnly,
)
from .graph_store import read_header, read_table, write_table


def unit_order(unit_ids: np.ndarray, source: str) -> np.ndarray:
    """``np.argsort(unit_ids, kind="stable")``; a repeated id is a LengthMismatch naming source."""
    order = np.argsort(unit_ids, kind="stable")
    sorted_ids = unit_ids[order]
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if len(repeated):
        raise LengthMismatch(f"{source}: unit id {repeated[0]} appears more than once")
    return order


def lookup_rows(unit_ids: np.ndarray, order: np.ndarray, units, missing) -> np.ndarray:
    """Row index of each requested unit id, in request order.

    ``order`` is ``unit_order(unit_ids, ...)``. For the first
    requested id absent from ``unit_ids``, raises ``missing(unit_id)``.
    """
    units = np.asarray(units, dtype=np.int64)
    sorted_ids = unit_ids[order]
    pos = np.searchsorted(sorted_ids, units)
    bad = (pos >= len(sorted_ids)) | (sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] != units)
    if np.any(bad):
        raise missing(int(units[np.flatnonzero(bad)[0]]))
    return order[pos]


@dataclass
class PredictionTable:
    """Per-unit class-probability rows keyed by unit id.

    ``rows`` has one probability vector per entry of ``unit_ids``; binary
    scalar scores are stored as a single column and expanded on demand.
    """

    unit_ids: np.ndarray  # (n,) int64
    rows: np.ndarray      # (n, num_classes) float64, or (n, 1) scalar scores
    source: str = "prediction table"  # the file it was read from, named in errors
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids, dtype=np.int64)
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=np.float64))
        if self.rows.shape[0] != len(self.unit_ids):
            raise LengthMismatch("one probability row per unit id required")
        if not np.all(np.isfinite(self.rows)):
            raise BadProbability("prediction rows must be finite")
        if self.num_classes > 1:  # in place, and freed before the unit order is built
            sums = self.rows.sum(axis=1)
            sums -= 1.0
            if np.any(np.abs(sums, out=sums) > 1e-4):
                raise BadProbability("probability rows must sum to 1 within 1e-4")
            del sums
        self._order = unit_order(self.unit_ids, self.source)

    @property
    def num_classes(self) -> int:
        return self.rows.shape[1]

    def rows_for(self, units: np.ndarray) -> np.ndarray:
        """Probability rows for the requested units, in request order."""
        return self.rows[lookup_rows(self.unit_ids, self._order, units,
                                     lambda u: MissingPrediction(f"no prediction for unit {u}"))]

    def scores_for(self, units: np.ndarray) -> np.ndarray:
        """Scalar score per unit: the single column, or P(class 1) for binary rows."""
        rows = self.rows_for(units)
        if rows.shape[1] == 1:
            return rows[:, 0]
        if rows.shape[1] == 2:
            return rows[:, 1]
        raise LengthMismatch("scalar scores undefined for >2 classes")

    def predicted_classes(self, units: np.ndarray, threshold: float | None = None) -> np.ndarray:
        """Argmax class per unit; ties resolve to the lowest class id.

        With ``threshold`` and single-column scores, predicts 1 iff
        score >= threshold.
        """
        rows = self.rows_for(units)
        if rows.shape[1] == 1:
            t = 0.5 if threshold is None else threshold
            return (rows[:, 0] >= t).astype(np.int64)
        if threshold is not None and rows.shape[1] == 2:
            return (rows[:, 1] >= threshold).astype(np.int64)
        return np.argmax(rows, axis=1).astype(np.int64)


def _check_eval_set(eval_set: np.ndarray) -> np.ndarray:
    eval_set = np.asarray(eval_set, dtype=np.int64)
    if len(eval_set) == 0:
        raise EmptyEvalSet("evaluation unit set is empty")
    return eval_set


def accuracy(preds: PredictionTable, labels: np.ndarray, eval_set: np.ndarray) -> float:
    eval_set = _check_eval_set(eval_set)
    predicted = preds.predicted_classes(eval_set)
    return float(np.mean(predicted == np.asarray(labels)[eval_set]))


def _class_counts(preds: PredictionTable, labels: np.ndarray, eval_set: np.ndarray,
                  num_classes: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class over eval_set: (eval support, predicted count, correct count), as floats."""
    eval_set = _check_eval_set(eval_set)
    true = np.asarray(labels)[eval_set]
    predicted = preds.predicted_classes(eval_set)
    if num_classes is None:
        num_classes = max(preds.num_classes, int(true.max()) + 1)
    return tuple(np.bincount(x, minlength=num_classes).astype(np.float64)
                 for x in (true, predicted, true[predicted == true]))


def per_class_recall(preds: PredictionTable, labels: np.ndarray, eval_set: np.ndarray,
                     num_classes: int | None = None) -> np.ndarray:
    """Recall per class; classes with no eval support come back as NaN."""
    support, _, correct = _class_counts(preds, labels, eval_set, num_classes)
    with np.errstate(invalid="ignore"):
        recall = correct / support
    recall[support == 0] = np.nan
    return recall


def balanced_accuracy(preds: PredictionTable, labels: np.ndarray, eval_set: np.ndarray,
                      num_classes: int | None = None) -> float:
    recall = per_class_recall(preds, labels, eval_set, num_classes)
    return float(np.nanmean(recall))


def macro_f1(preds: PredictionTable, labels: np.ndarray, eval_set: np.ndarray,
             num_classes: int | None = None) -> float:
    """Unweighted mean F1 over classes with eval support.

    A class never predicted has precision treated as 0, hence F1 = 0.
    """
    support, pred_count, tp = _class_counts(preds, labels, eval_set, num_classes)
    f1 = np.zeros(len(support))
    denom = support + pred_count
    nz = denom > 0
    f1[nz] = 2.0 * tp[nz] / denom[nz]
    return float(np.mean(f1[support > 0]))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling: P(s+ > s-) + P(s+ = s-)/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("ROC-AUC needs both label values in the eval set")
    ranks = _midranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores all get the mean of their rank range."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # a tie group fills sorted positions start..end-1
    start = end - counts
    return ((start + end + 1) / 2.0)[inverse]


def mrr(ranks: np.ndarray) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    return float(np.mean(1.0 / ranks))


def hits_at_k(ranks: np.ndarray, k: int) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    return float(np.mean(ranks <= k))


# ---------------------------------------------------------------------------
# prediction / ranking files
# ---------------------------------------------------------------------------

def read_prediction_file(path) -> PredictionTable:
    """Text format: header ``#num_classes<TAB>C`` then ``unit_id<TAB>p0<TAB>p1...``."""
    num_classes = read_header(path, "#num_classes")
    if not num_classes.isdecimal() or int(num_classes) < 1:
        raise LengthMismatch(f"{path}: class count {num_classes!r} is not a positive integer")
    ids, rows = read_table(path, (np.int64, (np.float64, (int(num_classes),))))
    if not len(ids):
        raise EmptyEvalSet(f"{path}: no prediction rows")
    return PredictionTable(ids, rows, source=str(path))


def write_prediction_file(path, table: PredictionTable) -> None:
    write_table(path, (table.unit_ids, *table.rows.T), header=f"#num_classes\t{table.num_classes}")


def read_ranking_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``query_id<TAB>candidate_id<TAB>score``; returns three aligned arrays.

    The ids are int32, or int64 where one does not fit (``read_table`` parses the file
    again). A NaN or infinite score is a BadProbability naming the first such row.
    """
    queries, cands, scores = read_table(path, (np.int32, np.int32, np.float64))
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        i = bad[0]
        raise BadProbability(f"{path}: data row {i + 1} (query {queries[i]}, candidate "
                             f"{cands[i]}) has non-finite score {scores[i]}")
    return queries, cands, scores


def write_ranking_file(path, queries: np.ndarray, cands: np.ndarray, scores: np.ndarray) -> None:
    write_table(path, (queries, cands, np.asarray(scores, dtype=np.float64)))


_RANK_ROWS = 1 << 16  # table rows ranked at once by ranks_from_ranking


def ranks_from_ranking(queries: np.ndarray, cands: np.ndarray, scores: np.ndarray,
                       truth: np.ndarray) -> np.ndarray:
    """Average-tie rank of the true candidate within each query's score list.

    Query q's true candidate is ``truth[q]``. One rank per query, in id order:
    better + equal-others/2 + 1 over its rows, for the score of the first row
    in table order holding the true candidate. MissingPrediction names the
    least table id outside 0..len(truth)-1 or whose true candidate is not
    scored, else the least query with no rows. Works on ``_RANK_ROWS`` rows at a
    time: no temporary spans the table.
    """
    if len(queries) == 0:
        raise EmptyQuerySet("ranking table is empty")
    n, lo, hi = len(truth), int(queries.min()), int(queries.max())
    if not 0 <= lo < n:  # the least id has no true candidate
        raise MissingPrediction(f"no true candidate recorded for query {lo}")
    blocks = [slice(at, at + _RANK_ROWS) for at in range(0, len(queries), _RANK_ROWS)]
    first = np.full(n, len(queries))  # each query's first true row; len(queries) if none
    seen = np.zeros(n, dtype=bool)  # queries with a row in the table
    stray = hi  # the least id >= n, if hi >= n
    for b in blocks:
        q = queries[b]
        inside = q < n
        stray = q.min(where=~inside, initial=stray)
        seen[q[inside]] = True
        hits = np.flatnonzero(inside & (cands[b] == truth.take(q, mode="clip")))
        np.minimum.at(first, q[hits], b.start + hits)
    unscored = np.flatnonzero(seen & (first == len(queries)))
    if len(unscored):  # an in-range id is less than any id >= n
        raise MissingPrediction(f"query {unscored[0]}: true candidate not scored")
    if hi >= n:
        raise MissingPrediction(f"no true candidate recorded for query {stray}")
    if not seen.all():
        raise MissingPrediction(f"query {np.argmin(seen)}: no rows in the ranking table")
    better = equal = 0
    for b in blocks:
        q = queries[b]
        s = scores[first][q]  # each row's true score
        better = better + np.bincount(q[scores[b] > s], minlength=n)
        equal = equal + np.bincount(q[scores[b] == s], minlength=n)
    return better + (equal - 1) / 2.0 + 1.0
