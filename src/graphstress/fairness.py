"""Structural (degree head/tail) and demographic group-disparity metrics.

Group membership depends only on degrees or on the sensitive attribute,
never on model output. Gaps whose defining group is degenerate are reported
as undefined (None), never as zero: a zero would read as perfect fairness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroup, EmptyGroup, OneClassOnly
from .metrics import PredictionTable, accuracy, roc_auc

log = logging.getLogger("graphstress")


@dataclass
class GroupSpec:
    """Two disjoint evaluation groups: the degree head and tail."""

    first: np.ndarray   # head nodes
    second: np.ndarray  # tail nodes


def head_tail_groups(test_nodes: np.ndarray, degrees: np.ndarray, q: float) -> GroupSpec:
    """Top and bottom degree quantiles of the test set; middle stays unassigned.

    Test nodes are sorted ascending by (degree, node id); the last floor(q*n)
    form the head group and the first floor(q*n) the tail group.
    """
    test_nodes = np.asarray(test_nodes, dtype=np.int64)
    if len(test_nodes) == 0:
        raise EmptyGroup("head/tail grouping needs a nonempty test set")
    deg = np.asarray(degrees)[test_nodes]
    order = test_nodes[np.lexsort((test_nodes, deg))]
    k = int(q * len(test_nodes))
    if k == 0:
        log.warning("head/tail groups empty: floor(%g * %d) = 0, gap will be undefined",
                    q, len(test_nodes))
    return GroupSpec(first=order[len(order) - k:], second=order[:k])


def head_tail_gap(predictions: PredictionTable, labels: np.ndarray, groups: GroupSpec) -> float:
    """Signed accuracy gap Acc(head) - Acc(tail) in percentage points."""
    acc_head = accuracy(predictions, labels, groups.first)
    acc_tail = accuracy(predictions, labels, groups.second)
    return (acc_head - acc_tail) * 100.0


@dataclass
class DemographicGaps:
    """Absolute group disparities; None marks a gap whose inputs degenerate."""

    d_sp: float | None
    d_eo: float | None
    d_util: float | None


def demographic_gaps(binary_preds: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                     sensitive: np.ndarray) -> DemographicGaps:
    """Statistical-parity, equal-opportunity and utility disparities.

    d_sp = |P(pred=1 | s=0) - P(pred=1 | s=1)|
    d_eo = |TPR(s=0) - TPR(s=1)|, undefined when a group has no y=1 units
    d_util = |AUC(s=0) - AUC(s=1)|, undefined when a group is one-class
    """
    binary_preds = np.asarray(binary_preds)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    sensitive = np.asarray(sensitive)
    g0, g1 = sensitive == 0, sensitive == 1
    if not g0.any() or not g1.any():
        raise DegenerateGroup("both sensitive groups must be nonempty")

    d_sp = abs(float(binary_preds[g0].mean()) - float(binary_preds[g1].mean()))

    d_eo = None
    pos0, pos1 = g0 & (labels == 1), g1 & (labels == 1)
    if pos0.any() and pos1.any():
        d_eo = abs(float(binary_preds[pos0].mean()) - float(binary_preds[pos1].mean()))

    d_util = None
    try:
        auc0 = roc_auc(scores[g0], labels[g0])
        auc1 = roc_auc(scores[g1], labels[g1])
        d_util = abs(auc0 - auc1)
    except OneClassOnly:
        pass

    return DemographicGaps(d_sp=d_sp, d_eo=d_eo, d_util=d_util)
