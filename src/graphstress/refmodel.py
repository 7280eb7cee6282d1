"""Built-in deterministic scorer: smoothed k-hop label propagation.

This is plumbing, not science: it gives the pipeline a dependency-free
"model" whose predictions react to edge deletion and masking, so every axis
can be exercised end to end without an external ML system. Each node's class
probabilities are proportional to alpha plus the count of each class among
train-labeled nodes within `hops` hops (the node itself excluded, which
prevents trivially perfect train accuracy).

`propagate_predict` scores the rows a caller reads, all nodes by default.
It builds the hop matrix ``(A + I)^hops`` one fixed-size chunk of those rows
at a time, one sparse product per hop, and never holds the matrix for the
whole graph; the counts are exact small integers, so neither the row set nor
the chunking changes a bit.
`predict_node` scores one node from its `Graph.ball` alone, as the interpret
axis does for each masked condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NoTrainLabels
from .graph_store import Graph
from .metrics import PredictionTable


@dataclass(frozen=True)
class PropagationConfig:
    hops: int = 2
    alpha: float = 1.0  # add-alpha smoothing

    def __post_init__(self):
        if self.hops < 1:
            raise ConfigError("propagation needs hops >= 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError("smoothing alpha must be finite and positive")


_CHUNK_ROWS = 8192  # rows of the hop matrix held at once


def _train_mask(train_labels: np.ndarray, num_classes: int) -> np.ndarray:
    train_labels = np.asarray(train_labels, dtype=np.int64)
    mask = (train_labels >= 0) & (train_labels < num_classes)
    if not mask.any():
        raise NoTrainLabels("propagation needs at least one labeled train node")
    return mask


def propagate_predict(graph: Graph, train_labels: np.ndarray, num_classes: int,
                      config: PropagationConfig = PropagationConfig(),
                      rows: np.ndarray | None = None) -> PredictionTable:
    """Probability rows of the distinct node ids ``rows`` (every node when None).

    ``train_labels`` is per-node; any value outside [0, num_classes) means
    the node is not a labeled training node. Each chunk of rows is expanded
    by sparse products with ``A + I`` to its ``hops``-hop reach; every such
    row holds its own node, so subtracting the node's own one-hot leaves the
    count of the others.
    """
    mask = _train_mask(train_labels, num_classes)
    n = graph.num_nodes
    rows = np.arange(n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    step = (sp.csr_matrix((np.ones(graph.num_arcs, dtype=bool), graph.neighbors, graph.offsets),
                          shape=(n, n))
            + sp.identity(n, dtype=bool, format="csr"))

    onehot = np.zeros((n, num_classes), dtype=np.float64)
    labeled = np.flatnonzero(mask)
    onehot[labeled, np.asarray(train_labels)[labeled]] = 1.0
    counts = np.empty((len(rows), num_classes), dtype=np.float64)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[lo:lo + _CHUNK_ROWS]
        reach = step[chunk]
        for _ in range(config.hops - 1):
            reach = reach @ step
        counts[lo:lo + len(chunk)] = reach @ onehot - onehot[chunk]
    probs = counts + config.alpha
    probs /= probs.sum(axis=1, keepdims=True)
    return PredictionTable(rows, probs)


def predict_node(graph: Graph, train_labels: np.ndarray, num_classes: int, node: int,
                 config: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """One node's propagate_predict row, bit for bit, at the cost of its ball alone.

    Every train-labeled node of ``graph.ball(node, config.hops)`` but ``node``
    adds one count to its class.
    """
    mask = _train_mask(train_labels, num_classes)
    ball = graph.ball(node, config.hops)
    ball = ball[(ball != node) & mask[ball]]
    probs = np.bincount(np.asarray(train_labels)[ball], minlength=num_classes) + config.alpha
    return probs / probs.sum()


def predicted_class_prob(graph: Graph, train_labels: np.ndarray, num_classes: int,
                         node: int, clean_class: int,
                         config: PropagationConfig = PropagationConfig()) -> float:
    """Probability the masked-input scorer assigns to the clean predicted class."""
    return float(predict_node(graph, train_labels, num_classes, node, config)[clean_class])
