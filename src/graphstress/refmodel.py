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
whole graph; its last hop reads only labeled columns, and one reach scores a
whole stack of train labelings, since propagation is linear in the labels.
The counts are exact small integers, so neither the rows, the chunking nor
the stack changes a bit.
`predict_node` scores one node from its `Graph.ball` alone, as the interpret
axis does for each masked condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    if not mask.any(axis=-1).all():
        raise NoTrainLabels("propagation needs at least one labeled train node")
    return mask


def propagate_predict(graph: Graph, train_labels: np.ndarray, num_classes: int,
                      config: PropagationConfig = PropagationConfig(),
                      rows: np.ndarray | None = None) -> list[PredictionTable]:
    """One table per train labeling: the probability rows of the distinct node ids ``rows``.

    ``train_labels`` stacks per-node labelings (a 1-D array is a stack of one);
    a value outside [0, num_classes) marks no labeled training node. ``rows`` is
    every node when None. Each chunk of rows is expanded by sparse products with
    ``A + I`` to its ``hops``-hop reach, the last product into the labeled
    columns alone, and all labelings share that reach. Every such row holds its
    own node, so subtracting the node's own one-hot leaves the count of the others.
    """
    import scipy.sparse as sp  # only the built-in model pays for the import

    labelings = np.atleast_2d(np.asarray(train_labels, dtype=np.int64))
    labeled = np.flatnonzero(_train_mask(labelings, num_classes).any(axis=0))
    n = graph.num_nodes
    rows = np.arange(n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    step = (sp.csr_matrix((np.ones(graph.num_arcs, dtype=bool), graph.neighbors, graph.offsets),
                          shape=(n, n))
            + sp.identity(n, dtype=bool, format="csr"))
    steps = [step] * (config.hops - 1) + [step[:, labeled]]
    # labeling i's one-hots fill columns i * num_classes onward
    onehot = (labelings.T[:, :, None] == np.arange(num_classes)).reshape(n, -1).astype(np.float64)
    source = onehot[labeled]
    counts = np.empty((len(rows), onehot.shape[1]), dtype=np.float64)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[lo:lo + _CHUNK_ROWS]
        reach = steps[0][chunk]
        for hop in steps[1:]:
            reach = reach @ hop
        counts[lo:lo + len(chunk)] = reach @ source - onehot[chunk]
    probs = (counts + config.alpha).reshape(len(rows), len(labelings), num_classes)
    probs /= probs.sum(axis=2, keepdims=True)
    return [PredictionTable(rows, probs[:, i]) for i in range(len(labelings))]


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
