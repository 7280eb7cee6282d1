"""Built-in deterministic scorer: smoothed k-hop label propagation.

This is plumbing, not science: it gives the pipeline a dependency-free
"model" whose predictions react to edge deletion and masking, so every axis
can be exercised end to end without an external ML system. Each node's class
probabilities are proportional to alpha plus the count of each class among
train-labeled nodes within `hops` hops (the node itself excluded, which
prevents trivially perfect train accuracy).

Whole-graph scoring is split in two: `reachability` builds the graph's
boolean hop matrix, and `propagate_predict` counts labels through it. The
matrix depends only on the graph, so `stress run` builds each clean graph's
matrix once per run, before its jobs fan out, and every clean-graph cell
reuses it. `predict_node` scores one node from its `Graph.ball` alone, as
the interpret axis does for each masked condition.
"""

from __future__ import annotations

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
        if self.alpha <= 0:
            raise ConfigError("smoothing alpha must be positive")


def _train_mask(train_labels: np.ndarray, num_classes: int) -> np.ndarray:
    train_labels = np.asarray(train_labels, dtype=np.int64)
    mask = (train_labels >= 0) & (train_labels < num_classes)
    if not mask.any():
        raise NoTrainLabels("propagation needs at least one labeled train node")
    return mask


def reachability(graph: Graph, hops: int) -> sp.csr_matrix:
    """Boolean CSR whose row i marks the nodes within ``hops`` hops of i, i excluded.

    Built by sparse products of the boolean adjacency with every self-loop
    set, ``(A + I)^hops``, whose pattern is that of I + A + ... + A^hops.
    The diagonal is then cleared in place: every row holds its own entry, so
    ``setdiag`` never reallocates (a leading A would leave rows of isolated
    nodes without one, and clearing them would copy the whole matrix).
    """
    n = graph.num_nodes
    src, dst = graph.arcs()
    loops = np.arange(n, dtype=src.dtype)
    step = sp.csr_matrix(
        (np.ones(len(src) + n, dtype=bool),
         (np.concatenate([src, loops]), np.concatenate([dst, loops]))),
        shape=(n, n),
    )
    reach = step
    for _ in range(hops - 1):
        reach = reach @ step
    reach.setdiag(False)  # self excluded from its own count
    reach.eliminate_zeros()
    return reach


def propagate_predict(graph: Graph, train_labels: np.ndarray, num_classes: int,
                      config: PropagationConfig = PropagationConfig(),
                      reach: sp.csr_matrix | None = None) -> PredictionTable:
    """Probability rows for every node from hop-limited train-label counts.

    ``train_labels`` is per-node; any value outside [0, num_classes) means
    the node is not a labeled training node. ``reach`` is
    ``reachability(graph, config.hops)``, built here when not given.
    """
    mask = _train_mask(train_labels, num_classes)
    if reach is None:
        reach = reachability(graph, config.hops)

    onehot = np.zeros((graph.num_nodes, num_classes), dtype=np.float64)
    labeled = np.flatnonzero(mask)
    onehot[labeled, np.asarray(train_labels)[labeled]] = 1.0
    counts = np.asarray(reach @ onehot)
    probs = counts + config.alpha
    probs /= probs.sum(axis=1, keepdims=True)
    return PredictionTable(np.arange(graph.num_nodes, dtype=np.int64), probs)


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
