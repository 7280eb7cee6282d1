"""Built-in deterministic scorer: smoothed k-hop label propagation.

This is plumbing, not science: it gives the pipeline a dependency-free
"model" whose predictions react to edge deletion and masking, so every axis
can be exercised end to end without an external ML system. Each node's class
probabilities are proportional to alpha plus the count of each class among
train-labeled nodes within `hops` hops (the node itself excluded, which
prevents trivially perfect train accuracy).

`propagate_predict` scores the rows a caller reads, all nodes by default,
in numpy alone. It takes those rows one fixed-size chunk at a time and holds
each chunk's reach as sorted int64 keys ``row * num_nodes + node``: each hop
adds every key's CSR neighbours, sorts and drops repeats, and the last hop
walks only arcs into labeled nodes. It never holds the reach of the whole
graph, and one reach scores a whole stack of train labelings, since
propagation is linear in the labels. The counts are exact small integers,
so neither the rows, the chunking nor the stack changes a bit.
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


_CHUNK_ROWS = 2048  # rows whose reach is held at once


def _train_mask(train_labels: np.ndarray, num_classes: int) -> np.ndarray:
    train_labels = np.asarray(train_labels, dtype=np.int64)
    mask = (train_labels >= 0) & (train_labels < num_classes)
    if not mask.any(axis=-1).all():
        raise NoTrainLabels("propagation needs at least one labeled train node")
    return mask


def _hop(keys: np.ndarray, n: int, offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Sorted distinct keys ``row * n + k``: the non-empty ``keys`` and the CSR targets of each k.

    The default sort kind is what keeps this cheap: on a chunk's keys a
    stable sort is about three times slower, and ``np.unique`` fifty.
    """
    nodes = keys % n
    starts = offsets[nodes]
    lengths = offsets[nodes + 1] - starts
    ends = np.cumsum(lengths)
    walked = targets[np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])]
    keys = np.concatenate([keys, np.repeat(keys - nodes, lengths) + walked])
    keys.sort()
    return keys[np.append(True, keys[1:] != keys[:-1])]


def propagate_predict(graph: Graph, train_labels: np.ndarray, num_classes: int,
                      config: PropagationConfig = PropagationConfig(),
                      rows: np.ndarray | None = None) -> list[PredictionTable]:
    """One table per train labeling: the probability rows of the distinct node ids ``rows``.

    ``train_labels`` stacks per-node labelings (a 1-D array is a stack of one);
    a value outside [0, num_classes) marks no labeled training node. ``rows`` is
    every node when None. Each chunk of rows is walked ``hops`` hops as sorted
    ``row * n + node`` keys, the last hop along arcs into labeled nodes alone,
    and all labelings share that reach. Every row's reach holds its own node,
    so subtracting the node's own one-hot leaves the count of the others.
    """
    labelings = np.atleast_2d(np.asarray(train_labels, dtype=np.int64))
    mask = _train_mask(labelings, num_classes)
    labeled = mask.any(axis=0)
    n = graph.num_nodes
    rows = np.arange(n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    keep = labeled[graph.neighbors]
    labeled_offsets = np.append(0, np.cumsum(keep))[graph.offsets]
    labeled_targets = graph.neighbors[keep]
    # an unlabeled node's class is num_classes, a column that is dropped
    classes = np.where(mask, labelings, num_classes)
    width = num_classes + 1
    counts = np.empty((len(rows), len(labelings) * num_classes), dtype=np.float64)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[lo:lo + _CHUNK_ROWS]
        own = np.arange(len(chunk))
        keys = own * n + chunk
        for _ in range(config.hops - 1):
            keys = _hop(keys, n, graph.offsets, graph.neighbors)
        keys = _hop(keys, n, labeled_offsets, labeled_targets)
        row = keys // n
        node = keys - row * n
        for i, cls in enumerate(classes):
            tally = np.bincount(row * width + cls[node], minlength=len(chunk) * width)
            tally = tally.reshape(len(chunk), width)
            tally[own, cls[chunk]] -= 1
            counts[lo:lo + len(chunk), i * num_classes:(i + 1) * num_classes] = tally[:, :-1]
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
