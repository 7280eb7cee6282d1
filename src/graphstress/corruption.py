"""Inference-time input corruption: Gaussian feature noise and edge deletion.

Both operators are pure and counter-addressed, so output is byte-identical
for a given (input, parameters, key) no matter how work is chunked. Severity
only scales the corruption; the underlying random field is fixed by the key,
which makes noise fields comparable across sigma levels and edge-deletion
sets nest across severities. Edge deletion therefore draws its field once
for all levels and returns how many levels each edge survives, from which
each level's graph, or one propagation over all of them, is derived.
"""

from __future__ import annotations

import numpy as np

from .determinism import StreamKey, gaussian, uniform
from .errors import DirectedGraph, EmptyTrainMask
from .graph_store import Graph

FEATURE_LEVELS = (0.1, 0.25, 0.5, 1.0, 2.0)
EDGE_LEVELS = (0.05, 0.10, 0.20, 0.30, 0.50)


def feature_noise(features: np.ndarray, train_mask: np.ndarray, sigma_rel: float,
                  key: StreamKey) -> np.ndarray:
    """Add zero-mean Gaussian noise scaled per dimension by the train-split std.

    scale_d = sigma_rel * population std of dimension d over train rows; every
    row of the matrix gets noise (train and eval splits alike); dimensions
    that are constant on the train split stay untouched.
    """
    features = np.asarray(features)
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if len(train_mask) == 0:
        raise EmptyTrainMask("feature noise needs a nonempty train mask")
    if sigma_rel == 0:
        return features.copy()
    std = features[train_mask].astype(np.float64).std(axis=0)  # population std
    n, d = features.shape
    eps = gaussian(key, np.arange(n * d, dtype=np.int64)).reshape(n, d)
    out = features.astype(np.float64) + sigma_rel * std[None, :] * eps
    out[:, std == 0.0] = features[:, std == 0.0]
    return out.astype(features.dtype)


def edge_delete(graph: Graph, levels, key: StreamKey) -> np.ndarray:
    """How many of the deletion probabilities ``levels`` (``EDGE_LEVELS``) each edge survives.

    Edge i of ``graph.edge_keys()`` draws u = uniform(key, i) once; its int8
    count s = searchsorted(levels, u, side="right") is the number of levels
    p <= u. The graph at severity j (1-based) is
    ``remove_edges(graph, survived < j)``, since s < j exactly when u < p_j:
    both arcs of an edge go together, self-loops are never deleted, and the
    deleted set of a level is a subset of the next level's.
    """
    if not graph.undirected:
        raise DirectedGraph("edge deletion requires an undirected graph")
    u = uniform(key, np.arange(len(graph._reverse_order), dtype=np.int64))
    return np.searchsorted(levels, u, side="right").astype(np.int8)


def drop_metric(clean: float, perturbed: float) -> float:
    """Severity-5 degradation in percentage points: clean minus perturbed."""
    return float(clean) - float(perturbed)
