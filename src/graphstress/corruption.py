"""Inference-time input corruption: Gaussian feature noise and edge deletion.

Both operators are pure and counter-addressed, so output is byte-identical
for a given (input, parameters, key) no matter how work is chunked. Severity
only scales the corruption; the underlying random field is fixed by the key,
which makes edge-deletion sets nest across severities and noise fields
comparable across sigma levels.
"""

from __future__ import annotations

import numpy as np

from .determinism import StreamKey, gaussian, uniform
from .errors import BadProbability, DirectedGraph, EmptyTrainMask, NonFiniteFeature
from .graph_store import Graph, remove_edges

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
    if not np.all(np.isfinite(features)):
        raise NonFiniteFeature("input features contain NaN or Inf")
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if len(train_mask) == 0:
        raise EmptyTrainMask("feature noise needs a nonempty train mask")
    if sigma_rel < 0:
        raise BadProbability("sigma_rel must be nonnegative")
    if sigma_rel == 0:
        return features.copy()
    std = features[train_mask].astype(np.float64).std(axis=0)  # population std
    n, d = features.shape
    eps = gaussian(key, np.arange(n * d, dtype=np.int64)).reshape(n, d)
    out = features.astype(np.float64) + sigma_rel * std[None, :] * eps
    out[:, std == 0.0] = features[:, std == 0.0]
    return out.astype(features.dtype)


def edge_delete(graph: Graph, p: float, key: StreamKey) -> Graph:
    """Drop each undirected edge with probability p; both arcs go together.

    The decision for edge i of ``graph.edge_keys()`` is uniform(key, i) < p,
    so the deleted set for a smaller p is a subset of the deleted set for a
    larger p under the same key. Self-loops are never deleted.
    """
    if not graph.undirected:
        raise DirectedGraph("edge deletion requires an undirected graph")
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"deletion probability {p} outside [0, 1]")
    return remove_edges(graph, deleted_edge_mask(len(graph._reverse_order), p, key))


def deleted_edge_mask(num_edges: int, p: float, key: StreamKey) -> np.ndarray:
    """Boolean per edge index below num_edges: True where edge_delete drops it."""
    return uniform(key, np.arange(num_edges, dtype=np.int64)) < p


def drop_metric(clean: float, perturbed: float) -> float:
    """Severity-5 degradation in percentage points: clean minus perturbed."""
    if not (np.isfinite(clean) and np.isfinite(perturbed)):
        raise BadProbability("drop metric needs finite inputs")
    return float(clean) - float(perturbed)
