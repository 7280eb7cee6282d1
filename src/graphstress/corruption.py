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
_DRAW_BLOCK = 1 << 16  # edges drawn and counted at once by edge_delete
_NOISE_ROWS = 1 << 12  # feature rows feature_noise draws and adds at once


def feature_noise(features: np.ndarray, train_mask: np.ndarray, sigma_rel: float,
                  key: StreamKey) -> np.ndarray:
    """Add zero-mean Gaussian noise scaled per dimension by the train-split std.

    scale_d = sigma_rel * population std of dimension d over train rows; every
    row of the matrix gets noise (train and eval splits alike); dimensions
    that are constant on the train split stay untouched. The noise is drawn,
    scaled and added in float64 ``_NOISE_ROWS`` rows at a time, each block
    cast into the result.
    """
    features = np.asarray(features)
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if len(train_mask) == 0:
        raise EmptyTrainMask("feature noise needs a nonempty train mask")
    if sigma_rel == 0:
        return features.copy()
    std = features[train_mask].astype(np.float64).std(axis=0)  # population std
    scale, constant = sigma_rel * std[None, :], std == 0.0
    n, d = features.shape
    out = np.empty(features.shape, dtype=features.dtype)
    for lo in range(0, n, _NOISE_ROWS):
        hi = min(lo + _NOISE_ROWS, n)
        eps = gaussian(key, np.arange(lo * d, hi * d, dtype=np.int64)).reshape(hi - lo, d)
        block = features[lo:hi].astype(np.float64) + scale * eps
        block[:, constant] = features[lo:hi, constant]
        out[lo:hi] = block
    return out


def edge_delete(graph: Graph, levels, key: StreamKey) -> np.ndarray:
    """How many of the deletion probabilities ``levels`` (``EDGE_LEVELS``) each edge survives.

    Edge i of ``graph.edge_keys()`` draws u = uniform(key, i) once; its int8
    count s = searchsorted(levels, u, side="right") is the number of levels
    p <= u. The graph at severity j (1-based) is
    ``remove_edges(graph, survived < j)``, since s < j exactly when u < p_j:
    both arcs of an edge go together, self-loops are never deleted, and the
    deleted set of a level is a subset of the next level's. The edges are drawn
    ``_DRAW_BLOCK`` at a time into the int8 result.
    """
    if not graph.undirected:
        raise DirectedGraph("edge deletion requires an undirected graph")
    survived = np.empty(len(graph._reverse_order), dtype=np.int8)
    for lo in range(0, len(survived), _DRAW_BLOCK):
        u = uniform(key, np.arange(lo, min(lo + _DRAW_BLOCK, len(survived)), dtype=np.int64))
        survived[lo:lo + _DRAW_BLOCK] = np.searchsorted(levels, u, side="right")
    return survived


def drop_metric(clean: float, perturbed: float) -> float:
    """Severity-5 degradation in percentage points: clean minus perturbed."""
    return float(clean) - float(perturbed)
