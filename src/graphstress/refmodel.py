"""Built-in deterministic scorer: smoothed k-hop label propagation.

This is plumbing, not science: it gives the pipeline a dependency-free
"model" whose predictions react to edge deletion and masking, so every axis
can be exercised end to end without an external ML system. Each node's class
probabilities are proportional to alpha plus the count of each class among
train-labeled nodes within `hops` hops (the node itself excluded, which
prevents trivially perfect train accuracy).

`propagate_predict` scores the rows a caller reads, all nodes by default, in
numpy alone. It takes those rows one chunk at a time and holds each chunk's
reach as sorted node-major keys ``node << low | row << shift``, row being
the position in the chunk: uint32 whenever a one-row chunk's keys fit in 32
bits, the chunk's rows cut to the bits left. Each hop adds every key's CSR
neighbours, sorts and drops repeats, and the last hop walks only arcs into
labeled nodes. Sorted node first, the keys read the CSR and the labels in
ascending order, and a shift and a mask split a key into node and row. It
never holds the reach of the whole graph, and one reach scores a whole stack
of train labelings, since propagation is linear in the labels. Given how
many nested edge-deletion levels each edge survives, the same reach, each
key tagged with the bottleneck level of its best path, scores the clean
graph and every level at once. The counts are exact small integers, so
neither the rows, the chunking, the stack nor the levels change a bit.
`reach` walks the same hops from one node: the receptive field that
interpret manifests mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoTrainLabels
from .graph_store import Graph, _id_dtype
from .metrics import PredictionTable


@dataclass(frozen=True)
class PropagationConfig:
    hops: int = 2
    alpha: float = 1.0  # add-alpha smoothing


_CHUNK_ROWS = 2048  # rows whose reach is held at once
_NARROW_BITS = 32  # keys are uint32 when a node and its level bits fit in this many bits
_PART = 1 << 15  # keys, or walked arcs, of a chunk given one temporary array at a time


def _classes(train_labels, num_classes: int, num_nodes: int) -> np.ndarray:
    """(labelings, nodes) class of each node in each labeling of the stack ``train_labels``,
    num_classes where it is no labeled train node, in the narrowest unsigned dtype."""
    stack = train_labels if isinstance(train_labels, list) else np.atleast_2d(train_labels)
    classes = np.full((len(stack), num_nodes), num_classes, dtype=np.min_scalar_type(num_classes))
    for out, labels in zip(classes, stack):
        np.copyto(out, labels, casting="unsafe", where=(labels >= 0) & (labels < num_classes))
    if not (classes != num_classes).any(axis=1).all():
        raise NoTrainLabels("propagation needs at least one labeled train node")
    return classes


def _labeled_arcs(graph: Graph, labeled: np.ndarray, arc_bits: np.ndarray | None, dtype):
    """(offsets, targets as ``dtype``, arc_bits or None) of the CSR of the arcs into
    ``labeled`` nodes, built one row block at a time; the offsets are int32 when they fit.
    ``np.take`` gathers by the int32 node ids about three times faster than a subscript."""
    offsets = graph._kept_offsets(lambda a, b, lo, hi: np.take(labeled, graph.neighbors[lo:hi]))
    offsets = offsets.astype(_id_dtype(int(offsets[-1])))
    targets = np.empty(offsets[-1], dtype=dtype)
    bits = None if arc_bits is None else np.empty(offsets[-1], dtype=np.int8)
    for a, b, lo, hi in graph._row_blocks():
        keep = np.take(labeled, graph.neighbors[lo:hi])
        targets[offsets[a]:offsets[b]] = np.compress(keep, graph.neighbors[lo:hi])
        if bits is not None:
            bits[offsets[a]:offsets[b]] = np.compress(keep, arc_bits[lo:hi])
    return offsets, targets, bits


def _hop(keys: np.ndarray, low: int, offsets: np.ndarray, targets: np.ndarray, shift: int = 0,
         arc_bits: np.ndarray | None = None) -> np.ndarray:
    """Sorted keys ``k << low | r``, one per (k, r >> shift): the non-empty ``keys``
    and the CSR targets of each node k, ``r`` holding a row and, below ``shift``, bits b.

    A key walked along an arc takes the larger of its source's low bits b and
    the arc's ``arc_bits``; of the keys of one (k, row), the sort puts the one
    with the least bits first, and only it is kept. Node-major keys gather
    ``offsets`` and ``targets`` in ascending order. The default sort kind is
    what keeps this cheap: on a chunk's keys a stable sort is about sixteen times
    slower, and ``np.unique`` fifty.
    """
    nodes = keys >> low
    starts = offsets[nodes]
    lengths = offsets[nodes + 1] - starts
    ends = np.cumsum(lengths)
    arcs = np.repeat(starts - ends + lengths, lengths)  # each walked arc's position in targets
    del starts, ends
    for lo in range(0, len(arcs), _PART):  # a whole arange would be a second int64 per walked arc
        arcs[lo:lo + _PART] += np.arange(lo, min(lo + _PART, len(arcs)))
    walked = targets[arcs].astype(keys.dtype, copy=False)
    if arc_bits is not None:
        gain = arc_bits[arcs]
    del arcs  # each array is freed once read: at most two walked-sized keys are held
    walked <<= low
    walked += np.repeat(keys - (nodes << low), lengths)  # the source's row and bits
    del nodes
    if arc_bits is not None:  # raise the bits to the arc's where it survives fewer levels
        gain -= np.repeat((keys & ((1 << shift) - 1)).astype(np.int8), lengths)
        walked += np.maximum(gain, 0, out=gain).view(np.uint8)
        del gain
    keys = np.concatenate([keys, walked])
    del walked
    keys.sort()
    cells = keys >> shift if shift else keys
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    del cells
    return keys[first]


def reach(graph: Graph, center: int, hops: int) -> np.ndarray:
    """Sorted ids of the nodes within ``hops`` arcs of ``center``: the propagation's reach."""
    keys = np.array([center], dtype=np.int64)
    for _ in range(hops):
        keys = _hop(keys, 0, graph.offsets, graph.neighbors)
    return keys


def propagate_predict(graph: Graph, train_labels: np.ndarray, num_classes: int,
                      config: PropagationConfig = PropagationConfig(),
                      rows: np.ndarray | None = None, survived: np.ndarray | None = None,
                      num_levels: int = 0) -> list[PredictionTable]:
    """One table per (edge level, labeling): the probability rows of the distinct node ids ``rows``.

    ``train_labels`` stacks per-node labelings (a 1-D array is a stack of one);
    a value outside [0, num_classes) marks no labeled training node. ``rows`` is
    every node when None. Each chunk of rows is walked ``hops`` hops as sorted
    ``node << low | row << shift`` keys, the last hop along arcs into labeled
    nodes alone, and all labelings share that reach. The keys are uint32 when
    a one-row chunk's fit in 32 bits, the chunk's rows then cut to fit, and
    int64 otherwise. Every row's reach holds its own node, so subtracting the
    node's own one-hot leaves the count of the others.

    Without ``survived`` the tables are one per labeling. With it, ``survived``
    holds how many of ``num_levels`` nested levels each edge of
    ``graph.edge_keys()`` survives (as ``corruption.edge_delete`` returns), and
    the tables run level-major over levels 0..num_levels, level 0 being the
    graph as given and level i ``remove_edges(graph, survived < i)``. The keys
    then carry num_levels minus the levels an arc survives in their low bits,
    a walked key the max of its path's; the key kept for a (row, node) is its
    best path's, so the node is in the row's ball at level i exactly when its
    bits are at most num_levels - i, and a cumulative sum of the bits' counts
    gives each level's exact counts.
    """
    n = graph.num_nodes
    # an unlabeled node's class is num_classes, a column that is dropped
    classes = _classes(train_labels, num_classes, n)
    rows = np.arange(n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    if survived is None:
        num_levels, arc_bits = 0, None
    else:
        arc_bits = graph._arc_values(np.asarray(survived, dtype=np.int8), num_levels)
        np.subtract(num_levels, arc_bits, out=arc_bits)
    shift = num_levels.bit_length()
    depth = num_levels + 1
    node_bits = int(n).bit_length()
    narrow = node_bits + shift <= _NARROW_BITS
    dtype = np.uint32 if narrow else np.int64
    chunk_rows = min(_CHUNK_ROWS, 1 << ((_NARROW_BITS if narrow else 63) - node_bits - shift))
    row_bits = (chunk_rows - 1).bit_length()
    low = row_bits + shift
    labeled_offsets, labeled_targets, labeled_bits = _labeled_arcs(
        graph, (classes != num_classes).any(axis=0), arc_bits, dtype)
    width = num_classes + 1
    counts = np.empty((len(rows), depth, len(classes), num_classes), dtype=np.int32)

    def count_chunk(lo: int) -> None:  # a function, so no array of one chunk outlives it
        chunk = rows[lo:lo + chunk_rows]
        own = np.arange(len(chunk))
        keys = (chunk << low | own << shift).astype(dtype)
        for _ in range(config.hops - 1):
            keys = _hop(keys, low, graph.offsets, graph.neighbors, shift, arc_bits)
        keys = _hop(keys, low, labeled_offsets, labeled_targets, shift, labeled_bits)
        # each (labeling, row, class, bits) cell counts its keys, _PART keys at a time
        tally = np.zeros((len(classes), len(chunk) * width * depth), dtype=np.int64)
        for part in (keys[i:i + _PART] for i in range(0, len(keys), _PART)):
            nodes = part >> low
            row = part >> shift
            row &= (1 << row_bits) - 1
            if shift:
                bits = (part & ((1 << shift) - 1)).astype(np.int8)
            for i, cls in enumerate(classes):
                index = np.multiply(row, width, dtype=np.int64)
                index += cls[nodes]
                if shift:
                    index *= depth
                    index += bits
                tally[i] += np.bincount(index, minlength=tally.shape[1])
        tally = tally.reshape(len(classes), len(chunk), width, depth)
        tally[np.arange(len(classes))[:, None], own, classes[:, chunk], 0] -= 1
        # level i counts the keys whose bits are at most num_levels - i
        tally = tally.cumsum(axis=3)[:, :, :-1, ::-1]
        counts[lo:lo + len(chunk)] = tally.transpose(1, 3, 0, 2)

    for lo in range(0, len(rows), chunk_rows):
        count_chunk(lo)
    del arc_bits, labeled_offsets, labeled_targets, labeled_bits  # freed before the float table
    probs = (counts + config.alpha).reshape(len(rows), depth * len(classes), num_classes)
    del counts
    probs /= probs.sum(axis=2, keepdims=True)
    return [PredictionTable(rows, probs[:, i]) for i in range(depth * len(classes))]


def predicted_class_prob(graph: Graph, train_labels: np.ndarray, num_classes: int,
                         rows: np.ndarray, survived: np.ndarray, num_levels: int) -> np.ndarray:
    """(num_levels + 1, len(rows)) probabilities: what each level assigns to the class level 0
    predicts for the row, the levels being ``propagate_predict``'s at its default config."""
    tables = propagate_predict(graph, train_labels, num_classes, rows=rows,
                               survived=survived, num_levels=num_levels)
    probs = np.stack([t.rows for t in tables])
    return probs[:, np.arange(len(rows)), probs[0].argmax(axis=1)]
