"""In-memory graph data model, dataset manifests, ingestion and validation.

Three dataset kinds share one manifest format (a JSON key/value document):

* ``node_graph``      one CSR graph with optional features/labels/meta/split
* ``triples``         an (entity, relation, entity) triple store
* ``graph_collection`` many small graphs with per-graph label rows

On-disk layout (all paths relative to the manifest's directory):

* edge file      text, one arc per line ``u<TAB>v``
* feature file   binary, 16-byte header (magic ``GSFH``, u32 rows, u32 cols,
                 u32 reserved, little-endian) then row-major little-endian
                 float32; a load checks it in one streamed pass and keeps a
                 read-only map of it, so it must not be truncated or rewritten
                 in place while a loaded dataset is alive
* label/split/meta files   text, one record per line ``node_id<TAB>value``
  (the meta file carries two value columns, year and sensitive_attr, with
  ``-`` for absent)
* triple file    text, one triple per line ``head<TAB>relation<TAB>tail``
* collection     ``graph_file`` lines ``graph_id<TAB>u<TAB>v`` (local node
  ids), ``graph_size_file`` lines ``graph_id<TAB>num_nodes``,
  ``graph_label_file`` lines ``graph_id<TAB>y0<TAB>y1...`` (each ``0``, ``1``
  or ``-`` for a missing task label), ``scaffold_file`` lines ``graph_id<TAB>scaffold_id``

Every text file above, and the prediction, ranking, saliency and probs files
of ``metrics`` and ``interpret``, is read by ``read_table`` and written by
``write_table``: blank and ``#`` lines are skipped, and a ragged row or a bad
token is a LengthMismatch.

Datasets are immutable after load and safe to share across threads.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AsymmetricGraph, BadId, DirectedGraph, LengthMismatch, MissingFile, NonFiniteFeature

_FEATURE_MAGIC = b"GSFH"
# read_table passes max_rows, so numpy warns once per file with a blank or # line among its rows
warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning, __name__)


class Role(IntEnum):
    TRAIN = 0
    VAL = 1
    TEST = 2
    OOD_VAL = 3
    OOD_TEST = 4
    EXCLUDED = 5


ROLE_NAMES = {role: role.name.lower() for role in Role}  # train, val, ..., excluded
ROLE_BY_NAME = {v: k for k, v in ROLE_NAMES.items()}


@dataclass
class SplitAssignment:
    """Per-unit role labels; roles partition the unit set."""

    roles: np.ndarray  # int8, one Role per unit

    @property
    def num_units(self) -> int:
        return len(self.roles)

    def units(self, role: Role) -> np.ndarray:
        return np.flatnonzero(self.roles == int(role)).astype(np.int64)

    def counts(self) -> dict[str, int]:
        return {ROLE_NAMES[r]: int(np.sum(self.roles == int(r))) for r in Role}

    @classmethod
    def all_excluded(cls, n: int) -> "SplitAssignment":
        return cls(np.full(n, int(Role.EXCLUDED), dtype=np.int8))


@dataclass
class NodeMeta:
    """Optional per-node records; -1 marks an absent value."""

    year: np.ndarray | None = None           # int64, -1 = missing
    sensitive_attr: np.ndarray | None = None  # int8 in {0,1}, -1 = missing


@dataclass
class Graph:
    """Compressed-sparse-row graph with sorted, deduplicated neighbor lists."""

    num_nodes: int
    offsets: np.ndarray    # int64, len num_nodes + 1
    neighbors: np.ndarray  # _id_dtype(num_nodes): int32 below 2**31 nodes; len offsets[-1]
    undirected: bool = True
    features: np.ndarray | None = None  # float32 (num_nodes, dim); loaded: a read-only map
    labels: np.ndarray | None = None    # int64; value == num_classes means unlabeled
    num_classes: int = 0
    meta: NodeMeta = field(default_factory=NodeMeta)

    @property
    def num_arcs(self) -> int:
        return int(self.offsets[-1])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """All arcs as (src, dst) arrays in CSR order; src is int64, so ``src * num_nodes``
        forms keys without wrapping."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        return src, self.neighbors

    def edge_keys(self) -> np.ndarray:
        """``u * num_nodes + v`` of every arc with u < v, ascending: one key per undirected edge."""
        src, dst = self.arcs()
        fwd = src < dst
        return src[fwd] * self.num_nodes + dst[fwd]

    def _row_blocks(self, descending: bool = False):
        """(first row, end row, first arc, end arc) of consecutive row blocks of about
        ``_ROW_BLOCK`` arcs, first to last or last to first: a block holds whole rows, so
        one long row makes a longer block."""
        if self.num_arcs <= _ROW_BLOCK:  # one block, with nothing to search
            yield 0, self.num_nodes, 0, self.num_arcs
            return
        starts = np.searchsorted(self.offsets, np.arange(0, self.num_arcs, _ROW_BLOCK), side="right")
        bounds = sorted({0, self.num_nodes, *(starts - 1).tolist()})
        blocks = list(zip(bounds[:-1], bounds[1:]))
        for a, b in reversed(blocks) if descending else blocks:
            yield a, b, int(self.offsets[a]), int(self.offsets[b])

    def _sources(self, a: int, b: int) -> np.ndarray:
        """The source of each arc of rows a..b-1, in CSR order, in the neighbors' dtype: a
        comparison of the two then runs in one dtype, with no cast."""
        return np.repeat(np.arange(a, b, dtype=self.neighbors.dtype), np.diff(self.offsets[a:b + 1]))

    def _kept_offsets(self, keep) -> np.ndarray:
        """CSR offsets of the arcs that ``keep(a, b, lo, hi)``, one bool per arc lo..hi-1 of
        the rows a..b-1, keeps; counted one row block at a time."""
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        for a, b, lo, hi in self._row_blocks():
            kept = np.zeros(hi - lo + 1, dtype=np.int64)  # the block's arcs kept before each
            np.cumsum(keep(a, b, lo, hi), out=kept[1:])
            np.add(kept[self.offsets[a + 1:b + 1] - lo], offsets[a], out=offsets[a + 1:b + 1])
        return offsets

    @cached_property
    def _reverse_order(self) -> np.ndarray:
        """Edge index, in ``edge_keys()`` order, of each arc u > v in CSR order, int32 when the
        edges fit: ``_twins`` with a cursor past each node's last edge index; built once."""
        cursor = self._kept_offsets(lambda a, b, lo, hi: self.neighbors[lo:hi] > self._sources(a, b))
        out = np.empty(int(cursor[-1]), dtype=_id_dtype(int(cursor[-1])))
        end = len(out)
        for order, _, twin in _twins(self, cursor[1:]):
            end -= len(order)
            out[end:end + len(order)][order] = twin
        return out

    def _arc_values(self, per_edge: np.ndarray, loop) -> np.ndarray:
        """Each arc's entry of ``per_edge``, one per edge in ``edge_keys()`` order, in CSR
        order; both arcs of an edge share it, and a self-loop gets ``loop``. Filled one
        row block at a time."""
        out = np.full(self.num_arcs, loop, dtype=per_edge.dtype)
        fwd = back = 0  # edges and reverse arcs filled so far
        for a, b, lo, hi in self._row_blocks():
            src = self._sources(a, b)
            block = out[lo:hi]
            up = np.flatnonzero(src < self.neighbors[lo:hi])
            block[up] = per_edge[fwd:fwd + len(up)]
            fwd += len(up)
            down = np.flatnonzero(src > self.neighbors[lo:hi])
            block[down] = per_edge[self._reverse_order[back:back + len(down)]]
            back += len(down)
        return out

    def induced(self, nodes: np.ndarray) -> "Graph":
        """The arcs among sorted ids ``nodes``, node i being ``nodes[i]``: a sorted CSR slice."""
        starts = self.offsets[nodes]
        lengths = self.offsets[nodes + 1] - starts
        ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])
        local = np.full(self.num_nodes, -1, dtype=_id_dtype(len(nodes)))
        local[nodes] = np.arange(len(nodes))
        arcs = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
        local = np.take(local, self.neighbors[arcs])  # an int32 subscript gathers ~3x slower
        return Graph(num_nodes=len(nodes), offsets=np.append(0, np.cumsum(local >= 0))[ptr],
                     neighbors=local[local >= 0], undirected=self.undirected)

    def labeled_nodes(self) -> np.ndarray:
        if self.labels is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.labels != self.num_classes).astype(np.int64)

    @classmethod
    def from_arcs(cls, num_nodes, src, dst, *, undirected=True, symmetrize=False, **kwargs) -> "Graph":
        """Build a validated CSR graph from an arc list.

        Arcs are sorted and deduplicated by their key ``u * num_nodes + v``, whose
        ascending order is the (u, v) order; ``symmetrize`` first adds every reverse arc.
        """
        keys = _arc_keys(num_nodes, src, dst)
        if symmetrize:  # a self-loop doubled here is one key, dropped below
            keys = np.concatenate([keys, _arc_keys(num_nodes, dst, src)])
        g = cls._from_keys(num_nodes, keys, undirected=undirected, **kwargs)
        del keys
        validate_graph(g)
        return g

    @classmethod
    def _from_keys(cls, num_nodes: int, keys: np.ndarray, **kwargs) -> "Graph":
        """The graph of the int64 arc keys ``keys``, not yet validated. It sorts them in place
        and moves the first of each key to the front, a block at a time; the offsets are a
        ``searchsorted`` of the row starts in them, and the neighbors, in ``_id_dtype``, their
        remainders. The caller validates the graph once it has let the key buffer go."""
        keys.sort()
        kept = 0  # distinct keys moved to the front so far
        for lo in range(0, len(keys), _ROW_BLOCK):
            block = keys[lo:lo + _ROW_BLOCK]
            first = np.empty(len(block), dtype=bool)
            first[0] = kept == 0 or block[0] != keys[kept - 1]
            np.not_equal(block[1:], block[:-1], out=first[1:])
            block = block[first]  # a copy: kept <= lo, so it is written at or before its place
            keys[kept:kept + len(block)] = block
            kept += len(block)
        keys = keys[:kept]
        offsets = np.searchsorted(keys, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
        neighbors = np.empty(kept, dtype=_id_dtype(num_nodes))
        np.remainder(keys, num_nodes, out=neighbors, casting="unsafe")  # each below num_nodes
        return cls(num_nodes=num_nodes, offsets=offsets, neighbors=neighbors, **kwargs)


_ROW_BLOCK = 1 << 16  # arcs a row-block loop over a graph handles at once


def _id_dtype(n: int):
    """The dtype of node ids, arc positions and edge numbers up to ``n``: int32 when
    ``n < 2**31``, else int64. A key ``u * num_nodes + v``, or any product that forms one,
    is int64 whatever this gives."""
    return np.int32 if n < 2**31 else np.int64


def _arc_keys(num_nodes: int, src, dst, out: np.ndarray | None = None) -> np.ndarray:
    """The key ``u * num_nodes + v`` of each arc, int64, in ``out`` or a new array; BadId names
    the first endpoint out of range, in src before dst. The keys are formed a block at a
    time and each block is written after its arcs are read, so ``out`` may share the arcs'
    buffer as long as its i-th entry lies at or before arc i's."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) != len(dst):
        raise LengthMismatch(f"src/dst arc arrays differ: {len(src)} vs {len(dst)}")
    if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= num_nodes or dst.max() >= num_nodes):
        bad = src[(src < 0) | (src >= num_nodes)]
        bad = bad[0] if len(bad) else dst[(dst < 0) | (dst >= num_nodes)][0]
        raise BadId(f"arc endpoint {bad} out of range for {num_nodes} nodes")
    out = np.empty(len(src), dtype=np.int64) if out is None else out
    for lo in range(0, len(src), _ROW_BLOCK):
        keys = src[lo:lo + _ROW_BLOCK] * num_nodes
        keys += dst[lo:lo + _ROW_BLOCK]
        out[lo:lo + len(keys)] = keys
    return out


def _twins(g: Graph, cursor: np.ndarray):
    """Per row block, last first, (order, u, twin) of its arcs (u, v), u > v: ``order`` puts
    them, taken in CSR order, by v, then by u descending; ``u`` holds their sources and
    ``twin`` the positions ``_claim`` takes down from ``cursor[v]``, both in that order.

    Rows ascend, so in a symmetric graph the arcs into v, largest u first, are the reverses
    of v's last entries, last first. A block's arcs into v come from distinct rows, so the
    plain key ``v << shift | (ndown - 1 - i)`` of its i-th of ndown arcs u > v sorts them
    so in one in-place sort, and its low bits give ``order``.
    """
    for a, b, lo, hi in g._row_blocks(descending=True):
        src = g._sources(a, b)
        down = g.neighbors[lo:hi] < src
        ndown = int(np.count_nonzero(down))
        shift = ndown.bit_length()
        keys = np.left_shift(np.compress(down, g.neighbors[lo:hi]), shift, dtype=np.int64)
        keys += np.arange(ndown - 1, -1, -1)
        keys.sort()
        twin = _claim(cursor, keys >> shift)
        keys &= (1 << shift) - 1
        order = np.subtract(ndown - 1, keys, out=keys)
        yield order, np.compress(down, src).take(order), twin


def _claim(cursor: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``cursor[t] - 1`` less the count of earlier entries equal to t, for each t of the
    ascending ``targets``; each cursor entry then moves down past its target's entries."""
    if not len(targets):
        return targets
    first = np.flatnonzero(np.append(True, targets[1:] != targets[:-1]))
    counts = np.diff(first, append=len(targets))
    out = np.repeat(cursor[targets[first]] + first - 1, counts)
    out -= np.arange(len(targets))
    cursor[targets[first]] -= counts
    return out


def validate_graph(g: Graph) -> None:
    """Check every structural invariant; raises on the first violation."""
    if len(g.offsets) != g.num_nodes + 1:
        raise LengthMismatch("offsets length must be num_nodes + 1")
    if g.offsets[0] != 0 or np.any(np.diff(g.offsets) < 0):
        raise LengthMismatch("offsets must start at 0 and be nondecreasing")
    if g.offsets[-1] != len(g.neighbors):
        raise LengthMismatch("offsets[-1] must equal len(neighbors)")
    if len(g.neighbors) and (g.neighbors.min() < 0 or g.neighbors.max() >= g.num_nodes):
        raise BadId(f"neighbor id out of range for {g.num_nodes} nodes")
    # each neighbor list strictly ascends: sorted, no duplicate; a row's first entry is exempt
    for a, b, lo, hi in g._row_blocks():
        block = g.neighbors[lo:hi]
        ascends = np.empty(hi - lo + 1, dtype=bool)
        np.greater(block[1:], block[:-1], out=ascends[1:-1])
        ascends[g.offsets[a:b + 1] - lo] = True
        if not ascends.all():
            raise LengthMismatch("neighbor lists must be sorted ascending without duplicates")
    if g.undirected:
        check_symmetry(g)
    check_node_fields(g)


def check_node_fields(g: Graph) -> None:
    """Check that features, labels and meta, where given, have one row per node."""
    if g.features is not None:
        if g.features.shape[0] != g.num_nodes:
            raise LengthMismatch("feature rows must equal num_nodes")
        if not np.all(np.isfinite(g.features)):
            raise NonFiniteFeature("features contain NaN or Inf")
    if g.labels is not None and len(g.labels) != g.num_nodes:
        raise LengthMismatch("label array length must equal num_nodes")
    for name in ("year", "sensitive_attr"):
        arr = getattr(g.meta, name)
        if arr is not None and len(arr) != g.num_nodes:
            raise LengthMismatch(f"meta {name} length must equal num_nodes")


def check_symmetry(g: Graph) -> None:
    """Verify the undirected invariant: reverse of every non-loop arc present."""
    arc = _one_way_arc(g)
    if arc is not None:
        u, v = arc
        raise AsymmetricGraph(f"arc ({u},{v}) has no reverse ({v},{u})")


def _one_way_arc(g: Graph) -> tuple[int, int] | None:
    """The smallest arc (u, v), u != v, whose reverse (v, u) is absent, or None.

    ``_twins`` matches the arcs u > v from a cursor at each row's end. If each lands on its
    source and no row is matched past its start, every arc u > v has its reverse. If also
    the entry just before each row's matched ones is at most the row's node, every arc u < v
    was matched, as a row ascends; so every arc has its reverse. Else the keys of every arc
    are built, to name the smallest one-way arc.
    """
    cursor = g.offsets[1:].copy()
    for _, u, twin in _twins(g, cursor):
        if not np.array_equal(g.neighbors.take(twin, mode="clip"), u):
            break
    else:
        rows = np.flatnonzero(cursor > g.offsets[:-1])  # the rows with an unmatched entry
        if np.all(cursor >= g.offsets[:-1]) and np.all(g.neighbors[cursor[rows] - 1] <= rows):
            return None
    fwd, dst = g.arcs()
    rev = np.multiply(dst, g.num_nodes, dtype=np.int64)
    rev += fwd
    rev.sort()
    fwd *= g.num_nodes  # in the arcs() source buffer; CSR order is ascending key order
    fwd += dst
    # rev holds the key of every arc's reverse (a self-loop's is its own), so
    # a key of fwd absent from it is an arc whose reverse is missing
    u, v = divmod(int(np.setdiff1d(fwd, rev, assume_unique=True)[0]), g.num_nodes)
    return u, v


def remove_edges(g: Graph, drop: np.ndarray) -> Graph:
    """The undirected graph without the edges ``drop`` marks; self-loops stay.

    ``drop`` holds one boolean per edge u < v, in ``g.edge_keys()`` order;
    with none set, g itself is returned. Both arcs of an edge share its
    decision, so filtering the CSR keeps it sorted, deduplicated and
    symmetric. Features, labels and meta carry over unchanged.
    """
    if not g.undirected:
        raise DirectedGraph("edge removal requires an undirected graph")
    if not np.any(drop):
        return g
    kept = g._arc_values(~np.asarray(drop, dtype=bool), True)
    return replace(g, offsets=g._kept_offsets(lambda a, b, lo, hi: kept[lo:hi]),
                   neighbors=g.neighbors[kept])


@dataclass
class TripleStore:
    """Knowledge-graph triples (head, relation, tail)."""

    num_entities: int
    num_relations: int
    triples: np.ndarray  # (m, 3) int64

    def validate(self) -> None:
        t = self.triples
        if t.ndim != 2 or t.shape[1] != 3:
            raise LengthMismatch("triples must be an (m, 3) array")
        if len(t):
            for col, n, what in ((0, self.num_entities, "head entity"),
                                 (2, self.num_entities, "tail entity"),
                                 (1, self.num_relations, "relation")):
                if t[:, col].min() < 0 or t[:, col].max() >= n:
                    raise BadId(f"{what} id out of range")
            keys = (t[:, 0] * self.num_relations + t[:, 1]) * self.num_entities + t[:, 2]
            keys.sort()  # a fresh array; np.unique would import numpy.ma on its first call
            if np.any(keys[1:] == keys[:-1]):
                raise LengthMismatch("duplicate triples")


class GraphBlock(Sequence):
    """Many small graphs kept as one block-diagonal CSR, sliced into a Graph on access.

    Graph g's atoms are rows ``ptr[g]..ptr[g+1]-1`` of the block, whose arc
    offsets are ``offsets``; ``neighbors`` holds each arc's head as a local
    atom id of its own graph. Read-only: indexing (negative indices
    included) and iteration build each Graph only when it is asked for.
    """

    def __init__(self, ptr: np.ndarray, offsets: np.ndarray, neighbors: np.ndarray,
                 undirected: bool):
        self.ptr = ptr              # int64, len num_graphs + 1
        self.offsets = offsets      # int64, len ptr[-1] + 1
        self.neighbors = neighbors  # the block's _id_dtype, len offsets[-1], local atom ids
        self.undirected = undirected

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, g) -> Graph:
        g = operator.index(g)
        if g < 0:
            g += len(self)
        if not 0 <= g < len(self):
            raise IndexError("graph index out of range")
        lo, hi = int(self.ptr[g]), int(self.ptr[g + 1])
        a, b = int(self.offsets[lo]), int(self.offsets[hi])
        return Graph(num_nodes=hi - lo, offsets=self.offsets[lo:hi + 1] - a,
                     neighbors=self.neighbors[a:b], undirected=self.undirected)


@dataclass
class GraphCollection:
    """Many small graphs (molecules) with per-graph label rows."""

    graphs: Sequence[Graph]          # a list, or the GraphBlock a load keeps
    labels: np.ndarray               # (num_graphs, num_tasks) int8, -1 = missing
    scaffold_ids: np.ndarray | None = None  # (num_graphs,) int64

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    def validate(self) -> None:
        if len(self.labels) != self.num_graphs:
            raise LengthMismatch("label rows must equal number of graphs")
        if self.scaffold_ids is not None and len(self.scaffold_ids) != self.num_graphs:
            raise LengthMismatch("scaffold ids must cover every graph")


@dataclass
class Dataset:
    """One loaded dataset: exactly one of graph/store/collection is set."""

    kind: str
    name: str
    graph: Graph | None = None
    store: TripleStore | None = None
    collection: GraphCollection | None = None
    split: SplitAssignment | None = None


# ---------------------------------------------------------------------------
# file readers / writers
# ---------------------------------------------------------------------------

def require_file(path) -> Path:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    return path


def read_table(path, dtypes) -> list[np.ndarray]:
    """Columns of a tab-separated text table, one array per entry of ``dtypes``.

    The whole file is parsed by numpy. Blank lines and lines starting with
    ``#`` are skipped; an ``object`` column holds its tokens as str. Raises
    MissingFile for an absent file, and LengthMismatch for a row without
    exactly ``len(dtypes)`` columns or a token its column's dtype cannot parse.
    A first pass counts the line breaks, so numpy allocates the record array
    once and trims it, rather than growing it. The columns are strided views
    of it, not copies, so a caller that keeps only some of them copies those.
    """
    path = require_file(path)
    row = np.dtype([(f"c{i}", dt) for i, dt in enumerate(dtypes)])
    skip = 0  # leading blank and # lines
    with open(path) as f:
        line = f.readline()
        while line.startswith("#") or line == "\n":
            skip += 1
            line = f.readline()
    if not line:  # no data row (np.loadtxt would warn)
        return [np.empty(0, dtype=dt) for dt in dtypes]
    lines = 1  # an unterminated last line; numpy splits at \n, \r\n and a lone \r
    with open(path, "rb") as f:
        while block := f.read(1 << 18):
            lines += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            if cr := np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\r")):
                lines += cr - block.count(b"\r\n")
    try:
        # given the path, not an open file, numpy reads in blocks rather than line by line
        table = np.loadtxt(path, dtype=row, delimiter="\t", comments="#", ndmin=1,
                           skiprows=skip, max_rows=lines - skip)
    except (ValueError, OverflowError) as e:
        raise LengthMismatch(f"{path}: {e}") from e
    return [table[name] for name in row.names]


_WRITE_ROWS = 1 << 14  # rows converted to Python values at once by write_table


def write_table(path, columns, header: str | None = None) -> None:
    """Write equal-length columns as tab-separated rows, after an optional header line.

    Each value is written as str() of its Python value, in blocks of
    ``_WRITE_ROWS`` rows: an ndarray column is converted with ``tolist`` one
    block at a time, and a block is one %-format and one write. Columns of unequal length raise ValueError before the file is opened.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    line = "\t".join(["%s"] * len(columns)) + "\n"
    with open(path, "w") as f:
        if header is not None:
            f.write(header + "\n")
        for lo in range(0, max(lengths, default=0), _WRITE_ROWS):
            block = [c[lo:lo + _WRITE_ROWS] for c in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            f.write((line * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def write_json(path, obj) -> None:
    """Write obj as JSON indented by two spaces, keys sorted, with a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path, required: dict) -> dict:
    """The JSON object a file holds, each key of ``required`` in it and passing that key's
    (test, what a valid value is); else a LengthMismatch naming the file and the key."""
    path = require_file(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise LengthMismatch(f"{path}: does not parse as JSON: {e}") from e
    if not isinstance(doc, dict):
        raise LengthMismatch(f"{path}: must be a JSON object, got {doc!r:.40}")
    for key, (ok, expected) in required.items():
        if key not in doc:
            raise LengthMismatch(f"{path}: lacks the key {key!r}")
        if not ok(doc[key]):
            raise LengthMismatch(f"{path}: {key} must be {expected}, got {doc[key]!r:.40}")
    return doc


def read_header(path, key: str) -> str:
    """The value of a ``key<TAB>value`` first line, such as ``#kind<TAB>KIND``."""
    with open(require_file(path)) as f:
        header = f.readline().rstrip("\n").split("\t")
    if len(header) != 2 or header[0] != key:
        raise LengthMismatch(f"{path}: first line must be '{key}<TAB>VALUE'")
    return header[1]


def _check_ids(path, ids: np.ndarray, n: int, what: str) -> None:
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise BadId(f"{path}: {what} {bad[0]} out of range")


def _read_id_table(path, n: int, what: str, dtypes) -> list[np.ndarray]:
    """read_table of a file whose first column holds ids in [0, n), each on one row at most."""
    ids, *values = read_table(path, (np.int64, *dtypes))
    _check_ids(path, ids, n, what)
    repeated = np.flatnonzero(np.bincount(ids, minlength=n) > 1)
    if len(repeated):
        raise LengthMismatch(f"{path}: {what} {repeated[0]} has more than one row")
    return [ids, *values]


def _dash_ints(path, tokens: np.ndarray, dtype) -> np.ndarray:
    """An integer column in which '-' marks a missing value, read as -1."""
    try:
        return np.where(tokens == "-", -1, tokens).astype(dtype)
    except (ValueError, OverflowError) as e:
        raise LengthMismatch(f"{path}: {e}") from e


def _binary(path, ids: np.ndarray, tokens: np.ndarray, unit: str, what: str) -> np.ndarray:
    """The tokens '0', '1' and '-' (missing) as 0, 1 and -1; BadId names the file, the
    ``unit`` id and the first other token."""
    bad = np.flatnonzero((tokens != "0") & (tokens != "1") & (tokens != "-"))
    if len(bad):
        raise BadId(f"{path}: {unit} {ids[bad[0]]}: {what} {tokens[bad[0]]!r} is not 0, 1 or -")
    return np.where(tokens == "-", -1, tokens == "1")


def _dashed(col: np.ndarray) -> np.ndarray:
    """An object column of col's values, '-' where one is negative: the writing twin of _dash_ints."""
    out = col.astype(object)
    out[col < 0] = "-"
    return out


def read_edge_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    src, dst = read_table(path, (np.int64, np.int64))
    return src, dst


def write_edge_file(path: Path, src: np.ndarray, dst: np.ndarray) -> None:
    write_table(path, (src, dst))


_FEATURE_BLOCK = 1 << 16  # feature values read_feature_file checks at once


def read_feature_file(path: Path, num_nodes: int) -> np.ndarray:
    """The (rows, cols) features of a feature file, as a read-only ``np.memmap`` of its payload.

    One streamed pass checks, in this order, the header, that the payload holds rows x cols
    values, that rows is ``num_nodes``, and that every value is finite, reading
    ``_FEATURE_BLOCK`` values at a time into one reused buffer. No check reads through the
    map, so only a caller that reads the features pages them in. The file must not be
    truncated or rewritten in place while the map is alive; write_feature_file replaces it
    instead.
    """
    require_file(path)
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16 or header[:4] != _FEATURE_MAGIC:
            raise LengthMismatch(f"{path}: bad feature-file header")
        rows, cols, _reserved = struct.unpack("<III", header[4:])
        size = rows * cols
        if os.fstat(f.fileno()).st_size - 16 < 4 * size:
            raise LengthMismatch(f"{path}: payload shorter than declared {rows}x{cols}")
        if rows != num_nodes:
            raise LengthMismatch("feature rows must equal num_nodes")
        buf = np.empty(min(size, _FEATURE_BLOCK), dtype="<f4")
        for lo in range(0, size, _FEATURE_BLOCK):
            block = buf[:min(size - lo, len(buf))]
            if f.readinto(block) != block.nbytes:  # the file shrank since its size was read
                raise LengthMismatch(f"{path}: payload shorter than declared {rows}x{cols}")
            if not np.isfinite(block).all():
                raise NonFiniteFeature("features contain NaN or Inf")
        # mapped from the open file, so the map holds the file that was checked
        return np.memmap(f, dtype="<f4", mode="r", offset=16, shape=(rows, cols))


def write_feature_file(path: Path, features: np.ndarray) -> None:
    """Write a feature file to a temporary file beside ``path``, then rename it over ``path``:
    a dataset whose features map ``path`` keeps its file while they are copied out, so a
    dataset can be saved over its own directory."""
    path = Path(path)
    features = np.ascontiguousarray(features, dtype="<f4")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_FEATURE_MAGIC)
            f.write(struct.pack("<III", features.shape[0], features.shape[1], 0))
            features.tofile(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only if the write failed


def read_label_file(path: Path, num_nodes: int, num_classes: int) -> np.ndarray:
    nodes, values = _read_id_table(path, num_nodes, "node id", (np.int64,))
    _check_ids(path, values, num_classes, "label")
    labels = np.full(num_nodes, num_classes, dtype=np.int64)  # sentinel = unlabeled
    labels[nodes] = values
    return labels


def write_label_file(path: Path, labels: np.ndarray, num_classes: int) -> None:
    nodes = np.flatnonzero(labels != num_classes)
    write_table(path, (nodes, labels[nodes]))


def read_split_file(path: Path, num_units: int) -> SplitAssignment:
    units, names = _read_id_table(path, num_units, "unit id", (object,))
    given = np.full(len(units), -1, dtype=np.int8)
    for name, role in ROLE_BY_NAME.items():
        given[names == name] = int(role)
    if np.any(given < 0):
        raise BadId(f"{path}: unknown role {names[np.argmin(given)]!r}")
    roles = np.full(num_units, int(Role.EXCLUDED), dtype=np.int8)
    roles[units] = given
    return SplitAssignment(roles)


def write_split_file(path: Path, split: SplitAssignment) -> None:
    names = np.array([ROLE_NAMES[role] for role in Role], dtype=object)  # six shared str objects
    write_table(path, (np.arange(split.num_units), names[split.roles]))


def read_meta_file(path: Path, num_nodes: int) -> NodeMeta:
    nodes, years, sens = _read_id_table(path, num_nodes, "node id", (object, object))
    year = np.full(num_nodes, -1, dtype=np.int64)
    year[nodes] = _dash_ints(path, years, np.int64)
    sensitive = np.full(num_nodes, -1, dtype=np.int8)
    sensitive[nodes] = _binary(path, nodes, sens, "node", "sensitive_attr")
    return NodeMeta(
        year=year if np.any(year >= 0) else None,
        sensitive_attr=sensitive if np.any(sensitive >= 0) else None,
    )


def write_meta_file(path: Path, meta: NodeMeta, num_nodes: int) -> None:
    absent = np.full(num_nodes, -1, dtype=np.int64)
    year = absent if meta.year is None else meta.year
    sens = absent if meta.sensitive_attr is None else meta.sensitive_attr
    nodes = np.flatnonzero((year >= 0) | (sens >= 0))
    write_table(path, (nodes, _dashed(year[nodes]), _dashed(sens[nodes])))


def read_triple_file(path: Path) -> np.ndarray:
    return np.stack(read_table(path, (np.int64,) * 3), axis=1)


def write_triple_file(path: Path, triples: np.ndarray) -> None:
    write_table(path, triples.T)


# ---------------------------------------------------------------------------
# manifest loading / saving
# ---------------------------------------------------------------------------

# the keys a manifest of each kind must give
MANIFEST_KEYS = {"node_graph": ("num_nodes", "edge_file"),
                 "triples": ("num_entities", "num_relations", "triple_file"),
                 "graph_collection": ("num_graphs", "graph_size_file", "graph_file",
                                      "graph_label_file")}


def _read_manifest(path: Path) -> dict:
    """The manifest at path, checked before any file it names is read: its kind's keys are
    there, each known key has its type and each non-empty ``*_file`` exists. Its ``name``,
    if not given, is the manifest file's stem."""
    manifest = read_json(path, {"kind": (lambda kind: isinstance(kind, str) and kind in MANIFEST_KEYS,
                                         f"one of {', '.join(MANIFEST_KEYS)}")})
    missing = [key for key in MANIFEST_KEYS[manifest["kind"]] if key not in manifest]
    if missing:
        raise LengthMismatch(f"{path}: lacks the key {missing[0]!r}")
    for key, value in manifest.items():
        if key.startswith("num_") or key == "feature_dim":
            ok, expected = type(value) is int and value >= 0, "a non-negative integer"
        elif key == "name":
            ok, expected = isinstance(value, str), "a string"
        elif key.endswith("_file"):
            ok, expected = isinstance(value, str), "a string"
            if ok and value:
                require_file(path.parent / value)
        elif key == "undirected":
            ok, expected = isinstance(value, bool), "true or false"
        else:
            continue
        if not ok:
            raise LengthMismatch(f"{path}: {key} must be {expected}, got {value!r}")
    manifest.setdefault("name", path.stem)
    return manifest


def load_dataset(manifest_path) -> Dataset:
    """Load and fully validate a dataset declared by a manifest file."""
    manifest_path = Path(manifest_path)
    manifest = _read_manifest(manifest_path)
    base = manifest_path.parent
    kind = manifest["kind"]
    name = manifest["name"]

    if kind == "node_graph":
        num_nodes = manifest["num_nodes"]
        # read_table's columns are views of one record array of (src, dst) pairs, so the keys
        # are written over it from its start, key i into row i // 2. That buffer dies before
        # the graph is validated, and the graph is built before the node files are read
        src, dst = read_edge_file(base / manifest["edge_file"])
        keys = _arc_keys(num_nodes, src, dst, out=np.lib.stride_tricks.as_strided(src, (len(src),), (8,)))
        del src, dst
        graph = Graph._from_keys(num_nodes, keys, undirected=manifest.get("undirected", True))
        del keys
        validate_graph(graph)
        features = None
        if manifest.get("feature_file"):
            features = read_feature_file(base / manifest["feature_file"], num_nodes)
            declared = manifest.get("feature_dim")
            if declared is not None and features.shape[1] != declared:
                raise LengthMismatch("feature_dim does not match feature file")
        labels = None
        num_classes = manifest.get("num_classes", 0)
        if manifest.get("label_file"):
            labels = read_label_file(base / manifest["label_file"], num_nodes, num_classes)
        meta = NodeMeta()
        if manifest.get("meta_file"):
            meta = read_meta_file(base / manifest["meta_file"], num_nodes)
        # each reader checks its field against num_nodes; check_node_fields is not called, as
        # its finiteness test would read the whole feature map that read_feature_file streamed
        graph = replace(graph, features=features, labels=labels, num_classes=num_classes, meta=meta)
        split = None
        if manifest.get("split_file"):
            split = read_split_file(base / manifest["split_file"], num_nodes)
        return Dataset(kind=kind, name=name, graph=graph, split=split)

    if kind == "triples":
        store = TripleStore(
            num_entities=manifest["num_entities"],
            num_relations=manifest["num_relations"],
            triples=read_triple_file(base / manifest["triple_file"]),
        )
        store.validate()
        return Dataset(kind=kind, name=name, store=store)

    return _load_collection(manifest, base, name)


def _load_collection(manifest: dict, base: Path, name: str) -> Dataset:
    num_graphs = manifest["num_graphs"]
    num_tasks = manifest.get("num_tasks", 1)
    sizes = _per_graph(base / manifest["graph_size_file"], num_graphs, "graph size")
    # the arc columns are parsed and freed inside, before the other files are read
    graphs = _collection_graphs(base / manifest["graph_file"], sizes, manifest.get("undirected", True))
    path = base / manifest["graph_label_file"]
    gids, *tasks = _read_id_table(path, num_graphs, "graph id", (object,) * num_tasks)
    labels = np.full((num_graphs, num_tasks), -1, dtype=np.int8)
    for j, tokens in enumerate(tasks):
        labels[gids, j] = _binary(path, gids, tokens, "graph", "task label")
    scaffold_ids = None
    if manifest.get("scaffold_file"):
        scaffold_ids = _per_graph(base / manifest["scaffold_file"], num_graphs, "scaffold id")
    # labels and scaffold ids are num_graphs long by construction, so validate() is not called
    collection = GraphCollection(graphs=graphs, labels=labels, scaffold_ids=scaffold_ids)
    split = None
    if manifest.get("split_file"):
        split = read_split_file(base / manifest["split_file"], num_graphs)
    return Dataset(kind="graph_collection", name=name, collection=collection, split=split)


def _per_graph(path, num_graphs: int, what: str) -> np.ndarray:
    """The non-negative ``what`` of every graph, from ``path``'s graph id rows."""
    gids, values = _read_id_table(path, num_graphs, "graph id", (np.int64,))
    if np.any(values < 0):
        raise BadId(f"{path}: {what} {values[values < 0][0]} is negative")
    out = np.full(num_graphs, -1, dtype=np.int64)
    out[gids] = values
    if np.any(out < 0):
        raise LengthMismatch(f"{path}: {what}s must cover every graph; "
                             f"graph {np.argmax(out < 0)} has no row")
    return out


def _collection_graphs(path, sizes: np.ndarray, undirected: bool) -> GraphBlock:
    """The validated graphs of the arc file ``path`` (rows graph_id, u, v in local atom ids).

    All graphs are built and checked as one block-diagonal CSR in which graph
    g's atoms get the global ids ptr[g]..ptr[g+1]-1. No arc crosses two
    blocks, so sorting, deduplicating and checking the whole arc set does
    the same as doing it per graph. The block is kept as it is, with its
    neighbors turned back into local atom ids. BadId and AsymmetricGraph
    name the graph id and its local atom ids.
    """
    gids, src, dst = read_table(path, (np.int64,) * 3)
    _check_ids(path, gids, len(sizes), "graph id")
    n = sizes[gids]
    bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
    if len(bad):
        i = bad[0]
        atom = src[i] if not 0 <= src[i] < n[i] else dst[i]
        raise BadId(f"{path}: graph {gids[i]}: atom id {atom} out of range for {n[i]} atoms")
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    shift = np.take(ptr, gids, out=n)  # each arc's first global atom id, in n's buffer
    del n, gids
    src += shift  # in the parsed columns: they are not read again
    dst += shift
    del shift
    keys = _arc_keys(int(ptr[-1]), src, dst)
    del src, dst
    block = Graph._from_keys(int(ptr[-1]), keys, undirected=False)
    del keys
    validate_graph(block)
    if undirected:
        arc = _one_way_arc(block)
        if arc is not None:
            g = int(np.searchsorted(ptr, arc[0], side="right")) - 1
            u, v = arc[0] - int(ptr[g]), arc[1] - int(ptr[g])
            raise AsymmetricGraph(f"{path}: graph {g}: arc ({u},{v}) has no reverse ({v},{u})")
    neighbors = block.neighbors
    neighbors -= np.repeat(ptr[:-1], np.diff(block.offsets[ptr]))
    return GraphBlock(ptr, block.offsets, neighbors, undirected)


class _ArcSources:
    """The source of each arc of ``g``, in CSR order, as a column ``write_table`` slices: a
    slice is built from the offsets of the rows it spans, each row clipped to the slice, so
    no array holds a source per arc, nor per arc of a row longer than the slice."""

    def __init__(self, g: Graph):
        self.g = g

    def __len__(self) -> int:
        return self.g.num_arcs

    def __getitem__(self, arcs: slice) -> np.ndarray:
        lo, hi, _ = arcs.indices(len(self))
        offsets = self.g.offsets
        a = int(np.searchsorted(offsets, lo, side="right")) - 1  # the row of arc lo
        b = int(np.searchsorted(offsets, hi))  # rows a..b-1 hold arcs lo..hi-1
        counts = np.diff(np.clip(offsets[a:b + 1], lo, hi))
        return np.repeat(np.arange(a, b, dtype=self.g.neighbors.dtype), counts)


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write a dataset back to disk in the manifest format; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"kind": dataset.kind, "name": dataset.name}

    if dataset.kind == "node_graph":
        g = dataset.graph
        manifest["num_nodes"] = g.num_nodes
        manifest["undirected"] = g.undirected
        manifest["edge_file"] = "edges.tsv"
        write_edge_file(out / "edges.tsv", _ArcSources(g), g.neighbors)
        if g.features is not None:
            manifest["feature_file"] = "features.gsf"
            manifest["feature_dim"] = int(g.features.shape[1])
            write_feature_file(out / "features.gsf", g.features)
        if g.labels is not None:
            manifest["label_file"] = "labels.tsv"
            manifest["num_classes"] = g.num_classes
            write_label_file(out / "labels.tsv", g.labels, g.num_classes)
        if g.meta.year is not None or g.meta.sensitive_attr is not None:
            manifest["meta_file"] = "meta.tsv"
            write_meta_file(out / "meta.tsv", g.meta, g.num_nodes)
    elif dataset.kind == "triples":
        manifest["num_entities"] = dataset.store.num_entities
        manifest["num_relations"] = dataset.store.num_relations
        manifest["triple_file"] = "triples.tsv"
        write_triple_file(out / "triples.tsv", dataset.store.triples)
    else:  # graph_collection
        coll = dataset.collection
        manifest["num_graphs"] = coll.num_graphs
        manifest["num_tasks"] = int(coll.labels.shape[1])
        graphs = list(coll.graphs)  # a loaded collection's block builds each graph on access
        manifest["undirected"] = all(g.undirected for g in graphs)
        manifest["graph_size_file"] = "graph_sizes.tsv"
        manifest["graph_file"] = "graph_edges.tsv"
        manifest["graph_label_file"] = "graph_labels.tsv"
        write_table(out / "graph_sizes.tsv",
                    (np.arange(coll.num_graphs), [g.num_nodes for g in graphs]))
        arcs = [g.arcs() for g in graphs] or [(np.empty(0, np.int64),) * 2]
        write_table(out / "graph_edges.tsv", (
            np.repeat(np.arange(coll.num_graphs), [g.num_arcs for g in graphs]),
            np.concatenate([src for src, _ in arcs]), np.concatenate([dst for _, dst in arcs])))
        write_table(out / "graph_labels.tsv",
                    (np.arange(coll.num_graphs), *(_dashed(task) for task in coll.labels.T)))
        if coll.scaffold_ids is not None:
            manifest["scaffold_file"] = "scaffolds.tsv"
            write_table(out / "scaffolds.tsv", (np.arange(coll.num_graphs), coll.scaffold_ids))

    if dataset.split is not None:
        manifest["split_file"] = "split.tsv"
        write_split_file(out / "split.tsv", dataset.split)

    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path

