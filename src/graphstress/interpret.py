"""Attribution-fidelity protocol.

The toolkit never computes gradients itself. The exchange with the external
model is a batch file round trip:

1. ``emit``: from a per-node saliency file, build one ablation manifest per
   evaluation target. A manifest fixes the K-hop subgraph and, for every
   (ranking, sparsity) condition, the exact masked edge set and its
   complement.
2. The external model re-scores each masked condition and writes one
   predicted-class probability per (target, condition).
3. ``score``: combine those probabilities into Fid+/Fid- and the bounded
   characterization score, then lift against the random-ranking baseline.

There is one mask-unit kind: the edges of a node target's receptive field.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .determinism import StreamKey, permutation
from .errors import (
    BadProbability,
    DirectedGraph,
    EmptySubgraph,
    LengthMismatch,
    MissingNodeScore,
    SeedCountMismatch,
)
from .graph_store import Graph, read_header, read_table, remove_edges, require_file, write_table
from .metrics import lookup_rows, unit_order
from .refmodel import reach
from .report import MetricCell

K_PERCENT_LEVELS = (5, 10, 20, 50)
RANKINGS = ("saliency", "random")


@dataclass
class SaliencyTable:
    """Nonnegative per-unit attribution scores from an external model."""

    kind: str  # e.g. node_grad_norm
    unit_ids: np.ndarray
    scores: np.ndarray
    source: str = "saliency table"  # the file it was read from, named in errors
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.unit_ids) != len(self.scores):
            raise LengthMismatch("one score per unit id required")
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise BadProbability("saliency scores must be finite and nonnegative")
        self._order = unit_order(self.unit_ids, self.source)

    def scores_for(self, units: np.ndarray) -> np.ndarray:
        rows = lookup_rows(self.unit_ids, self._order, units,
                           lambda u: MissingNodeScore(f"no saliency score for unit {u}"))
        return self.scores[rows]


def edge_saliency_from_node_grads(node_scores: SaliencyTable, edges: np.ndarray) -> np.ndarray:
    """Edge score = endpoint score sum."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return node_scores.scores_for(edges[:, 0]) + node_scores.scores_for(edges[:, 1])


def mask_count(k_percent: float, m: int) -> int:
    """Units to mask at sparsity k%: ceil with a floor of one."""
    return max(1, math.ceil(k_percent * m / 100.0))


def rank_and_mask(edge_scores: np.ndarray, k_percent: float, key: StreamKey,
                  ranking: str) -> tuple[np.ndarray, np.ndarray]:
    """Split unit indices into (masked, complement) under one ranking."""
    return _split(_mask_order(edge_scores, key, ranking), k_percent)


def _mask_order(edge_scores: np.ndarray, key: StreamKey, ranking: str) -> np.ndarray:
    """Unit indices in the order a ranking masks them, the same at every sparsity.

    saliency: descending score, canonical order breaking ties. random: one
    deterministic shuffle per key; every sparsity level takes a prefix of the
    same shuffle, so masked sets nest across k.
    """
    edge_scores = np.asarray(edge_scores, dtype=np.float64)
    if ranking == "random":
        return permutation(key, len(edge_scores))
    return np.lexsort((np.arange(len(edge_scores)), -edge_scores))


def _split(order: np.ndarray, k_percent: float) -> tuple[np.ndarray, np.ndarray]:
    # the first mask_count units of the order are masked, the rest its complement
    k = mask_count(k_percent, len(order))
    return np.sort(order[:k]), np.sort(order[k:])


@dataclass(frozen=True)
class FidelityRecord:
    """Raw and combined fidelity for one (target, condition) pair."""

    fid_plus: float   # p0 - p_plus, raw (may be negative)
    fid_minus: float  # p0 - p_minus, raw
    char: float       # bounded combination in [0, 1]


def fidelity(p0: float, p_plus: float, p_minus: float) -> FidelityRecord:
    """Combine masked-probability drops into the bounded characterization score.

    char = 2ab / (a + b + 1e-8) with a = clamp(Fid+, 0, 1) and
    b = clamp(1 - Fid-, 0, 1). Raw Fid values are kept unclamped.
    """
    for name, p in (("p0", p0), ("p_plus", p_plus), ("p_minus", p_minus)):
        if not (0.0 <= p <= 1.0):
            raise BadProbability(f"{name}={p} outside [0, 1]")
    fid_plus = p0 - p_plus
    fid_minus = p0 - p_minus
    a = min(1.0, max(0.0, fid_plus))
    b = min(1.0, max(0.0, 1.0 - fid_minus))
    char = 2.0 * a * b / (a + b + 1e-8)
    return FidelityRecord(fid_plus=fid_plus, fid_minus=fid_minus, char=char)


def char_lift(char_sal: MetricCell, char_rand: MetricCell) -> MetricCell:
    """Saliency-over-random lift with error propagation sqrt(s1^2 + s2^2)."""
    if char_sal.undefined or char_rand.undefined:
        return MetricCell.undef(max(char_sal.n, char_rand.n))
    if char_sal.n != char_rand.n:
        raise SeedCountMismatch(
            f"lift needs equal seed counts, got {char_sal.n} vs {char_rand.n}")
    return MetricCell(
        mean=char_sal.mean - char_rand.mean,
        std=math.sqrt(char_sal.std ** 2 + char_rand.std ** 2),
        n=char_sal.n,
    )


@dataclass
class TargetManifest:
    """Everything an external model needs to re-score one target.

    Conditions map to indices into ``edges``.
    """

    target: int
    nodes: np.ndarray
    edges: np.ndarray            # (m, 2) canonical
    conditions: dict[str, np.ndarray]  # condition name -> masked edge indices


def condition_name(ranking: str, side: str, k_percent: float) -> str:
    # side is "top" (masked = ranked units) or "comp" (masked = complement)
    k = int(k_percent) if float(k_percent).is_integer() else k_percent
    return f"{ranking}_{side}_{k}"


def build_edge_manifest(graph: Graph, target: int, node_scores: SaliencyTable,
                        key: StreamKey, hops: int, k_levels) -> TargetManifest:
    """Edge-masking manifest for one node-level target.

    The receptive field is ``refmodel.reach(graph, target, hops)``, the nodes the
    propagation walks, and the edges among them, listed canonically (u < v) in
    ``induced(nodes).edge_keys()`` order; self-loops never enter the maskable edge
    set. Raises DirectedGraph on a directed graph and EmptySubgraph when the field
    has no maskable edge; the caller skips and logs the latter targets.
    """
    if not graph.undirected:
        raise DirectedGraph("edge masking needs an undirected graph: a one-way arc is no edge")
    nodes = reach(graph, target, hops)
    edges = nodes[np.stack(np.divmod(graph.induced(nodes).edge_keys(), len(nodes)), axis=1)]
    if len(edges) == 0:
        raise EmptySubgraph(f"target {target}: receptive field has no edges")
    scores = edge_saliency_from_node_grads(node_scores, edges)
    conditions: dict[str, np.ndarray] = {}
    for ranking in RANKINGS:
        order = _mask_order(scores, key, ranking)
        for k in k_levels:
            masked, comp = _split(order, k)
            conditions[condition_name(ranking, "top", k)] = masked
            conditions[condition_name(ranking, "comp", k)] = comp
    return TargetManifest(target=int(target), nodes=nodes, edges=edges, conditions=conditions)


def masked_graph(graph: Graph, manifest: TargetManifest, condition: str) -> Graph:
    """The graph under one masking condition.

    Filters both arcs of every masked edge out of the full graph's CSR with
    ``graph_store.remove_edges``, the filter edge deletion uses too.

    This is the full-graph reference an external model re-scores. The
    built-in model reaches the same probabilities on the far smaller
    ``graph.induced(manifest.nodes)``, scoring every condition of a target
    at once as nested edge levels (``cli._refmodel_probs``).
    """
    rows = manifest.edges[manifest.conditions[condition]]
    drop = np.isin(graph.edge_keys(), rows[:, 0] * graph.num_nodes + rows[:, 1])
    return remove_edges(graph, drop)


# ---------------------------------------------------------------------------
# manifest and probability files
# ---------------------------------------------------------------------------

def write_manifest_file(path, manifest: TargetManifest) -> None:
    """One target per file: header, node list, edge rows, condition rows."""
    with open(path, "w") as f:
        f.write(f"target\t{manifest.target}\n")
        f.write("unit_kind\tedge\n")
        f.write("nodes\t" + " ".join(map(str, manifest.nodes.tolist())) + "\n")
        for u, v in manifest.edges.tolist():
            f.write(f"edge\t{u}\t{v}\n")
        for name in sorted(manifest.conditions):
            ids = " ".join(map(str, manifest.conditions[name].tolist()))
            f.write(f"condition\t{name}\t{ids}\n")


def read_manifest_file(path) -> TargetManifest:
    target = None
    unit_kind = None
    nodes = np.empty(0, dtype=np.int64)
    edges = []
    conditions: dict[str, np.ndarray] = {}
    with open(require_file(path)) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            try:
                if parts[0] == "target":
                    target = int(parts[1])
                elif parts[0] == "unit_kind":
                    unit_kind = parts[1]
                elif parts[0] == "nodes":
                    nodes = np.array([int(x) for x in parts[1].split()], dtype=np.int64)
                elif parts[0] == "edge":
                    edges.append((int(parts[1]), int(parts[2])))
                elif parts[0] == "condition":
                    ids = parts[2].split() if len(parts) > 2 else []
                    conditions[parts[1]] = np.array([int(x) for x in ids], dtype=np.int64)
            except (ValueError, IndexError):
                raise LengthMismatch(
                    f"{path}: line {lineno}: cannot parse {line.rstrip()!r}") from None
    if target is None or unit_kind is None:
        raise LengthMismatch(f"{path}: incomplete manifest")
    if unit_kind != "edge":
        raise LengthMismatch(f"{path}: unit_kind must be 'edge', got {unit_kind!r}")
    return TargetManifest(target=target, nodes=nodes,
                          edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
                          conditions=conditions)


def read_saliency_file(path) -> SaliencyTable:
    """Text format: header ``#kind<TAB>KIND`` then ``unit_id<TAB>score`` rows."""
    kind = read_header(path, "#kind")
    ids, scores = read_table(path, (np.int64, np.float64))
    return SaliencyTable(kind=kind, unit_ids=ids, scores=scores, source=str(path))


def write_saliency_file(path, table: SaliencyTable) -> None:
    write_table(path, (table.unit_ids, table.scores), header=f"#kind\t{table.kind}")


def read_probs_file(path) -> dict[tuple[int, str], float]:
    """Rows ``target_id<TAB>condition<TAB>prob`` from the external model, one per key."""
    targets, conditions, probs = read_table(path, (np.int64, object, np.float64))
    keys = list(zip(targets.tolist(), conditions.tolist()))
    table = dict(zip(keys, probs.tolist()))
    if len(table) < len(keys):
        (t, c), _ = Counter(keys).most_common(1)[0]
        raise LengthMismatch(f"{path}: target {t}, condition {c} has more than one row")
    return table


def write_probs_file(path, probs: dict[tuple[int, str], float]) -> None:
    keys = sorted(probs)
    write_table(path, ([t for t, _ in keys], [c for _, c in keys], [float(probs[k]) for k in keys]))
