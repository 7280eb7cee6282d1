"""Independent brute-force reference implementations used by the tests.

Everything here is written the slow, obvious way (loops, dicts, full sorts)
so test failures point at the production code, not at a shared bug.
"""

from __future__ import annotations

import numpy as np


def confusion_matrix(true, predicted, num_classes):
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true, predicted):
        cm[t, p] += 1
    return cm


def accuracy_oracle(true, predicted):
    correct = sum(1 for t, p in zip(true, predicted) if t == p)
    return correct / len(true)


def recall_oracle(true, predicted, num_classes):
    cm = confusion_matrix(true, predicted, num_classes)
    out = []
    for c in range(num_classes):
        support = cm[c].sum()
        out.append(np.nan if support == 0 else cm[c, c] / support)
    return np.array(out)


def macro_f1_oracle(true, predicted, num_classes):
    cm = confusion_matrix(true, predicted, num_classes)
    f1s = []
    for c in range(num_classes):
        support = cm[c].sum()
        if support == 0:
            continue
        tp = cm[c, c]
        predicted_c = cm[:, c].sum()
        precision = tp / predicted_c if predicted_c else 0.0
        recall = tp / support
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        f1s.append(f1)
    return float(np.mean(f1s))


def auc_pairwise_oracle(scores, labels):
    """O(n^2) Mann-Whitney: P(s+ > s-) + P(s+ = s-)/2 over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def rank_oracle(scores, true_index):
    """Average-tie rank via full sort: mean of best and worst possible rank."""
    s = scores[true_index]
    better = sum(1 for x in scores if x > s)
    equal = sum(1 for x in scores if x == s)
    best = better + 1
    worst = better + equal
    return (best + worst) / 2.0


def scaffold_split_oracle(scaffold_ids, visit_order, ratios=(0.8, 0.1, 0.1)):
    """Roles of the greedy scaffold split, one group at a time.

    ``visit_order`` indexes the sorted distinct scaffold ids: the order in
    which whole groups fill train, then val, then test.
    """
    groups = sorted(set(scaffold_ids))
    n = len(scaffold_ids)
    roles = [2] * n  # TEST
    assigned = 0
    for g in visit_order:
        members = [i for i, s in enumerate(scaffold_ids) if s == groups[g]]
        if assigned < ratios[0] * n:
            for i in members:
                roles[i] = 0  # TRAIN
        elif assigned < (ratios[0] + ratios[1]) * n:
            for i in members:
                roles[i] = 1  # VAL
        assigned += len(members)
    return roles


def bfs_hops_oracle(adjacency, center, hops):
    """Plain BFS; adjacency is a dict node -> iterable of neighbors."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, hops + 1):
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return set(dist)


def neighbors_of(graph, node):
    """The CSR row of node: its neighbor ids, sorted."""
    return graph.neighbors[graph.offsets[node]:graph.offsets[node + 1]]


def csr_oracle(num_nodes, pairs):
    """(offsets, neighbors) of the CSR holding each distinct (u, v) of pairs once, rows sorted."""
    arcs = sorted(set(pairs))
    offsets = [0] * (num_nodes + 1)
    for u, _ in arcs:
        offsets[u + 1] += 1
    for u in range(num_nodes):
        offsets[u + 1] += offsets[u]
    return offsets, [v for _, v in arcs]


def rows_ascend_oracle(graph):
    """Whether every CSR row lists distinct neighbors in ascending order, row by row."""
    return all(neighbors_of(graph, u).tolist() == sorted(set(neighbors_of(graph, u).tolist()))
               for u in range(graph.num_nodes))


def one_way_arc_oracle(graph):
    """The smallest arc (u, v), u != v, whose reverse (v, u) is absent, via a set; or None."""
    arcs = {(u, v) for u in range(graph.num_nodes) for v in neighbors_of(graph, u).tolist()}
    return min(((u, v) for u, v in arcs if u != v and (v, u) not in arcs), default=None)


def induced_arcs_oracle(graph, nodes):
    """Arcs with both ends in ``nodes``, as sorted (i, j) positions in ``nodes``."""
    position = {u: i for i, u in enumerate(nodes)}
    return sorted((position[u], position[v]) for u in nodes
                  for v in neighbors_of(graph, u).tolist() if v in position)


def reachability_oracle(adjacency, hops):
    """Set of (i, j), j != i, with j within `hops` hops of i, by one BFS per node."""
    return {(i, j) for i in adjacency for j in bfs_hops_oracle(adjacency, i, hops) if j != i}


def propagation_oracle(adjacency, train_labels, num_classes, hops, alpha, node):
    """Reference row for the propagation scorer, via bfs_hops_oracle."""
    reachable = bfs_hops_oracle(adjacency, node, hops) - {node}
    counts = np.full(num_classes, alpha, dtype=np.float64)
    for v in reachable:
        label = train_labels[v]
        if 0 <= label < num_classes:
            counts[label] += 1.0
    return counts / counts.sum()


def two_pass_std_oracle(values):
    """Sample std, two-pass formula."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return var ** 0.5


def manifest_complement(manifest, condition):
    """Edge indices of a manifest that a condition leaves unmasked."""
    return np.setdiff1d(np.arange(len(manifest.edges), dtype=np.int64),
                        manifest.conditions[condition])


def canonical_edges_oracle(graph):
    """(sorted (u, v) pairs with u < v, sorted self-loop nodes) of an undirected graph, via sets."""
    pairs, loops = set(), set()
    for u in range(graph.num_nodes):
        for v in neighbors_of(graph, u).tolist():
            if u == v:
                loops.add(u)
            else:
                pairs.add((min(u, v), max(u, v)))
    return sorted(pairs), sorted(loops)


def adjacency_from_graph(graph):
    return {u: neighbors_of(graph, u).tolist() for u in range(graph.num_nodes)}


def table_text_oracle(columns, header=None):
    """write_table's text: the header line, then per row its values' str() joined by tabs."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [] if header is None else [header + "\n"]
    for row in zip(*columns):
        lines.append("\t".join(map(str, row)) + "\n")
    return "".join(lines)


def table_read_oracle(path, dtypes):
    """The columns of one np.loadtxt call that sizes its record array as it reads."""
    row = np.dtype([(f"c{i}", dt) for i, dt in enumerate(dtypes)])
    table = np.loadtxt(path, dtype=row, delimiter="\t", comments="#", ndmin=1)
    return [table[name] for name in row.names]


def node_dataset_arcs_oracle(labels, draws):
    """(src, dst) lists of make_node_dataset's arcs, drawn node by node from its uniform draws.

    Node u takes draws[5u:5u+5]: three pick a member of u's class (ascending
    ids) and two a hub-biased id; a partner equal to u is dropped.
    """
    num_nodes = len(labels)
    by_class = {}
    for u in range(num_nodes):
        by_class.setdefault(int(labels[u]), []).append(u)
    src_list, dst_list = [], []
    draw_idx = 0
    for u in range(num_nodes):
        members = by_class[int(labels[u])]
        for _ in range(3):
            v = int(members[int(draws[draw_idx] * len(members)) % len(members)])
            draw_idx += 1
            if v != u:
                src_list.append(u)
                dst_list.append(v)
        for _ in range(2):
            v = int((draws[draw_idx] ** 2) * num_nodes) % num_nodes
            draw_idx += 1
            if v != u:
                src_list.append(u)
                dst_list.append(v)
    return src_list, dst_list


def node_features_oracle(labels, num_classes, noise):
    """make_node_dataset's features by the whole-array formula: per class a mean of 2.0 at
    dimension c and -1.0 at c + 1 (mod the width), plus the (num_nodes, width) float64
    ``noise``, summed in float64 and cast to float32."""
    means = np.zeros((num_classes, noise.shape[1]))
    for c in range(num_classes):
        means[c, c % noise.shape[1]] = 2.0
        means[c, (c + 1) % noise.shape[1]] = -1.0
    return (means[labels] + noise).astype(np.float32)


def feature_file_oracle(path, num_nodes):
    """A feature file's (rows, cols) float32 array from one whole read of the file, or the
    (error class name, message) of its first fault: a header that is short or lacks the magic
    ``GSFH``, a payload shorter than rows x cols values, rows other than ``num_nodes``, then a
    NaN or an infinity."""
    data = path.read_bytes()
    if len(data) < 16 or data[:4] != b"GSFH":
        return "LengthMismatch", f"{path}: bad feature-file header"
    rows = int.from_bytes(data[4:8], "little")
    cols = int.from_bytes(data[8:12], "little")
    if len(data) - 16 < 4 * rows * cols:
        return "LengthMismatch", f"{path}: payload shorter than declared {rows}x{cols}"
    if rows != num_nodes:
        return "LengthMismatch", "feature rows must equal num_nodes"
    values = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=16).reshape(rows, cols)
    for row in values:
        for value in row:
            if value != value or value in (float("inf"), float("-inf")):
                return "NonFiniteFeature", "features contain NaN or Inf"
    return values


class _Fault(Exception):
    """(error class name, message) of a reader's error, raised inside the wide-parse oracles."""


def _wide_columns(path, dtypes):
    """One np.loadtxt of ``path`` with every integer column int64 and every token column
    object (str): the readers' parse before narrow types."""
    import warnings

    row = np.dtype([(f"c{i}", dt) for i, dt in enumerate(dtypes)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns of a file without data rows
            table = np.loadtxt(path, dtype=row, delimiter="\t", comments="#", ndmin=1)
    except (ValueError, OverflowError) as e:
        raise _Fault("LengthMismatch", f"{path}: {e}") from e
    return [table[name] for name in row.names]


def _wide_ids(path, n, what, dtypes):
    ids, *values = _wide_columns(path, (np.int64, *dtypes))
    for i in ids.tolist():
        if not 0 <= i < n:
            raise _Fault("BadId", f"{path}: {what} {i} out of range")
    counts = {}
    for i in ids.tolist():
        counts[i] = counts.get(i, 0) + 1
    repeated = sorted(i for i, c in counts.items() if c > 1)
    if repeated:
        raise _Fault("LengthMismatch", f"{path}: {what} {repeated[0]} has more than one row")
    return ids.tolist(), values


def _wide_flags(path, ids, tokens, unit, what):
    out = []
    for i, token in zip(ids, tokens.tolist()):
        if token not in ("0", "1", "-"):
            raise _Fault("BadId", f"{path}: {unit} {i}: {what} {token!r} is not 0, 1 or -")
        out.append(-1 if token == "-" else int(token))
    return out


def _wide_label(path, n, num_classes):
    nodes, (values,) = _wide_ids(path, n, "node id", (np.int64,))
    for v in values.tolist():
        if not 0 <= v < num_classes:
            raise _Fault("BadId", f"{path}: label {v} out of range")
    labels = [num_classes] * n
    for u, v in zip(nodes, values.tolist()):
        labels[u] = v
    return labels


def _wide_split(path, n, _):
    names = ["train", "val", "test", "ood_val", "ood_test", "excluded"]
    units, (tokens,) = _wide_ids(path, n, "unit id", (object,))
    roles = [names.index("excluded")] * n
    for u, token in zip(units, tokens.tolist()):
        if token not in names:
            raise _Fault("BadId", f"{path}: unknown role {token!r}")
        roles[u] = names.index(token)
    return roles


def _wide_meta(path, n, _):
    nodes, (years, sens) = _wide_ids(path, n, "node id", (object, object))
    try:  # the cast the readers made: Python's int() of each str token
        years = np.where(years == "-", -1, years).astype(np.int64).tolist()
    except (ValueError, OverflowError) as e:
        raise _Fault("LengthMismatch", f"{path}: {e}") from e
    sens = _wide_flags(path, nodes, sens, "node", "sensitive_attr")
    year, flag = [-1] * n, [-1] * n
    for u, y, s in zip(nodes, years, sens):
        year[u], flag[u] = y, s
    return (year if max(year, default=-1) >= 0 else None,
            flag if max(flag, default=-1) >= 0 else None)


def _wide_graph_labels(path, n, num_tasks):
    gids, tasks = _wide_ids(path, n, "graph id", (object,) * num_tasks)
    labels = [[-1] * num_tasks for _ in range(n)]
    for j, tokens in enumerate(tasks):
        for g, v in zip(gids, _wide_flags(path, gids, tokens, "graph", "task label")):
            labels[g][j] = v
    return labels


def _wide_ranking(path, *_):
    queries, cands, scores = _wide_columns(path, (np.int64, np.int64, np.float64))
    for i in range(len(scores)):
        if not np.isfinite(scores[i]):
            raise _Fault("BadProbability", f"{path}: data row {i + 1} (query {queries[i]}, "
                                           f"candidate {cands[i]}) has non-finite score {scores[i]}")
    return [queries.tolist(), cands.tolist(), scores.tolist()]


_WIDE_READERS = {
    "edge": lambda path, *_: [c.tolist() for c in _wide_columns(path, (np.int64, np.int64))],
    "label": _wide_label,
    "split": _wide_split,
    "meta": _wide_meta,
    "graph_label": _wide_graph_labels,
    "ranking": _wide_ranking,
}


def wide_reader_oracle(kind, path, n, extra=None):
    """What the reader of a ``kind`` file returned when every id column was parsed as int64
    and every token column as str objects, as plain lists, or the (error class name,
    message) it raised. ``n`` is the id count (nodes, units or graphs) and ``extra`` the
    class count of a label file or the task count of a graph-label file."""
    try:
        return _WIDE_READERS[kind](path, n, extra)
    except _Fault as fault:
        return fault.args
