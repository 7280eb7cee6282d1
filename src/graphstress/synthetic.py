"""Deterministic synthetic datasets for demos, smoke runs and tests.

All randomness is counter-addressed, so a (name, seed) pair always produces
the identical dataset, byte for byte, on any machine.
"""

from __future__ import annotations

import numpy as np

from .determinism import derive_key, gaussian, permutation, uniform
from .graph_store import (
    Dataset,
    Graph,
    GraphCollection,
    NodeMeta,
    Role,
    SplitAssignment,
    TripleStore,
)


def make_node_dataset(name: str = "synth1k", num_nodes: int = 1000, num_classes: int = 4,
                      feature_dim: int = 16, seed: int = 0) -> Dataset:
    """Community-structured labeled graph with skewed degrees and node metadata.

    Labels follow planted communities; features are Gaussian blobs around
    per-class means, so label propagation performs well above chance and
    degrades under corruption. Low node ids act as hubs, giving the degree
    distribution a heavy head for the structural-fairness and degree-shift
    protocols. Metadata carries years (2000-2019) and a binary sensitive
    attribute; the split is a random 60/20/20 train/val/test.
    """
    k_lab = derive_key("synthetic", name, "labels", 0, seed)
    k_feat = derive_key("synthetic", name, "features", 0, seed)
    k_edge = derive_key("synthetic", name, "edges", 0, seed)
    k_meta = derive_key("synthetic", name, "meta", 0, seed)
    k_split = derive_key("synthetic", name, "split", 0, seed)

    nodes = np.arange(num_nodes, dtype=np.int64)
    labels = np.minimum((uniform(k_lab, nodes) * num_classes).astype(np.int64),
                        num_classes - 1)

    # features: one blob per class, unit noise, mean separation 2.0
    means = np.zeros((num_classes, feature_dim))
    for c in range(num_classes):
        means[c, c % feature_dim] = 2.0
        means[c, (c + 1) % feature_dim] = -1.0
    noise = gaussian(k_feat, np.arange(num_nodes * feature_dim, dtype=np.int64))
    features = (means[labels] + noise.reshape(num_nodes, feature_dim)).astype(np.float32)

    # edges: 3 intra-class partners + 2 hub-biased global partners per node
    draws = uniform(k_edge, np.arange(num_nodes * 5, dtype=np.int64)).reshape(num_nodes, 5)
    by_class = np.argsort(labels, kind="stable")  # each class's members in ascending id order
    class_size = np.bincount(labels, minlength=num_classes)
    size = class_size[labels][:, None]
    first = (np.cumsum(class_size) - class_size)[labels][:, None]
    mates = by_class[first + (draws[:, :3] * size).astype(np.int64) % size]
    # squaring the uniform biases the partner toward low ids (hubs)
    hubs = (draws[:, 3:] ** 2 * num_nodes).astype(np.int64) % num_nodes
    partners = np.concatenate([mates, hubs], axis=1)
    keep = partners != nodes[:, None]  # a node drawn as its own partner adds no arc
    src, dst = np.broadcast_to(nodes[:, None], partners.shape)[keep], partners[keep]
    meta = NodeMeta(
        year=(2000 + (uniform(k_meta, nodes) * 20).astype(np.int64)).clip(2000, 2019),
        sensitive_attr=(uniform(k_meta, nodes + num_nodes) < 0.5).astype(np.int8),
    )
    graph = Graph.from_arcs(
        num_nodes, src, dst, undirected=True,
        symmetrize=True, features=features, labels=labels,
        num_classes=num_classes, meta=meta,
    )
    order = permutation(k_split, num_nodes)
    roles = np.full(num_nodes, int(Role.TEST), dtype=np.int8)
    n_train, n_val = int(0.6 * num_nodes), int(0.2 * num_nodes)
    roles[order[:n_train]] = int(Role.TRAIN)
    roles[order[n_train:n_train + n_val]] = int(Role.VAL)
    return Dataset(kind="node_graph", name=name, graph=graph,
                   split=SplitAssignment(roles))


def make_molecule_collection(name: str = "synthmol", num_graphs: int = 60,
                             seed: int = 0) -> Dataset:
    """Small ring-with-tail molecules grouped into scaffold families.

    A molecule is a ring of r atoms with a tail of t atoms. Its scaffold id
    is drawn from max(1, num_graphs // 4) ids, about four molecules per
    scaffold, by draws placed after the ring and tail draws. The binary
    label marks large rings, which a structure-aware scorer can recover.
    """
    k = derive_key("synthetic", name, "molecules", 0, seed)
    draws = uniform(k, np.arange(num_graphs * 3, dtype=np.int64))
    num_scaffolds = max(1, num_graphs // 4)
    scaffolds = (draws[2 * num_graphs:] * num_scaffolds).astype(np.int64)
    graphs, labels = [], []
    for g in range(num_graphs):
        ring = 3 + int(draws[2 * g] * 6)        # 3..8 atoms in the ring
        tail = 1 + int(draws[2 * g + 1] * 4)    # 1..4 tail atoms
        n = ring + tail
        src = list(range(ring)) + list(range(ring - 1, n - 1))
        dst = [(i + 1) % ring for i in range(ring)] + list(range(ring, n))
        graphs.append(Graph.from_arcs(n, np.array(src), np.array(dst),
                                      undirected=True, symmetrize=True))
        labels.append(1 if ring >= 6 else 0)
    collection = GraphCollection(
        graphs=graphs,
        labels=np.array(labels, dtype=np.int8).reshape(-1, 1),
        scaffold_ids=scaffolds,
    )
    collection.validate()
    return Dataset(kind="graph_collection", name=name, collection=collection)


def make_triple_store(name: str = "synthkg", num_entities: int = 200,
                      num_relations: int = 5, num_triples: int = 600,
                      seed: int = 0) -> Dataset:
    """Random knowledge graph without duplicate triples."""
    k = derive_key("synthetic", name, "triples", 0, seed)
    idx = np.arange(num_triples * 3, dtype=np.int64)
    draws = uniform(k, idx).reshape(num_triples, 3)
    heads = (draws[:, 0] * num_entities).astype(np.int64) % num_entities
    rels = (draws[:, 1] * num_relations).astype(np.int64) % num_relations
    tails = (draws[:, 2] * num_entities).astype(np.int64) % num_entities
    triples = np.column_stack([heads, rels, tails])
    keys = (triples[:, 0] * num_relations + triples[:, 1]) * num_entities + triples[:, 2]
    _, first = np.unique(keys, return_index=True)
    store = TripleStore(num_entities=num_entities, num_relations=num_relations,
                        triples=triples[np.sort(first)])
    store.validate()
    return Dataset(kind="triples", name=name, store=store)
