"""Split constructors for the four distribution-shift mechanisms.

Each constructor returns a SplitAssignment (or a KgInductiveSplit for the
knowledge-graph case). Split construction uses counter-addressed randomness
where the protocol needs a shuffle, so the same (inputs, key) always yields
the same partition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .determinism import StreamKey, permutation
from .errors import EmptyLabeledSet, MissingScaffoldId, MissingYear, ScaleMismatch
from .graph_store import Graph, Role, SplitAssignment, TripleStore

log = logging.getLogger("graphstress")

HEAD_CORRUPT = 0  # query hides the head entity
TAIL_CORRUPT = 1  # query hides the tail entity


@dataclass
class KgInductiveSplit:
    """Entity-inductive link-prediction split.

    test_queries rows are (head, relation, tail, direction) with direction
    HEAD_CORRUPT when the held-out candidate is the head entity and
    TAIL_CORRUPT when it is the tail. Candidates for every query are all
    entities.
    """

    train_triples: np.ndarray   # (m, 3) int64
    test_queries: np.ndarray    # (q, 4) int64
    train_entities: np.ndarray  # int64
    test_entities: np.ndarray   # int64
    num_discarded: int = 0      # triples with both endpoints held out

    def held_out_entity(self, query_row: np.ndarray) -> int:
        h, _, t, direction = query_row
        return int(h) if direction == HEAD_CORRUPT else int(t)


def degree_shift_split(graph: Graph, labeled: np.ndarray) -> SplitAssignment:
    """Train on the best-connected labeled nodes, evaluate on the sparsest.

    Labeled nodes sort descending by degree with ascending node id breaking
    ties; the first floor(0.6 n) become train, the next floor(0.2 n) ood_val,
    the remainder ood_test. Unlabeled nodes are excluded.
    """
    labeled = np.asarray(labeled, dtype=np.int64)
    if len(labeled) == 0:
        raise EmptyLabeledSet("degree shift split needs labeled nodes")
    deg = graph.degrees()[labeled]
    order = labeled[np.lexsort((labeled, -deg))]
    n = len(order)
    n_train, n_val = int(0.6 * n), int(0.2 * n)
    split = SplitAssignment.all_excluded(graph.num_nodes)
    split.roles[order[:n_train]] = int(Role.TRAIN)
    split.roles[order[n_train:n_train + n_val]] = int(Role.OOD_VAL)
    split.roles[order[n_train + n_val:]] = int(Role.OOD_TEST)
    return split


def temporal_split(years: np.ndarray, labeled: np.ndarray) -> SplitAssignment:
    """Partition labeled nodes by year: <= 2010 train, 2011-2016 ood_val, >= 2017 ood_test."""
    years = np.asarray(years, dtype=np.int64)
    labeled = np.asarray(labeled, dtype=np.int64)
    if np.any(years[labeled] < 0):
        bad = labeled[years[labeled] < 0][0]
        raise MissingYear(f"node {int(bad)} has no publication year")
    split = SplitAssignment.all_excluded(len(years))
    y = years[labeled]
    split.roles[labeled[y <= 2010]] = int(Role.TRAIN)
    split.roles[labeled[(y > 2010) & (y < 2017)]] = int(Role.OOD_VAL)
    split.roles[labeled[y >= 2017]] = int(Role.OOD_TEST)
    return split


def scaffold_split(scaffold_ids: np.ndarray, key: StreamKey) -> SplitAssignment:
    """Group-disjoint 80/10/10 split: whole scaffold groups fill train, then val, then test.

    Groups are visited in a key-shuffled order and assigned greedily: to train
    until at least 80% of the molecules are covered, to val until 90%,
    remainder to test. No scaffold spans two partitions.
    """
    scaffold_ids = np.asarray(scaffold_ids, dtype=np.int64)
    if len(scaffold_ids) == 0 or np.any(scaffold_ids < 0):
        raise MissingScaffoldId("every molecule needs a scaffold id")
    _, inverse, sizes = np.unique(scaffold_ids, return_inverse=True, return_counts=True)
    order = permutation(key, len(sizes))
    n = len(scaffold_ids)
    # molecules already assigned when each group is visited, in visit order
    assigned = np.cumsum(sizes[order]) - sizes[order]
    visit_roles = np.where(assigned < 0.8 * n, int(Role.TRAIN),
                           np.where(assigned < 0.9 * n, int(Role.VAL), int(Role.TEST)))
    group_roles = np.empty(len(sizes), dtype=np.int8)
    group_roles[order] = visit_roles
    split = SplitAssignment(group_roles[inverse])
    counts = split.counts()
    if counts["val"] == 0 or counts["test"] == 0:
        log.warning("scaffold split degenerate: val=%d test=%d (a scaffold group dominates)",
                    counts["val"], counts["test"])
    return split


def inductive_entity_split(store: TripleStore, key: StreamKey) -> KgInductiveSplit:
    """Hold out a quarter of the entities; score triples that cross the boundary.

    Entities are shuffled by key; the first floor(0.75 E) form the train pool.
    Triples with both endpoints in the pool train the model; triples with
    exactly one held-out endpoint become ranking queries for that endpoint;
    triples with both endpoints held out are discarded (counted and logged).
    """
    shuffled = permutation(key, store.num_entities)
    n_train = int(0.75 * store.num_entities)
    train_entities = np.sort(shuffled[:n_train])
    test_entities = np.sort(shuffled[n_train:])
    in_train = np.zeros(store.num_entities, dtype=bool)
    in_train[train_entities] = True

    t = store.triples
    head_in = in_train[t[:, 0]]
    tail_in = in_train[t[:, 2]]
    train_triples = t[head_in & tail_in]
    head_out = t[~head_in & tail_in]   # held-out head -> head-corrupt query
    tail_out = t[head_in & ~tail_in]   # held-out tail -> tail-corrupt query
    discarded = int(np.sum(~head_in & ~tail_in))
    if discarded:
        log.info("inductive entity split: discarded %d triples with both endpoints held out",
                 discarded)
    queries = np.concatenate([
        np.column_stack([head_out, np.full(len(head_out), HEAD_CORRUPT, dtype=np.int64)]),
        np.column_stack([tail_out, np.full(len(tail_out), TAIL_CORRUPT, dtype=np.int64)]),
    ]) if len(head_out) + len(tail_out) else np.empty((0, 4), dtype=np.int64)
    return KgInductiveSplit(
        train_triples=train_triples, test_queries=queries,
        train_entities=train_entities, test_entities=test_entities,
        num_discarded=discarded,
    )


def scaffold_gap(auc_random: float, auc_scaffold: float) -> float:
    """Generalization gap between a random and a scaffold-disjoint split.

    Positive values mean the scaffold split is harder. Both inputs must be on
    the same scale (both fractions or both percentages).
    """
    frac_r, frac_s = 0.0 <= auc_random <= 1.0, 0.0 <= auc_scaffold <= 1.0
    if frac_r != frac_s and max(auc_random, auc_scaffold) > 1.5:
        raise ScaleMismatch(
            f"mixed scales: auc_random={auc_random}, auc_scaffold={auc_scaffold}")
    return float(auc_random) - float(auc_scaffold)
