"""CSR graph container, edge keys and removal, and file formats."""

import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphstress import cli, graph_store, refmodel
from graphstress.corruption import EDGE_LEVELS, edge_delete
from graphstress.determinism import derive_key, uniform
from graphstress.errors import (
    AsymmetricGraph,
    BadId,
    DirectedGraph,
    LengthMismatch,
    MissingFile,
    NonFiniteFeature,
)
from graphstress.graph_store import (
    Dataset,
    Graph,
    GraphCollection,
    NodeMeta,
    Role,
    SplitAssignment,
    TripleStore,
    _WRITE_ROWS,
    _one_way_arc,
    check_symmetry,
    load_dataset,
    read_edge_file,
    read_feature_file,
    read_label_file,
    read_meta_file,
    read_split_file,
    read_table,
    read_triple_file,
    remove_edges,
    save_dataset,
    validate_graph,
    write_edge_file,
    write_feature_file,
    write_label_file,
    write_meta_file,
    write_split_file,
    write_table,
    write_triple_file,
)
from graphstress.interpret import SaliencyTable, build_edge_manifest, read_probs_file, read_saliency_file
from graphstress.metrics import read_prediction_file, read_ranking_file
from graphstress.refmodel import predicted_class_prob, propagate_predict, reach
from graphstress.synthetic import make_molecule_collection, make_node_dataset, make_triple_store
from oracles import (
    adjacency_from_graph,
    bfs_hops_oracle,
    canonical_edges_oracle,
    csr_oracle,
    induced_arcs_oracle,
    neighbors_of,
    one_way_arc_oracle,
    propagation_oracle,
    rows_ascend_oracle,
    table_read_oracle,
    table_text_oracle,
)


# ---------------------------------------------------------------------------
# container basics
# ---------------------------------------------------------------------------

def test_path_graph_shape(path_graph):
    assert path_graph.num_arcs == 4
    assert path_graph.degrees().tolist() == [1, 2, 1]
    assert neighbors_of(path_graph, 1).tolist() == [0, 2]
    assert neighbors_of(path_graph, 0).tolist() == [1]


def test_from_arcs_sorts_and_dedups():
    g = Graph.from_arcs(3, [1, 1, 1, 0, 2, 1], [2, 0, 0, 1, 1, 2], undirected=False)
    # duplicates (1,0) and (1,2) each collapse to a single arc, sorted ascending
    assert neighbors_of(g, 1).tolist() == [0, 2]
    assert g.degrees().tolist() == [1, 2, 1]


def test_from_arcs_symmetrize():
    g = Graph.from_arcs(4, [0, 1, 2], [1, 2, 2], symmetrize=True)
    # self-loop (2,2) stays a single arc; isolated node 3 keeps degree 0
    assert g.degrees().tolist() == [1, 2, 2, 0]
    assert neighbors_of(g, 2).tolist() == [1, 2]


def test_labeled_nodes_sentinel():
    labels = np.array([0, 3, 1, 3], dtype=np.int64)  # 3 == num_classes == unlabeled
    g = Graph.from_arcs(4, [], [], labels=labels, num_classes=3)
    assert g.labeled_nodes().tolist() == [0, 2]


def test_asymmetric_rejected():
    with pytest.raises(AsymmetricGraph, match=r"arc \(0,2\) has no reverse \(2,0\)"):
        Graph.from_arcs(3, [0], [2], undirected=True)


def test_check_symmetry_passes_with_self_loop(random_graph):
    check_symmetry(random_graph)
    assert 7 in neighbors_of(random_graph, 7)


def test_bad_endpoint_rejected():
    with pytest.raises(BadId):
        Graph.from_arcs(3, [0, 5], [1, 1], undirected=False)
    with pytest.raises(BadId):
        Graph.from_arcs(3, [0], [-1], undirected=False)


def test_validate_offsets():
    g = Graph(num_nodes=2, offsets=np.array([0, 1], dtype=np.int64),
              neighbors=np.array([1], dtype=np.int64), undirected=False)
    with pytest.raises(LengthMismatch):
        validate_graph(g)
    # each further structural check on a hand-built CSR of two nodes
    for offsets, neighbors, error, message in [
        ([1, 1, 2], [1, 0], LengthMismatch, "start at 0 and be nondecreasing"),
        ([0, 2, 1], [1, 0], LengthMismatch, "start at 0 and be nondecreasing"),
        ([0, 1, 3], [1, 0], LengthMismatch, r"offsets\[-1\] must equal len\(neighbors\)"),
        ([0, 1, 2], [2, 0], BadId, "neighbor id out of range for 2 nodes"),
    ]:
        g = Graph(num_nodes=2, offsets=np.array(offsets, dtype=np.int64),
                  neighbors=np.array(neighbors, dtype=np.int64), undirected=False)
        with pytest.raises(error, match=message):
            validate_graph(g)


def test_validate_nonfinite_features():
    feats = np.zeros((2, 3), dtype=np.float32)
    feats[1, 1] = np.nan
    with pytest.raises(NonFiniteFeature):
        Graph.from_arcs(2, [0, 1], [1, 0], features=feats)


def test_validate_feature_rows():
    with pytest.raises(LengthMismatch, match="feature rows must equal num_nodes"):
        Graph.from_arcs(2, [0, 1], [1, 0], features=np.zeros((3, 4), dtype=np.float32))


def test_from_arcs_rejects_arc_columns_of_unequal_length():
    with pytest.raises(LengthMismatch, match="src/dst arc arrays differ: 2 vs 1"):
        Graph.from_arcs(3, [0, 1], [1], undirected=False)


def test_validate_label_length():
    with pytest.raises(LengthMismatch):
        Graph.from_arcs(2, [0, 1], [1, 0], labels=np.zeros(3, dtype=np.int64), num_classes=2)


def test_validate_meta_length():
    meta = NodeMeta(year=np.zeros(5, dtype=np.int64))
    with pytest.raises(LengthMismatch):
        Graph.from_arcs(2, [0, 1], [1, 0], meta=meta)


# ---------------------------------------------------------------------------
# degrees against an independent recount
# ---------------------------------------------------------------------------

def test_degree_recount_oracle(random_graph):
    src, dst = random_graph.arcs()
    recount = np.bincount(src, minlength=random_graph.num_nodes)
    assert np.array_equal(random_graph.degrees(), recount)
    # symmetric graph: in-degree equals out-degree
    indeg = np.bincount(dst, minlength=random_graph.num_nodes)
    assert np.array_equal(recount, indeg)


# ---------------------------------------------------------------------------
# edge keys and edge removal
# ---------------------------------------------------------------------------

def test_remove_edges_path(path_graph):
    assert path_graph.edge_keys().tolist() == [0 * 3 + 1, 1 * 3 + 2]
    out = remove_edges(path_graph, np.array([True, False]))
    assert out.offsets.tolist() == [0, 0, 1, 2]
    assert out.neighbors.tolist() == [2, 1]


def test_edge_keys_pair_set_oracle(random_graph):
    edges, loops = canonical_edges_oracle(random_graph)
    n = random_graph.num_nodes
    # one key per undirected edge, ascending, self-loops left out
    assert random_graph.edge_keys().tolist() == [u * n + v for u, v in edges]
    assert 7 in loops


def test_remove_edges_requires_undirected():
    g = Graph.from_arcs(3, [0], [1], undirected=False)
    with pytest.raises(DirectedGraph):
        remove_edges(g, np.array([True]))


def test_remove_edges_without_a_drop_returns_the_graph(random_graph):
    assert remove_edges(random_graph, np.zeros(len(random_graph.edge_keys()), bool)) is random_graph


# ---------------------------------------------------------------------------
# split assignments
# ---------------------------------------------------------------------------

def test_split_assignment_units():
    roles = np.array([0, 1, 2, 0, 5], dtype=np.int8)
    split = SplitAssignment(roles)
    assert split.units(Role.TRAIN).tolist() == [0, 3]
    assert split.units(Role.VAL).tolist() == [1]
    assert split.counts()["excluded"] == 1
    assert SplitAssignment.all_excluded(3).counts()["excluded"] == 3


# ---------------------------------------------------------------------------
# triple stores and collections
# ---------------------------------------------------------------------------

def test_triple_store_validate():
    t = np.array([[0, 0, 1], [1, 1, 0]], dtype=np.int64)
    TripleStore(num_entities=2, num_relations=2, triples=t).validate()
    with pytest.raises(LengthMismatch):
        TripleStore(2, 2, np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int64)).validate()
    with pytest.raises(BadId):
        TripleStore(2, 1, t).validate()  # relation 1 out of range
    with pytest.raises(BadId):
        TripleStore(2, 2, np.array([[2, 0, 0]], dtype=np.int64)).validate()
    for shape in ((2, 2), (6,)):
        with pytest.raises(LengthMismatch, match=r"triples must be an \(m, 3\) array"):
            TripleStore(2, 2, np.zeros(shape, dtype=np.int64)).validate()


def test_collection_validate():
    coll = make_molecule_collection(num_graphs=5, seed=3).collection
    coll.validate()
    with pytest.raises(LengthMismatch):
        GraphCollection(graphs=coll.graphs, labels=coll.labels[:-1]).validate()


# ---------------------------------------------------------------------------
# file formats round-trip bit-identically
# ---------------------------------------------------------------------------

def test_edge_file_round_trip(tmp_path, random_graph):
    src, dst = random_graph.arcs()
    p = tmp_path / "edges.tsv"
    write_edge_file(p, src, dst)
    s2, d2 = read_edge_file(p)
    assert np.array_equal(src, s2) and np.array_equal(dst, d2)


def test_empty_edge_file(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("")
    src, dst = read_edge_file(p)
    assert src.size == 0 and dst.size == 0


def test_feature_file_bit_identity(tmp_path):
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((50, 17)).astype(np.float32)
    feats[0, 0] = -0.0  # sign of zero must survive
    p = tmp_path / "x.feat"
    write_feature_file(p, feats)
    back = read_feature_file(p)
    assert back.shape == (50, 17)
    assert back.tobytes() == feats.tobytes()


def test_feature_file_bad_header(tmp_path):
    p = tmp_path / "x.feat"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(LengthMismatch):
        read_feature_file(p)


def test_feature_file_truncated_payload(tmp_path):
    feats = np.ones((4, 4), dtype=np.float32)
    p = tmp_path / "x.feat"
    write_feature_file(p, feats)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(LengthMismatch):
        read_feature_file(p)


def test_label_file_round_trip(tmp_path):
    labels = np.array([0, 2, 2, 1, 2], dtype=np.int64)  # class 2 is the sentinel here
    p = tmp_path / "y.tsv"
    write_label_file(p, labels, num_classes=2)
    assert "1\t" not in p.read_text().split("\n")[1]  # unlabeled rows omitted
    back = read_label_file(p, num_nodes=5, num_classes=2)
    assert np.array_equal(back, labels)


def test_label_file_rejects_out_of_range(tmp_path):
    p = tmp_path / "y.tsv"
    p.write_text("0\t9\n")
    with pytest.raises(BadId):
        read_label_file(p, num_nodes=3, num_classes=2)
    p.write_text("8\t0\n")
    with pytest.raises(BadId):
        read_label_file(p, num_nodes=3, num_classes=2)


def test_split_file_round_trip(tmp_path):
    split = SplitAssignment(np.array([0, 1, 2, 3, 4, 5], dtype=np.int8))
    p = tmp_path / "split.tsv"
    write_split_file(p, split)
    back = read_split_file(p, num_units=6)
    assert np.array_equal(back.roles, split.roles)


def test_split_file_rejects_unknown_role(tmp_path):
    p = tmp_path / "split.tsv"
    p.write_text("0\tmystery\n")
    with pytest.raises(BadId):
        read_split_file(p, num_units=1)


def test_meta_file_round_trip(tmp_path):
    meta = NodeMeta(
        year=np.array([2010, -1, 2020], dtype=np.int64),
        sensitive_attr=np.array([-1, 1, 0], dtype=np.int8),
    )
    p = tmp_path / "meta.tsv"
    write_meta_file(p, meta, num_nodes=3)
    assert p.read_text() == "0\t2010\t-\n1\t-\t1\n2\t2020\t0\n"
    back = read_meta_file(p, num_nodes=3)
    assert np.array_equal(back.year, meta.year)
    assert np.array_equal(back.sensitive_attr, meta.sensitive_attr)


def test_meta_file_all_missing_collapses_to_none(tmp_path):
    p = tmp_path / "meta.tsv"
    write_meta_file(p, NodeMeta(), num_nodes=4)
    back = read_meta_file(p, num_nodes=4)
    assert back.year is None and back.sensitive_attr is None


def test_triple_file_round_trip(tmp_path):
    triples = np.array([[0, 1, 2], [3, 0, 1]], dtype=np.int64)
    p = tmp_path / "t.tsv"
    write_triple_file(p, triples)
    assert np.array_equal(read_triple_file(p), triples)


int64s = st.sampled_from([-2**63, 2**63 - 1]) | st.integers(-2**63, 2**63 - 1)
float64s = st.sampled_from([-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, math.nan, math.inf]) | st.floats()
words = st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=5)  # no tab or newline
scalars = int64s | float64s | words
# each kind of 1-D column: the values drawn, and how the drawn list becomes the column
column_kinds = {
    "int64": (int64s, lambda v: np.array(v, dtype=np.int64)),
    "float64": (float64s, lambda v: np.array(v, dtype=np.float64)),
    "str": (words, lambda v: np.array(v, dtype=str)),
    "object": (scalars, lambda v: np.array(v + [None], dtype=object)[:-1]),  # None keeps it 1-D
    "list": (scalars, list),
    "tuple": (scalars, tuple),
}


@st.composite
def text_tables(draw):
    """(columns, header) for write_table: 1-D columns of each kind, or a 2-D array's .T."""
    rows = draw(st.integers(0, 8))
    header = draw(st.none() | words)
    if draw(st.booleans()):
        dtype, values = draw(st.sampled_from([(np.int64, int64s), (np.float64, float64s)]))
        width = draw(st.integers(1, 3))
        flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
        return np.array(flat, dtype=dtype).reshape(rows, width).T, header
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values, make = column_kinds[draw(st.sampled_from(sorted(column_kinds)))]
        columns.append(make(draw(st.lists(values, min_size=rows, max_size=rows))))
    return tuple(columns), header


@pytest.mark.parametrize("block", [1, 2, 3, _WRITE_ROWS])
@given(text_tables())
@settings(max_examples=100, deadline=None)
def test_write_table_matches_oracle_property(block, table):
    # every block size writes the bytes of one str() per value, extreme ints and floats included
    columns, header = table
    with tempfile.TemporaryDirectory() as tmp, patch.object(graph_store, "_WRITE_ROWS", block):
        p = Path(tmp) / "t.tsv"
        write_table(p, columns, header)
        assert p.read_text() == table_text_oracle(columns, header)


def test_write_table_rejects_unequal_columns_before_creating_the_file(tmp_path):
    p = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match=r"unequal lengths \[3, 5\]"):
        write_table(p, (np.arange(5), [1, 2, 3]))
    assert not p.exists()


def test_split_file_write_of_1e5_units_peaks_at_four_mib(tmp_path):
    # rows are converted in blocks, and each role name is one of six shared str objects
    split = SplitAssignment(np.random.default_rng(0).integers(0, 6, 100_000).astype(np.int8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_split_file(tmp_path / "split.tsv", split)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert np.array_equal(read_split_file(tmp_path / "split.tsv", 100_000).roles, split.roles)


@pytest.mark.filterwarnings("ignore:Input line")  # see test_read_table_keeps_every_row_for_any_line_end
def test_text_tables_skip_comment_and_blank_lines(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("# labels\n0\t1\n\n2\t0\n#\n")
    assert read_label_file(p, num_nodes=3, num_classes=2).tolist() == [1, 2, 0]
    p.write_text("\n# roles\n1\ttest\n\n0\ttrain\n")
    assert read_split_file(p, num_units=3).roles.tolist() == [Role.TRAIN, Role.TEST, Role.EXCLUDED]
    p.write_text("#node\tyear\tsensitive\n1\t2001\t-\n\n")
    meta = read_meta_file(p, num_nodes=2)
    assert meta.year.tolist() == [-1, 2001] and meta.sensitive_attr is None
    p.write_text("# only comments\n\n")
    assert read_edge_file(p)[0].size == 0


TABLE_ROWS = ["3\t-1.5\tx", "9223372036854775807\t1e-05\ty", "-4\tnan\tzz", "0\t0.1\tw"]
TABLE_DTYPES = (np.int64, np.float64, object)


def _cells(columns):
    return [c.tolist() if c.dtype == object else c.tobytes() for c in columns]


def _spy_loadtxt(monkeypatch):
    """(max_rows, rows parsed) of each np.loadtxt call, appended as numpy returns."""
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        calls.append((kwargs["max_rows"], len(table)))
        return table

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


# pytest's collection drops the filter graph_store adds at import for these warnings;
# test_no_data_warnings_stay_silent_in_a_stress_process checks that filter itself
@pytest.mark.filterwarnings("ignore:Input line")
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("terminated", [True, False])
@pytest.mark.parametrize("lead, mid, tail", [
    ([], [], []), (["", "# head"], [], []), ([], ["", "#"], []), ([], [], ["", "# end"]),
    (["#a", ""], ["", "#b", ""], ["#c", ""]),
], ids=["plain", "leading", "mid", "trailing", "all"])
def test_read_table_keeps_every_row_for_any_line_end(tmp_path, monkeypatch, end, terminated, lead, mid,
                                                     tail):
    p = tmp_path / "t.tsv"
    p.write_bytes((end.join(lead + TABLE_ROWS[:2] + mid + TABLE_ROWS[2:] + tail)
                   + (end if terminated else "")).encode())
    expected = table_read_oracle(p, TABLE_DTYPES)
    calls = _spy_loadtxt(monkeypatch)
    got = read_table(p, TABLE_DTYPES)
    assert len(got[0]) == len(TABLE_ROWS)
    assert _cells(got) == _cells(expected)
    # numpy sized the array for every data row, and a \r\n counted once
    [(max_rows, rows)] = calls
    assert rows <= max_rows <= rows + len(mid) + len(tail) + 1


def test_read_table_counts_a_line_end_split_across_its_count_blocks(tmp_path, monkeypatch):
    # 13-byte lines put a \r at byte 2**18 - 1 and its \n at 2**18, across the 256 KiB read blocks
    n = (2**18 + 1) // 13
    p = tmp_path / "t.tsv"
    p.write_bytes(b"".join(b"%05d\t%05d\r\n" % (i, n - i) for i in range(n)))
    assert p.read_bytes()[2**18 - 1:2**18 + 1] == b"\r\n"
    calls = _spy_loadtxt(monkeypatch)
    u, v = read_table(p, (np.int64, np.int64))
    assert u.tolist() == list(range(n)) and v[-1] == 1
    [(max_rows, rows)] = calls
    assert rows == n <= max_rows <= n + 2


@pytest.mark.parametrize("read, text", [
    (read_edge_file, "0\t1\n1\n"),
    (read_edge_file, "0\t1\n1\t0\t2\n"),
    (read_edge_file, "0\t1\t2\n1\t0\t3\n"),
    (read_triple_file, "0\t1\n2\t0\n"),
    (read_triple_file, "0\t1\tz\n"),
    (lambda p: read_label_file(p, 3, 2), "2\tfoo\n"),
    (lambda p: read_split_file(p, 3), "0\ttrain\textra\n"),
    (lambda p: read_meta_file(p, 3), "0\tlate\t1\n"),
    (read_prediction_file, "#num_classes\t4\n0\t0.25\t0.25\t0.25\tx\n"),
    (read_prediction_file, "#num_classes\ttwo\n0\t0.5\t0.5\n"),
    (read_ranking_file, "0\t1\t0.5\n0\t2\n"),
    (read_saliency_file, "#kind\tnode_grad_norm\n0\thigh\n"),
    (read_probs_file, "3\tclean\t0.5\t0.5\n"),
], ids=["edge-short", "edge-long", "edge-all-wide", "triple-all-narrow", "triple", "label", "split", "meta", "pred-token",
        "pred-header", "ranking", "saliency", "probs"])
def test_ragged_row_or_bad_token_is_a_length_mismatch(tmp_path, read, text):
    p = tmp_path / "t.tsv"
    p.write_text(text)
    with pytest.raises(LengthMismatch):
        read(p)


def test_missing_file_error(tmp_path):
    with pytest.raises(MissingFile):
        read_edge_file(tmp_path / "absent.tsv")
    with pytest.raises(MissingFile):
        load_dataset(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# manifest save / load round trips
# ---------------------------------------------------------------------------

def test_node_dataset_round_trip(tmp_path):
    ds = make_node_dataset(num_nodes=120, seed=5)
    manifest = save_dataset(ds, tmp_path / "d")
    back = load_dataset(manifest)
    assert back.kind == "node_graph" and back.name == ds.name
    g, g2 = ds.graph, back.graph
    assert np.array_equal(g.offsets, g2.offsets)
    assert np.array_equal(g.neighbors, g2.neighbors)
    assert g.features.tobytes() == g2.features.tobytes()
    assert np.array_equal(g.labels, g2.labels)
    assert g2.num_classes == g.num_classes
    assert np.array_equal(g.meta.year, g2.meta.year)
    assert np.array_equal(g.meta.sensitive_attr, g2.meta.sensitive_attr)
    assert np.array_equal(ds.split.roles, back.split.roles)


def test_declared_feature_dim_must_match_the_feature_file(tmp_path):
    manifest = save_dataset(make_node_dataset(num_nodes=30, seed=5), tmp_path / "d")
    declared = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**declared, "feature_dim": declared["feature_dim"] + 1}))
    with pytest.raises(LengthMismatch, match="feature_dim does not match feature file"):
        load_dataset(manifest)


def test_node_dataset_load_peaks_below_three_and_a_half_times_what_it_keeps(tmp_path):
    # the arc columns are freed before the node files are read, and the arc
    # keys are built, sorted and checked in place
    manifest = save_dataset(make_node_dataset(num_nodes=20_000, seed=0), tmp_path / "d")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(manifest)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    g = ds.graph
    kept = sum(a.nbytes for a in (g.offsets, g.neighbors, g.features, g.labels, g.meta.year,
                                  g.meta.sensitive_attr, ds.split.roles))
    assert g.num_arcs > 100_000
    assert peak <= 3.5 * kept


def test_a_bad_arc_is_reported_before_a_bad_label_file(tmp_path):
    # the edge file is read and checked first, the label file after it; an id past
    # int32 parses, so it is a bad id too, not a bad token
    out = tmp_path / "d"
    save_dataset(make_node_dataset(num_nodes=50, seed=0), out)
    edges = (out / "edges.tsv").read_text()
    (out / "labels.tsv").write_text("0\t1\t2\n")
    for bad in ("999", "3000000000"):
        (out / "edges.tsv").write_text(f"{edges}3\t{bad}\n")
        with pytest.raises(BadId, match=f"arc endpoint {bad} out of range for 50 nodes"):
            load_dataset(out / "manifest.json")
    (out / "edges.tsv").write_text("0\t1\n1\t0\n")
    with pytest.raises(LengthMismatch, match="labels.tsv"):
        load_dataset(out / "manifest.json")


def test_triple_dataset_round_trip(tmp_path):
    ds = make_triple_store(seed=2)
    back = load_dataset(save_dataset(ds, tmp_path / "kg"))
    assert back.kind == "triples"
    assert np.array_equal(ds.store.triples, back.store.triples)
    assert back.store.num_entities == ds.store.num_entities
    assert back.store.num_relations == ds.store.num_relations


def test_collection_round_trip(tmp_path):
    ds = make_molecule_collection(num_graphs=8, seed=9)
    back = load_dataset(save_dataset(ds, tmp_path / "mol"))
    assert back.kind == "graph_collection"
    assert back.collection.num_graphs == 8
    assert np.array_equal(ds.collection.labels, back.collection.labels)
    assert np.array_equal(ds.collection.scaffold_ids, back.collection.scaffold_ids)
    for a, b in zip(ds.collection.graphs, back.collection.graphs):
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)


def _per_graph_oracle(out):
    """Each graph of a saved collection built alone by Graph.from_arcs."""
    _, sizes = np.loadtxt(out / "graph_sizes.tsv", dtype=np.int64, ndmin=2).T
    gids, src, dst = np.loadtxt(out / "graph_edges.tsv", dtype=np.int64, ndmin=2).T
    return [Graph.from_arcs(int(n), src[gids == g], dst[gids == g]) for g, n in enumerate(sizes)]


def test_collection_load_matches_per_graph_oracle(tmp_path):
    ds = make_molecule_collection(num_graphs=40, seed=4)
    coll = ds.collection
    coll.graphs[7] = Graph.from_arcs(3, [], [])  # a molecule with no bonds
    out = tmp_path / "mol"
    save_dataset(ds, out)
    # shuffled arc rows with repeats: the loader must sort and dedup per graph
    rows = (out / "graph_edges.tsv").read_text().splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(rows))
    (out / "graph_edges.tsv").write_text("".join([rows[i] for i in order] + rows[:25]))
    back = load_dataset(out / "manifest.json").collection
    oracle = _per_graph_oracle(out)
    assert len(back.graphs) == len(oracle) == 40
    assert back.graphs[7].num_nodes == 3 and back.graphs[7].num_arcs == 0
    for g, want in zip(back.graphs, oracle):
        assert g.num_nodes == want.num_nodes and g.undirected
        assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
        assert np.array_equal(g.offsets, want.offsets)
        assert np.array_equal(g.neighbors, want.neighbors)
        validate_graph(g)


def test_loaded_collection_indexes_and_iterates_like_a_list(tmp_path):
    ds = make_molecule_collection(num_graphs=12, seed=5)
    want = list(ds.collection.graphs)
    graphs = load_dataset(save_dataset(ds, tmp_path / "mol")).collection.graphs
    assert len(graphs) == 12
    for got, g in [(graphs[-1], want[-1]), (graphs[-12], want[0]), (graphs[np.int64(3)], want[3]),
                   *zip(graphs, want, strict=True)]:
        assert got.num_nodes == g.num_nodes and got.undirected
        assert np.array_equal(got.offsets, g.offsets) and np.array_equal(got.neighbors, g.neighbors)
    for index in (12, -13):
        with pytest.raises(IndexError):
            graphs[index]


def test_collection_load_then_save_writes_the_same_bytes(tmp_path):
    ds = make_molecule_collection(num_graphs=30, seed=6)
    ds.collection.graphs[4] = Graph.from_arcs(2, [], [])  # a molecule with no bonds
    save_dataset(ds, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a" / "manifest.json"), tmp_path / "b")
    names = ["graph_sizes.tsv", "graph_edges.tsv", "graph_labels.tsv", "scaffolds.tsv",
             "manifest.json"]
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_collection_load_keeps_about_the_bytes_of_its_arrays(tmp_path):
    # the molecules stay one block-diagonal CSR, sliced into a Graph on access
    ds = make_molecule_collection(num_graphs=4000, seed=1)
    graphs = ds.collection.graphs
    atoms, arcs = sum(g.num_nodes for g in graphs), sum(g.num_arcs for g in graphs)
    # ptr, arc offsets and neighbors (int64), one int8 label and one int64 scaffold id each
    arrays = 8 * ((len(graphs) + 1) + (atoms + 1) + arcs) + len(graphs) * (1 + 8)
    manifest = save_dataset(ds, tmp_path / "mol")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = load_dataset(manifest)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert back.collection.num_graphs == 4000
    assert kept <= 1.25 * arrays
    assert peak <= 5 * arrays


def test_empty_collection_loads(tmp_path):
    ds = Dataset(kind="graph_collection", name="none", collection=GraphCollection(
        graphs=[], labels=np.empty((0, 1), dtype=np.int8), scaffold_ids=None))
    back = load_dataset(save_dataset(ds, tmp_path / "none")).collection
    assert back.num_graphs == 0 and back.labels.shape == (0, 1)


@pytest.mark.parametrize("row, error, message", [
    ("3\t0\t99\n", BadId, r"graph 3: atom id 99 out of range"),
    ("5\t-1\t0\n", BadId, r"graph 5: atom id -1 out of range"),
    ("6\t0\t2\n", AsymmetricGraph, r"graph 6: arc \(0,2\) has no reverse \(2,0\)"),
], ids=["atom-too-large", "atom-negative", "one-way-bond"])
def test_collection_arc_errors_name_the_graph(tmp_path, row, error, message):
    ds = make_molecule_collection(num_graphs=10, seed=2)
    ds.collection.graphs[6] = Graph.from_arcs(3, [0, 1], [1, 0])  # no bond 0-2 yet
    out = tmp_path / "mol"
    save_dataset(ds, out)
    with open(out / "graph_edges.tsv", "a") as f:
        f.write(row)
    with pytest.raises(error, match=message):
        load_dataset(out / "manifest.json")


@pytest.mark.parametrize("token", ["2", "-1", "x", "01"])
def test_a_task_label_other_than_0_1_or_dash_is_a_bad_id(tmp_path, token):
    out = tmp_path / "mol"
    save_dataset(make_molecule_collection(num_graphs=6, seed=2), out)
    path = out / "graph_labels.tsv"
    rows = path.read_text().splitlines(keepends=True)
    rows[3] = f"3\t{token}\n"
    path.write_text("".join(rows))
    with pytest.raises(BadId, match=f"{path}: graph 3: task label '{token}' is not 0, 1 or -"):
        load_dataset(out / "manifest.json")
    rows[3] = "3\t-\n"  # a missing label loads as -1
    path.write_text("".join(rows))
    assert load_dataset(out / "manifest.json").collection.labels[3, 0] == -1


def test_negative_graph_size_is_a_bad_id(tmp_path):
    out = tmp_path / "mol"
    save_dataset(make_molecule_collection(num_graphs=4, seed=2), out)
    (out / "graph_sizes.tsv").write_text("0\t5\n1\t-1\n2\t5\n3\t5\n")
    with pytest.raises(BadId, match="graph size -1"):
        load_dataset(out / "manifest.json")


def test_save_is_deterministic(tmp_path):
    ds = make_node_dataset(num_nodes=60, seed=1)
    m1 = save_dataset(ds, tmp_path / "a")
    m2 = save_dataset(ds, tmp_path / "b")
    for name in ("manifest.json", "edges.tsv", "labels.tsv", "split.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert m1.name == m2.name


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

arc_lists = st.integers(2, 20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
    )
)


@pytest.mark.parametrize("symmetrize", [True, False], ids=["symmetrize", "as-given"])
@given(arc_lists)
@settings(max_examples=200, deadline=None)
def test_from_arcs_matches_csr_oracle_property(symmetrize, case):
    # unsorted, repeated and self-loop arcs, and no arcs at all
    n, pairs = case
    g = Graph.from_arcs(n, [u for u, _ in pairs], [v for _, v in pairs],
                        undirected=symmetrize, symmetrize=symmetrize)
    validate_graph(g)  # sorted, deduped, and symmetric when symmetrized
    offsets, neighbors = csr_oracle(n, pairs + [(v, u) for u, v in pairs] if symmetrize else pairs)
    assert g.offsets.tolist() == offsets
    assert g.neighbors.tolist() == neighbors
    assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32


csr_rows = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=5),
                                             min_size=n, max_size=n)))


@given(csr_rows)
@example((3, [[], [0, 2], [1]]))       # empty first row
@example((3, [[1, 2], [], [0]]))       # empty middle row
@example((3, [[1], [0, 2], []]))       # empty last row
@example((3, [[1, 1], [0], []]))       # a duplicate arc
@example((3, [[2, 1], [0], [0]]))      # an unsorted row
@example((3, [[2], [0, 1], [0, 1]]))   # ascending across a row start only
@settings(max_examples=300, deadline=None)
def test_ascending_check_matches_set_oracle_property(case):
    n, rows = case
    g = Graph(num_nodes=n, offsets=np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
              neighbors=np.array([v for r in rows for v in r], dtype=np.int64), undirected=False)
    if rows_ascend_oracle(g):
        validate_graph(g)
    else:
        with pytest.raises(LengthMismatch, match="sorted ascending without duplicates"):
            validate_graph(g)


@given(arc_lists, st.sets(st.integers(0, 119)))
@example((3, [(0, 1), (1, 1)]), {1})        # a self-loop, and (0,1) without its reverse
@example((4, [(0, 1), (2, 2)]), set())      # symmetric with a self-loop
@example((4, [(0, 3), (1, 2)]), {0, 1, 3})  # only (2,1) is left
@settings(max_examples=300, deadline=None)
def test_one_way_arc_matches_set_oracle_property(case, drop):
    # a symmetric arc set with self-loops, less the arcs at the positions in drop
    n, pairs = case
    arcs = sorted(set(pairs) | {(v, u) for u, v in pairs})
    arcs = [a for i, a in enumerate(arcs) if i not in drop]
    g = Graph.from_arcs(n, [u for u, _ in arcs], [v for _, v in arcs], undirected=False)
    want = one_way_arc_oracle(g)
    assert _one_way_arc(g) == want
    if want is None:
        validate_graph(replace(g, undirected=True))
    else:
        u, v = want
        with pytest.raises(AsymmetricGraph, match=rf"^arc \({u},{v}\) has no reverse \({v},{u}\)$"):
            validate_graph(replace(g, undirected=True))


def _removal_matches_rebuild(g, fill, data):
    # remove_edges on g equals rebuilding g's arcs less the dropped edges
    edges, loops = canonical_edges_oracle(g)
    drop = np.array([fill == "all" or (fill == "random" and data.draw(st.booleans()))
                     for _ in edges], dtype=bool)
    out = remove_edges(g, drop)
    validate_graph(out)
    gone = {e for e, d in zip(edges, drop) if d}
    kept = [(u, v) for u, v in zip(*map(np.ndarray.tolist, g.arcs()))
            if (min(u, v), max(u, v)) not in gone]
    rebuilt = Graph.from_arcs(g.num_nodes, [u for u, _ in kept], [v for _, v in kept])
    assert np.array_equal(out.offsets, rebuilt.offsets)
    assert np.array_equal(out.neighbors, rebuilt.neighbors)
    assert out.offsets.dtype == np.int64 and out.neighbors.dtype == np.int32
    assert canonical_edges_oracle(out) == ([e for e in edges if e not in gone], loops)
    return out


@given(arc_lists, st.sampled_from(["random", "all", "none"]), st.data())
@settings(max_examples=200, deadline=None)
def test_remove_edges_matches_rebuild_property(case, fill, data):
    # self-loops, isolated nodes, edgeless graphs, and all/none/some dropped
    n, pairs = case
    labels = np.arange(n, dtype=np.int64) % 2
    g = Graph.from_arcs(n, [u for u, _ in pairs], [v for _, v in pairs], symmetrize=True,
                        labels=labels, num_classes=2)
    out = _removal_matches_rebuild(g, fill, data)
    assert out.labels is labels and out.num_classes == 2 and out.undirected
    # each graph object sorts its own reverse arcs: a second removal from g, a
    # removal from the result and one from an induced subgraph match their rebuilds
    _removal_matches_rebuild(g, "random", data)
    _removal_matches_rebuild(out, "random", data)
    nodes = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), np.int64)
    _removal_matches_rebuild(g.induced(nodes), "random", data)


@given(arc_lists, st.integers(0, 3), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_ball_and_induced_match_oracles_property(case, hops, undirected, data):
    # self-loops, isolated nodes and edgeless graphs; the propagation's balls
    # (the interpret receptive field) and arbitrary node sets
    n, pairs = case
    g = Graph.from_arcs(n, [u for u, _ in pairs], [v for _, v in pairs],
                        undirected=undirected, symmetrize=undirected)
    center = data.draw(st.integers(0, n - 1))
    ball = reach(g, center, hops)
    assert ball.dtype == np.int64
    assert ball.tolist() == sorted(bfs_hops_oracle(adjacency_from_graph(g), center, hops))
    for nodes in (ball, np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), np.int64)):
        sub = g.induced(nodes)
        validate_graph(sub)  # sorted, deduplicated and, if undirected, symmetric
        assert sub.num_nodes == len(nodes) and sub.undirected == undirected
        arcs = list(zip(*map(np.ndarray.tolist, sub.arcs())))
        assert arcs == induced_arcs_oracle(g, nodes.tolist())


@given(arc_lists, st.sets(st.integers(0, 119)), st.sampled_from([1, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_row_block_loops_match_set_oracles_property(case, drop, block):
    # the ascending and symmetry checks, the reverse-arc order and the spread of per-edge
    # values to the arcs work row block by row block: any block size gives the oracles' answer
    n, pairs = case
    arcs = sorted(set(pairs) | {(v, u) for u, v in pairs})
    kept = [a for i, a in enumerate(arcs) if i not in drop]
    with patch.object(graph_store, "_ROW_BLOCK", block):
        g = Graph.from_arcs(n, [u for u, _ in kept], [v for _, v in kept], undirected=False)
        assert _one_way_arc(g) == one_way_arc_oracle(g)
        g = Graph.from_arcs(n, [u for u, _ in arcs], [v for _, v in arcs])
        edges, _ = canonical_edges_oracle(g)
        values = g._arc_values(np.arange(len(edges), dtype=np.int64), -1)
    assert values.tolist() == [-1 if u == v else edges.index((min(u, v), max(u, v)))
                               for u, v in zip(*map(np.ndarray.tolist, g.arcs()))]


def test_node_dataset_load_peaks_below_one_and_three_quarter_times_what_it_keeps(tmp_path):
    # the parsed arc columns die once their keys exist, and the checks of the built CSR
    # hold one row block's temporaries, never a second array per arc
    manifest = save_dataset(make_node_dataset(num_nodes=20_000, seed=0), tmp_path / "d")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(manifest)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    g = ds.graph
    kept = sum(a.nbytes for a in (g.offsets, g.neighbors, g.features, g.labels, g.meta.year,
                                  g.meta.sensitive_attr, ds.split.roles))
    assert g.num_arcs > 100_000
    assert peak <= 1.75 * kept


@pytest.mark.parametrize("token", ["2", "7", "-1", "x", "01"])
def test_a_sensitive_attr_other_than_0_1_or_dash_is_a_bad_id(tmp_path, token):
    # a unit of any other value would fall in neither demographic group
    out = tmp_path / "d"
    save_dataset(make_node_dataset(num_nodes=60, seed=1), out)
    path = out / "meta.tsv"
    rows = path.read_text().splitlines(keepends=True)
    node, year, _ = rows[4].rstrip("\n").split("\t")
    rows[4] = f"{node}\t{year}\t{token}\n"
    path.write_text("".join(rows))
    with pytest.raises(BadId, match=f"{path}: node {node}: sensitive_attr '{token}' is not 0, 1 or -"):
        load_dataset(out / "manifest.json")
    rows[4] = f"{node}\t{year}\t-\n"  # a missing value loads as -1
    path.write_text("".join(rows))
    assert load_dataset(out / "manifest.json").graph.meta.sensitive_attr[int(node)] == -1


def test_saving_a_node_graph_builds_no_source_per_arc(tmp_path):
    # the edge file's source column is made for one written block of arcs at a time, from
    # the offsets: no int64 source of every arc, as g.arcs() builds
    rng = np.random.default_rng(0)
    n = 2**16
    g = Graph.from_arcs(n, rng.integers(0, n, 2**18), rng.integers(0, n, 2**18), symmetrize=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_dataset(Dataset(kind="node_graph", name="g", graph=g), tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    src, dst = read_edge_file(tmp_path / "d" / "edges.tsv")
    assert src.tolist() == g.arcs()[0].tolist() and dst.tolist() == g.neighbors.tolist()
    assert g.num_arcs > 500_000
    assert peak < 4 * g.num_arcs


def test_keys_of_ids_past_46341_match_the_oracles(tmp_path):
    # node ids are int32, and numpy keeps an int32 array times a Python int in int32: with
    # 50 000 nodes, u * 50 000 passes 2**31 for every id u here, so a key formed from the
    # ids in int32 wraps. Each path that forms keys is checked against its oracle
    rng = np.random.default_rng(3)
    n, base = 50_000, 46_342
    src = rng.integers(base, n, 2000)
    dst = rng.integers(base, n, 2000)
    dst[:5] = src[:5]  # five self-loops
    pairs = list(zip(src.tolist(), dst.tolist()))
    offsets, neighbors = csr_oracle(n, pairs + [(v, u) for u, v in pairs])
    g = Graph.from_arcs(n, src, dst, symmetrize=True)
    back = load_dataset(save_dataset(Dataset(kind="node_graph", name="big", graph=g), tmp_path / "d"))
    for built in (g, back.graph):
        assert built.offsets.tolist() == offsets and built.neighbors.tolist() == neighbors
    edges, loops = canonical_edges_oracle(g)
    assert g.edge_keys().tolist() == [u * n + v for u, v in edges]
    # the reverse-arc order numbers each arc u > v by its edge, and the arcs take their
    # edge's value through it
    index = {e: i for i, e in enumerate(edges)}
    values = g._arc_values(np.arange(len(edges)), -1)
    assert values.tolist() == [-1 if u == v else index[min(u, v), max(u, v)]
                               for u, v in zip(*map(np.ndarray.tolist, g.arcs()))]
    key = derive_key("corruption", "big", "edge_delete", 0, 0)
    survived = edge_delete(g, EDGE_LEVELS, key)
    assert survived.tolist() == np.searchsorted(EDGE_LEVELS, uniform(key, np.arange(len(edges))),
                                                side="right").tolist()
    out = remove_edges(g, survived < 3)
    kept = [e for e, s in zip(edges, survived.tolist()) if s >= 3] + [(u, u) for u in loops]
    assert (out.offsets.tolist(), out.neighbors.tolist()) == csr_oracle(n, kept + [(v, u) for u, v in kept])
    # with a key width no node fits, every propagation key is int64
    train = np.full(n, -1, dtype=np.int64)
    train[base:] = rng.integers(-1, 3, n - base)
    rows = rng.permutation(np.arange(base, n))[:40]
    with patch.object(refmodel, "_NARROW_BITS", 0):
        table = propagate_predict(g, train, 3, rows=rows)[0]
    adjacency = adjacency_from_graph(g)
    want = [propagation_oracle(adjacency, train, 3, 2, 1.0, u) for u in rows.tolist()]
    assert table.rows.tobytes() == np.array(want).tobytes()
    # a one-way arc between two large ids, after a symmetric edge of smaller keys
    one_way = Graph.from_arcs(n, [46_400, 46_500, 49_000], [46_500, 46_400, 48_000], undirected=False)
    with pytest.raises(AsymmetricGraph, match=r"^arc \(49000,48000\) has no reverse \(48000,49000\)$"):
        check_symmetry(one_way)


def test_every_graph_a_run_builds_holds_its_node_ids_as_int32(tmp_path):
    # one rule: node ids are int32 below 2**31 nodes, int64 from there
    assert graph_store._id_dtype(2**31 - 1) is np.int32 and graph_store._id_dtype(2**31) is np.int64
    ds = make_node_dataset(num_nodes=300, num_classes=3, seed=2)
    g = load_dataset(save_dataset(ds, tmp_path / "d")).graph
    mol = load_dataset(save_dataset(make_molecule_collection(num_graphs=5, seed=1), tmp_path / "m"))
    rng = np.random.default_rng(2)
    manifest = build_edge_manifest(g, 7, SaliencyTable("node_grad_norm", np.arange(300), rng.random(300)),
                                   derive_key("t", "p", "m", 0, 2), hops=2, k_levels=[10, 50])
    blocks = []  # the block graph of four masked copies the interpret cell propagates on

    def recorded(graph, *args):
        blocks.append(graph)
        return predicted_class_prob(graph, *args)
    with patch.object(cli, "predicted_class_prob", recorded):
        cli._refmodel_probs(g, g.labels, {7: manifest}, [10, 50])
    graphs = {"load": g, "from_arcs": ds.graph, "induced": g.induced(manifest.nodes),
              "remove_edges": remove_edges(g, np.arange(len(g.edge_keys())) % 2 == 0),
              "collection": mol.collection.graphs[0], "interpret block": blocks[0]}
    for path, built in graphs.items():
        assert built.neighbors.dtype == np.int32, path
