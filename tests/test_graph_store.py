"""CSR graph container, edge keys and removal, and file formats."""

import json
import math
import os
import re
import subprocess
import sys
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
    StressError,
)
from graphstress.graph_store import (
    Dataset,
    Graph,
    GraphCollection,
    NodeMeta,
    Role,
    SplitAssignment,
    TripleStore,
    _ArcSources,
    _WRITE_ROWS,
    _one_way_arc,
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
    feature_file_oracle,
    induced_arcs_oracle,
    neighbors_of,
    one_way_arc_oracle,
    propagation_oracle,
    rows_ascend_oracle,
    table_read_oracle,
    table_text_oracle,
    wide_reader_oracle,
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
    validate_graph(random_graph)
    assert 7 in neighbors_of(random_graph, 7)


def test_bad_endpoint_rejected():
    with pytest.raises(BadId):
        Graph.from_arcs(3, [0, 5], [1, 1], undirected=False)
    with pytest.raises(BadId):
        Graph.from_arcs(3, [0], [-1], undirected=False)


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


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` by a fresh interpreter that imports this graphstress."""
    src = str(Path(graph_store.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=env,
                          timeout=120)


def test_loading_a_triple_store_leaves_numpy_ma_unimported(tmp_path):
    # the duplicate check sorts the keys and compares neighbours; np.unique's first call
    # imports numpy.ma, which costs a fresh process ~34 ms
    manifest = save_dataset(make_triple_store(seed=2), tmp_path / "kg")
    proc = _python("import sys; from graphstress.graph_store import load_dataset; "
                   "load_dataset(sys.argv[1]); print('numpy.ma' in sys.modules)", str(manifest))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "False"


def test_collection_validate():
    coll = make_molecule_collection(num_graphs=5, seed=3).collection
    coll.validate()
    with pytest.raises(LengthMismatch, match="label rows must equal number of graphs"):
        GraphCollection(graphs=coll.graphs, labels=coll.labels[:-1]).validate()
    with pytest.raises(LengthMismatch, match="scaffold ids must cover every graph"):
        GraphCollection(graphs=coll.graphs, labels=coll.labels,
                        scaffold_ids=coll.scaffold_ids[:-1]).validate()


# ---------------------------------------------------------------------------
# file formats round-trip bit-identically
# ---------------------------------------------------------------------------

def test_edge_file_round_trip(tmp_path, random_graph):
    src, dst = random_graph.arcs()
    p = tmp_path / "edges.tsv"
    write_edge_file(p, src, dst)
    edges = read_edge_file(p, random_graph.num_nodes)
    assert np.array_equal(src, edges["c0"]) and np.array_equal(dst, edges["c1"])


def test_empty_edge_file(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("")
    assert read_edge_file(p, 1).size == 0


def test_feature_file_bit_identity(tmp_path):
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((50, 17)).astype(np.float32)
    feats[0, 0] = -0.0  # sign of zero must survive
    p = tmp_path / "x.feat"
    write_feature_file(p, feats)
    back = read_feature_file(p, 50)
    assert back.shape == (50, 17)
    assert back.tobytes() == feats.tobytes()


def test_feature_file_bad_header(tmp_path):
    p = tmp_path / "x.feat"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(LengthMismatch):
        read_feature_file(p, 0)


def test_feature_file_truncated_payload(tmp_path):
    feats = np.ones((4, 4), dtype=np.float32)
    p = tmp_path / "x.feat"
    write_feature_file(p, feats)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(LengthMismatch):
        read_feature_file(p, 4)


@st.composite
def feature_files(draw, block):
    """(file bytes, num_nodes) of a feature file with at most one fault, ``block`` being the
    values read_feature_file checks at once: a NaN or an infinity at the first or last value
    of a block or of the file, a cut payload, a bad header or a row count other than num_nodes."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 5))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)),
                      dtype="<f4")
    header = b"GSFH" + rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + bytes(4)
    num_nodes = rows
    fault = draw(st.sampled_from(["none", "nonfinite", "cut", "header", "rows"]))
    if fault == "nonfinite" and len(values):
        ends = {0, len(values) - 1}
        for lo in range(0, len(values), block):
            ends |= {lo, min(lo + block, len(values)) - 1}
        values[draw(st.sampled_from(sorted(ends)))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    data = header + values.tobytes()
    if fault == "cut" and len(values):
        data = data[:-draw(st.integers(1, 4 * len(values)))]
    elif fault == "header":
        data = draw(st.sampled_from([b"NOPE" + data[4:], data[:draw(st.integers(0, 15))]]))
    elif fault == "rows":
        num_nodes = draw(st.sampled_from([n for n in (0, rows - 1, rows + 1) if n >= 0 and n != rows]))
    return data + bytes(draw(st.integers(0, 5))), num_nodes  # bytes past the payload are not read


@pytest.mark.parametrize("block", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_feature_file_check_matches_a_whole_read_property(block, data):
    # the streamed check reports the fault the whole-file read reports, with its error class
    # and message; a valid file loads as a read-only map bit-equal to np.fromfile's values
    content, num_nodes = data.draw(feature_files(block))
    with tempfile.TemporaryDirectory() as tmp, patch.object(graph_store, "_FEATURE_BLOCK", block):
        p = Path(tmp) / "x.gsf"
        p.write_bytes(content)
        expected = feature_file_oracle(p, num_nodes)
        if isinstance(expected, tuple):
            with pytest.raises((LengthMismatch, NonFiniteFeature)) as err:
                read_feature_file(p, num_nodes)
            assert (type(err.value).__name__, str(err.value)) == expected
            return
        features = read_feature_file(p, num_nodes)
        assert isinstance(features, np.memmap) and features.dtype == np.dtype("<f4")
        assert features.shape == expected.shape
        assert features.tobytes() == np.fromfile(p, dtype="<f4", offset=16,
                                                 count=expected.size).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            features[...] = 0
        del features  # the map closes before the directory is removed


def test_a_node_load_reads_no_feature_page_through_its_map(tmp_path):
    # the check streams the file; the loaded features are a map whose pages stay unread
    smaps = Path("/proc/self/smaps")
    if not smaps.is_file():
        pytest.skip("needs /proc/self/smaps")
    manifest = save_dataset(make_node_dataset(num_nodes=20_000, seed=0), tmp_path / "d")
    features = load_dataset(manifest).graph.features
    assert isinstance(features, np.memmap) and not features.flags.writeable
    path = str((tmp_path / "d" / "features.gsf").resolve())
    rss, mapped = 0, False
    for line in smaps.read_text().splitlines():
        fields = line.split()
        if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", fields[0]):  # a mapping's first line
            mapped = fields[5:] == [path]
        elif mapped and fields[0] == "Rss:":
            rss += int(fields[1])
    assert features.nbytes > 2**20
    assert rss == 0


def test_saving_a_loaded_dataset_over_its_own_directory_keeps_its_features(tmp_path):
    # the features map features.gsf while it is written, so the file is written beside it
    # and renamed over it. Written in place, the file would be cut under the map, and reading
    # the map would fail with an OSError or a bus error: hence the fresh interpreter
    out = tmp_path / "d"
    manifest = save_dataset(make_node_dataset(num_nodes=3_000, seed=4), out)
    saved = (out / "features.gsf").read_bytes()
    assert len(saved) > 16 + 4 * 4096  # more than a page past the header
    names = sorted(os.listdir(out))
    proc = _python("import sys; from graphstress.graph_store import load_dataset, save_dataset; "
                   "ds = load_dataset(sys.argv[1]); save_dataset(ds, sys.argv[2]); "
                   "sys.stdout.buffer.write(ds.graph.features.tobytes())", str(manifest), str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == saved[16:]  # the map still reads the file it was made from
    assert sorted(os.listdir(out)) == names  # no temporary file is left
    assert (out / "features.gsf").read_bytes() == saved
    assert load_dataset(manifest).graph.features.tobytes() == saved[16:]


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
    assert read_edge_file(p, 2).size == 0


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
    (lambda p: read_edge_file(p, 3), "0\t1\n1\n"),
    (lambda p: read_edge_file(p, 3), "0\t1\n1\t0\t2\n"),
    (lambda p: read_edge_file(p, 3), "0\t1\t2\n1\t0\t3\n"),
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


# tokens of each column kind: valid ones and the edge cases of the narrow parse (ids past
# int32, bytes tokens that fill their width or pass it, non-ASCII and NUL bytes)
ID_TOKENS = st.integers(0, 9).map(str) | st.sampled_from(
    ["2147483647", "2147483648", "3000000000", "-1", "-2147483649", "x", "", "1.0", "+3"])
FLAG_TOKENS = st.sampled_from(["0", "1", "-", "2", "01", "10", "-1", "x", "", "1 ", "\u0661"])
ROLE_TOKENS = st.sampled_from(["train", "val", "test", "ood_val", "ood_test", "excluded", "Train",
                               "train ", "exclude", "excluded1", "ood_test_x", "", "\xe9", "train\x00"])
YEAR_TOKENS = st.one_of(
    st.just("-"),
    st.integers(0, 10**10).map(str),  # up to 11 characters: within the 8-byte width and past it
    st.tuples(st.sampled_from(["+", "0", "00", "+0", "0000000"]), st.integers(0, 99999))
    .map(lambda t: t[0] + str(t[1])),
    st.integers(10, 10**7).map(lambda v: f"{str(v)[:1]}_{str(v)[1:]}"),
    st.sampled_from(["x", "", "1.5", "--", "_1", "1__0", " 7", "\u0663", "9" * 25]),
)
SCORE_TOKENS = st.floats(-10, 10).map(repr) | st.sampled_from(["nan", "inf", "-inf", "x"])
FILE_COLUMNS = {  # kind -> (id count, extra, token strategy of each column)
    "edge": (10, None, [ID_TOKENS, ID_TOKENS]),
    "label": (10, 3, [ID_TOKENS, ID_TOKENS]),
    "split": (10, None, [ID_TOKENS, ROLE_TOKENS]),
    "meta": (10, None, [ID_TOKENS, YEAR_TOKENS, FLAG_TOKENS]),
    "graph_label": (10, 2, [ID_TOKENS, FLAG_TOKENS, FLAG_TOKENS]),
    "ranking": (10, None, [ID_TOKENS, ID_TOKENS, SCORE_TOKENS]),
}


@st.composite
def table_files(draw, kind):
    """The text of a ``kind`` file: data rows whose first column mostly holds distinct valid
    ids, with comment and blank lines among them and one line end throughout."""
    n, _, columns = FILE_COLUMNS[kind]
    ids = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    lines = []
    for i in ids:
        first = str(i) if draw(st.integers(0, 4)) else draw(ID_TOKENS)
        lines.append("\t".join([first, *(draw(c) for c in columns[1:])]))
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", "#"]), max_size=1)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _read_plainly(kind, path, n, extra):
    """What the reader of a ``kind`` file gives, as wide_reader_oracle gives it."""
    try:
        if kind == "edge":
            edges = read_edge_file(path, n)
            return [edges["c0"].tolist(), edges["c1"].tolist()]
        if kind == "label":
            return read_label_file(path, n, extra).tolist()
        if kind == "split":
            return read_split_file(path, n).roles.tolist()
        if kind == "meta":
            meta = read_meta_file(path, n)
            return tuple(None if a is None else a.tolist() for a in (meta.year, meta.sensitive_attr))
        if kind == "ranking":
            return [c.tolist() for c in read_ranking_file(path)]
        # graph labels: a collection of n atom-less graphs around the drawn file
        (path.parent / "sizes.tsv").write_text("".join(f"{g}\t0\n" for g in range(n)))
        (path.parent / "edges.tsv").write_text("")
        manifest = path.parent / "manifest.json"
        manifest.write_text(json.dumps({
            "kind": "graph_collection", "num_graphs": n, "num_tasks": extra,
            "graph_size_file": "sizes.tsv", "graph_file": "edges.tsv", "graph_label_file": path.name}))
        return load_dataset(manifest).collection.labels.tolist()
    except StressError as e:
        return type(e).__name__, str(e)


@pytest.mark.filterwarnings("ignore:Input line")  # see test_read_table_keeps_every_row_for_any_line_end
@pytest.mark.parametrize("kind", sorted(FILE_COLUMNS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_narrow_reads_load_and_fail_as_wide_reads_property(kind, data):
    # ids are parsed as int32 and tokens as fixed-width bytes; every file loads to the values,
    # or fails with the error class and message, of parsing every column wide
    n, extra, _ = FILE_COLUMNS[kind]
    text = data.draw(table_files(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(text.encode())
        assert _read_plainly(kind, path, n, extra) == wide_reader_oracle(kind, path, n, extra)


# the column types each reader asks read_table for
READER_TYPES = {"split": (np.int32, graph_store._ROLE_TOKEN),
                "meta": (np.int32, graph_store._YEAR_TOKEN, graph_store._FLAG_TOKEN),
                "graph_label": (np.int32, graph_store._FLAG_TOKEN, graph_store._FLAG_TOKEN),
                "ranking": (np.int32, np.int32, np.float64)}


@pytest.mark.parametrize("kind, text, wide", [
    ("split", "0\ttrain\n1\tood_test_x\n", True),
    ("split", "0\ttrain\x00\n1\ttest\n", True),
    ("split", "0\t\xe9\n", True),
    ("split", "0\ttrai\n", False),
    ("meta", "0\t000002015\t1\n1\t-\t0\n", True),
    ("meta", "0\t2015\t1\n1\t-\t-\n", False),
    ("meta", "0\t2015\t2\n", False),
    ("graph_label", "0\t1\tx\n1\t-\t0\n", False),
    ("ranking", "0\t3000000000\t0.5\n", True),
], ids=["long-role", "nul-role", "non-ascii-role", "bad-role", "long-year", "meta", "bad-sensitive",
        "bad-task", "long-id"])
def test_a_narrow_parse_falls_back_to_the_wide_one(tmp_path, kind, text, wide):
    # a token that fills its bytes width, a NUL or non-ASCII byte, or an id past int32 parses
    # the file with wide types; either way it reads, or fails, as the wide parse did. A bad
    # bytes token is named as str: '2', not b'2' (nor np.str_('2') from a str column)
    path = tmp_path / "t.tsv"
    path.write_bytes(text.encode())
    column = read_table(path, READER_TYPES[kind])[1]
    assert (column.dtype in (np.dtype(object), np.dtype(np.int64))) == wide
    assert _read_plainly(kind, path, 2, 2) == wide_reader_oracle(kind, path, 2, 2)


def test_missing_file_error(tmp_path):
    with pytest.raises(MissingFile):
        read_edge_file(tmp_path / "absent.tsv", 1)
    with pytest.raises(MissingFile):
        load_dataset(tmp_path / "absent.json")
    # a missing file a manifest names, under a key no kind reads too, fails the load at once
    manifest = save_dataset(make_node_dataset(num_nodes=60, seed=4), tmp_path / "m")
    (tmp_path / "m" / json.loads(manifest.read_text())["label_file"]).unlink()
    with pytest.raises(MissingFile, match="label"):
        load_dataset(manifest)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "label_file": "",
                                    "foo_file": "foo.tsv"}))
    with pytest.raises(MissingFile, match="foo.tsv"):
        load_dataset(manifest)


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
    for bad in ("999", "2147483648", "3000000000"):
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
    """csr_oracle's (offsets, neighbors) of each graph of a saved collection, from its arc rows."""
    _, sizes = np.loadtxt(out / "graph_sizes.tsv", dtype=np.int64, ndmin=2).T
    gids, src, dst = np.loadtxt(out / "graph_edges.tsv", dtype=np.int64, ndmin=2).T
    return [csr_oracle(int(n), list(zip(src[gids == g].tolist(), dst[gids == g].tolist())))
            for g, n in enumerate(sizes)]


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
    for g, (offsets, neighbors) in zip(back.graphs, oracle):
        assert g.num_nodes == len(offsets) - 1 and g.undirected
        assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
        assert (g.offsets.tolist(), g.neighbors.tolist()) == (offsets, neighbors)
        validate_graph(g)  # symmetric


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
    ("4\t0\t3000000000\n", BadId, r"graph 4: atom id 3000000000 out of range"),
    ("6\t0\t2\n", AsymmetricGraph, r"graph 6: arc \(0,2\) has no reverse \(2,0\)"),
], ids=["atom-too-large", "atom-negative", "atom-past-int32", "one-way-bond"])
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
    validate_graph(g)  # symmetric when symmetrized
    offsets, neighbors = csr_oracle(n, pairs + [(v, u) for u, v in pairs] if symmetrize else pairs)
    assert g.offsets.tolist() == offsets
    assert g.neighbors.tolist() == neighbors
    assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32


@pytest.mark.parametrize("undirected", [True, False], ids=["undirected", "directed"])
@given(arc_lists)
@settings(max_examples=100, deadline=None)
def test_a_saved_graph_loads_as_the_csr_oracle_property(undirected, case):
    # a load builds its CSR from the edge file's rows as from_arcs does from arrays
    n, pairs = case
    if undirected:
        pairs = pairs + [(v, u) for u, v in pairs]
    g = Graph.from_arcs(n, [u for u, _ in pairs], [v for _, v in pairs], undirected=undirected)
    with tempfile.TemporaryDirectory() as out:
        back = load_dataset(save_dataset(Dataset(kind="node_graph", name="arcs", graph=g), out)).graph
    assert (back.offsets.tolist(), back.neighbors.tolist()) == csr_oracle(n, pairs)
    assert back.undirected == undirected and back.neighbors.dtype == np.int32


@given(arc_lists, st.sets(st.integers(0, 119)))
@example((3, [(0, 1), (1, 1)]), {1})        # a self-loop, and (0,1) without its reverse
@example((4, [(0, 1), (2, 2)]), set())      # symmetric with a self-loop
@example((4, [(0, 3), (1, 2)]), {0, 1, 3})  # only (2,1) is left
@example((3, [(0, 2), (1, 2)]), {1, 2})     # (0,2), (2,1): (2,1)'s twin lands in row 0, on a 2
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
    # remove_edges on g equals the CSR oracle of g's arcs less the dropped edges
    edges, loops = canonical_edges_oracle(g)
    drop = np.array([fill == "all" or (fill == "random" and data.draw(st.booleans()))
                     for _ in edges], dtype=bool)
    out = remove_edges(g, drop)
    validate_graph(out)  # symmetric
    gone = {e for e, d in zip(edges, drop) if d}
    kept = [(u, v) for u, v in zip(*map(np.ndarray.tolist, g.arcs()))
            if (min(u, v), max(u, v)) not in gone]
    assert (out.offsets.tolist(), out.neighbors.tolist()) == csr_oracle(g.num_nodes, kept)
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
        validate_graph(sub)  # symmetric if undirected
        assert rows_ascend_oracle(sub)
        assert sub.num_nodes == len(nodes) and sub.undirected == undirected
        arcs = list(zip(*map(np.ndarray.tolist, sub.arcs())))
        assert arcs == induced_arcs_oracle(g, nodes.tolist())


@given(arc_lists, st.sets(st.integers(0, 119)), st.sampled_from([1, 3, 7]))
@example((3, []), set(), 1)                          # edgeless
@example((3, [(0, 0), (2, 2)]), set(), 1)            # self-loops only
@example((4, [(0, 1), (0, 2), (0, 3)]), set(), 1)    # a star: row 0's block has no arc u > v
@settings(max_examples=200, deadline=None)
def test_row_block_loops_match_set_oracles_property(case, drop, block):
    # the symmetry check, the reverse-arc order and the spread of per-edge
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


def test_a_1e5_node_load_peaks_under_fourteen_mib(tmp_path):
    # ids parse as int32, so each key is written over its own 8-byte (u, v) row, and the meta
    # and split tokens parse as bytes: +12.48 MiB measured on this graph (numpy 2.4.6), against
    # +20.11 MiB with int64 ids and str tokens; the bound leaves 1.5 MiB of margin
    manifest = save_dataset(make_node_dataset(num_nodes=100_000, seed=0), tmp_path / "d")
    np.char.str_len(np.array([b""]))  # numpy.char's first import is not the load's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(manifest)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ds.graph.num_arcs > 990_000
    assert peak <= 14 * 2**20


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
    edges = read_edge_file(tmp_path / "d" / "edges.tsv", g.num_nodes)
    assert edges["c0"].tolist() == g.arcs()[0].tolist() and edges["c1"].tolist() == g.neighbors.tolist()
    assert g.num_arcs > 500_000
    assert peak < 4 * g.num_arcs


def test_a_hub_row_spanning_many_written_blocks_is_built_a_block_at_a_time(tmp_path):
    # the hub's 2**16 arcs span 64 blocks of 2**10 rows; each block's sources are built
    # for its own arcs only, not for every arc of the rows it touches
    block, leaves = 2**10, 2**16
    g = Graph.from_arcs(leaves + 1, np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1),
                        symmetrize=True)
    with patch.object(graph_store, "_WRITE_ROWS", block):
        save_dataset(Dataset(kind="node_graph", name="star", graph=g), tmp_path / "d")
    assert (tmp_path / "d" / "edges.tsv").read_text() == table_text_oracle(g.arcs())
    sources, src = _ArcSources(g), g.arcs()[0]
    for lo in range(0, g.num_arcs, block):
        tracemalloc.start()
        try:
            part = sources[lo:lo + block]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(part, src[lo:lo + block])
        # the slice, and the clipped row counts of at most one row per arc, in int64
        assert peak <= 6 * 4 * len(part) + 4096


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
    with pytest.raises(AsymmetricGraph, match=r"^arc \(49000,48000\) has no reverse \(48000,49000\)$"):
        Graph.from_arcs(n, [46_400, 46_500, 49_000], [46_500, 46_400, 48_000])


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
