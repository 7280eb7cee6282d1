"""Attribution-fidelity protocol: subgraphs, masking, fidelity combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.cli import PipelineRunner
from graphstress.determinism import derive_key
from graphstress.errors import (
    BadProbability,
    DirectedGraph,
    EmptySubgraph,
    LengthMismatch,
    MissingNodeScore,
    SeedCountMismatch,
)
from graphstress.graph_store import Graph, validate_graph
from graphstress.interpret import (
    K_PERCENT_LEVELS,
    SaliencyTable,
    build_edge_manifest,
    char_lift,
    condition_name,
    edge_saliency_from_node_grads,
    fidelity,
    mask_count,
    masked_graph,
    read_manifest_file,
    read_probs_file,
    read_saliency_file,
    write_manifest_file,
    write_probs_file,
    write_saliency_file,
)
from graphstress.report import MetricCell
from oracles import (
    adjacency_from_graph,
    bfs_hops_oracle,
    canonical_edges_oracle,
    manifest_complement,
    rank_and_mask,
    rows_ascend_oracle,
)

KEY = derive_key("interpret", "unit", "mask", 0, 0)


def _node_scores(n, seed=0):
    rng = np.random.default_rng(seed)
    return SaliencyTable("node_grad_norm", np.arange(n), rng.random(n))


# ---------------------------------------------------------------------------
# saliency tables
# ---------------------------------------------------------------------------

def test_saliency_validation():
    with pytest.raises(BadProbability):
        SaliencyTable("node_grad_norm", np.array([0]), np.array([-0.1]))
    with pytest.raises(BadProbability):
        SaliencyTable("node_grad_norm", np.array([0]), np.array([np.nan]))
    with pytest.raises(LengthMismatch):
        SaliencyTable("node_grad_norm", np.array([0, 1]), np.array([0.5]))
    t = SaliencyTable("node_grad_norm", np.array([5, 2]), np.array([0.1, 0.9]))
    assert t.scores_for(np.array([2, 5])).tolist() == [0.9, 0.1]
    with pytest.raises(MissingNodeScore):
        t.scores_for(np.array([3]))


# ---------------------------------------------------------------------------
# k-hop subgraphs
# ---------------------------------------------------------------------------

def test_khop_star():
    # star centered at 0 with leaves 1..4, plus distant pair 5-6
    g = Graph.from_arcs(7, [0, 0, 0, 0, 5], [1, 2, 3, 4, 6], symmetrize=True)
    manifest = build_edge_manifest(g, 0, _node_scores(7), KEY, 1, K_PERCENT_LEVELS)
    assert manifest.nodes.tolist() == [0, 1, 2, 3, 4]
    assert {tuple(e) for e in manifest.edges.tolist()} == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_khop_isolated_node():
    # a target whose only arc is a self-loop has a receptive field of itself and no maskable edge
    g = Graph.from_arcs(3, [0, 2], [1, 2], symmetrize=True)
    with pytest.raises(EmptySubgraph):
        build_edge_manifest(g, 2, _node_scores(3), KEY, 2, K_PERCENT_LEVELS)
    manifest = build_edge_manifest(g, 0, _node_scores(3), KEY, 2, K_PERCENT_LEVELS)
    assert manifest.nodes.tolist() == [0, 1]
    assert manifest.edges.tolist() == [[0, 1]]


def test_khop_excludes_self_loops(random_graph):
    manifest = build_edge_manifest(random_graph, 7, _node_scores(100), KEY, 1, K_PERCENT_LEVELS)
    assert 7 in manifest.nodes
    for u, v in manifest.edges.tolist():
        assert u < v  # strict: no loops, canonical orientation


def test_khop_matches_bfs_oracle(random_graph):
    adjacency = adjacency_from_graph(random_graph)
    scores = _node_scores(100)
    for center in [0, 7, 31, 99]:
        for hops in (1, 2, 3):
            manifest = build_edge_manifest(random_graph, center, scores, KEY, hops,
                                           K_PERCENT_LEVELS)
            assert set(manifest.nodes.tolist()) == bfs_hops_oracle(adjacency, center, hops)
            # induced edges: every canonical non-loop edge with both ends inside
            inside = set(manifest.nodes.tolist())
            expected = {e for e in canonical_edges_oracle(random_graph)[0]
                        if e[0] in inside and e[1] in inside}
            assert {tuple(e) for e in manifest.edges.tolist()} == expected


# ---------------------------------------------------------------------------
# edge scores, mask counts, rankings
# ---------------------------------------------------------------------------

def test_edge_saliency_endpoint_sum():
    t = SaliencyTable("node_grad_norm", np.arange(4), np.array([1.0, 2.0, 4.0, 8.0]))
    edges = np.array([[0, 1], [1, 3], [2, 3]])
    assert edge_saliency_from_node_grads(t, edges).tolist() == [3.0, 10.0, 12.0]
    assert edge_saliency_from_node_grads(t, np.empty((0, 2), np.int64)).size == 0


def test_mask_count_examples():
    assert mask_count(5, 100) == 5
    assert mask_count(5, 10) == 1    # ceil(0.5)
    assert mask_count(5, 1) == 1     # floor of one unit
    assert mask_count(50, 7) == 4    # ceil(3.5)
    assert mask_count(20, 7) == 2    # ceil(1.4)


def test_rank_and_mask_saliency_tie_rule():
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    masked, comp = rank_and_mask(scores, 50, KEY, "saliency")
    # order: 1 (0.9), then ties 0 and 2 in position order; k = ceil(2) = 2
    assert masked.tolist() == [0, 1]
    assert comp.tolist() == [2, 3]


def test_rank_and_mask_partition():
    scores = np.random.default_rng(1).random(23)
    for ranking in ("saliency", "random"):
        for k in K_PERCENT_LEVELS:
            masked, comp = rank_and_mask(scores, k, KEY, ranking)
            assert len(masked) == mask_count(k, 23)
            merged = np.sort(np.concatenate([masked, comp]))
            assert np.array_equal(merged, np.arange(23))


def test_random_masks_nest_across_k(random_graph):
    scores = np.random.default_rng(2).random(40)
    prev = None
    for k in K_PERCENT_LEVELS:
        masked, _ = rank_and_mask(scores, k, KEY, "random")
        if prev is not None:
            assert set(prev.tolist()) <= set(masked.tolist())
        prev = masked


def test_saliency_masks_nest_across_k():
    scores = np.random.default_rng(3).random(40)
    prev = None
    for k in K_PERCENT_LEVELS:
        masked, _ = rank_and_mask(scores, k, KEY, "saliency")
        if prev is not None:
            assert set(prev.tolist()) <= set(masked.tolist())
        prev = masked



# ---------------------------------------------------------------------------
# fidelity combination
# ---------------------------------------------------------------------------

def test_fidelity_perfect_attribution():
    # masking salient units destroys the prediction (Fid+=1) while masking
    # the complement leaves it intact (Fid-=0): char must be ~1
    rec = fidelity(1.0, 0.0, 1.0)
    assert rec.fid_plus == 1.0 and rec.fid_minus == 0.0
    assert rec.char == pytest.approx(1.0, abs=1e-6)


def test_fidelity_useless_attribution():
    # masking salient units changes nothing: a = 0 forces char = 0 exactly
    rec = fidelity(0.8, 0.8, 0.8)
    assert rec.char == 0.0
    assert fidelity(0.6, 0.9, 0.1).char == 0.0  # negative Fid+ clamps to 0


def test_fidelity_worked_example():
    # p0=0.9, p+=0.4, p-=0.85: a=0.5, b=0.95, char = 2*0.475/1.45
    rec = fidelity(0.9, 0.4, 0.85)
    assert rec.fid_plus == pytest.approx(0.5)
    assert rec.fid_minus == pytest.approx(0.05)
    assert rec.char == pytest.approx(2 * 0.5 * 0.95 / (0.5 + 0.95 + 1e-8), abs=1e-12)
    assert rec.char == pytest.approx(0.6552, abs=1e-4)


def test_fidelity_keeps_raw_values():
    rec = fidelity(0.2, 0.9, 0.05)
    assert rec.fid_plus == pytest.approx(-0.7)   # raw, unclamped
    assert rec.fid_minus == pytest.approx(0.15)
    assert rec.char == 0.0


def test_fidelity_validates_probabilities():
    with pytest.raises(BadProbability):
        fidelity(1.2, 0.5, 0.5)
    with pytest.raises(BadProbability):
        fidelity(0.5, -0.1, 0.5)
    with pytest.raises(BadProbability):
        fidelity(0.5, 0.5, float("nan"))


def test_char_lift_error_propagation():
    sal = MetricCell(mean=0.9, std=3.0, n=5)
    rand = MetricCell(mean=0.2, std=4.0, n=5)
    lift = char_lift(sal, rand)
    assert lift.mean == pytest.approx(0.7)
    assert lift.std == pytest.approx(5.0)  # sqrt(9 + 16)
    assert lift.n == 5


def test_char_lift_undefined_and_mismatch():
    sal = MetricCell(mean=0.9, std=0.1, n=5)
    assert char_lift(sal, MetricCell.undef(5)).undefined
    with pytest.raises(SeedCountMismatch):
        char_lift(sal, MetricCell(mean=0.1, std=0.1, n=3))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_edge_manifest_conditions(random_graph):
    scores = _node_scores(random_graph.num_nodes)
    manifest = build_edge_manifest(random_graph, 7, scores, KEY, 2, K_PERCENT_LEVELS)
    assert set(manifest.conditions) == {
        condition_name(r, side, k)
        for r in ("saliency", "random") for side in ("top", "comp") for k in K_PERCENT_LEVELS
    }
    m = len(manifest.edges)
    for k in K_PERCENT_LEVELS:
        top = manifest.conditions[condition_name("saliency", "top", k)]
        comp = manifest.conditions[condition_name("saliency", "comp", k)]
        assert len(top) == mask_count(k, m)
        assert np.array_equal(np.sort(np.concatenate([top, comp])), np.arange(m))
        assert np.array_equal(manifest_complement(manifest, condition_name("saliency", "top", k)),
                              comp)


def test_edge_manifest_empty_receptive_field():
    g = Graph.from_arcs(3, [0], [1], symmetrize=True)
    with pytest.raises(EmptySubgraph):
        build_edge_manifest(g, 2, _node_scores(3), KEY, 2, K_PERCENT_LEVELS)


def test_edge_manifest_rejects_a_directed_graph():
    # target 2 reaches 0, 1 and 3, but its one-way arc (2, 0) is no edge u < v
    g = Graph.from_arcs(4, [0, 2, 0], [1, 0, 3], undirected=False)
    with pytest.raises(DirectedGraph):
        build_edge_manifest(g, 2, _node_scores(4), KEY, 2, K_PERCENT_LEVELS)


def test_masked_graph_edge_kind(random_graph):
    scores = _node_scores(random_graph.num_nodes)
    manifest = build_edge_manifest(random_graph, 7, scores, KEY, 2, K_PERCENT_LEVELS)
    name = condition_name("saliency", "top", 50)
    out = masked_graph(random_graph, manifest, name)
    validate_graph(out)  # symmetric
    assert rows_ascend_oracle(out)
    removed = {tuple(e) for e in manifest.edges[manifest.conditions[name]].tolist()}
    remaining, loops = canonical_edges_oracle(out)
    assert set(remaining).isdisjoint(removed)
    assert set(remaining) == set(canonical_edges_oracle(random_graph)[0]) - removed
    # self-loops survive every masking condition
    assert 7 in loops


def test_masked_graph_equals_a_rebuild_for_every_condition(random_graph):
    # the arcs left after dropping both arcs of each masked edge, rebuilt from scratch
    manifest = build_edge_manifest(random_graph, 7, _node_scores(random_graph.num_nodes), KEY,
                                   3, K_PERCENT_LEVELS)
    src, dst = random_graph.arcs()
    for name, masked in manifest.conditions.items():
        gone = {tuple(e) for e in manifest.edges[masked].tolist()}
        keep = [(min(u, v), max(u, v)) not in gone for u, v in zip(src.tolist(), dst.tolist())]
        rebuilt = Graph.from_arcs(random_graph.num_nodes, src[keep], dst[keep])
        out = masked_graph(random_graph, manifest, name)
        assert np.array_equal(out.offsets, rebuilt.offsets), name
        assert np.array_equal(out.neighbors, rebuilt.neighbors), name


def test_refmodel_interpret_job_builds_no_graph(tmp_path, monkeypatch, node_dataset):
    runner = PipelineRunner({"interpret_targets": 4}, tmp_path, workers=1)
    built = []
    from_arcs = Graph.__dict__["from_arcs"].__func__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return from_arcs(cls, *args, **kwargs)

    monkeypatch.setattr(Graph, "from_arcs", classmethod(counting))
    values = runner._axis_interpret(node_dataset, {"kind": "refmodel", "name": "refmodel"}, 0)
    assert built == []
    assert len(values) == 2 * len(K_PERCENT_LEVELS)
    assert all(v is not None for v in values.values())


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path, random_graph):
    manifest = build_edge_manifest(random_graph, 31, _node_scores(100), KEY, 2, K_PERCENT_LEVELS)
    p = tmp_path / "t31.manifest"
    write_manifest_file(p, manifest)
    back = read_manifest_file(p)
    assert back.target == 31
    assert np.array_equal(back.nodes, manifest.nodes)
    assert np.array_equal(back.edges, manifest.edges)
    assert set(back.conditions) == set(manifest.conditions)
    for name in manifest.conditions:
        assert np.array_equal(back.conditions[name], manifest.conditions[name])


def test_manifest_incomplete_rejected(tmp_path):
    p = tmp_path / "bad.manifest"
    p.write_text("nodes\t0 1 2\n")
    with pytest.raises(LengthMismatch):
        read_manifest_file(p)


@pytest.mark.parametrize("line", ["target\tx", "edge\t1"], ids=["target-not-a-number",
                                                                 "edge-one-endpoint"])
def test_malformed_manifest_line_names_file_and_line(tmp_path, line):
    p = tmp_path / "bad.manifest"
    p.write_text(f"unit_kind\tedge\nnodes\t0 1\n{line}\n")
    with pytest.raises(LengthMismatch, match=r"bad\.manifest: line 3: "):
        read_manifest_file(p)


def test_manifest_file_writes_edge_unit_kind_and_rejects_others(tmp_path, random_graph):
    manifest = build_edge_manifest(random_graph, 31, _node_scores(100), KEY, 2, K_PERCENT_LEVELS)
    p = tmp_path / "t31.manifest"
    write_manifest_file(p, manifest)
    lines = p.read_text().splitlines()
    assert lines[:2] == ["target\t31", "unit_kind\tedge"]
    lines[1] = "unit_kind\tatom"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(LengthMismatch, match="unit_kind"):
        read_manifest_file(p)


def test_saliency_file_round_trip(tmp_path):
    t = _node_scores(30, seed=5)
    p = tmp_path / "s.tsv"
    write_saliency_file(p, t)
    assert p.read_text().splitlines()[0] == "#kind\tnode_grad_norm"
    back = read_saliency_file(p)
    assert back.kind == t.kind
    assert np.array_equal(back.unit_ids, t.unit_ids)
    assert back.scores.tobytes() == t.scores.tobytes()


def test_probs_file_round_trip(tmp_path):
    probs = {(3, "saliency_top_5"): 0.25, (1, "random_comp_50"): 0.75}
    p = tmp_path / "p.tsv"
    write_probs_file(p, probs)
    assert read_probs_file(p) == probs


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(1, 120), st.sampled_from(K_PERCENT_LEVELS))
@settings(max_examples=300, deadline=None)
def test_mask_count_property(m, k):
    c = mask_count(k, m)
    assert 1 <= c <= m
    assert c >= k * m / 100.0  # ceil never under-masks


@given(st.integers(0, 40), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_partition_property_random_subgraphs(seed, extra):
    rng = np.random.default_rng(seed + extra)
    n = int(rng.integers(4, 30))
    src = rng.integers(0, n, size=3 * n)
    dst = rng.integers(0, n, size=3 * n)
    g = Graph.from_arcs(n, src, dst, symmetrize=True)
    center = int(rng.integers(0, n))
    try:
        edges = build_edge_manifest(g, center, _node_scores(n, seed), KEY, 2,
                                    K_PERCENT_LEVELS).edges
    except EmptySubgraph:
        return
    scores = rng.random(len(edges))
    key = derive_key("interpret", "prop", "mask", 0, seed)
    for ranking in ("saliency", "random"):
        for k in K_PERCENT_LEVELS:
            masked, comp = rank_and_mask(scores, k, key, ranking)
            assert np.array_equal(np.sort(np.concatenate([masked, comp])),
                                  np.arange(len(edges)))


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=500, deadline=None)
def test_char_bounded_property(p0, p_plus, p_minus):
    rec = fidelity(p0, p_plus, p_minus)
    assert 0.0 <= rec.char <= 1.0
