import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import spans
import workloads
from conftest import BENCH, ROOT
from small import shrink

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# (workload, metrics the workload must exercise)
EXERCISED = {
    "node10k-allaxes": ["interpret.masked_graph.calls", "refmodel.predicted_class_prob.calls",
                        "corruption.edge_delete.calls", "cli.axis.interpret.s"],
    "node100k-propagate": ["refmodel.propagate_predict.calls", "corruption.edge_delete.calls"],
    "ood-external": ["metrics.read_ranking_file.rows", "metrics.ranks_from_ranking.queries",
                     "metrics.read_prediction_file.rows", "graph_store.write.bytes",
                     "ood_splits.scaffold_split.self_s"],
}


@pytest.fixture
def shrunk(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "REFERENCES", tmp_path / "none.json")
    shrink(monkeypatch)


def recorded(tmp_path, name):
    """A Bench on shrunk inputs whose reference is a --workers 1 run of them."""
    bench = run.Bench(ROOT, workloads.WORKLOADS[name], 5, work=tmp_path)
    assert bench.ref is None
    bench.ref = bench.stress("reference", 1, record=True)["fingerprint"]
    return bench


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(tmp_path, shrunk, name):
    bench = recorded(tmp_path, name)
    metrics = run.per_layer(bench)
    assert bench.failed == 0 and bench.attempted > 0
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    for metric in EXERCISED[name]:
        assert metrics[metric] > 0, metric
    if name != "node10k-allaxes":
        assert metrics["interpret.masked_graph.calls"] == 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYER_SPANS)
    busy = metrics["trace.busy_thread_s"]
    assert layers + metrics["cli.untraced_share"] * busy == pytest.approx(busy)


def test_end_to_end_metrics_and_reference_check(tmp_path, shrunk):
    bench = recorded(tmp_path, "node10k-allaxes")
    metrics = run.end_to_end(bench, seconds=0)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)
    assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])
    # the workers=1 reference run, then the workers=2 timed runs checked against it
    assert bench.attempted == (1 + run.MIN_TIMED_RUNS) * len(bench.jobs)
    assert bench.failed == 0


def test_runs_without_a_reference_fail(tmp_path, shrunk):
    bench = run.Bench(ROOT, workloads.WORKLOADS["node100k-propagate"], 5, work=tmp_path)
    bench.stress("timed0", 1)
    assert bench.attempted == bench.failed == len(bench.jobs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "node10k-allaxes",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
