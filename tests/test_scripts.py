"""The example scripts under scripts/, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import graphstress
from graphstress.graph_store import load_dataset

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args, cwd):
    src = str(Path(graphstress.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_make_synthetic_dataset_writes_three_loadable_datasets(tmp_path):
    proc = _run("make_synthetic_dataset.py", "--out", str(tmp_path / "data"), "--nodes", "200",
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    kinds = {name: load_dataset(tmp_path / "data" / name / "manifest.json").kind
             for name in ("synth1k", "synthmol", "synthkg")}
    assert kinds == {"synth1k": "node_graph", "synthmol": "graph_collection", "synthkg": "triples"}


def test_run_demo_pipeline_writes_a_report(tmp_path):
    proc = _run("run_demo_pipeline.py", "--seeds", "1", "--out", str(tmp_path / "demo"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "demo" / "results" / "report.csv").read_text()
    assert report.splitlines()[0].startswith("axis,")
    assert report in proc.stdout  # the script prints the report it wrote
