"""Child process of the benchmark: one set-up probe or one `stress run`.

    python3 perfbench/child.py setup MANIFEST...
    python3 perfbench/child.py run [--spans FILE] -- STRESS_RUN_ARGS...

`setup` imports graphstress.cli and loads every manifest, which is what a
run pays before its first cell. `run` calls graphstress.cli.main directly:
`python -m graphstress.cli` does nothing (the module has no __main__ block)
and the `stress` script is not on PATH when graphstress is used from a
source tree. With --spans the public functions each layer exposes are
wrapped where graphstress.cli looks them up, and the spans are written to
FILE when the run ends. graphstress is found through PYTHONPATH.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before graphstress is imported: the traced wall starts here

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# graphstress.cli name -> span name; cli binds these with `from .x import y`
CLI_WRAPPED = {
    "load_dataset": "graph_store.load_dataset",
    "save_dataset": "graph_store.save_dataset",
    "write_split_file": "graph_store.write_split_file",
    "write_triple_file": "graph_store.write_triple_file",
    "propagate_predict": "refmodel.propagate_predict",
    "predicted_class_prob": "refmodel.predicted_class_prob",
    "edge_delete": "corruption.edge_delete",
    "build_edge_manifest": "interpret.build_edge_manifest",
    "masked_graph": "interpret.masked_graph",
    "read_prediction_file": "metrics.read_prediction_file",
    "read_ranking_file": "metrics.read_ranking_file",
    "ranks_from_ranking": "metrics.ranks_from_ranking",
    "accuracy": "metrics.accuracy",
    "roc_auc": "metrics.roc_auc",
    "mrr": "metrics.mrr",
    "hits_at_k": "metrics.hits_at_k",
    "scaffold_split": "ood_splits.scaffold_split",
    "inductive_entity_split": "ood_splits.inductive_entity_split",
}


def _manifest_bytes(args, kwargs, result, error):
    manifest = Path(args[0])
    files = [manifest] + [manifest.parent / v for k, v in json.loads(manifest.read_text()).items()
                          if k.endswith("_file") and v]
    return {"bytes": sum(f.stat().st_size for f in files)}


def _graph_digest(args, kwargs, result, error):
    g = args[0]
    h = hashlib.blake2b(digest_size=16)
    h.update(g.offsets)
    h.update(g.neighbors)
    return {"graph": h.hexdigest()}


def _masked(args, kwargs, result, error):
    graph, manifest = args[0], args[1]
    rebuilt = result is not None and result[0] is not graph
    return {"arcs_rebuilt": result[0].num_arcs if rebuilt else 0,
            "receptive_edges": len(manifest.edges)}


COUNTS = {
    "load_dataset": _manifest_bytes,
    "propagate_predict": _graph_digest,
    "masked_graph": _masked,
    "build_edge_manifest": lambda a, k, r, e: {"used": int(e is None)},
    "read_prediction_file": lambda a, k, r, e: {"rows": len(r.unit_ids) if r else 0},
    "read_ranking_file": lambda a, k, r, e: {"rows": len(r[0]) if r else 0},
    "ranks_from_ranking": lambda a, k, r, e: {"queries": len(r) if r is not None else 0},
}


def install(rec) -> None:
    """Wrap every traced layer entry point of graphstress from outside."""
    import graphstress.cli as cli
    from graphstress.graph_store import Graph

    for name, span in CLI_WRAPPED.items():
        setattr(cli, name, rec.wrap(span, getattr(cli, name), COUNTS.get(name)))
    from_arcs = Graph.__dict__["from_arcs"].__func__
    Graph.from_arcs = classmethod(rec.wrap(
        "graph_store.Graph.from_arcs", from_arcs,
        lambda a, k, r, e: {"arcs": r.num_arcs if r is not None else 0}))
    runner = cli.PipelineRunner
    for axis in ("corruption", "ood", "imbalance", "fairness", "interpret"):
        setattr(runner, f"_axis_{axis}",
                rec.wrap(f"cli.axis.{axis}", getattr(runner, f"_axis_{axis}")))
    runner._run_job = rec.wrap("cli.job", runner._run_job)

    class TracedPool(cli.ThreadPoolExecutor):
        # the main thread waits inside the `with` block while jobs run
        def __enter__(self):
            self._wait = rec.begin("cli.pool.wait")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.end(self._wait)

    cli.ThreadPoolExecutor = TracedPool


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from graphstress.cli import load_dataset
        for manifest in rest:
            load_dataset(manifest)
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    spans_path = None
    if rest[0] == "--spans":
        spans_path, rest = Path(rest[1]), rest[2:]
    if rest[0] == "--":
        rest = rest[1:]
    if spans_path is None:
        from graphstress.cli import main as stress
        return stress(rest)
    from spans import SpanRecorder  # untraced runs do not pay for the recorder
    rec = SpanRecorder()
    root = rec.begin("cli.main", start=T0)
    install(rec)
    import graphstress.cli as cli
    try:
        return cli.main(rest)
    finally:
        rec.end(root)
        spans_path.write_text(json.dumps(rec.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
