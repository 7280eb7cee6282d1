"""Outside-in span recorder and the per-layer metrics computed from its spans.

The recorder wraps public functions at the names their callers look up, so
graphstress itself carries no tracing code. A span is (name, start, end,
parent, thread, counts); the parent is the innermost open span of the same
thread, so jobs on a thread pool never nest inside each other. Spans stay in
memory until the run ends.

Self time is a span's duration minus the durations of its direct children,
which run one after another on the span's thread. Summed over all spans it
equals the summed duration of the root spans, which is what lets per-layer
self times plus the runner's own share account for the traced run.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time

# spans that are not work: the main thread blocked on the pool, and the
# recorder's own bookkeeping after a wrapped call returns
IDLE = ("cli.pool.wait", "trace.bookkeeping")

AXES = ("corruption", "ood", "imbalance", "fairness", "interpret")

# reported layer -> recorded span names whose self time it sums
LAYER_SPANS = {
    "interpret.masked_graph": ("interpret.masked_graph",),
    "interpret.build_edge_manifest": ("interpret.build_edge_manifest",),
    "graph_store.Graph.from_arcs": ("graph_store.Graph.from_arcs",),
    "graph_store.load_dataset": ("graph_store.load_dataset",),
    "graph_store.write": ("graph_store.write_split_file", "graph_store.write_triple_file",
                          "graph_store.save_dataset"),
    "refmodel.propagate_predict": ("refmodel.propagate_predict",),
    "refmodel.predicted_class_prob": ("refmodel.predicted_class_prob",),
    "corruption.edge_delete": ("corruption.edge_delete",),
    "metrics.read_prediction_file": ("metrics.read_prediction_file",),
    "metrics.read_ranking_file": ("metrics.read_ranking_file",),
    "metrics.ranks_from_ranking": ("metrics.ranks_from_ranking",),
    "metrics.kernels": ("metrics.accuracy", "metrics.roc_auc", "metrics.mrr",
                        "metrics.hits_at_k"),
    "ood_splits.scaffold_split": ("ood_splits.scaffold_split",),
    "ood_splits.inductive_entity_split": ("ood_splits.inductive_entity_split",),
}


class SpanRecorder:
    """Collects spans from any thread; ``wrap`` turns a function into a span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, start: float | None = None) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "start": time.perf_counter() if start is None else start,
                "end": None, "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(), "counts": {}}
        stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn, counts=None):
        """Span-recording version of ``fn``.

        ``counts(args, kwargs, result, error)`` returns a dict of counts for
        the span; its own time is recorded as a trace.bookkeeping span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                self.end(span)
                if counts is not None:
                    book = self.begin("trace.bookkeeping")
                    span["counts"] = counts(args, kwargs, result, error)
                    self.end(book)
        return wrapper


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _sum_counts(spans, key):
    return sum(s["counts"].get(key, 0) for s in spans)


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    The job phase runs from the first job's start to the last job's end;
    cli.job.queue_wait_s is the mean delay of a job's start after the first
    one, and cli.pool.busy_share is job time / (workers x job phase).
    trace.busy_thread_s counts thread-seconds of work (the traced wall at one
    worker), and the layers' self_s plus cli.untraced_share times it add up
    to it. Shares whose base is zero on a workload are reported as 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names):
        return sum(selfs[s["id"]] for s in named(*names))

    m: dict[str, float] = {}
    for layer, names in LAYER_SPANS.items():
        m[f"{layer}.calls"] = len(named(*names))
        m[f"{layer}.self_s"] = self_s(*names)

    masked = named("interpret.masked_graph")
    m["interpret.masked_graph.arcs_rebuilt"] = _sum_counts(masked, "arcs_rebuilt")
    m["interpret.receptive_edges"] = _sum_counts(masked, "receptive_edges")
    m["interpret.mask_useful_share"] = (
        m["interpret.receptive_edges"] / m["interpret.masked_graph.arcs_rebuilt"]
        if m["interpret.masked_graph.arcs_rebuilt"] else 0.0)
    manifests = named("interpret.build_edge_manifest")
    m["interpret.targets_used_share"] = (
        _sum_counts(manifests, "used") / len(manifests) if manifests else 0.0)
    m["graph_store.Graph.from_arcs.arcs"] = _sum_counts(
        named("graph_store.Graph.from_arcs"), "arcs")
    prop = named("refmodel.propagate_predict")
    distinct = len({s["counts"]["graph"] for s in prop})
    m["refmodel.propagate_predict.distinct_graphs"] = distinct
    m["refmodel.propagate_predict.reuse_share"] = 1.0 - distinct / len(prop) if prop else 0.0
    m["graph_store.load_dataset.bytes_read"] = _sum_counts(
        named("graph_store.load_dataset"), "bytes")
    m["metrics.read_prediction_file.rows"] = _sum_counts(
        named("metrics.read_prediction_file"), "rows")
    m["metrics.read_ranking_file.rows"] = _sum_counts(named("metrics.read_ranking_file"), "rows")
    m["metrics.ranks_from_ranking.queries"] = _sum_counts(
        named("metrics.ranks_from_ranking"), "queries")

    for axis in AXES:
        m[f"cli.axis.{axis}.s"] = sum(s["end"] - s["start"] for s in named(f"cli.axis.{axis}"))
    jobs = named("cli.job")
    durations = [s["end"] - s["start"] for s in jobs]
    m["cli.jobs"] = len(jobs)
    m["cli.job.p50_s"] = statistics.median(durations) if durations else 0.0
    m["cli.job.max_s"] = max(durations, default=0.0)
    if jobs:
        first = min(s["start"] for s in jobs)
        phase = max(s["end"] for s in jobs) - first
        m["cli.job.queue_wait_s"] = statistics.fmean(s["start"] - first for s in jobs)
        m["cli.pool.busy_share"] = sum(durations) / (workers * phase) if phase > 0 else 0.0
    else:
        m["cli.job.queue_wait_s"] = 0.0
        m["cli.pool.busy_share"] = 0.0

    # accounting base: thread-seconds of work (the traced wall at one worker)
    busy = sum(selfs[s["id"]] for s in spans if s["name"] not in IDLE)
    cli_self = sum(selfs[s["id"]] for s in spans if s["name"].startswith("cli.")
                   and s["name"] not in IDLE)
    m["trace.busy_thread_s"] = busy
    m["cli.untraced_share"] = cli_self / busy if busy else 0.0
    return m

