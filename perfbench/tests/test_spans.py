import threading
import time

import pytest

from spans import SpanRecorder, layer_metrics, self_times


def span(sid, name, start, end, parent=None, thread=1, **counts):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "counts": counts}


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "interpret.masked_graph", 1.0, 5.0, parent=0),
        span(2, "graph_store.Graph.from_arcs", 2.0, 4.5, parent=1),
        span(3, "refmodel.propagate_predict", 6.0, 7.0, parent=0),
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 5.0, 1: 1.5, 2: 2.5, 3: 1.0})
    assert sum(st.values()) == pytest.approx(10.0)  # equals the root's duration


def test_two_thread_spans_keep_their_own_parents():
    spans = [
        span(0, "cli.main", 0.0, 10.0, thread=1),
        span(1, "cli.pool.wait", 1.0, 9.0, parent=0, thread=1),
        span(2, "cli.job", 1.0, 8.0, thread=2),
        span(3, "refmodel.propagate_predict", 2.0, 6.0, parent=2, thread=2, graph="g"),
        span(4, "cli.job", 1.0, 9.0, thread=3),
        span(5, "graph_store.Graph.from_arcs", 1.5, 8.5, parent=4, thread=3),
    ]
    st = self_times(spans)
    assert st[2] == pytest.approx(3.0) and st[4] == pytest.approx(1.0)
    m = layer_metrics(spans, workers=2)
    # busy thread-seconds: main thread outside the pool wait plus both jobs
    assert m["trace.busy_thread_s"] == pytest.approx(2.0 + 7.0 + 8.0)
    assert m["cli.jobs"] == 2
    assert m["cli.pool.busy_share"] == pytest.approx(15.0 / (2 * 8.0))
    layers = m["refmodel.propagate_predict.self_s"] + m["graph_store.Graph.from_arcs.self_s"]
    assert layers + m["cli.untraced_share"] * m["trace.busy_thread_s"] == \
        pytest.approx(m["trace.busy_thread_s"])


def test_recorder_parents_follow_threads():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.01))

    def outer():
        inner()

    outer = rec.wrap("outer", outer)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s["id"]: s for s in rec.spans}
    inners = [s for s in rec.spans if s["name"] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s["parent"]]
        assert parent["name"] == "outer" and parent["thread"] == s["thread"]
    assert all(s["parent"] is None for s in rec.spans if s["name"] == "outer")


def test_wrap_records_counts_and_reraises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    f = rec.wrap("boom", boom, lambda a, k, r, e: {"failed": int(e is not None)})
    with pytest.raises(ValueError):
        f()
    (s,) = [s for s in rec.spans if s["name"] == "boom"]
    assert s["counts"] == {"failed": 1}
    assert [s["name"] for s in rec.spans].count("trace.bookkeeping") == 1
