"""The span collection core: context, nesting, transport, zero-cost off."""

from __future__ import annotations

import os

import pytest

from repro.obs import spans as _spans
from repro.obs.spans import (
    NOOP_SPAN,
    attach,
    current_context,
    drain,
    is_remote,
    span,
)


class TestDisabled:
    def test_span_returns_the_shared_noop(self):
        assert span("anything") is NOOP_SPAN
        assert span("other", key="value") is NOOP_SPAN

    def test_noop_span_context_manager_collects_nothing(self):
        with span("work") as sp:
            sp.set(hit=True)
        assert drain() == []

    def test_current_context_is_none(self):
        assert current_context() is None


class TestCollection:
    def test_span_records_name_pid_and_duration(self):
        _spans.enable(True)
        with span("stage", workload="gzip"):
            pass
        (record,) = drain()
        assert record["name"] == "stage"
        assert record["pid"] == os.getpid()
        assert record["duration_s"] >= 0.0
        assert record["attrs"] == {"workload": "gzip"}
        assert record["parent_id"] is None

    def test_nesting_builds_a_parent_chain(self):
        _spans.enable(True)
        with span("root"):
            with span("middle"):
                with span("leaf"):
                    pass
        by_name = {s["name"]: s for s in drain()}
        assert by_name["leaf"]["parent_id"] == by_name["middle"]["span_id"]
        assert by_name["middle"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["parent_id"] is None
        assert len({s["trace_id"] for s in by_name.values()}) == 1

    def test_siblings_share_the_same_parent(self):
        _spans.enable(True)
        with span("root"):
            with span("first"):
                pass
            with span("second"):
                pass
        by_name = {s["name"]: s for s in drain()}
        assert by_name["first"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["second"]["parent_id"] == by_name["root"]["span_id"]

    def test_set_updates_attributes_mid_span(self):
        _spans.enable(True)
        with span("probe", content_key="abc") as sp:
            sp.set(hit=False)
        (record,) = drain()
        assert record["attrs"] == {"content_key": "abc", "hit": False}

    def test_exception_is_recorded_and_propagates(self):
        _spans.enable(True)
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (record,) = drain()
        assert record["attrs"]["error"] == "ValueError"

    def test_drain_clears_the_collector(self):
        _spans.enable(True)
        with span("once"):
            pass
        assert len(drain()) == 1
        assert drain() == []

    def test_add_spans_folds_foreign_records_in(self):
        _spans.enable(True)
        _spans.add_spans([{"name": "imported", "span_id": "x",
                           "parent_id": None, "trace_id": "t",
                           "pid": 1, "start_unix": 0.0,
                           "duration_s": 0.1, "attrs": {}}])
        assert [s["name"] for s in drain()] == ["imported"]

    def test_histogram_observed_per_span(self):
        from repro.telemetry.metrics import metrics_registry

        _spans.enable(True)
        with span("timed.stage"):
            pass
        drain()
        hist = metrics_registry().histogram("obs.timed.stage.seconds")
        assert hist.count == 1


class TestContextTransport:
    def test_current_context_carries_trace_span_and_pid(self):
        _spans.enable(True)
        with span("root") as sp:
            ctx = current_context()
            assert ctx == {"trace_id": sp.record["trace_id"],
                           "span_id": sp.record["span_id"],
                           "pid": os.getpid()}
        assert current_context() is None  # no live span any more
        drain()

    def test_is_remote_compares_pids(self):
        assert not is_remote(None)
        assert not is_remote({})
        assert not is_remote({"pid": os.getpid()})
        assert is_remote({"pid": os.getpid() + 1})

    def test_attach_reparents_under_the_payload(self):
        _spans.enable(True)
        ctx = {"trace_id": "far-trace", "span_id": "far-span", "pid": 999}
        with attach(ctx):
            with span("re-rooted"):
                pass
        (record,) = drain()
        assert record["trace_id"] == "far-trace"
        assert record["parent_id"] == "far-span"

    def test_attach_none_is_a_no_op(self):
        _spans.enable(True)
        with attach(None):
            with span("plain"):
                pass
        (record,) = drain()
        assert record["parent_id"] is None

    def test_attach_enables_collection_for_the_receiver(self):
        assert not _spans.enabled()
        ctx = {"trace_id": "t", "span_id": "s", "pid": 999}
        with attach(ctx):
            assert _spans.enabled()
            with span("woken"):
                pass
        assert [s["name"] for s in drain()] == ["woken"]


class TestStreamedRunStages:
    def test_recording_pass_has_its_own_span(self):
        """The streamed recording pass is timed apart from the engine:
        one ``frontend.record`` span per chunk pull, nested in
        ``sim.stream.engine``, with a positive total."""
        from repro.simulator.streaming import simulate_stream
        from repro.trace.chunks import TraceChunkStream
        from repro.trace.vectorgen import stream_chunks

        n, chunk_size = 3000, 1000
        stream = TraceChunkStream(
            lambda: stream_chunks("gzip", n, chunk_size=chunk_size),
            name="gzip", length=n, chunk_size=chunk_size,
        )
        _spans.enable(True)
        simulate_stream(stream, instrument=False, telemetry=False)
        records = drain()
        (engine,) = [s for s in records if s["name"] == "sim.stream.engine"]
        record = [s for s in records if s["name"] == "frontend.record"]
        assert len(record) == n // chunk_size
        assert all(s["parent_id"] == engine["span_id"] for s in record)
        assert sum(s["duration_s"] for s in record) > 0
