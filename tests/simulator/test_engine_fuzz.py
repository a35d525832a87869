"""Differential fuzzing of the detailed-simulation engines.

Hypothesis draws short synthetic traces, random machine configurations
(narrow to wide, shallow to deep, windows and ROBs down to one or two
entries, ideal and tiny caches) and random chunk sizes — including sizes
below the machine's live span ``rob + depth * width``, where the
streamed engine must drop retired instructions and rebase its indices
many times per chunk.  For every draw the reference loop, ``run_fast``
and ``simulate_stream`` must agree on the whole :class:`SimResult`
(instrumentation included) and on the telemetry report, event indices
included.  A run must also leave the caller's dependence lists and
annotation arrays untouched.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ProcessorConfig
from repro.memory.config import CacheGeometry, HierarchyConfig
from repro.simulator.processor import DetailedSimulator
from repro.simulator.streaming import simulate_stream
from repro.telemetry import Telemetry, TelemetryConfig
from repro.trace.chunks import TraceChunkStream
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace

#: the streamed functional pass costs about 0.1 ms per chunk whatever
#: its size, so runs are capped at this many chunks to keep the suite
#: fast; chunks of one instruction still occur on traces up to this long
_MAX_CHUNKS = 256

#: small telemetry intervals and an event trace, so the timeline and
#: every index-carrying event marker take part in the comparison
_TELEMETRY = TelemetryConfig(interval=97, events=True)


@st.composite
def _geometry(draw, sizes):
    line = draw(st.sampled_from((32, 64, 128)))
    assoc = draw(st.sampled_from((1, 2, 4)))
    size = draw(st.sampled_from(sizes))
    return CacheGeometry(max(size, assoc * line), assoc, line)


@st.composite
def _configs(draw):
    window = draw(st.one_of(st.integers(1, 4), st.integers(1, 64)))
    l2_latency = draw(st.integers(1, 12))
    hierarchy = HierarchyConfig(
        l1i=draw(_geometry((256, 512, 1024, 4096))),
        l1d=draw(_geometry((256, 512, 1024, 4096))),
        l2=draw(_geometry((2048, 8192, 65536))),
        l2_latency=l2_latency,
        memory_latency=draw(st.integers(l2_latency + 1, 120)),
        ideal_icache=draw(st.booleans()),
        ideal_dcache=draw(st.booleans()),
    )
    return ProcessorConfig(
        pipeline_depth=draw(st.integers(1, 12)),
        width=draw(st.integers(1, 8)),
        window_size=window,
        rob_size=window + draw(st.one_of(st.integers(0, 3),
                                         st.integers(0, 96))),
        hierarchy=hierarchy,
        ideal_predictor=draw(st.booleans()),
    )


def _chunked(trace, chunk_size: int) -> TraceChunkStream:
    """``trace`` served as slices of ``chunk_size`` instructions."""
    n = len(trace)
    return TraceChunkStream(
        lambda: (trace[i:i + chunk_size] for i in range(0, n, chunk_size)),
        name=trace.name, length=n, chunk_size=chunk_size,
    )


def _assert_same_result(got, ref) -> None:
    assert dataclasses.replace(got, instrumentation=None) == \
        dataclasses.replace(ref, instrumentation=None)
    gi, ri = got.instrumentation, ref.instrumentation
    assert (gi is None) == (ri is None)
    if gi is not None:
        assert np.array_equal(gi.issued_histogram, ri.issued_histogram)
        assert gi.window_left_at_mispredict == ri.window_left_at_mispredict
        assert gi.rob_ahead_at_long_miss == ri.rob_ahead_at_long_miss
        assert gi.dispatch_stall_rob == ri.dispatch_stall_rob
        assert gi.dispatch_stall_window == ri.dispatch_stall_window


def _assert_same_report(got: Telemetry, ref: Telemetry) -> None:
    assert got.counts == ref.counts
    assert got.report.stack == ref.report.stack
    assert got.report.timeline == ref.report.timeline
    assert got.events.events == ref.events.events
    assert got.events.emitted == ref.events.emitted


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    bench=st.sampled_from(BENCHMARK_ORDER),
    seed=st.integers(0, 2**16),
    length=st.integers(200, 3000),
    config=_configs(),
    chunk_pick=st.one_of(st.integers(1, 16), st.integers(1, 4000)),
    instrument=st.booleans(),
)
@example(bench="gzip", seed=1, length=256, instrument=True, chunk_pick=1,
         config=ProcessorConfig(pipeline_depth=5, width=1, window_size=1,
                                rob_size=1))
@example(bench="mcf", seed=2, length=1500, instrument=True, chunk_pick=7,
         config=ProcessorConfig(pipeline_depth=3, width=8, window_size=2,
                                rob_size=4))
def test_engines_agree(bench, seed, length, config, chunk_pick, instrument):
    trace = generate_trace(bench, length, seed=seed)
    chunk_size = min(max(chunk_pick, -(-length // _MAX_CHUNKS)), length + 64)
    annotations = DetailedSimulator(config).annotate(trace)
    deps = trace.dependences()
    caller_lists = (deps.dep1_list, deps.dep2_list,
                    annotations.fetch_stall_list,
                    annotations.mispredicted_list,
                    annotations.long_miss_list)
    saved_lists = [list(x) for x in caller_lists]
    saved_arrays = [a.copy() for a in (
        deps.dep1, deps.dep2, annotations.fetch_stall,
        annotations.load_extra, annotations.long_miss,
        annotations.mispredicted,
    )]

    sessions = {}
    results = {}
    for engine in ("reference", "fast"):
        sessions[engine] = Telemetry(_TELEMETRY)
        results[engine] = DetailedSimulator(
            config, instrument=instrument, engine=engine,
            telemetry=sessions[engine],
        ).run(trace, annotations)
    sessions["stream"] = Telemetry(_TELEMETRY)
    results["stream"] = simulate_stream(
        _chunked(trace, chunk_size), config, instrument=instrument,
        telemetry=sessions["stream"],
    )

    ref = results["reference"]
    for engine in ("fast", "stream"):
        _assert_same_result(results[engine], ref)
        _assert_same_report(sessions[engine], sessions["reference"])

    assert [list(x) for x in caller_lists] == saved_lists
    assert all(np.array_equal(a, b) for a, b in zip(saved_arrays, (
        deps.dep1, deps.dep2, annotations.fetch_stall,
        annotations.load_extra, annotations.long_miss,
        annotations.mispredicted,
    )))
