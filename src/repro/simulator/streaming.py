"""Streaming detailed simulation: O(chunk) memory at any trace length.

:func:`simulate_stream` is the streaming counterpart of
:meth:`repro.simulator.processor.DetailedSimulator.run`.  It runs the
streaming functional pass (:class:`repro.frontend.streaming.
StreamingCollector`) and feeds each annotated chunk, its dependences
renamed by :class:`repro.trace.trace.StreamingRenamer`, to the one fast
engine (:func:`repro.simulator.engine.run_segments`) as a segment.  The
engine drops retired instructions as it loads segments, so the whole
pipeline holds O(chunk) state, and results are bit-identical to the
in-memory run for every chunk size.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import ProcessorConfig
from repro.obs import spans as _spans
from repro.simulator.engine import Segment, make_segment, run_segments
from repro.simulator.results import SimResult
from repro.trace.trace import StreamingRenamer


def _segments(feed, config: ProcessorConfig, name: str
              ) -> Iterator[Segment]:
    """One engine segment per ``(base, chunk, annotations)`` triple of
    the collector's recording pass (the
    :meth:`StreamingCollector.iter_annotated` protocol).

    Each pull from the collector runs inside a ``frontend.record`` span,
    so the recording pass is timed apart from the engine that drives it.
    """
    renamer = StreamingRenamer()
    mem_lat = config.hierarchy.memory_latency
    while True:
        with _spans.span("frontend.record", workload=name):
            item = next(feed, None)
        if item is None:
            return
        base, chunk, ann = item
        yield make_segment(renamer.rename_chunk(chunk),
                           chunk.latencies(config.latencies),
                           ann, base, mem_lat)


def simulate_stream(
    stream,
    config: ProcessorConfig | None = None,
    instrument: bool = True,
    warmup_passes: int = 1,
    telemetry=None,
) -> SimResult:
    """Detailed simulation of a chunk stream, end to end, in O(chunk).

    Runs the streaming functional pass (warm-up + recording, carrying
    cache/predictor state across chunks) and feeds the annotated chunks
    straight into the engine — no trace, annotation array, or dependence
    table is ever materialized whole.  Bit-identical to
    ``DetailedSimulator.run`` on the materialized trace.
    """
    from repro.frontend.collector import CollectorConfig
    from repro.frontend.streaming import StreamingCollector
    from repro.simulator.processor import resolve_telemetry

    cfg = config or ProcessorConfig()
    n = len(stream)
    if n == 0:
        raise ValueError("cannot simulate an empty stream")
    collector = StreamingCollector(CollectorConfig(
        hierarchy=cfg.hierarchy,
        predictor_factory=cfg.predictor_factory,
        warmup_passes=warmup_passes,
        ideal_predictor=cfg.ideal_predictor,
    ))
    tele = resolve_telemetry(telemetry)
    segments = _segments(collector.iter_annotated(stream, annotate=True),
                         cfg, stream.name)
    with _spans.span("sim.stream.engine", workload=stream.name,
                     instructions=n):
        result = run_segments(segments, n, cfg, name=stream.name,
                              instrument=instrument, telemetry=tele)
    if tele is not None:
        with _spans.span("telemetry.finish", workload=stream.name):
            tele.finish(stream.name, result.instructions, result.cycles)
    return result
