"""Turn a run's pass records into the metrics the benchmark reports."""

from __future__ import annotations

import math
from collections import defaultdict

from perfbench.tracing import LAYER_NAMES, LayerStats
from perfbench.workloads import median

#: unit of every end-to-end metric (BENCHMARK.json lists the same)
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "sim_minstr_per_s": "Minstr/s",
    "model_minstr_per_s": "Minstr/s", "model_points_per_s": "points/s",
    "hit_p50_ms": "ms", "hit_p99_ms": "ms", "miss_p50_ms": "ms",
    "miss_p90_ms": "ms", "cpi_err_mean_pct": "%", "cpi_err_max_pct": "%",
    "peak_rss_mb": "MB",
}


def percentile(values, q) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: the yardstick's time on the reference host, to which every time is
#: scaled: about its time on the build host running at full speed
REFERENCE_STICK_S = 80e-6


def at_reference_speed(spans) -> float:
    """Total time of ``spans`` (``[time, yardstick]`` pairs), each
    scaled to the reference host's speed.

    A shared host runs the benchmark's core at full speed part of the
    time and 1.5 to 1.8 times slower the rest, in stretches of a fraction
    of a second to many seconds, and its full speed itself drifts.  The
    yardstick, timed around each op, slows with it, so ``time *
    REFERENCE_STICK_S / yardstick`` is what the op takes on a host where
    the yardstick takes ``REFERENCE_STICK_S``.
    """
    return sum(t * REFERENCE_STICK_S / stick for t, stick in spans)


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _untraced(records) -> list:
    return [r for r in records if not r["traced"]]


#: the timed parts of an op record (``[seconds, yardstick]`` lists);
#: the rest are counts
PARTS = ("trace", "load", "model", "sim", "requests")


def op_times(records) -> dict:
    """Each op's parts in reference seconds, median over rounds.

    Every round repeats the same ops, so each part has one time per
    round.
    """
    rounds: dict[str, list] = defaultdict(list)
    for record in records:
        for name, op in record["ops"].items():
            rounds[name].append(op)
    return {name: {key: median(at_reference_speed(op[key]) for op in ops)
                   if key in PARTS else value
                   for key, value in ops[0].items()}
            for name, ops in rounds.items()}


def rates(records, anchor) -> dict:
    """Model and simulation throughput: from the untraced passes where
    the workload's own ops do that work, else from the anchor's
    repetitions.  A design point is its trace load plus the model."""
    passes = op_times(_untraced(records)).values()
    reps = op_times(anchor["reps"]).values() if anchor is not None else ()
    sims = [op for op in passes if "sim" in op] or list(reps)
    models = [op for op in passes if "model" in op] or list(reps)

    def per_second(work, seconds):
        return work / seconds if seconds else 0.0

    return {
        "sim_minstr_per_s": per_second(
            sum(op["instructions"] for op in sims),
            sum(op["sim"] for op in sims)) / 1e6,
        "model_minstr_per_s": per_second(
            sum(op["instructions"] for op in models),
            sum(op["model"] for op in models)) / 1e6,
        "model_points_per_s": per_second(
            len(models), sum(op["model"] + op.get("load", 0.0)
                             for op in models)),
    }


def cpi_errors(records, anchor) -> dict:
    """|model - sim| / sim per benchmark at the validation length."""
    if anchor is not None:
        return anchor["cpi_errors"]
    return {b: abs(report.cpi - sim.cpi) / sim.cpi
            for b, (report, sim) in records[0]["results"].items()}


def _rounds(records) -> list:
    """The untraced rounds' service records: the workload's own passes
    when it has them, else the probe mix."""
    rounds = [r if "hit_ms" in r else r.get("probe")
              for r in _untraced(records)]
    return [r for r in rounds if r is not None]


def latencies(records) -> tuple[list, list]:
    """Client-side hit and miss latencies (ms) at reference speed, one
    list per untraced round."""
    rounds = _rounds(records)
    return tuple([[at_reference_speed([pair]) for pair in r[kind]]
                  for r in rounds] for kind in ("hit_ms", "miss_ms"))


def round_percentile(rounds, q) -> float:
    """Each round's own ``q``-th percentile, combined over the rounds.

    Every round holds 1000 hits and 100 misses, ten samples beyond its
    ``hit_p99_ms`` and its ``miss_p90_ms``.  A median takes the median
    over the rounds.  A tail takes the lowest round: the host stalls the
    benchmark for a few milliseconds at a time, too briefly for any
    yardstick to see, and in some rounds those stalls land on more than
    one request in a hundred and set the round's tail.
    """
    values = [percentile(r, q) for r in rounds if r]
    return median(values) if q == 50 else min(values, default=0.0)


def reference_median(spans) -> float:
    """Median over ``[seconds, yardstick]`` pairs at reference speed."""
    return median(at_reference_speed([pair]) for pair in spans)


def end_to_end(bench, records, anchor, setup, peak_rss_mb) -> dict:
    hits, misses = latencies(records)
    errors = cpi_errors(records, anchor)
    values = {
        "setup_s": reference_median(setup),
        "wall_s": sum(sum(value for key, value in op.items()
                          if key in PARTS)
                      for op in op_times(_untraced(records)).values()),
        **rates(records, anchor),
        "hit_p50_ms": round_percentile(hits, 50),
        "hit_p99_ms": round_percentile(hits, 99),
        "miss_p50_ms": round_percentile(misses, 50),
        "miss_p90_ms": round_percentile(misses, 90),
        "cpi_err_mean_pct": 100 * sum(errors.values()) / max(1, len(errors)),
        "cpi_err_max_pct": 100 * max(errors.values(), default=0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def _layer_totals(traced) -> tuple[dict, dict]:
    """Per-layer stats summed over the traced passes, and each layer's
    distinct-workload count summed pass by pass."""
    totals: dict[str, LayerStats] = defaultdict(LayerStats)
    distinct: dict[str, int] = defaultdict(int)
    for record in traced:
        for layer, stats in record["tracer"].stats.items():
            into = totals[layer]
            into.calls += stats.calls
            into.total_s += stats.total_s
            into.self_s += stats.self_s
            into.instructions += stats.instructions
            into.bytes += stats.bytes
            into.hits += stats.hits
            distinct[layer] += len(stats.keys)
    return totals, distinct


def _service_spans(traced) -> dict:
    """Server-side request and worker evaluate time from the obs spans,
    and the per-request hop: client round trip minus worker evaluate."""
    request_s = evaluate_s = 0.0
    by_trace: dict[str, dict] = defaultdict(lambda: {"rt": 0.0, "eval": 0.0})
    for record in traced:
        for span in record["spans"]:
            name, duration = span["name"], span["duration_s"]
            if name == "service.request":
                request_s += duration
            elif name == "service.evaluate":
                evaluate_s += duration
                by_trace[span["trace_id"]]["eval"] += duration
            elif name == "client.request":
                by_trace[span["trace_id"]]["rt"] += duration
    hops = [1e3 * (t["rt"] - t["eval"]) for t in by_trace.values() if t["rt"]]
    return {"request_s": request_s, "evaluate_s": evaluate_s,
            "hop_ms": median(hops)}


def per_layer(bench, records, anchor, imports) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = _untraced(records)
    n = len(traced)
    totals, distinct = _layer_totals(traced)
    out = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    def per_pass(value):
        return value / n

    for layer in LAYER_NAMES:
        stats = totals[layer]
        put(f"{layer}.s", per_pass(stats.total_s), "s")
        put(f"{layer}.self_s", per_pass(stats.self_s), "s")
        if layer in ("trace.generate", "frontend.collect"):
            put(f"{layer}.minstr_per_s",
                stats.instructions / stats.total_s / 1e6
                if stats.total_s else 0.0, "Minstr/s")
        if layer in ("artifacts.store", "artifacts.load", "frontend.collect",
                     "window.iw_curve", "core.eq1"):
            put(f"{layer}.count", per_pass(stats.calls), "count")
    store, load = totals["artifacts.store"], totals["artifacts.load"]
    put("artifacts.store.mb", per_pass(store.bytes) / 1e6, "MB")
    put("artifacts.hit_ratio", load.hits / load.calls if load.calls else 0.0,
        "ratio")
    iw = totals["window.iw_curve"]
    put("window.iw_curve.per_workload",
        iw.calls / distinct["window.iw_curve"]
        if distinct["window.iw_curve"] else 0.0, "ratio")
    eq1 = totals["core.eq1"]
    put("core.eq1.us_per_call",
        1e6 * eq1.total_s / eq1.calls if eq1.calls else 0.0, "us")

    service = _service_spans(traced)
    put("service.request.s", per_pass(service["request_s"]), "s")
    put("service.evaluate.s", per_pass(service["evaluate_s"]), "s")
    put("service.hop_ms", service["hop_ms"], "ms")
    served = defaultdict(int)
    for record in traced:
        for source, count in record.get("served", {}).items():
            served[source] += count
    requests = sum(served.values())
    put("service.response_cache.hit_ratio",
        served["cache"] / requests if requests else 0.0, "ratio")
    put("service.hit_samples",
        sum(len(r.get("hit_ms", ())) for r in traced), "count")
    put("service.miss_samples",
        sum(len(r.get("miss_ms", ())) for r in traced), "count")

    put("process.import_s", reference_median(imports), "s")
    speed = rates(records, anchor)
    model_us = 1 / speed["model_minstr_per_s"] \
        if speed["model_minstr_per_s"] else 0.0
    sim_us = 1 / speed["sim_minstr_per_s"] \
        if speed["sim_minstr_per_s"] else 0.0
    put("ratio.model_over_sim", model_us / sim_us if sim_us else 0.0,
        "ratio")
    put("ratio.model_us_per_instr", model_us, "us")
    put("ratio.sim_us_per_instr", sim_us, "us")

    traced_wall = sum(r["wall"] for r in traced)
    covered = sum(r["tracer"].covered_s for r in traced)
    put("coverage.named_layers_pct", 100 * covered / traced_wall, "%")
    put("tracing.traced_wall_s", median(r["wall"] for r in traced), "s")
    put("tracing.untraced_wall_s", median(r["wall"] for r in untraced), "s")
    put("tracing.overhead",
        out["tracing.traced_wall_s"]["value"]
        / out["tracing.untraced_wall_s"]["value"], "ratio")
    put("obs.spans", per_pass(sum(len(r["spans"]) for r in traced)),
        "count")
    put("error_rate", bench.error_rate, "ratio")
    return out


def describe(bench, workload, records) -> list[str]:
    """Human-readable lines printed before the metrics."""
    traced = sum(1 for r in records if r["traced"])
    lines = [f"workload {workload.name}: {workload.why}",
             f"passes {len(records)} ({traced} traced)"]
    if not bench.traced:
        hits, misses = latencies(records)
        n_hits, n_misses = sum(map(len, hits)), sum(map(len, misses))
        share = n_hits / max(1, n_hits + n_misses)
        source = "own requests" if "hit_ms" in records[0] else "probe mix"
        lines.append(
            f"latency samples ({source}): {n_hits} hits, {n_misses} misses "
            f"in {len(hits)} rounds; measured mix {share:.1%} hits, "
            f"{1 - share:.1%} misses; each percentile is the median of the "
            "rounds' own")
    fastest, typical = min(bench.sticks), median(bench.sticks)
    lines.append(
        f"yardstick: {len(bench.sticks)} marks, fastest {1e6 * fastest:.1f} "
        f"us, median {1e6 * typical:.1f} us (host contention "
        f"{typical / fastest:.2f}x); every time is scaled to a yardstick of "
        f"{1e6 * REFERENCE_STICK_S:.0f} us")
    return lines + [
        f"error_rate = {bench.error_rate:.6g} ratio "
        f"({len(bench.failed)} of {bench.attempted} ops failed or wrong)",
        f"digest {records[-1]['fingerprint']}",
    ]
