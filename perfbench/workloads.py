"""The benchmark's workloads, their set-up, and their output checks.

Every workload follows one shape: set up (publish the traces it needs,
start the evaluation service), run timed passes over a fixed op
sequence for the measuring time, then check outputs.  A pass is the
unit ``wall_s`` reports; ``--seed`` only orders ops and picks the sampled
checks, so every pass of every run does the same work.

Metrics a workload's own passes do not exercise are measured on the
workload's own benchmarks after the passes (``anchor``), and the service
latencies on a small fixed request mix (``probe``), so that each run
reports every end-to-end metric.

Every timed op lies between two *marks*; each mark times a fixed
pure-Python loop (the yardstick), so the report can scale each op to
a reference host speed.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.branch.simple import Bimodal
from repro.config import BASELINE
from repro.core.model import FirstOrderModel
from repro.memory.config import CacheGeometry
from repro.obs import spans as obs
from repro.runner import artifacts
from repro.service import evaluations
from repro.service.client import ServiceClient
from repro.service.scheduler import SchedulerConfig
from repro.service.server import BackgroundServer
from repro.simulator import streaming
from repro.simulator.processor import DetailedSimulator
from repro.spec import RunSpec
from repro.spec import env as repro_env
from repro.trace.profiles import BENCHMARK_ORDER

from perfbench.tracing import Tracer

#: the paper's Table 1 trio plus memory-bound mcf
TRIO_AND_MCF = ("gzip", "vortex", "vpr", "mcf")

#: pool workers the service gets: at most two, at most the CPU count
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: anchor repetitions per round: its ops are short, so it needs more
#: samples than a round gives once
ANCHOR_REPS = 2


@dataclass(frozen=True)
class Size:
    """How much work each workload does; ``full`` defines the benchmark."""

    length: int                      # validation length (model vs sim)
    validate_benchmarks: tuple
    sweep_benchmarks: tuple
    sweep_configs: int               # leading entries of SWEEP_CONFIGS
    service_benchmarks: tuple
    service_length: int              # traces the service requests use
    hits_per_pass: int               # requests per service pass or probe
    misses_per_pass: int
    setup_reps: int
    check_length: int
    check_chunk: int


SIZES = {
    "full": Size(
        length=30_000, validate_benchmarks=BENCHMARK_ORDER,
        sweep_benchmarks=TRIO_AND_MCF, sweep_configs=7,
        service_benchmarks=TRIO_AND_MCF,
        service_length=2_000, hits_per_pass=1000, misses_per_pass=100,
        setup_reps=5,
        check_length=8_000, check_chunk=2_048),
    "tiny": Size(
        length=2_000, validate_benchmarks=("gzip", "mcf"),
        sweep_benchmarks=("gzip", "mcf"), sweep_configs=3,
        service_benchmarks=("gzip", "mcf"),
        service_length=500, hits_per_pass=20, misses_per_pass=4,
        setup_reps=1,
        check_length=1_500, check_chunk=512),
}


def _sweep_configs():
    """width x window, one deeper pipeline, and two variants that re-key
    the functional pass (a larger L2, a bimodal predictor)."""
    grid = [dataclasses.replace(BASELINE, width=w, window_size=win)
            for w in (2, 4) for win in (32, 64)]
    big_l2 = CacheGeometry(size_bytes=1 << 20, associativity=4,
                           line_bytes=128)
    return grid + [
        dataclasses.replace(BASELINE, pipeline_depth=9),
        dataclasses.replace(
            BASELINE,
            hierarchy=dataclasses.replace(BASELINE.hierarchy, l2=big_l2)),
        dataclasses.replace(BASELINE, predictor_factory=Bimodal),
    ]


SWEEP_CONFIGS = _sweep_configs()

#: service machines: hits are answered from the response cache (warmed
#: at set-up); misses come from a grid disjoint from the hits (depth 5
#: never appears in it), so each is computed exactly once per run
HIT_MACHINES = ({"width": 4, "window_size": 48, "pipeline_depth": 5},
                {"width": 2, "window_size": 48, "pipeline_depth": 5})
MISS_MACHINES = tuple(
    {"width": w, "window_size": win, "pipeline_depth": d}
    for w in (2, 3, 5, 6, 8)
    for win in (16, 24, 32, 40, 56, 64, 80, 96)
    for d in (3, 4, 6, 7, 8, 10))


def miss_machines(rng: random.Random):
    """Endless first-time machines: the grid in a shuffled order, then
    again with the reorder buffer one entry larger, and so on.  The
    reorder-buffer size only scales the overlap of long misses, so every
    epoch costs the model the same work."""
    for epoch in itertools.count():
        grid = [dict(m, rob_size=BASELINE.rob_size + epoch)
                for m in MISS_MACHINES]
        rng.shuffle(grid)
        yield from grid


def _fingerprint(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sim_key(result) -> list:
    return [result.instructions, result.cycles, result.misprediction_count,
            result.icache_short_count, result.icache_long_count,
            result.dcache_long_count]


def median(values, default=0.0) -> float:
    """Median of ``values``, or ``default`` when there are none."""
    values = list(values)
    return statistics.median(values) if values else default


#: the yardstick's input: small ints, which the interpreter caches, so
#: the loop never allocates
_YARDSTICK_INPUT = tuple(range(256)) * 12


def yardstick() -> float:
    """Seconds of a fixed pure-Python loop, best of three.

    The benchmark's host-speed reference: it does the same kind of work
    as the interpreter-bound program and never changes between commits.
    Of the loops tried, this one slowed under contention by the same
    factor as the model and the simulator; an integer-multiply loop
    slowed less.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for value in _YARDSTICK_INPUT:
            total = (total + value) & 255
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(frozen=True)
class Mark:
    """A point between two timed ops: ``end`` closes the op before it,
    ``start`` opens the op after it, and ``stick`` is the yardstick's
    time, measured in between."""

    end: float
    stick: float
    start: float


def span(first: Mark, last: Mark) -> list:
    """One ``[seconds, yardstick]`` pair for the op between two marks."""
    return [last.end - first.start, (first.stick + last.stick) / 2]


class Run:
    """One benchmark invocation: its options, scratch space and tallies."""

    def __init__(self, *, seed: int, seconds: float, traced: bool,
                 size: Size, workload_seed: int | None, workdir: Path):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.traced = traced
        self.size = size
        self.workload_seed = workload_seed
        self.workdir = workdir
        self.attempted = 0
        self.failed: set[str] = set()
        self._dirs = itertools.count()
        #: every mark's yardstick time, and the seconds spent in marks
        self.sticks: list[float] = []
        self.mark_s = 0.0

    # -- timing ----------------------------------------------------------

    def mark(self) -> Mark:
        """Close the op before, time the yardstick, open the op after."""
        end = time.perf_counter()
        stick = yardstick()
        start = time.perf_counter()
        self.sticks.append(stick)
        self.mark_s += start - end
        return Mark(end, stick, start)

    # -- op accounting --------------------------------------------------

    def op(self, label: str, fn, *args, **kwargs):
        """Run one op; an exception marks it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed op is a result
            self.fail(label, traceback.format_exc())
            return None

    def check(self, ok: bool, label: str, why: str) -> None:
        """Mark op ``label`` wrong unless ``ok``."""
        if not ok:
            self.fail(label, why)

    def fail(self, label: str, why: str) -> None:
        if label not in self.failed:
            print(f"FAILED {label}: {why.strip()}", file=sys.stderr)
        self.failed.add(label)

    @property
    def error_rate(self) -> float:
        return len(self.failed) / max(1, self.attempted)

    # -- scratch ---------------------------------------------------------

    def new_cache_dir(self) -> Path:
        path = self.workdir / f"cache{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def trace(self, benchmark: str, length: int):
        return artifacts.trace_artifact(benchmark, length, self.workload_seed)

    def stream(self, benchmark: str, length: int, chunk: int | None = None):
        return artifacts.trace_chunk_stream(
            benchmark, length, self.workload_seed, chunk_size=chunk)


# -- shared checks ----------------------------------------------------------


def _check_report(run: Run, label: str, report) -> None:
    total = report.stack().total
    run.check(math.isclose(total, report.cpi, rel_tol=1e-12, abs_tol=0.0),
              label, f"CPI stack sums to {total!r}, report.cpi is "
                     f"{report.cpi!r}")


def check_reference(run: Run, benchmark: str, config, length: int) -> None:
    """The fast engine must equal the reference engine on a sampled op."""
    label = f"check:reference:{benchmark}"

    def compare():
        trace = run.trace(benchmark, length)
        fast = DetailedSimulator(config, instrument=False, engine="fast",
                                 telemetry=False).run(trace)
        ref = DetailedSimulator(config, instrument=False,
                                engine="reference", telemetry=False).run(trace)
        run.check(fast == ref, label,
                  f"fast {_sim_key(fast)} != reference {_sim_key(ref)}")

    run.op(label, compare)


def check_stream(run: Run, benchmark: str) -> None:
    """A short streamed run must equal the in-memory run of its trace."""
    size = run.size
    label = f"check:stream:{benchmark}"

    def compare():
        trace = run.trace(benchmark, size.check_length)
        whole = DetailedSimulator(BASELINE, instrument=False,
                                  telemetry=False).run(trace)
        streamed = streaming.simulate_stream(
            run.stream(benchmark, size.check_length, size.check_chunk),
            BASELINE, instrument=False, telemetry=False)
        run.check(_sim_key(whole) == _sim_key(streamed), label,
                  f"streamed {_sim_key(streamed)} != in-memory "
                  f"{_sim_key(whole)}")

    run.op(label, compare)


# -- the evaluation service -------------------------------------------------


class Service:
    """An in-process server with one client connection."""

    def __init__(self):
        self.server = BackgroundServer(
            config=SchedulerConfig(workers=WORKERS))
        self.server.__enter__()
        self.client = ServiceClient(self.server.host, self.server.port)
        self.client.connect()
        self.client.ping()

    def close(self) -> None:
        self.client.close()
        self.server.__exit__(None, None, None)
        _reap_children()


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every pool worker to exit; terminate stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(timeout=10)
            return
        time.sleep(0.02)


class ServiceMix:
    """Closed-loop ``model`` requests: cached hits with a fixed share of
    first-time (workload, machine) pairs on published traces."""

    def __init__(self, run: Run, benchmarks, length: int, tag: str):
        self.run = run
        self.benchmarks = benchmarks
        self.length = length
        self.tag = tag
        #: (request key, params) pairs; keys are computed outside the
        #: timed passes
        self.hit_set = [self._request(b, m)
                        for b in benchmarks for m in HIT_MACHINES]
        #: each benchmark's own endless miss machines
        self._misses = {b: miss_machines(run.rng) for b in benchmarks}
        #: request key -> payload JSON strings seen on the wire
        self.payloads: dict[str, set] = {}
        self.params: dict[str, dict] = {}

    def _request(self, benchmark: str, machine: dict) -> tuple[str, dict]:
        flat = {"benchmark": benchmark, "length": self.length, **machine}
        if self.run.workload_seed is not None:
            flat["seed"] = self.run.workload_seed
        params = {"spec": evaluations.flat_params_to_spec(
            "model", flat).to_dict()}
        key = evaluations.request_key(
            "model", evaluations.normalize_params("model", params))
        return key, params

    def prepare(self, client: ServiceClient) -> None:
        for benchmark in self.benchmarks:
            self.run.trace(benchmark, self.length)
        for _, params in self.hit_set:
            response = client.request("model", params)
            if not response.get("ok"):
                raise RuntimeError(f"warming a hit failed: {response}")

    def one_pass(self, client: ServiceClient, n_hits: int,
                 n_misses: int) -> dict:
        run = self.run
        per_block = max(1, n_hits // n_misses)
        schedule = []
        for _ in range(n_misses):
            block = [True] * per_block + [False]
            run.rng.shuffle(block)
            schedule.extend(block)
        hits = itertools.cycle(run.rng.sample(self.hit_set,
                                              len(self.hit_set)))
        # every benchmark gets the same share of the misses, so the
        # miss percentiles do not move with the draw
        misses = [self._request(b, next(self._misses[b]))
                  for b in itertools.islice(
                      itertools.cycle(self.benchmarks), n_misses)]
        run.rng.shuffle(misses)
        misses = iter(misses)
        # each latency is a [ms, yardstick] pair, timed between two marks
        record = {"hit_ms": [], "miss_ms": [], "served": {}, "seen": {}}
        requests = []
        t_pass, marked = time.perf_counter(), run.mark_s
        before = run.mark()
        for is_hit in schedule:
            key, params = next(hits) if is_hit else next(misses)
            label = f"{self.tag}:request:{key[:12]}:{run.attempted}"
            response = run.op(label, client.request, "model", params)
            after = run.mark()
            kind = self._record(record, key, label, params, response,
                                is_hit)
            if kind is not None:
                seconds, stick = span(before, after)
                record[kind].append([seconds * 1e3, stick])
                requests.append([seconds, stick])
            before = after
        record["wall"] = time.perf_counter() - t_pass - (run.mark_s - marked)
        record["ops"] = {"pass": {"requests": requests}}
        record["fingerprint"] = _fingerprint(record.pop("seen"))
        return record

    def _record(self, record, key, label, params, response,
                is_hit) -> str | None:
        """Tally one response; returns the latency list it belongs to,
        or None when the request failed."""
        if response is None or not response.get("ok"):
            self.run.fail(label, f"service answered {response}")
            return None
        served = response.get("meta", {}).get("served_from", "?")
        record["served"][served] = record["served"].get(served, 0) + 1
        text = json.dumps(response["result"], sort_keys=True)
        self.payloads.setdefault(key, set()).add(text)
        self.params[key] = params
        if is_hit:
            record["seen"][key] = text
        return "hit_ms" if served == "cache" else "miss_ms"

    def check_payloads(self) -> None:
        """Every payload must equal an in-process evaluation of its spec."""
        for key, texts in self.payloads.items():
            label = f"{self.tag}:payload:{key[:12]}"
            normalized = evaluations.normalize_params(
                "model", self.params[key])
            expected = self.run.op(label, evaluations.evaluate, "model",
                                   normalized)
            if expected is None:
                continue
            want = json.dumps(json.loads(json.dumps(expected)),
                              sort_keys=True)
            self.run.check(texts == {want}, label,
                           f"{len(texts)} distinct payload(s) differ from "
                           "the in-process evaluation")


# -- workloads --------------------------------------------------------------


class Workload:
    """Common shape; subclasses define ``prepare`` and ``one_pass``."""

    name = ""
    why = ""
    #: whether ``mix`` is the probe, run one pass per round for the
    #: service latencies (else the workload's passes are the requests)
    probe = True

    def __init__(self, run: Run):
        self.run = run
        self.size = run.size
        self.benchmarks: tuple = ()
        self.mix = ServiceMix(run, ("gzip", "mcf"), run.size.service_length,
                              "probe")
        self._anchor_reps: list[dict] = []
        self._anchor_keys: dict = {}
        self._cpi_errors: dict = {}

    def prepare(self, service: Service) -> None:
        for benchmark in self.benchmarks:
            self.run.trace(benchmark, self.size.length)
        self.mix.prepare(service.client)

    def one_pass(self, service: Service) -> dict:
        raise NotImplementedError

    def anchor_rep(self) -> None:
        """One repetition of the model and fast-sim runs on this
        workload's benchmarks at the validation length, baseline
        machine: the model and simulation rates and the model error of
        workloads whose own passes do not run both."""
        run, size = self.run, self.size
        ops = {}
        for benchmark in self.benchmarks:
            label = f"anchor:{benchmark}"
            trace = run.op(label, run.trace, benchmark, size.length)
            if trace is None:
                continue
            m0 = run.mark()
            report = run.op(label, FirstOrderModel(BASELINE)
                            .evaluate_trace, trace)
            m1 = run.mark()
            sim = run.op(label, DetailedSimulator(
                BASELINE, instrument=False, telemetry=False).run, trace)
            m2 = run.mark()
            if report is None or sim is None:
                continue
            _check_report(run, label, report)
            key = [report.cpi.hex()] + _sim_key(sim)
            run.check(self._anchor_keys.setdefault(benchmark, key) == key,
                      label, "anchor result changed between repetitions")
            ops[benchmark] = {"model": [span(m0, m1)],
                              "sim": [span(m1, m2)],
                              "instructions": len(trace)}
            self._cpi_errors[benchmark] = abs(report.cpi - sim.cpi) / sim.cpi
        self._anchor_reps.append({"ops": ops})

    def anchor(self) -> dict | None:
        """The anchor's per-round repetitions and model errors."""
        if not self._anchor_reps:
            return None
        return {"reps": self._anchor_reps, "cpi_errors": self._cpi_errors}

    def sampled_op(self):
        """(benchmark, machine, length) of the op checked against the
        reference engine."""
        return self.run.rng.choice(self.benchmarks), BASELINE, \
            self.size.length

    def checks(self) -> None:
        """Output checks after the rounds."""
        self.mix.check_payloads()
        check_reference(self.run, *self.sampled_op())
        check_stream(self.run, self.run.rng.choice(self.benchmarks))


class ValidateCold(Workload):
    name = "validate_cold"
    why = ("the repro compare path on all 12 profiles from an empty cache: "
           "trace generation, model and detailed sim share the work")

    def __init__(self, run):
        super().__init__(run)
        self.benchmarks = tuple(self.size.validate_benchmarks)

    def prepare(self, service):
        # the compare path starts cold: only the probe is prepared
        self.mix.prepare(service.client)

    def one_pass(self, service):
        run, size = self.run, self.size
        order = list(self.benchmarks)
        run.rng.shuffle(order)
        cache = run.new_cache_dir()
        ops, results = {}, {}
        t_pass, marked = time.perf_counter(), run.mark_s
        with repro_env.cache_dir_scope(cache):
            m0 = run.mark()
            for benchmark in order:
                label = f"compare:{benchmark}"
                trace = run.op(label, run.trace, benchmark, size.length)
                m1 = run.mark()
                report = run.op(label, FirstOrderModel(BASELINE)
                                .evaluate_trace, trace)
                m2 = run.mark()
                sim = run.op(label, DetailedSimulator(
                    BASELINE, instrument=False, telemetry=False).run, trace)
                m3 = run.mark()
                if report is not None and sim is not None:
                    ops[benchmark] = {"trace": [span(m0, m1)],
                                      "model": [span(m1, m2)],
                                      "sim": [span(m2, m3)],
                                      "instructions": len(trace)}
                    results[benchmark] = (report, sim)
                m0 = m3
        wall = time.perf_counter() - t_pass - (run.mark_s - marked)
        shutil.rmtree(cache, ignore_errors=True)
        for benchmark, (report, _) in results.items():
            _check_report(run, f"compare:{benchmark}", report)
        return {
            "wall": wall, "ops": ops, "results": results,
            "fingerprint": _fingerprint({
                b: [r.cpi.hex()] + _sim_key(s)
                for b, (r, s) in results.items()}),
        }

    def anchor_rep(self):
        """The passes themselves run the model and the simulator."""


class SweepWarm(Workload):
    name = "sweep_warm"
    why = ("model-only design sweep over published traces: functional pass "
           "and IW curve dominate; the detailed simulator does nothing")

    def __init__(self, run):
        super().__init__(run)
        self.benchmarks = tuple(self.size.sweep_benchmarks)
        self.configs = SWEEP_CONFIGS[:self.size.sweep_configs]

    def one_pass(self, service):
        run, size = self.run, self.size
        points = [(b, i) for b in self.benchmarks
                  for i in range(len(self.configs))]
        run.rng.shuffle(points)
        ops, cpis = {}, {}
        t_pass, marked = time.perf_counter(), run.mark_s
        m0 = run.mark()
        for benchmark, index in points:
            label = f"point:{benchmark}:{index}"
            trace = run.op(label, run.trace, benchmark, size.length)
            m1 = run.mark()
            report = run.op(label, FirstOrderModel(
                self.configs[index]).evaluate_trace, trace)
            m2 = run.mark()
            if report is not None:
                ops[label] = {"load": [span(m0, m1)],
                              "model": [span(m1, m2)],
                              "instructions": len(trace)}
                _check_report(run, label, report)
                cpis[f"{benchmark}:{index}"] = report.cpi.hex()
            m0 = m2
        return {
            "wall": time.perf_counter() - t_pass - (run.mark_s - marked),
            "ops": ops, "fingerprint": _fingerprint(cpis),
        }

    def sampled_op(self):
        """A sampled design point."""
        rng = self.run.rng
        return rng.choice(self.benchmarks), rng.choice(self.configs), \
            self.size.length


class ServiceClosed(Workload):
    name = "service_closed"
    why = ("one closed-loop client: cached model requests with a fixed "
           "share of first-time pairs; protocol, scheduler, pool, cache")
    probe = False

    def __init__(self, run):
        super().__init__(run)
        self.benchmarks = tuple(self.size.service_benchmarks)
        self.mix = ServiceMix(run, self.benchmarks, self.size.service_length,
                              "service")

    def one_pass(self, service):
        size = self.size
        return self.mix.one_pass(service.client, size.hits_per_pass,
                                 size.misses_per_pass)

    def sampled_op(self):
        """A served (workload, machine) pair."""
        params = self.run.rng.choice(sorted(
            self.mix.params.values(), key=json.dumps))
        spec = RunSpec.from_dict(params["spec"])
        return (spec.workload.benchmark, spec.machine.to_config(),
                spec.workload.length)


WORKLOADS = {cls.name: cls for cls in
             (ValidateCold, SweepWarm, ServiceClosed)}


# -- set-up -----------------------------------------------------------------


def measure_import(src: Path) -> float:
    """Seconds to import ``repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def set_up(run: Run, workload: Workload, src: Path):
    """Set up ``size.setup_reps`` times into fresh caches; keep the last.

    One set-up is: import ``repro.cli`` in a fresh process, start the
    service, and prepare the workload (publish its traces, warm the
    response cache for the requests that should hit).  Returns the
    service and, per set-up, a ``[seconds, yardstick]`` pair for the
    whole set-up and one for the import.
    """
    totals, imports = [], []
    service = None
    for rep in range(run.size.setup_reps):
        if service is not None:
            service.close()
        os.environ["REPRO_CACHE_DIR"] = str(run.new_cache_dir())
        before = run.mark()
        import_s = measure_import(src)
        t0 = time.perf_counter()
        service = Service()
        workload.prepare(service)
        after = run.mark()
        stick = (before.stick + after.stick) / 2
        totals.append([import_s + after.end - t0, stick])
        imports.append([import_s, stick])
    return service, totals, imports


# -- passes -----------------------------------------------------------------


def run_rounds(run: Run, workload: Workload, service: Service) -> list:
    """Timed rounds for at least ``run.seconds``.

    A round is one timed pass of the workload, then ``ANCHOR_REPS``
    anchor repetitions and, in an untraced run, one pass of the probe mix
    (kept in the round's record under ``"probe"``).  Every round repeats
    the same ops, so the report can take each op's median over the
    rounds.  In a traced run every second pass is traced.
    """
    size = run.size
    records = []
    start = time.perf_counter()
    for index in itertools.count():
        gc.collect()
        if run.traced and index % 2 == 1:
            record = _traced_pass(workload, service)
        else:
            record = workload.one_pass(service)
            record["traced"] = False
        records.append(record)
        for _ in range(ANCHOR_REPS):
            workload.anchor_rep()
        if workload.probe and not run.traced:
            record["probe"] = workload.mix.one_pass(
                service.client, size.hits_per_pass, size.misses_per_pass)
        if time.perf_counter() - start >= run.seconds and index >= 1:
            return records


def _traced_pass(workload: Workload, service: Service) -> dict:
    tracer = Tracer()
    obs.reset()
    obs.enable(True)
    tracer.install()
    try:
        record = workload.one_pass(service)
    finally:
        tracer.uninstall()
        obs.enable(False)
        spans = obs.drain()
    record.update(traced=True, tracer=tracer, spans=spans)
    return record


def check_passes(run: Run, workload: Workload, records) -> None:
    """Every pass (traced or not) must produce the same outputs."""
    first = records[0]["fingerprint"]
    for index, record in enumerate(records[1:], start=1):
        run.check(record["fingerprint"] == first,
                  f"{workload.name}:pass{index}",
                  "outputs differ from the first pass")
