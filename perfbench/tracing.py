"""Layer tracing for the traced benchmark run.

The traced run wraps the public entry points of each layer at the names
their callers bind (a module global, or a method on its class), records
one span per call in memory, and restores the originals afterwards.
Nothing under ``src/`` changes: the wrappers live here and are installed
only for the traced passes.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Spans nest per thread, so the service's server thread and
the benchmark's client thread each keep their own stack.  Coverage is
measured on the thread that runs the workload: the sum of its top-level
span durations, which equals the sum of the self times below them.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.runner import artifacts


class LayerStats:
    """What one layer did during the traced passes."""

    __slots__ = ("calls", "total_s", "self_s", "instructions", "bytes",
                 "hits", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.instructions = 0
        self.bytes = 0
        self.hits = 0
        self.keys: set = set()


def _file_bytes(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _store_bytes(args, _result) -> int:
    return _file_bytes(artifacts._artifact_path(args[0], args[1]))


def _chunk_bytes(args, _result) -> int:
    return _file_bytes(Path(args[0]))


def _load_hit(_args, result) -> bool:
    return result is not artifacts._MISS


def _trace_key(args, _result):
    trace = args[0]
    return (trace.name, len(trace))


#: (layer, defining module, attribute path, every module that binds the
#: name, kind, and what to count).  ``kind`` is ``"call"`` or ``"iter"``
#: (a function returning an iterator: each ``next()`` is one span).
#: Counters: ``instr`` maps (args, result) to instructions handled,
#: ``bytes`` to bytes written, ``hit`` to whether a load found its
#: entry, ``key`` to the workload a call worked on.
LAYERS = (
    ("trace.generate", "repro.trace.vectorgen",
     "ChunkedTraceGenerator.chunks", (), "iter",
     {"item_instr": len}),
    ("artifacts.store", "repro.runner.artifacts", "_store", (), "call",
     {"bytes": _store_bytes}),
    ("artifacts.store", "repro.trace.chunks", "write_chunk", (), "call",
     {"bytes": _chunk_bytes}),
    ("artifacts.load", "repro.runner.artifacts", "_load", (), "call",
     {"hit": _load_hit}),
    ("frontend.collect", "repro.frontend.collector",
     "MissEventCollector.collect", (), "call",
     {"instr": lambda args, result: len(args[1])}),
    ("window.iw_curve", "repro.window.iw_simulator", "measure_iw_curve",
     ("repro.core.steady_state", "repro.window"), "call",
     {"key": _trace_key}),
    ("window.fit", "repro.window.powerlaw", "fit_curve",
     ("repro.core.steady_state", "repro.window"), "call", {}),
    ("core.eq1", "repro.core.model", "FirstOrderModel.evaluate", (),
     "call", {}),
    ("simulator.run", "repro.simulator.processor", "DetailedSimulator.run",
     (), "call", {}),
    ("simulator.annotate", "repro.simulator.processor",
     "DetailedSimulator.annotate", (), "call", {}),
    ("service.client", "repro.service.client", "ServiceClient.request", (),
     "call", {}),
)

#: layer names in report order (``artifacts.store`` covers two entries)
LAYER_NAMES = tuple(dict.fromkeys(entry[0] for entry in LAYERS))


class Tracer:
    """Installs the layer wrappers and accumulates their spans."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        #: top-level span time on the workload thread (coverage numerator)
        self.covered_s = 0.0
        self._main = threading.get_ident()
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def timed(self, layer: str, fn, args, kwargs, counters: dict):
        stack = self._stack()
        outermost = all(frame[0] != layer for frame in stack)
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            stats = self.stats[layer]
            stats.calls += 1
            if outermost:
                stats.total_s += duration
            stats.self_s += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            elif threading.get_ident() == self._main:
                self.covered_s += duration
        self._count(layer, counters, args, result)
        return result

    def _count(self, layer, counters, args, result) -> None:
        stats = self.stats[layer]
        if "instr" in counters:
            stats.instructions += counters["instr"](args, result)
        if "bytes" in counters:
            stats.bytes += counters["bytes"](args, result)
        if "hit" in counters and counters["hit"](args, result):
            stats.hits += 1
        if "key" in counters:
            stats.keys.add(counters["key"](args, result))

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, layer, fn, counters):
        def wrapper(*args, **kwargs):
            return self.timed(layer, fn, args, kwargs, counters)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_iter(self, layer, fn, counters):
        item_instr = counters["item_instr"]

        def step(it):
            return next(it, _END)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def spans():
                try:
                    while True:
                        item = self.timed(layer, step, (it,), {}, {})
                        if item is _END:
                            return
                        self.stats[layer].instructions += item_instr(item)
                        yield item
                finally:
                    close = getattr(it, "close", None)
                    if close is not None:
                        close()

            return spans()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every layer entry point at each name that binds it."""
        for layer, module, attr, bound_in, kind, counters in LAYERS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            wrap = self._wrap_iter if kind == "iter" else self._wrap_call
            wrapper = wrap(layer, original, counters)
            self._patch(owner, name, wrapper)
            for binder in bound_in:
                mod = importlib.import_module(binder)
                if getattr(mod, name, None) is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched name (reverse order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


_END = object()


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name
