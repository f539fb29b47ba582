"""Span tracer built on the interpreter's profile hook.

The tracer records a span around each call into a whitelisted public
entry point of the repro package, and around the numpy C calls made
while ``repro.engine.execute_network`` runs.  It never edits the
program: it is installed with ``sys.setprofile``/``threading.setprofile``
by the benchmark process (in-process workloads) and by the server
launcher (served workloads).

Spans are ``[name, thread, start, end, parent]`` lists kept in memory
and written out once, when the run ends.  A span's parent is the
innermost open span of the same thread; numpy calls on the engine's
pool threads have no open span of their own and take the open
``engine.execute`` span as parent.  Self time is a span's duration minus
the part of it its children cover.

Two engine primitives emit no profile event and are measured another
way while tracing is on:

* ``np.matmul`` is a ufunc, and calling a ufunc is not a C-function
  call, so ``numpy.matmul`` is swapped for a timing wrapper;
* the in-place weight multiply (``seg *= weights``) is an operator, so
  ``engine.multiply`` is the gap between a pass's segment-sum
  ``reduceat`` and its filter-fold ``reduceat`` on the same thread.  The
  gap holds the multiply and, in sparse mode, the zeroing of empty
  segments.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter


def _entry_points() -> dict:
    """Map each whitelisted function's code object to its span name."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.core import activation_groups
    from repro.energy.model import EnergyModel
    from repro.engine import fusion
    from repro.nn.network import Network
    from repro.quant import distributions
    from repro.regress import runner
    from repro.runtime.cache import ResultCache
    from repro.serve import endpoints, protocol, shards
    from repro.sim import analytic
    from repro.sim import runner as sim_runner

    named = {
        fusion.compile_network: "engine.compile",
        fusion.execute_network: "engine.execute",
        Network.forward_batch: "nn.forward_batch",
        protocol.decode_message: "serve.decode",
        protocol.encode_message: "serve.encode",
        endpoints.network_forward: "serve.endpoint",
        shards.run_batch: "serve.batch",
        ResultCache.get: "cache.get",
        ResultCache.put: "cache.put",
        runner.check_one: "figures.check",
        analytic.ucnn_layer_aggregate: "sim.ucnn_aggregate",
        activation_groups.canonical_weight_order: "core.canonical_order",
        activation_groups.rank_by_canonical: "core.canonical_order",
        sim_runner.run_layer: "sim.run_layer",
        EnergyModel.breakdown: "energy.breakdown",
        distributions.uniform_unique_weights: "quant.weights",
        distributions.inq_like_weights: "quant.weights",
        ThreadPoolExecutor.__init__: "engine.pool_setup",
        ThreadPoolExecutor._adjust_thread_count: "engine.pool_setup",
        ThreadPoolExecutor.shutdown: "engine.pool_setup",
    }
    return {fn.__code__: name for fn, name in named.items()}


#: numpy C calls traced under ``engine.execute``, by ``__qualname__``.
_C_CALLS = {"ndarray.take": "engine.take", "ufunc.reduceat": "engine.reduceat"}


class SpanTracer:
    """Records spans at whitelisted entry points via the profile hook.

    Attributes:
        spans: ``[name, thread, start, end, parent]`` records.
        samples: ``[name, time, value]`` records (serve batch sizes).
    """

    def __init__(self):
        self._names = _entry_points()
        self.spans: list[list] = []
        self.samples: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_execute: list[int] = []
        #: decode end time by request seed, for ``serve.queue``.
        self._decoded: dict[int, float] = {}
        self._matmul = None

    def install(self) -> None:
        """Start tracing this thread and every thread started later."""
        import numpy

        self._matmul = original = numpy.matmul

        def matmul(*args, **kwargs):
            if not self._under_execute():
                return original(*args, **kwargs)
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                self._add("engine.matmul", start, _now(), self._execute_parent())

        numpy.matmul = matmul
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def uninstall(self) -> None:
        """Stop tracing and restore ``numpy.matmul``."""
        import numpy

        sys.setprofile(None)
        threading.setprofile(None)
        if self._matmul is not None:
            numpy.matmul = self._matmul
            self._matmul = None

    def dump(self, path: str) -> None:
        """Write every recorded span and sample to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # open Python spans: (code, index)
            local.cstack = []  # open C calls: (function, start)
            local.executes = 0
            local.reduceats = 0
            local.last_reduceat = 0.0
        return local

    def _under_execute(self) -> bool:
        """Whether this thread runs inside ``execute_network``.

        True in the thread that called it, and in any thread with no
        open span of its own (the engine's pool workers) while a call
        is open somewhere.
        """
        local = self._state()
        return local.executes > 0 or (not local.stack and bool(self._open_execute))

    def _execute_parent(self) -> int | None:
        """The innermost open span of this thread, else the open execute."""
        stack = self._state().stack
        if stack:
            return stack[-1][1]
        return self._open_execute[-1] if self._open_execute else None

    def _add(self, name: str, start: float, end: float, parent: int | None) -> None:
        with self._lock:
            self.spans.append([name, threading.get_ident(), start, end, parent])

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = self._names.get(code)
            if name is not None:
                self._on_call(name, code, frame)
        elif event == "return":
            if frame.f_code in self._names:
                self._on_return(frame.f_code, arg)
        elif event in ("c_call", "c_return", "c_exception") and self._open_execute:
            name = _C_CALLS.get(getattr(arg, "__qualname__", None))
            if name is not None and self._under_execute():
                self._on_c_event(name, event, arg)

    def _on_call(self, name: str, code, frame) -> None:
        local = self._state()
        if name == "engine.pool_setup" and not self._under_execute():
            return
        if name == "figures.check":
            name = f"figures.{frame.f_locals['spec'].experiment}"
        elif name == "serve.endpoint":
            decoded = self._decoded.pop(frame.f_locals.get("seed"), None)
            if decoded is not None:
                self._add("serve.queue", decoded, _now(), None)
        elif name == "serve.batch":
            self.samples.append(["serve.batch_size", _now(), len(frame.f_locals["calls"])])
        parent = self._execute_parent()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, threading.get_ident(), _now(), None, parent])
        local.stack.append((code, index))
        if name == "engine.execute":
            local.executes += 1
            self._open_execute.append(index)

    def _on_return(self, code, value) -> None:
        local = self._state()
        if not local.stack or local.stack[-1][0] is not code:
            return  # a call the tracer chose not to open
        __, index = local.stack.pop()
        span = self.spans[index]
        span[3] = _now()
        if span[0] == "engine.execute":
            local.executes -= 1
            self._open_execute.remove(index)
        elif span[0] == "serve.decode" and isinstance(value, dict):
            seed = (value.get("kwargs") or {}).get("seed")
            if isinstance(seed, int):
                self._decoded[seed] = span[3]

    def _on_c_event(self, name: str, event: str, fn) -> None:
        local = self._state()
        now = _now()
        if event == "c_call":
            if name == "engine.reduceat" and local.reduceats % 2 == 1:
                self._add("engine.multiply", local.last_reduceat, now, self._execute_parent())
            local.cstack.append((fn, now))
        elif local.cstack and local.cstack[-1][0] is fn:
            __, start = local.cstack.pop()
            self._add(name, start, now, self._execute_parent())
            if name == "engine.reduceat":
                local.reduceats += 1
                local.last_reduceat = now


def aggregate(spans: list, start: float, end: float) -> dict:
    """Sum the closed spans that began inside ``[start, end)``, by name.

    Returns ``name -> {"total", "self"}`` in seconds.  ``total`` skips
    spans nested inside a span of the same name, so recursive or aliased
    entry points are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None and span[3] is not None:
            children[span[4]].append((span[2], span[3]))
    out: dict[str, dict] = defaultdict(lambda: {"total": 0.0, "self": 0.0})
    for index, (name, __, s, e, parent) in enumerate(spans):
        if e is None or not start <= s < end:
            continue
        entry = out[name]
        if parent is None or spans[parent][0] != name:
            entry["total"] += e - s
        entry["self"] += (e - s) - _covered(children.get(index, ()), s, e)
    return dict(out)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, hi)
        if e > s:
            total += e - s
            cursor = e
    return total
