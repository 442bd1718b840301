"""Per-layer self time for the traced run, measured from outside ``src/``.

:func:`install` wraps the public functions and methods of every ``repro``
package that is a benchmark layer (see :data:`LAYER_PACKAGES`) in a timer.
The timers keep one stack: a call's *self time* is its duration minus the
durations of the timed calls nested inside it, and it is charged to the
layer that defines the function.  Time that no wrapper claims is charged to
``other``.  So over a region the self times of all layers plus ``other``
add up to the region's wall time.

Simulation processes are generators.  A generator is timed on each
resumption, not when it is created: the wrapper is itself a generator that
pushes a frame around every ``send``/``throw`` into the wrapped one.  Every
process handed to the kernel is wrapped this way, charged to the package
that defines its generator function, and so are the kernel's fast-path
timer callbacks.

A few entry points also feed counters (restores, placements, cache hits,
spans by name, ...).  The wrappers only read arguments and results; they
never call back into simulated state, so event order and every simulated
number stay the same.  ``child.py`` checks that by comparing the traced
run's digest with the untraced one.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
import types
import weakref
from collections import Counter, defaultdict
from enum import Enum
from typing import Any, Callable, Dict, Optional

#: ``repro`` package (or module) prefix -> benchmark layer.  Packages not
#: listed here (``repro.bench`` drivers, ``repro.db``, ``repro.host``,
#: top-level modules) are not wrapped; their time lands in ``other``.
LAYER_PACKAGES = (
    ("repro.sim", "sim"),
    ("repro.trace", "trace"),
    ("repro.mem", "mem"),
    ("repro.snapshot", "snapshot"),
    ("repro.storage", "snapshot"),
    ("repro.core", "core"),
    ("repro.platforms", "platforms"),
    ("repro.sandbox", "sandbox"),
    ("repro.runtime", "runtime"),
    ("repro.net", "net"),
    ("repro.autoscale", "autoscale"),
    ("repro.cluster", "cluster"),
    ("repro.policy", "cluster"),
    ("repro.chaos", "cluster"),
    ("repro.workloads", "workloads"),
    ("repro.bench.engine", "engine"),
    ("repro.bench.serialization", "codec"),
)
OTHER = "other"
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PACKAGES))

#: Dunder methods that are layer entry points (``with tracer.span(...)``).
_ENTRY_DUNDERS = ("__enter__", "__exit__")


def layer_of(module_name: str) -> str:
    """The layer a ``repro`` module belongs to, or ``other``."""
    for prefix, layer in LAYER_PACKAGES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return OTHER


class LayerClock:
    """Self-time accounting over one stack of timed frames.

    A frame is a one-element list holding the time its nested timed calls
    took.  The bottom frame stands for ``other``.
    """

    def __init__(self) -> None:
        self._stack = [[0.0]]
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._depth: Counter = Counter()
        self._region_start = 0.0
        self.region: Dict[str, Any] = {}
        self.tracers: "weakref.WeakSet" = weakref.WeakSet()

    # -- regions --------------------------------------------------------------
    def begin_region(self) -> None:
        """Zero every accumulator; called with no timed frame open."""
        if len(self._stack) != 1:
            raise RuntimeError("a timed region must start outside layers")
        self.self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.calls.clear()
        self.counts.clear()
        self.inclusive_s.clear()
        self._stack[0][0] = 0.0
        self._region_start = time.perf_counter()

    def end_region(self) -> None:
        """Close the region and keep a copy of its numbers in
        :attr:`region`; ``other`` gets the time no layer claimed.  The
        live accumulators keep counting after this."""
        region_s = time.perf_counter() - self._region_start
        self_s = dict(self.self_s)
        self_s[OTHER] = region_s - sum(self_s[layer] for layer in LAYERS)
        self.region = {"self_s": self_s,
                       "calls": Counter(self.calls),
                       "counts": Counter(self.counts)}

    def retained_roots(self) -> int:
        """Root spans still held by live tracers (after a full collection,
        so the count does not depend on when the collector last ran)."""
        gc.collect()
        return sum(len(tracer.roots) for tracer in list(self.tracers))

    # -- wrappers -------------------------------------------------------------
    def wrap_call(self, fn: Callable, layer: str,
                  tag: Optional[str] = None,
                  observe: Optional[Callable] = None) -> Callable:
        """Time every call of the plain function *fn* as *layer*.

        *tag* additionally sums the outermost calls' durations under
        ``inclusive_s[tag]``; *observe(args, kwargs, result, error)* sees
        each call's outcome.
        """
        stack = self._stack
        calls = self.calls
        perf = time.perf_counter

        if tag is None and observe is None:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                calls[layer] += 1
                frame = [0.0]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    self.self_s[layer] += elapsed - frame[0]
                    stack[-1][0] += elapsed
            return timed

        depth = self._depth

        @functools.wraps(fn)
        def timed_observed(*args, **kwargs):
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            if tag is not None:
                depth[tag] += 1
            result = error = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if tag is not None:
                    depth[tag] -= 1
                    if depth[tag] == 0:
                        self.inclusive_s[tag] += elapsed
                if observe is not None:
                    observe(args, kwargs, result, error)
        return timed_observed

    def wrap_generator_function(self, fn: Callable, layer: str,
                                count_as: Optional[str] = None,
                                observe: Optional[Callable] = None
                                ) -> Callable:
        """Wrap a generator function: count the call (and *count_as*)
        when the generator is created, time each of its resumptions, and
        let *observe(args, kwargs, result, error)* see how it ended."""
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def make(*args, **kwargs):
            calls[layer] += 1
            if count_as is not None:
                counts[count_as] += 1
            done = None
            if observe is not None:
                def done(result, error):
                    observe(args, kwargs, result, error)
            return self.timed_generator(fn(*args, **kwargs), layer, done)
        return make

    def timed_generator(self, inner, layer: str,
                        done: Optional[Callable] = None):
        """A generator that behaves like ``yield from inner`` and charges
        the time of every resumption of *inner* to *layer*."""
        wrapper = self._resume_timed(inner, layer, done)
        wrapper.__name__ = getattr(inner, "__name__", wrapper.__name__)
        wrapper.__qualname__ = getattr(inner, "__qualname__",
                                       wrapper.__qualname__)
        return wrapper

    def _resume_timed(self, inner, layer, done):
        stack = self._stack
        perf = time.perf_counter
        value = None
        error = None
        while True:
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    thrown, error = error, None
                    target = inner.throw(thrown)
            except StopIteration as stop:
                self._close(frame, start, layer)
                if done is not None:
                    done(stop.value, None)
                return stop.value
            except BaseException as exc:
                self._close(frame, start, layer)
                if done is not None:
                    done(None, exc)
                raise
            self._close(frame, start, layer)
            value = None
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into *inner*
                error = exc

    def _close(self, frame, start: float, layer: str) -> None:
        elapsed = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        stack[-1][0] += elapsed


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------
def _layer_modules():
    """Import and yield every module of every layer package."""
    for prefix, layer in LAYER_PACKAGES:
        module = importlib.import_module(prefix)
        yield module, layer
        if hasattr(module, "__path__"):
            for info in pkgutil.walk_packages(module.__path__,
                                              prefix + "."):
                yield importlib.import_module(info.name), layer


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that is *original* (the
    defining module and every ``from ... import`` of it)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_any(clock: LayerClock, fn: Callable, layer: str) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return clock.wrap_generator_function(fn, layer)
    return clock.wrap_call(fn, layer)


def _wrap_class(clock: LayerClock, cls: type, layer: str) -> None:
    if issubclass(cls, (BaseException, Enum)):
        return
    for name, value in list(vars(cls).items()):
        if name.startswith("_") and name not in _ENTRY_DUNDERS:
            continue
        if isinstance(value, staticmethod):
            setattr(cls, name,
                    staticmethod(_wrap_any(clock, value.__func__, layer)))
        elif isinstance(value, classmethod):
            setattr(cls, name,
                    classmethod(_wrap_any(clock, value.__func__, layer)))
        elif isinstance(value, types.FunctionType):
            setattr(cls, name, _wrap_any(clock, value, layer))


def _wrap_layers(clock: LayerClock) -> None:
    """Wrap every public function and method of the layer packages."""
    seen = set()
    for module, layer in list(_layer_modules()):
        if module.__name__ in seen:
            continue
        seen.add(module.__name__)
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                _wrap_class(clock, value, layer)
            elif isinstance(value, types.FunctionType) and \
                    not name.startswith("_"):
                _replace_everywhere(value, _wrap_any(clock, value, layer))


def install() -> LayerClock:
    """Wrap the layer packages and return the clock that times them."""
    from repro.autoscale.admission import AdmissionQueue
    from repro.autoscale.scaler import WarmPoolAutoscaler
    from repro.bench import engine, serialization
    from repro.cluster.host import Cluster, home_index
    from repro.core.microvm_manager import MicroVMManager
    from repro.errors import InvocationSheddedError
    from repro.platforms.base import MODE_WARM, ServerlessPlatform
    from repro.platforms.pooling import WarmPool
    from repro.sim.kernel import Simulation
    from repro.sim.process import Process
    from repro.snapshot.restorer import Restorer
    from repro.trace.tracer import Tracer

    # Originals first: the generic pass below replaces these attributes.
    plain = {
        "run": Simulation.run,
        "schedule_timeout": Simulation.schedule_timeout,
        "process_init": Process.__init__,
        "tracer_init": Tracer.__init__,
        "span": Tracer.span,
        "add_span": Tracer.add_span,
        "restore": Restorer.restore,
        "launch_clone": MicroVMManager.launch_clone,
        "invoke": ServerlessPlatform.invoke,
        "admit": AdmissionQueue.admit,
        "provision": WarmPoolAutoscaler._provision,
        "take": WarmPool.take,
        "place": Cluster.place,
        "place_queued": Cluster.place_queued,
        "cache_load": engine.ResultCache.load,
        "cache_store": engine.ResultCache.store,
        "execute_shard": engine._execute_shard,
    }
    codec = {name: getattr(serialization, name) for name in (
        "encode_result", "dumps_result", "decode_result", "loads_result")}

    clock = LayerClock()
    _wrap_layers(clock)
    counts = clock.counts

    # -- sim: events fired inside Simulation.run ------------------------------
    def run_with_events(sim, *args, **kwargs):
        before = sim.events_processed
        try:
            return timed_run(sim, *args, **kwargs)
        finally:
            counts["sim.events"] += sim.events_processed - before
    timed_run = clock.wrap_call(plain["run"], "sim")
    Simulation.run = functools.wraps(plain["run"])(run_with_events)

    # -- processes and fast-path timers: charged to their defining layer ------
    resume_code = LayerClock._resume_timed.__code__

    def process_init(process, sim, generator, name=""):
        frame = getattr(generator, "gi_frame", None)
        if frame is not None and generator.gi_code is not resume_code:
            layer = layer_of(frame.f_globals.get("__name__", ""))
            generator = clock.timed_generator(generator, layer)
        plain["process_init"](process, sim, generator, name)
    Process.__init__ = process_init

    timed_schedule = clock.wrap_call(plain["schedule_timeout"], "sim")

    def schedule_timeout(sim, delay, callback, value=None):
        layer = layer_of(getattr(callback, "__module__", None) or "")
        if layer != "sim":
            callback = clock.wrap_call(callback, layer)
        return timed_schedule(sim, delay, callback, value)
    Simulation.schedule_timeout = schedule_timeout

    # -- trace: spans by name -------------------------------------------------
    def tracer_init(tracer, sim):
        plain["tracer_init"](tracer, sim)
        clock.tracers.add(tracer)
    Tracer.__init__ = tracer_init

    def on_span(args, kwargs, result, error):
        counts["trace.spans"] += 1
        name = args[1] if len(args) > 1 else kwargs.get("name")
        if name == "retry" and kwargs.get("target") == "invoke":
            counts["platforms.retries"] += 1
        elif name == "failover":
            counts["chaos.failovers"] += 1
        elif name == "prefetch":
            counts["snapshot.prefetched_mb"] += kwargs.get("mb", 0.0)
        elif name == "demand-fault":
            counts["snapshot.demand_faults"] += kwargs.get("faults", 0)
    Tracer.span = clock.wrap_call(plain["span"], "trace", observe=on_span)
    Tracer.add_span = clock.wrap_call(plain["add_span"], "trace",
                                      observe=on_span)

    # -- snapshot / core / platforms ------------------------------------------
    Restorer.restore = clock.wrap_generator_function(
        plain["restore"], "snapshot", count_as="snapshot.restores")
    MicroVMManager.launch_clone = clock.wrap_generator_function(
        plain["launch_clone"], "core", count_as="core.clones")

    def on_invoke(args, kwargs, record, error):
        if error is None:
            counts["platforms.completed"] += 1
            if record.mode == MODE_WARM:
                counts["platforms.warm"] += 1
    ServerlessPlatform.invoke = clock.wrap_generator_function(
        plain["invoke"], "platforms", count_as="platforms.invokes",
        observe=on_invoke)

    # -- autoscale ------------------------------------------------------------
    def on_admit(args, kwargs, result, error):
        if error is None:
            counts["autoscale.admitted"] += 1
        elif isinstance(error, InvocationSheddedError):
            counts["autoscale.shed"] += 1
    AdmissionQueue.admit = clock.wrap_generator_function(
        plain["admit"], "autoscale", observe=on_admit)
    WarmPoolAutoscaler._provision = clock.wrap_generator_function(
        plain["provision"], "autoscale", count_as="autoscale.provisioned")

    def on_take(args, kwargs, result, error):
        if result is not None:
            counts["autoscale.warm_takes"] += 1
    WarmPool.take = clock.wrap_call(plain["take"], "platforms",
                                    observe=on_take)

    # -- cluster: placements, and how many land on the function's home host ---
    def on_place(args, kwargs, host, error):
        if error is not None:
            return
        counts["cluster.placements"] += 1
        cluster = args[0]
        function = args[1] if len(args) > 1 else kwargs["function"]
        if host.host_id == cluster.hosts[
                home_index(function, len(cluster.hosts))].host_id:
            counts["cluster.home_placements"] += 1
    Cluster.place = clock.wrap_call(plain["place"], "cluster",
                                    observe=on_place)
    Cluster.place_queued = clock.wrap_call(plain["place_queued"], "cluster",
                                           observe=on_place)

    # -- engine and codec -----------------------------------------------------
    def on_load(args, kwargs, result, error):
        counts["engine.hits" if result is not None else "engine.misses"] += 1
    engine.ResultCache.load = clock.wrap_call(
        plain["cache_load"], "engine", tag="engine.load_s", observe=on_load)
    engine.ResultCache.store = clock.wrap_call(
        plain["cache_store"], "engine", tag="engine.store_s")
    # Shard compute is figure-driver code (``other``); only its total
    # duration is an engine metric.
    engine._execute_shard = clock.wrap_call(
        plain["execute_shard"], OTHER, tag="engine.compute_s")
    for name, original in codec.items():
        tag = ("codec.encode_s" if name in ("encode_result", "dumps_result")
               else "codec.decode_s")
        _replace_everywhere(getattr(serialization, name),
                            clock.wrap_call(original, "codec", tag=tag))
    return clock
