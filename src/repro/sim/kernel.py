"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the pending-event queue.
Components throughout the library (sandboxes, runtimes, platforms) are
written as generator processes scheduled on a single ``Simulation`` so that
concurrent activity — warm-pool expiry, chained function invocations,
background JIT — interleaves deterministically.

Time is measured in **milliseconds** as floats; the clock starts at 0.0.

Hot-path design
---------------
Pending events live in one ``heapq`` list of ``(time, urgent_rank,
sequence, item)`` entries, so events fire in that total order: by time,
urgent wakeups (rank 0) before normal entries (rank 1) at the same
instant, then FIFO by sequence.  No tiers sit in front of the heap: on
the benchmark workloads a calendar queue (same-time deque plus a bucket
ring) popped the same order no faster (``docs/performance.md``).  The
speed comes from allocating little per event.  Two pooled, slot-only
payload types ride the heap alongside full
:class:`~repro.sim.events.Event` objects:

* :class:`_Timer` — created by :meth:`Simulation.schedule_timeout`, the
  fast path for fire-and-forget callbacks (keep-alive expiry, samplers).
  No Event protocol, no name string, no callbacks list.
* :class:`_Wakeup` — created by :meth:`Simulation._schedule_wakeup` to
  resume a process (bootstrap, redelivery of an already-processed yield
  target, interrupts) without allocating a throwaway Event.

Both are recycled through free lists owned by the simulation, so steady
state replays allocate almost nothing per event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngStreams
from repro.trace.tracer import Tracer

__all__ = ["Simulation", "Interrupt"]

# Queue entries are (time, urgent_rank, sequence, item): the sequence number
# makes ordering total and FIFO among same-time events.  ``item`` is an
# Event, a pooled _Timer, or a pooled _Wakeup.
_HeapEntry = Tuple[float, int, int, Any]

_INF = float("inf")

# Free-list caps: bound worst-case retained memory after a burst.
_TIMER_POOL_MAX = 4096
_WAKEUP_POOL_MAX = 4096


class _Timer:
    """Pooled fast-path timer: fires ``callback(value)``.

    Not an Event — it cannot be yielded on or waited for.  Only
    :meth:`Simulation.schedule_timeout` creates these.
    """

    __slots__ = ("sim", "_callback", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._callback: Optional[Callable[[Any], None]] = None
        self._value: Any = None

    def _fire(self) -> None:
        # Generic-path firing (step(), run(until=event)); the run() hot
        # loop inlines this body instead.
        cb = self._callback
        value = self._value
        self._callback = None
        self._value = None
        pool = self.sim._timer_pool
        if len(pool) < _TIMER_POOL_MAX:
            pool.append(self)
        assert cb is not None
        cb(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Timer cb={self._callback!r}>"


class _Wakeup:
    """Pooled process wakeup: delivers ``(ok, value)`` to one callback.

    Quacks just enough like a triggered Event for ``Process._resume``,
    which only reads ``_ok`` and ``_value`` from its trigger.
    """

    __slots__ = ("sim", "_callback", "_ok", "_value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._callback: Optional[Callable[[Any], None]] = None
        self._ok = True
        self._value: Any = None

    def _fire(self) -> None:
        cb = self._callback
        self._callback = None
        assert cb is not None
        cb(self)
        # Recycle only on clean return: if the callback raised (strict
        # mode), the wakeup is simply dropped for the GC.
        self._value = None
        pool = self.sim._wakeup_pool
        if len(pool) < _WAKEUP_POOL_MAX:
            pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Wakeup ok={self._ok} value={self._value!r}>"


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :class:`RngStreams`).
    strict:
        When True (the default for tests), exceptions escaping a process
        propagate out of :meth:`run` instead of failing the process event.
        When False, a failed ``run(until=event)`` target does not raise
        either: the exception comes back as the return value and the
        caller inspects ``event.ok``.
    """

    def __init__(self, seed: int = 2022, strict: bool = True) -> None:
        self._now = 0.0
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self.strict = strict
        self.rng = RngStreams(seed)
        self._trace_hooks: List[Callable[[float, Any], None]] = []
        #: Total events fired by this simulation (timers and wakeups
        #: included); bench tooling derives events/sec from this.
        self.events_processed = 0
        self._heap: List[_HeapEntry] = []
        # -- free lists ---------------------------------------------------
        self._timer_pool: List[_Timer] = []
        self._wakeup_pool: List[_Wakeup] = []
        self._cb_pool: List[list] = []
        #: Per-invocation span tracing (repro.trace); always on — records
        #: derive their latency breakdown from these spans.
        self.tracer = Tracer(self)

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event construction ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event on this simulation."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start a new process from *generator*; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event firing once every event in *events* has fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event firing once any event in *events* has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority_urgent: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now + delay, 0 if priority_urgent else 1,
                              seq, event))

    def schedule_timeout(self, delay: float,
                         callback: Callable[[Any], None],
                         value: Any = None) -> None:
        """Fast path: run ``callback(value)`` after *delay* ms.

        Unlike :meth:`timeout`, no :class:`Event` is allocated: nothing can
        wait on, cancel, or compose the timer, and the callback receives
        the *value* (not an event).  Use this for fire-and-forget work —
        expiry sweeps, samplers, retry kick-offs — where the Event protocol
        is pure overhead.  The timer object itself is pooled.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
        else:
            timer = _Timer(self)
        timer._callback = callback
        timer._value = value
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now + delay, 1, seq, timer))

    def _schedule_wakeup(self, callback: Callable[[Any], None], ok: bool,
                         value: Any, urgent: bool = False) -> None:
        """Schedule a pooled process wakeup at the current time."""
        pool = self._wakeup_pool
        if pool:
            wakeup = pool.pop()
        else:
            wakeup = _Wakeup(self)
        wakeup._callback = callback
        wakeup._ok = ok
        wakeup._value = value
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self._now, 0 if urgent else 1, seq, wakeup))

    def add_trace_hook(self, hook: Callable[[float, Any], None]) -> None:
        """Register a hook called with (time, item) for each processed event.

        ``item`` is usually an :class:`Event` but may be a pooled kernel
        timer or wakeup for events scheduled through the fast paths.
        """
        self._trace_hooks.append(hook)

    # -- execution ---------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises if none are scheduled."""
        heap = self._heap
        if not heap:
            raise SimulationError("simulation has no scheduled events")
        time = heap[0][0]
        if time < self._now:
            raise SimulationError("event heap time went backwards")
        item = heappop(heap)[3]
        self._now = time
        self.events_processed += 1
        # Tracing is off in the common case; don't pay for the loop setup
        # on every event of every experiment.
        if self._trace_hooks:
            for hook in self._trace_hooks:
                hook(time, item)
        item._fire()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its value.
        """
        if until is None:
            self._run_core(_INF)
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is before now={self._now}")
        self._run_core(deadline)
        # Everything at or before the deadline has fired; all pending
        # entries are strictly later, so the clock stays a lower bound on
        # pending times.
        self._now = deadline
        return None

    def _run_core(self, deadline: float) -> None:
        """Fire events in order while their time is <= *deadline*.

        This is the hot loop: timer firing is inlined (no step()/method-call
        overhead per event), which is worth ~2x on replay throughput in
        CPython.
        """
        heap = self._heap
        hooks = self._trace_hooks  # list identity is stable
        tpool = self._timer_pool
        timer_cls = _Timer
        processed = 0
        try:
            while heap:
                time = heap[0][0]
                if time > deadline:
                    return
                if time < self._now:
                    raise SimulationError("event heap time went backwards")
                item = heappop(heap)[3]
                self._now = time
                processed += 1
                if hooks:
                    for hook in hooks:
                        hook(time, item)
                if item.__class__ is timer_cls:
                    cb = item._callback
                    item._callback = None
                    value = item._value
                    item._value = None
                    if len(tpool) < _TIMER_POOL_MAX:
                        tpool.append(item)
                    cb(value)
                else:
                    item._fire()
        finally:
            self.events_processed += processed

    def _run_until_event(self, until: Event) -> Any:
        if until.sim is not self:
            raise SimulationError("run(until=...) got a foreign event")
        finished: List[bool] = []

        def mark(_event: Event) -> None:
            finished.append(True)

        if until.processed:
            finished.append(True)
        else:
            # Untriggered, or triggered and already on the heap.
            assert until.callbacks is not None
            until.callbacks.append(mark)
        while not finished:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: no events left but {until!r} never fired")
            self.step()
        if not until.ok and self.strict:
            raise until.value
        # Non-strict: a failed event does not raise out of run(); the
        # caller inspects ``until.ok`` and gets the exception as the value.
        return until.value
