"""Property tests: the kernel fires events in ``(time, rank, seq)`` order.

The golden figure hashes ride on one promise of the kernel: pending
events fire in the total order ``(time, urgent_rank, sequence)`` — by
time, urgent wakeups (rank 0) before normal entries (rank 1) at the same
instant, then FIFO.  These tests check it at two levels:

* spec order — random scripts of timers, ``Timeout`` events, process
  bootstraps and urgent interrupt wakeups, scheduled both up front and
  from inside firing callbacks, must fire in the order Python's
  ``sorted()`` gives over their keys.  ``sorted()`` shares no code with
  the kernel's ``heapq``, so it is an independent oracle;
* run vs step — the kernel has two firing loops, the inlined one in
  :meth:`Simulation.run` and :meth:`Simulation.step`.  Random programs
  (timeouts, processes, interrupts, cancellations) driven through each
  must replay identical histories.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt
from repro.sim.kernel import Simulation

# Delays covering same-time (0.0) ties, sub-millisecond fractions, whole
# milliseconds, and the former calendar tiers' edges (511, 512, 512.5 and
# the far-future 10 000).
DELAYS = st.sampled_from([
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 63.0, 511.0, 512.0, 512.5,
    10_000.0,
])

_INF = float("inf")


# ---------------------------------------------------------------------------
# Spec order
# ---------------------------------------------------------------------------
@st.composite
def order_scripts(draw):
    """Scheduling ops; a few run up front, the rest from firing callbacks."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("fast"), DELAYS),
            st.tuples(st.just("timeout"), DELAYS),
            st.tuples(st.just("spawn")),
            st.tuples(st.just("interrupt"), st.integers(0, 7))),
        min_size=1, max_size=120))
    upfront = draw(st.integers(min_value=1, max_value=min(8, len(ops))))
    return ops, upfront


def _run_order_script(ops, upfront):
    """Run *ops*; return ``(fired, scheduled)`` lists of entry keys.

    Each entry's key is ``(time, rank, seq)``, predicted from the
    kernel's sequence counter before the scheduling call and checked
    against it right after.  Every firing appends its key to ``fired``,
    checks it against the pending set, and runs the next op.
    """
    sim = Simulation(seed=7)
    pending = []
    scheduled = []
    fired = []
    victims = []  # booted, still-waiting interrupt targets
    script = iter(ops)

    def schedule(time, rank, call):
        key = (time, rank, sim._sequence + 1)
        call(key)
        assert sim._sequence == key[2]
        pending.append(key)
        scheduled.append(key)

    def fire(key):
        # The fired entry must be the least pending key, as sorted() says.
        assert key == sorted(pending)[0]
        pending.remove(key)
        fired.append(key)
        run_next()

    def victim(boot_key):
        fire(boot_key)
        victims.append(sim.active_process)
        while True:
            try:
                yield sim.event()  # never triggered: waits for interrupts
            except Interrupt as interrupt:
                fire(interrupt.cause)

    def add_timeout(key, delay):
        timeout = sim.timeout(delay)
        timeout.callbacks.append(lambda _ev: fire(key))

    def run_next():
        op = next(script, None)
        if op is None:
            return
        kind = op[0]
        if kind == "fast":
            schedule(sim.now + op[1], 1,
                     lambda key: sim.schedule_timeout(op[1], fire, key))
        elif kind == "timeout":
            schedule(sim.now + op[1], 1, lambda key: add_timeout(key, op[1]))
        elif kind == "spawn" or not victims:
            schedule(sim.now, 1, lambda key: sim.process(victim(key)))
        else:
            target = victims[op[1] % len(victims)]
            schedule(sim.now, 0, lambda key: target.interrupt(cause=key))

    for _ in range(upfront):
        run_next()
    sim.run()
    assert pending == []
    return fired, scheduled


@given(order_scripts())
@settings(max_examples=300, deadline=None)
def test_fire_order_matches_sorted(case):
    """Every firing is the sorted() minimum of the pending keys."""
    ops, upfront = case
    fired, scheduled = _run_order_script(ops, upfront)
    assert sorted(fired) == sorted(scheduled)
    # The clock never moves backwards.
    times = [key[0] for key in fired]
    assert times == sorted(times)


@given(st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_bulk_schedule_fires_in_sorted_order(pushes):
    """Schedule everything up front, then drain: a pure sort check.

    Urgent entries are interrupt wakeups; they all land at time 0.
    """
    sim = Simulation(seed=7)
    keys = []
    fired = []

    def sleeper():
        while True:
            try:
                yield sim.event()
            except Interrupt as interrupt:
                fired.append(interrupt.cause)

    target = sim.process(sleeper())
    sim.step()  # boot the sleeper so it can be interrupted
    for delay, urgent in pushes:
        if urgent:
            key = (sim.now, 0, sim._sequence + 1)
            target.interrupt(cause=key)
        else:
            key = (sim.now + delay, 1, sim._sequence + 1)
            sim.schedule_timeout(delay, fired.append, key)
        assert sim._sequence == key[2]
        keys.append(key)
    sim.run()
    assert fired == sorted(keys)
    assert sim.events_processed == 1 + len(keys)


# ---------------------------------------------------------------------------
# Run vs step
# ---------------------------------------------------------------------------
@st.composite
def kernel_programs(draw):
    """A list of per-step actions a main process performs."""
    return draw(st.lists(
        st.one_of(
            # (schedule a timeout with a recording callback, delay)
            st.tuples(st.just("timeout"), DELAYS),
            # (schedule via the fast path, delay)
            st.tuples(st.just("fast"), DELAYS),
            # (spawn a process that sleeps k times, delay per sleep)
            st.tuples(st.just("process"), DELAYS,
                      st.integers(min_value=1, max_value=3)),
            # (spawn a sleeping process, then interrupt it after a delay)
            st.tuples(st.just("interrupt"), DELAYS, DELAYS),
            # advance the main process itself
            st.tuples(st.just("sleep"), DELAYS)),
        min_size=1, max_size=25))


def _drain(sim, firing: str) -> None:
    """Fire every pending event with ``run()`` or one ``step()`` at a time."""
    if firing == "run":
        sim.run()
    else:
        while sim.peek() < _INF:
            sim.step()


def _run_program(program, firing: str):
    """Execute *program*, draining with *firing*; return the history."""
    sim = Simulation(seed=7)
    log = []

    def main():
        for index, step in enumerate(program):
            kind = step[0]
            if kind == "timeout":
                timeout = sim.timeout(step[1], value=index)
                timeout.callbacks.append(
                    lambda ev, i=index: log.append(("cb", i, sim.now)))
            elif kind == "fast":
                sim.schedule_timeout(
                    step[1], lambda v, i=index: log.append(
                        ("fast", i, sim.now)))
            elif kind == "process":
                def sleeper(i=index, delay=step[1], count=step[2]):
                    for k in range(count):
                        yield sim.timeout(delay)
                        log.append(("proc", i, k, sim.now))
                sim.process(sleeper())
            elif kind == "interrupt":
                def victim(i=index, delay=step[1]):
                    try:
                        yield sim.timeout(delay + 1.0)
                        log.append(("slept", i, sim.now))
                    except Interrupt:
                        log.append(("interrupted", i, sim.now))
                target = sim.process(victim())
                def fire(v, t=target, i=index):
                    if t.is_alive:
                        t.interrupt(cause=i)
                sim.schedule_timeout(step[1], fire)
            else:  # sleep
                yield sim.timeout(step[1])
                log.append(("main", index, sim.now))
        # Make main a generator even without any sleeps.
        if False:
            yield  # pragma: no cover

    sim.process(main())
    _drain(sim, firing)
    return log, sim.now, sim.events_processed


@given(kernel_programs())
@settings(max_examples=150, deadline=None)
def test_run_and_step_replay_identical_histories(program):
    """run() and step() fire the same callbacks at the same times."""
    run_log, run_now, run_events = _run_program(program, "run")
    step_log, step_now, step_events = _run_program(program, "step")
    assert run_log == step_log
    assert run_now == step_now
    assert run_events == step_events


@given(st.lists(DELAYS, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=29))
@settings(max_examples=150, deadline=None)
def test_cancellation_run_and_step_identical(delays, cancel_index):
    """Failing one event mid-run never diverges the two firing loops."""
    def run(firing):
        sim = Simulation(seed=7, strict=False)
        log = []
        events = [sim.event(f"e{i}") for i in range(len(delays))]
        for index, (event, delay) in enumerate(zip(events, delays)):
            event.callbacks.append(
                lambda ev, i=index: log.append((i, sim.now, ev.ok)))

            def complete(_value, ev=event, i=index):
                if not ev.triggered:
                    ev.succeed(value=i)
            sim.schedule_timeout(delay, complete)
        target = events[cancel_index % len(events)]

        def cancel(_value):
            if not target.triggered:
                target.fail(RuntimeError("cancelled"))
        sim.schedule_timeout(0.5, cancel)
        _drain(sim, firing)
        return log, sim.now, sim.events_processed

    assert run("run") == run("step")
