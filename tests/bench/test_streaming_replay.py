"""Both trace replays stream: memory does not grow with their length.

A replay folds each completed invocation into its ledger and keeps nothing
else of it: no record on the platform, no span tree on the tracer, no dead
microVM.  The open-loop outcome must be byte-identical to a run that keeps
full history, and the ledger must agree with the outcome derived from the
kept records, the way it was derived before the replay streamed.  The
closed-loop replay streams the same way and survives failed invocations.
"""

import gc
import json
import tracemalloc
from array import array

from repro.bench import load
from repro.bench.harness import (closed_loop_replay, fresh_cluster_platform,
                                 install_all, replay_specs)
from repro.bench.serialization import encode_result
from repro.bench.stats import LatencyStats, percentile
from repro.chaos import ChaosPlan, HostFailureController
from repro.core.fireworks import FireworksPlatform
from repro.platforms.base import MODE_WARM, InvocationRecord
from repro.sandbox.worker import Worker
from repro.trace import Span
from repro.workloads.generator import TraceEvent

REPLAY = load.open_loop_replay

# The SMALL config of test_load.py: a few hundred events, queueing visible.
SMALL = dict(n_hosts=3, n_functions=8, duration_ms=20_000.0,
             popular_interarrival_ms=100.0, seed=7)

#: Bytes the tracemalloc peak of a whole run may grow by per extra
#: invocation, going from a 20 s to an 80 s replay.  Measured on x86-64 at
#: 669 B (CPython 3.9.18), 660 B (3.11.7) and 653 B (3.12.1), against
#: about 7.9 KiB when the replay keeps full history (943/871/850 B before
#: bus topics got a retention limit).  About 180 B of it is the
#: materialised trace; after a collection, 88 B per invocation stays live
#: (the scaler's arrival gaps, the ledger).  The ledger's submission and
#: completion times, which chaos recovery reads, added about 20 B (625 ->
#: 645 B on CPython 3.11.7).  Never loosen this.
PEAK_GROWTH_PER_INVOCATION_B = 1024


def _canonical(outcome) -> bytes:
    return json.dumps(encode_result(outcome), sort_keys=True,
                      separators=(",", ":")).encode()


def _replay(monkeypatch, keep_history: bool, **overrides):
    """One SMALL fireworks row; the drained platform comes back too.

    ``run_load_platform`` turns history off just before it calls the
    replay; with *keep_history* the replay turns it back on first.
    """
    def replay(platform, *args, **kwargs):
        platform.keep_history = keep_history
        return REPLAY(platform, *args, **kwargs)
    monkeypatch.setattr(load, "open_loop_replay", replay)
    return load.run_load_platform("fireworks", "predictive",
                                  return_platform=True,
                                  **dict(SMALL, **overrides))


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


class TestSameOutcome:
    def test_streamed_outcome_is_byte_identical_to_full_history(
            self, monkeypatch):
        kept, _ = _replay(monkeypatch, keep_history=True)
        streamed, _ = _replay(monkeypatch, keep_history=False)
        assert kept.completed > 0
        assert _canonical(streamed) == _canonical(kept)

    def test_ledger_matches_the_records_it_replaces(self, monkeypatch):
        """The outcome as derived from ``platform.records`` before the
        replay streamed is the reference the ledger must reproduce."""
        outcome, platform = _replay(monkeypatch, keep_history=True)
        records = platform.records
        latencies = array("d", (r.total_ms for r in records))
        waits = array("d", (r.queue_wait_ms for r in records))
        assert outcome.completed == len(records) == platform.completed
        assert outcome.latency == LatencyStats.from_samples(latencies)
        assert outcome.queue_wait_p50_ms == percentile(waits, 50)
        assert outcome.queue_wait_p99_ms == percentile(waits, 99)
        assert outcome.warm_starts == sum(1 for r in records
                                          if r.mode == MODE_WARM)


class TestNothingRetained:
    def test_streamed_run_keeps_no_history(self, monkeypatch):
        outcome, platform = _replay(monkeypatch, keep_history=False)
        assert outcome.completed == platform.completed > 0
        assert platform.records == []
        assert len(platform.sim.tracer.roots) == 0

    def test_no_invocation_state_survives_a_collection(self, monkeypatch):
        gc.collect()
        before = {cls: _live(cls) for cls in (InvocationRecord, Worker,
                                              Span)}
        _, platform = _replay(monkeypatch, keep_history=False)
        gc.collect()
        # The platform is still alive: whatever it kept would count here.
        # Idle clones the autoscaler parked in the warm pools are serving
        # state, not history: none of them has served an invocation.
        now = platform.sim.now
        pooled = [entry.worker for host in platform.cluster.hosts
                  for entry in host.pool.live_entries(now)]
        assert all(worker.invocations == 0 for worker in pooled)
        after = {cls: _live(cls) for cls in before}
        assert platform.completed > 0
        assert after[InvocationRecord] == before[InvocationRecord]
        assert after[Span] == before[Span]
        assert after[Worker] == before[Worker] + len(pooled)

    def test_full_history_does_keep_it(self, monkeypatch):
        """The control: the same count sees what a non-streamed run keeps."""
        gc.collect()
        before = _live(InvocationRecord)
        _, platform = _replay(monkeypatch, keep_history=True)
        gc.collect()
        assert _live(InvocationRecord) - before == platform.completed > 0


def _traced_peak(monkeypatch, duration_ms: float):
    gc.collect()
    tracemalloc.start()
    try:
        outcome, _ = _replay(monkeypatch, keep_history=False,
                             duration_ms=duration_ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, outcome.requests


def test_peak_memory_does_not_grow_per_invocation(monkeypatch):
    # First run outside the measurement: imports and lazily built caches.
    _replay(monkeypatch, keep_history=False)
    short_peak, short_requests = _traced_peak(monkeypatch, 20_000.0)
    long_peak, long_requests = _traced_peak(monkeypatch, 80_000.0)
    assert long_requests > 2 * short_requests
    growth = (long_peak - short_peak) / (long_requests - short_requests)
    assert growth < PEAK_GROWTH_PER_INVOCATION_B, \
        f"peak grew {growth:.0f} B per extra invocation"


def _closed_platform(n_hosts: int):
    platform = fresh_cluster_platform(FireworksPlatform, n_hosts=n_hosts)
    install_all(platform, replay_specs(["fn-a", "fn-b"]))
    return platform


def _closed_trace(start_ms: float, count: int):
    """*count* events, alternating functions, one every 100 ms."""
    return [TraceEvent(start_ms + 100.0 * index,
                       "fn-a" if index % 2 == 0 else "fn-b")
            for index in range(count)]


class TestClosedLoopReplay:
    def test_closed_replay_keeps_no_history(self):
        platform = _closed_platform(n_hosts=2)
        trace = _closed_trace(platform.sim.now, 20)
        ledger = closed_loop_replay(platform, trace)
        assert len(ledger.latencies) == len(trace) == platform.completed
        assert list(ledger.submitted) == sorted(ledger.submitted)
        assert all(done >= sub for sub, done
                   in zip(ledger.submitted, ledger.completed))
        assert platform.records == []
        assert len(platform.sim.tracer.roots) == 0

    def test_failed_invocations_are_counted_and_the_replay_goes_on(self):
        # The only host dies mid-trace and never rejoins: every later
        # request exhausts its retries and fails.
        platform = _closed_platform(n_hosts=1)
        start_ms = platform.sim.now
        trace = _closed_trace(start_ms, 20)
        crash_at_ms = start_ms + 1_050.0
        HostFailureController(platform, ChaosPlan.single_crash(crash_at_ms,
                                                               0))
        ledger = closed_loop_replay(platform, trace)
        failed = platform.failed_invocations
        assert 0 < len(failed) < len(trace)
        assert len(ledger.latencies) + len(failed) == len(trace)
        # The replay reached the end of the trace past the failures.
        assert failed[-1].submitted_ms >= trace[-1].at_ms
        assert all(sub < crash_at_ms for sub in ledger.submitted)
