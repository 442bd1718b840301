"""Fault-injection tests: the control plane's recovery paths."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform, topic_for
from repro.errors import ReproError
from repro.faults import (FaultInjector, InjectedFault,
                          SnapshotCorruptedError)
from repro.workloads import REMINDER_DB, alexa_skills_chain, faasdom_spec


@pytest.fixture
def faulty_platform():
    faults = FaultInjector()
    platform = fresh_platform(FireworksPlatform, faults=faults)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    return platform, spec, faults


class TestInjector:
    def test_unarmed_never_fails(self):
        injector = FaultInjector()
        assert not injector.should_fail("restore", "fn")
        injector.check("restore", "fn")  # no raise

    def test_budget_consumed(self):
        injector = FaultInjector()
        injector.arm("restore", "fn", count=2)
        assert injector.should_fail("restore", "fn")
        assert injector.should_fail("restore", "fn")
        assert not injector.should_fail("restore", "fn")
        assert injector.fired[("restore", "fn")] == 2

    def test_check_raises_typed_errors(self):
        injector = FaultInjector()
        injector.arm("restore", "fn")
        with pytest.raises(SnapshotCorruptedError):
            injector.check("restore", "fn")
        injector.arm("db", "wages")
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("db", "wages")
        assert excinfo.value.kind == "db"

    def test_bad_count_raises(self):
        with pytest.raises(ReproError):
            FaultInjector().arm("restore", "fn", count=0)

    def test_keys_are_independent(self):
        injector = FaultInjector()
        injector.arm("restore", "a")
        assert not injector.should_fail("restore", "b")
        assert injector.should_fail("restore", "a")


class TestInjectorReset:
    """Regression: armed budgets must not survive across experiment
    repetitions — a shared injector once leaked a half-consumed budget
    into the next run inside the parallel engine."""

    def test_reset_clears_budgets_and_history(self):
        injector = FaultInjector()
        injector.arm("restore", "fn", count=3)
        assert injector.should_fail("restore", "fn")
        injector.reset()
        assert not injector.should_fail("restore", "fn")
        assert injector.fired == {}
        assert injector.armed("restore", "fn") == 0

    def test_reset_makes_repetitions_identical(self):
        # Same injector, two "runs" of one-fault-then-invoke-twice: with
        # reset between them the second run sees the same fault schedule
        # as the first, not a depleted one.
        injector = FaultInjector()
        schedules = []
        for _ in range(2):
            injector.reset()
            injector.arm("restore", "fn", count=1)
            schedules.append([injector.should_fail("restore", "fn")
                              for _ in range(3)])
        assert schedules[0] == schedules[1] == [True, False, False]


class TestRestoreRecovery:
    def test_one_corruption_is_recovered(self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("restore", spec.name, count=1)
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.restore_failures == 1
        # Recovery regenerated the snapshot (bumped generation).
        assert platform.image_for(spec.name).generation == 2

    def test_recovery_pays_regeneration_time(self, faulty_platform):
        platform, spec, faults = faulty_platform
        clean = invoke_once(platform, spec.name)
        faults.arm("restore", spec.name, count=1)
        recovered = invoke_once(platform, spec.name)
        assert recovered.startup_ms > clean.startup_ms + 300

    def test_persistent_corruption_propagates(self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("restore", spec.name, count=5)
        with pytest.raises(SnapshotCorruptedError):
            invoke_once(platform, spec.name)

    def test_no_network_leak_on_failure(self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("restore", spec.name, count=5)
        with pytest.raises(SnapshotCorruptedError):
            invoke_once(platform, spec.name)
        assert platform.bridge.endpoint_count() == 0


class TestParamFetchRecovery:
    def test_transient_fetch_failures_retried(self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("param-fetch", spec.name, count=2)
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.param_fetch_retries == 2

    def test_retried_fetch_finds_the_topic_then_deletes_it(
            self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("param-fetch", spec.name, count=2)
        invoke_once(platform, spec.name)
        assert platform.param_fetch_retries == 2
        assert not any(name.startswith(topic_for(""))
                       for name in platform.bus.topic_names())

    def test_persistent_fetch_failure_propagates(self, faulty_platform):
        platform, spec, faults = faulty_platform
        faults.arm("param-fetch", spec.name, count=10)
        with pytest.raises(InjectedFault):
            invoke_once(platform, spec.name)

    def test_retries_cost_time(self, faulty_platform):
        platform, spec, faults = faulty_platform
        clean = invoke_once(platform, spec.name)
        faults.arm("param-fetch", spec.name, count=2)
        retried = invoke_once(platform, spec.name)
        assert retried.startup_ms > clean.startup_ms


class TestDbRecovery:
    """An armed ``db`` fault times out a CouchDB request; the guest SDK
    retries with a short backoff, surfacing the wait as a ``retry`` span."""

    @pytest.fixture
    def reminder_platform(self):
        faults = FaultInjector()
        platform = fresh_platform(FireworksPlatform, faults=faults)
        chain = alexa_skills_chain()
        spec = next(s for s in chain.functions
                    if s.name == "alexa-reminder")
        install_all(platform, [spec])
        return platform, spec, faults

    def test_transient_db_timeouts_recovered(self, reminder_platform):
        platform, spec, faults = reminder_platform
        faults.arm("db", REMINDER_DB, count=2)
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.db_retries == 2
        assert faults.fired[("db", REMINDER_DB)] == 2
        assert faults.armed("db", REMINDER_DB) == 0

    def test_retry_latency_shows_as_retry_spans(self, reminder_platform):
        platform, spec, faults = reminder_platform
        faults.arm("db", REMINDER_DB, count=2)
        record = invoke_once(platform, spec.name)
        retries = [s for s in record.span.find_all("retry")
                   if s.attrs.get("target") == "db"]
        assert len(retries) == 2
        for span in retries:
            assert span.kind == "retry"
            assert span.duration_ms == pytest.approx(
                platform.DB_RETRY_BACKOFF_MS)

    def test_retries_cost_exec_time(self, reminder_platform):
        platform, spec, faults = reminder_platform
        clean = invoke_once(platform, spec.name)
        faults.arm("db", REMINDER_DB, count=1)
        retried = invoke_once(platform, spec.name)
        # The retried request pays the failed request-out leg plus the
        # backoff, inside the guest's exec window.
        assert retried.exec_ms > clean.exec_ms

    def test_persistent_db_failure_propagates(self, reminder_platform):
        platform, spec, faults = reminder_platform
        faults.arm("db", REMINDER_DB, count=10)
        with pytest.raises(InjectedFault) as excinfo:
            invoke_once(platform, spec.name)
        assert excinfo.value.kind == "db"
        # One fired per attempt of the first (get) request only.
        assert faults.fired[("db", REMINDER_DB)] == \
            platform.MAX_DB_ATTEMPTS

    def test_fired_counts_exact_across_kinds(self, reminder_platform):
        platform, spec, faults = reminder_platform
        faults.arm("db", REMINDER_DB, count=1)
        faults.arm("param-fetch", spec.name, count=1)
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert faults.fired == {("db", REMINDER_DB): 1,
                                ("param-fetch", spec.name): 1}
        targets = sorted(s.attrs["target"]
                         for s in record.span.find_all("retry"))
        assert targets == ["db", "param-fetch"]
