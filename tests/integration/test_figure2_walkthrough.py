"""The Figure 2 walkthrough: every numbered step of §3.1, asserted.

Installation phase: (1) create a microVM ready for a runtime, (2) annotate
the source, (3) invoke the annotated function, (4) JIT + snapshot.
Invocation phase: (5) parameters into the passer queue, (6) network setup,
(7) snapshot restore, (8) fetch parameters and run the original entry.
"""

import pytest

from repro.bench import fresh_platform
from repro.core import FireworksPlatform, topic_for
from repro.snapshot.image import STAGE_POST_JIT
from repro.workloads import faasdom_spec
from tests.helpers import run


@pytest.fixture
def fireworks():
    return fresh_platform(FireworksPlatform)


@pytest.fixture
def spec():
    return faasdom_spec("faas-fact", "python")


class TestInstallationPhase:
    def test_steps_1_through_4(self, fireworks, spec):
        sim = fireworks.sim
        run(sim, fireworks.install(spec))
        report = fireworks.install_reports[spec.name]

        # (2) the code annotator transformed the user source: @jit on the
        # user function, the three __fireworks_* additions present.
        annotated = report.annotated.annotated
        assert "@jit(cache=True)" in annotated
        for scaffold in ("__fireworks_jit", "__fireworks_snapshot",
                         "__fireworks_main"):
            assert scaffold in annotated

        # (3)+(4a) the annotated function ran its JIT pass: the image's
        # runtime state says the entry point is compiled.
        image = fireworks.image_for(spec.name)
        assert image.stage == STAGE_POST_JIT
        assert image.jit_state["main"].tier == "optimized"

        # (4b) the snapshot was taken before the original entry ran: no
        # invocation-time state in the image beyond load+JIT.
        assert image.size_mb == pytest.approx(
            fireworks.params.memory_layout("python").guest_total_mb,
            abs=5)

        # The installer microVM is gone; only the image file remains.
        assert fireworks.bridge.endpoint_count() == 0


class TestInvocationPhase:
    def test_steps_5_through_8(self, fireworks, spec):
        sim = fireworks.sim
        run(sim, fireworks.install(spec))
        fireworks.retain_workers = True
        produced = []
        produce = fireworks.bus.produce

        def spy(topic, value, timestamp_ms=0.0):
            produced.append((topic, value))
            return produce(topic, value, timestamp_ms)
        fireworks.bus.produce = spy
        record = run(sim, fireworks.invoke(spec.name,
                                           payload={"n": 1000003}))
        worker = record.worker

        # (5) the arguments went through the per-instance Kafka topic,
        # which the guest's fetch consumed and deleted (clones are
        # single-use).
        fc_id = worker.sandbox.mmds.get("fcID")
        assert (topic_for(fc_id), {"function": spec.name}) in produced
        assert not fireworks.bus.has_topic(topic_for(fc_id))

        # (6) the clone got its own namespace/NAT wiring around the
        # snapshotted guest identity.
        image = fireworks.image_for(spec.name)
        assert worker.sandbox.guest_ip == image.guest_ip
        assert worker.endpoint.external_ip != image.guest_ip
        assert worker.endpoint.namespace.nat.external_for(
            image.guest_ip) == worker.endpoint.external_ip

        # (7) the sandbox is a snapshot restore, not a boot.
        assert worker.sandbox.restored_from_snapshot
        assert record.mode == "snapshot"

        # (8) the original entry executed fully JITted — no compile cost,
        # Numba-speed compute.
        assert record.guest.jit_compile_ms == 0
        interp_ms = (spec.program().total_compute_units()
                     / fireworks.params.runtime("python").interp_units_per_ms)
        assert record.guest.compute_ms < interp_ms / 10

    def test_no_cold_warm_distinction(self, fireworks, spec):
        """§5.1: Fireworks always resumes from the snapshot."""
        sim = fireworks.sim
        run(sim, fireworks.install(spec))
        startups = [run(sim, fireworks.invoke(spec.name)).startup_ms
                    for _ in range(4)]
        assert max(startups) == pytest.approx(min(startups), rel=1e-6)
