"""Integration-style unit tests for the Fireworks platform."""

import pytest

from repro.config import default_parameters
from repro.core import FireworksPlatform
from repro.platforms import MODE_SNAPSHOT, MODE_COLD
from repro.sim import Simulation
from repro.workloads import faasdom_spec
from tests.helpers import run


@pytest.fixture
def params():
    return default_parameters()


@pytest.fixture
def fw(params):
    sim = Simulation()
    platform = FireworksPlatform(sim, params)
    spec = faasdom_spec("faas-fact", "nodejs")
    run(sim, platform.install(spec))
    return platform, spec


class TestInvocation:
    def test_always_snapshot_mode(self, fw):
        """§5.1: Fireworks has no cold/warm distinction."""
        platform, spec = fw
        for forced_mode in (MODE_COLD, "warm", "auto"):
            record = run(platform.sim,
                         platform.invoke(spec.name, mode=forced_mode))
            assert record.mode == MODE_SNAPSHOT

    def test_topic_count_constant_over_repeated_invocations(self, fw):
        """Each clone's parameter topic is deleted once fetched, so the
        broker does not grow a topic per invocation."""
        platform, spec = fw
        run(platform.sim, platform.invoke(spec.name))
        topics = len(platform.bus.topic_names())
        for _ in range(5):
            run(platform.sim, platform.invoke(spec.name))
        assert len(platform.bus.topic_names()) == topics

    def test_startup_far_below_warm_baselines(self, fw, params):
        platform, spec = fw
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.startup_ms < params.latency("microvm").resume_paused_ms

    def test_exec_fully_jitted(self, fw):
        platform, spec = fw
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.guest.jit_compile_ms == 0

    def test_startup_includes_param_fetch(self, fw, params):
        platform, spec = fw
        record = run(platform.sim, platform.invoke(spec.name))
        fwcfg = params.fireworks
        minimum = (fwcfg.netns_setup_ms + fwcfg.mmds_write_ms
                   + fwcfg.param_fetch_ms)
        assert record.startup_ms > minimum

    def test_param_publish_counted_as_other(self, fw, params):
        platform, spec = fw
        record = run(platform.sim, platform.invoke(spec.name))
        cp = params.control_plane
        frontend = (cp.gateway_route_ms + cp.controller_dispatch_ms
                    + cp.bus_publish_ms)
        assert record.other_ms == pytest.approx(
            frontend + params.fireworks.param_publish_ms)

    def test_clone_teardown_releases_all_but_page_cache(self, fw):
        platform, spec = fw
        run(platform.sim, platform.invoke(spec.name))
        platform.sim.run()
        image = platform.image_for(spec.name)
        assert platform.host_memory.used_mb == pytest.approx(image.size_mb)
        assert platform.bridge.endpoint_count() == 0

    def test_concurrent_clones_have_distinct_fc_ids(self, fw):
        platform, spec = fw
        platform.retain_workers = True
        first = run(platform.sim, platform.invoke(spec.name))
        second = run(platform.sim, platform.invoke(spec.name))
        id1 = first.worker.sandbox.mmds.get("fcID")
        id2 = second.worker.sandbox.mmds.get("fcID")
        assert id1 != id2

    def test_clones_share_guest_identity_different_external(self, fw):
        platform, spec = fw
        platform.retain_workers = True
        first = run(platform.sim, platform.invoke(spec.name))
        second = run(platform.sim, platform.invoke(spec.name))
        assert first.worker.sandbox.guest_ip == \
            second.worker.sandbox.guest_ip
        assert first.worker.endpoint.external_ip != \
            second.worker.endpoint.external_ip


class TestRegeneration:
    def test_generation_bumps_and_restores_work(self, fw):
        platform, spec = fw
        image = run(platform.sim,
                    platform.regenerate_snapshot(spec.name))
        assert image.generation == 2
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.mode == MODE_SNAPSHOT

    def test_old_page_cache_released_when_unused(self, fw):
        platform, spec = fw
        old = platform.image_for(spec.name)
        old.materialize(platform.host_memory)
        used_with_old = platform.host_memory.used_mb
        run(platform.sim, platform.regenerate_snapshot(spec.name))
        # Old image was evicted from the store; with no live clones its
        # page cache is dropped.
        assert platform.host_memory.used_mb < used_with_old + 1


class TestInstallReports:
    def test_reports_kept_per_function(self, fw):
        platform, spec = fw
        assert spec.name in platform.install_reports
        report = platform.install_reports[spec.name]
        assert report.image.key == spec.name
