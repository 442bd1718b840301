"""Shared experiment plumbing: build a platform, install, invoke, measure,
and replay a trace closed loop."""

from __future__ import annotations

import dataclasses
from array import array
from typing import Iterable, List, Optional, Tuple, Type

from repro.cluster.host import Cluster
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.platforms.base import (MODE_AUTO, MODE_COLD, MODE_WARM,
                                  InvocationRecord, ServerlessPlatform)
from repro.platforms.firecracker import (FirecrackerPlatform,
                                         FirecrackerSnapshotPlatform)
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.platforms.scheduler import POLICY_HASH
from repro.sim.kernel import Simulation
from repro.sim.rng import RngStreams
from repro.trace import verify_invocation
from repro.workloads.base import ChainSpec, FunctionSpec
from repro.workloads.faasdom import faasdom_spec
from repro.workloads.generator import (TraceEvent, assign_popularity,
                                       poisson_trace)

def fresh_platform(platform_cls: Type[ServerlessPlatform],
                   params: Optional[CalibratedParameters] = None,
                   seed: int = 2022,
                   **kwargs) -> ServerlessPlatform:
    """A platform on its own simulation and host (isolated experiment)."""
    sim = Simulation(seed=seed)
    return platform_cls(sim, params or default_parameters(), **kwargs)


def fresh_cluster_platform(platform_cls: Type[ServerlessPlatform],
                           params: Optional[CalibratedParameters] = None,
                           seed: int = 2022,
                           n_hosts: int = 1,
                           policy: str = POLICY_HASH,
                           capacity_per_host: Optional[int] = None,
                           cores_per_host: Optional[int] = None,
                           **kwargs) -> ServerlessPlatform:
    """A platform scheduling over its own N-host cluster."""
    sim = Simulation(seed=seed)
    resolved = params or default_parameters()
    cluster = Cluster(sim, resolved, n_hosts=n_hosts, policy=policy,
                      capacity_per_host=capacity_per_host,
                      cores_per_host=cores_per_host)
    return platform_cls(sim, resolved, cluster=cluster, **kwargs)


def install_all(platform: ServerlessPlatform,
                specs: Iterable[FunctionSpec]) -> None:
    """Run the install phase for every spec, to completion."""
    sim = platform.sim
    for spec in specs:
        sim.run(sim.process(platform.install(spec)))


def install_chain(platform: ServerlessPlatform, chain: ChainSpec) -> None:
    """Install every function of a chain."""
    install_all(platform, chain.functions)


def invoke_once(platform: ServerlessPlatform, name: str,
                mode: str = MODE_AUTO,
                payload: Optional[dict] = None) -> InvocationRecord:
    """One measured invocation, run to completion and trace-verified."""
    sim = platform.sim
    record = sim.run(sim.process(platform.invoke(name, payload=payload,
                                                 mode=mode)))
    # Every measured invocation must tell the same story twice: its span
    # tree and its record breakdown (root span duration == end-to-end,
    # exactly).
    verify_invocation(record)
    return record


@dataclasses.dataclass
class ReplayLedger:
    """What a replay keeps of its run: the warm-memory samples (open loop
    only) and, per completed invocation in completion order, the four
    fields the outcomes read.  Nothing else of an invocation needs to
    outlive it, so replay memory does not grow with the trace length."""

    samples: array = dataclasses.field(default_factory=lambda: array("d"))
    latencies: array = dataclasses.field(default_factory=lambda: array("d"))
    waits: array = dataclasses.field(default_factory=lambda: array("d"))
    submitted: array = dataclasses.field(default_factory=lambda: array("d"))
    completed: array = dataclasses.field(default_factory=lambda: array("d"))
    warm_starts: int = 0

    def add(self, record: InvocationRecord) -> None:
        """Fold one completed invocation's record in."""
        self.latencies.append(record.total_ms)
        self.waits.append(record.queue_wait_ms)
        self.submitted.append(record.submitted_ms)
        self.completed.append(record.completed_ms)
        if record.mode == MODE_WARM:
            self.warm_starts += 1


def closed_loop_replay(platform: ServerlessPlatform,
                       trace: Iterable[TraceEvent]) -> ReplayLedger:
    """Replay *trace* closed loop and return the run's ledger.

    Each event fires at its absolute ``at_ms`` (or as soon as the previous
    invocation returns, if that is later) and runs to completion through
    :func:`invoke_once`, so every invocation is trace-verified.  A failed
    invocation is counted on the platform's ``failed_invocations`` and the
    replay goes on.  The replay streams: it turns the platform's
    ``keep_history`` off, so no record or span tree outlives its
    invocation; the records and roots kept before it (installs) are
    dropped too.  Draining the simulation afterwards is the caller's call.
    """
    sim = platform.sim
    platform.keep_history = False
    platform.records.clear()
    sim.tracer.clear()
    ledger = ReplayLedger()
    for event in trace:
        if sim.now < event.at_ms:
            sim.run(until=event.at_ms)
        try:
            ledger.add(invoke_once(platform, event.function))
        except InvocationFailedError:
            pass
    return ledger


def replay_specs(names: Iterable[str]) -> List[FunctionSpec]:
    """One spec per name, each a copy of the Node.js faas-netlatency
    function: the stand-in every trace replay installs."""
    base = faasdom_spec("faas-netlatency", "nodejs")
    return [dataclasses.replace(base, name=name) for name in names]


def poisson_replay_trace(n_functions: int, duration_ms: float, seed: int,
                         **popularity) -> Tuple[List[str], List[TraceEvent]]:
    """The ``fn-NN`` function names and a Poisson trace over them, with
    the popular/rare split of :func:`assign_popularity` (*popularity*
    overrides its inter-arrival times)."""
    rng = RngStreams(seed)
    names = [f"fn-{index:02d}" for index in range(n_functions)]
    trace = poisson_trace(assign_popularity(names, rng, **popularity),
                          duration_ms, rng)
    return names, trace


def provision_warm(platform: ServerlessPlatform, name: str) -> None:
    """Pre-provision a warm sandbox per §5.1's methodology."""
    sim = platform.sim
    if hasattr(platform, "provision_warm"):
        sim.run(sim.process(platform.provision_warm(name)))
    else:
        # OpenWhisk-style: invoking once leaves the container warm.
        invoke_once(platform, name, mode=MODE_COLD)


def cold_and_warm(platform_cls: Type[ServerlessPlatform],
                  spec: FunctionSpec,
                  params: Optional[CalibratedParameters] = None
                  ) -> Tuple[InvocationRecord, InvocationRecord]:
    """Measure one cold and one warm invocation on a fresh platform."""
    platform = fresh_platform(platform_cls, params)
    install_all(platform, [spec])
    cold = invoke_once(platform, spec.name, mode=MODE_COLD)
    provision_warm(platform, spec.name)
    warm = invoke_once(platform, spec.name, mode=MODE_WARM)
    return cold, warm


def fireworks_invocation(spec: FunctionSpec,
                         params: Optional[CalibratedParameters] = None,
                         **platform_kwargs) -> InvocationRecord:
    """Install + one invocation on a fresh Fireworks platform."""
    platform = fresh_platform(FireworksPlatform, params, **platform_kwargs)
    install_all(platform, [spec])
    return invoke_once(platform, spec.name)


def drain(platform: ServerlessPlatform) -> None:
    """Run the simulation until quiescent (async triggers, reaping...)."""
    platform.sim.run()


__all__ = [
    "FirecrackerPlatform",
    "FirecrackerSnapshotPlatform",
    "FireworksPlatform",
    "GVisorPlatform",
    "OpenWhiskPlatform",
    "ReplayLedger",
    "closed_loop_replay",
    "cold_and_warm",
    "drain",
    "fireworks_invocation",
    "fresh_cluster_platform",
    "fresh_platform",
    "install_all",
    "install_chain",
    "invoke_once",
    "poisson_replay_trace",
    "provision_warm",
    "replay_specs",
]
