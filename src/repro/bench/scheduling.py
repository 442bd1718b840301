"""Scheduling-policy experiment (extension): warm affinity across hosts.

Replays a multi-function stream against OpenWhisk on a real multi-host
cluster under each load-balancing policy.  Hash scheduling (OpenWhisk's
home invoker) concentrates each function's warm containers on one host and
keeps hitting them; round-robin sprays requests and keeps paying cold
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bench.harness import (closed_loop_replay, fresh_cluster_platform,
                                 install_all, replay_specs)
from repro.bench.stats import LatencyStats
from repro.config import CalibratedParameters
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.platforms.scheduler import (POLICY_HASH, POLICY_LEAST_LOADED,
                                       POLICY_ROUND_ROBIN)
from repro.policy import default_registry
from repro.workloads.generator import TraceEvent

#: The policies this figure compares (registry-validated at import).
SCHEDULING_POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED, POLICY_HASH)


@dataclass(frozen=True)
class PolicyResult:
    """One policy's outcome on the replayed stream."""

    policy: str
    warm_hit_rate: float
    latency: LatencyStats
    load_spread: int     # max-min total assignments across hosts

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.policy:<14} warm-hit={self.warm_hit_rate:6.1%} "
                f"p50={self.latency.p50_ms:8.1f}ms "
                f"p99={self.latency.p99_ms:8.1f}ms "
                f"spread={self.load_spread}")


def run_scheduling_comparison(
        params: Optional[CalibratedParameters] = None,
        n_functions: int = 9,
        rounds: int = 12,
        nodes: int = 4,
        capacity_per_node: int = 16,
        policies=SCHEDULING_POLICIES) -> Dict[str, PolicyResult]:
    """Round-robin vs least-loaded vs hash on an interleaved stream.

    Each round invokes every function once (think: steady per-minute
    traffic for popular functions).  The function count is deliberately
    not a multiple of the host count, so round-robin cannot accidentally
    re-align each function with its previous host.
    """
    registry = default_registry()
    for policy in policies:
        registry.entry("placement", policy)   # fail fast on unknown names
    specs = replay_specs(f"fn-{index:02d}" for index in range(n_functions))
    # Every event is due at once, so each fires when the previous returns.
    trace = [TraceEvent(0.0, spec.name)
             for _round in range(rounds) for spec in specs]

    results: Dict[str, PolicyResult] = {}
    for policy in policies:
        platform = fresh_cluster_platform(
            OpenWhiskPlatform, params, n_hosts=nodes, policy=policy,
            capacity_per_host=capacity_per_node)
        install_all(platform, specs)
        latencies = closed_loop_replay(platform, trace).latencies
        total = platform.warm_starts + platform.cold_starts
        results[policy] = PolicyResult(
            policy=policy,
            warm_hit_rate=platform.warm_starts / max(1, total),
            latency=LatencyStats.from_samples(latencies),
            load_spread=int(platform.cluster.load_spread()))
    return results
