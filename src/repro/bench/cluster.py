"""Cluster scheduling experiment (extension): placement across real hosts.

Replays the same Azure-like trace (Shahrad et al. [48] popularity split)
against a multi-host cluster under every placement policy, twice:

* **OpenWhisk replay** — warm containers are host-local, so the policy
  decides the *warm-hit rate*: hash keeps revisiting each function's home
  host inside the keep-alive window; round-robin cycles through all hosts
  and arrives after the container expired.
* **Fireworks replay** — snapshot images are host-local (installation
  seeds the home host), so the policy decides the *restore-locality rate*:
  the fraction of restores that found the image already resident instead
  of paying the modeled cross-host transfer.  ``snapshot-locality``
  placement exists to drive this toward 1.

The keep-alive window is deliberately set between the hash policy's
revisit period (one host, ~30 s for a popular function) and round-robin's
(n_hosts x 30 s), so the policies genuinely separate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import (closed_loop_replay, fresh_cluster_platform,
                                 install_all, poisson_replay_trace,
                                 replay_specs)
from repro.bench.stats import LatencyStats
from repro.config import CalibratedParameters, default_parameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.policy import default_registry

#: Keep-alive window for the OpenWhisk replay: longer than a popular
#: function's ~30 s inter-arrival (hash stays warm), shorter than the
#: 4-host round-robin revisit period (~120 s goes cold).
KEEPALIVE_MS = 90_000.0
POPULAR_INTERARRIVAL_MS = 30_000.0
RARE_INTERARRIVAL_MS = 600_000.0


@dataclasses.dataclass(frozen=True)
class ClusterPolicyOutcome:
    """One placement policy's outcome on the replayed cluster trace."""

    policy: str
    n_hosts: int
    requests: int
    warm_hit_rate: float           # OpenWhisk replay
    restore_locality_rate: float   # Fireworks replay
    cross_host_transfers: int      # Fireworks replay
    latency: LatencyStats          # Fireworks end-to-end latency
    load_spread: int               # max-min placements across hosts (FW)

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.policy:<17} warm-hit={self.warm_hit_rate:6.1%} "
                f"restore-local={self.restore_locality_rate:6.1%} "
                f"transfers={self.cross_host_transfers:4d} "
                f"p50={self.latency.p50_ms:7.1f}ms "
                f"spread={self.load_spread}")


def cluster_replay_setup(params: Optional[CalibratedParameters],
                         n_functions: int, duration_ms: float, seed: int
                         ) -> Tuple[CalibratedParameters, List[str], list]:
    """The keep-alive-tuned parameters, the function names and the
    popular/rare Poisson trace every cluster replay runs."""
    resolved = params or default_parameters()
    tuned = dataclasses.replace(
        resolved, control_plane=dataclasses.replace(
            resolved.control_plane, warm_keepalive_ms=KEEPALIVE_MS))
    function_names, trace = poisson_replay_trace(
        n_functions, duration_ms, seed,
        popular_interarrival_ms=POPULAR_INTERARRIVAL_MS,
        rare_interarrival_ms=RARE_INTERARRIVAL_MS)
    return tuned, function_names, trace


def run_cluster_scheduling(
        params: Optional[CalibratedParameters] = None,
        n_hosts: int = 4,
        n_functions: int = 12,
        duration_ms: float = 600_000.0,
        seed: int = 11,
        policies=None) -> Dict[str, ClusterPolicyOutcome]:
    """Warm-hit and restore-locality rates per placement policy.

    The same deterministic trace is replayed for every policy
    (default: every registered built-in placement policy), so the
    outcomes differ only by placement.
    """
    registry = default_registry()
    if policies is None:
        policies = registry.names("placement")
    else:
        for policy in policies:
            registry.entry("placement", policy)   # fail fast on unknowns
    tuned, function_names, trace = cluster_replay_setup(
        params, n_functions, duration_ms, seed)
    specs = replay_specs(function_names)

    outcomes: Dict[str, ClusterPolicyOutcome] = {}
    for policy in policies:
        # OpenWhisk replay: host-local warm containers.
        ow = fresh_cluster_platform(OpenWhiskPlatform, tuned,
                                    n_hosts=n_hosts, policy=policy)
        install_all(ow, specs)
        closed_loop_replay(ow, trace)
        warm_rate = ow.warm_starts / max(1, ow.warm_starts + ow.cold_starts)

        # Fireworks replay: host-local snapshot images.
        fw = fresh_cluster_platform(FireworksPlatform, tuned,
                                    n_hosts=n_hosts, policy=policy)
        install_all(fw, specs)
        fw_latencies = closed_loop_replay(fw, trace).latencies
        fw.sim.run()  # drain clone teardowns
        restores = fw.local_restores + fw.cross_host_transfers
        outcomes[policy] = ClusterPolicyOutcome(
            policy=policy,
            n_hosts=n_hosts,
            requests=len(trace),
            warm_hit_rate=warm_rate,
            restore_locality_rate=fw.local_restores / max(1, restores),
            cross_host_transfers=fw.cross_host_transfers,
            latency=LatencyStats.from_samples(fw_latencies),
            load_spread=int(fw.cluster.load_spread()))
    return outcomes
