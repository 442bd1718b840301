"""One measured process of the benchmark.

``run.py`` starts this script once per sample, each time in a fresh
interpreter with ``src`` on ``PYTHONPATH``.  It sets the workload up, runs
the timed phase once, reads the result back from a fresh result cache
(the warm passes), checks the simulated output, and prints one JSON line.

    python3 perfbench/child.py --workload replay-fireworks --seed 7 \\
        --spawned-at <time.monotonic() of the parent> --cache-dir DIR \\
        --warm-passes 1000 [--traced]

With ``--traced`` every layer package is wrapped by ``layers.py`` and the
line also carries per-layer self times and counters.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from reference import Probe, kernel_times
from repro.bench import serialization

# Captured before ``layers.install`` rebinds the module's functions, so
# the benchmark's own checks never count as codec time.
ENCODE = serialization.encode_result
DUMPS = serialization.dumps_result

#: Host seconds between the probe's reference-kernel calls, and the calls
#: made back to back at the end of set-up (see reference.py).
PROBE_EVERY_S = 0.02
SETUP_REF_CALLS = 15
#: The open-loop replays: one ``run_load_platform`` call each.  Same trace
#: and cluster; only the backend, the scaling mode and the crash differ.
REPLAY_ARGS = dict(n_hosts=4, n_functions=12, duration_ms=240_000.0,
                   popular_interarrival_ms=20.0)
REPLAYS = {
    "replay-fireworks": dict(platform_name="fireworks", mode="predictive"),
    "replay-openwhisk-crash": dict(platform_name="openwhisk",
                                   mode="reactive"),
}
#: Experiments the figure suite leaves out: ``load`` (about 317 s) and
#: ``search`` are too long to repeat; the replays are scaled-down ``load``
#: shards.
FIGURES_EXCLUDED = ("load", "search")


def canonical_digest(result) -> str:
    """sha256 of the loss-free canonical JSON of *result* — the encoding
    ``tests/test_golden_numbers.py`` pins figures with."""
    blob = json.dumps(ENCODE(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def count_invokes() -> list:
    """Count platform invocations without timing them: the counter only
    sees the call that creates the invoke generator, never a resumption."""
    from repro.platforms.base import ServerlessPlatform
    original = ServerlessPlatform.invoke
    counter = [0]

    def invoke(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)
    ServerlessPlatform.invoke = invoke
    return counter


def warm_passes(read, serialize, passes: int, expected: bytes) -> dict:
    """Time *passes* calls of *read*; ``serialize`` of each result, done
    outside the timing, must equal *expected*.

    The timed phase's garbage is collected first, so the passes time the
    cache read rather than a collection of what the phase left behind.
    A probe times the reference kernel meanwhile (``warm_ref``); the
    calls that ran from the start of pass ``i`` to its end are
    ``warm_ref[warm_ref_span[i][0]:warm_ref_span[i][1]]``, and their time
    is taken out of the pass.
    """
    gc.collect()
    times_ms, spans = [], []
    identical = True
    with Probe(PROBE_EVERY_S) as probe:
        for _ in range(passes):
            first, spent = len(probe.times), probe.spent_s
            start = time.perf_counter()
            result = read()
            elapsed = time.perf_counter() - start
            times_ms.append((elapsed - (probe.spent_s - spent)) * 1e3)
            spans.append((first, len(probe.times)))
            identical = identical and serialize(result) == expected
    return {"warm_ms": times_ms, "warm_identical": identical,
            "warm_ref": probe.times, "warm_ref_span": spans}


def timed_phase(call, clock, out: dict):
    """Run *call* as the timed phase and return its result.

    The reference kernel runs right before the phase (``setup_ref``, the
    host's speed at the end of set-up) and, from a probe, every
    ``PROBE_EVERY_S`` during it (``phase_ref``).  ``out["wall_s"]`` is the
    phase without the probe's calls.  A traced phase is not probed: the
    calls would count as ``other.self_s``.
    """
    out["setup_ref"] = kernel_times(SETUP_REF_CALLS)
    probe = Probe(PROBE_EVERY_S)
    if clock is None:
        with probe:
            start = time.perf_counter()
            result = call()
            out["wall_s"] = time.perf_counter() - start - probe.spent_s
    else:
        clock.begin_region()
        start = time.perf_counter()
        result = call()
        out["wall_s"] = time.perf_counter() - start
        clock.end_region()
        out["retained_roots"] = clock.retained_roots()
    out["phase_ref"] = probe.times
    return result


def run_replay(args, clock) -> dict:
    from repro.bench import engine, load
    from repro.chaos.plan import ChaosPlan
    from repro.config import default_parameters, params_fingerprint

    out: dict = {}
    replay = load.open_loop_replay

    def timed_replay(*call_args, **call_kwargs):
        out["first_op"] = time.monotonic()
        samples = timed_phase(
            lambda: replay(*call_args, **call_kwargs), clock, out)
        return samples
    load.open_loop_replay = timed_replay

    build_trace = load.build_load_trace

    def timed_build_trace(*call_args, **call_kwargs):
        start = time.perf_counter()
        try:
            return build_trace(*call_args, **call_kwargs)
        finally:
            out["trace_gen_s"] = time.perf_counter() - start
    load.build_load_trace = timed_build_trace

    invokes = count_invokes()
    plan = None
    if args.workload == "replay-openwhisk-crash":
        # Host 1 crashes mid-trace and rejoins, empty, 30 s later.
        plan = ChaosPlan.single_crash(120_000.0, 1, recover_at_ms=150_000.0)
    outcome = load.run_load_platform(**REPLAYS[args.workload], **REPLAY_ARGS,
                                     seed=args.seed, chaos_plan=plan)
    out.update(
        digest=canonical_digest(outcome), invokes=invokes[0],
        requests=outcome.requests, completed=outcome.completed,
        shed=outcome.shed, failed=outcome.failed,
        identity_ok=(outcome.requests == invokes[0] ==
                     outcome.completed + outcome.shed + outcome.failed),
        sim_p99_ms=outcome.latency.p99_ms, sim_goodput=outcome.goodput)

    # Warm passes: the outcome read back through the engine's result
    # cache, as ``repro figure load`` serves a cached shard.
    cache = engine.ResultCache(args.cache_dir)
    shard = engine.Shard(experiment="perfbench", key=args.workload,
                         fn="load", kwargs=(("seed", args.seed),))
    fingerprint = params_fingerprint(default_parameters())
    cache.store(shard, fingerprint, args.seed, ENCODE(outcome),
                out["wall_s"])
    out["stored_bytes"] = stored_bytes(args.cache_dir)
    out.update(warm_passes(
        lambda: serialization.decode_result(
            cache.load(shard, fingerprint, args.seed)),
        DUMPS, args.warm_passes, DUMPS(outcome)))
    return out


def run_figures(args, clock) -> dict:
    from repro.bench.engine import (experiment_ids, experiment_registry,
                                    run_experiments)

    registry = experiment_registry()
    ids = [i for i in experiment_ids() if i not in FIGURES_EXCLUDED]
    n_shards = sum(len(registry[i].shards) for i in ids)
    invokes = count_invokes()

    out: dict = {"first_op": time.monotonic()}
    cold = timed_phase(
        lambda: run_experiments(ids, seed=args.seed, jobs=1,
                                cache_dir=args.cache_dir), clock, out)

    def serialize(warm) -> bytes:
        if warm.stats.cache_hits != n_shards:
            return b""
        return DUMPS(warm.results)
    out.update(warm_passes(
        lambda: run_experiments(ids, seed=args.seed, jobs=1,
                                cache_dir=args.cache_dir),
        serialize, args.warm_passes, DUMPS(cold.results)))
    out.update(
        digest=canonical_digest(cold.results), invokes=invokes[0],
        shards=n_shards, identity_ok=cold.stats.executed == n_shards,
        stored_bytes=stored_bytes(args.cache_dir))
    return out


def stored_bytes(cache_dir: str) -> int:
    """Bytes of result-cache entries written under *cache_dir*."""
    return sum(path.stat().st_size for path in Path(cache_dir).rglob("*.bin"))


def layer_report(clock, out: dict) -> dict:
    """The traced run's per-layer numbers (see README.md for each)."""
    from layers import LAYERS, OTHER
    region = clock.region
    counts, calls, self_s = region["counts"], region["calls"], region["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    report = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    report.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    report.update({
        "other.self_s": self_s[OTHER],
        "sim.events": counts["sim.events"],
        "sim.ns_per_event": ratio(self_s["sim"] * 1e9, counts["sim.events"]),
        "trace.spans": counts["trace.spans"],
        "trace.retained_roots": out["retained_roots"],
        "snapshot.restores": counts["snapshot.restores"],
        "snapshot.prefetched_mb": counts["snapshot.prefetched_mb"],
        "snapshot.demand_faults": counts["snapshot.demand_faults"],
        "core.clones": counts["core.clones"],
        "platforms.invokes": counts["platforms.invokes"],
        "platforms.retries": counts["platforms.retries"],
        "platforms.warm_ratio": ratio(counts["platforms.warm"],
                                      counts["platforms.completed"]),
        "autoscale.admitted": counts["autoscale.admitted"],
        "autoscale.shed": counts["autoscale.shed"],
        "autoscale.provisioned": counts["autoscale.provisioned"],
        "autoscale.provision_used_ratio": ratio(
            counts["autoscale.warm_takes"], counts["autoscale.provisioned"]),
        "cluster.placements": counts["cluster.placements"],
        "cluster.local_ratio": ratio(counts["cluster.home_placements"],
                                     counts["cluster.placements"]),
        "chaos.failovers": counts["chaos.failovers"],
        "workloads.trace_gen_s": out.get("trace_gen_s", 0.0),
    })
    # Engine and codec: the whole child (cold pass and warm passes).
    report.update({
        "engine.compute_s": clock.inclusive_s["engine.compute_s"],
        "engine.store_s": clock.inclusive_s["engine.store_s"],
        "engine.load_s": clock.inclusive_s["engine.load_s"],
        "engine.hits": clock.counts["engine.hits"],
        "engine.misses": clock.counts["engine.misses"],
        "engine.stored_bytes": out.get("stored_bytes", 0),
        "codec.encode_s": clock.inclusive_s["codec.encode_s"],
        "codec.decode_s": clock.inclusive_s["codec.decode_s"],
    })
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(REPLAYS) + ("figures",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--warm-passes", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    clock = None
    if args.traced:
        import layers
        clock = layers.install()
    if args.workload == "figures":
        out = run_figures(args, clock)
    else:
        out = run_replay(args, clock)
    out["setup_s"] = out.pop("first_op") - args.spawned_at
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if clock is not None:
        out["layers"] = layer_report(clock, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
