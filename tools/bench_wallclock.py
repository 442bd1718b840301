#!/usr/bin/env python3
"""Wall-clock benchmarks: the experiment engine and the DES kernel.

Default mode times the full ``figure all`` suite three ways — serial
compute, parallel compute (``--jobs N``), and a fully cache-hit rerun —
plus the Fig 10 consolidation driver on its own (the hot path the
incremental PSS accounting optimizes).  Results land in
``BENCH_harness.json``.

``--des`` runs the DES-kernel suite instead: timer/process churn and
cascade microbenchmarks (events/sec), a heavy open-loop load replay
(events/sec, invocations/sec, peak RSS), and a result-codec comparison
(binary vs JSON).  Results land in ``BENCH_des.json`` next to the
recorded pre-rewrite baseline, so the before/after ratio is always in
the artifact.

``--des-smoke`` is the CI guard: one quick churn bench plus a seeded
load shard, asserting a *conservative* events/sec floor (exit 1 below
it).  The floor is far under the measured rate on purpose — CI machines
are slow and noisy; the floor catches order-of-magnitude regressions
(an accidental O(n) scan in the scheduler), not percent-level drift.

Each configuration runs in a *fresh subprocess* so import caching and
allocator warm-up in this process can't flatter any configuration;
microbenchmarks additionally take the best of several in-process
repetitions because CPU frequency scaling makes single runs drift.

Usage::

    PYTHONPATH=src python tools/bench_wallclock.py [--jobs N] [--out FILE]
    PYTHONPATH=src python tools/bench_wallclock.py --des [--out FILE]
    PYTHONPATH=src python tools/bench_wallclock.py --des-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _engine_child(cache_dir: str, jobs: int) -> str:
    return (
        "import time\n"
        "from repro.bench.engine import run_experiments\n"
        "t0 = time.perf_counter()\n"
        f"outcome = run_experiments(['all'], jobs={jobs}, "
        f"cache_dir={cache_dir!r})\n"
        "import json, sys\n"
        "json.dump({'elapsed_s': time.perf_counter() - t0,\n"
        "           'shards': outcome.stats.shards_total,\n"
        "           'cache_hits': outcome.stats.cache_hits},\n"
        "          sys.stdout)\n"
    )


def _run_child(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def bench_engine(jobs: int) -> dict:
    """Serial vs parallel vs cache-hit timings of ``figure all``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        serial_dir = str(Path(tmp) / "serial")
        parallel_dir = str(Path(tmp) / "parallel")

        serial = _run_child(_engine_child(serial_dir, jobs=1))
        parallel = _run_child(_engine_child(parallel_dir, jobs=jobs))
        # Rerun against the serial run's populated cache: every shard hits.
        cached = _run_child(_engine_child(serial_dir, jobs=jobs))
        assert cached["cache_hits"] == cached["shards"], cached

    return {
        "shards": serial["shards"],
        "serial_s": round(serial["elapsed_s"], 3),
        "parallel_s": round(parallel["elapsed_s"], 3),
        "cached_s": round(cached["elapsed_s"], 3),
        "parallel_jobs": jobs,
        "parallel_speedup_x":
            round(serial["elapsed_s"] / parallel["elapsed_s"], 2),
        "cached_speedup_x":
            round(serial["elapsed_s"] / cached["elapsed_s"], 2),
    }


def bench_fig10(max_vms: int = 800) -> dict:
    """Time the Fig 10 consolidation loop (incremental-PSS hot path)."""
    code = (
        "import time\n"
        "from repro.bench.memory import run_fig10\n"
        f"t0 = time.perf_counter()\n"
        f"series = run_fig10(max_vms={max_vms})\n"
        "elapsed = time.perf_counter() - t0\n"
        "import json, sys\n"
        "json.dump({'elapsed_s': elapsed,\n"
        "           'max_vms_before_swap': {p: s.max_vms_before_swap\n"
        "                                   for p, s in series.items()}},\n"
        "          sys.stdout)\n"
    )
    result = _run_child(code)
    return {
        "max_vms": max_vms,
        "elapsed_s": round(result["elapsed_s"], 3),
        "max_vms_before_swap": result["max_vms_before_swap"],
    }


# ---------------------------------------------------------------------------
# DES kernel suite (--des / --des-smoke)
# ---------------------------------------------------------------------------

#: Pre-rewrite kernel numbers: the kernel at the commit before the rewrite
#: that added pooled payloads and the ``schedule_timeout`` fast path
#: (single heap, one ``Timeout`` Event per timer), timed with this
#: harness's shapes on a 2-vCPU x86 VM with Python 3.11.7, medians of
#: three rounds interleaved with runs of the current kernel.  The current
#: kernel is a single heap too, so the ratios show what pooling buys;
#: single runs on that VM spread by up to +-30 %, so read them as a
#: range, not a figure.
DES_BASELINE = {
    "note": ("single-heap kernel + per-event Timeout construction, "
             "before the pooled-payload rewrite; 2-vCPU x86 VM, Python "
             "3.11.7, medians of 3 interleaved rounds"),
    "generic_churn_small_ev_per_s": 312_888.0,
    "generic_churn_10k_ev_per_s": 195_415.0,
    "generic_churn_500k_ev_per_s": 262_587.0,
    "process_churn_ev_per_s": 257_981.0,
    "zero_delay_cascade_ev_per_s": 235_384.0,
    "mixed_cascade_ev_per_s": 207_259.0,
    "replay_events_per_s": 34_868.0,
    "replay_invocations_per_s": 2_393.0,
    "replay_peak_rss_mib": 73.94,
}

#: Conservative CI floors (events/sec) for --des-smoke: far below the
#: measured rates so slow, noisy CI runners pass, but an accidental
#: O(n)-scan regression in the scheduler still fails loudly.
SMOKE_CHURN_FLOOR_EV_S = 60_000.0
SMOKE_REPLAY_FLOOR_EV_S = 8_000.0


def _des_generic_churn(n_events: int, n_pending: int,
                       delay: float = 1.0) -> dict:
    """Self-rescheduling timers through the generic timeout+callback API.

    *n_pending* timers stay live the whole run (queue depth stays at
    about that), each firing and re-arming until *n_events* fire.
    """
    import time

    from repro.sim import Simulation
    sim = Simulation()
    fired = [0]

    def make_cb():
        def cb(event):
            fired[0] += 1
            if fired[0] + n_pending <= n_events:
                t = sim.timeout(delay)
                t.callbacks.append(cb)
        return cb

    for _ in range(n_pending):
        t = sim.timeout(delay)
        t.callbacks.append(make_cb())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": fired[0], "elapsed_s": elapsed,
            "events_per_s": fired[0] / elapsed}


def _des_fastpath_churn(n_events: int, n_pending: int,
                        delay: float = 1.0) -> dict:
    """Same churn shape through the pooled ``schedule_timeout`` fast path."""
    import time

    from repro.sim import Simulation
    sim = Simulation()
    fired = [0]

    def cb(_value):
        fired[0] += 1
        if fired[0] + n_pending <= n_events:
            sim.schedule_timeout(delay, cb)

    for _ in range(n_pending):
        sim.schedule_timeout(delay, cb)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": fired[0], "elapsed_s": elapsed,
            "events_per_s": fired[0] / elapsed}


def _des_cascade(n_events: int, delays: tuple) -> dict:
    """Chained timeouts cycling through *delays* (generic API)."""
    import time

    from repro.sim import Simulation
    sim = Simulation()
    chains = 512
    fired = [0]

    def cb(event):
        k = fired[0] = fired[0] + 1
        if k + chains <= n_events:
            t = sim.timeout(delays[k % len(delays)])
            t.callbacks.append(cb)

    for i in range(chains):
        t = sim.timeout(delays[i % len(delays)])
        t.callbacks.append(cb)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": fired[0], "elapsed_s": elapsed,
            "events_per_s": fired[0] / elapsed}


def _des_process_churn(n_procs: int, wakes: int) -> dict:
    """Generator processes sleeping in loops — the platform idiom."""
    import time

    from repro.sim import Simulation
    sim = Simulation()

    def proc():
        for _ in range(wakes):
            yield sim.timeout(1.0)

    for _ in range(n_procs):
        sim.process(proc())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    events = n_procs * (wakes + 1)
    return {"events": events, "elapsed_s": elapsed,
            "events_per_s": events / elapsed}


def _des_replay(duration_ms: float = 60_000.0,
                popular_interarrival_ms: float = 20.0,
                n_hosts: int = 4, n_functions: int = 12) -> dict:
    """Heavy open-loop load replay: the end-to-end number.

    Counts events as scheduled entries (``sim._sequence``) to match how
    the pre-rewrite baseline was measured.
    """
    import resource
    import time

    from repro.bench.load import run_load_platform
    t0 = time.perf_counter()
    outcome, platform = run_load_platform(
        "fireworks", "predictive", n_hosts=n_hosts,
        n_functions=n_functions, duration_ms=duration_ms, seed=7,
        popular_interarrival_ms=popular_interarrival_ms,
        return_platform=True)
    elapsed = time.perf_counter() - t0
    events = platform.sim._sequence
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"requests": outcome.requests,
            "completed": outcome.completed,
            "shed": outcome.shed,
            "events": events,
            "events_processed": platform.sim.events_processed,
            "elapsed_s": elapsed,
            "events_per_s": events / elapsed,
            "invocations_per_s": outcome.completed / elapsed,
            "p99_ms": outcome.latency.p99_ms,
            "peak_rss_mib": round(peak_rss_mib, 2)}


def _des_codec() -> dict:
    """Binary vs JSON result codec on a replay-shaped payload."""
    import json as json_module
    import time

    from repro.bench.load import run_load_platform
    from repro.bench.serialization import (decode_result, dumps_result,
                                           encode_result, loads_result)
    outcome = run_load_platform("fireworks", "predictive", n_hosts=2,
                                n_functions=6, duration_ms=8_000.0, seed=7)
    # A merged load experiment is a dict of outcomes; pad it out so the
    # codec has representative bulk (float-heavy nested dataclasses).
    payload = {f"row-{i}": outcome for i in range(200)}

    t0 = time.perf_counter()
    blob = dumps_result(payload)
    binary_enc_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    loads_result(blob)
    binary_dec_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    text = json_module.dumps(encode_result(payload),
                             separators=(",", ":"))
    json_enc_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    decode_result(json_module.loads(text))
    json_dec_s = time.perf_counter() - t0

    return {"binary_bytes": len(blob),
            "json_bytes": len(text.encode("utf-8")),
            "size_ratio": round(len(text.encode("utf-8")) / len(blob), 3),
            "binary_encode_s": round(binary_enc_s, 6),
            "binary_decode_s": round(binary_dec_s, 6),
            "json_encode_s": round(json_enc_s, 6),
            "json_decode_s": round(json_dec_s, 6)}


#: name -> (callable, kwargs, repetitions).  Microbenches repeat and keep
#: the best rate (frequency scaling makes single runs drift 2x); the
#: replay and codec benches are long enough to run once.
DES_BENCHES = {
    "generic_churn_small": (_des_generic_churn,
                            {"n_events": 200_000, "n_pending": 1}, 3),
    "generic_churn_10k": (_des_generic_churn,
                          {"n_events": 200_000, "n_pending": 10_000}, 3),
    "generic_churn_500k": (_des_generic_churn,
                           {"n_events": 1_000_000, "n_pending": 500_000}, 2),
    "fastpath_churn": (_des_fastpath_churn,
                       {"n_events": 200_000, "n_pending": 1}, 3),
    "zero_delay_cascade": (_des_cascade,
                           {"n_events": 200_000, "delays": (0.0,)}, 3),
    "mixed_cascade": (_des_cascade,
                      {"n_events": 200_000, "delays": (0.0, 1.0)}, 3),
    "process_churn": (_des_process_churn,
                      {"n_procs": 2_000, "wakes": 100}, 3),
    "replay": (_des_replay, {}, 1),
    "codec": (_des_codec, {}, 1),
}


def _des_child(name: str) -> int:
    """Hidden child mode: run one DES bench, print its best-of-reps JSON."""
    fn, kwargs, reps = DES_BENCHES[name]
    best = None
    for _ in range(reps):
        result = fn(**kwargs)
        if best is None or result.get("events_per_s",
                                      0) > best.get("events_per_s", 0):
            best = result
    json.dump(best, sys.stdout)
    return 0


def _run_des_bench(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--child-des", name],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_des_suite(out_path: str) -> int:
    """The full DES suite -> BENCH_des.json with before/after ratios."""
    after = {}
    for name in DES_BENCHES:
        print(f"des: {name} ...", flush=True)
        after[name] = _run_des_bench(name)
        if "events_per_s" in after[name]:
            print(f"  {after[name]['events_per_s']:12,.0f} ev/s")
        else:
            print(f"  binary {after[name]['binary_bytes']:,}B vs "
                  f"json {after[name]['json_bytes']:,}B "
                  f"({after[name]['size_ratio']}x)")

    speedups = {}
    for bench, baseline_key in (
            ("generic_churn_small", "generic_churn_small_ev_per_s"),
            ("generic_churn_10k", "generic_churn_10k_ev_per_s"),
            ("generic_churn_500k", "generic_churn_500k_ev_per_s"),
            ("zero_delay_cascade", "zero_delay_cascade_ev_per_s"),
            ("mixed_cascade", "mixed_cascade_ev_per_s"),
            ("process_churn", "process_churn_ev_per_s")):
        speedups[bench] = round(
            after[bench]["events_per_s"] / DES_BASELINE[baseline_key], 2)
    speedups["replay_events"] = round(
        after["replay"]["events_per_s"] / DES_BASELINE["replay_events_per_s"],
        2)
    speedups["replay_invocations"] = round(
        after["replay"]["invocations_per_s"]
        / DES_BASELINE["replay_invocations_per_s"], 2)

    payload = {
        "benchmark": "repro.sim DES kernel wall-clock",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "note": ("microbench rates are best-of-N fresh-subprocess runs; "
                 "single runs drift ~2x with CPU frequency scaling"),
        "before": DES_BASELINE,
        "after": after,
        "speedup_x": speedups,
    }
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    for bench, ratio in speedups.items():
        print(f"  {bench:<22} {ratio:5.2f}x")
    return 0


def run_des_smoke() -> int:
    """CI guard: quick churn + seeded load shard vs conservative floors."""
    churn = _des_generic_churn(n_events=100_000, n_pending=1)
    print(f"smoke churn: {churn['events_per_s']:,.0f} ev/s "
          f"(floor {SMOKE_CHURN_FLOOR_EV_S:,.0f})")
    replay = _des_replay(duration_ms=8_000.0, popular_interarrival_ms=50.0,
                         n_hosts=2, n_functions=6)
    print(f"smoke replay: {replay['events_per_s']:,.0f} ev/s, "
          f"{replay['invocations_per_s']:,.0f} inv/s "
          f"(floor {SMOKE_REPLAY_FLOOR_EV_S:,.0f})")
    ok = True
    if churn["events_per_s"] < SMOKE_CHURN_FLOOR_EV_S:
        print("FAIL: churn throughput below floor", file=sys.stderr)
        ok = False
    if replay["events_per_s"] < SMOKE_REPLAY_FLOOR_EV_S:
        print("FAIL: replay throughput below floor", file=sys.stderr)
        ok = False
    if replay["completed"] == 0:
        print("FAIL: replay completed no invocations", file=sys.stderr)
        ok = False
    print("perf smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel run (default 4)")
    parser.add_argument("--out", default=None,
                        help="output JSON (default BENCH_harness.json, or "
                             "BENCH_des.json with --des)")
    parser.add_argument("--des", action="store_true",
                        help="run the DES kernel suite instead")
    parser.add_argument("--des-smoke", action="store_true",
                        help="quick CI floor check (exit 1 on regression)")
    parser.add_argument("--child-des", default=None, metavar="BENCH",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_des:
        return _des_child(args.child_des)
    if args.des_smoke:
        return run_des_smoke()
    if args.des:
        return run_des_suite(args.out or str(REPO_ROOT / "BENCH_des.json"))
    args.out = args.out or str(REPO_ROOT / "BENCH_harness.json")

    print(f"engine: figure all, jobs=1 vs jobs={args.jobs} vs cache-hit "
          f"(cpu_count={os.cpu_count()}) ...", flush=True)
    engine = bench_engine(args.jobs)
    print(f"  serial   {engine['serial_s']:7.2f}s  ({engine['shards']} "
          "shards)")
    print(f"  parallel {engine['parallel_s']:7.2f}s  "
          f"({engine['parallel_speedup_x']}x)")
    print(f"  cached   {engine['cached_s']:7.2f}s  "
          f"({engine['cached_speedup_x']}x)")

    print("fig10: run_fig10(max_vms=800) ...", flush=True)
    fig10 = bench_fig10()
    print(f"  {fig10['elapsed_s']:.2f}s, swap points "
          f"{fig10['max_vms_before_swap']}")

    payload = {
        "benchmark": "repro.bench.engine wall-clock",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "note": ("parallel speedup scales with available cores; on a "
                 "single-core host the parallel run only measures pool "
                 "overhead"),
        "engine": engine,
        "fig10": fig10,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
