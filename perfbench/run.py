#!/usr/bin/env python3
"""The repository benchmark: host time and memory of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-fireworks --seed 7 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, a table

Each sample is a fresh interpreter (``child.py``) with its own empty
result-cache directory under ``.perfbench-tmp/``; samples run one after
another (``jobs=1``), so at most one core is busy.  ``--trace 0`` takes
samples while another one fits in ``--seconds`` (at least ``MIN_SAMPLES``) and
reports the end-to-end metrics as medians, with host times taken to the
speed of a reference host (``reference.py``): the host is shared, and other
work on it changes its speed while a run measures.  ``--trace 1`` runs one
untraced and one traced sample and reports the per-layer metrics.

Every sample is checked: its simulated output must hash to the digest
recorded in ``digests.json`` for that seed (when one is recorded), every
sample of a run must hash alike (the traced one too), the accounting
identity must hold, and every warm pass must read back exactly what the
timed phase produced.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYERS, OTHER

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
TMP_DIR = ".perfbench-tmp"

#: Workload -> seed used when none is given, and warm passes per sample.
WORKLOADS = {
    "replay-fireworks": {"seed": 7, "warm_passes": 3000},
    "replay-openwhisk-crash": {"seed": 7, "warm_passes": 3000},
    "figures": {"seed": 2022, "warm_passes": 300},
}
#: Warm passes in the samples of a ``--trace 1`` run.
TRACED_WARM_PASSES = 10
MIN_SAMPLES = 2
#: No sample starts that would likely end past this many seconds, whatever
#: ``--seconds`` asks for (a run must end within 180 s).
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
#: Host times are reported as they would read on a host where one
#: ``reference.kernel`` call takes this long.
REFERENCE_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "inv_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "warm_pass_ms_p50": "ms",
    "warm_pass_ms_p90": "ms",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + (OTHER,)},
    "trace_overhead": "ratio",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "trace.spans": "count",
    "trace.retained_roots": "count",
    "mem.calls": "count",
    "snapshot.restores": "count",
    "snapshot.prefetched_mb": "MiB",
    "snapshot.demand_faults": "count",
    "core.clones": "count",
    "platforms.invokes": "count",
    "platforms.retries": "count",
    "platforms.warm_ratio": "ratio",
    "sandbox.calls": "count",
    "runtime.calls": "count",
    "net.calls": "count",
    "autoscale.admitted": "count",
    "autoscale.shed": "count",
    "autoscale.provisioned": "count",
    "autoscale.provision_used_ratio": "ratio",
    "cluster.placements": "count",
    "cluster.local_ratio": "ratio",
    "chaos.failovers": "count",
    "workloads.trace_gen_s": "s",
    "engine.compute_s": "s",
    "engine.hits": "count",
    "engine.misses": "count",
    "engine.store_s": "s",
    "engine.load_s": "s",
    "engine.stored_bytes": "B",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "sim_p99_ms": "ms",
    "sim_goodput": "ratio",
}


class SampleError(Exception):
    """A sample raised, timed out, or failed its correctness check."""


def run_sample(workload: str, seed: int, warm_passes: int, traced: bool,
               root: Path) -> dict:
    """One fresh child process; its parsed JSON line."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=root / TMP_DIR)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--cache-dir", cache_dir,
           "--warm-passes", str(warm_passes)]
    if traced:
        cmd.append("--traced")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"timed out after {exc.timeout:.0f}s") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SampleError(f"exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise SampleError(f"no result line: {proc.stdout[-500:]!r}") from exc
    if not sample["identity_ok"]:
        raise SampleError(f"accounting identity broken: {sample}")
    if not sample["warm_identical"]:
        raise SampleError("a warm pass read back different results")
    return sample


def recorded_digest(workload: str, seed: int):
    """The digest recorded for (*workload*, *seed*), or None."""
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def percentile(values, q: float) -> float:
    """*q*-th percentile by linear interpolation (q in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def at_reference_speed(seconds: float, kernel_times) -> float:
    """*seconds* as they would read on a host where one reference-kernel
    call takes ``REFERENCE_S``.  *kernel_times* were taken at even steps
    of host time alongside; their harmonic mean is the time one call
    takes at the host's average speed over those steps."""
    return seconds * REFERENCE_S / statistics.harmonic_mean(kernel_times)


def warm_at_reference_speed(sample) -> list:
    """The sample's warm passes, each taken to reference speed with the
    kernel calls made during it and the ones just before and after."""
    refs = sample["warm_ref"]
    return [at_reference_speed(ms, refs[max(first - 1, 0):last + 1])
            for ms, (first, last) in zip(sample["warm_ms"],
                                         sample["warm_ref_span"])]


def end_to_end(samples) -> dict:
    """Medians over the samples; warm passes pooled across them.  Host
    times are taken to reference speed (see reference.py)."""
    warm = [ms for sample in samples for ms in warm_at_reference_speed(sample)]
    wall_s = statistics.median(at_reference_speed(s["wall_s"], s["phase_ref"])
                               for s in samples)
    values = {
        "setup_s": statistics.median(
            at_reference_speed(s["setup_s"], s["setup_ref"])
            for s in samples),
        "wall_s": wall_s,
        "inv_per_s": samples[0]["invokes"] / wall_s,
        "peak_rss_mib": statistics.median(s["peak_rss_mib"]
                                          for s in samples),
        "warm_pass_ms_p50": percentile(warm, 50),
        "warm_pass_ms_p90": percentile(warm, 90),
    }
    print("perfbench: measured wall_s "
          + " ".join(f"{s['wall_s']:.3f}" for s in samples)
          + "; reference kernel ms (harmonic mean over the phase) "
          + " ".join(f"{statistics.harmonic_mean(s['phase_ref']) * 1e3:.3f}"
                     for s in samples), file=sys.stderr)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    values["sim_p99_ms"] = untraced.get("sim_p99_ms", 0.0)
    values["sim_goodput"] = untraced.get("sim_goodput", 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Take the samples of one run and return its result object."""
    expected = recorded_digest(workload, seed)
    started = time.monotonic()
    plan = ([(False, TRACED_WARM_PASSES), (True, TRACED_WARM_PASSES)]
            if trace else None)
    samples, failures = [], []
    while True:
        attempted = len(samples) + len(failures)
        if plan is not None:
            if attempted == len(plan):
                break
            traced, passes = plan[attempted]
        else:
            # Start another sample only if it should end within the run.
            elapsed = time.monotonic() - started
            expected_end = elapsed + elapsed / max(attempted, 1)
            if attempted >= MIN_SAMPLES and (
                    expected_end > seconds or expected_end > RUN_BUDGET_S):
                break
            traced, passes = False, WORKLOADS[workload]["warm_passes"]
        try:
            sample = run_sample(workload, seed, passes, traced, root)
            if expected is not None and sample["digest"] != expected:
                raise SampleError(
                    f"simulated output changed: digest {sample['digest']} "
                    f"!= recorded {expected} for seed {seed}")
            if samples and sample["digest"] != samples[0]["digest"]:
                raise SampleError(
                    f"two samples of seed {seed} disagree: "
                    f"{sample['digest']} != {samples[0]['digest']}")
            samples.append(sample)
        except SampleError as exc:
            failures.append(str(exc))
            print(f"perfbench: {workload} sample failed: {exc}",
                  file=sys.stderr)

    result = {"correct": not failures and bool(samples),
              "attempted": len(samples) + len(failures),
              "failed": len(failures), "metrics": {}}
    if trace and len(samples) == 2:
        result["metrics"] = per_layer(samples[0], samples[1])
    elif not trace and samples:
        result["metrics"] = end_to_end(samples)
    if samples:
        first = samples[0]
        print(f"perfbench: {workload} seed {seed}: digest {first['digest']}"
              f" ({'recorded' if expected else 'no recorded digest'}); "
              f"{len(samples)} sample(s)"
              + (f"; requests {first['requests']} = completed "
                 f"{first['completed']} + shed {first['shed']} + failed "
                 f"{first['failed']}; sim p99 {first['sim_p99_ms']:.1f} ms,"
                 f" goodput {first['sim_goodput']:.4f}"
                 if "requests" in first else ""),
              file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator (see README.md)")
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="take samples while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout; "
              "src/repro is missing here", file=sys.stderr)
        return 2
    # Byte-compile once so the first sample's set-up time is not a
    # compile time.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src"), str(HERE)],
                   stdout=subprocess.DEVNULL, check=False)
    (root / TMP_DIR).mkdir(exist_ok=True)
    try:
        workloads = (tuple(WORKLOADS) if args.workload == "all"
                     else (args.workload,))
        results = {}
        for workload in workloads:
            seed = (args.seed if args.seed is not None
                    else WORKLOADS[workload]["seed"])
            results[workload] = run_workload(workload, seed, args.seconds,
                                             bool(args.trace), root)
    finally:
        shutil.rmtree(root / TMP_DIR, ignore_errors=True)

    if args.workload == "all":
        for workload, result in results.items():
            for name, metric in result["metrics"].items():
                print(f"{workload:<24} {name:<32} "
                      f"{metric['value']:>14.6g} {metric['unit']}")
        ok = all(result["correct"] for result in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
        return 0 if ok else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
