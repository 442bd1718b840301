"""Parallel experiment engine with content-addressed result caching.

Every paper figure — and the extension experiments around them — decomposes
into *shards*: independent units of work (one platform's Fig 10
consolidation run, one FaaSdom benchmark's latency breakdown, one
sensitivity-sweep point, one burst config) that each build their own
:class:`~repro.sim.kernel.Simulation` from a fixed seed and are therefore
deterministic and perfectly memoizable.

The engine:

* fans shards out across a ``ProcessPoolExecutor`` (``jobs > 1``) or runs
  them inline (``jobs == 1``), then **merges deterministically** — shard
  results are combined in registry order, never completion order, so serial
  and parallel runs produce identical results;
* persists each shard's result under ``.repro-cache/``, keyed by a
  content hash of ``(experiment id, shard id, canonical hash of
  CalibratedParameters, seed, repro version, shard kwargs, code
  fingerprint)`` — a rerun of the same code with the same calibration is a
  pure cache read;
* round-trips *every* result (fresh or cached, serial or parallel) through
  the loss-free codec in :mod:`repro.bench.serialization`, so the cache-hit
  path cannot diverge from the compute path.

Invalidation is by key construction: changing any calibrated constant, the
seed, the package version, or any source file (see
:func:`code_fingerprint`) changes the key, and stale entries are simply
never read again (``prune()`` deletes entries whose key no longer matches).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import (CalibratedParameters, canonical_jsonable,
                          default_parameters, params_fingerprint)
from repro.errors import ReproError
from repro.bench.serialization import (decode_result, dumps_result,
                                       encode_result, loads_result)

_LOG = logging.getLogger(__name__)

#: Bump when the shard decomposition or payload layout changes shape.
CACHE_SCHEMA_VERSION = 1

DEFAULT_SEED = 2022
DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# Shard functions (module-level: picklable into pool workers)
# ---------------------------------------------------------------------------
def _platform_classes() -> Dict[str, type]:
    from repro.core.fireworks import FireworksPlatform
    from repro.platforms.firecracker import FirecrackerPlatform
    from repro.platforms.openwhisk import OpenWhiskPlatform
    return {"fireworks": FireworksPlatform, "openwhisk": OpenWhiskPlatform,
            "firecracker": FirecrackerPlatform}


def _sh_table1(params, seed):
    from repro.bench.tables import run_table1
    return run_table1(params)


def _sh_table2(params, seed):
    from repro.bench.tables import run_table2
    return run_table2()


def _sh_snapshot_creation(params, seed):
    from repro.bench.tables import run_snapshot_creation_times
    return run_snapshot_creation_times(params)


def _sh_faasdom(params, seed, benchmark, language):
    from repro.bench.faasdom_experiments import run_faasdom_benchmark
    return run_faasdom_benchmark(benchmark, language, params)


def _sh_fig9(params, seed):
    from repro.bench.realworld import run_fig9
    return run_fig9(params)


def _sh_fig10(params, seed, platform):
    from repro.bench.memory import run_fig10_platform
    return run_fig10_platform(platform, params)


def _sh_fig11(params, seed, benchmark, language):
    from repro.bench.factors import run_factor_analysis
    return run_factor_analysis(benchmark, language, params)


def _sh_fig12(params, seed, benchmark, language):
    from repro.bench.memory import run_fig12_workload
    return run_fig12_workload(benchmark, language, params)


def _sh_scorecard(params, seed):
    from repro.bench.paper import headline_comparisons
    return headline_comparisons(params)


def _sh_burst(params, seed, platform, requests, cores):
    from repro.bench.concurrency import run_burst
    return run_burst(_platform_classes()[platform], requests=requests,
                     cores=cores, params=params, seed=seed)


def _sh_load_sweep(params, seed, platform, rate):
    from repro.bench.concurrency import run_load_sweep
    points = run_load_sweep(_platform_classes()[platform], rates_rps=(rate,),
                            params=params, seed=seed)
    return points[rate]


def _sh_sensitivity(params, seed, parameter, value, metric):
    from repro.bench.sensitivity import run_sensitivity
    return run_sensitivity(parameter, [value], metric, params)


def _sh_ablation(params, seed, arm):
    from repro.bench import ablations
    return {
        "restore-policy": ablations.run_restore_policy_ablation,
        "store-eviction": ablations.run_store_eviction_demo,
        "deopt": ablations.run_deopt_experiment,
        "remote-store": ablations.run_remote_store_ablation,
        "catalyzer": ablations.run_catalyzer_comparison,
        "aot": ablations.run_aot_comparison,
        "regeneration": ablations.run_regeneration_demo,
    }[arm](params)


def _sh_policies(params, seed):
    from repro.bench.ablations import run_policy_comparison
    return run_policy_comparison(params)


def _sh_keepalive(params, seed):
    from repro.bench.ablations import run_keepalive_policy_comparison
    return run_keepalive_policy_comparison(params)


def _sh_cluster(params, seed):
    from repro.bench.cluster import run_cluster_scheduling
    return run_cluster_scheduling(params, seed=seed)


def _sh_chaos(params, seed):
    from repro.bench.chaos import run_chaos_experiment
    return run_chaos_experiment(params, seed=seed)


def _sh_load(params, seed, platform, mode):
    from repro.bench.load import run_load_platform
    return run_load_platform(platform, mode, params=params, seed=seed)


def _sh_chains(params, seed, platform, policy):
    from repro.bench.chains import run_chains_platform
    return run_chains_platform(platform, policy, params=params, seed=seed)


def _sh_restore_policy(params, seed, backend, policy, language):
    from repro.bench.restore import run_restore_policy
    return run_restore_policy(backend, policy, language, params=params,
                              seed=seed)


def _sh_restore_stream(params, seed, mode):
    from repro.bench.restore import run_streaming_transfer
    return run_streaming_transfer(mode, params=params, seed=seed)


def _sh_search(params, seed, index):
    from repro.bench.search import evaluate_index
    return evaluate_index(params, seed, index)


def _sh_search_smoke(params, seed):
    from repro.bench.search import run_search
    return run_search(params=params, seed=seed, smoke=True)


_SHARD_FNS: Dict[str, Callable[..., Any]] = {
    "table1": _sh_table1,
    "table2": _sh_table2,
    "snapshot-creation": _sh_snapshot_creation,
    "faasdom": _sh_faasdom,
    "fig9": _sh_fig9,
    "fig10": _sh_fig10,
    "fig11": _sh_fig11,
    "fig12": _sh_fig12,
    "scorecard": _sh_scorecard,
    "burst": _sh_burst,
    "load-sweep": _sh_load_sweep,
    "sensitivity": _sh_sensitivity,
    "ablation": _sh_ablation,
    "policies": _sh_policies,
    "keepalive": _sh_keepalive,
    "cluster": _sh_cluster,
    "chaos": _sh_chaos,
    "load": _sh_load,
    "chains": _sh_chains,
    "restore-policy": _sh_restore_policy,
    "restore-stream": _sh_restore_stream,
    "search": _sh_search,
    "search-smoke": _sh_search_smoke,
}


def _execute_shard(fn: str, kwargs: Dict[str, Any],
                   params: CalibratedParameters, seed: int) -> Any:
    """Run one shard and return its *encoded* payload.

    Runs in a pool worker under ``jobs > 1``; encoding here keeps the bytes
    crossing the process boundary identical to what the cache stores.
    """
    result = _SHARD_FNS[fn](params, seed, **kwargs)
    return encode_result(result)


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One independently executable (and cacheable) unit of an experiment."""

    experiment: str
    key: str                                  # unique within the experiment
    fn: str                                   # _SHARD_FNS entry
    kwargs: Tuple[Tuple[str, Any], ...] = ()  # sorted, JSON-able

    def kwargs_dict(self) -> Dict[str, Any]:
        """The shard kwargs as a plain dict (stored as a hashable tuple)."""
        return dict(self.kwargs)


@dataclass(frozen=True)
class ExperimentDef:
    """An experiment: a fixed shard list plus a deterministic merge."""

    id: str
    title: str
    shards: Tuple[Shard, ...]
    #: merge({shard key: decoded result}) -> experiment result.  Called in
    #: registry order with every shard present; must not depend on wall
    #: clock, completion order, or anything outside its inputs.
    merge: Callable[[Dict[str, Any]], Any]


def _shard(experiment: str, key: str, fn: str, **kwargs: Any) -> Shard:
    return Shard(experiment=experiment, key=key, fn=fn,
                 kwargs=tuple(sorted(kwargs.items())))


def _single(experiment: str, title: str, fn: str) -> ExperimentDef:
    return ExperimentDef(
        id=experiment, title=title,
        shards=(_shard(experiment, "all", fn),),
        merge=lambda shards: shards["all"])


def _faasdom_experiment(experiment: str, language: str,
                        title: str) -> ExperimentDef:
    from repro.workloads.faasdom import BENCHMARK_NAMES

    def merge(shards: Dict[str, Any], _language=language) -> Any:
        from repro.bench.faasdom_experiments import build_geomean
        results = {benchmark: shards[benchmark]
                   for benchmark in BENCHMARK_NAMES}
        results["geomean"] = build_geomean(results, _language)
        return results

    return ExperimentDef(
        id=experiment, title=title,
        shards=tuple(_shard(experiment, benchmark, "faasdom",
                            benchmark=benchmark, language=language)
                     for benchmark in BENCHMARK_NAMES),
        merge=merge)


def _per_workload_experiment(experiment: str, fn: str,
                             title: str) -> ExperimentDef:
    from repro.workloads.faasdom import BENCHMARK_NAMES, LANGUAGES
    pairs = [(benchmark, language) for benchmark in BENCHMARK_NAMES
             for language in LANGUAGES]
    return ExperimentDef(
        id=experiment, title=title,
        shards=tuple(_shard(experiment, f"{benchmark}-{language}", fn,
                            benchmark=benchmark, language=language)
                     for benchmark, language in pairs),
        merge=lambda shards: {f"{b}-{lang}": shards[f"{b}-{lang}"]
                              for b, lang in pairs})


#: Platform order of the burst/load-sweep comparisons (paper-figure order).
_COMPARISON_PLATFORMS = ("fireworks", "openwhisk", "firecracker")

#: Offered-load levels of the load sweep (requests per second).
LOAD_SWEEP_RATES = (20.0, 60.0, 120.0, 200.0)

#: The default sensitivity suite: (knob, swept values, metric).
SENSITIVITY_SUITE: Tuple[Tuple[str, Tuple[float, ...], str], ...] = (
    ("nodejs.hotness_threshold_units", (2000.0, 4000.0, 8000.0, 16000.0),
     "node_exec_improvement_pct"),
    ("snapshot.restore_per_working_mb_ms", (0.1, 0.3, 0.9),
     "cold_start_speedup_x"),
    ("nodejs.steady_state_dirty_fraction", (0.20, 0.33, 0.50),
     "consolidation_ratio"),
)

#: Ablation arms (each one shard), in report order.
ABLATION_ARMS = ("restore-policy", "store-eviction", "deopt",
                 "remote-store", "catalyzer", "aot", "regeneration")


def _burst_experiment() -> ExperimentDef:
    return ExperimentDef(
        id="burst", title="burst-storm comparison (extension)",
        shards=tuple(_shard("burst", platform, "burst", platform=platform,
                            requests=256, cores=64)
                     for platform in _COMPARISON_PLATFORMS),
        merge=lambda shards: {platform: shards[platform]
                              for platform in _COMPARISON_PLATFORMS})


def _load_sweep_experiment() -> ExperimentDef:
    keys = [(platform, rate) for platform in _COMPARISON_PLATFORMS
            for rate in LOAD_SWEEP_RATES]
    return ExperimentDef(
        id="load-sweep", title="offered-load saturation sweep (extension)",
        shards=tuple(_shard("load-sweep", f"{platform}@{rate:g}",
                            "load-sweep", platform=platform, rate=rate)
                     for platform, rate in keys),
        merge=lambda shards: {
            platform: {rate: shards[f"{platform}@{rate:g}"]
                       for rate in LOAD_SWEEP_RATES}
            for platform in _COMPARISON_PLATFORMS})


def _sensitivity_experiment() -> ExperimentDef:
    shards: List[Shard] = []
    for parameter, values, metric in SENSITIVITY_SUITE:
        for value in values:
            shards.append(_shard("sensitivity",
                                 f"{parameter}@{value:g}->{metric}",
                                 "sensitivity", parameter=parameter,
                                 value=value, metric=metric))

    def merge(results: Dict[str, Any]) -> Any:
        from repro.bench.sensitivity import SensitivityResult
        merged: Dict[str, SensitivityResult] = {}
        for parameter, values, metric in SENSITIVITY_SUITE:
            points = []
            for value in values:
                one = results[f"{parameter}@{value:g}->{metric}"]
                points.extend(one.points)
            merged[parameter] = SensitivityResult(
                parameter=parameter, metric_name=metric, points=points)
        return merged

    return ExperimentDef(
        id="sensitivity", title="calibration sensitivity sweeps (extension)",
        shards=tuple(shards), merge=merge)


def _ablations_experiment() -> ExperimentDef:
    return ExperimentDef(
        id="ablations", title="design ablations (extension)",
        shards=tuple(_shard("ablations", arm, "ablation", arm=arm)
                     for arm in ABLATION_ARMS),
        merge=lambda shards: {arm: shards[arm] for arm in ABLATION_ARMS})


def _restore_experiment() -> ExperimentDef:
    from repro.bench.restore import RESTORE_CELLS, STREAM_MODES
    policy_shards = tuple(
        _shard("restore", f"{backend}@{policy}@{language}", "restore-policy",
               backend=backend, policy=policy, language=language)
        for backend, policy, language in RESTORE_CELLS)
    stream_shards = tuple(
        _shard("restore", f"stream@{mode}", "restore-stream", mode=mode)
        for mode in STREAM_MODES)
    keys = ([f"{b}@{p}@{lang}" for b, p, lang in RESTORE_CELLS]
            + [f"stream@{mode}" for mode in STREAM_MODES])
    return ExperimentDef(
        id="restore",
        title="lazy restore + streaming transfer (extension)",
        shards=policy_shards + stream_shards,
        merge=lambda shards: {key: shards[key] for key in keys})


def _load_experiment() -> ExperimentDef:
    from repro.bench.load import LOAD_MODES, LOAD_PLATFORMS
    keys = [(platform, mode) for platform in LOAD_PLATFORMS
            for mode in LOAD_MODES]
    return ExperimentDef(
        id="load", title="open-loop serving-layer load (extension)",
        shards=tuple(_shard("load", f"{platform}@{mode}", "load",
                            platform=platform, mode=mode)
                     for platform, mode in keys),
        merge=lambda shards: {f"{platform}@{mode}":
                              shards[f"{platform}@{mode}"]
                              for platform, mode in keys})


def _chains_experiment() -> ExperimentDef:
    from repro.bench.chains import CHAIN_POLICIES
    from repro.bench.load import LOAD_PLATFORMS
    keys = [(platform, policy) for platform in LOAD_PLATFORMS
            for policy in CHAIN_POLICIES]
    return ExperimentDef(
        id="chains",
        title="multi-tenant function-chain serving (extension)",
        shards=tuple(_shard("chains", f"{platform}@{policy}", "chains",
                            platform=platform, policy=policy)
                     for platform, policy in keys),
        merge=lambda shards: {f"{platform}@{policy}":
                              shards[f"{platform}@{policy}"]
                              for platform, policy in keys})


def _search_experiment() -> ExperimentDef:
    from repro.bench.search import DEFAULT_CANDIDATES
    keys = [f"cand-{index:02d}" for index in range(DEFAULT_CANDIDATES)]

    def merge(shards: Dict[str, Any]) -> Any:
        from repro.bench.search import build_search_result
        return build_search_result(tuple(shards[key] for key in keys))

    return ExperimentDef(
        id="search",
        title="offline Pareto policy search (extension)",
        shards=tuple(_shard("search", key, "search", index=index)
                     for index, key in enumerate(keys)),
        merge=merge)


def _build_registry() -> Dict[str, ExperimentDef]:
    from repro.bench.memory import FIG10_PLATFORMS
    registry: Dict[str, ExperimentDef] = {}

    def add(definition: ExperimentDef) -> None:
        registry[definition.id] = definition

    add(_single("table1", "design comparison of serverless platforms",
                "table1"))
    add(_single("table2", "tested serverless applications", "table2"))
    add(_single("snapshot-creation",
                "post-JIT snapshot creation times (§5.1)",
                "snapshot-creation"))
    add(_faasdom_experiment("fig6", "nodejs",
                            "FaaSdom latency breakdown, Node.js"))
    add(_faasdom_experiment("fig7", "python",
                            "FaaSdom latency breakdown, Python"))
    add(_single("fig9", "real-world ServerlessBench applications", "fig9"))
    add(ExperimentDef(
        id="fig10", title="memory usage / max consolidation",
        shards=tuple(_shard("fig10", platform, "fig10", platform=platform)
                     for platform in FIG10_PLATFORMS),
        merge=lambda shards: {platform: shards[platform]
                              for platform in FIG10_PLATFORMS}))
    add(_per_workload_experiment("fig11", "fig11",
                                 "factor analysis of performance"))
    add(_per_workload_experiment("fig12", "fig12",
                                 "factor analysis of memory"))
    add(_single("scorecard", "paper-vs-measured headline claims",
                "scorecard"))
    add(_burst_experiment())
    add(_load_sweep_experiment())
    add(_sensitivity_experiment())
    add(_ablations_experiment())
    add(_single("policies", "warm-pool vs snapshot policy (extension)",
                "policies"))
    add(_single("keepalive", "keep-alive policy comparison (extension)",
                "keepalive"))
    add(_single("cluster", "cluster placement policies (extension)",
                "cluster"))
    add(_single("chaos", "host-failure chaos experiment (extension)",
                "chaos"))
    add(_load_experiment())
    add(_chains_experiment())
    add(_restore_experiment())
    add(_search_experiment())
    add(_single("search-smoke",
                "Pareto policy search, CI-sized smoke run (extension)",
                "search-smoke"))
    return registry


_REGISTRY: Optional[Dict[str, ExperimentDef]] = None


def experiment_registry() -> Dict[str, ExperimentDef]:
    """The experiment registry (built lazily, import cycles avoided)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def experiment_ids() -> Tuple[str, ...]:
    """Every runnable experiment id, in canonical (report) order."""
    return tuple(experiment_registry())


# ---------------------------------------------------------------------------
# Content-addressed result cache
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 over the ``repro`` package's ``.py`` sources and the shipped
    policy documents (chains shards read them), so a result computed by
    other code is never served.  Computed once per process: every shard's
    key needs it on every pass."""
    from repro.policy import shipped_policy_dir
    digest = hashlib.sha256()
    for root, pattern in ((Path(__file__).resolve().parent.parent, "*.py"),
                          (Path(shipped_policy_dir()), "*")):
        for path in sorted(root.rglob(pattern)):
            if path.is_file():
                digest.update(f"{root.name}/"
                              f"{path.relative_to(root).as_posix()}\0"
                              .encode("utf-8"))
                digest.update(path.read_bytes())
    return digest.hexdigest()


class ResultCache:
    """Shard results under *root*, addressed by content hash.

    Entries are written in the compact binary format
    (:func:`repro.bench.serialization.dumps_result`) as ``<key>.bin``.
    A corrupt entry is a miss, never an error.

    The key bakes in everything a shard's output depends on; see the module
    docstring for the invalidation story.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        # The default is resolved at call time (not def time) so test
        # harnesses can point DEFAULT_CACHE_DIR somewhere disposable.
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)
        self.hits = 0
        self.misses = 0

    def key(self, shard: Shard, fingerprint: str, seed: int) -> str:
        """The content hash addressing this shard's cache entry."""
        from repro import __version__
        material = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "code": code_fingerprint(),
            "experiment": shard.experiment,
            "shard": shard.key,
            "fn": shard.fn,
            "kwargs": canonical_jsonable(shard.kwargs_dict()),
            "params": fingerprint,
            "seed": seed,
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    def _path(self, shard: Shard, key: str) -> Path:
        return self.root / shard.experiment / f"{key}.bin"

    def _read_entry(self, shard: Shard, key: str) -> Optional[Dict]:
        """The entry dict from disk, or None if missing or corrupt."""
        try:
            entry = loads_result(self._path(shard, key).read_bytes())
        except (OSError, ReproError):
            return None
        return entry if isinstance(entry, dict) else None

    def load(self, shard: Shard, fingerprint: str, seed: int
             ) -> Optional[Any]:
        """The cached encoded payload, or None on miss/corruption."""
        entry = self._read_entry(shard, self.key(shard, fingerprint, seed))
        if (entry is None or entry.get("schema") != CACHE_SCHEMA_VERSION
                or "result" not in entry):
            self.misses += 1
            return None
        self.hits += 1
        # Entries store the *decoded* result (the binary codec
        # encodes dataclasses natively and positionally — far more
        # compact than the tagged JSON form); re-encode to keep load()'s
        # contract.  encode/decode are exact inverses, so the cache-hit
        # path still cannot diverge from the compute path.
        return encode_result(entry["result"])

    def store(self, shard: Shard, fingerprint: str, seed: int,
              payload: Any, elapsed_s: float) -> None:
        """Persist one shard's encoded payload (atomic rename)."""
        key = self.key(shard, fingerprint, seed)
        path = self._path(shard, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "experiment": shard.experiment,
            "shard": shard.key,
            "params": fingerprint,
            "seed": seed,
            "elapsed_s": round(elapsed_s, 6),
            "result": decode_result(payload),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(dumps_result(entry))
        tmp.replace(path)

    def prune(self, params: Optional[CalibratedParameters] = None,
              seed: int = DEFAULT_SEED) -> int:
        """Delete every file under the root that is not a live entry: one
        reachable from the current registry, parameters and code."""
        fingerprint = params_fingerprint(params or default_parameters())
        live = {self._path(shard, self.key(shard, fingerprint, seed))
                for definition in experiment_registry().values()
                for shard in definition.shards}
        removed = 0
        for path in self.root.rglob("*"):
            if path.is_file() and path not in live:
                path.unlink()
                removed += 1
        return removed


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :func:`run_experiments` call did."""

    jobs: int
    shards_total: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    def summary(self) -> str:
        """One line for the CLI's stderr: shard counts and elapsed time."""
        return (f"{self.shards_total} shards: {self.cache_hits} cached, "
                f"{self.executed} executed on {self.jobs} "
                f"job{'s' if self.jobs != 1 else ''} "
                f"in {self.elapsed_s:.2f}s")


@dataclass
class EngineRun:
    """Results of one engine invocation, in requested order."""

    results: Dict[str, Any] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=lambda: EngineStats(jobs=1))


@dataclass(frozen=True)
class ShardEvent:
    """One progress notification from :func:`run_experiments`.

    ``kind`` is ``"cache-hit"`` (served from the result cache),
    ``"started"`` (compute began — under ``jobs > 1`` this fires at pool
    submission), or ``"finished"`` (compute completed).  Events fire in the
    submitting process, never inside pool workers, so callbacks may touch
    shared state freely.
    """

    kind: str
    experiment: str
    shard: str
    index: int          # position in this run's full shard list
    total: int          # shard count of this run

ProgressFn = Callable[[ShardEvent], None]


def resolve_ids(ids: Sequence[str]) -> List[str]:
    """Expand ``all`` and validate experiment ids, preserving order."""
    known = experiment_registry()
    resolved: List[str] = []
    for experiment_id in ids:
        if experiment_id == "all":
            selected: Sequence[str] = list(known)
        elif experiment_id in known:
            selected = [experiment_id]
        else:
            raise ReproError(
                f"unknown experiment {experiment_id!r}; known: "
                f"{', '.join(known)} (or 'all')")
        for one in selected:
            if one not in resolved:
                resolved.append(one)
    return resolved


def _execute_missing(missing: List[Shard], params: CalibratedParameters,
                     seed: int, jobs: int,
                     notify: Callable[[str, Shard], None]
                     ) -> Dict[Tuple[str, str], Any]:
    """Encoded payloads for *missing* shards, serially or on a pool.

    *notify* is called as ``notify(kind, shard)`` with ``"started"`` /
    ``"finished"`` around each shard's compute, always in this process.
    """
    if not missing:
        return {}
    if jobs > 1 and (os.cpu_count() or 1) == 1:
        # A pool of forks on a single-CPU host only adds fork/IPC
        # overhead on top of the same serial compute — run inline.
        _LOG.info("single-CPU host: running %d shard(s) serially "
                  "(jobs=%d requested)", len(missing), jobs)
        jobs = 1
    if jobs <= 1 or len(missing) == 1:
        payloads: Dict[Tuple[str, str], Any] = {}
        for shard in missing:
            notify("started", shard)
            payloads[(shard.experiment, shard.key)] = _execute_shard(
                shard.fn, shard.kwargs_dict(), params, seed)
            notify("finished", shard)
        return payloads

    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = None
    # Results are keyed by shard, so the merge below never observes
    # completion order; only the *progress notifications* follow it.
    with ProcessPoolExecutor(max_workers=min(jobs, len(missing)),
                             mp_context=context) as pool:
        futures = {}
        for shard in missing:
            notify("started", shard)
            futures[pool.submit(_execute_shard, shard.fn,
                                shard.kwargs_dict(), params, seed)] = shard
        payloads = {}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                shard = futures[future]
                payloads[(shard.experiment, shard.key)] = future.result()
                notify("finished", shard)
        return payloads


def run_experiments(ids: Sequence[str],
                    params: Optional[CalibratedParameters] = None,
                    seed: int = DEFAULT_SEED,
                    jobs: int = 1,
                    use_cache: bool = True,
                    cache_dir: Optional[str] = None,
                    progress: Optional[ProgressFn] = None) -> EngineRun:
    """Run *ids* (or ``["all"]``) and return merged results + stats.

    Serial (``jobs=1``), parallel, and fully cached invocations return
    identical results: every path decodes the same encoded payloads and
    merges them in registry order.  *progress*, when given, receives a
    :class:`ShardEvent` per cache hit / compute start / compute finish —
    it observes execution order, never influences results.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    resolved = resolve_ids(ids)
    params = params or default_parameters()
    fingerprint = params_fingerprint(params)
    registry = experiment_registry()
    cache = ResultCache(cache_dir) if use_cache else None

    started = time.perf_counter()
    shards = [shard for experiment_id in resolved
              for shard in registry[experiment_id].shards]
    indexes = {(shard.experiment, shard.key): position
               for position, shard in enumerate(shards)}

    def notify(kind: str, shard: Shard) -> None:
        if progress is not None:
            progress(ShardEvent(
                kind=kind, experiment=shard.experiment, shard=shard.key,
                index=indexes[(shard.experiment, shard.key)],
                total=len(shards)))

    payloads: Dict[Tuple[str, str], Any] = {}
    missing: List[Shard] = []
    for shard in shards:
        cached = cache.load(shard, fingerprint, seed) if cache else None
        if cached is not None:
            payloads[(shard.experiment, shard.key)] = cached
            notify("cache-hit", shard)
        else:
            missing.append(shard)

    exec_started = time.perf_counter()
    computed = _execute_missing(missing, params, seed, jobs, notify)
    exec_elapsed = time.perf_counter() - exec_started
    payloads.update(computed)
    if cache and missing:
        per_shard = exec_elapsed / len(missing)
        for shard in missing:
            cache.store(shard, fingerprint, seed,
                        payloads[(shard.experiment, shard.key)], per_shard)

    run = EngineRun(stats=EngineStats(
        jobs=jobs, shards_total=len(shards),
        cache_hits=len(shards) - len(missing), executed=len(missing)))
    for experiment_id in resolved:
        definition = registry[experiment_id]
        decoded = {
            shard.key: decode_result(payloads[(shard.experiment, shard.key)])
            for shard in definition.shards
        }
        run.results[experiment_id] = definition.merge(decoded)
    run.stats.elapsed_s = time.perf_counter() - started
    return run


__all__ = [
    "ABLATION_ARMS",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SEED",
    "EngineRun",
    "EngineStats",
    "ExperimentDef",
    "LOAD_SWEEP_RATES",
    "ProgressFn",
    "ResultCache",
    "SENSITIVITY_SUITE",
    "Shard",
    "ShardEvent",
    "code_fingerprint",
    "experiment_ids",
    "experiment_registry",
    "resolve_ids",
    "run_experiments",
]
