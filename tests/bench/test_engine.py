"""The parallel experiment engine: determinism, caching, registry."""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.engine import (ResultCache, Shard, experiment_ids,
                                experiment_registry, resolve_ids,
                                run_experiments)
from repro.bench.serialization import (dumps_result, encode_result,
                                       loads_result)
from repro.bench.results import FigureResult, MemorySeries
from repro.config import default_parameters, params_fingerprint
from repro.errors import ReproError

#: A cheap but representative subset: FigureResult shards with a merged
#: geomean (fig6), MemorySeries shards (fig10), and per-point sweeps
#: (sensitivity) — everything the determinism guarantee names.
SUBSET = ["fig6", "fig10", "sensitivity"]


class TestRegistry:
    def test_every_cli_figure_is_an_experiment(self):
        from repro.cli import EXTENSIONS, FIGURES
        assert experiment_ids() == FIGURES + EXTENSIONS

    def test_shard_keys_unique_per_experiment(self):
        for definition in experiment_registry().values():
            keys = [shard.key for shard in definition.shards]
            assert len(keys) == len(set(keys)), definition.id

    def test_resolve_all_expands_in_order(self):
        assert resolve_ids(["all"]) == list(experiment_ids())

    def test_resolve_dedupes_preserving_order(self):
        assert resolve_ids(["fig10", "fig6", "fig10"]) == ["fig10", "fig6"]

    def test_resolve_unknown_id(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            resolve_ids(["fig99"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError, match="jobs"):
            run_experiments(["table2"], jobs=0, use_cache=False)


class TestDeterminism:
    """Same seed => identical results across serial, parallel, cache-hit."""

    def test_serial_parallel_cached_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        serial = run_experiments(SUBSET, jobs=1, cache_dir=cache_dir)
        assert serial.stats.cache_hits == 0
        parallel = run_experiments(SUBSET, jobs=4, use_cache=False)
        cached = run_experiments(SUBSET, jobs=4, cache_dir=cache_dir)
        assert cached.stats.executed == 0
        assert cached.stats.cache_hits == serial.stats.shards_total

        assert serial.results == parallel.results == cached.results
        fig6 = serial.results["fig6"]["geomean"]
        assert isinstance(fig6, FigureResult)
        assert isinstance(serial.results["fig10"]["fireworks"], MemorySeries)

    def test_engine_matches_direct_drivers(self, tmp_path):
        from repro.bench.faasdom_experiments import run_fig6
        from repro.bench.memory import run_fig10
        outcome = run_experiments(["fig6", "fig10"], use_cache=False)
        assert outcome.results["fig6"] == run_fig6()
        assert outcome.results["fig10"] == run_fig10()

    def test_cached_payload_survives_disk(self, tmp_path):
        """Cache hits literally re-read binary blobs from disk — and
        still match."""
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["fig10"], cache_dir=cache_dir)
        entries = list((tmp_path / "cache" / "fig10").glob("*.bin"))
        assert len(entries) == 2  # one per platform shard
        for entry in entries:
            loads_result(entry.read_bytes())  # valid binary blob on disk
        second = run_experiments(["fig10"], cache_dir=cache_dir)
        assert second.results == first.results


class TestCodeFingerprint:
    """The cache key covers the code: a warm cache never serves a result
    computed by other code."""

    def test_editing_a_source_file_misses_the_cache(self, tmp_path):
        import repro
        from repro.policy import shipped_policy_dir
        # Edit a copy of the package, never the tree under test.
        tree = tmp_path / "tree"
        shutil.copytree(Path(repro.__file__).parent, tree / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(shipped_policy_dir(), tree / "scenarios" / "policies")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))

        def figure_table1() -> str:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "figure", "table1",
                 "--cache-dir", str(tmp_path / "cache")],
                cwd=tree, env=env, capture_output=True, text=True,
                check=True)
            return done.stderr

        assert "0 cached" in figure_table1()
        assert "1 cached" in figure_table1()
        tables = tree / "src" / "repro" / "bench" / "tables.py"
        tables.write_text(tables.read_text() + "# edited\n")
        assert "0 cached" in figure_table1()


class TestSingleCpuFallback:
    def test_single_cpu_runs_serially_and_logs(self, monkeypatch, caplog):
        import logging
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        with caplog.at_level(logging.INFO, logger="repro.bench.engine"):
            outcome = run_experiments(["table2"], jobs=4, use_cache=False)
        assert outcome.stats.executed == 1
        assert any("serially" in record.message
                   for record in caplog.records)

    def test_multi_cpu_keeps_pool_path(self, monkeypatch, caplog):
        import logging
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        with caplog.at_level(logging.INFO, logger="repro.bench.engine"):
            run_experiments(["fig10"], jobs=2, use_cache=False)
        assert not any("serially" in record.message
                       for record in caplog.records)


class TestResultCache:
    def _shard(self):
        return experiment_registry()["fig10"].shards[0]

    def test_key_depends_on_params(self):
        cache = ResultCache("unused")
        shard = self._shard()
        params = default_parameters()
        base = cache.key(shard, params_fingerprint(params), 2022)
        tweaked = dataclasses.replace(
            params, snapshot=dataclasses.replace(
                params.snapshot, restore_base_ms=99.0))
        assert cache.key(shard, params_fingerprint(tweaked), 2022) != base

    def test_key_depends_on_seed_and_shard(self):
        cache = ResultCache("unused")
        shard = self._shard()
        fingerprint = params_fingerprint(default_parameters())
        base = cache.key(shard, fingerprint, 2022)
        assert cache.key(shard, fingerprint, 2023) != base
        other = experiment_registry()["fig10"].shards[1]
        assert cache.key(other, fingerprint, 2022) != base

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["table2"], cache_dir=cache_dir)
        entry = next((tmp_path / "cache" / "table2").glob("*.bin"))
        entry.write_bytes(b"RBC\x01 truncated garbage")
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1
        assert again.results == first.results

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_experiments(["table2"], cache_dir=cache_dir)
        entry = next((tmp_path / "cache" / "table2").glob("*.bin"))
        entry.write_bytes(entry.read_bytes()[:-10])
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1
        assert again.results == first.results

    def test_schema_bump_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table2"], cache_dir=cache_dir)
        entry = next((tmp_path / "cache" / "table2").glob("*.bin"))
        stale = loads_result(entry.read_bytes())
        stale["schema"] = -1
        entry.write_bytes(dumps_result(stale))
        again = run_experiments(["table2"], cache_dir=cache_dir)
        assert again.stats.executed == 1

    def test_no_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(["table2"], use_cache=False,
                        cache_dir=str(cache_dir))
        assert not cache_dir.exists()

    def test_prune_drops_foreign_entries(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table2"], cache_dir=cache_dir)
        stale_bin = tmp_path / "cache" / "table2" / ("f" * 32 + ".bin")
        stale_bin.write_bytes(b"junk")
        # Any other file is foreign too, wherever it sits under the root.
        stale_json = tmp_path / "cache" / "table2" / ("e" * 32 + ".json")
        stale_json.write_text("{}")
        stray = tmp_path / "cache" / "stray.tmp"
        stray.write_text("")
        cache = ResultCache(cache_dir)
        assert cache.prune() == 3
        assert not stale_bin.exists()
        assert not stale_json.exists()
        assert not stray.exists()
        assert run_experiments(["table2"],
                               cache_dir=cache_dir).stats.cache_hits == 1

    def test_stats_summary_mentions_counts(self, tmp_path):
        outcome = run_experiments(["table2"],
                                  cache_dir=str(tmp_path / "cache"))
        summary = outcome.stats.summary()
        assert "1 shards" in summary and "1 executed" in summary


class TestShard:
    def test_kwargs_are_hashable_and_ordered(self):
        shard = Shard(experiment="x", key="k", fn="table1",
                      kwargs=(("b", 2), ("a", 1)))
        assert shard.kwargs_dict() == {"b": 2, "a": 1}
        hash(shard)  # frozen dataclass: usable as a dict key


class TestProgressEvents:
    """run_experiments(progress=...) narrates the shard schedule."""

    def test_serial_run_emits_started_finished_pairs(self, tmp_path):
        events = []
        run_experiments(["table1", "table2"],
                        cache_dir=str(tmp_path / "cache"),
                        progress=events.append)
        assert [(e.kind, e.experiment) for e in events] == [
            ("started", "table1"), ("finished", "table1"),
            ("started", "table2"), ("finished", "table2")]
        assert all(e.total == 2 for e in events)
        assert [e.index for e in events] == [0, 0, 1, 1]

    def test_cached_rerun_emits_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table1"], cache_dir=cache_dir)
        events = []
        run_experiments(["table1"], cache_dir=cache_dir,
                        progress=events.append)
        assert [e.kind for e in events] == ["cache-hit"]

    def test_progress_never_influences_results(self, tmp_path):
        quiet = run_experiments(["table2"], use_cache=False)
        noisy = run_experiments(["table2"], use_cache=False,
                                progress=lambda event: None)
        assert encode_result(quiet.results["table2"]) == \
            encode_result(noisy.results["table2"])
