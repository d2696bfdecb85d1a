"""On-disk result cache: hits, misses, invalidation, corruption."""

import dataclasses
import json

import pytest

import repro.exec.executor as executor_mod
from repro.core.rfc import rfc_with_updown
from repro.exec import build_executor
from repro.exec.cache import (
    CACHE_FORMAT,
    ResultCache,
    cache_key,
    topology_digest,
)
from repro.exec.executor import Executor, SimTask
from repro.simulation import SimulationParams, replicated_point
from repro.simulation.stats import SimResult

PARAMS = SimulationParams(measure_cycles=200, warmup_cycles=50, seed=1)


def _result(**overrides) -> SimResult:
    base = dict(
        offered_load=0.5, accepted_load=0.42, avg_latency=31.5,
        avg_hops=4.0, generated_packets=100, delivered_packets=90,
        measured_packets=80, max_latency=77, p50_latency=30.0,
        p99_latency=60.0, traffic="uniform", topology="net",
        unroutable_packets=0,
    )
    base.update(overrides)
    return SimResult(**base)


def _task(topo, **overrides) -> SimTask:
    base = dict(
        topo=topo, traffic_name="uniform", load=0.5, params=PARAMS,
        traffic_seed=3,
    )
    base.update(overrides)
    return SimTask(**base)


class TestResultCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored = _result()
        cache.put("ab" * 32, stored)
        assert cache.get("ab" * 32) == stored
        assert len(cache) == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_nan_latency_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored = _result(avg_latency=float("nan"))
        cache.put("ee" * 32, stored)
        loaded = cache.get("ee" * 32)
        assert loaded is not None
        assert loaded.avg_latency != loaded.avg_latency  # NaN preserved

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _result())
        path = cache._path(key)
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _result())
        path = cache._path(key)
        path.write_text(path.read_text()[:20])
        assert cache.get(key) is None

    def test_wrong_code_version_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["code"] = "sim-0-ancient"
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_wrong_format_version_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_unknown_result_field_is_miss(self, tmp_path):
        """A future field added to SimResult must not crash old code."""
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, _result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["result"]["from_the_future"] = 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None


class TestCacheKey:
    def test_key_changes_with_each_component(self, cft_4_3, cft_8_3):
        digest = topology_digest(cft_4_3)
        base = cache_key(digest, "uniform", 0.5, PARAMS, 3)
        assert base == cache_key(digest, "uniform", 0.5, PARAMS, 3)
        variants = [
            cache_key(topology_digest(cft_8_3), "uniform", 0.5, PARAMS, 3),
            cache_key(digest, "fixed-random", 0.5, PARAMS, 3),
            cache_key(digest, "uniform", 0.6, PARAMS, 3),
            cache_key(digest, "uniform", 0.5, PARAMS.scaled(seed=2), 3),
            cache_key(
                digest, "uniform", 0.5, PARAMS.scaled(measure_cycles=300), 3
            ),
            cache_key(digest, "uniform", 0.5, PARAMS, 4),
            cache_key(
                digest, "uniform", 0.5, PARAMS, 3,
                removed_links=(cft_4_3.links()[0],),
            ),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    #: A valid non-default value of each ``str`` params field.
    OTHER_STR = {
        "arbiter": "rotating",
        "up_selection": "adaptive",
        "rng_mode": "relaxed",
    }

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimulationParams)]
    )
    def test_every_params_field_changes_key(self, cft_4_3, field):
        """No ``SimulationParams`` field is left out of the key: a run
        that differs in any one knob never hits another's entry."""
        default = getattr(PARAMS, field)
        if isinstance(default, bool):
            other = not default
        elif isinstance(default, int):
            other = default + 1
        else:
            other = self.OTHER_STR[field]
        digest = topology_digest(cft_4_3)
        changed = PARAMS.scaled(**{field: other})
        assert cache_key(digest, "uniform", 0.5, changed, 3) != cache_key(
            digest, "uniform", 0.5, PARAMS, 3
        )

    def test_digest_is_pinned(self):
        """Caches written by earlier releases keep hitting: the key of
        one fixed point is byte-stable."""
        topo, _ = rfc_with_updown(8, 16, 3, rng=7)
        digest = topology_digest(topo)
        assert cache_key(digest, "uniform", 0.5, SimulationParams(), 3) == (
            "83e9251d500c949855a0c6a47fa27e21"
            "3ec872c6ec0f0c7b7f8b557c6a6a38f9"
        )
        # So is the key of a point with a valid fault list.
        links = topo.links()
        assert cache_key(
            digest, "uniform", 0.5, SimulationParams(), 3,
            removed_links=(links[0], links[5]),
        ) == (
            "e093bbbf11429621eaed8604b3c5f193"
            "3bb1b2f6a533a5f6b071bfd35726e908"
        )

    def test_removed_links_order_irrelevant(self, cft_4_3):
        digest = topology_digest(cft_4_3)
        a, b = cft_4_3.links()[:2]
        assert cache_key(
            digest, "uniform", 0.5, PARAMS, 3, removed_links=(a, b)
        ) == cache_key(
            digest, "uniform", 0.5, PARAMS, 3, removed_links=(b, a)
        )

    def test_digest_distinguishes_wirings(self, rfc_small, rfc_medium):
        assert topology_digest(rfc_small) != topology_digest(rfc_medium)


class TestExecutorCaching:
    def test_warm_run_hits_every_point(self, cft_4_3, tmp_path):
        ex = build_executor(workers=1, cache_dir=tmp_path)
        tasks = [_task(cft_4_3, load=load) for load in (0.3, 0.6)]
        cold, cold_report = ex.run_sim_tasks(tasks)
        warm, warm_report = ex.run_sim_tasks(tasks)
        assert cold == warm
        assert cold_report.cache_hits == 0 and cold_report.computed == 2
        assert warm_report.cache_hits == 2 and warm_report.computed == 0

    def test_warm_run_never_calls_simulate(self, cft_4_3, tmp_path,
                                           monkeypatch):
        """The acceptance contract: a warm sweep is simulator-free."""
        ex = build_executor(workers=1, cache_dir=tmp_path)
        tasks = [_task(cft_4_3, load=load) for load in (0.3, 0.6, 0.9)]
        cold, _ = ex.run_sim_tasks(tasks)

        def banned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulate called despite warm cache")

        monkeypatch.setattr(executor_mod, "simulate", banned)
        warm, report = ex.run_sim_tasks(tasks)
        assert warm == cold
        assert report.computed == 0

    def test_warm_replicated_point_never_simulates(self, cft_4_3, tmp_path,
                                                   monkeypatch):
        ex = build_executor(workers=1, cache_dir=tmp_path)
        cold = replicated_point(
            cft_4_3, "uniform", 0.4, PARAMS, replications=3, executor=ex
        )
        monkeypatch.setattr(
            executor_mod, "simulate",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("simulated")),
        )
        warm = replicated_point(
            cft_4_3, "uniform", 0.4, PARAMS, replications=3, executor=ex
        )
        assert cold == warm

    def test_changed_seed_misses(self, cft_4_3, tmp_path):
        ex = build_executor(cache_dir=tmp_path)
        ex.run_sim_tasks([_task(cft_4_3)])
        _, report = ex.run_sim_tasks(
            [_task(cft_4_3, params=PARAMS.scaled(seed=99))]
        )
        assert report.cache_hits == 0 and report.computed == 1

    def test_changed_traffic_seed_misses(self, cft_4_3, tmp_path):
        ex = build_executor(cache_dir=tmp_path)
        ex.run_sim_tasks([_task(cft_4_3)])
        _, report = ex.run_sim_tasks([_task(cft_4_3, traffic_seed=4)])
        assert report.cache_hits == 0 and report.computed == 1

    def test_corrupted_cache_recomputes(self, cft_4_3, tmp_path):
        ex = build_executor(cache_dir=tmp_path)
        task = _task(cft_4_3)
        cold, _ = ex.run_sim_tasks([task])
        for entry in tmp_path.glob("*/*.json"):
            entry.write_text("garbage{{{")
        recomputed, report = ex.run_sim_tasks([task])
        assert report.computed == 1
        assert recomputed == cold
        # ...and the bad entry was repaired in passing.
        _, repaired = ex.run_sim_tasks([task])
        assert repaired.cache_hits == 1

    def test_cacheless_executor_reports_no_hits(self, cft_4_3):
        _, report = Executor(workers=1).run_sim_tasks([_task(cft_4_3)])
        assert report.cache_hits == 0 and report.computed == 1

    def test_cached_results_equal_fresh(self, cft_4_3, tmp_path):
        fresh, _ = Executor().run_sim_tasks([_task(cft_4_3)])
        ex = build_executor(cache_dir=tmp_path)
        ex.run_sim_tasks([_task(cft_4_3)])
        cached, report = ex.run_sim_tasks([_task(cft_4_3)])
        assert report.cache_hits == 1
        # Side channels (metrics, latency_hist, flow_stats) are
        # stripped on the way into the cache; everything that defines
        # the measurement must round-trip bit-for-bit.
        assert cached[0] == fresh[0]
        assert cached[0].core_dict() == fresh[0].core_dict()
