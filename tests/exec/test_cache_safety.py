"""No false cache hits: every result-determining axis moves the key."""

from dataclasses import replace

import numpy as np
import pytest

import repro.exec.sharding as sharding_module
from repro.exec import (
    ResultCache,
    SuiteExecutor,
    plan_shards,
    run_suite,
    shard_key,
    source_fingerprint,
)
from repro.scenarios import (
    AlgorithmSpec,
    DynamicsSpec,
    GraphSpec,
    LoadSpec,
    ProbeSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
    TopologySpec,
)

from tests.exec.factories import canonical_records, make_suite


def _base_scenario() -> Scenario:
    return Scenario(
        graph=GraphSpec("cycle", {"n": 12}),
        algorithm=AlgorithmSpec("send_floor", seed=1),
        loads=LoadSpec("point_mass", {"tokens": 120}),
        stop=StopRule.fixed(20),
        replicas=2,
        probes=(ProbeSpec("load_bounds"),),
    )


def _key(scenario: Scenario) -> str:
    suite = ScenarioSuite((scenario,))
    return shard_key(scenario, plan_shards(suite)[0])


class TestKeySensitivity:
    def test_identical_scenario_identical_key(self):
        assert _key(_base_scenario()) == _key(_base_scenario())

    def test_graph_params_change_key(self):
        changed = replace(
            _base_scenario(), graph=GraphSpec("cycle", {"n": 16})
        )
        assert _key(changed) != _key(_base_scenario())

    def test_load_params_change_key(self):
        changed = replace(
            _base_scenario(),
            loads=LoadSpec("point_mass", {"tokens": 121}),
        )
        assert _key(changed) != _key(_base_scenario())

    def test_algorithm_seed_changes_key(self):
        changed = replace(
            _base_scenario(),
            algorithm=AlgorithmSpec("send_floor", seed=2),
        )
        assert _key(changed) != _key(_base_scenario())

    def test_stop_rule_changes_key(self):
        changed = replace(_base_scenario(), stop=StopRule.fixed(21))
        assert _key(changed) != _key(_base_scenario())

    def test_probe_set_changes_key(self):
        changed = replace(
            _base_scenario(),
            probes=(
                ProbeSpec("load_bounds"),
                ProbeSpec("discrepancy"),
            ),
        )
        assert _key(changed) != _key(_base_scenario())
        params = replace(
            _base_scenario(),
            probes=(ProbeSpec("potentials", {"c_values": [4], "s": 1}),),
        )
        assert _key(params) != _key(_base_scenario())

    def test_dynamics_spec_changes_key(self):
        base = _base_scenario()
        injected = replace(
            base, dynamics=DynamicsSpec("constant_rate", {"rate": 2})
        )
        assert _key(injected) != _key(base)
        other_rate = replace(
            base, dynamics=DynamicsSpec("constant_rate", {"rate": 3})
        )
        assert _key(other_rate) != _key(injected)

    def test_topology_spec_changes_key(self):
        base = _base_scenario()
        churned = replace(
            base, topology=TopologySpec("edge_churn", {"rate": 0.1})
        )
        assert _key(churned) != _key(base)
        other_rate = replace(
            base, topology=TopologySpec("edge_churn", {"rate": 0.2})
        )
        assert _key(other_rate) != _key(churned)
        other_seed = replace(
            base,
            topology=TopologySpec("edge_churn", {"rate": 0.1, "seed": 9}),
        )
        assert _key(other_seed) != _key(churned)
        other_schedule = replace(
            base, topology=TopologySpec("expander_rewire", {"swaps": 1})
        )
        assert _key(other_schedule) != _key(churned)

    def test_package_version_changes_key(self):
        scenario = _base_scenario()
        suite = ScenarioSuite((scenario,))
        shard = plan_shards(suite)[0]
        v1 = shard_key(scenario, shard, version="1.0.0")
        v2 = shard_key(scenario, shard, version="1.0.1")
        assert v1 != v2

    def test_replicas_change_key(self):
        changed = replace(_base_scenario(), replicas=3)
        suite = ScenarioSuite((changed,))
        assert (
            shard_key(changed, plan_shards(suite)[0])
            != _key(_base_scenario())
        )


class TestNonJsonParamsCannotBeCached:
    """Lossy hashing would be a false-hit factory; it must raise.

    str() of a large numpy array truncates to ``[0 1 ... 999]``, so a
    ``default=str`` hashing fallback would assign two different
    scenarios the same key.  Canonical hashing therefore refuses
    non-JSON values outright.
    """

    def _array_scenario(self) -> Scenario:
        return replace(
            _base_scenario(),
            loads=LoadSpec("point_mass", {"tokens": np.arange(2000)}),
        )

    def test_content_hash_refuses_numpy_params(self):
        from repro.scenarios import content_hash

        a = {"w": np.arange(2000)}
        b = {"w": np.concatenate([np.arange(1000), np.arange(1000)])}
        # str(a["w"]) == str(b["w"]) — the exact false-hit trap.
        with pytest.raises(TypeError):
            content_hash(a)
        with pytest.raises(TypeError):
            content_hash(b)

    def test_shard_key_refuses_numpy_params(self):
        scenario = self._array_scenario()
        suite = ScenarioSuite((scenario,))
        with pytest.raises(TypeError):
            shard_key(scenario, plan_shards(suite)[0])

    def test_executor_surfaces_a_clear_error(self, tmp_path):
        suite = ScenarioSuite((self._array_scenario(),))
        with pytest.raises(ValueError, match="cannot be cached"):
            SuiteExecutor(cache=ResultCache(tmp_path)).run(suite)


class TestSourceFingerprint:
    def test_key_depends_on_source_fingerprint(self):
        scenario = _base_scenario()
        suite = ScenarioSuite((scenario,))
        shard = plan_shards(suite)[0]
        a = shard_key(scenario, shard, source="aaa")
        b = shard_key(scenario, shard, source="bbb")
        assert a != b

    def test_fingerprint_tracks_source_contents(self, tmp_path):
        pkg_a = tmp_path / "a"
        pkg_b = tmp_path / "b"
        for pkg in (pkg_a, pkg_b):
            (pkg / "sub").mkdir(parents=True)
            (pkg / "mod.py").write_text("x = 1\n")
            (pkg / "sub" / "other.py").write_text("y = 2\n")
        assert source_fingerprint(pkg_a) == source_fingerprint(pkg_b)
        # ...until one source file changes (fresh root: the
        # fingerprint is cached per root for the process lifetime).
        pkg_c = tmp_path / "c"
        (pkg_c / "sub").mkdir(parents=True)
        (pkg_c / "mod.py").write_text("x = 1  # bugfix\n")
        (pkg_c / "sub" / "other.py").write_text("y = 2\n")
        assert source_fingerprint(pkg_c) != source_fingerprint(pkg_a)

    def test_source_edit_invalidates_cached_results(
        self, tmp_path, monkeypatch
    ):
        suite = make_suite()
        cache = ResultCache(tmp_path)
        first = run_suite(suite, cache=cache)
        assert first.computed == len(first.shards)
        # Simulate "the developer edited repro/ without bumping the
        # version": the fingerprint moves, so nothing hits.
        monkeypatch.setattr(
            sharding_module,
            "source_fingerprint",
            lambda root=None: "post-edit-fingerprint",
        )
        again = run_suite(suite, cache=cache)
        assert again.cached == 0
        assert again.computed == len(again.shards)


class TestGraphOverrideNeverPoisonsTheCache:
    def test_override_computed_shards_are_not_stored(self, tmp_path):
        spec = GraphSpec("cycle", {"n": 12})
        suite = ScenarioSuite(
            tuple(
                Scenario(
                    graph=spec,
                    algorithm=AlgorithmSpec(name, seed=1),
                    loads=LoadSpec("point_mass", {"tokens": 120}),
                    stop=StopRule.fixed(15),
                )
                for name in ("send_floor", "rotor_router")
            )
        )
        cache = ResultCache(tmp_path)
        report = SuiteExecutor(cache=cache).run(
            suite, graph=spec.build()
        )
        assert len(report.outcomes) == 2
        # The cache key can only attest spec-built graphs, so nothing
        # computed against the caller's object may be persisted...
        assert len(cache) == 0
        # ...and an override-free rerun computes (and then caches).
        clean = SuiteExecutor(cache=cache).run(suite)
        assert clean.cached == 0
        assert clean.computed == 2
        assert len(cache) == 2
        # The bypass is symmetric: a warm cache must not serve entries
        # to an override run either (a stored spec-built result says
        # nothing about the caller's graph object).
        override_again = SuiteExecutor(cache=cache).run(
            suite, graph=spec.build()
        )
        assert override_again.cached == 0
        assert override_again.computed == 2


class TestScopedCacheOptOut:
    def test_configure_cache_false_under_ambient_cache(self, tmp_path):
        from repro.exec import configure

        suite = make_suite()
        with configure(cache=tmp_path):
            with configure(cache=False):
                outcomes = suite.run()
            assert len(outcomes) == len(suite)
        cache = ResultCache(tmp_path)
        assert len(cache) == 0, "configure(cache=False) must opt the block out"


class TestExecutorNeverTrustsDamage:
    def test_corrupted_entries_are_recomputed(self, tmp_path):
        suite = make_suite()
        cache = ResultCache(tmp_path)
        first = SuiteExecutor(cache=cache).run(suite)
        expected = canonical_records(first.outcomes)
        assert first.computed == len(first.shards)

        # Damage every stored entry in a different way.
        keys = cache.keys()
        paths = [cache.path_for(key) for key in keys]
        paths[0].write_text("")  # empty
        lines = paths[1].read_text().splitlines()
        paths[1].write_text("\n".join(lines[:-1]) + "\n")  # truncated
        content = paths[2].read_text()
        paths[2].write_text(content[:-40])  # torn json
        paths[3].write_text("not json at all\n")

        again = SuiteExecutor(cache=cache).run(suite)
        assert again.cached == 0
        assert again.computed == len(again.shards)
        assert canonical_records(again.outcomes) == expected
        assert cache.stats.corrupt == 4

        # And the rewritten entries serve the third run entirely.
        third = SuiteExecutor(cache=cache).run(suite)
        assert third.computed == 0
        assert canonical_records(third.outcomes) == expected


class TestCacheWriteFailureIsANoOp:
    """A failing disk degrades the cache to a miss, never the run."""

    def _records(self):
        suite = ScenarioSuite((_base_scenario(),))
        report = run_suite(suite)
        return report.outcomes[0].records

    def test_put_oserror_is_logged_not_raised(
        self, tmp_path, monkeypatch, caplog
    ):
        import repro.exec.cache as cache_module

        records = self._records()
        cache = ResultCache(tmp_path)

        def broken_write(rows, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module, "write_jsonl", broken_write)
        with caplog.at_level("WARNING", logger="repro.exec.cache"):
            assert cache.put("ab" * 32, records) is None
        assert cache.stats.write_errors == 1
        assert cache.stats.writes == 0
        assert "cache write failed" in caplog.text
        # The failed write left nothing behind — not even a temp file.
        assert list(tmp_path.rglob("*")) in ([], [tmp_path / "ab"])
        assert cache.get("ab" * 32) is None

    def test_executor_survives_a_read_only_cache(
        self, tmp_path, monkeypatch, serial_records
    ):
        import repro.exec.cache as cache_module

        suite = make_suite()
        cache = ResultCache(tmp_path / "cache")

        def broken_write(rows, path):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(cache_module, "write_jsonl", broken_write)
        report = SuiteExecutor(cache=cache).run(suite)
        assert canonical_records(report.outcomes) == serial_records
        assert report.computed == len(report.shards)
        assert cache.stats.write_errors == len(report.shards)

        # Once the disk heals, the next run recomputes and persists.
        monkeypatch.undo()
        again = SuiteExecutor(cache=cache).run(suite)
        assert again.cached == 0
        assert again.computed == len(again.shards)
        assert len(cache) == len(again.shards)
        third = SuiteExecutor(cache=cache).run(suite)
        assert third.computed == 0
        assert canonical_records(third.outcomes) == serial_records
