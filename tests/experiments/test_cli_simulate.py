"""Tests for the ``repro-lb simulate`` subcommand."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(
            [
                "simulate",
                "rotor_router",
                "--family",
                "cycle",
                "--n",
                "16",
                "--rounds",
                "200",
                "--tokens-per-node",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycle(n=16)" in out
        assert "discrepancy 128 ->" in out

    def test_default_rounds_from_horizon(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "complete",
                "--n",
                "12",
                "--tokens-per-node",
                "4",
            ]
        )
        assert code == 0
        assert "rounds:" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "rotor_router_star",
                "--family",
                "torus",
                "--n",
                "16",
                "--rounds",
                "50",
                "--csv",
                str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,discrepancy"
        assert len(lines) == 52  # header + 51 boundary values

    def test_self_loops_flag(self, capsys):
        code = main(
            [
                "simulate",
                "rotor_router",
                "--family",
                "cycle",
                "--n",
                "12",
                "--self-loops",
                "4",
                "--rounds",
                "20",
            ]
        )
        assert code == 0
        assert "d+=6" in capsys.readouterr().out

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            main(["simulate", "quantum_annealer", "--n", "8"])


class TestScenarioCommand:
    def _write_suite(self, tmp_path):
        import json

        from repro.scenarios import (
            AlgorithmSpec,
            GraphSpec,
            LoadSpec,
            Scenario,
            ScenarioSuite,
            StopRule,
        )

        suite = ScenarioSuite.cartesian(
            graphs=GraphSpec("cycle", {"n": 12}),
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("rotor_router"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(30),
            replicas=2,
            name="cli-sweep",
        )
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite.to_dict()))
        return path

    def test_suite_file_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._write_suite(tmp_path)
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "send_floor @ cycle" in out
        assert "rotor_router @ cycle" in out

    def test_workers_cache_resume_acceptance(
        self, tmp_path, capsys, monkeypatch
    ):
        """The PR's acceptance path, end to end through the CLI.

        ``--workers 4`` must produce byte-identical RunRecords to the
        serial run, a second invocation must complete from cache with
        zero scenario executions, and ``--resume`` on a partially
        populated cache must recompute only the missing shards.
        """
        monkeypatch.chdir(tmp_path)
        path = self._write_suite(tmp_path)
        base = [
            "scenario", str(path), "--cache-dir", str(tmp_path / "c"),
        ]
        assert main(
            ["scenario", str(path), "--no-cache",
             "--records-jsonl", str(tmp_path / "serial.jsonl")]
        ) == 0
        capsys.readouterr()
        assert main(
            base + ["--workers", "4",
                    "--records-jsonl", str(tmp_path / "parallel.jsonl")]
        ) == 0
        assert "2 shards: 2 computed, 0 cached (workers=4)" in (
            capsys.readouterr().out
        )
        assert (tmp_path / "parallel.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()

        # Second invocation: zero scenario executions.
        assert main(
            base + ["--workers", "4",
                    "--records-jsonl", str(tmp_path / "cached.jsonl")]
        ) == 0
        assert "2 shards: 0 computed, 2 cached" in (
            capsys.readouterr().out
        )
        assert (tmp_path / "cached.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()

        # Interrupted run: drop one shard's entry, resume recomputes
        # only that shard.
        from repro.exec import ResultCache

        cache = ResultCache(tmp_path / "c")
        victim = cache.keys()[0]
        cache.path_for(victim).unlink()
        assert main(base + ["--resume"]) == 0
        assert "2 shards: 1 computed, 1 cached" in (
            capsys.readouterr().out
        )

    def test_resume_requires_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._write_suite(tmp_path)
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["scenario", str(path), "--no-cache", "--resume"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"graph": 3}', "scenario is missing the field 'algorithm'"),
            ("[1, 2]", "scenario must be a JSON object"),
            ('{"scenarios": {}}', "suite scenarios must be a JSON list"),
            ("{not json", "Expecting property name"),
        ],
    )
    def test_malformed_file_is_one_line_and_exit_2(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario: {path}: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_single_scenario_file_and_json_output(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        import json

        from repro.scenarios import (
            AlgorithmSpec,
            GraphSpec,
            LoadSpec,
            Scenario,
            StopRule,
        )

        scenario = Scenario(
            graph=GraphSpec("complete", {"n": 8}),
            algorithm=AlgorithmSpec("send_rounded"),
            loads=LoadSpec("point_mass", {"tokens": 80}),
            stop=StopRule.fixed(20),
        )
        spec_path = tmp_path / "one.json"
        spec_path.write_text(json.dumps(scenario.to_dict()))
        out_path = tmp_path / "rows.json"
        code = main(
            ["scenario", str(spec_path), "--json", str(out_path)]
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 1
        assert rows[0]["final_discrepancy"] <= 80

    def test_sends_probes_on_replicas_match_per_replica_runs(
        self, tmp_path, capsys
    ):
        import json

        from repro.scenarios import (
            AlgorithmSpec,
            GraphSpec,
            LoadSpec,
            ProbeSpec,
            Scenario,
            StopRule,
        )
        from tests.helpers import run_per_replica

        scenario = Scenario(
            graph=GraphSpec("cycle", {"n": 12}),
            algorithm=AlgorithmSpec("send_floor"),
            loads=LoadSpec(
                "uniform_random", {"total_tokens": 240, "seed": 5}
            ),
            stop=StopRule.discrepancy(target=3, max_rounds=60),
            replicas=3,
            probes=(ProbeSpec("flows"), ProbeSpec("fairness")),
        )
        spec_path = tmp_path / "sends.json"
        spec_path.write_text(json.dumps(scenario.to_dict()))
        out_path = tmp_path / "rows.json"
        code = main(
            [
                "scenario", str(spec_path), "--no-cache",
                "--json", str(out_path),
            ]
        )
        assert code == 0
        reference = run_per_replica(scenario)
        want = [
            {
                "scenario": scenario.label(),
                "replica": replica,
                **reference.replica_summary(replica),
            }
            for replica in range(3)
        ]
        assert json.loads(out_path.read_text()) == json.loads(
            json.dumps(want, default=str)
        )

    @pytest.mark.parametrize(
        "cache_args", [[], ["--cache-dir", "custom-cache"], ["--no-cache"]],
        ids=["default-cache", "cache-dir", "no-cache"],
    )
    def test_failure_prints_one_resume_hint(
        self, tmp_path, capsys, monkeypatch, cache_args
    ):
        import json

        from repro.scenarios import (
            AlgorithmSpec,
            GraphSpec,
            LoadSpec,
            Scenario,
            ScenarioSuite,
            StopRule,
        )

        monkeypatch.chdir(tmp_path)
        good, bad = (
            Scenario(
                graph=GraphSpec("cycle", {"n": 12}),
                algorithm=AlgorithmSpec(name),
                loads=LoadSpec("point_mass", {"tokens": 120}),
                stop=StopRule.fixed(10),
            )
            for name in ("send_floor", "no_such_algorithm")
        )
        path = tmp_path / "poisoned.json"
        path.write_text(json.dumps(ScenarioSuite((good, bad)).to_dict()))
        assert main(["scenario", str(path), *cache_args]) == 1
        err = capsys.readouterr().err
        assert "1 of 2 shards failed" in err
        hints = [
            line for line in err.splitlines()
            if line.startswith("resume with:")
        ]
        if "--no-cache" in cache_args:
            assert hints == []
            return
        command = f"resume with: repro-lb scenario {path} --resume"
        if cache_args:
            command += " --cache-dir custom-cache"
        assert hints == [command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "SUITE", "--no-cache", "--workers", "0"],
            ["--workers", "0", "scenario", "SUITE", "--no-cache"],
            ["run", "E1", "--workers", "0"],
            ["--workers", "0"],
        ],
        ids=["scenario", "global-scenario", "run", "battery"],
    )
    def test_workers_zero_is_rejected(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        path = str(self._write_suite(tmp_path))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            main([path if arg == "SUITE" else arg for arg in argv])

    def test_replicas_flag(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "40",
                "--replicas",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replicas:   3, final discrepancy" in out


class TestSimulateProbes:
    def test_probe_by_name(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "20",
                "--probe",
                "load_bounds",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "min_load: 0" in out

    def test_probe_with_json_params(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "20",
                "--probe",
                'potentials:{"c_values": [4], "s": 1}',
            ]
        )
        assert code == 0
        assert "potentials_monotone" in capsys.readouterr().out

    def test_probe_with_replicas_stays_batched(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "20",
                "--replicas",
                "3",
                "--probe",
                "load_bounds",
            ]
        )
        assert code == 0
        assert "replicas:   3, final discrepancy" in capsys.readouterr().out

    def test_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "10",
                "--probe",
                "discrepancy",
                "--trace-csv",
                str(path),
            ]
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header.startswith("round,")
        assert "discrepancy" in header

    def test_list_probes(self, capsys):
        code = main(["simulate", "--list-probes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "load_bounds" in out
        assert "flows" in out

    def test_missing_algorithm_errors(self):
        with pytest.raises(SystemExit, match="algorithm"):
            main(["simulate"])


class TestSimulateDynamics:
    def test_inject_by_name_with_params(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "cycle",
                "--n",
                "12",
                "--rounds",
                "30",
                "--inject",
                'constant_rate:{"rate": 4, "seed": 2}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamics:   constant_rate" in out
        assert "tokens_injected: 120" in out

    def test_inject_composes_with_probes_and_replicas(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "torus",
                "--n",
                "16",
                "--rounds",
                "20",
                "--replicas",
                "3",
                "--probe",
                "load_bounds",
                "--inject",
                'random_churn:{"rate": 8, "seed": 1}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replicas:   3, final discrepancy" in out
        assert "tokens_departed" in out
        assert "min_load" in out

    def test_list_injectors(self, capsys):
        code = main(["simulate", "--list-injectors"])
        assert code == 0
        out = capsys.readouterr().out
        for name in (
            "constant_rate",
            "batch_arrivals",
            "adversarial_peak",
            "random_churn",
            "scripted",
        ):
            assert name in out

    def test_scenario_file_with_dynamics(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        import json

        from repro.scenarios import (
            AlgorithmSpec,
            DynamicsSpec,
            GraphSpec,
            LoadSpec,
            Scenario,
            StopRule,
        )

        scenario = Scenario(
            graph=GraphSpec("cycle", {"n": 12}),
            algorithm=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(25),
            replicas=2,
            dynamics=DynamicsSpec(
                "batch_arrivals",
                {"tokens": 10, "period": 5, "seed": 1},
            ),
        )
        path = tmp_path / "dynamic.json"
        path.write_text(json.dumps(scenario.to_dict()))
        out_path = tmp_path / "rows.json"
        assert (
            main(["scenario", str(path), "--json", str(out_path)]) == 0
        )
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert all(row["tokens_injected"] == 50 for row in rows)
        assert "batch_arrivals" in capsys.readouterr().out


class TestSimulateDatacenter:
    def test_list_families(self, capsys):
        code = main(["simulate", "--list-families"])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered graph families:" in out
        for name in ("cycle", "torus", "fat_tree", "leaf_spine"):
            assert name in out

    def test_fat_tree_with_traffic_and_tier_probe(self, capsys):
        code = main(
            [
                "simulate",
                "send_floor",
                "--family",
                "fat_tree",
                "--n",
                "16",
                "--rounds",
                "40",
                "--probe",
                "tier_loads",
                "--inject",
                'poisson_arrivals:{"rate": 0.5, "seed": 3}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fat_tree(k=4)" in out
        assert "dynamics:   poisson_arrivals" in out
        assert "p99_load" in out
        assert "tier_host_mean_load" in out

    def test_leaf_spine_with_hotspot_traffic(self, capsys):
        code = main(
            [
                "simulate",
                "rotor_router",
                "--family",
                "leaf_spine",
                "--n",
                "12",
                "--rounds",
                "30",
                "--inject",
                'hotspot_shift:{"rate": 6, "shift_every": 5, "seed": 1}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "leaf_spine(" in out
        assert "tokens_injected: 180" in out
