"""The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.

Every workload runs at toy size through the real launcher, in fresh
processes, exactly as a benchmark run would.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_trace import layer_totals, self_times  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, *, seed=0, trace=0, extra=(), cwd=ROOT,
              script=HERE / "run.py"):
    done = subprocess.run(
        [
            sys.executable, str(script), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
            "--size", "toy", *extra,
        ],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed=0, trace=0):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = run_bench(workload, seed=seed, trace=trace)
        return cache[key]

    return get


def test_benchmark_json_matches_the_launcher():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    } == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    detail, result = runs(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == expected
    if not trace:
        assert all(
            entry["value"] > 0 for entry in result["metrics"].values()
        )
        assert min(detail["samples"].values()) >= 100
    assert detail["failed_frac"] == 0
    assert detail["context"]["seed"] == 0
    assert {"nproc", "python", "numpy", "scipy", "numba", "git_sha",
            "source_fingerprint"} <= set(detail["context"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_digests_unchanged(runs, workload):
    detail, result = runs(workload, trace=1)
    assert detail["traced_passes"] >= 1
    assert detail["traced_digests_match"] is True
    assert result["failed"] == 0
    coverage = result["metrics"]["trace.self_coverage"]["value"]
    assert 0.95 <= coverage <= 1.05


def test_topology_counters_split_the_stepped_workloads(runs):
    _, cycle = runs("cycle_1m", trace=1)
    _, fabric = runs("fabric_churn", trace=1)
    for name in ("topology.edges_changed", "topology.dirty_nodes",
                 "dynamics.tokens_injected"):
        assert cycle["metrics"][name]["value"] == 0
        assert fabric["metrics"][name]["value"] > 0


def test_tampered_reference_counts_as_failures(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    key = "cycle_1m/toy/0"
    first = sorted(pins[key])[0]
    pins[key][first] = "0" * 64
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    detail, result = run_bench(
        "cycle_1m", extra=("--pins", str(tampered))
    )
    assert result["correct"] is False
    assert result["failed"] > 0
    assert detail["failed_frac"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(runs, workload):
    detail0, result0 = runs(workload, seed=0)
    detail1, result1 = runs(workload, seed=1)
    assert detail0["inputs_digest"] != detail1["inputs_digest"]
    assert list(result0["metrics"]) == list(result1["metrics"])
    assert detail1["reference"] == "computed"
    assert result1["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_pins_match_a_fresh_reference(workload):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "workload.py"), "reference",
            "--workload", workload, "--seed", "0", "--size", "toy",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    reference = json.loads(done.stdout.strip().splitlines()[-1])
    pins = json.loads((HERE / "pins.json").read_text())
    assert reference["reference"] == pins[f"{workload}/toy/0"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "cycle_1m",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0, 100, -1],
        ["child", 10, 40, 0],
        ["grandchild", 20, 30, 1],
        ["child", 50, 90, 0],
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    totals = layer_totals(spans)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["total_s"] == pytest.approx(70e-9)
    assert totals["child"]["self_s"] == pytest.approx(60e-9)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        100e-9
    )
