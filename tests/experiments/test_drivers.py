"""Smoke + shape tests for every experiment driver (tiny configs).

These are the reproduction's acceptance tests: each driver must run and
its rows must satisfy the qualitative predictions recorded in DESIGN.md
(loads invariant, fixed points, period-2, monotone potentials, bounds
respected).
"""

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import (  # noqa: E402
    AblationConfig,
    LowerBoundConfig,
    Table1Config,
    Theorem23Config,
    Theorem33Config,
    run_cycle_sweep,
    run_engine_throughput,
    run_expander_sweep,
    run_good_balancers,
    run_minimal_selfloop_sweep,
    run_potential_monotonicity,
    run_rotor_alternating,
    run_selfloop_ablation,
    run_stateless,
    run_steady_state,
    run_table1,
)


TINY_23 = Theorem23Config(
    expander_sizes=(32, 64),
    expander_degree=4,
    cycle_sizes=(9, 17),
    tokens_per_node=16,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(
            Table1Config(n=32, degree=4, tokens_per_node=16)
        )

    def test_all_algorithms_present(self, result):
        from repro.algorithms.registry import all_names

        assert {row["algorithm"] for row in result.rows} == set(
            all_names()
        )

    def test_everyone_balances_below_prediction_scale(self, result):
        for row in result.rows:
            assert row["disc_after_T"] <= 10 * row["predicted"]

    def test_deterministic_flags_match_registry(self, result):
        from repro.algorithms.registry import make

        for row in result.rows:
            expected = make(row["algorithm"]).properties.deterministic
            assert row["D"] == expected

    def test_paper_algorithms_never_negative(self, result):
        for row in result.rows:
            if row["algorithm"] in (
                "send_floor",
                "send_rounded",
                "rotor_router",
                "rotor_router_star",
            ):
                assert row["NL"] is True

    def test_renders(self, result):
        assert "disc_after_T" in result.to_text()
        assert result.to_markdown().startswith("### E1")
        assert '"experiment_id": "E1"' in result.to_json()


class TestTheorem23:
    def test_expander_rows_bounded(self):
        result = run_expander_sweep(TINY_23)
        for row in result.rows:
            for name in TINY_23.algorithms:
                assert row[name] <= row["bound_i"]

    def test_cycle_rows_bounded_and_worst_case_linear(self):
        result = run_cycle_sweep(TINY_23)
        for row in result.rows:
            for name in TINY_23.algorithms:
                assert row[name] <= row["bound_ii(d*sqrt n)"]
            assert row["worst_case_d0"] >= row["n"]
        fits = result.metadata["fits"]
        assert fits["worst_case_d0"]["slope"] > 0.8

    def test_minimal_selfloops_bounded(self):
        result = run_minimal_selfloop_sweep(TINY_23)
        for row in result.rows:
            for name in TINY_23.algorithms:
                assert row[name] <= row["bound_iii"]


class TestTheorem33:
    def test_all_rows_reach_bound(self):
        config = Theorem33Config(
            n=32, degree=4, tokens_per_node=16, s_values=(1, 2, 4)
        )
        result = run_good_balancers(config)
        assert result.rows
        for row in result.rows:
            assert row["reached_bound"]

    def test_potentials_monotone(self):
        config = Theorem33Config(n=32, degree=4, tokens_per_node=16)
        result = run_potential_monotonicity(config, rounds=120)
        for row in result.rows:
            assert row["phi_monotone"]
            assert row["phi_prime_monotone"]


class TestLowerBounds:
    CONFIG = LowerBoundConfig(
        run_rounds=30,
        cycle_n=12,
        torus_side=4,
        stateless_n=32,
        stateless_degree=8,
        odd_cycle_n=11,
    )

    def test_steady_state_rows(self):
        result = run_steady_state(self.CONFIG)
        for row in result.rows:
            assert row["loads_invariant"]
            assert row["discrepancy"] >= row["predicted d*(diam-1)"]
            assert row["flow_spread(<=1)"] <= 1

    def test_stateless_rows(self):
        result = run_stateless(self.CONFIG)
        for row in result.rows:
            assert row["fixed_point"]

    def test_rotor_alternating_rows(self):
        result = run_rotor_alternating(self.CONFIG)
        for row in result.rows:
            assert row["alternates(period2)"]
            assert row["detected_period"] == 2
            assert row["discrepancy"] >= row["predicted d*phi"]


class TestAblations:
    def test_selfloop_ablation_shape(self):
        result = run_selfloop_ablation(
            AblationConfig(n=32, degree=4, tokens_per_node=16, cycle_n=9)
        )
        families = {row["family"] for row in result.rows}
        assert families == {"expander", "odd_cycle"}
        zero_rows = [row for row in result.rows if row["d_self"] == 0]
        assert all(
            row["worst_case_stuck"] is not None for row in zero_rows
        )

    def test_throughput_rows(self):
        result = run_engine_throughput(n=64, degree=4, rounds=20)
        assert len(result.rows) >= 5
        for row in result.rows:
            assert row["rounds_per_sec"] > 0


class TestDynamicSteadyState:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import (
            DynamicSteadyStateConfig,
            run_dynamic_steady_state,
        )

        return run_dynamic_steady_state(
            DynamicSteadyStateConfig(
                n=16,
                rounds=80,
                tail_window=20,
                rates=(0, 4, 16),
                replicas=2,
            )
        )

    def test_covers_four_families_and_all_rates(self, result):
        families = {row["family"] for row in result.rows}
        assert families == {
            "cycle",
            "torus",
            "hypercube",
            "random_regular",
        }
        assert {row["rate"] for row in result.rows} == {0, 4, 16}

    def test_static_baseline_injects_nothing(self, result):
        for row in result.rows:
            if row["rate"] == 0:
                assert row["injector"] == "static"
                assert row["tokens_injected_mean"] == 0
            else:
                assert row["tokens_injected_mean"] == row["rate"] * 80

    def test_steady_state_grows_with_adversarial_rate(self, result):
        for family in ("cycle", "torus"):
            rows = {
                row["rate"]: row["steady_state"]
                for row in result.rows
                if row["family"] == family
                and row["algorithm"] == "send_floor"
                and row["injector"] in ("static", "adversarial_peak")
            }
            assert rows[16] > rows[4] > rows[0]

    def test_adversary_no_easier_than_random_arrivals(self, result):
        for row in result.rows:
            if row["injector"] != "adversarial_peak" or row["rate"] < 16:
                continue
            twin = next(
                r
                for r in result.rows
                if r["family"] == row["family"]
                and r["algorithm"] == row["algorithm"]
                and r["injector"] == "constant_rate"
                and r["rate"] == row["rate"]
            )
            assert row["steady_state"] >= twin["steady_state"]


class TestDatacenterServing:
    @staticmethod
    def _run():
        from repro.experiments import (
            DatacenterServingConfig,
            run_datacenter_serving,
        )

        return run_datacenter_serving(
            DatacenterServingConfig(
                fat_tree_k=4,
                leaves=4,
                spines=2,
                hosts_per_leaf=3,
                rounds=80,
                tail_window=20,
                offered_loads=(1.0, 8.0),
                traffic_models=(
                    "poisson_arrivals",
                    "pareto_flows",
                    "hotspot_shift",
                ),
                algorithms=("send_floor",),
                replicas=2,
            )
        )

    @pytest.fixture(scope="class")
    def result(self):
        return self._run()

    def test_grid_is_complete(self, result):
        assert {row["fabric"] for row in result.rows} == {
            "fat_tree",
            "leaf_spine",
        }
        assert {row["traffic"] for row in result.rows} == {
            "poisson_arrivals",
            "pareto_flows",
            "hotspot_shift",
        }
        assert len(result.rows) == 2 * 3 * 2  # fabrics x models x loads

    def test_percentiles_are_ordered(self, result):
        for row in result.rows:
            assert 0 <= row["p99_load"] <= row["peak_load"]

    def test_injection_grows_with_offered_load(self, result):
        for fabric in ("fat_tree", "leaf_spine"):
            for model in ("poisson_arrivals", "hotspot_shift"):
                injected = {
                    row["offered"]: row["tokens_injected_mean"]
                    for row in result.rows
                    if row["fabric"] == fabric
                    and row["traffic"] == model
                }
                assert injected[8.0] > injected[1.0] > 0

    def test_rows_match_per_replica_simulators(self, result, monkeypatch):
        from repro.scenarios import ScenarioSuite
        from tests.helpers import run_per_replica

        monkeypatch.setattr(
            ScenarioSuite,
            "run",
            lambda suite, *args, **kwargs: [
                run_per_replica(scenario) for scenario in suite
            ],
        )
        assert self._run().rows == result.rows

    def test_renders(self, result):
        assert "steady_state" in result.to_text()
        assert '"experiment_id": "E16"' in result.to_json()
