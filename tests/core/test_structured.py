"""Unit tests for the structured-sends protocol and engines."""

import re
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.algorithms.rotor_router import RotorRouter
from repro.algorithms.send_floor import SendFloor
from repro.core.engine import Simulator
from repro.core.errors import InvalidSendMatrix, NegativeLoadError
from repro.core.structured import (
    RotorWindow,
    StructuredRound,
    inflow_gather,
    rotor_gather,
)
from repro.graphs import MutableBalancingGraph, families
from repro.graphs.datacenter import fat_tree, leaf_spine

STRUCTURED_ALGORITHMS = ["send_floor", "send_rounded", "rotor_router"]


def _loads_for(graph, seed=7, high=200):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, graph.num_nodes).astype(np.int64)


class TestToDenseParity:
    """sends_structured().to_dense() == sends(), bit for bit, per round."""

    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_multi_round_parity(self, expander24, algorithm):
        dense_balancer = make(algorithm).bind(expander24)
        structured_balancer = make(algorithm).bind(expander24)
        loads = _loads_for(expander24)
        for t in range(1, 8):
            dense = dense_balancer.sends(loads, t)
            compact = structured_balancer.sends_structured(loads, t)
            np.testing.assert_array_equal(
                compact.to_dense(expander24), dense
            )
            # Advance via an independent simulator so both balancers
            # see the same trajectory.
            loads = Simulator(
                expander24, make(algorithm), loads, engine="dense"
            ).step()

    def test_no_self_loops_floor(self):
        graph = families.cycle(9, num_self_loops=0)
        balancer = make("send_floor").bind(graph)
        loads = _loads_for(graph)
        compact = balancer.sends_structured(loads, 1)
        assert compact.loop_base is None
        assert compact.window is None
        np.testing.assert_array_equal(
            compact.to_dense(graph), balancer.sends(loads, 1)
        )
        # The excess x mod d+ stays put as the remainder.
        remainder = compact.remainder(graph, loads)
        np.testing.assert_array_equal(remainder, loads % graph.degree)

    def test_rotor_custom_orders_and_rotors(self):
        graph = families.cycle(12)
        rng = np.random.default_rng(5)
        orders = np.stack(
            [rng.permutation(graph.total_degree) for _ in range(12)]
        )
        rotors = rng.integers(0, graph.total_degree, 12)
        dense_balancer = RotorRouter(orders, rotors).bind(graph)
        structured_balancer = RotorRouter(orders, rotors).bind(graph)
        loads = _loads_for(graph)
        dense = dense_balancer.sends(loads, 1)
        compact = structured_balancer.sends_structured(loads, 1)
        np.testing.assert_array_equal(compact.to_dense(graph), dense)
        np.testing.assert_array_equal(
            dense_balancer.rotors, structured_balancer.rotors
        )


def _window(balancer, graph):
    """The balancer's rotor window (an all-zero round moves no rotor)."""
    loads = np.zeros(graph.num_nodes, dtype=np.int64)
    return balancer.sends_structured(loads, 1).window


class TestRotorGatherAlias:
    """The rotor gather's ``indices`` *are* ``reverse_flat``.

    In-place churn repair of ``reverse_flat`` is what keeps the gather
    operator current; a copy (say, a scipy upgrade that re-casts the
    index array on assignment) would go silently stale under churn.
    """

    def _mutable(self):
        return MutableBalancingGraph.from_graph(
            families.cycle(12, num_self_loops=2)
        )

    def test_shared_after_bind_and_after_dirty_repair(self):
        graph = self._mutable()
        structured = RotorRouter().bind(graph)
        dense = RotorRouter().bind(graph)
        window = _window(structured, graph)
        assert np.shares_memory(window.gather.indices, window.reverse_flat)
        graph.drop_edge(1, 2)
        graph.drop_edge(5, 6)
        graph.add_edge(1, 5)
        graph.add_edge(2, 6)
        dirty = graph.consume_dirty()
        structured.refresh_topology(graph, dirty)
        dense.refresh_topology(graph, dirty)
        assert structured.refresh_full == 0
        loads = _loads_for(graph)
        for t in range(1, 6):
            compact = structured.sends_structured(loads, t)
            window = compact.window
            assert np.shares_memory(
                window.gather.indices, window.reverse_flat
            )
            sends = dense.sends(loads, t)
            # Self-loop tokens and the remainder stay put.
            want = (
                loads
                - sends[:, : graph.degree].sum(axis=1)
                + sends[graph.adjacency, graph.reverse_port].sum(axis=1)
            )
            loads = compact.apply(graph, loads)
            np.testing.assert_array_equal(loads, want)

    def test_full_refresh_rebuilds_a_shared_operator(self):
        graph = self._mutable()
        balancer = RotorRouter().bind(graph)
        before = _window(balancer, graph).gather
        balancer.refresh_topology(graph, None)
        window = _window(balancer, graph)
        assert window.gather is not before
        assert np.shares_memory(window.gather.indices, window.reverse_flat)

    def test_default_port_order_is_one_broadcast_row(self):
        graph = families.cycle(12, num_self_loops=2)
        window = _window(RotorRouter().bind(graph), graph)
        assert window.positions.strides[0] == 0
        orders = np.tile(np.arange(graph.total_degree), (12, 1))
        custom = _window(RotorRouter(port_orders=orders).bind(graph), graph)
        assert custom.positions.strides[0] != 0


class TestInflowGather:
    """The per-graph inflow operator and its aliases.

    Its ``indices`` *are* the graph's adjacency, and the rotor gather
    borrows its ``data``/``indptr``; in-place churn must keep both
    operators current without a rebuild.
    """

    def _churned(self):
        graph = MutableBalancingGraph.from_graph(
            families.cycle(12, num_self_loops=2)
        )
        return graph, inflow_gather(graph)

    def _churn(self, graph):
        graph.drop_edge(1, 2)
        graph.drop_edge(5, 6)
        graph.add_edge(1, 5)
        graph.add_edge(2, 6)
        return graph.consume_dirty()

    def test_indices_alias_adjacency_after_drop_and_add(self):
        graph, inflow = self._churned()
        assert np.shares_memory(inflow.indices, graph.adjacency)
        self._churn(graph)
        assert inflow_gather(graph) is inflow
        assert np.shares_memory(inflow.indices, graph.adjacency)
        share = _loads_for(graph, seed=11)
        np.testing.assert_array_equal(
            inflow @ share, np.take(share, graph.adjacency).sum(axis=1)
        )

    def test_one_operator_per_graph(self):
        first = families.cycle(12)
        second = families.cycle(12)
        assert inflow_gather(first) is inflow_gather(first)
        assert inflow_gather(first) is not inflow_gather(second)

    def test_rotor_gather_shares_data_and_indptr(self):
        graph, inflow = self._churned()
        gather = RotorRouter().bind(graph)._gather
        assert np.shares_memory(gather.data, inflow.data)
        assert np.shares_memory(gather.indptr, inflow.indptr)
        assert not np.shares_memory(gather.indices, inflow.indices)

    @pytest.mark.parametrize("algorithm", ["send_floor", "send_rounded"])
    def test_send_structured_matches_dense_after_churn(self, algorithm):
        graph, _ = self._churned()
        structured = make(algorithm).bind(graph)
        dense = make(algorithm).bind(graph)
        single = _loads_for(graph)
        stacked = np.stack([single, _loads_for(graph, seed=8)])
        for t in range(1, 7):
            if t == 3:
                dirty = self._churn(graph)
                structured.refresh_topology(graph, dirty)
                dense.refresh_topology(graph, dirty)
            advanced = []
            for loads in (single, stacked):
                sends = dense.sends(loads, t)
                want = (
                    loads
                    - sends[..., : graph.degree].sum(axis=-1)
                    + sends[..., graph.adjacency, graph.reverse_port].sum(
                        axis=-1
                    )
                )
                got = structured.sends_structured(loads, t).apply(
                    graph, loads
                )
                np.testing.assert_array_equal(got, want)
                advanced.append(got)
            single, stacked = advanced


# Default-order graphs with d+² <= n, so the rotor builds its window
# tables: d° = d, the Theorem 4.3 setting d° = 0, and a padded fabric.
TABLE_GRAPHS = {
    "cycle": lambda: families.cycle(32),
    "hypercube_no_loops": lambda: families.hypercube(5, num_self_loops=0),
    "fat_tree": lambda: fat_tree(16),
}


class TestRotorWindowTables:
    """Per-state lookups equal the ``(positions - rotors) % d+`` formula."""

    @pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
    def test_every_state_matches_modulo_formula(self, name):
        graph = TABLE_GRAPHS[name]()
        d_plus = graph.total_degree
        degree = graph.degree
        bound = _window(RotorRouter().bind(graph), graph)
        assert bound.tables is not None
        assert bound.tables.hits.shape == (d_plus * d_plus, degree)
        assert bound.tables.hits.dtype == bool
        # n >= d+², so tiling the states over the nodes hits each one.
        state = np.arange(graph.num_nodes) % (d_plus * d_plus)
        rotors, extra = np.divmod(state, d_plus)
        window = RotorWindow(
            rotors=rotors,
            extra=extra,
            positions=bound.positions,
            reverse_flat=bound.reverse_flat,
            gather=bound.gather,
            tables=bound.tables,
        )
        np.testing.assert_array_equal(window.state, state)
        inside = (
            (bound.positions - rotors[:, None]) % d_plus < extra[:, None]
        )
        np.testing.assert_array_equal(
            window.edge_hit_matrix(graph), inside[:, :degree]
        )
        np.testing.assert_array_equal(
            window.edge_hits(graph), inside[:, :degree].sum(axis=1)
        )
        np.testing.assert_array_equal(
            window.loop_hits(graph), inside[:, degree:].sum(axis=1)
        )
        np.testing.assert_array_equal(window.hit_matrix(graph), inside)

    def test_positions_path_queries_match_modulo_formula(self):
        graph = families.cycle(32)
        rng = np.random.default_rng(3)
        d_plus = graph.total_degree
        orders = np.array(
            [rng.permutation(d_plus) for _ in range(graph.num_nodes)]
        )
        bound = _window(RotorRouter(port_orders=orders).bind(graph), graph)
        rotors = rng.integers(0, d_plus, graph.num_nodes)
        extra = rng.integers(0, d_plus, graph.num_nodes)
        window = RotorWindow(
            rotors=rotors,
            extra=extra,
            positions=bound.positions,
            reverse_flat=bound.reverse_flat,
            gather=bound.gather,
        )
        inside = (
            (bound.positions - rotors[:, None]) % d_plus < extra[:, None]
        )
        np.testing.assert_array_equal(window.hit_matrix(graph), inside)
        np.testing.assert_array_equal(
            window.edge_hit_matrix(graph), inside[:, : graph.degree]
        )

    def test_custom_port_orders_keep_positions_path(self):
        graph = families.cycle(32)
        orders = np.tile(np.arange(graph.total_degree), (32, 1))
        window = _window(RotorRouter(port_orders=orders).bind(graph), graph)
        assert window.tables is None

    def test_wide_default_order_takes_positions_path(self):
        graph = families.complete(8)
        assert graph.total_degree ** 2 > graph.num_nodes
        assert _window(RotorRouter().bind(graph), graph).tables is None
        loads = _loads_for(graph)
        structured = Simulator(
            graph, RotorRouter(), loads, engine="structured"
        )
        dense = Simulator(graph, RotorRouter(), loads, engine="dense")
        for _ in range(20):
            np.testing.assert_array_equal(structured.step(), dense.step())


FABRICS = {
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 3, 4),
}


def _dense_inflow(graph, values):
    """Each node's inflow of sender-side ``(n, d)`` per-port values."""
    return values[graph.adjacency, graph.reverse_port].sum(axis=1)


class TestRotorGatherOnFabrics:
    """Pin the rotor gather on padded-irregular datacenter fabrics.

    ``fat_tree`` and ``leaf_spine`` have irregular true degrees but a
    uniform padded port capacity: every adjacency row has
    ``graph.degree`` columns, with padding ports as self-entries whose
    reverse port is the port itself.  The gather's scalar-step
    ``indptr`` leans on exactly that invariant, so a ragged adjacency
    must fail loudly instead of silently misrouting tokens.
    """

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_fabric_padding_invariant(self, fabric):
        graph = FABRICS[fabric]()
        # Irregular fabric: not every node uses its full port capacity...
        assert graph.true_degrees.min() < graph.degree
        # ...yet adjacency is padded to uniform width with self-entry
        # padding ports that reverse onto themselves.
        assert graph.adjacency.shape == (graph.num_nodes, graph.degree)
        pad = graph.adjacency == np.arange(graph.num_nodes)[:, None]
        assert pad.any()
        ports = np.broadcast_to(
            np.arange(graph.degree), graph.adjacency.shape
        )
        np.testing.assert_array_equal(graph.reverse_port[pad], ports[pad])

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_gather_matches_dense_inflow(self, fabric):
        graph = FABRICS[fabric]()
        gather = RotorRouter().bind(graph)._gather
        values = np.random.default_rng(3).integers(
            0, 50, graph.adjacency.shape
        )
        np.testing.assert_array_equal(
            gather @ values.ravel(), _dense_inflow(graph, values)
        )

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_dirty_repair_on_fabric_rows(self, fabric):
        # Drop a real (non-padding) edge, so the mutated rows gain
        # padding ports, and require the in-place repaired operator to
        # equal one built fresh on the mutated graph.
        graph = MutableBalancingGraph.from_graph(FABRICS[fabric]())
        balancer = RotorRouter().bind(graph)
        u = int(np.argmax(graph.true_degrees))
        graph.drop_edge(u, int(graph.adjacency[u, 0]))
        dirty = graph.consume_dirty()
        assert dirty.size
        balancer.refresh_topology(graph, dirty)
        assert balancer.refresh_full == 0
        gather = balancer._gather
        assert np.shares_memory(gather.indices, balancer._reverse_flat)
        fresh = RotorRouter().bind(graph)._gather
        np.testing.assert_array_equal(gather.indices, fresh.indices)
        values = np.random.default_rng(29).integers(
            0, 50, graph.adjacency.shape
        )
        np.testing.assert_array_equal(
            gather @ values.ravel(), _dense_inflow(graph, values)
        )

    def test_gather_rejects_unpadded_adjacency(self):
        class Ragged:
            num_nodes = 4
            degree = 3

        with pytest.raises(ValueError, match="degree-padded"):
            rotor_gather(Ragged(), np.zeros(4 * 2, dtype=np.int64))


class TestRemainder:
    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_matches_dense_remainder(self, torus9, algorithm):
        balancer = make(algorithm).bind(torus9)
        loads = _loads_for(torus9)
        compact = balancer.sends_structured(loads, 1)
        dense = compact.to_dense(torus9)
        np.testing.assert_array_equal(
            compact.remainder(torus9, loads),
            loads - dense.sum(axis=1),
        )

    @pytest.mark.parametrize("num_loops", [0, 1, 2, 3])
    @pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
    def test_every_term_layout_matches_dense(self, algorithm, num_loops):
        # d° = 0, 1, d and other: each way remainder() folds loop_base.
        graph = families.cycle(10, num_self_loops=num_loops)
        loads = _loads_for(graph)
        compact = make(algorithm).bind(graph).sends_structured(loads, 1)
        expected = loads - compact.to_dense(graph).sum(axis=1)
        np.testing.assert_array_equal(
            compact.remainder(graph, loads), expected
        )

    def test_shared_loop_base_counted_once(self, cycle12):
        # The rotor's loop_base is its edge_share; an equal copy must
        # give the same remainder (d+·share, not d+·share + d°·share).
        loads = _loads_for(cycle12)
        compact = make("rotor_router").bind(cycle12).sends_structured(
            loads, 1
        )
        assert compact.loop_base is compact.edge_share
        shared = compact.remainder(cycle12, loads)
        compact.loop_base = compact.edge_share.copy()
        np.testing.assert_array_equal(
            compact.remainder(cycle12, loads), shared
        )
        assert shared.min() >= 0

    def test_outflow_and_kept_split(self, cycle12):
        balancer = make("rotor_router").bind(cycle12)
        loads = _loads_for(cycle12)
        compact = balancer.sends_structured(loads, 1)
        dense = compact.to_dense(cycle12)
        degree = cycle12.degree
        np.testing.assert_array_equal(
            compact.edge_outflow(cycle12), dense[:, :degree].sum(axis=1)
        )
        np.testing.assert_array_equal(
            compact.kept_tokens(cycle12), dense[:, degree:].sum(axis=1)
        )


class TestValidation:
    def test_negative_share_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.full(12, -1, dtype=np.int64)
        )
        with pytest.raises(InvalidSendMatrix, match="negative"):
            compact.validate(cycle12, loads)

    def test_wrong_shape_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(edge_share=np.zeros(5, dtype=np.int64))
        with pytest.raises(InvalidSendMatrix, match="shape"):
            compact.validate(cycle12, loads)

    def test_float_share_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(edge_share=np.zeros(12))
        with pytest.raises(InvalidSendMatrix, match="integer"):
            compact.validate(cycle12, loads)

    def test_loop_ceil_beyond_loops_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.zeros(12, dtype=np.int64),
            loop_base=np.zeros(12, dtype=np.int64),
            loop_ceil=np.full(
                12, cycle12.num_self_loops + 1, dtype=np.int64
            ),
        )
        with pytest.raises(InvalidSendMatrix, match="loop_ceil"):
            compact.validate(cycle12, loads)

    def test_loop_tokens_without_loops_rejected(self):
        graph = families.cycle(9, num_self_loops=0)
        loads = np.full(9, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.zeros(9, dtype=np.int64),
            loop_base=np.ones(9, dtype=np.int64),
        )
        with pytest.raises(InvalidSendMatrix, match="no self-loops"):
            compact.validate(graph, loads)

    # -- every message pinned, one fault at a time ---------------------

    @staticmethod
    def _rotor_round(graph):
        loads = _loads_for(graph)
        return make("rotor_router").bind(graph).sends_structured(loads, 1)

    @pytest.mark.parametrize("value", [-1, "d_plus"])
    def test_window_length_out_of_range(self, cycle12, value):
        compact = self._rotor_round(cycle12)
        d_plus = cycle12.total_degree
        extra = compact.window.extra.copy()
        extra[5] = d_plus if value == "d_plus" else value
        compact.window.extra = extra
        with pytest.raises(
            InvalidSendMatrix,
            match=re.escape(f"rotor window lengths must lie in [0, {d_plus})"),
        ):
            compact.validate(cycle12, _loads_for(cycle12))

    @pytest.mark.parametrize("value", [-1, "d_plus"])
    def test_rotor_position_out_of_range(self, cycle12, value):
        compact = self._rotor_round(cycle12)
        d_plus = cycle12.total_degree
        rotors = compact.window.rotors.copy()
        rotors[7] = d_plus if value == "d_plus" else value
        compact.window.rotors = rotors
        with pytest.raises(
            InvalidSendMatrix,
            match=re.escape(f"rotor positions must lie in [0, {d_plus})"),
        ):
            compact.validate(cycle12, _loads_for(cycle12))

    def test_window_on_batched_shares_rejected(self, cycle12):
        compact = self._rotor_round(cycle12)
        loads = np.stack([_loads_for(cycle12)] * 2)
        compact.edge_share = np.stack([compact.edge_share] * 2)
        compact.loop_base = compact.edge_share
        with pytest.raises(
            InvalidSendMatrix, match="require 1-D structured rounds"
        ):
            compact.validate(cycle12, loads)

    def test_negative_separate_loop_base_rejected(self, cycle12):
        share = np.ones(12, dtype=np.int64)
        base = np.ones(12, dtype=np.int64)
        base[3] = -1
        compact = StructuredRound(edge_share=share, loop_base=base)
        with pytest.raises(
            InvalidSendMatrix,
            match="structured loop_base contains negative entries",
        ):
            compact.validate(cycle12, np.full(12, 10, dtype=np.int64))

    def test_negative_loop_ceil_rejected(self, cycle12):
        ceil = np.zeros(12, dtype=np.int64)
        ceil[0] = -1
        compact = StructuredRound(
            edge_share=np.zeros(12, dtype=np.int64), loop_ceil=ceil
        )
        with pytest.raises(
            InvalidSendMatrix,
            match="structured loop_ceil contains negative entries",
        ):
            compact.validate(cycle12, np.full(12, 10, dtype=np.int64))

    def test_shared_loop_base_checked_as_edge_share(self, cycle12):
        # The rotor's loop_base *is* its edge_share: one check, and the
        # message names the first field, as one check per field would.
        compact = self._rotor_round(cycle12)
        compact.edge_share = compact.edge_share.copy()
        compact.edge_share[2] = -1
        compact.loop_base = compact.edge_share
        with pytest.raises(
            InvalidSendMatrix,
            match="structured edge_share contains negative entries",
        ):
            compact.validate(cycle12, _loads_for(cycle12))

    def test_negative_entry_reported_before_exceeded_loops(self, cycle12):
        # A loop_ceil both negative and over d° reports the negative
        # entry, and an earlier field's fault wins over a later one's.
        ceil = np.zeros(12, dtype=np.int64)
        ceil[0] = -1
        ceil[1] = cycle12.num_self_loops + 1
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.zeros(12, dtype=np.int64), loop_ceil=ceil
        )
        with pytest.raises(InvalidSendMatrix, match="loop_ceil contains"):
            compact.validate(cycle12, loads)
        base = np.full(12, -2, dtype=np.int64)
        compact.loop_base = base
        with pytest.raises(InvalidSendMatrix, match="loop_base contains"):
            compact.validate(cycle12, loads)

    def test_no_loop_graph_rejects_loop_ceil_tokens(self):
        graph = families.cycle(9, num_self_loops=0)
        compact = StructuredRound(
            edge_share=np.zeros(9, dtype=np.int64),
            loop_ceil=np.ones(9, dtype=np.int64),
        )
        with pytest.raises(InvalidSendMatrix, match="no self-loops"):
            compact.validate(graph, np.full(9, 10, dtype=np.int64))

    def test_valid_rounds_pass(self, cycle12):
        loads = _loads_for(cycle12)
        for name in STRUCTURED_ALGORITHMS:
            compact = make(name).bind(cycle12).sends_structured(loads, 1)
            compact.validate(cycle12, loads)


class _OverdrawingStructured(SendFloor):
    """A structured balancer that claims more tokens than it holds."""

    def sends_structured(self, loads, t):
        compact = super().sends_structured(loads, t)
        compact.edge_share = compact.edge_share + loads.max() + 1
        return compact


class TestEngineSelection:
    def test_auto_prefers_structured(self, cycle12):
        simulator = Simulator(
            cycle12, make("send_floor"), np.full(12, 5, dtype=np.int64)
        )
        assert simulator.engine == "structured"

    def test_auto_falls_back_for_dense_only_balancers(self, expander24):
        simulator = Simulator(
            expander24,
            make("continuous_mimicking"),
            np.full(24, 5, dtype=np.int64),
        )
        assert simulator.engine == "dense"

    def test_structured_unsupported_balancer_rejected(self, expander24):
        with pytest.raises(ValueError, match="structured"):
            Simulator(
                expander24,
                make("continuous_mimicking"),
                np.full(24, 5, dtype=np.int64),
                engine="structured",
            )

    def test_unknown_engine_rejected(self, cycle12):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(
                cycle12,
                make("send_floor"),
                np.full(12, 5, dtype=np.int64),
                engine="warp",
            )


class TestStructuredEngineInvariants:
    def test_overdraw_raises(self, cycle12):
        simulator = Simulator(
            cycle12,
            _OverdrawingStructured(),
            np.full(12, 3, dtype=np.int64),
            engine="structured",
            validate_every_round=False,
        )
        with pytest.raises(NegativeLoadError, match="does not allow"):
            simulator.step()

    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_conservation_and_history(self, hypercube16, algorithm):
        loads = _loads_for(hypercube16)
        result = Simulator(
            hypercube16, make(algorithm), loads, engine="structured"
        ).run(30)
        assert result.final_loads.sum() == loads.sum()
        assert len(result.discrepancy_history) == 31


class TestLateAttach:
    """Attach-after-construction goes through `attach()`."""

    def test_attach_starts_probe_and_keeps_structured(self, cycle12):
        from repro.core.monitors import DiscrepancyRecorder

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        probe = simulator.attach(DiscrepancyRecorder())
        assert simulator.engine == "structured"  # loads-only probe
        simulator.run(5)
        assert len(probe.history) == 6  # started with current loads
        assert probe.history == simulator.discrepancy_history

    def test_attach_mid_run_observes_from_now_on(self, cycle12):
        from repro.core.monitors import DiscrepancyRecorder

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        simulator.run(3)
        probe = simulator.attach(DiscrepancyRecorder())
        simulator.run(4)
        assert len(probe.history) == 5  # attach-time state + 4 rounds
        assert probe.history == simulator.discrepancy_history[3:]

    def test_attach_dense_probe_downgrades_auto_engine(self, cycle12):
        from repro.core.probes import Probe

        class DenseOnly(Probe):
            needs = "sends"

            def __init__(self):
                self.seen = 0

            def observe(self, t, loads_before, sends, loads_after):
                assert sends.ndim == 2
                self.seen += 1

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        assert simulator.engine == "structured"
        probe = simulator.attach(DenseOnly())
        assert simulator.engine == "dense"
        simulator.run(4)
        assert probe.seen == 4

    def test_attach_dense_probe_on_explicit_structured_raises(
        self, cycle12
    ):
        from repro.core.probes import Probe

        class DenseOnly(Probe):
            needs = "sends"

        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads_for(cycle12),
            engine="structured",
        )
        with pytest.raises(ValueError, match="dense sends"):
            simulator.attach(DenseOnly())


class TestRoundAllocationBudget:
    """Peak bytes one structured round allocates, in n-vectors.

    cycle(2^16) (d = 2, d+ = 4), three warm-up rounds, then one traced
    round.  The budgets are the measured peaks plus 0.1: a fresh
    n-vector temporary (1.0) or an n·d bool (0.25) left live at the
    peak shows.  For reference, the rounds before the pass-count work
    peaked at 8.25 (rotor) and 7.0 (SEND) n-vectors.
    """

    BUDGET = {"rotor_router": 7.35, "send_floor": 5.1, "send_rounded": 5.1}

    @pytest.mark.parametrize("algorithm", sorted(BUDGET))
    def test_peak_within_budget(self, algorithm):
        n = 2**16
        graph = families.cycle(n)
        loads = np.random.default_rng(0).integers(0, 1000, n)
        simulator = Simulator(
            graph,
            make(algorithm),
            loads,
            engine="structured",
            record_history=False,
        )
        for _ in range(3):
            simulator.step()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            simulator.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vectors = (peak - start) / (8 * n)
        assert vectors <= self.BUDGET[algorithm], (
            f"{algorithm} round peaked at {vectors:.2f} n-vectors"
        )
