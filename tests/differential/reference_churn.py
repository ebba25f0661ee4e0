"""A deliberately naive reference implementation of *churned* rounds.

The production engines execute topology churn incrementally: in-place
edge add/drop on a :class:`~repro.graphs.mutable.MutableBalancingGraph`
with reverse-port repair, plus a dirty-row balancer refresh (see
:mod:`repro.topology.schedules`).  This module is the differential
anchor for all of that machinery: each round is executed with per-node,
per-port Python loops and a **full rebuild from scratch** —

1. the topology schedule moves first: ``round_events`` fires, and the
   event batch is applied to plain Python neighbor lists (leaves with
   divmod load handoff, then joins, then edge drops, then edge adds);
2. the entire graph is rebuilt from the neighbor lists via
   ``MutableBalancingGraph.from_neighbor_lists`` — no incremental
   repair, every invariant re-validated — and the balancer is refreshed
   through the *full* (``dirty=None``) path;
3. dynamics injection (optional) is added node by node;
4. the balancer's sends are applied one port at a time (padding ports
   bounce straight back to the sender);
5. conservation is asserted exactly: churned balancing moves tokens,
   it never creates or destroys them.

The layout discipline is mirrored bit for bit: an added edge *appends*
to the neighbor list and a dropped edge is *swap-removed* (the last
entry moves into the hole).  Port numbering therefore matches the
incremental engines exactly, which is what makes rotor-router
trajectories — whose sends depend on port order — identical between
the two execution strategies.

The reference owns its own :class:`~repro.topology.schedules.\
TopologySchedule` instance built from the same spec as the engine under
test.  Because ``round_events`` is called exactly once per round with
the same round numbers, both instances consume identical RNG streams
and produce identical event histories.

Nothing here is clever, which is the point: correctness is obvious by
inspection, so any divergence from the fast engines is a fast-engine
bug.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancer import Balancer
from repro.core.errors import NegativeLoadError
from repro.graphs.mutable import MutableBalancingGraph


class ReferenceChurnSimulator:
    """Slow, obviously-correct churned-round execution (tests only)."""

    def __init__(
        self,
        graph,
        balancer: Balancer,
        initial_loads: np.ndarray,
        topology,
        injector=None,
    ) -> None:
        self.d_max = graph.degree
        self.num_self_loops = graph.num_self_loops
        self.neighbor_lists: list[list[int]] = [
            [int(v) for v in graph.adjacency[u, :deg]]
            for u, deg in enumerate(graph.true_degrees.tolist())
        ]
        self.active = [True] * graph.num_nodes
        self.graph = self._rebuild()
        self.balancer = balancer.bind(self.graph)
        self.topology = topology
        self.injector = injector
        self.loads = [int(v) for v in initial_loads]
        self.round = 1
        topology.start(
            self.graph, np.asarray(initial_loads, dtype=np.int64)
        )
        if injector is not None:
            injector.start(
                self.graph, np.asarray(initial_loads, dtype=np.int64)
            )

    # ------------------------------------------------------------------
    # Naive topology application (python lists, full rebuild)
    # ------------------------------------------------------------------

    def _rebuild(self) -> MutableBalancingGraph:
        return MutableBalancingGraph.from_neighbor_lists(
            self.neighbor_lists,
            self.d_max,
            self.num_self_loops,
            active=self.active,
        )

    def _swap_remove(self, u: int, v: int) -> None:
        """Drop ``v`` from ``u``'s list the way the engine vacates a
        port: the last entry moves into the hole."""
        row = self.neighbor_lists[u]
        p = row.index(v)
        last = len(row) - 1
        if p != last:
            row[p] = row[last]
        row.pop()

    def _drop_edge(self, u: int, v: int) -> None:
        assert v in self.neighbor_lists[u], (
            f"reference asked to drop absent edge ({u}, {v})"
        )
        self._swap_remove(u, v)
        self._swap_remove(v, u)

    def _add_edge(self, u: int, v: int) -> None:
        assert u != v and v not in self.neighbor_lists[u]
        assert self.active[u] and self.active[v]
        self.neighbor_lists[u].append(v)
        self.neighbor_lists[v].append(u)
        assert len(self.neighbor_lists[u]) <= self.d_max
        assert len(self.neighbor_lists[v]) <= self.d_max

    def _apply_events(self, events) -> None:
        # Leaves: split the departing load over live neighbors in port
        # order (remainder dealt first), then sever every edge.
        for u in events.leaves:
            u = int(u)
            targets = list(self.neighbor_lists[u])
            amount = self.loads[u]
            if targets and amount:
                share, extra = divmod(amount, len(targets))
                for i, v in enumerate(targets):
                    self.loads[v] += share + (1 if i < extra else 0)
                self.loads[u] = 0
            for v in targets:
                self._drop_edge(u, v)
            self.active[u] = False
        for node, neighbors in events.joins:
            node = int(node)
            assert not self.active[node]
            assert not self.neighbor_lists[node]
            self.active[node] = True
            for v in neighbors:
                self._add_edge(node, int(v))
        for u, v in events.edge_drops:
            self._drop_edge(int(u), int(v))
        for u, v in events.edge_adds:
            self._add_edge(int(u), int(v))

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def step(self) -> list[int]:
        # Phase 1: topology events, then a full rebuild from scratch.
        events = self.topology.round_events(
            self.round, np.array(self.loads, dtype=np.int64)
        )
        if events is not None and not events.is_empty():
            self._apply_events(events)
            self.graph = self._rebuild()
            self.graph.check_consistency()
            # Full refresh (dirty=None): the rebuilt arrays replace the
            # balancer's cached topology wholesale, rotors untouched.
            self.balancer.refresh_topology(self.graph)
        graph = self.graph
        # Phase 2: dynamics injection.
        if self.injector is not None:
            delta = self.injector.delta(
                self.round, np.array(self.loads, dtype=np.int64)
            )
            for node in range(graph.num_nodes):
                self.loads[node] += int(delta[node])
                assert self.loads[node] >= 0
        total_before_balancing = sum(self.loads)
        # Phase 3: sends applied one port at a time.  A padding port's
        # target is the node itself, so its tokens bounce in place —
        # exactly the engines' gather semantics.
        loads_array = np.array(self.loads, dtype=np.int64)
        sends = self.balancer.sends(loads_array, self.round)
        new_loads = [0] * graph.num_nodes
        for node in range(graph.num_nodes):
            outgoing = int(sends[node].sum())
            remainder = self.loads[node] - outgoing
            if remainder < 0 and not self.balancer.allows_negative:
                raise NegativeLoadError(
                    f"node {node} overdrew in reference engine"
                )
            new_loads[node] += remainder
        for node in range(graph.num_nodes):
            for port in range(graph.total_degree):
                value = int(sends[node, port])
                target = graph.port_target(node, port)
                new_loads[target] += value
        assert sum(new_loads) == total_before_balancing, (
            "churned balancing must conserve tokens exactly"
        )
        self.loads = new_loads
        self.round += 1
        return new_loads

    def run(self, rounds: int) -> list[int]:
        for _ in range(rounds):
            self.step()
        return self.loads
