"""Unit tests for fault-schedule semantics.

Differential parity lives in ``tests/differential/test_fault_parity.py``;
this file pins the *meaning* of each registered schedule — which links
die when, where crashed load goes, what drops do to the running total —
plus the structural validator and the engine-visible accounting.
"""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.faults import (
    FaultSpec,
    InvalidFault,
    LinkFailures,
    MessageDrop,
    NodeCrashes,
    RoundFaults,
    validate_round_faults,
)
from repro.graphs import families
from repro.graphs.datacenter import fat_tree


def _loads(graph, seed=2, high=100):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, graph.num_nodes).astype(np.int64)


def _directed_pairs(pairs):
    return {(int(u), int(p)) for u, p in pairs}


# -- link failures -----------------------------------------------------


def test_link_failures_dead_set_is_symmetric_and_real():
    graph = fat_tree(4)  # irregular: exercises the padding-port mask
    schedule = LinkFailures(rate=0.5, seed=1)
    schedule.start(graph, _loads(graph))
    saw_faults = False
    for t in range(1, 20):
        faults = schedule.round_state(t, _loads(graph))
        if faults is None:
            continue
        saw_faults = True
        validate_round_faults(faults, graph)
        assert faults.dropped.size == 0 and faults.load_delta is None
    assert saw_faults


def test_link_failures_carry_their_receivers():
    graph = fat_tree(4)
    for mode in ("random", "cut"):
        schedule = LinkFailures(rate=0.3, mode=mode, seed=5)
        schedule.start(graph, _loads(graph))
        for t in range(1, 10):
            faults = schedule.round_state(t, _loads(graph))
            if faults is None:
                continue
            u, p = faults.dead[:, 0], faults.dead[:, 1]
            np.testing.assert_array_equal(
                faults.receivers, graph.adjacency[u, p]
            )


def _reference_blocks(rng, rate, block, count):
    """The gap stream served one block per call: a search per block."""
    chunk = max(64, int(64 * block * rate) + 16)
    pending = np.empty(0, dtype=np.int64)
    last, offset, blocks = -1, 0, []
    for _ in range(count):
        end = offset + block
        while last < end - 1:
            gaps = rng.geometric(rate, size=chunk)
            np.minimum(gaps, 1 << 50, out=gaps)
            more = last + np.cumsum(gaps)
            last = int(more[-1])
            pending = np.concatenate([pending, more])
        split = int(np.searchsorted(pending, end))
        blocks.append(pending[:split] - offset)
        pending = pending[split:]
        offset = end
    return blocks


@pytest.mark.parametrize("rate", [1e-9, 0.003, 0.05, 0.5])
@pytest.mark.parametrize("block", [1, 7, 300])
def test_gap_stream_blocks_match_per_block_reference(rate, block):
    from repro.faults.schedules import _BernoulliGapStream

    count = 200
    reference_rng = np.random.default_rng(11)
    expected = _reference_blocks(reference_rng, rate, block, count)
    for bulk in (False, True):
        rng = np.random.default_rng(11)
        stream = _BernoulliGapStream(rng, rate, block)
        got = []
        while len(got) < count:
            if bulk:
                hits, bounds = stream.take_blocks()
                got += [
                    hits[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
            else:
                got.append(stream.take())
        for mine, theirs in zip(got, expected):
            np.testing.assert_array_equal(mine, theirs)
        if not bulk:
            # Same draws at the same calls: the RNG ends where the
            # one-block-at-a-time stream leaves it.
            assert (
                rng.bit_generator.state
                == reference_rng.bit_generator.state
            )


def test_link_failures_rate_zero_is_free():
    graph = families.cycle(8)
    schedule = LinkFailures(rate=0.0)
    schedule.start(graph, _loads(graph))
    assert all(
        schedule.round_state(t, _loads(graph)) is None
        for t in range(1, 30)
    )
    assert schedule.summary() == {
        "edge_failures": 0,
        "failure_rounds": 0,
    }


def test_link_failures_rate_one_kills_every_link():
    graph = families.cycle(6)
    schedule = LinkFailures(rate=1.0, seed=4)
    schedule.start(graph, _loads(graph))
    faults = schedule.round_state(1, _loads(graph))
    # A cycle has n undirected edges -> 2n directed dead pairs.
    assert faults.dead.shape == (12, 2)
    validate_round_faults(faults, graph)


def test_link_failures_until_heals_the_fabric():
    graph = families.cycle(8)
    schedule = LinkFailures(rate=1.0, until=5, seed=0)
    schedule.start(graph, _loads(graph))
    for t in range(1, 12):
        faults = schedule.round_state(t, _loads(graph))
        assert (faults is not None) == (t <= 5)


def test_link_failures_cut_mode_severs_the_bisection_periodically():
    graph = families.cycle(8)
    schedule = LinkFailures(mode="cut", period=5, down=2)
    schedule.start(graph, _loads(graph))
    # On C_8 exactly two edges cross the [0,4) | [4,8) bisection:
    # (3,4) and (7,0).
    for t in range(1, 16):
        faults = schedule.round_state(t, _loads(graph))
        in_window = (t - 1) % 5 < 2
        assert (faults is not None) == in_window
        if faults is not None:
            validate_round_faults(faults, graph)
            nodes = {
                frozenset((int(u), int(graph.adjacency[u, p])))
                for u, p in faults.dead
            }
            assert nodes == {frozenset((3, 4)), frozenset((7, 0))}


def test_link_failures_restart_resets_the_stream():
    graph = families.cycle(10)
    schedule = LinkFailures(rate=0.4, seed=9)
    histories = []
    for _ in range(2):
        schedule.start(graph, _loads(graph))
        histories.append(
            [
                None
                if (f := schedule.round_state(t, _loads(graph))) is None
                else f.dead.tolist()
                for t in range(1, 15)
            ]
        )
    assert histories[0] == histories[1]


@pytest.mark.parametrize(
    "params",
    [
        {"rate": -0.1},
        {"rate": 1.5},
        {"mode": "weird"},
        {"period": 0},
        {"period": 3, "down": 4},
        {"until": -1},
    ],
)
def test_link_failures_rejects_bad_params(params):
    with pytest.raises(InvalidFault):
        LinkFailures(**params)


# -- node crashes ------------------------------------------------------


def test_scripted_crash_hands_load_to_live_neighbors():
    graph = families.cycle(6)
    loads = np.array([0, 10, 7, 0, 0, 0], dtype=np.int64)
    schedule = NodeCrashes(events=[[3, 1]], downtime=2)
    schedule.start(graph, loads)
    assert schedule.round_state(1, loads) is None
    assert schedule.round_state(2, loads) is None
    faults = schedule.round_state(3, loads)
    validate_round_faults(faults, graph)
    # 10 tokens split evenly over neighbors {0, 2}.
    delta = faults.load_delta
    assert delta[1] == -10 and delta[0] + delta[2] == 10
    assert abs(int(delta[0]) - int(delta[2])) <= 1
    assert int(delta.sum()) == 0  # handoff conserves
    # All of node 1's ports (both directions) are dead while down.
    dead = _directed_pairs(faults.dead)
    assert {(1, 0), (1, 1)} <= dead and len(dead) == 4
    # Down for `downtime` rounds: 3 and 4; recovered by 5.
    later = schedule.round_state(4, loads)
    assert later.load_delta is None
    assert _directed_pairs(later.dead) == dead
    assert schedule.round_state(5, loads) is None
    assert schedule.summary() == {
        "crashes": 1,
        "tokens_lost_at_crash": 0,
    }


def test_crash_with_lost_handoff_tracks_destroyed_tokens():
    graph = families.cycle(5)
    loads = np.array([3, 0, 8, 0, 0], dtype=np.int64)
    schedule = NodeCrashes(events=[[1, 2]], handoff="lost")
    schedule.start(graph, loads)
    faults = schedule.round_state(1, loads)
    assert faults.load_delta.tolist() == [0, 0, -8, 0, 0]
    assert schedule.summary()["tokens_lost_at_crash"] == 8


def test_simultaneous_crash_of_all_nodes_loses_everything():
    graph = families.cycle(4)
    loads = np.array([5, 6, 7, 8], dtype=np.int64)
    schedule = NodeCrashes(
        events=[[1, n] for n in range(4)], handoff="neighbors"
    )
    schedule.start(graph, loads)
    faults = schedule.round_state(1, loads)
    # No live neighbor anywhere: every handoff degrades to a loss.
    assert faults.load_delta.tolist() == [-5, -6, -7, -8]
    assert schedule.summary()["tokens_lost_at_crash"] == 26


def test_crashed_node_cannot_crash_again_while_down():
    graph = families.cycle(6)
    loads = _loads(graph)
    schedule = NodeCrashes(events=[[2, 3], [3, 3]], downtime=4)
    schedule.start(graph, loads)
    schedule.round_state(1, loads)
    schedule.round_state(2, loads)
    schedule.round_state(3, loads)
    assert schedule.summary()["crashes"] == 1


def test_node_crashes_rejects_bad_params():
    with pytest.raises(InvalidFault):
        NodeCrashes(rate=2.0)
    with pytest.raises(InvalidFault):
        NodeCrashes(downtime=0)
    with pytest.raises(InvalidFault):
        NodeCrashes(handoff="teleport")
    with pytest.raises(InvalidFault):
        NodeCrashes(events=[[0, 1]])
    with pytest.raises(InvalidFault):
        NodeCrashes(events=[[1, 2, 3]])


# -- message drop ------------------------------------------------------


def test_message_drop_emits_directed_real_pairs_only():
    graph = fat_tree(4)
    schedule = MessageDrop(rate=0.3, seed=5)
    schedule.start(graph, _loads(graph))
    saw = False
    for t in range(1, 15):
        faults = schedule.round_state(t, _loads(graph))
        if faults is None:
            continue
        saw = True
        validate_round_faults(faults, graph)
        assert faults.dead.size == 0 and faults.load_delta is None
    assert saw


def test_message_drop_reduces_engine_total_exactly():
    graph = families.cycle(10)
    loads = _loads(graph, seed=8)
    schedule = MessageDrop(rate=0.25, seed=6)
    result = Simulator(
        graph, make("send_floor"), loads, faults=schedule
    ).run(30)
    dropped = result.record.summary["tokens_dropped"]
    assert dropped > 0
    assert int(result.final_loads.sum()) == int(loads.sum()) - dropped
    assert result.record.summary["drop_events"] > 0


def test_engine_total_conserved_under_dead_links_and_handoff():
    graph = families.torus(4, 2)
    loads = _loads(graph, seed=9)
    for spec in (
        FaultSpec("link_failures", {"rate": 0.4, "seed": 2}),
        FaultSpec("node_crashes", {"rate": 0.1, "seed": 2}),
    ):
        result = Simulator(
            graph, make("send_floor"), loads, faults=spec
        ).run(40)
        summary = result.record.summary
        lost = summary.get("tokens_lost_at_crash", 0)
        assert summary["tokens_dropped"] == 0
        assert (
            int(result.final_loads.sum()) == int(loads.sum()) - lost
        )
        assert summary["fault_schedule"] == spec.name


# -- the structural validator ------------------------------------------


def _pair(u, p):
    return np.array([[u, p]], dtype=np.int64)


def test_validator_rejects_asymmetric_dead_pairs():
    graph = families.cycle(6)
    with pytest.raises(InvalidFault, match="edge reversal"):
        validate_round_faults(RoundFaults(dead=_pair(0, 0)), graph)


def test_validator_rejects_wrong_receivers():
    graph = families.cycle(6)
    v = int(graph.adjacency[0, 0])
    q = int(graph.reverse_port[0, 0])
    dead = np.array([[0, 0], [v, q]], dtype=np.int64)
    right = np.array([v, 0], dtype=np.int64)
    validate_round_faults(RoundFaults(dead=dead, receivers=right), graph)
    with pytest.raises(InvalidFault, match="far endpoint"):
        validate_round_faults(
            RoundFaults(dead=dead, receivers=right[::-1].copy()), graph
        )


def test_validator_rejects_duplicates_and_overlap():
    graph = families.cycle(6)
    # One undirected edge off node 0, both directions.
    v = int(graph.adjacency[0, 0])
    q = int(graph.reverse_port[0, 0])
    dead = np.array([[0, 0], [v, q]], dtype=np.int64)
    validate_round_faults(RoundFaults(dead=dead), graph)
    with pytest.raises(InvalidFault, match="duplicates"):
        validate_round_faults(
            RoundFaults(dead=np.repeat(dead, 2, axis=0)), graph
        )
    with pytest.raises(InvalidFault, match="overlap"):
        validate_round_faults(
            RoundFaults(dead=dead, dropped=_pair(0, 0)), graph
        )


def test_validator_rejects_out_of_range_and_padding_ports():
    graph = families.cycle(6)
    with pytest.raises(InvalidFault, match="out of range"):
        validate_round_faults(RoundFaults(dropped=_pair(0, 9)), graph)
    padded = fat_tree(4)
    host = int(np.argmin(padded.true_degrees))
    pad_port = int(padded.true_degrees[host])
    assert pad_port < padded.total_degree
    with pytest.raises(InvalidFault, match="padding"):
        validate_round_faults(
            RoundFaults(dropped=_pair(host, pad_port)), padded
        )


def test_validator_rejects_bad_shapes_and_float_delta():
    graph = families.cycle(6)
    with pytest.raises(InvalidFault, match="shape"):
        validate_round_faults(
            RoundFaults(dead=np.zeros((2, 3), dtype=np.int64)), graph
        )
    with pytest.raises(InvalidFault, match="integer"):
        validate_round_faults(
            RoundFaults(load_delta=np.zeros(6)), graph
        )
    with pytest.raises(InvalidFault, match="shape"):
        validate_round_faults(
            RoundFaults(load_delta=np.zeros(4, dtype=np.int64)), graph
        )


def test_empty_round_faults():
    assert RoundFaults().is_empty()
    assert not RoundFaults(dead=_pair(0, 0)).is_empty()
    validate_round_faults(RoundFaults(), families.cycle(5))


# -- trusted-by-construction contract ----------------------------------


TRUSTED_CONFIGS = {
    "link_failures": [
        LinkFailures(rate=0.4, seed=3),
        LinkFailures(mode="cut", period=4, down=2),
    ],
    "node_crashes": [
        NodeCrashes(rate=0.3, downtime=3, seed=5),
        NodeCrashes(rate=0.3, downtime=3, handoff="lost", seed=5),
    ],
    "message_drop": [MessageDrop(rate=0.5, seed=7)],
}


def test_trusted_configs_cover_every_registered_schedule():
    from repro.faults import FAULTS

    assert set(TRUSTED_CONFIGS) == set(FAULTS.names())


@pytest.mark.parametrize(
    "schedule",
    [s for group in TRUSTED_CONFIGS.values() for s in group],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize(
    "graph_factory",
    [lambda: families.cycle(9), lambda: fat_tree(4)],
    ids=["cycle", "fat_tree"],
)
def test_builtin_rounds_are_trusted_and_validator_clean(
    schedule, graph_factory
):
    """Engines skip re-validation for ``trusted`` rounds, so this test
    carries the proof obligation: every round a registered schedule
    emits must pass :func:`validate_round_faults` and be marked
    trusted."""
    graph = graph_factory()
    loads = _loads(graph)
    schedule.start(graph, loads)
    saw = 0
    for t in range(1, 40):
        faults = schedule.round_state(t, loads)
        if faults is None:
            continue
        saw += 1
        assert faults.trusted
        validate_round_faults(faults, graph)
    assert saw > 0


def test_engine_still_validates_untrusted_schedules():
    """A third-party schedule emitting malformed (asymmetric) dead
    pairs without the trusted mark must be caught by the engine's
    per-round validation."""

    class Lopsided(LinkFailures):
        def round_state(self, t, loads):
            return RoundFaults(dead=_pair(0, 0))  # no reverse pair

    graph = families.cycle(8)
    sim = Simulator(
        graph,
        make("send_floor"),
        _loads(graph, high=10),
        faults=Lopsided(rate=0.5, seed=1),
    )
    with pytest.raises(InvalidFault, match="edge reversal"):
        sim.run(3)
