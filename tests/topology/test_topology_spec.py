"""TopologySpec: registry construction, round-trips, replica offsets."""

import pytest

from repro.topology import (
    TOPOLOGIES,
    EdgeChurn,
    TopologySchedule,
    TopologySpec,
)
from repro.specs import coerce_spec


def test_registry_lists_builtin_schedules():
    assert {
        "edge_churn",
        "node_join_leave",
        "expander_rewire",
        "scripted",
    } == set(TOPOLOGIES.names())


def test_build_constructs_registered_schedule():
    schedule = TopologySpec(
        "edge_churn", {"rate": 0.2, "seed": 3}
    ).build()
    assert isinstance(schedule, EdgeChurn)
    assert schedule.rate == 0.2 and schedule.seed == 3


def test_build_offsets_seed_per_replica():
    spec = TopologySpec("node_join_leave", {"rate": 0.1, "seed": 10})
    assert spec.build(0).seed == 10
    assert spec.build(3).seed == 13
    # Seedless specs are replica-invariant.
    scripted = TopologySpec("scripted", {"events": []})
    assert scripted.build(2).events == scripted.build(0).events


def test_dict_round_trip_and_parse():
    spec = TopologySpec("edge_churn", {"rate": 0.05, "downtime": 3})
    assert TopologySpec.from_dict(spec.to_dict()) == spec
    assert TopologySpec.to_dict(
        TopologySpec("expander_rewire")
    ) == {"name": "expander_rewire"}
    parsed = TopologySpec.parse('edge_churn:{"rate": 0.4, "seed": 7}')
    assert parsed == TopologySpec(
        "edge_churn", {"rate": 0.4, "seed": 7}
    )
    assert TopologySpec.parse("expander_rewire") == TopologySpec(
        "expander_rewire"
    )


def test_specs_are_hashable():
    a = TopologySpec("edge_churn", {"rate": 0.1})
    b = TopologySpec("edge_churn", {"rate": 0.1})
    assert len({a, b}) == 1


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        TopologySpec("continental_drift").build()


def test_coerce_spec_topology_schedules():
    assert coerce_spec(None, TopologySpec) is None
    built = coerce_spec(
        TopologySpec("edge_churn", {"seed": 1}), TopologySpec, 2
    )
    assert built.seed == 3
    ready = EdgeChurn(rate=0.5)
    assert coerce_spec(ready, TopologySpec) is ready
    assert isinstance(ready, TopologySchedule)
    with pytest.raises(TypeError):
        coerce_spec("edge_churn", TopologySpec)
