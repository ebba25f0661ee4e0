"""FaultSpec: registry construction, round-trips, replica offsets."""

import pytest

from repro.faults import (
    FAULTS,
    FaultSchedule,
    FaultSpec,
    LinkFailures,
)
from repro.specs import coerce_spec


def test_registry_lists_builtin_schedules():
    assert {"link_failures", "node_crashes", "message_drop"} <= set(
        FAULTS.names()
    )


def test_build_constructs_registered_schedule():
    schedule = FaultSpec("link_failures", {"rate": 0.2, "seed": 3}).build()
    assert isinstance(schedule, LinkFailures)
    assert schedule.rate == 0.2 and schedule.seed == 3


def test_build_offsets_seed_per_replica():
    spec = FaultSpec("message_drop", {"rate": 0.1, "seed": 10})
    assert spec.build(0).seed == 10
    assert spec.build(3).seed == 13
    # Seedless specs are replica-invariant.
    cut = FaultSpec("link_failures", {"mode": "cut"})
    assert cut.build(2).seed == cut.build(0).seed


def test_dict_round_trip_and_parse():
    spec = FaultSpec("node_crashes", {"rate": 0.05, "downtime": 3})
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    assert FaultSpec.to_dict(FaultSpec("message_drop")) == {
        "name": "message_drop"
    }
    parsed = FaultSpec.parse('link_failures:{"rate": 0.4, "seed": 7}')
    assert parsed == FaultSpec("link_failures", {"rate": 0.4, "seed": 7})
    assert FaultSpec.parse("message_drop") == FaultSpec("message_drop")


def test_specs_are_hashable():
    a = FaultSpec("message_drop", {"rate": 0.1})
    b = FaultSpec("message_drop", {"rate": 0.1})
    assert len({a, b}) == 1


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        FaultSpec("solar_flare").build()


def test_coerce_spec_fault_schedules():
    assert coerce_spec(None, FaultSpec) is None
    built = coerce_spec(FaultSpec("message_drop", {"seed": 1}), FaultSpec, 2)
    assert built.seed == 3
    ready = LinkFailures(rate=0.5)
    assert coerce_spec(ready, FaultSpec) is ready
    assert isinstance(ready, FaultSchedule)
    with pytest.raises(TypeError):
        coerce_spec("message_drop", FaultSpec)
