"""The scenario JSON boundary: pinned bytes, typed errors, fuzzed input.

Every spec class is one :class:`repro.specs.RegistrySpec` machine, so
this module checks the machine from outside:

* ``content_hash`` digests of a small table of scenarios are pinned as
  literals (cache keys and goldens hash these bytes);
* every malformed input fails with a ``ValueError`` naming its field,
  never a raw ``TypeError`` and never silently;
* hypothesis fuzzes ``Scenario.from_dict`` and every spec's
  ``name:{json}`` shorthand: an input either round-trips (equal object,
  same hash) or raises ``ValueError``.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidLoadVector
from repro.core.probes import ProbeSpec
from repro.scenarios import (
    AlgorithmSpec,
    DynamicsSpec,
    FaultSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
    TopologySpec,
)
from repro.specs import RegistrySpec, SpecParamsError

SPEC_TYPES = (
    GraphSpec,
    LoadSpec,
    AlgorithmSpec,
    ProbeSpec,
    DynamicsSpec,
    FaultSpec,
    TopologySpec,
)


def _scenario(**overrides) -> Scenario:
    base = dict(
        graph=GraphSpec("cycle", {"n": 12}),
        algorithm=AlgorithmSpec("rotor_router"),
        loads=LoadSpec("point_mass", {"tokens": 240}),
        stop=StopRule.fixed(40),
    )
    base.update(overrides)
    return Scenario(**base)


PINNED = {
    "plain": (
        _scenario(),
        "f7afd7370c2f2a0fbe0643940b0941c67ec6500fe72a419a6f8fea672cec2d09",
    ),
    "seeded": (
        _scenario(
            algorithm=AlgorithmSpec("randomized_edge_rounding", seed=7),
            loads=LoadSpec(
                "uniform_random", {"total_tokens": 500, "seed": 4}
            ),
            replicas=3,
            name="seeded",
        ),
        "1e5318c644ff502566c82a7557300643880c7c0f87b21621ec74b9bcecc078f1",
    ),
    "empty-params": (
        _scenario(
            graph=GraphSpec("petersen"),
            loads=LoadSpec("linear_gradient"),
            algorithm=AlgorithmSpec("send_floor", seed=1),
        ),
        "282a8f0b2649f42c2804e0e389358a58c37f5e80d9e7a1376b5b1eb66b3fedf1",
    ),
    "engine-probes": (
        _scenario(
            engine="dense",
            probes=(
                ProbeSpec("load_bounds"),
                ProbeSpec("fairness", {"s": 2}),
            ),
            stop=StopRule.discrepancy(8, 100, check_every=2),
        ),
        "a8660e3bbeb8d531ff8d98fc76e1125c363240576a9be45ec1f90a17fb388951",
    ),
    "dynamics": (
        _scenario(
            dynamics=DynamicsSpec("constant_rate", {"rate": 4, "seed": 1}),
            stop=StopRule.converged(50, window=5),
        ),
        "3add74dc6beaf96a41ee5a56ed87658a5f3306e6a8c40dc23950f01d19518e1b",
    ),
    "faults": (
        _scenario(
            faults=FaultSpec("link_failures", {"rate": 0.05, "seed": 3}),
            record_history=False,
        ),
        "9530c92132f634160aaf078710641b8dbdf56ddcbe0debb95577555837b1a921",
    ),
    "topology": (
        _scenario(
            topology=TopologySpec(
                "edge_churn", {"rate": 0.1, "downtime": 4, "seed": 2}
            ),
            validate_every_round=False,
        ),
        "80b69e740f8790233c358dc25be14039b66c6a80e8b49c111ee7e462df9307c4",
    ),
    "bare-axis": (
        _scenario(topology=TopologySpec("edge_churn")),
        "4a60a1b8d33817f3e3b96b284f76808613dfa62a988726f6d86cb5b15649d659",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_content_hash_is_pinned(case):
    scenario, digest = PINNED[case]
    assert scenario.content_hash() == digest


def test_suite_content_hash_is_pinned():
    suite = ScenarioSuite(
        tuple(scenario for scenario, _ in PINNED.values()), name="pinned"
    )
    assert suite.content_hash() == (
        "e613be0452bb1d5c5a3da0629048850fbbae0f55e6cde5e54c29c4e1bafe9aaa"
    )


def _bad(edit):
    data = _scenario().to_dict()
    edit(data)
    return data


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(data):
        for part in path:
            data = data[part]
        data[key] = value

    return edit


# (data, field the message names); each one fails with a ValueError.
BAD_INPUTS = {
    "graph-n-str": (_bad(_set("graph", "params", "n", "8")), "'n': '8'"),
    "stop-rounds-str": (_bad(_set("stop", "rounds", "3")), "rounds"),
    "stop-rounds-float": (_bad(_set("stop", "rounds", 3.0)), "rounds"),
    "stop-rounds-bool": (_bad(_set("stop", "rounds", True)), "rounds"),
    "stop-roundz": (_bad(_set("stop", "roundz", 3)), "'roundz'"),
    "stop-max-rounds-float": (
        _bad(_set("stop", {"kind": "converged", "max_rounds": 9.5})),
        "max_rounds",
    ),
    "stop-window-wrong-kind": (
        _bad(_set("stop", "window", 4)),
        "window",
    ),
    "edge-churn-rate-str": (
        _bad(_set("topology", {"name": "edge_churn", "params": {"rate": "x"}})),
        "'rate': 'x'",
    ),
    "algorithm-name-list": (
        _bad(_set("algorithm", "name", ["send_floor"])),
        "algorithm name",
    ),
    "algorithm-bad-keyword": (
        _bad(_set("algorithm", "params", {"bogus": 1})),
        "'bogus'",
    ),
    "graph-family-int": (_bad(_set("graph", "family", 3)), "graph family"),
    "loads-params-list": (_bad(_set("loads", "params", [1])), "loads params"),
    "probes-object": (
        _bad(_set("probes", {"name": "load_bounds"})),
        "probes must be a JSON list",
    ),
    "point-mass-float": (
        _bad(_set("loads", "params", "tokens", 6.5)),
        "tokens must be an integer",
    ),
    "point-mass-bool": (
        _bad(_set("loads", "params", "tokens", True)),
        "tokens must be an integer",
    ),
    "name-int": (_bad(_set("name", 5)), "name"),
    "engine-list": (_bad(_set("engine", ["dense"])), "engine"),
    "replica-typo": (_bad(_set("replica", 4)), "'replica'"),
    "graph-typo": (_bad(_set("graph", "parms", {})), "'parms'"),
    "algorithm-typo": (_bad(_set("algorithm", "sed", 1)), "'sed'"),
    "dynamics-typo": (
        _bad(_set("dynamics", {"name": "constant_rate", "rate": 2})),
        "'rate'",
    ),
    "probe-typo": (
        _bad(_set("probes", [{"name": "load_bounds", "param": {}}])),
        "'param'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_value_error_naming_its_field(case):
    data, field = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=field):
        Scenario.from_dict(copy.deepcopy(data)).run()


def test_build_errors_are_typed():
    with pytest.raises(SpecParamsError, match="graph 'cycle'"):
        GraphSpec("cycle", {"n": "8"}).build()
    with pytest.raises(InvalidLoadVector, match="tokens"):
        LoadSpec("point_mass", {"tokens": 6.5}).build(4)
    with pytest.raises(InvalidLoadVector, match="per_node"):
        LoadSpec("balanced", {"per_node": False}).build(4)
    # Replica 1 offsets a seed that is no number.
    with pytest.raises(SpecParamsError, match="'seed': 'x'"):
        DynamicsSpec("constant_rate", {"rate": 1, "seed": "x"}).build(1)


def test_factory_type_error_is_chained():
    with pytest.raises(SpecParamsError, match="graph 'cycle'") as excinfo:
        GraphSpec("cycle", {"n": 8, "bogus": 1}).build()
    assert isinstance(excinfo.value.__cause__, TypeError)


def test_unknown_names_keep_their_errors():
    from repro.graphs.errors import GraphConstructionError

    with pytest.raises(GraphConstructionError, match="known families"):
        GraphSpec("moebius").build()
    with pytest.raises(KeyError, match="unknown balancer"):
        AlgorithmSpec("quantum_annealer").build()
    with pytest.raises(KeyError, match="known:"):
        LoadSpec("nope").build(4)


def test_graph_family_is_a_read_only_alias():
    spec = GraphSpec("cycle", {"n": 8})
    assert spec.family == spec.name == "cycle"
    with pytest.raises(AttributeError):
        spec.family = "complete"


def test_algorithm_spec_positional_order_is_name_params_seed():
    spec = AlgorithmSpec("send_floor", {"x": 1}, 3)
    assert (spec.name, spec.params, spec.seed) == ("send_floor", {"x": 1}, 3)


def test_params_are_copied_at_construction():
    params = {"n": 8}
    spec = GraphSpec("cycle", params)
    params["n"] = 9
    assert spec.params == {"n": 8}


# -- fuzz -----------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
_params = st.dictionaries(st.text(max_size=6), _json, max_size=3)


def _spec_dict(name_key, **extra):
    """A well-formed spec object: any name, any JSON params."""
    return st.fixed_dictionaries(
        {name_key: st.text(max_size=8)},
        optional={"params": _params, **extra},
    )


_counts = st.integers(0, 50)
_stops = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rounds"), "rounds": _counts}),
    st.fixed_dictionaries(
        {
            "kind": st.just("target_discrepancy"),
            "target": st.integers(-2, 50),
            "max_rounds": _counts,
        },
        optional={"check_every": st.integers(1, 4)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("converged"), "max_rounds": _counts},
        optional={
            "window": st.integers(1, 20),
            "check_every": st.integers(1, 4),
        },
    ),
)

#: Well-formed scenario objects (their specs are never built).
_valid = st.fixed_dictionaries(
    {
        "graph": _spec_dict("family"),
        "algorithm": _spec_dict("name", seed=st.integers(-5, 5)),
        "loads": _spec_dict("name"),
        "stop": _stops,
    },
    optional={
        "replicas": st.integers(1, 4),
        "probes": st.lists(_spec_dict("name"), max_size=2),
        "dynamics": st.one_of(st.none(), _spec_dict("name")),
        "faults": st.one_of(st.none(), _spec_dict("name")),
        "record_history": st.booleans(),
        "validate_every_round": st.booleans(),
        "name": st.text(max_size=6),
        "engine": st.sampled_from(["auto", "dense", "structured"]),
    },
)

#: Where a mutation lands: a top-level key or a key of a nested object.
_MUTATION_PATHS = [
    (key,)
    for key in (
        "graph", "algorithm", "loads", "stop", "replicas", "probes",
        "dynamics", "faults", "topology", "record_history",
        "validate_every_round", "name", "engine", "replica",
    )
] + [
    (outer, inner)
    for outer in ("graph", "algorithm", "loads", "stop")
    for inner in (
        "family", "name", "params", "seed", "kind", "rounds", "target",
        "max_rounds", "check_every", "window", "extra",
    )
]


def _mutate(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


#: Well-formed objects, and ones with one key set to arbitrary JSON.
_scenarios = st.one_of(
    _valid,
    st.builds(_mutate, _valid, st.sampled_from(_MUTATION_PATHS), _json),
)

#: Bounded so the module stays a few seconds of tier-1.
_FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_FUZZ
@given(_scenarios)
def test_scenario_from_dict_round_trips_or_raises_value_error(data):
    try:
        scenario = Scenario.from_dict(copy.deepcopy(data))
    except ValueError:
        return
    text = scenario.canonical_json()
    restored = Scenario.from_dict(json.loads(text))
    assert restored == scenario
    assert restored.content_hash() == scenario.content_hash()
    assert hash(restored.graph) == hash(scenario.graph)
    assert hash(restored.algorithm) == hash(scenario.algorithm)


@_FUZZ
@given(
    st.sampled_from(SPEC_TYPES),
    st.one_of(
        st.text(max_size=24),
        st.builds(
            lambda name, params: f"{name}:{json.dumps(params)}",
            st.text(max_size=8).filter(lambda name: ":" not in name),
            st.one_of(_params, _json),
        ),
    ),
)
def test_spec_shorthand_round_trips_or_raises_value_error(spec_type, text):
    try:
        spec = spec_type.parse(text)
    except ValueError:
        return
    assert isinstance(spec, RegistrySpec)
    restored = spec_type.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert hash(restored) == hash(spec)
