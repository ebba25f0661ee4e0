"""One machine for every registry-backed ``(name, params)`` spec.

A spec names a registered factory and its construction parameters,
round-trips through JSON (scenario files, CLI ``name:{json}``
shorthand) and builds fresh instances on demand.  :class:`RegistrySpec`
decides, in one place, how a spec is named, checked, hashed,
serialized and built.  Its seven subclasses set class attributes only:
``GraphSpec``, ``LoadSpec`` and ``AlgorithmSpec`` (which adds a
``seed`` field) in :mod:`repro.scenarios.spec`, ``ProbeSpec`` in
:mod:`repro.core.probes`, and ``DynamicsSpec``, ``FaultSpec`` and
``TopologySpec`` in the ``spec`` module of each schedule package::

    class FaultSpec(RegistrySpec):
        registry = FAULTS              # Registry to build from
        instance_type = FaultSchedule  # what build() must return
        kind = "fault"                 # noun for error messages

``name_key`` (the graph's ``"family"``) and ``always_params`` (emit
``"params": {}``) keep the serialized bytes that cache keys and goldens
hash.  ``build`` gives replica ``r`` a ``seed`` param of ``seed + r``.
Bad input is a ``ValueError`` naming the kind and the field: a
non-``str`` name or non-``dict`` params at construction, an unknown
key in ``from_dict``, and a factory's ``TypeError`` (a bad keyword or
value type), re-raised as :class:`SpecParamsError`.  The round loop
gets its schedules from :func:`coerce_spec`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.registry import Registry, freeze_params

__all__ = ["RegistrySpec", "SpecParamsError", "coerce_spec", "spec_fields"]


class SpecParamsError(ValueError):
    """A spec's factory rejected its params (bad keyword or value type)."""


def spec_fields(
    data, kind: str, required: tuple = ("name",), optional=("params",)
) -> dict:
    """Check one serialized object before reading it.

    ``data`` must be a JSON object holding every ``required`` key and
    no key outside ``required`` and ``optional``.  Returns ``data``;
    raises a ``ValueError`` naming ``kind`` and the key otherwise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} must be a JSON object, got {data!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{kind} is missing the field {key!r}")
    known = dict.fromkeys((*required, *optional))
    for key in data:
        if key not in known:
            raise ValueError(
                f"{kind} has unknown field {key!r}; known: "
                f"{', '.join(known)}"
            )
    return data


@dataclass(frozen=True)
class RegistrySpec:
    """A registered factory by name plus construction parameters.

    Subclasses set :attr:`registry`, :attr:`instance_type` and
    :attr:`kind` (class attributes, not dataclass fields).  One that
    adds no field is *not* re-decorated with ``@dataclass``, so the
    frozen fields, equality and ``__hash__`` are inherited unchanged;
    one that does (``AlgorithmSpec.seed``) re-binds ``__hash__``.
    """

    name: str
    params: dict = field(default_factory=dict)

    #: Registry :meth:`build` creates from (subclass-provided unless
    #: the subclass overrides ``build``).
    registry: ClassVar[Registry]
    #: Type ``build`` must return (subclass-provided).
    instance_type: ClassVar[type]
    #: Human noun for error messages (subclass-provided).
    kind: ClassVar[str] = "spec"
    #: Serialized key holding :attr:`name`.
    name_key: ClassVar[str] = "name"
    #: Serialize ``params`` even when empty.
    always_params: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(
                f"{self.kind} {self.name_key} must be a str, got "
                f"{self.name!r}"
            )
        if not isinstance(self.params, dict):
            raise ValueError(
                f"{self.kind} params must be a dict, got {self.params!r}"
            )
        # A private copy: the caller's dict can change without moving
        # this spec's hash.
        object.__setattr__(self, "params", dict(self.params))

    def __hash__(self) -> int:
        return hash(freeze_params(vars(self)))

    @classmethod
    def _extra_fields(cls) -> list[str]:
        """Dataclass fields a subclass adds after ``name`` and ``params``."""
        return [f.name for f in fields(cls)[2:]]

    def build(self, replica: int = 0):
        """Build a fresh instance, offsetting ``seed`` by ``replica``."""
        return self._create(self.registry.create, replica)

    def _create(self, factory, replica: int = 0, /, **fixed):
        """``factory(name, **fixed, **params)`` with the replica's seed.

        A ``TypeError`` from the call becomes a :class:`SpecParamsError`
        naming the spec; the result must be an :attr:`instance_type`.
        """
        params = dict(self.params)
        try:
            if replica and "seed" in params:
                params["seed"] += replica
            obj = factory(self.name, **fixed, **params)
        except TypeError as exc:
            raise SpecParamsError(
                f"{self.kind} {self.name!r} rejected params "
                f"{self.params!r}: {exc}"
            ) from exc
        if not isinstance(obj, self.instance_type):
            raise TypeError(
                f"{self.kind} factory {self.name!r} returned "
                f"{type(obj).__name__}, expected "
                f"{self.instance_type.__name__}"
            )
        return obj

    def to_dict(self) -> dict:
        data: dict = {self.name_key: self.name}
        for key in self._extra_fields():
            data[key] = getattr(self, key)
        if self.params or self.always_params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict):
        extras = cls._extra_fields()
        spec_fields(data, cls.kind, (cls.name_key,), ("params", *extras))
        return cls(
            data[cls.name_key],
            data.get("params", {}),
            **{key: data[key] for key in extras if key in data},
        )

    @classmethod
    def parse(cls, text: str):
        """Parse CLI shorthand: ``name`` or ``name:{json params}``."""
        if ":" not in text:
            return cls(text)
        name, _, raw = text.partition(":")
        params = json.loads(raw)
        if not isinstance(params, dict):
            raise ValueError(
                f"{cls.kind} params must be a JSON object, got {raw!r}"
            )
        return cls(name, params)


def coerce_spec(value, spec_type: type[RegistrySpec], replica: int = 0):
    """Coerce ``value`` into a fresh-enough built instance.

    ``None`` passes through (axis inactive); a ``spec_type`` builds a
    fresh instance for ``replica``; a ready ``spec_type.instance_type``
    instance passes through as-is (the caller owns its state).
    """
    if value is None:
        return None
    if isinstance(value, spec_type):
        return value.build(replica)
    if isinstance(value, spec_type.instance_type):
        return value
    raise TypeError(
        f"cannot interpret {value!r} as {spec_type.kind}: expected "
        f"None, a {spec_type.__name__}, or a "
        f"{spec_type.instance_type.__name__} instance"
    )
