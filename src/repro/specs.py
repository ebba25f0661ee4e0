"""Shared base for registry-backed ``(name, params)`` specifications.

:class:`~repro.dynamics.spec.DynamicsSpec`,
:class:`~repro.faults.spec.FaultSpec`, and
:class:`~repro.topology.spec.TopologySpec` are the same machine: a
registered factory by name plus construction parameters, round-tripping
through JSON (scenario files, CLI shorthand) and building fresh
instances per replica.  If the params include a ``seed``, replica ``r``
is built with ``seed + r`` so replicas see independent — and
batch-size-independent — event streams, exactly like seeded load specs.

:class:`RegistrySpec` is that machine written once.  Subclasses declare
three class attributes::

    class FaultSpec(RegistrySpec):
        registry = FAULTS          # Registry to build from
        instance_type = FaultSchedule  # what build() must return
        kind = "fault"             # noun for CLI parse errors

and inherit ``build``/``to_dict``/``from_dict``/``parse`` plus the
params-aware hash.  :func:`coerce_spec` is the shared
``as_injector``/``as_fault_schedule``/``as_topology_schedule`` body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.registry import Registry, freeze_params, parse_spec_shorthand
from repro.registry import spec_fields

__all__ = ["RegistrySpec", "coerce_spec"]


@dataclass(frozen=True)
class RegistrySpec:
    """A registered factory by name plus construction parameters.

    Subclasses set :attr:`registry`, :attr:`instance_type`, and
    :attr:`kind` (class attributes, not dataclass fields) and are
    otherwise complete — they are *not* re-decorated with
    ``@dataclass``, so the frozen fields, equality, and the explicit
    ``__hash__`` below are inherited unchanged.
    """

    name: str
    params: dict = field(default_factory=dict)

    #: Registry instances are built from (subclass-provided).
    registry: ClassVar[Registry]
    #: Type ``build`` must return (subclass-provided).
    instance_type: ClassVar[type]
    #: Human noun for parse/build error messages (subclass-provided).
    kind: ClassVar[str] = "spec"

    def __hash__(self) -> int:
        return hash((self.name, freeze_params(self.params)))

    def build(self, replica: int = 0):
        """Build a fresh instance, offsetting ``seed`` by ``replica``."""
        params = dict(self.params)
        if replica and "seed" in params:
            params["seed"] += replica
        obj = self.registry.create(self.name, **params)
        if not isinstance(obj, self.instance_type):
            raise TypeError(
                f"{self.kind} factory {self.name!r} returned "
                f"{type(obj).__name__}, expected "
                f"{self.instance_type.__name__}"
            )
        return obj

    def to_dict(self) -> dict:
        data: dict = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict):
        data = spec_fields(data, cls.kind)
        return cls(data["name"], dict(data.get("params", {})))

    @classmethod
    def parse(cls, text: str):
        """Parse CLI shorthand: ``name`` or ``name:{json params}``."""
        return cls(*parse_spec_shorthand(text, cls.kind))


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
