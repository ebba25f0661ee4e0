"""Generic decorator-based plugin registries.

One mechanism replaces the three ad-hoc lookup tables the codebase grew
(the balancer factory dict, the graph-family dispatch, per-experiment
config plumbing): a :class:`Registry` maps names to factory callables
and is populated with a decorator::

    BALANCERS = Registry("balancer")

    @BALANCERS.register("my_scheme")
    def _build(seed: int = 0, **params):
        return MyScheme(**params)

Registries are :class:`~collections.abc.Mapping`\\ s, so existing code
that iterated the old dicts (``for name in REGISTRY``, ``name in
FAMILY_BUILDERS``) keeps working unchanged.  Registering a name twice
raises :class:`DuplicateRegistrationError` so plugins cannot silently
shadow built-ins; pass ``overwrite=True`` to replace deliberately.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterator, TypeVar

F = TypeVar("F", bound=Callable)


def freeze_params(value):
    """Recursively convert a params tree into something hashable.

    The hashing helper behind :class:`repro.specs.RegistrySpec`, the
    base of every ``(name, params)`` spec: dicts become sorted
    key/value tuples, sequences become tuples, sets become frozensets,
    so equal params hash equally whatever their key order.
    """
    if isinstance(value, dict):
        return tuple(
            sorted((k, freeze_params(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_params(v) for v in value)
    if isinstance(value, set):
        return frozenset(freeze_params(v) for v in value)
    return value


class RegistryError(Exception):
    """Base class for registry failures."""


class DuplicateRegistrationError(RegistryError, ValueError):
    """A name was registered twice without ``overwrite=True``."""


class UnknownEntryError(RegistryError, KeyError):
    """Lookup of a name that was never registered."""

    def __str__(self) -> str:  # KeyError repr-quotes its args; we don't
        return self.args[0] if self.args else ""


class Registry(Mapping):
    """Name -> factory mapping with decorator-based registration.

    Args:
        kind: human-readable entry kind (``"balancer"``, ``"graph
            family"``, ...) used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Callable] = {}

    # -- registration ---------------------------------------------------

    def register(
        self, name: str | None = None, *, overwrite: bool = False
    ) -> Callable[[F], F]:
        """Decorator registering a factory under ``name``.

        Usable as ``@registry.register("name")`` or bare
        ``@registry.register`` (the factory's ``__name__`` is used).
        """
        if callable(name):  # bare @registry.register
            factory, name = name, None
            self.add(factory.__name__, factory)
            return factory

        def decorator(factory: F) -> F:
            self.add(name or factory.__name__, factory, overwrite=overwrite)
            return factory

        return decorator

    def add(
        self, name: str, factory: Callable, *, overwrite: bool = False
    ) -> None:
        """Imperative registration (the decorator's workhorse)."""
        if not callable(factory):
            raise TypeError(
                f"{self.kind} {name!r} must be callable, got {factory!r}"
            )
        if name in self._entries and not overwrite:
            raise DuplicateRegistrationError(
                f"{self.kind} {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        self._entries[name] = factory

    def remove(self, name: str) -> None:
        """Unregister ``name`` (raises if absent)."""
        if name not in self._entries:
            raise UnknownEntryError(
                f"cannot remove unknown {self.kind} {name!r}"
            )
        del self._entries[name]

    # -- lookup ---------------------------------------------------------

    def create(self, name: str, /, **params):
        """Instantiate ``name`` with ``params`` forwarded to the factory."""
        return self[name](**params)

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    # -- Mapping protocol ----------------------------------------------
    # ``get(name, default)`` keeps plain-dict semantics via the Mapping
    # mixin; the hint-rich error lives in ``__getitem__`` (a KeyError
    # subclass, so dict-style error handling keeps working too).

    def __getitem__(self, name: str) -> Callable:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries))
            raise UnknownEntryError(
                f"unknown {self.kind} {name!r}; known: {known}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, entries={self.names()})"
