"""Deterministic sharding of a ScenarioSuite into independent work units.

A shard is one scenario's contiguous replica range.  Scenarios are
independent by construction, and replicas within a scenario are too
(replica ``r`` always runs with seed offset ``r``, whichever shard
carries it), so shards can execute in any order on any worker and the
reassembled records are bit-identical to a serial run.

The default granularity is one shard per scenario.  Crucially, the
shard plan depends only on the suite (and the optional explicit
``max_replicas_per_shard``), *never* on the worker count — so cache
keys derived from shards stay stable when the same suite is re-run
with a different ``--workers`` value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.scenarios.spec import Scenario, ScenarioSuite, content_hash


def _package_version() -> str:
    # Read lazily through the package attribute (not a from-import) so
    # the version baked into cache keys always reflects the running
    # package — and so tests can exercise version-bump invalidation.
    import repro

    return repro.__version__


_FINGERPRINT_CACHE: dict[str, str] = {}


def source_fingerprint(root: str | Path | None = None) -> str:
    """SHA-256 over the installed package's python sources.

    Baked into every cache key alongside the version string: a
    development edit to any ``repro`` module (same ``__version__``)
    changes the fingerprint, so stale pre-edit results can never be
    replayed as current ones.  Computed once per process per root
    (~milliseconds) and cached.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    else:
        root = Path(root)
    cached = _FINGERPRINT_CACHE.get(str(root))
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _FINGERPRINT_CACHE[str(root)] = value
    return value


@dataclass(frozen=True)
class Shard:
    """One work unit: a scenario index plus a replica range."""

    scenario_index: int
    replica_start: int
    replica_stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.replica_start < self.replica_stop:
            raise ValueError(
                f"invalid replica range [{self.replica_start}, "
                f"{self.replica_stop})"
            )

    @property
    def replica_range(self) -> range:
        return range(self.replica_start, self.replica_stop)

    def __len__(self) -> int:
        return self.replica_stop - self.replica_start

    def label(self, scenario: Scenario) -> str:
        name = scenario.name or scenario.label()
        if (
            self.replica_start == 0
            and self.replica_stop == scenario.replicas
        ):
            return name
        return (
            f"{name}[replicas {self.replica_start}:{self.replica_stop}]"
        )


def shard_key(
    scenario: Scenario,
    shard: Shard,
    version: str | None = None,
    source: str | None = None,
) -> str:
    """Content-addressed cache key for one shard's records.

    The key covers everything that determines the resulting records:
    the canonical scenario JSON (graph, algorithm + seed, loads,
    stop rule, probe set, dynamics spec, replicas, recording flags),
    the replica range, the package version, and a fingerprint of the
    installed sources (so both released engine changes *and*
    uncommitted development edits invalidate).
    Any difference in any of these yields a different key — a cache
    hit is only possible for a bit-identical rerun.

    Raises ``TypeError`` for scenarios whose params are not plain JSON
    (see :func:`repro.scenarios.canonical_json`) — such scenarios
    cannot be content-addressed and therefore cannot be cached.
    """
    return content_hash(
        {
            "scenario": scenario.to_dict(),
            "replicas": [shard.replica_start, shard.replica_stop],
            "version": version if version is not None else _package_version(),
            "source": source if source is not None else source_fingerprint(),
        }
    )


def plan_shards(
    suite: ScenarioSuite,
    max_replicas_per_shard: int | None = None,
) -> list[Shard]:
    """Deterministically split ``suite`` into ordered work units.

    One shard per scenario by default; with ``max_replicas_per_shard``
    each scenario's replica axis is additionally chunked into ranges of
    at most that many replicas (useful when a suite has fewer scenarios
    than workers).  The plan is a pure function of its arguments.
    """
    if max_replicas_per_shard is not None and max_replicas_per_shard < 1:
        raise ValueError(
            "max_replicas_per_shard must be >= 1, got "
            f"{max_replicas_per_shard}"
        )
    shards: list[Shard] = []
    for index, scenario in enumerate(suite):
        step = (
            scenario.replicas
            if max_replicas_per_shard is None
            else max_replicas_per_shard
        )
        for start in range(0, scenario.replicas, step):
            stop = min(start + step, scenario.replicas)
            shards.append(Shard(index, start, stop))
    return shards
