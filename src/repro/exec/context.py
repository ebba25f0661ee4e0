"""Executor settings: one validated :class:`ExecConfig`, set ambiently.

Experiment drivers call ``ScenarioSuite.run`` deep inside their own
code; threading ``workers=``/``cache=`` parameters through every config
dataclass would couple all of them to the executor.  Instead the
executor settings live in a process-local ambient config:

    with repro.exec.configure(workers=4, cache=".repro-cache"):
        run_table1()          # every suite inside fans out and caches

``ScenarioSuite.run`` takes no executor arguments: it runs
:class:`~repro.exec.runner.SuiteExecutor` on :func:`current`, so
``repro-lb run --workers 4`` parallelizes every suite-based driver
without any of them knowing.  ``SuiteExecutor`` builds the same
:class:`ExecConfig` from its arguments, so every surface validates a
setting with the same check and message.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from repro.exec.cache import ResultCache, as_cache
from repro.exec.retry import RetryPolicy, as_retry_policy

ON_SHARD_FAILURE = ("raise", "partial")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExecConfig:
    """Executor settings, checked on construction (``TypeError`` or
    ``ValueError``); ``cache`` and ``retry`` go through
    :func:`~repro.exec.cache.as_cache` / :func:`~repro.exec.retry.as_retry_policy`.

    Attributes:
        workers: process-pool fan-out (1 = in-process).
        cache: content-addressed result cache, or None (no caching).
        max_replicas_per_shard: split a scenario's replica axis into
            shards of at most this many replicas (None = one shard per
            scenario; replica splitting never changes results, only
            work-unit granularity).
        retry: shard retry policy, or None (single attempt per shard).
        timeout: per-shard wall-clock budget in seconds, or None
            (unbounded).  A timeout forces the killable worker pool
            even at ``workers=1``.
        on_shard_failure: ``"raise"`` (fail the suite after all shards
            settle) or ``"partial"`` (graceful degradation: return the
            completed outcomes, report the holes).
    """

    workers: int = 1
    cache: ResultCache | None = None
    max_replicas_per_shard: int | None = None
    retry: RetryPolicy | None = None
    timeout: float | None = None
    on_shard_failure: str = "raise"

    def __post_init__(self) -> None:
        if not _is_int(self.workers):
            raise TypeError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        split = self.max_replicas_per_shard
        if split is not None and not _is_int(split):
            raise TypeError(f"max_replicas_per_shard must be an int or None, got {split!r}")
        if split is not None and split < 1:
            raise ValueError(f"max_replicas_per_shard must be >= 1, got {split}")
        timeout = self.timeout
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            raise TypeError(f"timeout must be a number or None, got {timeout!r}")
        if timeout is not None and not timeout > 0:  # also rejects NaN
            raise ValueError(f"timeout must be positive, got {timeout}")
        if self.on_shard_failure not in ON_SHARD_FAILURE:
            raise ValueError(
                f"on_shard_failure must be one of {ON_SHARD_FAILURE}, "
                f"got {self.on_shard_failure!r}"
            )
        object.__setattr__(self, "cache", as_cache(self.cache))
        object.__setattr__(self, "retry", as_retry_policy(self.retry))


_ROOT = ExecConfig()
# A ContextVar (not a module-global stack): concurrent threads / async
# tasks each see their own configuration, an exiting context restores
# exactly the frame it replaced (token-based reset cannot pop someone
# else's), and a configure() in one thread never leaks into another.
_current: ContextVar[ExecConfig] = ContextVar(
    "repro_exec_config", default=_ROOT
)


def current() -> ExecConfig:
    """The innermost active :func:`configure` config (or the default)."""
    return _current.get()


@contextmanager
def configure(
    workers: int | None = None,
    cache=None,
    max_replicas_per_shard: int | None = None,
    retry=None,
    timeout: float | None = None,
    on_shard_failure: str | None = None,
):
    """Override the ambient executor settings within a ``with`` block.

    ``None`` arguments inherit from the enclosing configuration, so
    nested contexts compose — e.g. an outer ``configure(cache=...)``
    with an inner ``configure(workers=4)`` runs parallel *and* cached.
    ``cache`` accepts a :class:`~repro.exec.cache.ResultCache`, a
    directory path, or ``False`` to explicitly disable an inherited
    cache.  ``retry`` accepts a
    :class:`~repro.exec.retry.RetryPolicy`, an attempt count, or
    ``False`` to disable inherited retries; ``timeout`` (seconds,
    ``False`` disables) and ``on_shard_failure``
    (``"raise"``/``"partial"``) follow the same inherit-unless-set
    rule.  Values are checked by :class:`ExecConfig` on entry.
    Scoping is per thread / async context.
    """
    settings = {
        "workers": workers,
        "cache": cache,
        "max_replicas_per_shard": max_replicas_per_shard,
        "retry": retry,
        "timeout": timeout,
        "on_shard_failure": on_shard_failure,
    }
    overrides = {
        name: None
        if value is False and name in ("cache", "retry", "timeout")
        else value
        for name, value in settings.items()
        if value is not None
    }
    config = replace(current(), **overrides)
    token = _current.set(config)
    try:
        yield config
    finally:
        _current.reset(token)
