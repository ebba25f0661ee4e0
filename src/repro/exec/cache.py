"""Content-addressed, crash-safe result cache for suite shards.

Deterministic load-balancing runs are bit-reproducible, so a shard's
records are fully determined by its content hash (canonical scenario
JSON + replica range + package version — see
:func:`repro.exec.sharding.shard_key`).  The cache persists each
shard's :class:`~repro.core.trace.RunRecord`\\ s as one JSONL file
under ``.repro-cache/``:

    .repro-cache/<key[:2]>/<key>.jsonl
        line 1:    entry metadata (format tag, key, record count, ...)
        lines 2+:  one RunRecord dict per record

Entries are written atomically (temp file + ``os.replace``), so a
crash mid-write never leaves a readable-but-wrong entry; reads
validate the format tag, the key, and the record count and treat any
malformed or truncated entry as a miss to be recomputed — corrupted
data is never trusted.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.export import read_jsonl, write_jsonl
from repro.core.trace import RunRecord

ENTRY_FORMAT = "repro-shard-records/1"


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "write_errors": self.write_errors,
        }


@dataclass
class CacheEntry:
    """One decoded cache entry: the records plus the stored metadata."""

    key: str
    records: list[RunRecord]
    meta: dict = field(default_factory=dict)


class ResultCache:
    """JSONL-backed content-addressed store of shard records."""

    def __init__(self, root: str | Path = ".repro-cache") -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.jsonl"

    # -- read -----------------------------------------------------------

    def get(self, key: str) -> CacheEntry | None:
        """The entry for ``key``, or None (missing *or* corrupt).

        A corrupt entry — unparseable line, wrong format tag, key
        mismatch, or a record count that does not match the metadata
        (the signature of a torn write) — is counted in
        ``stats.corrupt`` and reported as a miss, so callers always
        recompute rather than trust damaged data.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            rows = read_jsonl(path)
            meta = rows[0]
            if (
                not isinstance(meta, dict)
                or meta.get("format") != ENTRY_FORMAT
                or meta.get("key") != key
                or meta.get("records") != len(rows) - 1
            ):
                raise ValueError("malformed cache entry")
            records = [RunRecord.from_dict(row) for row in rows[1:]]
        except (ValueError, KeyError, TypeError, IndexError,
                json.JSONDecodeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CacheEntry(key=key, records=records, meta=meta)

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> list[str]:
        """All stored entry keys (sorted; includes unvalidated ones)."""
        if not self.root.exists():
            return []
        return sorted(
            path.stem for path in self.root.glob("*/*.jsonl")
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- write ----------------------------------------------------------

    def put(
        self, key: str, records: list[RunRecord], meta: dict | None = None
    ) -> Path | None:
        """Atomically persist ``records`` under ``key``.

        The cache is an accelerator, never a correctness dependency:
        an ``OSError`` anywhere in the write path (disk full, read-only
        mount, permission change mid-run) is logged, counted in
        ``stats.write_errors``, and swallowed — the entry simply stays
        a miss to be recomputed next run, and returns ``None`` instead
        of the entry path.  Atomicity (temp file + ``os.replace``)
        guarantees a failed write never leaves a readable-but-torn
        entry behind.
        """
        path = self.path_for(key)
        header = {
            "format": ENTRY_FORMAT,
            "key": key,
            "records": len(records),
            **(meta or {}),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                write_jsonl(
                    [header, *(record.to_dict() for record in records)],
                    tmp,
                )
                os.replace(tmp, path)
            finally:
                if tmp.exists():
                    tmp.unlink()
        except OSError as exc:
            self.stats.write_errors += 1
            logging.getLogger(__name__).warning(
                "cache write failed for %s (%s); entry stays a miss",
                path,
                exc,
            )
            return None
        self.stats.writes += 1
        return path

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            self.path_for(key).unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r})"


def as_cache(value) -> ResultCache | None:
    """Coerce a cache argument: None, a ResultCache, or a directory."""
    if value is None or isinstance(value, ResultCache):
        return value
    if isinstance(value, (str, Path)):
        return ResultCache(value)
    raise TypeError(
        f"cannot interpret {value!r} as a cache: expected None, a "
        "ResultCache, or a directory path"
    )
