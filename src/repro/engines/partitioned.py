"""Partitioned multi-core backend — one graph split across processes.

Every other scale lever parallelizes *across* runs (``repro.exec``
shards suites); this backend parallelizes *inside* one run.  The graph
is split into ``workers`` contiguous partitions
(:class:`~repro.graphs.partition.PartitionBook`), each owned by a
persistent single-worker ``ProcessPoolExecutor``, and a round's arrays
travel through POSIX shared memory: the parent copies the compact
round's per-node vectors (edge share, and rotor/extra for windowed
rounds) plus the load vector into named blocks, each worker computes
its partition's slice of the new loads in place, and the parent reads
the result back.  Per-round IPC is therefore one tiny task message per
partition — the bulk data moves through ``/dev/shm`` without pickling.

The structured-sends protocol makes the cross-partition traffic small
and fully described by the halo: a partition needs its neighbors'
edge-share scalars, plus — for rotor rounds — the per-cut-edge window
state (``rotors``/``extra`` of halo nodes and the cyclic positions of
reverse ports, precomputed per partition as ``pos_rev``).  Workers keep
partition-static state (remapped adjacency, halo ids, rotor-position
slices) between rounds; topology churn routes dirty-row refreshes to
the owning partition and repairs both sides' halos (ghost slots are
append-only, see :mod:`repro.graphs.partition`).

Everything is ``int64`` end to end and each worker mirrors
:meth:`~repro.core.structured.StructuredRound.apply` exactly over its
disjoint row range, so the result is **bit-identical** to the serial
structured engine (enforced by the cross-backend property suite and
the partition-boundary tests).

Execution modes (``engine="partitioned:{...}"`` params):

* ``workers`` — number of partitions *and* worker processes (default
  ``min(4, cpu_count)``).
* ``min_nodes`` — graphs smaller than this run the same partitioned
  kernel inline (no processes): below a few thousand nodes the ~ms
  process round-trip dwarfs the sub-ms round itself (default 4096).
* ``inline`` — force inline (``true``) or force worker processes
  (``false``) regardless of size; ``null``/omitted means auto.
"""

from __future__ import annotations

import itertools
import os
import secrets
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.structured import in_window
from repro.engines.base import STRUCTURED, EngineBackend, register_engine
from repro.graphs.partition import PartitionBook


def default_workers() -> int:
    """Default partition count: up to four, bounded by the machine."""
    return max(1, min(4, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# The partition kernel (shared by the inline path and the workers)
# ----------------------------------------------------------------------


def _partition_delta(
    lo,
    hi,
    degree,
    d_plus,
    halo_ids,
    adj_local,
    share,
    rotors,
    extra,
    pos_local,
    pos_rev,
    base,
    out,
):
    """One partition's rows of the round, written into ``out[..., lo:hi]``.

    Mirrors :meth:`StructuredRound.apply` exactly over the owned range:
    ``new = loads - d·share - window_out + share-gather + window_in``.
    ``share`` (and ``rotors``/``extra`` for windowed rounds) are full
    length-``n`` vectors — the partition reads its own slice plus the
    halo slots; ``adj_local`` indexes the concatenated
    ``[own | halo]`` space.  All integer, so the per-row sums match the
    serial engine bit for bit.
    """
    own = share[..., lo:hi]
    if halo_ids.size:
        ext = np.concatenate([own, share[..., halo_ids]], axis=-1)
    else:
        ext = own
    delta = np.take(ext, adj_local, axis=-1).sum(axis=-1)
    delta -= degree * own
    if rotors is not None:
        rot_own = rotors[lo:hi]
        len_own = extra[lo:hi]
        hits = in_window(
            pos_local, rot_own[:, None], len_own[:, None], d_plus
        )
        delta -= hits.sum(axis=1)
        if halo_ids.size:
            rot_ext = np.concatenate([rot_own, rotors[halo_ids]])
            len_ext = np.concatenate([len_own, extra[halo_ids]])
        else:
            rot_ext, len_ext = rot_own, len_own
        in_hits = in_window(
            pos_rev, rot_ext[adj_local], len_ext[adj_local], d_plus
        )
        delta += in_hits.sum(axis=1)
    if base is not None:
        delta += base[..., lo:hi]
    out[..., lo:hi] = delta


# ----------------------------------------------------------------------
# Worker side (module level so tasks pickle under any start method)
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {}
_WORKER_SHM: dict = {}


def _worker_attach(name):
    shm = _WORKER_SHM.get(name)
    if shm is None:
        # Attaching registers the segment with the resource tracker a
        # second time; under the fork start method the tracker process
        # is shared with the parent and its cache is a set, so the
        # re-registration is a no-op and the parent's unlink stays the
        # single point of cleanup.  (3.11 has no track= parameter to
        # opt out of tracking; unregistering here would instead remove
        # the *parent's* entry from the shared tracker.)
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = shm
    return shm


def _worker_view(ref):
    name, shape, dtype = ref
    return np.ndarray(
        shape, dtype=np.dtype(dtype), buffer=_worker_attach(name).buf
    )


def _worker_update(state, update):
    """Apply one parent-shipped state delta (init / churn repair)."""
    if "init" in update:
        payload = update["init"]
        state.clear()
        state.update(payload)
        state["pos"] = {}
    elif "adj" in update:
        payload = update["adj"]
        if payload["halo_append"].size:
            state["halo_ids"] = np.concatenate(
                [state["halo_ids"], payload["halo_append"]]
            )
        state["adj_local"][payload["rows"]] = payload["adj_local"]
    elif "pos_init" in update:
        payload = update["pos_init"]
        state["pos"][payload["key"]] = [
            payload["pos_local"],
            payload["pos_rev"],
        ]
    else:
        payload = update["pos"]
        entry = state["pos"][payload["key"]]
        entry[0][payload["rows"]] = payload["pos_local"]
        entry[1][payload["rows"]] = payload["pos_rev"]


def _worker_round(task):
    """Run one partition's share of a round inside the worker."""
    state = _WORKER_STATE.setdefault(task["graph"], {"pos": {}})
    for update in task["updates"]:
        _worker_update(state, update)
    share = _worker_view(task["share"])
    loads = _worker_view(task["loads"])
    if task["window"] is None:
        rotors = extra = pos_local = pos_rev = None
    else:
        rotors = _worker_view(task["rotors"])
        extra = _worker_view(task["extra"])
        pos_local, pos_rev = state["pos"][task["window"]]
    # Reading and writing the shared loads block is race-free: every
    # partition touches only its own [lo, hi) slice of it.
    _partition_delta(
        state["lo"],
        state["hi"],
        state["degree"],
        state["d_plus"],
        state["halo_ids"],
        state["adj_local"],
        share,
        rotors,
        extra,
        pos_local,
        pos_rev,
        loads,
        loads,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _Arena:
    """Named shared-memory blocks, one per (kind, shape) in use."""

    def __init__(self) -> None:
        self.prefix = f"repro-pt-{os.getpid()}-{secrets.token_hex(3)}"
        self.blocks: dict = {}
        self.counter = 0

    def _block(self, kind, shape, dtype):
        key = (kind, tuple(shape))
        entry = self.blocks.get(key)
        if entry is None:
            from multiprocessing import shared_memory

            self.counter += 1
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            shm = shared_memory.SharedMemory(
                create=True,
                size=max(size, 1),
                name=f"{self.prefix}-{self.counter}",
            )
            view = np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf)
            ref = (shm.name, tuple(shape), dtype.str)
            entry = (shm, view, ref)
            self.blocks[key] = entry
        return entry

    def put(self, kind, array):
        """Copy ``array`` into the ``kind`` block; return its ref."""
        _, view, ref = self._block(kind, array.shape, array.dtype)
        np.copyto(view, array)
        return view, ref

    def close(self) -> None:
        for shm, _, _ in self.blocks.values():
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - already torn down
                pass
        self.blocks.clear()


class _Runtime:
    """The per-engine process pools + shared-memory arena."""

    def __init__(self, parts: int) -> None:
        import multiprocessing

        self.arena = _Arena()
        # Fork keeps one shared resource-tracker process, so the
        # workers' shm attachments never race the parent's unlink (a
        # spawned worker's private tracker would tear segments down
        # when that worker exits first).
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        # One single-worker executor per partition: partition state
        # lives in its worker between rounds, so tasks must route to a
        # fixed process — k pools of one beat one pool of k here.
        self.executors = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(parts)
        ]
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for executor in self.executors:
            executor.shutdown(wait=False, cancel_futures=True)
        self.arena.close()


class _PosState:
    """Per (graph, positions-array) rotor precomputes, per partition.

    ``pos_local[p]`` are the cyclic positions of partition ``p``'s own
    original-edge ports; ``pos_rev[p][u, j]`` is the cyclic position of
    the *reverse* port of edge ``(u, j)`` at its far endpoint — the
    only thing a worker needs from foreign positions rows, precomputed
    so the full ``(n, d+)`` positions array never ships per round.
    """

    __slots__ = ("key", "source", "pos_local", "pos_rev", "pending")

    def __init__(self, key, graph, book, positions) -> None:
        self.key = key
        # The positions array this state was built from; a new array
        # that reuses a freed one's id must not inherit its state.
        self.source = weakref.ref(positions)
        self.pending: list = []
        d = graph.degree
        self.pos_local = []
        self.pos_rev = []
        for halo in book.halos:
            lo, hi = halo.lo, halo.hi
            self.pos_local.append(
                np.ascontiguousarray(positions[lo:hi, :d])
            )
            self.pos_rev.append(
                positions[
                    graph.adjacency[lo:hi], graph.reverse_port[lo:hi]
                ]
            )

    def repair(self, graph, book, positions, rows):
        """Recompute mutated rows' positions; yield worker updates.

        ``rows`` is the dirty set *plus its post-churn neighborhood*:
        a clean node's ``pos_rev`` can reference a dirty neighbor's
        positions row, so the refresh closure is ``dirty ∪ N(dirty)``.
        """
        d = graph.degree
        for part, part_rows in book.rows_by_partition(rows):
            local = part_rows - book.halos[part].lo
            pos_local = np.ascontiguousarray(positions[part_rows, :d])
            pos_rev = positions[
                graph.adjacency[part_rows], graph.reverse_port[part_rows]
            ]
            self.pos_local[part][local] = pos_local
            self.pos_rev[part][local] = pos_rev
            yield part, {
                "pos": {
                    "key": self.key,
                    "rows": local,
                    "pos_local": pos_local,
                    "pos_rev": pos_rev,
                }
            }


class _GraphState:
    """Parent-side partition state for one graph identity."""

    __slots__ = ("token", "book", "pos", "pending", "updates", "processes")

    def __init__(self, token, graph, parts, processes) -> None:
        self.token = token
        self.book = PartitionBook(graph, parts)
        self.pos: dict = {}
        self.pending: list = []
        self.processes = processes
        self.updates: list = [[] for _ in range(self.book.parts)]
        if processes:
            for part, halo in enumerate(self.book.halos):
                self.updates[part].append(
                    {
                        "init": {
                            "lo": halo.lo,
                            "hi": halo.hi,
                            "degree": graph.degree,
                            "d_plus": graph.total_degree,
                            "halo_ids": halo.halo_ids.copy(),
                            "adj_local": halo.adj_local.copy(),
                        }
                    }
                )


@register_engine
class PartitionedEngine(EngineBackend):
    """Structured rounds over k graph partitions in worker processes."""

    name = "partitioned"
    protocol = STRUCTURED
    kernel = "shm"

    def __init__(
        self,
        workers: int | None = None,
        min_nodes: int = 4096,
        inline: bool | None = None,
    ) -> None:
        if workers is None:
            workers = default_workers()
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.min_nodes = int(min_nodes)
        self.inline = inline
        # Graph object -> _GraphState, like the dense engine's flat
        # index cache.  Worker-side state is keyed by a per-engine counter,
        # so a graph that reuses a freed graph's id gets a fresh token.
        self._states: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._tokens = itertools.count()
        self._runtime: _Runtime | None = None

    # -- state ----------------------------------------------------------

    def _use_processes(self, graph) -> bool:
        if self.workers == 1:
            return False
        if self.inline is not None:
            return not self.inline
        return graph.num_nodes >= self.min_nodes

    def _state(self, graph) -> _GraphState:
        state = self._states.get(graph)
        if state is None:
            state = _GraphState(
                next(self._tokens),
                graph,
                min(self.workers, graph.num_nodes),
                self._use_processes(graph),
            )
            self._states[graph] = state
        return state

    def _runtime_for(self, state: _GraphState) -> _Runtime:
        runtime = self._runtime
        if runtime is None:
            runtime = self._runtime = _Runtime(state.book.parts)
            weakref.finalize(self, runtime.close)
        return runtime

    def partition_stats(self, graph) -> dict:
        """Partition/halo statistics for diagnostics and reports."""
        return self._state(graph).book.describe()

    # -- structured protocol --------------------------------------------

    def apply(self, graph, compact, loads: np.ndarray) -> np.ndarray:
        state = self._state(graph)
        book = state.book
        window = compact.window
        self._repair_pending(state, graph)
        pos = None
        if window is not None:
            pos = self._pos_state(state, graph, window)
        if not state.processes:
            return self._apply_inline(state, graph, compact, loads, pos)
        return self._apply_processes(state, graph, compact, loads, pos)

    def _repair_pending(self, state: _GraphState, graph) -> None:
        """Route queued dirty rows to their owning partitions."""
        if not state.pending:
            return
        rows = np.unique(np.concatenate(state.pending))
        state.pending = []
        for part, part_rows in state.book.rows_by_partition(rows):
            halo = state.book.halos[part]
            local_rows, fresh = halo.repair_rows(
                part_rows, graph.adjacency
            )
            if state.processes:
                state.updates[part].append(
                    {
                        "adj": {
                            "rows": local_rows,
                            "adj_local": halo.adj_local[local_rows].copy(),
                            "halo_append": fresh,
                        }
                    }
                )

    def _pos_state(self, state: _GraphState, graph, window) -> _PosState:
        pos = state.pos.get(id(window.positions))
        if pos is None or pos.source() is not window.positions:
            pos = _PosState(
                next(self._tokens), graph, state.book, window.positions
            )
            state.pos[id(window.positions)] = pos
            if state.processes:
                for part in range(state.book.parts):
                    state.updates[part].append(
                        {
                            "pos_init": {
                                "key": pos.key,
                                "pos_local": pos.pos_local[part].copy(),
                                "pos_rev": pos.pos_rev[part].copy(),
                            }
                        }
                    )
        elif pos.pending:
            rows = np.unique(np.concatenate(pos.pending))
            pos.pending = []
            for part, update in pos.repair(
                graph, state.book, window.positions, rows
            ):
                if state.processes:
                    state.updates[part].append(update)
        return pos

    def _apply_inline(self, state, graph, compact, loads, pos):
        share = compact.edge_share
        window = compact.window
        out = np.empty_like(loads)
        for halo in state.book.halos:
            _partition_delta(
                halo.lo,
                halo.hi,
                graph.degree,
                graph.total_degree,
                halo.halo_ids,
                halo.adj_local,
                share,
                window.rotors if window is not None else None,
                window.extra if window is not None else None,
                pos.pos_local[halo.part] if pos is not None else None,
                pos.pos_rev[halo.part] if pos is not None else None,
                loads,
                out,
            )
        return out

    def _apply_processes(self, state, graph, compact, loads, pos):
        runtime = self._runtime_for(state)
        arena = runtime.arena
        _, share_ref = arena.put("share", compact.edge_share)
        loads_view, loads_ref = arena.put("loads", loads)
        rotors_ref = extra_ref = None
        if compact.window is not None:
            _, rotors_ref = arena.put("rotors", compact.window.rotors)
            _, extra_ref = arena.put("extra", compact.window.extra)
        futures = []
        for part in range(state.book.parts):
            task = {
                "graph": state.token,
                "updates": state.updates[part],
                "share": share_ref,
                "loads": loads_ref,
                "rotors": rotors_ref,
                "extra": extra_ref,
                "window": pos.key if pos is not None else None,
            }
            state.updates[part] = []
            futures.append(
                runtime.executors[part].submit(_worker_round, task)
            )
        for future in futures:
            future.result()
        # Private copy: the block is rewritten next round, and callers
        # (fault settlement, probes) own the returned array.
        return np.array(loads_view)

    # -- topology churn -------------------------------------------------

    def refresh_topology(self, graph, dirty=None) -> None:
        state = self._states.get(graph)
        if state is None:
            return
        if dirty is None:
            # Unknown mutation: rebuild from scratch on next apply (a
            # fresh init payload replaces the workers' state wholesale).
            del self._states[graph]
            return
        rows = np.asarray(dirty, dtype=np.int64)
        if rows.size == 0:
            return
        # dirty ∪ N(dirty): a clean node's pos_rev references its
        # neighbors' positions rows, so the closure includes the
        # post-churn neighborhood (nodes that lost a dirty neighbor
        # are themselves dirty — both endpoints always are).
        affected = np.unique(
            np.concatenate([rows, graph.adjacency[rows].ravel()])
        )
        state.pending.append(affected)
        for pos in state.pos.values():
            pos.pending.append(affected)
