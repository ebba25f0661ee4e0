"""Loads-only recorders: discrepancy, load bounds, trajectories, periods.

Observers are capability-typed :class:`~repro.core.probes.Probe`\\ s
declaring what they consume.  The recorders in this module consume only
load vectors, so they ride the structured engine at full speed and let
a multi-replica stack share one stateless balancer.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import discrepancy
from repro.core.probes import LOADS, Probe, register_probe
from repro.core.trace import SamplingSchedule


class SampledRecorder(Probe):
    """Shared machinery for loads recorders on a sampling schedule.

    Subclasses implement :meth:`_capture` (what to record from a load
    vector).  The recorder keeps the initial boundary, every boundary
    the schedule wants, and — so sparse schedules still end at the
    run's last state — holds the most recent unsampled boundary as a
    pending sample that :meth:`_flushed` appends.
    """

    needs = LOADS

    def __init__(self, schedule: SamplingSchedule | None = None) -> None:
        self.schedule = schedule or SamplingSchedule.every(1)
        self.rounds: list[int] = []
        self._samples: list = []
        self._pending: tuple | None = None

    def _capture(self, loads):
        """The value recorded at a sampled boundary (override)."""
        raise NotImplementedError

    def start(self, graph, balancer, loads) -> None:
        self.rounds = [0]
        self._samples = [self._capture(loads)]
        self._pending = None

    def observe_loads(self, t, loads) -> None:
        value = self._capture(loads)
        if self.schedule.wants(t):
            self.rounds.append(t)
            self._samples.append(value)
            self._pending = None
        else:
            self._pending = (t, value)

    def _flushed(self) -> tuple[list[int], list]:
        """Sampled series plus the retained final boundary (if any)."""
        if self._pending is None:
            return self.rounds, self._samples
        t, value = self._pending
        return self.rounds + [t], self._samples + [value]


class DiscrepancyRecorder(SampledRecorder):
    """Records the discrepancy trajectory (one entry per round boundary).

    ``history[i]`` pairs with ``rounds[i]``; on the default every-round
    schedule ``history[0]`` is the initial discrepancy and
    ``history[t]`` the discrepancy at the beginning of round ``t + 1``.
    A sparser :class:`~repro.core.trace.SamplingSchedule` keeps the
    initial and final boundaries and samples between them.
    """

    def _capture(self, loads) -> int | float:
        return discrepancy(loads)

    @property
    def history(self) -> list[int | float]:
        """Sampled discrepancies (pairs with :attr:`rounds`)."""
        return self._samples

    @property
    def final(self) -> int | float:
        return self._flushed()[1][-1]

    @property
    def minimum(self) -> int | float:
        return min(self._flushed()[1])

    def columns(self):
        rounds, history = self._flushed()
        return {"discrepancy": (list(rounds), list(history))}

    def summary(self) -> dict:
        _, history = self._flushed()
        return {
            "final_discrepancy": history[-1],
            "min_discrepancy": min(history),
        }


@register_probe("load_bounds")
class LoadBoundsMonitor(Probe):
    """Tracks the global min/max load ever observed.

    Used to verify the NL (no negative load) column of Table 1: an
    algorithm is negative-load safe on a run iff ``min_ever >= 0``.
    """

    needs = LOADS

    def __init__(self) -> None:
        self.min_ever: int | None = None
        self.max_ever: int | None = None

    def start(self, graph, balancer, loads) -> None:
        self.min_ever = int(loads.min())
        self.max_ever = int(loads.max())

    def observe_loads(self, t, loads) -> None:
        self.min_ever = min(self.min_ever, int(loads.min()))
        self.max_ever = max(self.max_ever, int(loads.max()))

    @property
    def went_negative(self) -> bool:
        return self.min_ever is not None and self.min_ever < 0

    def summary(self) -> dict:
        return {"min_load": self.min_ever, "max_load": self.max_ever}


@register_probe("tier_loads")
class TierLoadProbe(Probe):
    """Final-state load percentiles, overall and per fabric tier.

    A loads-only probe (structured/batch fast paths stay live) whose
    :meth:`summary` carries the serving metrics — peak and p99 node
    load, plus per-tier mean/p99 when the graph exposes the
    ``node_tiers`` metadata channel (fat-tree, leaf-spine).  Putting
    the numbers in the summary (not the final vector) is what lets
    cached/parallel replays report them: :class:`RecordedRun` ships
    summaries but no load vectors.
    """

    needs = LOADS

    def __init__(self, percentile: float = 99.0) -> None:
        if not 0 <= percentile <= 100:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        self.percentile = float(percentile)
        self._last: np.ndarray | None = None
        self._tiers: np.ndarray | None = None
        self._tier_names: tuple[str, ...] | None = None

    def start(self, graph, balancer, loads) -> None:
        self._tiers = graph.node_tiers
        self._tier_names = graph.tier_names
        self._last = np.array(loads, dtype=np.int64, copy=True)

    def observe_loads(self, t, loads) -> None:
        np.copyto(self._last, loads)

    def _stats(self, loads: np.ndarray) -> tuple[float, int]:
        return (
            round(float(np.percentile(loads, self.percentile)), 6),
            int(loads.max()),
        )

    def summary(self) -> dict:
        key = f"p{self.percentile:g}_load"
        p_all, peak = self._stats(self._last)
        out = {key: p_all, "peak_load": peak}
        if self._tiers is not None:
            for tier_id, name in enumerate(self._tier_names):
                members = self._last[self._tiers == tier_id]
                if members.size == 0:
                    continue
                p_tier, peak_tier = self._stats(members)
                out[f"tier_{name}_mean_load"] = round(
                    float(members.mean()), 6
                )
                out[f"tier_{name}_{key}"] = p_tier
                out[f"tier_{name}_peak_load"] = peak_tier
        return out


class TrajectoryRecorder(SampledRecorder):
    """Records full load vectors on a sampling schedule (memory heavy).

    ``stride=k`` is shorthand for ``SamplingSchedule.every(k)``; pass
    ``schedule=`` for geometric or boundary-only sampling.  The final
    observed vector is always retained, so sparse schedules still end
    at the run's last state.
    """

    def __init__(
        self,
        stride: int = 1,
        schedule: SamplingSchedule | None = None,
    ) -> None:
        if schedule is None:
            if stride < 1:
                raise ValueError("stride must be >= 1")
            schedule = SamplingSchedule.every(stride)
        elif stride != 1:
            raise ValueError("pass either stride or schedule, not both")
        super().__init__(schedule)
        self.stride = stride

    def _capture(self, loads) -> np.ndarray:
        return loads.copy()

    @property
    def snapshots(self) -> list[np.ndarray]:
        """Sampled load vectors (pairs with :attr:`rounds`)."""
        return self._samples

    def as_array(self) -> np.ndarray:
        return np.stack(self._flushed()[1], axis=0)

    def columns(self):
        rounds, snapshots = self._flushed()
        return {
            "load_vector": (
                list(rounds),
                [snapshot.tolist() for snapshot in snapshots],
            )
        }


@register_probe("period")
class PeriodDetector(Probe):
    """Detects when the load vector revisits a previous state.

    Deterministic stateless dynamics on a finite state space must enter
    a cycle; Theorem 4.3's construction alternates with period 2.  The
    detector hashes each vector and reports the first recurrence.
    """

    needs = LOADS

    def __init__(self) -> None:
        self._seen: dict[bytes, int] = {}
        self.period: int | None = None
        self.first_repeat_round: int | None = None

    def start(self, graph, balancer, loads) -> None:
        self._seen = {loads.tobytes(): 0}
        self.period = None
        self.first_repeat_round = None

    def observe_loads(self, t, loads) -> None:
        if self.period is not None:
            return
        key = loads.tobytes()
        if key in self._seen:
            self.period = t - self._seen[key]
            self.first_repeat_round = t
        else:
            self._seen[key] = t

    def summary(self) -> dict:
        return {
            "period": self.period,
            "first_repeat_round": self.first_repeat_round,
        }


def _coerce_schedule(
    schedule: SamplingSchedule | dict | None,
) -> SamplingSchedule | None:
    if isinstance(schedule, dict):  # JSON-borne ProbeSpec params
        return SamplingSchedule.from_dict(schedule)
    return schedule


@register_probe("discrepancy")
def _discrepancy_probe(schedule=None) -> DiscrepancyRecorder:
    return DiscrepancyRecorder(schedule=_coerce_schedule(schedule))


@register_probe("trajectory")
def _trajectory_probe(stride: int = 1, schedule=None) -> TrajectoryRecorder:
    return TrajectoryRecorder(
        stride=stride, schedule=_coerce_schedule(schedule)
    )
