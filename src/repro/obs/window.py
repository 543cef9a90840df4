"""Deterministic sliding-window aggregation over scheduler ticks.

The streaming-SLO layer's time base is the scheduler tick — simulated
time, never wall-clock — so every aggregate here replays bit-identically
at a fixed seed.  A :class:`TickFrame` accumulates one tick's serving
events (admissions, rejects, throttles, completions with their
round-latency, deadline misses); a :class:`SlidingWindow` keeps the last
``window_ticks`` closed frames and answers aggregate queries over any
suffix of them.

Latency percentiles use a **fixed-bucket digest** (:class:`LatencyDigest`)
rather than a sampling sketch: the bucket edges are powers of two in
simulated rounds, an observation lands in the smallest bucket whose edge
is ≥ its value, and ``percentile(q)`` returns the edge of the smallest
bucket where the cumulative count reaches ``ceil(q · total)``.  No
randomness, no data-dependent compression — two runs with equal inputs
produce equal digests, which is what the determinism tests pin.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

from repro.obs.metrics import DEFAULT_BUCKETS

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "LatencyDigest",
    "SlidingWindow",
    "TickFrame",
    "WindowTotals",
]

#: The metrics histograms' edges (1 … 65536 rounds); observations beyond the
#: last edge land in an overflow bucket whose percentile reads as ``inf``.
DEFAULT_LATENCY_BUCKETS = DEFAULT_BUCKETS

#: Event kinds a frame accumulates, in storage order.
EVENT_KINDS = ("admit", "reject", "throttle", "complete", "deadline_miss")
_EVENT_INDEX = {kind: i for i, kind in enumerate(EVENT_KINDS)}


class LatencyDigest:
    """Fixed-bucket histogram with deterministic percentile reads."""

    __slots__ = ("buckets", "counts", "total")

    def __init__(self, buckets: tuple[int, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 overflow bucket
        self.total = 0

    def note(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1

    def absorb(self, other: "LatencyDigest") -> None:
        """Accumulate another digest over the identical bucket edges."""
        if other.buckets != self.buckets:
            raise ValueError("cannot absorb a digest with different bucket edges")
        counts = self.counts
        for i, c in enumerate(other.counts):
            counts[i] += c
        self.total += other.total

    def percentile(self, q: float) -> float:
        """Smallest bucket edge whose cumulative count reaches ⌈q·total⌉."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = math.ceil(q * self.total)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return float(self.buckets[i]) if i < len(self.buckets) else math.inf
        return math.inf  # pragma: no cover - rank <= total always hits

    def count_above(self, threshold: float) -> int:
        """Observations strictly above ``threshold``, bucket-resolved.

        A bucket counts as *above* when its lower edge (the previous
        bucket's upper edge) is ≥ ``threshold`` — i.e. every value it can
        contain exceeds the threshold.  Exact whenever ``threshold`` is a
        bucket edge, conservative otherwise.
        """
        idx = bisect_left(self.buckets, threshold)
        # Buckets idx+1.. contain only values > buckets[idx] >= threshold.
        return sum(self.counts[idx + 1 :])

    def to_dict(self) -> dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts), "total": self.total}


class TickFrame:
    """One tick's serving events, counted and latency-digested."""

    __slots__ = ("tick", "counts", "latency")

    def __init__(self, tick: int, buckets: tuple[int, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.tick = tick
        self.counts = [0] * len(EVENT_KINDS)
        self.latency = LatencyDigest(buckets)

    def note(self, kind: str, value: float | None = None) -> None:
        self.counts[_EVENT_INDEX[kind]] += 1
        if kind == "complete" and value is not None:
            self.latency.note(value)

    def count(self, kind: str) -> int:
        return self.counts[_EVENT_INDEX[kind]]


class WindowTotals:
    """Aggregated view over a suffix of closed frames."""

    __slots__ = ("ticks", "counts", "latency")

    def __init__(self, ticks: int, counts: list[int], latency: LatencyDigest) -> None:
        self.ticks = ticks
        self.counts = counts
        self.latency = latency

    def count(self, kind: str) -> int:
        return self.counts[_EVENT_INDEX[kind]]

    @property
    def admitted(self) -> int:
        return self.count("admit")

    @property
    def rejected(self) -> int:
        return self.count("reject")

    @property
    def throttled(self) -> int:
        return self.count("throttle")

    @property
    def completed(self) -> int:
        return self.count("complete")

    @property
    def deadline_missed(self) -> int:
        return self.count("deadline_miss")


class SlidingWindow:
    """The last ``window_ticks`` closed :class:`TickFrame` s, one stream.

    Events land in an *open* frame; :meth:`roll` closes it at a tick
    boundary.  Aggregates are recomputed from the retained frames on
    demand — windows are small (tens of ticks) and reads are per-tick,
    so no incremental-eviction bookkeeping is worth its bug surface.
    """

    __slots__ = ("window_ticks", "buckets", "frames", "_open")

    def __init__(
        self,
        window_ticks: int,
        *,
        buckets: tuple[int, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if window_ticks < 1:
            raise ValueError(f"window_ticks must be >= 1, got {window_ticks}")
        self.window_ticks = window_ticks
        self.buckets = buckets
        self.frames: deque[TickFrame] = deque(maxlen=window_ticks)
        self._open: TickFrame | None = None

    def note(self, kind: str, value: float | None = None) -> None:
        frame = self._open
        if frame is None:
            frame = self._open = TickFrame(0, self.buckets)
        frame.note(kind, value)

    def roll(self, tick: int) -> TickFrame:
        """Close the open frame under ``tick`` and start a fresh one."""
        frame = self._open if self._open is not None else TickFrame(tick, self.buckets)
        frame.tick = tick
        self.frames.append(frame)
        self._open = None
        return frame

    def totals(self, last: int | None = None) -> WindowTotals:
        """Aggregate over the most recent ``last`` closed frames."""
        if last is None or last > len(self.frames):
            last = len(self.frames)
        counts = [0] * len(EVENT_KINDS)
        latency = LatencyDigest(self.buckets)
        if last:
            for frame in list(self.frames)[-last:]:
                for i, c in enumerate(frame.counts):
                    counts[i] += c
                latency.absorb(frame.latency)
        return WindowTotals(last, counts, latency)

    def percentile(self, q: float, *, last: int | None = None) -> float:
        return self.totals(last).latency.percentile(q)
