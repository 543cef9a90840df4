"""Per-layer wall-clock split, measured from outside the program.

The ``--trace`` pass replaces the public methods below with timing
wrappers at class level (and puts the originals back afterwards), so
nothing under ``src/`` knows it is being measured.  Each wrapper pushes a
frame on one stack; a method's *self* time is its wall time minus the
time of the wrapped calls nested inside it, so the self times of all
methods plus the time spent outside any wrapped call add up to the traced
wall time exactly.

Methods called once per draw or per charge keep counters only; the rest
also record a span (name, start, end, parent), kept in memory and written
at the end as Chrome trace-event JSON that Perfetto opens.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from repro.congest.ledger import RoundLedger
from repro.congest.network import Network
from repro.dynamic.controller import ChurnController
from repro.engine.core import WalkEngine
from repro.engine.faults import FaultController
from repro.engine.pool import PoolManager
from repro.graphs.graph import Graph
from repro.obs.probe import Probe
from repro.serve.scheduler import WalkScheduler
from repro.walks.store import WalkStore

#: (class, method, records spans).  Per-draw and per-charge methods keep
#: counters only, which bounds the number of spans a run keeps.
WRAPPED = (
    (Graph, "apply_delta", True),
    (Network, "deliver_step", True),
    (Network, "deliver_step_grouped", True),
    (Network, "deliver_pairs", True),
    (Network, "deliver_sequential", True),
    (Network, "refresh_topology", True),
    (RoundLedger, "charge", False),
    (WalkStore, "holders_for_source", False),
    (WalkStore, "count_for_source", False),
    (WalkStore, "sample_uniform_token", False),
    (WalkStore, "source_count_arrays", True),
    (WalkStore, "add_batch", True),
    (WalkStore, "find_invalid_rows", True),
    (WalkStore, "evict_rows", True),
    (WalkStore, "rows_held_at", True),
    (WalkEngine, "prepare", True),
    (WalkEngine, "maintain", True),
    (WalkEngine, "apply_churn", True),
    (WalkEngine, "apply_faults", True),
    (FaultController, "poll", True),
    (FaultController, "apply_step", True),
    (PoolManager, "maintain", True),
    (PoolManager, "restore_shards", True),
    (PoolManager, "rebuild_quotas", True),
    (PoolManager, "shard_unused", True),
    (PoolManager, "estimate_refill_rounds", True),
    (PoolManager, "note_demand", True),
    (PoolManager, "record_served", False),
    (ChurnController, "apply", True),
    (WalkScheduler, "submit", True),
    (WalkScheduler, "tick", True),
    (Probe, "charged", False),
    (Probe, "phase_pushed", False),
    (Probe, "phase_popped", False),
    (Probe, "delta_measured", False),
    (Probe, "event", False),
    (Probe, "slo_record", False),
    (Probe, "slo_tick", False),
)

#: The benchmark's own region around ``Graph(n, edges)`` in set-up.
CSR_BUILD = "graphs.csr_build"


def method_name(cls: type, method: str) -> str:
    """``<layer>.<Class>.<method>``, the layer being the ``repro`` subpackage."""
    return f"{cls.__module__.split('.')[1]}.{cls.__name__}.{method}"


def _tick_args(report) -> dict:
    return {"tickets": list(report.serviced)}


def method_names() -> list[str]:
    return [CSR_BUILD] + [method_name(cls, m) for cls, m, _ in WRAPPED]


class LayerProfile:
    """Self-time stack, per-method counters and the span list of one traced pass."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in method_names()}
        self.self_s = {name: 0.0 for name in method_names()}
        # Frames are [name, start, child seconds, span id or None].
        self._stack: list[list] = []
        self.top_level: list[tuple[float, float]] = []  # (start, end) of each outermost call
        self.spans: list[list] = []  # [id, parent id, name, start, end, args]
        self.origin = perf_counter()
        self._originals: list[tuple[type, str, object]] = []

    def enter(self, name: str, span: bool) -> list:
        stack = self._stack
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            self.spans.append([span_id, parent, name, 0.0, 0.0, None])
        frame = [name, perf_counter(), 0.0, span_id]
        stack.append(frame)
        return frame

    def exit(self, frame: list, args: dict | None = None) -> None:
        end = perf_counter()
        name, start, children, span_id = frame
        elapsed = end - start
        stack = self._stack
        stack.pop()
        self.calls[name] += 1
        self.self_s[name] += elapsed - children
        if stack:
            stack[-1][2] += elapsed
        else:
            self.top_level.append((start, end))
        if span_id is not None:
            record = self.spans[span_id]
            record[3], record[4], record[5] = start, end, args

    @property
    def top_level_s(self) -> float:
        return sum(end - start for start, end in self.top_level)

    def outside(self, windows) -> int:
        """Outermost calls and spans not wholly inside one of ``windows`` ((start, end) pairs)."""
        def inside(start, end):
            return any(lo <= start <= end <= hi for lo, hi in windows)

        return sum(not inside(start, end) for start, end in self.top_level) + sum(
            not inside(span[3], span[4]) for span in self.spans
        )

    @contextmanager
    def region(self, name: str):
        """Time one of the benchmark's own regions as if it were a wrapped call."""
        frame = self.enter(name, True)
        try:
            yield
        finally:
            self.exit(frame)

    def _wrap(self, name: str, fn, span: bool, describe=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(frame, describe(result) if describe and result is not None else None)

        return wrapper

    def install(self) -> None:
        for cls, method, span in WRAPPED:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            # Tick spans carry the ids of the tickets the tick serviced.
            describe = _tick_args if cls is WalkScheduler and method == "tick" else None
            setattr(cls, method, self._wrap(method_name(cls, method), original, span, describe))

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write_chrome_trace(self, path, workload: str) -> None:
        """Write the spans as Chrome trace-event JSON, in wall-clock microseconds."""
        events: list[dict] = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": f"e2e bench {workload} (wall clock)"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "layers"}},
        ]
        for span_id, parent, name, start, end, args in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "cat": name.split(".", 1)[0], "name": name,
                "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, **(args or {})},
            })
        methods = {name: {"calls": self.calls[name], "self_s": self.self_s[name]} for name in self.calls}
        trace = {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"workload": workload, "methods": methods}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace), encoding="utf-8")
