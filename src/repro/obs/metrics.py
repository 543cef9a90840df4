"""Deterministic metrics registry with Prometheus-text exposition.

Counters, gauges, and fixed-bucket histograms keyed by sorted label
tuples.  Every observed quantity is *simulated* (rounds, tokens, queue
depths) and bucket edges are fixed powers of two, so a fixed seed
reproduces the exposition byte-for-byte — no wall clock, no process
state, no float accumulation ordering dependence.

Nothing in the simulator counts into a registry: the ``repro_*`` families
are rebuilt on every read by the attached probe's collector from the
counters ``engine.stats()`` reports (see :meth:`repro.obs.Probe.collect`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Fixed power-of-two edges (1 .. 65536): deterministic, scale-free enough
# for round counts from single hops to full cohort sweeps.  The SLO
# latency digests share them (obs/window.DEFAULT_LATENCY_BUCKETS).
DEFAULT_BUCKETS: tuple[int, ...] = tuple(2**i for i in range(17))

LabelKey = tuple  # tuple[tuple[str, str], ...] — sorted (name, value) pairs


def _labelkey(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(key) + tuple(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in pairs) + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labelstr(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: dict[LabelKey, object] = {}

    def header_lines(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help or self.name}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """Monotone counter; ``inc`` with negative values is rejected."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: object) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        key = _labelkey(labels)
        self.values[key] = self.values.get(key, 0) + value

    def value(self, **labels: object) -> float:
        return self.values.get(_labelkey(labels), 0)

    def total(self) -> float:
        return sum(self.values.values())

    def exposition_lines(self) -> list[str]:
        return [
            f"{self.name}{_format_labels(key)} {_format_value(val)}"
            for key, val in sorted(self.values.items())
        ]

    def snapshot_values(self) -> dict:
        return {_labelstr(k): v for k, v in sorted(self.values.items())}

    def snapshot_series(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": val}
            for key, val in sorted(self.values.items())
        ]


class Gauge(_Metric):
    """Last-write-wins gauge with a running-max helper."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self.values[_labelkey(labels)] = value

    def set_max(self, value: float, **labels: object) -> None:
        key = _labelkey(labels)
        if value > self.values.get(key, value - 1):
            self.values[key] = value

    def value(self, **labels: object) -> float:
        return self.values.get(_labelkey(labels), 0)

    exposition_lines = Counter.exposition_lines
    snapshot_values = Counter.snapshot_values
    snapshot_series = Counter.snapshot_series


class Histogram(_Metric):
    """Fixed-bucket histogram (counts stored per bucket, cumulated on export)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket edge")

    def observe(self, value: float, **labels: object) -> None:
        key = _labelkey(labels)
        cell = self.values.get(key)
        if cell is None:
            cell = self.values[key] = {
                "counts": [0] * len(self.buckets),
                "sum": 0,
                "count": 0,
            }
        # The smallest edge >= value; beyond the last edge a value lands
        # only in the implicit +Inf bucket (the count).
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets):
            cell["counts"][i] += 1
        cell["sum"] += value
        cell["count"] += 1

    def exposition_lines(self) -> list[str]:
        lines: list[str] = []
        for key, cell in sorted(self.values.items()):
            cumulative = 0
            for le, n in zip(self.buckets, cell["counts"]):
                cumulative += n
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(key, (('le', _format_value(float(le))),))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{self.name}_bucket{_format_labels(key, (('le', '+Inf'),))}"
                f" {cell['count']}"
            )
            lines.append(f"{self.name}_sum{_format_labels(key)} {_format_value(cell['sum'])}")
            lines.append(f"{self.name}_count{_format_labels(key)} {cell['count']}")
        return lines

    def snapshot_values(self) -> dict:
        return {
            _labelstr(key): {
                "buckets": dict(zip(map(str, self.buckets), cell["counts"])),
                "sum": cell["sum"],
                "count": cell["count"],
            }
            for key, cell in sorted(self.values.items())
        }

    def snapshot_series(self) -> list[dict]:
        return [
            {
                "labels": dict(key),
                "buckets": dict(zip(map(str, self.buckets), cell["counts"])),
                "sum": cell["sum"],
                "count": cell["count"],
            }
            for key, cell in sorted(self.values.items())
        ]


class MetricsRegistry:
    """Get-or-create registry over named metrics, with snapshot + exposition.

    Every read rebuilds the derived families of the bound collector (the
    attached probe's :meth:`~repro.obs.probe.Probe.collect`) and lays them
    over the families registered here, which survive.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._collector = None

    def _families(self) -> dict[str, _Metric]:
        if self._collector is None:
            return self._metrics
        return {**self._metrics, **{m.name: m for m in self._collector()}}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kwargs)
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._families().get(name)

    def __len__(self) -> int:
        return len(self._families())

    def snapshot(self) -> dict:
        """JSON-able view: ``{name: {type, help, values, series}}``, sorted.

        ``values`` keeps the legacy flat ``"k=v,..."``-keyed mapping;
        ``series`` carries the same data with structured label dicts, so
        downstream tooling (``trace-report --metrics``) never re-parses
        label strings.
        """
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "values": metric.snapshot_values(),
                "series": metric.snapshot_series(),
            }
            for name, metric in sorted(self._families().items())
        }

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format 0.0.4, sorted by metric name."""
        lines: list[str] = []
        for _name, metric in sorted(self._families().items()):
            lines.extend(metric.header_lines())
            lines.extend(metric.exposition_lines())
        return "\n".join(lines) + "\n" if lines else ""

    def write(self, path: str | Path) -> Path:
        """Write to ``path``: ``.json`` → snapshot JSON, else Prometheus text."""
        target = Path(path)
        if target.suffix == ".json":
            target.write_text(json.dumps(self.snapshot(), sort_keys=True) + "\n")
        else:
            target.write_text(self.to_prometheus_text())
        return target
