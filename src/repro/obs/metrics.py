"""Process-local metrics: counters, gauges, timers, histograms, export.

The registry is deliberately tiny — four instrument kinds, get-or-create
by name, and a :meth:`MetricsRegistry.snapshot` that returns plain
JSON-able dicts (the payload behind the ``BENCH_<name>.json`` artifacts).
Timers retain their raw observations so per-round timing *series* survive
into the snapshot, not just aggregates.

Snapshots also render to the Prometheus text exposition format via
:func:`render_prometheus` (served by ``GET /metrics?format=prometheus``):
counters and gauges map to their native types, timers and histograms to
summaries with p50/p95/p99 quantile samples.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "render_prometheus",
]


class Counter:
    """A monotonically increasing (float-capable) counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: "int | float" = 1) -> "int | float":
        """Add ``amount`` (default 1); returns the new value."""
        self.value += amount
        return self.value

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state of the counter."""
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, live sessions).

    Unlike a :class:`Counter` a gauge is *instantaneous* state, not an
    accumulation: ``set`` overwrites, ``inc``/``dec`` adjust, and the
    snapshot additionally reports the high-water mark seen since
    creation (``max``) so a drained queue still shows how deep it got.
    """

    __slots__ = ("name", "value", "_max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value: float = 0
        self._max: float = 0

    def set(self, value: "int | float") -> "int | float":
        """Overwrite the gauge; returns the new value."""
        self.value = value
        if value > self._max:
            self._max = value
        return self.value

    def inc(self, amount: "int | float" = 1) -> "int | float":
        """Add ``amount`` (default 1); returns the new value."""
        return self.set(self.value + amount)

    def dec(self, amount: "int | float" = 1) -> "int | float":
        """Subtract ``amount`` (default 1); returns the new value."""
        self.value -= amount
        return self.value

    @property
    def max(self) -> "int | float":
        """High-water mark since creation."""
        return self._max

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state of the gauge."""
        return {"type": "gauge", "value": self.value, "max": self._max}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value}, max={self._max})"


class Histogram:
    """A series of observations with retained raw values and summary stats.

    By default every raw observation is retained (so per-round timing
    *series* survive into bench snapshots).  Long-running consumers — the
    serving layer records one observation per request — pass ``keep=N``
    to bound retention to the ``N`` most recent values; ``count``,
    ``total``, ``min`` and ``max`` then keep tracking the full stream
    while percentiles describe the retained window.
    """

    __slots__ = ("name", "values", "keep", "_count", "_total", "_min", "_max")

    _kind = "histogram"

    def __init__(self, name: str = "", *, keep: int | None = None) -> None:
        if keep is not None and keep <= 0:
            raise ValueError(f"keep must be a positive int or None, got {keep!r}")
        self.name = name
        self.keep = keep
        self.values: "list[float] | deque[float]" = [] if keep is None else deque(maxlen=keep)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.values.append(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        # The unbounded path recomputes with fsum so snapshots stay exact;
        # the bounded path has dropped values and uses the running sum.
        return math.fsum(self.values) if self.keep is None else self._total

    @property
    def mean(self) -> float:
        """Mean observation over the full stream (0.0 when empty)."""
        return self.total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]; 0.0 when empty).

        Raises:
            ValueError: when ``p`` is outside [0, 100].
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict[str, Any]:
        """JSON-able summary plus the (retained) raw observation series."""
        payload = {
            "type": self._kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "values": [round(v, 9) for v in self.values],
        }
        if self.keep is not None:
            payload["retained"] = len(self.values)
        return payload

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, count={self.count}, mean={self.mean:.6g})"


class Timer(Histogram):
    """A histogram of durations (seconds) with a context-manager clock."""

    __slots__ = ()

    _kind = "timer"

    def time(self) -> "_Timing":
        """Context manager measuring its body on the monotonic clock."""
        return _Timing(self)


class _Timing:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_Timing":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._timer.observe(time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """Named counters/timers/histograms with get-or-create access.

    Asking for the same name twice returns the same instrument; asking
    for a name already registered as a different kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, "Counter | Gauge | Histogram"] = {}
        # Get-or-create races when serve threads first touch a name
        # concurrently; the lock makes registration atomic.  A *plain*
        # stdlib lock, outside the sanitizer's view — the sanitizer
        # increments sanitizer.* counters through this registry.
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, **kwargs: Any) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, **kwargs)
                self._instruments[name] = instrument
            elif type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} is a {type(instrument).__name__}, not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge)

    def timer(self, name: str, *, keep: int | None = None) -> Timer:
        """Get or create the named timer (``keep`` bounds raw retention)."""
        return self._get(name, Timer, keep=keep)

    def histogram(self, name: str, *, keep: int | None = None) -> Histogram:
        """Get or create the named histogram (``keep`` bounds raw retention)."""
        return self._get(name, Histogram, keep=keep)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Export every instrument, grouped by kind and sorted by name."""
        groups: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }
        with self._lock:
            instruments = dict(self._instruments)
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                groups["counters"][name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                groups["gauges"][name] = instrument.snapshot()
            elif isinstance(instrument, Timer):
                groups["timers"][name] = instrument.snapshot()
            else:
                groups["histograms"][name] = instrument.snapshot()
        return groups

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[str]:
        return iter(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, *, namespace: str) -> str:
    """A metric name valid under the Prometheus data model."""
    sanitized = _PROM_INVALID.sub("_", name)
    if namespace:
        sanitized = f"{namespace}_{sanitized}"
    if sanitized and sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def render_prometheus(
    snapshot: Mapping[str, Mapping[str, Any]], *, namespace: str = "repro"
) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters and gauges map to their native Prometheus types; timers and
    histograms are exposed as summaries — ``{quantile="0.5|0.95|0.99"}``
    samples over the retained window plus ``_sum``/``_count`` over the
    full stream.  Dots in instrument names become underscores and every
    name is prefixed with ``namespace`` (default ``repro``).
    """
    lines: list[str] = []

    def emit(kind: str, name: str, payload: Mapping[str, Any]) -> None:
        metric = _prom_name(name, namespace=namespace)
        if kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_number(payload['value'])}")
            return
        if kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_number(payload['value'])}")
            lines.append(f"# TYPE {metric}_max gauge")
            lines.append(f"{metric}_max {_prom_number(payload['max'])}")
            return
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append(
                f'{metric}{{quantile="{quantile}"}} {_prom_number(payload.get(key, 0.0))}'
            )
        lines.append(f"{metric}_sum {_prom_number(payload.get('total', 0.0))}")
        lines.append(f"{metric}_count {_prom_number(payload.get('count', 0))}")

    for name, payload in snapshot.get("counters", {}).items():
        emit("counter", name, payload)
    for name, payload in snapshot.get("gauges", {}).items():
        emit("gauge", name, payload)
    for name, payload in snapshot.get("timers", {}).items():
        emit("summary", name, payload)
    for name, payload in snapshot.get("histograms", {}).items():
        emit("summary", name, payload)
    return "\n".join(lines) + "\n"
