"""Named metrics: counters, gauges, and histograms behind one registry.

The ten ``*Statistics`` dataclasses stay the source of truth for their
own layer; the registry is the *fleet-facing* aggregation point they
publish into (via :meth:`repro.obs.stats.StatisticsMixin.publish`), so a
service-mode exporter — or ``repro store stats`` — reads one namespace
(``solver.checks``, ``qcache.exact_hits``, ...) instead of walking ten
objects.  Thread-safe; cheap enough to update from hot paths, but the
expected pattern is publish-once at the end of a run.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metrics"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (resets only with the registry)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount})")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value that can go up or down."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: Number) -> None:
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


#: Histogram bucket upper bounds, in seconds — tuned for solver latencies
#: (sub-millisecond quick checks through multi-second pathological solves).
DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)


class Histogram:
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    __slots__ = ("name", "buckets", "counts", "count", "total", "_lock")

    def __init__(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total: float = 0.0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "buckets": {
                **{str(bound): self.counts[i] for i, bound in enumerate(self.buckets)},
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """The process-wide metric namespace.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name return the same instrument, and a name can only
    ever hold one instrument kind (mixing kinds raises).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind) -> Union[Counter, Gauge, Histogram]:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda n: Histogram(n, buckets), Histogram)

    def to_dict(self) -> dict:
        """Every instrument, name-sorted, as plain JSON-able dicts."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].to_dict() for name in sorted(instruments)}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)


_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def metrics() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _registry
    if _registry is None:
        with _registry_lock:
            if _registry is None:
                _registry = MetricsRegistry()
    return _registry
