"""The slow-solve log: every SAT-core call over a threshold, with context.

Set ``REPRO_SLOW_SOLVE_MS`` to a millisecond threshold and every SAT-core
``solve`` call that exceeds it is recorded with the
work it did (conflict/decision/restart deltas), the core that did it,
and — when the query-cache layer is on — the structural fingerprint of
the slice being solved, so a pathological query can be replayed against
``repro store`` tooling.

Fingerprints are expensive (a SHA-256 walk over the slice's term DAG),
so they are never computed up front: the layer that *has* the terms in
scope (the query cache) parks a zero-argument provider in a thread-local
slot, and the log calls it only when a solve actually crossed the
threshold.

The :func:`sat_observer` accessor is the single gate the SAT cores pay
when idle: it returns ``None`` unless tracing is enabled or a threshold
is set, so the disabled cost is one function call and one comparison per
solve.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional

from . import trace as _trace

__all__ = [
    "SlowSolveLog",
    "sat_observer",
    "slow_solve_log",
    "slice_context",
    "set_slow_threshold_ms",
]

_ENV_THRESHOLD = "REPRO_SLOW_SOLVE_MS"

#: Bound on retained slow records; a run that tripped the threshold this
#: many times has a systemic problem the first thousand records show.
MAX_RECORDS = 1024


class SlowSolveLog:
    """Bounded, thread-safe list of slow-solve records."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _fork_check(self) -> None:
        if os.getpid() != self._pid:
            self.records = []
            self._pid = os.getpid()

    def add(self, record: dict) -> None:
        self._fork_check()
        with self._lock:
            if len(self.records) < MAX_RECORDS:
                self.records.append(record)

    def drain(self) -> List[dict]:
        self._fork_check()
        with self._lock:
            records = self.records
            self.records = []
        return records

    def __len__(self) -> int:
        self._fork_check()
        return len(self.records)


_log = SlowSolveLog()
_override_ms: Optional[float] = None
_slice_local = threading.local()


def slow_solve_log() -> SlowSolveLog:
    return _log


def set_slow_threshold_ms(threshold: Optional[float]) -> None:
    """Programmatic threshold override (``None`` restores the env lookup)."""
    global _override_ms
    _override_ms = threshold


def _threshold_ms() -> Optional[float]:
    if _override_ms is not None:
        return _override_ms
    raw = os.environ.get(_ENV_THRESHOLD)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


class slice_context:
    """Scoped slice-fingerprint provider for the slow log.

    The provider is a zero-argument callable returning the slice
    fingerprint (or ``None``); it runs only if a solve inside the scope
    crosses the slow threshold, so the fingerprint's cost is paid exactly
    when a record is written.
    """

    __slots__ = ("_provider", "_previous")

    def __init__(self, provider: Optional[Callable[[], Optional[str]]]) -> None:
        self._provider = provider
        self._previous: Optional[Callable[[], Optional[str]]] = None

    def __enter__(self) -> "slice_context":
        self._previous = getattr(_slice_local, "provider", None)
        _slice_local.provider = self._provider
        return self

    def __exit__(self, *exc) -> bool:
        _slice_local.provider = self._previous
        return False


def _current_fingerprint() -> Optional[str]:
    provider = getattr(_slice_local, "provider", None)
    if provider is None:
        return None
    try:
        return provider()
    except Exception:  # pragma: no cover - a broken provider must not kill a solve
        return None


class _SatObserver:
    """Times one ``solve()`` call; emits a span and/or a slow record."""

    __slots__ = ("_backend", "_threshold", "_tracer", "start")

    def __init__(self, backend: str, threshold: Optional[float], tracer) -> None:
        self._backend = backend
        self._threshold = threshold
        self._tracer = tracer
        self.start = _trace.clock()

    def finish(
        self,
        result: str,
        conflicts: int,
        decisions: int,
        restarts: int,
        assumptions: int = 0,
    ) -> None:
        end = _trace.clock()
        elapsed_ms = (end - self.start) * 1000.0
        if self._tracer is not None:
            self._tracer.record_span(
                "sat.solve",
                "sat",
                self.start,
                end,
                backend=self._backend,
                result=result,
                conflicts=conflicts,
                decisions=decisions,
            )
        if self._threshold is not None and elapsed_ms >= self._threshold:
            _log.add(
                {
                    "elapsed_ms": elapsed_ms,
                    "backend": self._backend,
                    "result": result,
                    "conflicts": conflicts,
                    "decisions": decisions,
                    "restarts": restarts,
                    "assumptions": assumptions,
                    "slice_fingerprint": _current_fingerprint(),
                }
            )


def sat_observer(backend: str) -> Optional[_SatObserver]:
    """The per-solve observer, or ``None`` when nothing is watching.

    This is the hot-path gate: with tracing off and no slow threshold it
    costs one call, one attribute read, and one env-cache check.
    """
    tracer = _trace.tracer()
    active_tracer = tracer if tracer.enabled else None
    threshold = _threshold_ms()
    if active_tracer is None and threshold is None:
        return None
    return _SatObserver(backend, threshold, active_tracer)
