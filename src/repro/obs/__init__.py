"""Unified observability: span tracing, statistics, slow-solve log.

The certification stack answers *what* it proved via verdicts and *how
much* work it did via per-layer statistics; this package answers *where
the time went*.  One import point::

    from repro import obs

    tracer = obs.enable()                      # turn tracing on
    with obs.tracer().span("verify.property", "verify", pipeline=name):
        ...
    tracer.export_chrome("trace.json")         # chrome://tracing / Perfetto
    print(obs.summarize_spans(tracer.spans())) # per-phase breakdown

Span taxonomy (category → span names):

==========  =====================================================
category    spans / events
==========  =====================================================
fleet       ``fleet.certify``, ``fleet.summarize``, ``fleet.pipeline``
scheduler   ``scheduler.task`` (one per dispatched summary/verify task)
verify      ``verify.property``, ``verify.instruction_bound``
symbex      ``symbex.element``
sat         ``sat.solve``
qcache      ``qcache.hit`` / ``qcache.miss`` events (``tier`` arg)
cache       ``cache.hit`` / ``cache.miss`` events (``tier`` arg)
==========  =====================================================

Timing discipline: durations use :func:`clock` (monotonic,
``time.perf_counter``); :func:`wall_clock` exists solely for comparisons
against external wall-clock timestamps (file mtimes in store GC).
"""

from .slowlog import (
    sat_observer,
    set_slow_threshold_ms,
    slice_context,
    slow_solve_log,
)
from .stats import StatisticsMixin
from .trace import (
    NULL_TRACER,
    Span,
    Tracer,
    active,
    clock,
    enable,
    install,
    load_trace,
    summarize_spans,
    tracer,
    wall_clock,
)

__all__ = [
    "NULL_TRACER",
    "Span",
    "StatisticsMixin",
    "Tracer",
    "active",
    "clock",
    "enable",
    "install",
    "load_trace",
    "sat_observer",
    "set_slow_threshold_ms",
    "slice_context",
    "slow_solve_log",
    "summarize_spans",
    "tracer",
    "wall_clock",
]
