"""Summary cache: process each element once (§2 "Our Approach").

Element summaries are keyed by what the engine reads (the element's
configuration fingerprint), the input packet length, and the
static-table mode — so an element that appears in many pipelines (or at
many positions of the same pipeline) is symbolically executed a single
time, which is where the ``k * 2^n`` (rather than ``2^(k*n)``) cost of
the decomposed approach comes from.

The cache is tiered: this class is the in-process **L1**, and it can be
backed by an on-disk :class:`repro.orchestrator.store.SummaryStore` (the
**L2**) shared between worker processes and across runs.  An L2 hit loads
and re-interns a previously serialized summary instead of re-executing the
element symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import smt
from ..obs.stats import StatisticsMixin
from ..obs.trace import clock, tracer
from ..dataplane.element import Element
from ..dataplane.fingerprint import configuration_fingerprint
from ..symbex.engine import StaticTableMode, SymbexOptions, SymbolicEngine
from ..symbex.segment import ElementSummary


@dataclass
class CacheStatistics(StatisticsMixin):
    """Traffic counters for the tiered summary cache.

    ``l1_hits`` were answered from the in-process dict, ``l2_hits`` from
    the on-disk store, and ``misses`` required a fresh symbolic execution.
    ``entries`` is the number of summaries currently live in L1 — it is
    maintained explicitly (not derived from the miss count), so it stays
    correct across ``invalidate()`` and L2-served fills.
    """

    l1_hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    entries: int = 0
    seconds_spent_summarizing: float = 0.0

    @property
    def hits(self) -> int:
        """Total lookups answered without symbolic execution (L1 + L2)."""
        return self.l1_hits + self.l2_hits


class SummaryCache:
    """Tiered cache of Step-1 element summaries."""

    def __init__(
        self,
        options: Optional[SymbexOptions] = None,
        store: Optional[object] = None,
        query_cache: Optional[smt.QueryCache] = None,
    ) -> None:
        self.options = options or SymbexOptions()
        #: Optional L2 tier: any object with ``load(element, length, mode)``
        #: and ``save(element, length, mode, summary)`` — in practice a
        #: :class:`repro.orchestrator.store.SummaryStore`.
        self.store = store
        #: The query-optimization cache shared by every engine this cache
        #: spawns (and by the composition engine attached to it), so slice
        #: verdicts cross element and pipeline boundaries within a run.
        self.query_cache = query_cache or smt.build_query_cache(self.options.query_cache_dir)
        self._summaries: Dict[Tuple[str, int, str], ElementSummary] = {}
        self.statistics = CacheStatistics()

    def _key(self, element: Element, input_length: int) -> Tuple[str, int, str]:
        # The configuration fingerprint covers the program structure and
        # (in concrete mode) static-table contents: all the engine reads,
        # so two elements share an entry iff symbolic execution would agree.
        mode = self.options.static_table_mode
        fingerprint = configuration_fingerprint(
            element, include_static_tables=mode == StaticTableMode.CONCRETE
        )
        return (fingerprint, input_length, mode)

    def summarize(self, element: Element, input_length: int) -> ElementSummary:
        """Return the element's summary for the given input length, computing it if needed."""
        mode = self.options.static_table_mode
        key = self._key(element, input_length)
        trace = tracer()
        cached = self._summaries.get(key)
        if cached is not None:
            self.statistics.l1_hits += 1
            if trace.enabled:
                trace.event("cache.hit", "cache", tier="l1", element=element.name)
            return cached
        if self.store is not None:
            stored = self.store.load(element, input_length, self.options)
            if stored is not None:
                self.statistics.l2_hits += 1
                if trace.enabled:
                    trace.event("cache.hit", "cache", tier="l2", element=element.name)
                self._insert(key, stored)
                return stored
        self.statistics.misses += 1
        if trace.enabled:
            trace.event("cache.miss", "cache", element=element.name)
        started = clock()
        engine = SymbolicEngine(self.options, query_cache=self.query_cache)
        summary = engine.summarize_element(
            element.program,
            input_length,
            tables=element.state.tables(),
            element_name=element.name,
        )
        self.statistics.seconds_spent_summarizing += clock() - started
        self._insert(key, summary)
        if self.store is not None:
            self.store.save(element, input_length, self.options, summary)
        return summary

    def seed(self, element: Element, input_length: int, summary: ElementSummary) -> None:
        """Install a summary computed elsewhere (a worker process, a peer cache)."""
        self._insert(self._key(element, input_length), summary)

    def _insert(self, key: Tuple[str, int, str], summary: ElementSummary) -> None:
        if key not in self._summaries:
            self.statistics.entries += 1
        self._summaries[key] = summary

    def invalidate(self) -> None:
        self._summaries.clear()
        self.statistics.entries = 0

    def __len__(self) -> int:
        return len(self._summaries)
