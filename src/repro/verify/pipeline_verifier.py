"""The pipeline verifier: the paper's two-step decomposed verification.

Step 1 (:class:`repro.verify.cache.SummaryCache` + property classification)
symbolically executes each element *once per configuration and input
length* and tags suspect segments.  Step 2
(:class:`repro.verify.composition.CompositionEngine`) composes summaries
along pipeline routes ending in a suspect and checks feasibility.  If the
solver refutes every composed suspect path, the property is proved; if it
satisfies one, the solver model is turned into a concrete counterexample
packet, which is replayed on the concrete dataplane to confirm it.  A
suspect path it can do neither for within its conflict budget makes the
verdict ``unknown``, unless another path already violates the property.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from .. import smt
from ..dataplane.driver import PipelineDriver
from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..ir.interpreter import Outcome
from ..obs.trace import clock, tracer
from ..symbex.engine import SymbexOptions
from ..symbex.errors import PathExplosionError
from ..symbex.segment import ElementSummary, SegmentSummary
from .cache import SummaryCache
from .composition import ComposedViolation, CompositionEngine
from .errors import VerificationError
from .properties import Property, Reachability
from .report import (
    Counterexample,
    InstructionBoundResult,
    VerificationResult,
    VerificationStatistics,
    Verdict,
    undecided_note,
)


class PipelineVerifier:
    """Verifies properties of a pipeline using pipeline decomposition."""

    def __init__(
        self,
        pipeline: Pipeline,
        entry: Optional[Element] = None,
        options: Optional[SymbexOptions] = None,
        cache: Optional[SummaryCache] = None,
    ) -> None:
        """``cache`` (shared freely between verifiers) supplies Step-1
        summaries; an on-disk tier attaches to it, as
        ``SummaryCache(options, store=...)``.  ``None`` gives the verifier
        its own in-memory cache."""
        pipeline.validate()
        self.pipeline = pipeline
        self.options = options or SymbexOptions()
        self.cache = cache if cache is not None else SummaryCache(self.options)
        self.composer = CompositionEngine(self.cache)
        if entry is None:
            entry = pipeline.sole_entry()
            if entry is None:
                raise VerificationError(
                    f"pipeline has {len(pipeline.entry_elements())} entry elements; "
                    "pass `entry` explicitly"
                )
        self.entry = entry

    # -- Step 1: per-element summaries at the lengths each element actually sees -----------------

    def element_summaries(
        self, input_length: int
    ) -> Dict[Tuple[str, int], Tuple[Element, ElementSummary]]:
        """Summarise every reachable element at every packet length it can receive.

        A breadth-first walk from the entry through the summary cache.
        The result's insertion order is the BFS order, and counterexample
        order follows it.
        """
        summaries: Dict[Tuple[str, int], Tuple[Element, ElementSummary]] = {}
        queue: Deque[Tuple[Element, int]] = deque([(self.entry, input_length)])
        while queue:
            element, length = queue.popleft()
            if (element.name, length) in summaries:
                continue
            summary = self.cache.summarize(element, length)
            summaries[(element.name, length)] = (element, summary)
            for segment in summary.emit_segments:
                downstream = self.pipeline.downstream(element, segment.port or 0)
                if downstream is not None:
                    queue.append((downstream[0], len(segment.output_bytes)))
        return summaries

    # -- main verification entry point --------------------------------------------------------------

    def verify(
        self,
        target_property: Property,
        input_lengths: Sequence[int] = (64,),
        max_counterexamples: int = 3,
        confirm_by_replay: bool = True,
    ) -> VerificationResult:
        """Prove or refute ``target_property`` for every packet of the given lengths."""
        started = clock()
        statistics = VerificationStatistics()
        counterexamples: List[Counterexample] = []
        verdict = Verdict.PROVED
        notes: List[str] = []

        extra_predicate = None
        if isinstance(target_property, Reachability):
            extra_predicate = target_property.input_predicate

        # Summaries are cached and revisited — once per input length and per
        # element position — so statistics for a given summary object must be
        # merged exactly once, or the reported work inflates with every revisit.
        counted_summaries: Set[int] = set()
        # Step 1 and Step 2 share one query cache, so its delta over this
        # call is all the solver work the call did, each search counted once.
        queries = self.cache.query_cache.statistics
        queries_before = dataclasses.replace(queries)
        hits_before = self.cache.statistics.hits
        undecided_before = len(self.composer.undecided)

        try:
            for input_length in input_lengths:
                summaries = self.element_summaries(input_length)

                suspects: List[Tuple[Element, int, SegmentSummary]] = []
                for (name, length), (element, summary) in summaries.items():
                    if id(summary) not in counted_summaries:
                        counted_summaries.add(id(summary))
                        statistics.merge_element(
                            f"{name}@{length}", len(summary.segments), summary.elapsed_seconds
                        )
                        statistics.count_solver_checks(
                            summary.solver_checks, memo_hits=summary.feasibility_memo_hits
                        )
                        # Structural facts of the summary (serialized, so
                        # store-loaded summaries carry them too) — counted
                        # per use like solver_checks, so serial and
                        # parallel fleet runs account identically.
                        statistics.paths_explored += summary.paths_explored
                        statistics.paths_merged += summary.paths_merged
                        statistics.ites_introduced += summary.ites_introduced
                        statistics.merge_rejected += summary.merge_rejected
                    for segment in summary.segments:
                        if target_property.is_suspect(element.name, segment):
                            suspects.append((element, length, segment))
                statistics.suspect_segments += len(suspects)

                if not suspects:
                    # Step 1 alone proves the property for this length.
                    continue

                # Step 2: compose routes that end in a suspect and check feasibility.
                suspect_elements: List[Element] = []
                seen: Set[str] = set()
                for element, _length, _segment in suspects:
                    if element.name not in seen:
                        seen.add(element.name)
                        suspect_elements.append(element)

                for element in suspect_elements:
                    if len(counterexamples) >= max_counterexamples:
                        break
                    for violation in self.composer.find_violations(
                        self.pipeline,
                        self.entry,
                        element,
                        suspect_filter=target_property.is_suspect,
                        input_length=input_length,
                        extra_predicate=extra_predicate,
                        max_violations=max_counterexamples - len(counterexamples),
                    ):
                        counterexamples.append(
                            self._counterexample(violation, confirm_by_replay)
                        )
                if counterexamples:
                    verdict = Verdict.VIOLATED
            undecided = self.composer.undecided[undecided_before:]
            if undecided and not counterexamples:
                # A violation the solver could not refute is no proof, and
                # without a model there is no packet to show either.
                verdict = Verdict.UNKNOWN
                statistics.budget_exceeded = True
                notes.extend(
                    undecided_note(
                        name, segment.outcome, segment.crash_message or segment.drop_reason
                    )
                    for name, segment in undecided
                )
        except PathExplosionError as exc:
            verdict = Verdict.UNKNOWN
            statistics.budget_exceeded = True
            notes.append(f"budget exceeded: {exc}")

        statistics.composed_paths_checked = self.composer.paths_checked
        statistics.composed_paths_feasible = self.composer.paths_feasible
        statistics.count_solver_checks(
            self.composer.solver_checks, memo_hits=self.composer.checker.memo_hits
        )
        statistics.count_query_work(queries_before, queries)
        statistics.summary_cache_hits = self.cache.statistics.hits - hits_before
        statistics.elapsed_seconds = clock() - started
        trace = tracer()
        if trace.enabled:
            trace.record_span(
                "verify.property",
                "verify",
                started,
                started + statistics.elapsed_seconds,
                pipeline=self.pipeline.name,
                property=target_property.describe(),
                verdict=verdict,
                solver_checks=statistics.solver_checks,
                sat_core_calls=statistics.sat_core_calls,
            )
        return VerificationResult(
            property_name=target_property.describe(),
            pipeline_name=self.pipeline.name,
            verdict=verdict,
            input_lengths=tuple(input_lengths),
            counterexamples=counterexamples,
            statistics=statistics,
            notes=notes,
        )

    # -- bounded instructions ---------------------------------------------------------------------------

    def instruction_bound(
        self,
        input_lengths: Sequence[int] = (64,),
        find_witness: bool = True,
        confirm_by_replay: bool = True,
    ) -> InstructionBoundResult:
        """Compute the maximum number of IR instructions any packet can trigger.

        The bound is the maximum, over all pipeline paths, of the sum of the
        per-segment instruction counts — computed from the Step-1 summaries
        without re-executing anything.  When ``find_witness`` is set, the
        arg-max chain of segments is composed and solved to produce the
        packet that attains the bound (the paper reports both the ~3600
        instruction bound and the packet that yields it).  An element that
        blows its symbolic-execution budget leaves no bound: the result
        reports ``bound=None`` with ``budget_exceeded`` set, as
        :meth:`verify` reports ``unknown``.
        """
        started = clock()
        statistics = VerificationStatistics()
        queries = self.cache.query_cache.statistics
        queries_before = dataclasses.replace(queries)
        hits_before = self.cache.statistics.hits
        best_total = 0
        best_chain: Optional[List[Tuple[Element, SegmentSummary]]] = None
        best_length = 0

        try:
            for input_length in input_lengths:
                total, chain = self._max_instructions(self.entry, input_length, {})
                if total > best_total:
                    best_total = total
                    best_chain = chain
                    best_length = input_length
        except PathExplosionError:
            statistics.budget_exceeded = True
            best_chain = None
        bound = None if statistics.budget_exceeded else best_total

        witness_packet: Optional[bytes] = None
        witness_instructions: Optional[int] = None
        witness_confirmed: Optional[bool] = None
        if find_witness and best_chain:
            witness_packet, witness_instructions = self._find_witness(best_chain, best_length)
            if witness_packet is not None and confirm_by_replay:
                replayed = self._replay(witness_packet)
                witness_confirmed = (
                    replayed is not None and replayed.total_instructions == witness_instructions
                )

        statistics.composed_paths_checked = self.composer.paths_checked
        statistics.count_solver_checks(
            self.composer.solver_checks, memo_hits=self.composer.checker.memo_hits
        )
        statistics.count_query_work(queries_before, queries)
        statistics.summary_cache_hits = self.cache.statistics.hits - hits_before
        statistics.elapsed_seconds = clock() - started
        trace = tracer()
        if trace.enabled:
            trace.record_span(
                "verify.instruction_bound",
                "verify",
                started,
                started + statistics.elapsed_seconds,
                pipeline=self.pipeline.name,
                bound=bound,
            )
        return InstructionBoundResult(
            pipeline_name=self.pipeline.name,
            input_lengths=tuple(input_lengths),
            bound=bound,
            witness_packet=witness_packet,
            witness_instructions=witness_instructions,
            witness_confirmed=witness_confirmed,
            statistics=statistics,
        )

    def _max_instructions(
        self,
        element: Element,
        length: int,
        memo: Dict[Tuple[str, int], Tuple[int, List[Tuple[Element, SegmentSummary]]]],
    ) -> Tuple[int, List[Tuple[Element, SegmentSummary]]]:
        key = (element.name, length)
        if key in memo:
            return memo[key]
        summary = self.cache.summarize(element, length)
        best_total = 0
        best_chain: List[Tuple[Element, SegmentSummary]] = []
        for segment in summary.segments:
            total = segment.instructions
            chain = [(element, segment)]
            if segment.emits:
                downstream = self.pipeline.downstream(element, segment.port or 0)
                if downstream is not None:
                    sub_total, sub_chain = self._max_instructions(
                        downstream[0], len(segment.output_bytes), memo
                    )
                    total += sub_total
                    chain = chain + sub_chain
            if total > best_total:
                best_total = total
                best_chain = chain
        memo[key] = (best_total, best_chain)
        return best_total, best_chain

    def _find_witness(
        self, chain: List[Tuple[Element, SegmentSummary]], input_length: int
    ) -> Tuple[Optional[bytes], Optional[int]]:
        """Compose the arg-max chain and solve it for a concrete witness packet."""
        prefix = self.composer.initial_prefix(input_length)
        for element, segment in chain:
            prefix = self.composer.extend(prefix, element.name, segment)
        status, model = self.composer.check(prefix)
        if status != smt.CheckResult.SAT or model is None:
            return None, None
        data = bytearray(input_length)
        for index in range(input_length):
            data[index] = int(model.get(f"in_b{index}", 0)) & 0xFF
        return bytes(data), prefix.instructions

    # -- counterexample handling ----------------------------------------------------------------------------

    def _counterexample(
        self, violation: ComposedViolation, confirm_by_replay: bool
    ) -> Counterexample:
        packet = violation.input_packet()
        segment = violation.segment
        detail = segment.crash_message or segment.drop_reason
        counterexample = Counterexample(
            packet=packet,
            element_path=[name for name, _segment in violation.prefix.stages],
            violating_element=violation.element_name,
            violation_kind=segment.outcome,
            detail=detail,
            required_table_values=violation.required_table_values(),
        )
        if confirm_by_replay and not counterexample.required_table_values:
            trace = self._replay(packet)
            if trace is None:
                counterexample.confirmed_by_replay = None
            else:
                if segment.outcome == Outcome.CRASH:
                    counterexample.confirmed_by_replay = trace.crashed
                elif segment.outcome == Outcome.DROP:
                    counterexample.confirmed_by_replay = trace.final_outcome == Outcome.DROP
                else:
                    counterexample.confirmed_by_replay = trace.delivered
        return counterexample

    def _replay(self, packet: bytes):
        """Run a packet through a fresh copy of the pipeline's concrete dataplane."""
        try:
            driver = PipelineDriver(self.pipeline)
            return driver.inject(packet, entry=self.entry)
        except Exception:  # pragma: no cover - defensive: replay must never mask results
            return None


def verify_crash_freedom(
    pipeline: Pipeline,
    input_lengths: Sequence[int] = (64,),
    entry: Optional[Element] = None,
    options: Optional[SymbexOptions] = None,
) -> VerificationResult:
    """Convenience wrapper: prove crash freedom of a pipeline."""
    from .properties import CrashFreedom

    verifier = PipelineVerifier(pipeline, entry=entry, options=options)
    return verifier.verify(CrashFreedom(), input_lengths=input_lengths)
