"""Differential tests for ite-lifted state merging (:mod:`repro.symbex.merge`).

The merge pass is an *optimization*: under every mode the engine must
reach the same verdicts, find the same violations, and preserve the
partition-of-input-space invariant of segment summaries.  These tests run
the same workloads under ``merge=off`` (the reference) and
``conservative`` (the default) and compare outcomes — plus pin that the
pass actually buys something (strictly fewer paths on branchy workloads).
"""

import random

import pytest

from repro import smt
from repro.ir import Interpreter, ProgramBuilder
from repro.dataplane import Element, Pipeline
from repro.orchestrator import certify_fleet
from repro.symbex import SymbexOptions, SymbolicEngine
from repro.symbex.merge import MergeCounters, MergeMode, merge_states
from repro.verify import CrashFreedom, verify_crash_freedom
from repro.workloads import fleet_catalog, synthetic_branchy_element, synthetic_pipeline

MODES = (MergeMode.OFF, MergeMode.CONSERVATIVE)


def summarize(element, length, **options):
    engine = SymbolicEngine(SymbexOptions(**options))
    summary = engine.summarize_element(
        element.program,
        length,
        tables=element.state.tables(),
        element_name=element.name,
    )
    return summary, engine


def outcome_signature(summary):
    """The verdict-relevant content of a summary, invariant under merging.

    Merging collapses same-outcome siblings, so segment *counts* differ
    by design; the set of distinct reachable terminal behaviours may not.
    """
    return {
        (seg.outcome, seg.port, seg.drop_reason, seg.crash_message)
        for seg in summary.segments
    }


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SymbolicEngine(SymbexOptions(merge="bogus"))

    def test_all_modes_accepted(self):
        for mode in MODES:
            SymbolicEngine(SymbexOptions(merge=mode))


class TestBranchyCollapse:
    def test_conservative_collapses_synthetic_branches(self):
        for branches in (2, 3, 4):
            element = synthetic_branchy_element(branches)
            off, _ = summarize(element, 24, merge="off")
            merged, engine = summarize(element, 24)
            assert len(off.segments) == 2**branches
            assert len(merged.segments) == 1
            assert merged.paths_merged == branches
            assert engine.merge_counters.paths_merged == branches
            assert merged.ites_introduced > 0
            # Strictly fewer paths explored: the join after each branch
            # keeps the frontier at one state instead of doubling it.
            assert merged.paths_explored < off.paths_explored

    def test_merged_summary_still_partitions_the_input_space(self):
        element = synthetic_branchy_element(3)
        summary, _ = summarize(element, 24)
        solver = smt.Solver()
        disjunction = smt.Or(*[segment.constraint for segment in summary.segments])
        assert solver.check(smt.Not(disjunction)) == smt.CheckResult.UNSAT
        for i, first in enumerate(summary.segments):
            for second in summary.segments[i + 1 :]:
                assert (
                    solver.check(smt.And(first.constraint, second.constraint))
                    == smt.CheckResult.UNSAT
                )

    def test_merged_bytes_are_ite_lifted_not_havocked(self):
        """A model of the merged segment replays exactly on the interpreter."""
        element = synthetic_branchy_element(3)
        summary, _ = summarize(element, 24)
        solver = smt.Solver()
        interpreter = Interpreter()
        for segment in summary.segments:
            assert solver.check(segment.constraint) == smt.CheckResult.SAT
            model = solver.model()
            packet = bytes(int(model.get(f"in_b{i}", 0)) & 0xFF for i in range(24))
            result = interpreter.run(element.program, packet, state=element.state)
            assert result.outcome == segment.outcome
            assert result.instructions <= segment.instructions

    def test_conservative_threshold_rejects_wide_merges(self):
        element = synthetic_branchy_element(3)
        narrow, _ = summarize(element, 24, merge="conservative", merge_max_ites=0)
        wide, _ = summarize(element, 24, merge="conservative")
        assert narrow.merge_rejected > 0
        assert narrow.paths_merged == 0
        assert len(narrow.segments) > len(wide.segments)

    def test_off_mode_reports_zero_merge_work(self):
        summary, engine = summarize(synthetic_branchy_element(3), 24, merge="off")
        assert summary.paths_merged == 0
        assert summary.ites_introduced == 0
        assert summary.merge_rejected == 0
        assert engine.merge_counters == MergeCounters()


class TestCatalogDifferential:
    def test_catalog_elements_same_outcomes_under_all_modes(self):
        for pipeline in fleet_catalog(6):
            for element in pipeline.elements:
                reference = None
                for mode in MODES:
                    summary, _ = summarize(element, 24, merge=mode)
                    signature = outcome_signature(summary)
                    if reference is None:
                        reference = signature
                    else:
                        assert signature == reference, (
                            f"{pipeline.name}/{element.name} diverges under {mode}"
                        )

    def test_fleet_verdicts_identical_under_all_modes(self):
        reports = {
            mode: certify_fleet(
                fleet_catalog(4),
                [CrashFreedom()],
                input_lengths=(24,),
                options=SymbexOptions(merge=mode),
                instruction_bounds=True,
            )
            for mode in MODES
        }
        reference = reports[MergeMode.OFF]
        report = reports[MergeMode.CONSERVATIVE]
        assert report.verdicts() == reference.verdicts()
        assert len(report.certified) == len(reference.certified)
        assert (
            report.statistics.counterexamples
            == reference.statistics.counterexamples
        )
        # instructions merge as max() per segment, so the certified
        # bound stays a sound upper bound — but composing per-element
        # maxima can pair arms that never co-occur, so it may exceed
        # the exact (merge=off) bound.  Never undershoot it.
        for merged_cert, reference_cert in zip(
            report.certifications, reference.certifications
        ):
            assert (
                merged_cert.instruction_bound.bound
                >= reference_cert.instruction_bound.bound
            )
        assert (
            report.statistics.paths_merged > 0
        ), "the catalog has branchy elements; conservative merging must fire"

    def test_branchy_pipeline_counterexample_parity(self):
        # length 8 starves the branchy elements' byte reads: crash paths
        # exist, and every mode must find the same violation.
        pipeline = synthetic_pipeline(elements=3, branches_per_element=2)
        results = {}
        for mode in MODES:
            results[mode] = verify_crash_freedom(
                Pipeline.chain(
                    [synthetic_branchy_element(2, name="b")], name="crashy"
                ),
                input_lengths=[1],
                options=SymbexOptions(merge=mode),
            )
        reference = results[MergeMode.OFF]

        def violations(result):
            return {
                (ce.violating_element, ce.violation_kind, ce.detail)
                for ce in result.counterexamples
            }

        for mode in MODES:
            assert results[mode].verdict == reference.verdict
            # Merging may *deduplicate* counterexamples (off reaches the
            # same crash along sibling paths), never lose a distinct one.
            assert violations(results[mode]) == violations(reference)
            assert len(results[mode].counterexamples) <= len(
                reference.counterexamples
            )


def random_element(seed):
    """A deterministic random branchy element: nested ifs over packet bytes,
    register arithmetic, stores, occasional asserts and drops."""

    class RandomElement(Element):
        def build_program(self):
            rng = random.Random(seed)
            builder = ProgramBuilder(self.name)
            builder.assign("acc", builder.const(0))

            def block(depth):
                for _ in range(rng.randint(1, 2)):
                    op = rng.random()
                    offset = rng.randint(0, 7)
                    if op < 0.35 and depth < 3:
                        with builder.if_(builder.load(offset, 1) > rng.randint(0, 255)):
                            block(depth + 1)
                        if rng.random() < 0.5:
                            with builder.else_():
                                block(depth + 1)
                    elif op < 0.55:
                        builder.assign(
                            "acc", builder.reg("acc") + builder.load(offset, 1)
                        )
                    elif op < 0.75:
                        builder.store(offset, 1, builder.reg("acc") & 0xFF)
                    elif op < 0.85 and depth > 0:
                        builder.assert_(
                            builder.load(offset, 1) < rng.randint(128, 256),
                            f"random assert {seed}",
                        )
                    elif op < 0.95 and depth > 0:
                        builder.drop(f"random drop {seed}")
                        return
                    else:
                        builder.set_meta("mark", builder.reg("acc"))

            block(0)
            builder.emit(0)
            return builder.build()

    return RandomElement(name=f"rand{seed}")


class TestRandomProgramDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_programs_agree_across_modes(self, seed):
        element = random_element(seed)
        reference_summary = None
        reference_result = None
        for mode in MODES:
            summary, _ = summarize(element, 8, merge=mode)
            signature = outcome_signature(summary)
            result = verify_crash_freedom(
                Pipeline.chain([random_element(seed)], name=f"p{seed}"),
                input_lengths=[8],
                options=SymbexOptions(merge=mode),
            )
            if reference_summary is None:
                reference_summary, reference_result = signature, result
            else:
                assert signature == reference_summary
                assert result.verdict == reference_result.verdict
                # Same distinct violations; merging may dedupe siblings.
                assert {
                    (ce.violating_element, ce.violation_kind, ce.detail)
                    for ce in result.counterexamples
                } == {
                    (ce.violating_element, ce.violation_kind, ce.detail)
                    for ce in reference_result.counterexamples
                }

    @pytest.mark.parametrize("seed", range(8))
    def test_merged_paths_never_exceed_reference(self, seed):
        element = random_element(seed)
        off, _ = summarize(element, 8, merge="off")
        merged, _ = summarize(random_element(seed), 8, merge="conservative")
        assert len(merged.segments) <= len(off.segments)
        assert merged.paths_explored <= off.paths_explored


class TestMergeStatesUnit:
    def test_non_siblings_are_rejected(self):
        # Two states whose constraints are not structurally complementary:
        # merge_states must refuse (no solver call, no unsound disjoin).
        from repro.symbex.state import PathState, SymbolicPacket

        first = PathState(packet=SymbolicPacket.fresh(2))
        second = PathState(packet=SymbolicPacket.fresh(2))
        x = smt.BitVec("mx", 64)
        first.constraints = [smt.intern_term(x > 1)]
        second.constraints = [smt.intern_term(x > 5)]
        counters = MergeCounters()
        merged = merge_states(
            [first, second], MergeMode.CONSERVATIVE, 64, counters
        )
        assert len(merged) == 2
        assert counters.paths_merged == 0
        assert counters.merge_rejected >= 1

    def test_complementary_siblings_merge(self):
        from repro.symbex.state import PathState, SymbolicPacket

        packet = SymbolicPacket.fresh(2)
        first = PathState(packet=packet.copy())
        second = PathState(packet=packet.copy())
        cond = smt.intern_term(smt.simplify(packet.byte(0) > 7))
        first.constraints = [cond]
        second.constraints = [smt.intern_term(smt.simplify(smt.Not(cond)))]
        first.packet.set_byte(1, smt.BitVecVal(1, 8))
        second.packet.set_byte(1, smt.BitVecVal(2, 8))
        counters = MergeCounters()
        merged = merge_states(
            [first, second], MergeMode.CONSERVATIVE, 64, counters
        )
        assert len(merged) == 1
        assert counters.paths_merged == 1
        assert counters.ites_introduced == 1
        # The complementary pair disjoins to TRUE: no residual constraint.
        assert merged[0].constraints == []
