"""Tests for the symbolic execution engine: segments, crash forks, loops, havoc state."""

import pytest
from hypothesis import strategies as st

from repro import smt
from repro.dataplane.elements import CheckIPHeader, DecIPTTL, IPLookup, IPOptions, NetFlow
from repro.ir import Interpreter, ProgramBuilder
from repro.symbex import (
    PathExplosionError,
    SegmentOutcome,
    SymbexOptions,
    SymbolicEngine,
    SymbolicPacket,
    summarize_loop,
)
from repro.symbex.engine import StaticTableMode


def summarize(element, length, **options):
    engine = SymbolicEngine(SymbexOptions(**options))
    return engine.summarize_element(
        element.program,
        length,
        tables=element.state.tables(),
        element_name=element.name,
    )


class TestSymbolicPacket:
    def test_fresh_packet_bytes_are_symbolic(self):
        packet = SymbolicPacket.fresh(4)
        assert len(packet) == 4
        assert all(byte.is_var() for byte in packet.bytes)

    def test_load_store_roundtrip_concrete(self):
        packet = SymbolicPacket.concrete(bytes([1, 2, 3, 4]))
        assert smt.evaluate(packet.load(1, 2), {}) == 0x0203
        packet.store(0, 2, smt.BitVecVal(0xBEEF, 64))
        assert smt.evaluate(packet.load(0, 2), {}) == 0xBEEF


class TestSegmentEnumeration:
    def test_decttl_segments(self):
        summary = summarize(DecIPTTL(name="ttl"), 20, merge="off")
        assert len(summary.crash_segments) == 0
        assert len(summary.drop_segments) == 1
        # Two emit paths: with and without the checksum end-around carry.
        assert len(summary.emit_segments) == 2
        drop = summary.drop_segments[0]
        assert drop.drop_reason == "TTL expired"

    def test_decttl_segments_merge_collapses_carry_fork(self):
        # Under the default (conservative) merge the two emit paths — with
        # and without the checksum end-around carry — join into one
        # ite-lifted segment; the drop path stays distinct.
        summary = summarize(DecIPTTL(name="ttl"), 20)
        assert len(summary.crash_segments) == 0
        assert len(summary.drop_segments) == 1
        assert len(summary.emit_segments) == 1
        assert summary.paths_merged >= 1

    def test_segments_partition_the_input_space(self):
        """Segment constraints are mutually exclusive and exhaustive (a sound+complete split)."""
        summary = summarize(DecIPTTL(name="ttl"), 20)
        solver = smt.Solver()
        # Exhaustive: the disjunction of constraints is valid (its negation is UNSAT).
        disjunction = smt.Or(*[segment.constraint for segment in summary.segments])
        assert solver.check(smt.Not(disjunction)) == smt.CheckResult.UNSAT
        # Mutually exclusive: any two constraints cannot hold together.
        for i, first in enumerate(summary.segments):
            for second in summary.segments[i + 1 :]:
                assert solver.check(smt.And(first.constraint, second.constraint)) == smt.CheckResult.UNSAT

    def test_segment_models_replay_on_the_interpreter(self):
        """A model of each segment's constraint drives the interpreter down that segment."""
        element = DecIPTTL(name="ttl")
        # merge=off: merged segments report instructions as an upper bound
        # (max over merged arms), so exact replay needs unmerged paths.
        summary = summarize(element, 20, merge="off")
        solver = smt.Solver()
        interpreter = Interpreter()
        for segment in summary.segments:
            assert solver.check(segment.constraint) == smt.CheckResult.SAT
            model = solver.model()
            packet = bytes(int(model.get(f"in_b{i}", 0)) & 0xFF for i in range(20))
            result = interpreter.run(element.program, packet, state=element.state)
            assert result.outcome == segment.outcome
            assert result.instructions == segment.instructions

    def test_merged_segment_models_replay_within_bound(self):
        """Merged segments still replay the right outcome; instructions upper-bound."""
        element = DecIPTTL(name="ttl")
        summary = summarize(element, 20)
        solver = smt.Solver()
        interpreter = Interpreter()
        for segment in summary.segments:
            assert solver.check(segment.constraint) == smt.CheckResult.SAT
            model = solver.model()
            packet = bytes(int(model.get(f"in_b{i}", 0)) & 0xFF for i in range(20))
            result = interpreter.run(element.program, packet, state=element.state)
            assert result.outcome == segment.outcome
            assert result.instructions <= segment.instructions

    def test_out_of_bounds_read_produces_crash_segment(self):
        builder = ProgramBuilder("oob")
        offset = builder.let("offset", builder.load(0, 1))
        builder.assign("value", builder.load(offset, 1))
        builder.emit(0)
        engine = SymbolicEngine(SymbexOptions())
        states = engine.execute_program(builder.build(), SymbolicPacket.fresh(8))
        outcomes = {state.outcome for state in states}
        assert SegmentOutcome.CRASH in outcomes and SegmentOutcome.EMIT in outcomes

    def test_division_by_zero_fork(self):
        builder = ProgramBuilder("div")
        builder.assign("q", builder.load(0, 1) // builder.load(1, 1))
        builder.emit(0)
        engine = SymbolicEngine(SymbexOptions())
        states = engine.execute_program(builder.build(), SymbolicPacket.fresh(2))
        crash = [state for state in states if state.outcome == SegmentOutcome.CRASH]
        assert len(crash) == 1 and "zero" in crash[0].crash_message

    def test_infeasible_branches_pruned(self):
        builder = ProgramBuilder("contradiction")
        value = builder.let("value", builder.load(0, 1))
        with builder.if_(value < 10):
            with builder.if_(value > 20):
                builder.drop("impossible")
        builder.emit(0)
        engine = SymbolicEngine(SymbexOptions())
        states = engine.execute_program(builder.build(), SymbolicPacket.fresh(1))
        assert all(state.outcome != SegmentOutcome.DROP for state in states)

    def test_path_budget_enforced(self):
        builder = ProgramBuilder("wide")
        for index in range(8):
            with builder.if_(builder.load(index, 1) > 127):
                builder.set_meta(f"bit{index}", 1)
        builder.emit(0)
        engine = SymbolicEngine(SymbexOptions(max_paths=10))
        with pytest.raises(PathExplosionError):
            engine.execute_program(builder.build(), SymbolicPacket.fresh(8))

    def test_instruction_counts_match_interpreter_on_samples(self):
        element = CheckIPHeader(name="chk", verify_checksum=False)
        summary = summarize(element, 24)
        solver = smt.Solver()
        for segment in summary.segments:
            assert solver.check(segment.constraint) == smt.CheckResult.SAT
            model = solver.model()
            packet = bytes(int(model.get(f"in_b{i}", 0)) & 0xFF for i in range(24))
            result = Interpreter().run(element.program, packet, state=element.state)
            assert result.instructions == segment.instructions


class TestStaticTables:
    def test_concrete_mode_uses_table_contents(self):
        element = IPLookup([("10.0.0.0/8", 0), ("0.0.0.0/0", 1)], name="rt")
        summary = summarize(element, 20)
        # With a default route the "no route" drop is infeasible.
        assert not summary.drop_segments
        assert {segment.port for segment in summary.emit_segments} == {0, 1}

    def test_havoc_mode_allows_any_table(self):
        element = IPLookup([("10.0.0.0/8", 0), ("0.0.0.0/0", 1)], name="rt")
        summary = summarize(element, 20, static_table_mode=StaticTableMode.HAVOC)
        # Any-configuration proof: the not-found drop is reachable now.
        assert summary.drop_segments
        assert any(segment.havoc_reads for segment in summary.segments)


class TestStatefulElements:
    def test_netflow_reads_are_havocked(self):
        summary = summarize(NetFlow(name="nf"), 20)
        assert all(not segment.crashes for segment in summary.segments)
        assert any(segment.havoc_reads for segment in summary.segments)
        assert any(segment.table_writes for segment in summary.segments)

    def test_ipoptions_has_crash_suspects_in_isolation(self):
        summary = summarize(IPOptions(name="opts", max_options=4), 24)
        assert summary.crash_segments  # the Figure-2 style suspect segments


class TestLoopDecomposition:
    def test_loop_summary_scales_linearly(self):
        element = IPOptions(name="opts", max_options=6)
        loop = element.program.loops()[0]
        summary = summarize_loop(element.program, loop, input_length=24)
        assert summary.segments_per_iteration >= 2
        assert summary.decomposed_segment_count == summary.segments_per_iteration * 6
        assert summary.naive_segment_count() > summary.decomposed_segment_count
        assert summary.loop_instruction_bound == (
            summary.max_instructions_per_iteration * loop.max_iterations
        )

    def test_checksum_loop_iteration_is_crash_free(self):
        element = CheckIPHeader(name="chk", verify_checksum=True)
        loop = element.program.loops()[0]
        summary = summarize_loop(element.program, loop, input_length=20)
        assert summary.crash_segments_per_iteration == 0

    @staticmethod
    def _counter_loop_program(conditional_init: bool):
        """A stride-4 scan whose initialiser is (optionally) branch-dependent."""
        builder = ProgramBuilder("counter")
        selector = builder.let("selector", builder.load(1, 1))
        if conditional_init:
            with builder.if_(selector):
                builder.assign("r", builder.load(0, 1))
            with builder.else_():
                builder.assign("r", 4)
        else:
            builder.assign("r", 4)
        with builder.while_(builder.reg("r") < 20, max_iterations=8, loop_id="scan"):
            builder.let("x", builder.load(builder.reg("r"), 1))
            builder.assign("r", builder.reg("r") + 4)
        builder.emit(0)
        return builder.build()

    def test_stride_invariant_requires_dominating_initialiser(self):
        """A branch-dependent initial value must not narrow the havoc'd counter.

        With `r := 4` dominating, only r in {4, 8, 12, 16} reaches the scan's
        reads, all inside an 18-byte packet.  When one branch loads r from
        the packet instead, r = 18 is a reachable loop-head state and the
        iteration must report the out-of-bounds read.
        """
        sound = self._counter_loop_program(conditional_init=False)
        summary = summarize_loop(sound, sound.loops()[0], input_length=18)
        assert summary.crash_segments_per_iteration == 0

        unsound_if_narrowed = self._counter_loop_program(conditional_init=True)
        summary = summarize_loop(
            unsound_if_narrowed, unsound_if_narrowed.loops()[0], input_length=18
        )
        assert summary.crash_segments_per_iteration >= 1

    def test_prefix_crashes_not_attributed_to_the_iteration(self):
        """IPOptions' trusted-IHL read crashes before the loop, not per-iteration."""
        element = IPOptions(name="opts", max_options=4)
        loop = element.program.loops()[0]
        summary = summarize_loop(element.program, loop, input_length=24)
        # Surviving the trusted-IHL read bounds hlen by the packet length, so
        # in context the walk itself cannot read out of bounds...
        assert summary.crash_segments_per_iteration == 0
        # ...while the prefix's own crash segments (the Figure-2 suspects)
        # exist in the raw summary and are excluded from the per-iteration count.
        prefix_crashes = [
            segment
            for segment in summary.iteration_summary.crash_segments
            if "__loop_iteration" not in segment.output_metadata
        ]
        assert prefix_crashes
        assert summary.crash_segments_per_iteration + len(prefix_crashes) == len(
            summary.iteration_summary.crash_segments
        )
