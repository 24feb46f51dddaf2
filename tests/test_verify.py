"""Tests for the verifier: Step-1 suspects, Step-2 composition, properties, baseline."""


from repro import smt
from repro.dataplane import Element, Pipeline, PipelineDriver
from repro.dataplane.elements import (
    CheckIPHeader,
    DecIPTTL,
    IPLookup,
    IPOptions,
    NetFlow,
)
from repro.ir import ElementProgram, ProgramBuilder
from repro.symbex import SymbexOptions
from repro.verify import (
    CompositionEngine,
    CrashFreedom,
    MonolithicVerifier,
    PipelineVerifier,
    SummaryCache,
    Verdict,
    destination_reachability,
    verify_crash_freedom,
)
from repro.workloads import ip_router_pipeline, synthetic_pipeline

INPUT_LENGTH = 24


class ToyClamp(Element):
    """E1 of Figure 2: clamp "negative" (sign-bit-set) bytes to zero."""

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name)
        value = builder.let("value", builder.load(0, 1))
        with builder.if_(value >= 0x80):
            builder.store(0, 1, 0)
        builder.emit(0)
        return builder.build()


class Factor(Element):
    """Crashes on a packet whose two 4-byte fields factor 65521 * 65519.

    Finding the factors takes the CDCL core more than 100 conflicts, so a
    starved conflict budget leaves the crash undecided.
    """

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name)
        x = builder.let("x", builder.load(0, 4))
        y = builder.let("y", builder.load(4, 4))
        with builder.if_((x > 1) & (x < 0x10000) & (y > 1) & (y < 0x10000)):
            builder.assert_(x * y != 65521 * 65519, "factored")
        builder.emit(0)
        return builder.build()


class ToyAssert(Element):
    """E2 of Figure 2: crash on "negative" input, clamp small values to 10."""

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name)
        value = builder.let("value", builder.load(0, 1))
        builder.assert_(value < 0x80, "negative input")
        with builder.if_(value < 10):
            builder.store(0, 1, 10)
        builder.emit(0)
        return builder.build()


class TestFigure2:
    def test_suspect_element_alone_is_violated(self):
        result = verify_crash_freedom(
            Pipeline.chain([ToyAssert(name="E2")], name="e2-alone"), input_lengths=[1]
        )
        assert result.violated
        counterexample = result.counterexamples[0]
        assert counterexample.packet[0] >= 0x80
        assert counterexample.confirmed_by_replay is True

    def test_composed_pipeline_is_proved(self):
        pipeline = Pipeline.chain([ToyClamp(name="E1"), ToyAssert(name="E2")], name="toy")
        result = verify_crash_freedom(pipeline, input_lengths=[1])
        assert result.proved
        # Step 1 found the suspect; Step 2 discharged it.
        assert result.statistics.suspect_segments >= 1
        assert result.statistics.composed_paths_feasible == 0

    def test_step1_shortcut_when_no_suspects(self):
        pipeline = Pipeline.chain([ToyClamp(name="E1"), ToyClamp(name="E1b")], name="clamps")
        result = verify_crash_freedom(pipeline, input_lengths=[1])
        assert result.proved
        assert result.statistics.suspect_segments == 0
        assert result.statistics.composed_paths_checked == 0


class TestIPRouterVerification:
    def test_router_prefixes_are_crash_free(self):
        for length in (1, 2, 3):
            pipeline = ip_router_pipeline(length=length, verify_checksum=False)
            result = verify_crash_freedom(pipeline, input_lengths=[INPUT_LENGTH])
            assert result.proved, result.summary()

    def test_checkipheader_protects_ipoptions(self):
        pipeline = Pipeline.chain(
            [CheckIPHeader(name="chk", verify_checksum=False), IPOptions(name="opts", max_options=8)],
            name="protects",
        )
        result = verify_crash_freedom(pipeline, input_lengths=[INPUT_LENGTH])
        assert result.proved
        assert result.statistics.suspect_segments > 0  # suspects existed but were infeasible

    def test_unprotected_ipoptions_is_violated_with_confirmed_packet(self):
        pipeline = Pipeline.chain([IPOptions(name="opts", max_options=8)], name="unprotected")
        result = verify_crash_freedom(pipeline, input_lengths=[INPUT_LENGTH])
        assert result.violated
        counterexample = result.counterexamples[0]
        assert counterexample.confirmed_by_replay is True
        # Replaying the packet really does crash the concrete element.
        driver = PipelineDriver(pipeline)
        assert driver.inject(counterexample.packet).crashed

    def test_instruction_bound_is_respected_by_concrete_traffic(self):
        pipeline = ip_router_pipeline(length=3, verify_checksum=False)
        verifier = PipelineVerifier(pipeline, options=SymbexOptions(max_paths=20_000))
        bound = verifier.instruction_bound(input_lengths=[INPUT_LENGTH], find_witness=False)
        assert bound.bound > 0

        from repro.workloads import PacketWorkload

        driver = PipelineDriver(ip_router_pipeline(length=3, verify_checksum=False))
        for packet in PacketWorkload(valid=15, malformed=10, random_blobs=10, seed=11):
            trace = driver.inject(packet[:INPUT_LENGTH].ljust(INPUT_LENGTH, b"\x00"))
            assert trace.total_instructions <= bound.bound

    def test_bound_grows_with_pipeline_length(self):
        bounds = []
        for length in (1, 2, 3):
            verifier = PipelineVerifier(
                ip_router_pipeline(length=length, verify_checksum=False),
                options=SymbexOptions(max_paths=20_000),
            )
            bounds.append(verifier.instruction_bound(input_lengths=[INPUT_LENGTH], find_witness=False).bound)
        assert bounds[0] < bounds[1] < bounds[2]

    def test_stateful_pipeline_crash_freedom(self):
        pipeline = Pipeline.chain(
            [CheckIPHeader(name="chk", verify_checksum=False), NetFlow(name="nf")],
            name="stateful",
        )
        result = verify_crash_freedom(pipeline, input_lengths=[INPUT_LENGTH])
        assert result.proved


class TestReachability:
    def build_pipeline(self):
        return Pipeline.chain(
            [
                CheckIPHeader(name="chk", verify_checksum=False),
                IPLookup([("10.0.0.0/8", 0), ("0.0.0.0/0", 0)], name="rt"),
                DecIPTTL(name="ttl"),
            ],
            name="reach",
        )

    def test_naive_property_finds_ttl_drop(self):
        pipeline = self.build_pipeline()
        prop = destination_reachability(0x0A010203, exempt_elements={"chk"})
        result = PipelineVerifier(pipeline).verify(prop, input_lengths=[INPUT_LENGTH])
        assert result.violated
        assert any(c.violating_element == "ttl" for c in result.counterexamples)

    def test_refined_property_is_proved(self):
        pipeline = self.build_pipeline()
        base = destination_reachability(0x0A010203, exempt_elements={"chk"})

        def predicate(packet_bytes):
            ttl = smt.ZeroExt(56, packet_bytes[8])
            return smt.And(base.input_predicate(packet_bytes), smt.UGT(ttl, smt.BitVecVal(1, 64)))

        from repro.verify import Reachability

        prop = Reachability(
            input_predicate=predicate,
            exempt_elements={"chk"},
            description="packets with TTL > 1 to 10.1.2.3 are delivered",
        )
        result = PipelineVerifier(pipeline).verify(prop, input_lengths=[INPUT_LENGTH])
        assert result.proved, result.summary()

    def test_missing_route_is_detected(self):
        pipeline = Pipeline.chain(
            [
                CheckIPHeader(name="chk", verify_checksum=False),
                IPLookup([("192.168.0.0/16", 0)], name="rt"),
            ],
            name="noroute",
        )
        prop = destination_reachability(0x0A010203, exempt_elements={"chk"})
        result = PipelineVerifier(pipeline).verify(prop, input_lengths=[INPUT_LENGTH])
        assert result.violated
        assert any(c.violating_element == "rt" for c in result.counterexamples)


class TestCompositionEngine:
    def test_summary_cache_deduplicates_by_configuration(self):
        cache = SummaryCache(SymbexOptions())
        first = DecIPTTL(name="ttl_a")
        second = DecIPTTL(name="ttl_b")
        cache.summarize(first, 20)
        cache.summarize(second, 20)
        assert cache.statistics.misses == 1
        assert cache.statistics.hits == 1

    def test_extend_threads_packet_state(self):
        cache = SummaryCache(SymbexOptions())
        composer = CompositionEngine(cache)
        element = DecIPTTL(name="ttl")
        summary = cache.summarize(element, 20)
        emit = summary.emit_segments[0]
        prefix = composer.initial_prefix(20)
        extended = composer.extend(prefix, element.name, emit)
        assert len(extended.current_bytes) == 20
        assert extended.instructions == emit.instructions
        status, model = composer.check(extended)
        assert status == smt.CheckResult.SAT and model is not None

    def test_routes_to_enumeration(self):
        pipeline = ip_router_pipeline(length=3, verify_checksum=False)
        verifier = PipelineVerifier(pipeline)
        target = pipeline.element("dec_ttl")
        routes = verifier.composer.routes_to(pipeline, verifier.entry, target)
        assert len(routes) == 1
        assert [element.name for element, _port in routes[0]] == ["check_ip", "lookup"]


class TestPerCallCounters:
    def test_composer_work_is_counted_per_call(self):
        """One verifier checks every property through one composer: each
        result reports the composition it did, not the composer's running
        totals, so a later property does not count an earlier one's paths."""
        from repro.workloads import fleet_catalog

        pipeline = next(p for p in fleet_catalog(6) if p.name == "fleet-2-router-4")
        reachability = destination_reachability(0x0A000001)
        cache = SummaryCache(SymbexOptions())
        verifier = PipelineVerifier(pipeline, cache=cache)
        crash = verifier.verify(CrashFreedom(), input_lengths=[INPUT_LENGTH])
        reach = verifier.verify(reachability, input_lengths=[INPUT_LENGTH])
        bound = verifier.instruction_bound(input_lengths=[INPUT_LENGTH], find_witness=True)
        assert bound.witness_packet is not None

        # A verify result's solver checks also count its Step-1 summaries'
        # own checks, once per distinct summary; the bound counts none.
        summaries = {
            id(summary): summary
            for _element, summary in verifier.element_summaries(INPUT_LENGTH).values()
        }
        step1 = sum(summary.solver_checks for summary in summaries.values())
        calls = [crash.statistics, reach.statistics, bound.statistics]
        composer = verifier.composer
        assert crash.statistics.composed_paths_checked > 0
        assert sum(s.composed_paths_checked for s in calls) == composer.paths_checked
        assert sum(s.composed_paths_feasible for s in calls) == composer.paths_feasible
        assert sum(s.solver_checks for s in calls) - 2 * step1 == composer.solver_checks

        fresh = PipelineVerifier(pipeline, cache=cache).verify(
            reachability, input_lengths=[INPUT_LENGTH]
        )
        assert reach.statistics.composed_paths_checked == fresh.statistics.composed_paths_checked
        assert reach.statistics.solver_checks == fresh.statistics.solver_checks

    def test_a_pipeline_that_composes_nothing_builds_no_composer(self, monkeypatch):
        """Step 2 starts at a suspect segment: a pipeline whose summaries
        hold none never builds the composer or its solver context, and
        its results count no composition."""
        import repro.verify.pipeline_verifier as verifier_module
        from repro.workloads import store_scale_catalog

        built = []
        real = verifier_module.CompositionEngine

        def counting(cache):
            built.append(cache)
            return real(cache)

        monkeypatch.setattr(verifier_module, "CompositionEngine", counting)
        verifier = PipelineVerifier(store_scale_catalog(1)[0])
        for target in (CrashFreedom(), destination_reachability(0x0A000001)):
            result = verifier.verify(target, input_lengths=[INPUT_LENGTH])
            assert result.verdict == Verdict.PROVED
            assert result.statistics.composed_paths_checked == 0
        assert built == []
        assert verifier.composer is verifier.composer  # built once, on first use
        assert len(built) == 1


class TestMonolithicBaseline:
    def test_agrees_with_decomposed_on_small_pipeline(self):
        pipeline = Pipeline.chain(
            [CheckIPHeader(name="chk", verify_checksum=False), DecIPTTL(name="ttl")],
            name="small",
        )
        decomposed = verify_crash_freedom(pipeline, input_lengths=[INPUT_LENGTH])
        monolithic = MonolithicVerifier(
            pipeline, options=SymbexOptions(max_paths=10_000, max_seconds=60)
        ).verify(CrashFreedom(), input_length=INPUT_LENGTH)
        assert decomposed.proved and monolithic.proved

    def test_budget_exhaustion_reported(self):
        pipeline = synthetic_pipeline(elements=6, branches_per_element=4)
        # merge=off: state merging finishes this workload inside the starved
        # budget (and correctly reports the violation), defeating the test.
        baseline = MonolithicVerifier(
            pipeline, options=SymbexOptions(max_paths=50, max_seconds=30, merge="off")
        )
        result = baseline.verify(CrashFreedom(), input_length=8)
        assert result.verdict == Verdict.UNKNOWN
        assert result.statistics.budget_exceeded

    def test_finds_the_same_bug_as_decomposition(self):
        pipeline = Pipeline.chain([ToyAssert(name="E2")], name="bug")
        monolithic = MonolithicVerifier(pipeline).verify(CrashFreedom(), input_length=1)
        assert monolithic.violated
        assert monolithic.counterexamples[0].packet[0] >= 0x80

    def test_reports_the_solver_work_it_did(self, monkeypatch):
        """The baseline's solver-work counters are its engine's query-cache
        delta: one ``sat_core_calls`` per search the CDCL core really ran."""
        from repro.smt.satcore import ArraySolver
        from repro.workloads import fleet_catalog

        searches = []
        solve = ArraySolver.solve

        def counted(self, *args, **kwargs):
            searches.append(self)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(ArraySolver, "solve", counted)
        work = {}
        for pipeline in fleet_catalog(4):
            searches.clear()
            statistics = MonolithicVerifier(pipeline).verify(
                CrashFreedom(), input_length=INPUT_LENGTH
            ).statistics
            assert statistics.sat_core_calls == len(searches), pipeline.name
            assert statistics.slices_solved >= statistics.sat_core_calls
            work[pipeline.name] = statistics.sat_core_calls
        assert work["fleet-2-router-4"] > 0


class TestSolverBudget:
    """A spent conflict budget yields ``unknown``, never ``proved``."""

    def test_spent_budget_is_unknown_not_proved(self):
        pipeline = Pipeline.chain([Factor(name="factor")], name="factor")
        for conflicts in (10, 100):
            options = SymbexOptions(solver_max_conflicts=conflicts)
            result = verify_crash_freedom(pipeline, input_lengths=[8], options=options)
            assert result.verdict == Verdict.UNKNOWN, conflicts
            assert result.statistics.budget_exceeded
            assert result.counterexamples == []
            assert any("'factor'" in note and "factored" in note for note in result.notes)
            baseline = MonolithicVerifier(pipeline, options=options)
            monolithic = baseline.verify(CrashFreedom(), input_length=8)
            assert monolithic.verdict == Verdict.UNKNOWN, conflicts
            assert monolithic.statistics.budget_exceeded
            assert monolithic.counterexamples == []

    def test_default_budget_finds_the_factors(self):
        pipeline = Pipeline.chain([Factor(name="factor")], name="factor")
        result = verify_crash_freedom(pipeline, input_lengths=[8])
        assert result.violated
        assert not result.statistics.budget_exceeded
        counterexample = result.counterexamples[0]
        assert counterexample.packet.hex() == "0000fff10000ffef"
        assert counterexample.confirmed_by_replay is True


class TestPathScaling:
    def test_decomposed_work_is_linear_monolithic_exponential(self):
        """k elements with n branches: k*2^n segments decomposed vs ~2^(k*n) monolithic paths.

        merge=off throughout: this pins the *unmerged* path counts the
        paper's scaling argument is framed in.  State merging collapses
        these synthetic branches entirely (see test_merge_flattens_the_scaling).
        """
        branches = 2
        off = SymbexOptions(merge="off")
        segment_counts = []
        monolithic_paths = []
        for k in (1, 2, 3):
            pipeline = synthetic_pipeline(elements=k, branches_per_element=branches)
            verifier = PipelineVerifier(pipeline, options=off)
            summaries = verifier.element_summaries(8)
            segment_counts.append(sum(len(s.segments) for _e, s in summaries.values()))
            baseline = MonolithicVerifier(
                pipeline, options=SymbexOptions(max_paths=100_000, max_seconds=60, merge="off")
            )
            result = baseline.verify(CrashFreedom(), input_length=8)
            monolithic_paths.append(
                getattr(result.statistics, "pipeline_paths_explored", 0)
            )
        per_element = 2**branches
        assert segment_counts == [per_element * k for k in (1, 2, 3)]
        assert monolithic_paths == [per_element**k for k in (1, 2, 3)]

    def test_merge_flattens_the_scaling(self):
        """Conservative merging collapses the synthetic branch fan-out to one
        segment per element — the decomposed work becomes constant in n."""
        branches = 2
        for k in (1, 2, 3):
            pipeline = synthetic_pipeline(elements=k, branches_per_element=branches)
            verifier = PipelineVerifier(pipeline)
            summaries = verifier.element_summaries(8)
            assert sum(len(s.segments) for _e, s in summaries.values()) == k
