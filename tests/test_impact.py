"""Tests for change-impact re-certification and the ``python -m repro`` CLI."""

import json
import re
import sqlite3

import pytest

from repro.dataplane.fingerprint import (
    element_fingerprint_parts,
    pipeline_fingerprint,
    wiring_fingerprint,
)
from repro.orchestrator import (
    DELTA_REUSED,
    FRESH,
    SummaryStore,
    VerdictStore,
    catalog_manifest,
    certify_fleet,
    diff_catalogs,
    element_slots,
    property_set_fingerprint,
    recertify,
    summary_key,
    verdict_key,
)
from repro.cli import main as cli_main
from repro.cli.specs import CATALOG_SPECS, SpecError, parse_catalog
from repro.symbex import StaticTableMode, SymbexOptions
from repro.symbex.merge import MergeMode
from repro.verify import BoundedInstructions, CrashFreedom, destination_reachability
from repro.workloads import (
    ALTERNATE_ROUTES,
    churned_fleet_catalog,
    fleet_catalog,
    ip_router_pipeline,
    store_scale_catalog,
)
from repro.workloads.pipelines import DEFAULT_ROUTES

CATALOG_SIZE = 4
LENGTHS = (24,)
REACH_AND_CRASH = [CrashFreedom(), destination_reachability(0x0A000001)]


def _rows(store):
    """Every ``(digest, payload)`` row of a flushed store, sorted."""
    connection = sqlite3.connect(str(store.path))
    try:
        return sorted(connection.execute("SELECT digest, payload FROM entries"))
    finally:
        connection.close()


# -- fingerprints ---------------------------------------------------------------------


class TestPipelineFingerprints:
    def test_rename_preserves_fingerprint(self):
        base = fleet_catalog(CATALOG_SIZE)
        renamed = churned_fleet_catalog(CATALOG_SIZE, "rename")
        for old, new in zip(base, renamed):
            assert pipeline_fingerprint(old, True) == pipeline_fingerprint(new, True)

    def test_table_change_moves_fingerprint_only_in_concrete_mode(self):
        plain = ip_router_pipeline(length=2, name="p")
        rerouted = ip_router_pipeline(length=2, routes=ALTERNATE_ROUTES, name="p")
        assert pipeline_fingerprint(plain, True) != pipeline_fingerprint(rerouted, True)
        # Same wiring either way; table contents live in the elements.
        assert wiring_fingerprint(plain) == wiring_fingerprint(rerouted)

    def test_rewire_moves_fingerprint_with_same_elements(self):
        base = fleet_catalog(CATALOG_SIZE)[1]
        rewired = churned_fleet_catalog(CATALOG_SIZE, "rewire")[1]
        assert pipeline_fingerprint(base, True) != pipeline_fingerprint(rewired, True)

    def test_parts_combined_matches_configuration_fingerprint(self):
        from repro.dataplane.fingerprint import configuration_fingerprint

        for pipeline in fleet_catalog(2):
            for element in pipeline.elements:
                for include in (True, False):
                    parts = element_fingerprint_parts(element, include)
                    assert parts.combined == configuration_fingerprint(element, include)

    def test_verdict_key_covers_property_set_and_request(self):
        fingerprint = pipeline_fingerprint(ip_router_pipeline(length=1, name="p"), True)
        options = SymbexOptions()
        base = verdict_key(fingerprint, [CrashFreedom()], (24,), options, 3, True, False)
        assert base != verdict_key(
            fingerprint, [BoundedInstructions(bound=50)], (24,), options, 3, True, False
        )
        assert base != verdict_key(fingerprint, [CrashFreedom()], (32,), options, 3, True, False)
        assert base != verdict_key(fingerprint, [CrashFreedom()], (24,), options, 1, True, False)
        # Budgets don't partition the tier (unknowns are never stored).
        assert base == verdict_key(
            fingerprint, [CrashFreedom()], (24,), SymbexOptions(max_paths=7), 3, True, False
        )

    def test_verdict_key_unchanged_when_no_property_names_an_element(self):
        # Pinned digest: a property set that names no element adds no
        # slots to the key material.  The digest moved once on purpose
        # when the configuration key left the element fingerprint, and
        # once when the key took in the merge policy (merged instruction
        # bounds differ by mode), so verdict stores written before each
        # read cold.
        pipeline = ip_router_pipeline(length=2, name="p")
        properties = [CrashFreedom(), destination_reachability(0x0A000001)]
        slots = element_slots(pipeline, properties)
        assert slots == {}
        key = verdict_key(
            pipeline_fingerprint(pipeline, True), properties, (24,), SymbexOptions(),
            3, True, False, slots=slots,
        )
        assert key == "4b945e81824f836b7b493dccb961d0d854afff732a19f8481fdfea36b4c203cc"
        assert key == verdict_key(
            pipeline_fingerprint(pipeline, True), properties, (24,), SymbexOptions(),
            3, True, False,
        )

    def test_verdict_key_pins_named_element_slots(self):
        pipeline = ip_router_pipeline(length=2, name="p")  # check_ip -> lookup
        properties = [destination_reachability(0x0A000001, exempt_elements={"lookup", "nat"})]
        slots = element_slots(pipeline, properties)
        assert slots == {"lookup": 1, "nat": None}
        fingerprint = pipeline_fingerprint(pipeline, True)

        def key(slots):
            return verdict_key(
                fingerprint, properties, (24,), SymbexOptions(), 3, True, False, slots=slots
            )

        assert key(slots) != key({"lookup": 0, "nat": None})
        assert key(slots) != key({"lookup": None, "nat": None})

    def test_property_set_fingerprint_is_stable_across_instances(self):
        one = [CrashFreedom(), destination_reachability(0x0A000001, exempt_elements={"a"})]
        two = [CrashFreedom(), destination_reachability(0x0A000001, exempt_elements={"a"})]
        assert property_set_fingerprint(one) == property_set_fingerprint(two)
        other = [CrashFreedom(), destination_reachability(0x0A000002, exempt_elements={"a"})]
        assert property_set_fingerprint(one) != property_set_fingerprint(other)

    def test_closure_predicates_with_different_captures_do_not_collide(self):
        # A factory-made predicate captures state in closure cells; two
        # predicates from the same factory must not share a verdict key.
        from repro.orchestrator import property_fingerprint
        from repro.verify import Reachability

        def make(destination):
            def predicate(packet_bytes):
                return destination  # captured: part of the identity

            return predicate

        first = Reachability(input_predicate=make(1))
        second = Reachability(input_predicate=make(2))
        same_as_first = Reachability(input_predicate=make(1))
        assert property_fingerprint(first) != property_fingerprint(second)
        assert property_fingerprint(first) == property_fingerprint(same_as_first)


# -- the structural differ ------------------------------------------------------------


class TestDiff:
    def test_table_only_change_impacts_only_users_of_that_table(self):
        base = fleet_catalog(CATALOG_SIZE)
        impact = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "routes"))
        assert [pi.name for pi in impact.impacted] == [base[0].name]
        causes = " ".join(impact.impacted[0].causes)
        assert "static table 'routes'" in causes
        assert not impact.removed

    def test_wiring_change_invalidates_exactly_its_pipeline(self):
        base = fleet_catalog(CATALOG_SIZE)
        impact = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "rewire"))
        assert [pi.name for pi in impact.impacted] == [base[1].name]
        assert any("wiring" in cause for cause in impact.impacted[0].causes)

    def test_noop_rename_impacts_nothing(self):
        base = fleet_catalog(CATALOG_SIZE)
        impact = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "rename"))
        assert impact.impacted == []
        assert len(impact.unimpacted) == CATALOG_SIZE

    def test_program_change_names_the_element(self):
        base = fleet_catalog(CATALOG_SIZE)
        impact = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "options"))
        assert [pi.name for pi in impact.impacted] == [base[2].name]
        assert any("IR program changed" in cause for cause in impact.impacted[0].causes)

    def test_route_reorder_changes_nothing(self):
        # The engine reads the forwarding table's contents, not the order
        # its routes were listed in, so a reorder is no change at all.
        listed = ip_router_pipeline(length=2, name="router")
        reordered = ip_router_pipeline(
            length=2, routes=tuple(reversed(DEFAULT_ROUTES)), name="router"
        )
        lookup, relisted = listed.element("lookup"), reordered.element("lookup")
        assert lookup.routes != relisted.routes
        assert summary_key(lookup, 24, SymbexOptions()) == summary_key(
            relisted, 24, SymbexOptions()
        )
        assert pipeline_fingerprint(listed, True) == pipeline_fingerprint(reordered, True)
        impact = diff_catalogs([listed], [reordered])
        assert impact.impacted == [] and [pi.name for pi in impact.unimpacted] == ["router"]

    def test_add_and_remove_pipelines(self):
        base = fleet_catalog(CATALOG_SIZE)
        added = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "add"))
        assert [pi.name for pi in added.impacted] == [
            f"fleet-{CATALOG_SIZE}-nat-gateway-added"
        ]
        removed = diff_catalogs(base, churned_fleet_catalog(CATALOG_SIZE, "remove"))
        assert removed.impacted == []
        assert removed.removed == [base[0].name]


# -- delta re-certification -----------------------------------------------------------


class TestDeltaRecertification:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("delta")
        return SummaryStore(root / "summaries"), VerdictStore(root / "verdicts")

    @pytest.fixture(scope="class")
    def cold(self, stores):
        summary_store, verdict_store = stores
        return recertify(
            fleet_catalog(CATALOG_SIZE),
            [CrashFreedom()],
            input_lengths=LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )

    def test_cold_pass_is_all_fresh(self, cold):
        assert all(c.provenance == FRESH for c in cold.report.certifications)
        assert cold.report.statistics.verdicts_fresh == CATALOG_SIZE
        assert cold.report.statistics.verdicts_reused == 0

    def test_table_change_reverifies_only_impacted_pipeline(self, stores, cold):
        summary_store, verdict_store = stores
        mutated = churned_fleet_catalog(CATALOG_SIZE, "routes")
        delta = recertify(
            mutated,
            [CrashFreedom()],
            baseline=cold.manifest,
            input_lengths=LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )
        provenance = [c.provenance for c in delta.report.certifications]
        assert provenance == [FRESH] + [DELTA_REUSED] * (CATALOG_SIZE - 1)
        # Zero symbex and zero solver checks for the unimpacted pipelines:
        # the only computed summary is the changed lookup element, and the
        # only solver checks are the impacted pipeline's own.
        assert delta.report.statistics.summaries_computed == 1
        solo = certify_fleet(
            [churned_fleet_catalog(CATALOG_SIZE, "routes")[0]],
            [CrashFreedom()],
            input_lengths=LENGTHS,
            store=summary_store,
        )
        assert delta.report.statistics.solver_checks == solo.statistics.solver_checks
        # Delta verdicts are identical to a cold full pass over the new catalog.
        full = certify_fleet(
            churned_fleet_catalog(CATALOG_SIZE, "routes"), [CrashFreedom()],
            input_lengths=LENGTHS,
        )
        assert delta.report.verdicts() == full.verdicts()
        # Impact provenance is attached to the fresh verdict.
        assert any(
            "static table 'routes'" in cause
            for cause in delta.report.certifications[0].impact_causes
        )

    @pytest.mark.parametrize("mode", [StaticTableMode.HAVOC, StaticTableMode.CONCRETE])
    def test_route_edit_reverifies_only_where_routes_are_read(self, mode, tmp_path):
        # Under havoc'd tables the engine never reads the routes, so
        # editing them moves no identity; in concrete mode it re-verifies
        # exactly the router that holds them, and re-runs its lookup.
        options = SymbexOptions(static_table_mode=mode)
        stores = {
            "store": SummaryStore(tmp_path / "summaries"),
            "verdict_store": VerdictStore(tmp_path / "verdicts"),
        }
        recertify(
            fleet_catalog(6), [CrashFreedom()], input_lengths=LENGTHS, options=options, **stores
        )
        delta = recertify(
            churned_fleet_catalog(6, "routes"), [CrashFreedom()],
            input_lengths=LENGTHS, options=options, **stores,
        )
        statistics = delta.report.statistics
        fresh = [c.pipeline_name for c in delta.report.certifications if c.provenance == FRESH]
        if mode == StaticTableMode.HAVOC:
            assert fresh == [] and statistics.verdicts_reused == 6
            assert statistics.summaries_computed == 0
        else:
            assert fresh == ["fleet-0-router-2"] and statistics.verdicts_reused == 5
            assert statistics.summaries_computed == 1

    def test_noop_rename_reuses_everything(self, stores, cold):
        summary_store, verdict_store = stores
        delta = recertify(
            churned_fleet_catalog(CATALOG_SIZE, "rename"),
            [CrashFreedom()],
            baseline=cold.manifest,
            input_lengths=LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )
        assert all(c.provenance == DELTA_REUSED for c in delta.report.certifications)
        assert delta.report.statistics.summaries_computed == 0
        assert delta.report.statistics.solver_checks == 0
        assert delta.report.verdicts() == cold.report.verdicts()
        # Reused records adopt the current catalog's (renamed) element
        # pipeline names, not the names they were stored under.
        assert [c.pipeline_name for c in delta.report.certifications] == [
            p.name for p in churned_fleet_catalog(CATALOG_SIZE, "rename")
        ]

    def test_rename_out_of_an_exempt_set_reverifies(self, tmp_path):
        # Exemptions name elements, and fingerprints normalize names out:
        # renaming router-2's elements drops check_ip and lookup from the
        # exempt set, so its reachability verdict changes.
        properties = [
            CrashFreedom(),
            destination_reachability(
                0x0A000001, exempt_elements={"check_ip", "gw_check", "dec_ttl", "lookup"}
            ),
        ]
        verdict_store = VerdictStore(tmp_path / "verdicts")
        certify_fleet(
            fleet_catalog(6), properties, input_lengths=LENGTHS, verdict_store=verdict_store
        )
        delta = certify_fleet(
            churned_fleet_catalog(6, "rename", target=0), properties,
            input_lengths=LENGTHS, verdict_store=verdict_store,
        )
        cold = certify_fleet(
            churned_fleet_catalog(6, "rename", target=0), properties, input_lengths=LENGTHS
        )
        assert delta.verdicts() == cold.verdicts()
        assert [c.reused for c in delta.certifications] == [False] + [True] * 5

    def test_property_set_change_misses_the_verdict_store(self, stores, cold):
        summary_store, verdict_store = stores
        delta = recertify(
            fleet_catalog(CATALOG_SIZE),
            [CrashFreedom(), BoundedInstructions(bound=100_000)],
            baseline=cold.manifest,
            input_lengths=LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )
        # Unimpacted configurations, but no record for this property set:
        # everything re-verifies (with warm summaries) and says why.
        assert all(c.provenance == FRESH for c in delta.report.certifications)
        assert delta.report.statistics.summaries_computed == 0  # summaries still warm
        assert all(
            "no stored verdict" in " ".join(c.impact_causes)
            for c in delta.report.certifications
        )

    def test_unknown_verdicts_are_never_stored(self, tmp_path):
        from repro.workloads import synthetic_pipeline

        verdict_store = VerdictStore(tmp_path / "verdicts")
        # merge=off so the starved budget actually explodes: path merging
        # would collapse the branchy element back under 4 live paths.
        starved = SymbexOptions(max_paths=4, merge="off")
        first = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), options=starved, verdict_store=verdict_store,
        )
        assert first.verdicts()[0][2] == "unknown"
        assert len(verdict_store) == 0
        second = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), options=starved, verdict_store=verdict_store,
        )
        assert second.statistics.verdicts_reused == 0  # retried, not pinned

    def test_unfound_instruction_bounds_are_never_stored(self, tmp_path):
        from repro.workloads import synthetic_pipeline

        verdict_store = VerdictStore(tmp_path / "verdicts")
        starved = SymbexOptions(max_paths=4, merge="off")
        # No property to turn unknown: only the instruction bound sees the
        # blown budget, and a bound it could not find is no record either.
        report = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [], input_lengths=(12,),
            options=starved, instruction_bounds=True, verdict_store=verdict_store,
        )
        bound = report.certifications[0].instruction_bound
        assert bound.bound is None and bound.statistics.budget_exceeded
        assert "none found" in bound.summary()
        assert len(verdict_store) == 0

    def test_violated_verdicts_round_trip_with_counterexamples(self, tmp_path):
        from repro.dataplane.elements import IPOptions
        from repro.dataplane.pipeline import Pipeline

        def crashy():
            return [
                Pipeline.chain([IPOptions(name="opts", max_options=8)], name="unprotected")
            ]

        verdict_store = VerdictStore(tmp_path / "verdicts")
        first = certify_fleet(
            crashy(), [CrashFreedom()], input_lengths=LENGTHS, verdict_store=verdict_store
        )
        second = certify_fleet(
            crashy(), [CrashFreedom()], input_lengths=LENGTHS, verdict_store=verdict_store
        )
        assert second.statistics.verdicts_reused == 1
        assert second.certifications[0].provenance == DELTA_REUSED
        firsts = [ce.packet for ce in first.certifications[0].results[0].counterexamples]
        seconds = [ce.packet for ce in second.certifications[0].results[0].counterexamples]
        assert firsts and firsts == seconds
        assert second.verdicts() == first.verdicts()

    def test_identical_pipelines_reuse_their_own_records(self, tmp_path):
        """Two identically configured pipelines share one verdict key: each is
        served from the store under its own name, sharing nothing mutable."""
        from repro.dataplane.elements import IPOptions
        from repro.dataplane.pipeline import Pipeline

        def twins():
            return [
                Pipeline.chain([IPOptions(name="opts", max_options=8)], name=name)
                for name in ("edge-a", "edge-b")
            ]

        verdict_store = VerdictStore(tmp_path / "verdicts")
        certify_fleet(twins(), [CrashFreedom()], input_lengths=LENGTHS, verdict_store=verdict_store)
        assert len(verdict_store) == 1  # one record serves both names
        warm = certify_fleet(
            twins(), [CrashFreedom()], input_lengths=LENGTHS, verdict_store=verdict_store
        )
        assert warm.statistics.verdicts_reused == 2
        first, second = warm.certifications
        assert all(c.provenance == DELTA_REUSED for c in (first, second))
        for certification, name in ((first, "edge-a"), (second, "edge-b")):
            assert certification.pipeline_name == name
            assert [result.pipeline_name for result in certification.results] == [name]
        assert second.results[0].counterexamples  # mutable parts worth checking

        # Changing one leaves the other intact.
        untouched = second.to_dict()
        first.pipeline_name = "renamed"
        for result in first.results:
            result.pipeline_name = "renamed"
        first.impact_causes.append("changed")
        first.results[0].notes.append("changed")
        first.results[0].statistics.solver_checks += 1000
        first.results[0].statistics.per_element_segments["changed"] = 1
        first.results[0].counterexamples[0].element_path.append("changed")
        first.results[0].counterexamples.clear()
        assert second.to_dict() == untouched

    @pytest.mark.parametrize(
        "catalog, workers, bounds",
        [("fleet", 1, True), ("scale", 1, False), ("scale", 2, False)],
        ids=["fleet-6-bounds", "scale-20-one-worker", "scale-20-two-workers"],
    )
    def test_cold_passes_write_identical_rows(self, catalog, workers, bounds, four_cpus, tmp_path):
        """A stored record carries no wall-clock seconds, so two cold passes
        into fresh roots write the same rows; each report keeps its seconds."""
        make = {
            "fleet": lambda: fleet_catalog(6), "scale": lambda: store_scale_catalog(20),
        }[catalog]
        written = []
        for run in ("a", "b"):
            roots = {tier: str(tmp_path / run / tier) for tier in ("store", "query_store")}
            verdicts = VerdictStore(tmp_path / run / "verdicts")
            report = certify_fleet(
                make(), REACH_AND_CRASH, input_lengths=LENGTHS, workers=workers,
                instruction_bounds=bounds, verdict_store=verdicts, **roots,
            )
            assert report.statistics.verdicts_fresh == len(report.certifications)
            assert all(
                result.statistics.elapsed_seconds > 0
                for certification in report.certifications
                for result in certification.results
            )
            written.append(_rows(verdicts))
        assert written[0] == written[1] and len(written[0]) == len(report.certifications)

        # A reused record reports the seconds this run spent on it: none.
        warm = certify_fleet(
            make(), REACH_AND_CRASH, input_lengths=LENGTHS, workers=workers,
            instruction_bounds=bounds, verdict_store=verdicts, **roots,
        )
        assert warm.statistics.verdicts_reused == len(warm.certifications)
        statistics = [r.statistics for c in warm.certifications for r in c.results]
        statistics += [c.instruction_bound.statistics for c in warm.certifications if bounds]
        assert all(
            s.elapsed_seconds == 0 and set(s.per_element_seconds.values()) <= {0.0}
            for s in statistics
        )

    def test_merge_policy_partitions_the_verdict_store(self, tmp_path):
        """Merged instruction bounds are upper bounds that differ by merge
        mode, so a record certified under one policy never serves another."""
        verdicts = VerdictStore(tmp_path / "verdicts")
        run = dict(input_lengths=LENGTHS, instruction_bounds=True, verdict_store=verdicts)
        unmerged = certify_fleet(
            fleet_catalog(6), REACH_AND_CRASH, options=SymbexOptions(merge=MergeMode.OFF), **run
        )
        merged = certify_fleet(fleet_catalog(6), REACH_AND_CRASH, **run)
        assert merged.statistics.verdicts_reused == 0
        assert len(verdicts) == 12

        def bound(report):
            return {c.pipeline_name: c.instruction_bound.bound for c in report.certifications}

        assert bound(unmerged)["fleet-2-router-4"] == 196
        assert bound(merged)["fleet-2-router-4"] == 214
        assert merged.verdicts() == unmerged.verdicts()


# -- manifest hygiene -----------------------------------------------------------------


class TestManifests:
    def test_manifest_round_trips_through_json(self):
        manifest = catalog_manifest(fleet_catalog(2))
        again = json.loads(json.dumps(manifest))
        assert again == manifest

    def test_duplicate_pipeline_names_are_rejected(self):
        from repro.orchestrator import OrchestratorError

        twins = [ip_router_pipeline(length=1, name="twin") for _ in range(2)]
        with pytest.raises(OrchestratorError):
            catalog_manifest(twins)

    def test_version_mismatch_is_loud(self):
        from repro.orchestrator import OrchestratorError, diff_manifests

        good = catalog_manifest(fleet_catalog(1))
        stale = dict(good, version=999)
        with pytest.raises(OrchestratorError):
            diff_manifests(stale, good)

    def test_mode_change_impacts_everything(self):
        from repro.orchestrator import diff_manifests

        concrete = catalog_manifest(fleet_catalog(2), SymbexOptions())
        havoc = catalog_manifest(fleet_catalog(2), SymbexOptions(static_table_mode="havoc"))
        impact = diff_manifests(concrete, havoc)
        assert len(impact.impacted) == 2
        assert all("static-table mode" in pi.causes[0] for pi in impact.impacted)


# -- the CLI --------------------------------------------------------------------------


class TestCli:
    def test_certify_exit_zero_when_certified(self, tmp_path, capsys):
        code = cli_main(
            ["certify", "--catalog", "ip-router:2", "--lengths", "24",
             "--report", str(tmp_path / "report.json")]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["exit_code"] == 0
        assert report["certifications"][0]["provenance"] == "fresh"

    def test_certify_exit_one_on_violation(self, capsys):
        assert cli_main(["certify", "--catalog", "unprotected-ipoptions",
                         "--lengths", "24"]) == 1

    def test_certify_exit_two_on_unknown(self, capsys):
        assert cli_main(["certify", "--catalog", "synthetic:4x3", "--lengths", "12",
                         "--max-paths", "4", "--merge", "off"]) == 2

    def test_certify_exit_sixtyfour_on_usage_error(self, capsys):
        assert cli_main(["certify", "--catalog", "no-such-spec"]) == 64
        assert cli_main(["certify"]) == 64
        assert cli_main(["no-such-command"]) == 64

    def test_certify_delta_flow_and_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        common = ["--lengths", "24", "--store", str(tmp_path / "s"),
                  "--verdict-store", str(tmp_path / "v")]
        assert cli_main(["certify", "--catalog", "fleet:2", *common,
                         "--emit-manifest", str(manifest_path)]) == 0
        capsys.readouterr()  # drain the first run's human output
        code = cli_main(["certify", "--catalog", "fleet:2", *common,
                         "--baseline", str(manifest_path), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["statistics"]["verdicts_reused"] == 2
        assert all(c["provenance"] == "delta-reused" for c in document["certifications"])

    def test_certify_text_output_shows_instruction_bounds(self, capsys):
        command = ["certify", "--catalog", "fleet:2", "--lengths", "24",
                   "--instruction-bounds"]
        assert cli_main([*command, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        bounds = [c["instruction_bound"]["bound"] for c in document["certifications"]]
        assert len(bounds) == 2 and None not in bounds
        assert cli_main(command) == 0
        text = capsys.readouterr().out
        shown = re.findall(r"instruction bound: (\S+)", text)
        assert shown == [str(bound) for bound in bounds]

    def test_certify_reports_where_the_work_ran(self, four_cpus, capsys):
        command = ["certify", "--catalog", "scale:4", "--lengths", "24"]
        assert cli_main([*command, "--workers", "2", "--json"]) == 0
        scheduler = json.loads(capsys.readouterr().out)["scheduler"]
        assert scheduler["workers"] == 2 and scheduler["pools_forked"] == 1
        assert scheduler["tasks_dispatched"] == scheduler["summary_tasks"] > 0
        assert scheduler["tasks_inline"] == scheduler["verify_tasks"] == 4
        assert cli_main([*command, "--workers", "2"]) == 0
        shown = re.findall(r"^scheduler  : (.*)$", capsys.readouterr().out, re.MULTILINE)
        assert shown == [
            f"{scheduler['tasks_dispatched']} tasks in workers, 4 inline; "
            "pools forked 1, retries 0"
        ]
        # One worker: the parent ran every task, and nothing forked.
        assert cli_main([*command, "--json"]) == 0
        scheduler = json.loads(capsys.readouterr().out)["scheduler"]
        assert scheduler["workers"] == 1 and scheduler["pools_forked"] == 0
        assert scheduler["tasks_dispatched"] == 0 and scheduler["verify_tasks"] == 4
        inline = scheduler["summary_tasks"] + scheduler["verify_tasks"]
        assert scheduler["tasks_inline"] == inline
        assert cli_main(command) == 0
        shown = re.findall(r"^scheduler  : (.*)$", capsys.readouterr().out, re.MULTILINE)
        assert shown == [f"0 tasks in workers, {inline} inline; pools forked 0, retries 0"]

    def test_scale_spec_builds_the_store_scale_catalog(self):
        built = parse_catalog(["scale:7"])
        assert [p.name for p in built] == [p.name for p in store_scale_catalog(7)]
        assert [len(p.elements) for p in built] == [len(p.elements) for p in store_scale_catalog(7)]
        assert "scale:N" in CATALOG_SPECS
        for bad in ("scale:0", "scale:x", "scale"):
            with pytest.raises(SpecError):
                parse_catalog([bad])

    def test_diff_exit_codes(self, capsys):
        assert cli_main(["diff", "fleet:2", "fleet:2"]) == 0
        assert cli_main(["diff", "fleet:2", "churn:routes:2"]) == 1

    def test_churn_spec_accepts_target_zero(self, capsys):
        # Catalog indices are 0-based; the first slot must be reachable.
        assert cli_main(["diff", "fleet:2", "churn:routes:2:0"]) == 1

    def test_diff_reads_manifest_files(self, tmp_path, capsys):
        manifest_path = tmp_path / "old.json"
        manifest_path.write_text(json.dumps(catalog_manifest(fleet_catalog(2))))
        assert cli_main(["diff", str(manifest_path), "fleet:2"]) == 0

    def test_store_gc_and_stats(self, tmp_path, capsys):
        store_dir = tmp_path / "s"
        assert cli_main(["certify", "--catalog", "ip-router:1", "--lengths", "24",
                         "--store", str(store_dir)]) == 0
        assert cli_main(["store", "stats", "--store", str(store_dir)]) == 0
        assert "entries" in capsys.readouterr().out
        assert cli_main(["store", "gc", "--store", str(store_dir),
                         "--older-than-days", "0"]) == 0
        assert len(SummaryStore(store_dir)) == 0
        assert cli_main(["store", "gc"]) == 64  # no store given


class TestBenchCompareCli:
    @staticmethod
    def _write_current(directory, value=1.0):
        (directory / "BENCH_demo.json").write_text(
            json.dumps({"bench": "demo", "results": {"seconds": value, "count": 0}})
        )

    @staticmethod
    def _write_baseline(directory, seconds=1.0):
        baselines = directory / "baselines"
        baselines.mkdir(exist_ok=True)
        (baselines / "demo.json").write_text(
            json.dumps({
                "bench": "demo",
                "metrics": {
                    "seconds": {"value": seconds, "direction": "lower"},
                    "count": {"value": 0, "direction": "lower", "tolerance": 0},
                },
            })
        )
        return baselines

    def test_within_tolerance_passes(self, tmp_path, capsys):
        self._write_current(tmp_path)
        baselines = self._write_baseline(tmp_path, seconds=0.9)
        assert cli_main(["bench-compare", "--baseline", str(baselines),
                         "--current", str(tmp_path), "--tolerance", "0.35"]) == 0

    def test_inflated_baseline_fails_the_gate(self, tmp_path, capsys):
        # The acceptance check: synthetically inflate expectations (a much
        # faster claimed baseline) and the gate must exit non-zero.
        self._write_current(tmp_path, value=1.0)
        baselines = self._write_baseline(tmp_path, seconds=0.1)
        assert cli_main(["bench-compare", "--baseline", str(baselines),
                         "--current", str(tmp_path), "--tolerance", "0.35"]) != 0

    def test_missing_bench_file_fails_the_gate(self, tmp_path, capsys):
        baselines = self._write_baseline(tmp_path)
        assert cli_main(["bench-compare", "--baseline", str(baselines),
                         "--current", str(tmp_path / "empty")]) == 1

    def test_missing_metric_fails_the_gate(self, tmp_path, capsys):
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps({"bench": "demo", "results": {"other": 1}})
        )
        baselines = self._write_baseline(tmp_path)
        assert cli_main(["bench-compare", "--baseline", str(baselines),
                         "--current", str(tmp_path)]) == 1

    def test_json_output(self, tmp_path, capsys):
        self._write_current(tmp_path)
        baselines = self._write_baseline(tmp_path)
        assert cli_main(["bench-compare", "--baseline", str(baselines),
                         "--current", str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert len(document["checks"]) == 2
