"""Element and pipeline identities: pinned digests and the memos behind them."""

import hashlib
import json
import uuid

import pytest

import repro.dataplane.element as element_module
from repro.dataplane import Element, ElementState, Pipeline, StaticExactTable
from repro.dataplane.fingerprint import (
    canonical_elements,
    configuration_fingerprint,
    pipeline_fingerprint,
    program_fingerprint,
    static_table_fingerprints,
    wiring_fingerprint,
)
from repro.ir import ElementProgram, ProgramBuilder, ProgramValidationError, validate_program
from repro.ir.exprs import Reg
from repro.ir.stmts import Assign, Emit
from repro.orchestrator import catalog_manifest, summary_key
from repro.symbex import SymbexOptions
from repro.verify import SummaryCache
from repro.workloads import fleet_catalog, store_scale_catalog
from repro.workloads.pipelines import SyntheticBranchyElement


def _manifest_digest(pipelines) -> str:
    return hashlib.sha256(
        json.dumps(catalog_manifest(pipelines), sort_keys=True).encode()
    ).hexdigest()


class TestPinnedDigests:
    """Digests that existing stores and saved manifests are keyed by.

    A change here turns every stored summary, verdict record and saved
    baseline manifest cold, so it must be deliberate (bump the store's
    format version instead of moving these silently).  They moved once on
    purpose when the hand-written configuration key left the element
    fingerprint: an element's identity is now only what symbolic
    execution reads (its program and, in concrete mode, its static-table
    contents), and the manifest layout went to version 2.
    """

    def test_catalog_manifests(self):
        assert _manifest_digest(fleet_catalog(6)) == (
            "3b22a2282838d3d7c998fb8a6dbe892698ae60af00b81354db684c1a7da09ce9"
        )
        assert _manifest_digest(store_scale_catalog(20)) == (
            "5229e5c6012104d4ab19f2ca41e95f88c9218e01edb688b1be9383daa226c0b5"
        )

    def test_summary_keys_of_each_distinct_configuration(self):
        keys = {}
        for pipeline in fleet_catalog(6):
            for element in pipeline.elements:
                key = summary_key(element, 24, SymbexOptions())
                keys.setdefault(key, f"{pipeline.name}/{element.name}")
        assert {where: key for key, where in keys.items()} == {
            "fleet-0-router-2/check_ip":
                "f06b42982e5ff32a9761ce1dfc6240277e87cc8264a9b6120f8818d7e07b69a2",
            "fleet-0-router-2/lookup":
                "70826a5530bf9dadaa9f974cf8c6d2439dc50592688a38bc24172f49ab09ddf5",
            "fleet-1-router-3/dec_ttl":
                "901b9970e001dbea4c7f53c5de69966f817d95d239dccb4cda3809f9b0aa7328",
            "fleet-2-router-4/ip_options":
                "58e98a1bc1e783d64144aef503b01dc09ef07e7515874236ffadf87a5cbf2e98",
            "fleet-3-nat-gateway/gw_nat":
                "85bf16f11408a2cad481bdf779085edd3d61cbf251a9d82132aa40b9cc9b6ae5",
            "fleet-3-nat-gateway/gw_netflow":
                "1ff0c796d59d76ef3a70fad3be946bc6b916834cd19c862d868697d5dbbb32d5",
            "fleet-4-synthetic-3x2/branchy_0":
                "c833721337b37bc7d43c427f289d114cc15c6c70c545e67f440567439b5f39d5",
            "fleet-4-synthetic-3x2/branchy_1":
                "d71b7e522e5af60a0243b59ef8eabdc62cd3825ca963b57be53c3a50c94e85a2",
            "fleet-4-synthetic-3x2/branchy_2":
                "a030ca309e74eb6d003ee578a06d53c425917b2ffaaf8c72ee5fe6e87523eb1b",
        }


# -- memo safety ----------------------------------------------------------------------


class _Tagged(Element):
    """One configuration per ``tag``: a program no other test builds."""

    def __init__(self, tag: int, name=None) -> None:
        super().__init__(name=name)
        self.tag = tag

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name)
        builder.set_meta("tag", self.tag)
        builder.emit(0)
        return builder.build()


class _ReadsUnassigned(Element):
    def build_program(self) -> ElementProgram:
        return ElementProgram(self.name, body=(Assign("x", Reg("never")), Emit(0)))


class TestProgramValidation:
    def test_one_configuration_is_validated_once(self, monkeypatch):
        calls = []

        def counting(program):
            calls.append(program.name)
            return validate_program(program)

        monkeypatch.setattr(element_module, "validate_program", counting)
        tag = uuid.uuid4().int & 0xFFFFFFFF
        first, second = _Tagged(tag, name="first"), _Tagged(tag, name="second")
        assert first.program is not second.program
        assert calls == ["first"]
        assert program_fingerprint(first) == program_fingerprint(second)

    def test_every_instance_of_an_invalid_program_raises(self):
        for _ in range(3):
            element = _ReadsUnassigned()
            for _ in range(2):
                with pytest.raises(ProgramValidationError):
                    element.program


class TestPipelineMemo:
    def test_growing_a_fingerprinted_pipeline_moves_its_identity(self):
        def branchy(offset, name):
            return SyntheticBranchyElement(branches=1, offset=offset, name=name)

        grown = Pipeline.chain([branchy(0, "a"), branchy(4, "b")], name="p")
        before = (
            [e.name for e in canonical_elements(grown)],
            wiring_fingerprint(grown),
            pipeline_fingerprint(grown, True),
        )
        tail = grown.add_element(branchy(8, "c"))
        grown.connect(grown.element("b"), tail)
        fresh = Pipeline.chain([branchy(0, "a"), branchy(4, "b"), branchy(8, "c")], name="p")
        after = (
            [e.name for e in canonical_elements(grown)],
            wiring_fingerprint(grown),
            pipeline_fingerprint(grown, True),
        )
        assert before[0] == ["a", "b"]
        assert after == (
            ["a", "b", "c"], wiring_fingerprint(fresh), pipeline_fingerprint(fresh, True)
        )
        assert after[1] != before[1] and after[2] != before[2]

    def test_added_but_unconnected_element_counts(self):
        pipeline = Pipeline.chain([SyntheticBranchyElement(1, name="a")], name="p")
        before = pipeline_fingerprint(pipeline, False)
        pipeline.add_element(SyntheticBranchyElement(2, name="b"))
        # Both are entry elements now, so they are ordered by configuration
        # fingerprint, not by name or by construction order.
        by_fingerprint = sorted(
            pipeline.elements, key=lambda e: configuration_fingerprint(e, False)
        )
        assert canonical_elements(pipeline) == by_fingerprint
        assert pipeline_fingerprint(pipeline, False) != before


# -- opaque static tables -------------------------------------------------------------


class _OpaqueTable(StaticExactTable):
    """A static table whose contents the fingerprint cannot see.

    It keeps ``symbolic_read``, so its contents are baked into the summary.
    """

    fingerprint = None


class _StaticLookup(Element):
    """Reads one table its program declares static, whatever the table's class."""

    def __init__(self, table, name=None) -> None:
        super().__init__(name=name)
        self.table = table

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name)
        builder.declare_table("t", kind="static")
        _value, found = builder.table_read("t", builder.load(0, 1), "value", "found")
        with builder.if_(found.logical_not()):
            builder.drop("miss")
        builder.emit(0)
        return builder.build()

    def create_state(self) -> ElementState:
        return ElementState({"t": self.table})


class TestOpaqueTables:
    def test_tables_built_one_after_another_never_share_a_key(self):
        # Each element (and its table) is freed before the next is built,
        # so the interpreter may hand the next table the same address.
        keys = {
            summary_key(_StaticLookup(_OpaqueTable({i: 1})), 24, SymbexOptions())
            for i in range(100)
        }
        assert len(keys) == 100

    def test_one_table_keeps_its_identity(self):
        table = _OpaqueTable({1: 1})
        first, second = _StaticLookup(table), _StaticLookup(table)
        assert static_table_fingerprints(first) == static_table_fingerprints(second)
        assert static_table_fingerprints(first)["t"].startswith("opaque:_OpaqueTable:")


class _UndeclaredKindTable(StaticExactTable):
    """A static table class whose ``kind`` does not say it is static."""

    kind = "private"


class TestDeclaredStaticTables:
    def test_the_program_declaration_decides_what_is_fingerprinted(self):
        # The engine reads a table concretely because the program declares
        # it static, so the fingerprint must cover its contents even when
        # the table's class calls itself private.
        concrete, havoc = SymbexOptions(), SymbexOptions(static_table_mode="havoc")
        first = _StaticLookup(_UndeclaredKindTable({1: 1}), name="first")
        second = _StaticLookup(_UndeclaredKindTable({2: 1}), name="second")
        assert summary_key(first, 24, concrete) != summary_key(second, 24, concrete)
        cache = SummaryCache(concrete)
        one, two = cache.summarize(first, 24), cache.summarize(second, 24)
        assert cache.statistics.misses == 2 and cache.statistics.l1_hits == 0
        assert [s.constraint for s in one.segments] != [s.constraint for s in two.segments]
        # Under havoc'd tables nobody reads the contents: one summary serves both.
        assert summary_key(first, 24, havoc) == summary_key(second, 24, havoc)
        shared = SummaryCache(havoc)
        assert shared.summarize(first, 24) is shared.summarize(second, 24)
        assert shared.statistics.misses == 1 and shared.statistics.l1_hits == 1
