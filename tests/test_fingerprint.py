"""Element and pipeline identities: pinned digests and the memos behind them."""

import hashlib
import json
import uuid

import pytest

import repro.dataplane.element as element_module
from repro.dataplane import Element, ElementState, Pipeline, StaticExactTable
from repro.dataplane.fingerprint import (
    canonical_elements,
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
    format version instead of moving these silently).
    """

    def test_catalog_manifests(self):
        assert _manifest_digest(fleet_catalog(6)) == (
            "57087854eb5c9096216a60d96f9825d0f6e7f77e430db0177ba5db109297a248"
        )
        assert _manifest_digest(store_scale_catalog(20)) == (
            "8b4cfa442cf36d3208ebaa8628ee0141508dd0f9e235d66062427dc9c219af98"
        )

    def test_summary_keys_of_each_distinct_configuration(self):
        keys = {}
        for pipeline in fleet_catalog(6):
            for element in pipeline.elements:
                key = summary_key(element, 24, SymbexOptions())
                keys.setdefault(key, f"{pipeline.name}/{element.name}")
        assert {where: key for key, where in keys.items()} == {
            "fleet-0-router-2/check_ip":
                "ba3659208a74dde5dc182282a2b43185fdb092db3a9b6160f6e214499a6d6367",
            "fleet-0-router-2/lookup":
                "9376d1b213f6a0329f571748a328164fa5b8e3f779267353bf716ef294e9a67c",
            "fleet-1-router-3/dec_ttl":
                "c518cdb72b6b358d9861ee8b81925613618e71b6522b1bf9fae9fa5c24f59c2b",
            "fleet-2-router-4/ip_options":
                "d09070b3458ec20337712455ffcd593aa498612627d2bd48b227b5c24d6e7208",
            "fleet-3-nat-gateway/gw_nat":
                "11e3bd09a20fe994e7a3adaef419cc5af5640a6ebcb1b9066a4b7eb8bd7347d9",
            "fleet-3-nat-gateway/gw_netflow":
                "8152467d6eced169b32d5b8d4d303dacb632c778f21bb9c3a5e7e5fc4dbba9c8",
            "fleet-4-synthetic-3x2/branchy_0":
                "0eeca2c19f67c25c2bb132ce41aeb8b3fe1a1615426093e20d6420a4232bb456",
            "fleet-4-synthetic-3x2/branchy_1":
                "011f1090df521f5d0b8b54ca3f7ccc2738e32fe463210c3d498be03019b5b183",
            "fleet-4-synthetic-3x2/branchy_2":
                "e80bb35366823e3fc1e846e41a59aebf8b42ef873558fb917fd11b76ef525ac8",
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
        assert [e.name for e in canonical_elements(pipeline)] == ["a", "b"]
        assert pipeline_fingerprint(pipeline, False) != before


# -- opaque static tables -------------------------------------------------------------


class _OpaqueTable(StaticExactTable):
    """A static table whose contents the fingerprint cannot see.

    It keeps ``symbolic_read``, so its contents are baked into the summary.
    """

    fingerprint = None


class _OpaqueLookup(Element):
    def __init__(self, table: _OpaqueTable, name=None) -> None:
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
            summary_key(_OpaqueLookup(_OpaqueTable({i: 1})), 24, SymbexOptions())
            for i in range(100)
        }
        assert len(keys) == 100

    def test_one_table_keeps_its_identity(self):
        table = _OpaqueTable({1: 1})
        first, second = _OpaqueLookup(table), _OpaqueLookup(table)
        assert static_table_fingerprints(first) == static_table_fingerprints(second)
        assert static_table_fingerprints(first)["t"].startswith("opaque:_OpaqueTable:")
