#!/usr/bin/env python3
"""The paper's app-store use case, at fleet scale: certify third-party
elements against a *catalog* of deployment pipelines before rollout.

§2 "Use Cases" imagines an operator downloading a new packet-processing
element and a certification tool checking what it would do to the
operator's existing pipeline.  A real operator runs many pipeline
variants, so this example certifies each candidate against every variant
in one batch using the fleet orchestrator:

* a well-behaved third-party element (a DSCP remarker) is certified on
  every variant: the upgraded pipelines stay crash-free and their latency
  (instruction) bounds are reported so the operator can compare;
* a buggy third-party element (reads a header field without checking the
  packet is long enough) is rejected, with the concrete packet that
  triggers the crash as evidence.

The shared :class:`SummaryStore` means the base elements (CheckIPHeader,
IPLookup, ...) are symbolically executed once for the whole catalog — and
not at all on a re-run, which is exactly the paper's "process each element
once" economics extended across pipelines and runs.
"""

import tempfile
from typing import List, Optional

from repro.dataplane import Element, Pipeline
from repro.ir import ElementProgram, ProgramBuilder
from repro.orchestrator import SummaryStore, certify_fleet
from repro.symbex import SymbexOptions
from repro.verify import CrashFreedom
from repro.workloads import ip_router_elements


class DscpRemarker(Element):
    """A well-behaved third-party element: rewrites the DSCP field of IPv4 packets."""

    def __init__(self, dscp: int = 46, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.dscp = dscp & 0x3F

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="rewrite the DSCP code point")
        with builder.if_(builder.packet_length() < 20):
            builder.drop("not an IPv4 packet")
        tos = builder.let("tos", builder.load(1, 1))
        builder.store(1, 1, (tos & 0x03) | (self.dscp << 2))
        builder.emit(0)
        return builder.build()


class BuggyAccelerator(Element):
    """A buggy third-party element: trusts that a transport header is present."""

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="buggy application accelerator")
        vihl = builder.let("vihl", builder.load(0, 1))
        hlen = builder.let("hlen", (vihl & 0x0F) * 4)
        # BUG: reads 4 bytes past the IP header without checking the packet length.
        ports = builder.let("ports", builder.load(hlen, 4))
        with builder.if_((ports >> 16) == 80):
            builder.set_meta("http", 1)
        builder.emit(0)
        return builder.build()


def upgraded_catalog(candidate_factory, label: str) -> List[Pipeline]:
    """The operator's pipeline variants, each upgraded with the candidate."""
    catalog = []
    for length in (2, 3):
        base = ip_router_elements(length=length, verify_checksum=False)
        catalog.append(
            Pipeline.chain(
                base + [candidate_factory()], name=f"{label}-after-router-{length}"
            )
        )
    return catalog


def certify(candidate_factory, label: str, store: SummaryStore) -> None:
    print(f"=== certifying {label} against the pipeline catalog ===")
    catalog = upgraded_catalog(candidate_factory, label)
    report = certify_fleet(
        catalog,
        [CrashFreedom()],
        input_lengths=(24,),
        workers=2,
        store=store,
        options=SymbexOptions(max_paths=20_000),
        instruction_bounds=True,
    )
    print(report.summary())
    for certification in report.certifications:
        if certification.certified:
            bound = certification.instruction_bound.bound if certification.instruction_bound else "?"
            print(f"  ACCEPTED on {certification.pipeline_name} — instruction bound {bound}")
        else:
            evidence = [ce for result in certification.results for ce in result.counterexamples]
            if evidence:
                worst = evidence[0]
                print(f"  REJECTED on {certification.pipeline_name} — "
                      f"{worst.violating_element} can crash on packet {worst.packet.hex()} "
                      f"({worst.detail}); replay confirmed: {worst.confirmed_by_replay}")
            else:
                # An unknown verdict (exhausted budget) also blocks rollout.
                verdicts = ", ".join(r.verdict for r in certification.results)
                print(f"  REJECTED on {certification.pipeline_name} — "
                      f"verification did not complete ({verdicts})")
    print()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="appstore-store-") as root:
        # One persistent store across both certifications: the shared base
        # elements are summarized exactly once for the whole session.
        store = SummaryStore(root)
        certify(lambda: DscpRemarker(name="dscp_remarker"), "a well-behaved DSCP remarker", store)
        certify(lambda: BuggyAccelerator(name="buggy_accel"), "a buggy application accelerator", store)
        print(f"store contents: {len(store)} summaries persisted on disk")


if __name__ == "__main__":
    main()
