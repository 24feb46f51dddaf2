"""The pipeline catalogue used by examples, tests and benchmarks.

``ip_router_pipeline`` is the reproduction of the paper's evaluation
target: pipelines that "combine elements from the default Click IP-Router
configuration (Classifier, EthEncap/EthDecap, CheckIPhdr, IPlookup,
DecTTL, IP options)".  ``synthetic_pipeline`` builds the parameterised
branchy pipelines behind the path-scaling experiment (E6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..dataplane.element import Element
from ..dataplane.elements import (
    CheckIPHeader,
    Classifier,
    DecIPTTL,
    Discard,
    EthDecap,
    EthEncap,
    IPLookup,
    IPOptions,
    NAT,
    NetFlow,
)
from ..dataplane.pipeline import Pipeline
from ..ir.builder import ProgramBuilder
from ..ir.program import ElementProgram


DEFAULT_ROUTES: Tuple[Tuple[str, int], ...] = (
    ("10.0.0.0/8", 0),
    ("192.168.0.0/16", 0),
    ("0.0.0.0/0", 0),
)


def ip_router_elements(
    length: int = 6,
    verify_checksum: bool = False,
    max_options: int = 8,
    routes: Sequence[Tuple[str, int]] = DEFAULT_ROUTES,
) -> List[Element]:
    """The first ``length`` elements of the IP-router chain (IP header at offset 0).

    The full chain (length 6) is CheckIPHeader -> IPLookup -> DecIPTTL ->
    IPOptions -> NetFlow -> NAT; the paper's "pipelines of increasing
    length" experiments slice prefixes of it.
    """
    chain: List[Element] = [
        CheckIPHeader(name="check_ip", verify_checksum=verify_checksum),
        IPLookup(list(routes), name="lookup"),
        DecIPTTL(name="dec_ttl"),
        IPOptions(name="ip_options", max_options=max_options),
        NetFlow(name="netflow"),
        NAT(name="nat"),
    ]
    if not 1 <= length <= len(chain):
        raise ValueError(f"ip_router_elements supports lengths 1..{len(chain)}, got {length}")
    return chain[:length]


def ip_router_pipeline(
    length: int = 4,
    verify_checksum: bool = False,
    max_options: int = 8,
    routes: Sequence[Tuple[str, int]] = DEFAULT_ROUTES,
    with_ethernet: bool = False,
    name: Optional[str] = None,
) -> Pipeline:
    """A linear IP-router pipeline of the requested length.

    With ``with_ethernet`` the pipeline is wrapped in Classifier ->
    EthDecap at the front and EthEncap at the back (packets then enter
    with their Ethernet header in place); non-IPv4 traffic goes to a
    Discard sink, as in the Click IP-router configuration.
    """
    core = ip_router_elements(
        length, verify_checksum=verify_checksum, max_options=max_options, routes=routes
    )
    pipeline_name = name or f"ip-router-{length}{'-eth' if with_ethernet else ''}"
    if not with_ethernet:
        return Pipeline.chain(core, name=pipeline_name)

    pipeline = Pipeline(name=pipeline_name)
    classifier = Classifier(["12/0800", "-"], name="classify")
    decap = EthDecap(name="eth_decap")
    encap = EthEncap(name="eth_encap")
    sink = Discard(name="non_ip_sink")
    pipeline.connect(classifier, decap, source_port=0)
    pipeline.connect(classifier, sink, source_port=1)
    previous: Element = decap
    for element in core:
        pipeline.connect(previous, element)
        previous = element
    pipeline.connect(previous, encap)
    return pipeline


def nat_gateway_pipeline(
    verify_checksum: bool = False,
    name: str = "nat-gateway",
) -> Pipeline:
    """CheckIPHeader -> NetFlow -> NAT: the stateful-pipeline scenario (E8)."""
    return Pipeline.chain(
        [
            CheckIPHeader(name="gw_check", verify_checksum=verify_checksum),
            NetFlow(name="gw_netflow"),
            NAT(name="gw_nat"),
        ],
        name=name,
    )


class SyntheticBranchyElement(Element):
    """An element with a configurable number of independent branches.

    Each branch inspects one packet byte, giving exactly ``2^branches``
    feasible paths per element — the idealised element of the paper's
    path-counting argument (E6).
    """

    def __init__(self, branches: int = 3, offset: int = 0, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.branches = branches
        self.offset = offset

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description=f"{self.branches} independent branches")
        builder.assign("acc", 0)
        for index in range(self.branches):
            byte = builder.load(self.offset + index, 1)
            with builder.if_(byte > 127):
                builder.assign("acc", builder.reg("acc") + (1 << index))
        builder.set_meta("branch_mask", builder.reg("acc"))
        builder.emit(0)
        return builder.build()


def synthetic_branchy_element(branches: int, offset: int = 0, name: Optional[str] = None) -> Element:
    """Factory for :class:`SyntheticBranchyElement`."""
    return SyntheticBranchyElement(branches=branches, offset=offset, name=name)


def synthetic_pipeline(
    elements: int, branches_per_element: int, name: Optional[str] = None
) -> Pipeline:
    """A chain of ``elements`` synthetic elements with ``branches_per_element`` branches each.

    Each element inspects its *own* packet bytes (disjoint offsets), so the
    per-element branches are independent across the pipeline — the whole
    pipeline genuinely has ``2^(k*n)`` feasible paths, which is the
    configuration behind the paper's path-counting argument.
    """
    chain = [
        SyntheticBranchyElement(
            branches=branches_per_element,
            offset=index * branches_per_element,
            name=f"branchy_{index}",
        )
        for index in range(elements)
    ]
    return Pipeline.chain(chain, name=name or f"synthetic-{elements}x{branches_per_element}")


def fleet_catalog(
    count: int = 8,
    verify_checksum: bool = False,
    routes: Sequence[Tuple[str, int]] = DEFAULT_ROUTES,
    name_prefix: str = "fleet",
) -> List[Pipeline]:
    """A deterministic catalog of ``count`` diverse pipelines for fleet certification.

    The catalog cycles through templates that deliberately *share* element
    configurations — every router variant starts with the same
    CheckIPHeader and IPLookup configuration, the gateways share the
    NetFlow/NAT pair — so the fleet orchestrator's cross-pipeline
    deduplication has real work to do: the number of distinct Step-1 jobs
    grows much slower than the number of pipelines.  Fresh element
    *instances* are built per pipeline (elements own private state and can
    belong to only one pipeline), but their programs and static tables,
    and so their fingerprints, coincide by construction.
    """

    def router(length: int, index: int) -> Pipeline:
        return ip_router_pipeline(
            length=length,
            verify_checksum=verify_checksum,
            routes=routes,
            name=f"{name_prefix}-{index}-router-{length}",
        )

    def gateway(index: int) -> Pipeline:
        return nat_gateway_pipeline(
            verify_checksum=verify_checksum, name=f"{name_prefix}-{index}-nat-gateway"
        )

    def branchy(index: int) -> Pipeline:
        return synthetic_pipeline(3, 2, name=f"{name_prefix}-{index}-synthetic-3x2")

    def monitored_router(index: int) -> Pipeline:
        # Router prefix followed by the gateway's monitoring pair: shares
        # element configurations with both template families.
        elements = ip_router_elements(
            3, verify_checksum=verify_checksum, routes=routes
        ) + [NetFlow(name="edge_netflow"), NAT(name="edge_nat")]
        return Pipeline.chain(elements, name=f"{name_prefix}-{index}-monitored-router")

    templates = [
        lambda index: router(2, index),
        lambda index: router(3, index),
        lambda index: router(4, index),
        gateway,
        branchy,
        monitored_router,
    ]
    return [templates[index % len(templates)](index) for index in range(count)]


def store_scale_catalog(count: int = 1000, name_prefix: str = "scale") -> List[Pipeline]:
    """``count`` *distinct* pipelines built from a tiny shared element pool.

    The store-scaling workload needs the opposite mix from
    :func:`fleet_catalog`: a catalog big enough that per-pipeline store
    traffic (verdict records, fingerprints) dominates, without paying
    ``count`` symbolic executions.  Pipelines are chains over a pool of
    six :class:`SyntheticBranchyElement` configurations — every distinct
    *sequence* of pool configurations is a distinct pipeline fingerprint
    (wiring order is fingerprinted), so the catalog yields ``count``
    verdict-store entries while Step 1 summarizes only the six pool
    configurations.  Enumeration is deterministic (mixed-radix over the
    pool, shortest chains first), so two runs — or two store backends —
    certify byte-identical catalogs.
    """
    pool = [(branches, offset) for branches in (1, 2, 3) for offset in (0, 4)]
    pipelines: List[Pipeline] = []
    chain_length = 2
    code = 0
    while len(pipelines) < count:
        if code >= len(pool) ** chain_length:
            chain_length += 1
            code = 0
            continue
        digits: List[int] = []
        value = code
        for _ in range(chain_length):
            digits.append(value % len(pool))
            value //= len(pool)
        chain = [
            SyntheticBranchyElement(
                branches=pool[digit][0],
                offset=pool[digit][1],
                name=f"pool_b{position}",
            )
            for position, digit in enumerate(digits)
        ]
        pipelines.append(
            Pipeline.chain(chain, name=f"{name_prefix}-{len(pipelines)}")
        )
        code += 1
    return pipelines


def straggler_catalog(
    count: int = 8, straggler_branches: int = 9, name_prefix: str = "straggle"
) -> List[Pipeline]:
    """A catalog with one deliberately slow pipeline in front of quick ones.

    The scheduler workload: pipeline 0 chains a ``straggler_branches``-way
    :class:`SyntheticBranchyElement` (``2^branches`` paths, so its Step-1
    summary dominates the run) ahead of a pool element, and the remaining
    ``count - 1`` pipelines are the quick :func:`store_scale_catalog`
    chains.  The dependency-aware scheduler verifies the quick pipelines
    while the straggler is still summarizing, instead of gating Step 2
    on the whole catalog's Step 1.  Deterministic, like every workload
    catalog.
    """
    if count < 2:
        raise ValueError(f"straggler catalog needs at least 2 pipelines, got {count}")
    straggler = Pipeline.chain(
        [
            SyntheticBranchyElement(
                branches=straggler_branches, offset=0, name="straggler"
            ),
            SyntheticBranchyElement(branches=1, offset=0, name="pool_b1"),
        ],
        name=f"{name_prefix}-heavy",
    )
    quick = store_scale_catalog(count - 1, name_prefix=name_prefix)
    return [straggler] + quick
