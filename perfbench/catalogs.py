"""Seeded inputs of the three workloads and the verdicts they must produce.

Catalogs come from :mod:`repro.workloads`; this module adds the two
things the program does not have: a cumulative stream of operator
changes (the churn workload) and the table of known answers every
certification is checked against.
"""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.dataplane.elements import NAT, CheckIPHeader, DecIPTTL, IPLookup, IPOptions, NetFlow
from repro.dataplane.pipeline import Pipeline
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import random_routing_table, synthetic_branchy_element
from repro.workloads.pipelines import DEFAULT_ROUTES

#: Every workload certifies this packet length.  At 24 bytes (IHL up to 6)
#: the fleet cold-certifies in about a second; at 28 (two option words in
#: IPOptions' loop) one cold pass takes minutes.
INPUT_LENGTHS = (24,)
DESTINATION = 0x0A000001  # 10.0.0.1

CRASH = "crash"
REACH = "reach"


def properties():
    """``CrashFreedom`` and reachability of 10.0.0.1, both at program defaults."""
    return [CrashFreedom(), destination_reachability(DESTINATION)]


def property_kind(name: str) -> str:
    return CRASH if "crash" in name else REACH


#: template -> property -> (verdict, reason).  With no exempt elements,
#: any element that may drop a packet addressed to 10.0.0.1 violates
#: reachability; CheckIPHeader drops malformed ones (IHL below 5, not IPv4).
EXPECTED: Dict[str, Dict[str, Tuple[str, str]]] = {
    "router-2": {
        CRASH: ("proved", "CheckIPHeader and IPLookup read only checked bytes"),
        REACH: ("violated", "CheckIPHeader drops malformed packets sent to 10.0.0.1"),
    },
    "router-3": {
        CRASH: ("proved", "DecIPTTL follows CheckIPHeader, so its reads are in bounds"),
        REACH: ("violated", "CheckIPHeader drops malformed packets; DecIPTTL expires TTL 0/1"),
    },
    "router-4": {
        CRASH: ("proved", "IPOptions trusts IHL, and CheckIPHeader upstream bounds it"),
        REACH: ("violated", "CheckIPHeader, DecIPTTL and IPOptions (bad options) all drop"),
    },
    "nat-gateway": {
        CRASH: ("proved", "NetFlow and NAT read only the checked header"),
        REACH: ("violated", "CheckIPHeader drops malformed packets sent to 10.0.0.1"),
    },
    "synthetic-3x2": {
        CRASH: ("proved", "branchy elements read fixed in-bounds bytes"),
        REACH: ("proved", "branchy elements emit every packet on port 0, never drop"),
    },
    "monitored-router": {
        CRASH: ("proved", "router prefix plus the gateway pair, all after CheckIPHeader"),
        REACH: ("violated", "CheckIPHeader drops malformed packets sent to 10.0.0.1"),
    },
    "store-scale": {
        CRASH: ("proved", "chains of branchy elements read fixed in-bounds bytes"),
        REACH: ("proved", "branchy elements emit every packet on port 0, never drop"),
    },
}

_TEMPLATE = re.compile(
    r"-(router-[234]|nat-gateway(?:-added)?|synthetic-3x2|monitored-router)$"
)


def template_of(pipeline_name: str) -> str:
    if pipeline_name.startswith("scale-"):
        return "store-scale"
    match = _TEMPLATE.search(pipeline_name)
    if match is None:
        raise ValueError(f"pipeline {pipeline_name!r} matches no template")
    return match.group(1).replace("-added", "")


def verdict_mismatches(report) -> List[str]:
    """Every (pipeline, property) whose verdict is not the known answer."""
    wrong = []
    for pipeline_name, property_name, verdict in report.verdicts():
        expected = EXPECTED[template_of(pipeline_name)][property_kind(property_name)][0]
        if verdict != expected:
            wrong.append(f"{pipeline_name}: {property_name} is {verdict}, expected {expected}")
    return wrong


# -- the churn stream -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Spec:
    """One pipeline of the evolving churn catalog, as its operator sees it."""

    template: str
    name: str
    routes: Tuple[Tuple[str, int], ...] = DEFAULT_ROUTES
    max_options: int = 8
    rewired: bool = False
    rename: int = 0

    def element_name(self, base: str) -> str:
        return f"{base}_r{self.rename}" if self.rename else base


def build(spec: Spec) -> Pipeline:
    """The pipeline a spec describes; an unchanged spec rebuilds the
    ``fleet_catalog`` template exactly (same fingerprint)."""
    n = spec.element_name
    if spec.template.startswith("router-"):
        length = int(spec.template[-1])
        check = CheckIPHeader(name=n("check_ip"), verify_checksum=False)
        lookup = IPLookup(list(spec.routes), name=n("lookup"))
        ttl = DecIPTTL(name=n("dec_ttl"))
        options = IPOptions(name=n("ip_options"), max_options=spec.max_options)
        chain = [check, ttl, lookup, options] if spec.rewired else [check, lookup, ttl, options]
        return Pipeline.chain(chain[:length], name=spec.name)
    if spec.template == "nat-gateway":
        chain = [
            CheckIPHeader(name=n("gw_check"), verify_checksum=False),
            NetFlow(name=n("gw_netflow")),
            NAT(name=n("gw_nat")),
        ]
    elif spec.template == "synthetic-3x2":
        chain = [
            synthetic_branchy_element(2, offset=2 * index, name=n(f"branchy_{index}"))
            for index in range(3)
        ]
    else:
        chain = [
            CheckIPHeader(name=n("check_ip"), verify_checksum=False),
            IPLookup(list(spec.routes), name=n("lookup")),
            DecIPTTL(name=n("dec_ttl")),
            NetFlow(name=n("edge_netflow")),
            NAT(name=n("edge_nat")),
        ]
    return Pipeline.chain(chain, name=spec.name)


TEMPLATES = ("router-2", "router-3", "router-4", "nat-gateway", "synthetic-3x2", "monitored-router")


def fleet_specs(count: int) -> List[Spec]:
    """Specs of ``fleet_catalog(count)``: the same names and templates."""
    return [
        Spec(TEMPLATES[index % 6], f"fleet-{index}-{TEMPLATES[index % 6]}")
        for index in range(count)
    ]


#: The changes of one deck, by kind: each unit of the churn workload deals
#: one deck, shuffled by the seed, so every unit applies exactly this mix.
#: The mix is a design choice of this benchmark, not a model of operators:
#: no public data on the proportions of change kinds is cited.  It is set
#: so the two latency percentiles read two different paths, each away from
#: the boundary between them.  Every ``options`` change sets a
#: ``max_options`` never seen before, so Step 1 re-runs symbex for one
#: IPOptions element (about 0.3-0.5 s); these are a quarter of the
#: changes, so p90 sits in the middle of that costly mode.  The other kinds
#: (10-30 ms: impact, fingerprints, verdict reuse, Step 2 of one pipeline,
#: and for a route edit the summary of one IPLookup table) hold p50, which
#: falls among the route-table edits, the most frequent kind.  A fixed mix
#: per unit keeps the percentiles from moving with the luck of the draw.
#: run.py's details line logs the per-kind medians.
CHANGE_MIX = {
    "routes": 8,
    "options": 5,
    "rename": 3,
    "rewire": 2,
    "add": 1,
    "remove": 1,
}
DECK_SIZE = sum(CHANGE_MIX.values())
#: Templates whose route tables change; route edits cycle through them in
#: seeded order, so a deck edits each one twice.
ROUTED = ("router-2", "router-3", "router-4", "monitored-router")
#: Entries of each new route table (plus the default route).
ROUTE_ENTRIES = 4


class ChurnStream:
    """A seeded, cumulative stream of operator changes over a fleet catalog."""

    def __init__(self, seed: int, count: int) -> None:
        self.rng = random.Random(seed)
        self.specs = fleet_specs(count)
        self.base_mix = Counter(spec.template for spec in self.specs)
        self.added = 0
        #: The last ``max_options`` set; each change sets a new one.
        self.options_bound = 8
        self._kinds: List[str] = []
        self._routed: List[str] = []

    def catalog(self) -> List[Pipeline]:
        return [build(spec) for spec in self.specs]

    def _pick(self, predicate) -> int:
        candidates = [i for i, spec in enumerate(self.specs) if predicate(spec)]
        return self.rng.choice(candidates)

    def _deal(self) -> List[str]:
        """One shuffled deck of change kinds, its add before its remove."""
        deck = [kind for kind, count in CHANGE_MIX.items() for _ in range(count)]
        self.rng.shuffle(deck)
        add, remove = deck.index("add"), deck.index("remove")
        if remove < add:
            deck[add], deck[remove] = "remove", "add"
        return deck

    def step(self) -> str:
        """Apply one change; returns its kind."""
        if not self._kinds:
            self._kinds = self._deal()
        kind = self._kinds.pop(0)
        rng, specs = self.rng, self.specs
        if kind == "routes":
            if not self._routed:
                self._routed = list(ROUTED)
                rng.shuffle(self._routed)
            template = self._routed.pop(0)
            index = self._pick(lambda s: s.template == template)
            # One port: every route (and the default) forwards to the next
            # element, so the verdicts stay the template's.
            table = random_routing_table(ROUTE_ENTRIES, ports=1, seed=rng.randrange(1 << 30))
            specs[index] = dataclasses.replace(specs[index], routes=tuple(table))
        elif kind == "rename":
            index = rng.randrange(len(specs))
            specs[index] = dataclasses.replace(specs[index], rename=specs[index].rename + 1)
        elif kind == "rewire":
            index = self._pick(lambda s: s.template in ("router-3", "router-4"))
            specs[index] = dataclasses.replace(specs[index], rewired=not specs[index].rewired)
        elif kind == "options":
            # A bound never seen before: a new program, so Step 1 re-runs.
            # At length 24 a packet holds at most 4 option bytes, so any
            # bound of 4 or more keeps the router crash-free.
            index = self._pick(lambda s: s.template == "router-4")
            self.options_bound += 1
            specs[index] = dataclasses.replace(specs[index], max_options=self.options_bound)
        elif kind == "add":
            template = rng.choice(TEMPLATES)
            self.added += 1
            specs.append(Spec(template, f"churn-{self.added}-{template}"))
        else:
            # The deck's add came first: removing one pipeline of the template
            # it added restores the base mix, so every deck starts from it.
            mix = Counter(spec.template for spec in specs)
            del specs[self._pick(lambda s: mix[s.template] > self.base_mix[s.template])]
        return kind


# -- the scale workload's deltas ------------------------------------------------------

#: store_scale_catalog's element pool: (branches, offset).
SCALE_POOL = [(branches, offset) for branches in (1, 2, 3) for offset in (0, 4)]


def scale_replacement(rng: random.Random, catalog: Sequence[Pipeline]) -> List[Pipeline]:
    """``catalog`` with one seeded pipeline replaced by a seeded ordering of the pool.

    The chain holds all six pool configurations once, so Step 1 has
    nothing new to summarize and every replacement costs the same Step 2;
    no ``store_scale_catalog`` of up to 1,000 pipelines holds a six-element
    chain, so the fingerprint is new (unless an earlier replacement drew
    the same order) and the verdict is computed.
    """
    index = rng.randrange(len(catalog))
    pool = list(SCALE_POOL)
    rng.shuffle(pool)
    chain = [
        synthetic_branchy_element(branches, offset=offset, name=f"pool_b{position}")
        for position, (branches, offset) in enumerate(pool)
    ]
    replaced = list(catalog)
    replaced[index] = Pipeline.chain(chain, name=f"scale-{index}")
    return replaced
