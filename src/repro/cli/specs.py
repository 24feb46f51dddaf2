"""Shell-friendly specs: build catalogs and properties from short strings.

CI jobs and operators address workloads by *spec* instead of writing
Python: ``fleet:8`` is an eight-pipeline catalog, ``churn:routes:8`` the
same catalog with one routing table changed, ``reachability:10.0.0.1``
the paper's destination-reachability property.  Specs are deliberately
tiny — a real deployment would parse its Click configurations instead —
but they make every engine feature reachable from a shell.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dataplane.elements import IPOptions
from ..dataplane.pipeline import Pipeline
from ..verify.properties import (
    BoundedInstructions,
    CrashFreedom,
    Property,
    destination_reachability,
)
from ..workloads import (
    CHURN_MUTATIONS,
    churned_fleet_catalog,
    fleet_catalog,
    ip_router_pipeline,
    nat_gateway_pipeline,
    store_scale_catalog,
    synthetic_pipeline,
)

__all__ = ["CATALOG_SPECS", "PROPERTY_SPECS", "SpecError", "parse_catalog", "parse_properties"]


class SpecError(ValueError):
    """A malformed catalog or property spec (reported as a usage error)."""


#: Spec syntax -> description, for ``--help`` text.
CATALOG_SPECS = {
    "fleet:N": "the deterministic N-pipeline fleet catalog",
    "churn:MUTATION:N[:TARGET]": (
        "fleet:N with one mutation applied; mutations: " + ", ".join(sorted(CHURN_MUTATIONS))
    ),
    "ip-router:LENGTH": "one linear IP-router pipeline of the given length (1-6)",
    "nat-gateway": "the stateful NAT gateway pipeline",
    "scale:N": "N distinct chains over six shared element configurations (the store-scale catalog)",
    "synthetic:ELEMSxBRANCHES": "one synthetic branchy pipeline, e.g. synthetic:3x2",
    "unprotected-ipoptions": "IPOptions with no upstream header check (a known crash violation)",
}

PROPERTY_SPECS = {
    "crash-freedom": "no packet can crash the pipeline",
    "bounded-instructions[:BOUND]": "every packet executes at most BOUND instructions",
    "reachability:DEST_IP[:EXEMPT,...]": (
        "packets to DEST_IP are never dropped, except by the EXEMPT elements"
    ),
}


def _positive_int(text: str, what: str) -> int:
    value = _non_negative_int(text, what)
    if value == 0:
        raise SpecError(f"{what} must be positive, got {value}")
    return value


def _non_negative_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {text!r}") from None
    if value < 0:
        raise SpecError(f"{what} must not be negative, got {value}")
    return value


def parse_catalog(specs: Sequence[str]) -> List[Pipeline]:
    """Build the concatenated catalog described by one or more specs."""
    catalog: List[Pipeline] = []
    for spec in specs:
        catalog.extend(_parse_one_catalog(spec))
    if not catalog:
        raise SpecError("no catalog specified")
    return catalog


def _parse_one_catalog(spec: str) -> List[Pipeline]:
    head, _, rest = spec.partition(":")
    if head == "fleet":
        return fleet_catalog(_positive_int(rest, "fleet catalog size"))
    if head == "churn":
        mutation, _, tail = rest.partition(":")
        if mutation not in CHURN_MUTATIONS:
            raise SpecError(
                f"unknown churn mutation {mutation!r}; choose from {sorted(CHURN_MUTATIONS)}"
            )
        count_text, _, target_text = tail.partition(":")
        count = _positive_int(count_text or "8", "churn catalog size")
        target: Optional[int] = None
        if target_text:
            target = _non_negative_int(target_text, "churn target index")
        return churned_fleet_catalog(count, mutation, target=target)
    if head == "ip-router":
        return [ip_router_pipeline(length=_positive_int(rest, "router length"))]
    if head == "scale":
        return store_scale_catalog(_positive_int(rest, "scale catalog size"))
    if head == "nat-gateway" and not rest:
        return [nat_gateway_pipeline()]
    if head == "synthetic":
        elements_text, _, branches_text = rest.partition("x")
        return [
            synthetic_pipeline(
                _positive_int(elements_text, "synthetic element count"),
                _positive_int(branches_text, "synthetic branch count"),
            )
        ]
    if head == "unprotected-ipoptions" and not rest:
        return [
            Pipeline.chain(
                [IPOptions(name="opts", max_options=8)], name="unprotected-ipoptions"
            )
        ]
    raise SpecError(
        f"unknown catalog spec {spec!r}; known forms: {', '.join(sorted(CATALOG_SPECS))}"
    )


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4 or not all(part.isdigit() and int(part) <= 255 for part in parts):
        raise SpecError(f"{text!r} is not a dotted-quad IPv4 address")
    value = 0
    for part in parts:
        value = (value << 8) | int(part)
    return value


def parse_properties(specs: Sequence[str]) -> List[Property]:
    """Build the property list described by the specs (default: crash freedom)."""
    if not specs:
        return [CrashFreedom()]
    properties: List[Property] = []
    for spec in specs:
        head, _, rest = spec.partition(":")
        if head == "crash-freedom" and not rest:
            properties.append(CrashFreedom())
        elif head == "bounded-instructions":
            properties.append(
                BoundedInstructions(bound=_positive_int(rest or "10000", "instruction bound"))
            )
        elif head == "reachability" and rest:
            address_text, _, exempt_text = rest.partition(":")
            exempt = {name for name in exempt_text.split(",") if name}
            properties.append(
                destination_reachability(_parse_ipv4(address_text), exempt_elements=exempt)
            )
        else:
            raise SpecError(
                f"unknown property spec {spec!r}; known forms: "
                + ", ".join(sorted(PROPERTY_SPECS))
            )
    return properties
