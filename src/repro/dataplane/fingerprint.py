"""Stable identity of an element's verification-relevant configuration.

A Step-1 summary depends on exactly what the symbolic engine reads: the
element's IR program and — in concrete static-table mode — the
*contents* of the tables that program declares static, which are encoded
into the summary terms.  The fingerprints here cover exactly that and
nothing else, so two elements share a summary (in the in-process cache
or the on-disk store) iff symbolic execution would produce the same
result for both.  An element's class, its constructor arguments and its
instance name play no part beyond what they put into the program and
its static tables.

Each identity is computed once:

* the program's structural digest when :attr:`Element.program
  <repro.dataplane.element.Element.program>` builds the program;
* an element's :class:`ElementFingerprintParts` (and so its
  configuration fingerprint) once per instance and static-table flag,
  on the instance;
* a pipeline's canonical element order, wiring digest and per-flag
  fingerprint once per :class:`~repro.dataplane.pipeline.Pipeline`, on
  the pipeline, until ``add_element`` or ``connect`` changes its graph.

So an element's configuration must not change after its first
fingerprint (build a new element instead), and a pipeline may change
only through ``Pipeline.add_element`` and ``Pipeline.connect``.
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping

from .element import Element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports element)
    from .pipeline import Pipeline

_PARTS_ATTRIBUTE = "_fingerprint_parts"
_OPAQUE_ATTRIBUTE = "_opaque_fingerprint"


def program_fingerprint(element: Element) -> str:
    """A stable structural fingerprint of an element's IR program.

    Two elements get the same fingerprint iff their programs are
    structurally identical (statements, expressions, table declarations,
    port count) — instance names play no part.  The digest was fixed when
    the element built its program (:func:`repro.ir.program.structural_digest`).
    """
    return element.program_digest


def _opaque_fingerprint(table) -> str:
    """An identity for a static table that cannot fingerprint its contents.

    A random token, kept on the table for its lifetime, so no other
    table — in this process, another, or one that reuses its memory once
    it is freed — ever shares it.  A table that cannot hold the token
    gets a new one on each call.
    """
    token = getattr(table, _OPAQUE_ATTRIBUTE, None)
    if token is None:
        token = f"opaque:{type(table).__qualname__}:{uuid.uuid4().hex}"
        try:
            setattr(table, _OPAQUE_ATTRIBUTE, token)
        except (AttributeError, TypeError):
            pass
    return token


def static_table_fingerprints(element: Element) -> Dict[str, str]:
    """Per-table content fingerprints of the element's *static* tables.

    A table counts as static when the element's program declares it
    static, the same test the engine applies before it reads a table
    concretely; what the table object says of itself plays no part.
    Tables advertise their own ``fingerprint()``; an unknown static-table
    type falls back to an identity no other table, process or run can
    share — trading reuse (and diff precision: an opaque table always
    reads as changed) for soundness.  Private tables are havoc'd, so their
    contents are never observed and never fingerprinted.
    """
    declared = element.program.tables
    fingerprints: Dict[str, str] = {}
    for name, table in sorted(element.state.tables().items()):
        declaration = declared.get(name)
        if declaration is None or declaration.kind != "static":
            continue
        fingerprint = getattr(table, "fingerprint", None)
        if callable(fingerprint):
            fingerprints[name] = fingerprint()
        else:
            fingerprints[name] = _opaque_fingerprint(table)
    return fingerprints


def configuration_fingerprint(element: Element, include_static_tables: bool) -> str:
    """The full summary-identity digest of one element configuration.

    ``include_static_tables`` should be True exactly when the engine runs
    in concrete static-table mode; under havoc'd tables the contents are
    unobservable and hashing them would only forfeit reuse.  This is
    :attr:`ElementFingerprintParts.combined` of the memoised parts.
    """
    return element_fingerprint_parts(element, include_static_tables).combined


# -- diffable decomposition (the change-impact engine's raw material) -----------------


@dataclass(frozen=True)
class ElementFingerprintParts:
    """One element's summary identity, decomposed into independently diffable parts.

    :attr:`combined` collapses everything into one digest — perfect for
    cache keys, useless for explaining *what* changed.  The parts keep
    the axes separate, so a differ can tell "the IR program changed" from
    "only the contents of table ``routes`` changed".
    """

    program: str
    #: Per-static-table content fingerprints; empty under havoc'd tables,
    #: where contents are unobservable and deliberately excluded.
    static_tables: Mapping[str, str] = field(default_factory=dict)
    #: Whether table contents participate at all (concrete static-table
    #: mode).  Kept explicit so a table-free element in concrete mode is
    #: not the same identity as in havoc mode.
    includes_static_tables: bool = True
    #: The single digest over all parts (:func:`configuration_fingerprint`).
    combined: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        material = "\x1f".join(
            (
                self.program,
                ";".join(f"{name}={fp}" for name, fp in sorted(self.static_tables.items()))
                if self.includes_static_tables
                else "-",
            )
        )
        object.__setattr__(self, "combined", hashlib.sha256(material.encode()).hexdigest())


def element_fingerprint_parts(
    element: Element, include_static_tables: bool
) -> ElementFingerprintParts:
    """One element's configuration fingerprint, in its diffable parts.

    Computed once per element instance and flag, and kept on the instance.
    """
    memo: Dict[bool, ElementFingerprintParts] = element.__dict__.setdefault(_PARTS_ATTRIBUTE, {})
    parts = memo.get(include_static_tables)
    if parts is None:
        parts = memo[include_static_tables] = ElementFingerprintParts(
            program=program_fingerprint(element),
            static_tables=static_table_fingerprints(element) if include_static_tables else {},
            includes_static_tables=include_static_tables,
        )
    return parts


def canonical_elements(pipeline: "Pipeline") -> List[Element]:
    """Elements in a name-independent canonical order.

    BFS from the entry elements (ordered by configuration fingerprint),
    expanding output ports in ascending order, so a pipeline rebuilt with
    renamed but identically configured and identically wired elements
    enumerates in the same order.  Unreachable elements (none, in a valid
    pipeline) are appended in construction order as a deterministic
    fallback.  Computed once per pipeline graph.
    """
    memo = pipeline._fingerprint_memo
    ordered = memo.get("order")
    if ordered is None:
        ordered = memo["order"] = tuple(_canonical_order(pipeline))
    return list(ordered)


def _canonical_order(pipeline: "Pipeline") -> List[Element]:
    ordered: List[Element] = []
    seen: set = set()
    frontier = pipeline.entry_elements()
    if len(frontier) > 1:
        frontier.sort(
            key=lambda element: configuration_fingerprint(element, include_static_tables=False)
        )
    while frontier:
        element = frontier.pop(0)
        if id(element) in seen:
            continue
        seen.add(id(element))
        ordered.append(element)
        for port in range(element.num_output_ports):
            downstream = pipeline.downstream(element, port)
            if downstream is not None and id(downstream[0]) not in seen:
                frontier.append(downstream[0])
    for element in pipeline.elements:
        if id(element) not in seen:
            seen.add(id(element))
            ordered.append(element)
    return ordered


def wiring_fingerprint(pipeline: "Pipeline") -> str:
    """A structural digest of the pipeline graph, independent of element names.

    Covers which canonical slot connects to which through which ports (and
    each slot's port count) — but *not* the element configurations, so a
    differ can separate "the graph was rewired" from "an element changed
    in place".  Computed once per pipeline graph.
    """
    memo = pipeline._fingerprint_memo
    digest = memo.get("wiring")
    if digest is not None:
        return digest
    ordered = canonical_elements(pipeline)
    slots = {id(element): index for index, element in enumerate(ordered)}
    edges = []
    for element in ordered:
        for port in range(element.num_output_ports):
            downstream = pipeline.downstream(element, port)
            if downstream is not None:
                edges.append(
                    f"{slots[id(element)]}.{port}>{slots[id(downstream[0])]}.{downstream[1]}"
                )
    rendered = "|".join(
        (
            f"slots={len(ordered)}",
            ";".join(f"{index}:{element.num_output_ports}" for index, element in enumerate(ordered)),
            ";".join(sorted(edges)),
        )
    )
    digest = memo["wiring"] = hashlib.sha256(rendered.encode()).hexdigest()
    return digest


def pipeline_fingerprint(pipeline: "Pipeline", include_static_tables: bool) -> str:
    """The full verification identity of one pipeline configuration.

    Two pipelines share a fingerprint iff they are the same graph of the
    same element configurations (and, in concrete static-table mode, the
    same table contents) — names play no part, so a no-op rename keeps the
    fingerprint.  This is the content-address the verdict store keys on:
    any change that could alter a verdict changes the fingerprint.
    Computed once per pipeline graph and flag.
    """
    memo = pipeline._fingerprint_memo
    key = ("fingerprint", include_static_tables)
    digest = memo.get(key)
    if digest is not None:
        return digest
    material = "\x1f".join(
        [wiring_fingerprint(pipeline)]
        + [
            configuration_fingerprint(element, include_static_tables=include_static_tables)
            for element in canonical_elements(pipeline)
        ]
    )
    digest = memo[key] = hashlib.sha256(material.encode()).hexdigest()
    return digest
