"""Stable DAG serialization for hash-consed terms and element summaries.

The solver's terms are hash-consed: structurally equal terms are one
shared instance identified by a process-unique ``uid``.  A summary's
segments share large subterms (the same packet-byte expressions appear in
many path constraints), so serializing each segment independently would
blow the shared DAG up into a tree.  The encoder here walks the DAG in
topological order (:func:`repro.smt.iter_dag`) and emits **each interned
term once**, as a flat node list whose edges are slot indices; segments
then refer to their terms by slot.

Decoding replays the node list through :func:`repro.smt.mk_term`, so every
loaded term is re-interned into the live process: sharing is restored,
structural equality is again an ``is`` check, and the memoized simplifier
and uid-keyed solver caches work on loaded summaries exactly as they do on
freshly computed ones.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .. import smt
from ..smt import Term
from ..symbex.segment import ElementSummary
from .errors import SerializationError

#: Bump when the node or summary layout changes; stored payloads carry the
#: version and the store treats a mismatch as a miss, not an error.
FORMAT_VERSION = 2

#: Sort encoding: booleans are 0, bitvectors are their (positive) width.
_BOOL_SORT = 0


class TermTable:
    """Encoder: assigns each distinct interned term one slot in a node list.

    Nodes are emitted children-first, so ``nodes[i]`` only references slots
    ``< i`` — decoding is a single forward pass.
    """

    def __init__(self) -> None:
        self.nodes: List[list] = []
        self._slots: Dict[int, int] = {}  # term uid -> slot index
        self._seen: set = set()  # threads iter_dag's pruning across ref() calls

    def ref(self, term: Term) -> int:
        """Return the slot of ``term``, emitting any missing DAG nodes first.

        The shared ``seen`` set prunes the walk at subgraphs emitted by
        earlier ``ref`` calls, so encoding a whole summary is one pass
        over its DAG however many segment fields reference it.
        """
        term = smt.intern_term(term)
        slot = self._slots.get(term.uid)
        if slot is not None:
            return slot
        for node in smt.iter_dag([term], seen=self._seen):
            self._slots[node.uid] = len(self.nodes)
            self.nodes.append(self._encode_node(node))
        return self._slots[term.uid]

    def _encode_node(self, term: Term) -> list:
        sort = _BOOL_SORT if term.sort.is_bool() else term.sort.width
        value = term.value
        if isinstance(value, bool):
            # JSON keeps bool/int distinct, but be explicit: booleans travel
            # as 0/1 tagged by the sort so decoding never guesses.
            value = int(value)
        return [
            term.op,
            sort,
            [self._slots[arg.uid] for arg in term.args],
            value,
            term.name,
            list(term.params),
        ]


class TermLoader:
    """Decoder: rebuilds the node list through ``mk_term`` (re-interning)."""

    def __init__(self, nodes: Sequence[Sequence]) -> None:
        self._terms: List[Term] = []
        for index, node in enumerate(nodes):
            try:
                op, sort, args, value, name, params = node
            except ValueError as exc:
                raise SerializationError(f"malformed term node {index}: {node!r}") from exc
            if any(not isinstance(arg, int) or not 0 <= arg < index for arg in args):
                raise SerializationError(f"term node {index} references an invalid slot")
            if op in (smt.Op.BOOL_CONST,):
                decoded_value = bool(value)
            else:
                decoded_value = value
            self._terms.append(
                smt.mk_term(
                    op,
                    tuple(self._terms[arg] for arg in args),
                    smt.BOOL if sort == _BOOL_SORT else smt.bitvec(sort),
                    value=decoded_value,
                    name=name,
                    params=tuple(params),
                )
            )

    def term(self, slot: int) -> Term:
        if not isinstance(slot, int) or not 0 <= slot < len(self._terms):
            raise SerializationError(f"term reference {slot!r} is out of range")
        return self._terms[slot]


def encode_terms(roots: Sequence[Term]) -> dict:
    """Encode a list of terms as ``{"nodes": [...], "roots": [slots...]}``."""
    table = TermTable()
    refs = [table.ref(root) for root in roots]
    return {"version": FORMAT_VERSION, "nodes": table.nodes, "roots": refs}


def decode_terms(payload: dict) -> List[Term]:
    """Decode :func:`encode_terms` output back into (re-interned) terms."""
    if payload.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported term payload version {payload.get('version')!r}")
    loader = TermLoader(payload["nodes"])
    return [loader.term(slot) for slot in payload["roots"]]


def summary_to_payload(summary: ElementSummary) -> dict:
    """Encode an element summary plus its shared term table as one dict."""
    table = TermTable()
    encoded = summary.to_dict(table)
    return {"version": FORMAT_VERSION, "terms": table.nodes, "summary": encoded}


def summary_from_payload(payload: dict) -> ElementSummary:
    """Decode :func:`summary_to_payload` output; terms are re-interned."""
    if payload.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported summary payload version {payload.get('version')!r}"
        )
    loader = TermLoader(payload["terms"])
    return ElementSummary.from_dict(payload["summary"], loader)


def dumps_summary(summary: ElementSummary) -> str:
    """Serialize an element summary to a JSON string."""
    return json.dumps(summary_to_payload(summary), separators=(",", ":"))


def loads_summary(text: str) -> ElementSummary:
    """Deserialize a summary produced by :func:`dumps_summary`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"summary payload is not valid JSON: {exc}") from exc
    return summary_from_payload(payload)
