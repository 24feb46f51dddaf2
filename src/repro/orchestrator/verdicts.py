"""Per-pipeline verdict records: the second store tier, above summaries.

The :class:`~repro.orchestrator.store.SummaryStore` amortizes **Step 1**
across runs — a warm store re-executes nothing symbolically, but Step 2
(suspect composition, solver checks) still runs for every pipeline on
every pass.  The :class:`VerdictStore` amortizes the *whole verification*:
a pipeline's certification against a property set is persisted under a
content address covering everything the verdict depends on, so
re-certifying an unchanged pipeline is one store read — zero symbolic
execution **and** zero solver checks.

Keys are ``pipeline fingerprint x property set``: the pipeline fingerprint
(:func:`repro.dataplane.fingerprint.pipeline_fingerprint`) covers element
programs, static-table contents and wiring with instance names normalized
out, and :func:`property_set_fingerprint` renders the property objects
structurally (dataclass fields, not ``repr`` — function defaults would
otherwise embed memory addresses).  A property that names elements (a
reachability exemption) also pins where each named element sits
(:func:`element_slots`), because the fingerprint cannot see names.  Any
change that could alter a verdict changes the key; a no-op rename does
not.

Records whose verdicts include ``unknown`` are never stored: an unknown is
a budget artifact, not a fact about the pipeline, and a bigger budget on
the next run should get the chance to resolve it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..dataplane.fingerprint import canonical_elements
from ..dataplane.pipeline import Pipeline
from ..symbex.engine import SymbexOptions
from ..verify.properties import Property
from ..verify.report import Verdict
from .store import Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports this module)
    from .fleet import PipelineCertification

__all__ = [
    "RECORD_VERSION",
    "VerdictStore",
    "element_slots",
    "property_fingerprint",
    "property_set_fingerprint",
    "verdict_key",
]

#: Bump when the record layout changes, or when records older code wrote
#: must not be served; a version mismatch reads as a miss.  Version 2: older
#: code could store ``proved`` for a violation its conflict budget left
#: undecided.
RECORD_VERSION = 2


def _render_value(value: object) -> str:
    """A stable structural render of a property (or any of its field values).

    ``repr`` alone is not enough: function-typed fields (reachability
    predicates) repr with their memory address, which would make every
    process compute a different key.  Dataclasses render field-by-field,
    callables by qualified name, containers element-wise; anything else
    falls back to ``repr`` — for objects without a stable repr that yields
    a key no other run can reproduce, trading reuse for soundness.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_render_value(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, types.MethodType):
        # The bound object is part of the identity: two methods of
        # differently configured instances must not collide.
        return (
            f"callable:{getattr(value, '__module__', '?')}.{value.__qualname__}"
            f"[self={_render_value(value.__self__)}]"
        )
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType)):
        # Captured state is part of the identity: a factory-made closure
        # differing only in a captured variable must not collide with its
        # siblings.  Cells holding objects without a stable render yield a
        # key no other run reproduces — lost reuse, never a wrong verdict.
        rendered = f"callable:{getattr(value, '__module__', '?')}.{value.__qualname__}"
        closure = getattr(value, "__closure__", None)
        if closure:
            cells = ",".join(_render_value(cell.cell_contents) for cell in closure)
            rendered += f"[closure={cells}]"
        defaults = getattr(value, "__defaults__", None)
        if defaults:
            rendered += f"[defaults={_render_value(list(defaults))}]"
        return rendered
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_render_value(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render_value(item) for item in value) + "]"
    if isinstance(value, dict):
        rendered = ",".join(
            f"{_render_value(key)}:{_render_value(val)}" for key, val in sorted(value.items())
        )
        return "{" + rendered + "}"
    return repr(value)


def property_fingerprint(target_property: Property) -> str:
    """A stable digest of one property's configuration."""
    material = f"{type(target_property).__qualname__}|{_render_value(target_property)}"
    return hashlib.sha256(material.encode()).hexdigest()


def property_set_fingerprint(properties: Sequence[Property]) -> str:
    """Digest of an ordered property set.

    Order-sensitive on purpose: a record's results list in property order,
    so reordering the set is a (cheap, correct) re-verification rather
    than a remapping puzzle.
    """
    material = "\x1f".join(property_fingerprint(p) for p in properties)
    return hashlib.sha256(material.encode()).hexdigest()


def element_slots(
    pipeline: Pipeline, properties: Sequence[Property]
) -> Dict[str, Optional[int]]:
    """Where each element that some property names sits in ``pipeline``.

    Maps the name to the element's index in
    :func:`~repro.dataplane.fingerprint.canonical_elements` order, or to
    ``None`` when no element has that name.  Empty when no property
    names an element, which skips the canonical walk altogether.
    """
    names = {name for target in properties for name in target.element_names()}
    if not names:
        return {}
    positions = {element.name: index for index, element in enumerate(canonical_elements(pipeline))}
    return {name: positions.get(name) for name in names}


def verdict_key(
    pipeline_fingerprint: str,
    properties: Sequence[Property],
    input_lengths: Sequence[int],
    options: SymbexOptions,
    max_counterexamples: int,
    confirm_by_replay: bool,
    instruction_bounds: bool,
    slots: Optional[Dict[str, Optional[int]]] = None,
    property_set: Optional[str] = None,
) -> str:
    """The store digest for one (pipeline configuration, verification request) pair.

    Covers the request knobs that shape record *content*
    (counterexample budget, replay confirmation, the instruction-bound
    extra) and the summary-shaping engine options, mirroring
    :func:`repro.orchestrator.store.summary_key`.  Path/time budgets are
    excluded: a starved budget yields ``unknown``, and unknown records are
    never stored, so budgets cannot poison the tier — while a stored
    proof obtained under a generous budget stays a proof under any budget.

    ``slots`` is the pipeline's :func:`element_slots` for ``properties``.
    The fingerprint normalizes names out, but a property that names
    elements decides by name, so a rename can change its verdict.  When
    no property names an element the material, and so the key, is the
    same as without this field.

    ``property_set`` is ``property_set_fingerprint(properties)``, for a
    caller that keys many pipelines against one property set and hashes
    it once.
    """
    material = "\x1f".join(
        (
            f"r{RECORD_VERSION}",
            pipeline_fingerprint,
            property_set or property_set_fingerprint(properties),
            ",".join(str(length) for length in input_lengths),
            options.static_table_mode,
            f"conflicts={options.solver_max_conflicts}",
            f"cex={max_counterexamples}",
            f"replay={confirm_by_replay}",
            f"bounds={instruction_bounds}",
        )
        + ((f"slots={json.dumps(sorted(slots.items()))}",) if slots else ())
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _record_from_text(digest: str, text: str) -> "PipelineCertification":
    from .fleet import PipelineCertification  # fleet imports this module

    payload = json.loads(text)
    if payload.get("version") != RECORD_VERSION:
        raise ValueError(f"unsupported record version {payload.get('version')!r}")
    return PipelineCertification.from_dict(payload["certification"])


class VerdictStore(Store):
    """Content-addressed persistence for per-pipeline certification records.

    A record that does not decode, or was written under another
    :data:`RECORD_VERSION`, is quarantined and read as a miss, like an
    entry of any other tier.
    """

    kind = "verdict store"

    def load_record(self, digest: str) -> Optional["PipelineCertification"]:
        """Return the stored certification, or ``None`` on a miss."""
        return self._load(digest, _record_from_text)

    def load_records(self, digests: Sequence[str]) -> dict:
        """Bulk :meth:`load_record`: ``{digest: certification}`` for every hit.

        One chunked query instead of one round trip per pipeline — at
        fleet scale (1,000+ records) the per-call overhead is the warm
        run.
        """
        return self._load_many(digests, _record_from_text)

    def save_record(self, digest: str, certification: "PipelineCertification") -> bool:
        """Persist a certification record; refuses (returns False) on ``unknown``.

        An unknown verdict is a budget artifact: storing it would pin the
        failure and rob a future (possibly better-budgeted) run of the
        chance to resolve it.  An instruction bound the budget left
        unfound (``bound is None``) is refused for the same reason.
        """
        if any(result.verdict == Verdict.UNKNOWN for result in certification.results):
            return False
        bound = certification.instruction_bound
        if bound is not None and bound.bound is None:
            return False
        payload = {"version": RECORD_VERSION, "certification": certification.to_dict()}
        self.write_entry(digest, json.dumps(payload, separators=(",", ":")))
        return True
