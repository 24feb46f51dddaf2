"""Change-impact analysis: make re-certification proportional to the diff.

The paper's pitch is that decomposed verification is cheap enough to run
*continuously* as configurations evolve.  PR 2 made the unchanged-catalog
case free (warm :class:`SummaryStore`); this module handles the realistic
case — an operator edits one routing table, rewires one pipeline, renames
an element — by computing exactly **what** a change can affect and
re-verifying only that.

The raw material is :mod:`repro.dataplane.fingerprint`'s decomposition:
per-element parts (configuration key, IR program, per-static-table
contents) and per-pipeline wiring/compound digests, all with instance
names normalized out.  A **catalog manifest** snapshots those digests as
a plain-JSON document an operator (or CI job) can keep next to the
configuration; :func:`diff_manifests` compares two snapshots and
classifies every pipeline's changes:

* element program changed / configuration key changed,
* static-table *contents* changed (named per table),
* pipeline wiring changed,
* pipeline (or element) added / removed / renamed.

:func:`recertify` drives :func:`~repro.orchestrator.fleet.certify_fleet`
in delta mode over the new catalog and attaches the classification to
each certification as human-readable impact provenance.  The actual
reuse decision is content-addressed (the verdict store key covers
everything a verdict depends on), so the diff can never *unsoundly* skip
work — it explains the delta, it does not gatekeep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..dataplane.fingerprint import (
    canonical_elements,
    element_fingerprint_parts,
    pipeline_fingerprint,
    wiring_fingerprint,
)
from ..dataplane.pipeline import Pipeline
from ..obs.trace import NullTracer, Tracer
from ..symbex.engine import StaticTableMode, SymbexOptions
from ..verify.properties import Property
from .errors import OrchestratorError
from .fleet import FleetReport, certify_fleet
from .risk import RiskHistory, RiskStore
from .store import QueryStore, SummaryStore
from .verdicts import VerdictStore

__all__ = [
    "MANIFEST_VERSION",
    "CatalogImpact",
    "PipelineImpact",
    "RecertificationReport",
    "catalog_manifest",
    "diff_catalogs",
    "diff_manifests",
    "recertify",
]

#: Bump when the manifest layout changes; a mismatched baseline is rejected
#: loudly (a silently mis-read baseline could hide real impact).
MANIFEST_VERSION = 1


# -- manifests: the diffable snapshot of a catalog ------------------------------------


def catalog_manifest(
    pipelines: Sequence[Pipeline], options: Optional[SymbexOptions] = None
) -> dict:
    """Snapshot a catalog's verification identity as a plain-JSON document.

    The manifest holds, per pipeline, the compound fingerprint (the
    verdict-store address component), the wiring digest, and each
    element's decomposed parts in canonical (name-independent) order —
    everything :func:`diff_manifests` needs to classify a change, nothing
    it does not (no programs, no table contents, just digests).
    """
    options = options or SymbexOptions()
    include_tables = options.static_table_mode == StaticTableMode.CONCRETE
    document: dict = {
        "version": MANIFEST_VERSION,
        "static_table_mode": options.static_table_mode,
        "pipelines": {},
    }
    for pipeline in pipelines:
        if pipeline.name in document["pipelines"]:
            raise OrchestratorError(
                f"catalog has two pipelines named {pipeline.name!r}; "
                "manifests (and delta re-certification) need unique names"
            )
        # Canonical (name-independent) order: the element *sequence* is part
        # of the identity — the differ uses it to spot reconnections that
        # keep both the element set and the abstract graph shape.
        elements = []
        for element in canonical_elements(pipeline):
            parts = element_fingerprint_parts(element, include_static_tables=include_tables)
            elements.append(
                {
                    "name": element.name,
                    "configuration_key": parts.configuration_key,
                    "program": parts.program,
                    "static_tables": dict(parts.static_tables),
                    "combined": parts.combined,
                }
            )
        document["pipelines"][pipeline.name] = {
            "fingerprint": pipeline_fingerprint(pipeline, include_static_tables=include_tables),
            "wiring": wiring_fingerprint(pipeline),
            "elements": elements,
        }
    return document


# -- impact classification ------------------------------------------------------------


@dataclass
class PipelineImpact:
    """Why one pipeline of the new catalog is (or is not) affected."""

    name: str
    impacted: bool
    causes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "impacted": self.impacted, "causes": list(self.causes)}


@dataclass
class CatalogImpact:
    """The classified diff between two catalog manifests."""

    #: One entry per pipeline of the *new* catalog, in catalog order.
    pipelines: List[PipelineImpact] = field(default_factory=list)
    #: Pipelines present in the baseline but gone from the new catalog.
    removed: List[str] = field(default_factory=list)

    @property
    def impacted(self) -> List[PipelineImpact]:
        return [impact for impact in self.pipelines if impact.impacted]

    @property
    def unimpacted(self) -> List[PipelineImpact]:
        return [impact for impact in self.pipelines if not impact.impacted]

    def by_name(self, name: str) -> Optional[PipelineImpact]:
        for impact in self.pipelines:
            if impact.name == name:
                return impact
        return None

    def to_dict(self) -> dict:
        return {
            "pipelines": [impact.to_dict() for impact in self.pipelines],
            "removed": list(self.removed),
        }

    def summary(self) -> str:
        lines = [
            f"impact     : {len(self.impacted)} impacted / "
            f"{len(self.unimpacted)} unimpacted pipelines"
            + (f", {len(self.removed)} removed" if self.removed else "")
        ]
        for impact in self.impacted:
            for cause in impact.causes:
                lines.append(f"  {impact.name}: {cause}")
        for name in self.removed:
            lines.append(f"  {name}: removed from the catalog")
        return "\n".join(lines)


def _check_manifest(manifest: dict, label: str) -> dict:
    if not isinstance(manifest, dict) or "pipelines" not in manifest:
        raise OrchestratorError(f"{label} manifest is not a catalog manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise OrchestratorError(
            f"{label} manifest has version {manifest.get('version')!r}; "
            f"this build reads version {MANIFEST_VERSION}"
        )
    return manifest["pipelines"]


def _diff_tables(name: str, old: dict, new: dict, causes: List[str]) -> None:
    for table in sorted(set(old) | set(new)):
        if table not in old:
            causes.append(f"element {name}: static table {table!r} added")
        elif table not in new:
            causes.append(f"element {name}: static table {table!r} removed")
        elif old[table] != new[table]:
            causes.append(f"element {name}: contents of static table {table!r} changed")


def _diff_elements(old_elements: List[dict], new_elements: List[dict], causes: List[str]) -> None:
    old_by_name = {entry["name"]: entry for entry in old_elements}
    new_by_name = {entry["name"]: entry for entry in new_elements}
    unmatched_old = {
        name: entry for name, entry in old_by_name.items() if name not in new_by_name
    }
    for name, entry in new_by_name.items():
        old_entry = old_by_name.get(name)
        if old_entry is None:
            # Try rename detection: an identically configured leftover.
            renamed_from = next(
                (
                    old_name
                    for old_name, candidate in unmatched_old.items()
                    if candidate["combined"] == entry["combined"]
                ),
                None,
            )
            if renamed_from is not None:
                del unmatched_old[renamed_from]
                causes.append(
                    f"element {renamed_from} renamed to {name} (configuration unchanged)"
                )
            else:
                causes.append(f"element {name} added")
            continue
        if old_entry["combined"] == entry["combined"]:
            continue
        if old_entry["program"] != entry["program"]:
            causes.append(f"element {name}: IR program changed")
        if old_entry["configuration_key"] != entry["configuration_key"]:
            causes.append(f"element {name}: configuration key changed")
        _diff_tables(
            name,
            old_entry.get("static_tables", {}),
            entry.get("static_tables", {}),
            causes,
        )
    for name in unmatched_old:
        causes.append(f"element {name} removed")


def diff_manifests(old_manifest: dict, new_manifest: dict) -> CatalogImpact:
    """Classify what changed between two catalog snapshots.

    Returns one :class:`PipelineImpact` per pipeline of the new catalog:
    unimpacted pipelines have equal compound fingerprints (verdicts are
    reusable by construction); impacted ones carry the per-part causes.
    A baseline taken under a different static-table mode impacts
    everything — the modes observe different facts, so no verdict carries
    over.
    """
    old_pipelines = _check_manifest(old_manifest, "baseline")
    new_pipelines = _check_manifest(new_manifest, "new")
    impact = CatalogImpact()
    mode_changed = old_manifest.get("static_table_mode") != new_manifest.get("static_table_mode")
    for name, entry in new_pipelines.items():
        if mode_changed:
            impact.pipelines.append(
                PipelineImpact(name, True, ["static-table mode changed (full re-verification)"])
            )
            continue
        old_entry = old_pipelines.get(name)
        if old_entry is None:
            impact.pipelines.append(PipelineImpact(name, True, ["pipeline added to the catalog"]))
            continue
        if old_entry["fingerprint"] == entry["fingerprint"]:
            impact.pipelines.append(PipelineImpact(name, False, ["unchanged configuration"]))
            continue
        causes: List[str] = []
        old_sequence = [element["combined"] for element in old_entry["elements"]]
        new_sequence = [element["combined"] for element in entry["elements"]]
        if old_entry["wiring"] != entry["wiring"]:
            causes.append("pipeline wiring changed")
        elif old_sequence != new_sequence and sorted(old_sequence) == sorted(new_sequence):
            # Same element set, same abstract graph shape, different
            # assignment of configurations to graph positions — elements
            # were reconnected in a different order.
            causes.append("pipeline wiring changed (same elements, reconnected)")
        _diff_elements(old_entry["elements"], entry["elements"], causes)
        if not causes:  # fingerprint moved but no part did: be loud, not silent
            causes.append("configuration changed (unclassified)")
        impact.pipelines.append(PipelineImpact(name, True, causes))
    impact.removed = sorted(name for name in old_pipelines if name not in new_pipelines)
    return impact


def diff_catalogs(
    old_pipelines: Sequence[Pipeline],
    new_pipelines: Sequence[Pipeline],
    options: Optional[SymbexOptions] = None,
) -> CatalogImpact:
    """Convenience wrapper: diff two in-memory catalogs."""
    return diff_manifests(
        catalog_manifest(old_pipelines, options), catalog_manifest(new_pipelines, options)
    )


# -- delta re-certification -----------------------------------------------------------


@dataclass
class RecertificationReport:
    """A delta-mode fleet run plus the diff that explains it."""

    report: FleetReport
    impact: Optional[CatalogImpact]
    #: The new catalog's manifest — persist it as the next run's baseline.
    manifest: dict

    def summary(self) -> str:
        parts = []
        if self.impact is not None:
            parts.append(self.impact.summary())
        parts.append(self.report.summary())
        return "\n".join(parts)


def recertify(
    pipelines: Sequence[Pipeline],
    properties: Sequence[Property],
    baseline: Optional[dict] = None,
    input_lengths: Sequence[int] = (64,),
    workers: int = 1,
    store: Optional[SummaryStore] = None,
    verdict_store: Optional[VerdictStore] = None,
    options: Optional[SymbexOptions] = None,
    max_counterexamples: int = 3,
    confirm_by_replay: bool = True,
    instruction_bounds: bool = False,
    query_store: Optional[Union[QueryStore, str]] = None,
    trace: Union[bool, Tracer, NullTracer, None] = None,
    risk_store: Optional[Union[RiskStore, str]] = None,
) -> RecertificationReport:
    """Re-certify a catalog, doing work proportional to what changed.

    ``baseline`` is a previous run's :func:`catalog_manifest`; when given,
    the classified diff is attached to each certification as impact
    provenance.  The reuse decision itself is the verdict store's
    content-addressed lookup (see :func:`certify_fleet`), so running
    without a baseline still reuses every unchanged pipeline — it just
    cannot explain *why* the changed ones changed.  ``query_store``
    persists the solver-level L3 query-cache tier, exactly as in
    :func:`certify_fleet`.

    A ``risk_store`` (path or :class:`~repro.orchestrator.risk.RiskStore`)
    both ranks the run's work on every worker count — pipelines with
    churny or violating history are certified first — and is updated
    from this run's manifest and verdicts, so the history accumulates
    as a side effect of the normal delta workflow.
    """
    options = options or SymbexOptions()
    manifest = catalog_manifest(pipelines, options)
    impact = diff_manifests(baseline, manifest) if baseline is not None else None
    history: Optional[RiskHistory] = None
    if risk_store is not None:
        history = RiskHistory(
            risk_store if isinstance(risk_store, RiskStore) else RiskStore(risk_store)
        )
    report = certify_fleet(
        pipelines,
        properties,
        input_lengths=input_lengths,
        workers=workers,
        store=store,
        options=options,
        max_counterexamples=max_counterexamples,
        confirm_by_replay=confirm_by_replay,
        instruction_bounds=instruction_bounds,
        verdict_store=verdict_store,
        query_store=query_store,
        trace=trace,
        risk_history=history,
    )
    if history is not None:
        # Fold this run back into the history the next run ranks with.
        history.record(manifest, report.verdicts())
    # Manifests reject duplicate names, so the index is one impact per name.
    impacts = {entry.name: entry for entry in impact.pipelines} if impact else {}
    for certification in report.certifications:
        pipeline_impact = impacts.get(certification.pipeline_name)
        if certification.reused:
            certification.impact_causes = (
                list(pipeline_impact.causes) if pipeline_impact else ["unchanged configuration"]
            )
        elif pipeline_impact is not None and pipeline_impact.impacted:
            certification.impact_causes = list(pipeline_impact.causes)
        elif pipeline_impact is not None:
            # Unimpacted but not served from the store: no record existed
            # (first run against this property set / request, or the prior
            # verdict was unknown and deliberately not recorded).
            certification.impact_causes = [
                "unchanged configuration, but no stored verdict for this request"
            ]
        else:
            certification.impact_causes = ["full pass (no baseline manifest)"]
    return RecertificationReport(report=report, impact=impact, manifest=manifest)
