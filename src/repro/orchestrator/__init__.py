"""``repro.orchestrator`` — fleet-scale verification on top of the two-step verifier.

The sixth architectural layer:

* stable DAG serialization for hash-consed summaries (:mod:`serialize`);
* content-addressed on-disk stores shared across processes and runs.
  Every tier is a subclass of :class:`Store`, which keeps one SQLite
  database per root (:mod:`store`; :mod:`backends` keeps each process's
  shared connections).  The tiers hold Step-1 summaries and solver-query
  answers (:mod:`store`), per-pipeline certification records
  (:mod:`verdicts`) and the scheduler's risk history (:mod:`risk`);
* the persistent worker pool that runs wide fleets (:mod:`scheduler`,
  with task bodies in :mod:`workers`);
* the batch certification API (:mod:`fleet`);
* the change-impact engine that makes re-certification proportional to
  a configuration diff (:mod:`impact`).

Typical usage::

    from repro.orchestrator import SummaryStore, VerdictStore, certify_fleet
    from repro.verify import CrashFreedom

    store = SummaryStore("~/.cache/repro-summaries")
    verdicts = VerdictStore("~/.cache/repro-verdicts")
    report = certify_fleet(
        catalog, [CrashFreedom()], workers=4, store=store, verdict_store=verdicts
    )
    print(report.summary())   # unchanged pipelines: delta-reused, zero work
"""

from .errors import OrchestratorError, SerializationError, StoreError
from .fleet import (
    DELTA_REUSED,
    FRESH,
    FleetReport,
    FleetStatistics,
    PipelineCertification,
    certify_fleet,
)
from .impact import (
    MANIFEST_VERSION,
    CatalogImpact,
    PipelineImpact,
    RecertificationReport,
    catalog_manifest,
    diff_catalogs,
    diff_manifests,
    recertify,
)
from .risk import RISK_VERSION, RiskHistory, RiskProfile, RiskStore, risk_key
from .scheduler import (
    JobGraph,
    PersistentPool,
    ScheduledRun,
    SchedulerStatistics,
    pipeline_ranks,
    run_scheduled,
)
from .serialize import (
    FORMAT_VERSION,
    TermLoader,
    TermTable,
    decode_terms,
    dumps_summary,
    encode_terms,
    loads_summary,
    summary_from_payload,
    summary_to_payload,
)
from .store import (
    SQLITE_FILENAME,
    STORE_SCHEMA_VERSION,
    GcResult,
    QueryStore,
    Store,
    StoreStatistics,
    SummaryStore,
    program_fingerprint,
    summary_key,
)
from .verdicts import (
    RECORD_VERSION,
    VerdictStore,
    element_slots,
    property_fingerprint,
    property_set_fingerprint,
    verdict_key,
)

__all__ = [
    "DELTA_REUSED",
    "FORMAT_VERSION",
    "FRESH",
    "MANIFEST_VERSION",
    "RECORD_VERSION",
    "RISK_VERSION",
    "SQLITE_FILENAME",
    "STORE_SCHEMA_VERSION",
    "CatalogImpact",
    "FleetReport",
    "FleetStatistics",
    "GcResult",
    "JobGraph",
    "OrchestratorError",
    "PersistentPool",
    "PipelineCertification",
    "PipelineImpact",
    "QueryStore",
    "RecertificationReport",
    "RiskHistory",
    "RiskProfile",
    "RiskStore",
    "ScheduledRun",
    "SchedulerStatistics",
    "SerializationError",
    "Store",
    "StoreError",
    "StoreStatistics",
    "SummaryStore",
    "TermLoader",
    "TermTable",
    "VerdictStore",
    "catalog_manifest",
    "certify_fleet",
    "decode_terms",
    "diff_catalogs",
    "diff_manifests",
    "dumps_summary",
    "element_slots",
    "encode_terms",
    "loads_summary",
    "pipeline_ranks",
    "program_fingerprint",
    "property_fingerprint",
    "property_set_fingerprint",
    "recertify",
    "risk_key",
    "run_scheduled",
    "summary_from_payload",
    "summary_key",
    "summary_to_payload",
    "verdict_key",
]
