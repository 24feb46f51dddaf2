"""Churn/verdict history: which pipelines should reach a verdict first?

The ROADMAP's churn-hotspot item (and the O&M hotspot-localization line
of work in PAPERS.md: rank *where* trouble will land from passively
collected history) applied to scheduling: under delta mode almost every
pipeline is served whole from the verdict store, so the interesting
wall-clock question is how fast the few *changed* — and historically
troublesome — pipelines reach a verdict.  The fleet scheduler
(:mod:`repro.orchestrator.scheduler`) answers it by ranking the catalog
with the history this module persists, whenever one is given.

The history is one more :class:`~repro.orchestrator.store.Store` tier
(same database, same decode-or-quarantine path and gc): one entry per
pipeline *name*, keyed by a versioned digest of the name, holding how
often its fingerprint changed between observed runs (churn), how many
property violations it has produced, and how many runs observed it.
Names — not fingerprints — key the history on purpose: churn is a fact
about the *slot* in the catalog ("the edge NAT keeps changing"), and the
fingerprint is exactly what changes.  Profiles are fed from the same
catalog manifests the change-impact engine diffs
(:func:`repro.orchestrator.impact.catalog_manifest`), so ``recertify``
records history as a side effect of the delta workflow.

Scoring is deliberately simple and monotone: violations outweigh churn,
churn outweighs bulk, never-seen pipelines sit between (new code is risk,
but evidence beats novelty).  The ranking only *reorders* work — a wrong
rank costs latency-to-verdict, never a verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..dataplane.pipeline import Pipeline
from .store import Store

__all__ = [
    "RISK_VERSION",
    "RiskHistory",
    "RiskProfile",
    "RiskStore",
    "risk_key",
]

#: Bump when the profile layout changes; a mismatch reads as a miss.
RISK_VERSION = 1


def risk_key(pipeline_name: str) -> str:
    """The store digest for one pipeline's history entry."""
    return hashlib.sha256(f"risk{RISK_VERSION}\x1f{pipeline_name}".encode()).hexdigest()


@dataclass
class RiskProfile:
    """What history knows about one pipeline name."""

    churn: int = 0
    violations: int = 0
    runs: int = 0
    last_fingerprint: str = ""

    def score(self) -> float:
        """Higher = certify earlier.  Violations dominate, then churn."""
        return self.violations * 4.0 + self.churn * 2.0

    def to_dict(self) -> dict:
        return {
            "churn": self.churn,
            "violations": self.violations,
            "runs": self.runs,
            "last_fingerprint": self.last_fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RiskProfile":
        return cls(
            churn=int(payload.get("churn", 0)),
            violations=int(payload.get("violations", 0)),
            runs=int(payload.get("runs", 0)),
            last_fingerprint=str(payload.get("last_fingerprint", "")),
        )


def _profile_from_text(digest: str, text: str) -> RiskProfile:
    payload = json.loads(text)
    if payload.get("version") != RISK_VERSION:
        raise ValueError(f"unsupported risk version {payload.get('version')!r}")
    return RiskProfile.from_dict(payload["profile"])


class RiskStore(Store):
    """Content-addressed persistence for per-pipeline risk profiles."""

    kind = "risk store"

    def load_profiles(self, names: Sequence[str]) -> Dict[str, RiskProfile]:
        """Bulk-load profiles by pipeline name; absent names are omitted."""
        keys = {risk_key(name): name for name in names}
        loaded = self._load_many(list(keys), _profile_from_text)
        return {keys[digest]: profile for digest, profile in loaded.items()}

    def save_profile(self, name: str, profile: RiskProfile) -> None:
        payload = {"version": RISK_VERSION, "name": name, "profile": profile.to_dict()}
        self.write_entry(risk_key(name), json.dumps(payload, separators=(",", ":")))


class RiskHistory:
    """The in-memory view the scheduler ranks with and runs feed.

    Construct it over a :class:`RiskStore` (or a bare directory) and it
    lazily bulk-loads the profiles a catalog needs.  After a run,
    :meth:`record` folds the run's manifest and verdicts back in: a
    fingerprint that moved since the last observation is one unit of
    churn, each violated property is one violation.
    """

    def __init__(self, store: RiskStore) -> None:
        self.store = store if isinstance(store, RiskStore) else RiskStore(store)
        self._profiles: Dict[str, RiskProfile] = {}

    def profile(self, name: str) -> RiskProfile:
        if name not in self._profiles:
            self._profiles.update(self.store.load_profiles([name]))
        return self._profiles.setdefault(name, RiskProfile())

    def preload(self, names: Sequence[str]) -> None:
        missing = [name for name in names if name not in self._profiles]
        if missing:
            self._profiles.update(self.store.load_profiles(missing))
            for name in missing:
                self._profiles.setdefault(name, RiskProfile())

    def rank(self, pipelines: Sequence[Pipeline]) -> List[int]:
        """Catalog indices, most-urgent first (ties break on catalog order).

        Never-observed pipelines score 1.0 — above a long quiet history,
        below anything with real churn or a violation on record.
        """
        names = [pipeline.name for pipeline in pipelines]
        self.preload(names)

        def urgency(index: int) -> float:
            profile = self._profiles[names[index]]
            if profile.runs == 0:
                return 1.0
            return profile.score()

        return sorted(range(len(pipelines)), key=lambda i: (-urgency(i), i))

    def record(
        self,
        manifest: dict,
        verdicts: Sequence[tuple],
        violated: str = "violated",
    ) -> None:
        """Fold one run into the history and persist it.

        ``manifest`` is :func:`repro.orchestrator.impact.catalog_manifest`
        output (name -> fingerprint); ``verdicts`` are the flat
        ``(pipeline, property, verdict)`` rows of
        :meth:`repro.orchestrator.fleet.FleetReport.verdicts`.
        """
        violations: Dict[str, int] = {}
        for pipeline_name, _property_name, verdict in verdicts:
            if verdict == violated:
                violations[pipeline_name] = violations.get(pipeline_name, 0) + 1
        entries = manifest.get("pipelines", {})
        self.preload(list(entries))
        for name, entry in entries.items():
            profile = self._profiles[name]
            fingerprint = entry.get("fingerprint", "")
            if profile.runs > 0 and profile.last_fingerprint != fingerprint:
                profile.churn += 1
            profile.last_fingerprint = fingerprint
            profile.violations += violations.get(name, 0)
            profile.runs += 1
            self.store.save_profile(name, profile)
        self.store.flush()

    def seed(self, name: str, churn: int = 0, violations: int = 0) -> None:
        """Mark a pipeline risky by fiat (tests, operator overrides)."""
        profile = self.profile(name)
        profile.churn += churn
        profile.violations += violations
        profile.runs = max(profile.runs, 1)
        self.store.save_profile(name, profile)
        self.store.flush()
