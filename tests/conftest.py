"""Fixtures shared by the tier-1 test modules."""

import pytest


@pytest.fixture
def four_cpus(monkeypatch):
    """Lift the fleet layer's worker clamp on single-CPU CI hosts."""
    import repro.orchestrator.fleet as fleet_mod

    monkeypatch.setattr(fleet_mod.os, "cpu_count", lambda: 4)
