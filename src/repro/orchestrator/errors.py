"""Errors raised by the fleet orchestrator layer."""

from __future__ import annotations


class OrchestratorError(Exception):
    """Base class for orchestrator failures."""


class SerializationError(OrchestratorError):
    """A summary or term payload could not be encoded or decoded."""


class StoreError(OrchestratorError):
    """The on-disk summary store could not be read or written."""
