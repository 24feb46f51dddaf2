"""The one place production builds its CDCL core.

Every SAT core the solver facades run on — the persistent
:class:`~repro.smt.context.SolverContext` and the scratch
:class:`~repro.smt.solver.Solver` — comes from :func:`new_sat_core`, which
returns the flat-arena :class:`~repro.smt.satcore.ArraySolver`.  Callers
look the function up on this module at call time, so a test that
replaces it here (``monkeypatch.setattr(backend, "new_sat_core", ...)``)
swaps the core under every facade at once: that is how the reference
:class:`~repro.smt.sat.SATSolver` is held against the production path.

Both cores speak one protocol (:class:`SatBackend`): DIMACS integer
literals in, :class:`~repro.smt.sat.SatResult` strings out, a ``model()``
list indexed by variable.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from .satcore import ArraySolver


class SatBackend(Protocol):
    """What the solver facades require of a SAT core."""

    conflicts: int
    decisions: int

    @property
    def num_vars(self) -> int: ...  # noqa: E704 - protocol stub

    @property
    def learned_clause_count(self) -> int: ...  # noqa: E704 - protocol stub

    def reserve(self, num_vars: int) -> None: ...  # noqa: E704 - protocol stub

    def add_clause(self, literals: Sequence[int]) -> bool: ...  # noqa: E704 - protocol stub

    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: Optional[int] = None) -> str: ...  # noqa: E704 - protocol stub

    def model(self) -> List[bool]: ...  # noqa: E704 - protocol stub

    def cancel(self) -> None: ...  # noqa: E704 - protocol stub


def new_sat_core(num_vars: int = 0) -> SatBackend:
    """A fresh CDCL core with room for ``num_vars`` variables."""
    return ArraySolver(num_vars)
