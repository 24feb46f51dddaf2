"""Fixtures shared by the tier-1 test modules."""

from contextlib import contextmanager

import pytest

from repro import smt
from repro.smt import backend
from repro.smt.sat import SATSolver
from repro.symbex.engine import SymbolicEngine
from repro.verify.composition import CompositionEngine


@pytest.fixture
def four_cpus(monkeypatch):
    """Lift the fleet layer's worker clamp on single-CPU CI hosts."""
    import repro.orchestrator.fleet as fleet_mod

    monkeypatch.setattr(fleet_mod.os, "cpu_count", lambda: 4)


@pytest.fixture
def all_in_pool(monkeypatch):
    """Send every Step-2 task of a run on two or more workers to the pool.

    On more than one worker the scheduler runs a Step-2 task in the
    parent when no summary its pipeline reaches has a suspect segment
    (``scheduler.has_suspect``).  Answering yes for every summary places
    every task in a worker, as a catalog whose every pipeline composes
    would; a test of the pool's own path (worker stores, decodes,
    crashes, pickling) runs under it.  On one worker every task runs in
    the parent, through the run's summary cache, whatever this answers.
    """
    import repro.orchestrator.scheduler as scheduler_mod

    monkeypatch.setattr(scheduler_mod, "has_suspect", lambda *args: True)


def _counting_memo(monkeypatch, module, name: str, decode, bound: int) -> list:
    """Replace ``module.name`` with an empty decode memo; list every text it decodes."""
    import repro.orchestrator.store as store_mod

    decoded = []

    def counting(text):
        decoded.append(text)
        return decode(text)

    monkeypatch.setattr(module, name, store_mod._DecodeMemo(counting, bound))
    return decoded


@pytest.fixture
def summary_decodes(monkeypatch):
    """Empty the process-wide summary decode memo; list every text decoded from here on.

    The memo outlives a test, so a test that counts decodes starts from
    a fresh one instead of whatever earlier tests left behind.
    """
    import repro.orchestrator.store as store_mod

    return _counting_memo(
        monkeypatch, store_mod, "_decoded_summaries", store_mod.loads_summary,
        store_mod._MAX_DECODED_SUMMARIES,
    )


@pytest.fixture
def record_decodes(monkeypatch):
    """Empty the process-wide verdict-record decode memo; list every text decoded from here on."""
    import repro.orchestrator.verdicts as verdicts_mod

    return _counting_memo(
        monkeypatch, verdicts_mod, "_decoded_records", verdicts_mod._record_from_text,
        verdicts_mod._MAX_DECODED_RECORDS,
    )


def _reference_solver(engine, options) -> smt.Solver:
    """The engine's scratch solver, built on first use with its conflict budget."""
    solver = getattr(engine, "_reference_solver", None)
    if solver is None:
        solver = smt.Solver(max_conflicts=options.solver_max_conflicts)
        engine._reference_solver = solver
    return solver


def _reference_goal(constraints, extra) -> smt.Term:
    return smt.conjoin(list(constraints) + [smt.simplify(term) for term in extra])


def _reference_is_feasible(self, state, *extra):
    """``SymbolicEngine._is_feasible`` decided from nothing by a scratch solver."""
    self.solver_checks += 1
    if not state.constraints and not extra:
        return True
    solver = _reference_solver(self, self.options)
    return solver.check(_reference_goal(state.constraints, extra)) != smt.CheckResult.UNSAT


def _reference_check(self, prefix, *extra):
    """``CompositionEngine.check`` decided from nothing by a scratch solver."""
    self.solver_checks += 1
    solver = _reference_solver(self, self.cache.options)
    status = solver.check(_reference_goal(prefix.constraints, extra))
    return status, solver.model() if status == smt.CheckResult.SAT else None


@pytest.fixture
def scratch_reference():
    """A context manager under which a scratch :class:`repro.smt.Solver` decides
    every Step-1 and Step-2 feasibility question.

    Each engine gets one scratch solver with its own conflict budget,
    which re-solves every conjunction from a fresh CNF: no
    slicing, query cache, feasibility memo or persistent context.  Run a
    workload once as is and once inside the context, and compare: the
    production solve path must agree with this reference.
    """

    @contextmanager
    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SymbolicEngine, "_is_feasible", _reference_is_feasible)
            patch.setattr(CompositionEngine, "check", _reference_check)
            yield

    return reference


@pytest.fixture(scope="session")
def reference_core():
    """A context manager under which every CDCL core is the reference
    :class:`repro.smt.sat.SATSolver`.

    It replaces :func:`repro.smt.backend.new_sat_core`, the one place
    production builds its core, so persistent contexts and scratch
    solvers built inside the context search with the clarity-first core
    instead of the flat-arena one.  Run a workload once as is and once
    inside the context, and compare.  The fixture holds no state, so
    hypothesis tests may take it too.
    """

    @contextmanager
    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend, "new_sat_core", SATSolver)
            yield

    return reference
