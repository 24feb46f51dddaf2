"""repro — reproduction of "Toward a Verifiable Software Dataplane" (HotNets 2013).

The package bundles the layers:

* :mod:`repro.smt` — a from-scratch QF_BV constraint solver,
* :mod:`repro.ir` / :mod:`repro.dataplane` — a Click-like software
  dataplane whose elements are written in a small packet-processing IR,
* :mod:`repro.symbex` — a symbolic execution engine over that IR,
* :mod:`repro.verify` — the paper's contribution: decomposed, two-step
  pipeline verification (plus the monolithic whole-pipeline baseline),
* :mod:`repro.orchestrator` — fleet-scale certification: a persistent
  content-addressed summary store plus multiprocessing workers that
  spread Step 1 and Step 2 across cores with deterministic merging.

See README.md for a quickstart and DESIGN.md / EXPERIMENTS.md for the
experiment-by-experiment reproduction notes.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
