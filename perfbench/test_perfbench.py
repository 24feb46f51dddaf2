"""The benchmark's own tests: quick-size runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

They check the known-answer table, the failure accounting, the ledger
(self times plus ``unattributed_s`` equal the traced wall; wrapper call
counts equal the program's own counters), that every program counter
repeats exactly across two runs with one seed, each in a fresh process as
the benchmark runs, and that the churn mix's costly kind is the one that
re-runs symbex.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import catalogs, run  # noqa: E402

#: Catalog sizes small enough for a test, large enough for every change kind.
QUICK_SIZE = {"fleet_serial": 6, "churn_serial": 6, "scale_parallel": 60}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, work, trace):
    return run.run_workload(workload, 7, 0.0, trace, work, units=2, size=QUICK_SIZE[workload])


def test_every_template_has_a_known_answer_with_a_reason():
    templates = set(catalogs.TEMPLATES) | {"store-scale"}
    assert set(catalogs.EXPECTED) == templates
    for rows in catalogs.EXPECTED.values():
        assert set(rows) == {catalogs.CRASH, catalogs.REACH}
        for verdict, reason in rows.values():
            assert verdict in ("proved", "violated") and reason


def test_unchanged_specs_rebuild_the_fleet_catalog():
    from repro.dataplane.fingerprint import pipeline_fingerprint
    from repro.workloads import fleet_catalog

    stream = catalogs.ChurnStream(seed=0, count=12)
    assert [pipeline_fingerprint(p, True) for p in stream.catalog()] == [
        pipeline_fingerprint(p, True) for p in fleet_catalog(12)
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_is_correct_and_reports_every_end_to_end_metric(workload, tmp_path):
    outcome = _run(workload, tmp_path, trace=False)
    result = outcome["result"]
    assert result["correct"], outcome["details"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def _run_in_fresh_process(workload, work):
    """A quick traced run in a new interpreter, as the benchmark runs.

    Interned terms outlive a run and keep their memoised simplification,
    so a second run in the same process calls ``mk_term`` less often.
    """
    code = (
        "import json; from pathlib import Path; from perfbench import run; "
        f"print(json.dumps(run.run_workload({workload!r}, 7, 0.0, True, Path({str(work)!r}), "
        f"units=2, size={QUICK_SIZE[workload]})))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_exactly_and_the_ledger_balances(workload, tmp_path):
    first = _run_in_fresh_process(workload, tmp_path / "first")
    second = _run_in_fresh_process(workload, tmp_path / "second")
    for outcome in (first, second):
        assert outcome["result"]["correct"], outcome["details"]["problems"]
    # Every program counter and every wrapper call count, summed over the
    # run, repeats exactly: summaries computed, solver checks, SAT-core
    # calls, paths, query-cache hits, store puts, scheduler tasks.
    assert first["details"]["counters"] == second["details"]["counters"]
    assert first["details"]["ledger_counts"] == second["details"]["ledger_counts"]
    metrics = {name: value["value"] for name, value in first["result"]["metrics"].items()}
    assert set(metrics) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    self_times = sum(metrics[name] for name in run.SELF_TIME_METRICS.values())
    traced = metrics["trace.wall_s"] + metrics["trace.worker_wall_s"]
    assert self_times == pytest.approx(traced, rel=1e-9)


def test_ledger_check_catches_a_missed_binding(tmp_path):
    outcome = run.Run("fleet_serial", 7, tmp_path, trace=True)
    outcome.ledger.counts["smt.satcore.calls"] = 3
    outcome.traced_report_stats["sat_core_calls"] = 4
    assert any("sat_core_calls" in problem for problem in run.ledger_check(outcome))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.xfail(
    strict=True,
    reason="verdict records are keyed by name-normalised fingerprints, but a reachability "
    "property's exempt_elements names elements: renaming them reuses a stale verdict",
)
def test_churn_store_key_check_with_exempt_elements(tmp_path):
    """The churn workload's delta-versus-cold check under the fleet benches' exempt set.

    Renaming router-2's elements takes ``check_ip`` and ``lookup`` out of
    the set, so a cold pass finds the drop that the delta path, reusing
    the verdict stored for the old names, does not.  The workloads certify
    reachability with no exempt elements, where verdicts do not depend on
    names, so this is the only place the check meets that defect.
    """
    from repro.verify import CrashFreedom, destination_reachability

    bench = run.Run("churn_serial", 7, tmp_path, trace=False)
    bench.props = [
        CrashFreedom(),
        destination_reachability(
            catalogs.DESTINATION, exempt_elements={"check_ip", "gw_check", "dec_ttl", "lookup"}
        ),
    ]
    bench.timings = run.Timings(cores=1)
    churn = run.ChurnSerial(bench, size=6, changes=1)
    stream = churn.stream

    def rename_router_2():
        stream.specs[0] = dataclasses.replace(stream.specs[0], rename=1)
        return "rename"

    stream.step = rename_router_2
    try:
        churn()
    finally:
        bench.timings.close()
    assert [problem for problem in bench.outcome.problems if "!= cold" in problem] == []


def test_options_changes_are_the_symbex_heavy_mode(tmp_path):
    """The churn mix's two modes.  An ``options`` change symbolically executes
    IPOptions afresh; its slice questions, answered by the warm query cache,
    number over ten times those of any other change, a route edit included
    (path and solver-check counts cannot tell them apart: they also count
    stored summaries a re-verified router-4 reuses)."""
    from repro.orchestrator import recertify

    stream = catalogs.ChurnStream(seed=3, count=6)
    stores = dict(
        store=str(tmp_path / "s"), verdict_store=str(tmp_path / "v"),
        query_store=str(tmp_path / "q"),
    )
    props = catalogs.properties()
    manifest = recertify(stream.catalog(), props, input_lengths=[24], **stores).manifest
    questions = {}
    for _ in range(catalogs.DECK_SIZE):
        kind = stream.step()
        result = recertify(
            stream.catalog(), props, baseline=manifest, input_lengths=[24], **stores
        )
        manifest = result.manifest
        assert catalogs.verdict_mismatches(result.report) == []
        questions.setdefault(kind, []).append(result.report.statistics.qcache_hits)
    assert set(questions) == set(catalogs.CHANGE_MIX)
    costly = questions.pop("options")
    assert min(costly) > 10 * max(count for counts in questions.values() for count in counts)
