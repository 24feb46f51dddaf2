"""``python -m repro`` argument parsing and subcommand dispatch.

Five subcommands, one per operational question:

* ``certify`` — is every pipeline in the catalog safe?  Full or delta
  (``--store``/``--verdict-store``/``--baseline``) fleet certification;
  ``--trace`` additionally exports a span trace of where the time went.
* ``diff`` — what would a configuration change affect?  Structural diff
  of two catalogs/manifests, no verification.
* ``bench-compare`` — did performance regress?  Gate ``BENCH_*.json``
  against committed baselines.
* ``trace`` — where did a certification spend its time?  Summarize a
  ``--trace`` export per phase / pipeline / element.
* ``store`` — maintenance (``gc``, ``stats``) for the on-disk tiers.

Exit codes are documented in :mod:`repro.cli`; ``main`` returns them
instead of raising ``SystemExit`` so tests can call it in-process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, NoReturn, Optional, Sequence, Tuple, Union

from ..orchestrator import (
    OrchestratorError,
    QueryStore,
    RiskStore,
    SummaryStore,
    VerdictStore,
    diff_manifests,
    recertify,
)
from ..obs.trace import Tracer, load_trace, summarize_spans
from ..orchestrator.errors import StoreError
from ..symbex.engine import StaticTableMode, SymbexOptions
from ..verify.report import Verdict
from .bench_compare import compare_baselines, format_checks
from .specs import CATALOG_SPECS, PROPERTY_SPECS, SpecError, parse_catalog, parse_properties

__all__ = [
    "EXIT_OK",
    "EXIT_UNKNOWN",
    "EXIT_USAGE",
    "EXIT_VIOLATED",
    "main",
]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    """Raised internally for anything that is the caller's fault."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 64, not 2.

    The default exit code 2 would collide with ``certify``'s "verdict
    unknown" — a CI gate must be able to tell "you typo'd a flag" from
    "the verifier ran out of budget".
    """

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="python -m repro",
        description="Continuous certification of software dataplanes.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "catalog specs:\n"
            + "\n".join(f"  {spec:28} {text}" for spec, text in sorted(CATALOG_SPECS.items()))
            + "\n\nproperty specs:\n"
            + "\n".join(f"  {spec:28} {text}" for spec, text in sorted(PROPERTY_SPECS.items()))
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    certify = commands.add_parser(
        "certify",
        help="certify a catalog (full pass, or delta with --verdict-store/--baseline)",
    )
    certify.add_argument(
        "--catalog", action="append", required=True, metavar="SPEC",
        help="catalog spec (repeatable; catalogs concatenate)",
    )
    certify.add_argument(
        "--property", action="append", default=[], metavar="SPEC", dest="properties",
        help="property spec (repeatable; default crash-freedom)",
    )
    certify.add_argument(
        "--lengths", default="64", metavar="CSV",
        help="comma-separated input packet lengths (default 64)",
    )
    certify.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    certify.add_argument(
        "--risk-store", metavar="DIR",
        help="risk history directory: parallel work is dispatched riskiest "
             "first (churn/violation history) instead of in catalog order, "
             "and this run's churn/violations are recorded for the next one",
    )
    certify.add_argument("--store", metavar="DIR", help="summary store directory (L2 tier)")
    certify.add_argument(
        "--verdict-store", metavar="DIR",
        help="verdict store directory: enables delta mode (unchanged pipelines reuse verdicts)",
    )
    certify.add_argument(
        "--query-store", metavar="DIR",
        help="query store directory (persistent L3 solver-query cache: warm runs "
             "answer solver questions from disk, zero SAT-core calls when unchanged)",
    )
    certify.add_argument(
        "--baseline", metavar="MANIFEST",
        help="previous catalog manifest: attaches impact provenance to each verdict",
    )
    certify.add_argument(
        "--emit-manifest", metavar="PATH",
        help="write this catalog's manifest (the next run's --baseline)",
    )
    certify.add_argument(
        "--report", metavar="PATH", help="write the full certification report as JSON"
    )
    certify.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    certify.add_argument(
        "--max-paths", type=int, default=None, metavar="N",
        help="per-element symbolic path budget (blown budgets yield verdict 'unknown')",
    )
    certify.add_argument(
        "--merge", choices=("off", "conservative"), default=None,
        metavar="MODE",
        help="path merging at branch joins: conservative (ite-lift sibling states "
             "within the ite budget, default) or off (fork everything; the "
             "differential-testing reference)",
    )
    certify.add_argument("--max-counterexamples", type=int, default=3, metavar="N")
    certify.add_argument(
        "--no-replay", action="store_true",
        help="skip confirming counterexamples on the concrete dataplane",
    )
    certify.add_argument(
        "--instruction-bounds", action="store_true",
        help="also compute each pipeline's instruction bound",
    )
    certify.add_argument(
        "--havoc-tables", action="store_true",
        help="havoc static tables (prove for any table contents, not the configured ones)",
    )
    certify.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run and write it to PATH "
             "(inspect with 'trace summary', or load chrome format in Perfetto)",
    )
    certify.add_argument(
        "--trace-format", choices=("chrome", "jsonl"), default="chrome",
        help="trace export format: chrome (chrome://tracing / Perfetto, default) "
             "or jsonl (one span per line)",
    )

    trace = commands.add_parser("trace", help="inspect exported span traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_commands.add_parser(
        "summary", help="per-phase / per-pipeline / per-element time breakdown"
    )
    trace_summary.add_argument(
        "trace_file", metavar="TRACE",
        help="a certify --trace export (chrome or jsonl, autodetected)",
    )
    trace_summary.add_argument("--json", action="store_true")

    diff = commands.add_parser(
        "diff", help="classify what changed between two catalogs/manifests (no verification)"
    )
    diff.add_argument("old", help="baseline: a manifest JSON file or a catalog spec")
    diff.add_argument("new", help="candidate: a manifest JSON file or a catalog spec")
    diff.add_argument("--json", action="store_true", help="print the impact report as JSON")

    compare = commands.add_parser(
        "bench-compare", help="gate BENCH_*.json files against committed baselines"
    )
    compare.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="baseline file or directory of baseline *.json files",
    )
    compare.add_argument(
        "--current", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default .)",
    )
    compare.add_argument(
        "--tolerance", type=float, default=0.35,
        help="fallback relative slack for baselines that pin neither a "
             "file-level nor a per-metric tolerance (default 0.35)",
    )
    compare.add_argument("--json", action="store_true", help="print per-metric checks as JSON")

    store = commands.add_parser("store", help="maintain the on-disk store tiers")
    store_commands = store.add_subparsers(dest="store_command", required=True)
    for verb, text in (("gc", "sweep debris and optionally evict old entries"),
                       ("stats", "print entry counts and sizes")):
        sub = store_commands.add_parser(verb, help=text)
        sub.add_argument("--store", metavar="DIR", help="summary store directory")
        sub.add_argument("--verdict-store", metavar="DIR", help="verdict store directory")
        sub.add_argument("--query-store", metavar="DIR", help="query store directory")
        sub.add_argument("--json", action="store_true")
        if verb == "gc":
            sub.add_argument(
                "--older-than-days", type=float, default=None, metavar="DAYS",
                help="also evict entries not touched for DAYS (default: debris only)",
            )
    return parser


# -- certify --------------------------------------------------------------------------


def _parse_lengths(text: str) -> List[int]:
    try:
        lengths = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise _UsageError(f"--lengths must be comma-separated integers, got {text!r}") from None
    if not lengths or any(length <= 0 for length in lengths):
        raise _UsageError(f"--lengths must be positive integers, got {text!r}")
    return lengths


def _load_manifest(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read manifest {path}: {exc}") from None


def _run_certify(args: argparse.Namespace) -> int:
    catalog = parse_catalog(args.catalog)
    properties = parse_properties(args.properties)
    options = SymbexOptions(
        static_table_mode=StaticTableMode.HAVOC if args.havoc_tables else StaticTableMode.CONCRETE,
    )
    if args.max_paths is not None:
        options.max_paths = args.max_paths
    if args.merge is not None:
        options.merge = args.merge
    baseline = _load_manifest(args.baseline) if args.baseline else None
    run_tracer = Tracer() if args.trace else None

    result = recertify(
        catalog,
        properties,
        baseline=baseline,
        input_lengths=_parse_lengths(args.lengths),
        workers=args.workers,
        store=SummaryStore(args.store) if args.store else None,
        verdict_store=VerdictStore(args.verdict_store) if args.verdict_store else None,
        query_store=QueryStore(args.query_store) if args.query_store else None,
        risk_store=RiskStore(args.risk_store) if args.risk_store else None,
        options=options,
        max_counterexamples=args.max_counterexamples,
        confirm_by_replay=not args.no_replay,
        instruction_bounds=args.instruction_bounds,
        trace=run_tracer,
    )
    report = result.report

    verdicts = {verdict for _, _, verdict in report.verdicts()}
    if Verdict.VIOLATED in verdicts:
        exit_code = EXIT_VIOLATED
    elif Verdict.UNKNOWN in verdicts:
        exit_code = EXIT_UNKNOWN
    else:
        exit_code = EXIT_OK

    document = {
        "command": "certify",
        "exit_code": exit_code,
        "statistics": dataclasses.asdict(report.statistics),
        "certifications": [c.to_dict() for c in report.certifications],
        "impact": result.impact.to_dict() if result.impact else None,
        # Where the work ran: null when every verdict was reused.
        "scheduler": report.scheduler.to_dict() if report.scheduler is not None else None,
    }
    if run_tracer is not None:
        if args.trace_format == "jsonl":
            events = run_tracer.export_jsonl(args.trace)
        else:
            events = run_tracer.export_chrome(args.trace)
        document["trace"] = {
            "path": args.trace,
            "format": args.trace_format,
            "summary": run_tracer.summary(),
        }
        if not args.json:
            print(f"trace      : {events} events -> {args.trace} ({args.trace_format})")
    if args.emit_manifest:
        Path(args.emit_manifest).write_text(json.dumps(result.manifest, indent=2) + "\n")
    if args.report:
        Path(args.report).write_text(json.dumps(document, indent=2) + "\n")
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(result.summary())
        for certification in report.certifications:
            marker = "ok " if certification.certified else "NOT"
            causes = f"  [{'; '.join(certification.impact_causes)}]" if certification.impact_causes else ""
            print(
                f"{marker} {certification.pipeline_name}: "
                + ", ".join(f"{r.property_name}={r.verdict}" for r in certification.results)
                + f" ({certification.provenance})" + causes
            )
            bound = certification.instruction_bound
            if bound is not None:
                found = "unknown (budget exceeded)" if bound.bound is None else bound.bound
                print(f"    instruction bound: {found}")
    return exit_code


# -- diff -----------------------------------------------------------------------------


def _manifest_or_catalog(argument: str) -> dict:
    from ..orchestrator import catalog_manifest

    if argument.endswith(".json") or Path(argument).is_file():
        return _load_manifest(argument)
    return catalog_manifest(parse_catalog([argument]))


def _run_diff(args: argparse.Namespace) -> int:
    impact = diff_manifests(_manifest_or_catalog(args.old), _manifest_or_catalog(args.new))
    if args.json:
        print(json.dumps(impact.to_dict(), indent=2))
    else:
        print(impact.summary())
    changed = bool(impact.impacted or impact.removed)
    return EXIT_VIOLATED if changed else EXIT_OK


# -- trace ----------------------------------------------------------------------------


def _run_trace(args: argparse.Namespace) -> int:
    """Summarize a ``certify --trace`` export (either format, autodetected).

    An unreadable file is a usage error; a readable-but-empty trace exits
    :data:`EXIT_UNKNOWN` so a CI smoke step can assert "the traced run
    actually recorded spans" with no extra parsing.
    """
    try:
        spans = load_trace(args.trace_file)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read trace {args.trace_file}: {exc}") from None
    summary = summarize_spans(spans)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"trace      : {summary['spans']} spans, {summary['events']} events, "
            f"{summary['wall_seconds']:.3f}s wall"
        )
        for name, phase in summary["phases"].items():
            print(
                f"phase      : {name:12} {phase['count']:8d} x  {phase['seconds']:10.3f}s"
            )
        for name, seconds in summary["pipelines"].items():
            print(f"pipeline   : {name:28} {seconds:10.3f}s")
        for name, seconds in summary["elements"].items():
            print(f"element    : {name:28} {seconds:10.3f}s")
    if summary["spans"] == 0 and summary["events"] == 0:
        print(f"error: trace {args.trace_file} holds no spans", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_OK


# -- bench-compare --------------------------------------------------------------------


def _run_bench_compare(args: argparse.Namespace) -> int:
    if args.tolerance < 0:
        raise _UsageError(f"--tolerance must be >= 0, got {args.tolerance}")
    checks, ok = compare_baselines(
        Path(args.baseline), Path(args.current), tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps({"ok": ok, "checks": [check.to_dict() for check in checks]}, indent=2))
    else:
        print(format_checks(checks))
        print(f"\nbench-compare: {'ok' if ok else 'REGRESSION'} "
              f"({sum(1 for c in checks if c.ok)}/{len(checks)} metrics within tolerance)")
    return EXIT_OK if ok else EXIT_VIOLATED


# -- store maintenance ----------------------------------------------------------------


def _open_stores(
    args: argparse.Namespace,
) -> List[Tuple[str, Union[SummaryStore, VerdictStore, QueryStore]]]:
    stores: List[Tuple[str, Union[SummaryStore, VerdictStore, QueryStore]]] = []
    if args.store:
        stores.append(("summary", SummaryStore(args.store)))
    if args.verdict_store:
        stores.append(("verdict", VerdictStore(args.verdict_store)))
    if args.query_store:
        stores.append(("query", QueryStore(args.query_store)))
    if not stores:
        raise _UsageError("pass --store, --verdict-store and/or --query-store")
    return stores


#: Query-cache tiers as (display label, persisted counter field), in the
#: order the cache itself probes them.
_QUERY_TIERS = (
    ("exact", "exact_hits"),
    ("model-reuse", "model_reuse_hits"),
    ("l3", "l3_hits"),
)

#: Wall seconds per query-cache stage as (display label, persisted
#: counter field): the two tiers that cost more than a lookup, then the
#: quick check and CDCL search behind them.
_QUERY_TIER_SECONDS = (
    ("model-reuse", "model_reuse_seconds"),
    ("l3", "l3_seconds"),
    ("solve", "solve_seconds"),
)


def _query_tier_rates(metrics: dict) -> dict:
    """Per-tier hit rates over the slices every tier got a chance at."""
    slices = float(metrics.get("slices", 0) or 0)
    rates: dict = {}
    total = 0
    for tier_label, field_name in _QUERY_TIERS:
        hits = int(metrics.get(field_name, 0) or 0)
        total += hits
        rates[tier_label] = hits / slices if slices else 0.0
    rates["overall"] = total / slices if slices else 0.0
    return rates


def _run_store(args: argparse.Namespace) -> int:
    stores = _open_stores(args)
    document: dict = {"command": f"store {args.store_command}", "stores": {}}
    for label, store in stores:
        if args.store_command == "gc":
            horizon = (
                args.older_than_days * 86400.0 if args.older_than_days is not None else None
            )
            result = store.gc(older_than_seconds=horizon)
            document["stores"][label] = dataclasses.asdict(result)
            if not args.json:
                print(f"{label} store {store.root}: {result.summary()}")
        else:
            entry: dict = {
                "root": str(store.root),
                "entries": len(store),
                "bytes": store.size_bytes(),
            }
            if isinstance(store, QueryStore):
                metrics = store.load_metrics()
                if metrics:
                    entry["metrics"] = metrics
                    entry["tier_rates"] = _query_tier_rates(metrics)
                    entry["tier_seconds"] = {
                        tier_label: float(metrics.get(field_name, 0.0) or 0.0)
                        for tier_label, field_name in _QUERY_TIER_SECONDS
                    }
            document["stores"][label] = entry
            if not args.json:
                print(f"{label} store {store.root}: "
                      f"{len(store)} entries, {store.size_bytes()} bytes")
                rates = entry.get("tier_rates")
                if rates:
                    metrics = entry["metrics"]
                    print(
                        f"  query traffic: {metrics.get('runs', 0)} runs, "
                        f"{metrics.get('checks', 0)} checks, "
                        f"{metrics.get('slices', 0)} slices"
                    )
                    print(
                        "  tier hit rates: "
                        + ", ".join(
                            f"{tier_label} {rates[tier_label]:.1%}"
                            for tier_label, _field in _QUERY_TIERS
                        )
                        + f" (overall {rates['overall']:.1%})"
                    )
                    print(
                        "  tier seconds: "
                        + ", ".join(
                            f"{tier_label} {seconds:.3f} s"
                            for tier_label, seconds in entry["tier_seconds"].items()
                        )
                    )
                    if metrics.get("paths_explored") or metrics.get("paths_merged"):
                        print(
                            f"  path merging: {metrics.get('paths_explored', 0)} paths "
                            f"explored, {metrics.get('paths_merged', 0)} merged "
                            f"({metrics.get('ites_introduced', 0)} ites, "
                            f"{metrics.get('merge_rejected', 0)} rejected)"
                        )
    if args.json:
        print(json.dumps(document, indent=2))
    return EXIT_OK


# -- entry point ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the exit code (never raises ``SystemExit`` itself)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        if args.command == "certify":
            return _run_certify(args)
        if args.command == "diff":
            return _run_diff(args)
        if args.command == "bench-compare":
            return _run_bench_compare(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "store":
            return _run_store(args)
        raise _UsageError(f"unknown command {args.command!r}")  # pragma: no cover
    except (_UsageError, SpecError, OrchestratorError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
