"""Step 2: compose segment summaries along pipeline paths and check feasibility.

A pipeline path is a concatenation of segments (§3 "Pipeline
Decomposition").  The composition engine rewrites each downstream
segment's constraint over the upstream segment's symbolic output
("constraint stitching"), conjoins the per-stage constraints, and asks the
solver whether the composed path is feasible — without ever re-executing
any element.  Infeasible prefixes are pruned as early as possible, which
is what keeps Step 2 cheap when Step 1 produced few suspects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .. import smt
from ..smt import Term
from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..symbex.segment import SegmentSummary
from ..symbex.state import INPUT_BYTE_PREFIX, INPUT_META_PREFIX
from .cache import SummaryCache
from .errors import CompositionError


@dataclass
class ComposedPrefix:
    """A partially composed pipeline path.

    ``current_bytes`` / ``current_metadata`` are expressed over the
    *original* input variables of the first element (plus freshened havoc
    variables), so the final constraint directly describes input packets.
    """

    current_bytes: List[Term]
    current_metadata: Dict[str, Term] = field(default_factory=dict)
    constraints: List[Term] = field(default_factory=list)
    stages: List[Tuple[str, SegmentSummary]] = field(default_factory=list)
    instructions: int = 0

    def constraint(self) -> Term:
        return smt.conjoin(self.constraints) if self.constraints else smt.TRUE

    def copy(self) -> "ComposedPrefix":
        return ComposedPrefix(
            current_bytes=list(self.current_bytes),
            current_metadata=dict(self.current_metadata),
            constraints=list(self.constraints),
            stages=list(self.stages),
            instructions=self.instructions,
        )


@dataclass
class ComposedViolation:
    """A feasible composed path ending in a property-violating segment."""

    prefix: ComposedPrefix
    element_name: str
    segment: SegmentSummary
    model: smt.Model
    input_length: int

    def input_packet(self) -> bytes:
        """Extract the concrete counterexample packet from the model."""
        data = bytearray(self.input_length)
        for index in range(self.input_length):
            data[index] = int(self.model.get(f"{INPUT_BYTE_PREFIX}{index}", 0)) & 0xFF
        return bytes(data)

    def required_table_values(self) -> Dict[str, int]:
        """Havoc'd table reads the violation relies on (name -> value)."""
        values: Dict[str, int] = {}
        for name in self.model:
            if name.startswith("havoc"):
                values[name] = int(self.model[name])
        return values


class CompositionEngine:
    """Composes Step-1 summaries along pipeline routes and decides feasibility.

    Routes are walked DFS-style through one persistent
    :class:`repro.smt.AssumptionChecker`: stage constraints shared by many
    routes slice into the same query-cache entries, and a slice that has
    to be solved runs on the retained CNF and learned clauses.
    """

    def __init__(self, cache: SummaryCache) -> None:
        self.cache = cache
        # The query cache is shared with the summary cache's engines, so
        # Step-2 composition reuses slice verdicts Step 1 already paid for.
        self.checker = smt.AssumptionChecker(
            max_conflicts=cache.options.solver_max_conflicts,
            query_cache=cache.query_cache,
        )
        self.paths_checked = 0
        self.paths_feasible = 0
        self.solver_checks = 0
        #: Suspect segments (element name, segment) whose composed path the
        #: solver could neither confirm nor refute within its conflict budget.
        self.undecided: List[Tuple[str, SegmentSummary]] = []

    # -- stitching ----------------------------------------------------------------------------

    def initial_prefix(self, input_length: int) -> ComposedPrefix:
        """The composition starting point: the fully symbolic input packet."""
        return ComposedPrefix(
            current_bytes=[smt.BitVec(f"{INPUT_BYTE_PREFIX}{i}", 8) for i in range(input_length)]
        )

    def extend(
        self, prefix: ComposedPrefix, element_name: str, segment: SegmentSummary
    ) -> ComposedPrefix:
        """Append one segment to a composed prefix (constraint stitching)."""
        if segment.emits and len(segment.output_bytes) == 0 and segment.port is None:
            raise CompositionError(f"segment {segment!r} has no output to stitch")
        stage_index = len(prefix.stages)
        substitution = self._stage_substitution(prefix, segment, stage_index)

        extended = prefix.copy()
        stage_constraint = smt.substitute(segment.constraint, substitution)
        extended.constraints.append(smt.simplify(stage_constraint))
        extended.stages.append((element_name, segment))
        extended.instructions += segment.instructions

        if segment.emits:
            extended.current_bytes = [
                smt.simplify(smt.substitute(term, substitution)) for term in segment.output_bytes
            ]
            for key, value in segment.output_metadata.items():
                extended.current_metadata[key] = smt.simplify(
                    smt.substitute(value, substitution)
                )
        return extended

    def _stage_substitution(
        self, prefix: ComposedPrefix, segment: SegmentSummary, stage_index: int
    ) -> Dict[str, Term]:
        """Build the variable substitution that rewires a segment onto the prefix."""
        substitution: Dict[str, Term] = {}
        # Input packet bytes of the segment -> current symbolic bytes.
        for index, term in enumerate(prefix.current_bytes):
            substitution[f"{INPUT_BYTE_PREFIX}{index}"] = term
        # Metadata reads -> current metadata (0 when never set upstream).
        for name in segment.constraint.free_variables():
            if name.startswith(INPUT_META_PREFIX):
                key = name[len(INPUT_META_PREFIX):]
                substitution[name] = prefix.current_metadata.get(key, smt.BitVecVal(0, 64))
        for term in list(segment.output_bytes) + list(segment.output_metadata.values()):
            for name in term.free_variables():
                if name.startswith(INPUT_META_PREFIX) and name not in substitution:
                    key = name[len(INPUT_META_PREFIX):]
                    substitution[name] = prefix.current_metadata.get(key, smt.BitVecVal(0, 64))
        # Havoc variables -> freshened per stage so repeated elements do not collide.
        for havoc in segment.havoc_reads:
            for variable in (havoc.value_var, havoc.found_var):
                substitution[variable] = smt.BitVec(f"{variable}__stage{stage_index}", 64)
        return substitution

    # -- feasibility ---------------------------------------------------------------------------

    def check(self, prefix: ComposedPrefix, *extra: Term) -> Tuple[str, Optional[smt.Model]]:
        """Decide the composed constraint (plus optional extra predicates).

        Returns the solver's status (``sat``, ``unsat`` or ``unknown``) and
        the model of a satisfiable path.
        """
        self.solver_checks += 1
        return self.checker.check(prefix.constraints, extra, need_model=True)

    # -- route enumeration over the pipeline graph ------------------------------------------------

    def routes_to(
        self, pipeline: Pipeline, entry: Element, target: Element
    ) -> List[List[Tuple[Element, int]]]:
        """All routes (element, output port taken) from ``entry`` up to (excluding) ``target``."""
        routes: List[List[Tuple[Element, int]]] = []

        def walk(element: Element, trail: List[Tuple[Element, int]]) -> None:
            if element is target:
                routes.append(list(trail))
                return
            for port in range(element.num_output_ports):
                downstream = pipeline.downstream(element, port)
                if downstream is None:
                    continue
                walk(downstream[0], trail + [(element, port)])

        walk(entry, [])
        return routes

    # -- suspect-path exploration -------------------------------------------------------------------

    def find_violations(
        self,
        pipeline: Pipeline,
        entry: Element,
        target: Element,
        suspect_filter,
        input_length: int,
        extra_predicate=None,
        max_violations: int = 1,
    ) -> Iterator[ComposedViolation]:
        """Yield feasible composed paths that reach ``target`` and end in a suspect segment.

        ``suspect_filter`` is a callable ``(element_name, segment) -> bool``
        selecting which of the target's segments are property violations
        (Step 1's classification).  The target element is re-summarised at
        the packet length the composed prefix actually delivers, so
        length-changing upstream elements (encap/decap) are handled
        correctly.  ``extra_predicate`` (if given) maps the list of input
        byte terms to an additional boolean constraint — used by the
        reachability property to restrict attention to packets of interest.
        A suspect the solver leaves undecided is yielded nowhere; it lands
        in :attr:`undecided` instead.
        """
        found = 0
        for route in self.routes_to(pipeline, entry, target):
            if found >= max_violations:
                return
            initial = self.initial_prefix(input_length)
            extra: List[Term] = []
            if extra_predicate is not None:
                extra.append(extra_predicate(initial.current_bytes))
            for violation in self._explore_route(
                route, 0, initial, target, suspect_filter, extra, input_length
            ):
                yield violation
                found += 1
                if found >= max_violations:
                    return

    def _explore_route(
        self,
        route: List[Tuple[Element, int]],
        position: int,
        prefix: ComposedPrefix,
        target: Element,
        suspect_filter,
        extra: List[Term],
        input_length: int,
    ) -> Iterator[ComposedViolation]:
        if position == len(route):
            # All upstream stages chosen; try each suspect segment of the target
            # at the packet length this prefix delivers.
            summary = self.cache.summarize(target, len(prefix.current_bytes))
            for segment in summary.segments:
                if not suspect_filter(target.name, segment):
                    continue
                candidate = self.extend(prefix, target.name, segment)
                self.paths_checked += 1
                status, model = self.check(candidate, *extra)
                if status == smt.CheckResult.SAT and model is not None:
                    self.paths_feasible += 1
                    yield ComposedViolation(
                        prefix=candidate,
                        element_name=target.name,
                        segment=segment,
                        model=model,
                        input_length=input_length,
                    )
                elif status == smt.CheckResult.UNKNOWN:
                    self.undecided.append((target.name, segment))
            return

        element, port = route[position]
        summary = self.cache.summarize(element, len(prefix.current_bytes))
        for segment in summary.emit_segments_for_port(port):
            candidate = self.extend(prefix, element.name, segment)
            self.paths_checked += 1
            # Only a refuted prefix is pruned: an undecided one stays
            # explored, so its suspects are decided (or reported undecided).
            status, _model = self.check(candidate)
            if status == smt.CheckResult.UNSAT:
                continue
            yield from self._explore_route(
                route, position + 1, candidate, target, suspect_filter, extra, input_length
            )
