"""Pipelines: directed graphs of elements connected port-to-port."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .element import Element
from .errors import PipelineConfigurationError


@dataclass(frozen=True)
class Connection:
    """A directed edge from (source element, output port) to (destination, input port)."""

    source: Element
    source_port: int
    destination: Element
    destination_port: int = 0

    def __str__(self) -> str:
        return (
            f"{self.source.name}[{self.source_port}] -> "
            f"[{self.destination_port}]{self.destination.name}"
        )


class Pipeline:
    """A directed acyclic graph of elements.

    The graph is what the verifier reasons about (it enumerates paths
    through it) and what the driver executes (it routes packets along it).
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._elements: List[Element] = []
        self._by_name: Dict[str, Element] = {}
        self._connections: List[Connection] = []
        # (source element name, port) -> connection, for O(1) routing.
        self._routing: Dict[Tuple[str, int], Connection] = {}
        # Canonical order and digests (kept by repro.dataplane.fingerprint),
        # a passing validation and the sole entry element; dropped whenever
        # add_element or connect changes the graph.
        self._fingerprint_memo: Dict[object, Any] = {}

    # -- construction ---------------------------------------------------------------------

    def add_element(self, element: Element) -> Element:
        if element.name in self._by_name:
            if self._by_name[element.name] is element:
                return element
            raise PipelineConfigurationError(f"duplicate element name {element.name!r}")
        self._elements.append(element)
        self._by_name[element.name] = element
        self._fingerprint_memo.clear()
        return element

    def connect(
        self,
        source: Element,
        destination: Element,
        source_port: int = 0,
        destination_port: int = 0,
    ) -> Connection:
        """Connect an output port of ``source`` to an input port of ``destination``."""
        self.add_element(source)
        self.add_element(destination)
        if source_port >= source.num_output_ports:
            raise PipelineConfigurationError(
                f"{source.name} has {source.num_output_ports} output ports; "
                f"cannot connect port {source_port}"
            )
        key = (source.name, source_port)
        if key in self._routing:
            raise PipelineConfigurationError(
                f"output port {source_port} of {source.name} is already connected"
            )
        connection = Connection(source, source_port, destination, destination_port)
        self._connections.append(connection)
        self._routing[key] = connection
        self._fingerprint_memo.clear()
        return connection

    @classmethod
    def chain(cls, elements: Sequence[Element], name: str = "pipeline") -> "Pipeline":
        """Build a linear pipeline connecting port 0 of each element to the next."""
        pipeline = cls(name=name)
        for element in elements:
            pipeline.add_element(element)
        for upstream, downstream in zip(elements, elements[1:]):
            pipeline.connect(upstream, downstream)
        return pipeline

    # -- inspection ------------------------------------------------------------------------

    @property
    def elements(self) -> List[Element]:
        return list(self._elements)

    @property
    def connections(self) -> List[Connection]:
        return list(self._connections)

    def element(self, name: str) -> Element:
        if name not in self._by_name:
            raise PipelineConfigurationError(f"no element named {name!r} in pipeline {self.name!r}")
        return self._by_name[name]

    def downstream(self, element: Element, port: int) -> Optional[Tuple[Element, int]]:
        """The (element, input port) connected to ``element``'s output ``port``, if any."""
        connection = self._routing.get((element.name, port))
        if connection is None:
            return None
        return connection.destination, connection.destination_port

    def entry_elements(self) -> List[Element]:
        """Elements with no incoming connections (packet entry points)."""
        destinations = {connection.destination.name for connection in self._connections}
        return [element for element in self._elements if element.name not in destinations]

    def sole_entry(self) -> Optional[Element]:
        """The only entry element, or ``None`` when there are none or several."""
        entry = self._fingerprint_memo.get("entry")
        if entry is None:
            entries = self.entry_elements()
            if len(entries) != 1:
                return None
            entry = self._fingerprint_memo["entry"] = entries[0]
        return entry

    def exit_elements(self) -> List[Element]:
        """Elements with at least one unconnected output port."""
        exits = []
        for element in self._elements:
            for port in range(element.num_output_ports):
                if (element.name, port) not in self._routing:
                    exits.append(element)
                    break
        return exits

    def successors(self, element: Element) -> Iterator[Element]:
        for port in range(element.num_output_ports):
            downstream = self.downstream(element, port)
            if downstream is not None:
                yield downstream[0]

    # -- validation --------------------------------------------------------------------------

    def validate(self) -> None:
        """Check that the pipeline is a DAG and that port references are sane.

        A pass is remembered until the graph changes; a failure is not.
        """
        if self._fingerprint_memo.get("valid"):
            return
        if not self._elements:
            raise PipelineConfigurationError("pipeline has no elements")
        self._check_acyclic()
        self._fingerprint_memo["valid"] = True

    def _check_acyclic(self) -> None:
        """Depth-first search without recursion, so chains of any length fit."""
        done: set = set()
        for root in self._elements:
            if root.name in done:
                continue
            # The elements on the current path, each with its unvisited successors.
            path: List[Tuple[Element, Iterator[Element]]] = [(root, self.successors(root))]
            on_path = {root.name}
            while path:
                element, successors = path[-1]
                successor = next(successors, None)
                if successor is None:
                    path.pop()
                    on_path.discard(element.name)
                    done.add(element.name)
                elif successor.name in on_path:
                    cycle = " -> ".join([e.name for e, _ in path] + [successor.name])
                    raise PipelineConfigurationError(f"pipeline contains a cycle: {cycle}")
                elif successor.name not in done:
                    path.append((successor, self.successors(successor)))
                    on_path.add(successor.name)

    # -- path enumeration (used by the verifier) -----------------------------------------------

    def element_paths(
        self, entry: Optional[Element] = None, max_paths: int = 100_000
    ) -> List[List[Tuple[Element, int]]]:
        """Enumerate all element-level paths from ``entry`` to pipeline exits.

        Each path is a list of (element, output port taken) pairs; the last
        element's port is the port the packet finally leaves on (or the
        port that is unconnected).  This is the pipeline-path structure the
        Step-2 composition engine walks.
        """
        entries = [entry] if entry is not None else self.entry_elements()
        paths: List[List[Tuple[Element, int]]] = []

        def walk(element: Element, prefix: List[Tuple[Element, int]]) -> None:
            if len(paths) >= max_paths:
                raise PipelineConfigurationError(
                    f"more than {max_paths} element paths; refusing to enumerate"
                )
            for port in range(element.num_output_ports):
                downstream = self.downstream(element, port)
                step = prefix + [(element, port)]
                if downstream is None:
                    paths.append(step)
                else:
                    walk(downstream[0], step)

        for start in entries:
            walk(start, [])
        return paths

    def __repr__(self) -> str:
        return (
            f"Pipeline({self.name!r}, {len(self._elements)} elements, "
            f"{len(self._connections)} connections)"
        )
