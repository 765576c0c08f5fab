"""Text format for graph definitions.

Line-oriented UTF-8 with ``#`` comments::

    [edges]
    <edge_id> <vertex_a> <vertex_b> <length_m>
    [leads]
    <lead_id> <vertex>
    [cable]            # optional
    r1 <meters>
    r2 <meters>
    epsilon <value>

Lengths are optical meters, unless a ``[cable]`` section is present, in which
case the edge lengths are geometric and get multiplied by sqrt(epsilon) on
load.
"""

from __future__ import annotations

from pathlib import Path

from .graph import CableSpec, Edge, GraphError, Lead, MetricGraph, optical_length


def parse_graph(text: str) -> MetricGraph:
    edges: list[tuple[int, int, int, float]] = []
    leads: list[tuple[int, int]] = []
    cable_fields: dict[str, float] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[edges]", "[leads]", "[cable]"):
                raise GraphError(f"line {lineno}: unknown section {line!r}")
            section = line[1:-1]
            continue
        parts = line.split()
        try:
            if section == "edges":
                if len(parts) != 4:
                    raise ValueError("expected: edge_id vertex_a vertex_b length_m")
                edges.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
            elif section == "leads":
                if len(parts) != 2:
                    raise ValueError("expected: lead_id vertex")
                leads.append((int(parts[0]), int(parts[1])))
            elif section == "cable":
                if len(parts) != 2 or parts[0] not in ("r1", "r2", "epsilon"):
                    raise ValueError("expected: r1|r2|epsilon value")
                cable_fields[parts[0]] = float(parts[1])
            else:
                raise ValueError("data before any section header")
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc

    cable = None
    if cable_fields:
        missing = {"r1", "r2", "epsilon"} - set(cable_fields)
        if missing:
            raise GraphError(f"[cable] section missing {sorted(missing)}")
        cable = CableSpec(cable_fields["r1"], cable_fields["r2"], cable_fields["epsilon"])

    built_edges = []
    for eid, a, b, length in edges:
        if cable is not None:
            if not length > 0.0:
                raise GraphError(f"edge {eid} has non-positive length {length}")
            length = optical_length(length, cable)
        built_edges.append(Edge(eid, a, b, length))
    graph = MetricGraph(tuple(built_edges), tuple(Lead(lid, v) for lid, v in leads), cable)
    graph.validate()
    return graph


def load_graph(path: str | Path) -> MetricGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def format_graph(graph: MetricGraph) -> str:
    """Inverse of :func:`parse_graph` (always writes optical lengths)."""
    lines = ["[edges]"]
    for e in graph.edges:
        lines.append(f"{e.id} {e.a} {e.b} {e.length!r}")
    if graph.leads:
        lines.append("[leads]")
        for l in graph.leads:
            lines.append(f"{l.id} {l.anchor}")
    # the cable section is intentionally not round-tripped: lengths are
    # already optical at this point
    return "\n".join(lines) + "\n"


def dump_graph(graph: MetricGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(graph), encoding="utf-8")
