"""Metric-graph model: vertices, edges with optical lengths, semi-infinite leads.

A metric graph here is a finite network of 1-D segments joined at vertices,
optionally opened to scattering by attaching semi-infinite leads.  All lengths
are optical lengths in meters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import C0


class GraphError(ValueError):
    """A graph violates a structural invariant."""


@dataclass(frozen=True)
class Edge:
    """Internal edge between vertices ``a`` and ``b`` (may coincide: self-loop)."""

    id: int
    a: int
    b: int
    length: float  # optical length, m


@dataclass(frozen=True)
class Lead:
    """Semi-infinite lead attached at ``anchor``."""

    id: int
    anchor: int


@dataclass(frozen=True)
class CableSpec:
    """Coaxial cable geometry: inner/outer conductor radii and dielectric constant."""

    r1: float  # m
    r2: float  # m
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.r1 < self.r2):
            raise GraphError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        if self.epsilon < 1.0:
            raise GraphError(f"dielectric constant must be >= 1, got {self.epsilon}")


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    leads: tuple[Lead, ...] = ()
    cable: CableSpec | None = None

    def validate(self) -> None:
        """Raise :class:`GraphError` listing every violated invariant."""
        problems = []
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            problems.append("duplicate vertex identifiers")
        seen_edges = set()
        for e in self.edges:
            if e.id in seen_edges:
                problems.append(f"duplicate edge id {e.id}")
            seen_edges.add(e.id)
            for v in (e.a, e.b):
                if v not in vset:
                    problems.append(f"edge {e.id} references missing vertex {v}")
            if not (e.length > 0.0) or not math.isfinite(e.length):
                problems.append(f"edge {e.id} has non-positive length {e.length}")
        seen_leads = set()
        for l in self.leads:
            if l.id in seen_leads:
                problems.append(f"duplicate lead id {l.id}")
            seen_leads.add(l.id)
            if l.anchor not in vset:
                problems.append(f"lead {l.id} anchored at missing vertex {l.anchor}")
        if not problems and self.edges and not _connected(self):
            problems.append("internal part of the graph is disconnected")
        if problems:
            raise GraphError("; ".join(problems))


def _connected(g: MetricGraph) -> bool:
    # connectivity of the internal part only; isolated vertices (no edge,
    # no lead) also count as a violation
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    touched = {e.a for e in g.edges} | {e.b for e in g.edges}
    start = next(iter(touched))
    stack, seen = [start], {start}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != touched:
        return False
    # vertices carrying neither edges nor leads are unreachable by any wave
    loose = set(g.vertices) - touched - {l.anchor for l in g.leads}
    return not loose


def total_length(graph: MetricGraph) -> float:
    """Sum of internal edge lengths; leads contribute nothing."""
    # fsum: the value must not depend on edge order
    return math.fsum(e.length for e in graph.edges)


@dataclass(frozen=True)
class VertexBalance:
    vertex: int
    internal_degree: int
    lead_count: int

    @property
    def balanced(self) -> bool:
        return self.lead_count > 0 and self.internal_degree == self.lead_count


@dataclass(frozen=True)
class BalanceReport:
    per_vertex: tuple[VertexBalance, ...]
    # (vertex, edge id, length) of the shortest edge emanating from each
    # balanced vertex, in vertex order
    shortest_edges: tuple[tuple[int, int, float], ...] = ()

    @property
    def balanced_vertices(self) -> tuple[int, ...]:
        return tuple(r.vertex for r in self.per_vertex if r.balanced)

    @property
    def shortest_balanced_edge(self) -> tuple[int, int, float] | None:
        """The shortest of ``shortest_edges`` (first vertex on ties), or None."""
        return min(self.shortest_edges, key=lambda s: s[2], default=None)


def balance_report(graph: MetricGraph) -> BalanceReport:
    """Per-vertex lead/edge balance; a self-loop adds 2 to the internal degree."""
    deg = {v: 0 for v in graph.vertices}
    nlead = {v: 0 for v in graph.vertices}
    for e in graph.edges:
        deg[e.a] += 1
        deg[e.b] += 1
    for l in graph.leads:
        nlead[l.anchor] += 1
    records = tuple(
        VertexBalance(v, deg[v], nlead[v]) for v in sorted(graph.vertices)
    )
    shortest = []
    for rec in records:
        if rec.balanced:
            # ties broken by smallest edge id for determinism
            best = min(
                (e for e in graph.edges if rec.vertex in (e.a, e.b)),
                key=lambda e: (e.length, e.id),
            )
            shortest.append((rec.vertex, best.id, best.length))
    return BalanceReport(records, tuple(shortest))


def effective_size(graph: MetricGraph) -> float:
    """Length governing the leading resonance-count coefficient.

    Equals the total length L when no vertex is balanced.  With exactly one
    balanced vertex it is L - l_s, where l_s is the shortest edge emanating
    from that vertex.  With several balanced vertices the per-vertex shortest
    edges are all subtracted -- a heuristic extension beyond the single-vertex
    theory, reported with a warning.
    """
    cuts = balance_report(graph).shortest_edges
    if len(cuts) > 1:
        warnings.warn(
            "multiple balanced vertices: effective size uses the per-vertex "
            "shortest-edge heuristic and may be unreliable",
            stacklevel=2,
        )
    return total_length(graph) - sum(length for _, _, length in cuts)


def optical_length(geometric_length: float, cable: CableSpec) -> float:
    """Optical length l = l_geo * sqrt(epsilon)."""
    if not geometric_length > 0.0:
        raise GraphError(f"geometric length must be positive, got {geometric_length}")
    return geometric_length * math.sqrt(cable.epsilon)


def cutoff_frequency(cable: CableSpec) -> float:
    """TE11 cutoff c / (pi (r1+r2) sqrt(epsilon)); single-mode operation below it."""
    return C0 / (math.pi * (cable.r1 + cable.r2) * math.sqrt(cable.epsilon))
