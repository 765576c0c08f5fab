"""Metric-graph model: edges with optical lengths and semi-infinite leads.

A metric graph here is a finite network of 1-D segments, optionally opened to
scattering by attaching semi-infinite leads.  It is its edges and leads, as a
graph file lists them: its vertices are the edge ends and lead anchors.  All
lengths are optical lengths in meters.  The effective size L_eff, which sets
the resonance density, is exact: the leading term of the secular polynomial.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
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
    edges: tuple[Edge, ...]
    leads: tuple[Lead, ...] = ()
    cable: CableSpec | None = None

    @property
    def vertices(self) -> tuple[int, ...]:
        """The edge ends and lead anchors, ascending."""
        ends = {v for e in self.edges for v in (e.a, e.b)}
        return tuple(sorted(ends | {l.anchor for l in self.leads}))

    def validate(self) -> None:
        """Raise :class:`GraphError` listing every violated invariant."""
        problems = []
        seen_edges = set()
        for e in self.edges:
            if e.id in seen_edges:
                problems.append(f"duplicate edge id {e.id}")
            seen_edges.add(e.id)
            if not (e.length > 0.0) or not math.isfinite(e.length):
                problems.append(f"edge {e.id} has non-positive length {e.length}")
        seen_leads = set()
        for l in self.leads:
            if l.id in seen_leads:
                problems.append(f"duplicate lead id {l.id}")
            seen_leads.add(l.id)
        if not (self.edges or self.leads):
            problems.append("graph has neither edges nor leads")
        if not problems and self.edges and not _connected(self):
            problems.append("internal part of the graph is disconnected")
        if problems:
            raise GraphError("; ".join(problems))


def _connected(g: MetricGraph) -> bool:
    # connectivity of the internal part only: a lead may sit on a vertex
    # that no edge touches
    adj: dict[int, set[int]] = {}
    for e in g.edges:
        adj.setdefault(e.a, set()).add(e.b)
        adj.setdefault(e.b, set()).add(e.a)
    start = next(iter(adj))
    stack, seen = [start], {start}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def total_length(graph: MetricGraph) -> float:
    """Sum of internal edge lengths; leads contribute nothing."""
    # fsum: the value must not depend on edge order
    return math.fsum(e.length for e in graph.edges)


def _excess(graph: MetricGraph) -> dict[int, int]:
    """Each vertex's bond ends minus its leads; a self-loop gives 2 ends."""
    excess = Counter(v for e in graph.edges for v in (e.a, e.b))
    excess.subtract(l.anchor for l in graph.leads)
    return {v: excess[v] for v in graph.vertices}


def balanced_vertices(graph: MetricGraph) -> tuple[int, ...]:
    """The vertices with as many leads as bond ends, ascending."""
    return tuple(v for v, x in _excess(graph).items() if x == 0)


def effective_size(graph: MetricGraph) -> float:
    """Length L_eff governing the leading resonance-count coefficient: ``L -
    1/2 min{sum_e d_e l_e}`` over the nonzero ``prod_e w_e^{d_e}`` coefficients
    of ``F(w) = det(diag(w) - Sigma)``, ``w_e = e^{-ik l_e}`` (Lipovsky, J.
    Phys. A 49 (2016) 375202).  A coefficient sums the principal minors of
    Sigma that keep 2 - d_e bonds of each edge e, in integers (bond rows
    scaled by vertex degree); d is searched best-first on the edges of
    :func:`_near_balanced`."""
    L, N, near = total_length(graph), len(graph.edges), _near_balanced(graph)
    if not near:  # no balanced vertex: det Sigma = prod_v det sigma_v != 0
        return L
    start = [e.a for e in graph.edges] + [e.b for e in graph.edges]
    end = start[N:] + start[:N]
    channels = Counter(start + [l.anchor for l in graph.leads])  # bond ends + leads
    deg = [channels[v] for v in start]
    rows = [[2 * (end[c] == start[b]) - deg[b] * (c == (b + N) % (2 * N))
             for c in range(2 * N)] for b in range(2 * N)]

    def coefficient(d):  # times prod(deg); bonds that start at a vertex more
        # often than they end there leave a non-square block: a zero minor
        keeps = itertools.product(*(itertools.combinations((e, e + N), 2 - k)
                                    for e, k in enumerate(d)))
        return sum(_det([[rows[i][j] for j in kept] for i in kept])
                   * (math.prod(deg) // math.prod(deg[b] for b in kept))
                   for kept in (sum(k, ()) for k in keeps)
                   if Counter(start[b] for b in kept) == Counter(end[b] for b in kept))

    # d = 2 on near edges is nonzero: its far blocks (2/deg)J - I are singular only in the closure
    heap = [(0.0, (0,) * N)]
    while True:
        cost, d = heapq.heappop(heap)
        if cost and coefficient(d):  # d = 0 is det Sigma = 0
            return L - 0.5 * cost
        last = max((e for e in near if d[e]), default=-1)  # each d comes once
        for e in (e for e in near if e >= last and d[e] < 2):
            up = d[:e] + (d[e] + 1,) + d[e + 1:]
            heapq.heappush(heap, (math.fsum(x * f.length for x, f in zip(up, graph.edges)), up))


def _near_balanced(graph: MetricGraph) -> list[int]:
    """Indices of the edges that touch the closure of the balanced vertices,
    which takes in each vertex of excess (bond ends - leads) 2j with j ends on
    such edges: without those it has as many ends as leads.  The one closure:
    :func:`effective_size` searches these edges, and the vertex form of
    ``scattering`` is trusted down to a depth set by the longest of them."""
    excess = _excess(graph)
    reached = {v for v, x in excess.items() if x == 0}
    while True:
        near = [i for i, e in enumerate(graph.edges) if reached & {e.a, e.b}]
        ends = Counter(v for i in near for v in (graph.edges[i].a, graph.edges[i].b))
        grown = {v for v, x in excess.items() if x % 2 == 0 and 0 <= x <= 2 * ends[v]}
        if grown == reached:
            return near
        reached = grown


def _det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination in place."""
    sign, prev = 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        a[k], a[p], sign = a[p], a[k], sign if p == k else -sign
        for row in a[k + 1:]:
            row[k + 1:] = [(x * a[k][k] - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], a[k][k + 1:])]
        prev = a[k][k]
    return sign * prev


def optical_length(geometric_length: float, cable: CableSpec) -> float:
    """Optical length l = l_geo * sqrt(epsilon)."""
    if not geometric_length > 0.0:
        raise GraphError(f"geometric length must be positive, got {geometric_length}")
    return geometric_length * math.sqrt(cable.epsilon)


def cutoff_frequency(cable: CableSpec) -> float:
    """TE11 cutoff c / (pi (r1+r2) sqrt(epsilon)); single-mode operation below it."""
    return C0 / (math.pi * (cable.r1 + cable.r2) * math.sqrt(cable.epsilon))
