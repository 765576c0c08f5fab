"""Seeded workloads: the CLI operations one benchmark client issues in turn.

A workload is a *pass*: a fixed list of ``graphres`` command lines over the
workload's graphs, which the client repeats.  Everything here is a pure
function of the seed, so the same seed gives the same argument lists and
byte-identical graph files, and nothing here imports the program.

Why each workload exists:

* ``fixtures-band`` -- ``resonances`` on seeded 0.5-1.5 GHz sub-bands of
  0.3-6 GHz plus one ``sweep`` per fixture.  Each box holds only a few zeros,
  so time goes to boundary sampling, small ``secular_many`` batches where
  per-call overhead dominates, and ``smatrix_many``; counting and deep
  subdivision barely run.
* ``fixtures-classify`` -- ``classify`` on the four fixtures in the default
  band: deep subdivision plus Newton over ~130 zeros per report, with sweep
  and smatrix idle.  Counting by winding alone must show here and nowhere
  else.
* ``generated-large`` -- seeded random connected graphs with 20, 30 and 40
  edges (40-80 bonds), each with ``resonances`` in a band sized for ~15
  zeros plus a ``sweep``.  The cubic per-point kernel and the sweep's batch memory
  dominate, so the vertex determinant and chunk sizing must show here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

C0 = 299_792_458.0  # m/s, the same exact value the program uses
STRIP_DEPTH = 8.0   # the CLI's default --depth, 1/m
FIXTURES = ("W1", "nW1", "W2", "nW2")
DEFAULT_BAND_GHZ = (0.3, 2.2)
WIDE_BAND_GHZ = (0.3, 6.0)

# sub-bands per fixture per pass: enough resonances calls in a run for a
# p90 with at least ten samples above it, and enough band positions that
# the median does not hinge on a few of them
BANDS_PER_FIXTURE = 8
# one graph per size in every pass, so the per-point cost mix (cubic in the
# bond count) and the peak batch memory (set by the 40-edge sweep) do not
# change from seed to seed; only topology, lengths and leads do
GENERATED_EDGES = (20, 30, 40)
# the low end of the 15-30 zeros a band should hold: a pass stays short
# enough for two passes in a run, whose spread in time steadies the medians
GENERATED_TARGET_ZEROS = 15
EDGE_LENGTH_M = (0.05, 0.30)

WORKLOADS = ("fixtures-band", "fixtures-classify", "generated-large")


@dataclass(frozen=True)
class Graph:
    """A workload graph: a shipped fixture or a generated file."""

    key: str                 # fixture name, or file stem for generated graphs
    path: str | None = None  # generated graph file, relative to the checkout
    edges: int = 7
    balanced: bool = False


@dataclass(frozen=True)
class Op:
    """One CLI call: ``graphres <argv>``, checked against its graph and band."""

    command: str             # resonances | sweep | classify
    argv: tuple[str, ...]
    graph: Graph
    band_ghz: tuple[float, float]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    graphs: tuple[Graph, ...]
    ops: tuple[Op, ...]      # one pass
    files: dict              # relative path -> text of each generated graph file


def _source(graph: Graph) -> tuple[str, ...]:
    if graph.path is None:
        return ("--fixture", graph.key)
    return ("--graph", graph.path)


def _op(command: str, graph: Graph, band: tuple[float, float], *extra: str) -> Op:
    argv = (command, *_source(graph), "--fmin-ghz", repr(band[0]),
            "--fmax-ghz", repr(band[1]), *extra)
    return Op(command, argv, graph, band)


def _sub_bands(rng: random.Random, avoid_k: list[float], count: int):
    """Seeded 0.5-1.5 GHz sub-bands of 0.3-6 GHz.

    Widths and positions are stratified (a Latin hypercube: one band per
    equal slice of widths and one per equal slice of start positions), so
    every seed covers the same spread of band sizes and frequencies.  A band
    edge is redrawn when a reference zero lies within 1e-4 /m of it: there
    the solver's outward nudge may legitimately take the zero in or leave it
    out, so the expected set would be ambiguous.
    """
    slots = list(range(count))
    rng.shuffle(slots)
    out = []
    while len(out) < count:
        width = 0.5 + (len(out) + rng.random()) / count
        room = WIDE_BAND_GHZ[1] - WIDE_BAND_GHZ[0] - width
        lo = round(WIDE_BAND_GHZ[0] + room * (slots[len(out)] + rng.random()) / count, 6)
        hi = round(lo + width, 6)
        edges_k = [2.0 * math.pi * f * 1e9 / C0 for f in (lo, hi)]
        if any(abs(k - e) < 1e-4 for k in avoid_k for e in edges_k):
            continue
        out.append((lo, hi))
    return out


def fixtures_band(seed: int, reference: dict) -> Workload:
    rng = random.Random(f"fixtures-band/{seed}")
    graphs = tuple(Graph(name) for name in FIXTURES)
    ops = []
    for g in graphs:
        zeros_re = [k[0] for k in reference["wide_band_zeros"][g.key]]
        for band in _sub_bands(rng, zeros_re, BANDS_PER_FIXTURE):
            ops.append(_op("resonances", g, band))
        ops.append(_op("sweep", g, DEFAULT_BAND_GHZ, "--absorption", "default"))
    rng.shuffle(ops)
    return Workload("fixtures-band", seed, graphs, tuple(ops), {})


def fixtures_classify(seed: int) -> Workload:
    """The four reports in a fixed order, whatever the seed.

    The order moves the process's peak RSS between two levels (55 and 60 MB
    on CPython 3.11 with numpy 2.4), which would read as seed noise.
    """
    graphs = tuple(Graph(name) for name in FIXTURES)
    ops = tuple(_op("classify", g, DEFAULT_BAND_GHZ) for g in graphs)
    return Workload("fixtures-classify", seed, graphs, ops, {})


def random_graph(rng: random.Random, n_edges: int, balanced: bool) -> tuple[str, float]:
    """Connected simple graph with leads; returns (graph file text, effective length).

    A random spanning tree plus random extra edges.  ``balanced`` puts as
    many leads as internal edges on one vertex of least degree (the non-Weyl
    case, whose effective length lacks that vertex's shortest edge);
    otherwise two leads sit alone on vertices of internal degree >= 2.
    """
    n_vertices = max(4, round(0.55 * n_edges))
    pairs = []
    for v in range(2, n_vertices + 1):
        pairs.append((rng.randint(1, v - 1), v))
    present = {frozenset(p) for p in pairs}
    while len(pairs) < n_edges:
        a, b = rng.sample(range(1, n_vertices + 1), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            pairs.append((a, b))
    edges = [(i + 1, a, b, round(rng.uniform(*EDGE_LENGTH_M), 6))
             for i, (a, b) in enumerate(pairs)]
    degree = {v: 0 for v in range(1, n_vertices + 1)}
    for _, a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    effective = math.fsum(e[3] for e in edges)
    if balanced:
        fewest = min(degree.values())
        v = rng.choice([v for v in degree if degree[v] == fewest])
        anchors = [v] * fewest
        effective -= min(e[3] for e in edges if v in (e[1], e[2]))
    else:
        anchors = rng.sample([v for v in degree if degree[v] >= 2], 2)
    lines = ["# generated by perfbench/workloads.py", "[edges]"]
    lines += [f"{eid} {a} {b} {length:.6f}" for eid, a, b, length in edges]
    lines.append("[leads]")
    lines += [f"{i + 1} {v}" for i, v in enumerate(anchors)]
    return "\n".join(lines) + "\n", effective


def generated_large(seed: int, out_dir: str) -> Workload:
    rng = random.Random(f"generated-large/{seed}")
    # every seed has at least one balanced and one unbalanced graph
    modes = [True, False] + [rng.random() < 0.5
                             for _ in GENERATED_EDGES[2:]]
    rng.shuffle(modes)
    graphs, ops, files = [], [], {}
    for n_edges, balanced in zip(GENERATED_EDGES, modes):
        text, effective = random_graph(rng, n_edges, balanced)
        stem = f"g{seed}-e{n_edges}"
        path = f"{out_dir}/{stem}.graph"
        files[path] = text
        g = Graph(stem, path, n_edges, balanced)
        graphs.append(g)
        # Weyl density: N ~ 2 L_eff nu / c zeros per Hz of band
        width = GENERATED_TARGET_ZEROS * C0 / (2.0 * effective) / 1e9
        lo = round(rng.uniform(0.5, 2.0), 6)
        band = (lo, round(lo + width, 6))
        ops.append(_op("resonances", g, band))
        ops.append(_op("sweep", g, band, "--absorption", "default"))
    return Workload("generated-large", seed, tuple(graphs), tuple(ops), files)


def build(name: str, seed: int, reference: dict, out_dir: str) -> Workload:
    if name == "fixtures-band":
        return fixtures_band(seed, reference)
    if name == "fixtures-classify":
        return fixtures_classify(seed)
    if name == "generated-large":
        return generated_large(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def write_files(workload: Workload, root: Path) -> None:
    for rel, text in workload.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
