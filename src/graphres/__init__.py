"""Resonances, scattering, and Weyl-law counting for open metric graphs."""

from .constants import C0, DEFAULT_ABSORPTION, DEFAULT_BAND_GHZ, DIP_PROMINENCE, STRIP_DEPTH
from .fixtures import FIXTURE_NAMES, fixture, interval
from .graph import (
    CableSpec,
    Edge,
    GraphError,
    Lead,
    MetricGraph,
    balanced_vertices,
    cutoff_frequency,
    effective_size,
    optical_length,
    total_length,
)
from .graphio import dump_graph, format_graph, load_graph, parse_graph
from .scattering import (
    BondSystem,
    build_bond_system,
    det_smatrix_modulus,
    external_smatrix,
    secular,
    secular_many,
    smatrix_many,
    vertex_matrix,
)
from .sweep import Dip, SweepTrace, sweep
from .weyl import (
    NON_WEYL,
    WEYL,
    ClassificationError,
    CountReport,
    count_report,
    fit_slope,
)
from .zeros import (
    Resonance,
    SearchBox,
    SolverError,
    ZeroSet,
    count_zeros,
    counting_function,
    find_zeros,
)

__all__ = [
    "C0",
    "DEFAULT_ABSORPTION",
    "DEFAULT_BAND_GHZ",
    "DIP_PROMINENCE",
    "STRIP_DEPTH",
    "FIXTURE_NAMES",
    "fixture",
    "interval",
    "CableSpec",
    "Edge",
    "GraphError",
    "Lead",
    "MetricGraph",
    "balanced_vertices",
    "cutoff_frequency",
    "effective_size",
    "optical_length",
    "total_length",
    "dump_graph",
    "format_graph",
    "load_graph",
    "parse_graph",
    "BondSystem",
    "build_bond_system",
    "det_smatrix_modulus",
    "external_smatrix",
    "secular",
    "secular_many",
    "smatrix_many",
    "vertex_matrix",
    "Dip",
    "SweepTrace",
    "sweep",
    "NON_WEYL",
    "WEYL",
    "ClassificationError",
    "CountReport",
    "count_report",
    "fit_slope",
    "Resonance",
    "SearchBox",
    "SolverError",
    "ZeroSet",
    "count_zeros",
    "counting_function",
    "find_zeros",
]

__version__ = "0.1.0"
