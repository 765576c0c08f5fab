"""Resonance counting asymptotics and Weyl/non-Weyl classification.

For an open graph the number of resonances with Re k <= R grows like
``(L_eff / pi) R + O(1)``.  The coefficient carries the headline physics:
it equals the total length L unless the graph has a balanced vertex (as many
leads as internal edges), in which case the shorter effective size takes
over and resonances go missing.

:func:`count_report` reads both the band count and the slope from one
certified :func:`counting_function` table and locates no zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, STRIP_DEPTH
from .graph import MetricGraph, balance_report, effective_size, total_length
from .scattering import build_bond_system
from .zeros import SearchBox, counting_function
from .zeros import find_zeros  # kept bound: perfbench/tracer.py hooks graphres.weyl.find_zeros

WEYL = "Weyl"
NON_WEYL = "non-Weyl"

# relative gates on the fitted slope: 2% against the matching prediction is
# asserted by tests; 5% is the consistency alarm in classify()
SLOPE_FIT_TOL = 0.02
SLOPE_GATE = 0.05

# wavenumbers R (1/m) at which count_report samples N(R) for the slope fit
FIT_GRID = np.linspace(6.0, 400.0, 120)


class ClassificationError(RuntimeError):
    """Geometric and spectral classifications disagree."""


@dataclass(frozen=True)
class CountReport:
    band: tuple[float, float]      # Hz
    measured_count: int
    weyl_prediction: float
    nonweyl_prediction: float
    fitted_slope: float
    classification: str
    slope_relative_error: float


def round_half_up(x: float) -> int:
    """.5 always rounds up; plain round() would go to even."""
    return math.floor(x + 0.5)


def predicted_count(graph: MetricGraph, band: tuple[float, float]) -> tuple[float, float]:
    """Expected resonance counts in the band: (L-based, effective-size-based).

    Both equal ``2 * length * (nu_max - nu_min) / c``; round half-up to get
    integer expectations.
    """
    graph.validate()
    return _band_counts(band, total_length(graph), effective_size(graph))


def _band_counts(band: tuple[float, float], *lengths: float) -> tuple[float, ...]:
    nu_min, nu_max = band
    if not (0.0 <= nu_min < nu_max):
        raise ValueError(f"empty or inverted band {band}")
    dk = 2.0 * np.pi * (nu_max - nu_min) / C0
    return tuple(length * dk / np.pi for length in lengths)


def fit_slope(counts) -> tuple[float, float, float]:
    """Least-squares line through (R, N(R)); returns (slope, intercept, max residual)."""
    pts = list(counts)
    R = np.array([p[0] for p in pts], dtype=float)
    N = np.array([p[1] for p in pts], dtype=float)
    if R.size < 2 or np.ptp(R) == 0.0:
        raise ValueError("need at least two distinct R values to fit")
    slope, intercept = np.polyfit(R, N, 1)
    residual = float(np.max(np.abs(N - (slope * R + intercept))))
    return float(slope), float(intercept), residual


def _judge(graph: MetricGraph, l_eff: float, fitted_slope: float) -> tuple[str, float]:
    """Geometric class and the slope's relative error against ``l_eff / pi``.

    ``l_eff`` is the effective size, which is the total length on a Weyl
    graph.  A graph of effective size 0 has no resonances, so a flat fit
    meets it exactly.
    """
    geometric = NON_WEYL if balance_report(graph).balanced_vertices else WEYL
    expected = l_eff / np.pi
    if expected == 0.0:
        err = 0.0 if fitted_slope == 0.0 else math.inf
    else:
        err = abs(fitted_slope - expected) / abs(expected)
    if err > SLOPE_GATE:
        raise ClassificationError(
            f"graph is geometrically {geometric} (slope should be "
            f"{expected:.4f} 1/m) but the fitted slope is {fitted_slope:.4f} "
            f"({100 * err:.1f}% off)"
        )
    return geometric, err


def classify(graph: MetricGraph, fitted_slope: float) -> str:
    """Geometric class, cross-checked against the fitted counting slope.

    non-Weyl iff some vertex is balanced.  The fitted slope must agree with
    the matching prediction (L/pi or L_eff/pi) to within 5%; disagreement is
    an error, never a silent reinterpretation.
    """
    graph.validate()
    return _judge(graph, effective_size(graph), fitted_slope)[0]


def count_report(graph: MetricGraph, band: tuple[float, float],
                 depth: float = STRIP_DEPTH) -> CountReport:
    """Measure, predict, fit, and classify in one pass.

    One :func:`counting_function` table on ``FIT_GRID`` plus the band's
    edges gives the slope fit and the measured count ``N(re_max) -
    N(re_min)``, certified like every N(R) (else :class:`SolverError`).
    It counts zeros with ``re_min < Re k <= re_max``, so it differs from
    locating the band's zeros only for a zero on the lower band edge.
    """
    system = build_bond_system(graph)
    l_eff = effective_size(graph)
    weyl_pred, nonweyl_pred = _band_counts(band, total_length(graph), l_eff)
    box = SearchBox.from_band(*band, depth=depth)
    grid = np.union1d(FIT_GRID, (box.re_min, box.re_max))
    table = dict(counting_function(system, grid, depth=depth))
    measured = table[box.re_max] - table[box.re_min]
    slope, _, _ = fit_slope((r, table[r]) for r in FIT_GRID)
    classification, rel_err = _judge(graph, l_eff, slope)
    return CountReport(
        band=band,
        measured_count=measured,
        weyl_prediction=weyl_pred,
        nonweyl_prediction=nonweyl_pred,
        fitted_slope=slope,
        classification=classification,
        slope_relative_error=rel_err,
    )
