"""Simulated |det S| frequency sweeps and dip extraction.

With a uniform absorption (an imaginary shift of k) the lossless modulus 1
develops a dip near the real part of each resonance; dip depth peaks when
the absorption matches the resonance width.  A dip is a local minimum whose
prominence over the lower of its two flanking maxima (a band edge where a
flank has none) reaches ``DIP_PROMINENCE``, placed at the vertex of the
parabola through the minimum and its two neighbours.  Overlapping resonances
can merge into one dip -- compare the dip count against the zero count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_ABSORPTION, DIP_PROMINENCE
from .scattering import BondSystem, det_smatrix_modulus

_BASE_SAMPLES = 2 ** 14 + 1
_MAX_SAMPLES = 2 ** 16
_MAX_JUMP = 0.2


@dataclass(frozen=True)
class Dip:
    nu: float     # Hz, parabolically refined minimum position
    depth: float  # 1 - min |det S|


@dataclass(frozen=True)
class SweepTrace:
    nu: np.ndarray         # ascending sample frequencies, Hz
    modulus: np.ndarray    # |det S| at each sample
    dips: tuple[Dip, ...]  # sorted by nu


def sweep(system: BondSystem, band: tuple[float, float],
          absorption: float = DEFAULT_ABSORPTION) -> SweepTrace:
    """Sample |det S| over the band, refined wherever adjacent samples differ
    by 0.2 or more (at most 2^16 points), and collect its dips."""
    nu_min, nu_max = band
    if not (0.0 < nu_min < nu_max < np.inf):
        raise ValueError(f"bad band {band}")
    nu = np.linspace(nu_min, nu_max, _BASE_SAMPLES)
    y = det_smatrix_modulus(system, nu, absorption)
    while nu.size < _MAX_SAMPLES:
        jumps = np.nonzero(np.abs(np.diff(y)) >= _MAX_JUMP)[0]
        if jumps.size == 0:
            break
        jumps = jumps[: _MAX_SAMPLES - nu.size]
        mid = 0.5 * (nu[jumps] + nu[jumps + 1])
        nu = np.insert(nu, jumps + 1, mid)
        y = np.insert(y, jumps + 1, det_smatrix_modulus(system, mid, absorption))
    nu.setflags(write=False)
    y.setflags(write=False)
    slope = np.sign(np.diff(y))
    mins = np.nonzero((slope[:-1] < 0) & (slope[1:] >= 0))[0] + 1
    maxs = np.nonzero((slope[:-1] > 0) & (slope[1:] <= 0))[0] + 1
    peaks = np.concatenate([y[:1], y[maxs], y[-1:]])
    left = np.searchsorted(maxs, mins)  # peaks[left] and peaks[left + 1] flank
    mins = mins[np.minimum(peaks[left], peaks[left + 1]) - y[mins] >= DIP_PROMINENCE]
    # the parabola's vertex, on unequal spacing too: y[i - 1] > y[i] <= y[i + 1],
    # so ta >= 0 > tb, and the vertex lies within half the neighbours' span
    y0, y1, y2 = y[mins - 1], y[mins], y[mins + 1]
    a, b = nu[mins - 1] - nu[mins], nu[mins + 1] - nu[mins]
    ta, tb = a * (y1 - y2), b * (y1 - y0)
    pos = nu[mins] + 0.5 * (a * ta - b * tb) / (ta - tb)
    order = np.argsort(pos, kind="stable")
    dips = zip(pos[order].tolist(), (1.0 - y1[order]).tolist())
    return SweepTrace(nu, y, tuple(Dip(p, depth) for p, depth in dips))
