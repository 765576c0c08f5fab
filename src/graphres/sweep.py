"""Simulated |det S| frequency sweeps and dip extraction.

With a uniform absorption (an imaginary shift of k) the lossless modulus 1
develops a dip near the real part of each resonance; dip depth peaks when
the absorption matches the resonance width.  Overlapping resonances can
merge into a single dip -- compare dip count against the zero count to flag
that.
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
    nu: np.ndarray        # ascending sample frequencies, Hz
    modulus: np.ndarray   # |det S| at each sample
    dips: tuple[Dip, ...]


def sweep(system: BondSystem, band: tuple[float, float],
          absorption: float = DEFAULT_ABSORPTION) -> SweepTrace:
    """Sample |det S| over the band and collect the dips.

    The base grid is refined wherever adjacent samples differ by more than
    0.2, capped at 2^16 points.  Dips are kept by ``detect_dips`` at its
    default prominence, ``DIP_PROMINENCE``.
    """
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
        nu = np.concatenate([nu, mid])
        y = np.concatenate([y, det_smatrix_modulus(system, mid, absorption)])
        order = np.argsort(nu)
        nu, y = nu[order], y[order]
    nu.setflags(write=False)
    y.setflags(write=False)
    trace = SweepTrace(nu, y, ())
    return SweepTrace(nu, y, tuple(detect_dips(trace)))


def detect_dips(trace: SweepTrace, prominence: float = DIP_PROMINENCE) -> list[Dip]:
    """Local minima whose prominence clears the threshold, sorted by nu.

    Prominence is measured against the lower of the two neighboring local
    maxima (the band edge stands in where a flank has no maximum).  Minimum
    positions are refined by a parabola through the three nearest samples.
    """
    nu, y = trace.nu, trace.modulus
    slope_sign = np.sign(np.diff(y))
    mins = np.nonzero((slope_sign[:-1] < 0) & (slope_sign[1:] >= 0))[0] + 1
    maxs = np.nonzero((slope_sign[:-1] > 0) & (slope_sign[1:] <= 0))[0] + 1
    out = []
    for i in mins:
        left_maxs = maxs[maxs < i]
        right_maxs = maxs[maxs > i]
        left = y[left_maxs[-1]] if left_maxs.size else y[0]
        right = y[right_maxs[0]] if right_maxs.size else y[-1]
        if min(left, right) - y[i] < prominence:
            continue
        y0, y1, y2 = y[i - 1], y[i], y[i + 1]
        curvature = y0 - 2.0 * y1 + y2
        if curvature > 0.0:
            offset = np.clip(0.5 * (y0 - y2) / curvature, -1.0, 1.0)
        else:
            offset = 0.0
        pos = nu[i] + offset * 0.5 * (nu[i + 1] - nu[i - 1])
        out.append(Dip(float(pos), float(1.0 - y1)))
    return sorted(out, key=lambda d: d.nu)
