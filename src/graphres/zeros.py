"""Zero location for the secular function: winding counts plus Newton polish.

The secular determinant is entire in k, so the number of zeros inside a
rectangle equals the winding number of its boundary image around 0.  Boxes
are subdivided until each contains a single zero, which Newton iteration on
the logarithmic derivative then pins to ~1e-12.

The counting function N(R) locates no zeros: it cuts one strip into
sub-strips that share their sampled vertical cuts and sums their windings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C0, STRIP_DEPTH
from .scattering import BondSystem, log_derivative, secular_many

_MAX_SIDE_SAMPLES = 2 ** 20
_ABS_FLOOR = 1e-290          # |f| below this counts as "on a zero"
_MIN_SEGMENT = 1e-13         # relative to the side length
_PHASE_CAP = np.pi / 2       # a single step may not approach a branch jump
_NUDGE = 1e-6                # outward edge shift, relative to the box span
_MAX_NUDGES = 5
_DEDUP_RADIUS = 1e-9
_NEWTON_TOL = 1e-12
_RESIDUAL_REL = 1e-10        # vs. the max |secular| on the root boundary
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.56, 0.44, 0.61, 0.39)
_MAX_DEPTH = 200


class SolverError(RuntimeError):
    """The zero search could not complete consistently."""


class BoundaryProximityError(SolverError):
    """A box side passes too close to a zero; the side index is attached."""

    def __init__(self, side: int, message: str):
        super().__init__(message)
        self.side = side


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned rectangle in the complex k-plane (1/m)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float = 0.0

    def __post_init__(self):
        if not (-np.inf < self.re_min < self.re_max < np.inf
                and -np.inf < self.im_min < self.im_max < np.inf):
            raise ValueError(f"degenerate or unbounded box {self}")

    @classmethod
    def from_band(cls, nu_min: float, nu_max: float,
                  depth: float = STRIP_DEPTH) -> "SearchBox":
        """Strip covering frequencies [nu_min, nu_max] Hz down to -depth."""
        if not (0.0 <= nu_min < nu_max):
            raise ValueError(f"bad band ({nu_min}, {nu_max})")
        if not depth > 0.0:
            raise ValueError(f"depth must be positive, got {depth}")
        k_lo = max(2.0 * np.pi * nu_min / C0, 1e-9)  # keep k = 0 outside
        return cls(k_lo, 2.0 * np.pi * nu_max / C0, -depth, 0.0)

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, k: complex, margin: float = 0.0) -> bool:
        return (
            self.re_min - margin <= k.real <= self.re_max + margin
            and self.im_min - margin <= k.imag <= self.im_max + margin
        )


@dataclass(frozen=True)
class Resonance:
    """A secular zero ``k = (2 pi / c)(nu - i * half_width_hz)``."""

    k: complex
    residual: float

    @property
    def nu(self) -> float:
        """Resonance position, Hz."""
        return C0 * self.k.real / (2.0 * np.pi)

    @property
    def half_width(self) -> float:
        """Half the resonance width, Hz."""
        return -C0 * self.k.imag / (2.0 * np.pi)

    @property
    def width(self) -> float:
        return 2.0 * self.half_width


@dataclass(frozen=True)
class ZeroSet:
    resonances: tuple[Resonance, ...]
    winding_total: int
    boundary_scale: float

    def __len__(self) -> int:
        return len(self.resonances)

    def __iter__(self):
        return iter(self.resonances)


def _sample_side(system: BondSystem, z0: complex, z1: complex, side: int):
    """Adaptively sample one side until phase steps stay below pi/2."""
    span = abs(z1 - z0)
    # first guess from the generic phase speed ~ 2 * total length
    speed = 2.0 * float(np.sum(system.lengths[: system.n_edges]))
    n0 = int(min(4097, max(17, 8.0 * span * speed / np.pi)))
    t = np.linspace(0.0, 1.0, n0)
    f = secular_many(system, z0 + (z1 - z0) * t)
    while True:
        if np.any(np.abs(f) < _ABS_FLOOR):
            raise BoundaryProximityError(side, "secular vanishes on the boundary")
        inc = _phase_steps(f)
        bad = np.abs(inc) >= _PHASE_CAP
        if not bad.any():
            return t, f
        idx = np.nonzero(bad)[0]
        if np.any(t[idx + 1] - t[idx] < _MIN_SEGMENT):
            raise BoundaryProximityError(
                side, "phase refinement collapsed: a zero sits on the boundary"
            )
        if t.size + idx.size > _MAX_SIDE_SAMPLES:
            raise BoundaryProximityError(
                side, f"side refinement exceeded {_MAX_SIDE_SAMPLES} samples"
            )
        tm = 0.5 * (t[idx] + t[idx + 1])
        fm = secular_many(system, z0 + (z1 - z0) * tm)
        t = np.insert(t, idx + 1, tm)
        f = np.insert(f, idx + 1, fm)


def _phase_steps(f: np.ndarray) -> np.ndarray:
    """Phase increments ``arg(f[j+1] / f[j])`` in (-pi, pi].

    Taken on f/|f|, so neither |f| ~ 1e200 nor ~1e-200 over- or underflows
    the product of neighbors.
    """
    u = f / np.abs(f)
    return np.angle(u[1:] * np.conj(u[:-1]))


def _winding(system: BondSystem, box: SearchBox) -> tuple[int, float]:
    """Winding number of the secular image of the box boundary around 0.

    Returns (count, max |secular| on the boundary).  Raises
    :class:`BoundaryProximityError` when a side cannot be resolved.
    """
    c = box.corners
    return _loop_winding([
        _sample_side(system, c[side], c[(side + 1) % 4], side)[1]
        for side in range(4)
    ])


def _loop_winding(sides) -> tuple[int, float]:
    """Winding number around 0 of the closed loop through the sampled sides.

    Each side starts where the previous one ends.  Returns (count, max |f|)
    and raises :class:`SolverError` unless the phase sum is a nonnegative
    integer to within 1e-3.
    """
    f = np.concatenate(sides)
    # duplicated corner points contribute zero-length (zero-phase) segments;
    # appending f[0] closes the loop
    total = _phase_steps(np.append(f, f[0])).sum() / (2.0 * np.pi)
    count = int(round(total))
    if abs(total - count) > 1e-3 or count < 0:
        raise SolverError(f"winding sum {total} is not a nonnegative integer")
    return count, float(np.max(np.abs(f)))


def count_zeros(system: BondSystem, box: SearchBox) -> int:
    """Number of secular zeros inside the box, by the argument principle.

    Sides passing near a zero are nudged outward by 1e-6 of the box span, at
    most five times per search.
    """
    count, _, _ = _winding_nudged(system, box)
    return count


def _winding_nudged(
    system: BondSystem, box: SearchBox
) -> tuple[int, float, SearchBox]:
    """Winding count with the nudge policy; returns the box actually used."""
    # compact graphs have a purely real spectrum: lift a top edge that runs
    # exactly along the real axis before it collides with every eigenvalue
    if system.n_leads == 0 and box.im_max == 0.0:
        box = SearchBox(box.re_min, box.re_max, box.im_min,
                        _NUDGE * (box.im_max - box.im_min))
    for _ in range(_MAX_NUDGES):
        try:
            count, scale = _winding(system, box)
            return count, scale, box
        except BoundaryProximityError as err:
            box = _nudge(box, err.side)
    raise SolverError(f"boundary still near a zero after {_MAX_NUDGES} nudges")


def _nudge(box: SearchBox, side: int) -> SearchBox:
    dx = _NUDGE * (box.re_max - box.re_min)
    dy = _NUDGE * (box.im_max - box.im_min)
    if side == 0:
        return SearchBox(box.re_min, box.re_max, box.im_min - dy, box.im_max)
    if side == 1:
        return SearchBox(box.re_min, box.re_max + dx, box.im_min, box.im_max)
    if side == 2:
        return SearchBox(box.re_min, box.re_max, box.im_min, box.im_max + dy)
    return SearchBox(box.re_min - dx, box.re_max, box.im_min, box.im_max)


def find_zeros(system: BondSystem, box: SearchBox) -> ZeroSet:
    """All secular zeros inside the box, polished to ~1e-12.

    The box is bisected (axes alternating) until each leaf holds one zero by
    winding count; Newton from the leaf center does the rest.  The final list
    is checked against the root winding total.
    """
    total, scale, box = _winding_nudged(system, box)
    found: list[complex] = []
    if total:
        _subdivide(system, box, total, scale, 0, found)
    found.sort(key=lambda z: (z.real, z.imag))
    kept: list[complex] = []
    for z in found:
        if kept and abs(z - kept[-1]) < _DEDUP_RADIUS:
            continue
        kept.append(z)
    if len(kept) != total:
        raise SolverError(
            f"located {len(kept)} zeros but the boundary winding says {total}"
        )
    residuals = np.abs(secular_many(system, kept)) if kept else []
    resonances = tuple(
        Resonance(k, float(r)) for k, r in zip(kept, residuals)
    )
    return ZeroSet(resonances, total, scale)


def _subdivide(system, box, count, scale, depth, out):
    if count == 0:
        return
    if depth > _MAX_DEPTH:
        raise SolverError(
            f"subdivision depth exceeded near {box}; zero of multiplicity "
            f"{count} or a solver defect"
        )
    if count == 1:
        k = _newton(system, box, scale)
        if k is not None:
            out.append(k)
            return
        # Newton failed from this leaf's center: shrink and retry
    axis = depth % 2
    lo, hi = (box.re_min, box.re_max) if axis == 0 else (box.im_min, box.im_max)
    for frac in _SPLIT_FRACTIONS:
        mid = lo + (hi - lo) * frac
        if axis == 0:
            a = SearchBox(box.re_min, mid, box.im_min, box.im_max)
            b = SearchBox(mid, box.re_max, box.im_min, box.im_max)
        else:
            a = SearchBox(box.re_min, box.re_max, box.im_min, mid)
            b = SearchBox(box.re_min, box.re_max, mid, box.im_max)
        try:
            ca, _ = _winding(system, a)
            cb, _ = _winding(system, b)
        except BoundaryProximityError:
            continue  # a zero sits near this split line; jitter it
        if ca + cb != count:
            continue  # phase slipped right at the line; jitter as well
        _subdivide(system, a, ca, scale, depth + 1, out)
        _subdivide(system, b, cb, scale, depth + 1, out)
        return
    raise SolverError(f"no clean split line found for {box}")


def _newton(system, box, scale):
    """Newton via the logarithmic derivative; None signals 'shrink the box'."""
    k = complex(
        0.5 * (box.re_min + box.re_max), 0.5 * (box.im_min + box.im_max)
    )
    margin = max(box.re_max - box.re_min, box.im_max - box.im_min)
    prev = np.inf
    grew = 0
    for _ in range(80):
        try:
            ld = log_derivative(system, k)
        except np.linalg.LinAlgError:
            break  # singular: k is numerically on the zero already
        if ld == 0.0:
            return None
        step = -1.0 / ld
        k += step
        size = abs(step)
        if not np.isfinite(size) or not box.contains(k, margin):
            return None
        grew = grew + 1 if size > prev else 0
        if grew >= 3:
            return None  # diverging; caller re-bisects the leaf
        prev = size
        if size < _NEWTON_TOL:
            break
    else:
        return None
    residual = float(np.abs(secular_many(system, [k])[0]))
    if residual > _RESIDUAL_REL * scale:
        return None
    # the zero must belong to this leaf, not a neighbor's basin
    if not box.contains(k, _DEDUP_RADIUS):
        return None
    return k


def counting_function(system: BondSystem, R_values, depth: float = STRIP_DEPTH):
    """Cumulative zero counts N(R) over strips [0, R] x [-depth, 0].

    ``R_values`` must be positive and ascending.  The spectral point k = 0 is
    excluded (it is not a resonance).  No zero is located: the root strip up
    to the last R is cut at every other R into strips that share their
    vertical cuts, each strip is counted by its own winding number, and the
    running sum must reach the root strip's winding.  A cut that passes
    through a zero is shifted right by 1e-6 of the root span, so a zero at
    Re k = R counts in N(R).
    """
    R = np.asarray(R_values, dtype=float)
    if R.size == 0 or np.any(R <= 0.0) or np.any(np.diff(R) <= 0.0):
        raise ValueError("R_values must be positive and strictly ascending")
    root = SearchBox(1e-9, float(R[-1]), -depth, 0.0)
    total, _, root = _winding_nudged(system, root)
    lo, hi = root.im_min, root.im_max
    shift = _NUDGE * (root.re_max - root.re_min)

    def cut(x):
        return _sample_side(system, complex(x, lo), complex(x, hi), 1)[1]

    # at[j]: index of the cut that closes N(R[j]) on the right.  An R left of
    # the previous (possibly shifted) cut shares it; once a shift reaches the
    # root's right edge, the remaining R take the whole strip.
    xs, cuts, at = [root.re_min], [cut(root.re_min)], []
    for r in R[:-1]:
        x = float(r)
        if x > xs[-1]:
            for _ in range(_MAX_NUDGES):
                try:
                    f = cut(x)
                    break
                except BoundaryProximityError:
                    x += shift
            else:
                raise SolverError(
                    f"cut at Re k = {r} still near a zero after {_MAX_NUDGES} nudges"
                )
            if x >= root.re_max:
                break
            xs.append(x)
            cuts.append(f)
        at.append(len(xs) - 1)
    xs.append(root.re_max)
    cuts.append(cut(root.re_max))
    at += [len(xs) - 1] * (R.size - len(at))
    strips = [
        _loop_winding([
            _sample_side(system, complex(a, lo), complex(b, lo), 0)[1],
            cuts[i + 1],
            _sample_side(system, complex(b, hi), complex(a, hi), 2)[1],
            cuts[i][::-1],
        ])[0]
        for i, (a, b) in enumerate(zip(xs[:-1], xs[1:]))
    ]
    counts = np.concatenate([[0], np.cumsum(strips)])[at]
    if counts[-1] != total:
        raise SolverError(
            f"strip windings sum to {counts[-1]} but the root winding says {total}"
        )
    return [(float(r), int(n)) for r, n in zip(R, counts)]
