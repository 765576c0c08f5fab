"""Zero location for the secular function: winding counts plus Newton polish.

The secular determinant is entire in k, so the number of zeros inside a
rectangle equals the winding number of its boundary image around 0.  Boxes
are subdivided until each holds at most ``_MAX_LEAF_COUNT`` zeros, which
Newton iteration on the logarithmic derivative then pins to ~1e-12.  Newton
starts at the roots of the polynomial whose zeros' power sums the trapezoid
rule gives over the samples the winding took.  A leaf whose runs fail or meet,
or with a side that has no positions (a root side keeps its values only), is
bisected again: after at most two splits every side carries positions.
The counting function N(R) locates no zeros: it cuts one strip at every R and
sums the windings of the sub-strips.

Every line is sampled through ``_strips``: the four sides of a root box, or
the cuts of a box with the new sides of its parts, in one batch whose every
refinement round is one secular call (each line refines as it would alone).
A new side that is a piece of a line the bisection sampled starts from that
line's samples, and only its end at the cut is evaluated; a piece of a root
side is sampled afresh, so the first split checks the root winding on an
independent sampling.  A line through a zero moves forward, right or up, so a
box holds the zeros of (re_min, re_max] x (im_min, im_max].  A root top on or
above the real axis goes up to Im k = min(1, 300/L), L the total edge length
(|f| ~ e^{2 L Im k} there), and every side winds f (conj k/|k|)^beta, beta
the order of the zero at k = 0.  A segment is a ``(z0, z1)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, STRIP_DEPTH
from .scattering import BondSystem, log_derivative, secular_many

_MAX_SIDE_SAMPLES = 2 ** 20
_K_MIN = 1e-9                # left edge of a strip from k = 0, which stays outside
_ABS_FLOOR = 1e-290          # |f| below this counts as "on a zero"
_MIN_SEGMENT = 1e-13         # relative to the side length
_PHASE_CAP = np.pi / 2       # a single step may not approach a branch jump
_NUDGE = 1e-6                # forward shift off a zero, relative to the box span
_MAX_NUDGES = 5
_DEDUP_RADIUS = 1e-9
_NEWTON_TOL = 1e-12
_RESIDUAL_REL = 1e-10        # vs. the max |secular| on the root boundary
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.56, 0.44, 0.61, 0.39)
_MAX_DEPTH = 200
# a leaf of up to this many zeros is polished from its power sums.  Summed
# find_zeros s (best of 5-7, 2 cores) at caps 1/2/3/4/6/none: 32 seed-1
# fixtures-band boxes 0.226/0.176/0.157/0.151/0.141/0.154, 9 generated-large
# boxes (seeds 1-3) 0.401/0.325/0.322/0.313/0.346/0.424.  Over 200 random graphs
# (3 960 zeros) log_derivative takes 14 486 points at 1, 18 250 at 4 and 58 605
# uncapped, in 14 486, 6 695 and 13 478 calls; failed leaves take 0, 267 and
# 36 449 of those points, so at 4 the rise is the power-sum starts' extra steps
_MAX_LEAF_COUNT = 4


class SolverError(RuntimeError):
    """The zero search could not complete consistently."""


class BoundaryProximityError(SolverError):
    """A sampled segment passes too close to a zero."""


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
        k_lo = max(2.0 * np.pi * nu_min / C0, _K_MIN)
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
    boundary_scale: float

    def __len__(self) -> int:
        return len(self.resonances)

    def __iter__(self):
        return iter(self.resonances)


def _sample(system: BondSystem, segments, starts=None):
    """Sample ``(z0, z1)`` segments until phase steps stay below pi/2.

    ``starts`` holds each segment's first grid: None (the default for all)
    for an even one, or the ``(t, f)`` of :func:`_piece`, whose NaN values
    are the only ones evaluated, and are filled in place.  Returns each
    segment's ``(t, f)``, or the :class:`BoundaryProximityError` it hit, in
    the order of ``segments``.  The first grids of all segments go into one
    secular call, and each refinement round puts the midpoints of every
    segment still refining into one more; the values are those of sampling
    each segment alone from its first grid.
    """
    # first guess from the generic phase speed ~ 2 * total length
    speed = 2.0 * float(np.sum(system.lengths[: system.n_edges]))
    starts = starts or [None] * len(segments)
    grids, t, ask = {}, [], []  # grids are shared: never written
    for (z0, z1), start in zip(segments, starts):
        if start is None:
            n = int(max(17, 8.0 * abs(z1 - z0) * speed / np.pi))
            if n not in grids:
                grids[n] = np.linspace(0.0, 1.0, n)
            t.append(grids[n])
            ask.append(grids[n])
        else:
            t.append(start[0])
            ask.append(start[0][np.isnan(start[1])])
    f = _secular_at(system, segments, ask)
    for i, start in enumerate(starts):
        if start is not None:
            start[1][np.isnan(start[1])] = f[i]
            f[i] = start[1]
    out = [None] * len(segments)
    active = range(len(segments))
    while active:
        refine, mids = [], []
        for i in active:
            if np.any(np.abs(f[i]) < _ABS_FLOOR):
                out[i] = BoundaryProximityError("secular vanishes on the boundary")
                continue
            idx = np.nonzero(np.abs(_phase_steps(f[i])) >= _PHASE_CAP)[0]
            if not idx.size:
                out[i] = t[i], f[i]
            elif np.any(t[i][idx + 1] - t[i][idx] < _MIN_SEGMENT):
                out[i] = BoundaryProximityError(
                    "phase refinement collapsed: a zero sits on the boundary"
                )
            elif t[i].size + idx.size > _MAX_SIDE_SAMPLES:
                out[i] = BoundaryProximityError(
                    f"side refinement exceeded {_MAX_SIDE_SAMPLES} samples"
                )
            else:
                refine.append((i, idx))
                mids.append(0.5 * (t[i][idx] + t[i][idx + 1]))
        fm = _secular_at(system, [segments[i] for i, _ in refine], mids)
        for (i, idx), tm, fi in zip(refine, mids, fm):
            t[i] = np.insert(t[i], idx + 1, tm)
            f[i] = np.insert(f[i], idx + 1, fi)
        active = [i for i, _ in refine]
    return out


def _secular_at(system, segments, t):
    """``f (conj k/|k|)^beta``, beta ``system.order_at_zero``, at ``t[i]``
    along each segment, in one call."""
    if not segments:
        return []
    ks = np.concatenate([z0 + (z1 - z0) * ti for (z0, z1), ti in zip(segments, t)])
    # the factor winds 0 round a box without k = 0; a wrong beta leaves a
    # swing there, which a side may alias
    f = secular_many(system, ks) * np.exp(-1j * system.order_at_zero * np.angle(ks))
    return np.split(f, np.cumsum([ti.size for ti in t[:-1]]))


def _phase_steps(f: np.ndarray) -> np.ndarray:
    """Phase increments ``arg(f[j+1] / f[j])`` in (-pi, pi].

    Taken on f/|f|, so neither |f| ~ 1e200 nor ~1e-200 over- or underflows
    the product of neighbors.
    """
    u = f / np.abs(f)
    return np.angle(u[1:] * np.conj(u[:-1]))


def _segment(box: SearchBox, side: int):
    """Side ``side`` (bottom, right, top, left) as ``(z0, z1)``, counterclockwise."""
    c = box.corners
    return c[side], c[(side + 1) % 4]


def _extent(box: SearchBox, axis: int) -> tuple[float, float]:
    """The box's (lo, hi) along ``axis`` (0 real, 1 imaginary)."""
    return (box.re_min, box.re_max) if axis == 0 else (box.im_min, box.im_max)


def _span(box: SearchBox, axis: int, lo: float, hi: float) -> SearchBox:
    """The box with its extent along ``axis`` (0 real, 1 imaginary) replaced."""
    bounds = [box.re_min, box.re_max, box.im_min, box.im_max]
    bounds[2 * axis: 2 * axis + 2] = lo, hi
    return SearchBox(*bounds)


def _piece(line, t0, t1):
    """First grid ``(t, f)`` of the piece [t0, t1] of a sampled line ``(t, f)``:
    the line's samples inside it, rescaled to [0, 1], and NaN at an end that
    none of them sits on (a cut)."""
    t, f = line
    i, j = np.searchsorted(t, t0, "right"), np.searchsorted(t, t1)
    ends = (f[i - 1] if t[i - 1] == t0 else np.nan), (f[j] if t[j] == t1 else np.nan)
    return (np.concatenate(([0.0], (t[i:j] - t0) / (t1 - t0), [1.0])),
            np.concatenate(([ends[0]], f[i:j], [ends[1]])))


def _strips(system, box, sides, axis, cuts):
    """(part, sampled sides) of each part of a box cut across ``axis``.

    A sampled side is ``(t, f)``, the values ``f`` at positions ``t`` in
    [0, 1] along it; a root box's sides keep their values only (``t`` None).
    ``sides`` are the box's sampled sides (bottom, right, top, left), or None
    for a root box, whose four are sampled here; ``cuts`` are ascending
    positions inside it.  Each cut is sampled as side ``1 + axis`` of the part
    below, in one batch with the parts' sides along ``axis``, and used
    reversed by the part above; the end parts keep the box sides they inherit
    whole.  A part's side along ``axis`` starts from the samples of the box
    side it lies on (:func:`_piece`), or afresh if that is a root side, so
    the parts check the root winding on an independent sampling.  A cut or
    root side through a zero moves forward by 1e-6 of the box's extent across
    it, dropping every cut it reaches (all the rest once it reaches the far
    edge), and only new or moved lines are sampled again, in at most five
    batches.  An inherited side never moves: a piece of one through a zero
    raises :class:`BoundaryProximityError`.
    """
    done = {}  # sampled (t, f), or the error, by (z0, z1)

    def bad(segment):
        return isinstance(done.get(segment), BoundaryProximityError)

    for _ in range(_MAX_NUDGES):
        (lo, hi), (a, b) = _extent(box, axis), _extent(box, 1 - axis)
        ends = [lo, *cuts, hi]
        parts = [_span(box, axis, x0, x1) for x0, x1 in zip(ends, ends[1:])]
        # the lines across the axis, each part's side 3 + axis (the first
        # part's) and 1 + axis, and the pieces along it
        across = [_segment(parts[0], (3 + axis) % 4),
                  *(_segment(part, 1 + axis) for part in parts)]
        along = [[_segment(part, side) for part in parts] for side in (axis, axis + 2)]
        wanted = [*(across[1:-1] if sides else across), *along[0], *along[1]]
        fresh = [segment for segment in wanted if segment not in done]
        # a piece of a box side with positions starts from its samples, at
        # (u0, u1) of the side, which runs backward for side axis + 2
        u = [(x - lo) / (hi - lo) for x in ends]
        v = [1.0 - x for x in u]
        lent = {}
        for side, pieces, spans in ((axis, along[0], zip(u, u[1:])),
                                    (axis + 2, along[1], zip(v[1:], v))):
            if sides and sides[side][0] is not None:
                lent.update(zip(pieces, ((sides[side], *span) for span in spans)))
        starts = [_piece(*lent[s]) if s in lent else None for s in fresh]
        for segment, r in zip(fresh, _sample(system, fresh, starts)):
            done[segment] = r
        xs = [x + _NUDGE * (hi - lo) * bad(line) for x, line in zip(ends, across)]
        ys = [y + _NUDGE * (b - a) * (not sides and any(map(bad, pieces)))
              for y, pieces in zip((a, b), along)]
        if xs == ends and ys == [a, b]:
            break
        kept = xs[:1]
        for x in xs[1:-1]:
            if x >= xs[-1]:
                break
            if x > kept[-1]:
                kept.append(x)
        box = _span(_span(box, axis, kept[0], xs[-1]), 1 - axis, *ys)
        cuts = kept[1:]
    else:
        raise BoundaryProximityError(f"line still near a zero after {_MAX_NUDGES} nudges")
    for segment in filter(bad, wanted):
        raise done[segment]  # a piece of an inherited side
    cut_lines = [done[line] for line in across[1:-1]]
    first, last = (sides[(3 + axis) % 4], sides[1 + axis]) if sides else (
        done[across[0]], done[across[-1]])
    backward = [(1.0 - t[::-1], f[::-1]) for t, f in cut_lines]  # for the part above
    out = []
    for part, bottom, top, right, left in zip(parts, *along, [*cut_lines, last],
                                              [first, *backward]):
        s = [done[bottom], right, done[top], left]  # sides 0-3 when axis is 0
        if not sides:  # a root box's sides keep their values only
            s = [(None, f) for _, f in s]
        out.append((part, s[-axis:] + s[:-axis]))
    return out


def _loop_winding(sides) -> tuple[int, float]:
    """Winding number around 0 of the closed loop through the sampled sides.

    Each side starts where the previous one ends.  Returns (count, max |f|)
    and raises :class:`SolverError` unless the phase sum is a nonnegative
    integer to within 1e-3 (a sample that overflowed makes it non-finite).
    """
    f = np.concatenate([f for _, f in sides])
    # duplicated corner points contribute zero-length (zero-phase) segments;
    # appending f[0] closes the loop
    total = _phase_steps(np.append(f, f[0])).sum() / (2.0 * np.pi)
    if not np.isfinite(total):
        raise SolverError(f"winding sum {total} is not finite")
    count = int(round(total))
    if abs(total - count) > 1e-3 or count < 0:
        raise SolverError(f"winding sum {total} is not a nonnegative integer")
    return count, float(np.max(np.abs(f)))


def count_zeros(system: BondSystem, box: SearchBox) -> int:
    """Number of secular zeros in (re_min, re_max] x (im_min, im_max], by the
    argument principle; a top at or above the axis goes up to Im k = min(1, 300/L)."""
    count, *_ = _winding_nudged(system, box)
    return count


def _winding_nudged(system: BondSystem, box: SearchBox):
    """(count, max |secular| on the boundary, the box actually used, its
    sampled sides), a side through a zero moved as ``_strips`` moves it."""
    # the Kirchhoff Laplacian is self-adjoint and nonnegative, so det M has
    # no zeros above the real axis: a top there clears the real eigenvalues.
    # |f| ~ e^{2 L Im k} on it, kept below e^600 past L = 300 m
    if box.im_max >= 0.0:
        length = float(np.sum(system.lengths[: system.n_edges]))
        box = _span(box, 1, box.im_min, max(box.im_max, 300.0 / max(length, 300.0)))
    [(box, sides)] = _strips(system, box, None, 0, [])
    return (*_loop_winding(sides), box, sides)


def find_zeros(system: BondSystem, box: SearchBox) -> ZeroSet:
    """All secular zeros in (re_min, re_max] x (im_min, im_max], polished to ~1e-12.

    The box is bisected (axes alternating) until each leaf holds at most
    ``_MAX_LEAF_COUNT`` zeros by winding count and its sides carry positions;
    Newton from each of the leaf's starts (:func:`_moment`) does the rest, or
    its leaf is bisected again.  The zeros go by Re k, and by Im k where Re k
    agrees within the dedup radius; the list is checked against the root
    winding total.
    """
    total, scale, box, sides = _winding_nudged(system, box)
    found: list[Resonance] = []
    _subdivide(system, box, sides, total, scale, 0, found)
    found.sort(key=lambda r: r.k.real)
    chain = np.cumsum(np.diff([r.k.real for r in found], prepend=-np.inf) >= _DEDUP_RADIUS)
    kept: list[Resonance] = []
    for _, r in sorted(zip(chain, found), key=lambda pair: (pair[0], pair[1].k.imag)):
        if not kept or abs(r.k - kept[-1].k) >= _DEDUP_RADIUS:
            kept.append(r)
    if len(kept) != total:
        raise SolverError(
            f"located {len(kept)} zeros but the boundary winding says {total}"
        )
    return ZeroSet(tuple(kept), scale)


def _subdivide(system, box, sides, count, scale, depth, out):
    """Append the ``count`` zeros of ``box`` to ``out``: a leaf of at most
    ``_MAX_LEAF_COUNT`` keeps the zeros of its Newton runs if :func:`_polish`
    accepts them all, and any other box is bisected across axis depth % 2."""
    if count == 0:
        return
    if depth > _MAX_DEPTH:
        raise SolverError(
            f"subdivision depth exceeded near {box}; zero of multiplicity "
            f"{count} or a solver defect"
        )
    if count <= _MAX_LEAF_COUNT and (starts := _moment(system, box, sides, count)):
        leaf = _polish(system, box, scale, starts)
        if leaf is not None:
            out.extend(leaf)
            return
        # a root side without positions, a failed run or two that met: shrink
    axis = depth % 2
    lo, hi = _extent(box, axis)
    for frac in _SPLIT_FRACTIONS:
        mid = lo + (hi - lo) * frac
        try:
            halves = _strips(system, box, sides, axis, [mid])
        except BoundaryProximityError:
            continue  # no nudge cleared the zeros near this line; jitter it
        counts = [_loop_winding(s)[0] for _, s in halves]
        if sum(counts) != count:
            # the shared cut cancels out of the sum: a fresh piece of a root
            # side, or an inherited one refined at the cut, disagrees with
            # the parent's samples; jitter as well
            continue
        for (half, s), c in zip(halves, counts):
            _subdivide(system, half, s, c, scale, depth + 1, out)
        return
    raise SolverError(f"no clean split line found for {box}")


def _moment(system, box, sides, count):
    """Newton starts for the ``count`` zeros of a leaf from its sampled sides, or
    None to bisect it: a side without positions (a root side), or a start not finite.

    In z = (k - centre) / h, h the leaf's larger side, the zeros' power sums
    are s_p = count z0^p - (p / 2 pi i) oint z^(p-1) log f dz round the loop
    from its first corner z0 (Delves & Lyness, Math. Comp. 21 (1967) 543), by
    the trapezoid rule; Newton's identities turn them into the monic polynomial
    whose roots are the starts.  log f = log|f| + i (phase + beta arg k), the
    phase summed from ``_loop_winding``'s steps: the sides wind f (conj k/|k|)^beta.
    """
    if any(t is None for t, _ in sides):
        return None
    segments = [_segment(box, side) for side in range(4)]
    ks = np.concatenate([z0 + (z1 - z0) * t for (z0, z1), (t, _) in zip(segments, sides)])
    f = np.concatenate([f for _, f in sides])
    phase = np.concatenate(([0.0], np.cumsum(_phase_steps(f))))
    log_f = np.log(np.abs(f)) + 1j * (phase + system.order_at_zero * np.angle(ks))
    centre = complex(box.re_min + box.re_max, box.im_min + box.im_max) / 2.0
    h = max(box.re_max - box.re_min, box.im_max - box.im_min)
    z, p = (ks - centre) / h, np.arange(1, count + 1)
    g = z ** (p[:, None] - 1) * log_f  # z^(p-1) log f, by row
    s = count * z[0] ** p - p * ((g[:, 1:] + g[:, :-1]) @ np.diff(z)) / (4j * np.pi)
    c = [1.0]  # the coefficients, by Newton's identities
    for n in p:
        c.append(-sum(c[n - i] * s[i - 1] for i in range(1, n + 1)) / n)
    roots = _roots(c)
    return [complex(centre + h * r) for r in roots] if np.isfinite(roots).all() else None


def _roots(coefficients):
    """Roots of the monic polynomial with ``coefficients`` (highest first), by
    Durand-Kerner iteration on Python complex scalars; iterates that meet give
    non-finite roots."""
    coefficients = [complex(c) for c in coefficients]
    z = [(0.4 + 0.9j) ** i for i in range(len(coefficients) - 1)]
    try:
        for _ in range(100):
            steps = []
            for i, zi in enumerate(z):
                value = 0j
                for c in coefficients:
                    value = value * zi + c
                steps.append(value / math.prod(zi - zj for j, zj in enumerate(z) if j != i))
            z = [zi - step for zi, step in zip(z, steps)]
            if not max(map(abs, steps)) > 1e-12:
                break
    except (ZeroDivisionError, OverflowError):  # Python raises where numpy gives inf
        return [complex(np.nan, np.nan)] * len(z)
    return z


def _polish(system, box, scale, starts):
    """Newton via the logarithmic derivative from each of a leaf's ``starts``
    (:func:`_moment`), the runs in lockstep: the accepted zeros, in the leaf,
    with their residuals |secular(k)|, or None to signal 'shrink the box'.

    Each step is one ``log_derivative`` call on the runs still moving.  A run
    stops where the step falls below the tolerance, or where its point is
    singular (numerically on the zero already); when a call of several points
    raises, they are evaluated again one at a time, so only the singular run
    stops.  One failing run fails the leaf: a zero log-derivative, a step
    outside the leaf grown by its larger side (which a non-finite k fails
    too), 80 steps without converging, a zero outside the leaf, two zeros
    that meet, or a zero above the residual gate.
    """
    ks = list(starts)
    margin = max(box.re_max - box.re_min, box.im_max - box.im_min)
    moving = list(range(len(ks)))
    for _ in range(80):
        try:
            lds = log_derivative(system, np.array([ks[i] for i in moving]))
        except np.linalg.LinAlgError:
            if len(moving) == 1:
                break  # singular: k is numerically on the zero already
            lds = [_log_derivative_or_none(system, ks[i]) for i in moving]
        still = []
        for i, ld in zip(moving, lds):
            if ld is None:
                continue  # singular, as above
            if ld == 0.0:
                return None
            step = -1.0 / complex(ld)
            ks[i] += step
            if not box.contains(ks[i], margin):
                return None
            if not abs(step) < _NEWTON_TOL:
                still.append(i)
        moving = still
        if not moving:
            break
    else:
        return None
    # each zero must belong to this leaf, not a neighbor's basin
    if not all(box.contains(k, _DEDUP_RADIUS) for k in ks):
        return None
    if any(abs(a - b) < _DEDUP_RADIUS for i, a in enumerate(ks) for b in ks[:i]):
        return None
    residuals = np.abs(secular_many(system, ks))
    if np.any(residuals > _RESIDUAL_REL * scale):
        return None
    return [Resonance(k, float(r)) for k, r in zip(ks, residuals)]


def _log_derivative_or_none(system, k):
    """``log_derivative`` at the one point k, or None where it is singular."""
    try:
        return log_derivative(system, [k])[0]
    except np.linalg.LinAlgError:
        return None


def counting_function(system: BondSystem, R_values, depth: float = STRIP_DEPTH):
    """Cumulative zero counts N(R) over strips [0, R] x [-depth, min(1, 300/L)].

    ``R_values`` must be positive and ascending.  The spectral point k = 0 is
    excluded (it is not a resonance).  No zero is located: the root strip up
    to the last R is cut at every other R into strips that share their
    vertical cuts, each strip is counted by its own winding number, and the
    running sum must reach the root strip's winding.  The cuts are sampled in
    one batch with the strips' sides.  A cut that passes through a zero is
    moved right by 1e-6 of the root span, so a zero at Re k = R counts in
    N(R); an R left of a moved cut shares it.
    """
    R = np.asarray(R_values, dtype=float)
    if R.size == 0 or np.any(R <= 0.0) or np.any(np.diff(R) <= 0.0):
        raise ValueError("R_values must be positive and strictly ascending")
    root = SearchBox(_K_MIN, float(R[-1]), -depth, 0.0)
    total, _, root, sides = _winding_nudged(system, root)
    inside = [float(r) for r in R[:-1] if r > root.re_min]
    strips = _strips(system, root, sides, 0, inside)
    windings = [_loop_winding(s)[0] for _, s in strips]
    edges = [root.re_min, *(strip.re_max for strip, _ in strips)]
    counts = np.concatenate([[0], np.cumsum(windings)])[np.searchsorted(edges, R)]
    if counts[-1] != total:
        raise SolverError(
            f"strip windings sum to {counts[-1]} but the root winding says {total}"
        )
    return [(float(r), int(n)) for r, n in zip(R, counts)]
