"""Directed-bond scattering model and the secular function.

Each internal edge is split into two directed bonds (forward bonds first,
then all reversals, so the length diagonal repeats:
``diag(l_1..l_N, l_1..l_N)``).  A wave leaving vertex v on bond b' after
arriving on bond b picks up the vertex amplitude ``2/d_v - delta``, where
``d_v`` counts all channels at v (bond ends plus leads) and delta is 1 only
for back-reflection.  Those amplitudes are unitary, real and symmetric on
every vertex, which is what makes the whole construction flux-conserving.

The model is the bond matrix ``M(k) = I - e^{ikL} Sigma``: resonances are
the zeros of ``det M(k)`` continued into the lower half of the complex
k-plane, and the lead-to-lead scattering matrix is
``S(k) = rho_LL + rho_LB M(k)^-1 e^{ikL} rho_BL``.

Both are evaluated through the V x V vertex matrix instead.  Per edge
e = (a, b) let ``z_e = e^{ik l_e}`` and ``s_e = 1 - z_e^2``, and let

    K(k) = sum_e (z_e/s_e)(E_ab + E_ba) - (z_e^2/s_e)(E_aa + E_bb),
    H(k) = I_V - W K(k),   W = diag(2/d_v).

Sigma is ``T W E - R`` (bond start and end incidences T and E, bond
reversal R), so ``M = (I + e^{ikL} R) - e^{ikL} T W E``.  The first term is
block diagonal with determinant ``prod_e s_e``, and the matrix determinant
lemma and the Woodbury identity give

    det M(k) = prod_e s_e * det H(k),
    S(k) = -I_M + Q^T H(k)^-1 W Q,

with Q the V x M lead-anchor incidence.  A lead-free vertex of two bond
ends on two distinct edges passes a wave from one into the other with
amplitude 1, so merging it away, and its two edges into one of their summed
length, leaves det M and S unchanged.  The vertex form is built with every
such vertex merged (``vertex_lengths`` are its edges); M(k) keeps the
graph's own bonds.  Two kinds of point are evaluated on M(k) itself.  The
product cancels with an error of order eps/|s_e|^2, so a point with some
``|s_e| < 1e-2`` on a vertex-form edge (a real k within about 0.005/l_e of
a Dirichlet point n pi/l_e) is one.  The other kind exists only on a graph
with a balanced vertex (as many leads as bond ends).  H has the constant
diagonal h0_v = (leads_v - bond ends_v)/d_v (see ``_vertex_terms``), and
deep in the lower half-plane z/s -> 0 and 1/s -> 0, so H -> diag(h0).  With
every h0_v nonzero, det H tends to prod h0 and nothing cancels, and the
vertex form serves every depth: on random 2-5-vertex graphs down to
Im k = -8 it stays within 4e-13 of M(k) relative, and on the fixtures
within 4e-14 of 50-digit arithmetic down to Im k = -40.  A balanced vertex
has no constant term, and its row of H cancels along chains of edges:
joined to a closed vertex it gives a block determinant of order
1/(s_1 s_2) out of terms of order 1/s_1, so the relative error grows like a
power of ``|z_e| = e^{-Im k l_e}``.  The chains pass only through vertices
of bond ends - leads = 0 or 2 (see ``_vertex_depth``), and a point below
Im k = -1.5/l, l the longest edge they reach (``vertex_depth``), is the
other kind.  Short of that bound, on about 4 660 random 2-5-vertex graphs
with a balanced vertex (8 points each, down to Im k = -8), the vertex form
stays within 5.1e-13 of M(k) relative to max(|.|, 1), for det M and S.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .graph import MetricGraph

# log of the largest double: deep in the lower half-plane |det M(k)| grows
# like prod_e |e^{ik l_e}|^2 = e^{-2 Im k L}, and beyond this bound neither
# det M, prod_e s_e nor e^{2ik l_e} is safe
_LOG_DOUBLE_MAX = float(np.log(np.finfo(float).max))
# the vertex form loses digits below this min_e |1 - e^{2ik l_e}|, and on a
# graph with a balanced vertex above this (-Im k) l = log |e^{ik l}|, l the
# longest edge the balanced rows reach (see _vertex_depth)
_MIN_EDGE_GAP = 1e-2
_MAX_EDGE_DEPTH = 1.5
# log_derivative factors H only from this bond count up: below it, solving
# the bond matrix costs less than the vertex form's extra array steps (the
# two cross between 28 and 32 bonds, one point per call)
_MIN_NEWTON_BONDS = 32
# one batch of points, on either form, holds at most this many bytes of the
# larger matrix, bond or vertex; LAPACK works per matrix, so the batch size
# never changes a value.  Small, so that peak memory hardly depends on how
# many points a graph sends to the bond matrix (an 80-bond batch: 81 points)
_BATCH_BYTES = 8 * 2 ** 20


@dataclass(frozen=True)
class BondSystem:
    """Immutable bond-level model of an open metric graph, with its vertex form."""

    lengths: np.ndarray       # (2N,) bond lengths, m
    sigma: np.ndarray         # (2N, 2N) bond-to-bond amplitudes
    lead_in: np.ndarray       # (2N, M) lead -> bond
    lead_out: np.ndarray      # (M, 2N) bond -> lead
    lead_reflect: np.ndarray  # (M, M) lead -> lead
    weights: np.ndarray       # (V,) diagonal of W, 2/d_v
    anchors: np.ndarray       # (M,) vertex index of each lead (Q)
    vertex_lengths: np.ndarray  # (E,) edge lengths of the vertex form, m
    # H = diag(h0) - (terms grouped by flat position in H): h0, then per
    # group its coefficient columns (z/s per edge, then -1/s per edge), the
    # index of its first term, its flat position and its row weight
    h_terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    # the deepest -Im k the vertex form serves (see _vertex_depth): finite
    # only with a balanced vertex (some h0_v = 0)
    vertex_depth: float

    @property
    def n_edges(self) -> int:
        return self.lengths.size // 2

    @property
    def n_bonds(self) -> int:
        return self.lengths.size

    @property
    def n_leads(self) -> int:
        return self.lead_reflect.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.weights.size


def vertex_matrix(d: int) -> np.ndarray:
    """Scattering amplitudes at a degree-``d`` vertex: ``2/d - I``."""
    if d < 1:
        raise ValueError(f"vertex degree must be >= 1, got {d}")
    return np.full((d, d), 2.0 / d) - np.eye(d)


def build_bond_system(graph: MetricGraph) -> BondSystem:
    graph.validate()
    N = len(graph.edges)
    n = 2 * N
    ell = np.array([e.length for e in graph.edges], dtype=float)
    lengths = np.concatenate([ell, ell])

    # channels: bonds 0..2N-1, then the leads.  Bond b leaves starts[b] and
    # its reversal is (b + N) mod 2N; a lead is its own reversal.  Row c of
    # ``full`` is outgoing channel c and column reverse[c] the incoming
    # channel that back-reflects into it, so the vertex rule is one block.
    starts = [e.a for e in graph.edges] + [e.b for e in graph.edges]
    starts += [l.anchor for l in graph.leads]
    reverse = np.concatenate([np.arange(N, n), np.arange(N), np.arange(n, len(starts))])
    channels: dict[int, list[int]] = {}
    for c, v in enumerate(starts):
        channels.setdefault(v, []).append(c)
    full = np.zeros((len(starts), len(starts)))
    for out in channels.values():
        full[np.ix_(out, reverse[out])] = vertex_matrix(len(out))

    bonds, leads = slice(0, n), slice(n, None)
    sigma, lead_in, lead_out, lead_reflect = (
        full[rows, cols].copy() for rows in (bonds, leads) for cols in (bonds, leads)
    )

    # vertex form (see the module docstring): merge away every lead-free
    # vertex of two bond ends on two distinct edges.  A merge never makes
    # another vertex mergeable, so one pass suffices.
    pairs = [[e.a, e.b] for e in graph.edges]
    joined = [[l] for l in ell]
    on = {v: [c % N for c in out if c < n] for v, out in channels.items()}
    for v, out in channels.items():
        if len(out) == 2 == len(on[v]) and on[v][0] != on[v][1]:
            i, j = on[v]  # edge i takes edge j's far end y and its lengths
            y = pairs[j][pairs[j][0] == v]
            pairs[i][pairs[i].index(v)] = y
            joined[i] += joined[j]
            pairs[j] = None
            on[y][on[y].index(j)] = i
            del on[v]
    # the remaining vertices are numbered in channel-map order
    index = {v: i for i, v in enumerate(on)}
    kept = [i for i, p in enumerate(pairs) if p is not None]
    ends = np.array([[index[v] for v in pairs[i]] for i in kept], dtype=np.intp)
    ends = ends.reshape(-1, 2)
    # one rounding per merged edge: on random 2-5-vertex graphs a running
    # sum put det M up to 1.5e-13 off the bond matrix, this 8.6e-14
    vertex_lengths = np.array([math.fsum(joined[i]) for i in kept])
    degree = np.array([len(channels[v]) for v in on])
    excess = 2 * np.bincount(ends.ravel(), minlength=degree.size) - degree
    weights = 2.0 / degree
    anchors = np.array([index[l.anchor] for l in graph.leads], dtype=np.intp)
    h_terms = _vertex_terms(ends, degree, excess)
    vertex_depth = _vertex_depth(ends, vertex_lengths, excess)
    for a in (lengths, sigma, lead_in, lead_out, lead_reflect, weights, anchors,
              vertex_lengths, *h_terms):
        a.setflags(write=False)
    return BondSystem(lengths, sigma, lead_in, lead_out, lead_reflect, weights,
                      anchors, vertex_lengths, h_terms, vertex_depth)


def _vertex_depth(ends: np.ndarray, lengths: np.ndarray, excess: np.ndarray) -> float:
    """The deepest -Im k the vertex form serves: ``_MAX_EDGE_DEPTH / l``.

    A balanced vertex (bond ends - leads = 0) has no constant term, and the
    leading deep term of its row carries ``1 + 2/(leads_a - ends_a)`` per
    neighbour a, so it cancels only through neighbours of excess 0 or 2.
    l is the longest edge reached from a balanced vertex through such
    vertices; without a balanced vertex every depth is served.
    """
    reached = excess == 0
    if not reached.any():
        return np.inf
    a, b = ends.T
    while True:
        edges = reached[a] | reached[b]
        grown = np.zeros_like(reached)
        grown[a[edges]] = grown[b[edges]] = True
        grown &= (excess == 0) | (excess == 2)
        if (grown == reached).all():
            return _MAX_EDGE_DEPTH / lengths[edges].max()
        reached = grown


def _vertex_terms(ends: np.ndarray, degree: np.ndarray, excess: np.ndarray):
    """The constant diagonal of H and its k-dependent terms grouped by position.

    Writing ``-z^2/s = 1 - 1/s`` moves a constant ``2/d_v`` per bond end into
    ``h0_v = (leads_v - bond ends_v) / d_v = -excess_v / d_v``, which is
    exactly 0 on a balanced vertex, so deep in the lower half-plane, where
    ``z^2/s -> -1``, the diagonal is not a difference of two numbers near 1.
    """
    V, N = degree.size, ends.shape[0]
    a, b = ends.T
    flat = np.concatenate([a * V + b, b * V + a, a * V + a, b * V + b])
    column = np.concatenate([np.arange(N), np.arange(N), np.arange(N, 2 * N),
                             np.arange(N, 2 * N)])
    order = np.argsort(flat, kind="stable")
    flat, column = flat[order], column[order]
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    h0 = -excess / degree
    return h0, column, first, flat[first], 2.0 / degree[flat[first] // V]


def _wavenumbers(system: BondSystem, ks) -> np.ndarray:
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    # only the edges' growth counts: at real k M(k) is bounded and S(k) unitary
    growth = -2.0 * ks.imag.min(initial=0.0) * system.lengths[:system.n_edges].sum()
    if growth > _LOG_DOUBLE_MAX:
        raise OverflowError(
            f"Im k too deep: |det M(k)| may grow like e^{growth:.0f}, beyond "
            "double precision"
        )
    return ks


def _batch_size(system: BondSystem) -> int:
    """Points per batch of the larger matrix, bond or vertex, within ``_BATCH_BYTES``."""
    n = max(system.n_bonds, system.n_vertices)
    return max(1, _BATCH_BYTES // (16 * n * n))


def _bond_matrices(system: BondSystem, ks: np.ndarray):
    """``(e^{ikL}, M(k) = I - e^{ikL} Sigma)`` for one batch of ``ks``.

    e^{ikL} is diagonal, so it scales the rows of Sigma; the product is
    turned into M in place, so a batch holds a single set of matrices.
    """
    phases = np.exp(1j * ks[:, None] * system.lengths)
    mats = phases[:, :, None] * system.sigma
    return phases, np.subtract(np.eye(system.n_bonds), mats, out=mats)


def _vertex_matrices(system: BondSystem, z: np.ndarray, s: np.ndarray,
                     derivative: bool) -> np.ndarray:
    """``H(k)`` for one batch of points the vertex form serves.

    ``z`` holds ``e^{ik l_e}`` and ``s`` holds ``1 - z^2``, one row per
    point.  With ``derivative``, ``H(k)`` is stacked on ``H'(k)``, which
    takes ``(z/s)' = i l z (1 + z^2) / s^2`` and ``(-1/s)' = -2i l z^2 /
    s^2`` through the same terms.
    """
    V = system.n_vertices
    h0, column, first, flat, row_weight = system.h_terms
    inv = 1.0 / s
    coef = np.concatenate([z * inv, -inv], axis=1)
    if derivative:
        q = 1j * system.vertex_lengths * z * inv * inv
        dcoef = np.concatenate([q * (1.0 + z * z), -2.0 * q * z], axis=1)
        coef = np.concatenate([coef, dcoef])
    del inv
    # -W times the coefficients summed per position of H.  These
    # temporaries, not H, set a batch's peak memory, so each step rebinds
    # coef and frees the previous one.
    if column.size:  # a graph of leads only has no edge terms
        coef = coef.take(column, axis=1)
        coef = np.add.reduceat(coef, first, axis=1)
        coef *= -row_weight
    H = np.zeros((coef.shape[0], V * V), dtype=complex)
    H[:, flat] = coef
    H[:z.shape[0], ::V + 1] += h0
    return H.reshape(-1, V, V)


def _evaluate(system: BondSystem, ks, shape, vertex, bond,
              derivative: bool = False) -> np.ndarray:
    """``vertex(z, s, H)`` at each point, or ``bond(e^{ikL}, M)`` where it must.

    The one loop over points: ``_batch_size(system)`` points at a time.  A
    point with ``-Im k > system.vertex_depth`` is left for the bond matrix
    before its phases are taken, and one with some ``|s_e| <
    _MIN_EDGE_GAP`` on a vertex-form edge before any division.  A batch's
    vertex work is done and freed before its bond matrices are built, so
    the two never coexist.
    """
    ks = _wavenumbers(system, ks)
    ell = system.vertex_lengths
    out = np.empty((ks.size, *shape), dtype=complex)
    step = _batch_size(system)
    for lo in range(0, ks.size, step):
        batch, part = ks[lo:lo + step], out[lo:lo + step]
        served = -batch.imag <= system.vertex_depth
        z = np.exp(1j * batch[served, None] * ell)
        s = 1.0 - z * z
        near = (np.abs(s) < _MIN_EDGE_GAP).any(axis=1)
        if near.any():
            served[served] = ~near
            z, s = z[~near], s[~near]
        if served.any():
            part[served] = vertex(z, s, _vertex_matrices(system, z, s, derivative))
        del z, s
        if not served.all():
            part[~served] = bond(*_bond_matrices(system, batch[~served]))
    return out


def secular_many(system: BondSystem, ks) -> np.ndarray:
    """Vectorized ``det(I - e^{ikL} Sigma) = prod_e s_e det H`` over wavenumbers."""
    return _evaluate(
        system, ks, (),
        lambda z, s, H: s.prod(axis=1) * np.linalg.det(H),
        lambda phases, mats: np.linalg.det(mats),
    )


def secular(system: BondSystem, k: complex) -> complex:
    """``det(I - e^{ikL} Sigma)``; its zeros are the resonances."""
    return complex(secular_many(system, [k])[0])


def log_derivative(system: BondSystem, k: complex) -> complex:
    """``secular'/secular``, finite and stable near zeros.

    Where the vertex form serves k, on a graph of at least
    ``_MIN_NEWTON_BONDS`` bonds, it is ``sum_e s_e'/s_e + tr(H^-1 H')`` with
    ``s_e' = -2i l_e z_e^2``; elsewhere ``tr(M^-1 M')`` with
    ``M' = -i L e^{ikL} Sigma``.
    """
    def bond(phases, mats):
        Mp = -1j * (system.lengths * phases[0])[:, None] * system.sigma
        return np.trace(np.linalg.solve(mats[0], Mp))

    def vertex(z, s, H):
        ds = -2j * system.vertex_lengths * z[0] * z[0]
        return ds @ (1.0 / s[0]) + np.linalg.solve(H[0], H[1]).trace()

    if system.n_bonds < _MIN_NEWTON_BONDS:
        return complex(bond(*_bond_matrices(system, _wavenumbers(system, [k]))))
    return complex(_evaluate(system, [k], (), vertex, bond, derivative=True)[0])


def smatrix_many(system: BondSystem, ks) -> np.ndarray:
    """Lead-to-lead scattering matrices, shape (m, M, M).

    ``S = -I_M + Q^T H^-1 W Q``; on the bond matrix, where the vertex form
    loses digits, ``S = rho_LL + rho_LB M^-1 e^{ikL} rho_BL``, with e^{ikL}
    scaling the rows of ``rho_BL``.
    """
    M = system.n_leads
    if M == 0:
        raise ValueError("graph has no leads; the scattering matrix is empty")
    leads = np.arange(M)
    wq = np.zeros((system.n_vertices, M))
    wq[system.anchors, leads] = system.weights[system.anchors]

    def vertex(z, s, H):
        # a stacked right-hand side: numpy < 2 reads a 2-D one as vectors
        rhs = np.broadcast_to(wq, (H.shape[0], *wq.shape))
        S = np.linalg.solve(H, rhs)[:, system.anchors, :]
        S[:, leads, leads] -= 1.0
        return S

    return _evaluate(
        system, ks, (M, M), vertex,
        lambda phases, mats: system.lead_reflect + system.lead_out
        @ np.linalg.solve(mats, phases[:, :, None] * system.lead_in),
    )


def external_smatrix(system: BondSystem, k: complex) -> np.ndarray:
    """Scattering matrix ``rho_LL + rho_LB (I - e^{ikL} Sigma)^-1 e^{ikL} rho_BL``.

    Unitary for real k on a lossless graph; its poles sit at the secular
    zeros, so values within ~1e-12 of a resonance are flagged as unreliable.
    """
    if abs(secular(system, k)) < 1e-12:
        warnings.warn(
            f"k={k} is numerically at a resonance; scattering matrix is "
            "near-singular",
            RuntimeWarning,
            stacklevel=2,
        )
    return smatrix_many(system, [k])[0]


def det_smatrix_modulus(system: BondSystem, nu, absorption: float = 0.0):
    """|det S| at ``k = 2 pi nu / c + i * absorption``.

    Lossless (absorption 0) values are exactly 1 up to roundoff; positive
    absorption pulls the evaluation line toward the resonance poles and
    carves a dip near each one.
    """
    if absorption < 0.0:
        raise ValueError(f"absorption must be >= 0, got {absorption}")
    nu_arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if np.any(nu_arr <= 0.0):
        raise ValueError("frequencies must be positive")
    ks = 2.0 * np.pi * nu_arr / C0 + 1j * absorption
    mods = np.abs(np.linalg.det(smatrix_many(system, ks)))
    return float(mods[0]) if np.isscalar(nu) or np.ndim(nu) == 0 else mods
