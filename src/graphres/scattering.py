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
k-plane.  Deep down ``|det M|`` grows like ``e^{-2 Im k L}`` (L the total
edge length), so the secular function is ``F(k) = e^{-2ikL} det M(k) =
det A(k)``, ``A(k) = e^{-ikL} - Sigma``: the same zeros and windings, and
bounded in the lower half-plane, where ``|e^{-ik l}| <= 1``.  The
lead-to-lead scattering matrix is ``S(k) = rho_LL + rho_LB A(k)^-1 rho_BL``.

Both are evaluated through the V x V vertex matrix instead.  Per edge
e = (a, b) let ``w_e = e^{-ik l_e}`` and ``s_e = w_e^2 - 1``, and let

    K(k) = sum_e (w_e/s_e)(E_ab + E_ba) - (1/s_e)(E_aa + E_bb),
    H(k) = I_V - W K(k),   W = diag(2/d_v).

Sigma is ``T W E - R`` (bond start and end incidences T and E, bond
reversal R), so ``A = (e^{-ikL} + R) - T W E``.  The first term is block
diagonal with determinant ``prod_e s_e``, and the matrix determinant lemma
and the Woodbury identity give

    F(k) = prod_e s_e * det H(k),
    S(k) = -I_M + Q^T H(k)^-1 W Q,

with Q the V x M lead-anchor incidence.  A lead-free vertex of two bond
ends on two distinct edges passes a wave from one into the other with
amplitude 1, so merging it away, and its two edges into one of their summed
length, leaves F and S unchanged.  The vertex form is built with every
such vertex merged (``vertex_lengths`` are its edges); A(k) keeps the
graph's own bonds.  Two kinds of point are evaluated on A(k) itself.  The
product cancels with an error of order eps/|1 - e^{2ik l_e}|^2, so a point
with some ``|s_e| < 1e-2 |w_e|^2`` on a vertex-form edge (a real k within
about 0.005/l_e of a Dirichlet point n pi/l_e) is one.  The other kind
exists only on a graph with a balanced vertex (as many leads as bond ends)
that loses its leading term.  H has the constant diagonal h0_v = (leads_v -
bond ends_v)/d_v (see ``_vertex_terms``), and deep in the lower half-plane
w/s -> 0 and w^2/s -> 0, so H -> diag(h0).  With every h0_v nonzero, det H
tends to prod h0 and nothing cancels: on random 2-5-vertex graphs down to
Im k = -8 the vertex form stays within 4e-13 of the bond matrix relative,
and on the fixtures within 4e-14 of 50-digit arithmetic down to Im k = -40.
A balanced vertex b has h0_b = 0.  If its edges are no loops and reach
distinct neighbours u, none balanced or shared with another balanced
vertex, H's Schur complement onto b (n_b bond ends) is

    -(1/n_b) sum_e w_e^2 (1 - 2/x_u) + O(w^3),    x_u = excess_u,

as H_UU tends to diag(h0_U), nonsingular off the balanced set.  Where the
terms of b's shortest edges do not sum to 0 (``_keeps_leading_terms``) every
balanced row keeps its leading term, det H keeps its relative accuracy, and
the vertex form serves every depth: on nW1, nW2, the generated benchmark
graphs and 700 random graphs with tied edge lengths it stays within 6e-14
of 40-digit arithmetic down to Im k = -16.  Where they cancel (a neighbour
of excess 2, or excesses 1, 4 and 4 on equal edges) what is left is an
order of w smaller than what cancelled, and the relative error grows like a
power of ``|1/w_e| = e^{-Im k l_e}``: 2e-6 at Im k = -16 on a pendant joined
to a vertex of excess 2.  Such a graph keeps a bound.  The cancellation
stays within the closure of the balanced vertices that ``effective_size``
searches (``graph._near_balanced``: it takes in a vertex of bond ends -
leads = 2j once j of its ends lie on its edges), and a point below Im k =
-1.5/l, l the longest vertex-form edge that holds an edge of the closure
(``vertex_depth``), is the other kind.  Short of that bound, on about 4 660
random 2-5-vertex graphs with a balanced vertex (8 points each, down to
Im k = -8), the vertex form stays within 5.1e-13 of the bond matrix
relative to max(|.|, 1), for the determinant and S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .graph import MetricGraph, _near_balanced

# the vertex form loses digits below this min_e |1 - e^{2ik l_e}|, and on a
# graph whose balanced vertex loses its leading term above this (-Im k) l =
# -log |e^{-ik l}|, l the longest vertex-form edge that holds an edge of
# graph._near_balanced
_MIN_EDGE_GAP = 1e-2
_MAX_EDGE_DEPTH = 1.5
# a balanced vertex's leading term sums over its edges within this relative
# margin of its shortest.  With one of three tied 0.5 m edges whose terms
# cancel lengthened by 1e-3 m (inside), 5.1e-3 or 1e-2 m (outside), the
# vertex form stayed within 7e-14, 2e-14 and 3e-14 of 40-digit arithmetic
# from Im k = -1 to -32
_LEADING_MARGIN = 1e-2
# log_derivative factors H only from this bond count up.  Below it the bond
# matrix's stacked inverse costs less than the vertex form's extra array
# steps at the few points a Newton call carries (2.6 on average).  Bond path
# against vertex form, us per call: W1 (14 bonds) 38/56 at one point, 54/62
# at three; 18 bonds 44/55, 57/58, 71/62 and 86/61 at one to four points;
# 20 bonds 46/57, 64/59, 78/59 and 98/65 (perfbench random_graph draws of 9
# and 10 edges; 10th percentiles, 2-core Xeon VM, one BLAS thread)
_MIN_NEWTON_BONDS = 20
# one batch of points, on either form, allocates about this many bytes
# (``_batch_size``); LAPACK works per matrix, so no value depends on it.
# Smaller batches slow the fixtures' calls, larger ones leave glibc more
# freed heap between calls (a 5-vertex batch: 618 points, 80 bonds: 10)
_BATCH_BYTES = 2 ** 20


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
    # group its coefficient columns (w/s per edge, then -w^2/s per edge), the
    # index of its first term, its flat position and its row weight
    h_terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    # the deepest -Im k the vertex form serves (see the module docstring):
    # finite only where a balanced vertex (some h0_v = 0) loses its leading term
    vertex_depth: float
    # the order of F's zero at k = 0: E - V + 1 over the vertex form's V
    # vertices with edges, plus 1 if none of them has a lead
    order_at_zero: int

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
    joined = [[i] for i in range(N)]
    on = {v: [c % N for c in out if c < n] for v, out in channels.items()}
    for v, out in channels.items():
        if len(out) == 2 == len(on[v]) and on[v][0] != on[v][1]:
            i, j = on[v]  # edge i takes edge j's far end y and its edges
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
    vertex_lengths = np.array([math.fsum(graph.edges[j].length for j in joined[i])
                               for i in kept])
    degree = np.array([len(channels[v]) for v in on])
    bond_ends = np.bincount(ends.ravel(), minlength=degree.size)
    excess = 2 * bond_ends - degree
    weights = 2.0 / degree
    anchors = np.array([index[l.anchor] for l in graph.leads], dtype=np.intp)
    h_terms = _vertex_terms(ends, degree, excess)
    # inf where every balanced vertex keeps its leading term, else 1.5/l, l
    # the longest vertex-form edge that holds an edge of the closure
    vertex_depth = np.inf
    if not _keeps_leading_terms(ends, excess, vertex_lengths):
        near = set(_near_balanced(graph))
        vertex_depth = min(_MAX_EDGE_DEPTH / l for i, l in zip(kept, vertex_lengths)
                           if near.intersection(joined[i]))
    V = np.count_nonzero(bond_ends)
    order_at_zero = int(V and len(kept) - V + 1 + (not bond_ends[anchors].any()))
    for a in (lengths, sigma, lead_in, lead_out, lead_reflect, weights, anchors,
              vertex_lengths, *h_terms):
        a.setflags(write=False)
    return BondSystem(lengths, sigma, lead_in, lead_out, lead_reflect, weights,
                      anchors, vertex_lengths, h_terms, vertex_depth, order_at_zero)


def _vertex_terms(ends: np.ndarray, degree: np.ndarray, excess: np.ndarray):
    """The constant diagonal of H and its k-dependent terms grouped by position.

    Writing ``-1/s = 1 - w^2/s`` moves a constant ``2/d_v`` per bond end into
    ``h0_v = (leads_v - bond ends_v) / d_v = -excess_v / d_v``, which is
    exactly 0 on a balanced vertex, so deep in the lower half-plane, where
    ``w^2/s -> 0``, the diagonal is not a difference of two numbers near 1.
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


def _keeps_leading_terms(ends: np.ndarray, excess: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether H keeps a leading term on every balanced vertex b, deep down.

    Its edges must be no loops and reach distinct neighbours u, none of them
    balanced or shared with another balanced vertex.  Then H_UU tends to
    diag(h0_U), and H's Schur complement onto b to ``-(1/n_b) sum_e w_e^2 (1
    - 2/x_u)``, x_u = excess_u; its largest terms, over the edges within
    ``_LEADING_MARGIN`` of b's shortest, must not sum to 0.  The sum is
    tested in integers, as ``sum_i (x_i - 2) prod_{j != i} x_j``.
    """
    balanced = set(np.flatnonzero(excess == 0).tolist())
    pairs, reached = ends.tolist(), set()
    for b in balanced:
        edges = [(l, u if v == b else v) for (v, u), l in zip(pairs, lengths) if b in (v, u)]
        far = {u for _, u in edges}
        if b in far or len(far) < len(edges) or far & (balanced | reached):
            return False
        reached |= far
        shortest = min(edges)[0] * (1.0 + _LEADING_MARGIN)
        x = [int(excess[u]) for l, u in edges if l <= shortest]
        if not sum((xi - 2) * math.prod(x[:i] + x[i + 1:]) for i, xi in enumerate(x)):
            return False
    return True


def _batch_size(system: BondSystem, form: str, derivative: bool = False) -> int:
    """Points per ``form`` ("vertex" or "bond") batch within ``_BATCH_BYTES``: a
    vertex point takes H, its LU copy and 8 numbers per edge of temporaries, a
    bond point A and its diagonal.  A ``derivative`` point takes twice that:
    H and H', or A and its inverse."""
    V, E, n = system.n_vertices, system.vertex_lengths.size, system.n_bonds
    entries = 2 * V * V + 8 * E if form == "vertex" else n * n + n
    entries *= 1 + derivative
    return max(1, _BATCH_BYTES // (16 * max(entries, 1)))  # leads only: no bonds


def _bond_matrices(system: BondSystem, ks: np.ndarray):
    """``(e^{-ikL}, A(k) = e^{-ikL} - Sigma)`` for one batch of ``ks``.

    e^{-ikL} is diagonal, so it is added to the diagonal of -Sigma in place,
    and a batch holds a single set of matrices.
    """
    n = system.n_bonds
    w = np.exp(-1j * ks[:, None] * system.lengths)
    mats = np.empty((ks.size, n, n), dtype=complex)
    mats[:] = -system.sigma
    mats.reshape(ks.size, n * n)[:, ::n + 1] += w
    return w, mats


def _vertex_matrices(system: BondSystem, w: np.ndarray, s: np.ndarray,
                     derivative: bool) -> np.ndarray:
    """``H(k)`` for one batch of points the vertex form serves.

    ``w`` holds ``e^{-ik l_e}`` and ``s`` holds ``w^2 - 1``, one row per
    point.  With ``derivative``, ``H(k)`` is stacked on ``H'(k)``, which
    takes ``(w/s)' = i l w (1 + w^2) / s^2`` and ``(-w^2/s)' = -2i l w^2 /
    s^2`` through the same terms.
    """
    V = system.n_vertices
    h0, column, first, flat, row_weight = system.h_terms
    inv = 1.0 / s
    coef = np.concatenate([w * inv, -w * w * inv], axis=1)
    if derivative:
        q = 1j * system.vertex_lengths * w * inv * inv
        dcoef = np.concatenate([q * (1.0 + w * w), -2.0 * q * w], axis=1)
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
    H[:w.shape[0], ::V + 1] += h0
    return H.reshape(-1, V, V)


def _evaluate(system: BondSystem, ks, shape, vertex, bond,
              derivative: bool = False) -> np.ndarray:
    """``vertex(w, s, H)`` at each point, or ``bond(e^{-ikL}, A)`` where it must.

    The one walk over points.  Every point is left for the bond matrix when
    ``vertex`` is None, and otherwise one with ``-Im k > system.vertex_depth``
    before its phases are taken, and one with some ``|s_e| < _MIN_EDGE_GAP
    |w_e|^2`` on a vertex-form edge before any division.  The others take
    the vertex form, then the points left take the bond matrix, each in
    batches of ``_batch_size(system, form, derivative)`` points, so the two
    forms never coexist.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    ell = system.vertex_lengths
    out = np.empty((ks.size, *shape), dtype=complex)
    if vertex is None:
        bonded = np.ones(ks.size, dtype=bool)
    else:
        bonded = ks.imag < -system.vertex_depth
    served = np.flatnonzero(~bonded)
    any_bonded = served.size < ks.size
    step = _batch_size(system, "vertex", derivative)
    for lo in range(0, served.size, step):
        at = served[lo:lo + step]
        w = np.exp(-1j * ks[at][:, None] * ell)
        s = w * w - 1.0
        near = (np.abs(s) < _MIN_EDGE_GAP * np.abs(w) ** 2).any(axis=1)
        if np.count_nonzero(near):  # cheaper than near.any() on a few points
            any_bonded = True
            bonded[at[near]] = True
            at, w, s = at[~near], w[~near], s[~near]
        if at.size:
            out[at] = vertex(w, s, _vertex_matrices(system, w, s, derivative))
        del w, s
    if not any_bonded:
        return out
    left = np.flatnonzero(bonded)
    step = _batch_size(system, "bond", derivative)
    for lo in range(0, left.size, step):
        at = left[lo:lo + step]
        out[at] = bond(*_bond_matrices(system, ks[at]))
    return out


def secular_many(system: BondSystem, ks) -> np.ndarray:
    """Vectorized ``F(k) = det(e^{-ikL} - Sigma) = prod_e s_e det H`` over wavenumbers."""
    return _evaluate(
        system, ks, (),
        lambda w, s, H: s.prod(axis=1) * np.linalg.det(H),
        lambda w, mats: np.linalg.det(mats),
    )


def log_derivative(system: BondSystem, ks):
    """``(det M)'/det M = F'/F + 2iL``, finite and stable near zeros, at each
    of an array of wavenumbers.

    Where the vertex form serves k, on a graph of at least
    ``_MIN_NEWTON_BONDS`` bonds, it is ``sum_e -2i l_e/s_e + tr(H^-1 H')``;
    elsewhere ``2iL + tr(A^-1 A')`` with the diagonal ``A' = -i L e^{-ikL}``.
    A singular matrix at any point raises ``numpy.linalg.LinAlgError``.
    """
    def bond(w, mats):
        dA = -1j * system.lengths * w
        diagonal = np.linalg.inv(mats).diagonal(axis1=1, axis2=2)
        return 1j * system.lengths.sum() + (diagonal[:, None, :] @ dA[:, :, None])[:, 0, 0]

    def vertex(w, s, H):
        ds = -2j * system.vertex_lengths / s
        m = w.shape[0]
        return ds.sum(axis=1) + np.linalg.solve(H[:m], H[m:]).trace(axis1=1, axis2=2)

    small = system.n_bonds < _MIN_NEWTON_BONDS
    return _evaluate(system, ks, (), None if small else vertex, bond, derivative=True)


def _solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``mats^-1 rhs`` per matrix of a stack; the one 2-D ``rhs`` is stacked
    explicitly, as numpy < 2 reads a 2-D right-hand side as vectors."""
    return np.linalg.solve(mats, np.broadcast_to(rhs, (mats.shape[0], *rhs.shape)))


def smatrix_many(system: BondSystem, ks) -> np.ndarray:
    """Lead-to-lead scattering matrices, shape (m, M, M).

    ``S = -I_M + Q^T H^-1 W Q``; on the bond matrix, where the vertex form
    loses digits, ``S = rho_LL + rho_LB A^-1 rho_BL``.
    """
    M = system.n_leads
    if M == 0:
        raise ValueError("graph has no leads; the scattering matrix is empty")
    leads = np.arange(M)
    wq = np.zeros((system.n_vertices, M))
    wq[system.anchors, leads] = system.weights[system.anchors]

    def vertex(w, s, H):
        S = _solve(H, wq)[:, system.anchors, :]
        S[:, leads, leads] -= 1.0
        return S

    return _evaluate(
        system, ks, (M, M), vertex,
        lambda w, mats: system.lead_reflect
        + system.lead_out @ _solve(mats, system.lead_in),
    )


def det_smatrix_modulus(system: BondSystem, nu, absorption: float = 0.0):
    """|det S| at ``k = 2 pi nu / c + i * absorption``, one per frequency in ``nu``.

    Lossless (absorption 0) values are exactly 1 up to roundoff; positive
    absorption pulls the evaluation line toward the resonance poles and
    carves a dip near each one.
    """
    if not 0.0 <= absorption < np.inf:
        raise ValueError(f"absorption must be finite and >= 0, got {absorption}")
    nu = np.asarray(nu, dtype=float)
    if not np.all((0.0 < nu) & (nu < np.inf)):
        raise ValueError("frequencies must be finite and positive")
    ks = 2.0 * np.pi * nu / C0 + 1j * absorption
    return np.abs(np.linalg.det(smatrix_many(system, ks)))
