"""Directed-bond scattering model and the secular function.

Each internal edge is split into two directed bonds (forward bonds first,
then all reversals, so the length diagonal repeats:
``diag(l_1..l_N, l_1..l_N)``).  A wave leaving vertex v on bond b' after
arriving on bond b picks up the vertex amplitude ``2/d_v - delta``, where
``d_v`` counts all channels at v (bond ends plus leads) and delta is 1 only
for back-reflection.  Those amplitudes are unitary, real and symmetric on
every vertex, which is what makes the whole construction flux-conserving.

Everything below is built from one bond matrix, ``M(k) = I - e^{ikL} Sigma``:
resonances are the zeros of ``det M(k)`` continued into the lower half of
the complex k-plane, and the lead-to-lead scattering matrix is
``S(k) = rho_LL + rho_LB M(k)^-1 e^{ikL} rho_BL``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .graph import MetricGraph

# |e^{-Im k * L}| beyond e^700 overflows double precision
_EXP_ARG_LIMIT = 700.0
_CHUNK = 16384


@dataclass(frozen=True)
class BondSystem:
    """Immutable bond-level model of an open metric graph."""

    lengths: np.ndarray       # (2N,) bond lengths, m
    sigma: np.ndarray         # (2N, 2N) bond-to-bond amplitudes
    lead_in: np.ndarray       # (2N, M) lead -> bond
    lead_out: np.ndarray      # (M, 2N) bond -> lead
    lead_reflect: np.ndarray  # (M, M) lead -> lead

    @property
    def n_edges(self) -> int:
        return self.lengths.size // 2

    @property
    def n_bonds(self) -> int:
        return self.lengths.size

    @property
    def n_leads(self) -> int:
        return self.lead_reflect.shape[0]


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
    for a in (lengths, sigma, lead_in, lead_out, lead_reflect):
        a.setflags(write=False)
    return BondSystem(lengths, sigma, lead_in, lead_out, lead_reflect)


def _check_exponent_range(system: BondSystem, ks: np.ndarray) -> None:
    worst = np.max(-ks.imag) * system.lengths.max(initial=0.0)
    if worst > _EXP_ARG_LIMIT:
        raise OverflowError(
            f"Im k too deep: |exp(ikL)| would exceed e^{_EXP_ARG_LIMIT:.0f}"
        )


def _bond_matrices(system: BondSystem, ks):
    """Yield ``(e^{ikL}, M(k) = I - e^{ikL} Sigma)`` for each chunk of ``ks``.

    e^{ikL} is diagonal, so it scales the rows of Sigma; the product is
    turned into M in place, so a chunk holds a single batch of matrices.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    _check_exponent_range(system, ks)
    eye = np.eye(system.n_bonds)
    for lo in range(0, ks.size, _CHUNK):
        phases = np.exp(1j * ks[lo:lo + _CHUNK, None] * system.lengths)
        mats = phases[:, :, None] * system.sigma
        yield phases, np.subtract(eye, mats, out=mats)


def secular_many(system: BondSystem, ks) -> np.ndarray:
    """Vectorized ``det(I - e^{ikL} Sigma)`` over an array of wavenumbers."""
    return np.concatenate([np.linalg.det(m) for _, m in _bond_matrices(system, ks)])


def secular(system: BondSystem, k: complex) -> complex:
    """``det(I - e^{ikL} Sigma)``; its zeros are the resonances."""
    return complex(secular_many(system, [k])[0])


def log_derivative(system: BondSystem, k: complex) -> complex:
    """``secular'/secular = tr(M^-1 M')`` with ``M' = -i L e^{ikL} Sigma``.

    Finite and stable near zeros, where the secular function itself vanishes.
    """
    ((phases, mats),) = _bond_matrices(system, [k])
    Mp = -1j * (system.lengths * phases[0])[:, None] * system.sigma
    return complex(np.trace(np.linalg.solve(mats[0], Mp)))


def smatrix_many(system: BondSystem, ks) -> np.ndarray:
    """Lead-to-lead scattering matrices, shape (m, M, M).

    ``S = rho_LL + rho_LB (I - e^{ikL} Sigma)^-1 e^{ikL} rho_BL``: the bond
    matrix is the secular one, and e^{ikL} scales the rows of ``rho_BL``.
    """
    if system.n_leads == 0:
        raise ValueError("graph has no leads; the scattering matrix is empty")
    return np.concatenate([
        system.lead_reflect
        + system.lead_out @ np.linalg.solve(mats, phases[:, :, None] * system.lead_in)
        for phases, mats in _bond_matrices(system, ks)
    ])


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
