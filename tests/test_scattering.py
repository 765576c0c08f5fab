import dataclasses
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphres import (
    FIXTURE_NAMES,
    C0,
    Edge,
    Lead,
    MetricGraph,
    balanced_vertices,
    build_bond_system,
    det_smatrix_modulus,
    effective_size,
    fixture,
    interval,
    load_graph,
    secular_many,
    smatrix_many,
    vertex_matrix,
)

import graphres.scattering as scattering
from graphres.scattering import log_derivative

from conftest import BAND_HZ

DATA = Path(__file__).resolve().parent / "data"


def band_ks(n=200):
    return 2.0 * np.pi * np.linspace(*BAND_HZ, n) / C0


class TestVertexMatrix:
    def test_dead_end_reflects_with_plus_sign(self):
        assert np.array_equal(vertex_matrix(1), [[1.0]])

    def test_degree_two_transmits_perfectly(self):
        assert np.array_equal(vertex_matrix(2), [[0.0, 1.0], [1.0, 0.0]])

    def test_degree_three(self):
        m = vertex_matrix(3)
        assert np.allclose(np.diag(m), -1.0 / 3.0)
        assert m[0, 1] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_symmetric_real_unitary(self, d):
        m = vertex_matrix(d)
        assert np.array_equal(m, m.T)
        assert np.isrealobj(m)
        assert np.allclose(m @ m.T, np.eye(d), atol=1e-14)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            vertex_matrix(0)


class TestBondSystem:
    def test_length_diagonal_repeats(self):
        s = build_bond_system(fixture("W1"))
        n = s.n_edges
        assert np.array_equal(s.lengths[:n], s.lengths[n:])

    def test_sigma_sparsity_follows_connectivity(self):
        g = fixture("W2")
        s = build_bond_system(g)
        n = len(g.edges)
        init = [e.a for e in g.edges] + [e.b for e in g.edges]
        term = [e.b for e in g.edges] + [e.a for e in g.edges]
        for b in range(2 * n):
            for bp in range(2 * n):
                if s.sigma[bp, b] != 0.0:
                    assert init[bp] == term[b]

    def test_compact_sigma_unitary(self):
        for g in (interval(1.0), MetricGraph(fixture("W1").edges)):
            s = build_bond_system(g)
            assert np.allclose(s.sigma @ s.sigma.T.conj(), np.eye(s.n_bonds), atol=1e-12)

    def test_open_sigma_is_a_contraction(self):
        for name in FIXTURE_NAMES:
            s = build_bond_system(fixture(name))
            assert np.linalg.norm(s.sigma, ord=2) <= 1.0 + 1e-12

    def test_full_vertex_matrix_flux_conserving(self):
        # internal bonds plus leads at each vertex together must form the
        # unitary vertex matrix; equivalently [sigma lead_in; lead_out
        # lead_reflect] as a whole is unitary
        s = build_bond_system(fixture("nW1"))
        full = np.block([[s.sigma, s.lead_in], [s.lead_out, s.lead_reflect]])
        assert np.allclose(full @ full.T, np.eye(full.shape[0]), atol=1e-12)

    def test_vertex_form_follows_the_channel_map(self):
        g = REFERENCE_GRAPHS[-1]  # a self-loop and two leads on vertex 2
        s = build_bond_system(g)
        vertices = [1, 2]  # channel-map order: first bond start first
        _, column, first, flat, _ = s.h_terms
        cells = flat[np.searchsorted(first, np.arange(column.size), side="right") - 1]
        for c, e in enumerate(g.edges):  # edge c's z/s terms sit at (a, b) and (b, a)
            got = sorted(tuple(vertices[i] for i in divmod(p, len(vertices)))
                         for p in cells[column == c])
            assert got == sorted([(e.a, e.b), (e.b, e.a)])
        assert [vertices[i] for i in s.anchors] == [l.anchor for l in g.leads]
        # vertex 1: two bond ends and a lead; vertex 2: four and two leads
        assert np.array_equal(s.weights, [2.0 / 3.0, 2.0 / 6.0])
        assert np.array_equal(s.h_terms[0], [(1 - 2) / 3, (2 - 4) / 6])

    def test_rejects_invalid_graph(self):
        from graphres import Edge, GraphError

        bad = MetricGraph((Edge(1, 1, 2, 1.0), Edge(1, 2, 3, 0.0)))
        with pytest.raises(GraphError, match="duplicate edge id 1.*non-positive"):
            build_bond_system(bad)


class TestSecular:
    def test_neumann_interval_closed_form(self):
        # F = e^{-2ikL} det M
        s = build_bond_system(interval(1.0))
        ks = np.linspace(0.3, 12.0, 23) - 0.2j
        want = (1.0 - np.exp(2j * ks)) * np.exp(-2j * ks)
        assert np.allclose(secular_many(s, ks), want, atol=1e-12)

    def test_lead_interval_is_identically_one(self):
        # det M = e^{2ikL} F is identically 1
        s = build_bond_system(interval(1.0, leads=1))
        ks = np.linspace(0.1, 60.0, 50) - 1.0j * np.linspace(0.0, 3.0, 50)
        assert np.allclose(np.exp(2j * ks) * secular_many(s, ks), 1.0, atol=1e-12)

    def test_value_at_zero_wavenumber(self):
        for name in FIXTURE_NAMES:
            s = build_bond_system(fixture(name))
            expected = np.linalg.det(np.eye(s.n_bonds) - s.sigma)
            assert secular_many(s, [0.0])[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [10.0 - 400.0j, 10.0 - 4000.0j])
    def test_far_below_the_axis_against_50_digits(self, k):
        # |det M| would grow like e^{-2 Im k L} = e^799 and e^7992 on W1's
        # 0.999 m; F = e^{-2ikL} det M stays bounded
        s = build_bond_system(fixture("W1"))
        want = _mp_secular(s, k)
        assert abs(secular_many(s, [k])[0] - want) <= 1e-13 * max(abs(want), 1.0)

    def test_a_graph_of_600_edges_is_evaluated_at_real_k(self, bond_points):
        # nothing grows on the real axis, however many edges the graph has
        system = build_bond_system(_random_graph(600, 3))
        ell = system.lengths[:system.n_edges]
        ks = np.linspace(50.0, 60.0, 2001)
        gap = np.abs(1.0 - np.exp(2j * ks[:, None] * ell)).min(axis=1)
        ks = ks[gap >= scattering._MIN_EDGE_GAP][:4]
        assert ks.size == 4
        assert np.all(np.isfinite(secular_many(system, ks)))
        S = smatrix_many(system, ks)
        assert np.allclose(S @ S.conj().transpose(0, 2, 1), np.eye(2), atol=1e-10)
        assert not bond_points

    def test_mean_value_over_a_circle(self):
        # analytic functions equal the average of their values on any
        # surrounding circle; trapezoid quadrature on a periodic integrand
        # converges spectrally, so 64 points reach ~1e-12
        s = build_bond_system(fixture("W1"))
        k0 = 20.0 - 1.0j
        angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        ring = secular_many(s, k0 + np.exp(1j * angles))
        assert np.mean(ring) == pytest.approx(secular_many(s, [k0])[0], abs=1e-8)

    @given(st.floats(0.5, 40.0), st.floats(-2.0, -0.01))
    @settings(max_examples=30, deadline=None)
    def test_scaling_covariance(self, re, im):
        k = complex(re, im)
        g = fixture("W1")
        doubled = MetricGraph(
            tuple(type(e)(e.id, e.a, e.b, 2.0 * e.length) for e in g.edges),
            g.leads,
        )
        a = secular_many(build_bond_system(g), [k])[0]
        b = secular_many(build_bond_system(doubled), [k / 2.0])[0]
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestLogDerivative:
    def test_interval_closed_form(self):
        s = build_bond_system(interval(1.0))
        k = 3.7 - 0.4j
        expected = -2j * np.exp(2j * k) / (1.0 - np.exp(2j * k))
        assert log_derivative(s, [k])[0] == pytest.approx(expected, rel=1e-10)

    @given(st.floats(1.0, 40.0), st.floats(-1.5, -0.05))
    @settings(max_examples=25, deadline=None)
    def test_matches_finite_differences(self, re, im):
        # log_derivative is (det M)'/det M, det M = e^{2ikL} F
        s = build_bond_system(fixture("nW2"))
        L = s.lengths[:s.n_edges].sum()

        def det_m(k):
            return np.exp(2j * k * L) * secular_many(s, [k])[0]

        k = complex(re, im)
        h = 1e-6
        fd = (det_m(k + h) - det_m(k - h)) / (2.0 * h * det_m(k))
        assert log_derivative(s, [k])[0] == pytest.approx(fd, rel=1e-6)

    def test_nilpotent_derivative_vanishes(self):
        # the secular function is identically 1; only LU roundoff remains
        s = build_bond_system(interval(1.0, leads=1))
        ks = [4.2 - 0.3j, 30.0 - 2.0j, 0.1 - 5.0j]
        assert np.all(np.abs(log_derivative(s, ks)) <= 1e-14)


def _reference_blocks(graph):
    """Sigma and the lead blocks from the explicit ``2/d - delta`` loops."""
    edges, leads = graph.edges, graph.leads
    N, M = len(edges), len(leads)
    init = [e.a for e in edges] + [e.b for e in edges]
    term = [e.b for e in edges] + [e.a for e in edges]
    deg = {v: term.count(v) + sum(l.anchor == v for l in leads) for v in graph.vertices}
    sigma = np.zeros((2 * N, 2 * N))
    lead_in = np.zeros((2 * N, M))
    lead_out = np.zeros((M, 2 * N))
    lead_reflect = np.zeros((M, M))
    for b in range(2 * N):
        t = 2.0 / deg[term[b]]
        for bp in range(2 * N):
            if init[bp] == term[b]:
                sigma[bp, b] = t - (1.0 if bp == (b + N) % (2 * N) else 0.0)
        for m, l in enumerate(leads):
            if l.anchor == term[b]:
                lead_out[m, b] = t
    for m, l in enumerate(leads):
        t = 2.0 / deg[l.anchor]
        for bp in range(2 * N):
            if init[bp] == l.anchor:
                lead_in[bp, m] = t
        for m2, l2 in enumerate(leads):
            if l2.anchor == l.anchor:
                lead_reflect[m2, m] = t - (1.0 if m2 == m else 0.0)
    return sigma, lead_in, lead_out, lead_reflect


def _reference_smatrix(system, k):
    """``rho_LL + rho_LB e^{ikL} (I - Sigma e^{ikL})^-1 rho_BL`` at one k."""
    P = np.diag(np.exp(1j * k * system.lengths))
    inner = np.linalg.inv(np.eye(system.n_bonds) - system.sigma @ P)
    return system.lead_reflect + system.lead_out @ P @ inner @ system.lead_in


REFERENCE_GRAPHS = [fixture(name) for name in FIXTURE_NAMES] + [
    MetricGraph(
        (Edge(1, 1, 2, 0.3), Edge(2, 2, 2, 0.17), Edge(3, 1, 2, 0.21)),
        (Lead(1, 1), Lead(2, 2), Lead(3, 2)),
    )
]


@pytest.mark.parametrize("graph", REFERENCE_GRAPHS, ids=[*FIXTURE_NAMES, "self-loop"])
class TestAgainstReference:
    def test_blocks_equal_the_vertex_loops(self, graph):
        s = build_bond_system(graph)
        for got, want in zip(
            (s.sigma, s.lead_in, s.lead_out, s.lead_reflect), _reference_blocks(graph)
        ):
            assert np.array_equal(got, want)

    def test_smatrix_matches_the_other_orientation(self, graph):
        s = build_bond_system(graph)
        ks = np.concatenate([band_ks(40), band_ks(40) - 0.3j])
        want = np.array([_reference_smatrix(s, k) for k in ks])
        assert np.max(np.abs(smatrix_many(s, ks) - want)) < 1e-12


def _bond_secular(system, k):
    """``F(k) = det(e^{-ikL} - Sigma)`` on the 2N x 2N bond matrix."""
    return np.linalg.det(np.diag(np.exp(-1j * k * system.lengths)) - system.sigma)


def _bond_smatrix(system, k):
    """``rho_LL + rho_LB M^-1 e^{ikL} rho_BL`` in the bond matrix's own orientation."""
    phases = np.exp(1j * k * system.lengths)
    mat = np.eye(system.n_bonds) - phases[:, None] * system.sigma
    return system.lead_reflect + system.lead_out @ np.linalg.solve(
        mat, phases[:, None] * system.lead_in)


VERTEX_GRAPHS = {
    **dict(zip([*FIXTURE_NAMES, "self-loop"], REFERENCE_GRAPHS)),
    "multi-edge": MetricGraph(
        (Edge(1, 1, 2, 0.3), Edge(2, 1, 2, 0.45), Edge(3, 2, 3, 0.2), Edge(4, 2, 3, 0.27)),
        (Lead(1, 1), Lead(2, 3)),
    ),
    "pendant": MetricGraph(
        (Edge(1, 1, 2, 0.31), Edge(2, 2, 3, 0.22), Edge(3, 3, 1, 0.17), Edge(4, 3, 4, 0.4)),
        (Lead(1, 1), Lead(2, 2)),
    ),
    "leads-only-vertex": MetricGraph(
        (Edge(1, 1, 2, 0.4), Edge(2, 1, 2, 0.25)),
        (Lead(1, 1), Lead(2, 3), Lead(3, 3)),
    ),
    "triangle": MetricGraph((Edge(1, 1, 2, 0.3), Edge(2, 2, 3, 0.2), Edge(3, 3, 1, 0.5))),
    "one-lead-interval": interval(1.0, leads=1),
}


def _dirichlet_band(system, ell=None):
    """k = n pi / l_e + delta, delta = 1e-3 .. 1e-12: the bond-matrix points.

    ``ell`` defaults to the graph's edges; the bond matrix takes these
    points for the vertex form's own edges, ``system.vertex_lengths``.
    """
    ell = system.lengths[:system.n_edges] if ell is None else ell
    return np.array([n * np.pi / l + d for l in ell for n in (1, 5, 40)
                     for d in 10.0 ** -np.arange(3, 13)])


def _assert_reduction(system, ks, oracle_smatrix=_reference_smatrix,
                      oracle_secular=_bond_secular):
    """The vertex form against the bond-matrix oracles at the points ``ks``.

    The determinant F is compared relative to max(|F|, 1): at a real-axis
    eigenvalue of a compact graph both forms keep only absolute accuracy.
    S is compared to 1e-12 absolute, relative to |S| where |S| > 1 (deep in
    the lower half-plane S grows like e^{|Im k| l}).
    """
    got = secular_many(system, ks)
    want = np.array([oracle_secular(system, k) for k in ks])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    if system.n_leads:
        got = smatrix_many(system, ks)
        want = np.array([oracle_smatrix(system, k) for k in ks])
        size = np.maximum(np.abs(want).max(axis=(1, 2)), 1.0)
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * size)


@pytest.mark.parametrize("name", list(VERTEX_GRAPHS))
class TestVertexReduction:
    """``F = prod_e s_e det H`` and ``S = -I + Q^T H^-1 W Q`` match the bond matrix."""

    def test_random_lower_half_plane(self, name):
        rng = np.random.default_rng(7)
        ks = rng.uniform(1.0, 400.0, 200) - 1j * rng.uniform(0.0, 8.0, 200)
        _assert_reduction(build_bond_system(VERTEX_GRAPHS[name]), ks)

    def test_real_axis(self, name):
        ks = np.linspace(0.5, 400.0, 801)
        _assert_reduction(build_bond_system(VERTEX_GRAPHS[name]), ks)

    def test_dirichlet_band_uses_the_bond_matrix(self, name, bond_points):
        # several of these graphs have embedded eigenvalues at common
        # Dirichlet points, where S is a removable singularity and the two
        # bond orientations disagree; the bond matrix's own orientation is
        # the oracle here
        system = build_bond_system(VERTEX_GRAPHS[name])
        _assert_reduction(system, _dirichlet_band(system), _bond_smatrix)
        # the bond matrix takes over at the Dirichlet points of the vertex
        # form's own (merged) edges; W1 and nW1 repeat a length, so as sets
        near = _dirichlet_band(system, system.vertex_lengths)
        bond_points.clear()
        _assert_reduction(system, near, _bond_smatrix)
        assert set(near.tolist()) <= set(np.asarray(bond_points).tolist())


class TestMergedChains:
    """A lead-free vertex of two bond ends leaves the vertex form."""

    # vertex 2 joins the 0.1 m and 0.2 m edges into the other graph's 0.3 m one
    CHAIN = MetricGraph(
        (Edge(1, 1, 2, 0.1), Edge(2, 2, 3, 0.2), Edge(3, 3, 4, 0.35), Edge(4, 4, 3, 0.4)),
        (Lead(1, 1), Lead(2, 4)),
    )
    MERGED = MetricGraph(
        (Edge(1, 1, 3, 0.3), Edge(3, 3, 4, 0.35), Edge(4, 4, 3, 0.4)),
        (Lead(1, 1), Lead(2, 4)),
    )

    def test_the_chain_and_its_merged_graph_agree(self):
        chain, merged = build_bond_system(self.CHAIN), build_bond_system(self.MERGED)
        assert chain.n_vertices == merged.n_vertices == 3
        rng = np.random.default_rng(5)
        ks = np.concatenate([rng.uniform(1.0, 400.0, 200) - 1j * rng.uniform(0.0, 8.0, 200),
                             np.linspace(0.5, 400.0, 801)])
        for evaluate in (secular_many, smatrix_many):
            got, want = evaluate(chain, ks), evaluate(merged, ks)
            size = np.maximum(np.abs(want).reshape(ks.size, -1).max(axis=1), 1.0)
            assert np.all(np.abs(got - want).reshape(ks.size, -1).max(axis=1) <= 1e-12 * size)

    def test_the_chain_and_its_merged_graph_share_one_effective_size(self):
        assert effective_size(self.CHAIN) == pytest.approx(0.75, abs=1e-12)
        assert effective_size(self.MERGED) == pytest.approx(0.75, abs=1e-12)

    def test_vertex_counts(self):
        assert build_bond_system(VERTEX_GRAPHS["triangle"]).n_vertices == 1
        assert build_bond_system(LOG_DERIVATIVE_GRAPHS["balanced-41"]).n_vertices == 19


def _bond_log_derivative(system, k):
    """``tr(M^-1 M')`` on the 2N x 2N bond matrix."""
    phases = np.exp(1j * k * system.lengths)
    mat = np.eye(system.n_bonds) - phases[:, None] * system.sigma
    deriv = -1j * (system.lengths * phases)[:, None] * system.sigma
    return complex(np.trace(np.linalg.solve(mat, deriv)))


def _random_graph(n_edges, seed):
    """A random spanning tree plus chords, 0.05-0.3 m edges, two leads."""
    rng = np.random.default_rng(seed)
    n = round(0.55 * n_edges)
    pairs = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    while len(pairs) < n_edges:
        a, b = rng.choice(np.arange(1, n + 1), 2, replace=False)
        pairs.append((int(a), int(b)))
    edges = tuple(Edge(i + 1, a, b, float(rng.uniform(0.05, 0.3)))
                  for i, (a, b) in enumerate(pairs))
    return MetricGraph(edges, (Lead(1, 1), Lead(2, n)))


def _with_balanced_pendant(graph):
    """The graph with its last lead moved onto a new pendant edge, which
    leaves the new vertex balanced (one bond end, one lead)."""
    v = max(graph.vertices) + 1
    *leads, last = graph.leads
    return MetricGraph(
        (*graph.edges, Edge(len(graph.edges) + 1, last.anchor, v, 0.2)),
        (*leads, Lead(last.id, v)),
    )


def _balanced(graph):
    return bool(balanced_vertices(graph))


LOG_DERIVATIVE_GRAPHS = {
    **dict(zip([*FIXTURE_NAMES, "self-loop"], REFERENCE_GRAPHS)),
    "random-40": _random_graph(40, 5),
    "balanced-41": _with_balanced_pendant(_random_graph(40, 5)),
    # its balanced pendant's leading term cancels, so it keeps a depth bound
    "g1-e20-pendant": load_graph(DATA / "g1-e20-pendant.graph"),
}


@pytest.fixture()
def bond_points(monkeypatch):
    """The points each call sends to the bond matrix."""
    seen = []
    bond = scattering._bond_matrices

    def spy(system, ks):
        seen.extend(ks)
        return bond(system, ks)

    monkeypatch.setattr(scattering, "_bond_matrices", spy)
    return seen


class TestLogDerivativeVertexForm:
    @pytest.mark.parametrize("name", list(LOG_DERIVATIVE_GRAPHS))
    def test_vertex_form_matches_the_bond_matrix(self, name, bond_points, monkeypatch):
        # the small graphs take the vertex form only without the size rule
        monkeypatch.setattr(scattering, "_MIN_NEWTON_BONDS", 0)
        graph = LOG_DERIVATIVE_GRAPHS[name]
        system = build_bond_system(graph)
        ell = system.lengths[:system.n_edges]
        rng = np.random.default_rng(11)
        # without a balanced vertex the vertex form serves every depth
        depth = scattering._MAX_EDGE_DEPTH / ell.max() if _balanced(graph) else 8.0
        ks = rng.uniform(1.0, 400.0, 200) - 1j * rng.uniform(0.0, depth, 200)
        gap = np.abs(1.0 - np.exp(2j * ks[:, None] * ell)).min(axis=1)
        served = gap >= scattering._MIN_EDGE_GAP
        ks, gap = ks[served], gap[served]
        got = log_derivative(system, ks)
        assert not bond_points
        want = np.array([_bond_log_derivative(system, k) for k in ks])
        # H' holds 1/s^2 terms, so near an edge gap the vertex form keeps
        # about eps/|s|^2 relative accuracy, 2e-12 at the gap itself
        assert np.all(np.abs(got - want) <= (1e-12 + 1e-15 / gap ** 2) * np.abs(want))

    def test_deep_and_near_dirichlet_points_take_the_bond_path(self, bond_points):
        graph = LOG_DERIVATIVE_GRAPHS["g1-e20-pendant"]
        assert _balanced(graph)
        system = build_bond_system(graph)
        assert system.n_bonds >= scattering._MIN_NEWTON_BONDS
        deep = [complex(re, -1.01 * system.vertex_depth) for re in (3.0, 40.0, 200.0)]
        near = list(_dirichlet_band(system, system.vertex_lengths)[::25])
        got = log_derivative(system, deep + near)
        assert bond_points == deep + near
        for k, ld in zip(deep + near, got):
            assert ld == pytest.approx(_bond_log_derivative(system, k), rel=1e-12)
        # the bound over every edge is shallower: the points between the
        # two stay on the vertex form
        ell = system.lengths[:system.n_edges]
        bound = scattering._MAX_EDGE_DEPTH / ell.max()
        assert bound < system.vertex_depth
        between = [complex(re, -im) for re in (3.0, 40.0, 200.0)
                   for im in (1.01 * bound, 0.99 * system.vertex_depth)]
        bond_points.clear()
        got = log_derivative(system, between)
        assert not bond_points
        for k, ld in zip(between, got):
            assert ld == pytest.approx(_bond_log_derivative(system, k), rel=1e-12)

    @pytest.mark.parametrize("name", ["W1", "random-40"])
    def test_deep_points_without_a_balanced_vertex_stay_off_the_bond_path(
            self, name, bond_points, monkeypatch):
        # W1 has too few bonds for Newton's vertex form without the size rule
        monkeypatch.setattr(scattering, "_MIN_NEWTON_BONDS", 0)
        graph = LOG_DERIVATIVE_GRAPHS[name]
        assert not _balanced(graph)
        system = build_bond_system(graph)
        ell = system.lengths[:system.n_edges]
        ks = np.array([complex(re, -depth / ell.max())
                       for re in (3.0, 40.0, 200.0)
                       for depth in (1.01 * scattering._MAX_EDGE_DEPTH, 4.0, 8.0)])
        _assert_reduction(system, ks)
        got = log_derivative(system, ks)
        assert not bond_points
        want = np.array([_bond_log_derivative(system, k) for k in ks])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_small_graphs_take_the_bond_path(self, bond_points):
        system = build_bond_system(fixture("nW2"))
        assert system.n_bonds < scattering._MIN_NEWTON_BONDS
        log_derivative(system, [10.3 - 0.2j])  # a point the vertex form serves
        assert bond_points == [10.3 - 0.2j]


@st.composite
def small_graphs(draw, lengths=st.floats(0.05, 1.0)):
    """Connected 2-5-vertex graphs; self-loops, parallel edges and 0-4 leads."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
    edges = tuple(Edge(i + 1, a, b, draw(lengths)) for i, (a, b) in enumerate(pairs))
    anchors = draw(st.lists(st.integers(1, n), max_size=4))
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(edges, leads)


# off the real axis: there a random graph may have an embedded eigenvalue,
# where S is a removable singularity that neither form resolves
@given(small_graphs(), st.floats(1.0, 100.0), st.floats(-4.0, -0.05))
@example(  # a path to a pendant vertex: |S| ~ 3e7, and H alone loses 4 digits
    MetricGraph(
        (Edge(1, 1, 2, 1.0), Edge(2, 1, 3, 1.0), Edge(3, 1, 4, 1.0), Edge(4, 2, 5, 1.0)),
        (Lead(1, 5),),
    ),
    1.0, -4.0,
)
@settings(max_examples=60, deadline=None)
def test_vertex_reduction_on_random_graphs(graph, re, im):
    _assert_reduction(build_bond_system(graph), np.array([complex(re, im)]))


@given(small_graphs(), st.floats(1.0, 100.0), st.floats(-8.0, -0.05))
@settings(max_examples=60, deadline=None)
def test_vertex_reduction_deep_without_a_balanced_vertex(graph, re, im):
    assume(not _balanced(graph))
    _assert_reduction(build_bond_system(graph), np.array([complex(re, im)]))


@given(small_graphs(), st.floats(1.0, 100.0), st.floats(0.0, 1.0))
@example(  # the leading-term test lifts the bound: Im k = -8, |S| ~ 4e6
    MetricGraph((Edge(1, 1, 2, 1.0), Edge(2, 1, 3, 1.0)), (Lead(1, 1), Lead(2, 1))),
    1.0, 1.0,
)
@settings(max_examples=60, deadline=None)
def test_vertex_reduction_down_to_the_depth_bound(graph, re, fraction):
    # with a balanced vertex the vertex form serves down to vertex_depth.
    # Where the leading-term test lifts it, Im k reaches -8, and there the
    # bond matrix's own S loses up to 2e-10 relative (a balanced vertex with
    # two 1 m pendants), so the oracles take 50 digits
    assume(_balanced(graph))
    system = build_bond_system(graph)
    im = -0.05 - fraction * (min(8.0, system.vertex_depth) - 0.05)
    _assert_reduction(system, np.array([complex(re, im)]), _mp_smatrix, _mp_secular)


@st.composite
def open_graphs(draw):
    """``small_graphs`` with 1-4 leads, which may sit on a vertex beyond the
    edges' (a vertex with leads only)."""
    graph = draw(small_graphs())
    n = max(graph.vertices)
    anchors = draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=4))
    return MetricGraph(graph.edges, tuple(Lead(i + 1, v) for i, v in enumerate(anchors)))


@given(open_graphs(), st.floats(1.0, 60.0), st.floats(-6.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_det_s_is_the_secular_ratio_on_random_graphs(graph, re, im):
    # det S(k) = (-1)^{E+M+V} e^{-2ikL} F(-k)/F(k), V counting every vertex:
    # smatrix_many against secular_many, each in whichever form serves k
    system = build_bond_system(graph)
    k = np.array([complex(re, im)])
    sign = (-1) ** (len(graph.edges) + len(graph.leads) + len(graph.vertices))
    want = (sign * np.exp(-2j * k * sum(e.length for e in graph.edges))
            * secular_many(system, -k) / secular_many(system, k))[0]
    got = np.linalg.det(smatrix_many(system, k))[0]
    assert abs(got - want) <= 1e-10 * max(abs(got), 1.0)


@given(open_graphs(), st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(-9.0, 0.0)),
                              min_size=1, max_size=40),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans())
@example(  # vertex 3 is balanced: below Im k = -3.75 its points take the bond matrix
    MetricGraph((Edge(1, 1, 2, 0.3), Edge(2, 1, 2, 0.7), Edge(3, 2, 3, 0.4)),
                (Lead(1, 3), Lead(2, 1))),
    [(7.0, -9.0), (7.5, -2.0), (40.0, -5.0)], 2, 2, 0, True,
)
@example(  # 80 bonds: log_derivative takes the vertex form of 15 vertices unpatched
    load_graph(DATA / "g1-e40.graph"), [(7.0, -9.0), (7.5, -2.0), (40.0, -0.5)], 3, 2, 0,
    False,
)
@settings(max_examples=40, deadline=None)
def test_batches_equal_single_points_on_random_graphs(graph, points, vertex_batch,
                                                      bond_batch, seed, vertex_newton):
    # log_derivative takes the bond matrix below _MIN_NEWTON_BONDS bonds, so
    # the vertex form's derivative needs the rule off on these small graphs
    system = build_bond_system(graph)
    ks = np.concatenate([[complex(re, im) for re, im in points],
                         _dirichlet_band(system, system.vertex_lengths)[::11]])
    np.random.default_rng(seed).shuffle(ks)
    sizes = {"vertex": vertex_batch, "bond": bond_batch}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scattering, "_batch_size",
                      lambda system, form, derivative=False: sizes[form])
        if vertex_newton:
            patch.setattr(scattering, "_MIN_NEWTON_BONDS", 0)
        for evaluate in (secular_many, smatrix_many, log_derivative):
            batched = evaluate(system, ks)
            single = np.array([evaluate(system, [k])[0] for k in ks])
            assert np.array_equal(batched, single, equal_nan=True)


def _mp_secular(system, k):
    """``F(k) = det(e^{-ikL} - Sigma)`` in 50-digit arithmetic.

    Sigma's entries are ``2/d - delta``, recovered exactly as fractions;
    the lengths and k are taken as the doubles the library sees.
    """
    with mpmath.workdps(50):
        n = system.n_bonds
        k = mpmath.mpc(k.real, k.imag)
        mat = mpmath.zeros(n)
        for b in range(n):
            mat[b, b] = mpmath.exp(-1j * k * mpmath.mpf(system.lengths[b]))
            for c in np.flatnonzero(system.sigma[b]):
                x = Fraction(system.sigma[b, c]).limit_denominator(1000)
                mat[b, c] -= mpmath.mpf(x.numerator) / x.denominator
        return complex(mpmath.det(mat))


def _mp_smatrix(system, k):
    """``rho_LL + rho_LB (I - e^{ikL} Sigma)^-1 e^{ikL} rho_BL`` in 50-digit
    arithmetic, the blocks recovered as in ``_mp_secular``."""
    def exact(a):
        fractions = [[Fraction(x).limit_denominator(1000) for x in row] for row in a]
        return mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                              for row in fractions])

    with mpmath.workdps(50):
        n = system.n_bonds
        k = mpmath.mpc(k.real, k.imag)
        phases = mpmath.diag([mpmath.exp(1j * k * mpmath.mpf(l)) for l in system.lengths])
        inner = mpmath.inverse(mpmath.eye(n) - phases * exact(system.sigma))
        S = exact(system.lead_reflect) + (
            exact(system.lead_out) * inner * phases * exact(system.lead_in))
        return np.array(S.tolist(), dtype=complex)


@pytest.mark.parametrize("name, im", [
    pytest.param(name, im, id=f"{im}-{name}")
    for name, im in [("W1", -8.0), ("W1", -40.0), ("triangle", -8.0),
                     ("triangle", -40.0), ("nW1", -8.0)]
])
def test_deep_vertex_form_against_50_digits(name, im, bond_points):
    # W1 and the triangle have no balanced vertex; nW1's lies behind edges
    # short enough for the vertex form to serve its whole box
    system = build_bond_system(VERTEX_GRAPHS[name])
    assert -im <= system.vertex_depth
    ks = np.array([complex(re, im) for re in (3.0, 37.3, 211.9)])
    got = secular_many(system, ks)
    assert not bond_points
    want = np.array([_mp_secular(system, k) for k in ks])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


def test_balanced_pendant_behind_a_lead_free_chain_against_50_digits():
    # vertex 7 is balanced, and the path 4-2-1-3-5-6-7 merges into one
    # 5.14 m edge to vertex 4 (excess -1), so its leading term stays and the
    # vertex form serves every depth.  The 1.3e-11 once lost at Im k = -1.49
    # was the unmerged form's; the merged one stays within 1.6e-13 relative
    # of 40 digits from Im k = -0.2 to -6 at Re k <= 120, a limit set by the
    # phase rounding on the 5.14 m edge, not by depth.
    graph = MetricGraph(
        (Edge(1, 1, 2, 0.3), Edge(2, 1, 3, 1.0), Edge(3, 2, 4, 0.8438922877457612),
         Edge(4, 3, 5, 1.0), Edge(5, 5, 6, 1.0), Edge(6, 6, 7, 1.0)),
        (Lead(1, 4), Lead(2, 4), Lead(3, 7)),
    )
    system = build_bond_system(graph)
    assert system.n_vertices == 2
    assert system.vertex_depth == np.inf
    ks = np.array([77.39290065763844 - 1.4905806608184788j,
                   *(complex(re, im) for re in (10.0, 47.7, 120.0) for im in (-1.2, -1.45))])
    got = secular_many(system, ks)
    want = np.array([_mp_secular(system, k) for k in ks])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


def test_depth_bound_reaches_the_closure_through_an_even_excess(bond_points):
    # vertex 1 is balanced; vertex 2 has four bond ends and no lead, two of
    # them on edges of vertex 1, so the closure takes it in, and the bound
    # comes from the 1 m loop (1.5), not from the 0.4 m edge (3.75)
    graph = MetricGraph(
        (Edge(1, 1, 2, 0.3), Edge(2, 1, 2, 0.4), Edge(3, 2, 2, 1.0)),
        (Lead(1, 1), Lead(2, 1)),
    )
    system = build_bond_system(graph)
    assert system.vertex_depth == 1.5
    ks = np.array([complex(re, -fraction * system.vertex_depth)
                   for re in (3.0, 37.3, 211.9) for fraction in (0.3, 0.7, 1.0)])
    _assert_reduction(system, ks)
    assert not bond_points


def _graph(edges, anchors):
    """Edges ``(a, b, length)`` and leads on ``anchors``, numbered in order."""
    return MetricGraph(tuple(Edge(i + 1, a, b, l) for i, (a, b, l) in enumerate(edges)),
                       tuple(Lead(i + 1, v) for i, v in enumerate(anchors)))


# vertex 1 is balanced, and its three 0.5 m edges reach vertices of excess
# (bond ends - leads) 1, 4 and 4: (1 - 2/1) + (1 - 2/4) + (1 - 2/4) = 0
CANCELLING = ([(1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5), (2, 5, 0.37), (3, 5, 0.61),
               (3, 6, 0.83), (3, 6, 0.29), (4, 5, 0.71), (4, 6, 0.43), (4, 6, 0.57)],
              [1, 1, 1, 2, 5, 6])
LIFTED_GRAPHS = {
    "nW1": fixture("nW1"),
    "nW2": fixture("nW2"),
    **{name: load_graph(DATA / f"{name}.graph")
       # g4-e40's balanced pendant sits behind a merged chain
       for name in ("chain4", "g1-e20", "g1-e30", "g4-e40")},
}


@pytest.mark.parametrize("name, im", [
    pytest.param(name, im, id=f"{im}-{name}") for name in LIFTED_GRAPHS for im in (-8, -12, -16)
])
def test_lifted_graphs_against_50_digits(name, im, bond_points, monkeypatch):
    # every balanced vertex keeps the leading term of H's Schur complement
    # onto it, so the vertex form serves every depth.  The graphs of 60 and
    # 80 bonds take one point: 50-digit LU on them takes about a second
    monkeypatch.setattr(scattering, "_MIN_NEWTON_BONDS", 0)
    system = build_bond_system(LIFTED_GRAPHS[name])
    assert system.vertex_depth == np.inf
    res = (3.0, 37.3, 211.9) if system.n_bonds <= 40 else (37.3,)
    ks = np.array([complex(re, im) for re in res])
    got, S, ld = secular_many(system, ks), smatrix_many(system, ks), log_derivative(system, ks)
    assert not bond_points
    want = np.array([_mp_secular(system, k) for k in ks])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    want = np.array([_bond_log_derivative(system, k) for k in ks])
    assert np.all(np.abs(ld - want) <= 1e-12 * np.abs(want))
    want = np.array([_bond_smatrix(system, k) for k in ks])
    size = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(S - want).max(axis=(1, 2)) <= 1e-12 * size)


@pytest.mark.parametrize("edges, anchors", [
    # vertex 1 is balanced and its one edge reaches vertex 2 of excess 2:
    # the vertex form lost 2e-11 at Im k = -8 and 2e-6 at -16
    pytest.param([(1, 2, 0.5), (2, 3, 0.7), (2, 4, 0.9), (3, 4, 0.6)], [1, 2, 3],
                 id="excess-2"),
    # it lost 1e-12 at -8 and 2e-10 at -16
    pytest.param(*CANCELLING, id="excesses-1-4-4"),
])
def test_cancelling_leading_terms_keep_the_depth_bound(edges, anchors, bond_points):
    system = build_bond_system(_graph(edges, anchors))
    assert system.vertex_depth < 8.0
    ks = np.array([complex(re, im) for im in (-8.0, -16.0) for re in (3.0, 37.3, 211.9)])
    secular_many(system, ks)
    assert bond_points == list(ks)
    # forced onto the vertex form, the deepest points lose what the bound
    # guards against
    got = secular_many(dataclasses.replace(system, vertex_depth=np.inf), ks[3:])
    want = np.array([_mp_secular(system, k) for k in ks[3:]])
    assert np.max(np.abs(got - want) / np.abs(want)) > 1e-13


@pytest.mark.parametrize("gap, lifted", [(1e-8, False), (1e-5, False), (1e-3, False),
                                         (1e-2, True)])
def test_near_equal_edges_size_the_leading_margin(gap, lifted, bond_points):
    # the first 0.5 m edge lengthened by gap: at Im k = -16 the vertex form
    # lost 8e-10, 4e-12, 4e-14 and 4e-15.  Edges within 1% of the shortest
    # count in its leading term, so only the last gap lifts the bound
    edges, anchors = CANCELLING
    a, b, length = edges[0]
    system = build_bond_system(_graph([(a, b, length + gap), *edges[1:]], anchors))
    assert (system.vertex_depth == np.inf) == lifted
    if lifted:
        ks = np.array([complex(re, im) for im in (-8.0, -12.0, -16.0) for re in (3.0, 211.9)])
        got = secular_many(system, ks)
        assert not bond_points
        want = np.array([_mp_secular(system, k) for k in ks])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("name, longest", [
    ("deep4", 0.3106), ("kite4", 0.92), ("loop4", 0.666), ("loop-two-leads", 0.5),
    ("path-two-leads", 0.5), ("tri-two-balanced", 0.7),
])
def test_graphs_that_fail_the_leading_term_test_keep_the_closure_bound(name, longest):
    # 1.5/l, l the longest merged edge that holds an edge of the closure
    system = build_bond_system(load_graph(DATA / f"{name}.graph"))
    assert system.vertex_depth == pytest.approx(scattering._MAX_EDGE_DEPTH / longest)


@st.composite
def balanced_grid_graphs(draw):
    """``small_graphs`` with lengths on a grid (multiples of 0.1, 0.15 or
    0.2 m, so that edges tie) and one vertex given as many leads as bond
    ends."""
    step = draw(st.sampled_from([0.1, 0.15, 0.2]))
    graph = draw(small_graphs(st.integers(1, 6).map(lambda n: n * step)))
    v = draw(st.sampled_from(graph.vertices))
    ends = sum((e.a == v) + (e.b == v) for e in graph.edges)
    anchors = [l.anchor for l in graph.leads if l.anchor != v] + [v] * ends
    return _graph([(e.a, e.b, e.length) for e in graph.edges], anchors)


@given(balanced_grid_graphs(), st.floats(1.0, 100.0), st.floats(-16.0, -0.05))
@example(_graph([(1, 2, 0.8), (1, 3, 1.0), (2, 4, 0.8), (3, 5, 0.6)], [4]), 93.1, -16.0)
@settings(max_examples=40, deadline=None)
def test_lifted_vertex_form_against_50_digits_on_random_graphs(graph, re, im):
    # where the leading-term test lifts the bound, against 50 digits: on
    # these graphs the bond matrix itself loses up to 1e-4 at Im k = -16
    system = build_bond_system(graph)
    assume(system.vertex_depth == np.inf)
    k = complex(re, im)
    want = _mp_secular(system, k)
    assert abs(secular_many(system, [k])[0] - want) <= 1e-13 * abs(want)


def _mixed_points(system):
    """Points on both forms, shuffled: down to Im k = -9, past nW2's depth
    limit, on the real axis, and next to Dirichlet points."""
    rng = np.random.default_rng(3)
    ks = np.concatenate([
        rng.uniform(1.0, 80.0, 60) - 1j * rng.uniform(0.0, 9.0, 60),
        np.linspace(1.0, 80.0, 60),
        _dirichlet_band(system)[::7],
    ])
    rng.shuffle(ks)
    return ks


class TestBatching:
    # nW2 has 5 vertices, 7 vertex-form edges and 14 bonds: a budget of 7
    # vertex points holds 3 bond points
    SMALL_BUDGET = 7 * 16 * (2 * 5 ** 2 + 8 * 7)

    def test_batches_equal_single_points_bitwise(self, monkeypatch):
        system = build_bond_system(fixture("nW2"))
        ks = _mixed_points(system)
        monkeypatch.setattr(scattering, "_BATCH_BYTES", self.SMALL_BUDGET)
        assert scattering._batch_size(system, "vertex") == 7
        assert scattering._batch_size(system, "bond") == 3
        batched = secular_many(system, ks)
        single = np.array([secular_many(system, [k])[0] for k in ks])
        assert np.array_equal(batched, single)
        batched = smatrix_many(system, ks)
        single = np.array([smatrix_many(system, [k])[0] for k in ks])
        assert np.array_equal(batched, single)

    def test_each_form_keeps_to_its_own_batch_size(self, monkeypatch):
        system = build_bond_system(fixture("nW2"))
        ks = _mixed_points(system)
        monkeypatch.setattr(scattering, "_BATCH_BYTES", self.SMALL_BUDGET)
        vertex, bond = scattering._vertex_matrices, scattering._bond_matrices
        points = {"vertex": [], "bond": []}

        def vertex_spy(system, z, s, derivative):
            points["vertex"].append(z.shape[0])
            return vertex(system, z, s, derivative)

        def bond_spy(system, ks):
            points["bond"].append(ks.size)
            return bond(system, ks)

        monkeypatch.setattr(scattering, "_vertex_matrices", vertex_spy)
        monkeypatch.setattr(scattering, "_bond_matrices", bond_spy)
        for evaluate in (secular_many, smatrix_many):
            points["vertex"].clear()
            points["bond"].clear()
            evaluate(system, ks)
            assert 0 < max(points["vertex"]) <= 7
            assert 0 < max(points["bond"]) <= 3
            assert sum(points["vertex"]) + sum(points["bond"]) == ks.size

    @pytest.mark.parametrize("name, deep", [("W1", 0), ("g1-e20-pendant", 5000)])
    def test_peak_memory_is_the_output_and_one_batch(self, name, deep):
        # numpy reports its buffers to tracemalloc.  The allowance is twice
        # the 1 MiB batch budget; batches of 8 MiB sized by the larger matrix
        # alone peak at 3.2 MB on W1, and at 9.2 MB on g1-e20-pendant, whose
        # deep points take the 42 x 42 bond matrix.  log_derivative takes the
        # bond matrix on W1 (14 bonds) and the vertex form with H' on
        # g1-e20-pendant (42 bonds)
        graph = fixture(name) if name == "W1" else load_graph(DATA / f"{name}.graph")
        system = build_bond_system(graph)
        ks = np.linspace(6.0, 46.0, 20000) - 0.5j
        ks.imag[:deep] = -7.5
        assert np.count_nonzero(-ks.imag > system.vertex_depth) == deep
        for evaluate in (secular_many, smatrix_many, log_derivative):
            tracemalloc.start()
            try:
                out = evaluate(system, ks)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 2 * 2 ** 20

    def test_no_points_give_an_empty_result(self):
        system = build_bond_system(fixture("W1"))
        assert secular_many(system, []).shape == (0,)
        assert smatrix_many(system, []).shape == (0, system.n_leads, system.n_leads)
        assert det_smatrix_modulus(system, []).shape == (0,)


class TestExternalSMatrix:
    def test_unitary_on_the_real_axis(self):
        for name in FIXTURE_NAMES:
            s = build_bond_system(fixture(name))
            S = smatrix_many(s, band_ks())
            gram = S @ S.conj().transpose(0, 2, 1)
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10
            assert np.max(np.abs(np.abs(np.linalg.det(S)) - 1.0)) < 1e-10

    def test_reciprocity(self):
        for name in FIXTURE_NAMES:
            s = build_bond_system(fixture(name))
            S = smatrix_many(s, band_ks())
            assert np.max(np.abs(S[:, 0, 1] - S[:, 1, 0])) < 1e-12

    def test_transmission_interval_closed_form(self):
        s = build_bond_system(interval(0.7, leads=2))
        ks = np.array([1.0, 5.0, 17.3])
        S = smatrix_many(s, ks)
        assert np.all(np.abs(S[:, 0, 0]) < 1e-14) and np.all(np.abs(S[:, 1, 1]) < 1e-14)
        assert np.allclose(S[:, 0, 1], np.exp(1j * ks * 0.7), rtol=0.0, atol=1e-12)

    def test_single_lead_interval_full_reflection(self):
        s = build_bond_system(interval(0.4, leads=1))
        S = smatrix_many(s, [3.0])
        assert S.shape == (1, 1, 1)
        assert abs(S[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_no_leads_rejected(self):
        with pytest.raises(ValueError, match="no leads"):
            smatrix_many(build_bond_system(interval(1.0)), [1.0])


class TestDetModulus:
    def test_lossless_is_one(self):
        s = build_bond_system(fixture("W2"))
        nus = np.linspace(*BAND_HZ, 500)
        assert np.max(np.abs(det_smatrix_modulus(s, nus, 0.0) - 1.0)) < 1e-10

    def test_dips_near_resonances(self, band_zeros):
        s = build_bond_system(fixture("W1"))
        for r in band_zeros["W1"].resonances:
            if r.half_width > 30e6:
                continue  # broad resonances overlap their neighbors
            at, off = det_smatrix_modulus(s, [r.nu, r.nu + 8.0 * r.half_width], 0.1)
            assert at < off

    def test_rejects_negative_absorption(self):
        s = build_bond_system(fixture("W1"))
        for absorption in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="absorption"):
                det_smatrix_modulus(s, [1e9], absorption)
        assert det_smatrix_modulus(s, [1e9], -0.0)[0] == pytest.approx(1.0)

    def test_rejects_nonpositive_frequency(self):
        s = build_bond_system(fixture("W1"))
        for nu in (0.0, np.nan, np.inf, [1e9, np.nan]):
            with pytest.raises(ValueError, match="frequencies"):
                det_smatrix_modulus(s, nu, 0.1)
