import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphres import (
    FIXTURE_NAMES,
    C0,
    Edge,
    Lead,
    MetricGraph,
    build_bond_system,
    det_smatrix_modulus,
    external_smatrix,
    fixture,
    interval,
    secular,
    secular_many,
    smatrix_many,
    vertex_matrix,
)

from graphres.scattering import log_derivative

from conftest import BAND_HZ


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
        for g in (interval(1.0), MetricGraph(fixture("W1").vertices, fixture("W1").edges)):
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

        bad = MetricGraph((1, 2), (Edge(1, 1, 5, 1.0),))
        with pytest.raises(GraphError):
            build_bond_system(bad)


class TestSecular:
    def test_neumann_interval_closed_form(self):
        s = build_bond_system(interval(1.0))
        ks = np.linspace(0.3, 12.0, 23) - 0.2j
        assert np.allclose(secular_many(s, ks), 1.0 - np.exp(2j * ks), atol=1e-12)

    def test_lead_interval_is_identically_one(self):
        s = build_bond_system(interval(1.0, leads=1))
        ks = np.linspace(0.1, 60.0, 50) - 1.0j * np.linspace(0.0, 3.0, 50)
        assert np.allclose(secular_many(s, ks), 1.0, atol=1e-12)

    def test_value_at_zero_wavenumber(self):
        for name in FIXTURE_NAMES:
            s = build_bond_system(fixture(name))
            expected = np.linalg.det(np.eye(s.n_bonds) - s.sigma)
            assert secular(s, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_overflow_guard(self):
        s = build_bond_system(fixture("W1"))
        with pytest.raises(OverflowError):
            secular(s, 10.0 - 4000.0j)

    def test_mean_value_over_a_circle(self):
        # analytic functions equal the average of their values on any
        # surrounding circle; trapezoid quadrature on a periodic integrand
        # converges spectrally, so 64 points reach ~1e-12
        s = build_bond_system(fixture("W1"))
        k0 = 20.0 - 1.0j
        angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        ring = secular_many(s, k0 + np.exp(1j * angles))
        assert np.mean(ring) == pytest.approx(secular(s, k0), abs=1e-8)

    @given(st.floats(0.5, 40.0), st.floats(-2.0, -0.01))
    @settings(max_examples=30, deadline=None)
    def test_scaling_covariance(self, re, im):
        k = complex(re, im)
        g = fixture("W1")
        doubled = MetricGraph(
            g.vertices,
            tuple(type(e)(e.id, e.a, e.b, 2.0 * e.length) for e in g.edges),
            g.leads,
        )
        a = secular(build_bond_system(g), k)
        b = secular(build_bond_system(doubled), k / 2.0)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestLogDerivative:
    def test_interval_closed_form(self):
        s = build_bond_system(interval(1.0))
        k = 3.7 - 0.4j
        expected = -2j * np.exp(2j * k) / (1.0 - np.exp(2j * k))
        assert log_derivative(s, k) == pytest.approx(expected, rel=1e-10)

    @given(st.floats(1.0, 40.0), st.floats(-1.5, -0.05))
    @settings(max_examples=25, deadline=None)
    def test_matches_finite_differences(self, re, im):
        s = build_bond_system(fixture("nW2"))
        k = complex(re, im)
        h = 1e-6
        fd = (secular(s, k + h) - secular(s, k - h)) / (2.0 * h * secular(s, k))
        assert log_derivative(s, k) == pytest.approx(fd, rel=1e-6)

    def test_nilpotent_derivative_vanishes(self):
        # the secular function is identically 1; only LU roundoff remains
        s = build_bond_system(interval(1.0, leads=1))
        for k in (4.2 - 0.3j, 30.0 - 2.0j, 0.1 - 5.0j):
            assert log_derivative(s, k) == pytest.approx(0.0, abs=1e-14)


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
        (1, 2),
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
    """``det(I - e^{ikL} Sigma)`` on the 2N x 2N bond matrix."""
    phases = np.exp(1j * k * system.lengths)
    return np.linalg.det(np.eye(system.n_bonds) - phases[:, None] * system.sigma)


def _bond_smatrix(system, k):
    """``rho_LL + rho_LB M^-1 e^{ikL} rho_BL`` in the bond matrix's own orientation."""
    phases = np.exp(1j * k * system.lengths)
    mat = np.eye(system.n_bonds) - phases[:, None] * system.sigma
    return system.lead_reflect + system.lead_out @ np.linalg.solve(
        mat, phases[:, None] * system.lead_in)


VERTEX_GRAPHS = {
    **dict(zip([*FIXTURE_NAMES, "self-loop"], REFERENCE_GRAPHS)),
    "multi-edge": MetricGraph(
        (1, 2, 3),
        (Edge(1, 1, 2, 0.3), Edge(2, 1, 2, 0.45), Edge(3, 2, 3, 0.2), Edge(4, 2, 3, 0.27)),
        (Lead(1, 1), Lead(2, 3)),
    ),
    "pendant": MetricGraph(
        (1, 2, 3, 4),
        (Edge(1, 1, 2, 0.31), Edge(2, 2, 3, 0.22), Edge(3, 3, 1, 0.17), Edge(4, 3, 4, 0.4)),
        (Lead(1, 1), Lead(2, 2)),
    ),
    "leads-only-vertex": MetricGraph(
        (1, 2, 3),
        (Edge(1, 1, 2, 0.4), Edge(2, 1, 2, 0.25)),
        (Lead(1, 1), Lead(2, 3), Lead(3, 3)),
    ),
    "triangle": MetricGraph(
        (1, 2, 3), (Edge(1, 1, 2, 0.3), Edge(2, 2, 3, 0.2), Edge(3, 3, 1, 0.5))
    ),
    "one-lead-interval": interval(1.0, leads=1),
}


def _dirichlet_band(system):
    """k = n pi / l_e + delta, delta = 1e-3 .. 1e-12: the bond-matrix points."""
    ell = system.lengths[:system.n_edges]
    return np.array([n * np.pi / l + d for l in ell for n in (1, 5, 40)
                     for d in 10.0 ** -np.arange(3, 13)])


def _assert_reduction(system, ks, oracle_smatrix=_reference_smatrix):
    """The vertex form against the bond-matrix oracles at the points ``ks``.

    The determinant is compared relative to max(|det M|, 1): at a real-axis
    eigenvalue of a compact graph both forms keep only absolute accuracy.
    S is compared to 1e-12 absolute, relative to |S| where |S| > 1 (deep in
    the lower half-plane S grows like e^{|Im k| l}).
    """
    got = secular_many(system, ks)
    want = np.array([_bond_secular(system, k) for k in ks])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    if system.n_leads:
        got = smatrix_many(system, ks)
        want = np.array([oracle_smatrix(system, k) for k in ks])
        size = np.maximum(np.abs(want).max(axis=(1, 2)), 1.0)
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * size)


@pytest.mark.parametrize("name", list(VERTEX_GRAPHS))
class TestVertexReduction:
    """``det M = prod_e s_e det H`` and ``S = -I + Q^T H^-1 W Q`` match M(k)."""

    def test_random_lower_half_plane(self, name):
        rng = np.random.default_rng(7)
        ks = rng.uniform(1.0, 400.0, 200) - 1j * rng.uniform(0.0, 8.0, 200)
        _assert_reduction(build_bond_system(VERTEX_GRAPHS[name]), ks)

    def test_real_axis(self, name):
        ks = np.linspace(0.5, 400.0, 801)
        _assert_reduction(build_bond_system(VERTEX_GRAPHS[name]), ks)

    def test_dirichlet_band_uses_the_bond_matrix(self, name):
        # several of these graphs have embedded eigenvalues at common
        # Dirichlet points, where S is a removable singularity and the two
        # bond orientations disagree; the bond matrix's own orientation is
        # the oracle here
        system = build_bond_system(VERTEX_GRAPHS[name])
        _assert_reduction(system, _dirichlet_band(system), _bond_smatrix)


@st.composite
def small_graphs(draw):
    """Connected 2-5-vertex graphs; self-loops, parallel edges and 0-4 leads."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
    edges = tuple(
        Edge(i + 1, a, b, draw(st.floats(0.05, 1.0))) for i, (a, b) in enumerate(pairs)
    )
    anchors = draw(st.lists(st.integers(1, n), max_size=4))
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(tuple(range(1, n + 1)), edges, leads)


# off the real axis: there a random graph may have an embedded eigenvalue,
# where S is a removable singularity that neither form resolves
@given(small_graphs(), st.floats(1.0, 100.0), st.floats(-4.0, -0.05))
@example(  # a path to a pendant vertex: |S| ~ 3e7, and H alone loses 4 digits
    MetricGraph(
        (1, 2, 3, 4, 5),
        (Edge(1, 1, 2, 1.0), Edge(2, 1, 3, 1.0), Edge(3, 1, 4, 1.0), Edge(4, 2, 5, 1.0)),
        (Lead(1, 5),),
    ),
    1.0, -4.0,
)
@settings(max_examples=60, deadline=None)
def test_vertex_reduction_on_random_graphs(graph, re, im):
    _assert_reduction(build_bond_system(graph), np.array([complex(re, im)]))


class TestBatching:
    def test_batches_equal_single_points_bitwise(self, monkeypatch):
        import graphres.scattering

        system = build_bond_system(fixture("nW2"))
        rng = np.random.default_rng(3)
        ks = np.concatenate([
            # down to Im k = -9, past the vertex form's depth limit
            rng.uniform(1.0, 80.0, 60) - 1j * rng.uniform(0.0, 9.0, 60),
            np.linspace(1.0, 80.0, 60),
            _dirichlet_band(system)[::7],
        ])
        rng.shuffle(ks)
        # 7 vertex matrices, or 1 bond matrix, per batch
        monkeypatch.setattr(graphres.scattering, "_BATCH_BYTES",
                            7 * 16 * system.n_vertices ** 2)
        assert graphres.scattering._batch_size(system.n_vertices) == 7
        assert graphres.scattering._batch_size(system.n_bonds) == 1
        batched = secular_many(system, ks)
        single = np.array([secular_many(system, [k])[0] for k in ks])
        assert np.array_equal(batched, single)
        batched = smatrix_many(system, ks)
        single = np.array([smatrix_many(system, [k])[0] for k in ks])
        assert np.array_equal(batched, single)


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
        for k in (1.0, 5.0, 17.3):
            S = external_smatrix(s, k)
            assert abs(S[0, 0]) < 1e-14 and abs(S[1, 1]) < 1e-14
            assert S[0, 1] == pytest.approx(np.exp(1j * k * 0.7), abs=1e-12)

    def test_single_lead_interval_full_reflection(self):
        s = build_bond_system(interval(0.4, leads=1))
        S = external_smatrix(s, 3.0)
        assert S.shape == (1, 1)
        assert abs(S[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_warns_at_a_resonance(self, band_zeros):
        s = build_bond_system(fixture("W1"))
        k = band_zeros["W1"].resonances[0].k
        with pytest.warns(RuntimeWarning, match="near-singular"):
            external_smatrix(s, k)

    def test_no_leads_rejected(self):
        with pytest.raises(ValueError, match="no leads"):
            external_smatrix(build_bond_system(interval(1.0)), 1.0)


class TestDetModulus:
    def test_lossless_is_one(self):
        s = build_bond_system(fixture("W2"))
        nus = np.linspace(*BAND_HZ, 500)
        assert np.max(np.abs(det_smatrix_modulus(s, nus, 0.0) - 1.0)) < 1e-10

    def test_scalar_in_scalar_out(self):
        s = build_bond_system(fixture("W1"))
        out = det_smatrix_modulus(s, 1e9, 0.1)
        assert isinstance(out, float) and 0.0 < out < 1.0

    def test_dips_near_resonances(self, band_zeros):
        s = build_bond_system(fixture("W1"))
        for r in band_zeros["W1"].resonances:
            if r.half_width > 30e6:
                continue  # broad resonances overlap their neighbors
            at = det_smatrix_modulus(s, r.nu, 0.1)
            off = det_smatrix_modulus(s, r.nu + 8.0 * r.half_width, 0.1)
            assert at < off

    def test_rejects_negative_absorption(self):
        s = build_bond_system(fixture("W1"))
        with pytest.raises(ValueError):
            det_smatrix_modulus(s, 1e9, -0.1)

    def test_rejects_nonpositive_frequency(self):
        s = build_bond_system(fixture("W1"))
        with pytest.raises(ValueError):
            det_smatrix_modulus(s, 0.0, 0.1)
