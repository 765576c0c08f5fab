import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphres import (
    STRIP_DEPTH,
    Edge,
    Lead,
    MetricGraph,
    SearchBox,
    SolverError,
    build_bond_system,
    count_zeros,
    counting_function,
    find_zeros,
    fixture,
    interval,
)

from conftest import EXPECTED_COUNTS


@pytest.fixture(scope="module")
def neumann():
    return build_bond_system(interval(1.0))


class TestSearchBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            SearchBox(1.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            SearchBox(1.0, 2.0, 0.0, 0.0)

    def test_rejects_unbounded(self):
        for bounds in ((1.0, np.inf, -1.0, 0.0), (1.0, 2.0, -np.inf, 0.0),
                       (np.nan, 2.0, -1.0, 0.0)):
            with pytest.raises(ValueError, match="unbounded"):
                SearchBox(*bounds)
        with pytest.raises(ValueError, match="unbounded"):
            SearchBox.from_band(1e9, 2e9, depth=np.inf)

    def test_from_band_keeps_origin_out(self):
        box = SearchBox.from_band(0.0, 1e9)
        assert box.re_min > 0.0

    def test_from_band_conversion(self):
        box = SearchBox.from_band(0.3e9, 2.2e9, depth=5.0)
        assert box.re_min == pytest.approx(6.2878, abs=1e-3)
        assert box.re_max == pytest.approx(46.1086, abs=1e-3)
        assert box.im_min == -5.0

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            SearchBox.from_band(2e9, 1e9)
        with pytest.raises(ValueError):
            SearchBox.from_band(0.3e9, 2.2e9, depth=-1.0)


class TestCounting:
    def test_neumann_interval_box(self, neumann):
        assert count_zeros(neumann, SearchBox(0.1, 10.0, -0.5, 0.0)) == 3

    def test_lead_interval_has_no_zeros(self):
        nil = build_bond_system(interval(1.0, leads=1))
        assert count_zeros(nil, SearchBox(0.1, 60.0, -4.0, 0.0)) == 0

    def test_band_counts(self, systems, band_box):
        for name, expected in EXPECTED_COUNTS.items():
            assert count_zeros(systems[name], band_box) == expected

    def test_count_plateaus_in_depth(self, systems):
        # the calibrated strip depth must sit on the flat part of the
        # count-vs-depth curve: doubling and quadrupling it changes nothing
        import graphres

        for name, expected in EXPECTED_COUNTS.items():
            for depth in (graphres.STRIP_DEPTH, 2 * graphres.STRIP_DEPTH,
                          4 * graphres.STRIP_DEPTH):
                box = SearchBox.from_band(0.3e9, 2.2e9, depth=depth)
                assert count_zeros(systems[name], box) == expected

    def test_long_edge_phase_steps_do_not_overflow(self):
        # |secular| reaches ~e^480 at Im k = -8 on a 30 m edge, beyond the
        # square root of the largest double; zeros n pi / 30 with n = 1..19
        system = build_bond_system(interval(30.0))
        assert count_zeros(system, SearchBox(0.05, 2.0, -8.0, 0.0)) == 19

    @given(st.floats(0.5, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_interval_count_matches_closed_form(self, length):
        lo, hi = 0.1, 10.0
        ns = np.arange(1, 12) * np.pi / length
        # stay clear of boundary coincidences
        assume(np.min(np.abs(ns - lo)) > 1e-3 and np.min(np.abs(ns - hi)) > 1e-3)
        expected = int(np.sum((ns > lo) & (ns < hi)))
        system = build_bond_system(interval(length))
        assert count_zeros(system, SearchBox(lo, hi, -0.5, 0.0)) == expected


class TestFindZeros:
    def test_neumann_interval_positions(self, neumann):
        zs = find_zeros(neumann, SearchBox(0.1, 20.5 * np.pi, -0.5, 0.0))
        assert len(zs) == 20
        for n, r in enumerate(zs.resonances, start=1):
            assert r.k == pytest.approx(n * np.pi, abs=1e-10)

    def test_cardinality_equals_winding(self, band_zeros):
        for zs in band_zeros.values():
            assert len(zs) == zs.winding_total

    def test_residuals_are_tiny(self, band_zeros):
        for zs in band_zeros.values():
            for r in zs.resonances:
                assert r.residual < 1e-8 * zs.boundary_scale

    def test_zeros_in_lower_half_plane(self, band_zeros):
        for zs in band_zeros.values():
            for r in zs.resonances:
                assert r.k.imag <= 1e-9

    def test_sorted_and_separated(self, band_zeros):
        for zs in band_zeros.values():
            ks = [r.k for r in zs.resonances]
            assert ks == sorted(ks, key=lambda z: (z.real, z.imag))
            gaps = np.abs(np.diff(np.array(ks)))
            assert np.all(gaps > 1e-9)

    def test_deterministic(self, systems, band_box):
        a = find_zeros(systems["nW2"], band_box)
        b = find_zeros(systems["nW2"], band_box)
        assert [r.k for r in a.resonances] == [r.k for r in b.resonances]

    def test_pole_consistency(self, systems, band_zeros):
        # every zero must render I - Sigma e^{ikL} singular
        for name, zs in band_zeros.items():
            s = systems[name]
            for r in zs.resonances:
                phases = np.exp(1j * r.k * s.lengths)
                m = np.eye(s.n_bonds) - s.sigma * phases[None, :]
                assert np.linalg.svd(m, compute_uv=False)[-1] < 1e-8

    def test_boundary_through_a_zero_gets_nudged(self, neumann):
        # the left edge runs exactly through the zero at pi
        zs = find_zeros(neumann, SearchBox(np.pi, 10.0, -0.5, 0.0))
        ks = sorted(r.k.real for r in zs.resonances)
        assert len(ks) == 3
        assert ks[0] == pytest.approx(np.pi, abs=1e-10)

    def test_subdivision_additivity_fixed_splits(self, systems, band_box):
        s = systems["W1"]
        parent = count_zeros(s, band_box)
        for frac in (0.31, 0.5, 0.77):
            mid = band_box.re_min + frac * (band_box.re_max - band_box.re_min)
            left = SearchBox(band_box.re_min, mid, band_box.im_min, band_box.im_max)
            right = SearchBox(mid, band_box.re_max, band_box.im_min, band_box.im_max)
            assert count_zeros(s, left) + count_zeros(s, right) == parent


class TestCountingFunction:
    def test_neumann_interval_table(self, neumann):
        table = counting_function(neumann, [1.0, 4.0, 7.0, 10.0], depth=0.5)
        assert table == [(1.0, 0), (4.0, 1), (7.0, 2), (10.0, 3)]

    def test_monotone(self, systems):
        table = counting_function(systems["nW1"], np.linspace(5.0, 60.0, 12))
        counts = [n for _, n in table]
        assert counts == sorted(counts)

    def test_rejects_unsorted_or_nonpositive(self, neumann):
        with pytest.raises(ValueError):
            counting_function(neumann, [3.0, 2.0])
        with pytest.raises(ValueError):
            counting_function(neumann, [-1.0, 2.0])

    def test_excludes_k_zero(self, neumann):
        # the spectral point at the origin is not a resonance; a strip up to
        # R = 1 holds nothing even though secular(0) = 0
        assert counting_function(neumann, [1.0], depth=0.5) == [(1.0, 0)]
        # an R left of the strip's edge at 1e-9 counts nothing
        table = counting_function(neumann, [1e-10, 1.0, 10.0], depth=0.5)
        assert [n for _, n in table] == [0, 0, 3]

    def test_cuts_through_zeros(self, neumann):
        # a zero exactly at Re k = R counts in N(R); one just past R does not
        table = counting_function(neumann, [np.pi, 2 * np.pi, 10.0], depth=0.5)
        assert [n for _, n in table] == [1, 2, 3]
        R = [np.pi * (1 - 1e-9), np.pi * (1 + 1e-9), 10.0]
        assert [n for _, n in counting_function(neumann, R, depth=0.5)] == [0, 1, 3]
        # the cut moved off the zero at pi passes the next R, or the last one
        R = [np.pi, np.pi + 1e-6, 10.0]
        assert [n for _, n in counting_function(neumann, R, depth=0.5)] == [1, 1, 3]
        R = [np.pi, np.pi + 1e-6]
        assert [n for _, n in counting_function(neumann, R, depth=0.5)] == [1, 1]

    def test_strips_must_sum_to_the_root_winding(self, neumann, overcounted_root):
        with pytest.raises(SolverError, match="root winding"):
            counting_function(neumann, [4.0, 10.0], depth=0.5)


def _located_counts(system, R, depth=STRIP_DEPTH):
    """N(R) by the definition the strip counter replaced: locate every zero
    of the root strip, then count positions Re k <= R."""
    box = SearchBox(1e-9, float(R[-1]), -depth, 0.0)
    positions = np.array([r.k.real for r in find_zeros(system, box)])
    return list(np.searchsorted(positions, R, side="right"))


class TestStripCounterAgainstLocatedZeros:
    @pytest.mark.parametrize("name", ["W1", "nW2"])
    def test_equals_searchsorted_of_located_zeros(self, systems, name):
        R = np.linspace(2.0, 150.0, 75)
        table = counting_function(systems[name], R)
        assert [n for _, n in table] == _located_counts(systems[name], R)


@st.composite
def small_open_graphs(draw):
    """Connected graphs on 2-4 vertices: a path, maybe one extra edge
    (a chord or a self-loop), and one or two leads."""
    n = draw(st.integers(2, 4))
    length = st.floats(0.1, 1.0)
    ends = [(v, v + 1) for v in range(1, n)]
    if draw(st.booleans()):
        ends.append((draw(st.integers(1, n)), draw(st.integers(1, n))))
    edges = tuple(Edge(i + 1, a, b, draw(length)) for i, (a, b) in enumerate(ends))
    anchors = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(tuple(range(1, n + 1)), edges, leads)


class TestStripCounterProperties:
    @given(small_open_graphs(), st.floats(10.0, 40.0), st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_total_is_the_root_winding_and_table_is_monotone(self, graph, r_max, n):
        system = build_bond_system(graph)
        R = np.linspace(r_max / n, r_max, n)
        counts = [c for _, c in counting_function(system, R)]
        root = SearchBox(1e-9, r_max, -STRIP_DEPTH, 0.0)
        assert counts[-1] == count_zeros(system, root)
        assert counts == sorted(counts)
