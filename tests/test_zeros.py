import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graphres.zeros as zeros
from graphres import (
    FIXTURE_NAMES,
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
    load_graph,
    secular_many,
    total_length,
)
from graphres.weyl import FIT_GRID

from conftest import EXPECTED_COUNTS

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DATA = Path(__file__).resolve().parent / "data"
WIDE_BOX = SearchBox.from_band(0.3e9, 6.0e9)


@pytest.fixture(scope="module")
def neumann():
    return build_bond_system(interval(1.0))


def _data_system(name):
    return build_bond_system(load_graph(DATA / f"{name}.graph"))


@pytest.fixture(scope="module")
def parallel_edges():
    """40 parallel edges between two vertices, one lead: det M vanishes to
    order E - V + 1 = 39 at k = 0."""
    return _data_system("parallel40")


def _dense_winding(system, box, n=2 ** 14):
    """(winding number of F round the box, largest phase step) from n
    samples per side, unwrapped with numpy.  The left side takes n more
    samples evenly spaced in arg k, which resolve the zero at k = 0 however
    close the side passes to it."""
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    c = box.corners
    fan = box.re_min * (1.0 + 1j * np.tan(np.linspace(np.angle(c[3]), np.angle(c[0]), n)))
    left = np.concatenate([c[3] + (c[0] - c[3]) * t, fan])
    ks = np.concatenate([c[i] + (c[i + 1] - c[i]) * t for i in range(3)]
                        + [left[np.argsort(-left.imag)], c[:1]])
    phase = np.unwrap(np.angle(secular_many(system, ks)))
    return (phase[-1] - phase[0]) / (2.0 * np.pi), np.abs(np.diff(phase)).max()


def _circle_winding(system, r, n=2 ** 12):
    """Winding number of F round |k| = r, from n samples."""
    ks = r * np.exp(2j * np.pi * np.arange(n + 1) / n)
    phase = np.unwrap(np.angle(secular_many(system, ks)))
    return (phase[-1] - phase[0]) / (2.0 * np.pi)


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
        # |secular| reaches ~e^60 at Im k = 1 on a 30 m edge, and |det M|
        # would reach e^480 at Im k = -8; zeros n pi / 30 with n = 1..19
        system = build_bond_system(interval(30.0))
        assert count_zeros(system, SearchBox(0.05, 2.0, -8.0, 0.0)) == 19

    def test_an_edge_of_50_m_counts(self):
        # |det M| would reach e^800 at Im k = -8; zeros n pi / 50, n = 1..31
        system = build_bond_system(interval(50.0))
        assert count_zeros(system, SearchBox(0.05, 2.0, -8.0, 0.0)) == 31

    def test_a_graph_of_60_m_counts_like_a_dense_winding(self):
        system = _data_system("tri60")
        box = SearchBox.from_band(1.0e9, 1.01e9)
        zs = find_zeros(system, box)
        winding, _ = _dense_winding(system, zeros._span(box, 1, box.im_min, 1.0))
        assert len(zs) == count_zeros(system, box) == 4
        assert winding == pytest.approx(4, abs=1e-6)

    def test_a_graph_of_400_m_lowers_its_root_top(self):
        # |f| ~ e^{2 L Im k} on the top: at Im k = 1 it would overflow for
        # L = 400.1 m, so the top sits at 300/L; 60 m keeps it at 1
        system = _data_system("tri400")
        box = SearchBox.from_band(1.0e9, 1.01e9)
        *_, used, _ = zeros._winding_nudged(system, box)
        assert used.im_max == pytest.approx(300.0 / 400.1, rel=1e-12)
        zs = find_zeros(system, box)
        winding, _ = _dense_winding(system, used)
        assert len(zs) == 26
        assert winding == pytest.approx(26, abs=1e-6)
        *_, used, _ = zeros._winding_nudged(_data_system("tri60"), box)
        assert used.im_max == 1.0

    def test_bottom_edge_through_a_zero_moves_up(self, systems):
        # the bottom edge runs exactly through this reference zero of W1; the
        # top goes up to Im k = 1 first, so the bottom moves up by 1e-6 of
        # that span, like a cut, and the box leaves the zero out
        zero = complex(16.825755091440058, -0.8890841257805226)
        box = SearchBox(zero.real - 1.0, zero.real + 1.0, zero.imag, 0.0)
        count, _, used, _ = zeros._winding_nudged(systems["W1"], box)
        assert used == SearchBox(box.re_min, box.re_max,
                                 zero.imag + 1e-6 * (1.0 - zero.imag), 1.0)
        upper = SearchBox(box.re_min, box.re_max, zero.imag + 1e-3, 0.0)
        lower = SearchBox(box.re_min, box.re_max, zero.imag - 1e-3, 0.0)
        assert count == count_zeros(systems["W1"], upper) == 0
        assert count_zeros(systems["W1"], lower) == 1

    def test_a_left_edge_where_a_zero_of_order_39_underflows_moves_right(
            self, parallel_edges):
        # |F| ~ |k|^39 underflows the floor at Re k = 1e-9, so the left edge
        # is "on a zero"; it moves right by 1e-6 of the span, away from k = 0,
        # and counts like a dense winding of a box that keeps 1e-3 from it
        box = SearchBox(1e-9, 2.0, -1.0, 0.0)
        count, _, used, _ = zeros._winding_nudged(parallel_edges, box)
        assert used == SearchBox(1e-9 + 1e-6 * (2.0 - 1e-9), 2.0, -1.0, 1.0)
        winding, step = _dense_winding(parallel_edges, SearchBox(1e-3, 2.0, -1.0, 1.0))
        assert count == count_zeros(parallel_edges, box) == 0
        assert winding == pytest.approx(0, abs=1e-6) and step < 0.15

    def test_a_left_edge_next_to_a_zero_of_order_39_counts(self, parallel_edges):
        # det M vanishes to order E - V + 1 = 39 at k = 0; the sides wind
        # f (conj k/|k|)^39, which takes that zero's phase out of the left side
        assert count_zeros(parallel_edges, SearchBox(1e-9, 2.0, -0.5, 0.0)) == 0

    def test_boxes_next_to_a_zero_of_order_39_split_cleanly(self, parallel_edges):
        # sampled without the factor, a left side 1e-3 from that zero aliases
        # into phantom zeros, which no split line separates
        assert len(find_zeros(parallel_edges, SearchBox(1e-3, 2.0, -0.5, 0.0))) == 0

    @pytest.mark.parametrize("name", ["W1", "nW2", "g1-e20", "g1-e30"])
    def test_no_phantom_zeros_next_to_k_zero(self, systems, name):
        # below Re k = 2 no graph here has a zero; g1-e20 has one and g1-e30
        # two with Re k in (5, 6), which a dense winding confirms
        system = systems[name] if name in systems else _data_system(name)
        below_6 = {"g1-e20": 1, "g1-e30": 2}.get(name, 0)
        table = counting_function(system, [0.5, 1.0, 2.0, 6.0])
        assert [n for _, n in table] == [0, 0, 0, below_6]
        winding, _ = _dense_winding(system, SearchBox(zeros._K_MIN, 6.0, -STRIP_DEPTH, 1.0))
        assert winding == pytest.approx(below_6, abs=1e-6)

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

    def test_cardinality_equals_winding(self, systems, band_box, band_zeros):
        for name, zs in band_zeros.items():
            assert len(zs) == count_zeros(systems[name], band_box)

    def test_residuals_are_tiny(self, band_zeros):
        for zs in band_zeros.values():
            for r in zs.resonances:
                assert r.residual < 1e-8 * zs.boundary_scale

    @pytest.mark.parametrize("name, count, bound", [("g1-e40", 15, 1e7), ("W1", 3, 100.0)],
                             ids=["g1-e40", "W1"])
    def test_the_residual_gate_has_a_bounded_scale(self, systems, name, count, bound):
        # Newton accepts |secular(k)| up to 1e-10 of the root boundary's
        # maximum; det M's e^{-2 Im k L} growth put that at 3.6e46 on g1-e40
        # (1.5e6 on W1), so the gate accepted any k
        system = systems[name] if name in systems else _data_system(name)
        zs = find_zeros(system, SearchBox.from_band(1.0e9, 1.3e9))
        assert len(zs) == count
        assert zs.boundary_scale < bound

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
        # the left edge runs exactly through the zero at pi and moves right by
        # 1e-6 of the span, so the box holds the zeros of (pi, 10], the ones
        # that N(10) - N(pi) counts
        box = SearchBox(np.pi, 10.0, -0.5, 0.0)
        zs = find_zeros(neumann, box)
        assert [r.k for r in zs] == pytest.approx([2 * np.pi, 3 * np.pi], abs=1e-10)
        *_, used, _ = zeros._winding_nudged(neumann, box)
        assert used == SearchBox(np.pi + 1e-6 * (10.0 - np.pi), 10.0, -0.5, 1.0)
        table = dict(counting_function(neumann, [np.pi, 10.0], depth=0.5))
        assert table[10.0] - table[np.pi] == len(zs) == 2

    def test_right_edge_through_a_zero_moves_right(self, neumann):
        # the right edge runs exactly through the zero at 3 pi
        box = SearchBox(1.0, 3 * np.pi, -0.5, 0.0)
        *_, used, _ = zeros._winding_nudged(neumann, box)
        # the top goes up to Im k = 1 first, clear of the real zeros
        assert used == SearchBox(1.0, 3 * np.pi + 1e-6 * (3 * np.pi - 1.0),
                                 -0.5, 1.0)
        ks = [r.k for r in find_zeros(neumann, box)]
        assert ks == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], abs=1e-10)

    def test_duplicate_zeros_from_two_leaves_count_once(self, neumann, monkeypatch):
        # every leaf polishes to the same zero: the dedup keeps one, which
        # falls short of the root winding
        monkeypatch.setattr(zeros, "_polish", lambda system, box, scale, starts:
                            [zeros.Resonance(5.0 + 0j, 0.0)] * len(starts))
        with pytest.raises(SolverError,
                           match="located 1 zeros but the boundary winding says 3"):
            find_zeros(neumann, SearchBox(0.1, 10.0, -0.5, 0.0))

    def test_no_clean_split_line_is_a_solver_error(self, neumann, monkeypatch):
        strips, fractions = zeros._strips, []

        def near(system, box, sides, axis, cuts):
            if sides is None:
                return strips(system, box, sides, axis, cuts)  # the root's sides
            fractions.append((cuts[0] - box.re_min) / (box.re_max - box.re_min))
            raise zeros.BoundaryProximityError("on a zero")

        monkeypatch.setattr(zeros, "_strips", near)
        with pytest.raises(SolverError, match="no clean split line"):
            find_zeros(neumann, SearchBox(0.1, 10.0, -0.5, 0.0))
        assert fractions == pytest.approx(zeros._SPLIT_FRACTIONS, abs=1e-12)

    def test_split_line_through_a_zero_moves_off_it(self, neumann, monkeypatch):
        # the first split line, at the box's middle Re k = 2 pi, runs through
        # a zero; it moves 1e-6 of the span further right and is sampled
        # again with the halves' sides beside it, which are all four
        calls = []
        sample = zeros._sample

        def spy(system, segments, starts=None):
            calls.append(segments)
            return sample(system, segments, starts)

        monkeypatch.setattr(zeros, "_sample", spy)
        lo, hi = 1.0, 4 * np.pi - 1.0
        zs = find_zeros(neumann, SearchBox(lo, hi, -0.5, 0.0))
        mid = lo + (hi - lo) * 0.5
        assert calls[1][0][0].real == mid == pytest.approx(2 * np.pi)
        assert calls[2][0][0].real == mid + 1e-6 * (hi - lo)
        assert calls[2][0][0].real == pytest.approx(6.2831959, abs=1e-7)
        assert [len(c) for c in calls[1:3]] == [5, 5]
        ks = [r.k.real for r in zs.resonances]
        assert ks == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], abs=1e-10)

    @pytest.mark.parametrize("shift", [-1e-14, 1e-14])
    def test_zeros_with_one_re_k_go_by_im_k(self, neumann, monkeypatch, shift):
        # an embedded real zero and the resonance below it, whose Re k differ
        # in the last digits: the real zero comes second either way, and its
        # duplicate from a neighbouring leaf stays beside it for the dedup
        x = 42.94880921686928
        found = [complex(x + shift, 0.0), complex(40.0, -1.0), complex(x, -1.8774),
                 complex(x - shift, 1e-15)]
        box = SearchBox(39.0, 44.0, -2.0, 1.0)
        monkeypatch.setattr(zeros, "_winding_nudged", lambda system, b: (3, 1.0, box, None))
        monkeypatch.setattr(zeros, "_subdivide", lambda *args: args[-1].extend(
            zeros.Resonance(k, 0.0) for k in found))
        ks = [r.k for r in find_zeros(neumann, box)]
        assert ks == [complex(40.0, -1.0), complex(x, -1.8774), ks[2]]
        assert ks[2] in found[::3]

    def test_each_zero_is_evaluated_once(self, systems, band_box, monkeypatch):
        # Newton's acceptance measures the residual; no closing call repeats it
        points = []
        secular = zeros.secular_many

        def spy(system, ks):
            points.extend(np.atleast_1d(ks).tolist())
            return secular(system, ks)

        monkeypatch.setattr(zeros, "secular_many", spy)
        zs = find_zeros(systems["W1"], band_box)
        seen = Counter(points)
        assert len(zs) == 13
        assert [seen[r.k] for r in zs.resonances] == [1] * len(zs)

    def test_subdivision_additivity_fixed_splits(self, systems, band_box):
        s = systems["W1"]
        parent = count_zeros(s, band_box)
        for frac in (0.31, 0.5, 0.77):
            mid = band_box.re_min + frac * (band_box.re_max - band_box.re_min)
            left = SearchBox(band_box.re_min, mid, band_box.im_min, band_box.im_max)
            right = SearchBox(mid, band_box.re_max, band_box.im_min, band_box.im_max)
            assert count_zeros(s, left) + count_zeros(s, right) == parent

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_wide_band_zeros_match_the_reference(self, systems, name):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        lo, hi = ref["wide_band_ghz"]
        box = SearchBox.from_band(lo * 1e9, hi * 1e9, depth=ref["strip_depth"])
        ks = np.array([r.k for r in find_zeros(systems[name], box)])
        expected = np.array([complex(*k) for k in ref["wide_band_zeros"][name]])
        assert ks.shape == expected.shape
        assert np.max(np.abs(ks - expected)) < 1e-10


def _failures(monkeypatch):
    """The boundary errors ``_sample`` reports, in order, as messages."""
    messages = []
    sample = zeros._sample

    def spy(system, segments, starts=None):
        out = sample(system, segments, starts)
        messages.extend(str(r) for r in out if isinstance(r, zeros.BoundaryProximityError))
        return out

    monkeypatch.setattr(zeros, "_sample", spy)
    return messages


def _secular_points(monkeypatch):
    """The number of points of each ``secular_many`` call, in order."""
    points = []
    secular = zeros.secular_many

    def spy(system, ks):
        points.append(np.size(ks))
        return secular(system, ks)

    monkeypatch.setattr(zeros, "secular_many", spy)
    return points


def _log_derivative_points(monkeypatch):
    """The points of every ``log_derivative`` call, in order."""
    points = []
    log_derivative = zeros.log_derivative

    def spy(system, ks):
        points.extend(np.atleast_1d(ks).tolist())
        return log_derivative(system, ks)

    monkeypatch.setattr(zeros, "log_derivative", spy)
    return points


def _polished_leaves(monkeypatch):
    """(leaf, starts, accepted zeros or None) of each ``_polish`` call, in order."""
    leaves = []
    polish = zeros._polish

    def spy(system, box, scale, starts):
        leaves.append((box, starts, polish(system, box, scale, starts)))
        return leaves[-1][2]

    monkeypatch.setattr(zeros, "_polish", spy)
    return leaves


def _sequential_polish(system, box, scale, starts):
    """The leaf polish as one Newton run after another, each step a one-point
    ``log_derivative`` call and each residual a one-point ``secular_many``
    call: the reference for :func:`zeros._polish`."""
    leaf = []
    margin = max(box.re_max - box.re_min, box.im_max - box.im_min)
    for k in starts:
        for _ in range(80):
            try:
                ld = complex(zeros.log_derivative(system, [k])[0])
            except np.linalg.LinAlgError:
                break
            if ld == 0.0:
                return None
            step = -1.0 / ld
            k += step
            if not box.contains(k, margin):
                return None
            if abs(step) < zeros._NEWTON_TOL:
                break
        else:
            return None
        if not box.contains(k, zeros._DEDUP_RADIUS):
            return None
        residual = float(np.abs(secular_many(system, [k])[0]))
        if residual > zeros._RESIDUAL_REL * scale:
            return None
        if any(abs(k - z.k) < zeros._DEDUP_RADIUS for z in leaf):
            return None
        leaf.append(zeros.Resonance(k, residual))
    return leaf


def _on(piece, line):
    """Whether the segment ``piece`` lies on the segment ``line``, both
    horizontal or vertical."""
    ends = np.array([*piece, *line])
    for fixed, varying in ((ends.imag, ends.real), (ends.real, ends.imag)):
        if np.all(fixed == fixed[0]):
            lo, hi = sorted(varying[2:])
            return lo <= min(varying[:2]) and max(varying[:2]) <= hi
    return False


class TestFailurePaths:
    def test_the_residual_gate_refuses_a_converged_newton(self, systems, monkeypatch):
        # with a gate of 0 Newton converges, measures its residuals and is
        # refused every time, so the leaf shrinks until no split line is left
        polish, results, inside = zeros._polish, [], []
        secular, residuals = zeros.secular_many, []

        def spy_polish(system, box, scale, starts):
            inside.append(box)
            try:
                results.append(polish(system, box, scale, starts))
            finally:
                inside.pop()
            return results[-1]

        def spy_secular(system, ks):
            if inside:
                residuals.append(ks)
            return secular(system, ks)

        monkeypatch.setattr(zeros, "_RESIDUAL_REL", 0.0)
        monkeypatch.setattr(zeros, "_polish", spy_polish)
        monkeypatch.setattr(zeros, "secular_many", spy_secular)
        with pytest.raises(SolverError):
            find_zeros(systems["W1"], SearchBox(16.0, 17.5, -1.5, 0.0))
        assert residuals and results and all(r is None for r in results)

    def test_halves_that_miscount_try_the_next_split_line(self, neumann, monkeypatch):
        # the first split's two halves come back one zero too many, which
        # their parent's winding refutes: the split moves to the next fraction
        winding, calls = zeros._loop_winding, []
        strips, fractions = zeros._strips, []

        def miscount(sides):
            calls.append(sides)
            count, scale = winding(sides)
            return count + (len(calls) == 2), scale

        def spy_strips(system, box, sides, axis, cuts):
            if sides is not None:
                fractions.append((cuts[0] - box.re_min) / (box.re_max - box.re_min))
            return strips(system, box, sides, axis, cuts)

        monkeypatch.setattr(zeros, "_loop_winding", miscount)
        monkeypatch.setattr(zeros, "_strips", spy_strips)
        zs = find_zeros(neumann, SearchBox(0.1, 10.0, -0.5, 0.0))
        assert fractions[:2] == pytest.approx(zeros._SPLIT_FRACTIONS[:2], abs=1e-12)
        assert [r.k for r in zs] == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], abs=1e-10)

    def test_a_negative_winding_is_a_solver_error(self):
        clockwise = np.exp(-0.5j * np.pi * np.arange(4))
        with pytest.raises(SolverError, match="-1.0 is not a nonnegative integer"):
            zeros._loop_winding([(None, clockwise)])

    def test_a_non_integer_winding_is_a_solver_error(self, monkeypatch):
        # a closed loop's steps sum to a multiple of 2 pi up to rounding, so
        # only phase steps that are wrong reach this check
        monkeypatch.setattr(zeros, "_phase_steps", lambda f: np.full(f.size - 1, np.pi / 4))
        with pytest.raises(SolverError, match="0.5 is not a nonnegative integer"):
            zeros._loop_winding([(None, np.ones(4, dtype=complex))])

    def test_a_side_on_a_zero_after_five_nudges_is_a_solver_error(self, neumann,
                                                                  monkeypatch):
        # every sample is below the floor, so each of the five boxes has a
        # side "on a zero"
        failures = _failures(monkeypatch)
        monkeypatch.setattr(zeros, "_ABS_FLOOR", np.inf)
        with pytest.raises(SolverError, match="after 5 nudges"):
            count_zeros(neumann, SearchBox(1.0, 10.0, -0.5, 0.0))
        assert failures and set(failures) == {"secular vanishes on the boundary"}

    def test_a_side_over_the_sample_cap_after_five_nudges_is_a_solver_error(
            self, neumann, monkeypatch):
        # the right side passes 1e-4 from the zero at 3 pi, whose phase swing
        # needs more than the first 17 samples, on each of the five boxes
        failures = _failures(monkeypatch)
        monkeypatch.setattr(zeros, "_MAX_SIDE_SAMPLES", 17)
        with pytest.raises(SolverError, match="after 5 nudges"):
            count_zeros(neumann, SearchBox(1.0, 3 * np.pi + 1e-4, -0.5, 0.0))
        assert failures == ["side refinement exceeded 17 samples"] * 5

    def test_a_singular_first_newton_step_accepts_the_box_centre(self, systems, monkeypatch):
        # a +-1e-9 box round W1's zero near 16.8258 - 0.8891i: the centre
        # already passes the residual gate
        k = 16.825755091440058 - 0.8890841257805225j
        calls = []

        def singular(system, points):
            calls.append(points)
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(zeros, "log_derivative", singular)
        box = SearchBox(k.real - 1e-9, k.real + 1e-9, k.imag - 1e-9, k.imag + 1e-9)
        [r] = zeros._polish(systems["W1"], box, 1.0, [k])
        assert len(calls) == 1
        assert r.k == pytest.approx(k, abs=1e-12)
        assert r.residual <= zeros._RESIDUAL_REL

    def test_a_zero_log_derivative_shrinks_the_box(self, systems, monkeypatch):
        monkeypatch.setattr(zeros, "log_derivative",
                            lambda system, ks: np.zeros(len(ks), dtype=complex))
        box = SearchBox(16.0, 17.5, -1.5, 0.0)
        assert zeros._polish(systems["W1"], box, 1.0, [16.8 - 0.9j]) is None

    @pytest.mark.parametrize("ld", [complex(np.nan, np.nan), -1.0 / 5.0 + 0j],
                             ids=["nan", "step-of-5"])
    def test_a_step_out_of_the_margin_shrinks_the_box_at_once(
            self, systems, monkeypatch, ld):
        # a step of 5 from 16.8 passes 17.5 + 1.5, the leaf grown by its
        # larger side, and a NaN step fails the same test, without a warning
        calls = []

        def fixed(system, ks):
            calls.append(ks)
            return np.full(len(ks), ld)

        monkeypatch.setattr(zeros, "log_derivative", fixed)
        box = SearchBox(16.0, 17.5, -1.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeros._polish(systems["W1"], box, 1.0, [16.8 - 0.9j]) is None
        assert len(calls) == 1

    def test_steps_that_grow_inside_the_margin_go_on_to_the_zero(
            self, systems, band_zeros, monkeypatch):
        # four forced steps, each twice the last, stay inside a 0.2-wide leaf
        # round a W1 zero; Newton's own steps then reach that zero
        zs = band_zeros["W1"]
        z = min(zs, key=lambda r: abs(r.k - (16.8 - 0.9j))).k
        forced = [0.001, -0.002, 0.004, -0.008]
        points = []
        log_derivative = zeros.log_derivative

        def spy(system, ks):
            points.extend(ks)
            if len(points) <= len(forced):
                return np.array([-1.0 / forced[len(points) - 1] + 0j])
            return log_derivative(system, ks)

        monkeypatch.setattr(zeros, "log_derivative", spy)
        box = SearchBox(z.real - 0.1, z.real + 0.1, z.imag - 0.1, z.imag + 0.1)
        [r] = zeros._polish(systems["W1"], box, zs.boundary_scale, [z])
        assert r.k == pytest.approx(z, abs=1e-12)
        assert np.real(points[1:5]) - z.real == pytest.approx(
            np.cumsum(forced), abs=1e-12)

    def test_a_singular_point_in_a_batch_stops_only_its_run(self, neumann, monkeypatch):
        # A(0) = I - Sigma of the Neumann interval is exactly singular: the
        # leaf's first call raises, its two points are evaluated again one
        # at a time, and the run at 0 is accepted where it stands while the
        # other goes on alone to pi
        calls = []
        log_derivative = zeros.log_derivative

        def spy(system, ks):
            calls.append(np.atleast_1d(ks).tolist())
            return log_derivative(system, ks)

        monkeypatch.setattr(zeros, "log_derivative", spy)
        box = SearchBox(-0.5, 4.0, -0.5, 0.5)
        low, high = zeros._polish(neumann, box, 1.0, [0j, 3.0 - 0.01j])
        assert low.k == 0j and high.k == pytest.approx(np.pi, abs=1e-12)
        assert calls[:3] == [[0j, 3.0 - 0.01j], [0j], [3.0 - 0.01j]]
        assert len(calls) > 4 and all(len(c) == 1 and c != [0j] for c in calls[3:])

    def test_a_run_that_never_converges_shrinks_the_box_after_80_steps(
            self, systems, monkeypatch):
        # each step reflects the point through the leaf's centre: it stays in
        # the leaf and never falls below the tolerance
        centre, calls = 16.8 - 0.9j, []

        def reflect(system, ks):
            calls.append(ks)
            return -1.0 / (2.0 * (centre - ks))

        monkeypatch.setattr(zeros, "log_derivative", reflect)
        box = SearchBox(16.7, 16.9, -1.0, -0.8)
        assert zeros._polish(systems["W1"], box, 1.0, [centre + 0.01]) is None
        assert len(calls) == 80

    def test_subdivision_deeper_than_the_cap_is_a_solver_error(self, neumann, monkeypatch):
        # three zeros need at least two splits
        monkeypatch.setattr(zeros, "_MAX_DEPTH", 1)
        with pytest.raises(SolverError, match="subdivision depth exceeded"):
            find_zeros(neumann, SearchBox(0.1, 10.0, -0.5, 0.0))


class TestMomentStart:
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "g1-e40"])
    def test_each_zero_lies_near_its_leaf_moment(self, systems, name, monkeypatch):
        # the trapezoid rule over the winding's samples: at most 1.5% of the
        # leaf's larger side on these bands (0.93% when every leaf held one
        # zero), where every leaf has positions
        system, box = ((systems[name], WIDE_BOX) if name in systems
                       else (_data_system(name), SearchBox.from_band(1.0e9, 1.3e9)))
        counts = []
        moment = zeros._moment

        def spy(system, box, sides, count):
            starts = moment(system, box, sides, count)
            counts.extend([count] * (starts is not None))
            return starts

        monkeypatch.setattr(zeros, "_moment", spy)
        leaves = _polished_leaves(monkeypatch)
        zs = find_zeros(system, box)
        # each run returns its zero (7 of 175 failed from leaf centres), so
        # every leaf with starts, of up to four zeros, is polished directly
        assert all(found is not None for *_, found in leaves)
        runs = [(leaf, start, zero) for leaf, starts, found in leaves
                for start, zero in zip(starts, found)]
        assert sum(counts) == len(runs) == len(zs) > 0
        assert 2 <= max(counts) <= zeros._MAX_LEAF_COUNT
        for leaf, start, r in runs:
            side = max(leaf.re_max - leaf.re_min, leaf.im_max - leaf.im_min)
            assert abs(r.k - start) <= 0.02 * side

    def test_newton_takes_at_most_five_log_derivatives_per_zero(
            self, systems, band_box, monkeypatch):
        # 178 points from the leaf centres, 50 from the moments of count-1
        # leaves, 58 from the power sums of leaves of up to four zeros, in
        # 20 calls with each leaf's runs in lockstep
        points = _log_derivative_points(monkeypatch)
        assert len(find_zeros(systems["W1"], band_box)) == 13
        assert len(points) <= 5 * 13

    def test_a_root_box_without_positions_is_bisected_first(self, neumann, monkeypatch):
        # a root box's sides keep their values only: it has no moment, so its
        # one zero, pi, is polished in a part whose sides all carry positions
        box = SearchBox(2.0, 4.0, -0.5, 0.0)
        *_, used, sides = zeros._winding_nudged(neumann, box)
        assert zeros._moment(neumann, used, sides, 1) is None
        leaves = _polished_leaves(monkeypatch)
        [r] = find_zeros(neumann, box)
        assert leaves and all(leaf != used and starts is not None for leaf, starts, _ in leaves)
        assert r.k == pytest.approx(np.pi, abs=1e-10)

    def test_a_leaf_whose_runs_meet_is_bisected(self, systems, band_box, band_zeros,
                                                  monkeypatch):
        # every start of a leaf of two or more zeros is put on its first, so
        # the leaf's runs reach one zero twice: the leaf is bisected, and its
        # parts find every zero
        moment, leaves, forced = zeros._moment, [], []

        def one_point(system, box, sides, count):
            starts = moment(system, box, sides, count)
            if starts is not None:
                leaves.append(box)
                if count > 1:
                    forced.append(box)
                    starts = [starts[0]] * count
            return starts

        monkeypatch.setattr(zeros, "_moment", one_point)
        ks = [r.k for r in find_zeros(systems["W1"], band_box)]
        assert ks == pytest.approx([r.k for r in band_zeros["W1"]], abs=1e-10)
        assert forced
        for leaf in forced:
            parts = [box for box in leaves if box != leaf
                     and leaf.contains(complex(box.re_min, box.im_min))
                     and leaf.contains(complex(box.re_max, box.im_max))]
            assert parts

    def test_a_three_zero_leaf_with_one_failing_run_is_bisected(
            self, systems, band_box, band_zeros, monkeypatch):
        # the third run of the first three-zero leaf meets a zero
        # log-derivative at its start: the leaf fails at its first step and
        # is bisected, and its parts find all three of its zeros
        moment, poisoned = zeros._moment, []

        def spy_moment(system, box, sides, count):
            starts = moment(system, box, sides, count)
            if count == 3 and starts is not None and not poisoned:
                poisoned.append((box, starts[2]))
            return starts

        log_derivative, calls = zeros.log_derivative, []

        def spy(system, ks):
            calls.append(ks)
            lds = log_derivative(system, ks)
            return np.where(ks == poisoned[0][1], 0j, lds) if poisoned else lds

        monkeypatch.setattr(zeros, "_moment", spy_moment)
        monkeypatch.setattr(zeros, "log_derivative", spy)
        leaves = _polished_leaves(monkeypatch)
        ks = [r.k for r in find_zeros(systems["W1"], band_box)]
        assert ks == pytest.approx([r.k for r in band_zeros["W1"]], abs=1e-10)
        [(leaf, start)] = poisoned
        assert [found for box, _, found in leaves if box == leaf] == [None]
        assert [len(ks) for ks in calls if start in ks] == [3]
        inside = sorted((r.k for r in band_zeros["W1"] if leaf.contains(r.k)), key=abs)
        parts = sorted((z.k for box, _, found in leaves if box != leaf and found
                        and leaf.contains(complex(box.re_min, box.im_min))
                        and leaf.contains(complex(box.re_max, box.im_max))
                        for z in found), key=abs)
        assert len(inside) == 3 and parts == pytest.approx(inside, abs=1e-12)

    def test_a_leaf_whose_roots_are_not_finite_is_bisected(
            self, systems, band_box, band_zeros, monkeypatch):
        # Durand-Kerner iterates that meet divide by zero: no Newton run
        # starts from such a leaf, and its parts find the zeros
        roots, failed = zeros._roots, []

        def meet(coefficients):
            if len(coefficients) > 2:
                failed.append(coefficients)
                return np.full(len(coefficients) - 1, complex(np.inf, np.nan))
            return roots(coefficients)

        monkeypatch.setattr(zeros, "_roots", meet)
        leaves = _polished_leaves(monkeypatch)
        ks = [r.k for r in find_zeros(systems["W1"], band_box)]
        assert ks == pytest.approx([r.k for r in band_zeros["W1"]], abs=1e-10)
        assert failed and all(np.isfinite(starts).all() for _, starts, _ in leaves)

    def test_roots_of_a_quartic_with_close_pairs(self):
        want = np.array([0.1 + 0.2j, 0.1 + 0.2001j, -0.3 - 0.1j, 0.4j])
        got = zeros._roots(np.poly(want))
        assert np.sort_complex(got) == pytest.approx(np.sort_complex(want), abs=1e-9)

    def test_roots_that_overflow_leave_the_leaf_without_starts(self, neumann, monkeypatch):
        # Python complex arithmetic raises on overflow where numpy gives inf:
        # the roots come back as NaNs, and the leaf has no moment
        coefficients = [1.0, 1e300, 1e300, 1e300]
        roots = zeros._roots
        got = roots(coefficients)
        assert len(got) == 3 and np.isnan(got).all()
        monkeypatch.setattr(zeros, "_roots", lambda c: roots(coefficients))
        box = SearchBox(2.0, 4.0, -0.5, 0.5)
        assert zeros._moment(neumann, box, _sides(neumann, box, positions=True), 3) is None

    def test_a_moment_outside_the_leaf_within_the_margin_starts_newton(
            self, systems, band_box, band_zeros, monkeypatch):
        # every estimate moves right of its leaf by half the leaf's width:
        # Newton starts there all the same, and the zeros stand
        moment = zeros._moment

        def outside(system, box, sides, count):
            starts = moment(system, box, sides, count)
            return None if starts is None else [
                complex(1.5 * box.re_max - 0.5 * box.re_min, m.imag) for m in starts]

        monkeypatch.setattr(zeros, "_moment", outside)
        points = _log_derivative_points(monkeypatch)
        firsts = []
        polish = zeros._polish

        def spy(system, box, scale, starts):
            margin = max(box.re_max - box.re_min, box.im_max - box.im_min)
            for start in starts:
                assert not box.contains(start) and box.contains(start, margin)
            firsts.append((len(points), starts))
            return polish(system, box, scale, starts)

        monkeypatch.setattr(zeros, "_polish", spy)
        ks = [r.k for r in find_zeros(systems["W1"], band_box)]
        assert ks == pytest.approx([r.k for r in band_zeros["W1"]], abs=1e-10)
        # each leaf's first log_derivative call holds its starts
        assert firsts and all(points[i:i + len(starts)] == starts for i, starts in firsts)


@pytest.fixture()
def sampled_segments(monkeypatch):
    """How often each side segment {z0, z1} is sampled, in either direction."""
    seen = Counter()
    sample = zeros._sample

    def spy(system, segments, starts=None):
        for z0, z1 in segments:
            seen[frozenset((z0, z1))] += 1
        return sample(system, segments, starts)

    monkeypatch.setattr(zeros, "_sample", spy)
    return seen


class TestSamplingOnce:
    def test_subdivision_reuses_the_root_sides_and_split_line(
        self, systems, band_box, sampled_segments
    ):
        find_zeros(systems["W1"], band_box)
        # the box searched: the band's top on the real axis goes up to Im k = 1
        box = SearchBox(band_box.re_min, band_box.re_max, band_box.im_min, 1.0)
        c = box.corners
        for side in range(4):
            assert sampled_segments[frozenset((c[side], c[(side + 1) % 4]))] == 1
        mid = box.re_min + (box.re_max - box.re_min) * 0.5
        split = frozenset((complex(mid, box.im_min), complex(mid, box.im_max)))
        assert sampled_segments[split] == 1

    def test_a_nudge_keeps_the_opposite_side(self, neumann, sampled_segments):
        # the right edge runs through the zero at pi: the nudge moves it, the
        # bottom and the top, and the left side keeps its first samples
        count, _, used, sides = zeros._winding_nudged(neumann, SearchBox(1.0, np.pi, -0.5, 0.0))
        assert count == 1 and used.re_max > np.pi
        assert sampled_segments[frozenset((complex(1.0, 1.0), complex(1.0, -0.5)))] == 1
        # the same values as sampling the moved box afresh
        for got, want in zip(sides, zeros._winding_nudged(neumann, used)[3]):
            assert got[0] is want[0] is None and np.array_equal(got[1], want[1])

    def test_a_root_side_is_sampled_afresh_once_and_bisection_lines_never(
            self, systems, monkeypatch):
        # the halves' windings check the root's on an independent sampling:
        # the first split samples the root's bottom and top afresh, two pieces
        # each, and from then on every piece of a line the bisection sampled
        # starts from that line's samples (112 on W2's 75 zeros at 0.3-10
        # GHz; W1's 38 at 0.3-6 GHz, in leaves of up to four, give only 56)
        calls = []
        sample = zeros._sample

        def spy(system, segments, starts=None):
            calls.append([(segment, start is None)
                          for segment, start in zip(segments, starts or [None] * len(segments))])
            return sample(system, segments, starts)

        monkeypatch.setattr(zeros, "_sample", spy)
        band = SearchBox.from_band(0.3e9, 10.0e9)
        assert len(find_zeros(systems["W2"], band)) == 75
        root, first, *rest = calls
        box = SearchBox(band.re_min, band.re_max, band.im_min, 1.0)
        assert {segment for segment, _ in root} == {zeros._segment(box, side)
                                                   for side in range(4)}
        assert all(fresh for _, fresh in root + first)
        assert [sum(_on(segment, zeros._segment(box, side)) for segment, _ in first)
                for side in (0, 2)] == [2, 2]
        sampled, inherited = [segment for segment, _ in first], 0
        for call in rest:
            for segment, fresh in call:
                assert fresh == (not any(_on(segment, line) for line in sampled))
                inherited += not fresh
            sampled += [segment for segment, _ in call]
        assert inherited > 100

    def test_subdivision_evaluates_each_line_once(self, systems, band_box, monkeypatch):
        # 4 359 secular points when every piece was sampled afresh, 2 010 when
        # Newton started at the leaf centres and failed starts bisected
        # further, 1 738 when bisection went down to count-1 leaves
        points = _secular_points(monkeypatch)
        assert len(find_zeros(systems["W1"], band_box)) == 13
        assert sum(points) == 1295

    @pytest.mark.parametrize("name, count", [("W1", 13658), ("nW2", 15599)])
    def test_counting_samples_its_strips_afresh(self, systems, name, count, monkeypatch):
        # the strips' bottoms and tops are pieces of the root's sides, which
        # keep their values only, so the strips check the root independently
        points = _secular_points(monkeypatch)
        counting_function(systems[name], FIT_GRID)
        assert sum(points) == count

    def test_counting_samples_no_line_twice(self, systems, sampled_segments):
        counting_function(systems["W1"], FIT_GRID)
        assert max(sampled_segments.values()) == 1

    def test_a_cut_through_a_zero_resamples_only_the_lines_beside_it(
            self, systems, band_zeros, counting_tables, monkeypatch):
        # a cut at each band zero's Re k runs through it and moves right; the
        # batches after the first hold the moved cuts and the bottoms and tops
        # of the strips beside them (16 619 points), not every line again
        # (25 784)
        points = _secular_points(monkeypatch)
        positions = [r.k.real for r in band_zeros["W1"]]
        table = dict(counting_function(systems["W1"], np.union1d(FIT_GRID, positions)))
        assert sum(points) < 20000
        # each zero counts in N at its own Re k, and the grid's counts stand
        assert [table[x] for x in positions] == list(range(1, 14))
        assert [(r, table[r]) for r in FIT_GRID] == counting_tables["W1"][0]

    def test_counting_samples_cuts_with_the_strip_sides(self, systems, monkeypatch):
        # one batch for the root's sides, one for every cut and strip side
        batches = []
        sample = zeros._sample

        def spy(system, segments, starts=None):
            batches.append(len(segments))
            return sample(system, segments, starts)

        monkeypatch.setattr(zeros, "_sample", spy)
        counting_function(systems["W1"], FIT_GRID)
        cuts = len(FIT_GRID) - 1
        assert batches == [4, cuts + 2 * (cuts + 1)]

    def test_counting_batches_its_secular_calls(self, systems, monkeypatch):
        # 120 cuts and 242 strip sides, sampled in batches rather than
        # one call per side and refinement round
        calls = _secular_points(monkeypatch)
        counting_function(systems["W1"], FIT_GRID)
        assert len(calls) < 100


def _sides(system, box, positions=False):
    """The box's four sides sampled in one batch, with their values only, like
    a root box's, or with their positions too; raises the first boundary error."""
    out = zeros._sample(system, [zeros._segment(box, side) for side in range(4)])
    for error in (r for r in out if isinstance(r, zeros.BoundaryProximityError)):
        raise error
    return [(t if positions else None, f) for t, f in out]


def _alone(system, segments):
    """Each segment sampled in a batch of its own."""
    return [zeros._sample(system, [segment])[0] for segment in segments]


def _same_result(a, b) -> bool:
    if isinstance(a, zeros.BoundaryProximityError):
        return isinstance(b, zeros.BoundaryProximityError) and str(a) == str(b)
    return (not isinstance(b, zeros.BoundaryProximityError)
            and all(np.array_equal(x, y) for x, y in zip(a, b)))


class TestBatchedSampler:
    def test_a_segment_through_a_zero_reports_its_own_side(self, neumann):
        # the left side of this box runs through the zero at pi
        box = SearchBox(np.pi, 10.0, -0.5, 0.2)
        segments = [zeros._segment(box, side) for side in (0, 3, 1)]
        out = zeros._sample(neumann, segments)
        assert [isinstance(r, zeros.BoundaryProximityError) for r in out] == [
            False, True, False]
        for got, want in zip(out[::2], _alone(neumann, segments[::2])):
            assert _same_result(got, want)
            assert got[0][0] == 0.0 and got[0][-1] == 1.0

    def test_no_segments(self, neumann):
        assert zeros._sample(neumann, []) == []

    def test_a_long_side_gets_the_phase_speed_grid(self):
        # the counting root's top on g1-e40 (Im k = 1, Re k up to 400): a
        # first grid capped at 4097 points left phase steps of up to 1.52 rad
        graph = load_graph(DATA / "g1-e40.graph")
        root = SearchBox(zeros._K_MIN, 400.0, -STRIP_DEPTH, 0.0)
        *_, used, sides = zeros._winding_nudged(build_bond_system(graph), root)
        rule = 8.0 * (used.re_max - used.re_min) * 2.0 * total_length(graph) / np.pi
        assert sides[2][1].size >= int(rule) > 13000


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

    def test_a_cut_that_stays_near_a_zero_is_a_boundary_error(self, neumann,
                                                               monkeypatch):
        # every sampling of the first cut reports a zero on it: it moves by
        # 9e-6, dropping the cut it reaches, for five batches in all, and then
        # the cut is a boundary error.  A batch after the first holds only the
        # moved cut and the bottoms and tops of the two strips beside it.
        batches = []
        sample = zeros._sample

        def near(system, segments, starts=None):
            batches.append((segments[0][0].real, len(segments)))
            out = sample(system, segments, starts)
            out[0] = zeros.BoundaryProximityError("on a zero")
            return out

        box = SearchBox(1.0, 10.0, -0.5, 0.2)
        sides = _sides(neumann, box)
        monkeypatch.setattr(zeros, "_sample", near)
        with pytest.raises(zeros.BoundaryProximityError, match="line still near a zero"):
            zeros._strips(neumann, box, sides, 0, [4.0, 4.000001, 7.0])
        assert [x for x, _ in batches] == pytest.approx(
            [4.0 + 9e-6 * n for n in range(5)], abs=1e-12)
        assert [n for _, n in batches] == [3 + 2 * 4] + [1 + 2 * 2] * 4

    def test_a_non_finite_winding_is_a_solver_error(self):
        with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not finite"):
            zeros._loop_winding([(None, np.array([1.0, np.nan, 1j]))])

    def test_strips_must_sum_to_the_root_winding(self, neumann, overcounted_root):
        with pytest.raises(SolverError, match="root winding"):
            counting_function(neumann, [4.0, 10.0], depth=0.5)


def _located_counts(system, R, depth=STRIP_DEPTH):
    """N(R) by the definition the strip counter replaced: locate every zero
    of the root strip, then count positions Re k <= R."""
    box = SearchBox(zeros._K_MIN, float(R[-1]), -depth, 0.0)
    positions = np.array([r.k.real for r in find_zeros(system, box)])
    return list(np.searchsorted(positions, R, side="right"))


class TestStripCounterAgainstLocatedZeros:
    @pytest.mark.parametrize("name", ["W1", "nW2"])
    def test_equals_searchsorted_of_located_zeros(self, systems, name):
        R = np.linspace(2.0, 150.0, 75)
        table = counting_function(systems[name], R)
        assert [n for _, n in table] == _located_counts(systems[name], R)


@st.composite
def small_open_graphs(draw, max_vertices=4):
    """Connected graphs on 2 to ``max_vertices`` vertices: a path, maybe one
    extra edge (a chord or a self-loop), and one or two leads."""
    n = draw(st.integers(2, max_vertices))
    length = st.floats(0.1, 1.0)
    ends = [(v, v + 1) for v in range(1, n)]
    if draw(st.booleans()):
        ends.append((draw(st.integers(1, n)), draw(st.integers(1, n))))
    edges = tuple(Edge(i + 1, a, b, draw(length)) for i, (a, b) in enumerate(ends))
    anchors = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(edges, leads)


class TestStripCounterProperties:
    @given(small_open_graphs(), st.floats(10.0, 40.0), st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_total_is_the_root_winding_and_table_is_monotone(self, graph, r_max, n):
        system = build_bond_system(graph)
        R = np.linspace(r_max / n, r_max, n)
        counts = [c for _, c in counting_function(system, R)]
        root = SearchBox(zeros._K_MIN, r_max, -STRIP_DEPTH, 0.0)
        assert counts[-1] == count_zeros(system, root)
        assert counts == sorted(counts)


def _zeros_or_message(system, box):
    """The zeros ``find_zeros`` locates in ``box``, or its SolverError message."""
    try:
        return [r.k for r in find_zeros(system, box)]
    except SolverError as error:
        return str(error)


def _assert_same_zeros(got, want, tol):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and len(got) == len(want)
        assert np.all(np.abs(np.subtract(got, want)) <= tol)


class TestLeafCapProperties:
    @given(small_open_graphs(5), st.floats(0.5, 20.0), st.floats(2.0, 20.0),
           st.floats(-4.0, -0.5))
    @settings(max_examples=25, deadline=None)
    def test_leaves_of_several_zeros_find_what_count_1_leaves_find(
            self, graph, re_min, width, im_min):
        system = build_bond_system(graph)
        box = SearchBox(re_min, re_min + width, im_min, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeros, "_MAX_LEAF_COUNT", 1)
            single = _zeros_or_message(system, box)
        _assert_same_zeros(_zeros_or_message(system, box), single, 1e-12)

    @given(small_open_graphs(5), st.floats(0.5, 20.0), st.floats(2.0, 20.0),
           st.floats(-4.0, -0.5))
    @settings(max_examples=25, deadline=None)
    def test_runs_in_lockstep_find_what_runs_in_turn_find(
            self, graph, re_min, width, im_min):
        system = build_bond_system(graph)
        box = SearchBox(re_min, re_min + width, im_min, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeros, "_polish", _sequential_polish)
            in_turn = _zeros_or_message(system, box)
        _assert_same_zeros(_zeros_or_message(system, box), in_turn, 1e-13)


class TestStripHelperProperties:
    @given(small_open_graphs(), st.floats(0.5, 30.0), st.floats(0.5, 10.0),
           st.floats(-8.0, -0.5), st.floats(-0.4, 0.5), st.integers(0, 1),
           st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_halves_count_like_fresh_boxes(self, graph, re_min, width, im_min,
                                           im_max, axis, frac):
        system = build_bond_system(graph)
        box = SearchBox(re_min, re_min + width, im_min, im_max)
        lo, hi = (box.re_min, box.re_max) if axis == 0 else (box.im_min, box.im_max)
        mid = lo + (hi - lo) * frac
        try:
            sides = _sides(system, box)
            halves = zeros._strips(system, box, sides, axis, [mid])
        except zeros.BoundaryProximityError:
            assume(False)
        assert [half for half, _ in halves] == [
            zeros._span(box, axis, lo, mid), zeros._span(box, axis, mid, hi)
        ]
        counts = [zeros._loop_winding(s)[0] for _, s in halves]
        assert counts == [count_zeros(system, half) for half, _ in halves]
        assert sum(counts) == zeros._loop_winding(sides)[0]

    @given(small_open_graphs(), st.floats(0.5, 30.0), st.floats(0.5, 10.0),
           st.floats(-8.0, -0.5), st.floats(-0.4, 0.5), st.integers(0, 1),
           st.floats(0.1, 0.9), st.integers(0, 1), st.floats(0.1, 0.9))
    # top sides a hair above a real zero: rescaling a position there moves
    # k by an ulp and f by a relative 1e-8, which only the absolute term meets
    @example(MetricGraph((Edge(1, 1, 2, 1.0), Edge(2, 1, 1, 1.0)), (Lead(1, 1),)),
             5.0, 3.0, -1.0, 2.0 ** -24, 0, 0.5, 0, 0.5)
    @example(MetricGraph((Edge(1, 1, 2, 1.0), Edge(2, 1, 2, 1.0)), (Lead(1, 1),)),
             3.0, 1.859375, -1.0, 2.0 ** -23, 0, 0.5, 0, 0.5)
    @settings(max_examples=30, deadline=None)
    def test_quarters_from_inherited_sides_count_like_fresh_boxes(
            self, graph, re_min, width, im_min, im_max, axis, frac, which, frac2):
        # the box's sides keep their positions, so every piece along either
        # cut starts from the samples of the line it lies on
        system = build_bond_system(graph)
        box = SearchBox(re_min, re_min + width, im_min, im_max)
        try:
            sides = _sides(system, box, positions=True)
            lo, hi = zeros._extent(box, axis)
            halves = zeros._strips(system, box, sides, axis, [lo + (hi - lo) * frac])
            half, half_sides = halves[which]
            lo, hi = zeros._extent(half, 1 - axis)
            quarters = zeros._strips(system, half, half_sides, 1 - axis,
                                     [lo + (hi - lo) * frac2])
        except zeros.BoundaryProximityError:
            assume(False)
        counts = [zeros._loop_winding(s)[0] for _, s in quarters]
        assert counts == [count_zeros(system, quarter) for quarter, _ in quarters]
        assert sum(counts) == zeros._loop_winding(half_sides)[0] == count_zeros(system, half)
        # each side's values are those at its positions
        for quarter, quarter_sides in quarters:
            for side, (t, f) in enumerate(quarter_sides):
                want = zeros._secular_at(system, [zeros._segment(quarter, side)], [t])[0]
                np.testing.assert_allclose(f, want, rtol=1e-9,
                                           atol=1e-12 * np.abs(want).max())


_POINTS = st.builds(complex, st.floats(0.5, 30.0), st.floats(-3.0, 0.5))


class TestBatchedSamplerProperties:
    @given(small_open_graphs(),
           st.lists(st.tuples(_POINTS, _POINTS), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_each_segment_alone(self, graph, segments):
        system = build_bond_system(graph)
        segments = [(z0, z1) for z0, z1 in segments if z0 != z1]
        batched = zeros._sample(system, segments)
        assert len(batched) == len(segments)
        for got, want in zip(batched, _alone(system, segments)):
            assert _same_result(got, want)


def _graph(edges, leads=()):
    """A graph from ``(a, b, length)`` edges and lead anchors."""
    return MetricGraph(tuple(Edge(i + 1, a, b, l) for i, (a, b, l) in enumerate(edges)),
                       tuple(Lead(i + 1, v) for i, v in enumerate(leads)))


# graph, and the order of det M's zero at k = 0: E - V + 1 over the vertices
# with edges, one more if none of them has a lead
ORDER_AT_K_ZERO = {
    "tree": (_graph([(1, 2, 0.3), (2, 3, 0.4), (2, 4, 0.2)], leads=(1, 3)), 0),
    "star, one lead": (_graph([(1, 2, 0.3), (1, 3, 0.5), (1, 4, 0.2)], leads=(2,)), 0),
    "self-loop": (_graph([(1, 1, 0.4), (1, 2, 0.3)], leads=(2,)), 1),
    "multi-edge": (_graph([(1, 2, 0.2), (1, 2, 0.3), (1, 2, 0.45)], leads=(1,)), 2),
    "cycle with a pendant": (_graph([(1, 2, 0.3), (2, 3, 0.2), (3, 1, 0.5),
                                     (3, 4, 0.25)], leads=(4,)), 1),
    "compact interval": (_graph([(1, 2, 0.7)]), 1),
    "compact triangle": (_graph([(1, 2, 0.3), (2, 3, 0.2), (3, 1, 0.5)]), 2),
    "compact loop": (_graph([(1, 1, 0.6)]), 2),
    "compact multi-edge": (_graph([(1, 2, 0.3), (1, 2, 0.5)]), 2),
    "compact triangle beside a leads-only vertex": (
        _graph([(1, 2, 0.3), (2, 3, 0.2), (3, 1, 0.5)], leads=(4,)), 2),
    "leads only, one vertex": (_graph([], leads=(1, 1)), 0),
    "leads only, two vertices": (_graph([], leads=(1, 2)), 0),
}


class TestOrderAtKZero:
    @pytest.mark.parametrize("name", ORDER_AT_K_ZERO)
    def test_the_sides_factor_takes_out_the_zero_at_k_zero(self, name):
        graph, order = ORDER_AT_K_ZERO[name]
        system = build_bond_system(graph)
        r = 0.05
        for radius in (r, r / 2):
            assert _circle_winding(system, radius) == pytest.approx(order, abs=1e-6)
        # f (conj k/|k|)^beta winds 0 round k = 0 only if beta is that order
        ks = r * np.exp(2j * np.pi * np.arange(2 ** 12 + 1) / 2 ** 12)
        f = np.concatenate(zeros._secular_at(system, list(zip(ks[:-1], ks[1:])),
                                             [np.zeros(1)] * 2 ** 12))
        assert np.abs(zeros._phase_steps(np.append(f, f[0])).sum()) < 1e-6

    def test_a_leads_only_vertex_is_left_out_of_the_order(self):
        # det M vanishes to order 2 at k = 0 on this compact triangle, but
        # E - V + 1 over all four vertices says 0: wound with that, the left
        # side aliases the 2 pi swing next to k = 0 into a seventh zero.  The
        # double eigenvalues 2 pi n lie on the real axis.
        graph, _ = ORDER_AT_K_ZERO["compact triangle beside a leads-only vertex"]
        system = build_bond_system(graph)
        winding, _ = _dense_winding(system, SearchBox(zeros._K_MIN, 20.0, -4.0, 1.0))
        assert winding == pytest.approx(6, abs=1e-6)
        assert count_zeros(system, SearchBox(zeros._K_MIN, 20.0, -4.0, 0.0)) == 6


@st.composite
def small_graphs(draw):
    """Connected graphs on 1-4 vertices: a path plus up to two edges between
    any two vertices (chords, self-loops, multi-edges), with 0-2 leads."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(1, n)
    ends = [(v, v + 1) for v in range(1, n)]
    ends += draw(st.lists(st.tuples(vertex, vertex), min_size=int(n == 1), max_size=2))
    edges = [(a, b, draw(st.floats(0.1, 1.0))) for a, b in ends]
    return _graph(edges, leads=draw(st.lists(vertex, max_size=2)))


class TestCountAgainstDenseWinding:
    @given(small_graphs(), st.floats(1e-9, 29.0), st.floats(0.02, 1.0),
           st.floats(-4.0, -0.1))
    @settings(max_examples=20, deadline=None)
    def test_count_equals_a_dense_winding_up_to_im_k_1(self, graph, re_min, frac,
                                                        im_min):
        system = build_bond_system(graph)
        re_max = re_min + frac * (30.0 - re_min)
        winding, step = _dense_winding(system, SearchBox(re_min, re_max, im_min, 1.0))
        assume(step < np.pi / 4)  # no zero so near a side that the samples miss it
        assert winding == pytest.approx(round(winding), abs=1e-6)
        assert count_zeros(system, SearchBox(re_min, re_max, im_min, 0.0)) == round(winding)
