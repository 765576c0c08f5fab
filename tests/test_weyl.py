import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphres.weyl
import graphres.zeros
from graphres import (
    NON_WEYL,
    WEYL,
    ClassificationError,
    Edge,
    MetricGraph,
    SearchBox,
    classify,
    count_report,
    effective_size,
    find_zeros,
    fit_slope,
    fixture,
    interval,
    predicted_count,
    total_length,
)
from graphres.cli import report_csv_row
from graphres.weyl import round_half_up

from conftest import BAND_HZ, EXPECTED_COUNTS


class TestPredictedCount:
    def test_band_predictions(self):
        weyl, _ = predicted_count(fixture("W1"), BAND_HZ)
        assert weyl == pytest.approx(12.66, abs=0.005)
        _, nonweyl = predicted_count(fixture("nW1"), BAND_HZ)
        assert nonweyl == pytest.approx(11.36, abs=0.005)
        weyl2, _ = predicted_count(fixture("W2"), BAND_HZ)
        assert weyl2 == pytest.approx(14.59, abs=0.005)
        _, nonweyl2 = predicted_count(fixture("nW2"), BAND_HZ)
        assert nonweyl2 == pytest.approx(12.32, abs=0.005)

    def test_rounding_reproduces_expected_counts(self):
        for name, expected in EXPECTED_COUNTS.items():
            weyl, nonweyl = predicted_count(fixture(name), BAND_HZ)
            relevant = nonweyl if name.startswith("n") else weyl
            assert round_half_up(relevant) == expected

    def test_weyl_at_least_nonweyl(self):
        for name in EXPECTED_COUNTS:
            weyl, nonweyl = predicted_count(fixture(name), BAND_HZ)
            assert weyl >= nonweyl

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            predicted_count(fixture("W1"), (2e9, 1e9))

    @given(st.floats(0.1, 4.0), st.floats(0.2e9, 3e9), st.floats(0.1e9, 2e9))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_length_and_band(self, scale, nu0, span):
        g = fixture("W1")
        scaled = MetricGraph(
            g.vertices,
            tuple(Edge(e.id, e.a, e.b, scale * e.length) for e in g.edges),
            g.leads,
        )
        band = (nu0, nu0 + span)
        base = predicted_count(g, band)
        wide = predicted_count(g, (nu0, nu0 + 2.0 * span))
        big = predicted_count(scaled, band)
        assert big[0] == pytest.approx(scale * base[0], rel=1e-12)
        assert wide[0] == pytest.approx(2.0 * base[0], rel=1e-12)


class TestRounding:
    def test_half_goes_up(self):
        assert round_half_up(12.5) == 13
        assert round_half_up(11.5) == 12
        assert round_half_up(-0.5) == 0

    def test_plain_cases(self):
        assert round_half_up(12.66) == 13
        assert round_half_up(11.36) == 11
        assert round_half_up(14.59) == 15
        assert round_half_up(12.32) == 12


class TestFitSlope:
    def test_exact_line(self):
        R = np.linspace(1.0, 50.0, 25)
        slope, intercept, residual = fit_slope([(r, 3.0 * r + 2.0) for r in R])
        assert slope == pytest.approx(3.0)
        assert intercept == pytest.approx(2.0)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 2)])
        with pytest.raises(ValueError):
            fit_slope([(1.0, 2), (1.0, 3)])

    @given(st.floats(0.05, 3.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_recovers_random_lines(self, a, b):
        R = np.linspace(2.0, 90.0, 40)
        slope, intercept, _ = fit_slope([(r, a * r + b) for r in R])
        assert slope == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert intercept == pytest.approx(b, rel=1e-9, abs=1e-6)

    def test_residual_tracks_staircase(self, counting_tables):
        # the measured counting functions are integer staircases around a
        # line, so the fit residual stays desk-scale bounded
        for name, (table, _) in counting_tables.items():
            _, _, residual = fit_slope(table)
            assert residual < 3.0, f"{name} residual {residual}"


class TestClassify:
    def test_weyl_consistent(self):
        g = fixture("W1")
        assert classify(g, total_length(g) / np.pi) == WEYL

    def test_nonweyl_consistent(self):
        g = fixture("nW1")
        assert classify(g, effective_size(g) / np.pi) == NON_WEYL

    def test_compact_graph_is_weyl(self):
        g = interval(1.0)
        assert classify(g, total_length(g) / np.pi) == WEYL

    def test_inconsistency_is_an_error(self):
        g = fixture("nW1")
        # a non-Weyl graph whose counting slope follows the full length
        with pytest.raises(ClassificationError, match="non-Weyl"):
            classify(g, total_length(g) / np.pi)

    def test_scaling_leaves_class_unchanged(self):
        g = fixture("nW2")
        scaled = MetricGraph(
            g.vertices,
            tuple(Edge(e.id, e.a, e.b, 3.0 * e.length) for e in g.edges),
            g.leads,
        )
        assert classify(scaled, effective_size(scaled) / np.pi) == NON_WEYL


class TestCountReport:
    def test_nW1_report(self):
        rep = count_report(fixture("nW1"), BAND_HZ)
        assert rep.measured_count == 11
        assert rep.classification == NON_WEYL
        assert rep.slope_relative_error < 0.02
        row = report_csv_row("nW1", rep)
        assert row.startswith("nW1,0.3,2.2,11,12.66,11.36,")
        assert row.endswith(",non-Weyl")

    def test_report_locates_no_zeros(self, monkeypatch):
        # one strip table gives both the band count and the slope fit
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (graphres.weyl, graphres.zeros):
            counted(module, "find_zeros")
        counted(graphres.weyl, "counting_function")
        count_report(fixture("nW1"), BAND_HZ)
        assert calls == ["graphres.weyl.counting_function"]

    @pytest.mark.parametrize("band", [(0.0, 2.2e9), (0.5e9, 1.5e9),
                                      (1e9, 6e9), (2.2e9, 4.4e9)])
    @pytest.mark.parametrize("name", ["W1", "nW1", "W2", "nW2"])
    def test_measured_count_equals_located_count(self, systems, name, band):
        located = find_zeros(systems[name], SearchBox.from_band(*band))
        assert count_report(fixture(name), band).measured_count == len(located)
