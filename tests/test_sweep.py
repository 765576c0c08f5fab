import importlib

import numpy as np
import pytest

from graphres import (
    DEFAULT_ABSORPTION,
    Edge,
    MetricGraph,
    SearchBox,
    build_bond_system,
    find_zeros,
    fixture,
    sweep,
)

from conftest import BAND_HZ


@pytest.fixture(scope="module")
def nw1_trace(systems):
    return sweep(systems["nW1"], BAND_HZ, absorption=DEFAULT_ABSORPTION)


class TestTrace:
    def test_lossless_trace_is_flat(self, systems):
        trace = sweep(systems["W1"], BAND_HZ, absorption=0.0)
        assert np.max(np.abs(trace.modulus - 1.0)) < 1e-10
        assert trace.dips == ()

    def test_bounded_and_smooth(self, nw1_trace):
        assert np.all(nw1_trace.modulus >= 0.0)
        assert np.all(nw1_trace.modulus <= 1.0 + 1e-9)
        assert np.max(np.abs(np.diff(nw1_trace.modulus))) < 0.2

    def test_samples_ascending(self, nw1_trace):
        assert np.all(np.diff(nw1_trace.nu) > 0.0)

    def test_rejects_bad_band(self, systems):
        with pytest.raises(ValueError):
            sweep(systems["W1"], (2e9, 1e9))
        for band in ((1e9, np.inf), (1e9, np.nan)):
            with pytest.raises(ValueError):
                sweep(systems["W1"], band, absorption=0.0)


class TestRefinement:
    # at absorption 1e-3 the sharpest nW1 dips over 0.3-6 GHz are steeper
    # than the base grid resolves, so the sweep inserts midpoints
    BAND = (0.3e9, 6e9)

    def test_refines_until_no_step_reaches_the_jump(self, systems, monkeypatch):
        # graphres.sweep is the function, so reach the module by name
        module = importlib.import_module("graphres.sweep")
        calls = []
        modulus = module.det_smatrix_modulus

        def spy(system, nu, absorption):
            calls.append(np.size(nu))
            return modulus(system, nu, absorption)

        monkeypatch.setattr(module, "det_smatrix_modulus", spy)
        trace = sweep(systems["nW1"], self.BAND, absorption=1e-3)
        assert calls == [16385, 4]
        assert trace.nu.size == 16389
        assert np.all(np.diff(trace.nu) > 0.0)
        assert np.max(np.abs(np.diff(trace.modulus))) < 0.2

    def test_dips_lie_at_the_vertex_through_their_three_samples(self, systems):
        # refinement leaves some minima between unequal spacings
        trace = sweep(systems["nW1"], self.BAND, absorption=1e-3)
        assert trace.dips
        unequal = 0
        for d in trace.dips:
            i = np.searchsorted(trace.nu, d.nu)
            i = i if trace.modulus[i] < trace.modulus[i - 1] else i - 1
            assert 1.0 - trace.modulus[i] == d.depth
            nu = trace.nu[i - 1:i + 2] - trace.nu[i]
            c2, c1, _ = np.polyfit(nu, trace.modulus[i - 1:i + 2], 2)
            span = nu[2] - nu[0]
            assert abs(d.nu - (trace.nu[i] - 0.5 * c1 / c2)) <= 1e-6 * span
            unequal += not np.isclose(-nu[0], nu[2])
        assert unequal


    def test_stops_at_the_sample_cap(self, systems, monkeypatch):
        module = importlib.import_module("graphres.sweep")
        monkeypatch.setattr(module, "_MAX_SAMPLES", 16386)
        trace = sweep(systems["nW1"], self.BAND, absorption=1e-3)
        assert trace.nu.size == 16386
        assert np.all(np.diff(trace.nu) > 0.0)


class TestDips:
    def test_default_absorption_shows_the_expected_eleven(self, nw1_trace):
        assert len(nw1_trace.dips) == 11

    def test_sorted_with_sane_depths(self, nw1_trace):
        nus = [d.nu for d in nw1_trace.dips]
        assert nus == sorted(nus)
        for d in nw1_trace.dips:
            assert 0.0 < d.depth <= 1.0

    def test_dip_count_never_exceeds_zero_count(self, systems, band_zeros):
        for name, system in systems.items():
            for absorption in (0.05, 0.1, 0.3):
                trace = sweep(system, BAND_HZ, absorption=absorption)
                assert len(trace.dips) <= len(band_zeros[name])

    def test_higher_prominence_keeps_fewer_dips(self, systems, nw1_trace, monkeypatch):
        module = importlib.import_module("graphres.sweep")
        monkeypatch.setattr(module, "DIP_PROMINENCE", 0.001)
        loose = sweep(systems["nW1"], BAND_HZ, DEFAULT_ABSORPTION).dips
        monkeypatch.setattr(module, "DIP_PROMINENCE", 0.05)
        strict = sweep(systems["nW1"], BAND_HZ, DEFAULT_ABSORPTION).dips
        assert len(strict) <= len(loose)
        assert len(loose) >= len(nw1_trace.dips)

    def test_strong_absorption_washes_dips_out(self, systems):
        sharp = sweep(systems["nW1"], BAND_HZ, absorption=0.1)
        smooth = sweep(systems["nW1"], BAND_HZ, absorption=2.0)
        assert len(smooth.dips) < len(sharp.dips)

    def test_dip_positions_converge_to_zeros(self, systems, band_zeros):
        # follow two sharp, well-isolated resonances while absorption shrinks
        targets = [
            r for r in band_zeros["W1"].resonances if 3e6 < r.half_width < 20e6
        ]
        assert targets, "test premise: W1 has sharp band resonances"
        for r in targets[-2:]:
            last = np.inf
            for absorption in (0.4, 0.2, 0.1, 0.05):
                trace = sweep(systems["W1"], BAND_HZ, absorption=absorption)
                dips = np.array([d.nu for d in trace.dips])
                off = np.min(np.abs(dips - r.nu))
                assert off <= last + 5e4  # nonincreasing, sampling slack
                last = off
            assert last < r.half_width

    def test_overlapping_pair_merges_into_one_dip(self):
        # nudging one length creates a close pair: a broad resonance right
        # under a sharp one; their dips fuse, flagged by dip < zero count
        g = fixture("W1")
        edges = tuple(
            Edge(e.id, e.a, e.b, 0.2255 if e.id == 4 else e.length)
            for e in g.edges
        )
        system = build_bond_system(MetricGraph(edges, g.leads))
        zs = find_zeros(system, SearchBox.from_band(*BAND_HZ))
        ks = np.array([r.k for r in zs.resonances])
        spacing = np.abs(np.diff(ks.real))
        widths = -ks.imag
        assert np.any(spacing < np.maximum(widths[:-1], widths[1:])), \
            "test premise: the perturbed network has an overlapping pair"
        trace = sweep(system, BAND_HZ, absorption=0.1)
        assert len(trace.dips) < len(zs)
