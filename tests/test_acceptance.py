"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``[criterion N] label: PASS|FAIL`` line to the live terminal before
asserting, so the scoreboard survives capture even on failure.
"""

import time

import numpy as np
import pytest

from graphres import (
    Edge,
    MetricGraph,
    SearchBox,
    build_bond_system,
    count_zeros,
    external_smatrix,
    find_zeros,
    fit_slope,
    fixture,
    interval,
    secular_many,
    sweep,
)

from conftest import (
    BAND_HZ,
    EFFECTIVE_SIZES,
    EXPECTED_COUNTS,
    TOTAL_LENGTHS,
)

SLOPE_TOL = 0.02
UNITARITY_TOL = 1e-10
NEUMANN_TOL = 1e-10
SCALING_TOL = 1e-9
# sweep absorptions (1/m) tuned per network so trace dips stay resolved
DIP_ABSORPTION = {"W1": 0.10, "nW1": 0.05, "W2": 0.10, "nW2": 0.15}


def report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_band_resonance_counts(capsys, band_box):
    budget_s = 10.0
    outcomes = {}
    for name, expected in EXPECTED_COUNTS.items():
        system = build_bond_system(fixture(name))
        t0 = time.perf_counter()
        zs = find_zeros(system, band_box)
        elapsed = time.perf_counter() - t0
        outcomes[name] = (len(zs), expected, elapsed)
    ok = all(n == want and dt < budget_s
             for n, want, dt in outcomes.values())
    report(capsys, 1, "0.3-2.2 GHz resonance counts", ok)
    assert ok, outcomes


def test_criterion_2_weyl_slopes(capsys, counting_tables):
    budget_s = 60.0
    outcomes = {}
    spent = 0.0
    for name in ("W1", "W2"):
        table, seconds = counting_tables[name]
        slope, _, _ = fit_slope(table)
        target = TOTAL_LENGTHS[name] / np.pi
        outcomes[name] = (slope, target, abs(slope - target) / target)
        spent += seconds
    ok = spent < budget_s and all(
        err <= SLOPE_TOL for _, _, err in outcomes.values()
    )
    report(capsys, 2, "Weyl counting slopes L/pi", ok)
    assert ok, (outcomes, spent)


def test_criterion_3_nonweyl_slopes(capsys, counting_tables):
    outcomes = {}
    for name in ("nW1", "nW2"):
        table, _ = counting_tables[name]
        slope, _, _ = fit_slope(table)
        target = EFFECTIVE_SIZES[name] / np.pi
        outcomes[name] = (slope, target, abs(slope - target) / target)
    ok = all(err <= SLOPE_TOL for _, _, err in outcomes.values())
    report(capsys, 3, "non-Weyl slopes (L - l_s)/pi", ok)
    assert ok, outcomes


def test_criterion_4_smatrix_unitarity(capsys, systems):
    k_lo = 2.0 * np.pi * BAND_HZ[0] / 299792458.0
    k_hi = 2.0 * np.pi * BAND_HZ[1] / 299792458.0
    worst = 0.0
    for system in systems.values():
        eye = np.eye(system.n_leads)
        for k in np.linspace(k_lo, k_hi, 1000):
            s = external_smatrix(system, k)
            worst = max(worst, np.max(np.abs(s.conj().T @ s - eye)))
    ok = worst < UNITARITY_TOL
    report(capsys, 4, f"unitarity on the real axis (worst {worst:.2e})", ok)
    assert ok


def test_criterion_5_closed_interval_spectrum(capsys):
    closed = build_bond_system(interval(leads=0))
    box = SearchBox(0.1, 100.0 * np.pi + 1.5, -0.5)
    zs = find_zeros(closed, box)
    ks = np.array([r.k for r in zs.resonances])
    expected = np.pi * np.arange(1, 101)
    spectrum_ok = (
        len(ks) == 100
        and np.max(np.abs(ks - expected)) < NEUMANN_TOL
    )

    open_end = build_bond_system(interval(leads=1))
    points = np.linspace(0.1, 300.0, 64) - 0.3j
    # det M = e^{2ikL} F is identically 1
    length = open_end.lengths[:open_end.n_edges].sum()
    values = np.exp(2j * points * length) * secular_many(open_end, points)
    escape_ok = (
        np.max(np.abs(values - 1.0)) < 1e-12
        and len(find_zeros(open_end, box)) == 0
    )
    ok = spectrum_ok and escape_ok
    report(capsys, 5, "interval spectra (closed n*pi, one lead none)", ok)
    assert ok, (len(ks), spectrum_ok, escape_ok)


def test_criterion_6_winding_consistency(capsys, band_box, systems, band_zeros):
    rng = np.random.default_rng(20260815)
    failures = []
    for name, system in systems.items():
        parent = count_zeros(system, band_box)
        if parent != len(band_zeros[name]):
            failures.append((name, "cardinality", parent))
        for trial in range(50):
            f = rng.uniform(0.2, 0.8)
            if rng.integers(2):
                cut = band_box.re_min + f * (band_box.re_max - band_box.re_min)
                left = SearchBox(band_box.re_min, cut,
                                 band_box.im_min, band_box.im_max)
                right = SearchBox(cut, band_box.re_max,
                                  band_box.im_min, band_box.im_max)
            else:
                cut = band_box.im_min + f * (band_box.im_max - band_box.im_min)
                left = SearchBox(band_box.re_min, band_box.re_max,
                                 band_box.im_min, cut)
                right = SearchBox(band_box.re_min, band_box.re_max,
                                  cut, band_box.im_max)
            total = count_zeros(system, left) + count_zeros(system, right)
            if total != parent:
                failures.append((name, trial, parent, total))
    ok = not failures
    report(capsys, 6, "winding additivity, 50 random cuts each", ok)
    assert ok, failures


def test_criterion_7_scaling_covariance(capsys, band_box, band_zeros):
    base = np.array([r.k for r in band_zeros["W1"].resonances])
    g = fixture("W1")
    doubled = MetricGraph(
        tuple(Edge(e.id, e.a, e.b, 2.0 * e.length) for e in g.edges),
        g.leads,
    )
    half_box = SearchBox(band_box.re_min / 2.0, band_box.re_max / 2.0,
                         band_box.im_min / 2.0)
    zs = find_zeros(build_bond_system(doubled), half_box)
    scaled = np.array([r.k for r in zs.resonances])
    ok = len(scaled) == len(base) and bool(
        np.max(np.abs(scaled - base / 2.0) / np.abs(base / 2.0)) < SCALING_TOL
    )
    report(capsys, 7, "zero covariance under doubling every length", ok)
    assert ok, (len(scaled), len(base))


def test_criterion_8_sweep_dips_mark_resonances(capsys, systems, band_zeros):
    outcomes = {}
    for name, system in systems.items():
        trace = sweep(system, BAND_HZ, absorption=DIP_ABSORPTION[name])
        nus = np.array([r.nu for r in band_zeros[name].resonances])
        halves = np.array([r.half_width for r in band_zeros[name].resonances])
        count_ok = len(trace.dips) == EXPECTED_COUNTS[name]
        placed = []
        for d in trace.dips:
            j = int(np.argmin(np.abs(nus - d.nu)))
            placed.append(abs(nus[j] - d.nu) <= halves[j])
        outcomes[name] = (len(trace.dips), EXPECTED_COUNTS[name], all(placed))
    ok = all(n == want and placed_ok
             for n, want, placed_ok in outcomes.values())
    report(capsys, 8, "sweep dips, one per band resonance", ok)
    assert ok, outcomes
