"""Shared fixtures: cached per-session solver outputs for the shipped networks."""

from __future__ import annotations

import time

import pytest

from graphres import (
    FIXTURE_NAMES,
    SearchBox,
    build_bond_system,
    counting_function,
    find_zeros,
    fixture,
)
import graphres.zeros
from graphres.weyl import FIT_GRID

BAND_HZ = (0.3e9, 2.2e9)
EXPECTED_COUNTS = {"W1": 13, "nW1": 11, "W2": 15, "nW2": 12}
TOTAL_LENGTHS = {"W1": 0.999, "nW1": 0.999, "W2": 1.151, "nW2": 1.151}
EFFECTIVE_SIZES = {"W1": 0.999, "nW1": 0.896, "W2": 1.151, "nW2": 0.972}


@pytest.fixture()
def overcounted_root(monkeypatch):
    """Make every root winding one too high, so no count can be certified."""
    nudged = graphres.zeros._winding_nudged

    def one_too_many(system, box):
        count, *rest = nudged(system, box)
        return count + 1, *rest

    monkeypatch.setattr(graphres.zeros, "_winding_nudged", one_too_many)


@pytest.fixture(scope="session")
def band_box() -> SearchBox:
    return SearchBox.from_band(*BAND_HZ)


@pytest.fixture(scope="session")
def systems():
    return {name: build_bond_system(fixture(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def band_zeros(systems, band_box):
    """Zero sets of all four networks over the default band, solved once."""
    return {
        name: find_zeros(system, band_box) for name, system in systems.items()
    }


@pytest.fixture(scope="session")
def counting_tables(systems):
    """(counting table, build seconds) per network over the fit grid."""
    tables = {}
    for name, system in systems.items():
        start = time.perf_counter()
        table = counting_function(system, FIT_GRID)
        tables[name] = (table, time.perf_counter() - start)
    return tables
