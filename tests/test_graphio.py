import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphres import (
    Edge,
    GraphError,
    Lead,
    MetricGraph,
    dump_graph,
    fixture,
    format_graph,
    load_graph,
    parse_graph,
    build_bond_system,
    secular_many,
)

MINIMAL = """
# a triangle with one lead
[edges]
1 1 2 0.5
2 2 3 0.25
3 3 1 0.75   # trailing comment
[leads]
1 2
"""


def test_parse_minimal():
    g = parse_graph(MINIMAL)
    assert g.vertices == (1, 2, 3)
    assert [e.length for e in g.edges] == [0.5, 0.25, 0.75]
    assert g.leads[0].anchor == 2
    assert g.cable is None


def test_round_trip_identity():
    g = fixture("nW2")
    assert parse_graph(format_graph(g)) == g


@st.composite
def valid_graphs(draw):
    """Connected edge parts on 1-5 vertices, with self-loops, parallel edges
    and unordered ids, or no edge at all; 0-3 leads, which may sit on vertex
    6, which no edge touches."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
    ids = draw(st.lists(st.integers(-9, 99), min_size=len(pairs), max_size=len(pairs),
                        unique=True))
    edges = tuple(Edge(i, a, b, draw(st.floats(1e-6, 1e3))) for i, (a, b) in zip(ids, pairs))
    anchors = draw(st.lists(st.integers(1, 6), min_size=int(not edges), max_size=3))
    return MetricGraph(edges, tuple(Lead(i + 1, v) for i, v in enumerate(anchors)))


@given(valid_graphs())
@settings(max_examples=100, deadline=None)
def test_round_trip_of_any_valid_graph(g):
    g.validate()
    assert parse_graph(format_graph(g)) == g


def test_round_trip_preserves_solver_output(tmp_path):
    g = fixture("W1")
    path = tmp_path / "w1.txt"
    dump_graph(g, path)
    reloaded = load_graph(path)
    ks = np.linspace(8.0, 45.0, 64) - 0.5j
    original = secular_many(build_bond_system(g), ks)
    again = secular_many(build_bond_system(reloaded), ks)
    assert np.array_equal(original, again)


def test_cable_section_converts_to_optical():
    text = MINIMAL + "\n[cable]\nr1 0.0005\nr2 0.0015\nepsilon 2.06\n"
    g = parse_graph(text)
    assert g.edges[0].length == pytest.approx(0.5 * math.sqrt(2.06))
    assert g.cable is not None and g.cable.epsilon == 2.06


def test_unknown_section():
    with pytest.raises(GraphError, match="unknown section"):
        parse_graph("[verts]\n1\n")


def test_data_before_section():
    with pytest.raises(GraphError, match="before any section"):
        parse_graph("1 1 2 0.5\n")


def test_wrong_field_count():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("[edges]\n1 1 2\n")
    with pytest.raises(GraphError, match="line 4: expected: lead_id vertex"):
        parse_graph("[edges]\n1 1 2 0.5\n[leads]\n1\n")
    with pytest.raises(GraphError, match=r"line 4: expected: r1\|r2\|epsilon value"):
        parse_graph("[edges]\n1 1 2 0.5\n[cable]\nr3 0.0005\n")


def test_incomplete_cable():
    with pytest.raises(GraphError, match="missing"):
        parse_graph("[edges]\n1 1 2 0.5\n[cable]\nr1 0.0005\n")


def test_validation_still_applies():
    # vertices are derived from the data, so breakage shows up as
    # disconnection or bad lengths rather than dangling references
    with pytest.raises(GraphError, match="disconnected"):
        parse_graph("[edges]\n1 1 2 0.5\n2 3 4 0.5\n")
    with pytest.raises(GraphError, match="non-positive length"):
        parse_graph("[edges]\n1 1 2 0.0\n")
    # a cable graph converts lengths, so it checks them before the conversion
    with pytest.raises(GraphError, match="edge 1 has non-positive length"):
        parse_graph("[edges]\n1 1 2 0.0\n[cable]\nr1 0.0005\nr2 0.0015\nepsilon 2.06\n")
