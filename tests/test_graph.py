from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphres.graph
from graphres import (
    CableSpec,
    Edge,
    GraphError,
    Lead,
    MetricGraph,
    balanced_vertices,
    cutoff_frequency,
    effective_size,
    fixture,
    interval,
    load_graph,
    optical_length,
    total_length,
)

from conftest import EFFECTIVE_SIZES, TOTAL_LENGTHS

DATA = Path(__file__).resolve().parent / "data"


def triangle(lengths=(1.0, 1.0, 1.0), leads=()):
    return MetricGraph(
        edges=tuple(
            Edge(i + 1, a, b, l)
            for i, ((a, b), l) in enumerate(zip([(1, 2), (2, 3), (3, 1)], lengths))
        ),
        leads=tuple(Lead(i + 1, v) for i, v in enumerate(leads)),
    )


class TestValidation:
    def test_vertices_are_the_edge_ends_and_lead_anchors(self):
        g = MetricGraph((Edge(1, 3, 1, 0.5), Edge(2, 3, 3, 0.2)), (Lead(1, 7), Lead(2, 3)))
        assert g.vertices == (1, 3, 7)
        g.validate()  # a lead may sit on a vertex that no edge touches

    def test_shipped_networks_valid(self):
        for name in ("W1", "nW1", "W2", "nW2"):
            fixture(name).validate()

    def test_zero_length_edge(self):
        g = MetricGraph((Edge(1, 1, 2, 0.0),))
        with pytest.raises(GraphError, match="non-positive length"):
            g.validate()

    def test_disconnected_internal_part(self):
        g = MetricGraph((Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)))
        with pytest.raises(GraphError, match="disconnected"):
            g.validate()

    def test_graph_without_edges_or_leads(self):
        with pytest.raises(GraphError, match="neither edges nor leads"):
            MetricGraph(()).validate()

    def test_error_lists_all_problems(self):
        g = MetricGraph((Edge(1, 1, 2, -1.0), Edge(1, 2, 3, 1.0)), (Lead(1, 1), Lead(1, 3)))
        with pytest.raises(GraphError, match="non-positive.*duplicate edge id 1.*duplicate lead"):
            g.validate()


class TestLengths:
    def test_totals(self):
        for name, expected in TOTAL_LENGTHS.items():
            assert total_length(fixture(name)) == pytest.approx(expected, abs=1e-12)

    def test_single_edge(self):
        assert total_length(interval(1.0)) == 1.0

    def test_leads_contribute_nothing(self):
        assert total_length(interval(2.5, leads=2)) == 2.5

    def test_an_interval_has_at_most_two_leads(self):
        with pytest.raises(ValueError, match="at most one lead per endpoint"):
            interval(1.0, leads=3)


class TestBalance:
    def test_balanced_vertex_of_nW1(self):
        assert balanced_vertices(fixture("nW1")) == (1,)

    def test_weyl_networks_have_no_balanced_vertex(self):
        for name in ("W1", "W2"):
            assert balanced_vertices(fixture(name)) == ()

    def test_interval_with_one_lead_is_balanced(self):
        assert balanced_vertices(interval(1.0, leads=1)) == (1,)

    def test_self_loop_counts_twice(self):
        # vertex 2 has one edge end and a self-loop: three ends
        edges = (Edge(1, 1, 2, 1.0), Edge(2, 2, 2, 0.5))
        leads = (Lead(1, 2), Lead(2, 2), Lead(3, 2))
        assert balanced_vertices(MetricGraph(edges, leads)) == (2,)
        assert balanced_vertices(MetricGraph(edges, leads + (Lead(4, 2),))) == ()


class TestEffectiveSize:
    def test_values(self):
        for name, expected in EFFECTIVE_SIZES.items():
            assert effective_size(fixture(name)) == pytest.approx(expected, abs=1e-12)

    def test_two_balanced_ends_leave_no_effective_size(self):
        # the path with a lead at each end carries no resonances at all
        assert effective_size(interval(1.0, leads=2)) == 0.0

    @pytest.mark.parametrize("name, expected", [
        # beyond a single balanced vertex, where L - l_s fails
        ("tri-two-balanced", 0.7), ("path-two-leads", 0.0), ("chain4", 0.75),
        ("kite4", 0.46), ("loop4", 0.05655), ("deep4", 0.4244),
        ("loop-two-leads", 0.25),
        # one balanced vertex (g1-e30) and none: L - l_s and L
        ("g1-e20", 3.49367), ("g1-e30", 5.249951), ("g1-e40", 6.763133),
    ])
    def test_graph_files(self, name, expected):
        assert effective_size(load_graph(DATA / f"{name}.graph")) == pytest.approx(
            expected, abs=1e-9)


class TestCable:
    def test_optical_length_teflon(self):
        cable = CableSpec(0.0005, 0.0015, 2.06)
        assert optical_length(1.0, cable) == pytest.approx(1.4353, abs=1e-4)

    def test_vacuum_identity(self):
        assert optical_length(1.0, CableSpec(0.0005, 0.0015, 1.0)) == 1.0

    def test_sqrt_scaling(self):
        assert optical_length(0.5, CableSpec(0.0005, 0.0015, 4.0)) == pytest.approx(1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            optical_length(0.0, CableSpec(0.0005, 0.0015, 2.06))

    def test_rejects_bad_radii(self):
        with pytest.raises(GraphError):
            CableSpec(0.002, 0.001, 2.06)

    def test_rejects_epsilon_below_one(self):
        with pytest.raises(GraphError, match="dielectric constant must be >= 1"):
            CableSpec(0.0005, 0.0015, 0.5)

    def test_cutoff_near_33_ghz(self):
        nu_c = cutoff_frequency(CableSpec(0.0005, 0.0015, 2.06))
        assert nu_c == pytest.approx(33.2e9, rel=0.01)

    def test_cutoff_halves_when_radii_double(self):
        a = cutoff_frequency(CableSpec(0.0005, 0.0015, 2.06))
        b = cutoff_frequency(CableSpec(0.001, 0.003, 2.06))
        assert b == pytest.approx(a / 2.0)


class TestShippedNetworks:
    def test_lengths_table(self):
        w1 = {e.id: e.length for e in fixture("W1").edges}
        assert w1 == {1: 0.127, 2: 0.103, 3: 0.130, 4: 0.225, 5: 0.116, 6: 0.171, 7: 0.127}
        w2 = {e.id: e.length for e in fixture("W2").edges}
        assert w2 == {1: 0.203, 2: 0.179, 3: 0.130, 4: 0.225, 5: 0.116, 6: 0.171, 7: 0.127}

    def test_lead_placement(self):
        assert [(l.anchor) for l in fixture("W1").leads] == [1, 3]
        assert [(l.anchor) for l in fixture("nW2").leads] == [1, 1]

    def test_same_lengths_across_variants(self):
        for a, b in (("W1", "nW1"), ("W2", "nW2")):
            assert [e.length for e in fixture(a).edges] == [
                e.length for e in fixture(b).edges
            ]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixture("W3")


@st.composite
def relabelings(draw):
    perm = draw(st.permutations([1, 2, 3, 4, 5]))
    return dict(zip([1, 2, 3, 4, 5], perm))


class TestInvariantProperties:
    @given(relabelings())
    @settings(max_examples=30, deadline=None)
    def test_total_length_relabeling_invariant(self, mapping):
        g = fixture("nW1")
        relabeled = MetricGraph(
            edges=tuple(
                Edge(e.id, mapping[e.a], mapping[e.b], e.length) for e in g.edges
            ),
            leads=tuple(Lead(l.id, mapping[l.anchor]) for l in g.leads),
        )
        assert total_length(relabeled) == total_length(g)
        assert effective_size(relabeled) == effective_size(g)

    @given(st.permutations(list(range(7))))
    @settings(max_examples=30, deadline=None)
    def test_edge_reorder_invariant(self, order):
        g = fixture("nW2")
        reordered = MetricGraph(tuple(g.edges[i] for i in order), g.leads)
        assert total_length(reordered) == total_length(g)
        assert balanced_vertices(reordered) == balanced_vertices(g)

    def test_extra_lead_unbalances(self):
        g = fixture("nW1")
        assert 1 in balanced_vertices(g)
        g2 = MetricGraph(g.edges, g.leads + (Lead(3, 1),))
        assert 1 not in balanced_vertices(g2)

    @given(st.integers(0, 2), st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_effective_never_exceeds_total(self, leads, length):
        g = interval(length, leads=leads)
        eff = effective_size(g)
        assert eff <= total_length(g) + 1e-12
        if leads == 0:
            assert eff == total_length(g)


@st.composite
def balanced_graphs(draw):
    """Connected 2-5-vertex graphs with self-loops and parallel edges; 0-4
    vertices get as many leads as bond ends, and 0-2 leads go anywhere."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
    edges = tuple(
        Edge(i + 1, a, b, draw(st.floats(0.05, 1.0))) for i, (a, b) in enumerate(pairs)
    )
    ends = Counter(v for pair in pairs for v in pair)
    balanced = draw(st.lists(st.integers(1, n), unique=True, max_size=4))
    anchors = [v for v in balanced for _ in range(ends[v])]
    anchors += draw(st.lists(st.integers(1, n), max_size=2))
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(edges, leads)


# vertex 1 (excess 4) unbalances once both its edges to the balanced vertex 2
# are freed; the shortest way out then takes its self-loop
SELF_LOOP_BEHIND_TWO_EDGES = MetricGraph(
    (Edge(1, 1, 2, 0.8794664978838663), Edge(2, 1, 3, 0.6133250646978253),
     Edge(3, 1, 1, 0.20122510609768557), Edge(4, 2, 1, 0.14951128341384085)),
    (Lead(1, 3), Lead(2, 2), Lead(3, 2), Lead(4, 1)),
)


class TestExactEffectiveSize:
    @given(balanced_graphs())
    @example(SELF_LOOP_BEHIND_TWO_EDGES)
    @settings(max_examples=60, deadline=None)
    def test_pruned_search_equals_the_full_one(self, graph):
        near = graphres.graph._near_balanced
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphres.graph, "_near_balanced",
                       lambda g: list(range(len(g.edges))) if near(g) else [])
            full = effective_size(graph)
        assert effective_size(graph) == full

    @given(balanced_graphs())
    @settings(max_examples=60, deadline=None)
    def test_shorter_exactly_with_a_balanced_vertex(self, graph):
        eff, total = effective_size(graph), total_length(graph)
        assert 0.0 <= eff <= total
        assert (eff < total) == bool(balanced_vertices(graph))

    @given(balanced_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabeling_and_edge_order(self, graph, data):
        label = dict(zip(graph.vertices, data.draw(st.permutations(graph.vertices))))
        order = data.draw(st.permutations(graph.edges))
        moved = MetricGraph(
            tuple(Edge(e.id, label[e.a], label[e.b], e.length) for e in order),
            tuple(Lead(l.id, label[l.anchor]) for l in graph.leads),
        )
        assert effective_size(moved) == effective_size(graph)

    @given(balanced_graphs(), st.data(), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_merging_a_lead_free_degree_2_vertex(self, graph, data, t):
        # split an edge by a new vertex with no leads: the waves pass it whole
        e = data.draw(st.sampled_from(graph.edges))
        v = max(graph.vertices) + 1
        split = MetricGraph(
            tuple(x for x in graph.edges if x is not e) + (
                Edge(e.id, e.a, v, t * e.length),
                Edge(max(x.id for x in graph.edges) + 1, v, e.b, (1 - t) * e.length)),
            graph.leads,
        )
        assert effective_size(split) == pytest.approx(effective_size(graph), abs=1e-12)
