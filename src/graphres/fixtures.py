"""Shipped example networks.

Two cable-network realizations of the same five-vertex topology, each in a
Weyl variant (one lead at vertex 1, one at vertex 3) and a non-Weyl variant
(both leads at vertex 1, which balances that vertex: two leads against the
two internal edges ending there).

Edge lengths are optical meters.  Only edges 1 and 2 differ between the two
realizations; totals are 0.999 m and 1.151 m, with effective sizes 0.896 m
and 0.972 m for the balanced variants.
"""

from __future__ import annotations

from .graph import Edge, Lead, MetricGraph

# (edge id, vertex a, vertex b)
_TOPOLOGY = ((1, 1, 4), (2, 1, 2), (3, 2, 3), (4, 4, 5), (5, 3, 4), (6, 3, 5), (7, 2, 5))

_LENGTHS = {
    "1": {1: 0.127, 2: 0.103, 3: 0.130, 4: 0.225, 5: 0.116, 6: 0.171, 7: 0.127},
    "2": {1: 0.203, 2: 0.179, 3: 0.130, 4: 0.225, 5: 0.116, 6: 0.171, 7: 0.127},
}

_WEYL_ANCHORS = (1, 3)
_NONWEYL_ANCHORS = (1, 1)

FIXTURE_NAMES = ("W1", "nW1", "W2", "nW2")


def fixture(name: str) -> MetricGraph:
    """One of the four shipped networks: W1, nW1, W2, nW2."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    lengths = _LENGTHS[name[-1]]
    anchors = _NONWEYL_ANCHORS if name.startswith("n") else _WEYL_ANCHORS
    edges = tuple(Edge(eid, a, b, lengths[eid]) for eid, a, b in _TOPOLOGY)
    leads = tuple(Lead(i + 1, v) for i, v in enumerate(anchors))
    return MetricGraph(edges, leads)


def interval(length: float = 1.0, leads: int = 0) -> MetricGraph:
    """A single edge with 0, 1, or 2 leads -- the closed-form test cases.

    * 0 leads: spectrum k = n pi / length exactly.
    * 1 lead: Sigma is strictly triangular, so det M is identically 1, the
      secular function e^{-2ik length}, and there are no resonances at all.
    * 2 leads: a perfect transmission line, S off-diagonal with phase
      e^{ik length}.
    """
    if leads not in (0, 1, 2):
        raise ValueError("an interval supports at most one lead per endpoint")
    anchors = ((), (1,), (1, 2))[leads]
    return MetricGraph((Edge(1, 1, 2, length),),
                       tuple(Lead(i + 1, v) for i, v in enumerate(anchors)))
