"""Shared builders for the test suite."""

from __future__ import annotations

import random

from fuzzybig import (
    Bigraph,
    FuzzyRelation,
    Interface,
    LinkGraph,
    PlaceGraph,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    chain,
)
from fuzzybig.lattice import Frame

H_SIGNATURE = Signature({"K": 2, "L": 1, "M": 0})

ALL_FRAMES = (UNIT_INTERVAL, chain(5), TWO_POINT)


class DiamondFrame(Frame):
    """The four-element Boolean lattice: ``{a}`` and ``{b}`` are both above
    bottom, and their meet is bottom, a degree neither operand holds."""

    name = "diamond"

    def _contains(self, raw) -> bool:
        return isinstance(raw, frozenset) and raw <= {"a", "b"}

    def _leq(self, a, b) -> bool:
        return a <= b

    def _meet(self, a, b):
        return a & b

    def _join(self, a, b):
        return a | b

    def _bottom_raw(self):
        return frozenset()

    def _top_raw(self):
        return frozenset("ab")

    def _format(self, raw) -> str:
        return "{" + ",".join(sorted(raw)) + "}"


def assert_checked_rebuild(*relations: FuzzyRelation) -> None:
    """Each relation survives a rebuild through the public checked
    constructor, and the rebuild compares equal to it."""
    for rel in relations:
        rebuilt = FuzzyRelation(rel.frame, rel.domain, rel.codomain, rel.entry_dict())
        assert rebuilt == rel


def d(text: str):
    """A unit-interval degree from an exact string."""
    return UNIT_INTERVAL.parse_degree(text)


def make_h() -> Bigraph:
    """The worked bigraph H: a 3->2 place forest of two rooted trees and a
    {x1,x2}->{y} link hypergraph over nodes v0..v5 and edges e0, e1."""
    nodes = frozenset({"v0", "v1", "v2", "v3", "v4", "v5"})
    ctrl = {"v0": "K", "v1": "L", "v2": "M", "v3": "K", "v4": "L", "v5": "L"}
    place = PlaceGraph(
        H_SIGNATURE,
        3,
        2,
        nodes,
        ctrl,
        {
            "v0": 0,
            "v1": "v0",
            "v2": "v0",
            0: "v1",
            1: "v2",
            "v3": 1,
            "v4": "v3",
            "v5": "v3",
            2: "v4",
        },
    )
    link = LinkGraph(
        H_SIGNATURE,
        frozenset({"x1", "x2"}),
        frozenset({"y"}),
        nodes,
        frozenset({"e0", "e1"}),
        ctrl,
        {
            "x1": "e0",
            "x2": "e1",
            ("v0", 0): "e0",
            ("v0", 1): "y",
            ("v1", 0): "e0",
            ("v3", 0): "e1",
            ("v3", 1): "y",
            ("v4", 0): "e1",
            ("v5", 0): "y",
        },
    )
    return Bigraph(place, link)


def random_crisp_bigraph(
    rng: random.Random,
    signature: Signature,
    inner: Interface,
    outer: Interface,
    prefix: str,
    max_nodes: int = 6,
    max_edges: int = 3,
) -> Bigraph:
    """A valid random crisp bigraph (functional maps, acyclic forest)."""
    if outer.width < 1 or not outer.names:
        raise ValueError("needs outer width >= 1 and an outer name")
    nodes = [f"{prefix}v{i}" for i in range(rng.randint(0, max_nodes))]
    edges = [f"{prefix}e{i}" for i in range(rng.randint(0, max_edges))]
    controls = sorted(signature.arity)
    ctrl = {v: rng.choice(controls) for v in nodes}
    prnt = {}
    for i, v in enumerate(nodes):
        prnt[v] = rng.choice(nodes[i + 1 :] + list(range(outer.width)))
    for site in range(inner.width):
        prnt[site] = rng.choice(nodes + list(range(outer.width)))
    place = PlaceGraph(signature, inner.width, outer.width, nodes, ctrl, prnt)
    targets = edges + sorted(outer.names)
    points = sorted(inner.names) + sorted(
        (v, i) for v in nodes for i in range(signature.arity[ctrl[v]])
    )
    link_map = {q: rng.choice(targets) for q in points}
    link = LinkGraph(
        signature, inner.names, outer.names, nodes, edges, ctrl, link_map
    )
    return Bigraph(place, link)
