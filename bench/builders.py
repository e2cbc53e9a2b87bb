"""Seeded fixed-size builders of plain graphs, and their library values.

The library's own generators draw node and edge counts at random; the
large and deep inputs here need fixed sizes and a controlled share of
entries that cross the composition interface, so they are built directly.
All draws iterate over sorted or index-ordered collections, so a seed
gives the same graphs in every process.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

SIGNATURE = {"K": 2, "L": 1, "M": 0}
_DENOMINATORS = (2, 3, 4, 5, 6, 8, 10, 12)


def degree(rng: random.Random, frame: str):
    """A random degree strictly above bottom."""
    if frame == "unit-interval":
        den = rng.choice(_DENOMINATORS)
        return Fraction(rng.randint(1, den), den)
    if frame == "two-point":
        return True
    return rng.randrange(1, ref.top(frame) + 1)


def _targets(count, pick):
    """The distinct results of ``count`` draws of ``pick()``."""
    out: list = []
    for _ in range(count):
        t = pick()
        if t not in out:
            out.append(t)
    return out


def bigraph(
    rng: random.Random,
    kind: str,
    frame: str,
    inner: tuple,
    outer: tuple,
    prefix: str,
    node_count: int,
    edge_count: int,
    route_share: float,
) -> dict:
    """A valid plain bigraph of exactly the given size.

    Each node holds one control.  Node ``i`` is parented by later nodes
    only, which keeps the place graph acyclic; with probability
    ``route_share`` a parent (or a link target) is taken from the outer
    interface instead, so that composition must route the entry.
    Crisp graphs get exactly one parent and one link per child and point,
    fuzzy and type-2 graphs one or two.
    """
    if outer[0] < 1 or not outer[1]:
        raise ValueError("the builder needs a root and an outer name")
    crisp = kind == "crisp"
    nodes = [f"{prefix}v{i}" for i in range(node_count)]
    edges = [f"{prefix}e{i}" for i in range(edge_count)]
    roots = outer[0]
    outer_names = sorted(outer[1])
    controls = sorted(SIGNATURE)

    def deg():
        return True if crisp else degree(rng, frame)

    def fan():
        return 1 if crisp else rng.randint(1, 2)

    ctrl = {(v, rng.choice(controls)): deg() for v in nodes}
    prnt: dict = {}
    for i, v in enumerate(nodes):

        def pick(i=i):
            if i == node_count - 1 or rng.random() < route_share:
                return rng.randrange(roots)
            return nodes[rng.randrange(i + 1, node_count)]

        for p in _targets(fan(), pick):
            prnt[(v, p)] = deg()
    for site in range(inner[0]):

        def pick_site():
            if not nodes or rng.random() < route_share:
                return rng.randrange(roots)
            return rng.choice(nodes)

        for p in _targets(fan(), pick_site):
            prnt[(site, p)] = deg()

    ports = [(v, i) for (v, k) in sorted(ctrl) for i in range(SIGNATURE[k])]
    link: dict = {}
    for q in sorted(inner[1]) + ports:

        def pick_link():
            if not edges or rng.random() < route_share:
                return rng.choice(outer_names)
            return rng.choice(edges)

        for t in _targets(fan(), pick_link):
            link[(q, t)] = deg()

    graph = {
        "kind": kind,
        "frame": frame,
        "inner": (inner[0], frozenset(inner[1])),
        "outer": (outer[0], frozenset(outer[1])),
        "nodes": dict.fromkeys(nodes),
        "edges": dict.fromkeys(edges),
        "ctrl": ctrl,
        "prnt": prnt,
        "link": link,
        "beta": None,
        "delta": None,
    }
    if kind == "type2":
        _lift_type2(rng, graph)
    return graph


def _lift_type2(rng: random.Random, g: dict) -> None:
    """Graded memberships and coherent interface degrees.

    As in the library's generators, ``beta`` stays below every parent
    degree and node membership and ``delta`` below every link degree, so
    composition guards keep every entry and composites stay coherent.
    """
    frame = g["frame"]
    g["nodes"] = {v: degree(rng, frame) for v in g["nodes"]}
    g["edges"] = {e: degree(rng, frame) for e in g["edges"]}
    g["beta"] = min([degree(rng, frame), *g["prnt"].values(), *g["nodes"].values()])
    g["delta"] = min([degree(rng, frame), *g["link"].values()])


def deep_chain(kind: str, frame: str, depth: int, prefix: str = "d") -> dict:
    """A single root holding a ``depth``-level nesting of port-free nodes."""
    crisp = kind == "crisp"
    t = True if crisp else ref.top(frame)
    nodes = [f"{prefix}{i}" for i in range(depth)]
    prnt = {(nodes[i], nodes[i + 1]): t for i in range(depth - 1)}
    prnt[(nodes[-1], 0)] = t
    return {
        "kind": kind,
        "frame": frame,
        "inner": (0, frozenset()),
        "outer": (1, frozenset({"y"})),
        "nodes": dict.fromkeys(nodes),
        "edges": {},
        "ctrl": {(v, "M"): t for v in nodes},
        "prnt": prnt,
        "link": {},
        "beta": None,
        "delta": None,
    }


# --- library values -------------------------------------------------------------


def library_value(fb, g: dict):
    """The library bigraph for a plain graph, built through its constructors."""
    sig = fb.Signature(SIGNATURE)
    inner_w, inner_n = g["inner"]
    outer_w, outer_n = g["outer"]
    if g["kind"] == "crisp":
        ctrl = {v: k for (v, k) in g["ctrl"]}
        place = fb.PlaceGraph(
            sig, inner_w, outer_w, g["nodes"], ctrl, {c: p for (c, p) in g["prnt"]}
        )
        link = fb.LinkGraph(
            sig, inner_n, outer_n, g["nodes"], g["edges"], ctrl, {q: t for (q, t) in g["link"]}
        )
        return fb.Bigraph(place, link)
    frame = fb.frame_from_name(g["frame"])

    def rel(name):
        return {pair: frame.value(d) for pair, d in g[name].items()}

    if g["kind"] == "fuzzy":
        place = fb.FuzzyPlaceGraph(
            frame, sig, inner_w, outer_w, g["nodes"], rel("ctrl"), rel("prnt")
        )
        link = fb.FuzzyLinkGraph(
            frame, sig, inner_n, outer_n, g["nodes"], g["edges"], rel("ctrl"), rel("link")
        )
        return fb.FuzzyBigraph(place, link)
    nodes = fb.FuzzySet(frame, {v: frame.value(m) for v, m in g["nodes"].items()})
    edges = fb.FuzzySet(frame, {e: frame.value(m) for e, m in g["edges"].items()})
    place = fb.Type2FuzzyPlaceGraph(
        frame, sig, inner_w, outer_w, nodes, rel("ctrl"), rel("prnt"), frame.value(g["beta"])
    )
    link = fb.Type2FuzzyLinkGraph(
        frame,
        sig,
        inner_n,
        outer_n,
        nodes,
        edges,
        rel("ctrl"),
        rel("link"),
        frame.value(g["delta"]),
    )
    return fb.Type2FuzzyBigraph(place, link)
