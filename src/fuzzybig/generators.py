"""Seeded random generators for fuzzy and type-2 structures.

These drive the law-checking harness and the randomized parts of the test
suite.  Everything takes an explicit ``random.Random`` so that the same
seed reproduces the same models byte for byte.

Generated type-2 bigraphs are *coherent* by default: every membership and
relation degree sits at or above the graph's own interface degree.  The
threshold guards of type-2 composition never drop anything on that class,
which is exactly what makes it closed under composition and lets the
category laws hold on generated arrow systems.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Sequence

from .category import ArrowSystem, type2_arrow_system
from .crisp import Interface, Signature
from .fuzzy import FuzzyBigraph, FuzzyLinkGraph, FuzzyPlaceGraph, derive_ports
from .lattice import (
    TWO_POINT,
    FiniteChainFrame,
    Frame,
    FrameValue,
    UnitIntervalFrame,
)
from .relations import FuzzySet
from .type2 import Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph, type2_ports

DEFAULT_SIGNATURE = Signature({"K": 2, "L": 1, "M": 0})
NAME_POOL = ("a", "b", "c")


def random_degree(rng: random.Random, frame: Frame, positive: bool = False) -> FrameValue:
    """A random degree; ``positive`` excludes bottom."""
    if isinstance(frame, UnitIntervalFrame):
        den = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
        low = 1 if positive else 0
        return frame.value(Fraction(rng.randint(low, den), den))
    if isinstance(frame, FiniteChainFrame):
        low = 1 if positive else 0
        return frame.value(rng.randrange(low, frame.size))
    if frame == TWO_POINT:
        return frame.top if positive else frame.value(rng.random() < 0.5)
    raise TypeError(f"no generator for frame {frame.name}")


def random_interface(
    rng: random.Random,
    max_width: int = 3,
    max_names: int = 3,
    name_pool: Sequence[str] = NAME_POOL,
) -> Interface:
    width = rng.randint(1, max_width)
    names = rng.sample(name_pool, rng.randint(1, min(max_names, len(name_pool))))
    return Interface(width, frozenset(names))


def random_fuzzy_place(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    inner: int,
    outer: int,
    node_ids: Sequence[str],
) -> FuzzyPlaceGraph:
    """A valid random fuzzy place graph: acyclic skeleton, everything parented.

    Node i only ever points at later nodes or roots, which forces
    acyclicity while still allowing several positive parents per child.
    """
    nodes = list(node_ids)
    ctrl = {}
    controls = sorted(signature.controls)
    for v in nodes:
        for control in rng.sample(controls, rng.randint(1, min(2, len(controls)))):
            ctrl[(v, control)] = random_degree(rng, frame, positive=True)
    prnt = {}
    for i, v in enumerate(nodes):
        candidates = nodes[i + 1 :] + list(range(outer))
        for parent in rng.sample(candidates, rng.randint(1, min(2, len(candidates)))):
            prnt[(v, parent)] = random_degree(rng, frame, positive=True)
    targets = nodes + list(range(outer))
    for site in range(inner):
        for parent in rng.sample(targets, rng.randint(1, min(2, len(targets)))):
            prnt[(site, parent)] = random_degree(rng, frame, positive=True)
    return FuzzyPlaceGraph(frame, signature, inner, outer, nodes, ctrl, prnt)


def random_fuzzy_bigraph(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    inner: Interface,
    outer: Interface,
    prefix: str,
    max_nodes: int = 6,
    max_edges: int = 4,
) -> FuzzyBigraph:
    """A valid random fuzzy bigraph between the given interfaces.

    Interfaces must have positive width and at least one outer name so
    that nodes and points always have somewhere to attach.
    """
    if outer.width < 1 or not outer.names:
        raise ValueError("generator needs outer width >= 1 and an outer name")
    node_count = rng.randint(0, max_nodes)
    edge_count = rng.randint(0, max_edges)
    node_ids = [f"{prefix}v{i}" for i in range(node_count)]
    edge_ids = [f"{prefix}e{i}" for i in range(edge_count)]
    place = random_fuzzy_place(
        rng, frame, signature, inner.width, outer.width, node_ids
    )
    ports = derive_ports(signature, place.ctrl)
    link_entries = {}
    targets = edge_ids + sorted(outer.names)
    for point in sorted(inner.names) + sorted(ports):
        for target in rng.sample(targets, rng.randint(1, min(2, len(targets)))):
            link_entries[(point, target)] = random_degree(rng, frame, positive=True)
    link = FuzzyLinkGraph(
        frame,
        signature,
        inner.names,
        outer.names,
        node_ids,
        edge_ids,
        place.ctrl,
        link_entries,
    )
    return FuzzyBigraph(place, link)


def random_fuzzy_chain(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    length: int,
    prefix: str = "g",
    max_width: int = 3,
    max_names: int = 3,
    max_nodes: int = 6,
    max_edges: int = 4,
) -> list[FuzzyBigraph]:
    """``length`` composable fuzzy bigraphs with pairwise disjoint supports."""
    build = partial(
        random_fuzzy_bigraph, rng, frame, signature, max_nodes=max_nodes, max_edges=max_edges
    )
    return _chain(rng, length, max_width, max_names, prefix, build)


def _chain(rng: random.Random, length: int, max_width: int, max_names: int, prefix: str, build):
    """``build(inner, outer, prefix)`` between ``length + 1`` random
    interfaces, each graph with its own prefix.  Every interface is drawn
    before any graph, so a seed gives the chain it always gave."""
    interfaces = [random_interface(rng, max_width, max_names) for _ in range(length + 1)]
    return [build(interfaces[i], interfaces[i + 1], f"{prefix}{i}_") for i in range(length)]


def _coherent_bound(frame: Frame, degrees) -> FrameValue:
    out = frame.top
    for d in degrees:
        out = out.meet(d)
    return out


def random_type2_bigraph(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    inner: Interface,
    outer: Interface,
    prefix: str,
    max_nodes: int = 5,
    max_edges: int = 3,
    coherent: bool = True,
) -> Type2FuzzyBigraph:
    """A random type-2 fuzzy bigraph.

    When ``coherent`` (the default) the place degree is kept below every
    parent degree and node membership, and the link degree below every
    link degree, so composition thresholds are inactive on these graphs.
    """
    base = random_fuzzy_bigraph(
        rng, frame, signature, inner, outer, prefix, max_nodes, max_edges
    )
    memberships = FuzzySet(
        frame, {v: random_degree(rng, frame, positive=True) for v in sorted(base.nodes)}
    )
    edge_memberships = FuzzySet(
        frame, {e: random_degree(rng, frame, positive=True) for e in sorted(base.edges)}
    )
    place_degree = random_degree(rng, frame, positive=True)
    link_degree = random_degree(rng, frame, positive=True)
    if coherent:
        place_degree = place_degree.meet(
            _coherent_bound(
                frame,
                [d for _pair, d in base.prnt.items()]
                + [d for _v, d in memberships.items()],
            )
        )
        link_degree = link_degree.meet(
            _coherent_bound(frame, [d for _pair, d in base.link.link.items()])
        )
    place = Type2FuzzyPlaceGraph(
        frame,
        signature,
        base.place.inner,
        base.place.outer,
        memberships,
        base.ctrl,
        base.prnt,
        place_degree,
    )
    link = Type2FuzzyLinkGraph(
        frame,
        signature,
        base.link.inner,
        base.link.outer,
        memberships,
        edge_memberships,
        base.ctrl,
        _type2_link_entries(base.link, signature, memberships),
        link_degree,
    )
    return Type2FuzzyBigraph(place, link)


def _type2_link_entries(link: FuzzyLinkGraph, signature: Signature, nodes: FuzzySet):
    """Restrict link entries to the type-2 port set (join-attaining control)."""
    ports = type2_ports(signature, nodes, link.ctrl)
    allowed = link.inner | ports
    return {
        (q, t): d for (q, t), d in link.link.items() if q in allowed
    }


def random_type2_chain(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    length: int,
    prefix: str = "t",
    max_width: int = 3,
    max_names: int = 3,
    max_nodes: int = 5,
    max_edges: int = 3,
    coherent: bool = True,
) -> list[Type2FuzzyBigraph]:
    """``length`` composable type-2 bigraphs with pairwise disjoint supports."""
    build = partial(
        random_type2_bigraph,
        rng,
        frame,
        signature,
        max_nodes=max_nodes,
        max_edges=max_edges,
        coherent=coherent,
    )
    return _chain(rng, length, max_width, max_names, prefix, build)


def random_arrow_system(
    rng: random.Random,
    frame: Frame,
    signature: Signature,
    arrow_count: int = 20,
    object_count: int = 3,
) -> ArrowSystem:
    """An arrow system of coherent type-2 bigraphs over a small object pool."""
    objects: list[Interface] = []
    while len(objects) < object_count:
        candidate = random_interface(rng, max_width=2, max_names=2)
        if candidate not in objects:
            objects.append(candidate)
    bigraphs = []
    for i in range(arrow_count):
        src = rng.choice(objects)
        dst = rng.choice(objects)
        bigraphs.append(
            random_type2_bigraph(
                rng,
                frame,
                signature,
                src,
                dst,
                prefix=f"s{i}_",
                max_nodes=3,
                max_edges=2,
            )
        )
    return type2_arrow_system(frame, signature, bigraphs)
