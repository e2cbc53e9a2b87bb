"""Validators report every fault, in the order their earlier code did.

The crisp constructors accept graphs that ``validate`` then reports, and
the fuzzy ones graphs whose nodes, sites or points lack a positive entry.
Seeded graphs with many faults of every kind are checked problem by
problem against ``tests/validation_oracle.py``.
"""

from __future__ import annotations

import random

from fuzzybig import (
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    LinkGraph,
    PlaceGraph,
    UNIT_INTERVAL,
    embed_place,
    validate_fuzzy_link,
    validate_fuzzy_place,
    validate_link_graph,
    validate_place_graph,
)
from fuzzybig.fuzzy import skeleton_is_acyclic
from fuzzybig.generators import random_degree
from fuzzybig.type2 import validate_type2_place

import validation_oracle
from helpers import ALL_FRAMES, H_SIGNATURE

U = UNIT_INTERVAL
SEEDS = range(120)
# Identifiers whose ``repr`` order differs from their own: quotes,
# digits, case and non-ASCII.
NAMES = ["a", "B", "a'b", 'q"', "é", "_x", "10", "9", "z", "Ω", "m n", "k\\"]
CONTROLS = ["K", "L", "M", "Z", None]  # Z is no control of the signature


def _crisp_ctrl(rng, nodes):
    ctrl = {v: c for v in nodes if (c := rng.choice(CONTROLS)) is not None}
    ctrl.update({f"ghost{i}": "K" for i in range(rng.randint(0, 2))})
    return ctrl


def faulty_place(rng) -> PlaceGraph:
    nodes = rng.sample(NAMES, rng.randint(0, len(NAMES)))
    inner, outer = rng.randint(-1, 4), rng.randint(-1, 3)
    parents = [*nodes, *range(-1, outer + 2), "nowhere", None, True, 2.5]
    prnt = {
        child: rng.choice(parents)
        for child in [*range(max(inner, 0)), *nodes, "stranger", 17]
        if rng.random() < 0.75
    }
    return PlaceGraph(H_SIGNATURE, inner, outer, nodes, _crisp_ctrl(rng, nodes), prnt)


def faulty_link(rng) -> LinkGraph:
    pool = list(NAMES)
    rng.shuffle(pool)
    nodes, edges, outer = pool[:6], pool[4:9], pool[8:11]
    inner = [f"{n}<" for n in rng.sample(NAMES, 3)]
    ctrl = _crisp_ctrl(rng, nodes)
    points = [*inner, "stray<", 3.5, ("ghost", 0)]
    points += [(v, i) for v in nodes for i in range(rng.randint(0, 3))]
    targets = [*edges, *outer, "nowhere"]
    link = {q: rng.choice(targets) for q in points if rng.random() < 0.75}
    return LinkGraph(H_SIGNATURE, inner, outer, nodes, edges, ctrl, link)


def faulty_fuzzy_place(rng) -> FuzzyPlaceGraph:
    nodes = rng.sample(NAMES, rng.randint(0, len(NAMES)))
    inner, outer = rng.randint(0, 4), rng.randint(1, 3)
    ctrl = {(v, rng.choice("KLM")): U.top for v in nodes}
    prnt = {
        (child, rng.choice([*nodes, *range(outer)])): U.top
        for child in [*range(inner), *nodes]
        if rng.random() < 0.6
    }
    return FuzzyPlaceGraph(U, H_SIGNATURE, inner, outer, nodes, ctrl, prnt)


def faulty_fuzzy_link(rng) -> FuzzyLinkGraph:
    pool = list(NAMES)
    rng.shuffle(pool)
    nodes, edges, outer = pool[:6], pool[6:9], pool[9:]
    inner = [f"{n}<" for n in rng.sample(NAMES, 3)]
    ctrl = {(v, rng.choice("KLM")): U.top for v in nodes}
    graph = FuzzyLinkGraph(U, H_SIGNATURE, inner, outer, nodes, edges, ctrl, {})
    link = {
        (q, rng.choice([*edges, *outer])): U.top
        for q in sorted(graph.points, key=repr)
        if rng.random() < 0.6
    }
    return FuzzyLinkGraph(U, H_SIGNATURE, inner, outer, nodes, edges, ctrl, link)


CASES = [
    (faulty_place, validate_place_graph, validation_oracle.validate_place_graph),
    (faulty_link, validate_link_graph, validation_oracle.validate_link_graph),
    (faulty_fuzzy_place, validate_fuzzy_place, validation_oracle.validate_fuzzy_place),
    (faulty_fuzzy_link, validate_fuzzy_link, validation_oracle.validate_fuzzy_link),
]

# One phrase of each message a validator can report.
KINDS = [
    "interface widths", "has no control", "has unknown control",
    "control map mentions undeclared", "parent map is not total",
    "mentions unknown child", "is an undeclared node", "out-of-range root",
    "unsupported sort:", "parent map is cyclic",
    "collide with outer names", "identifiers overlap", "link map is not total",
    "port of undeclared node", "violates the arity bound", "undeclared inner name",
    "point of unsupported sort", "neither an edge nor an outer name",
    "has a cycle", "no parent of positive degree", "no link of positive degree",
]


def test_validators_keep_their_report_order_on_graphs_with_many_faults():
    seen, longest = [], 0
    for make, validate, reference in CASES:
        for seed in SEEDS:
            graph = make(random.Random(seed))
            problems = validate(graph).problems
            assert problems == reference(graph).problems, (make.__name__, seed)
            seen.extend(problems)
            longest = max(longest, len(problems))
    text = "\n".join(seen)
    assert [kind for kind in KINDS if kind not in text] == []
    assert longest >= 10  # many faults in one report, not one per graph


CYCLE = "the positive part of the parent relation has a cycle"


def skeleton_place(rng, frame) -> FuzzyPlaceGraph:
    """Each site and node takes up to three parents among the nodes after
    it and the roots, so several parents per child close no cycle; then
    maybe a self-loop, a back edge or a ring through many nodes is added.
    Any entry but the ring's may sit at bottom, which no cycle may use."""
    nodes = [f"v{i}" for i in range(rng.randint(0, 14))]
    inner, outer = rng.randint(0, 3), rng.randint(1, 3)
    prnt = {}
    for child in [*range(inner), *nodes]:
        later = nodes[nodes.index(child) + 1:] if child in nodes else nodes
        above = [*later, *range(outer)]
        for parent in rng.sample(above, min(len(above), rng.randint(0, 3))):
            prnt[(child, parent)] = random_degree(rng, frame)
    fault = rng.choice(["none", "self-loop", "back edge", "ring"]) if nodes else "none"
    if fault == "self-loop":
        v = rng.choice(nodes)
        prnt[(v, v)] = random_degree(rng, frame)
    elif fault == "back edge":
        low, high = sorted(rng.choices(range(len(nodes)), k=2))
        prnt[(nodes[high], nodes[low])] = random_degree(rng, frame)
    elif fault == "ring":
        ring = rng.sample(nodes, rng.randint(1, len(nodes)))
        for child, parent in zip(ring, ring[1:] + ring[:1]):
            prnt[(child, parent)] = random_degree(rng, frame, positive=True)
    ctrl = {(v, rng.choice("KLM")): frame.top for v in nodes}
    return FuzzyPlaceGraph(frame, H_SIGNATURE, inner, outer, nodes, ctrl, prnt)


def deep_chain_places(frame, depth=10_000) -> list[FuzzyPlaceGraph]:
    """A chain of ``depth`` nested nodes under one root, and the same chain
    with its outermost node also parented by its innermost."""
    nodes = [f"n{i}" for i in range(depth)]
    prnt = {(nodes[i], nodes[i + 1]): frame.top for i in range(depth - 1)}
    prnt[(nodes[-1], 0)] = frame.top
    ctrl = {(v, "K"): frame.top for v in nodes}
    chain = FuzzyPlaceGraph(frame, H_SIGNATURE, 0, 1, nodes, ctrl, prnt)
    looped = FuzzyPlaceGraph(
        frame, H_SIGNATURE, 0, 1, nodes, ctrl, {**prnt, (nodes[-1], nodes[0]): frame.top}
    )
    return [chain, looped]


def test_the_cycle_check_agrees_with_a_depth_first_search():
    verdicts = []
    for frame in ALL_FRAMES:
        graphs = [skeleton_place(random.Random(seed), frame) for seed in range(400)]
        for graph in graphs + deep_chain_places(frame):
            acyclic = validation_oracle.skeleton_is_acyclic(graph.prnt, graph.nodes)
            assert skeleton_is_acyclic(graph.prnt, graph.nodes) is acyclic
            problems = validate_fuzzy_place(graph).problems
            assert problems == validation_oracle.validate_fuzzy_place(graph).problems
            assert validate_type2_place(embed_place(graph)).problems == (
                [] if acyclic else [CYCLE]
            )
            verdicts.append(acyclic)
        assert verdicts[-2:] == [True, False]
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300
