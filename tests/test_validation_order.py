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
    validate_fuzzy_link,
    validate_fuzzy_place,
    validate_link_graph,
    validate_place_graph,
)

import validation_oracle
from helpers import H_SIGNATURE

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
