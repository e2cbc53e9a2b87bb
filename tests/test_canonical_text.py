"""The direct writer prints exactly what the ``json.dumps`` reference
prints, and the DOT views what their earlier code printed."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    Bigraph,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    Interface,
    LinkGraph,
    ModelDocument,
    Signature,
    UNIT_INTERVAL,
    export_dot,
    identity_bigraph,
    identity_crisp,
    identity_type2_bigraph,
    parse,
    serialize,
)
from fuzzybig.fuzzy import derive_ports
from fuzzybig.model_io import _kind_of
from fuzzybig.generators import random_fuzzy_bigraph, random_fuzzy_place, random_type2_bigraph

import dot_oracle
import serialize_oracle
from helpers import ALL_FRAMES, H_SIGNATURE, make_h, random_crisp_bigraph

U = UNIT_INTERVAL

# Characters JSON must escape (quote, backslash, control characters),
# characters ``ensure_ascii=False`` writes as they are (non-ASCII, beyond the
# BMP, the line separators JavaScript cares about), and plain ones.
IDENT = st.text(
    st.sampled_from(['a', 'b', '"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f",
                     "é", "中", "\U0001f600", "\u2028", "/", " "]),
    max_size=4,
)


def with_distinct_degrees(g: FuzzyBigraph) -> FuzzyBigraph:
    """``g`` over the unit interval with every entry at a degree of its own."""
    count = len(g.ctrl) + len(g.prnt) + len(g.link.link)
    numerators = itertools.count(1)

    def fresh(relation):
        return {
            pair: U.value(Fraction(next(numerators), count + 1))
            for pair, _degree in relation.sorted_items()
        }

    place = FuzzyPlaceGraph(U, g.signature, g.place.inner, g.place.outer, g.nodes,
                            fresh(g.ctrl), fresh(g.prnt))
    link = FuzzyLinkGraph(U, g.signature, g.link.inner, g.link.outer, g.nodes, g.edges,
                          place.ctrl, fresh(g.link.link))
    return FuzzyBigraph(place, link)


def all_kinds(prefix: str, bigraph) -> dict:
    return {f"{prefix}b": bigraph, f"{prefix}p": bigraph.place, f"{prefix}l": bigraph.link}


@st.composite
def documents(draw):
    frame = draw(st.sampled_from(ALL_FRAMES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    controls = draw(st.lists(IDENT, min_size=3, max_size=3, unique=True))
    signature = Signature(dict(zip(controls, (2, 1, 0))))
    prefix = draw(IDENT)
    # Names end in "<" or ">", node and edge identifiers in a digit, so the
    # generators never see a clash.
    inner = Interface(
        draw(st.integers(min_value=0, max_value=3)),
        frozenset(f"{t}<" for t in draw(st.lists(IDENT, max_size=3))),
    )
    outer = Interface(
        draw(st.integers(min_value=1, max_value=3)),
        frozenset(f"{t}>" for t in draw(st.lists(IDENT, min_size=1, max_size=3))),
    )
    fuzzy = random_fuzzy_bigraph(rng, frame, signature, inner, outer, prefix)
    if frame is U and draw(st.booleans()):
        fuzzy = with_distinct_degrees(fuzzy)
    graphs = {
        **all_kinds("c", random_crisp_bigraph(rng, signature, inner, outer, prefix)),
        **all_kinds("f", fuzzy),
        **all_kinds("t", random_type2_bigraph(rng, frame, signature, inner, outer, prefix)),
    }
    if draw(st.booleans()):
        unit = Interface(0, frozenset())
        graphs.update(all_kinds("ic", identity_crisp(unit, signature)))
        graphs.update(all_kinds("if", identity_bigraph(unit, frame, signature)))
        graphs.update(all_kinds("it", identity_type2_bigraph(unit, frame, signature)))
    suffix = draw(IDENT)
    return ModelDocument(frame, signature, {f"{name}{suffix}": g for name, g in graphs.items()})


@settings(max_examples=150, deadline=None)
@given(documents())
def test_serialize_prints_the_reference_bytes(doc):
    text = serialize(doc)
    assert text == serialize_oracle.serialize(doc)
    assert parse(text) == doc


def test_an_empty_document_prints_the_reference_bytes():
    for doc in (ModelDocument(U, Signature({}), {}), ModelDocument(U, H_SIGNATURE, {})):
        assert serialize(doc) == serialize_oracle.serialize(doc)


def assert_dot_views_match_the_reference(doc: ModelDocument) -> None:
    """Every link view, and every graded place view, of every graph in
    ``doc``, byte for byte; the crisp place view has no second version."""
    for name, graph in doc.graphs.items():
        flavour, _, part = _kind_of(graph)[0].partition("-")
        parts = {"place": graph.place, "link": graph.link} if part == "bigraph" else {part: graph}
        for view, g in parts.items():
            if view == "link":
                assert export_dot(doc, name, view) == dot_oracle.dot_link(g, flavour)
            elif flavour != "crisp":
                expected = dot_oracle.dot_place_fuzzy(g, flavour == "type2")
                assert export_dot(doc, name, view) == expected


@settings(max_examples=150, deadline=None)
@given(documents())
def test_dot_views_print_the_reference_bytes(doc):
    assert_dot_views_match_the_reference(doc)


def test_dot_link_views_of_faulty_crisp_graphs_print_the_reference_bytes():
    """The crisp constructors accept what ``validate`` reports, and the link
    view still draws it: a port beyond its node's arity, ports of nodes
    without a known control, a target no one declared, an outer name that
    is also an edge, and a target that is no identifier at all."""
    h = make_h()
    ctrl = {**h.link.ctrl, "v0": "Z"}
    del ctrl["v1"]
    link = {
        **h.link.link,
        ("v2", 9): "e0",
        ("v0", 0): "nowhere",
        ("v1", 1): "e1",
        ("undeclared", 0): None,
    }
    broken = LinkGraph(H_SIGNATURE, h.link.inner, h.link.outer | {"e0"}, h.nodes,
                       h.edges, ctrl, link)
    doc = ModelDocument(U, H_SIGNATURE, {"l": broken, "b": Bigraph(h.place, broken)})
    assert_dot_views_match_the_reference(doc)


def large_distinct_document(node_count: int = 600) -> ModelDocument:
    """One fuzzy bigraph whose every degree differs from every other."""
    rng = random.Random(7)
    nodes = [f"v{i}" for i in range(node_count)]
    edges = [f"e{i}" for i in range(node_count // 2)]
    place = random_fuzzy_place(rng, U, H_SIGNATURE, 2, 2, nodes)
    targets = edges + ["y"]
    points = ["x"] + sorted(derive_ports(H_SIGNATURE, place.ctrl))
    link = {(p, rng.choice(targets)): U.top for p in points}
    g = FuzzyBigraph(place, FuzzyLinkGraph(
        U, H_SIGNATURE, {"x"}, {"y"}, nodes, edges, place.ctrl, link
    ))
    return ModelDocument(U, H_SIGNATURE, {"g": with_distinct_degrees(g)})


def best_times(*fns, passes: int = 7) -> list:
    """The best wall time of each callable over ``passes`` rounds that call
    them in turn, so that a slow spell on a shared host slows every one."""
    best = [float("inf")] * len(fns)
    for _ in range(passes):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_distinct_degrees_serialize_no_slower_than_the_reference():
    doc = large_distinct_document()
    text = serialize(doc)
    assert text == serialize_oracle.serialize(doc)
    assert parse(text) == doc
    ours, reference = best_times(lambda: serialize(doc), lambda: serialize_oracle.serialize(doc))
    assert ours < reference
