"""The six graded graph classes: their fields, their equality, and the
agreement a bigraph's parts must reach, in both graded flavours."""

import pytest

from fuzzybig import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    embed_bigraph,
    embed_link,
    embed_place,
    fuzzify,
)
from fuzzybig.type2 import Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph

from helpers import H_SIGNATURE, d, make_h

U = UNIT_INTERVAL

# Every field of each class, in the order ``_trusted`` takes them.
PLACE = ("frame", "signature", "inner", "outer", "nodes", "ctrl", "prnt")
LINK = ("frame", "signature", "inner", "outer", "nodes", "edges", "ctrl", "link", "ports")
FIELDS = {
    FuzzyPlaceGraph: PLACE,
    FuzzyLinkGraph: LINK,
    FuzzyBigraph: ("place", "link"),
    Type2FuzzyPlaceGraph: PLACE + ("degree",),
    Type2FuzzyLinkGraph: LINK + ("degree",),
    Type2FuzzyBigraph: ("place", "link"),
}


def h_graphs() -> list:
    f = fuzzify(make_h(), U)
    t = embed_bigraph(f)
    return [f.place, f.link, f, t.place, t.link, t]


@pytest.mark.parametrize("graph", h_graphs(), ids=lambda g: type(g).__name__)
def test_trusted_stores_every_field(graph):
    names = FIELDS[type(graph)]
    copy = type(graph)._trusted(*(getattr(graph, name) for name in names))
    for name in names:
        assert getattr(copy, name) is getattr(graph, name)
    assert copy == graph


def _relinked(graph: FuzzyLinkGraph, **changes) -> FuzzyLinkGraph:
    """A fuzzy link graph like ``graph`` but for the given constructor arguments."""
    fields = {name: getattr(graph, name) for name in LINK[:-1]}
    return FuzzyLinkGraph(**{**fields, **changes})


def test_bigraphs_that_differ_only_in_their_link_part_are_unequal():
    f = fuzzify(make_h(), U)
    entries = f.link.link.entry_dict()
    entries.pop(min(entries, key=repr))
    g = FuzzyBigraph(f.place, _relinked(f.link, link=entries))
    assert FuzzyBigraph(f.place, f.link) == f
    assert g.place == f.place and g != f and f != g

    t = embed_bigraph(f)
    u = Type2FuzzyBigraph(t.place, embed_link(f.link, d("1/2")))
    assert Type2FuzzyBigraph(t.place, t.link) == t
    assert u.place == t.place and u != t and t != u


def _disagreeing_links() -> dict:
    """For each check a bigraph makes of its parts, a fuzzy link graph that
    fails only that check against the place part of fuzzified H."""
    link = fuzzify(make_h(), U).link
    ctrl = link.ctrl.entry_dict()
    ctrl[min(ctrl)] = d("1/2")
    return {
        "frames": fuzzify(make_h(), TWO_POINT).link,
        "signatures": _relinked(link, signature=Signature({**H_SIGNATURE.arity, "N": 2})),
        "nodes": _relinked(link, nodes=link.nodes | {"extra"}),
        "controls": _relinked(link, ctrl=ctrl),
    }


MESSAGES = {
    "frames": "place and link parts use different frames",
    "signatures": "place and link parts use different signatures",
    "nodes": "place and link parts disagree on the {} set",
    "controls": "place and link parts disagree on the control relation",
}


@pytest.mark.parametrize("check", sorted(MESSAGES))
def test_the_parts_of_a_bigraph_must_agree(check):
    place, link = fuzzify(make_h(), U).place, _disagreeing_links()[check]
    with pytest.raises(ValueError) as caught:
        FuzzyBigraph(place, link)
    assert str(caught.value) == MESSAGES[check].format("node")
    with pytest.raises(ValueError) as caught:
        Type2FuzzyBigraph(embed_place(place), embed_link(link))
    assert str(caught.value) == MESSAGES[check].format("fuzzy node")
