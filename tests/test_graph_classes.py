"""The six graded graph classes: their fields, their equality, the
agreement a bigraph's parts must reach, in both graded flavours, and their
copies."""

import copy
import pickle

import pytest

from fuzzybig import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    compose_fuzzy,
    compose_type2,
    embed_bigraph,
    embed_link,
    embed_place,
    fuzzify,
    identity_bigraph,
    identity_type2_bigraph,
    support,
    type2_support,
)
from fuzzybig.relations import FuzzyRelation, FuzzySet
from fuzzybig.type2 import Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph

from helpers import ALL_FRAMES, H_SIGNATURE, DiamondFrame, d, make_h

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


def _reprs() -> dict:
    f, link, fuzzy, t, t_link, type2 = h_graphs()
    cases = [
        (f, "FuzzyPlaceGraph(3->2, 6 nodes, unit-interval)"),
        (link, "FuzzyLinkGraph(['x1', 'x2']->['y'], 6 nodes, 2 edges, unit-interval)"),
        (fuzzy, "FuzzyBigraph(⟨3,{x1,x2}⟩->⟨2,{y}⟩, unit-interval)"),
        (t, "Type2FuzzyPlaceGraph(3->2, 6 nodes, degree 1)"),
        (t_link, "Type2FuzzyLinkGraph(['x1', 'x2']->['y'], degree 1)"),
        (type2, "Type2FuzzyBigraph(⟨3,{x1,x2}⟩->⟨2,{y}⟩, degree 1)"),
        (f.prnt, "FuzzyRelation(9 entries, 9x8, unit-interval)"),
        (t.nodes, "FuzzySet(6 elements, unit-interval)"),
    ]
    return {text.partition("(")[0]: (value, text) for value, text in cases}


REPRS = _reprs()


@pytest.mark.parametrize("name", sorted(REPRS))
def test_each_graph_and_relation_has_a_one_line_repr(name):
    value, text = REPRS[name]
    assert repr(value) == text


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


def test_the_supports_refuse_an_object_that_is_no_graph():
    with pytest.raises(TypeError) as caught:
        support(object())
    assert str(caught.value) == "no support for object"
    with pytest.raises(TypeError) as caught:
        type2_support(object())
    assert str(caught.value) == "no type-2 support for object"


# --- copies ------------------------------------------------------------------------

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _graded(frame) -> list:
    """Fuzzified H and its type-2 embedding, each composed three times with
    an identity first, so that every relation and fuzzy set has kept what
    composition keeps; and the last composites, whose sets are unbuilt."""
    f = fuzzify(make_h(), frame)
    t = embed_bigraph(f)
    graphs = [f, t, f.place, f.link, t.place, t.link]
    for g, ident, compose in (
        (f, identity_bigraph, compose_fuzzy),
        (t, identity_type2_bigraph, compose_type2),
    ):
        unit = ident(g.outer, frame, H_SIGNATURE)
        for _ in range(3):
            composite = compose(unit, g)
        graphs.append(composite)
    return graphs


def _held(value) -> list:
    """The relations and fuzzy sets a graph of any graded kind holds."""
    parts = [value.place, value.link] if hasattr(value, "place") else [value]
    out = []
    for part in parts:
        for name in ("nodes", "edges", "ctrl", "prnt", "link"):
            field = getattr(part, name, None)
            if isinstance(field, (FuzzyRelation, FuzzySet)):
                out.append(field)
    return out


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda frame: frame.name)
def test_a_copied_graph_is_equal_and_holds_the_frames_shared_degrees(frame, how):
    for graph in [make_h(), *_graded(frame)]:
        copied = COPIES[how](graph)
        assert copied == graph and graph == copied
        for held in _held(copied):
            assert held.frame is frame
            assert all(frame.value(degree.raw) is degree for _key, degree in held.items())
            if how != "copy":
                # Nothing kept is carried over; a copy keeps it again when composed.
                assert (held._floor, getattr(held, "_kept", None)) == (None, None)


def test_a_degree_copies_as_itself():
    for frame in ALL_FRAMES:
        for degree in (frame.top, frame.value(frame.top.raw)):
            for how in COPIES.values():
                assert how(degree) is frame.top
        assert COPIES["pickle"](frame.bottom) == frame.bottom
        assert all(how(frame) is frame for how in COPIES.values())


def test_a_frame_pickles_only_by_a_name_it_can_be_found_by():
    diamond = DiamondFrame()
    graph = embed_bigraph(fuzzify(make_h(), diamond))
    assert copy.deepcopy(graph) == graph
    assert copy.copy(diamond) is diamond and copy.deepcopy(diamond) is diamond
    with pytest.raises(ValueError, match="unknown frame 'diamond'"):
        pickle.dumps(graph)
