"""The nine graph classes, crisp and graded: equality from fields, no hash,
and one set of bigraph accessors that agree across the embeddings."""

import dataclasses
from typing import Mapping

import pytest

from fuzzybig import (
    Bigraph,
    LinkGraph,
    PlaceGraph,
    Signature,
    UNIT_INTERVAL,
    embed_bigraph,
    fuzzify,
)

from helpers import H_SIGNATURE, make_h

CRISP = (PlaceGraph, LinkGraph, Bigraph)
OTHER_SIGNATURE = Signature({**H_SIGNATURE.arity, "Z": 0})


def nine_graphs() -> list:
    h = make_h()
    f = fuzzify(h, UNIT_INTERVAL)
    t = embed_bigraph(f)
    return [h.place, h.link, h, f.place, f.link, f, t.place, t.link, t]


def _fields(graph) -> dict:
    if isinstance(graph, CRISP):
        return {field.name: getattr(graph, field.name) for field in dataclasses.fields(graph)}
    return {name: getattr(graph, name) for name in graph._fields}


def rebuilt(graph, **changes):
    """A copy of ``graph`` built from its fields, with ``changes`` applied.
    Crisp parts are rebuilt too, and crisp maps passed as fresh dicts."""
    fields = {**_fields(graph), **changes}
    if isinstance(graph, CRISP):
        for name, value in fields.items():
            if isinstance(value, (PlaceGraph, LinkGraph)):
                fields[name] = rebuilt(value)
            elif isinstance(value, Mapping) and not isinstance(value, Signature):
                fields[name] = dict(value)
        return type(graph)(**fields)
    return type(graph)._trusted(*fields.values())


def _wider(outer):
    return outer + 1 if isinstance(outer, int) else outer | {"zz"}


def one_field_changed(graph) -> list:
    """Copies of ``graph`` that each differ from it in one field."""
    if {"place", "link"} <= _fields(graph).keys():
        return [
            rebuilt(graph, place=rebuilt(graph.place, outer=_wider(graph.place.outer))),
            rebuilt(graph, link=rebuilt(graph.link, outer=_wider(graph.link.outer))),
        ]
    return [
        rebuilt(graph, outer=_wider(graph.outer)),
        rebuilt(graph, signature=OTHER_SIGNATURE),
    ]


def test_the_nine_graphs_are_of_nine_classes():
    assert len({type(graph) for graph in nine_graphs()}) == 9


@pytest.mark.parametrize("graph", nine_graphs(), ids=lambda g: type(g).__name__)
def test_graphs_are_unhashable(graph):
    with pytest.raises(TypeError):
        hash(graph)


@pytest.mark.parametrize("graph", nine_graphs(), ids=lambda g: type(g).__name__)
def test_a_graph_equals_its_copy_from_fields_and_no_copy_with_a_field_changed(graph):
    copy = rebuilt(graph)
    assert copy is not graph
    assert copy == graph and graph == copy
    assert not copy != graph
    for changed in one_field_changed(graph):
        assert changed != graph and graph != changed
        assert not changed == graph


def test_a_graph_never_equals_a_graph_of_another_class():
    graphs = nine_graphs()
    for a in graphs:
        for b in graphs:
            if type(a) is not type(b):
                assert a != b and not a == b


def test_the_bigraph_accessors_agree_across_the_embeddings():
    h = make_h()
    f = fuzzify(h, UNIT_INTERVAL)
    t = embed_bigraph(f)
    for b in (h, f, t):
        assert b.signature == H_SIGNATURE
        assert (b.inner, b.outer) == (h.inner, h.outer)
    assert h.nodes == f.nodes == t.nodes.support
    assert h.edges == f.edges == t.edges.support
    assert h.nodes == h.place.nodes and h.edges == h.link.edges
