"""Reference serializer: canonical text through ``json.dumps``.

The canonical model-file text is defined as what ``json.dumps(payload,
sort_keys=True, indent=2, ensure_ascii=False)`` prints for the payload
built here, one branch per graph kind.  The library writes that layout
directly, without building the payload; the tests compare the two byte for
byte.
"""

from __future__ import annotations

import json

from fuzzybig import (
    Bigraph,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzySet,
    Interface,
    LinkGraph,
    PlaceGraph,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
)
from fuzzybig.relations import element_sort_key


def _encode_elem(element):
    if isinstance(element, tuple):
        return [element[0], element[1]]
    return element


def _encode_crisp_nodes(nodes, ctrl):
    return [[v, ctrl[v]] for v in sorted(nodes)]


def _encode_map(mapping):
    rows = sorted(mapping.items(), key=lambda kv: element_sort_key(kv[0]))
    return [[_encode_elem(a), _encode_elem(b)] for a, b in rows]


def _encode_relation(relation):
    frame = relation.frame
    return [
        [_encode_elem(a), _encode_elem(b), frame.format_degree(d)]
        for (a, b), d in relation.sorted_items()
    ]


def _encode_fuzzy_set(fset: FuzzySet):
    return [
        [element, fset.frame.format_degree(d)] for element, d in fset.sorted_items()
    ]


def _encode_interface(interface: Interface):
    return {"width": interface.width, "names": sorted(interface.names)}


def _encode_graph(graph) -> dict:
    if isinstance(graph, PlaceGraph):
        return {
            "kind": "crisp-place",
            "inner": graph.inner,
            "outer": graph.outer,
            "nodes": _encode_crisp_nodes(graph.nodes, graph.ctrl),
            "prnt": _encode_map(graph.prnt),
        }
    if isinstance(graph, LinkGraph):
        return {
            "kind": "crisp-link",
            "inner": sorted(graph.inner),
            "outer": sorted(graph.outer),
            "nodes": _encode_crisp_nodes(graph.nodes, graph.ctrl),
            "edges": sorted(graph.edges),
            "link": _encode_map(graph.link),
        }
    if isinstance(graph, Bigraph):
        return {
            "kind": "crisp-bigraph",
            "inner": _encode_interface(graph.inner),
            "outer": _encode_interface(graph.outer),
            "nodes": _encode_crisp_nodes(graph.nodes, graph.place.ctrl),
            "edges": sorted(graph.edges),
            "prnt": _encode_map(graph.place.prnt),
            "link": _encode_map(graph.link.link),
        }
    if isinstance(graph, FuzzyPlaceGraph):
        return {
            "kind": "fuzzy-place",
            "inner": graph.inner,
            "outer": graph.outer,
            "nodes": sorted(graph.nodes),
            "ctrl": _encode_relation(graph.ctrl),
            "prnt": _encode_relation(graph.prnt),
        }
    if isinstance(graph, FuzzyLinkGraph):
        return {
            "kind": "fuzzy-link",
            "inner": sorted(graph.inner),
            "outer": sorted(graph.outer),
            "nodes": sorted(graph.nodes),
            "edges": sorted(graph.edges),
            "ctrl": _encode_relation(graph.ctrl),
            "link": _encode_relation(graph.link),
        }
    if isinstance(graph, FuzzyBigraph):
        return {
            "kind": "fuzzy-bigraph",
            "inner": _encode_interface(graph.inner),
            "outer": _encode_interface(graph.outer),
            "nodes": sorted(graph.nodes),
            "edges": sorted(graph.edges),
            "ctrl": _encode_relation(graph.ctrl),
            "prnt": _encode_relation(graph.prnt),
            "link": _encode_relation(graph.link.link),
        }
    if isinstance(graph, Type2FuzzyPlaceGraph):
        return {
            "kind": "type2-place",
            "inner": graph.inner,
            "outer": graph.outer,
            "nodes": _encode_fuzzy_set(graph.nodes),
            "ctrl": _encode_relation(graph.ctrl),
            "prnt": _encode_relation(graph.prnt),
            "beta": graph.frame.format_degree(graph.degree),
        }
    if isinstance(graph, Type2FuzzyLinkGraph):
        return {
            "kind": "type2-link",
            "inner": sorted(graph.inner),
            "outer": sorted(graph.outer),
            "nodes": _encode_fuzzy_set(graph.nodes),
            "edges": _encode_fuzzy_set(graph.edges),
            "ctrl": _encode_relation(graph.ctrl),
            "link": _encode_relation(graph.link),
            "delta": graph.frame.format_degree(graph.degree),
        }
    if isinstance(graph, Type2FuzzyBigraph):
        frame = graph.frame
        return {
            "kind": "type2-bigraph",
            "inner": _encode_interface(graph.inner),
            "outer": _encode_interface(graph.outer),
            "nodes": _encode_fuzzy_set(graph.nodes),
            "edges": _encode_fuzzy_set(graph.edges),
            "ctrl": _encode_relation(graph.ctrl),
            "prnt": _encode_relation(graph.place.prnt),
            "link": _encode_relation(graph.link.link),
            "beta": frame.format_degree(graph.place.degree),
            "delta": frame.format_degree(graph.link.degree),
            "gamma": frame.format_degree(graph.degree),
        }
    raise TypeError(f"cannot serialize {type(graph).__name__}")


def serialize(doc) -> str:
    """Canonical text through ``json.dumps``."""
    payload = {
        "frame": doc.frame.name,
        "signature": {"controls": dict(doc.signature.arity)},
        "graphs": {name: _encode_graph(g) for name, g in doc.graphs.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
