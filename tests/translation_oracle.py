"""The support-translation paths as they stood before fuzzy and type-2
bigraphs shared one renaming and one checker kernel, kept verbatim.

``translate_fuzzy`` and ``translate_type2`` rename each part and rebuild
it through its public constructor, one flavour each.  The fuzzy checker
builds the induced port relation from ``SupportTranslation.port_image``
through the checked ``FuzzyRelation`` constructor, and takes the
inequalities' sides from ``type2_oracle.dense_translated_sides``, so it
uses no library routing.  The test suite compares the library with these
on sampled inputs: reports, translated graphs and raised errors must
agree.
"""

from __future__ import annotations

from fuzzybig.crisp import _element_renaming
from fuzzybig.errors import InterfaceMismatchError
from fuzzybig.fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    TranslationCheck,
    TranslationReport,
)
from fuzzybig.relations import FuzzyRelation
from fuzzybig.type2 import Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph

from type2_oracle import dense_translated_sides


def translate_fuzzy(f: FuzzyBigraph, rho: SupportTranslation) -> FuzzyBigraph:
    """Apply a support translation, copying every degree across."""
    if set(rho.node_map) != set(f.nodes):
        raise ValueError("node renaming does not cover exactly the node set")
    if set(rho.edge_map) != set(f.edges):
        raise ValueError("edge renaming does not cover exactly the edge set")
    node, place_elem, point, target = _element_renaming(rho.node_map, rho.edge_map)
    nodes = rho.node_map.values()
    ctrl = f.ctrl.translate(node)
    place = FuzzyPlaceGraph(
        f.frame,
        f.signature,
        f.place.inner,
        f.place.outer,
        nodes,
        ctrl,
        f.prnt.translate(place_elem, place_elem),
    )
    link = FuzzyLinkGraph(
        f.frame,
        f.signature,
        f.link.inner,
        f.link.outer,
        nodes,
        rho.edge_map.values(),
        ctrl,
        f.link.link.translate(point, target),
    )
    return FuzzyBigraph(place, link)


def translate_type2(f: Type2FuzzyBigraph, rho: SupportTranslation) -> Type2FuzzyBigraph:
    """Rename nodes and edges of a type-2 bigraph, copying every degree."""
    if set(rho.node_map) != set(f.nodes.support):
        raise ValueError("node renaming does not cover exactly the node support")
    if set(rho.edge_map) != set(f.link.edge_support):
        raise ValueError("edge renaming does not cover exactly the edge support")
    node, place_elem, point, target = _element_renaming(rho.node_map, rho.edge_map)
    nodes = f.nodes.translate(rho.node_map)
    ctrl = f.ctrl.translate(node)
    place = Type2FuzzyPlaceGraph(
        f.frame,
        f.signature,
        f.place.inner,
        f.place.outer,
        nodes,
        ctrl,
        f.place.prnt.translate(place_elem, place_elem),
        f.place.degree,
    )
    link = Type2FuzzyLinkGraph(
        f.frame,
        f.signature,
        f.link.inner,
        f.link.outer,
        nodes,
        f.edges.translate(rho.edge_map),
        ctrl,
        f.link.link.translate(point, target),
        f.link.degree,
    )
    return Type2FuzzyBigraph(place, link)


def check_support_translation(
    rho: SupportTranslation, f: FuzzyBigraph, g: FuzzyBigraph
) -> TranslationReport:
    """Verify that ``rho`` is a support translation from f to g.

    Builds the induced crisp-valued relations on nodes, edges and ports and
    checks control preservation, port well-definedness, and the two
    inequalities tying the translated parent and link relations of f to
    those of g.
    """
    if f.inner != g.inner or f.outer != g.outer:
        raise InterfaceMismatchError(
            f"interface mismatch: {f.inner}->{f.outer} vs {g.inner}->{g.outer}"
        )
    if set(rho.node_map) != set(f.nodes) or set(rho.node_map.values()) != set(g.nodes):
        raise ValueError("node renaming is not a bijection from f's nodes to g's")
    if set(rho.edge_map) != set(f.edges) or set(rho.edge_map.values()) != set(g.edges):
        raise ValueError("edge renaming is not a bijection from f's edges to g's")

    frame = f.frame
    top = frame.top
    rho_nodes = FuzzyRelation(
        frame, f.nodes, g.nodes, {(v, w): top for v, w in rho.node_map.items()}
    )
    rho_edges = FuzzyRelation(
        frame, f.edges, g.edges, {(e, d): top for e, d in rho.edge_map.items()}
    )

    checks: list[TranslationCheck] = []

    # 1. control preservation: every translated control degree of f is
    #    dominated by g's.
    pulled = rho_nodes.then(g.ctrl)
    bad = [
        (v, k)
        for (v, k), d in f.ctrl.items()
        if not d.leq(pulled.degree(v, k))
    ]
    checks.append(
        TranslationCheck(
            "control preservation",
            not bad,
            "" if not bad else f"degree drops at {sorted(bad)}",
        )
    )

    # 2. the port bijection (v, i) -> (rho(v), i) lands exactly on g's ports.
    f_ports = f.link.ports
    g_ports = g.link.ports
    mapped = {rho.port_image(p) for p in f_ports}
    ok_ports = mapped == g_ports
    checks.append(
        TranslationCheck(
            "port bijection",
            ok_ports,
            ""
            if ok_ports
            else f"image {sorted(mapped)} differs from {sorted(g_ports)}",
        )
    )
    rho_ports = FuzzyRelation(
        frame,
        f_ports,
        g_ports,
        {(p, rho.port_image(p)): top for p in f_ports if rho.port_image(p) in g_ports},
    )

    # 3a. parent inequality: g's parents, pulled back along rho, dominate f's.
    lhs, rhs = dense_translated_sides(
        f.prnt, g.prnt, rho_nodes, rho_nodes, range(f.place.inner), range(f.place.outer)
    )
    ok_prnt = rhs.leq(lhs)
    checks.append(
        TranslationCheck(
            "parent relation",
            ok_prnt,
            "" if ok_prnt else "translated parent degrees are not dominated",
        )
    )

    # 3b. link inequality, same shape on points and links.
    lhs, rhs = dense_translated_sides(
        f.link.link, g.link.link, rho_ports, rho_edges, f.link.inner, f.link.outer
    )
    ok_link = rhs.leq(lhs)
    checks.append(
        TranslationCheck(
            "link relation",
            ok_link,
            "" if ok_link else "translated link degrees are not dominated",
        )
    )
    return TranslationReport(checks)
