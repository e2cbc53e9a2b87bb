"""Type-2 fuzzy bigraphs: fuzzy node/edge sets and graded interfaces.

On top of the fuzzy relations of the previous layer, the node and edge
sets themselves become fuzzy sets, and each graph carries a plausibility
degree for its interfaces: ``beta`` on place graphs, ``delta`` on link
graphs, and their meet ``gamma`` on bigraphs.  Composition of two graphs
with interface degrees mu and nu runs at the threshold ``kappa = mu ∧ nu``:
entries of the operands that fall below kappa (where the defining cases
threshold them) are dropped from the composite.

The serialization layer exposes the degrees under the field names
``beta``/``delta``/``gamma``; in code each graph simply has a ``degree``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .crisp import Interface, Port, Signature, _element_renaming, _freeze_ids
from .errors import InterfaceMismatchError, ValidationReport
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    TranslationCheck,
    TranslationReport,
    _Bigraph,
    _Graph,
    _as_relation,
    _prnt_domain,
    _require_apart,
    _require_bigraph_composable,
    _require_link_composable,
    _require_place_composable,
    _translated_sides,
    _widths,
    identity_bigraph,
    skeleton_is_acyclic,
)
from .lattice import Frame, FrameValue
from .relations import FuzzyRelation, FuzzySet, _route


def type2_ports(signature: Signature, nodes: FuzzySet, ctrl: FuzzyRelation) -> frozenset[Port]:
    """Ports of a type-2 link graph.

    For each node with positive membership, the control attaining the join
    of the node's control degrees decides the port count; ties are broken
    by the lexicographically least control name.
    """
    rows: dict[str, list[tuple[str, FrameValue]]] = {}
    for (v, control), degree in ctrl.items():
        rows.setdefault(v, []).append((control, degree))
    ports = set()
    for v in nodes.support:
        row = rows.get(v)
        if not row:
            continue
        best = row[0][1]
        for _k, d in row[1:]:
            best = best.join(d)
        chosen = min(k for k, d in row if d == best)
        ports.update((v, i) for i in range(signature.arity_of(chosen)))
    return frozenset(ports)


def _require_fuzzy_set(frame: Frame, fset, what: str) -> None:
    """``fset`` is a fuzzy set over ``frame`` whose elements are identifier
    strings."""
    if not isinstance(fset, FuzzySet) or fset.frame != frame:
        raise TypeError(f"{what}s must be a FuzzySet over the same frame")
    _freeze_ids(fset.support, what)


class Type2FuzzyPlaceGraph(_Graph):
    """A fuzzy place graph whose node set is itself fuzzy, with an
    interface plausibility degree."""

    __slots__ = ("frame", "signature", "inner", "outer", "nodes", "ctrl", "prnt", "degree")

    def __init__(self, frame, signature, inner, outer, nodes: FuzzySet, ctrl, prnt, degree):
        inner, outer = _widths(inner, outer)
        _require_fuzzy_set(frame, nodes, "node")
        frame.check_value(degree)
        ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        prnt = _as_relation(frame, prnt, *_prnt_domain(inner, outer, nodes.support))
        self._store(frame, signature, inner, outer, nodes, ctrl, prnt, degree)

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyPlaceGraph({self.inner}->{self.outer}, "
            f"{len(self.node_support)} nodes, degree "
            f"{self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyLinkGraph(_Graph):
    """A fuzzy link graph with fuzzy node and edge sets and an interface
    plausibility degree."""

    __slots__ = (
        "frame",
        "signature",
        "inner",
        "outer",
        "nodes",
        "edges",
        "ctrl",
        "link",
        "ports",
        "degree",
    )

    def __init__(self, frame, signature, inner, outer, nodes, edges, ctrl, link, degree):
        inner = _freeze_ids(inner, "inner name")
        outer = _freeze_ids(outer, "outer name")
        _require_fuzzy_set(frame, nodes, "node")
        _require_fuzzy_set(frame, edges, "edge")
        frame.check_value(degree)
        _require_apart(nodes.support, edges.support, outer)
        ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        ports = type2_ports(signature, nodes, ctrl)
        link = _as_relation(frame, link, inner | ports, edges.support | outer)
        self._store(frame, signature, inner, outer, nodes, edges, ctrl, link, ports, degree)

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    @property
    def edge_support(self) -> frozenset[str]:
        return self.edges.support

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyLinkGraph({sorted(self.inner)}->{sorted(self.outer)}, "
            f"degree {self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyBigraph(_Bigraph):
    """Type-2 place and link parts sharing nodes and controls.

    The bigraph's plausibility degree is the meet of its parts' degrees.
    """

    __slots__ = ()

    def __init__(self, place: Type2FuzzyPlaceGraph, link: Type2FuzzyLinkGraph):
        self._require_agreement(place, link, "fuzzy node set")
        self._store(place, link)

    @property
    def degree(self) -> FrameValue:
        """The interface plausibility degree: meet of the parts' degrees."""
        return self.place.degree.meet(self.link.degree)

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyBigraph({self.inner}->{self.outer}, degree "
            f"{self.frame.format_degree(self.degree)})"
        )


def type2_support(g, *, literal_off_sort_top: bool = False) -> FuzzySet:
    """The fuzzy support: nodes at their node membership, edges at theirs.

    ``literal_off_sort_top`` selects the published off-sort convention in
    which a node's edge-membership is top rather than bottom, which lifts
    every node to full membership; the default keeps the disjoint-union
    reading.
    """
    if isinstance(g, Type2FuzzyPlaceGraph):
        return g.nodes
    if isinstance(g, (Type2FuzzyLinkGraph, Type2FuzzyBigraph)):
        entries = dict(g.nodes.items())
        if literal_off_sort_top:
            top = g.frame.top
            entries = {v: top for v in entries}
        for e, d in g.edges.items():
            entries[e] = d
        return FuzzySet(g.frame, entries)
    raise TypeError(f"no type-2 support for {type(g).__name__}")


# --- embeddings of plain fuzzy structures --------------------------------------
#
# A fuzzy graph passed every check its type-2 embedding makes, save the
# interface degree, which the caller may give, and the ports, which the
# type-2 rule may count differently; so those two are checked and the rest
# is carried over as it stands.


def _full_set(frame: Frame, elements: frozenset) -> FuzzySet:
    """Every element at membership top."""
    return FuzzySet._trusted(frame, dict.fromkeys(elements, frame.top))


def _embedding_degree(frame: Frame, degree: FrameValue | None) -> FrameValue:
    if degree is None:
        return frame.top
    frame.check_value(degree)
    return degree


def embed_place(f: FuzzyPlaceGraph, degree: FrameValue | None = None) -> Type2FuzzyPlaceGraph:
    frame = f.frame
    nodes, degree = _full_set(frame, f.nodes), _embedding_degree(frame, degree)
    return Type2FuzzyPlaceGraph._trusted(
        frame, f.signature, f.inner, f.outer, nodes, f.ctrl, f.prnt, degree
    )


def embed_link(f: FuzzyLinkGraph, degree: FrameValue | None = None) -> Type2FuzzyLinkGraph:
    frame = f.frame
    nodes, degree = _full_set(frame, f.nodes), _embedding_degree(frame, degree)
    ports = type2_ports(f.signature, nodes, f.ctrl)
    link = f.link
    # The type-2 rule never counts more ports than the widest control has.
    if len(ports) != len(f.ports):
        _require_linked_ports_kept(f, ports)
        link = FuzzyRelation._trusted(frame, f.inner | ports, link.codomain, link.entry_dict())
    edges = _full_set(frame, f.edges)
    return Type2FuzzyLinkGraph._trusted(
        frame, f.signature, f.inner, f.outer, nodes, edges, f.ctrl, link, ports, degree
    )


def _require_linked_ports_kept(f: FuzzyLinkGraph, ports: frozenset) -> None:
    """Every port ``f`` links is among the type-2 ``ports``; the first one in
    entry order that is not names its node and the node's controls."""
    for (point, _target), _degree in f.link.items():
        if isinstance(point, tuple) and point not in ports:
            v = point[0]
            row = sorted((k, d) for (u, k), d in f.ctrl.items() if u == v)
            degrees = ", ".join(f"{k} at {f.frame.format_degree(d)}" for k, d in row)
            kept = sum(1 for port in ports if port[0] == v)
            raise ValueError(
                f"cannot embed node {v!r} with controls {degrees}: the type-2 "
                f"port rule gives it the {kept} port(s) of its control at the join "
                f"of those degrees, but its port {point!r} is linked"
            )


def embed_bigraph(
    f: FuzzyBigraph,
    place_degree: FrameValue | None = None,
    link_degree: FrameValue | None = None,
) -> Type2FuzzyBigraph:
    """Embed a fuzzy bigraph with full memberships and the given degrees.

    The embedded link part derives its ports by the type-2 join-attaining
    rule.  A node holding several positive controls keeps only the ports of
    the one at the join of their degrees, so if its widest control is not
    that one and one of the ports it loses is linked, the embedding raises
    ``ValueError`` naming the node.
    """
    return Type2FuzzyBigraph._trusted(
        embed_place(f.place, place_degree), embed_link(f.link, link_degree)
    )


# --- composition ----------------------------------------------------------------


def _below(kappa: FrameValue, fset: FuzzySet) -> set:
    """Elements of ``fset`` whose membership falls below ``kappa``."""
    return {x for x, d in fset.items() if not kappa.leq(d)}


def compose_type2_place(
    g: Type2FuzzyPlaceGraph, f: Type2FuzzyPlaceGraph
) -> Type2FuzzyPlaceGraph:
    """Threshold-guarded composite of type-2 fuzzy place graphs.

    With ``kappa`` the meet of the interface degrees: f-internal entries
    need the child's membership and the entry's degree at or above kappa;
    routed entries need the child's membership and both legs at or above
    kappa; g-internal entries need only the child's membership (the
    defining case places no degree threshold there).
    """
    _require_place_composable(g, f, f.node_support, g.node_support)
    frame = f.frame
    kappa = f.degree.meet(g.degree)
    nodes = f.nodes.union(g.nodes)
    entries = _route(
        f.prnt,
        g.prnt,
        f.node_support,
        g.node_support,
        kappa,
        _below(kappa, f.nodes),
        _below(kappa, g.nodes),
    )
    prnt = FuzzyRelation._trusted(
        frame, *_prnt_domain(f.inner, g.outer, nodes.support), entries
    )
    return Type2FuzzyPlaceGraph._trusted(
        frame, f.signature, f.inner, g.outer, nodes, f.ctrl.union(g.ctrl), prnt, kappa
    )


def compose_type2_link(
    g: Type2FuzzyLinkGraph, f: Type2FuzzyLinkGraph
) -> Type2FuzzyLinkGraph:
    """Threshold-guarded composite of type-2 fuzzy link graphs.

    f-internal entries and both legs of routed entries need their degree
    at or above kappa; g-internal entries are copied unguarded, and no
    entry is guarded by membership.
    """
    _require_link_composable(
        g,
        f,
        f.node_support | f.edge_support,
        g.node_support | g.edge_support,
        f.edge_support,
    )
    frame = f.frame
    kappa = f.degree.meet(g.degree)
    edges = f.edges.union(g.edges)
    # A node's ports follow from its own control row and membership, and
    # the node sets are disjoint, so the composite's ports are f's and g's.
    ports = f.ports | g.ports
    entries = _route(f.link, g.link, f.edge_support, g.ports, kappa, (), ())
    link = FuzzyRelation._trusted(frame, f.inner | ports, edges.support | g.outer, entries)
    return Type2FuzzyLinkGraph._trusted(
        frame,
        f.signature,
        f.inner,
        g.outer,
        f.nodes.union(g.nodes),
        edges,
        f.ctrl.union(g.ctrl),
        link,
        ports,
        kappa,
    )


def compose_type2(g: Type2FuzzyBigraph, f: Type2FuzzyBigraph) -> Type2FuzzyBigraph:
    """Pairwise composite; the result's degree is the meet of the inputs'."""
    _require_bigraph_composable(
        g,
        f,
        f.nodes.support | f.link.edge_support,
        g.nodes.support | g.link.edge_support,
    )
    return Type2FuzzyBigraph._trusted(
        compose_type2_place(g.place, f.place),
        compose_type2_link(g.link, f.link),
    )


def identity_type2_bigraph(
    interface: Interface, frame: Frame, signature: Signature
) -> Type2FuzzyBigraph:
    """The type-2 identity: the fuzzy identity with plausibility degree top."""
    return embed_bigraph(identity_bigraph(interface, frame, signature))


# --- support translation and equivalence ----------------------------------------


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


def make_type2_translation(
    f: Type2FuzzyBigraph, g: Type2FuzzyBigraph
) -> tuple[FuzzyRelation, FuzzyRelation]:
    """The canonical type-2 translation relations from f to g.

    Following the published constraint, the relations depend only on the
    target's memberships: every pair (x, x') holds the membership of x'.
    """

    def canonical(a: FuzzySet, b: FuzzySet) -> FuzzyRelation:
        entries = {(x, y): d for x in a.support for y, d in b.items()}
        return FuzzyRelation(f.frame, a.support, b.support, entries)

    return canonical(f.nodes, g.nodes), canonical(f.edges, g.edges)


def _support_structure(b: Type2FuzzyBigraph, codes: dict):
    """``b`` as a vertex-coloured, arc-labelled digraph, for the
    equivalence search.

    Vertices are tagged by sort, so an inner name never meets a node of the
    same spelling: ``("node", v)`` and ``("edge", e)`` are seeded with their
    membership (and, for a node, its control row), while the interface
    elements ``("site", i)``, ``("root", j)``, ``("inner", x)`` and
    ``("outer", y)`` keep one fixed colour each.  Every parent and link entry
    is an arc labelled by its degree (and a port's index).  Seeds and labels
    are numbered through ``codes``, which both graphs share, so refinement
    compares small integers only.  Returns the seed colours, keyed in
    sorted vertex order, and per vertex a table from each neighbour to the
    codes of the arcs between them; a code is twice the label's number,
    plus one on the outgoing side.
    """
    rows: dict = {}
    for (v, control), degree in b.ctrl.items():
        rows.setdefault(v, set()).add((control, degree))
    seed = {("node", v): ("node", d, frozenset(rows.get(v, ()))) for v, d in b.nodes.items()}
    seed.update((("edge", e), ("edge", d)) for e, d in b.edges.items())
    for sort, elements in (
        ("site", range(b.place.inner)),
        ("root", range(b.place.outer)),
        ("inner", b.link.inner),
        ("outer", b.link.outer),
    ):
        seed.update(((sort, x), (sort, x)) for x in elements)
    colours = {v: codes.setdefault(seed[v], len(codes)) for v in sorted(seed)}
    adjacency: dict = {v: {} for v in colours}

    def arc(source, target, label):
        code = 2 * codes.setdefault(label, len(codes))
        adjacency[source].setdefault(target, set()).add(code + 1)
        adjacency[target].setdefault(source, set()).add(code)

    for (child, parent), d in b.place.prnt.items():
        arc(
            ("node", child) if isinstance(child, str) else ("site", child),
            ("node", parent) if isinstance(parent, str) else ("root", parent),
            ("prnt", d),
        )
    edges = b.edges.support
    for (point, target), d in b.link.link.items():
        if isinstance(point, tuple):
            source, index = ("node", point[0]), point[1]
        else:
            source, index = ("inner", point), None
        arc(source, ("edge" if target in edges else "outer", target), ("link", index, d))
    return colours, adjacency


def _refined_colours(f: Type2FuzzyBigraph, g: Type2FuzzyBigraph):
    """Colour refinement of f and g against one shared palette.

    Each round a vertex's new colour is its old one together with the
    multiset of (arc code, neighbour colour) over its arcs; rounds stop when
    the number of colours stops growing.  Returns both colourings and both
    adjacency tables, or ``None`` as soon as f and g hold different numbers
    of vertices of some colour.
    """
    codes: dict = {}
    (f_col, f_adj), (g_col, g_adj) = _support_structure(f, codes), _support_structure(g, codes)
    count = -1
    while True:
        histogram = Counter(f_col.values())
        if histogram != Counter(g_col.values()):
            return None
        if len(histogram) in (count, len(f_col)):
            return f_col, g_col, f_adj, g_adj
        count = len(histogram)
        palette: dict = {}
        f_col, g_col = (
            {
                v: palette.setdefault((c, _arc_colours(adj[v], col)), len(palette))
                for v, c in col.items()
            }
            for col, adj in ((f_col, f_adj), (g_col, g_adj))
        )


def _arc_colours(table: dict, colours: dict) -> tuple:
    """The multiset of (arc code, neighbour colour) of one vertex, sorted."""
    return tuple(sorted([(code, colours[w]) for w, codes in table.items() for code in codes]))


def _search_order(colours: dict, adjacency: dict, cells: dict) -> list:
    """f's vertices in the order the search maps them: the smallest colour
    class first, among the vertices next to one already placed if there
    are any, so that each new pair meets a mapped neighbour early."""

    def rank(v):
        return (len(cells[colours[v]]), colours[v], v)

    order: list = []
    placed: set = set()
    rest = iter(sorted(colours, key=rank))
    frontier: list = []
    while len(order) < len(colours):
        v = heappop(frontier)[1] if frontier else next(rest)
        if v in placed:
            continue
        placed.add(v)
        order.append(v)
        for w in adjacency[v]:
            if w not in placed:
                heappush(frontier, (rank(w), w))
    return order


def find_support_equivalence(
    f: Type2FuzzyBigraph, g: Type2FuzzyBigraph
) -> SupportTranslation | None:
    """Search for a bijective renaming under which g is exactly the image of f.

    Colour refinement (:func:`_refined_colours`) first splits nodes and
    edges into classes that any such renaming must preserve; if f and g
    disagree on the size of a class, there is none.  Backtracking then
    maps f's elements (smallest class first, preferring those next to an
    element already mapped) to g's elements of the same colour in sorted
    order, checking each new pair's parent and link entries against the
    pairs already made.  A complete map is returned only if
    ``translate_type2`` takes f to g under it.  The witness is the first
    map in this search order to pass that check, so it does not depend on
    the hash seed.  Returns ``None`` when no renaming exists.
    """
    if (f.frame, f.signature, f.inner, f.outer, f.place.degree, f.link.degree) != (
        g.frame, g.signature, g.inner, g.outer, g.place.degree, g.link.degree
    ):
        return None
    refined = _refined_colours(f, g)
    if refined is None:
        return None
    f_col, g_col, f_adj, g_adj = refined
    cells: dict = {}
    for w, c in g_col.items():
        cells.setdefault(c, []).append(w)
    order = _search_order(f_col, f_adj, cells)
    phi: dict = {}
    used: set = set()

    def consistent(v, w) -> bool:
        # every arc between v and a mapped vertex has its image at w, and
        # w has no arc to a mapped vertex beyond those images
        w_adj = g_adj[w]
        matched = 0
        for other, arcs in f_adj[v].items():
            image = phi.get(other)
            if image is not None:
                if w_adj.get(image) != arcs:
                    return False
                matched += 1
        return matched == sum(1 for other in w_adj if other in used)

    picks = [0] * len(order)
    depth = 0
    while depth >= 0:
        if depth == len(order):
            maps = {"node": {}, "edge": {}}
            for (sort, v), (_sort, w) in phi.items():
                if sort in maps:
                    maps[sort][v] = w
            rho = SupportTranslation(maps["node"], maps["edge"])
            if translate_type2(f, rho) == g:
                return rho
            depth -= 1
            continue
        v = order[depth]
        if v in phi:
            used.discard(phi.pop(v))
        candidates = cells[f_col[v]]
        i = picks[depth]
        while i < len(candidates):
            w = candidates[i]
            i += 1
            if w in used:
                continue
            phi[v] = w
            used.add(w)
            if consistent(v, w):
                break
            del phi[v]
            used.discard(w)
        else:
            picks[depth] = 0
            depth -= 1
            continue
        picks[depth] = i
        depth += 1
    return None


@dataclass
class Type2TranslationReport(TranslationReport):
    """Type-2 checker outcome; adds the support-equivalence verdict."""

    support_equivalent: bool = False
    witness: SupportTranslation | None = None

    def __str__(self) -> str:
        base = TranslationReport.__str__(self)
        mark = "yes" if self.support_equivalent else "no"
        return base + f"\n  support equivalent: {mark}"


def check_type2_support_translation(
    rho_nodes: FuzzyRelation,
    rho_edges: FuzzyRelation,
    f: Type2FuzzyBigraph,
    g: Type2FuzzyBigraph,
) -> Type2TranslationReport:
    """Check the type-2 support-translation constraints from f to g.

    The membership constraints and both inequalities are evaluated exactly
    as displayed, with the link inequality normalised to act on ports and
    links.  Support equivalence is reported when some bijective renaming of
    f reproduces g degree for degree.
    """
    if f.inner != g.inner or f.outer != g.outer:
        raise InterfaceMismatchError(
            f"interface mismatch: {f.inner}->{f.outer} vs {g.inner}->{g.outer}"
        )
    frame = f.frame
    for rel, dom, cod, what in (
        (rho_nodes, f.nodes.support, g.nodes.support, "node relation"),
        (rho_edges, f.link.edge_support, g.link.edge_support, "edge relation"),
    ):
        if not isinstance(rel, FuzzyRelation) or rel.frame != frame:
            raise ValueError(f"{what} is not a fuzzy relation over {frame.name}")
        for (a, b), _d in rel.items():
            if a not in dom or b not in cod:
                raise ValueError(f"{what} entry ({a!r}, {b!r}) is off-carrier")

    checks: list[TranslationCheck] = []

    for what, rel, a, b in (
        ("node", rho_nodes, f.nodes, g.nodes),
        ("edge", rho_edges, f.edges, g.edges),
    ):
        bad = [
            (x, y)
            for x in sorted(a.support)
            for y in sorted(b.support)
            if rel.degree(x, y) != b.membership(y)
        ]
        checks.append(
            TranslationCheck(
                f"{what} relation matches target memberships",
                not bad,
                "" if not bad else f"first mismatch at {bad[0]}",
            )
        )

    # control preservation: g's controls pulled along the node relation stay
    # below f's.
    pulled = rho_nodes.then(g.ctrl)
    ok_ctrl = pulled.leq(f.ctrl)
    checks.append(
        TranslationCheck(
            "control preservation",
            ok_ctrl,
            "" if ok_ctrl else "pulled-back control degrees exceed f's",
        )
    )

    # induced port relation: index-matched port pairs inherit the node degree.
    f_ports = f.link.ports
    g_ports = g.link.ports
    port_entries = {}
    for (v, i) in f_ports:
        for (w, j) in g_ports:
            if i == j:
                d = rho_nodes.degree(v, w)
                if not d.is_bottom():
                    port_entries[((v, i), (w, j))] = d
    rho_ports = FuzzyRelation(frame, f_ports, g_ports, port_entries)
    ok_ports = all(
        rho_nodes.degree(v, w).leq(rho_ports.degree((v, i), (w, i)))
        for (v, i) in f_ports
        for (w, j) in g_ports
        if i == j
    )
    checks.append(
        TranslationCheck(
            "port relation bound",
            ok_ports,
            "" if ok_ports else "a port pair falls below its node degree",
        )
    )

    lhs, rhs = _translated_sides(
        f.place.prnt, g.place.prnt, rho_nodes, rho_nodes, range(f.place.inner),
        range(f.place.outer),
    )
    ok_prnt = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            "parent inequality",
            ok_prnt,
            "" if ok_prnt else "translated parent degrees exceed the bound",
        )
    )

    lhs, rhs = _translated_sides(
        f.link.link, g.link.link, rho_ports, rho_edges, f.link.inner, f.link.outer
    )
    ok_link = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            "link inequality",
            ok_link,
            "" if ok_link else "translated link degrees exceed the bound",
        )
    )

    witness = find_support_equivalence(f, g)
    return Type2TranslationReport(
        checks, support_equivalent=witness is not None, witness=witness
    )


# --- validation -------------------------------------------------------------------


def validate_type2_place(
    p: Type2FuzzyPlaceGraph, subject: str = "type-2 place graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    if not skeleton_is_acyclic(p.prnt, p.node_support):
        report.add("the positive part of the parent relation has a cycle")
    return report


def validate_type2_link(
    l: Type2FuzzyLinkGraph, subject: str = "type-2 link graph"
) -> ValidationReport:
    # structural containment is enforced at construction; nothing graded to add
    return ValidationReport(subject)


def validate_type2_bigraph(
    b: Type2FuzzyBigraph, subject: str = "type-2 bigraph"
) -> ValidationReport:
    report = ValidationReport(subject)
    report.extend(validate_type2_place(b.place), prefix="place: ")
    report.extend(validate_type2_link(b.link), prefix="link: ")
    return report
