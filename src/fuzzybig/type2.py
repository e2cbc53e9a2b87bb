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

from dataclasses import dataclass

from .crisp import Interface, Port, Signature, _element_renaming
from .errors import InterfaceMismatchError, ValidationReport
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    TranslationCheck,
    TranslationReport,
    _as_relation,
    _prnt_domain,
    _require_apart,
    _require_bigraph_composable,
    _require_link_composable,
    _require_place_composable,
    _translated_sides,
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


class Type2FuzzyPlaceGraph:
    """A fuzzy place graph whose node set is itself fuzzy, with an
    interface plausibility degree."""

    __slots__ = ("frame", "signature", "inner", "outer", "nodes", "ctrl", "prnt", "degree")

    def __init__(self, frame, signature, inner, outer, nodes: FuzzySet, ctrl, prnt, degree):
        self.frame = frame
        self.signature = signature
        self.inner = int(inner)
        self.outer = int(outer)
        if self.inner < 0 or self.outer < 0:
            raise ValueError("interface widths must be natural numbers")
        if not isinstance(nodes, FuzzySet) or nodes.frame != frame:
            raise TypeError("nodes must be a FuzzySet over the same frame")
        frame.check_value(degree)
        self.nodes = nodes
        self.degree = degree
        self.ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        self.prnt = _as_relation(
            frame, prnt, *_prnt_domain(self.inner, self.outer, nodes.support)
        )

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Type2FuzzyPlaceGraph)
            and self.frame == other.frame
            and self.signature == other.signature
            and (self.inner, self.outer) == (other.inner, other.outer)
            and self.nodes == other.nodes
            and self.ctrl == other.ctrl
            and self.prnt == other.prnt
            and self.degree == other.degree
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyPlaceGraph({self.inner}->{self.outer}, "
            f"{len(self.node_support)} nodes, degree "
            f"{self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyLinkGraph:
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
        self.frame = frame
        self.signature = signature
        self.inner = frozenset(inner)
        self.outer = frozenset(outer)
        if not isinstance(nodes, FuzzySet) or nodes.frame != frame:
            raise TypeError("nodes must be a FuzzySet over the same frame")
        if not isinstance(edges, FuzzySet) or edges.frame != frame:
            raise TypeError("edges must be a FuzzySet over the same frame")
        frame.check_value(degree)
        self.nodes = nodes
        self.edges = edges
        self.degree = degree
        _require_apart(nodes.support, edges.support, self.outer)
        self.ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        self.ports = type2_ports(signature, nodes, self.ctrl)
        self.link = _as_relation(
            frame, link, self.inner | self.ports, edges.support | self.outer
        )

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    @property
    def edge_support(self) -> frozenset[str]:
        return self.edges.support

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Type2FuzzyLinkGraph)
            and self.frame == other.frame
            and self.signature == other.signature
            and self.inner == other.inner
            and self.outer == other.outer
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.ctrl == other.ctrl
            and self.link == other.link
            and self.degree == other.degree
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyLinkGraph({sorted(self.inner)}->{sorted(self.outer)}, "
            f"degree {self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyBigraph:
    """Type-2 place and link parts sharing nodes and controls.

    The bigraph's plausibility degree is the meet of its parts' degrees.
    """

    __slots__ = ("place", "link")

    def __init__(self, place: Type2FuzzyPlaceGraph, link: Type2FuzzyLinkGraph):
        if place.frame != link.frame:
            raise ValueError("place and link parts use different frames")
        if place.signature != link.signature:
            raise ValueError("place and link parts use different signatures")
        if place.nodes != link.nodes:
            raise ValueError("place and link parts disagree on the fuzzy node set")
        if place.ctrl != link.ctrl:
            raise ValueError("place and link parts disagree on the control relation")
        self.place = place
        self.link = link

    @property
    def frame(self) -> Frame:
        return self.place.frame

    @property
    def signature(self) -> Signature:
        return self.place.signature

    @property
    def nodes(self) -> FuzzySet:
        return self.place.nodes

    @property
    def edges(self) -> FuzzySet:
        return self.link.edges

    @property
    def ctrl(self) -> FuzzyRelation:
        return self.place.ctrl

    @property
    def degree(self) -> FrameValue:
        """The interface plausibility degree: meet of the parts' degrees."""
        return self.place.degree.meet(self.link.degree)

    @property
    def inner(self) -> Interface:
        return Interface(self.place.inner, self.link.inner)

    @property
    def outer(self) -> Interface:
        return Interface(self.place.outer, self.link.outer)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Type2FuzzyBigraph)
            and self.place == other.place
            and self.link == other.link
        )

    __hash__ = None  # type: ignore[assignment]

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


def embed_place(f: FuzzyPlaceGraph, degree: FrameValue | None = None) -> Type2FuzzyPlaceGraph:
    top = f.frame.top
    return Type2FuzzyPlaceGraph(
        f.frame,
        f.signature,
        f.inner,
        f.outer,
        FuzzySet(f.frame, {v: top for v in f.nodes}),
        f.ctrl,
        f.prnt,
        degree if degree is not None else top,
    )


def embed_link(f: FuzzyLinkGraph, degree: FrameValue | None = None) -> Type2FuzzyLinkGraph:
    top = f.frame.top
    return Type2FuzzyLinkGraph(
        f.frame,
        f.signature,
        f.inner,
        f.outer,
        FuzzySet(f.frame, {v: top for v in f.nodes}),
        FuzzySet(f.frame, {e: top for e in f.edges}),
        f.ctrl,
        f.link,
        degree if degree is not None else top,
    )


def embed_bigraph(
    f: FuzzyBigraph,
    place_degree: FrameValue | None = None,
    link_degree: FrameValue | None = None,
) -> Type2FuzzyBigraph:
    """Embed a fuzzy bigraph with full memberships and the given degrees.

    Note: the embedded link part derives its ports by the type-2
    join-attaining rule, so nodes holding several positive controls should
    have their widest control on top for the embedding to preserve ports.
    """
    return Type2FuzzyBigraph(
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
    return Type2FuzzyPlaceGraph(
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
    entries = _route(f.link, g.link, f.edge_support, g.ports, kappa, (), ())
    # The composite's ports are f's and g's: their node sets are disjoint.
    link = FuzzyRelation._trusted(
        frame, f.inner | f.ports | g.ports, edges.support | g.outer, entries
    )
    return Type2FuzzyLinkGraph(
        frame,
        f.signature,
        f.inner,
        g.outer,
        f.nodes.union(g.nodes),
        edges,
        f.ctrl.union(g.ctrl),
        link,
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
    return Type2FuzzyBigraph(
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


def find_support_equivalence(
    f: Type2FuzzyBigraph, g: Type2FuzzyBigraph
) -> SupportTranslation | None:
    """Search for a bijective renaming under which g is exactly the image of f.

    Nodes (and edges) are grouped by membership degree and only
    degree-compatible pairings are tried; the first renaming (in sorted
    order) whose translate reproduces g is returned.
    """
    from itertools import permutations

    if f.inner != g.inner or f.outer != g.outer:
        return None

    def groups(a: FuzzySet, b: FuzzySet):
        by_degree_a: dict = {}
        by_degree_b: dict = {}
        for x, d in a.items():
            by_degree_a.setdefault(d, []).append(x)
        for x, d in b.items():
            by_degree_b.setdefault(d, []).append(x)
        if set(by_degree_a) != set(by_degree_b):
            return None
        out = []
        for d in by_degree_a:
            xs, ys = sorted(by_degree_a[d]), sorted(by_degree_b[d])
            if len(xs) != len(ys):
                return None
            out.append((xs, ys))
        return out

    node_groups = groups(f.nodes, g.nodes)
    edge_groups = groups(f.edges, g.edges)
    if node_groups is None or edge_groups is None:
        return None

    def pairings(group_list):
        if not group_list:
            yield {}
            return
        (xs, ys), rest = group_list[0], group_list[1:]
        for tail in pairings(rest):
            for perm in permutations(ys):
                table = dict(tail)
                table.update(zip(xs, perm))
                yield table

    for node_map in pairings(node_groups):
        for edge_map in pairings(edge_groups):
            rho = SupportTranslation(node_map, edge_map)
            try:
                if translate_type2(f, rho) == g:
                    return rho
            except ValueError:
                continue
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
