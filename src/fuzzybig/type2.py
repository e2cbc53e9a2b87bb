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

from .crisp import Interface, Port, Signature
from .errors import (
    InterfaceMismatchError,
    NameClashError,
    SignatureMismatchError,
    SupportOverlapError,
    ValidationReport,
)
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    TranslationCheck,
    TranslationReport,
    _as_relation,
    _prnt_domain,
    skeleton_is_acyclic,
)
from .lattice import Frame, FrameValue
from .relations import FuzzyRelation, FuzzySet, identity_relation


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
        shared = nodes.support & edges.support
        if shared:
            raise ValueError(f"node and edge identifiers overlap: {sorted(shared)}")
        shared = edges.support & self.outer
        if shared:
            raise ValueError(
                f"edge identifiers collide with outer names: {sorted(shared)}"
            )
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


def _require_compatible(g, f) -> None:
    if f.frame != g.frame:
        raise SignatureMismatchError(f"frames differ: {f.frame.name} vs {g.frame.name}")
    if f.signature != g.signature:
        raise SignatureMismatchError("signatures differ")


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
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            f"place interface mismatch: expected inner width {f.outer}, got {g.inner}"
        )
    shared = f.node_support & g.node_support
    if shared:
        raise SupportOverlapError(f"supports overlap on nodes {sorted(shared)}")
    frame = f.frame
    kappa = f.degree.meet(g.degree)
    top = frame.top

    def memb_f(w):
        return top if isinstance(w, int) else f.nodes.membership(w)

    entries: dict = {}
    g_rows: dict[int, list] = {}
    for (child, parent), degree in g.prnt.items():
        if isinstance(child, int):
            g_rows.setdefault(child, []).append((parent, degree))

    for (child, parent), degree in f.prnt.items():
        if not kappa.leq(memb_f(child)):
            continue
        if parent in f.node_support:
            if kappa.leq(degree):
                entries[(child, parent)] = degree
        else:  # parent is a root j of f: route through site j of g
            if not kappa.leq(degree):
                continue
            for target, leg in g_rows.get(parent, ()):
                if not kappa.leq(leg):
                    continue
                routed = degree.meet(leg)
                if routed is not degree and routed is not leg and routed.is_bottom():
                    continue  # two positive legs meet at bottom only off a chain
                prev = entries.get((child, target))
                entries[(child, target)] = routed if prev is None else prev.join(routed)

    for (child, parent), degree in g.prnt.items():
        if child in g.node_support and kappa.leq(g.nodes.membership(child)):
            entries[(child, parent)] = degree

    nodes = f.nodes.union(g.nodes)
    prnt = FuzzyRelation._trusted(
        frame, *_prnt_domain(f.inner, g.outer, nodes.support), entries
    )
    return Type2FuzzyPlaceGraph(
        frame, f.signature, f.inner, g.outer, nodes, f.ctrl.union(g.ctrl), prnt, kappa
    )


def compose_type2_link(
    g: Type2FuzzyLinkGraph, f: Type2FuzzyLinkGraph
) -> Type2FuzzyLinkGraph:
    """Threshold-guarded composite of type-2 fuzzy link graphs."""
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            "link interface mismatch: expected inner names "
            f"{{{','.join(sorted(f.outer))}}}, got {{{','.join(sorted(g.inner))}}}"
        )
    f_support = f.node_support | f.edge_support
    g_support = g.node_support | g.edge_support
    shared = f_support & g_support
    if shared:
        raise SupportOverlapError(f"supports overlap on {sorted(shared)}")
    clash = f.edge_support & g.outer
    if clash:
        raise NameClashError(
            f"edge identifiers collide with outer names: {sorted(clash)}"
        )
    frame = f.frame
    kappa = f.degree.meet(g.degree)

    entries: dict = {}
    g_rows: dict[str, list] = {}
    for (point, target), degree in g.link.items():
        if isinstance(point, str):
            g_rows.setdefault(point, []).append((target, degree))

    for (point, target), degree in f.link.items():
        if target in f.edge_support:
            if kappa.leq(degree):
                entries[(point, target)] = degree
        else:  # target is an outer name of f: route into g
            if not kappa.leq(degree):
                continue
            for link_target, leg in g_rows.get(target, ()):
                if not kappa.leq(leg):
                    continue
                routed = degree.meet(leg)
                if routed is not degree and routed is not leg and routed.is_bottom():
                    continue  # two positive legs meet at bottom only off a chain
                prev = entries.get((point, link_target))
                entries[(point, link_target)] = (
                    routed if prev is None else prev.join(routed)
                )

    for (point, target), degree in g.link.items():
        if point in g.ports:
            entries[(point, target)] = degree

    edges = f.edges.union(g.edges)
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
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            f"interface mismatch: expected {f.outer}, got {g.inner}"
        )
    f_support = f.nodes.support | f.link.edge_support
    g_support = g.nodes.support | g.link.edge_support
    shared = f_support & g_support
    if shared:
        raise SupportOverlapError(f"supports overlap on {sorted(shared)}")
    return Type2FuzzyBigraph(
        compose_type2_place(g.place, f.place),
        compose_type2_link(g.link, f.link),
    )


def identity_type2_place(width: int, frame: Frame, signature: Signature) -> Type2FuzzyPlaceGraph:
    return Type2FuzzyPlaceGraph(
        frame,
        signature,
        width,
        width,
        FuzzySet(frame),
        {},
        identity_relation(frame, range(width)),
        frame.top,
    )


def identity_type2_link(names, frame: Frame, signature: Signature) -> Type2FuzzyLinkGraph:
    names = frozenset(names)
    return Type2FuzzyLinkGraph(
        frame,
        signature,
        names,
        names,
        FuzzySet(frame),
        FuzzySet(frame),
        {},
        identity_relation(frame, names),
        frame.top,
    )


def identity_type2_bigraph(
    interface: Interface, frame: Frame, signature: Signature
) -> Type2FuzzyBigraph:
    """The type-2 identity: the fuzzy identity with plausibility degree top."""
    return Type2FuzzyBigraph(
        identity_type2_place(interface.width, frame, signature),
        identity_type2_link(interface.names, frame, signature),
    )


# --- support translation and equivalence ----------------------------------------


def translate_type2(f: Type2FuzzyBigraph, rho: SupportTranslation) -> Type2FuzzyBigraph:
    """Rename nodes and edges of a type-2 bigraph, copying every degree."""
    if set(rho.node_map) != set(f.nodes.support):
        raise ValueError("node renaming does not cover exactly the node support")
    if set(rho.edge_map) != set(f.link.edge_support):
        raise ValueError("edge renaming does not cover exactly the edge support")
    nm = rho.node_map

    def place_elem(e):
        return nm[e] if isinstance(e, str) else e

    place = Type2FuzzyPlaceGraph(
        f.frame,
        f.signature,
        f.place.inner,
        f.place.outer,
        f.nodes.translate(nm),
        {(nm[v], k): d for (v, k), d in f.ctrl.items()},
        {(place_elem(c), place_elem(p)): d for (c, p), d in f.place.prnt.items()},
        f.place.degree,
    )

    def point_elem(q):
        return (nm[q[0]], q[1]) if isinstance(q, tuple) else q

    def target_elem(t):
        return rho.edge_map[t] if t in f.link.edge_support else t

    link = Type2FuzzyLinkGraph(
        f.frame,
        f.signature,
        f.link.inner,
        f.link.outer,
        f.nodes.translate(nm),
        f.edges.translate(rho.edge_map),
        {(nm[v], k): d for (v, k), d in f.ctrl.items()},
        {(point_elem(q), target_elem(t)): d for (q, t), d in f.link.link.items()},
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
    frame = f.frame
    node_rel = FuzzyRelation(
        frame,
        f.nodes.support,
        g.nodes.support,
        {
            (v, w): g.nodes.membership(w)
            for v in f.nodes.support
            for w in g.nodes.support
        },
    )
    edge_rel = FuzzyRelation(
        frame,
        f.link.edge_support,
        g.link.edge_support,
        {
            (e, d): g.edges.membership(d)
            for e in f.link.edge_support
            for d in g.link.edge_support
        },
    )
    return node_rel, edge_rel


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
    *,
    literal_link_inequality: bool = False,
) -> Type2TranslationReport:
    """Check the type-2 support-translation constraints from f to g.

    The membership constraints and both inequalities are evaluated exactly
    as displayed (the link inequality is normalised to act on ports and
    links unless ``literal_link_inequality`` asks for the published form,
    which reuses the node relation and the parent relation).  Support
    equivalence is reported when some bijective renaming of f reproduces g
    degree for degree.
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

    bad = [
        (v, w)
        for v in sorted(f.nodes.support)
        for w in sorted(g.nodes.support)
        if rho_nodes.degree(v, w) != g.nodes.membership(w)
    ]
    checks.append(
        TranslationCheck(
            "node relation matches target memberships",
            not bad,
            "" if not bad else f"first mismatch at {bad[0]}",
        )
    )
    bad = [
        (e, d)
        for e in sorted(f.link.edge_support)
        for d in sorted(g.link.edge_support)
        if rho_edges.degree(e, d) != g.edges.membership(d)
    ]
    checks.append(
        TranslationCheck(
            "edge relation matches target memberships",
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

    id_sites = identity_relation(frame, range(f.place.inner))
    id_roots = identity_relation(frame, range(f.place.outer))
    lhs = id_sites.union(rho_nodes).then(g.place.prnt)
    rhs = f.place.prnt.then(rho_nodes.union(id_roots))
    ok_prnt = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            "parent inequality",
            ok_prnt,
            "" if ok_prnt else "translated parent degrees exceed the bound",
        )
    )

    id_inner = identity_relation(frame, f.link.inner)
    id_outer = identity_relation(frame, f.link.outer)
    if literal_link_inequality:
        lhs = id_inner.union(rho_nodes).then(g.link.link)
        rhs = f.place.prnt.then(rho_nodes.union(id_roots))
        label = "link inequality (literal form)"
    else:
        lhs = id_inner.union(rho_ports).then(g.link.link)
        rhs = f.link.link.then(rho_edges.union(id_outer))
        label = "link inequality"
    ok_link = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            label,
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
