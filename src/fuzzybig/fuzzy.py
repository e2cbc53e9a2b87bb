"""Fuzzy bigraphs over a frame of degrees.

The control, parent and link maps of a crisp bigraph become fuzzy
relations: every pair carries a degree in the ambient frame, and absent
pairs sit at bottom.  Composition routes degrees through the shared
interface with the sup-min rule (join over middle positions of the meet of
the two legs), which is exactly what makes composition associative, and
tensor product shifts sites and roots of the right operand.

Crisp bigraphs embed at degree top (:func:`fuzzify`) and come back out of
relations that are functional at top (:func:`defuzzify`); composing over
the two-point frame therefore reproduces the crisp algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .crisp import (
    Bigraph,
    Interface,
    LinkGraph,
    PlaceGraph,
    Port,
    Signature,
    _element_renaming,
    _freeze_ids,
)
from .errors import (
    InterfaceMismatchError,
    NameClashError,
    NotCrispError,
    SignatureMismatchError,
    SupportOverlapError,
    ValidationReport,
)
from .lattice import TWO_POINT, Frame
from .relations import FuzzyRelation, _outside, _route, identity_relation


def derive_ports(signature: Signature, ctrl: FuzzyRelation) -> frozenset[Port]:
    """Ports owned by each node: the union of the port ranges of every
    control the node holds with positive degree.

    With several positive controls the widest arity wins, so the port set
    is the smallest one safe for all positive possibilities.
    """
    widest: dict[str, int] = {}
    for (v, control), _degree in ctrl.items():
        ar = signature.arity_of(control)
        if ar > widest.get(v, -1):
            widest[v] = ar
    ports = set()
    for v, ar in widest.items():
        ports.update((v, i) for i in range(ar))
    return frozenset(ports)


def _as_relation(frame: Frame, entries, domain, codomain) -> FuzzyRelation:
    """The checked relation for a graph component.

    A relation already over this very frame and exactly this domain and
    codomain was checked when it was built and is returned unchanged.
    """
    if isinstance(entries, FuzzyRelation):
        if (
            entries.frame is frame
            and entries.domain == domain
            and entries.codomain == codomain
        ):
            return entries
        entries = entries.entry_dict()
    return FuzzyRelation(frame, domain, codomain, entries)


def _widths(inner, outer) -> tuple[int, int]:
    """A place graph's interface widths, as natural numbers."""
    inner, outer = int(inner), int(outer)
    if inner < 0 or outer < 0:
        raise ValueError("interface widths must be natural numbers")
    return inner, outer


def _prnt_domain(inner: int, outer: int, carrier: frozenset) -> tuple[frozenset, frozenset]:
    """Children (sites and nodes) and parents (nodes and roots) of a
    parent relation."""
    return frozenset(range(inner)) | carrier, carrier | frozenset(range(outer))


def _require_apart(nodes, edges, outer) -> None:
    """A link graph's edges share no identifier with its nodes or its outer
    names."""
    shared = nodes & edges
    if shared:
        raise ValueError(f"node and edge identifiers overlap: {sorted(shared)}")
    shared = edges & outer
    if shared:
        raise ValueError(f"edge identifiers collide with outer names: {sorted(shared)}")


class _Graph:
    """Fields and equality shared by the fuzzy and type-2 graph classes.

    A class's fields are the ``__slots__`` of its bases and then its own,
    listed in ``_fields``, and ``_store`` is the only code that sets them:
    ``__init__`` calls it once every check has passed, and ``_trusted``
    calls it for a composite assembled from operands that passed those
    checks already.  Two graphs are equal when every field is.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # ``_store`` takes the fields in ``_fields`` order.  It is generated
        # once per class, as plain attribute stores: a loop of ``setattr``
        # calls costs about ten times as much, and graphs are built on every
        # composition.  A class that adds no slot of its own still stores
        # and compares the fields of its bases.
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )
        fields = ", ".join(cls._fields)
        body = "".join(f"    self.{name} = {name}\n" for name in cls._fields)
        namespace: dict = {"__name__": cls.__module__}
        exec(f"def _store(self, {fields}):\n{body}", namespace)
        cls._store = namespace["_store"]
        cls._store.__qualname__ = f"{cls.__qualname__}._store"

    @classmethod
    def _trusted(cls, *fields):
        """A graph from fields, in ``_fields`` order, that already satisfy every
        check of ``__init__``; nothing is re-checked or re-derived."""
        graph = cls.__new__(cls)
        graph._store(*fields)
        return graph

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self)
            and all(getattr(self, n) == getattr(other, n) for n in self._fields)
        )

    __hash__ = None  # type: ignore[assignment]


class FuzzyPlaceGraph(_Graph):
    """A fuzzy forest: ``ctrl`` grades node/control pairs, ``prnt`` grades
    child/parent pairs over sites, nodes and roots."""

    __slots__ = ("frame", "signature", "inner", "outer", "nodes", "ctrl", "prnt")

    def __init__(self, frame, signature, inner, outer, nodes, ctrl, prnt):
        inner, outer = _widths(inner, outer)
        nodes = _freeze_ids(nodes, "node")
        ctrl = _as_relation(frame, ctrl, nodes, signature.controls)
        prnt = _as_relation(frame, prnt, *_prnt_domain(inner, outer, nodes))
        self._store(frame, signature, inner, outer, nodes, ctrl, prnt)

    def __repr__(self) -> str:
        return (
            f"FuzzyPlaceGraph({self.inner}->{self.outer}, "
            f"{len(self.nodes)} nodes, {self.frame.name})"
        )


class FuzzyLinkGraph(_Graph):
    """A fuzzy hypergraph: ``link`` grades point/link pairs, where points
    are inner names and ports, and links are edges and outer names."""

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
    )

    def __init__(self, frame, signature, inner, outer, nodes, edges, ctrl, link):
        inner = _freeze_ids(inner, "inner name")
        outer = _freeze_ids(outer, "outer name")
        nodes = _freeze_ids(nodes, "node")
        edges = _freeze_ids(edges, "edge")
        _require_apart(nodes, edges, outer)
        ctrl = _as_relation(frame, ctrl, nodes, signature.controls)
        ports = derive_ports(signature, ctrl)
        link = _as_relation(frame, link, inner | ports, edges | outer)
        self._store(frame, signature, inner, outer, nodes, edges, ctrl, link, ports)

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    def __repr__(self) -> str:
        return (
            f"FuzzyLinkGraph({sorted(self.inner)}->{sorted(self.outer)}, "
            f"{len(self.nodes)} nodes, {len(self.edges)} edges, {self.frame.name})"
        )


class _Bigraph(_Graph):
    """A place part and a link part sharing frame, signature, nodes and
    controls: the fields, checks and accessors of the graded bigraphs."""

    __slots__ = ("place", "link")

    @staticmethod
    def _require_agreement(place, link, node_set: str) -> None:
        if place.frame != link.frame:
            raise ValueError("place and link parts use different frames")
        if place.signature != link.signature:
            raise ValueError("place and link parts use different signatures")
        if place.nodes != link.nodes:
            raise ValueError(f"place and link parts disagree on the {node_set}")
        if place.ctrl != link.ctrl:
            raise ValueError("place and link parts disagree on the control relation")

    @property
    def frame(self) -> Frame:
        return self.place.frame

    @property
    def signature(self) -> Signature:
        return self.place.signature

    @property
    def nodes(self):
        return self.place.nodes

    @property
    def edges(self):
        return self.link.edges

    @property
    def ctrl(self) -> FuzzyRelation:
        return self.place.ctrl

    @property
    def inner(self) -> Interface:
        return Interface(self.place.inner, self.link.inner)

    @property
    def outer(self) -> Interface:
        return Interface(self.place.outer, self.link.outer)


class FuzzyBigraph(_Bigraph):
    """A fuzzy place graph and a fuzzy link graph sharing nodes and controls."""

    __slots__ = ()

    def __init__(self, place: FuzzyPlaceGraph, link: FuzzyLinkGraph):
        self._require_agreement(place, link, "node set")
        self._store(place, link)

    @property
    def prnt(self) -> FuzzyRelation:
        return self.place.prnt

    def __repr__(self) -> str:
        return f"FuzzyBigraph({self.inner}->{self.outer}, {self.frame.name})"


# --- shared precondition helpers ------------------------------------------


def _require_compatible(g, f) -> None:
    if f.frame != g.frame:
        raise SignatureMismatchError(
            f"frames differ: {f.frame.name} vs {g.frame.name}"
        )
    if f.signature != g.signature:
        raise SignatureMismatchError("signatures differ")


def _require_disjoint_nodes(f_nodes, g_nodes) -> None:
    shared = f_nodes & g_nodes
    if shared:
        raise SupportOverlapError(f"supports overlap on nodes {sorted(shared)}")


def _require_disjoint_support(f_sup, g_sup) -> None:
    shared = f_sup & g_sup
    if shared:
        raise SupportOverlapError(f"supports overlap on {sorted(shared)}")


def _require_place_composable(g, f, f_nodes, g_nodes) -> None:
    """Preconditions of ``g . f`` on place graphs of either fuzzy kind."""
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            f"place interface mismatch: expected inner width {f.outer}, got {g.inner}"
        )
    _require_disjoint_nodes(f_nodes, g_nodes)


def _require_link_composable(g, f, f_support, g_support, f_edges) -> None:
    """Preconditions of ``g . f`` on link graphs of either fuzzy kind."""
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            "link interface mismatch: expected inner names "
            f"{{{','.join(sorted(f.outer))}}}, got {{{','.join(sorted(g.inner))}}}"
        )
    _require_disjoint_support(f_support, g_support)
    clash = f_edges & g.outer
    if clash:
        raise NameClashError(
            f"edge identifiers collide with outer names: {sorted(clash)}"
        )


def _require_bigraph_composable(g, f, f_support, g_support) -> None:
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            f"interface mismatch: expected {f.outer}, got {g.inner}"
        )
    _require_disjoint_support(f_support, g_support)


# --- composition ------------------------------------------------------------


def compose_fuzzy_place(g: FuzzyPlaceGraph, f: FuzzyPlaceGraph) -> FuzzyPlaceGraph:
    """Composite ``g . f`` of fuzzy place graphs f: k->m and g: m->n.

    f-internal and g-internal parent entries are copied; a child of f whose
    parent mass sits on a root j of f is routed into g through site j, at
    the join over j of the meet of the two legs.
    """
    _require_place_composable(g, f, f.nodes, g.nodes)
    nodes = f.nodes | g.nodes
    entries = _route(f.prnt, g.prnt, f.nodes, g.nodes, f.frame.bottom, (), ())
    prnt = FuzzyRelation._trusted(f.frame, *_prnt_domain(f.inner, g.outer, nodes), entries)
    return FuzzyPlaceGraph._trusted(
        f.frame, f.signature, f.inner, g.outer, nodes, f.ctrl.union(g.ctrl), prnt
    )


def compose_fuzzy_link(g: FuzzyLinkGraph, f: FuzzyLinkGraph) -> FuzzyLinkGraph:
    """Composite ``g . f`` of fuzzy link graphs f: X->Y and g: Y->Z."""
    _require_link_composable(g, f, f.nodes | f.edges, g.nodes | g.edges, f.edges)
    edges = f.edges | g.edges
    # A node's ports follow from its own control row, and the node sets are
    # disjoint, so the composite's ports are f's and g's.
    ports = f.ports | g.ports
    entries = _route(f.link, g.link, f.edges, g.ports, f.frame.bottom, (), ())
    link = FuzzyRelation._trusted(f.frame, f.inner | ports, edges | g.outer, entries)
    return FuzzyLinkGraph._trusted(
        f.frame,
        f.signature,
        f.inner,
        g.outer,
        f.nodes | g.nodes,
        edges,
        f.ctrl.union(g.ctrl),
        link,
        ports,
    )


def compose_fuzzy(g: FuzzyBigraph, f: FuzzyBigraph) -> FuzzyBigraph:
    """Componentwise composite of fuzzy bigraphs f: I->J and g: J->K."""
    _require_bigraph_composable(g, f, f.nodes | f.edges, g.nodes | g.edges)
    return FuzzyBigraph._trusted(
        compose_fuzzy_place(g.place, f.place),
        compose_fuzzy_link(g.link, f.link),
    )


# --- tensor product ----------------------------------------------------------


def tensor_fuzzy_place(f: FuzzyPlaceGraph, g: FuzzyPlaceGraph) -> FuzzyPlaceGraph:
    """Tensor ``f ⊗ g``: widths add; g's sites shift by f's inner width and
    g's roots by f's outer width; node entries are unshifted."""
    _require_compatible(g, f)
    _require_disjoint_nodes(f.nodes, g.nodes)
    k, l = f.inner, f.outer
    entries = f.prnt.entry_dict()
    for (child, parent), degree in g.prnt.items():
        child2 = child + k if isinstance(child, int) else child
        parent2 = parent + l if isinstance(parent, int) else parent
        entries[(child2, parent2)] = degree
    inner, outer, nodes = k + g.inner, l + g.outer, f.nodes | g.nodes
    prnt = FuzzyRelation._trusted(f.frame, *_prnt_domain(inner, outer, nodes), entries)
    return FuzzyPlaceGraph._trusted(
        f.frame, f.signature, inner, outer, nodes, f.ctrl.union(g.ctrl), prnt
    )


def tensor_fuzzy_link(f: FuzzyLinkGraph, g: FuzzyLinkGraph) -> FuzzyLinkGraph:
    """Tensor ``f ⊗ g``: disjoint union of every component."""
    _require_compatible(g, f)
    _require_disjoint_support(f.nodes | f.edges, g.nodes | g.edges)
    clash = f.inner & g.inner
    if clash:
        raise NameClashError(f"inner names clash: {sorted(clash)}")
    clash = f.outer & g.outer
    if clash:
        raise NameClashError(f"outer names clash: {sorted(clash)}")
    clash = (f.edges & g.outer) | (g.edges & f.outer)
    if clash:
        raise NameClashError(
            f"edge identifiers collide with outer names: {sorted(clash)}"
        )
    return FuzzyLinkGraph._trusted(
        f.frame,
        f.signature,
        f.inner | g.inner,
        f.outer | g.outer,
        f.nodes | g.nodes,
        f.edges | g.edges,
        f.ctrl.union(g.ctrl),
        f.link.union(g.link),
        f.ports | g.ports,
    )


def tensor_fuzzy(f: FuzzyBigraph, g: FuzzyBigraph) -> FuzzyBigraph:
    """Tensor product of fuzzy bigraphs; its unit is the empty interface ⟨0,∅⟩."""
    return FuzzyBigraph._trusted(
        tensor_fuzzy_place(f.place, g.place),
        tensor_fuzzy_link(f.link, g.link),
    )


# --- identities --------------------------------------------------------------


# An identity holds no node and no control, and its relation is the
# diagonal at top, so only its width and its names are checked.


def _no_controls(frame: Frame, signature: Signature) -> FuzzyRelation:
    return FuzzyRelation._trusted(frame, frozenset(), signature.controls, {})


def identity_place(width: int, frame: Frame, signature: Signature) -> FuzzyPlaceGraph:
    ident = identity_relation(frame, range(width))
    width, _ = _widths(width, width)
    return FuzzyPlaceGraph._trusted(
        frame, signature, width, width, frozenset(), _no_controls(frame, signature), ident
    )


def identity_link(names, frame: Frame, signature: Signature) -> FuzzyLinkGraph:
    names = _freeze_ids(names, "inner name")
    ident = identity_relation(frame, names)
    ctrl, none = _no_controls(frame, signature), frozenset()
    return FuzzyLinkGraph._trusted(
        frame, signature, names, names, none, none, ctrl, ident, none
    )


def identity_bigraph(
    interface: Interface, frame: Frame, signature: Signature
) -> FuzzyBigraph:
    return FuzzyBigraph._trusted(
        identity_place(interface.width, frame, signature),
        identity_link(interface.names, frame, signature),
    )


# --- support and support translation ----------------------------------------


@dataclass(frozen=True)
class Support:
    """The identity-bearing sets of a graph: its nodes, and its edges."""

    nodes: frozenset[str]
    edges: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))


def support(g) -> Support:
    """Support of a fuzzy place graph (its nodes) or of a link graph or
    bigraph (nodes together with edges)."""
    if isinstance(g, FuzzyPlaceGraph):
        return Support(g.nodes)
    if isinstance(g, (FuzzyLinkGraph, FuzzyBigraph)):
        return Support(g.nodes, g.edges)
    raise TypeError(f"no support for {type(g).__name__}")


@dataclass(frozen=True, eq=False)
class SupportTranslation:
    """A pair of bijections renaming nodes and edges."""

    node_map: Mapping[str, str]
    edge_map: Mapping[str, str]

    def __post_init__(self):
        node_map = dict(self.node_map)
        edge_map = dict(self.edge_map)
        for name, table in (("node", node_map), ("edge", edge_map)):
            if len(set(table.values())) != len(table):
                raise ValueError(f"the {name} renaming is not a bijection")
        object.__setattr__(self, "node_map", node_map)
        object.__setattr__(self, "edge_map", edge_map)

    def port_image(self, port: Port) -> Port:
        return (self.node_map[port[0]], port[1])


def identity_translation(f: FuzzyBigraph) -> SupportTranslation:
    return SupportTranslation({v: v for v in f.nodes}, {e: e for e in f.edges})


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


@dataclass
class TranslationCheck:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


@dataclass
class TranslationReport:
    checks: list[TranslationCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> TranslationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        head = "support translation: " + ("pass" if self.ok else "FAIL")
        return "\n".join([head] + [f"  {c}" for c in self.checks])


def _translated_sides(f_rel, g_rel, rho_sources, rho_targets, inner, outer):
    """The two sides of a translation inequality: g's relation pulled back
    along the renaming of its sources, and f's relation pushed forward
    along the renaming of its targets (interface positions map to
    themselves)."""
    frame = f_rel.frame
    pulled = identity_relation(frame, inner).union(rho_sources).then(g_rel)
    pushed = f_rel.then(rho_targets.union(identity_relation(frame, outer)))
    return pulled, pushed


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
    lhs, rhs = _translated_sides(
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
    lhs, rhs = _translated_sides(
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


# --- the crisp bridge ---------------------------------------------------------
#
# Crisp graphs are not checked when they are built, so the bridge is where a
# map key off its domain is caught.  Their identifier sets are already
# frozen sets of strings (the crisp constructors freeze and check them), so
# each map is read once: its keys and targets are checked against the
# domain and codomain, and its pairs are stored at top as they stand.


def _at_top(frame: Frame, domain: frozenset, codomain: frozenset, pairs) -> FuzzyRelation:
    """The relation holding every ``a -> b`` of the crisp map ``pairs`` at top.

    A pair off ``domain x codomain`` raises the checked constructor's
    message; the first such pair in map order is the one named.
    """
    if not (pairs.keys() <= domain and codomain.issuperset(pairs.values())):
        for a, b in pairs.items():
            if a not in domain or b not in codomain:
                raise _outside(a, b)
    store = dict.fromkeys(pairs.items(), frame.top)
    return FuzzyRelation._trusted(frame, domain, codomain, store)


def fuzzify_place(p: PlaceGraph, frame: Frame = TWO_POINT) -> FuzzyPlaceGraph:
    inner, outer = _widths(p.inner, p.outer)
    ctrl = _at_top(frame, p.nodes, p.signature.controls, p.ctrl)
    prnt = _at_top(frame, *_prnt_domain(inner, outer, p.nodes), p.prnt)
    return FuzzyPlaceGraph._trusted(frame, p.signature, inner, outer, p.nodes, ctrl, prnt)


def _fuzzify_link(l: LinkGraph, frame: Frame, ctrl: FuzzyRelation | None) -> FuzzyLinkGraph:
    """``fuzzify_link``, reusing ``ctrl`` when the place part already built
    this very control relation."""
    _require_apart(l.nodes, l.edges, l.outer)
    if ctrl is None:
        ctrl = _at_top(frame, l.nodes, l.signature.controls, l.ctrl)
    # One control per node, so its arity is the widest.
    arity = l.signature.arity
    ports = frozenset([(v, i) for v, k in l.ctrl.items() for i in range(arity[k])])
    link = _at_top(frame, l.inner | ports, l.edges | l.outer, l.link)
    return FuzzyLinkGraph._trusted(
        frame, l.signature, l.inner, l.outer, l.nodes, l.edges, ctrl, link, ports
    )


def fuzzify_link(l: LinkGraph, frame: Frame = TWO_POINT) -> FuzzyLinkGraph:
    return _fuzzify_link(l, frame, None)


def fuzzify(b: Bigraph, frame: Frame = TWO_POINT) -> FuzzyBigraph:
    """Embed a crisp bigraph: every map entry becomes a top-degree pair.

    Parts that agree on signature, nodes and controls share one control
    relation.  Parts that disagree are checked one by one, and
    :class:`FuzzyBigraph` names the disagreement.
    """
    p, l = b.place, b.link
    place = fuzzify_place(p, frame)
    if l.signature == p.signature and l.nodes == p.nodes and l.ctrl == p.ctrl:
        return FuzzyBigraph._trusted(place, _fuzzify_link(l, frame, place.ctrl))
    return FuzzyBigraph(place, fuzzify_link(l, frame))


def _functional_at_top(rel: FuzzyRelation, what: str) -> dict:
    """``rel`` as a map, when it sends each element of its domain to exactly
    one target, at top."""
    frame = rel.frame
    top = frame.top
    top_raw = top.raw
    out: dict = {}
    for (a, b), degree in rel.items():
        if degree is not top and degree.raw != top_raw:
            raise NotCrispError(
                f"{what} entry ({a!r}, {b!r}) has degree "
                f"{frame.format_degree(degree)}, not top"
            )
        if a in out:
            raise NotCrispError(f"{what} has two top-degree targets for {a!r}")
        out[a] = b
    # Every source lies in the domain, so only a map as large is total.
    if len(out) != len(rel.domain):
        missing = rel.domain - out.keys()
        raise NotCrispError(f"{what} is not total at top: {sorted(map(repr, missing))}")
    return out


# The maps are built here and held by nothing else, and the identifier sets
# are the fuzzy graph's frozen strings, so the crisp graphs take them as
# they stand.


def _place_at_top(p: FuzzyPlaceGraph, ctrl: dict) -> PlaceGraph:
    prnt = _functional_at_top(p.prnt, "parent relation")
    return PlaceGraph._trusted(p.signature, p.inner, p.outer, p.nodes, ctrl, prnt)


def _link_at_top(l: FuzzyLinkGraph, ctrl: dict) -> LinkGraph:
    link = _functional_at_top(l.link, "link relation")
    return LinkGraph._trusted(l.signature, l.inner, l.outer, l.nodes, l.edges, ctrl, link)


def defuzzify_place(p: FuzzyPlaceGraph) -> PlaceGraph:
    return _place_at_top(p, _functional_at_top(p.ctrl, "control relation"))


def defuzzify_link(l: FuzzyLinkGraph) -> LinkGraph:
    return _link_at_top(l, _functional_at_top(l.ctrl, "control relation"))


def defuzzify(f: FuzzyBigraph) -> Bigraph:
    """Lower a fuzzy bigraph whose relations are functional at degree top.

    Both parts hold one control relation, so it is lowered once.
    """
    ctrl = _functional_at_top(f.ctrl, "control relation")
    return Bigraph(_place_at_top(f.place, ctrl), _link_at_top(f.link, ctrl))


# --- validation ----------------------------------------------------------------


def skeleton_pairs(prnt: FuzzyRelation, nodes: frozenset[str]) -> set[tuple[str, str]]:
    """Node-to-node pairs holding a positive parent degree."""
    return {
        (c, p) for (c, p), _d in prnt.items() if c in nodes and p in nodes
    }


def skeleton_is_acyclic(prnt: FuzzyRelation, nodes: frozenset[str]) -> bool:
    """Depth-first cycle check of the positive node-to-node parent pairs.

    The search keeps an explicit stack, so nesting depth is not bounded by
    the interpreter's recursion limit.
    """
    succ: dict[str, list[str]] = {}
    for c, p in skeleton_pairs(prnt, nodes):
        succ.setdefault(c, []).append(p)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for start in sorted(succ):
        if state.get(start) == 2:
            continue
        state[start] = 1
        stack = [(start, iter(succ[start]))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                mark = state.get(w)
                if mark == 1:
                    return False
                if mark is None:
                    state[w] = 1
                    stack.append((w, iter(succ.get(w, ()))))
                    break
            else:
                state[v] = 2
                stack.pop()
    return True


def validate_fuzzy_place(
    p: FuzzyPlaceGraph, subject: str = "fuzzy place graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    if not skeleton_is_acyclic(p.prnt, p.nodes):
        report.add("the positive part of the parent relation has a cycle")
    parented = {c for (c, _t), _d in p.prnt.items()}
    for site in range(p.inner):
        if site not in parented:
            report.add(f"site {site} has no parent of positive degree")
    for v in sorted(p.nodes):
        if v not in parented:
            report.add(f"node {v!r} has no parent of positive degree")
    return report


def validate_fuzzy_link(
    l: FuzzyLinkGraph, subject: str = "fuzzy link graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    linked = {q for (q, _t), _d in l.link.items()}
    for point in sorted(l.points, key=repr):
        if point not in linked:
            report.add(f"point {point!r} has no link of positive degree")
    return report


def validate_fuzzy_bigraph(
    b: FuzzyBigraph, subject: str = "fuzzy bigraph"
) -> ValidationReport:
    report = ValidationReport(subject)
    report.extend(validate_fuzzy_place(b.place), prefix="place: ")
    report.extend(validate_fuzzy_link(b.link), prefix="link: ")
    return report
