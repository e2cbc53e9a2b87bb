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
from itertools import chain, repeat
from typing import Mapping

from .crisp import (
    Bigraph,
    Interface,
    LinkGraph,
    PlaceGraph,
    Port,
    Signature,
    _freeze_ids,
    _is_nat,
    _Parts,
)
from .errors import (
    InterfaceMismatchError,
    ModelError,
    NameClashError,
    NotCrispError,
    SignatureMismatchError,
    SupportOverlapError,
    ValidationReport,
)
from .lattice import TWO_POINT, Frame
from .relations import FuzzyRelation, FuzzySet, _built, _route, _Union, identity_relation


def derive_ports(signature: Signature, ctrl: FuzzyRelation) -> frozenset[Port]:
    """Ports owned by each node: the union of the port ranges of every
    control the node holds with positive degree.

    With several positive controls the widest arity wins, so the port set
    is the smallest one safe for all positive possibilities.
    """
    arity, holders = signature.arity, {}
    for v, k in ctrl._entries:  # the nodes holding each control, controls in entry order
        holders.setdefault(k, []).append(v)
    try:
        return frozenset(chain.from_iterable(
            zip(nodes, repeat(i)) for k, nodes in holders.items() for i in range(arity[k])
        ))
    except KeyError as unknown:  # arity_of raises for the first one, in entry order
        signature.arity_of(unknown.args[0])


def _as_relation(frame: Frame, entries, domain, codomain) -> FuzzyRelation:
    """The checked relation for a graph component.

    A relation already over this very frame and exactly this domain and
    codomain (as held, or as built and then dropped) was checked: it is reused.
    """
    if isinstance(entries, FuzzyRelation):
        if entries.frame is frame and all(
            held == given or _built(held) == _built(given)
            for held, given in ((entries._domain, domain), (entries._codomain, codomain))
        ):
            return entries
        entries = entries.entry_dict()
    return FuzzyRelation(frame, domain, codomain, entries)


def _widths(inner, outer) -> tuple[int, int]:
    """A place graph's interface widths, which must be natural numbers: a
    ``bool`` or a value of another type is refused, not converted."""
    if not (_is_nat(inner) and _is_nat(outer)):
        raise ValueError("interface widths must be natural numbers")
    return inner, outer


def _prnt_domain(inner: int, outer: int, nodes) -> tuple:
    """Children (sites and nodes) and parents (nodes and roots) of a parent
    relation, as parts; a fuzzy node set as its membership dict, unbuilt."""
    nodes = nodes._entries if isinstance(nodes, FuzzySet) else nodes
    return _Union((range(inner), nodes)), _Union((nodes, range(outer)))


def _ids(field) -> frozenset:
    """The identifiers of a node or edge field: a fuzzy set's support, or
    the field itself."""
    return field.support if isinstance(field, FuzzySet) else field


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
        link = _as_relation(frame, link, _Union((inner, ports)), _Union((edges, outer)))
        self._store(frame, signature, inner, outer, nodes, edges, ctrl, link, ports)

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    def __repr__(self) -> str:
        return (
            f"FuzzyLinkGraph({sorted(self.inner)}->{sorted(self.outer)}, "
            f"{len(self.nodes)} nodes, {len(self.edges)} edges, {self.frame.name})"
        )


class _Bigraph(_Graph, _Parts):
    """A place part and a link part sharing frame, signature, nodes and
    controls: the fields and checks of the graded bigraphs, and the
    accessors crisp ones lack."""

    __slots__ = ("place", "link")

    @staticmethod
    def _agreeing_link(place, link, node_set: str):
        """``link``, once it agrees with ``place``, holding the place part's
        node set and control relation: a bigraph keeps each of them once."""
        if place.frame != link.frame:
            raise ValueError("place and link parts use different frames")
        if place.signature != link.signature:
            raise ValueError("place and link parts use different signatures")
        # Parts built together hold one node set and control relation, which
        # need no element-by-element comparison.
        nodes, ctrl = place.nodes, place.ctrl
        if link.nodes is not nodes and link.nodes != nodes:
            raise ValueError(f"place and link parts disagree on the {node_set}")
        if link.ctrl is not ctrl and link.ctrl != ctrl:
            raise ValueError("place and link parts disagree on the control relation")
        if link.nodes is nodes and link.ctrl is ctrl:
            return link
        shared = {"nodes": nodes, "ctrl": ctrl}
        return type(link)._trusted(
            *[shared[n] if n in shared else getattr(link, n) for n in link._fields]
        )

    @property
    def frame(self) -> Frame:
        return self.place.frame

    @property
    def ctrl(self) -> FuzzyRelation:
        return self.place.ctrl


class FuzzyBigraph(_Bigraph):
    """A fuzzy place graph and a fuzzy link graph sharing nodes and controls."""

    __slots__ = ()

    def __init__(self, place: FuzzyPlaceGraph, link: FuzzyLinkGraph):
        self._store(place, self._agreeing_link(place, link, "node set"))

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


def _require_disjoint_support(f_nodes, f_edges, g_nodes, g_edges) -> None:
    # The supports are built only to name an overlap.
    if not (f_nodes.isdisjoint(g_nodes) and f_nodes.isdisjoint(g_edges)
            and f_edges.isdisjoint(g_nodes) and f_edges.isdisjoint(g_edges)):
        shared = (f_nodes | f_edges) & (g_nodes | g_edges)
        raise SupportOverlapError(f"supports overlap on {sorted(shared)}")


def _joined(f_field, g_field):
    """Two node fields, or two edge fields, together, or ``None`` where they
    overlap, as the union's size shows (a fuzzy set's refuses it itself)."""
    try:
        joined = f_field.union(g_field)
    except ValueError:
        return None
    return joined if len(joined) == len(f_field) + len(g_field) else None


def _require_place_composable(g, f) -> None:
    """Preconditions of ``g . f`` on place graphs but those on the nodes."""
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            f"place interface mismatch: expected inner width {f.outer}, got {g.inner}"
        )


def _require_link_composable(g, f) -> None:
    """Preconditions of ``g . f`` on link graphs but those on the supports."""
    _require_compatible(g, f)
    if f.outer != g.inner:
        raise InterfaceMismatchError(
            "link interface mismatch: expected inner names "
            f"{{{','.join(sorted(f.outer))}}}, got {{{','.join(sorted(g.inner))}}}"
        )


# --- composition ------------------------------------------------------------


def _composed_ctrl(g, f, nodes) -> FuzzyRelation:
    """f's controls and g's over ``nodes``, the union of their node fields;
    the composers have required those disjoint, which ``union`` would repeat."""
    entries = f.ctrl.entry_dict()
    entries.update(g.ctrl._entries)
    domain = nodes if type(nodes) is frozenset else _Union((nodes._entries,))
    return FuzzyRelation._trusted(f.frame, domain, f.ctrl._codomain, entries)


def _composed_place(g, f, kappa, f_drop, g_drop) -> tuple:
    """The fields of the place composite ``g . f`` of either kind, in
    ``_fields`` order and short of a degree, once the nodes are disjoint.

    f-internal and g-internal parent entries are copied; a child of f whose
    parent mass sits on a root j of f is routed into g through site j, at
    the join over j of the meet of the two legs.  ``kappa`` and the drops
    guard the route (see ``relations._route``); a fuzzy composite is
    unguarded.  The composite's relations hold its fields as parts.
    """
    f_ids, g_ids = _ids(f.nodes), _ids(g.nodes)
    nodes = _joined(f.nodes, g.nodes)
    if nodes is None:
        _require_disjoint_nodes(f_ids, g_ids)
    entries = _route(f.prnt, g.prnt, f_ids, g_ids, kappa, f_drop, g_drop)
    domains = _prnt_domain(f.inner, g.outer, nodes)
    prnt = FuzzyRelation._trusted(f.frame, *domains, entries)
    return f.frame, f.signature, f.inner, g.outer, nodes, _composed_ctrl(g, f, nodes), prnt


def _composed_link(g, f, kappa, shared) -> tuple:
    """The fields of the link composite ``g . f`` of either kind, in
    ``_fields`` order and short of a degree, once the supports are disjoint
    and f's edges miss g's outer names; ``kappa`` guards the route.
    ``shared``, if given, is the place composite's nodes and controls."""
    f_ids, f_edge_ids, g_ids, g_edge_ids = map(_ids, (f.nodes, f.edges, g.nodes, g.edges))
    nodes = shared[0] if shared else _joined(f.nodes, g.nodes)
    edges = _joined(f.edges, g.edges)
    # Each operand keeps its nodes and edges apart, so past the unions only
    # f's nodes and g's edges, and f's edges and g's nodes, may meet.
    apart = f_ids.isdisjoint(g_edge_ids) and f_edge_ids.isdisjoint(g_ids)
    if nodes is None or edges is None or not apart:
        _require_disjoint_support(f_ids, f_edge_ids, g_ids, g_edge_ids)
    clash = f_edge_ids & g.outer
    if clash:
        raise NameClashError(f"edge identifiers collide with outer names: {sorted(clash)}")
    # A node's ports follow from its own control row (and membership), and
    # the node sets are disjoint, so the composite's ports are f's and g's.
    inner, outer, ports = f.inner, g.outer, f.ports | g.ports
    entries = _route(f.link, g.link, f_edge_ids, g.ports, kappa, (), ())
    ids = edges._entries if isinstance(edges, FuzzySet) else edges
    link = FuzzyRelation._trusted(f.frame, _Union((inner, ports)), _Union((ids, outer)), entries)
    ctrl = shared[1] if shared else _composed_ctrl(g, f, nodes)
    return f.frame, f.signature, inner, outer, nodes, edges, ctrl, link, ports


def compose_fuzzy_place(g: FuzzyPlaceGraph, f: FuzzyPlaceGraph) -> FuzzyPlaceGraph:
    """Composite ``g . f`` of fuzzy place graphs f: k->m and g: m->n."""
    _require_place_composable(g, f)
    return FuzzyPlaceGraph._trusted(*_composed_place(g, f, f.frame.bottom, (), ()))


def compose_fuzzy_link(g: FuzzyLinkGraph, f: FuzzyLinkGraph, *, _shared=()) -> FuzzyLinkGraph:
    """Composite ``g . f`` of fuzzy link graphs f: X->Y and g: Y->Z."""
    _require_link_composable(g, f)
    return FuzzyLinkGraph._trusted(*_composed_link(g, f, f.frame.bottom, _shared))


def _composite(cls, compose_place, compose_link, g, f):
    """The ``cls`` bigraph ``g . f`` from its parts' composites, whose
    composers check all but the interfaces.  An overlap is named first.
    The link composite shares the place composite's nodes and controls."""
    # Widths and names straight from the parts: each read of ``inner`` or
    # ``outer`` builds and checks an ``Interface``, so only the message does.
    if f.place.outer != g.place.inner or f.link.outer != g.link.inner:
        raise InterfaceMismatchError(f"interface mismatch: expected {f.outer}, got {g.inner}")
    try:
        place = compose_place(g.place, f.place)
        return cls._trusted(place, compose_link(g.link, f.link, _shared=(place.nodes, place.ctrl)))
    except ModelError:
        _require_disjoint_support(*map(_ids, (f.nodes, f.edges, g.nodes, g.edges)))
        raise


def compose_fuzzy(g: FuzzyBigraph, f: FuzzyBigraph) -> FuzzyBigraph:
    """Componentwise composite of fuzzy bigraphs f: I->J and g: J->K."""
    return _composite(FuzzyBigraph, compose_fuzzy_place, compose_fuzzy_link, g, f)


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


def tensor_fuzzy_link(f: FuzzyLinkGraph, g: FuzzyLinkGraph, *, _shared=()) -> FuzzyLinkGraph:
    """Tensor ``f ⊗ g``: disjoint union of every component.  ``_shared``, if
    given, is the place tensor's nodes and controls."""
    _require_compatible(g, f)
    _require_disjoint_support(f.nodes, f.edges, g.nodes, g.edges)
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
    nodes, ctrl = _shared or (f.nodes | g.nodes, f.ctrl.union(g.ctrl))
    return FuzzyLinkGraph._trusted(
        f.frame,
        f.signature,
        f.inner | g.inner,
        f.outer | g.outer,
        nodes,
        f.edges | g.edges,
        ctrl,
        f.link.union(g.link),
        f.ports | g.ports,
    )


def tensor_fuzzy(f: FuzzyBigraph, g: FuzzyBigraph) -> FuzzyBigraph:
    """Tensor product of fuzzy bigraphs; its unit is the empty interface ⟨0,∅⟩."""
    place = tensor_fuzzy_place(f.place, g.place)
    link = tensor_fuzzy_link(f.link, g.link, _shared=(place.nodes, place.ctrl))
    return FuzzyBigraph._trusted(place, link)


# --- identities --------------------------------------------------------------


# An identity holds no node and no control, and its relation is the
# diagonal at top, so only its width and its names are checked.


def _no_controls(frame: Frame, signature: Signature) -> FuzzyRelation:
    return FuzzyRelation._trusted(frame, frozenset(), signature.controls, {})


def identity_place(width: int, frame: Frame, signature: Signature) -> FuzzyPlaceGraph:
    width, _ = _widths(width, width)
    ident = identity_relation(frame, range(width))
    return FuzzyPlaceGraph._trusted(
        frame, signature, width, width, frozenset(), _no_controls(frame, signature), ident
    )


def identity_link(names, frame: Frame, signature: Signature, *, _shared=()) -> FuzzyLinkGraph:
    """``_shared``, if given, is the identity place graph's nodes and controls."""
    names = _freeze_ids(names, "inner name")
    ident = identity_relation(frame, names)
    none = frozenset()
    nodes, ctrl = _shared or (none, _no_controls(frame, signature))
    return FuzzyLinkGraph._trusted(
        frame, signature, names, names, nodes, none, ctrl, ident, none
    )


def identity_bigraph(
    interface: Interface, frame: Frame, signature: Signature
) -> FuzzyBigraph:
    place = identity_place(interface.width, frame, signature)
    link = identity_link(interface.names, frame, signature, _shared=(place.nodes, place.ctrl))
    return FuzzyBigraph._trusted(place, link)


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


def _require_cover(rho: SupportTranslation, nodes, edges, carrier: str) -> None:
    """``rho`` renames exactly ``nodes`` and ``edges``; ``carrier`` names what
    they are ("set", or "support" for type-2 graphs)."""
    if set(rho.node_map) != set(nodes):
        raise ValueError(f"node renaming does not cover exactly the node {carrier}")
    if set(rho.edge_map) != set(edges):
        raise ValueError(f"edge renaming does not cover exactly the edge {carrier}")


def _transported(f, rho: SupportTranslation, nodes, edges):
    """``f`` renamed along ``rho``, every degree copied, with ``nodes`` and
    ``edges`` as its renamed node and edge fields: identifier sets, or
    fuzzy sets over the renamed identifiers.

    ``f`` passed every check of its constructors, and a bijective renaming
    keeps all of them but three: the images must be identifier strings,
    node and edge images must stay apart, and edge images must not meet an
    outer name.  Those are made, with the constructors' messages; the rest
    of ``f``, ports included, is carried along the renaming as it stands,
    and each part is rebuilt from its ``_fields``.
    """
    node_ids, edge_ids = _ids(nodes), _ids(edges)
    _freeze_ids(node_ids, "node")
    _freeze_ids(edge_ids, "edge")
    place, link = f.place, f.link
    _require_apart(node_ids, edge_ids, link.outer)
    frame, node_map = f.frame, rho.node_map
    # Sites and roots are ints, which no node name equals, and edges never
    # share a name with outer names.
    place_elem, target = node_map.get, rho.edge_map.get
    ports = frozenset((node_map[v], i) for v, i in link.ports)
    ctrl = {(node_map[v], k): d for (v, k), d in f.ctrl.items()}
    prnt = {(place_elem(c, c), place_elem(p, p)): d for (c, p), d in place.prnt.items()}
    links = {
        ((node_map[q[0]], q[1]) if isinstance(q, tuple) else q, target(t, t)): d
        for (q, t), d in link.link.items()
    }
    link_sets = _Union((link.inner, ports)), _Union((edge_ids, link.outer))
    renamed = {
        "nodes": nodes,
        "edges": edges,
        "ctrl": FuzzyRelation._trusted(frame, node_ids, f.ctrl._codomain, ctrl),
        "prnt": FuzzyRelation._trusted(frame, *_prnt_domain(place.inner, place.outer, node_ids), prnt),
        "link": FuzzyRelation._trusted(frame, *link_sets, links),
        "ports": ports,
    }
    parts = []
    for part in (place, link):
        fields = [renamed[n] if n in renamed else getattr(part, n) for n in part._fields]
        parts.append(type(part)._trusted(*fields))
    return type(f)._trusted(*parts)


def translate_fuzzy(f: FuzzyBigraph, rho: SupportTranslation) -> FuzzyBigraph:
    """Apply a support translation, copying every degree across."""
    _require_cover(rho, f.nodes, f.edges, "set")
    nodes, edges = frozenset(rho.node_map.values()), frozenset(rho.edge_map.values())
    return _transported(f, rho, nodes, edges)


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


def _verdict(name: str, ok: bool, failure: str) -> TranslationCheck:
    """A check that carries its ``failure`` detail only when it fails."""
    return TranslationCheck(name, ok, "" if ok else failure)


def _require_same_interfaces(f, g) -> None:
    fp, fl, gp, gl = f.place, f.link, g.place, g.link
    if (fp.inner, fp.outer, fl.inner, fl.outer) != (gp.inner, gp.outer, gl.inner, gl.outer):
        raise InterfaceMismatchError(
            f"interface mismatch: {f.inner}->{f.outer} vs {g.inner}->{g.outer}"
        )


def check_support_translation(
    rho: SupportTranslation, f: FuzzyBigraph, g: FuzzyBigraph
) -> TranslationReport:
    """Verify that ``rho`` is a support translation from f to g.

    Checks control preservation along the crisp-valued node relation,
    port well-definedness, and the two inequalities tying the parent and
    link relations of f, renamed along ``rho``, to those of g.
    """
    _require_same_interfaces(f, g)
    for what, table, f_ids, g_ids in (
        ("node", rho.node_map, f.nodes, g.nodes),
        ("edge", rho.edge_map, f.edges, g.edges),
    ):
        if set(table) != f_ids or set(table.values()) != g_ids:
            raise ValueError(f"{what} renaming is not a bijection from f's {what}s to g's")
    rho_nodes = FuzzyRelation(
        f.frame, f.nodes, g.nodes, dict.fromkeys(rho.node_map.items(), f.frame.top)
    )

    # 1. control preservation: every translated control degree of f is
    #    dominated by g's.
    pulled = rho_nodes.then(g.ctrl)
    bad = [
        (v, k)
        for (v, k), d in f.ctrl.items()
        if not d.leq(pulled.degree(v, k))
    ]

    # 2. and 3. f renamed along rho: its ports land exactly on g's, and its
    #    parents and links stay below g's.  The images are g's identifiers
    #    and f's outer names are g's, so the renaming's own checks pass.
    renamed = _transported(f, rho, g.nodes, g.edges)
    mapped, g_ports = renamed.link.ports, g.link.ports
    ok_ports = mapped == g_ports
    # Listing every port costs milliseconds on a large pair, so the detail
    # is only built when the check fails.
    ports_detail = "" if ok_ports else f"image {sorted(mapped)} differs from {sorted(g_ports)}"
    return TranslationReport([
        _verdict("control preservation", not bad, f"degree drops at {sorted(bad)}"),
        TranslationCheck("port bijection", ok_ports, ports_detail),
        _verdict(
            "parent relation",
            renamed.prnt.leq(g.prnt),
            "translated parent degrees are not dominated",
        ),
        _verdict(
            "link relation",
            renamed.link.link.leq(g.link.link),
            "translated link degrees are not dominated",
        ),
    ])


# --- the crisp bridge ---------------------------------------------------------
#
# Crisp graphs are not checked when they are built, so the bridge hands each
# map to the checked graded constructor, which catches a key off its domain.
# The pairs go in lazily: the constructor checks widths and identifiers
# before it reads a single pair.


def _at_top(frame: Frame, pairs: Mapping):
    """Every ``a -> b`` of the crisp map ``pairs`` as a top-degree entry."""
    top = frame.top
    return (((a, b), top) for a, b in pairs.items())


def fuzzify_place(p: PlaceGraph, frame: Frame = TWO_POINT) -> FuzzyPlaceGraph:
    return FuzzyPlaceGraph(
        frame, p.signature, p.inner, p.outer, p.nodes,
        _at_top(frame, p.ctrl), _at_top(frame, p.prnt),
    )


def fuzzify_link(l: LinkGraph, frame: Frame = TWO_POINT) -> FuzzyLinkGraph:
    return FuzzyLinkGraph(
        frame, l.signature, l.inner, l.outer, l.nodes, l.edges,
        _at_top(frame, l.ctrl), _at_top(frame, l.link),
    )


def fuzzify(b: Bigraph, frame: Frame = TWO_POINT) -> FuzzyBigraph:
    """Embed a crisp bigraph: every map entry becomes a top-degree pair.

    Each part is checked on its own, and :class:`FuzzyBigraph` names any
    disagreement between them.
    """
    return FuzzyBigraph(fuzzify_place(b.place, frame), fuzzify_link(b.link, frame))


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


def defuzzify_place(p: FuzzyPlaceGraph) -> PlaceGraph:
    ctrl = _functional_at_top(p.ctrl, "control relation")
    prnt = _functional_at_top(p.prnt, "parent relation")
    return PlaceGraph._trusted(p.signature, p.inner, p.outer, p.nodes, ctrl, prnt)


def defuzzify_link(l: FuzzyLinkGraph) -> LinkGraph:
    ctrl = _functional_at_top(l.ctrl, "control relation")
    link = _functional_at_top(l.link, "link relation")
    return LinkGraph._trusted(l.signature, l.inner, l.outer, l.nodes, l.edges, ctrl, link)


def defuzzify(f: FuzzyBigraph) -> Bigraph:
    """Lower a fuzzy bigraph whose relations are functional at degree top."""
    return Bigraph(defuzzify_place(f.place), defuzzify_link(f.link))


# --- validation ----------------------------------------------------------------


def skeleton_is_acyclic(prnt: FuzzyRelation, nodes: frozenset[str]) -> bool:
    """Kahn's check of the positive node-to-node parent pairs: a node is
    removed once no remaining node names it as a parent, and the pairs are
    acyclic iff every node is removed.  Nothing recurses, so nesting depth
    is not bounded by the interpreter's recursion limit.
    """
    children = dict.fromkeys(nodes, 0)
    parents: dict[str, list[str]] = {}
    for (c, p), _d in prnt.items():
        if c in nodes and p in nodes:
            children[p] += 1
            parents.setdefault(c, []).append(p)
    removed = [v for v, count in children.items() if count == 0]
    for v in removed:  # grows while walked: a parent joins at its last child
        for p in parents.get(v, ()):
            children[p] -= 1
            if children[p] == 0:
                removed.append(p)
    return len(removed) == len(nodes)


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
    for v in sorted(p.nodes - parented):
        report.add(f"node {v!r} has no parent of positive degree")
    return report


def validate_fuzzy_link(
    l: FuzzyLinkGraph, subject: str = "fuzzy link graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    linked = {q for (q, _t), _d in l.link.items()}
    for point in sorted(l.points - linked, key=repr):
        report.add(f"point {point!r} has no link of positive degree")
    return report


def validate_fuzzy_bigraph(
    b: FuzzyBigraph, subject: str = "fuzzy bigraph"
) -> ValidationReport:
    report = ValidationReport(subject)
    report.extend(validate_fuzzy_place(b.place), prefix="place: ")
    report.extend(validate_fuzzy_link(b.link), prefix="link: ")
    return report
