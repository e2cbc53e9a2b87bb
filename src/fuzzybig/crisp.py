"""Crisp (Milner-style) bigraphs: the baseline the fuzzy algebra must match.

A bigraph pairs a place graph (a forest over the nodes, with numbered sites
as inner interface and numbered roots as outer interface) and a link graph
(a hypergraph-like structure wiring ports and inner names to edges and
outer names).  Sites and roots are plain natural numbers; node and edge
identifiers are opaque strings, so the two sorts never collide.

Composition is map composition through the shared interface (Milner,
*The Space and Motion of Communicating Agents*, ch. 2).  Crisp bigraphs are
also the two-point case of fuzzy ones; that bridge names composition
faults, computes tensor products and identities, and is tested as a law,
as composition is against an independent hand-rolled oracle.

Constructors are deliberately permissive; :func:`validate_bigraph` and
friends report every violated invariant instead of refusing to build the
value, so that broken models read from files can be diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ValidationReport

Port = tuple  # (node identifier, port index)


def _is_nat(n) -> bool:
    """Whether ``n`` is a natural number: an ``int`` that is not a ``bool``."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def _by_fields(record):
    """How a frozen record pickles and copies: rebuilt through its class
    from its fields, each read-only map as a dict, which its constructor
    wraps again (a ``mappingproxy`` cannot be pickled)."""
    values = (getattr(record, field.name) for field in fields(record))
    return type(record), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)


@dataclass(frozen=True, eq=False)
class Signature:
    """Control names with their port arities."""

    arity: Mapping[str, int]

    def __post_init__(self):
        table = dict(self.arity)
        for control, ar in table.items():
            if not isinstance(control, str):
                raise TypeError(f"control names are strings, got {control!r}")
            if not _is_nat(ar):
                raise ValueError(f"arity of {control!r} must be a natural number")
        object.__setattr__(self, "arity", MappingProxyType(table))
        # The control names, as a set: the codomain of every control relation.
        object.__setattr__(self, "controls", frozenset(table))

    __reduce__ = _by_fields

    def arity_of(self, control: str) -> int:
        try:
            return self.arity[control]
        except KeyError:
            raise ValueError(f"unknown control {control!r}") from None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Signature) and dict(self.arity) == dict(other.arity)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Interface:
    """A bigraph interface: a width and a finite set of names."""

    width: int = 0
    names: frozenset[str] = frozenset()

    def __post_init__(self):
        if not _is_nat(self.width):
            raise ValueError("interface width must be a natural number")
        object.__setattr__(self, "names", frozenset(self.names))

    def __str__(self) -> str:
        if not self.names:
            return f"⟨{self.width},∅⟩"
        return f"⟨{self.width},{{{','.join(sorted(self.names))}}}⟩"


UNIT_INTERFACE = Interface(0, frozenset())  # the tensor unit ⟨0,∅⟩


def _freeze_ids(ids: Iterable[str], what: str) -> frozenset[str]:
    out = frozenset(ids)
    for ident in out:
        if not isinstance(ident, str):
            raise TypeError(f"{what} identifiers are strings, got {ident!r}")
    return out


@dataclass(frozen=True)
class PlaceGraph:
    """A forest over the nodes: ``prnt`` sends sites and nodes to nodes and roots."""

    signature: Signature
    inner: int
    outer: int
    nodes: frozenset[str]
    ctrl: Mapping[str, str]
    prnt: Mapping[object, object]

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze_ids(self.nodes, "node"))
        object.__setattr__(self, "ctrl", MappingProxyType(dict(self.ctrl)))
        object.__setattr__(self, "prnt", MappingProxyType(dict(self.prnt)))

    @classmethod
    def _trusted(cls, signature, inner, outer, nodes, ctrl: dict, prnt: dict) -> "PlaceGraph":
        """A place graph whose ``nodes`` are already a frozenset of strings and
        whose maps are dicts that nothing else will change: they are wrapped
        read-only as they stand, not frozen or copied again."""
        graph = cls.__new__(cls)
        vars(graph).update(
            signature=signature, inner=inner, outer=outer, nodes=nodes,
            ctrl=MappingProxyType(ctrl), prnt=MappingProxyType(prnt),
        )
        return graph

    __reduce__ = _by_fields

    @property
    def sites(self) -> range:
        return range(self.inner)

    @property
    def roots(self) -> range:
        return range(self.outer)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LinkGraph:
    """A hypergraph over the nodes: ``link`` sends points to edges and outer names."""

    signature: Signature
    inner: frozenset[str]
    outer: frozenset[str]
    nodes: frozenset[str]
    edges: frozenset[str]
    ctrl: Mapping[str, str]
    link: Mapping[object, str]

    def __post_init__(self):
        object.__setattr__(self, "inner", _freeze_ids(self.inner, "inner name"))
        object.__setattr__(self, "outer", _freeze_ids(self.outer, "outer name"))
        object.__setattr__(self, "nodes", _freeze_ids(self.nodes, "node"))
        object.__setattr__(self, "edges", _freeze_ids(self.edges, "edge"))
        object.__setattr__(self, "ctrl", MappingProxyType(dict(self.ctrl)))
        object.__setattr__(self, "link", MappingProxyType(dict(self.link)))

    @classmethod
    def _trusted(cls, signature, inner, outer, nodes, edges, ctrl: dict, link: dict) -> "LinkGraph":
        """A link graph whose identifier sets are already frozensets of
        strings and whose maps are dicts that nothing else will change."""
        graph = cls.__new__(cls)
        vars(graph).update(
            signature=signature, inner=inner, outer=outer, nodes=nodes, edges=edges,
            ctrl=MappingProxyType(ctrl), link=MappingProxyType(link),
        )
        return graph

    __reduce__ = _by_fields

    @property
    def ports(self) -> frozenset[Port]:
        """Ports of the well-controlled nodes; unknown controls contribute none."""
        arity, ctrl = self.signature.arity, self.ctrl
        return frozenset(
            (v, i) for v in self.nodes for i in range(arity.get(ctrl.get(v)) or 0)
        )

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    __hash__ = None  # type: ignore[assignment]


class _Parts:
    """The accessors every bigraph flavour reads through its ``place`` and
    ``link`` parts, which share one signature and one node set."""

    __slots__ = ()

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
    def inner(self) -> Interface:
        return Interface(self.place.inner, self.link.inner)

    @property
    def outer(self) -> Interface:
        return Interface(self.place.outer, self.link.outer)


@dataclass(frozen=True)
class Bigraph(_Parts):
    """A place graph and a link graph over one shared node set."""

    place: PlaceGraph
    link: LinkGraph

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def _checked_ports(self) -> frozenset | None:
        """``_sound_ports(self)``, kept on the graph once asked: the graph is
        frozen, so the answer cannot change.  Not a field."""
        return _sound_ports(self)


def is_hypergraph(vertices: Iterable, edge_family: Iterable[Iterable]) -> bool:
    """True iff every family member is nonempty and their union is the vertex set."""
    vs = set(vertices)
    union: set = set()
    for edge in edge_family:
        members = set(edge)
        if not members:
            return False
        union |= members
    return union == vs


def _rooted_nodes(prnt: Mapping, nodes: frozenset) -> dict:
    """For each node reached from the parent map, whether following its
    parents leaves the node set.

    A chain that cycles, or that stops at a node with no parent entry or at
    a ``None`` parent, is not rooted.  Each node is resolved once, so the
    pass is linear in the number of nodes.
    """
    rooted: dict = {}
    for start in nodes:
        path = []
        v = start
        while v not in rooted:
            if v not in prnt:
                verdict = False
                break
            rooted[v] = False  # provisional: meeting it again closes a cycle
            path.append(v)
            parent = prnt[v]
            if not isinstance(parent, str) or parent not in nodes:
                verdict = parent is not None
                break
            v = parent
        else:
            verdict = rooted[v]
        for u in path:
            rooted[u] = verdict
    return rooted


def _check_controls(report: ValidationReport, nodes, ctrl: Mapping, arity: Mapping) -> None:
    """Report, in node order, each node without a control or with one the
    signature does not list."""
    for v in sorted(v for v in nodes if ctrl.get(v) not in arity):
        control = ctrl.get(v)
        if control is None:
            report.add(f"control map is not total: node {v!r} has no control")
        else:
            report.add(f"node {v!r} has unknown control {control!r}")


def validate_place_graph(p: PlaceGraph, subject: str = "place graph") -> ValidationReport:
    report = ValidationReport(subject)
    # A width that is not a natural number is reported, then read as 0.
    if not (_is_nat(p.inner) and _is_nat(p.outer)):
        report.add("interface widths must be natural numbers")
    inner, outer = (w if _is_nat(w) else 0 for w in (p.inner, p.outer))
    _check_controls(report, p.nodes, p.ctrl, p.signature.arity)
    for v in p.ctrl:
        if v not in p.nodes:
            report.add(f"control map mentions undeclared node {v!r}")
    domain = set(range(inner)) | set(p.nodes)
    for child in sorted(domain.difference(p.prnt), key=repr):
        report.add(f"parent map is not total: {child!r} has no parent")
    for child, parent in p.prnt.items():
        if child not in domain:
            report.add(f"parent map mentions unknown child {child!r}")
        if isinstance(parent, str):
            if parent not in p.nodes:
                report.add(f"parent of {child!r} is an undeclared node {parent!r}")
        elif isinstance(parent, int) and not isinstance(parent, bool):
            if not 0 <= parent < outer:
                report.add(f"parent of {child!r} is an out-of-range root {parent}")
        else:
            report.add(f"parent of {child!r} has unsupported sort: {parent!r}")
    # every node with a parent entry, and no other, has a verdict
    rooted = _rooted_nodes(p.prnt, p.nodes)
    for v in sorted(v for v, ok in rooted.items() if not ok):
        report.add(f"parent map is cyclic at node {v!r}")
    return report


def validate_link_graph(l: LinkGraph, subject: str = "link graph") -> ValidationReport:
    report = ValidationReport(subject)
    _check_controls(report, l.nodes, l.ctrl, l.signature.arity)
    overlap = l.edges & l.outer
    if overlap:
        report.add(f"edge identifiers collide with outer names: {sorted(overlap)}")
    overlap = l.nodes & l.edges
    if overlap:
        report.add(f"node and edge identifiers overlap: {sorted(overlap)}")
    for point in sorted(l.points.difference(l.link), key=repr):
        report.add(f"link map is not total: point {point!r} is unlinked")
    links = l.edges | l.outer
    for point, target in l.link.items():
        if isinstance(point, tuple) and len(point) == 2:
            v, index = point
            if v not in l.nodes:
                report.add(f"link map mentions a port of undeclared node {v!r}")
            else:
                control = l.ctrl.get(v)
                bound = l.signature.arity.get(control, 0) if control else 0
                if not isinstance(index, int) or not 0 <= index < bound:
                    report.add(
                        f"port ({v!r}, {index}) violates the arity bound of control "
                        f"{control!r} ({bound} port(s))"
                    )
        elif isinstance(point, str):
            if point not in l.inner:
                report.add(f"link map mentions undeclared inner name {point!r}")
        else:
            report.add(f"link map has a point of unsupported sort: {point!r}")
        if target not in links:
            report.add(f"link target {target!r} is neither an edge nor an outer name")
    return report


def validate_bigraph(b: Bigraph, subject: str = "bigraph") -> ValidationReport:
    """Aggregate validity report: place, link, and the shared-structure glue."""
    report = ValidationReport(subject)
    report.extend(validate_place_graph(b.place), prefix="place: ")
    report.extend(validate_link_graph(b.link), prefix="link: ")
    if b.place.signature != b.link.signature:
        report.add("place and link graphs use different signatures")
    if b.place.nodes != b.link.nodes:
        report.add("place and link graphs disagree on the node set")
    elif dict(b.place.ctrl) != dict(b.link.ctrl):
        report.add("place and link graphs disagree on the control map")
    return report


def _within(pairs: Mapping, domain: frozenset, codomain: frozenset) -> bool:
    return pairs.keys() <= domain and codomain.issuperset(pairs.values())


def _sound_ports(b: Bigraph) -> frozenset | None:
    """The ports of ``b`` if it passes the checked graded constructors'
    checks, in ``fuzzify``'s order, else ``None``."""
    p, l = b.place, b.link
    nodes, ctrl = p.nodes, p.ctrl
    if not (
        _is_nat(p.inner) and _is_nat(p.outer)
        and _within(ctrl, nodes, p.signature.controls)
        and _within(p.prnt, nodes.union(range(p.inner)), nodes.union(range(p.outer)))
        and l.signature == p.signature and l.nodes == nodes and l.ctrl == ctrl
        and nodes.isdisjoint(l.edges) and l.edges.isdisjoint(l.outer)
    ):
        return None
    ports = l.ports
    return ports if _within(l.link, l.inner | ports, l.edges | l.outer) else None


def _compose_maps(g: Bigraph, f: Bigraph) -> Bigraph | None:
    """``g . f`` as maps, or ``None`` where the bridge refuses the operands."""
    g_ports = g._checked_ports
    f_ports = None if g_ports is None else f._checked_ports
    fp, fl, gp, gl = f.place, f.link, g.place, g.link
    if (
        f_ports is None or fp.outer != gp.inner or fl.outer != gl.inner
        or not (fp.nodes | fl.edges).isdisjoint(gp.nodes | gl.edges)
        or fp.signature != gp.signature or not fl.edges.isdisjoint(gl.outer)
    ):
        return None
    # A root of f is a site of g, and an outer name of f an inner name of g.
    # Checked maps send nothing to None, so None marks a missing image.
    f_nodes, g_prnt, f_edges, g_link = fp.nodes, gp.prnt, fl.edges, gl.link
    prnt = {c: t if t in f_nodes else g_prnt.get(t) for c, t in fp.prnt.items()}
    prnt.update((c, t) for c, t in g_prnt.items() if c in gp.nodes)
    link = {q: t if t in f_edges else g_link.get(t) for q, t in fl.link.items()}
    link.update((q, t) for q, t in g_link.items() if q in g_ports)
    nodes, ctrl = f_nodes | gp.nodes, {**fp.ctrl, **gp.ctrl}
    # The operands' domains are disjoint, so equal sizes mean total maps.
    if (
        len(ctrl) != len(nodes) or len(prnt) != fp.inner + len(nodes)
        or len(link) != len(fl.inner) + len(f_ports) + len(g_ports)
        or None in prnt.values() or None in link.values()
    ):
        return None
    return Bigraph(
        PlaceGraph._trusted(fp.signature, fp.inner, gp.outer, nodes, ctrl, prnt),
        LinkGraph._trusted(fp.signature, fl.inner, gl.outer, nodes, f_edges | gl.edges, ctrl, link),
    )


def compose_crisp(g: Bigraph, f: Bigraph) -> Bigraph:
    """Composite ``g . f`` where f's outer interface meets g's inner one.

    Sound operands compose as maps; the two-point bridge names any fault.
    """
    composite = _compose_maps(g, f)
    if composite is None:
        from .fuzzy import compose_fuzzy, defuzzify, fuzzify

        composite = defuzzify(compose_fuzzy(fuzzify(g), fuzzify(f)))
    return composite


def tensor_crisp(f: Bigraph, g: Bigraph) -> Bigraph:
    """Tensor product ``f ⊗ g``: widths add, name sets union disjointly."""
    from .fuzzy import defuzzify, fuzzify, tensor_fuzzy

    return defuzzify(tensor_fuzzy(fuzzify(f), fuzzify(g)))


def identity_crisp(interface: Interface, signature: Signature) -> Bigraph:
    """The crisp identity bigraph at an interface."""
    from .fuzzy import defuzzify, identity_bigraph
    from .lattice import TWO_POINT

    return defuzzify(identity_bigraph(interface, TWO_POINT, signature))


def _check_renaming(mapping: Mapping[str, str], domain: frozenset[str], what: str):
    extra = set(mapping) - domain
    if extra:
        raise ValueError(f"renaming mentions unknown {what}s: {sorted(extra)}")
    images = [mapping.get(x, x) for x in domain]
    if len(set(images)) != len(images):
        raise ValueError(f"renaming is not injective on {what}s")


def _element_renaming(node_map: Mapping[str, str], edge_map: Mapping[str, str]):
    """The renamings a node and an edge renaming induce on each sort of
    element: nodes, place elements (sites, nodes, roots), points (inner
    names, ports) and link targets (edges, outer names).  Identifiers the
    maps leave out keep their names."""

    def node(v):
        return node_map.get(v, v)

    def place_elem(e):
        return node_map.get(e, e) if isinstance(e, str) else e

    def point(q):
        return (node_map.get(q[0], q[0]), q[1]) if isinstance(q, tuple) else q

    def target(t):
        return edge_map.get(t, t)

    return node, place_elem, point, target


def rename_crisp(
    b: Bigraph,
    node_map: Mapping[str, str] | None = None,
    edge_map: Mapping[str, str] | None = None,
) -> Bigraph:
    """Support translation for crisp bigraphs: explicit, never silent."""
    node_map = dict(node_map or {})
    edge_map = dict(edge_map or {})
    _check_renaming(node_map, b.nodes, "node")
    _check_renaming(edge_map, b.edges, "edge")
    node, place_elem, point, target = _element_renaming(node_map, edge_map)
    nodes = {node(v) for v in b.nodes}
    place = PlaceGraph(
        b.signature,
        b.place.inner,
        b.place.outer,
        nodes,
        {node(v): k for v, k in b.place.ctrl.items()},
        {place_elem(c): place_elem(p) for c, p in b.place.prnt.items()},
    )
    link = LinkGraph(
        b.signature,
        b.link.inner,
        b.link.outer,
        nodes,
        {target(e) for e in b.edges},
        {node(v): k for v, k in b.link.ctrl.items()},
        {point(q): target(t) for q, t in b.link.link.items()},
    )
    return Bigraph(place, link)
