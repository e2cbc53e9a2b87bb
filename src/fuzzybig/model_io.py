"""Model documents: canonical serialization and DOT export.

A document is one frame instance, one signature and any number of named
graphs, stored in a restricted JSON profile (objects, arrays, strings and
plain integers).  Degrees always travel as strings ("3/10" or "0.3") and
are converted to exact values, never floats.  Serialization is canonical:
keys and entry lists are sorted, so equal documents produce identical
bytes and ``parse(serialize(doc)) == doc``.

The DOT export renders the place view (the parent forest, with roots as
dashed containers and sites as shaded leaves) and the link view (the
hypergraph with ports, edges and inner/outer names); fuzzy degrees label
the edges.  Output is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable

from .crisp import (
    Bigraph,
    Interface,
    LinkGraph,
    PlaceGraph,
    Signature,
    validate_bigraph,
    validate_link_graph,
    validate_place_graph,
)
from .errors import ModelError, ParseError, ValidationReport
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    _prnt_domain,
    _require_apart,
    derive_ports,
    validate_fuzzy_bigraph,
    validate_fuzzy_link,
    validate_fuzzy_place,
)
from .lattice import Frame, frame_from_name
from .relations import FuzzyRelation, FuzzySet, _outside, element_sort_key
from .type2 import (
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    type2_ports,
    validate_type2_bigraph,
    validate_type2_link,
    validate_type2_place,
)

FILE_EXTENSION = ".fbg.json"

# The record kind of each graph class, with its validator.  Serialization,
# validation and DOT export find a graph's row by ``isinstance``; ``KINDS``
# lists the kinds in this order.
_KIND_OF = (
    (PlaceGraph, "crisp-place", validate_place_graph),
    (LinkGraph, "crisp-link", validate_link_graph),
    (Bigraph, "crisp-bigraph", validate_bigraph),
    (FuzzyPlaceGraph, "fuzzy-place", validate_fuzzy_place),
    (FuzzyLinkGraph, "fuzzy-link", validate_fuzzy_link),
    (FuzzyBigraph, "fuzzy-bigraph", validate_fuzzy_bigraph),
    (Type2FuzzyPlaceGraph, "type2-place", validate_type2_place),
    (Type2FuzzyLinkGraph, "type2-link", validate_type2_link),
    (Type2FuzzyBigraph, "type2-bigraph", validate_type2_bigraph),
)

KINDS = tuple(kind for _cls, kind, _validator in _KIND_OF)


def _kind_of(graph) -> tuple:
    """A graph's record kind and validator, or ``(None, None)``."""
    for cls, kind, validator in _KIND_OF:
        if isinstance(graph, cls):
            return kind, validator
    return None, None


@dataclass
class ModelDocument:
    """A frame, a signature, and named graphs of any supported kind."""

    frame: Frame
    signature: Signature
    graphs: dict = field(default_factory=dict)

    def graph(self, name: str):
        try:
            return self.graphs[name]
        except KeyError:
            raise ModelError(f"unknown graph {name!r}") from None


# --- decoding helpers ---------------------------------------------------------


class _Fault(Exception):
    """A fault in one item of a list field.  The loop over the list adds the
    item's path, so no path text is built for the items that are fine."""


def _shape(row, message: str) -> str:
    """The fault of a row that is not a list of the expected length."""
    return message if isinstance(row, list) else "expected an array"


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected an object", path)
    return value


def _expect_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected an array", path)
    return value


def _expect_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError("expected a string", path)
    return value


def _expect_nat(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError("expected a natural number", path)
    return value


def _expect_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field {key!r}", path)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}", path)


class _Degrees:
    """The degrees of one ``parse`` call, by their text.

    A model file repeats a handful of degree texts thousands of times, so
    each distinct text goes through the frame's parser once per call.  Only
    texts that parsed are kept: a bad text fails, with the same message, at
    every occurrence.  The table lives for one call only, because the input
    is untrusted and a table kept across calls would grow with every file
    read.  Bottom is stored as the frame's own bottom, so that rows at
    bottom are found by identity.
    """

    __slots__ = ("frame", "known")

    def __init__(self, frame: Frame):
        self.frame = frame
        self.known: dict = {}

    def parse(self, text):
        degree = self.known.get(text) if type(text) is str else None
        if degree is not None:
            return degree
        if not isinstance(text, str):
            raise _Fault("degrees are written as strings, e.g. \"3/10\"")
        try:
            degree = self.frame.parse_degree(text)
        except ValueError as exc:
            raise _Fault(str(exc)) from None
        if degree.is_bottom():
            degree = self.frame.bottom
        self.known[text] = degree
        return degree


def _decode_degree(degrees: _Degrees, value, path: str):
    try:
        return degrees.parse(value)
    except _Fault as fault:
        raise ParseError(str(fault), path) from None


# Row endpoints.  Every endpoint sort accepts a plain string as it stands,
# so the row loops call these only for other values.


def _string(value):
    if not isinstance(value, str):
        raise _Fault("expected a string")
    return value


def _place_elem(value):
    if isinstance(value, bool):
        raise _Fault("booleans are not model elements")
    if isinstance(value, (int, str)):
        return value
    raise _Fault("expected a site/root number or a node identifier")


def _point(value):
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        if (
            len(value) == 2
            and isinstance(value[0], str)
            and isinstance(value[1], int)
            and not isinstance(value[1], bool)
            and value[1] >= 0
        ):
            return (value[0], value[1])
        raise _Fault("a port is written [node, index]")
    raise _Fault("expected an inner name or a port [node, index]")


def _decode_names(value, path: str, what: str = "name") -> frozenset[str]:
    names = _expect_array(value, path)
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ParseError("expected a string", f"{path}[{i}]")
    out = frozenset(names)
    if len(out) != len(names):
        raise ParseError(f"duplicate {what}", path)
    return out


def _decode_ids(value, degrees: _Degrees, path: str) -> frozenset[str]:
    return _decode_names(value, path, "identifier")


def _decode_interface(value, path: str) -> Interface:
    obj = _expect_object(value, path)
    _expect_keys(obj, path, ("width", "names"))
    return Interface(
        _expect_nat(obj["width"], f"{path}.width"),
        _decode_names(obj["names"], f"{path}.names"),
    )


def _decode_crisp_nodes(value, degrees: _Degrees, signature: Signature, path: str):
    rows = _expect_array(value, path)
    ctrl: dict = {}
    try:
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != 2:
                raise _Fault(_shape(row, "a crisp node is written [id, control]"))
            ident, control = _string(row[0]), _string(row[1])
            if ident in ctrl:
                raise _Fault(f"duplicate node {ident!r}")
            if control not in signature.arity:
                raise _Fault(f"unknown control {control!r}")
            ctrl[ident] = control
    except _Fault as fault:
        raise ParseError(str(fault), f"{path}[{i}]") from None
    return frozenset(ctrl), ctrl


def _decode_graded_ids(value, degrees: _Degrees, path: str) -> FuzzySet:
    rows = _expect_array(value, path)
    bottom = degrees.frame.bottom
    entries: dict = {}
    try:
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != 2:
                raise _Fault(_shape(row, "a graded identifier is written [id, degree]"))
            ident = _string(row[0])
            if ident in entries:
                raise _Fault(f"duplicate identifier {ident!r}")
            degree = degrees.parse(row[1])
            if degree is bottom:
                raise _Fault(
                    f"graded identifier {ident!r} has membership bottom; "
                    "list only positive ones"
                )
            entries[ident] = degree
    except _Fault as fault:
        raise ParseError(str(fault), f"{path}[{i}]") from None
    return FuzzySet._trusted(degrees.frame, entries)


def _decode_pairs(value, degrees: _Degrees, decode_a, decode_b, path: str) -> dict:
    rows = _expect_array(value, path)
    out: dict = {}
    try:
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != 2:
                raise _Fault(_shape(row, "expected [from, to]"))
            a, b = row
            if type(a) is not str:
                a = decode_a(a)
            if a in out:
                raise _Fault(f"duplicate entry for {a!r}")
            out[a] = b if type(b) is str else decode_b(b)
    except _Fault as fault:
        raise ParseError(str(fault), f"{path}[{i}]") from None
    return out


def _decode_triples(value, degrees: _Degrees, decode_a, decode_b, path: str) -> dict:
    """Graded rows by their pair, rows at bottom included: the pairs still
    count as duplicates and are checked against the relation's domain."""
    rows = _expect_array(value, path)
    parse_degree = degrees.parse
    out: dict = {}
    try:
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != 3:
                raise _Fault(_shape(row, "expected [from, to, degree]"))
            a, b, text = row
            key = (
                a if type(a) is str else decode_a(a),
                b if type(b) is str else decode_b(b),
            )
            if key in out:
                raise _Fault(f"duplicate entry for {key!r}")
            out[key] = parse_degree(text)
    except _Fault as fault:
        raise ParseError(str(fault), f"{path}[{i}]") from None
    return out


def _relation(frame: Frame, domain, codomain, entries: dict, path: str) -> FuzzyRelation:
    """The relation of decoded graded rows.

    Rows are checked against the domain and codomain in row order, with the
    message :class:`FuzzyRelation` gives, and rows at bottom are dropped.
    """
    bottom = frame.bottom
    at_bottom = False
    for (a, b), degree in entries.items():
        if a not in domain or b not in codomain:
            raise ParseError(str(_outside(a, b)), path)
        if degree is bottom:
            at_bottom = True
    if at_bottom:
        entries = {key: d for key, d in entries.items() if d is not bottom}
    return FuzzyRelation._trusted(frame, domain, codomain, entries)


def _check_place_refs(prnt: dict, nodes: frozenset, path: str) -> None:
    for child, parent in prnt.items():
        for elem in (child, parent):
            if isinstance(elem, str) and elem not in nodes:
                raise ParseError(f"undeclared node {elem!r}", path)


def _check_link_refs(link: dict, nodes, edges, inner, outer, path: str) -> None:
    for point, target in link.items():
        if isinstance(point, tuple):
            if point[0] not in nodes:
                raise ParseError(f"port of undeclared node {point[0]!r}", path)
        elif point not in inner:
            raise ParseError(f"undeclared inner name {point!r}", path)
        if isinstance(target, str) and target not in edges and target not in outer:
            raise ParseError(
                f"link target {target!r} is neither an edge nor an outer name", path
            )


def _check_crisp_refs(fields: dict, path: str) -> None:
    """Crisp constructors accept dangling identifiers; a file may not."""
    if "prnt" in fields:
        _check_place_refs(fields["prnt"], fields["nodes"], f"{path}.prnt")
    if "link" in fields:
        _check_link_refs(
            fields["link"],
            fields["nodes"],
            fields["edges"],
            fields["inner"].names,
            fields["outer"].names,
            f"{path}.link",
        )


def _check_ctrl_refs(ctrl: dict, nodes: frozenset, path: str) -> None:
    for (v, _k) in ctrl:
        if v not in nodes:
            raise ParseError(f"undeclared node {v!r}", f"{path}.ctrl")


# --- graph records --------------------------------------------------------------
#
# The decoder checks every field a record's constructors would check, with
# their messages and in their order, so the graphs are stored through the
# private constructors: nothing is checked twice, and a bigraph's parts share
# one control relation.


def _build_crisp(fl, fields: dict, signature: Signature, frame: Frame, path: str) -> list:
    """Crisp parts from checked fields; their maps are the decoder's own."""
    inner, outer, nodes, ctrl = fields["inner"], fields["outer"], fields["nodes"], fields["ctrl"]
    parts = []
    if "prnt" in fields:
        parts.append(fl.place._trusted(
            signature, inner.width, outer.width, nodes, ctrl, fields["prnt"]
        ))
    if "link" in fields:
        parts.append(fl.link._trusted(
            signature, inner.names, outer.names, nodes, fields["edges"], ctrl, fields["link"]
        ))
    return parts


def _build_graded(fl, fields: dict, signature: Signature, frame: Frame, path: str) -> list:
    """Fuzzy or type-2 parts from decoded fields.  What the constructors
    would still check here -- the relations' domains and the link part's
    disjoint identifiers -- is checked in their order."""
    inner, outer, nodes = fields["inner"], fields["outer"], fields["nodes"]
    node_ids = fl.support(nodes)
    parts = []
    ctrl = None
    if "prnt" in fields:
        ctrl = _relation(frame, node_ids, signature.controls, fields["ctrl"], path)
        prnt = _relation(
            frame, *_prnt_domain(inner.width, outer.width, node_ids), fields["prnt"], path
        )
        degree = [fields[key] for key in fl.place_degree]
        parts.append(fl.place._trusted(
            frame, signature, inner.width, outer.width, nodes, ctrl, prnt, *degree
        ))
    if "link" in fields:
        edges = fields["edges"]
        edge_ids = fl.support(edges)
        try:
            _require_apart(node_ids, edge_ids, outer.names)
        except ValueError as exc:
            raise ParseError(str(exc), path) from None
        if ctrl is None:
            ctrl = _relation(frame, node_ids, signature.controls, fields["ctrl"], path)
        ports = fl.ports(signature, nodes, ctrl)
        link = _relation(
            frame, inner.names | ports, edge_ids | outer.names, fields["link"], path
        )
        degree = [fields[key] for key in fl.link_degree]
        parts.append(fl.link._trusted(
            frame, signature, inner.names, outer.names, nodes, edges, ctrl, link, ports,
            *degree,
        ))
    return parts


# --- encoding -------------------------------------------------------------------
#
# The canonical text is exactly what ``json.dumps(payload, sort_keys=True,
# indent=2, ensure_ascii=False)`` prints for the record layout below.  With
# ``indent`` set, ``json`` runs its pure-Python encoder (``Lib/json/encoder.py``
# uses the C encoder only when ``indent is None``), so the fixed layout is
# written here directly: records sit two levels deep, their fields three, the
# rows of a field four, and a row's items five.


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


def _array(items: list, depth: int) -> str:
    """Encoded items as a JSON array whose brackets sit ``depth`` levels deep."""
    if not items:
        return "[]"
    step = _indent(depth + 1)
    return "[" + step + ("," + step).join(items) + _indent(depth) + "]"


def _object(fields: dict, depth: int) -> str:
    """Encoded values under their keys, in key order, as a JSON object whose
    braces sit ``depth`` levels deep."""
    if not fields:
        return "{}"
    step = _indent(depth + 1)
    members = [f"{encode_basestring(key)}: {value}" for key, value in sorted(fields.items())]
    return "{" + step + ("," + step).join(members) + _indent(depth) + "}"


def _in_key_order(rows: list) -> str:
    """The texts of ``(sort key, ..., row text)`` rows as a field's array,
    in the order ``sorted_items`` gives.  No two rows share their keys, so
    their texts are never compared."""
    rows.sort()
    return _array([row[-1] for row in rows], 3)


_ROW_OPEN, _ROW_SEP, _ROW_CLOSE = "[" + _indent(5), "," + _indent(5), _indent(4) + "]"
_PORT_OPEN, _PORT_SEP, _PORT_CLOSE = "[" + _indent(6), "," + _indent(6), _indent(5) + "]"


class _Writer:
    """Encoded identifiers and degrees for one ``serialize`` call.

    Identifiers recur across a record's fields, and a few degrees across
    all its rows, so each is encoded once per call.  Degrees are looked up
    by identity, because hashing a degree costs more than formatting it;
    each one seen is kept alive with its text, so no identity is reused
    while the call runs.  Only strings are looked up by value: ``1`` and
    ``True`` are equal keys but different JSON.
    """

    def __init__(self):
        self.strings: dict = {}
        self.degrees: dict = {}

    def encode(self, value) -> str:
        """A string, number or ``(node, index)`` port, as JSON in a row."""
        if type(value) is str:
            seen = self.strings.get(value)
            if seen is None:
                seen = self.strings[value] = (
                    element_sort_key(value), encode_basestring(value)
                )
            return seen[1]
        if type(value) is int:
            return int.__repr__(value)
        if type(value) is tuple:
            node, index = self.encode(value[0]), self.encode(value[1])
            return f"{_PORT_OPEN}{node}{_PORT_SEP}{index}{_PORT_CLOSE}"
        return json.dumps(value, ensure_ascii=False)

    def element(self, element) -> tuple:
        """An element's sort key and its JSON text in a row."""
        if type(element) is str:
            seen = self.strings.get(element)
            if seen is not None:
                return seen
        return element_sort_key(element), self.encode(element)

    def degree(self, degree) -> str:
        seen = self.degrees.get(id(degree))
        if seen is None:
            text = self.encode(degree.frame.format_degree(degree))
            seen = self.degrees[id(degree)] = (degree, text)
        return seen[1]

    def names(self, names, depth: int = 3) -> str:
        return _array([self.encode(name) for name in sorted(names)], depth)

    def interface(self, interface: Interface) -> str:
        return _object(
            {"names": self.names(interface.names, 4), "width": self.encode(interface.width)}, 3
        )

    def crisp_nodes(self, nodes, ctrl) -> str:
        """``[node, control]`` rows; nodes are strings, so need no sort key."""
        encode = self.encode
        return _array(
            [f"{_ROW_OPEN}{encode(v)}{_ROW_SEP}{encode(ctrl[v])}{_ROW_CLOSE}" for v in sorted(nodes)],
            3,
        )

    def rows(self, items, write) -> str:
        """``[element, text]`` rows of ``(element, value)`` items, where
        ``write`` gives a value's text: a crisp map's target or a graded
        set's membership."""
        element = self.element
        rows = []
        for x, value in items:
            key, text = element(x)
            rows.append((key, f"{_ROW_OPEN}{text}{_ROW_SEP}{write(value)}{_ROW_CLOSE}"))
        return _in_key_order(rows)

    def relation(self, relation: FuzzyRelation) -> str:
        element, degree = self.element, self.degree
        rows = []
        for (a, b), d in relation.items():
            key_a, text_a = element(a)
            key_b, text_b = element(b)
            rows.append((
                key_a, key_b,
                f"{_ROW_OPEN}{text_a}{_ROW_SEP}{text_b}{_ROW_SEP}{degree(d)}{_ROW_CLOSE}",
            ))
        return _in_key_order(rows)

    def record(self, graph) -> str:
        """One graph record, two levels deep: the fields ``_decode_record``
        reads, from its tables."""
        kind, _validator = _kind_of(graph)
        if kind is None:
            raise TypeError(f"cannot serialize {type(graph).__name__}")
        flavour, _, part = kind.partition("-")
        fl = _FLAVOURS[flavour]
        relations, _decode_interface, write_interface = _PARTS[part]
        edges, place_degree, link_degree, meet_degree = _layout(fl, relations)
        parts = dict(zip(relations, (graph.place, graph.link) if part == "bigraph" else (graph,)))
        place, link = parts.get("prnt"), parts.get("link")
        fields = {
            "kind": self.encode(kind),
            "inner": write_interface(self, graph.inner),
            "outer": write_interface(self, graph.outer),
            "nodes": fl.write_nodes(self, graph.nodes, (place or link).ctrl),
        }
        for key in edges:
            fields[key] = fl.write_edges(self, graph.edges)
        for key in fl.ctrl:
            fields[key] = fl.write_entries(self, graph.ctrl)
        for key, source in parts.items():
            fields[key] = fl.write_entries(self, getattr(source, key))
        for keys, source in ((place_degree, place), (link_degree, link), (meet_degree, graph)):
            for key in keys:
                fields[key] = self.degree(source.degree)
        return _object(fields, 2)


# --- record tables --------------------------------------------------------------


@dataclass(frozen=True)
class _Flavour:
    """How one flavour writes its graph records.

    ``nodes`` decodes the node list into the node set and, for crisp
    records, the control map; graded flavours keep controls in a ``ctrl``
    relation.  ``entries`` decodes a relation field (crisp maps or graded
    triples), ``check_refs`` rejects identifiers the record never declared,
    and ``build`` makes the parts from the decoded fields.  ``support`` and
    ``ports`` give a graded record's identifier sets and ports, and the
    degree fields are the interface degrees of the place and link parts
    and, on a bigraph, their meet.  The ``write_`` fields are the
    writer's side of ``nodes``, ``edges`` and ``entries``.
    """

    nodes: Callable
    edges: Callable
    entries: Callable
    write_nodes: Callable
    write_edges: Callable
    write_entries: Callable
    check_refs: Callable
    build: Callable
    place: type
    link: type
    pair: Callable
    support: Callable | None = None
    ports: Callable | None = None
    ctrl: tuple = ()
    place_degree: tuple = ()
    link_degree: tuple = ()
    meet_degree: tuple = ()


_FLAVOURS = {
    "crisp": _Flavour(
        nodes=_decode_crisp_nodes,
        edges=_decode_ids,
        entries=_decode_pairs,
        write_nodes=_Writer.crisp_nodes,
        write_edges=_Writer.names,
        write_entries=lambda w, mapping: w.rows(mapping.items(), w.encode),
        check_refs=_check_crisp_refs,
        build=_build_crisp,
        place=PlaceGraph,
        link=LinkGraph,
        pair=Bigraph,
    ),
    "fuzzy": _Flavour(
        nodes=lambda value, degrees, signature, path: (_decode_ids(value, degrees, path), None),
        edges=_decode_ids,
        entries=_decode_triples,
        write_nodes=lambda w, nodes, ctrl: w.names(nodes),
        write_edges=_Writer.names,
        write_entries=_Writer.relation,
        check_refs=lambda f, path: _check_ctrl_refs(f["ctrl"], f["nodes"], path),
        build=_build_graded,
        place=FuzzyPlaceGraph,
        link=FuzzyLinkGraph,
        pair=FuzzyBigraph._trusted,
        support=lambda ids: ids,
        ports=lambda signature, nodes, ctrl: derive_ports(signature, ctrl),
        ctrl=("ctrl",),
    ),
    "type2": _Flavour(
        nodes=lambda value, degrees, signature, path: (
            _decode_graded_ids(value, degrees, path),
            None,
        ),
        edges=_decode_graded_ids,
        entries=_decode_triples,
        write_nodes=lambda w, nodes, ctrl: w.rows(nodes.items(), w.degree),
        write_edges=lambda w, edges: w.rows(edges.items(), w.degree),
        write_entries=_Writer.relation,
        check_refs=lambda f, path: _check_ctrl_refs(f["ctrl"], f["nodes"].support, path),
        build=_build_graded,
        place=Type2FuzzyPlaceGraph,
        link=Type2FuzzyLinkGraph,
        pair=Type2FuzzyBigraph._trusted,
        support=lambda fset: fset.support,
        ports=lambda signature, nodes, ctrl: type2_ports(signature, nodes, ctrl),
        ctrl=("ctrl",),
        place_degree=("beta",),
        link_degree=("delta",),
        meet_degree=("gamma",),
    ),
}

# Per part: its relation fields, and how its interfaces are read and written.
_PARTS = {
    "place": (("prnt",), lambda value, path: Interface(_expect_nat(value, path)), _Writer.encode),
    "link": (("link",), lambda value, path: Interface(0, _decode_names(value, path)), _Writer.names),
    "bigraph": (("prnt", "link"), _decode_interface, _Writer.interface),
}

_ENDPOINTS = {
    "ctrl": (_string, _string),
    "prnt": (_place_elem, _place_elem),
    "link": (_point, _string),
}


def _layout(fl: _Flavour, relations: tuple) -> tuple:
    """A record's edges field and its degree fields of the place part, the
    link part and their meet, where it has them."""
    has_place, has_link = "prnt" in relations, "link" in relations
    return (
        ("edges",) if has_link else (),
        fl.place_degree if has_place else (),
        fl.link_degree if has_link else (),
        fl.meet_degree if has_place and has_link else (),
    )


def _decode_record(kind: str, obj: dict, degrees: _Degrees, signature: Signature, path: str):
    """Decode one graph record: the part table says which fields it has,
    the flavour table how each of them is written and what it builds."""
    flavour, _, part = kind.partition("-")
    fl = _FLAVOURS[flavour]
    relations, decode_interface, _write_interface = _PARTS[part]
    edges, place_degree, link_degree, meet_degree = _layout(fl, relations)
    _expect_keys(
        obj,
        path,
        ("kind", "inner", "outer", "nodes", *edges, *fl.ctrl, *relations,
         *place_degree, *link_degree),
        meet_degree,
    )

    def at(key: str) -> str:
        return f"{path}.{key}"

    fields = {
        "inner": decode_interface(obj["inner"], at("inner")),
        "outer": decode_interface(obj["outer"], at("outer")),
    }
    fields["nodes"], fields["ctrl"] = fl.nodes(obj["nodes"], degrees, signature, at("nodes"))
    for key in edges:
        fields[key] = fl.edges(obj[key], degrees, at(key))
    for key in fl.ctrl + relations:
        fields[key] = fl.entries(obj[key], degrees, *_ENDPOINTS[key], at(key))
    fl.check_refs(fields, path)
    for key in place_degree + link_degree:
        fields[key] = _decode_degree(degrees, obj[key], at(key))

    parts = fl.build(fl, fields, signature, degrees.frame, path)
    if len(parts) == 1:
        return parts[0]
    bigraph = fl.pair(*parts)
    for key in meet_degree:
        if key in obj and _decode_degree(degrees, obj[key], at(key)) != bigraph.degree:
            raise ParseError(f"{key} must be the meet of beta and delta", at(key))
    return bigraph


def parse(text: str) -> ModelDocument:
    """Parse a model document; errors carry the path of the offending field.

    Text that ``json`` cannot read -- malformed, nested too deeply for the
    decoder, or holding an integer too long to convert -- is a parse error.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    root = _expect_object(data, "$")
    _expect_keys(root, "$", ("frame", "signature", "graphs"))
    frame_name = _expect_string(root["frame"], "$.frame")
    try:
        frame = frame_from_name(frame_name)
    except ValueError as exc:
        raise ParseError(str(exc), "$.frame") from None
    sig_obj = _expect_object(root["signature"], "$.signature")
    _expect_keys(sig_obj, "$.signature", ("controls",))
    controls = _expect_object(sig_obj["controls"], "$.signature.controls")
    table = {}
    for control, ar in controls.items():
        table[control] = _expect_nat(ar, f"$.signature.controls.{control}")
    signature = Signature(table)
    degrees = _Degrees(frame)
    graphs = {}
    graphs_obj = _expect_object(root["graphs"], "$.graphs")
    for name, record in graphs_obj.items():
        path = f"$.graphs.{name}"
        record = _expect_object(record, path)
        kind = _expect_string(record.get("kind", ""), f"{path}.kind")
        if kind not in KINDS:
            raise ParseError(f"unknown graph kind {kind!r}", f"{path}.kind")
        graphs[name] = _decode_record(kind, record, degrees, signature, path)
    return ModelDocument(frame, signature, graphs)


def serialize(doc: ModelDocument) -> str:
    """Canonical text: sorted keys, sorted entries, LF endings."""
    writer = _Writer()
    controls = {name: writer.encode(ar) for name, ar in doc.signature.arity.items()}
    root = {
        "frame": writer.encode(doc.frame.name),
        "graphs": _object({name: writer.record(g) for name, g in doc.graphs.items()}, 1),
        "signature": _object({"controls": _object(controls, 2)}, 1),
    }
    return _object(root, 0) + "\n"


def load_document(path) -> ModelDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse(text)


def save_document(doc: ModelDocument, path) -> None:
    Path(path).write_text(serialize(doc), encoding="utf-8", newline="\n")


# --- validation dispatch --------------------------------------------------------


def validate_graph(graph, subject: str) -> ValidationReport:
    _kind, validator = _kind_of(graph)
    if validator is None:
        raise TypeError(f"no validator for {type(graph).__name__}")
    return validator(graph, subject=subject)


def validate_document(doc: ModelDocument) -> list[ValidationReport]:
    return [validate_graph(g, name) for name, g in sorted(doc.graphs.items())]


# --- DOT export -----------------------------------------------------------------


def _q(text: str) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_place_crisp(place: PlaceGraph) -> str:
    children: dict = {}
    for child, parent in place.prnt.items():
        key = ("root", parent) if isinstance(parent, int) else ("node", parent)
        children.setdefault(key, []).append(child)

    lines = ["digraph place {"]

    def emit(child, indent: str) -> None:
        if isinstance(child, int):
            lines.append(
                f"{indent}{_q(f'site_{child}')} [label={_q(f'site {child}')}, "
                "shape=box, style=filled, fillcolor=lightgrey];"
            )
            return
        label = f"{child}:{place.ctrl.get(child, '?')}"
        kids = sorted(children.get(("node", child), ()), key=repr)
        if kids:
            lines.append(f"{indent}subgraph {_q(f'cluster_node_{child}')} {{")
            lines.append(f"{indent}  label={_q(label)};")
            lines.append(f"{indent}  style=solid;")
            for kid in kids:
                emit(kid, indent + "  ")
            lines.append(f"{indent}}}")
        else:
            lines.append(f"{indent}{_q(f'node_{child}')} [label={_q(label)}, shape=ellipse];")

    for root in range(place.outer):
        lines.append(f"  subgraph {_q(f'cluster_root_{root}')} {{")
        lines.append(f"    label={_q(f'root {root}')};")
        lines.append("    style=dashed;")
        kids = sorted(children.get(("root", root), ()), key=repr)
        if not kids:
            lines.append(f"    {_q(f'root_{root}_anchor')} [shape=point, style=invis];")
        for kid in kids:
            emit(kid, "    ")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_place_fuzzy(place, type2: bool) -> str:
    frame = place.frame
    nodes = sorted(place.node_support if type2 else place.nodes)
    lines = ["digraph place {"]
    for root in range(place.outer):
        lines.append(
            f"  {_q(f'root_{root}')} [label={_q(f'root {root}')}, shape=box, style=dashed];"
        )
    for site in range(place.inner):
        lines.append(
            f"  {_q(f'site_{site}')} [label={_q(f'site {site}')}, "
            "shape=box, style=filled, fillcolor=lightgrey];"
        )
    for v in nodes:
        label = v
        if type2:
            label = f"{v} ({frame.format_degree(place.nodes.membership(v))})"
        lines.append(f"  {_q(f'node_{v}')} [label={_q(label)}, shape=ellipse];")

    def dot_id(elem, child: bool) -> str:
        if isinstance(elem, int):
            return f"site_{elem}" if child else f"root_{elem}"
        return f"node_{elem}"

    for (child, parent), degree in place.prnt.sorted_items():
        lines.append(
            f"  {_q(dot_id(child, True))} -> {_q(dot_id(parent, False))} "
            f"[label={_q(frame.format_degree(degree))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_link(graph, flavour: str) -> str:
    crisp, type2 = flavour == "crisp", flavour == "type2"
    frame = None if crisp else graph.frame
    nodes = sorted(graph.node_support if type2 else graph.nodes)
    edge_ids = graph.edge_support if type2 else graph.edges

    lines = ["graph link {"]
    for name in sorted(graph.inner):
        lines.append(f"  {_q(f'inner_{name}')} [label={_q(name)}, shape=plaintext];")
    for name in sorted(graph.outer):
        lines.append(f"  {_q(f'outer_{name}')} [label={_q(name)}, shape=plaintext];")
    for v in nodes:
        if crisp:
            label = f"{v}:{graph.ctrl.get(v, '?')}"
        elif type2:
            label = f"{v} ({frame.format_degree(graph.nodes.membership(v))})"
        else:
            label = v
        lines.append(f"  {_q(f'node_{v}')} [label={_q(label)}, shape=ellipse];")
    for e in sorted(edge_ids):
        label = e
        if type2:
            label = f"{e} ({frame.format_degree(graph.edges.membership(e))})"
        lines.append(f"  {_q(f'edge_{e}')} [label={_q(label)}, shape=diamond];")
    ports = sorted(graph.ports)
    for (v, i) in ports:
        pid = f"port_{v}_{i}"
        lines.append(f"  {_q(pid)} [label={_q(f'{v}.{i}')}, shape=point];")
        lines.append(f"  {_q(f'node_{v}')} -- {_q(pid)} [style=dotted];")

    def point_id(q) -> str:
        if isinstance(q, tuple):
            return f"port_{q[0]}_{q[1]}"
        return f"inner_{q}"

    def target_id(t) -> str:
        return f"edge_{t}" if t in edge_ids else f"outer_{t}"

    if crisp:
        rows = sorted(graph.link.items(), key=lambda kv: element_sort_key(kv[0]))
        for q, t in rows:
            lines.append(f"  {_q(point_id(q))} -- {_q(target_id(t))};")
    else:
        for (q, t), degree in graph.link.sorted_items():
            lines.append(
                f"  {_q(point_id(q))} -- {_q(target_id(t))} "
                f"[label={_q(frame.format_degree(degree))}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(doc: ModelDocument, name: str, view: str) -> str:
    """Render one named graph as DOT, in the requested view."""
    graph = doc.graph(name)
    if view not in ("place", "link"):
        raise ModelError(f"unknown view {view!r} (expected place or link)")
    kind, _validator = _kind_of(graph)
    flavour, _, part = (kind or "").partition("-")
    if part == "bigraph":
        graph = getattr(graph, view)
    elif part != view:
        raise ModelError(f"graph {name!r} has no {view} part")
    if view == "link":
        return _dot_link(graph, flavour)
    if flavour == "crisp":
        return _dot_place_crisp(graph)
    return _dot_place_fuzzy(graph, flavour == "type2")
