"""Model documents: canonical serialization and DOT export.

A document is one frame instance, one signature and any number of named
graphs, stored in a restricted JSON profile (objects, arrays, strings and
plain integers).  Degrees always travel as strings ("3/10" or "0.3") and
are converted to exact values, never floats.  Serialization is canonical:
keys and entry lists are sorted, so equal documents produce identical
bytes, and ``parse(serialize(doc)) == doc`` for every document ``serialize``
accepts: it refuses, in the reader's words, what ``parse`` would not read back.

The DOT export renders the place view (the parent forest, with roots as
dashed containers and sites as shaded leaves) and the link view (the
hypergraph with ports, edges and inner/outer names); fuzzy degrees label
the edges.  Output is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .crisp import (
    Bigraph,
    Interface,
    LinkGraph,
    PlaceGraph,
    Signature,
    _is_nat,
    validate_bigraph,
    validate_link_graph,
    validate_place_graph,
)
from .errors import ModelError, ParseError, ValidationReport
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    _ids,
    _prnt_domain,
    _require_apart,
    derive_ports,
    validate_fuzzy_bigraph,
    validate_fuzzy_link,
    validate_fuzzy_place,
)
from .lattice import Frame, frame_from_name
from .relations import FuzzyRelation, FuzzySet, _Union, element_sort_key
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
# validation and DOT export find a graph's row by ``isinstance``, and the
# decoder a record's classes by kind; ``KINDS`` lists the kinds in this order.
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
_CLASS_OF = {kind: cls for cls, kind, _validator in _KIND_OF}


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
    if not _is_nat(value):
        raise ParseError("expected a natural number", path)
    return value


# Place widths and control arities are the fields whose cost does not grow
# with the text: every site or root is an element of the parent relation's
# domain or codomain, and every port of a node one of the link relation's
# domain.  ``fbg validate`` on an empty fuzzy place graph peaks at 16 MB of
# RSS at width 0, 38 MB at 65,536 and 107 MB at 262,144 (Python 3.11), so
# the decoder refuses anything wider than this, and the writer writes
# nothing it would refuse.
_MAX_WIDTH = 65_536


def _expect_width(value, path: str, what: str = "width") -> int:
    width = _expect_nat(value, path)
    if width > _MAX_WIDTH:
        raise ParseError(f"{what} {width} exceeds the limit of {_MAX_WIDTH}", path)
    return width


def _decode_frame(value, path: str) -> Frame:
    try:
        return frame_from_name(_expect_string(value, path))
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


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
    every occurrence.  This is the one table of degree texts, and it lives
    for one call only, because the input is untrusted and a table kept
    across calls would grow with every file read.  The degrees it holds are
    the frame's shared ones, whose table is bounded, so two reads of one
    file share their degree objects while that table has room.  Bottom is
    stored as the frame's own bottom, so that rows and memberships at
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

    def meet(self, texts):
        """The raw meet of the degrees above bottom that the distinct
        ``texts`` name, each parsed once (top if there are none), and
        whether one of them is bottom.  ``None`` if one is no degree text:
        that field is left to its row loop."""
        frame = self.frame
        meet, floor, bottom = frame._meet, frame._top_raw(), frame.bottom
        at_bottom = False
        for text in texts:
            try:
                degree = self.parse(text)
            except _Fault:
                return None
            if degree is bottom:
                at_bottom = True
            else:
                floor = meet(floor, degree.raw)
        return floor, at_bottom

    def membership(self, row):
        """The degree of a graded identifier row, which must be above bottom."""
        degree = self.parse(row[1])
        if degree is self.frame.bottom:
            raise _Fault(f"graded identifier {row[0]!r} has membership bottom; list only positive ones")
        return degree


def _decode_degree(degrees: _Degrees, value, path: str):
    try:
        return degrees.parse(value)
    except _Fault as fault:
        raise ParseError(str(fault), path) from None


# Row endpoints.  The row loop takes a string as it stands (``_end``) and
# calls these for other values: ``_point`` reads a well-formed port, and
# each refuses the rest.  JSON decodes to exact ``str``, ``int`` and
# ``list`` values, so ``type(...) is`` checks suffice.


def _end(decode, value):
    return value if type(value) is str else decode(value)


def _string(value):
    raise _Fault("expected a string")


def _place_elem(value):
    if isinstance(value, bool):
        raise _Fault("booleans are not model elements")
    if isinstance(value, (int, str)):
        return value
    raise _Fault("expected a site/root number or a node identifier")


def _point(value):
    if type(value) is not list:
        raise _Fault("expected an inner name or a port [node, index]")
    if len(value) == 2 and type(value[0]) is str and type(value[1]) is int and value[1] >= 0:
        return tuple(value)
    raise _Fault("a port is written [node, index]")


# --- bulk paths -----------------------------------------------------------------
#
# A clean field is decoded in one comprehension, once set operations, which
# run in C, show that its row loop would read every row and refuse none.  On
# any anomaly the bulk path returns ``None``, and the field goes, unchanged,
# to the row loop, which names the first fault with its path: the loop stays
# the one place that names a fault.  A comprehension over a malformed row
# raises (a row of another length, an unhashable item), and that, too, only
# sends the field to the loop.  The sorts are those of ``_ENDPOINTS``: a port
# is a tuple made by ``_point``'s own test, and other lists are no key.

_MALFORMED = (IndexError, KeyError, TypeError, ValueError)
_SORTS = {_string: {str}, _place_elem: {str, int}, _point: {str, tuple}}


def _bulk_pairs(rows: list, decode_a, decode_b):
    """``[from, to]`` rows as a crisp map whose ends have their sorts."""
    if not {list}.issuperset(map(type, rows)):
        return None
    try:
        if decode_a is _point:
            out = {
                (a if type(a) is str else tuple(a) if type(a) is list and len(a) == 2
                 and type(a[0]) is str and type(a[1]) is int and a[1] >= 0 else None): b
                for a, b in rows
            }
        else:
            out = dict(rows)
    except _MALFORMED:
        return None
    if (len(out) == len(rows) and _SORTS[decode_a].issuperset(map(type, out))
            and _SORTS[decode_b].issuperset(map(type, out.values()))):
        return out
    return None


def _bulk_triples(rows: list, degrees: _Degrees, decode_a, within):
    """Graded rows as the relation that a graph constructor builds from
    them, when it would refuse none: every pair lies in the relation's
    domain and codomain, and none repeats.  Rows at bottom pass those
    checks, and are then dropped, as the constructor drops them (normal
    form).  The relation keeps the meet of its degrees as its floor.

    ``within`` holds the domain and codomain, or for parent rows the node
    identifiers and the place widths that make them.  Membership proves an
    element's sort, since a JSON value equal to a string or a port is one;
    ``true`` and ``1.0`` equal 1, so sites and roots are tested as ``int``
    values below their widths, and a port index is tested as an ``int``.
    """
    if within is None:
        return None
    try:  # ``list.__getitem__`` refuses a row that is no list
        met = degrees.meet(set(map(list.__getitem__, rows, repeat(2))))
        if met is None:
            return None
        known = degrees.known
        if decode_a is _place_elem:
            nodes, inner, outer = within
            entries = {
                (a, b): known[t] for a, b, t in rows
                if (a in nodes or type(a) is int and 0 <= a < inner)
                and (b in nodes or type(b) is int and 0 <= b < outer)
            }
            domain, codomain = _prnt_domain(inner, outer, nodes)
        elif decode_a is _point:
            domain, codomain = within
            entries = {
                (a if type(a) is str else tuple(a) if type(a[1]) is int else None, b): known[t]
                for a, b, t in rows
            }
            if not (domain.issuperset(map(itemgetter(0), entries))
                    and codomain.issuperset(map(itemgetter(1), entries))):
                return None
        else:
            domain, codomain = within
            entries = {(a, b): known[t] for a, b, t in rows if a in domain and b in codomain}
    except _MALFORMED:
        return None
    if len(entries) != len(rows):  # a pair outside the sets, or one repeated
        return None
    floor, at_bottom = met
    if at_bottom:
        bottom = degrees.frame.bottom
        entries = {key: d for key, d in entries.items() if d is not bottom}
    return FuzzyRelation._trusted(degrees.frame, domain, codomain, entries, floor)


def _bulk_graded_ids(rows: list, degrees: _Degrees):
    """``[id, degree]`` rows as the fuzzy set they list, its floor kept.  A
    membership at bottom is a fault, which the row loop names."""
    try:  # ``list.__getitem__`` refuses a row that is no list
        met = degrees.meet(set(map(list.__getitem__, rows, repeat(1))))
        if met is None or met[1]:
            return None
        floor = met[0]
        known = degrees.known
        entries = {ident: known[t] for ident, t in rows}
    except _MALFORMED:
        return None
    if len(entries) == len(rows) and {str}.issuperset(map(type, entries)):
        return FuzzySet._trusted(degrees.frame, entries, floor)
    return None


# --- row decoders: the bulk path, else the row loop ----------------------------


def _decode_names(value, path: str, what: str = "name") -> frozenset[str]:
    names = _expect_array(value, path)
    if not {str}.issuperset(map(type, names)):
        _walk_names(names, path)
    out = frozenset(names)
    if len(out) != len(names):
        raise ParseError(f"duplicate {what}", path)
    return out


def _walk_names(names: list, path: str) -> None:
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ParseError("expected a string", f"{path}[{i}]")


def _decode_ids(value, degrees: _Degrees, path: str) -> frozenset[str]:
    return _decode_names(value, path, "identifier")


def _decode_interface(value, path: str) -> Interface:
    obj = _expect_object(value, path)
    _expect_keys(obj, path, ("width", "names"))
    return Interface(
        _expect_width(obj["width"], f"{path}.width"),
        _decode_names(obj["names"], f"{path}.names"),
    )


def _walk(rows: list, path: str, size: int, shape: str, key, duplicate: str, value) -> dict:
    """The row loop: rows of ``size`` items as a dict from ``key(row)`` to
    ``value(row)``, no key repeated.  The readers refuse a row by raising
    ``_Fault``, and the first fault met is named at its row's path."""
    out: dict = {}
    try:
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != size:
                raise _Fault(shape if type(row) is list else "expected an array")
            k = key(row)
            if k in out:
                raise _Fault(f"duplicate {duplicate} {k!r}")
            out[k] = value(row)
    except _Fault as fault:
        raise ParseError(str(fault), f"{path}[{i}]") from None
    return out


def _crisp_node(row) -> str:
    if type(row[0]) is not str or type(row[1]) is not str:
        raise _Fault("expected a string")
    return row[0]


def _decode_crisp_nodes(value, degrees: _Degrees, signature: Signature, path: str):
    rows = _expect_array(value, path)
    ctrl = _bulk_pairs(rows, _string, _string)
    if ctrl is None or not signature.controls.issuperset(ctrl.values()):

        def control(row) -> str:
            if row[1] not in signature.arity:
                raise _Fault(f"unknown control {row[1]!r}")
            return row[1]

        ctrl = _walk(rows, path, 2, "a crisp node is written [id, control]", _crisp_node, "node", control)
    return frozenset(ctrl), ctrl


def _decode_graded_ids(value, degrees: _Degrees, path: str) -> FuzzySet:
    rows = _expect_array(value, path)
    fset = _bulk_graded_ids(rows, degrees)
    if fset is None:
        entries = _walk(rows, path, 2, "a graded identifier is written [id, degree]",
                        lambda row: _end(_string, row[0]), "identifier", degrees.membership)
        fset = FuzzySet(degrees.frame, entries)
    return fset


def _decode_pairs(value, degrees: _Degrees, decode_a, decode_b, path: str) -> dict:
    rows = _expect_array(value, path)
    out = _bulk_pairs(rows, decode_a, decode_b)
    if out is None:
        out = _walk(rows, path, 2, "expected [from, to]", lambda row: _end(decode_a, row[0]),
                    "entry for", lambda row: _end(decode_b, row[1]))
    return out


def _decode_triples(value, degrees: _Degrees, decode_a, decode_b, path: str, within=None):
    """A graded field as its relation where the bulk path builds it;
    otherwise its rows by their pair, rows at bottom included, for the
    graph constructor to check: their pairs still count as duplicates, and
    are checked against the relation's domain."""
    rows = _expect_array(value, path)
    relation = _bulk_triples(rows, degrees, decode_a, within)
    if relation is None:
        relation = _walk(rows, path, 3, "expected [from, to, degree]",
                         lambda row: (_end(decode_a, row[0]), _end(decode_b, row[1])),
                         "entry for", lambda row: degrees.parse(row[2]))
    return relation


def _place_refs_hold(prnt, nodes: frozenset) -> bool:
    # Sites and roots are the ``int`` elements outside the node set.
    return {int}.issuperset(map(type, (prnt.keys() | prnt.values()) - nodes))


def _link_refs_hold(link, nodes, edges, inner, outer) -> bool:
    ports = link.keys() - inner  # every point outside the inner names is a port
    return (
        {tuple}.issuperset(map(type, ports)) and nodes.issuperset(map(itemgetter(0), ports))
        and not set(link.values()).difference(edges, outer)
    )


def _check_place_refs(prnt: dict, nodes: frozenset, path: str) -> None:
    if _place_refs_hold(prnt, nodes):
        return
    for child, parent in prnt.items():
        for elem in (child, parent):
            if isinstance(elem, str) and elem not in nodes:
                raise ParseError(f"undeclared node {elem!r}", path)


def _check_link_refs(link: dict, nodes, edges, inner, outer, path: str) -> None:
    if _link_refs_hold(link, nodes, edges, inner, outer):
        return
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


def _check_crisp_refs(nodes: frozenset, parts: dict, path: str) -> None:
    """Crisp parts, under ``prnt`` and ``link``, may hold dangling identifiers;
    a file may not.  The refs checks find a fault by set operations, which run
    in C, and only then walk the rows in order, to name the one met first."""
    if "prnt" in parts:
        _check_place_refs(parts["prnt"].prnt, nodes, f"{path}.prnt")
    if "link" in parts:
        link = parts["link"]
        _check_link_refs(link.link, nodes, link.edges, link.inner, link.outer, f"{path}.link")


def _check_ctrl_refs(ctrl: dict, nodes: frozenset, path: str) -> None:
    if nodes.issuperset(map(itemgetter(0), ctrl)):
        return
    for (v, _k) in ctrl:
        if v not in nodes:
            raise ParseError(f"undeclared node {v!r}", f"{path}.ctrl")


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


def _in_key_order(rows: list) -> list:
    """The texts of ``(sort key, ..., row text)`` rows, in the order
    ``sorted_items`` gives.  No two rows share their keys, so their texts
    are never compared."""
    rows.sort()
    return [row[-1] for row in rows]


def _refused(check, *args):
    """A check of the reader's, run on what the writer is given: a fault
    ``parse`` would find is refused in the reader's own words."""
    try:
        return check(*args)
    except ParseError as exc:
        raise ValueError(f"cannot serialize: {exc.message}") from None


_ROW_OPEN, _ROW_SEP, _ROW_CLOSE = "[" + _indent(5), "," + _indent(5), _indent(4) + "]"
_PORT_OPEN, _PORT_SEP, _PORT_CLOSE = "[" + _indent(6), "," + _indent(6), _indent(5) + "]"


class _Writer:
    """Encoded identifiers and degrees for one ``serialize`` call.

    Identifiers recur across a record's fields, and a few degrees across
    all its rows, so each is encoded once per call, and the row loops read
    both tables themselves.  Degrees are looked up by identity, because
    hashing a degree costs more than formatting it; frames share their
    degrees, so the table holds about one entry per distinct degree.  Each
    one seen is kept alive, so no identity is reused while the call runs.
    Only strings are looked up by value: ``1`` and ``True`` are equal keys
    but different JSON, and ``("v", 1)`` and ``("v", True)`` equal ports.
    A DOT export labels its rows from the degree table too: the frames
    write degrees in digits and ``/``, which need no escape, so a degree's
    JSON string is its DOT label.
    """

    def __init__(self):
        self.strings: dict = {}  # string -> (sort key, JSON text)
        self.degrees: dict = {}  # id(degree) -> JSON text
        self.kept: list = []

    def element(self, element) -> tuple:
        """An element's sort key and its JSON text in a row, for an element
        the string table does not hold yet.  A port is written in place,
        and only as ``parse`` reads it back: a node identifier and a
        natural-number index."""
        if type(element) is str:
            made = self.strings[element] = ((1, element, 0, 0), encode_basestring(element))
            return made
        if type(element) is tuple and len(element) == 2:
            node, index = element
            if type(node) is not str or type(index) is not int or index < 0:
                raise ValueError(f"cannot serialize: port {element!r} is not "
                                 "a node identifier and a natural-number index")
            text = (self.strings.get(node) or self.element(node))[1]
            return (2, node, 0, index), f"{_PORT_OPEN}{text}{_PORT_SEP}{index}{_PORT_CLOSE}"
        text = self.encode(element)  # first, to refuse what parse would
        return element_sort_key(element), text

    def encode(self, value) -> str:
        """A string, integer or ``(node, index)`` port, as JSON in a row;
        ``parse`` reads no other value back (``None``, a float, a bool)."""
        if type(value) is str or type(value) is tuple and len(value) == 2:
            return (self.strings.get(value) or self.element(value))[1]
        if type(value) is int:
            return int.__repr__(value)
        raise ValueError(f"cannot serialize: {value!r} is not a string, an integer or a port")

    def degree(self, degree) -> str:
        text = self.degrees.get(id(degree))
        if text is None:
            text = self.degrees[id(degree)] = self.encode(degree.frame.format_degree(degree))
            self.kept.append(degree)
        return text

    def names(self, names, depth: int = 3) -> str:
        return _array([self.encode(name) for name in sorted(names)], depth)

    def width(self, width: int, what: str = "width") -> str:
        """A place width or a control arity, which ``parse`` must read back."""
        return self.encode(_refused(_expect_width, width, "$", what))

    def interface(self, width: int, names) -> str:
        return _object({"names": self.names(names, 4), "width": self.width(width)}, 3)

    def crisp_nodes(self, nodes, part) -> str:
        """``[node, control]`` rows of a crisp ``part``; nodes are strings,
        so need no sort key.

        A node with no control, or with one the part's signature lacks (the
        public crisp constructors accept both), has no row ``parse`` reads
        back, and raises ``ValueError`` naming it.
        """
        encode, ctrl = self.encode, part.ctrl
        try:
            rows = [
                f"{_ROW_OPEN}{encode(v)}{_ROW_SEP}{encode(ctrl[v])}{_ROW_CLOSE}"
                for v in sorted(nodes)
            ]
        except KeyError:
            v = min(v for v in nodes if v not in ctrl)
            raise ValueError(
                f"cannot serialize: control map is not total: node {v!r} has no control"
            ) from None
        if not part.signature.arity.keys() >= {ctrl[v] for v in nodes}:
            v = min(v for v in nodes if ctrl[v] not in part.signature.arity)
            raise ValueError(
                f"cannot serialize: node {v!r} has control {ctrl[v]!r}, which the signature lacks"
            )
        return _array(rows, 3)

    def rows(self, items, write) -> str:
        """``[element, text]`` rows of ``(element, value)`` items, where
        ``write`` gives a value's text: a crisp map's target or a graded
        set's membership."""
        strings, element = self.strings, self.element
        rows = []
        for x, value in items:
            key, text = strings.get(x) or element(x)
            rows.append((key, f"{_ROW_OPEN}{text}{_ROW_SEP}{write(value)}{_ROW_CLOSE}"))
        return _array(_in_key_order(rows), 3)

    def relation(self, relation: FuzzyRelation) -> str:
        strings, degrees, element = self.strings, self.degrees, self.element
        rows = []
        for (a, b), d in relation.items():
            key_a, text_a = strings.get(a) or element(a)
            key_b, text_b = strings.get(b) or element(b)
            text_d = degrees.get(id(d)) or self.degree(d)
            rows.append((
                key_a, key_b,
                f"{_ROW_OPEN}{text_a}{_ROW_SEP}{text_b}{_ROW_SEP}{text_d}{_ROW_CLOSE}",
            ))
        return _array(_in_key_order(rows), 3)

    def record(self, graph, doc: ModelDocument) -> str:
        """One graph record, two levels deep: the fields ``_decode_record``
        reads, from its tables.  ``parse`` reads it over the document's frame
        and signature, and a crisp bigraph's parts from one node list."""
        kind, _validator = _kind_of(graph)
        if kind is None:
            raise TypeError(f"cannot serialize {type(graph).__name__}")
        flavour, _, part = kind.partition("-")
        fl = _FLAVOURS[flavour]
        relations, _decode_interface, write_interface = _PARTS[part]
        edges, place_degree, link_degree, meet_degree = _layout(fl, relations)
        parts = dict(zip(relations, (graph.place, graph.link) if part == "bigraph" else (graph,)))
        place, link = parts.get("prnt"), parts.get("link")
        if fl.ctrl and graph.frame != doc.frame:
            raise ValueError(f"cannot serialize: a graph over {graph.frame.name} in a "
                             f"document over {doc.frame.name}")
        if any(p.signature != doc.signature for p in parts.values()):
            raise ValueError("cannot serialize: a graph whose signature is not the document's")
        if not fl.ctrl and place and link and (place.nodes, place.ctrl) != (link.nodes, link.ctrl):
            raise ValueError("cannot serialize: place and link parts disagree on nodes or controls")
        # A crisp graph whose refs hold has ends of the sorts ``parse`` reads
        # back, so each map is walked once, to write its rows.  Otherwise the
        # refusals come in their order: each map's sorts as it is written,
        # then the refs.
        checked = bool(fl.ctrl) or _refs_hold(graph.nodes, parts, (place or link).ctrl)
        fields = {
            "kind": self.encode(kind),
            "inner": write_interface(self, *[p.inner for p in parts.values()]),
            "outer": write_interface(self, *[p.outer for p in parts.values()]),
            "nodes": fl.write_nodes(self, graph.nodes, place or link),
        }
        for key in edges:
            fields[key] = fl.write_edges(self, graph.edges)
        for key in fl.ctrl:
            fields[key] = fl.write_entries(self, graph.ctrl, key, checked)
        for key, source in parts.items():
            fields[key] = fl.write_entries(self, getattr(source, key), key, checked)
        for keys, source in ((place_degree, place), (link_degree, link), (meet_degree, graph)):
            for key in keys:
                fields[key] = self.degree(source.degree)
        if not checked:
            _refused(_check_crisp_refs, graph.nodes, parts, "$")
            _refused(_check_ctrl_refs, (place or link).ctrl.items(), graph.nodes, "$")
        return _object(fields, 2)


def _refs_hold(nodes: frozenset, parts: dict, ctrl) -> bool:
    """Whether the set operations of the reader's refs checks pass on a
    crisp graph's maps.  Then every end of a parent row is a node or an
    ``int``, every point of a link row an inner name or a tuple, and every
    target a string: no end is of a sort ``_write_crisp_map`` refuses."""
    place, link = parts.get("prnt"), parts.get("link")
    try:
        return bool(
            (place is None or _place_refs_hold(place.prnt, nodes))
            and (link is None or _link_refs_hold(link.link, nodes, link.edges, link.inner, link.outer))
            and nodes.issuperset(map(itemgetter(0), ctrl.items()))
        )
    except (IndexError, TypeError):  # an empty tuple, or an end no set holds
        return False


def _write_crisp_map(w: _Writer, mapping, key: str, checked: bool) -> str:
    """A crisp map's rows.  An int or a port is written only where ``parse``
    reads it back: the reader's decoder for its end of a ``key`` row takes
    it (``_ENDPOINTS``), and only ``_point`` takes a port, from its list.
    A ``checked`` map's ends are known to be of those sorts."""
    ends = () if checked else zip(_ENDPOINTS[key], (mapping, mapping.values()))
    for decode, side in ends:
        for x in side:
            if type(x) is int or type(x) is tuple and decode is not _point:
                try:
                    decode(x)
                except _Fault as fault:
                    raise ValueError(f"cannot serialize: {key} row holds {x!r}: {fault}") from None
    return w.rows(mapping.items(), w.encode)


# --- record tables --------------------------------------------------------------


@dataclass(frozen=True)
class _Flavour:
    """How one flavour writes its graph records.

    ``nodes`` decodes the node list into the node set and, for crisp
    records, the control map; graded flavours keep controls in a ``ctrl``
    relation.  ``entries`` decodes a relation field (crisp maps or graded
    triples), and ``ports`` is a graded link part's port rule.  The degree
    fields are the interface degrees of the place and link parts and, on a
    bigraph, their meet.  The ``write_`` fields are the writer's side of
    ``nodes``, ``edges`` and ``entries``.
    """

    nodes: Callable
    edges: Callable
    entries: Callable
    write_nodes: Callable
    write_edges: Callable
    write_entries: Callable
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
        write_entries=_write_crisp_map,
    ),
    "fuzzy": _Flavour(
        nodes=lambda value, degrees, signature, path: (_decode_ids(value, degrees, path), None),
        edges=_decode_ids,
        entries=_decode_triples,
        write_nodes=lambda w, nodes, _part: w.names(nodes),
        write_edges=_Writer.names,
        write_entries=lambda w, relation, _key, _checked: w.relation(relation),
        ports=lambda signature, _nodes, ctrl: derive_ports(signature, ctrl),
        ctrl=("ctrl",),
    ),
    "type2": _Flavour(
        nodes=lambda value, degrees, signature, path: (
            _decode_graded_ids(value, degrees, path),
            None,
        ),
        edges=_decode_graded_ids,
        entries=_decode_triples,
        write_nodes=lambda w, nodes, _part: w.rows(nodes.items(), w.degree),
        write_edges=lambda w, edges: w.rows(edges.items(), w.degree),
        write_entries=lambda w, relation, _key, _checked: w.relation(relation),
        ports=type2_ports,
        ctrl=("ctrl",),
        place_degree=("beta",),
        link_degree=("delta",),
        meet_degree=("gamma",),
    ),
}

# Per part: its relation fields, and how its interfaces are read and written.
_PARTS = {
    "place": (("prnt",), lambda value, path: Interface(_expect_width(value, path)), _Writer.width),
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
    the flavour table how each of them is written, and the kind table which
    classes it builds."""
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
    inner, outer, nodes = fields["inner"], fields["outer"], fields["nodes"]
    node_ids = _ids(nodes)
    # What a graded field's pairs must lie in, as its constructor derives it
    # (see ``_bulk_triples``): the link part's ports follow from the control
    # relation, once the bulk path built it.  That relation names only the
    # signature's controls, and a file's frame is a chain, on which the
    # type-2 port rule always finds the join; so neither rule refuses it.
    within = {"ctrl": (node_ids, signature.controls), "prnt": (node_ids, inner.width, outer.width)}
    for key in fl.ctrl + relations:
        if key == "link" and isinstance(fields["ctrl"], FuzzyRelation):
            ports = fl.ports(signature, nodes, fields["ctrl"])
            within["link"] = _Union((inner.names, ports)), _Union((_ids(fields["edges"]), outer.names))
        sets = (within.get(key),) if fl.ctrl else ()
        fields[key] = fl.entries(obj[key], degrees, *_ENDPOINTS[key], at(key), *sets)
    if fl.ctrl and not isinstance(fields["ctrl"], FuzzyRelation):  # it may name an undeclared node
        _check_ctrl_refs(fields["ctrl"], node_ids, path)
    for key in place_degree + link_degree:
        fields[key] = _decode_degree(degrees, obj[key], at(key))

    # Crisp parts are wrapped as they stand, each with its own control map:
    # their constructors would only re-freeze and copy what the decoder
    # built.  So is a graded record all of whose relations the bulk path
    # built: the decoder has made every check of its constructors but the
    # link part's ``_require_apart``.  Any other graded record went to a row
    # loop, so holds a fault; it goes whole through the checked
    # constructors, which name it.  A bigraph's link part takes the place
    # part's control relation as it stands.
    wrap = not fl.ctrl or all(isinstance(fields[key], FuzzyRelation) for key in fl.ctrl + relations)
    head = (degrees.frame, signature) if fl.ctrl else (signature,)
    place_cls, link_cls = _CLASS_OF[f"{flavour}-place"], _CLASS_OF[f"{flavour}-link"]
    ctrl = fields["ctrl"]
    parts = []
    try:
        if "prnt" in fields:
            parts.append((place_cls._trusted if wrap else place_cls)(
                *head, inner.width, outer.width, nodes, ctrl, fields["prnt"],
                *[fields[key] for key in place_degree],
            ))
            ctrl = parts[0].ctrl if fl.ctrl else dict(ctrl)
        if "link" in fields:
            args = [*head, inner.names, outer.names, nodes, fields["edges"], ctrl, fields["link"]]
            if wrap and fl.ctrl:
                _require_apart(node_ids, _ids(fields["edges"]), outer.names)
                args.append(ports)
            args += [fields[key] for key in link_degree]
            parts.append((link_cls._trusted if wrap else link_cls)(*args))
        if not fl.ctrl:
            _check_crisp_refs(nodes, dict(zip(relations, parts)), path)
        if len(parts) == 1:
            return parts[0]
        bigraph = (_CLASS_OF[kind]._trusted if wrap and fl.ctrl else _CLASS_OF[kind])(*parts)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None
    for key in meet_degree:
        if key in obj and _decode_degree(degrees, obj[key], at(key)) != bigraph.degree:
            raise ParseError(f"{key} must be the meet of beta and delta", at(key))
    return bigraph


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice, which ``json``
    would otherwise resolve silently to its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} repeats in one object")
            seen.add(key)
    return obj


def parse(text: str) -> ModelDocument:
    """Parse a model document; errors carry the path of the offending field.

    Text that ``json`` cannot read -- malformed, nested too deeply for the
    decoder, holding an integer too long to convert, or repeating a key in
    one object -- is a parse error.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    root = _expect_object(data, "$")
    _expect_keys(root, "$", ("frame", "signature", "graphs"))
    frame = _decode_frame(root["frame"], "$.frame")
    sig_obj = _expect_object(root["signature"], "$.signature")
    _expect_keys(sig_obj, "$.signature", ("controls",))
    controls = _expect_object(sig_obj["controls"], "$.signature.controls")
    table = {}
    for control, ar in controls.items():
        table[control] = _expect_width(ar, f"$.signature.controls.{control}", "arity")
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
    for name in doc.graphs:  # JSON writes a graph's name as an object key
        if not isinstance(name, str):
            raise ValueError(f"cannot serialize: graph name {name!r} is not a string")
    controls = {name: writer.width(ar, "arity") for name, ar in doc.signature.arity.items()}
    root = {
        "frame": writer.encode(_refused(_decode_frame, doc.frame.name, "$").name),
        "graphs": _object({name: writer.record(g, doc) for name, g in doc.graphs.items()}, 1),
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
    for root in range(place.outer):
        lines.append(f"  subgraph {_q(f'cluster_root_{root}')} {{")
        lines.append(f"    label={_q(f'root {root}')};")
        lines.append("    style=dashed;")
        kids = sorted(children.get(("root", root), ()), key=repr)
        if not kids:
            lines.append(f"    {_q(f'root_{root}_anchor')} [shape=point, style=invis];")
        for kid in kids:
            _emit_crisp_place(lines, place, children, kid, "    ")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_crisp_place(lines: list, place: PlaceGraph, children: dict, child, indent: str) -> None:
    # A module-level function, not a closure that calls itself: such a
    # closure is a reference cycle, and would hold ``lines`` until the
    # cyclic collector ran.
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
            _emit_crisp_place(lines, place, children, kid, indent + "  ")
        lines.append(f"{indent}}}")
    else:
        lines.append(f"{indent}{_q(f'node_{child}')} [label={_q(label)}, shape=ellipse];")


class _DotIds(dict):
    """Sort keys and quoted DOT ids of link points or targets.  The export
    fills in the elements its declaration lines quote; an element no line
    declared (a crisp link may name a port beyond its node's arity, or a
    target that is no edge or outer name) gets both on its first use."""

    def __init__(self, name_of: Callable, key_of: Callable):
        super().__init__()
        self.name_of, self.key_of = name_of, key_of

    def __missing__(self, element) -> tuple:
        made = self[element] = (self.key_of(element), _q(self.name_of(element)))
        return made


def _dot_place_fuzzy(place, type2: bool) -> str:
    frame = place.frame
    nodes = sorted(place.node_support if type2 else place.nodes)
    # The parent relation relates sites and nodes to roots and nodes, so
    # its every row names elements declared below, by sort key and id.
    children: dict = {}
    parents: dict = {}
    lines = ["digraph place {"]
    for root in range(place.outer):
        _key, root_id = parents[root] = ((0, "", root, 0), _q(f"root_{root}"))
        lines.append(f"  {root_id} [label={_q(f'root {root}')}, shape=box, style=dashed];")
    for site in range(place.inner):
        _key, site_id = children[site] = ((0, "", site, 0), _q(f"site_{site}"))
        lines.append(
            f"  {site_id} [label={_q(f'site {site}')}, "
            "shape=box, style=filled, fillcolor=lightgrey];"
        )
    for v in nodes:
        _key, node_id = parents[v] = children[v] = ((1, v, 0, 0), _q(f"node_{v}"))
        label = v
        if type2:
            label = f"{v} ({frame.format_degree(place.nodes.membership(v))})"
        lines.append(f"  {node_id} [label={_q(label)}, shape=ellipse];")

    writer = _Writer()
    labels = writer.degrees
    rows = [
        (children[c][0], parents[p][0], f"  {children[c][1]} -> {parents[p][1]} "
         f"[label={labels.get(id(d)) or writer.degree(d)}];")
        for (c, p), d in place.prnt.items()
    ]
    lines += _in_key_order(rows)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_link(graph, flavour: str) -> str:
    crisp, type2 = flavour == "crisp", flavour == "type2"
    frame = None if crisp else graph.frame
    nodes = sorted(graph.node_support if type2 else graph.nodes)
    edge_ids = graph.edge_support if type2 else graph.edges
    points = _DotIds(
        lambda q: f"port_{q[0]}_{q[1]}" if isinstance(q, tuple) else f"inner_{q}",
        element_sort_key,
    )
    # Only a crisp link names undeclared targets, and its rows sort by point.
    targets = _DotIds(lambda t: f"edge_{t}" if t in edge_ids else f"outer_{t}", lambda t: None)
    node_ids: dict = {}

    lines = ["graph link {"]
    for name in sorted(graph.inner):
        _key, inner_id = points[name] = ((1, name, 0, 0), _q(f"inner_{name}"))
        lines.append(f"  {inner_id} [label={_q(name)}, shape=plaintext];")
    # an outer name that is also an edge (a crisp graph may have one) is
    # linked to as the edge
    for name in sorted(graph.outer):
        _key, outer_id = targets[name] = ((1, name, 0, 0), _q(f"outer_{name}"))
        lines.append(f"  {outer_id} [label={_q(name)}, shape=plaintext];")
    for v in nodes:
        if crisp:
            label = f"{v}:{graph.ctrl.get(v, '?')}"
        elif type2:
            label = f"{v} ({frame.format_degree(graph.nodes.membership(v))})"
        else:
            label = v
        node_id = node_ids[v] = _q(f"node_{v}")
        lines.append(f"  {node_id} [label={_q(label)}, shape=ellipse];")
    for e in sorted(edge_ids):
        label = e
        if type2:
            label = f"{e} ({frame.format_degree(graph.edges.membership(e))})"
        _key, edge_id = targets[e] = ((1, e, 0, 0), _q(f"edge_{e}"))
        lines.append(f"  {edge_id} [label={_q(label)}, shape=diamond];")
    for port in sorted(graph.ports):
        v, i = port
        _key, port_id = points[port] = ((2, v, 0, i), _q(f"port_{v}_{i}"))
        lines.append(f"  {port_id} [label={_q(f'{v}.{i}')}, shape=point];")
        lines.append(f"  {node_ids[v]} -- {port_id} [style=dotted];")

    if crisp:
        rows = [(points[q][0], f"  {points[q][1]} -- {targets[t][1]};") for q, t in graph.link.items()]
    else:
        writer = _Writer()
        labels = writer.degrees
        rows = [
            (points[q][0], targets[t][0], f"  {points[q][1]} -- {targets[t][1]} "
             f"[label={labels.get(id(d)) or writer.degree(d)}];")
            for (q, t), d in graph.link.items()
        ]
    lines += _in_key_order(rows)
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
