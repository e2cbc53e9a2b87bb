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
    validate_fuzzy_bigraph,
    validate_fuzzy_link,
    validate_fuzzy_place,
)
from .lattice import Frame, frame_from_name
from .relations import FuzzySet, element_sort_key
from .type2 import (
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    validate_type2_bigraph,
    validate_type2_link,
    validate_type2_place,
)

FILE_EXTENSION = ".fbg.json"

KINDS = (
    "crisp-place",
    "crisp-link",
    "crisp-bigraph",
    "fuzzy-place",
    "fuzzy-link",
    "fuzzy-bigraph",
    "type2-place",
    "type2-link",
    "type2-bigraph",
)


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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelDocument)
            and self.frame == other.frame
            and self.signature == other.signature
            and self.graphs == other.graphs
        )


# --- decoding helpers ---------------------------------------------------------


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


def _decode_degree(frame: Frame, value, path: str):
    if not isinstance(value, str):
        raise ParseError("degrees are written as strings, e.g. \"3/10\"", path)
    try:
        return frame.parse_degree(value)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def _decode_place_elem(value, path: str):
    if isinstance(value, bool):
        raise ParseError("booleans are not model elements", path)
    if isinstance(value, (int, str)):
        return value
    raise ParseError("expected a site/root number or a node identifier", path)


def _decode_point(value, path: str):
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
        raise ParseError("a port is written [node, index]", path)
    raise ParseError("expected an inner name or a port [node, index]", path)


def _encode_elem(element):
    if isinstance(element, tuple):
        return [element[0], element[1]]
    return element


def _decode_names(value, path: str, what: str = "name") -> frozenset[str]:
    names = _expect_array(value, path)
    out = []
    for i, name in enumerate(names):
        out.append(_expect_string(name, f"{path}[{i}]"))
    if len(set(out)) != len(out):
        raise ParseError(f"duplicate {what}", path)
    return frozenset(out)


def _decode_ids(value, frame: Frame, path: str) -> frozenset[str]:
    return _decode_names(value, path, "identifier")


def _decode_interface(value, path: str) -> Interface:
    obj = _expect_object(value, path)
    _expect_keys(obj, path, ("width", "names"))
    return Interface(
        _expect_nat(obj["width"], f"{path}.width"),
        _decode_names(obj["names"], f"{path}.names"),
    )


def _decode_crisp_nodes(value, frame: Frame, signature: Signature, path: str):
    rows = _expect_array(value, path)
    nodes, ctrl = [], {}
    for i, row in enumerate(rows):
        rp = f"{path}[{i}]"
        row = _expect_array(row, rp)
        if len(row) != 2:
            raise ParseError("a crisp node is written [id, control]", rp)
        ident = _expect_string(row[0], rp)
        control = _expect_string(row[1], rp)
        if ident in ctrl:
            raise ParseError(f"duplicate node {ident!r}", rp)
        if control not in signature.arity:
            raise ParseError(f"unknown control {control!r}", rp)
        nodes.append(ident)
        ctrl[ident] = control
    return frozenset(nodes), ctrl


def _decode_graded_ids(value, frame: Frame, path: str) -> FuzzySet:
    rows = _expect_array(value, path)
    entries = {}
    for i, row in enumerate(rows):
        rp = f"{path}[{i}]"
        row = _expect_array(row, rp)
        if len(row) != 2:
            raise ParseError("a graded identifier is written [id, degree]", rp)
        ident = _expect_string(row[0], rp)
        if ident in entries:
            raise ParseError(f"duplicate identifier {ident!r}", rp)
        degree = _decode_degree(frame, row[1], rp)
        if degree.is_bottom():
            raise ParseError(
                f"graded identifier {ident!r} has membership bottom; list only positive ones",
                rp,
            )
        entries[ident] = degree
    return FuzzySet(frame, entries)


def _decode_pairs(value, frame, decode_a, decode_b, path: str):
    rows = _expect_array(value, path)
    out = {}
    for i, row in enumerate(rows):
        rp = f"{path}[{i}]"
        row = _expect_array(row, rp)
        if len(row) != 2:
            raise ParseError("expected [from, to]", rp)
        a = decode_a(row[0], rp)
        if a in out:
            raise ParseError(f"duplicate entry for {a!r}", rp)
        out[a] = decode_b(row[1], rp)
    return out


def _decode_triples(value, frame: Frame, decode_a, decode_b, path: str):
    rows = _expect_array(value, path)
    out = {}
    for i, row in enumerate(rows):
        rp = f"{path}[{i}]"
        row = _expect_array(row, rp)
        if len(row) != 3:
            raise ParseError("expected [from, to, degree]", rp)
        key = (decode_a(row[0], rp), decode_b(row[1], rp))
        if key in out:
            raise ParseError(f"duplicate entry for {key!r}", rp)
        out[key] = _decode_degree(frame, row[2], rp)
    return out


def _build(constructor, path: str, *args, **kwargs):
    """Constructor errors (dangling identifiers, off-carrier ports) become
    parse errors at the record's path."""
    try:
        return constructor(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), path) from None


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


@dataclass(frozen=True)
class _Flavour:
    """How one flavour writes its graph records.

    ``nodes`` decodes the node list into the node set and, for crisp
    records, the control map; graded flavours keep controls in a ``ctrl``
    relation.  ``entries`` decodes a relation field (crisp maps or graded
    triples), ``check_refs`` rejects identifiers the record never declared,
    ``lead`` gives the constructors' leading arguments, and the degree
    fields are the interface degrees of the place and link parts.
    """

    nodes: Callable
    edges: Callable
    entries: Callable
    check_refs: Callable
    place: type
    link: type
    bigraph: type
    lead: Callable
    ctrl: tuple = ()
    place_degree: tuple = ()
    link_degree: tuple = ()
    meet_degree: tuple = ()


_FLAVOURS = {
    "crisp": _Flavour(
        nodes=_decode_crisp_nodes,
        edges=_decode_ids,
        entries=_decode_pairs,
        check_refs=_check_crisp_refs,
        place=PlaceGraph,
        link=LinkGraph,
        bigraph=Bigraph,
        lead=lambda frame, signature: (signature,),
    ),
    "fuzzy": _Flavour(
        nodes=lambda value, frame, signature, path: (_decode_ids(value, frame, path), None),
        edges=_decode_ids,
        entries=_decode_triples,
        check_refs=lambda f, path: _check_ctrl_refs(f["ctrl"], f["nodes"], path),
        place=FuzzyPlaceGraph,
        link=FuzzyLinkGraph,
        bigraph=FuzzyBigraph,
        lead=lambda frame, signature: (frame, signature),
        ctrl=("ctrl",),
    ),
    "type2": _Flavour(
        nodes=lambda value, frame, signature, path: (
            _decode_graded_ids(value, frame, path),
            None,
        ),
        edges=_decode_graded_ids,
        entries=_decode_triples,
        check_refs=lambda f, path: _check_ctrl_refs(f["ctrl"], f["nodes"].support, path),
        place=Type2FuzzyPlaceGraph,
        link=Type2FuzzyLinkGraph,
        bigraph=Type2FuzzyBigraph,
        lead=lambda frame, signature: (frame, signature),
        ctrl=("ctrl",),
        place_degree=("beta",),
        link_degree=("delta",),
        meet_degree=("gamma",),
    ),
}

# Per part: its relation fields and how its interfaces are written.
_PARTS = {
    "place": (("prnt",), lambda value, path: Interface(_expect_nat(value, path))),
    "link": (("link",), lambda value, path: Interface(0, _decode_names(value, path))),
    "bigraph": (("prnt", "link"), _decode_interface),
}

_ENDPOINTS = {
    "ctrl": (_expect_string, _expect_string),
    "prnt": (_decode_place_elem, _decode_place_elem),
    "link": (_decode_point, _expect_string),
}


def _decode_record(kind: str, obj: dict, frame: Frame, signature: Signature, path: str):
    """Decode one graph record: the part table says which fields it has,
    the flavour table how each of them is written and what it builds."""
    flavour, _, part = kind.partition("-")
    fl = _FLAVOURS[flavour]
    relations, decode_interface = _PARTS[part]
    has_place, has_link = "prnt" in relations, "link" in relations
    place_degree = fl.place_degree if has_place else ()
    link_degree = fl.link_degree if has_link else ()
    edges = ("edges",) if has_link else ()
    _expect_keys(
        obj,
        path,
        ("kind", "inner", "outer", "nodes", *edges, *fl.ctrl, *relations,
         *place_degree, *link_degree),
        fl.meet_degree if has_place and has_link else (),
    )

    def at(key: str) -> str:
        return f"{path}.{key}"

    fields = {
        "inner": decode_interface(obj["inner"], at("inner")),
        "outer": decode_interface(obj["outer"], at("outer")),
    }
    fields["nodes"], fields["ctrl"] = fl.nodes(obj["nodes"], frame, signature, at("nodes"))
    for key in edges:
        fields[key] = fl.edges(obj[key], frame, at(key))
    for key in fl.ctrl + relations:
        fields[key] = fl.entries(obj[key], frame, *_ENDPOINTS[key], at(key))
    fl.check_refs(fields, path)
    for key in place_degree + link_degree:
        fields[key] = _decode_degree(frame, obj[key], at(key))

    lead = fl.lead(frame, signature)
    inner, outer = fields["inner"], fields["outer"]
    nodes, ctrl = fields["nodes"], fields["ctrl"]
    parts = []
    if has_place:
        degrees = [fields[key] for key in place_degree]
        parts.append(_build(
            fl.place, path, *lead, inner.width, outer.width, nodes, ctrl,
            fields["prnt"], *degrees,
        ))
    if has_link:
        degrees = [fields[key] for key in link_degree]
        parts.append(_build(
            fl.link, path, *lead, inner.names, outer.names, nodes, fields["edges"],
            ctrl, fields["link"], *degrees,
        ))
    if len(parts) == 1:
        return parts[0]
    bigraph = _build(fl.bigraph, path, *parts)
    for key in fl.meet_degree:
        if key in obj and _decode_degree(frame, obj[key], at(key)) != bigraph.degree:
            raise ParseError(f"{key} must be the meet of beta and delta", at(key))
    return bigraph


def parse(text: str) -> ModelDocument:
    """Parse a model document; errors carry the path of the offending field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
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
    graphs = {}
    graphs_obj = _expect_object(root["graphs"], "$.graphs")
    for name, record in graphs_obj.items():
        path = f"$.graphs.{name}"
        record = _expect_object(record, path)
        kind = _expect_string(record.get("kind", ""), f"{path}.kind")
        if kind not in KINDS:
            raise ParseError(f"unknown graph kind {kind!r}", f"{path}.kind")
        graphs[name] = _decode_record(kind, record, frame, signature, path)
    return ModelDocument(frame, signature, graphs)


# --- encoding -------------------------------------------------------------------


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


def serialize(doc: ModelDocument) -> str:
    """Canonical text: sorted keys, sorted entries, LF endings."""
    payload = {
        "frame": doc.frame.name,
        "signature": {"controls": dict(doc.signature.arity)},
        "graphs": {name: _encode_graph(g) for name, g in doc.graphs.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_document(path) -> ModelDocument:
    return parse(Path(path).read_text(encoding="utf-8"))


def save_document(doc: ModelDocument, path) -> None:
    Path(path).write_text(serialize(doc), encoding="utf-8", newline="\n")


# --- validation dispatch --------------------------------------------------------


_VALIDATORS = (
    (Bigraph, validate_bigraph),
    (PlaceGraph, validate_place_graph),
    (LinkGraph, validate_link_graph),
    (FuzzyBigraph, validate_fuzzy_bigraph),
    (FuzzyPlaceGraph, validate_fuzzy_place),
    (FuzzyLinkGraph, validate_fuzzy_link),
    (Type2FuzzyBigraph, validate_type2_bigraph),
    (Type2FuzzyPlaceGraph, validate_type2_place),
    (Type2FuzzyLinkGraph, validate_type2_link),
)


def validate_graph(graph, subject: str) -> ValidationReport:
    for cls, validator in _VALIDATORS:
        if isinstance(graph, cls):
            return validator(graph, subject=subject)
    raise TypeError(f"no validator for {type(graph).__name__}")


def validate_document(doc: ModelDocument) -> list[ValidationReport]:
    return [validate_graph(g, name) for name, g in sorted(doc.graphs.items())]


# --- DOT export -----------------------------------------------------------------


def _q(text: str) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _place_parts(graph):
    """The place part of any graph kind that has one, else None."""
    if isinstance(graph, (Bigraph, FuzzyBigraph, Type2FuzzyBigraph)):
        graph = graph.place
    if isinstance(graph, (PlaceGraph, FuzzyPlaceGraph, Type2FuzzyPlaceGraph)):
        return graph
    return None


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


def _dot_place_fuzzy(place) -> str:
    frame = place.frame
    type2 = isinstance(place, Type2FuzzyPlaceGraph)
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


def _dot_link(graph) -> str:
    if isinstance(graph, (Bigraph, FuzzyBigraph, Type2FuzzyBigraph)):
        graph = graph.link
    crisp = isinstance(graph, LinkGraph)
    type2 = isinstance(graph, Type2FuzzyLinkGraph)
    frame = None if crisp else graph.frame
    nodes = sorted(graph.node_support if type2 else graph.nodes)
    edges = sorted(graph.edge_support if type2 else graph.edges)

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
    for e in edges:
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
        edge_pool = graph.edge_support if type2 else graph.edges
        return f"edge_{t}" if t in edge_pool else f"outer_{t}"

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
    if view == "place":
        place = _place_parts(graph)
        if place is None:
            raise ModelError(f"graph {name!r} has no place part")
        if isinstance(place, PlaceGraph):
            return _dot_place_crisp(place)
        return _dot_place_fuzzy(place)
    if view == "link":
        if isinstance(
            graph,
            (LinkGraph, FuzzyLinkGraph, Type2FuzzyLinkGraph, Bigraph, FuzzyBigraph,
             Type2FuzzyBigraph),
        ):
            return _dot_link(graph)
        raise ModelError(f"graph {name!r} has no link part")
    raise ModelError(f"unknown view {view!r} (expected place or link)")
