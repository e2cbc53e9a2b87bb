"""Plain model forms, an ``.fbg.json`` codec and a sup-min reference.

Everything here works on plain dicts of raw degrees -- ``Fraction`` for
``unit-interval``, ``int`` for ``chain:<n>``, ``bool`` for ``two-point`` --
and shares no code with the library.  The benchmark generates its model
files with this codec, and checks every output of the library against the
reference operations below.

A plain graph is a dict with these keys:

* ``kind``: ``"crisp"``, ``"fuzzy"`` or ``"type2"``;
* ``frame``: the frame name;
* ``inner``/``outer``: ``(width, frozenset of names)``;
* ``nodes``/``edges``: ``{id: membership}``, membership ``None`` unless type-2;
* ``ctrl``, ``prnt``, ``link``: ``{(a, b): degree}`` with only positive
  degrees stored (crisp maps store ``True``); ports are ``(node, index)``;
* ``beta``/``delta``: the type-2 interface degrees, else ``None``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

_TOP = {"unit-interval": Fraction(1), "two-point": True}


def top(frame: str):
    if frame in _TOP:
        return _TOP[frame]
    return int(frame.split(":", 1)[1]) - 1


def format_degree(frame: str, raw) -> str:
    if frame == "two-point":
        return "1" if raw else "0"
    return str(raw)


def parse_degree(frame: str, text: str):
    if frame == "unit-interval":
        return Fraction(text)
    if frame == "two-point":
        return text == "1"
    return int(text)


def sort_key(element):
    """Sites/roots, then identifiers, then ports."""
    if isinstance(element, int):
        return (0, "", element, 0)
    if isinstance(element, str):
        return (1, element, 0, 0)
    return (2, element[0], 0, element[1])


def pair_key(pair):
    return (sort_key(pair[0]), sort_key(pair[1]))


# --- reference operations -------------------------------------------------------


def _route(f_rel, g_rel, f_internal, g_internal, kappa, f_child_ok, g_child_ok):
    """Sup-min composite of one relation pair through the shared interface.

    ``f_internal(b)`` says whether f's target ``b`` stays inside f;
    otherwise it is an interface position that g's entries leave from.
    ``g_internal(a)`` says whether g's source ``a`` is one of g's own
    points.  ``kappa`` is the type-2 threshold (``None`` for fuzzy), under
    which f's entries and routed legs must reach kappa; the ``*_child_ok``
    predicates are the type-2 membership guards.
    """
    rows: dict = {}
    for (a, b), d in g_rel.items():
        if not g_internal(a):
            rows.setdefault(a, []).append((b, d))
    out: dict = {}
    for (a, b), d in f_rel.items():
        if not f_child_ok(a) or (kappa is not None and d < kappa):
            continue
        if f_internal(b):
            out[(a, b)] = d
            continue
        for c, leg in rows.get(b, ()):
            if kappa is not None and leg < kappa:
                continue
            routed = min(d, leg)
            prev = out.get((a, c))
            out[(a, c)] = routed if prev is None else max(prev, routed)
    for (a, b), d in g_rel.items():
        if g_internal(a) and g_child_ok(a):
            out[(a, b)] = d
    return out


def compose(g: dict, f: dict) -> dict:
    """The composite ``g . f`` (f applied first), by the defining cases."""
    type2 = f["kind"] == "type2"
    kappa_p = min(f["beta"], g["beta"]) if type2 else None
    kappa_l = min(f["delta"], g["delta"]) if type2 else None

    def anything(_x):
        return True

    def f_member(x):
        return isinstance(x, int) or kappa_p <= f["nodes"][x]

    def g_member(x):
        return kappa_p <= g["nodes"][x]

    prnt = _route(
        f["prnt"],
        g["prnt"],
        lambda b: isinstance(b, str),
        lambda a: isinstance(a, str),
        kappa_p,
        f_member if type2 else anything,
        g_member if type2 else anything,
    )
    link = _route(
        f["link"],
        g["link"],
        lambda b: b in f["edges"],
        lambda a: isinstance(a, tuple),
        kappa_l,
        anything,
        anything,
    )
    return {
        "kind": f["kind"],
        "frame": f["frame"],
        "inner": f["inner"],
        "outer": g["outer"],
        "nodes": {**f["nodes"], **g["nodes"]},
        "edges": {**f["edges"], **g["edges"]},
        "ctrl": {**f["ctrl"], **g["ctrl"]},
        "prnt": prnt,
        "link": link,
        "beta": kappa_p,
        "delta": kappa_l,
    }


def tensor(f: dict, g: dict) -> dict:
    """``f ⊗ g``: g's sites and roots shift by f's widths."""
    k, m = f["inner"][0], f["outer"][0]
    prnt = dict(f["prnt"])
    for (c, p), d in g["prnt"].items():
        prnt[(c + k if isinstance(c, int) else c, p + m if isinstance(p, int) else p)] = d
    return {
        "kind": f["kind"],
        "frame": f["frame"],
        "inner": (k + g["inner"][0], f["inner"][1] | g["inner"][1]),
        "outer": (m + g["outer"][0], f["outer"][1] | g["outer"][1]),
        "nodes": {**f["nodes"], **g["nodes"]},
        "edges": {**f["edges"], **g["edges"]},
        "ctrl": {**f["ctrl"], **g["ctrl"]},
        "prnt": prnt,
        "link": {**f["link"], **g["link"]},
        "beta": None,
        "delta": None,
    }


def identity(kind: str, frame: str, interface) -> dict:
    width, names = interface
    t = True if kind == "crisp" else top(frame)
    return {
        "kind": kind,
        "frame": frame,
        "inner": interface,
        "outer": interface,
        "nodes": {},
        "edges": {},
        "ctrl": {},
        "prnt": {(i, i): t for i in range(width)},
        "link": {(x, x): t for x in names},
        "beta": top(frame) if kind == "type2" else None,
        "delta": top(frame) if kind == "type2" else None,
    }


def rename(graph: dict, node_map: dict, edge_map: dict) -> dict:
    """Apply a node and edge renaming to every component."""

    def place(x):
        return node_map[x] if isinstance(x, str) else x

    def point(q):
        return (node_map[q[0]], q[1]) if isinstance(q, tuple) else q

    def target(t):
        return edge_map.get(t, t)

    out = dict(graph)
    out["nodes"] = {node_map[v]: m for v, m in graph["nodes"].items()}
    out["edges"] = {edge_map[e]: m for e, m in graph["edges"].items()}
    out["ctrl"] = {(node_map[v], k): d for (v, k), d in graph["ctrl"].items()}
    out["prnt"] = {(place(c), place(p)): d for (c, p), d in graph["prnt"].items()}
    out["link"] = {(point(q), target(t)): d for (q, t), d in graph["link"].items()}
    return out


# --- reading library values -------------------------------------------------------


def _raw_relation(relation) -> dict:
    return {pair: d.raw for pair, d in relation.items()}


def from_library(graph) -> dict:
    """Plain form of a library bigraph, read through its public attributes."""
    place, link = graph.place, graph.link
    if hasattr(place, "degree"):
        kind = "type2"
        nodes = {v: d.raw for v, d in place.nodes.items()}
        edges = {e: d.raw for e, d in link.edges.items()}
        beta, delta = place.degree.raw, link.degree.raw
    else:
        kind = "fuzzy" if hasattr(place, "frame") else "crisp"
        nodes = dict.fromkeys(place.nodes)
        edges = dict.fromkeys(link.edges)
        beta = delta = None
    if kind == "crisp":
        frame = "two-point"
        ctrl = {(v, k): True for v, k in place.ctrl.items()}
        prnt = {(c, p): True for c, p in place.prnt.items()}
        links = {(q, t): True for q, t in link.link.items()}
    else:
        frame = place.frame.name
        ctrl = _raw_relation(place.ctrl)
        prnt = _raw_relation(place.prnt)
        links = _raw_relation(link.link)
    return {
        "kind": kind,
        "frame": frame,
        "inner": (place.inner, frozenset(link.inner)),
        "outer": (place.outer, frozenset(link.outer)),
        "nodes": nodes,
        "edges": edges,
        "ctrl": ctrl,
        "prnt": prnt,
        "link": links,
        "beta": beta,
        "delta": delta,
    }


def same(a: dict, b: dict) -> bool:
    """Equality of plain graphs, ignoring the frame of crisp graphs."""
    keys = ("kind", "inner", "outer", "nodes", "edges", "ctrl", "prnt", "link", "beta", "delta")
    return all(a[k] == b[k] for k in keys)


# --- the .fbg.json codec ------------------------------------------------------------


def _elem(x):
    return [x[0], x[1]] if isinstance(x, tuple) else x


def _interface(iface) -> dict:
    return {"width": iface[0], "names": sorted(iface[1])}


def _encode_graph(g: dict) -> dict:
    frame = g["frame"]
    if g["kind"] == "crisp":
        ctrl = {v: k for (v, k) in g["ctrl"]}
        return {
            "kind": "crisp-bigraph",
            "inner": _interface(g["inner"]),
            "outer": _interface(g["outer"]),
            "nodes": [[v, ctrl[v]] for v in sorted(g["nodes"])],
            "edges": sorted(g["edges"]),
            "prnt": [[_elem(c), _elem(p)] for c, p in sorted(g["prnt"], key=pair_key)],
            "link": [[_elem(q), _elem(t)] for q, t in sorted(g["link"], key=pair_key)],
        }

    def rel(name):
        return [
            [_elem(a), _elem(b), format_degree(frame, g[name][(a, b)])]
            for a, b in sorted(g[name], key=pair_key)
        ]

    record = {
        "inner": _interface(g["inner"]),
        "outer": _interface(g["outer"]),
        "ctrl": rel("ctrl"),
        "prnt": rel("prnt"),
        "link": rel("link"),
    }
    if g["kind"] == "fuzzy":
        record["kind"] = "fuzzy-bigraph"
        record["nodes"] = sorted(g["nodes"])
        record["edges"] = sorted(g["edges"])
        return record
    record["kind"] = "type2-bigraph"
    for key in ("nodes", "edges"):
        record[key] = [[x, format_degree(frame, g[key][x])] for x in sorted(g[key])]
    record["beta"] = format_degree(frame, g["beta"])
    record["delta"] = format_degree(frame, g["delta"])
    record["gamma"] = format_degree(frame, min(g["beta"], g["delta"]))
    return record


def encode_document(frame: str, signature: dict, graphs: dict) -> str:
    """Model-file text holding the given plain graphs."""
    payload = {
        "frame": frame,
        "signature": {"controls": dict(signature)},
        "graphs": {name: _encode_graph(g) for name, g in graphs.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _decode_elem(x):
    return (x[0], x[1]) if isinstance(x, list) else x


def _decode_interface(obj) -> tuple:
    return (obj["width"], frozenset(obj["names"]))


def decode_document(text: str) -> dict:
    """``{name: plain graph}`` from model-file text of bigraph records."""
    data = json.loads(text)
    frame = data["frame"]
    graphs = {}
    for name, rec in data["graphs"].items():
        kind = rec["kind"].split("-")[0]
        g = {
            "kind": kind,
            "frame": "two-point" if kind == "crisp" else frame,
            "inner": _decode_interface(rec["inner"]),
            "outer": _decode_interface(rec["outer"]),
            "beta": None,
            "delta": None,
        }
        if kind == "crisp":
            g["nodes"] = dict.fromkeys(v for v, _k in rec["nodes"])
            g["edges"] = dict.fromkeys(rec["edges"])
            g["ctrl"] = {(v, k): True for v, k in rec["nodes"]}
            for key in ("prnt", "link"):
                g[key] = {(_decode_elem(a), _decode_elem(b)): True for a, b in rec[key]}
        else:
            for key in ("ctrl", "prnt", "link"):
                g[key] = {
                    (_decode_elem(a), _decode_elem(b)): parse_degree(frame, d)
                    for a, b, d in rec[key]
                }
            if kind == "fuzzy":
                g["nodes"] = dict.fromkeys(rec["nodes"])
                g["edges"] = dict.fromkeys(rec["edges"])
            else:
                for key in ("nodes", "edges"):
                    g[key] = {x: parse_degree(frame, d) for x, d in rec[key]}
                g["beta"] = parse_degree(frame, rec["beta"])
                g["delta"] = parse_degree(frame, rec["delta"])
        graphs[name] = g
    return graphs


def fingerprint(graph: dict) -> str:
    """A canonical text of a plain graph, for input digests."""
    frame = graph["frame"]

    def deg(d):
        return None if d is None else format_degree(frame, d)

    parts = [
        graph["kind"],
        frame,
        [graph["inner"][0], sorted(graph["inner"][1])],
        [graph["outer"][0], sorted(graph["outer"][1])],
        [[x, deg(m)] for x, m in sorted(graph["nodes"].items())],
        [[x, deg(m)] for x, m in sorted(graph["edges"].items())],
        deg(graph["beta"]),
        deg(graph["delta"]),
    ]
    for key in ("ctrl", "prnt", "link"):
        rel = graph[key]
        parts.append([[_elem(a), _elem(b), deg(rel[(a, b)])] for a, b in sorted(rel, key=pair_key)])
    return json.dumps(parts, separators=(",", ":"))


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
