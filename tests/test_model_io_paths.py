"""The decoder's and writer's fast paths: what they build, and what they
name when a record or a graph is at fault.

Crisp records are wrapped as they stand, without the crisp constructors,
graded relations that set operations show sound reach the graded
constructors already built, and the refs checks look for a fault with
set operations before walking the rows.  Each must give what the slower
path gave: the same graphs, and the same fault at the same path.
"""

from __future__ import annotations

import copy
import gc
import json
import random
from types import MappingProxyType

import pytest

from fuzzybig import (
    Bigraph,
    Interface,
    LinkGraph,
    ModelDocument,
    PlaceGraph,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    embed_bigraph,
    fuzzify,
    parse,
    serialize,
)
from fuzzybig.errors import ParseError

import refs_oracle
from helpers import ALL_FRAMES, H_SIGNATURE, random_crisp_bigraph
from test_parse_faults import BASE

INNER = Interface(2, frozenset({"x0", "x1", "x2"}))
OUTER = Interface(2, frozenset({"y0", "y1"}))


def _crisp_documents(rng: random.Random, frame, count: int):
    """Crisp bigraphs with their place and link parts, each alone in a
    document, as the public constructors build them."""
    for n in range(count):
        b = random_crisp_bigraph(rng, H_SIGNATURE, INNER, OUTER, f"c{n}_", 9, 4)
        for graph in (b, b.place, b.link):
            yield ModelDocument(frame, H_SIGNATURE, {"g": graph})


# --- trusted crisp decoding ---------------------------------------------------


@pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: f.name)
def test_crisp_records_decode_to_the_graphs_their_constructors_build(frame):
    for doc in _crisp_documents(random.Random(23), frame, 40):
        graph = doc.graphs["g"]
        parsed = parse(serialize(doc)).graphs["g"]
        assert type(parsed) is type(graph)
        assert parsed == graph
        for part in (parsed.place, parsed.link) if hasattr(parsed, "place") else (parsed,):
            assert type(part.nodes) is frozenset
            assert isinstance(part.ctrl, MappingProxyType)


def test_the_parts_of_a_parsed_crisp_bigraph_hold_distinct_control_maps():
    for doc in _crisp_documents(random.Random(5), UNIT_INTERVAL, 10):
        parsed = parse(serialize(doc)).graphs["g"]
        if not hasattr(parsed, "place"):
            continue
        place, link = parsed.place.ctrl, parsed.link.ctrl
        assert isinstance(place, MappingProxyType) and isinstance(link, MappingProxyType)
        assert place == link
        # a read-only view refers to the one dict it wraps
        (place_map,), (link_map,) = gc.get_referents(place), gc.get_referents(link)
        assert type(place_map) is dict and type(link_map) is dict
        assert place_map is not link_map


# --- graded relations built by the decoder ------------------------------------


@pytest.mark.parametrize("name", ["fp", "fl", "fb", "tp", "tl", "tb"])
def test_rows_at_bottom_leave_no_entry_in_a_graded_relation(name):
    """A row at bottom is read and dropped, as the relation constructor
    drops it, in every relation field of every graded kind."""
    record = BASE["graphs"][name]
    with_bottom = copy.deepcopy(record)
    extra = {
        "ctrl": ["v", "M", "0"],
        "prnt": ["v", "v", "0"],
        "link": ["x", "y", "0"],
    }
    for key, row in extra.items():
        if key in with_bottom:
            with_bottom[key].append(row)

    def document(rec):
        return json.dumps({**BASE, "graphs": {"g": rec}})

    assert parse(document(with_bottom)).graphs["g"] == parse(document(record)).graphs["g"]


# --- the refs checks name the fault the rows meet first ------------------------


def _refs_fields(record: dict) -> dict:
    """The fields the refs checks read, decoded row by row from a crisp
    record's JSON, in row order."""
    inner, outer = record["inner"], record["outer"]
    if isinstance(inner, dict):
        inner, outer = inner["names"], outer["names"]
    fields = {"nodes": frozenset(v for v, _control in record["nodes"])}
    if "prnt" in record:
        fields["prnt"] = {child: parent for child, parent in record["prnt"]}
    if "link" in record:
        fields["link"] = {
            tuple(point) if isinstance(point, list) else point: target
            for point, target in record["link"]
        }
        fields.update(edges=frozenset(record["edges"]), inner=frozenset(inner),
                      outer=frozenset(outer))
    return fields


def _with_undeclared(rng: random.Random, record: dict, count: int) -> list:
    """Put ``count`` undeclared identifiers into the record's rows, each
    where a declared one stood, and shuffle the rows; return what went in."""
    spots = []
    for key in ("prnt", "link"):
        for row in record.get(key, ()):
            for end in (0, 1):
                value = row[end]
                if isinstance(value, str) or isinstance(value, list):
                    spots.append((row, end))
    placed = []
    for n, (row, end) in enumerate(rng.sample(spots, min(count, len(spots)))):
        ident = f"u{n}{rng.choice('abcdefgh')}"
        if isinstance(row[end], list):
            row[end] = [ident, row[end][1]]
        else:
            row[end] = ident
        placed.append(ident)
    for key in ("prnt", "link"):
        if key in record:
            rng.shuffle(record[key])
    return placed


def test_the_refs_checks_name_the_identifier_the_rows_meet_first():
    rng = random.Random(41)
    cases = differing = 0
    for doc in _crisp_documents(rng, TWO_POINT, 80):
        for _trial in range(3):
            data = json.loads(serialize(doc))
            record = data["graphs"]["g"]
            placed = _with_undeclared(rng, record, rng.randint(1, 3))
            if not placed:
                continue
            with pytest.raises(ParseError) as got:
                parse(json.dumps(data))
            fields = _refs_fields(record)
            with pytest.raises(ParseError) as expected:
                refs_oracle.check_crisp_refs(fields, "$.graphs.g")
            assert (got.value.path, got.value.message) == (
                expected.value.path, expected.value.message
            ), record
            cases += 1
            # How often a set of the placed identifiers, in its own order,
            # would have named another one first.
            if len(placed) > 1 and next(iter(set(placed))) not in expected.value.message:
                differing += 1
    assert cases >= 300
    assert differing >= 20


# --- the writer writes no port that parse would refuse ---------------------------


@pytest.mark.parametrize("point", [("v", True), ("v", -1), ("v", 1.5), (3, 0)])
def test_serialize_refuses_a_link_port_parse_would_refuse(point):
    sig = Signature({"K": 2})
    link = LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": "e", point: "y"})
    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, sig, {"g": link}))
    assert str(err.value) == (
        f"cannot serialize: port {point!r} is not a node identifier and a natural-number index"
    )
    fine = LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": "e", ("v", 1): "y"})
    doc = ModelDocument(TWO_POINT, sig, {"g": fine})
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize(
    "part, target", [("place", None), ("place", 1.5), ("place", True), ("link", None)]
)
def test_serialize_refuses_a_map_target_parse_would_refuse(part, target):
    sig = Signature({"K": 2})
    if part == "place":
        graph = PlaceGraph(sig, 0, 1, {"v"}, {"v": "K"}, {"v": target})
    else:
        graph = LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": target})
    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, sig, {"g": graph}))
    assert str(err.value) == f"cannot serialize: {target!r} is not a string, an integer or a port"
    # String and integer targets still round-trip.
    fine = {
        "place": PlaceGraph(sig, 1, 1, {"v", "w"}, {"v": "K", "w": "K"}, {0: "v", "v": "w", "w": 0}),
        "link": LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": "e", ("v", 0): "y"}),
    }
    doc = ModelDocument(TWO_POINT, sig, {"g": fine[part]})
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize("part, value", [
    ("control", ("a", "b", "c")),
    ("point", ("v",)),
    ("point", ("v", 0, 1)),
])
def test_serialize_refuses_a_tuple_that_is_no_port(part, value):
    sig = Signature({"K": 2})
    if part == "control":
        graph = PlaceGraph(sig, 0, 1, {"v"}, {"v": value}, {"v": 0})
    else:
        graph = LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {value: "e"})
    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, sig, {"g": graph}))
    assert str(err.value) == f"cannot serialize: {value!r} is not a string, an integer or a port"


# --- the writer writes an int or a port only where parse reads one ----------------


@pytest.mark.parametrize("part, end, value", [
    ("link", "target", 3),
    ("link", "target", ("v", 0)),
    ("link", "point", 3),
    ("place", "child", ("v", 0)),
    ("place", "parent", ("v", 0)),
])
def test_serialize_refuses_an_endpoint_of_a_sort_parse_reads_not_there(part, end, value):
    sig = Signature({"K": 2})

    def graph(x):
        if part == "place":
            return PlaceGraph(sig, 0, 1, {"v"}, {"v": "K"}, {"v": 0, x: 0} if end == "child" else {"v": x})
        return LinkGraph(sig, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": x} if end == "target" else {x: "y"})

    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, sig, {"g": graph(value)}))
    # The same row written by hand: the writer names the fault parse finds.
    text = serialize(ModelDocument(TWO_POINT, sig, {"g": graph("@")}))
    with pytest.raises(ParseError) as read:
        parse(text.replace('"@"', json.dumps(value)))
    field = "prnt" if part == "place" else "link"
    assert str(err.value) == f"cannot serialize: {field} row holds {value!r}: {read.value.message}"


@pytest.mark.parametrize("part", ["place", "link", "bigraph"])
@pytest.mark.parametrize("control", [3, "Z"])
def test_serialize_refuses_a_crisp_control_the_signature_lacks(part, control):
    sig = Signature({"K": 2})

    def graph(c):
        ctrl = {"v": "K", "w": c}
        place = PlaceGraph(sig, 0, 1, {"v", "w"}, ctrl, {"v": 0, "w": 0})
        link = LinkGraph(sig, set(), set(), {"v", "w"}, set(), ctrl, {})
        return {"place": place, "link": link, "bigraph": Bigraph(place, link)}[part]

    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, sig, {"g": graph(control)}))
    assert str(err.value) == (
        f"cannot serialize: node 'w' has control {control!r}, which the signature lacks"
    )
    # The same row written by hand is one that parse refuses.
    fine = ModelDocument(TWO_POINT, sig, {"g": graph("K")})
    written = json.loads(serialize(fine))
    assert written["graphs"]["g"]["nodes"][1] == ["w", "K"]
    written["graphs"]["g"]["nodes"][1][1] = control
    with pytest.raises(ParseError):
        parse(json.dumps(written))
    assert parse(serialize(fine)) == fine


@pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: f.name)
def test_every_endpoint_sort_parse_reads_still_round_trips(frame):
    # Parent rows: a site and nodes as children, a node and a root as parents.
    # Link rows: an inner name and ports as points, an edge and an outer name
    # as targets.
    sig = Signature({"K": 2})
    ctrl = {"v": "K", "w": "K"}
    place = PlaceGraph(sig, 1, 1, {"v", "w"}, ctrl, {0: "v", "v": "w", "w": 0})
    link = LinkGraph(sig, {"x"}, {"y"}, {"v", "w"}, {"e"}, ctrl, {"x": "e", ("v", 0): "y", ("w", 1): "e"})
    crisp = Bigraph(place, link)
    fuzzy = fuzzify(crisp, frame)
    for graph in (place, link, crisp, fuzzy, fuzzy.place, fuzzy.link, embed_bigraph(fuzzy)):
        doc = ModelDocument(frame, sig, {"g": graph})
        assert parse(serialize(doc)) == doc
