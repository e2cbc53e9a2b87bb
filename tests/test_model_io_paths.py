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
    chain,
    embed_bigraph,
    export_dot,
    fuzzify,
    parse,
    serialize,
    validate_graph,
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
    # The same row written by hand, from a graph that is fine: the writer
    # names the fault parse finds.
    fine, index = {"child": (0, 0), "parent": (0, 1), "target": ("e", 1), "point": ("x", 0)}[end]
    written = json.loads(serialize(ModelDocument(TWO_POINT, sig, {"g": graph(fine)})))
    field = "prnt" if part == "place" else "link"
    [row] = [row for row in written["graphs"]["g"][field] if row[index] == fine]
    row[index] = value
    with pytest.raises(ParseError) as read:
        parse(json.dumps(written))
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


# --- the writer refuses what parse would refuse or read back as another graph ----

K2 = Signature({"K": 2})
KL = Signature({"K": 2, "L": 1})


def _place(sig=K2, inner=0, nodes=("v",), ctrl=None, prnt=None):
    ctrl = {"v": "K"} if ctrl is None else ctrl
    return PlaceGraph(sig, inner, 1, set(nodes), ctrl, {"v": 0} if prnt is None else prnt)


def _link(sig=K2, nodes=("v",), ctrl=None, link=None):
    ctrl = {"v": "K"} if ctrl is None else ctrl
    return LinkGraph(sig, {"x"}, {"y"}, set(nodes), {"e"}, ctrl, {"x": "e"} if link is None else link)


def _fuzzy(frame, sig=K2):
    return fuzzify(Bigraph(_place(sig), _link(sig)), frame)


# (case, document frame and signature, graph, the refusal after "cannot serialize: ")
WRITER_FAULTS = [
    # Written, then refused by parse: the writer quotes the reader.
    ("undeclared parent", TWO_POINT, K2, _place(prnt={"v": "u"}), "undeclared node 'u'"),
    ("undeclared child", TWO_POINT, K2, _place(prnt={"v": 0, "u": 0}), "undeclared node 'u'"),
    ("dangling target", TWO_POINT, K2, _link(link={"x": "z"}),
     "link target 'z' is neither an edge nor an outer name"),
    ("undeclared port node", TWO_POINT, K2, _link(link={("u", 0): "e"}),
     "port of undeclared node 'u'"),
    ("undeclared inner name", TWO_POINT, K2, _link(link={"z": "e"}), "undeclared inner name 'z'"),
    ("parts with other nodes", TWO_POINT, K2,
     Bigraph(_place(), _link(nodes=("v", "w"), ctrl={"v": "K", "w": "K"})),
     "place and link parts disagree on nodes or controls"),
    ("negative width", TWO_POINT, K2, _place(inner=-1), "expected a natural number"),
    ("chain:5 graph in a two-point document", TWO_POINT, K2, _fuzzy(chain(5)).place,
     "a graph over chain:5 in a document over two-point"),
    # Read back as a different graph.
    ("control of an undeclared node", TWO_POINT, K2, _place(ctrl={"v": "K", "u": "K"}),
     "undeclared node 'u'"),
    ("parts with other controls", TWO_POINT, KL,
     Bigraph(_place(KL), _link(KL, ctrl={"v": "L"})),
     "place and link parts disagree on nodes or controls"),
    ("crisp graph with another signature", TWO_POINT, K2, _place(KL),
     "a graph whose signature is not the document's"),
    ("fuzzy graph with another signature", TWO_POINT, K2, _fuzzy(TWO_POINT, KL),
     "a graph whose signature is not the document's"),
    ("unit-interval graph in a chain:5 document", chain(5), K2, _fuzzy(UNIT_INTERVAL).link,
     "a graph over unit-interval in a document over chain:5"),
]


@pytest.mark.parametrize(
    "frame, sig, graph, refusal", [case[1:] for case in WRITER_FAULTS],
    ids=[case[0] for case in WRITER_FAULTS],
)
def test_serialize_refuses_what_parse_refuses_or_reads_back_as_another_graph(
    frame, sig, graph, refusal
):
    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(frame, sig, {"g": graph}))
    assert str(err.value) == f"cannot serialize: {refusal}"


@pytest.mark.parametrize("names, refusal", [
    ((1,), "graph name 1 is not a string"),
    ((1, "a"), "graph name 1 is not a string"),
    ((None,), "graph name None is not a string"),
], ids=repr)
def test_serialize_refuses_a_graph_name_that_is_no_string(names, refusal):
    """JSON object keys are strings, so ``parse`` reads no other name back."""
    graphs = dict.fromkeys(names, _place())
    with pytest.raises(ValueError) as err:
        serialize(ModelDocument(TWO_POINT, K2, graphs))
    assert str(err.value) == f"cannot serialize: {refusal}"


def test_the_refusals_name_what_parse_finds_in_the_same_rows():
    """Each refs refusal is the reader's message for the row written by hand."""
    fine = json.loads(serialize(ModelDocument(TWO_POINT, K2, {"g": Bigraph(_place(), _link())})))
    record = fine["graphs"]["g"]
    for rows, row, end, value, case in [
        ("prnt", 0, 1, "u", "undeclared parent"),
        ("prnt", 0, 0, "u", "undeclared child"),
        ("link", 0, 1, "z", "dangling target"),
        ("link", 0, 0, ["u", 0], "undeclared port node"),
        ("link", 0, 0, "z", "undeclared inner name"),
    ]:
        edited = copy.deepcopy(fine)
        edited["graphs"]["g"][rows][row][end] = value
        assert record[rows][row][end] != value
        with pytest.raises(ParseError) as read:
            parse(json.dumps(edited))
        [refusal] = [c[-1] for c in WRITER_FAULTS if c[0] == case]
        assert read.value.message == refusal


# --- statements reached only through these calls, pinned by their text ---------


def test_serialize_and_validate_graph_refuse_an_object_that_is_no_graph():
    with pytest.raises(TypeError) as err:
        serialize(ModelDocument(TWO_POINT, K2, {"g": object()}))
    assert str(err.value) == "cannot serialize object"
    with pytest.raises(TypeError) as err:
        validate_graph(object(), "g")
    assert str(err.value) == "no validator for object"


def test_the_crisp_place_view_anchors_a_root_with_no_children():
    graph = PlaceGraph(K2, 0, 2, {"v"}, {"v": "K"}, {"v": 0})
    dot = export_dot(ModelDocument(TWO_POINT, K2, {"g": graph}), "g", "place")
    assert '    "root_1_anchor" [shape=point, style=invis];' in dot.splitlines()
    assert "root_0_anchor" not in dot


@pytest.mark.parametrize("point, message", [
    (True, "booleans are not model elements"),
    (1.5, "unsupported element 1.5"),
])
def test_the_crisp_link_view_refuses_a_point_that_is_no_element(point, message):
    graph = _link(link={"x": "e", point: "y"})
    with pytest.raises(TypeError) as err:
        export_dot(ModelDocument(TWO_POINT, K2, {"g": graph}), "g", "link")
    assert str(err.value) == message
