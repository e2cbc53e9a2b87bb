"""The model-file decoder's bulk path.

A clean field is decoded in one comprehension once set operations show it
clean, rows at bottom dropped, and a graded record is wrapped whole without
its checked constructors; any other field goes to its row loop, which names
the first fault.  So:

* a clean file of every kind, at benchmark size, never enters a row loop or
  a checked relation or fuzzy-set constructor, and reads back as the graphs
  its constructors build, field for field and floor for floor;
* nor does a valid file with rows at bottom, which reads back as the same
  file without them, floors included; a row at bottom that repeats a pair,
  lies outside its relation or has an end of another sort is refused as
  the same row above bottom is;
* with the bulk path switched off, every parse-fault mutant of
  ``test_parse_faults`` has the same outcome (its pinned digest), and every
  document of the round-trip fuzz reads back the same, floors included.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from fuzzybig import (
    Bigraph,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzyRelation,
    FuzzySet,
    Interface,
    LinkGraph,
    ParseError,
    PlaceGraph,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    UNIT_INTERVAL,
    model_io,
    parse,
    serialize,
)
from fuzzybig.generators import random_fuzzy_bigraph, random_type2_bigraph
from fuzzybig.model_io import ModelDocument
from fuzzybig.relations import element_sort_key

import test_parse_faults
import test_round_trip_fuzz
from helpers import H_SIGNATURE, random_crisp_bigraph

BULK_PATHS = ("_bulk_graded_ids", "_bulk_pairs", "_bulk_triples")
ROW_LOOPS = ("_walk_names", "_walk")
CHECKED = (FuzzyRelation, FuzzySet, FuzzyPlaceGraph, FuzzyLinkGraph, FuzzyBigraph,
           Type2FuzzyPlaceGraph, Type2FuzzyLinkGraph, Type2FuzzyBigraph)

INNER = Interface(3, frozenset({"x0", "x1"}))
OUTER = Interface(4, frozenset({"y0", "y1", "y2"}))
SEED, NODES, EDGES = 2426, 1100, 550  # seed 2426 draws 1,100 nodes and 511 edges
DEPTH = 2000


def switch_off_bulk(monkeypatch) -> None:
    for name in BULK_PATHS:
        monkeypatch.setattr(model_io, name, lambda *args: None)


def _counted(calls: list, name: str, fn):
    """``fn``, noting ``name`` in ``calls`` each time it is called."""
    def counted(*args):
        calls.append(name)
        return fn(*args)
    return counted


def count_entries(monkeypatch, classes: tuple = CHECKED) -> list:
    """The names of the row loops and of the ``classes`` whose checked
    constructors are entered from now until ``monkeypatch.undo()``, in call
    order."""
    calls: list = []
    for name in ROW_LOOPS:
        monkeypatch.setattr(model_io, name, _counted(calls, name, getattr(model_io, name)))
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", _counted(calls, cls.__name__, cls.__init__))
    return calls


def floors(graph) -> dict:
    """The kept floor of every relation and fuzzy set of a graded graph's
    parts, by part and field; a crisp graph keeps none."""
    parts = {"place": graph.place, "link": graph.link} if hasattr(graph, "place") else {"": graph}
    return {
        (part, name): getattr(value, "_floor")
        for part, g in parts.items()
        for name in getattr(g, "_fields", ())
        if isinstance(value := getattr(g, name), (FuzzyRelation, FuzzySet))
    }


def _deep_chain(flavour: str):
    """A root holding a ``DEPTH``-level nesting of port-free nodes, as the
    benchmark's deep documents do."""
    sig, top = H_SIGNATURE, UNIT_INTERVAL.top
    nodes = [f"d{i}" for i in range(DEPTH)]
    parents = nodes[1:] + [0]
    if flavour == "crisp":
        ctrl = dict.fromkeys(nodes, "M")
        place = PlaceGraph(sig, 0, 1, nodes, ctrl, dict(zip(nodes, parents)))
        return Bigraph(place, LinkGraph(sig, set(), {"y"}, nodes, set(), ctrl, {}))
    ctrl = dict.fromkeys(((v, "M") for v in nodes), top)
    prnt = dict.fromkeys(zip(nodes, parents), top)
    if flavour == "fuzzy":
        place = FuzzyPlaceGraph(UNIT_INTERVAL, sig, 0, 1, nodes, ctrl, prnt)
        link = FuzzyLinkGraph(UNIT_INTERVAL, sig, set(), {"y"}, nodes, set(), place.ctrl, {})
        return FuzzyBigraph(place, link)
    members, none = FuzzySet(UNIT_INTERVAL, dict.fromkeys(nodes, top)), FuzzySet(UNIT_INTERVAL)
    place = Type2FuzzyPlaceGraph(UNIT_INTERVAL, sig, 0, 1, members, ctrl, prnt, top)
    link = Type2FuzzyLinkGraph(UNIT_INTERVAL, sig, set(), {"y"}, members, none, place.ctrl, {}, top)
    return Type2FuzzyBigraph(place, link)


def _benchmark_size(flavour: str):
    rng = random.Random(SEED)
    if flavour == "crisp":
        return random_crisp_bigraph(rng, H_SIGNATURE, INNER, OUTER, "c", NODES, EDGES)
    make = random_fuzzy_bigraph if flavour == "fuzzy" else random_type2_bigraph
    return make(rng, UNIT_INTERVAL, H_SIGNATURE, INNER, OUTER, flavour[0], NODES, EDGES)


CASES = [
    (f"{flavour}-{part}", flavour, part)
    for flavour in ("crisp", "fuzzy", "type2")
    for part in ("place", "link", "bigraph", "deep")
]


@pytest.mark.parametrize("label, flavour, part", CASES, ids=[c[0] for c in CASES])
def test_clean_files_decode_in_bulk_to_the_built_graphs(monkeypatch, label, flavour, part):
    whole = _deep_chain(flavour) if part == "deep" else _benchmark_size(flavour)
    built = whole if part in ("bigraph", "deep") else getattr(whole, part)
    assert len(whole.place.nodes) == (DEPTH if part == "deep" else NODES)
    text = serialize(ModelDocument(UNIT_INTERVAL, H_SIGNATURE, {"g": built}))

    calls = count_entries(monkeypatch, (FuzzyRelation, FuzzySet))
    decoded = parse(text).graphs["g"]
    monkeypatch.undo()

    assert calls == [], f"{label}: the bulk path handed fields to {sorted(set(calls))}"
    assert decoded == built
    assert floors(decoded) == floors(built)
    assert all(floor is not None for floor in floors(decoded).values())
    assert serialize(ModelDocument(UNIT_INTERVAL, H_SIGNATURE, {"g": decoded})) == text


def test_every_fault_keeps_its_message_and_path_with_the_bulk_path_off(monkeypatch):
    switch_off_bulk(monkeypatch)
    lines = test_parse_faults.table()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == (test_parse_faults.MUTANTS, test_parse_faults.DIGEST)


def test_every_fuzzed_document_reads_back_the_same_both_ways(monkeypatch):
    read = 0
    for doc in test_round_trip_fuzz.mutants(time_box=3.0):
        try:
            text = serialize(doc)
        except ValueError:
            continue
        bulk = parse(text)
        switch_off_bulk(monkeypatch)
        walked = parse(text)
        monkeypatch.undo()
        assert bulk == walked
        for name, graph in bulk.graphs.items():
            assert floors(graph) == floors(walked.graphs[name]), name
        read += 1
    assert read >= test_round_trip_fuzz.MIN_INPUTS // 10


def test_rows_at_bottom_decode_in_bulk_and_are_dropped(monkeypatch):
    """A row at bottom is no fault, and no entry (normal form): the bulk
    path checks its pair as any other row's, then drops it."""
    built = _benchmark_size("fuzzy")
    data = json.loads(serialize(ModelDocument(UNIT_INTERVAL, H_SIGNATURE, {"g": built})))
    prnt = built.prnt
    pair = next((c, p) for c in sorted(prnt.domain, key=str) for p in sorted(prnt.codomain, key=str)
                if prnt.degree(c, p).is_bottom())
    data["graphs"]["g"]["prnt"].append([*pair, "0"])
    calls = count_entries(monkeypatch)
    decoded = parse(json.dumps(data)).graphs["g"]
    monkeypatch.undo()
    assert calls == []
    assert decoded == built
    # A constructor that sees a row at bottom leaves the floor unknown, so
    # the floors are those of the file without the row.
    assert floors(decoded) == floors(built)


def _rows_at_bottom(data: dict, doc: ModelDocument) -> int:
    """Adds to each graded relation field of each record of ``data``, the
    JSON of ``doc``, one row at bottom on the first pair its relation lacks,
    in the middle of its rows; the number of rows added."""
    frame, added = doc.frame, 0
    bottom = ".0e0" if frame is UNIT_INTERVAL else frame.format_degree(frame.bottom)
    for name, graph in doc.graphs.items():
        if not hasattr(graph, "frame"):
            continue  # a crisp graph, which has no graded field
        parts = (graph.place, graph.link) if hasattr(graph, "place") else (graph,)
        fields = {key: getattr(p, key) for p in parts for key in ("ctrl", "prnt", "link") if hasattr(p, key)}
        for key, rel in fields.items():
            entries = rel.entry_dict()
            pair = next(((a, b) for a in sorted(rel.domain, key=element_sort_key)
                         for b in sorted(rel.codomain, key=element_sort_key) if (a, b) not in entries), None)
            if pair is not None:
                rows = data["graphs"][name][key]
                rows.insert(len(rows) // 2, [*(list(x) if isinstance(x, tuple) else x for x in pair), bottom])
                added += 1
    return added


def test_fuzzed_documents_with_rows_at_bottom_decode_in_bulk(monkeypatch):
    read = 0
    for doc in test_round_trip_fuzz.mutants(time_box=2.0):
        try:
            text = serialize(doc)
        except ValueError:
            continue
        clean = parse(text)
        data = json.loads(text)
        if not _rows_at_bottom(data, clean):
            continue
        calls = count_entries(monkeypatch)
        decoded = parse(json.dumps(data))
        monkeypatch.undo()
        assert calls == [], text
        assert decoded == clean
        for name, graph in decoded.graphs.items():
            assert floors(graph) == floors(clean.graphs[name]), name
        read += 1
    assert read >= test_round_trip_fuzz.MIN_INPUTS // 10


# Rows that membership alone would take for clean ones: a string row unpacks
# into one-character items, and ``true`` and ``1.0`` equal the site 1.  Each
# is the row loop's to name, with its path.
IMPOSTERS = [
    ("fuzzy", "ctrl", 0, "vK1", "expected an array"),
    ("fuzzy", "prnt", 1, [True, "w", "1/2"], "booleans are not model elements"),
    ("fuzzy", "prnt", 1, ["w", 1.0, "1/2"], "expected a site/root number or a node identifier"),
    ("fuzzy", "link", 1, [["v", True], "y", "1/2"], "a port is written [node, index]"),
    ("type2", "nodes", 1, "w1", "expected an array"),
]


@pytest.mark.parametrize("flavour, key, index, row, message", IMPOSTERS,
                         ids=[f"{f}-{k}-{m}" for f, k, _i, _r, m in IMPOSTERS])
def test_rows_equal_to_clean_ones_are_named_by_the_loop(flavour, key, index, row, message):
    doc, record = _small_document(flavour)
    assert len(parse(json.dumps(doc)).graphs["g"].place.prnt) == 4
    record[key][index] = row
    with pytest.raises(ParseError) as caught:
        parse(json.dumps(doc))
    assert (caught.value.path, caught.value.message) == (f"$.graphs.g.{key}[{index}]", message)


def _small_document(flavour: str) -> tuple:
    """A valid document's JSON holding one graded bigraph, and its record."""
    record = {
        "ctrl": [["v", "K", "1"], ["w", "M", "1"]], "edges": ["e"], "kind": f"{flavour}-bigraph",
        "inner": {"names": ["x"], "width": 2}, "outer": {"names": ["y"], "width": 2},
        "nodes": ["v", "w"], "prnt": [[0, "w", "1/3"], [1, "w", "1/3"], ["v", 1, "1"], ["w", 0, "1"]],
        "link": [["x", "e", "1"], [["v", 1], "y", "1/2"], [["v", 0], "y", "1/2"]],
    }
    if flavour == "type2":
        record.update(nodes=[["v", "1"], ["w", "1"]], edges=[["e", "1"]], beta="1/3", delta="1/2")
    return {"frame": "unit-interval", "graphs": {"g": record}, "signature": {"controls": {"K": 2, "M": 0}}}, record


# Rows that are faults at any degree, appended to a field of
# ``_small_document``: where the fault is named (below the record), and how.
FAULTS_AT_ANY_DEGREE = [
    ("ctrl", ["v", "K"], ".ctrl[2]", "duplicate entry for ('v', 'K')"),
    ("prnt", ["v", 1], ".prnt[4]", "duplicate entry for ('v', 1)"),
    ("link", [["v", 1], "y"], ".link[3]", "duplicate entry for (('v', 1), 'y')"),
    ("ctrl", ["ghost", "K"], ".ctrl", "undeclared node 'ghost'"),
    ("ctrl", ["v", "Z"], "", "relation entry ('v', 'Z') lies outside its domain/codomain"),
    ("prnt", ["v", 2], "", "relation entry ('v', 2) lies outside its domain/codomain"),
    ("link", [["v", 2], "y"], "", "relation entry (('v', 2), 'y') lies outside its domain/codomain"),
    ("link", ["x", "ghost"], "", "relation entry ('x', 'ghost') lies outside its domain/codomain"),
    ("ctrl", [1, "K"], ".ctrl[2]", "expected a string"),
    ("prnt", [True, "w"], ".prnt[4]", "booleans are not model elements"),
    ("link", [["v", True], "y"], ".link[3]", "a port is written [node, index]"),
]


@pytest.mark.parametrize("flavour", ("fuzzy", "type2"))
@pytest.mark.parametrize("key, pair, at, message", FAULTS_AT_ANY_DEGREE,
                         ids=[f"{k}-{m}" for k, _p, _a, m in FAULTS_AT_ANY_DEGREE])
def test_a_row_at_bottom_is_checked_before_it_is_dropped(flavour, key, pair, at, message):
    """A repeated pair, a pair outside its relation and an end of another
    sort are refused at bottom with the message and path they have above it."""
    refused = []
    for text in (".0e0", "1/2"):
        doc, record = _small_document(flavour)
        record[key].append([*pair, text])
        with pytest.raises(ParseError) as caught:
            parse(json.dumps(doc))
        refused.append((caught.value.path, caught.value.message))
    assert refused == [(f"$.graphs.g{at}", message)] * 2


@pytest.mark.parametrize("flavour", ("fuzzy", "type2"))
def test_a_site_at_the_inner_width_lies_outside_the_parent_relation(flavour):
    """Sites are tested in bulk as ints below the inner width (roots, in
    ``FAULTS_AT_ANY_DEGREE``, below the outer one): a row whose site is the
    width is refused by the constructor at any degree, at the record's path."""
    refused = []
    for text in (".0e0", "1/2"):
        doc, record = _small_document(flavour)
        record["prnt"].append([2, "w", text])
        with pytest.raises(ParseError) as caught:
            parse(json.dumps(doc))
        refused.append((caught.value.path, caught.value.message))
    assert refused == [("$.graphs.g", "relation entry (2, 'w') lies outside its domain/codomain")] * 2


@pytest.mark.parametrize("edges, message", [
    (["e", "v"], "node and edge identifiers overlap: ['v']"),
    (["e", "y"], "edge identifiers collide with outer names: ['y']"),
])
def test_a_link_part_built_in_bulk_keeps_its_edges_apart(edges, message):
    record = {
        "ctrl": [["v", "K", "1"]], "edges": edges, "inner": ["x"], "kind": "fuzzy-link",
        "link": [["x", "e", "1"], [["v", 0], "e", "1/2"], [["v", 1], "y", "1/2"]],
        "nodes": ["v"], "outer": ["y"],
    }
    doc = {"frame": "unit-interval", "graphs": {"g": record}, "signature": {"controls": {"K": 2}}}
    with pytest.raises(ParseError) as caught:
        parse(json.dumps(doc))
    assert (caught.value.path, caught.value.message) == ("$.graphs.g", message)


@pytest.mark.parametrize("part, message", [
    (PlaceGraph(H_SIGNATURE, 0, 1, {"v"}, {"v": "K"}, {"v": [0]}), "[0] is not a string, an integer or a port"),
    (LinkGraph(H_SIGNATURE, set(), {"y"}, {"v"}, set(), {"v": "K"}, {(): "y"}), "() is not a string, an integer or a port"),
])
def test_a_crisp_map_no_set_can_hold_is_refused_as_it_is_written(part, message):
    """The writer's refs test cannot hash or index such an end, so the map
    is walked as it is written, and refused there."""
    with pytest.raises(ValueError) as caught:
        serialize(ModelDocument(UNIT_INTERVAL, H_SIGNATURE, {"g": part}))
    assert str(caught.value) == f"cannot serialize: {message}"
