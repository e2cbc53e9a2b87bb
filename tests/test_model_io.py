"""Serialization: canonical bytes, round trips, parse errors, DOT export."""

import hashlib
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    ModelDocument,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    chain,
    export_dot,
    fuzzify,
    load_document,
    parse,
    serialize,
    validate_document,
)
from fuzzybig.errors import ModelError, ParseError
from fuzzybig.generators import (
    random_fuzzy_chain,
    random_interface,
    random_type2_bigraph,
)
from fuzzybig.type2 import embed_bigraph

from helpers import H_SIGNATURE, make_h, random_crisp_bigraph
from test_parse_faults import BASE

U = UNIT_INTERVAL


def h_document():
    return ModelDocument(U, H_SIGNATURE, {"h": make_h()})


def test_h_model_file_parses_and_validates():
    doc = load_document("models/h_bigraph.fbg.json")
    assert doc == h_document()
    assert all(r.ok for r in validate_document(doc))


def test_round_trip_is_the_identity_on_documents():
    doc = h_document()
    assert parse(serialize(doc)) == doc


def test_serialize_is_canonical_on_parsed_text():
    text = serialize(h_document())
    assert serialize(parse(text)) == text
    assert text.endswith("\n") and "\r" not in text


def test_equal_documents_print_identical_bytes():
    a = serialize(h_document())
    b = serialize(ModelDocument(U, Signature({"M": 0, "L": 1, "K": 2}),
                                {"h": make_h()}))
    assert a == b


def test_round_trip_over_generated_models():
    rng = random.Random(31)
    graphs = {}
    for i, g in enumerate(random_fuzzy_chain(rng, U, H_SIGNATURE, 3)):
        graphs[f"f{i}"] = g
        graphs[f"p{i}"] = g.place
        graphs[f"l{i}"] = g.link
    t2 = random_type2_bigraph(rng, U, H_SIGNATURE, random_interface(rng, 2, 2),
                              random_interface(rng, 2, 2), prefix="t_")
    graphs["t"] = t2
    graphs["tp"] = t2.place
    graphs["tl"] = t2.link
    crisp = random_crisp_bigraph(rng, H_SIGNATURE, random_interface(rng, 2, 2),
                                 random_interface(rng, 2, 2), prefix="c_")
    graphs["c"] = crisp
    graphs["cp"] = crisp.place
    graphs["cl"] = crisp.link
    doc = ModelDocument(U, H_SIGNATURE, graphs)
    assert parse(serialize(doc)) == doc
    # and over the other frames
    for frame in (TWO_POINT, chain(5)):
        doc2 = ModelDocument(
            frame, H_SIGNATURE,
            {"f": random_fuzzy_chain(rng, frame, H_SIGNATURE, 1)[0]},
        )
        assert parse(serialize(doc2)) == doc2


def test_empty_document_is_minimal_and_stable():
    doc = ModelDocument(U, Signature({}), {})
    text = serialize(doc)
    assert parse(text) == doc
    assert serialize(parse(text)) == text


def test_embedded_type2_round_trips():
    doc = ModelDocument(U, H_SIGNATURE, {"e": embed_bigraph(fuzzify(make_h(), U))})
    assert parse(serialize(doc)) == doc


# --- parse errors ------------------------------------------------------------


def _h_text():
    return serialize(h_document())


def test_degree_out_of_range_is_a_parse_error():
    text = _h_text().replace('"crisp-bigraph"', '"crisp-bigraph"')
    bad = """{
  "frame": "unit-interval",
  "signature": {"controls": {"K": 1}},
  "graphs": {
    "g": {
      "kind": "fuzzy-place", "inner": 0, "outer": 1,
      "nodes": ["v"],
      "ctrl": [["v", "K", "1.2"]],
      "prnt": [["v", 0, "1"]]
    }
  }
}"""
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "ctrl" in str(err.value)


def test_dangling_identifier_is_a_parse_error():
    bad = """{
  "frame": "unit-interval",
  "signature": {"controls": {"K": 1}},
  "graphs": {
    "g": {
      "kind": "fuzzy-place", "inner": 0, "outer": 1,
      "nodes": ["v"],
      "ctrl": [["ghost", "K", "1/2"]],
      "prnt": [["v", 0, "1"]]
    }
  }
}"""
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "ghost" in str(err.value)


def test_unknown_field_is_rejected():
    text = _h_text().replace('"kind": "crisp-bigraph"',
                             '"kind": "crisp-bigraph", "mystery": 1')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "mystery" in str(err.value)


def test_unknown_frame_is_rejected():
    text = _h_text().replace('"unit-interval"', '"octagon"')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "octagon" in str(err.value)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("{\n  broken\n}")
    assert "line 2" in str(err.value)


# Text ``json`` cannot read: nested past the decoder's depth, and an integer
# past the interpreter's limit on digits.
DEEP_NESTING = "[" * 200_000
LONG_INTEGER = '{"frame": ' + "9" * 5000 + "}"


@pytest.mark.parametrize("text", [DEEP_NESTING, LONG_INTEGER], ids=["nesting", "integer"])
def test_unreadable_json_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    if text is DEEP_NESTING or hasattr(sys, "get_int_max_str_digits"):
        assert err.value.message.startswith("invalid JSON: ")
        assert err.value.path == "$"


def test_a_degree_text_is_checked_where_it_stands():
    """"0" is a good relation degree (the row is dropped) but no membership;
    the record that repeats it as one still fails, at its row."""
    doc = {
        "frame": "unit-interval",
        "signature": {"controls": {"M": 0}},
        "graphs": {
            "f": {"kind": "fuzzy-place", "inner": 0, "outer": 1, "nodes": ["v"],
                  "ctrl": [["v", "M", "0"]], "prnt": [["v", 0, "1"]]},
            "t": {"kind": "type2-place", "inner": 0, "outer": 1, "nodes": [["w", "0"]],
                  "ctrl": [], "prnt": [["w", 0, "1"]], "beta": "0"},
        },
    }
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert err.value.path == "$.graphs.t.nodes[0]"
    assert "bottom" in err.value.message
    doc["graphs"]["t"]["nodes"] = [["w", "1"]]
    parsed = parse(json.dumps(doc))
    assert len(parsed.graph("f").ctrl) == 0
    assert parsed.graph("t").degree == U.bottom


def test_degree_texts_are_not_remembered_across_calls():
    def document(frame):
        return json.dumps({
            "frame": frame, "signature": {"controls": {"M": 0}},
            "graphs": {"g": {"kind": "fuzzy-place", "inner": 0, "outer": 1, "nodes": ["v"],
                             "ctrl": [["v", "M", "3"]], "prnt": [["v", 0, "1"]]}},
        })

    assert parse(document("chain:5")).graph("g").ctrl.degree("v", "M") == chain(5).value(3)
    with pytest.raises(ParseError) as err:
        parse(document("two-point"))
    assert err.value.path == "$.graphs.g.ctrl[0]"


def test_numeric_degrees_are_rejected():
    bad = """{
  "frame": "unit-interval",
  "signature": {"controls": {}},
  "graphs": {
    "g": {
      "kind": "type2-place", "inner": 0, "outer": 0,
      "nodes": [["v", 0.5]], "ctrl": [], "prnt": [], "beta": "1"
    }
  }
}"""
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "string" in str(err.value)


def test_gamma_must_be_the_meet():
    rng = random.Random(5)
    t2 = random_type2_bigraph(rng, U, H_SIGNATURE, random_interface(rng, 2, 2),
                              random_interface(rng, 2, 2), prefix="t_")
    text = serialize(ModelDocument(U, H_SIGNATURE, {"t": t2}))
    gamma = U.format_degree(t2.degree)
    wrong = "1" if gamma != "1" else "1/2"
    with pytest.raises(ParseError) as err:
        parse(text.replace(f'"gamma": "{gamma}"', f'"gamma": "{wrong}"'))
    assert "gamma" in str(err.value)


# --- DOT export -----------------------------------------------------------------


def test_place_view_renders_two_disconnected_trees():
    text = export_dot(h_document(), "h", "place")
    assert text.count("cluster_root_") == 2
    assert "site 0" in text and "site 2" in text
    assert "style=dashed" in text


def test_link_view_shows_names_as_terminals():
    text = export_dot(h_document(), "h", "link")
    for name in ("x1", "x2", "y"):
        assert f'label="{name}"' in text
    assert "shape=diamond" in text  # hyperedges e0, e1
    assert "shape=point" in text  # ports


def test_fuzzy_degrees_annotate_edges():
    doc = ModelDocument(U, H_SIGNATURE, {"hf": fuzzify(make_h(), U)})
    place_view = export_dot(doc, "hf", "place")
    link_view = export_dot(doc, "hf", "link")
    assert 'label="1"' in place_view
    assert 'label="1"' in link_view


def test_empty_graph_renders_header_only():
    from fuzzybig import identity_bigraph, Interface

    doc = ModelDocument(
        U, H_SIGNATURE,
        {"u": identity_bigraph(Interface(0, frozenset()), U, H_SIGNATURE)},
    )
    assert export_dot(doc, "u", "place") == "digraph place {\n}\n"
    assert export_dot(doc, "u", "link") == "graph link {\n}\n"


def test_dot_output_is_deterministic():
    doc = h_document()
    assert export_dot(doc, "h", "place") == export_dot(doc, "h", "place")
    assert export_dot(doc, "h", "link") == export_dot(doc, "h", "link")


def test_unknown_graph_name_is_an_error():
    from fuzzybig.errors import ModelError

    with pytest.raises(ModelError):
        export_dot(h_document(), "nope", "place")
    with pytest.raises(ModelError):
        export_dot(h_document(), "h", "sideways")


# Over one record of each of the nine kinds in both views, plus a view no
# graph has; a graph without the part asked for contributes its message.
DOT_DIGEST = "361d3c3903fe6cecb20aa77a6ab9c0d105df785b2a418359fe38082083843b06"


def _dot_or_message(doc, name: str, view: str) -> str:
    try:
        return export_dot(doc, name, view)
    except ModelError as exc:
        return f"error: {exc}\n"


def test_the_dot_text_of_every_kind_is_pinned():
    doc = parse(json.dumps(BASE))
    text = "".join(
        f"{name} {view}\n{_dot_or_message(doc, name, view)}"
        for name in sorted(doc.graphs)
        for view in ("place", "link", "sideways")
    )
    for message in ("has no place part", "has no link part", "unknown view"):
        assert message in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DOT_DIGEST


# --- type-2 control references and degree text bounds ------------------------


TYPE2_RECORDS = {
    "type2-place": {
        "inner": 0, "outer": 1, "prnt": [["v", 0, "1"]], "beta": "1",
    },
    "type2-link": {
        "inner": [], "outer": ["y"], "edges": [], "link": [], "delta": "1",
    },
    "type2-bigraph": {
        "inner": {"width": 0, "names": []}, "outer": {"width": 1, "names": ["y"]},
        "edges": [], "prnt": [["v", 0, "1"]], "link": [], "beta": "1", "delta": "1",
    },
}


@pytest.mark.parametrize("kind", sorted(TYPE2_RECORDS))
def test_type2_control_of_an_undeclared_node_names_it(kind):
    record = {
        "kind": kind,
        "nodes": [["v", "1"]],
        "ctrl": [["v", "M", "1"], ["x", "M", "1"]],
        **TYPE2_RECORDS[kind],
    }
    doc = {"frame": "unit-interval", "signature": {"controls": {"M": 0}},
           "graphs": {"g": record}}
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert err.value.message == "undeclared node 'x'"
    assert err.value.path == "$.graphs.g.ctrl"
    # without the stray entry the record decodes
    record["ctrl"] = record["ctrl"][:1]
    assert parse(json.dumps(doc)).graph("g").ctrl.degree("v", "M") == U.top


@pytest.mark.parametrize("kind", sorted(TYPE2_RECORDS))
def test_type2_node_at_membership_zero_is_rejected_at_its_row(kind):
    record = {
        "kind": kind,
        "nodes": [["v", "1"], ["w", "0"]],
        "ctrl": [["v", "M", "1"], ["w", "M", "1"]],
        **TYPE2_RECORDS[kind],
    }
    doc = {"frame": "unit-interval", "signature": {"controls": {"M": 0}},
           "graphs": {"g": record}}
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert "'w'" in err.value.message and "bottom" in err.value.message
    assert err.value.path == "$.graphs.g.nodes[1]"


@pytest.mark.parametrize("kind", ["type2-link", "type2-bigraph"])
def test_type2_edge_at_membership_zero_is_rejected_at_its_row(kind):
    record = {
        "kind": kind,
        "nodes": [["v", "1"]],
        "ctrl": [["v", "M", "1"]],
        **TYPE2_RECORDS[kind],
        "edges": [["e", "2"], ["f", "0"]],
    }
    doc = {"frame": "chain:5", "signature": {"controls": {"M": 0}},
           "graphs": {"g": record}}
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert "'f'" in err.value.message and "bottom" in err.value.message
    assert err.value.path == "$.graphs.g.edges[1]"
    # without the zero row the record decodes
    record["edges"] = record["edges"][:1]
    assert parse(json.dumps(doc)).graph("g").edges.support == {"e"}


def _one_degree_document(degree: str) -> str:
    return json.dumps({
        "frame": "unit-interval",
        "signature": {"controls": {"K": 0}},
        "graphs": {"g": {
            "kind": "fuzzy-place", "inner": 0, "outer": 1, "nodes": ["v"],
            "ctrl": [["v", "K", degree]], "prnt": [["v", 0, "1"]],
        }},
    })


@pytest.mark.parametrize("degree", ["1e-999999999", "0e999999999", "1e-5000", "1e-1000"])
def test_huge_degree_exponents_are_rejected_promptly(degree):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(_one_degree_document(degree))
    assert time.perf_counter() - start < 1.0
    assert err.value.path == "$.graphs.g.ctrl[0]"


DEGREE_TEXT = st.one_of(
    st.fractions(min_value=0, max_value=1).map(str),
    st.builds(
        lambda sign, digits, point, exp: f"{sign}{digits[:point]}.{digits[point:]}e{exp}",
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-6000, max_value=6000),
    ),
    st.builds(
        lambda num, den: f"{num}/{den}",
        st.integers(min_value=0, max_value=10**1100),
        st.integers(min_value=1, max_value=10**1100),
    ),
    st.builds(lambda zeros: "0." + "0" * zeros + "1", st.integers(0, 4400)),
    # either side of the digit bound and of the interpreter's 4,300-digit
    # limit on int/str conversion
    st.sampled_from(
        [f"1e-{n}" for n in (999, 1000, 1001, 4299, 4300, 5000)]
        + ["0." + "0" * n + "1" for n in (998, 999, 4298, 4299)]
    ),
)


@settings(max_examples=300, deadline=None)
@given(DEGREE_TEXT)
def test_every_accepted_degree_round_trips(text):
    try:
        doc = parse(_one_degree_document(text))
    except ParseError:
        return
    again = parse(serialize(doc))
    assert again == doc
    assert serialize(again) == serialize(doc)
