"""The command-line surface: subcommands, exit codes, deterministic output."""

import gc
import json
import sys

import pytest

from fuzzybig import (
    FuzzySet,
    ModelDocument,
    Signature,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    UNIT_INTERVAL,
    cli,
    save_document,
)
from fuzzybig.cli import run
from fuzzybig.fuzzy import fuzzify, translate_fuzzy, SupportTranslation

from helpers import H_SIGNATURE, make_h

U = UNIT_INTERVAL
H_PATH = "models/h_bigraph.fbg.json"


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_validate_h_exits_zero(capsys):
    status, out, _err = invoke(capsys, "validate", H_PATH)
    assert status == 0
    assert "valid" in out


def test_validate_reports_problems_with_exit_one(tmp_path, capsys):
    bad = """{
  "frame": "unit-interval",
  "signature": {"controls": {"K": 0}},
  "graphs": {
    "g": {
      "kind": "crisp-place", "inner": 0, "outer": 1,
      "nodes": [["v", "K"]],
      "prnt": [["v", "v"]]
    }
  }
}"""
    path = tmp_path / "bad.fbg.json"
    path.write_text(bad)
    status, out, _err = invoke(capsys, "validate", str(path))
    assert status == 1
    assert "cyclic" in out


def test_validate_json_format(capsys):
    status, out, _err = invoke(capsys, "validate", H_PATH, "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload[0]["graph"] == "h" and payload[0]["ok"]


def test_compose_writes_a_loadable_composite(tmp_path, capsys):
    h = make_h()
    left = tmp_path / "left.fbg.json"
    right = tmp_path / "right.fbg.json"
    out_path = tmp_path / "out.fbg.json"
    from fuzzybig import identity_crisp

    save_document(
        ModelDocument(U, H_SIGNATURE, {"id": identity_crisp(h.outer, H_SIGNATURE)}),
        left,
    )
    save_document(ModelDocument(U, H_SIGNATURE, {"h": h}), right)
    status, out, _err = invoke(
        capsys, "compose", "--left", str(left), "--right", str(right),
        "--out", str(out_path),
    )
    assert status == 0
    from fuzzybig import load_document

    result = load_document(out_path)
    assert result.graph("result") == h


def test_compose_interface_mismatch_exits_one(tmp_path, capsys):
    h = make_h()
    path = tmp_path / "h.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"h": h}), path)
    status, _out, err = invoke(
        capsys, "compose", "--left", str(path), "--right", str(path),
        "--out", str(tmp_path / "x.fbg.json"),
    )
    assert status == 1
    assert "interface mismatch" in err
    assert "⟨" in err


def test_tensor_widths(tmp_path, capsys):
    from fuzzybig import Interface, identity_crisp

    sig = Signature({"K": 0})
    a = identity_crisp(Interface(3, frozenset({"a"})), sig)
    b = identity_crisp(Interface(1, frozenset({"b"})), sig)
    pa, pb = tmp_path / "a.fbg.json", tmp_path / "b.fbg.json"
    save_document(ModelDocument(U, sig, {"a": a}), pa)
    save_document(ModelDocument(U, sig, {"b": b}), pb)
    out_path = tmp_path / "ab.fbg.json"
    status, _out, _err = invoke(
        capsys, "tensor", "--left", str(pa), "--right", str(pb),
        "--out", str(out_path),
    )
    assert status == 0
    from fuzzybig import load_document

    assert load_document(out_path).graph("result").outer.width == 4


def test_support_command(capsys):
    status, out, _err = invoke(capsys, "support", H_PATH)
    assert status == 0
    assert "v0" in out and "e0" in out


def test_support_text_on_type2_records_lists_each_element_at_its_membership(tmp_path, capsys):
    sig, half, top = Signature({"K": 1}), U.parse_degree("1/2"), U.top
    nodes = FuzzySet(U, {"w": half, "a": top})
    ctrl = {("w", "K"): top, ("a", "K"): top}
    place = Type2FuzzyPlaceGraph(U, sig, 0, 1, nodes, ctrl, {("w", 0): half, ("a", 0): top}, half)
    link = Type2FuzzyLinkGraph(
        U, sig, set(), set(), nodes, FuzzySet(U, {"e": U.parse_degree("3/4")}), ctrl,
        {(("w", 0), "e"): half}, half,
    )
    path = tmp_path / "type2.fbg.json"
    save_document(ModelDocument(U, sig, {"p": place, "b": Type2FuzzyBigraph(place, link)}), path)
    status, out, _err = invoke(capsys, "support", str(path))
    assert status == 0
    assert out == "b:\n  a: 1\n  e: 3/4\n  w: 1/2\np:\n  a: 1\n  w: 1/2\n"


def test_translate_check_command(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    rho = SupportTranslation(
        {v: f"r_{v}" for v in f.nodes}, {e: f"r_{e}" for e in f.edges}
    )
    g = translate_fuzzy(f, rho)
    pf, pg = tmp_path / "f.fbg.json", tmp_path / "g.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    save_document(ModelDocument(U, H_SIGNATURE, {"g": g}), pg)
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps({"nodes": rho.node_map, "edges": rho.edge_map}))
    status, out, _err = invoke(
        capsys, "translate-check", "--rho", str(rho_path), str(pf), str(pg)
    )
    assert status == 0
    assert "pass" in out
    # a broken renaming exits 1 and pinpoints the failed property
    rho_path.write_text(json.dumps({
        "nodes": {**rho.node_map, "v0": "r_v1", "v1": "r_v0"},
        "edges": rho.edge_map,
    }))
    status, out, _err = invoke(
        capsys, "translate-check", "--rho", str(rho_path), str(pf), str(pg)
    )
    assert status == 1
    assert "FAIL" in out


def test_laws_command_reports_triple_count(capsys):
    status, out, _err = invoke(
        capsys, "laws", H_PATH, "--arrows", "20", "--seed", "42"
    )
    assert status == 0
    assert "triples checked:" in out
    assert "all laws hold" in out


def test_laws_output_is_byte_identical_across_runs(capsys):
    status1, out1, _ = invoke(capsys, "laws", H_PATH, "--seed", "7", "--format", "json")
    status2, out2, _ = invoke(capsys, "laws", H_PATH, "--seed", "7", "--format", "json")
    assert (status1, out1) == (status2, out2)
    payload = json.loads(out1)
    assert payload["ok"] is True


@pytest.mark.parametrize("option, value", [("--samples", "-1"), ("--arrows", "-3")])
def test_laws_rejects_a_negative_count_as_a_usage_error(capsys, option, value):
    status, out, err = invoke(capsys, "laws", H_PATH, option, value)
    assert (status, out) == (2, "")
    assert err.endswith(f"fbg laws: error: argument {option}: must not be negative, got {value}\n")


@pytest.mark.parametrize("option", ["--samples", "--arrows"])
def test_laws_rejects_a_zero_count_as_a_usage_error(capsys, option):
    status, out, err = invoke(capsys, "laws", H_PATH, option, "0")
    assert (status, out) == (2, "")
    assert err.endswith(
        f"fbg laws: error: argument {option}: must be at least 1: a count of 0 checks nothing\n"
    )


def test_laws_rejects_a_count_that_is_no_int_as_a_usage_error(capsys):
    status, out, err = invoke(capsys, "laws", H_PATH, "--arrows", "abc")
    assert (status, out) == (2, "")
    assert err.endswith("fbg laws: error: argument --arrows: invalid int value: 'abc'\n")


def test_export_dot_views(capsys):
    status, out, _err = invoke(capsys, "export-dot", H_PATH, "--view", "place")
    assert status == 0 and out.startswith("digraph place {")
    status, out, _err = invoke(capsys, "export-dot", H_PATH, "--view", "link")
    assert status == 0 and out.startswith("graph link {")


def test_export_dot_unknown_graph_exits_one(capsys):
    status, _out, err = invoke(
        capsys, "export-dot", H_PATH, "--view", "place", "--graph", "nope"
    )
    assert status == 1 and "unknown graph" in err


def test_usage_error_exits_two(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "compose", "--left", "x")[0] == 2


# argv that argparse answers itself: each subcommand asking for help, missing
# a required argument, given an unknown option and given an extra
# positional; and argv that names no subcommand first.
SUBCOMMAND_USAGE = {
    "validate": ["validate"],
    "compose": ["compose", "--left", "x"],
    "tensor": ["tensor", "--left", "x", "--right", "y"],
    "support": ["support"],
    "translate-check": ["translate-check", "x", "y"],
    "laws": ["laws"],
    "export-dot": ["export-dot", "x"],
}
FULL_ARGS = {
    "validate": ["validate", "x"],
    "compose": ["compose", "--left", "x", "--right", "y", "--out", "z"],
    "tensor": ["tensor", "--left", "x", "--right", "y", "--out", "z"],
    "support": ["support", "x"],
    "translate-check": ["translate-check", "--rho", "r", "x", "y"],
    "laws": ["laws", "x"],
    "export-dot": ["export-dot", "x", "--view", "place"],
}
PARSER_CORPUS = [
    *([name, "-h"] for name in SUBCOMMAND_USAGE),
    *SUBCOMMAND_USAGE.values(),
    *([*argv, "--bogus"] for argv in FULL_ARGS.values()),
    *([*argv, "extra"] for argv in FULL_ARGS.values()),
    [], ["-h"], ["--help"], ["frobnicate"], ["--format", "json", "validate", "x"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_run_answers_usage_as_the_full_parser_does(capsys, argv):
    """``run`` builds only the parser of the subcommand named first; what
    argparse prints and returns must be what the parser of all seven
    would."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert invoke(capsys, *argv) == (int(exc.value.code or 0), full.out, full.err)


def test_missing_file_exits_three(capsys):
    status, _out, err = invoke(capsys, "validate", "no-such-file.fbg.json")
    assert status == 3
    assert "cannot read" in err


def test_a_renaming_file_that_is_a_directory_exits_three(tmp_path, capsys):
    status, out, err = invoke(capsys, "translate-check", "--rho", str(tmp_path), H_PATH, H_PATH)
    assert (status, out) == (3, "")
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_run_reads_its_arguments_from_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fbg", "validate", H_PATH])
    assert run() == 0
    assert capsys.readouterr().out == "h: valid\n"


@pytest.mark.parametrize("argv, status", [(["validate", H_PATH], 0), (["frobnicate"], 2)])
def test_main_exits_with_the_status_run_returns(monkeypatch, capsys, argv, status):
    monkeypatch.setattr(sys, "argv", ["fbg", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == status


def test_parse_error_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.fbg.json"
    path.write_text("{ not json")
    status, _out, err = invoke(capsys, "validate", str(path))
    assert status == 3
    assert "parse error" in err


def test_a_huge_place_width_exits_three_without_building_it(tmp_path, capsys):
    path = tmp_path / "wide.fbg.json"
    path.write_text(
        '{"frame": "unit-interval", "signature": {"controls": {}}, "graphs": {"p": '
        '{"kind": "fuzzy-place", "inner": 2000000, "outer": 1, "nodes": [], '
        '"ctrl": [], "prnt": []}}}'
    )
    status, out, err = invoke(capsys, "validate", str(path))
    assert (status, out) == (3, "")
    assert err == "parse error: $.graphs.p.inner: width 2000000 exceeds the limit of 65536\n"


def test_a_huge_arity_exits_three_without_building_the_ports(tmp_path, capsys):
    path = tmp_path / "ports.fbg.json"
    path.write_text(
        '{"frame": "unit-interval", "signature": {"controls": {"K": 200000}}, "graphs": {"l": '
        '{"kind": "fuzzy-link", "inner": [], "outer": [], "nodes": ["v"], "edges": [], '
        '"ctrl": [["v", "K", "1"]], "link": []}}}'
    )
    status, out, err = invoke(capsys, "validate", str(path))
    assert (status, out) == (3, "")
    assert err == (
        "parse error: $.signature.controls.K: arity 200000 exceeds the limit of 65536\n"
    )


def test_a_tensor_too_wide_to_read_back_exits_one_and_writes_nothing(tmp_path, capsys):
    from fuzzybig import FuzzyPlaceGraph

    sig = Signature({})
    wide = FuzzyPlaceGraph(U, sig, 0, 40_000, set(), {}, {})
    pa, pb = tmp_path / "a.fbg.json", tmp_path / "b.fbg.json"
    save_document(ModelDocument(U, sig, {"a": wide}), pa)
    save_document(ModelDocument(U, sig, {"b": wide}), pb)
    out_path = tmp_path / "ab.fbg.json"
    status, out, err = invoke(
        capsys, "tensor", "--left", str(pa), "--right", str(pb), "--out", str(out_path),
    )
    assert (status, out) == (1, "")
    assert err == "error: cannot serialize: width 80000 exceeds the limit of 65536\n"
    assert not out_path.exists()


# Nested past the JSON decoder's depth, and an integer past the
# interpreter's limit on digits: both are unreadable input.
UNREADABLE = {"nesting": "[" * 200_000, "integer": '{"nodes": ' + "9" * 5000 + "}"}


def _says_invalid_json(text: str) -> bool:
    return text is UNREADABLE["nesting"] or hasattr(sys, "get_int_max_str_digits")


@pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_json_exits_three(tmp_path, capsys, text):
    path = tmp_path / "unreadable.fbg.json"
    path.write_text(text)
    status, out, err = invoke(capsys, "validate", str(path))
    assert (status, out) == (3, "")
    assert err.startswith("parse error: ")
    if _says_invalid_json(text):
        assert err.startswith("parse error: $: invalid JSON: ")


@pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_renaming_file_exits_three(tmp_path, capsys, text):
    rho = tmp_path / "rho.json"
    rho.write_text(text)
    status, out, err = invoke(capsys, "translate-check", "--rho", str(rho), H_PATH, H_PATH)
    assert (status, out) == (3, "")
    assert err.startswith("parse error: ")
    if _says_invalid_json(text):
        assert err.startswith("parse error: $: invalid JSON in renaming file: ")


def test_a_model_file_repeating_a_key_exits_three(tmp_path, capsys):
    with open(H_PATH, encoding="utf-8") as handle:
        text = handle.read()
    path = tmp_path / "twice.fbg.json"
    path.write_text(text.replace('"graphs": {', '"graphs": {"h": {"kind": "crisp-bigraph"},', 1))
    status, out, err = invoke(capsys, "validate", str(path))
    assert (status, out) == (3, "")
    assert err == "parse error: $: invalid JSON: key 'h' repeats in one object\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"nodes": {"v0": "v1"}, "nodes": {}}', "nodes"),
        ('{"nodes": {"v0": "v1", "v0": "v0"}}', "v0"),
    ],
    ids=["top", "nested"],
)
def test_a_renaming_file_repeating_a_key_exits_three(tmp_path, capsys, text, key):
    rho = tmp_path / "rho.json"
    rho.write_text(text)
    status, out, err = invoke(capsys, "translate-check", "--rho", str(rho), H_PATH, H_PATH)
    assert (status, out) == (3, "")
    assert err == (
        f"parse error: $: invalid JSON in renaming file: key {key!r} repeats in one object\n"
    )


def test_identical_invocations_print_identical_bytes(capsys):
    first = invoke(capsys, "support", H_PATH)
    second = invoke(capsys, "support", H_PATH)
    assert first == second


# --- renaming-file faults are parse errors -----------------------------------


def _type2_pair(tmp_path):
    from fuzzybig import embed_bigraph

    f = embed_bigraph(fuzzify(make_h(), U))
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    return f, str(pf)


def _check_rho(capsys, tmp_path, rho, left, right):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(rho))
    return invoke(capsys, "translate-check", "--rho", str(rho_path), left, right)


def test_type2_renaming_to_an_unknown_node_is_a_parse_error(tmp_path, capsys):
    f, pf = _type2_pair(tmp_path)
    identity = {v: v for v in f.nodes.support}
    status, _out, err = _check_rho(
        capsys, tmp_path, {"nodes": {**identity, "v0": "ghost"}}, pf, pf
    )
    assert status == 3
    assert err == "parse error: $.nodes.v0: renaming mentions unknown target node 'ghost'\n"
    # the row form reports the same fault the same way, at the row
    rows = [[v, w, "1"] for v, w in identity.items()] + [["v0", "ghost", "1"]]
    status, _out, err = _check_rho(capsys, tmp_path, {"nodes": rows}, pf, pf)
    assert status == 3
    assert err == (
        f"parse error: $.nodes[{len(identity)}]: renaming mentions unknown target node 'ghost'\n"
    )


def test_type2_renaming_rows_may_not_repeat_a_pair(tmp_path, capsys):
    # a later row would silently overwrite the first
    f, pf = _type2_pair(tmp_path)
    rows = [["v0", "v0", "1/1000"]] + [[v, v, "1"] for v in sorted(f.nodes.support)]
    status, out, err = _check_rho(capsys, tmp_path, {"nodes": rows}, pf, pf)
    assert (status, out) == (3, "")
    assert err == "parse error: $.nodes[1]: renaming row 1 repeats the pair ('v0', 'v0')\n"


def test_type2_renaming_row_with_a_numeric_degree_is_a_parse_error(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, _out, err = _check_rho(capsys, tmp_path, {"nodes": [["v0", "v0", 1]]}, pf, pf)
    assert status == 3
    assert err.startswith("parse error: $.nodes[0]: renaming row 0: ")


def test_type2_renaming_row_with_a_list_element_is_a_parse_error(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, _out, err = _check_rho(
        capsys, tmp_path, {"nodes": [[["v0"], "v0", "1"]]}, pf, pf
    )
    assert status == 3
    assert err == "parse error: $.nodes[0]: renaming node identifiers are strings, got ['v0']\n"


@pytest.mark.parametrize("nodes", [
    {"v0": list(range(200_000))},       # a target that is no string
    {"v0": "w" * 200_000},              # an unknown target
    {"v" * 200_000: "v0"},              # an unknown source, which names the path too
    [["v0", "v0", [0] * 200_000]],      # a degree that is no string
    [["v0", "v0", "9" * 200_000]],      # a degree off the frame
])
def test_a_renaming_fault_quotes_only_the_start_of_a_long_value(tmp_path, capsys, nodes):
    _f, pf = _type2_pair(tmp_path)
    status, out, err = _check_rho(capsys, tmp_path, {"nodes": nodes}, pf, pf)
    assert (status, out) == (3, "")
    assert err.startswith("parse error: $.nodes") and err.endswith("...\n")
    assert len(err.encode()) < 1024


def test_a_long_value_in_a_renaming_fault_is_cut_to_a_fixed_length(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, _out, err = _check_rho(capsys, tmp_path, {"nodes": {"v0": list(range(200_000))}}, pf, pf)
    assert status == 3
    quoted = repr(list(range(200_000)))[:97] + "..."
    assert err == f"parse error: $.nodes.v0: renaming node identifiers are strings, got {quoted}\n"


def test_fuzzy_renaming_with_non_object_nodes_is_a_parse_error(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    for nodes in ([["v0", "v0"]], "v0", 7):
        status, _out, err = _check_rho(
            capsys, tmp_path, {"nodes": nodes}, str(pf), str(pf)
        )
        assert status == 3
        assert err == "parse error: $.nodes: renaming nodes must be an object\n"


def test_fuzzy_renaming_to_an_unknown_node_is_a_parse_error(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    rho = {"nodes": {**{v: v for v in f.nodes}, "v0": "ghost"},
           "edges": {e: e for e in f.edges}}
    status, _out, err = _check_rho(capsys, tmp_path, rho, str(pf), str(pf))
    assert status == 3
    assert err == "parse error: $.nodes.v0: renaming mentions unknown target node 'ghost'\n"


def test_a_type2_renaming_row_of_the_wrong_shape_names_its_position(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    rho = {"nodes": [["v0", "v0", "1"]], "edges": [["e0", "e0"]]}
    status, out, err = _check_rho(capsys, tmp_path, rho, pf, pf)
    assert (status, out) == (3, "")
    assert err == "parse error: $.edges[0]: renaming row 0 must be [from, to, degree]\n"


def test_a_renaming_file_that_is_no_object_is_a_fault_of_the_whole_file(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, out, err = _check_rho(capsys, tmp_path, [], pf, pf)
    assert (status, out) == (3, "")
    assert err == "parse error: $: renaming file must be an object with nodes/edges\n"


# --- a well-formed renaming that is no bijection is a verdict, exit 1 ---------


def test_fuzzy_renaming_merging_two_nodes_exits_one(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    rho = {"nodes": {**{v: v for v in f.nodes}, "v0": "v1"},
           "edges": {e: e for e in f.edges}}
    status, out, err = _check_rho(capsys, tmp_path, rho, str(pf), str(pf))
    assert status == 1
    assert out == ""
    assert err == "error: the node renaming is not a bijection\n"


def test_fuzzy_renaming_leaving_a_node_out_exits_one(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    rho = {"nodes": {v: v for v in f.nodes if v != "v0"},
           "edges": {e: e for e in f.edges}}
    status, out, err = _check_rho(capsys, tmp_path, rho, str(pf), str(pf))
    assert status == 1
    assert out == ""
    assert err == "error: node renaming is not a bijection from f's nodes to g's\n"


# Byte 0xff starts no UTF-8 sequence: text that does not decode is
# unreadable input, like text that is no JSON.
NOT_UTF8 = b'{"frame": "\xff"}'


def test_a_model_file_that_is_not_utf8_exits_three(tmp_path, capsys):
    path = tmp_path / "latin.fbg.json"
    path.write_bytes(NOT_UTF8)
    status, out, err = invoke(capsys, "validate", str(path))
    assert (status, out) == (3, "")
    assert err.startswith("parse error: ")


def test_a_renaming_file_that_is_not_utf8_exits_three(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    rho.write_bytes(NOT_UTF8)
    status, out, err = invoke(capsys, "translate-check", "--rho", str(rho), H_PATH, H_PATH)
    assert (status, out) == (3, "")
    assert err.startswith("parse error: ")


# --- translate-check output, pinned byte for byte ------------------------------
#
# H against a crisp-renamed copy, and against that copy with one parent degree
# lowered; a type-2 H with two half-member nodes against its renamed copy
# (support equivalent) and against the copy with one parent degree lowered
# (not).  The copies are renamed in the crisp layer, so the pins do not rest
# on the translation code they check.

RENAMED_NODES = {f"v{i}": f"r_v{i}" for i in range(6)}
RENAMED_EDGES = {"e0": "r_e0", "e1": "r_e1"}


def _lowered_parent(b, child, parent, degree):
    """``b`` with one parent entry at ``degree``, rebuilt through the public
    constructors of its own flavour."""
    p = b.place
    fields = [p.frame, p.signature, p.inner, p.outer, p.nodes, p.ctrl]
    extra = [p.degree] if hasattr(p, "degree") else []
    place = type(p)(*fields, p.prnt.with_entry(child, parent, degree), *extra)
    return type(b)(place, b.link)


def _type2_h(b):
    """``b`` embedded at place degree 1/2 and link degree 3/4, with the images
    of v1 and v4 at membership 1/2 and every other node at 1."""
    from fuzzybig import (
        FuzzySet,
        Type2FuzzyBigraph,
        Type2FuzzyLinkGraph,
        Type2FuzzyPlaceGraph,
        embed_bigraph,
    )

    half = U.parse_degree("1/2")
    e = embed_bigraph(b, half, U.parse_degree("3/4"))
    halves = {RENAMED_NODES.get(v, v) for v in ("v1", "v4")} | {"v1", "v4"}
    nodes = FuzzySet(U, {v: half if v in halves else U.top for v in e.nodes.support})
    place = Type2FuzzyPlaceGraph(
        U, e.signature, e.place.inner, e.place.outer, nodes, e.ctrl, e.place.prnt, e.place.degree
    )
    link = Type2FuzzyLinkGraph(
        U, e.signature, e.link.inner, e.link.outer, nodes, e.edges, e.ctrl, e.link.link,
        e.link.degree,
    )
    return Type2FuzzyBigraph(place, link)


def _translation_case(tmp_path, case: str):
    """The two model files and the renaming file of one pinned case."""
    from fuzzybig import make_type2_translation
    from fuzzybig.crisp import rename_crisp

    h = make_h()
    f, g = fuzzify(h, U), fuzzify(rename_crisp(h, RENAMED_NODES, RENAMED_EDGES), U)
    rho = {"nodes": RENAMED_NODES, "edges": RENAMED_EDGES}
    if case == "fuzzy-fail":
        g = _lowered_parent(g, "r_v1", "r_v0", U.parse_degree("1/2"))
    elif case.startswith("type2"):
        f, g = _type2_h(f), _type2_h(g)
        if case == "type2-equivalent":
            canonical, _ = make_type2_translation(f, g)
            rho["nodes"] = [[a, b, U.format_degree(x)] for (a, b), x in sorted(canonical.items())]
        else:
            g = _lowered_parent(g, "r_v1", "r_v0", U.parse_degree("1/2"))
    paths = []
    for name, graph in (("f", f), ("g", g)):
        path = tmp_path / f"{name}.fbg.json"
        save_document(ModelDocument(U, H_SIGNATURE, {name: graph}), path)
        paths.append(str(path))
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(rho))
    return str(rho_path), *paths


FUZZY_PASS = [
    ("control preservation", True, ""),
    ("port bijection", True, ""),
    ("parent relation", True, ""),
    ("link relation", True, ""),
]
FUZZY_FAIL = [
    ("control preservation", True, ""),
    ("port bijection", True, ""),
    ("parent relation", False, "translated parent degrees are not dominated"),
    ("link relation", True, ""),
]
TYPE2_EQUIVALENT = [
    ("node relation matches target memberships", True, ""),
    ("edge relation matches target memberships", False, "first mismatch at ('e0', 'r_e1')"),
    ("control preservation", False, "pulled-back control degrees exceed f's"),
    ("port relation bound", True, ""),
    ("parent inequality", False, "translated parent degrees exceed the bound"),
    ("link inequality", False, "translated link degrees exceed the bound"),
]
TYPE2_NOT_EQUIVALENT = [
    ("node relation matches target memberships", False, "first mismatch at ('v0', 'r_v1')"),
    ("edge relation matches target memberships", False, "first mismatch at ('e0', 'r_e1')"),
    ("control preservation", True, ""),
    ("port relation bound", True, ""),
    ("parent inequality", True, ""),
    ("link inequality", True, ""),
]
TRANSLATION_PINS = {
    # case: (exit status, checks, support equivalent)
    "fuzzy-pass": (0, FUZZY_PASS, None),
    "fuzzy-fail": (1, FUZZY_FAIL, None),
    "type2-equivalent": (1, TYPE2_EQUIVALENT, True),
    "type2-not-equivalent": (1, TYPE2_NOT_EQUIVALENT, False),
}

TRANSLATION_TEXT = {
    "fuzzy-pass": """\
support translation: pass
  control preservation: pass
  port bijection: pass
  parent relation: pass
  link relation: pass
""",
    "fuzzy-fail": """\
support translation: FAIL
  control preservation: pass
  port bijection: pass
  parent relation: FAIL (translated parent degrees are not dominated)
  link relation: pass
""",
    "type2-equivalent": """\
support translation: FAIL
  node relation matches target memberships: pass
  edge relation matches target memberships: FAIL (first mismatch at ('e0', 'r_e1'))
  control preservation: FAIL (pulled-back control degrees exceed f's)
  port relation bound: pass
  parent inequality: FAIL (translated parent degrees exceed the bound)
  link inequality: FAIL (translated link degrees exceed the bound)
  support equivalent: yes
""",
    "type2-not-equivalent": """\
support translation: FAIL
  node relation matches target memberships: FAIL (first mismatch at ('v0', 'r_v1'))
  edge relation matches target memberships: FAIL (first mismatch at ('e0', 'r_e1'))
  control preservation: pass
  port relation bound: pass
  parent inequality: pass
  link inequality: pass
  support equivalent: no
""",
}


@pytest.mark.parametrize("case", TRANSLATION_PINS)
def test_translate_check_text_output_is_pinned(tmp_path, capsys, case):
    rho, left, right = _translation_case(tmp_path, case)
    status, out, err = invoke(capsys, "translate-check", "--rho", rho, left, right)
    assert (status, out, err) == (TRANSLATION_PINS[case][0], TRANSLATION_TEXT[case], "")


@pytest.mark.parametrize("case", TRANSLATION_PINS)
def test_translate_check_json_output_is_pinned(tmp_path, capsys, case):
    rho, left, right = _translation_case(tmp_path, case)
    status, out, err = invoke(
        capsys, "translate-check", "--rho", rho, left, right, "--format", "json"
    )
    expected_status, checks, equivalent = TRANSLATION_PINS[case]
    payload = {
        "checks": [{"detail": detail, "name": name, "ok": ok} for name, ok, detail in checks],
        "ok": expected_status == 0,
    }
    if equivalent is not None:
        payload["support_equivalent"] = equivalent
    # two-space indent, sorted keys, one trailing newline
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (status, out, err) == (expected_status, expected, "")


# --- one invocation pays for its own work ----------------------------------------
#
# ``run`` pauses the cyclic collector for its own duration.  The tests below
# pin what makes that safe: the collector's state is put back on every exit
# path, and no command leaves cyclic garbage for a paused collector to miss.


def _models(tmp_path) -> dict:
    """Small model files of the crisp, fuzzy and type-2 flavours, and a
    renaming file for each translate-check, keyed by the role they play."""
    from fuzzybig import (
        Interface, identity_bigraph, identity_crisp, identity_type2_bigraph, load_document,
    )
    from fuzzybig.crisp import rename_crisp

    paths = {"crisp": H_PATH, "broken": str(tmp_path / "broken.fbg.json")}
    (tmp_path / "broken.fbg.json").write_text("{ not json")
    for flavour, case in (("fuzzy", "fuzzy-pass"), ("type2", "type2-equivalent")):
        (tmp_path / flavour).mkdir()
        rho, left, right = _translation_case(tmp_path / flavour, case)
        paths.update({flavour: left, f"{flavour}-renamed": right, f"{flavour}-rho": rho})
    fuzzy = load_document(paths["fuzzy"]).graph("f")
    type2 = load_document(paths["type2"]).graph("f")
    z = Interface(1, frozenset({"z"}))
    for role, graph in (
        ("crisp-renamed", rename_crisp(make_h(), RENAMED_NODES, RENAMED_EDGES)),
        ("crisp-id", identity_crisp(make_h().outer, H_SIGNATURE)),
        ("crisp-z", identity_crisp(z, H_SIGNATURE)),
        ("fuzzy-id", identity_bigraph(fuzzy.outer, U, H_SIGNATURE)),
        ("fuzzy-z", identity_bigraph(z, U, H_SIGNATURE)),
        ("type2-id", identity_type2_bigraph(type2.outer, U, H_SIGNATURE)),
    ):
        paths[role] = str(tmp_path / f"{role}.fbg.json")
        save_document(ModelDocument(U, H_SIGNATURE, {role: graph}), paths[role])
    paths["out"] = str(tmp_path / "out.fbg.json")
    return paths


# case: (exit status, argv over the paths of ``_models``); every subcommand
# on the crisp, fuzzy and type-2 bigraph files (type-2 has no tensor, so that
# row is an exit-1 path), and the exit-1 and exit-3 paths.  ``laws`` reads only
# the frame and signature of its file, which the three files share, so it has
# one row per output format.
COMMANDS = {
    "validate-crisp": (0, lambda p: ["validate", p["crisp"]]),
    "validate-fuzzy": (0, lambda p: ["validate", p["fuzzy"]]),
    "validate-type2": (0, lambda p: ["validate", p["type2"], "--format", "json"]),
    "compose-crisp": (0, lambda p: ["compose", "--left", p["crisp-id"], "--right", p["crisp"], "--out", p["out"]]),
    "compose-fuzzy": (0, lambda p: ["compose", "--left", p["fuzzy-id"], "--right", p["fuzzy"], "--out", p["out"]]),
    "compose-type2": (0, lambda p: ["compose", "--left", p["type2-id"], "--right", p["type2"], "--out", p["out"]]),
    "tensor-crisp": (0, lambda p: ["tensor", "--left", p["crisp-z"], "--right", p["crisp"], "--out", p["out"]]),
    "tensor-fuzzy": (0, lambda p: ["tensor", "--left", p["fuzzy-z"], "--right", p["fuzzy"], "--out", p["out"]]),
    "tensor-type2": (1, lambda p: ["tensor", "--left", p["type2-id"], "--right", p["type2"], "--out", p["out"]]),
    "support-crisp": (0, lambda p: ["support", p["crisp"]]),
    "support-fuzzy": (0, lambda p: ["support", p["fuzzy"]]),
    "support-type2": (0, lambda p: ["support", p["type2"], "--format", "json"]),
    "translate-check-crisp": (0, lambda p: ["translate-check", "--rho", p["fuzzy-rho"], p["crisp"], p["crisp-renamed"]]),
    "translate-check-fuzzy": (0, lambda p: ["translate-check", "--rho", p["fuzzy-rho"], p["fuzzy"], p["fuzzy-renamed"]]),
    "translate-check-type2": (1, lambda p: ["translate-check", "--rho", p["type2-rho"], p["type2"], p["type2-renamed"]]),
    "laws": (0, lambda p: ["laws", p["crisp"], "--arrows", "6", "--samples", "20"]),
    "laws-json": (0, lambda p: ["laws", p["type2"], "--arrows", "6", "--format", "json"]),
    "export-dot-crisp-place": (0, lambda p: ["export-dot", p["crisp"], "--view", "place"]),
    "export-dot-crisp-link": (0, lambda p: ["export-dot", p["crisp"], "--view", "link"]),
    "export-dot-fuzzy-place": (0, lambda p: ["export-dot", p["fuzzy"], "--view", "place"]),
    "export-dot-fuzzy-link": (0, lambda p: ["export-dot", p["fuzzy"], "--view", "link"]),
    "export-dot-type2-place": (0, lambda p: ["export-dot", p["type2"], "--view", "place"]),
    "export-dot-type2-link": (0, lambda p: ["export-dot", p["type2"], "--view", "link"]),
    "compose-mismatch": (1, lambda p: ["compose", "--left", p["crisp"], "--right", p["crisp"], "--out", p["out"]]),
    "parse-error": (3, lambda p: ["validate", p["broken"]]),
}


@pytest.mark.parametrize("case", COMMANDS)
def test_no_command_leaves_cyclic_garbage(tmp_path, capsys, case):
    """The premise of pausing the collector: what a command drops,
    reference counting frees.  A usage error is left out, because argparse's
    own exit leaves a few unreachable objects, and that path parses no
    model."""
    status, argv = COMMANDS[case]
    argv = argv(_models(tmp_path))
    # one run first, so that one-time set-up (lazy imports, caches) is
    # not counted
    first_status, out, _err = invoke(capsys, *argv)
    assert first_status == status
    # Two cycles come from the standard library, each of a fixed size
    # whatever the model: the argument parser ``run`` builds for this
    # subcommand (argparse's parsers, actions and groups refer to each
    # other) and, for --format json, the indented JSON encoder (its nested
    # encoders are closures that refer to each other).  A run may leave
    # exactly what those two leave, and nothing of its own.
    gc.collect()
    cli._build_parser(argv[0]).parse_args(argv)
    if "json" in argv:
        json.dumps(json.loads(out), indent=2, sort_keys=True)
    allowed = gc.collect()
    assert run(argv) == status
    assert gc.collect() == allowed


def _raise(_args):
    raise RuntimeError("not caught by run")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, status", [
    (["support", H_PATH], 0),
    (["export-dot", H_PATH, "--view", "place", "--graph", "nope"], 1),
    (["frobnicate"], 2),
    (["validate", "no-such-file.fbg.json"], 3),
    (["support", H_PATH], RuntimeError),
])
def test_run_puts_the_collector_back_as_it_found_it(monkeypatch, capsys, enabled, argv, status):
    if status is RuntimeError:
        monkeypatch.setitem(cli._COMMANDS, "support", _raise)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if status is RuntimeError:
            with pytest.raises(RuntimeError):
                run(argv)
        else:
            assert run(argv) == status
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert after is enabled


# --- compose and tensor: crisp parts, and the faults of the two files -----------


def _save(path, graphs, frame=U, signature=H_SIGNATURE):
    save_document(ModelDocument(frame, signature, graphs), path)
    return str(path)


@pytest.mark.parametrize("part", ["place", "link"])
@pytest.mark.parametrize("op", ["compose", "tensor"])
def test_crisp_parts_compose_and_tensor_through_the_bridge(tmp_path, capsys, op, part):
    from fuzzybig import UNIT_INTERFACE, identity_crisp, load_document

    h = getattr(make_h(), part)
    if op == "compose":  # id . h
        other = getattr(identity_crisp(make_h().outer, H_SIGNATURE), part)
        left, right = _save(tmp_path / "l.fbg.json", {"id": other}), _save(tmp_path / "r.fbg.json", {"h": h})
    else:  # h (x) unit
        other = getattr(identity_crisp(UNIT_INTERFACE, H_SIGNATURE), part)
        left, right = _save(tmp_path / "l.fbg.json", {"h": h}), _save(tmp_path / "r.fbg.json", {"u": other})
    out_path = str(tmp_path / "out.fbg.json")
    status, out, err = invoke(capsys, op, "--left", left, "--right", right, "--out", out_path)
    assert (status, out, err) == (0, f"wrote {out_path}\n", "")
    assert load_document(out_path).graph("result") == h


def test_compose_of_files_over_different_frames_exits_one(tmp_path, capsys):
    from fuzzybig import TWO_POINT

    left = _save(tmp_path / "l.fbg.json", {"h": make_h()})
    right = _save(tmp_path / "r.fbg.json", {"h": make_h()}, frame=TWO_POINT)
    status, out, err = invoke(capsys, "compose", "--left", left, "--right", right, "--out", str(tmp_path / "o"))
    assert (status, out, err) == (1, "", "error: frames differ: unit-interval vs two-point\n")


def test_tensor_of_files_with_different_signatures_exits_one(tmp_path, capsys):
    from fuzzybig import UNIT_INTERFACE, identity_crisp

    sig = Signature({"K": 2})
    left = _save(tmp_path / "l.fbg.json", {"h": make_h()})
    right = _save(tmp_path / "r.fbg.json", {"u": identity_crisp(UNIT_INTERFACE, sig)}, signature=sig)
    status, out, err = invoke(capsys, "tensor", "--left", left, "--right", right, "--out", str(tmp_path / "o"))
    assert (status, out, err) == (1, "", "error: signatures differ between the two files\n")


def test_compose_of_a_place_graph_with_a_link_graph_exits_one(tmp_path, capsys):
    h = make_h()
    left = _save(tmp_path / "l.fbg.json", {"p": h.place})
    right = _save(tmp_path / "r.fbg.json", {"l": h.link})
    status, out, err = invoke(capsys, "compose", "--left", left, "--right", right, "--out", str(tmp_path / "o"))
    assert (status, out, err) == (1, "", "error: cannot compose a PlaceGraph with a LinkGraph\n")


def test_a_two_graph_file_without_a_name_flag_exits_one(tmp_path, capsys):
    h = make_h()
    both = _save(tmp_path / "both.fbg.json", {"a": h, "b": h})
    status, out, err = invoke(capsys, "tensor", "--left", both, "--right", both, "--out", str(tmp_path / "o"))
    assert (status, out, err) == (
        1, "", "error: the left file holds 2 graphs; pick one with a name flag\n"
    )


def test_an_unwritable_out_path_exits_three(tmp_path, capsys):
    from fuzzybig import identity_crisp

    h = make_h()
    left = _save(tmp_path / "l.fbg.json", {"id": identity_crisp(h.outer, H_SIGNATURE)})
    right = _save(tmp_path / "r.fbg.json", {"h": h})
    out_path = tmp_path / "no-such-directory" / "out.fbg.json"
    status, out, err = invoke(capsys, "compose", "--left", left, "--right", right, "--out", str(out_path))
    assert (status, out) == (3, "")
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert not out_path.parent.exists()


def test_validate_on_a_file_without_graphs_says_so(tmp_path, capsys):
    path = _save(tmp_path / "empty.fbg.json", {})
    assert invoke(capsys, "validate", path) == (0, "no graphs to validate\n", "")
