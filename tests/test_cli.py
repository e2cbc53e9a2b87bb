"""The command-line surface: subcommands, exit codes, deterministic output."""

import json
import sys

import pytest

from fuzzybig import ModelDocument, Signature, UNIT_INTERVAL, save_document
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


def test_missing_file_exits_three(capsys):
    status, _out, err = invoke(capsys, "validate", "no-such-file.fbg.json")
    assert status == 3
    assert "cannot read" in err


def test_parse_error_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.fbg.json"
    path.write_text("{ not json")
    status, _out, err = invoke(capsys, "validate", str(path))
    assert status == 3
    assert "parse error" in err


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
    assert err.startswith("parse error:") and "'ghost'" in err
    # the row form reports the same fault the same way
    rows = [[v, w, "1"] for v, w in identity.items()] + [["v0", "ghost", "1"]]
    status, _out, err = _check_rho(capsys, tmp_path, {"nodes": rows}, pf, pf)
    assert status == 3
    assert err.startswith("parse error:") and "'ghost'" in err


def test_type2_renaming_row_with_a_numeric_degree_is_a_parse_error(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, _out, err = _check_rho(capsys, tmp_path, {"nodes": [["v0", "v0", 1]]}, pf, pf)
    assert status == 3
    assert err.startswith("parse error:") and "row 0" in err


def test_type2_renaming_row_with_a_list_element_is_a_parse_error(tmp_path, capsys):
    _f, pf = _type2_pair(tmp_path)
    status, _out, err = _check_rho(
        capsys, tmp_path, {"nodes": [[["v0"], "v0", "1"]]}, pf, pf
    )
    assert status == 3
    assert err.startswith("parse error:") and "unhashable" not in err


def test_fuzzy_renaming_with_non_object_nodes_is_a_parse_error(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    for nodes in ([["v0", "v0"]], "v0", 7):
        status, _out, err = _check_rho(
            capsys, tmp_path, {"nodes": nodes}, str(pf), str(pf)
        )
        assert status == 3
        assert err.startswith("parse error:") and "must be an object" in err


def test_fuzzy_renaming_to_an_unknown_node_is_a_parse_error(tmp_path, capsys):
    f = fuzzify(make_h(), U)
    pf = tmp_path / "f.fbg.json"
    save_document(ModelDocument(U, H_SIGNATURE, {"f": f}), pf)
    rho = {"nodes": {**{v: v for v in f.nodes}, "v0": "ghost"},
           "edges": {e: e for e in f.edges}}
    status, _out, err = _check_rho(capsys, tmp_path, rho, str(pf), str(pf))
    assert status == 3
    assert err.startswith("parse error:") and "'ghost'" in err


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
