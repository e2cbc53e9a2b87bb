"""Faulty model documents: parse errors keep their messages and paths, and
the CLI answers every one within its exit contract.

The base document holds one record of each of the nine graph kinds.  Every
mutation makes one change somewhere in it: a value replaced by one of a
fixed set of wrong values, a field or list item removed, a list item
duplicated, or an unknown field added.  The outcome of parsing each mutant
(``ok``, or the ``ParseError`` path and message) forms a table whose digest
is pinned below, so a change to any message, path or error order shows.

To see the table, and to compare two versions of the parser line by line,
run ``PYTHONPATH=src python tests/test_parse_faults.py``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzybig import parse
from fuzzybig.cli import run
from fuzzybig.errors import ParseError

# One valid record of each kind, with degrees in the unit interval.  Degree
# texts repeat across fields, so a fault can sit after a good occurrence of
# the same text.
BASE = {
    "frame": "unit-interval",
    "graphs": {
        "cp": {
            "inner": 1, "kind": "crisp-place",
            "nodes": [["v", "K"], ["w", "M"]], "outer": 1,
            "prnt": [[0, "w"], ["v", 0], ["w", "v"]],
        },
        "cl": {
            "edges": ["e"], "inner": ["x"], "kind": "crisp-link",
            "link": [["x", "e"], [["v", 0], "y"]],
            "nodes": [["v", "L"]], "outer": ["y"],
        },
        "cb": {
            "edges": ["e"], "inner": {"names": ["x"], "width": 1}, "kind": "crisp-bigraph",
            "link": [["x", "e"], [["v", 0], "e"], [["v", 1], "y"]],
            "nodes": [["v", "K"], ["w", "M"]], "outer": {"names": ["y"], "width": 1},
            "prnt": [[0, "w"], ["v", 0], ["w", "v"]],
        },
        "fp": {
            "ctrl": [["v", "K", "1/2"], ["w", "M", "1"]], "inner": 1, "kind": "fuzzy-place",
            "nodes": ["v", "w"], "outer": 1,
            "prnt": [[0, "w", "1/3"], ["v", 0, "1"], ["w", "v", "1/2"]],
        },
        "fl": {
            "ctrl": [["v", "L", "1/2"]], "edges": ["e"], "inner": ["x"], "kind": "fuzzy-link",
            "link": [["x", "e", "1"], [["v", 0], "y", "1/2"]],
            "nodes": ["v"], "outer": ["y"],
        },
        "fb": {
            "ctrl": [["v", "K", "1/2"], ["w", "M", "1"]], "edges": ["e"],
            "inner": {"names": ["x"], "width": 1}, "kind": "fuzzy-bigraph",
            "link": [["x", "e", "1"], [["v", 0], "e", "1/2"], [["v", 1], "y", "1/3"]],
            "nodes": ["v", "w"], "outer": {"names": ["y"], "width": 1},
            "prnt": [[0, "w", "1/3"], ["v", 0, "1"], ["w", "v", "1/2"]],
        },
        "tp": {
            "beta": "1/3", "ctrl": [["v", "K", "1/2"], ["w", "M", "1"]], "inner": 1,
            "kind": "type2-place", "nodes": [["v", "1/2"], ["w", "1"]], "outer": 1,
            "prnt": [[0, "w", "1/3"], ["v", 0, "1"], ["w", "v", "1/2"]],
        },
        "tl": {
            "ctrl": [["v", "L", "1/2"]], "delta": "1/2", "edges": [["e", "1/2"]],
            "inner": ["x"], "kind": "type2-link",
            "link": [["x", "e", "1"], [["v", 0], "y", "1/2"]],
            "nodes": [["v", "1"]], "outer": ["y"],
        },
        "tb": {
            "beta": "1/3", "ctrl": [["v", "K", "1/2"], ["w", "M", "1"]], "delta": "1/3",
            "edges": [["e", "1/2"]], "gamma": "1/3",
            "inner": {"names": ["x"], "width": 1}, "kind": "type2-bigraph",
            "link": [["x", "e", "1"], [["v", 0], "e", "1/2"], [["v", 1], "y", "1/3"]],
            "nodes": [["v", "1/2"], ["w", "1"]], "outer": {"names": ["y"], "width": 1},
            "prnt": [[0, "w", "1/3"], ["v", 0, "1"], ["w", "v", "1/2"]],
        },
    },
    "signature": {"controls": {"K": 2, "L": 1, "M": 0}},
}

# Wrong in most places, right in a few: an undeclared identifier, a node
# and an outer name (which clash as edges), bottom, a degree above top, a
# text that is no rational, a port, and values of every other JSON sort.
REPLACEMENTS = (None, True, -1, 7, 1.5, "zz", "v", "y", "0", "2", "1/0", [], {}, ["v", 0])
BASE_TEXT = json.dumps(BASE)

# A deliberate change to a message or a path re-pins these; the table
# printed by this file on both sides shows what moved.
MUTANTS = 5133
DIGEST = "9bef0a8572d597b8c17f69fdd714fd117151b8439f1dc6600118ec5e7e8e1837"


def _positions(value, at=()):
    yield at, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _positions(item, at + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _positions(item, at + (index,))


def _edited(at, change):
    doc = json.loads(BASE_TEXT)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    change(parent, at[-1])
    return doc


def _set(value):
    def change(parent, key):
        parent[key] = copy.deepcopy(value)
    return change


def _delete(parent, key):
    del parent[key]


def _duplicate(parent, index):
    parent.insert(index, copy.deepcopy(parent[index]))


def _add_unknown(parent, key):
    parent[key]["zz"] = 0


def mutants():
    """``(label, document)`` for every single-fault mutation of ``BASE``."""
    for at, value in _positions(BASE):
        where = "/".join(map(str, at)) or "$"
        if isinstance(value, dict) and at:
            yield f"{where} +zz", _edited(at, _add_unknown)
        if not at:
            continue
        for new in REPLACEMENTS:
            if json.dumps(new) != json.dumps(value):
                yield f"{where} = {json.dumps(new)}", _edited(at, _set(new))
        yield f"{where} deleted", _edited(at, _delete)
        if isinstance(at[-1], int):
            yield f"{where} duplicated", _edited(at, _duplicate)


def outcome(doc) -> str:
    try:
        parse(json.dumps(doc))
    except ParseError as exc:
        return f"{exc.path}\t{exc.message}"
    return "ok"


def table() -> list[str]:
    return [f"{label}\t{outcome(doc)}" for label, doc in mutants()]


def test_the_base_document_parses():
    assert len(parse(json.dumps(BASE)).graphs) == 9


def test_every_fault_keeps_its_message_and_path():
    lines = table()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == (MUTANTS, DIGEST)


# --- the CLI on faulty documents ----------------------------------------------

JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from(["0", "1", "1/2", "1/3", "2", "1/0", "-1", "1e-99999", "zz", "v", "y", "K"]),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
POSITIONS = [at for at, _value in _positions(BASE) if at]
GRAPH_NAMES = sorted(BASE["graphs"])


def _apply(doc, at, value):
    """``doc`` with the value at ``at`` replaced, if an earlier fault left
    that position in place."""
    parent = doc
    for key in at[:-1]:
        if not isinstance(parent, (dict, list)):
            return
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(parent, dict) or (isinstance(parent, list) and at[-1] < len(parent)):
        parent[at[-1]] = value


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(list(argv))


@settings(max_examples=150, deadline=None)
@given(
    faults=st.lists(st.tuples(st.sampled_from(POSITIONS), JSON_VALUE), min_size=1, max_size=3),
    left=st.sampled_from(GRAPH_NAMES),
    right=st.sampled_from(GRAPH_NAMES),
)
# "0" is a good relation degree (the row is dropped) but no membership.
@example(
    faults=[(("graphs", "fp", "ctrl", 0, 2), "0"), (("graphs", "tp", "nodes", 0, 1), "0")],
    left="fp", right="tp",
)
# A number where the same degree was written as text before.
@example(faults=[(("graphs", "tb", "link", 1, 2), 0.5)], left="tb", right="tb")
def test_the_cli_answers_faulty_documents_within_its_exit_contract(faults, left, right):
    doc = json.loads(BASE_TEXT)
    for at, value in faults:
        _apply(doc, at, value)
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = os.path.join(tmp, "bad.fbg.json"), os.path.join(tmp, "good.fbg.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with open(good, "w", encoding="utf-8") as handle:
            handle.write(BASE_TEXT)
        out = os.path.join(tmp, "out.fbg.json")
        assert _cli("validate", bad) in (0, 1, 2, 3)
        assert _cli("support", bad) in (0, 1, 2, 3)
        for view in ("place", "link"):
            assert _cli("export-dot", bad, "--view", view, "--graph", left) in (0, 1, 2, 3)
        for command in ("compose", "tensor"):
            for files in ((bad, good), (good, bad), (bad, bad)):
                code = _cli(
                    command, "--left", files[0], "--right", files[1], "--out", out,
                    "--left-name", left, "--right-name", right,
                )
                assert code in (0, 1, 2, 3)


if __name__ == "__main__":
    for line in table():
        print(line)
