"""A seeded, time-boxed fuzz of ``fbg translate-check`` renaming files.

Valid renaming files for a fuzzy pair and a type-2 pair, each in object form
(``{source: target}``) and in row form (``[source, target, degree]``), are
mutated one to three times: keys deleted or renamed, values swapped for
values of other types, rows and keys repeated, identifiers the graphs lack,
malformed and 5,000-digit degrees, deep nesting, truncated text and bytes
that are not UTF-8.  Each mutant runs through the in-process ``cli.run``
and must stay inside the exit contract: a status in {0, 1, 2, 3}, no
exception and no traceback, within a bound per input.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import time
from collections import Counter

import pytest

from fuzzybig import ModelDocument, UNIT_INTERVAL, embed_bigraph, save_document, translate_type2
from fuzzybig.cli import run
from fuzzybig.fuzzy import SupportTranslation, fuzzify, translate_fuzzy

from helpers import H_SIGNATURE, make_h

U = UNIT_INTERVAL
SEED = 25
MAX_INPUTS = 600
TIME_BOX_S = 4.0  # the loop stops here; the mutants are the same, only fewer
PER_INPUT_S = 1.0
MIN_INPUTS = 100

ATOMS = [0, -1, 1.5, True, None, "", "ghost", [], {}, ["v0"], {"v0": "r_v0"}, [["v0", "r_v0", "1"]]]
IDENTIFIERS = ["ghost", "r_ghost", "v0", "r_v0", "e0", "r_e1", "x1", "y"]
DEGREES = ["", "0", "1", "1/0", "-1/2", "2", "3/2", "abc", "1/2/3", " 1/2", "1e5", "NaN", "0.5"]
BIG = "9" * 5000
KEYS = ["ghost", "", "nodes", "edges", "Nodes", "v0", "r_v0"]


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    """The model files of both pairs, and the valid renaming files to mutate."""
    directory = tmp_path_factory.mktemp("pairs")
    f = fuzzify(make_h(), U)
    rho = SupportTranslation({v: f"r_{v}" for v in f.nodes}, {e: f"r_{e}" for e in f.edges})
    f2 = embed_bigraph(f, U.parse_degree("1/2"), U.parse_degree("3/4"))
    graphs = {"f": f, "g": translate_fuzzy(f, rho), "f2": f2, "g2": translate_type2(f2, rho)}
    for name, graph in graphs.items():
        save_document(ModelDocument(U, H_SIGNATURE, {name: graph}), directory / f"{name}.fbg.json")
    objects = {"nodes": dict(rho.node_map), "edges": dict(rho.edge_map)}
    rows = {part: [[a, b, "1"] for a, b in sorted(table.items())] for part, table in objects.items()}
    bases = [
        (f"{flavour}-{form}", left, right, base)
        for flavour, left, right in (("fuzzy", "f", "g"), ("type2", "f2", "g2"))
        for form, base in (("object", objects), ("rows", rows))
    ]
    return directory, bases


def _slots(data) -> list:
    """Every ``(container, key)`` inside ``data``."""
    out, stack = [], [data]
    while stack:
        container = stack.pop()
        if isinstance(container, dict):
            keys = list(container)
        elif isinstance(container, list):
            keys = range(len(container))
        else:
            continue
        for key in keys:
            out.append((container, key))
            stack.append(container[key])
    return out


def _delete(rng, slots, subs):
    container, key = rng.choice(slots)
    del container[key]


def _rename_key(rng, slots, subs):
    keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
    if keyed:
        container, key = rng.choice(keyed)
        container[rng.choice(KEYS)] = container.pop(key)


def _swap_type(rng, slots, subs):
    container, key = rng.choice(slots)
    container[key] = copy.deepcopy(rng.choice(ATOMS))


def _unknown_identifier(rng, slots, subs):
    strings = [(c, k) for c, k in slots if isinstance(c[k], str)]
    if strings:
        container, key = rng.choice(strings)
        container[key] = rng.choice(IDENTIFIERS)


def _repeat(rng, slots, subs):
    """A row given twice, or an object member given twice (as text, since a
    dict cannot hold a key twice)."""
    container, key = rng.choice(slots)
    value = container[key]
    if isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
    elif isinstance(value, dict) and value:
        members = list(value.items())
        members.append(rng.choice(members))
        container[key] = _placeholder(
            subs, "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}"
        )


def _degree(rng, slots, subs):
    container, key = rng.choice(slots)
    choice = rng.randrange(4)
    if choice == 0:
        container[key] = rng.choice(DEGREES)
    elif choice == 1:
        container[key] = "1/" + BIG
    elif choice == 2:
        container[key] = BIG
    else:  # a 5,000-digit JSON number
        container[key] = _placeholder(subs, BIG)


def _deep(rng, slots, subs):
    container, key = rng.choice(slots)
    depth = rng.choice([10, 300, 800, 5000, 100_000])
    if rng.random() < 0.5:
        container[key] = _placeholder(subs, "[" * depth + "]" * depth)
    else:
        container[key] = _placeholder(subs, '{"a": ' * depth + "0" + "}" * depth)


MUTATIONS = [_delete, _rename_key, _swap_type, _unknown_identifier, _repeat, _degree, _deep]


def _placeholder(subs: dict, raw: str) -> str:
    """A string that the final text replaces with the JSON text ``raw``."""
    mark = f"@@{len(subs)}@@"
    subs[mark] = raw
    return mark


def _mutant(rng: random.Random, base: dict) -> bytes:
    data, subs = copy.deepcopy(base), {}
    for _ in range(rng.randint(1, 3)):
        slots = _slots(data)
        if not slots or rng.random() < 0.03:
            data = copy.deepcopy(rng.choice(ATOMS))
            continue
        rng.choice(MUTATIONS)(rng, slots, subs)
    text = json.dumps(data)
    # Later marks sit in text that earlier ones hold, so they go in first.
    for mark, raw in reversed(list(subs.items())):
        text = text.replace(json.dumps(mark), raw)
    raw = text.encode("utf-8")
    if rng.random() < 0.05:
        raw = raw[: rng.randrange(len(raw) + 1)]
    if rng.random() < 0.03:
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def test_mutated_renaming_files_stay_inside_the_exit_contract(pairs, tmp_path):
    directory, bases = pairs
    rng = random.Random(SEED)
    rho_path = tmp_path / "rho.json"
    statuses: Counter = Counter()
    start = time.perf_counter()
    ran = 0
    while ran < MAX_INPUTS and time.perf_counter() - start < TIME_BOX_S:
        label, left, right, base = bases[ran % len(bases)]
        raw = _mutant(rng, base)
        rho_path.write_bytes(raw)
        argv = [
            "translate-check", "--rho", str(rho_path),
            str(directory / f"{left}.fbg.json"), str(directory / f"{right}.fbg.json"),
        ]
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        except BaseException as exc:  # anything escaping run breaks the contract
            pytest.fail(f"{label}: {type(exc).__name__}: {exc} on {raw[:300]!r}")
        elapsed = time.perf_counter() - began
        assert status in (0, 1, 2, 3), (label, raw[:300])
        assert "Traceback" not in err.getvalue(), (label, raw[:300])
        assert elapsed < PER_INPUT_S, (label, elapsed, raw[:300])
        statuses[status] += 1
        ran += 1
    assert ran >= MIN_INPUTS, ran
    # Mutants reach both parse errors and the checkers' verdicts.
    assert statuses[3] and statuses[1], statuses
