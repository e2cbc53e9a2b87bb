"""A seeded, time-boxed fuzz of the model-file round trip.

Small graphs of all nine kinds are taken apart into their constructor
arguments and mutated one to three times: identifiers dropped from or added
to one field only, controls changed, dropped or given to undeclared nodes,
map endpoints swapped for values of other sorts, widths and degrees changed,
one part of a crisp bigraph changed alone, the document's frame and
signature swapped, and its graph named by values other than one string.
Every mutant the public constructors accept must then either be refused by
``serialize`` with ``ValueError("cannot serialize: ...")`` or be read back
by ``parse`` as the document it was: the round-trip property of Claessen
and Hughes, "QuickCheck" (ICFP 2000).
"""

from __future__ import annotations

import inspect
import random
import time
from collections import Counter

from fuzzybig import (
    Bigraph,
    FuzzyBigraph,
    FuzzyRelation,
    FuzzySet,
    Interface,
    ModelDocument,
    ParseError,
    Signature,
    Type2FuzzyBigraph,
    parse,
    serialize,
)
from fuzzybig.generators import random_degree, random_fuzzy_bigraph, random_type2_bigraph

from helpers import ALL_FRAMES, H_SIGNATURE, DiamondFrame, random_crisp_bigraph

SEED = 29
MAX_INPUTS = 3000
TIME_BOX_S = 4.0  # the loop stops here; the mutants are the same, only fewer
MIN_INPUTS = 300

INNER = Interface(2, frozenset({"x0", "x1"}))
OUTER = Interface(2, frozenset({"y0", "y1"}))
DOC_FRAMES = ALL_FRAMES + (DiamondFrame(),)
SIGNATURES = (
    H_SIGNATURE,
    Signature({"K": 2, "L": 1}),
    Signature({"K": 2, "L": 1, "M": 0, "N": 3}),
    Signature({"K": 2, "L": 1, "M": 70_000}),
)
IDENTIFIERS = ["ghost", "v0", "v1", "e0", "x0", "y0", "K"]
ATOMS = IDENTIFIERS + [
    0, 1, 2, -1, 70_000, True, 1.5, None, "", ("v0", 0), ("v0", 5), ("ghost", 0),
    ("v0", -1), ("v0", True), (3, 0), ("v0",), ("v0", 0, 1),
]
CONTROLS = ["K", "L", "M", "N", "Z", 3, None, ("a", "b")]
WIDTHS = [-1, 0, 1, 3, True, 1.5, 70_000]
SHARED = ("frame", "signature", "nodes", "ctrl")  # one field of a bigraph's two parts
GRAPH_NAMES = ["g", "a", "", "ü", 1, 0, None, True, 1.5, ("g",)]


def _fields(part) -> dict:
    """A part's constructor arguments, each as a value that can be mutated:
    sets, dicts of map entries and dicts of graded memberships."""
    out = {}
    for name in list(inspect.signature(type(part).__init__).parameters)[1:]:
        value = getattr(part, name)
        if isinstance(value, (FuzzyRelation, FuzzySet)) or hasattr(value, "keys"):
            value = dict(value.items())
        elif isinstance(value, frozenset):
            value = set(value)
        out[name] = value
    return out


def _build(cls, fields: dict):
    if cls.__name__.startswith("Type2"):
        fields = {
            key: FuzzySet(fields["frame"], value) if key in ("nodes", "edges") else value
            for key, value in fields.items()
        }
    return cls(**fields)


def _base(rng: random.Random) -> tuple:
    """A graph of one of the nine kinds, and the frame it is over."""
    frame = rng.choice(ALL_FRAMES)
    flavour = rng.choice(("crisp", "fuzzy", "type2"))
    if flavour == "crisp":
        graph = random_crisp_bigraph(rng, H_SIGNATURE, INNER, OUTER, "", 3, 2)
    elif flavour == "fuzzy":
        graph = random_fuzzy_bigraph(rng, frame, H_SIGNATURE, INNER, OUTER, "", 3, 2)
    else:
        graph = random_type2_bigraph(rng, frame, H_SIGNATURE, INNER, OUTER, "", 3, 2)
    return rng.choice((graph, graph.place, graph.link)), frame


# --- mutations: each changes one field of one part, or the document ------------


def _identifiers(rng, part, doc):
    sets = [key for key in ("nodes", "edges", "inner", "outer") if isinstance(part.get(key), (set, dict))]
    key = rng.choice(sets)
    ids = part[key]
    if ids and rng.random() < 0.5:
        victim = rng.choice(sorted(ids))
        ids.pop(victim) if isinstance(ids, dict) else ids.discard(victim)
    elif isinstance(ids, dict):
        ids[rng.choice(IDENTIFIERS)] = part["frame"].top
    else:
        ids.add(rng.choice(IDENTIFIERS))
    return key


def _endpoint(rng, part, doc):
    key = rng.choice([k for k in ("ctrl", "prnt", "link") if part.get(k)] or ["ctrl"])
    entries = part[key]
    if not entries:
        entries[rng.choice(ATOMS)] = rng.choice(ATOMS)
        return key
    old = rng.choice(sorted(entries, key=repr))
    value = entries.pop(old)
    atom = rng.choice(ATOMS)
    if "frame" in part:  # graded entries are keyed by their pair
        old = (atom, old[1]) if rng.random() < 0.5 else (old[0], atom)
    elif rng.random() < 0.5:
        old = atom
    else:
        value = atom
    entries[old] = value
    return key


def _control(rng, part, doc):
    ctrl = part["ctrl"]
    node = rng.choice(sorted(part["nodes"]) + ["ghost"])
    graded = "frame" in part
    choice = rng.random()
    if choice < 0.3 and ctrl:
        del ctrl[rng.choice(sorted(ctrl, key=repr))]
    elif graded:
        ctrl[(node, rng.choice(CONTROLS))] = part["frame"].top
    else:
        ctrl[node] = rng.choice(CONTROLS)
    return "ctrl"


def _width(rng, part, doc):
    widths = [key for key in ("inner", "outer") if isinstance(part[key], int)]
    if not widths:
        return None
    key = rng.choice(widths)
    part[key] = rng.choice(WIDTHS)
    return key


def _degree(rng, part, doc):
    if "frame" not in part:
        return None
    frame = rng.choice(ALL_FRAMES)
    if "degree" in part and rng.random() < 0.3:
        part["degree"] = random_degree(rng, frame)
        return "degree"
    graded = [k for k in ("ctrl", "prnt", "link", "nodes", "edges") if isinstance(part.get(k), dict)]
    key = rng.choice(graded)
    if part[key]:
        part[key][rng.choice(sorted(part[key], key=repr))] = random_degree(rng, frame)
    return key


def _signature(rng, part, doc):
    part["signature"] = rng.choice(SIGNATURES)
    return "signature"


def _frame(rng, part, doc):
    if "frame" not in part:
        return None
    part["frame"] = rng.choice(ALL_FRAMES)
    return "frame"


def _document(rng, part, doc):
    if rng.random() < 0.5:
        doc["frame"] = rng.choice(DOC_FRAMES)
    else:
        doc["signature"] = rng.choice(SIGNATURES)
    return None


def _names(rng, part, doc):
    """The graph under one or two names, strings or not."""
    doc["names"] = rng.sample(GRAPH_NAMES, rng.randint(1, 2))
    return None


MUTATIONS = (
    [_identifiers] * 3 + [_endpoint] * 4 + [_control] * 2
    + [_width, _degree, _signature, _frame, _document, _names]
)


def mutants(seed: int = SEED, count: int = MAX_INPUTS, time_box: float = TIME_BOX_S):
    """Documents holding one mutated graph that the public constructors
    accepted, up to ``count`` of them or until ``time_box`` seconds pass."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + time_box
    made = 0
    while made < count and time.perf_counter() < deadline:
        graph, frame = _base(rng)
        bigraph = isinstance(graph, (Bigraph, FuzzyBigraph, Type2FuzzyBigraph))
        parts = [graph.place, graph.link] if bigraph else [graph]
        specs = [(type(p), _fields(p)) for p in parts]
        doc = {"frame": frame, "signature": H_SIGNATURE, "names": ["g"]}
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(specs))
            fields = specs[index][1]
            key = rng.choice(MUTATIONS)(rng, fields, doc)
            # A shared field changes in both parts of a graded bigraph, whose
            # constructor refuses parts that disagree, and in one or both of
            # a crisp bigraph.
            if bigraph and key in SHARED and ("frame" in fields or rng.random() < 0.5):
                value = fields[key]
                specs[1 - index][1][key] = value.copy() if isinstance(value, (set, dict)) else value
        try:
            built = [_build(cls, fields) for cls, fields in specs]
            graph = type(graph)(*built) if bigraph else built[0]
        except Exception:  # a mutant the constructors refuse
            continue
        made += 1
        yield ModelDocument(doc["frame"], doc["signature"], dict.fromkeys(doc["names"], graph))


def outcome(doc: ModelDocument) -> str:
    """``refused``, ``same``, or how the round trip failed."""
    try:
        text = serialize(doc)
    except ValueError as exc:
        return "refused" if str(exc).startswith("cannot serialize: ") else f"ValueError: {exc}"
    except Exception as exc:  # any other exception is a fault
        return f"{type(exc).__name__} from serialize: {exc}"
    try:
        back = parse(text)
    except ParseError as exc:
        return f"written, then refused: {exc.message}"
    return "same" if back == doc else "read back as another graph"


def test_serialize_refuses_or_parse_reads_back_the_same_document():
    started = time.perf_counter()
    tally: Counter = Counter()
    faults = []
    for doc in mutants():
        result = outcome(doc)
        tally[result if result in ("refused", "same") else "fault"] += 1
        if result not in ("refused", "same"):
            faults.append((result, doc))
    assert not faults, f"{len(faults)} faults, first: {faults[0]}"
    assert sum(tally.values()) >= MIN_INPUTS, tally
    # Both outcomes are common: the mutants are not all refused.
    assert tally["refused"] >= MIN_INPUTS // 10 and tally["same"] >= MIN_INPUTS // 10, tally
    assert time.perf_counter() - started < TIME_BOX_S + 4.0
