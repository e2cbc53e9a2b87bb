"""The crisp bridge: fuzzify, defuzzify and the type-2 embedding.

The first half pins every message the bridge raises on malformed input,
byte for byte and in the order the checks run.  The second half rebuilds
what the bridge builds through the public checked constructors and
compares the two.
"""

import random
from dataclasses import fields, replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    Bigraph,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzySet,
    Interface,
    LinkGraph,
    PlaceGraph,
    Signature,
    UNIT_INTERVAL,
    compose_crisp,
    compose_fuzzy,
    defuzzify,
    embed_bigraph,
    fuzzify,
    identity_bigraph,
    identity_type2_bigraph,
    tensor_crisp,
    validate_place_graph,
)
from fuzzybig import crisp, fuzzy
from fuzzybig.errors import (
    InterfaceMismatchError,
    ModelError,
    NameClashError,
    NotCrispError,
    SignatureMismatchError,
    SupportOverlapError,
)
from fuzzybig.fuzzy import defuzzify_link, defuzzify_place, fuzzify_link, fuzzify_place
from fuzzybig.generators import random_fuzzy_bigraph, random_interface
from fuzzybig.type2 import Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph

from crisp_oracle import compose_direct, enumerate_composable_pairs, tensor_direct
from helpers import ALL_FRAMES, H_SIGNATURE, assert_checked_rebuild, d, random_crisp_bigraph

U = UNIT_INTERVAL
SIG = Signature({"K": 1, "M": 0})
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def base() -> Bigraph:
    """A valid 1->1, {x}->{y} crisp bigraph: node v (control K) under root
    0 over site 0, its port and x wired to edge e and outer name y."""
    place = PlaceGraph(SIG, 1, 1, {"v"}, {"v": "K"}, {0: "v", "v": 0})
    link = LinkGraph(
        SIG, {"x"}, {"y"}, {"v"}, {"e"}, {"v": "K"}, {"x": "e", ("v", 0): "y"}
    )
    return Bigraph(place, link)


def with_place(**fields) -> Bigraph:
    b = base()
    return Bigraph(replace(b.place, **fields), b.link)


def with_link(**fields) -> Bigraph:
    b = base()
    return Bigraph(b.place, replace(b.link, **fields))


def outside(a, b) -> str:
    return f"relation entry ({a!r}, {b!r}) lies outside its domain/codomain"


# --- fuzzify: every message, in check order ------------------------------------

FUZZIFY_FAULTS = {
    "negative inner width": (
        with_place(inner=-1, prnt={"v": 0}),
        "interface widths must be natural numbers",
    ),
    "negative outer width": (
        with_place(outer=-2),
        "interface widths must be natural numbers",
    ),
    "width before a control fault": (
        with_place(outer=-1, ctrl={"v": "Q"}),
        "interface widths must be natural numbers",
    ),
    "width before an unhashable parent": (
        with_place(inner=-1, prnt={"v": []}),
        "interface widths must be natural numbers",
    ),
    "control key off the nodes": (
        with_place(ctrl={"v": "K", "ghost": "K"}),
        outside("ghost", "K"),
    ),
    "control value off the signature": (
        with_place(ctrl={"v": "Q"}),
        outside("v", "Q"),
    ),
    "first control fault in map order": (
        with_place(ctrl={"v": "Q", "ghost": "K"}),
        outside("v", "Q"),
    ),
    "control fault before a parent fault": (
        with_place(ctrl={"v": "Q"}, prnt={0: "v", "v": 5}),
        outside("v", "Q"),
    ),
    "parent key off the children": (
        with_place(prnt={0: "v", "v": 0, 3: "v"}),
        outside(3, "v"),
    ),
    "parent value off the parents": (
        with_place(prnt={0: "v", "v": 1}),
        outside("v", 1),
    ),
    "parent value an undeclared node": (
        with_place(prnt={0: "v", "v": "ghost"}),
        outside("v", "ghost"),
    ),
    "place fault before a link fault": (
        Bigraph(
            replace(base().place, prnt={0: "v", "v": 1}),
            replace(base().link, link={"x": "nowhere"}),
        ),
        outside("v", 1),
    ),
    "nodes overlap edges": (
        with_link(edges={"e", "v"}),
        "node and edge identifiers overlap: ['v']",
    ),
    "edges collide with outer names": (
        with_link(edges={"e", "y"}),
        "edge identifiers collide with outer names: ['y']",
    ),
    "overlap before collision": (
        with_link(edges={"v", "y"}),
        "node and edge identifiers overlap: ['v']",
    ),
    "overlap before an unhashable link": (
        with_link(edges={"e", "v"}, link={"x": [], ("v", 0): "y"}),
        "node and edge identifiers overlap: ['v']",
    ),
    "link control off the signature": (
        with_link(ctrl={"v": "Q"}),
        outside("v", "Q"),
    ),
    "link control key off the nodes": (
        with_link(ctrl={"v": "K", "ghost": "M"}),
        outside("ghost", "M"),
    ),
    "link key past the arity": (
        with_link(link={"x": "e", ("v", 0): "y", ("v", 1): "e"}),
        outside(("v", 1), "e"),
    ),
    "link key off the inner names": (
        with_link(link={"z": "e", ("v", 0): "y"}),
        outside("z", "e"),
    ),
    "link value off the links": (
        with_link(link={"x": "nowhere", ("v", 0): "y"}),
        outside("x", "nowhere"),
    ),
    "link key of a node without ports": (
        with_link(ctrl={"v": "M"}, link={"x": "e", ("v", 0): "y"}),
        outside(("v", 0), "y"),
    ),
    "signature disagreement": (
        with_link(signature=Signature({"K": 1, "M": 0, "N": 2})),
        "place and link parts use different signatures",
    ),
    "node set disagreement": (
        with_link(nodes={"v", "w"}),
        "place and link parts disagree on the node set",
    ),
    "control disagreement": (
        with_link(ctrl={"v": "M"}, link={"x": "e"}),
        "place and link parts disagree on the control relation",
    ),
    "link checks before agreement": (
        with_link(signature=Signature({"K": 1}), ctrl={"v": "M"}),
        outside("v", "M"),
    ),
    "signature before nodes": (
        with_link(signature=Signature({"K": 1, "M": 0, "N": 2}), nodes={"v", "w"}),
        "place and link parts use different signatures",
    ),
}


@pytest.mark.parametrize("case", sorted(FUZZIFY_FAULTS))
@pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda f: f.name)
def test_fuzzify_messages_are_pinned(case, frame):
    bigraph, message = FUZZIFY_FAULTS[case]
    with pytest.raises(ValueError) as caught:
        fuzzify(bigraph, frame)
    assert str(caught.value) == message
    assert type(caught.value) is ValueError


def test_the_part_fuzzifiers_raise_the_same_messages():
    with pytest.raises(ValueError, match=r"^interface widths must be natural numbers$"):
        fuzzify_place(with_place(inner=-1, prnt={"v": 0}).place)
    with pytest.raises(ValueError) as caught:
        fuzzify_link(with_link(link={"x": "nowhere", ("v", 0): "y"}).link)
    assert str(caught.value) == outside("x", "nowhere")
    with pytest.raises(ValueError) as caught:
        fuzzify_link(with_link(edges={"e", "y"}).link)
    assert str(caught.value) == "edge identifiers collide with outer names: ['y']"


def test_fuzzify_accepts_what_the_checked_constructors_accept():
    # A partial control map is not a fuzzify error: validation reports it.
    b = with_link(ctrl={}, link={"x": "e"})
    b = Bigraph(replace(b.place, ctrl={}), b.link)
    f = fuzzify(b, U)
    assert len(f.ctrl) == 0 and f.link.ports == frozenset()


# --- defuzzify: the three NotCrispErrors ------------------------------------------


def fuzzy_place(ctrl, prnt, outer=1):
    return FuzzyPlaceGraph(U, SIG, 0, outer, {"v"}, ctrl, prnt)


def test_defuzzify_rejects_a_degree_below_top():
    p = fuzzy_place({("v", "K"): U.top}, {("v", 0): d("1/2")})
    with pytest.raises(NotCrispError) as caught:
        defuzzify_place(p)
    assert str(caught.value) == "parent relation entry ('v', 0) has degree 1/2, not top"


def test_defuzzify_rejects_two_top_targets():
    p = fuzzy_place({("v", "K"): U.top}, {("v", 0): U.top, ("v", 1): U.top}, outer=2)
    with pytest.raises(NotCrispError) as caught:
        defuzzify_place(p)
    assert str(caught.value) == "parent relation has two top-degree targets for 'v'"


def test_defuzzify_rejects_a_relation_not_total_at_top():
    p = fuzzy_place({}, {("v", 0): U.top})
    with pytest.raises(NotCrispError) as caught:
        defuzzify_place(p)
    assert str(caught.value) == "control relation is not total at top: [\"'v'\"]"


def test_defuzzify_checks_control_then_parents_then_links():
    link = FuzzyLinkGraph(
        U, SIG, {"x"}, set(), {"v"}, {"e"}, {("v", "K"): d("1/3")},
        {("x", "e"): d("1/4")},
    )
    with pytest.raises(NotCrispError) as caught:
        defuzzify_link(link)
    assert str(caught.value) == (
        "control relation entry ('v', 'K') has degree 1/3, not top"
    )
    place = fuzzy_place({("v", "K"): U.top}, {("v", 0): d("1/2")})
    link = FuzzyLinkGraph(
        U, SIG, {"x"}, set(), {"v"}, {"e"}, {("v", "K"): U.top}, {("x", "e"): d("1/4")}
    )
    with pytest.raises(NotCrispError) as caught:
        defuzzify(FuzzyBigraph(place, link))
    assert str(caught.value) == "parent relation entry ('v', 0) has degree 1/2, not top"
    place = fuzzy_place({("v", "K"): U.top}, {("v", 0): U.top})
    with pytest.raises(NotCrispError) as caught:
        defuzzify(FuzzyBigraph(place, link))
    assert str(caught.value) == "link relation entry ('x', 'e') has degree 1/4, not top"
    link = FuzzyLinkGraph(
        U, SIG, {"x"}, set(), {"v"}, {"e"}, {("v", "K"): U.top}, {("x", "e"): U.top}
    )
    with pytest.raises(NotCrispError) as caught:
        defuzzify(FuzzyBigraph(place, link))
    assert str(caught.value) == "link relation is not total at top: [\"('v', 0)\"]"


# --- embed_bigraph on a node whose widest control is not at top --------------------


def test_embedding_names_the_node_whose_strongest_control_is_not_its_widest():
    sig = Signature({"K": 2, "M": 0})
    ctrl = {("v", "K"): d("1/2"), ("v", "M"): U.top}
    place = FuzzyPlaceGraph(U, sig, 0, 1, {"v"}, ctrl, {("v", 0): U.top})
    link = FuzzyLinkGraph(
        U, sig, set(), {"y"}, {"v"}, set(), ctrl, {(("v", 1), "y"): d("1/3")}
    )
    with pytest.raises(ValueError) as caught:
        embed_bigraph(FuzzyBigraph(place, link))
    assert str(caught.value) == (
        "cannot embed node 'v' with controls K at 1/2, M at 1: the type-2 port "
        "rule gives it the 0 port(s) of its control at the join of those "
        "degrees, but its port ('v', 1) is linked"
    )


def test_embedding_keeps_a_narrower_port_set_nothing_links_to():
    sig = Signature({"K": 2, "M": 0})
    ctrl = {("v", "K"): d("1/2"), ("v", "M"): U.top}
    place = FuzzyPlaceGraph(U, sig, 0, 1, {"v"}, ctrl, {("v", 0): U.top})
    link = FuzzyLinkGraph(U, sig, set(), {"y"}, {"v"}, set(), ctrl, {})
    embedded = embed_bigraph(FuzzyBigraph(place, link))
    assert link.ports == {("v", 0), ("v", 1)}
    assert embedded.link.ports == frozenset()


# --- rebuild oracle ----------------------------------------------------------------


def checked_fuzzify(b: Bigraph, frame) -> FuzzyBigraph:
    """``fuzzify`` spelled out through the public checked constructors."""
    top = frame.top
    p, l = b.place, b.link
    place = FuzzyPlaceGraph(
        frame, p.signature, p.inner, p.outer, p.nodes,
        {(v, k): top for v, k in p.ctrl.items()},
        {(c, t): top for c, t in p.prnt.items()},
    )
    link = FuzzyLinkGraph(
        frame, l.signature, l.inner, l.outer, l.nodes, l.edges,
        {(v, k): top for v, k in l.ctrl.items()},
        {(q, t): top for q, t in l.link.items()},
    )
    return FuzzyBigraph(place, link)


def checked_embedding(f: FuzzyBigraph) -> Type2FuzzyBigraph:
    """``embed_bigraph`` spelled out through the public checked constructors."""
    top = f.frame.top
    nodes = FuzzySet(f.frame, {v: top for v in f.nodes})
    place = Type2FuzzyPlaceGraph(
        f.frame, f.signature, f.place.inner, f.place.outer, nodes, f.ctrl.entry_dict(),
        f.prnt.entry_dict(), top,
    )
    link = Type2FuzzyLinkGraph(
        f.frame, f.signature, f.link.inner, f.link.outer, nodes,
        FuzzySet(f.frame, {e: top for e in f.edges}), f.ctrl.entry_dict(),
        f.link.link.entry_dict(), top,
    )
    return Type2FuzzyBigraph(place, link)


def outcome(build):
    """The built value, or the type of the error building it raised."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc)


def assert_same_graph(built, rebuilt) -> None:
    assert built == rebuilt
    assert built.link.ports == rebuilt.link.ports
    assert_checked_rebuild(built.ctrl, built.place.prnt, built.link.link)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), SEEDS)
def test_fuzzify_equals_its_checked_rebuild_and_round_trips(frame, seed):
    rng = random.Random(seed)
    b = random_crisp_bigraph(
        rng, H_SIGNATURE, random_interface(rng), random_interface(rng), prefix="c"
    )
    f = fuzzify(b, frame)
    assert_same_graph(f, checked_fuzzify(b, frame))
    assert f.place.ctrl == f.link.ctrl
    assert defuzzify(f) == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), SEEDS)
def test_the_type2_embedding_equals_its_checked_rebuild(frame, seed):
    rng = random.Random(seed)
    f = random_fuzzy_bigraph(
        rng, frame, H_SIGNATURE, random_interface(rng), random_interface(rng), "f"
    )
    embedded = outcome(lambda: embed_bigraph(f))
    rebuilt = outcome(lambda: checked_embedding(f))
    if isinstance(rebuilt, type):
        assert embedded is rebuilt
    else:
        assert_same_graph(embedded, rebuilt)
    names = rng.sample(["x", "y", "z"], rng.randint(0, 3))
    interface = Interface(rng.randint(0, 3), frozenset(names))
    ident = identity_type2_bigraph(interface, frame, H_SIGNATURE)
    assert_same_graph(ident, checked_embedding(identity_bigraph(interface, frame, H_SIGNATURE)))
    assert ident.inner == ident.outer == interface


@cache
def tensor_pairs() -> tuple:
    """Universe pairs (budget 4) whose interfaces share no name, so that
    their tensor product is defined."""
    return tuple(
        (f, g)
        for f, g in enumerate_composable_pairs(4)
        if not (f.inner.names & g.inner.names or f.outer.names & g.outer.names)
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0))
def test_tensor_crisp_agrees_with_the_direct_oracle_on_universe_pairs(index):
    pairs = tensor_pairs()
    f, g = pairs[index % len(pairs)]
    assert tensor_crisp(f, g) == tensor_direct(f, g)
    assert tensor_crisp(g, f) == tensor_direct(g, f)


# --- compose_crisp: map composition, with the bridge naming every fault ------------


def arrow(v, e, x, y, sig=SIG, inner=1, outer=1, prnt=None, link=None) -> Bigraph:
    """A crisp bigraph shaped like ``base()``: node v (control K) under root 0
    over site 0, inner name x wired to edge e and v's port to outer name y.
    x and y may be sets of names, of which the least is wired.  ``prnt`` and
    ``link`` replace the maps; the widths are given, not derived."""
    xs = {x} if isinstance(x, str) else set(x)
    ys = {y} if isinstance(y, str) else set(y)
    place = PlaceGraph(sig, inner, outer, {v}, {v: "K"}, prnt or {0: v, v: 0})
    links = link or {min(xs): e, (v, 0): min(ys)}
    return Bigraph(place, LinkGraph(sig, xs, ys, {v}, {e}, {v: "K"}, links))


def bridged(g: Bigraph, f: Bigraph) -> Bigraph:
    return defuzzify(compose_fuzzy(fuzzify(g), fuzzify(f)))


def raised(compose, g, f):
    """The composite, or the type and message of the error composing raised."""
    try:
        return compose(g, f)
    except (ModelError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same_composition(g, f):
    direct, bridge = raised(compose_crisp, g, f), raised(bridged, g, f)
    assert direct == bridge
    return direct


# f: 1->1, {x}->{y} as in base(); a partner g after it and a partner f before it.
G_AFTER = arrow("w", "d", "y", "z")
F_BEFORE = arrow("u", "c", "w", "x")

# (g, f, the exception both paths raise, or None where both compose)
COMPOSE_CASES = {
    "width mismatch": (
        arrow("w", "d", "y", "z", inner=2, prnt={0: "w", 1: "w", "w": 0}),
        base(),
        InterfaceMismatchError,
    ),
    "name mismatch": (arrow("w", "d", "q", "z"), base(), InterfaceMismatchError),
    "support overlap on a node": (arrow("v", "d", "y", "z"), base(), SupportOverlapError),
    "support overlap on an edge": (arrow("w", "e", "y", "z"), base(), SupportOverlapError),
    "unequal signatures": (
        arrow("w", "d", "y", "z", sig=Signature({"K": 1, "M": 0, "N": 0})),
        base(),
        SignatureMismatchError,
    ),
    "edge of f collides with an outer name of g": (
        arrow("w", "d", "y", "e"),
        base(),
        NameClashError,
    ),
    "site of g with no parent": (
        arrow("w", "d", "y", "z", prnt={"w": 0}),
        base(),
        NotCrispError,
    ),
    "inner name of g left unlinked": (
        arrow("w", "d", "y", "z", link={("w", 0): "z"}),
        base(),
        NotCrispError,
    ),
    "node with no control": (
        G_AFTER,
        Bigraph(
            replace(base().place, ctrl={}),
            replace(base().link, ctrl={}, link={"x": "e"}),
        ),
        NotCrispError,
    ),
    "site of g with no parent that no child reaches": (
        arrow("w", "d", "y", "z", inner=2, prnt={0: "w", "w": 0}),
        arrow("v", "e", "x", "y", outer=2),
        None,
    ),
    "inner name of g unlinked that no point reaches": (
        arrow("w", "d", ("y", "y2"), "z"),
        arrow("v", "e", "x", ("y", "y2")),
        None,
    ),
    "sound operands": (G_AFTER, base(), None),
}


@pytest.mark.parametrize("case", sorted(FUZZIFY_FAULTS))
def test_compose_crisp_raises_the_fuzzify_fault_of_either_operand(case):
    bigraph, message = FUZZIFY_FAULTS[case]
    assert assert_same_composition(G_AFTER, bigraph) == (ValueError, message)
    assert assert_same_composition(bigraph, F_BEFORE) == (ValueError, message)


@pytest.mark.parametrize("case", sorted(COMPOSE_CASES))
def test_compose_crisp_agrees_with_the_bridge_on_composition_faults(case):
    g, f, error = COMPOSE_CASES[case]
    outcome = assert_same_composition(g, f)
    if error is None:
        assert outcome == compose_direct(g, f)
    else:
        assert outcome[0] is error


def test_universe_pairs_compose_without_the_bridge(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the two-point bridge was used")

    monkeypatch.setattr(fuzzy, "fuzzify", refuse)
    for f, g in enumerate_composable_pairs(4):
        assert compose_crisp(g, f) == compose_direct(g, f)


# --- the sound-operand check is kept on each graph ------------------------------


def test_universe_pairs_compose_alike_on_fresh_and_on_checked_operands():
    pairs = list(enumerate_composable_pairs(5))
    assert len(pairs) == 2830
    for f, g in pairs:
        assert "_checked_ports" not in vars(f) and "_checked_ports" not in vars(g)
    for _sweep in range(2):
        for f, g in pairs:
            assert compose_crisp(g, f) == compose_direct(g, f)
    operands = {id(b): b for pair in pairs for b in pair}.values()
    for b in operands:
        assert vars(b)["_checked_ports"] == crisp._sound_ports(b) == b.link.ports


@pytest.mark.parametrize("case", sorted(FUZZIFY_FAULTS))
def test_an_unsound_operand_is_refused_alike_every_time(case):
    bigraph, message = FUZZIFY_FAULTS[case]
    # a copy, so that no other test's composition has stored an answer on it
    fresh = replace(bigraph)
    for g, f in ((G_AFTER, fresh), (fresh, F_BEFORE)):
        first, second = raised(compose_crisp, g, f), raised(compose_crisp, g, f)
        assert first == second == raised(bridged, g, f) == (ValueError, message)
    assert vars(fresh)["_checked_ports"] is None is crisp._sound_ports(fresh)


def test_the_stored_answer_is_no_field():
    b, twin = base(), base()
    before = (repr(b), [f.name for f in fields(b)])
    composite = compose_crisp(G_AFTER, b)
    assert composite == compose_direct(G_AFTER, b) and "_checked_ports" not in vars(composite)
    assert "_checked_ports" in vars(b) and "_checked_ports" not in vars(twin)
    assert b == twin and twin == b
    assert (repr(b), [f.name for f in fields(b)]) == before == (repr(twin), ["place", "link"])
    copy = replace(b)
    assert copy == b and "_checked_ports" not in vars(copy)


# --- widths are natural ints, never converted ------------------------------------

BAD_WIDTHS = (1.7, 1.0, "1", True, None)


@pytest.mark.parametrize("width", BAD_WIDTHS, ids=repr)
def test_compose_crisp_refuses_a_width_that_is_not_a_natural_int(width):
    f = with_place(outer=width)
    assert assert_same_composition(G_AFTER, f) == (
        ValueError, "interface widths must be natural numbers"
    )


@pytest.mark.parametrize("width", BAD_WIDTHS, ids=repr)
def test_graded_place_graphs_refuse_a_width_that_is_not_a_natural_int(width):
    nodes = FuzzySet(U, {"v": U.top})
    for build in (
        lambda: FuzzyPlaceGraph(U, SIG, 0, width, {"v"}, {}, {}),
        lambda: FuzzyPlaceGraph(U, SIG, width, 1, {"v"}, {}, {}),
        lambda: Type2FuzzyPlaceGraph(U, SIG, 0, width, nodes, {}, {}, U.top),
        lambda: Type2FuzzyPlaceGraph(U, SIG, width, 1, nodes, {}, {}, U.top),
    ):
        with pytest.raises(ValueError, match=r"^interface widths must be natural numbers$"):
            build()


@pytest.mark.parametrize("width", BAD_WIDTHS + (-1,), ids=repr)
def test_crisp_validation_reports_a_width_that_is_not_a_natural_int(width):
    for fields in ({"inner": width, "prnt": {"v": 0}}, {"outer": width}):
        problems = validate_place_graph(with_place(**fields).place).problems
        assert problems[0] == "interface widths must be natural numbers"
        assert problems.count(problems[0]) == 1
