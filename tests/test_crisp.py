"""Crisp bigraphs: hypergraph predicate, validity, composition, tensor."""

import random
from dataclasses import replace

import pytest

from fuzzybig import (
    Bigraph,
    Interface,
    LinkGraph,
    PlaceGraph,
    Signature,
    UNIT_INTERFACE,
    compose_crisp,
    compose_fuzzy,
    defuzzify,
    fuzzify,
    identity_crisp,
    is_hypergraph,
    rename_crisp,
    tensor_crisp,
    validate_bigraph,
    validate_place_graph,
)
from fuzzybig.errors import (
    InterfaceMismatchError,
    NameClashError,
    SupportOverlapError,
)

from crisp_oracle import compose_direct, enumerate_composable_pairs, tensor_direct
from helpers import H_SIGNATURE, make_h, random_crisp_bigraph


def test_is_hypergraph_examples():
    assert is_hypergraph({"a", "b"}, [{"a"}, {"a", "b"}])
    assert not is_hypergraph({"a", "b"}, [{"a"}])
    assert not is_hypergraph({"a"}, [set(), {"a"}])


def test_h_bigraph_is_a_valid_forest():
    h = make_h()
    report = validate_bigraph(h)
    assert report.ok, str(report)
    # two rooted trees: every node reaches one of the two roots
    assert h.place.outer == 2
    assert h.inner == Interface(3, frozenset({"x1", "x2"}))


def test_sites_and_roots_count_the_widths():
    h = make_h()
    assert (h.place.sites, h.place.roots) == (range(3), range(2))


@pytest.mark.parametrize("changes, message", [
    ({"signature": Signature({"K": 2, "L": 1, "M": 0, "N": 0})},
     "place and link graphs use different signatures"),
    ({"ctrl": {"v0": "K", "v1": "L", "v2": "M", "v3": "K", "v4": "L", "v5": "K"}},
     "place and link graphs disagree on the control map"),
], ids=["signature", "control map"])
def test_a_bigraph_whose_link_part_disagrees_is_reported(changes, message):
    h = make_h()
    b = Bigraph(h.place, replace(h.link, **changes))
    assert message in validate_bigraph(b).problems


def test_rename_refuses_an_identifier_the_bigraph_lacks():
    h = make_h()
    with pytest.raises(ValueError, match=r"^renaming mentions unknown nodes: \['w', 'x'\]$"):
        rename_crisp(h, {"x": "y", "w": "z"}, {})
    with pytest.raises(ValueError, match=r"^renaming mentions unknown edges: \['f'\]$"):
        rename_crisp(h, {}, {"f": "g"})


@pytest.mark.parametrize("arity, error, message", [
    ({1: 0}, TypeError, "control names are strings, got 1"),
    ({"K": 1, "L": -1}, ValueError, "arity of 'L' must be a natural number"),
    ({"K": True}, ValueError, "arity of 'K' must be a natural number"),
])
def test_a_signature_refuses_a_bad_control_or_arity(arity, error, message):
    with pytest.raises(error) as err:
        Signature(arity)
    assert str(err.value) == message


@pytest.mark.parametrize("width", [-1, 1.5, "1", True, None], ids=repr)
def test_an_interface_refuses_a_width_that_is_not_a_natural_number(width):
    with pytest.raises(ValueError) as err:
        Interface(width, frozenset({"x"}))
    assert str(err.value) == "interface width must be a natural number"


def test_self_parent_is_an_acyclicity_violation():
    sig = Signature({"K": 0})
    place = PlaceGraph(sig, 0, 1, {"v"}, {"v": "K"}, {"v": "v"})
    link = LinkGraph(sig, frozenset(), frozenset(), {"v"}, frozenset(), {"v": "K"}, {})
    report = validate_bigraph(Bigraph(place, link))
    assert not report.ok
    assert any("cyclic" in p for p in report.problems)


def test_arity_bound_violation_is_reported():
    sig = Signature({"K": 2})
    place = PlaceGraph(sig, 0, 1, {"v"}, {"v": "K"}, {"v": 0})
    link = LinkGraph(
        sig,
        frozenset(),
        frozenset({"y"}),
        {"v"},
        frozenset(),
        {"v": "K"},
        {("v", 0): "y", ("v", 1): "y", ("v", 2): "y"},
    )
    report = validate_bigraph(Bigraph(place, link))
    assert any("arity bound" in p for p in report.problems)


def test_mismatched_node_sets_are_reported():
    sig = Signature({"K": 0})
    place = PlaceGraph(sig, 0, 1, {"v"}, {"v": "K"}, {"v": 0})
    link = LinkGraph(sig, frozenset(), frozenset(), frozenset(), frozenset(), {}, {})
    report = validate_bigraph(Bigraph(place, link))
    assert any("node set" in p for p in report.problems)


def test_compose_with_identity_leaves_bigraph_unchanged():
    h = make_h()
    assert compose_crisp(identity_crisp(h.outer, H_SIGNATURE), h) == h
    assert compose_crisp(h, identity_crisp(h.inner, H_SIGNATURE)) == h


def test_single_node_composition_builds_the_expected_tree():
    sig = Signature({"K": 0})
    # f: 0 -> 1 holding one node u under the root
    f = Bigraph(
        PlaceGraph(sig, 0, 1, {"u"}, {"u": "K"}, {"u": 0}),
        LinkGraph(sig, frozenset(), frozenset(), {"u"}, frozenset(), {"u": "K"}, {}),
    )
    # g: 1 -> 1 holding one node w whose site is filled by f's root
    g = Bigraph(
        PlaceGraph(sig, 1, 1, {"w"}, {"w": "K"}, {0: "w", "w": 0}),
        LinkGraph(sig, frozenset(), frozenset(), {"w"}, frozenset(), {"w": "K"}, {}),
    )
    composite = compose_crisp(g, f)
    expected = Bigraph(
        PlaceGraph(sig, 0, 1, {"u", "w"}, {"u": "K", "w": "K"}, {"u": "w", "w": 0}),
        LinkGraph(
            sig, frozenset(), frozenset(), {"u", "w"},
            frozenset(), {"u": "K", "w": "K"}, {},
        ),
    )
    assert composite == expected
    assert composite == compose_direct(g, f)
    # exhaustive check of parent paths: both nodes reach the root
    for start in ("u", "w"):
        current, steps = start, 0
        while isinstance(current, str):
            current = composite.place.prnt[current]
            steps += 1
            assert steps <= 2
        assert current == 0


def test_compose_interface_mismatch_raises():
    sig = Signature({"K": 0})
    f = identity_crisp(Interface(2, frozenset()), sig)
    g = identity_crisp(Interface(3, frozenset()), sig)
    with pytest.raises(InterfaceMismatchError):
        compose_crisp(g, f)


def test_compose_support_overlap_raises():
    sig = Signature({"L": 1})
    endo = Bigraph(
        PlaceGraph(sig, 1, 1, {"n"}, {"n": "L"}, {0: "n", "n": 0}),
        LinkGraph(
            sig, frozenset({"y"}), frozenset({"y"}), {"n"}, frozenset(),
            {"n": "L"}, {"y": "y", ("n", 0): "y"},
        ),
    )
    fresh = rename_crisp(endo, {"n": "m"}, {})
    assert compose_crisp(fresh, endo).nodes == {"n", "m"}
    with pytest.raises(SupportOverlapError):
        compose_crisp(endo, endo)


def test_tensor_unit_and_widths():
    h = make_h()
    unit = identity_crisp(UNIT_INTERFACE, H_SIGNATURE)
    assert tensor_crisp(h, unit) == h
    assert tensor_crisp(unit, h) == h
    sig = Signature({"K": 0})
    a = identity_crisp(Interface(3, frozenset()), sig)
    b = identity_crisp(Interface(1, frozenset()), sig)
    wide = tensor_crisp(a, b)
    assert wide.inner.width == 4 and wide.outer.width == 4


def test_tensor_outer_name_clash_raises():
    sig = Signature({"K": 0})
    a = identity_crisp(Interface(0, frozenset({"y"})), sig)
    with pytest.raises(NameClashError):
        tensor_crisp(a, a)


def test_tensor_agrees_with_the_direct_oracle():
    rng = random.Random(77)
    for trial in range(40):
        f = random_crisp_bigraph(
            rng, H_SIGNATURE, Interface(1, frozenset({"a"})),
            Interface(1, frozenset({"b"})), f"f{trial}_",
        )
        g = random_crisp_bigraph(
            rng, H_SIGNATURE, Interface(2, frozenset({"c"})),
            Interface(1, frozenset({"d"})), f"g{trial}_",
        )
        assert tensor_crisp(f, g) == tensor_direct(f, g)


def test_rename_is_explicit_support_translation():
    h = make_h()
    renamed = rename_crisp(h, {"v0": "w0"}, {"e0": "f0"})
    assert "w0" in renamed.nodes and "v0" not in renamed.nodes
    assert "f0" in renamed.edges
    assert validate_bigraph(renamed).ok
    with pytest.raises(ValueError):
        rename_crisp(h, {"v0": "v1"}, {})  # collides with an existing node


def test_round_trip_through_the_fuzzy_embedding():
    h = make_h()
    assert defuzzify(fuzzify(h)) == h


def test_direct_oracle_agrees_on_small_enumerated_pairs():
    count = 0
    for f, g in enumerate_composable_pairs(4):
        left = compose_crisp(g, f)
        assert left == compose_direct(g, f)
        assert fuzzify(left) == compose_fuzzy(fuzzify(g), fuzzify(f))
        count += 1
    assert count > 100


def _random_interface(rng):
    width = rng.randint(1, 2)
    names = frozenset(rng.sample(("a", "b"), rng.randint(1, 2)))
    return Interface(width, names)


def test_randomized_compositions_stay_valid_and_associative():
    rng = random.Random(2024)
    for trial in range(60):
        i0, i1, i2, i3 = (_random_interface(rng) for _ in range(4))
        a = random_crisp_bigraph(rng, H_SIGNATURE, i0, i1, f"a{trial}_")
        b = random_crisp_bigraph(rng, H_SIGNATURE, i1, i2, f"b{trial}_")
        c = random_crisp_bigraph(rng, H_SIGNATURE, i2, i3, f"c{trial}_")
        assert validate_bigraph(a).ok and validate_bigraph(b).ok
        ba = compose_crisp(b, a)
        assert validate_bigraph(ba).ok, str(validate_bigraph(ba))
        assert compose_crisp(c, ba) == compose_crisp(compose_crisp(c, b), a)
        ab = tensor_crisp(
            a, rename_crisp(
                b,
                {v: f"t{v}" for v in b.nodes},
                {e: f"t{e}" for e in b.edges},
            )
        ) if not (set(a.inner.names) & set(b.inner.names)
                  or set(a.outer.names) & set(b.outer.names)) else None
        if ab is not None:
            assert validate_bigraph(ab).ok


# --- cyclicity ----------------------------------------------------------------


def test_cyclic_parent_chains_are_reported_per_node_in_sorted_order():
    prnt = {
        "c1": "c2", "c2": "c3", "c3": "c1",  # a pure cycle
        "t1": "t2", "t2": "k1", "k1": "k2", "k2": "k1",  # a tail into a cycle
        "d1": "d2",  # a dead end: d2 has no parent entry
        "f1": "f2", "f2": 0, "f3": 1, "f4": "f1",  # a valid forest
    }
    nodes = set(prnt) | {"d2"}
    sig = Signature({"K": 0})
    p = PlaceGraph(sig, 0, 2, nodes, {v: "K" for v in nodes}, prnt)
    report = validate_place_graph(p)
    cyclic = [m for m in report.problems if "cyclic" in m]
    assert cyclic == [
        f"parent map is cyclic at node {v!r}"
        for v in ("c1", "c2", "c3", "d1", "k1", "k2", "t1", "t2")
    ]
    assert "parent map is not total: 'd2' has no parent" in report.problems


def test_deep_crisp_nesting_validates():
    depth = 10_000
    names = [f"n{i}" for i in range(depth)]
    prnt = {names[i]: names[i + 1] for i in range(depth - 1)}
    prnt[names[-1]] = 0
    p = PlaceGraph(Signature({"K": 0}), 0, 1, names, {v: "K" for v in names}, prnt)
    assert validate_place_graph(p).ok
