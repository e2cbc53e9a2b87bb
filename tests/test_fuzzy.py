"""Fuzzy bigraphs: ports, composition, tensor, support, translations, bridge."""

import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzyRelation,
    FuzzySet,
    Interface,
    Signature,
    TWO_POINT,
    UNIT_INTERVAL,
    check_support_translation,
    compose_fuzzy,
    compose_fuzzy_link,
    compose_fuzzy_place,
    defuzzify,
    derive_ports,
    fuzzify,
    identity_bigraph,
    identity_link,
    identity_place,
    identity_translation,
    support,
    tensor_fuzzy,
    tensor_fuzzy_link,
    tensor_fuzzy_place,
    translate_fuzzy,
    Type2FuzzyPlaceGraph,
    validate_fuzzy_bigraph,
    validate_fuzzy_link,
    validate_fuzzy_place,
)
from fuzzybig.errors import (
    InterfaceMismatchError,
    NameClashError,
    NotCrispError,
    SupportOverlapError,
)
from fuzzybig.fuzzy import SupportTranslation, skeleton_is_acyclic
from fuzzybig.generators import random_fuzzy_bigraph, random_fuzzy_chain
from fuzzybig.lattice import FiniteChainFrame, chain

from helpers import ALL_FRAMES, H_SIGNATURE, assert_checked_rebuild, d, make_h

U = UNIT_INTERVAL
SIG = Signature({"K": 2, "L": 1, "M": 3})


def place(inner, outer, nodes, ctrl, prnt, frame=U, sig=SIG):
    return FuzzyPlaceGraph(frame, sig, inner, outer, nodes, ctrl, prnt)


# --- ports ---------------------------------------------------------------


def test_ports_of_a_crisp_control_match_its_arity():
    g = FuzzyLinkGraph(U, SIG, (), ("y",), ("v",), (), {("v", "K"): U.top}, {})
    assert g.ports == {("v", 0), ("v", 1)}


def test_ports_union_over_positive_controls():
    ctrl = {("v", "L"): d("2/5"), ("v", "M"): d("9/10")}
    g = FuzzyLinkGraph(U, SIG, (), ("y",), ("v",), (), ctrl, {})
    # independent oracle: union of the port ranges of every positive control
    expected = set()
    for (node, control), degree in ctrl.items():
        assert not degree.is_bottom()
        expected |= {(node, i) for i in range(SIG.arity_of(control))}
    assert g.ports == expected == {("v", 0), ("v", 1), ("v", 2)}


def test_node_without_positive_control_has_no_ports():
    g = FuzzyLinkGraph(U, SIG, (), ("y",), ("v",), (), {}, {})
    assert g.ports == frozenset()
    assert derive_ports(SIG, g.ctrl) == frozenset()


def _widest_arity_ports(signature, ctrl):
    """``derive_ports`` as one loop over the entries, keeping each node's
    widest arity: the reference the grouped version is checked against."""
    arity = signature.arity
    widest = {}
    for (v, control), _degree in ctrl.items():
        ar = arity.get(control)
        if ar is None:
            ar = signature.arity_of(control)  # raises: unknown control
        if ar > widest.get(v, -1):
            widest[v] = ar
    return frozenset((v, i) for v, ar in widest.items() for i in range(ar))


def test_ports_agree_with_the_widest_arity_loop():
    """Several controls per node, arity 0, and unknown controls, which are
    named in entry order, not in the order of their names."""
    rng = random.Random(11)
    controls = ["K", "L", "M", "N", "Z", "A"]  # N, Z and A are unknown
    for trial in range(400):
        nodes = [f"v{i}" for i in range(rng.randint(0, 8))]
        known = controls[:3] + (["N"] if trial % 2 else [])
        sig = Signature({k: ar for k, ar in zip(known, (2, 1, 3, 0))})
        pool = known + (["Z", "A"] if trial % 5 == 0 else [])
        entries = {}
        for v in nodes:
            for k in rng.sample(pool, rng.randint(0, min(3, len(pool)))):
                entries[(v, k)] = U.top
        ctrl = FuzzyRelation(U, nodes, set(pool), entries)
        try:
            expected = _widest_arity_ports(sig, ctrl)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                derive_ports(sig, ctrl)
            assert str(got.value) == str(exc)
            continue
        assert derive_ports(sig, ctrl) == expected


# --- place composition ----------------------------------------------------


def test_place_identity_laws():
    f = place(0, 1, ("u",), {("u", "K"): U.top}, {("u", 0): d("4/5")})
    assert compose_fuzzy_place(identity_place(1, U, SIG), f) == f
    f2 = place(2, 1, ("u",), {("u", "K"): U.top},
               {("u", 0): d("4/5"), (0, "u"): d("1/2"), (1, 0): d("1/3")})
    assert compose_fuzzy_place(f2, identity_place(2, U, SIG)) == f2


@pytest.mark.parametrize("width", [1.5, "2", None, -1, True], ids=repr)
def test_a_place_identity_refuses_a_width_that_is_no_natural_number(width):
    with pytest.raises(ValueError) as caught:
        identity_place(width, U, SIG)
    assert str(caught.value) == "interface widths must be natural numbers"
    assert type(caught.value) is ValueError


def test_place_composition_routes_through_the_interface():
    # frozen example: f: 0->1 with prnt(u,0)=0.8; g: 1->1 with prnt(0,w)=0.5,
    # prnt(w,0)=top; composite carries prnt(u,w)=0.5 and prnt(w,0)=top.
    f = place(0, 1, ("u",), {("u", "K"): U.top}, {("u", 0): d("4/5")})
    g = place(1, 1, ("w",), {("w", "K"): U.top},
              {(0, "w"): d("1/2"), ("w", 0): U.top})
    composite = compose_fuzzy_place(g, f)
    assert composite.prnt.entry_dict() == {
        ("u", "w"): d("1/2"),
        ("w", 0): U.top,
    }
    assert (composite.inner, composite.outer) == (0, 1)


def test_place_middle_case_is_join_of_meets():
    # two routes from u through sites 0 and 1 of g into the same root
    f = place(0, 2, ("u",), {("u", "K"): U.top},
              {("u", 0): d("3/5"), ("u", 1): d("9/10")})
    g = place(2, 1, (), {}, {(0, 0): d("1/2"), (1, 0): d("7/10")})
    composite = compose_fuzzy_place(g, f)
    # oracle: join over j of meet(prnt_f(u, j), prnt_g(j, 0))
    routes = [
        f.prnt.degree("u", j).meet(g.prnt.degree(j, 0)) for j in range(2)
    ]
    expected = U.join_all(routes)
    assert composite.prnt.degree("u", 0) == expected == d("7/10")


def test_place_width_mismatch_raises():
    f = place(0, 2, (), {}, {})
    g = place(3, 1, (), {}, {})
    with pytest.raises(InterfaceMismatchError):
        compose_fuzzy_place(g, f)


# --- link composition -------------------------------------------------------


def link_graph(inner, outer, nodes, edges, ctrl, entries, frame=U, sig=SIG):
    return FuzzyLinkGraph(frame, sig, inner, outer, nodes, edges, ctrl, entries)


def test_link_identity_laws():
    f = link_graph(("x",), ("y",), ("v",), ("e",), {("v", "L"): U.top},
                   {("x", "e"): d("1/2"), (("v", 0), "y"): d("2/3")})
    assert compose_fuzzy_link(identity_link({"y"}, U, SIG), f) == f
    assert compose_fuzzy_link(f, identity_link({"x"}, U, SIG)) == f


def test_link_composition_chains_degrees():
    # frozen example: f links port p to y at 0.7, g links y to edge e at 0.6
    f = link_graph((), ("y",), ("v",), (), {("v", "L"): U.top},
                   {(("v", 0), "y"): d("7/10")})
    g = link_graph(("y",), ("z",), (), ("e",), {}, {("y", "e"): d("3/5")})
    composite = compose_fuzzy_link(g, f)
    assert composite.link.degree(("v", 0), "e") == d("3/5")
    assert composite.edges == {"e"}


def test_link_name_mismatch_raises():
    f = link_graph((), ("y",), (), (), {}, {})
    g = link_graph(("z",), (), (), (), {}, {})
    with pytest.raises(InterfaceMismatchError):
        compose_fuzzy_link(g, f)


# --- bigraph composition ------------------------------------------------------


def small_bigraph(prefix, inner, outer, parent_degree, link_degree, frame=U):
    node = f"{prefix}v"
    place_part = FuzzyPlaceGraph(
        frame, SIG, inner.width, outer.width, (node,),
        {(node, "L"): frame.top},
        {(node, 0): parent_degree,
         **{(i, 0): frame.top for i in range(inner.width)}},
    )
    link_part = FuzzyLinkGraph(
        frame, SIG, inner.names, outer.names, (node,), (),
        {(node, "L"): frame.top},
        {((node, 0), sorted(outer.names)[0]): link_degree,
         **{(x, sorted(outer.names)[0]): frame.top for x in inner.names}},
    )
    return FuzzyBigraph(place_part, link_part)


def test_bigraph_identity_laws():
    f = small_bigraph("a", Interface(1, frozenset({"x"})),
                      Interface(1, frozenset({"y"})), d("4/5"), d("2/3"))
    assert compose_fuzzy(identity_bigraph(f.outer, U, SIG), f) == f
    assert compose_fuzzy(f, identity_bigraph(f.inner, U, SIG)) == f


def test_bigraph_associativity_on_a_concrete_chain():
    i0 = Interface(1, frozenset({"w"}))
    i1 = Interface(1, frozenset({"x"}))
    i2 = Interface(1, frozenset({"y"}))
    i3 = Interface(1, frozenset({"z"}))
    a = small_bigraph("a", i0, i1, d("4/5"), d("7/10"))
    b = small_bigraph("b", i1, i2, d("1/2"), d("3/5"))
    c = small_bigraph("c", i2, i3, d("9/10"), d("1/3"))
    left = compose_fuzzy(c, compose_fuzzy(b, a))
    right = compose_fuzzy(compose_fuzzy(c, b), a)
    assert left == right


def test_bigraph_interface_mismatch_and_overlap():
    f = small_bigraph("a", Interface(1, frozenset({"x"})),
                      Interface(1, frozenset({"y"})), d("1/2"), d("1/2"))
    g = small_bigraph("b", Interface(2, frozenset({"y"})),
                      Interface(1, frozenset({"z"})), d("1/2"), d("1/2"))
    with pytest.raises(InterfaceMismatchError):
        compose_fuzzy(g, f)
    endo = small_bigraph("e", Interface(1, frozenset({"y"})),
                         Interface(1, frozenset({"y"})), d("1/2"), d("1/2"))
    with pytest.raises(SupportOverlapError):
        compose_fuzzy(endo, endo)


# --- tensor ---------------------------------------------------------------------


def test_tensor_unit_laws():
    f = small_bigraph("a", Interface(1, frozenset({"x"})),
                      Interface(1, frozenset({"y"})), d("4/5"), d("2/3"))
    unit = identity_bigraph(Interface(0, frozenset()), U, SIG)
    assert tensor_fuzzy(f, unit) == f
    assert tensor_fuzzy(unit, f) == f


def test_tensor_widths_add():
    a = identity_place(3, U, SIG)
    b = identity_place(1, U, SIG)
    out = tensor_fuzzy_place(a, b)
    assert (out.inner, out.outer) == (4, 4)


def test_tensor_shifts_sites_and_roots():
    # frozen example: a site->root entry (0,0)=0.9 in g: 1->1, tensored after
    # f: 3->2, lands at (3, 2) with the same degree.
    f = place(3, 2, (), {}, {(0, 0): U.top, (1, 1): U.top, (2, 1): U.top})
    g = place(1, 1, (), {}, {(0, 0): d("9/10")})
    out = tensor_fuzzy_place(f, g)
    assert out.prnt.degree(3, 2) == d("9/10")
    # index-shift oracle: recompute every shifted pair by enumeration
    for (child, parent), degree in g.prnt.items():
        child2 = child + f.inner if isinstance(child, int) else child
        parent2 = parent + f.outer if isinstance(parent, int) else parent
        assert out.prnt.degree(child2, parent2) == degree


def test_tensor_name_clash_raises():
    f = identity_link({"y"}, U, SIG)
    with pytest.raises(NameClashError):
        tensor_fuzzy_link(f, f)


@pytest.mark.parametrize("f_outer, g_outer, message", [
    ("y", "y", "outer names clash: ['y']"),
    ("z", "e", "edge identifiers collide with outer names: ['e']"),
])
def test_tensor_link_names_each_clash_past_the_inner_names(f_outer, g_outer, message):
    f = link_graph(("a",), (f_outer,), (), ("e",), {}, {})
    g = link_graph(("b",), (g_outer,), (), (), {}, {})
    for left, right in ((f, g), (g, f)):
        with pytest.raises(NameClashError) as err:
            tensor_fuzzy_link(left, right)
        assert str(err.value) == message


# --- support and translations ------------------------------------------------------


def test_support_of_empty_bigraph_is_empty():
    empty = identity_bigraph(Interface(0, frozenset()), U, SIG)
    sup = support(empty)
    assert sup.nodes == frozenset() and sup.edges == frozenset()


def test_support_of_the_h_analogue():
    h = fuzzify(make_h(), U)
    sup = support(h)
    assert sup.nodes == {"v0", "v1", "v2", "v3", "v4", "v5"}
    assert sup.edges == {"e0", "e1"}
    assert support(h.place).nodes == sup.nodes
    assert support(h.place).edges == frozenset()


def test_support_of_tensor_is_disjoint_union():
    f = small_bigraph("a", Interface(1, frozenset({"x"})),
                      Interface(1, frozenset({"y"})), d("1/2"), d("1/2"))
    g = small_bigraph("b", Interface(1, frozenset({"p"})),
                      Interface(1, frozenset({"q"})), d("1/2"), d("1/2"))
    sup = support(tensor_fuzzy(f, g))
    assert sup.nodes == support(f).nodes | support(g).nodes


def test_identity_translation_passes_all_properties():
    f = fuzzify(make_h(), U)
    report = check_support_translation(identity_translation(f), f, f)
    assert report.ok, str(report)


def test_renamed_copy_passes_all_properties():
    f = fuzzify(make_h(), U)
    rho = SupportTranslation(
        {v: f"r_{v}" for v in f.nodes}, {e: f"r_{e}" for e in f.edges}
    )
    g = translate_fuzzy(f, rho)
    report = check_support_translation(rho, f, g)
    assert report.ok, str(report)


def test_lowered_control_degree_fails_property_one():
    rng = random.Random(5)
    f = random_fuzzy_chain(rng, U, H_SIGNATURE, 1, max_nodes=3)[0]
    while not len(f.ctrl):
        f = random_fuzzy_chain(rng, U, H_SIGNATURE, 1, max_nodes=3)[0]
    rho = SupportTranslation(
        {v: f"r_{v}" for v in f.nodes}, {e: f"r_{e}" for e in f.edges}
    )
    g = translate_fuzzy(f, rho)
    (v, k), degree = sorted(g.ctrl.items())[0]
    lowered = g.ctrl.with_entry(v, k, degree.meet(d("1/100")))
    g2 = FuzzyBigraph(
        FuzzyPlaceGraph(U, H_SIGNATURE, g.place.inner, g.place.outer,
                        g.nodes, lowered, g.prnt),
        FuzzyLinkGraph(U, H_SIGNATURE, g.link.inner, g.link.outer, g.nodes,
                       g.edges, lowered, _clip_links(g, lowered)),
    )
    report = check_support_translation(rho, f, g2)
    assert not report.check("control preservation").ok


def _clip_links(g, ctrl):
    allowed = g.link.inner | derive_ports(g.signature, ctrl)
    return {(q, t): deg for (q, t), deg in g.link.link.items() if q in allowed}


def test_lowered_parent_degree_fails_property_three():
    f = fuzzify(make_h(), U)
    rho = identity_translation(f)
    weakened = f.prnt.with_entry("v1", "v0", d("1/4"))
    g = FuzzyBigraph(
        FuzzyPlaceGraph(U, H_SIGNATURE, f.place.inner, f.place.outer,
                        f.nodes, f.ctrl, weakened),
        f.link,
    )
    report = check_support_translation(rho, f, g)
    assert not report.check("parent relation").ok
    assert not report.ok


def test_non_bijective_translation_is_rejected():
    with pytest.raises(ValueError):
        SupportTranslation({"a": "x", "b": "x"}, {})
    f = fuzzify(make_h(), U)
    with pytest.raises(ValueError):
        check_support_translation(
            SupportTranslation({"v0": "v0"}, {}), f, f
        )


def test_translation_interface_mismatch_rejected():
    f = fuzzify(make_h(), U)
    g = identity_bigraph(Interface(1, frozenset()), TWO_POINT, H_SIGNATURE)
    with pytest.raises(InterfaceMismatchError):
        check_support_translation(identity_translation(f), f, g)


# Each part of an interface, changed alone: (inner, outer) of the other graph.
ONE_PART_CHANGED = {
    "inner width": (Interface(2, frozenset({"x"})), Interface(1, frozenset({"y"}))),
    "outer width": (Interface(1, frozenset({"x"})), Interface(2, frozenset({"y"}))),
    "inner names": (Interface(1, frozenset({"w"})), Interface(1, frozenset({"y"}))),
    "outer names": (Interface(1, frozenset({"x"})), Interface(1, frozenset({"z"}))),
}


@pytest.mark.parametrize("part", sorted(ONE_PART_CHANGED))
def test_translation_interface_mismatch_messages_are_pinned(part):
    from fuzzybig import check_type2_support_translation, embed_bigraph, make_type2_translation

    inner, outer = Interface(1, frozenset({"x"})), Interface(1, frozenset({"y"}))
    f = small_bigraph("a", inner, outer, d("1/2"), d("1/2"))
    g = small_bigraph("a", *ONE_PART_CHANGED[part], d("1/2"), d("1/2"))
    message = f"interface mismatch: {inner}->{outer} vs {g.inner}->{g.outer}"
    with pytest.raises(InterfaceMismatchError) as err:
        check_support_translation(identity_translation(f), f, g)
    assert str(err.value) == message
    f2, g2 = embed_bigraph(f), embed_bigraph(g)
    with pytest.raises(InterfaceMismatchError) as err:
        check_type2_support_translation(*make_type2_translation(f2, f2), f2, g2)
    assert str(err.value) == message
    if part == "inner width":
        assert message == "interface mismatch: ⟨1,{x}⟩->⟨1,{y}⟩ vs ⟨2,{x}⟩->⟨1,{y}⟩"


@pytest.mark.parametrize("inner, message", [
    (Interface(2, frozenset({"y"})), "interface mismatch: expected ⟨1,{y}⟩, got ⟨2,{y}⟩"),
    (Interface(1, frozenset({"q"})), "interface mismatch: expected ⟨1,{y}⟩, got ⟨1,{q}⟩"),
])
def test_composition_interface_mismatch_messages_are_pinned(inner, message):
    from fuzzybig import compose_crisp, compose_type2, embed_bigraph

    f = small_bigraph("a", Interface(1, frozenset({"x"})), Interface(1, frozenset({"y"})), U.top, U.top)
    g = small_bigraph("b", inner, Interface(1, frozenset({"z"})), U.top, U.top)
    for compose, left, right in (
        (compose_fuzzy, g, f),
        (compose_type2, embed_bigraph(g), embed_bigraph(f)),
        (compose_crisp, defuzzify(g), defuzzify(f)),
    ):
        with pytest.raises(InterfaceMismatchError) as err:
            compose(left, right)
        assert str(err.value) == message


# --- fuzzify / defuzzify --------------------------------------------------------------


def test_fig_analogue_round_trip():
    h = make_h()
    assert defuzzify(fuzzify(h)) == h
    assert defuzzify(fuzzify(h, U)) == h


def test_defuzzify_rejects_two_half_parents():
    p = place(0, 1, ("v",), {("v", "K"): U.top},
              {("v", 0): d("1/2")})
    with pytest.raises(NotCrispError):
        from fuzzybig.fuzzy import defuzzify_place

        defuzzify_place(p)
    two_tops = place(0, 2, ("v",), {("v", "K"): U.top},
                     {("v", 0): U.top, ("v", 1): U.top})
    with pytest.raises(NotCrispError):
        from fuzzybig.fuzzy import defuzzify_place

        defuzzify_place(two_tops)


def test_fuzzify_commutes_with_composition_on_samples():
    from crisp_oracle import enumerate_composable_pairs
    from fuzzybig import compose_crisp

    for i, (f, g) in enumerate(enumerate_composable_pairs(4)):
        if i % 7:
            continue
        assert fuzzify(compose_crisp(g, f)) == compose_fuzzy(fuzzify(g), fuzzify(f))


# --- validation ------------------------------------------------------------------------


def test_validator_flags_cycles_and_orphans():
    cyclic = place(0, 1, ("a", "b"),
                   {("a", "K"): U.top, ("b", "K"): U.top},
                   {("a", "b"): d("1/2"), ("b", "a"): d("1/2")})
    report = validate_fuzzy_place(cyclic)
    assert any("cycle" in p for p in report.problems)
    orphan = place(1, 1, ("a",), {("a", "K"): U.top}, {("a", 0): d("1/2")})
    report = validate_fuzzy_place(orphan)
    assert any("site 0" in p for p in report.problems)
    unlinked = link_graph((), ("y",), ("v",), (), {("v", "L"): U.top}, {})
    report = validate_fuzzy_link(unlinked)
    assert any("point" in p for p in report.problems)


def test_composites_of_valid_inputs_stay_valid():
    rng = random.Random(99)
    for trial in range(40):
        a, b = random_fuzzy_chain(rng, U, H_SIGNATURE, 2, prefix=f"t{trial}_")
        assert validate_fuzzy_bigraph(a).ok and validate_fuzzy_bigraph(b).ok
        composite = compose_fuzzy(b, a)
        report = validate_fuzzy_bigraph(composite)
        assert report.ok, str(report)
        assert skeleton_is_acyclic(composite.prnt, composite.nodes)


def _recompose_place_oracle(g, f):
    """Grid re-derivation of the composite parent relation: copy the two
    internal blocks, then join-of-meets over every middle position."""
    frame = f.frame
    out = {}
    for child in list(range(f.inner)) + sorted(f.nodes):
        for target in sorted(f.nodes):
            deg = f.prnt.degree(child, target)
            if not deg.is_bottom():
                out[(child, target)] = deg
        for target in sorted(g.nodes) + list(range(g.outer)):
            routes = [
                f.prnt.degree(child, j).meet(g.prnt.degree(j, target))
                for j in range(f.outer)
            ]
            joined = frame.join_all(routes)
            if not joined.is_bottom():
                out[(child, target)] = joined
    for child in sorted(g.nodes):
        for target in sorted(g.nodes) + list(range(g.outer)):
            deg = g.prnt.degree(child, target)
            if not deg.is_bottom():
                out[(child, target)] = deg
    return out


def test_middle_case_matches_grid_rederivation_and_is_monotone():
    rng = random.Random(77)
    for trial in range(40):
        a, b = random_fuzzy_chain(rng, U, H_SIGNATURE, 2, prefix=f"m{trial}_")
        composite = compose_fuzzy_place(b.place, a.place)
        expected = _recompose_place_oracle(b.place, a.place)
        assert composite.prnt.entry_dict() == expected
        # every routed entry is bounded by the meet of some pair of legs
        for (child, target), degree in composite.prnt.items():
            if child in a.nodes | set(range(a.place.inner)) and (
                target in b.nodes or isinstance(target, int)
            ):
                bounds = [
                    a.place.prnt.degree(child, j).meet(b.place.prnt.degree(j, target))
                    for j in range(a.place.outer)
                ]
                assert any(degree == x for x in bounds) or degree == U.join_all(bounds)
                assert degree.leq(U.join_all(bounds))


# --- composites built without re-checking --------------------------------------------


def assert_fuzzy_rebuilds(b: FuzzyBigraph) -> None:
    """Every relation of ``b``, and ``b`` itself, rebuild through the public
    checked constructors from plain entry dicts and compare equal, and the
    ports of ``b`` are the ones the checked rebuild derives."""
    assert_checked_rebuild(b.ctrl, b.prnt, b.link.ctrl, b.link.link)
    place = FuzzyPlaceGraph(
        b.frame, b.signature, b.place.inner, b.place.outer, b.nodes,
        b.ctrl.entry_dict(), b.prnt.entry_dict(),
    )
    link = FuzzyLinkGraph(
        b.frame, b.signature, b.link.inner, b.link.outer, b.nodes, b.edges,
        b.link.ctrl.entry_dict(), b.link.link.entry_dict(),
    )
    assert b.link.ports == derive_ports(b.signature, link.ctrl)
    assert FuzzyBigraph(place, link) == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), st.integers(min_value=0, max_value=2**32 - 1))
def test_composites_and_tensors_pass_the_checked_constructors(frame, seed):
    rng = random.Random(seed)
    f, g, h = random_fuzzy_chain(rng, frame, H_SIGNATURE, 3)
    assert_fuzzy_rebuilds(compose_fuzzy(g, f))
    assert_fuzzy_rebuilds(compose_fuzzy(h, compose_fuzzy(g, f)))
    assert_fuzzy_rebuilds(compose_fuzzy(identity_bigraph(f.outer, frame, H_SIGNATURE), f))
    left = random_fuzzy_bigraph(
        rng, frame, H_SIGNATURE, Interface(1, {"a"}), Interface(2, {"b"}), prefix="l"
    )
    right = random_fuzzy_bigraph(
        rng, frame, H_SIGNATURE, Interface(2, {"c"}), Interface(1, {"d"}), prefix="r"
    )
    assert_fuzzy_rebuilds(tensor_fuzzy(left, right))


def _named_chain(rng, frame, names, prefix):
    """Two composable random fuzzy bigraphs through interfaces named by
    ``names``, so that chains over different names can be tensored."""
    faces = [Interface(rng.randint(1, 2), {name}) for name in names]
    return [
        random_fuzzy_bigraph(
            rng, frame, H_SIGNATURE, faces[i], faces[i + 1], prefix=f"{prefix}{i}_"
        )
        for i in range(len(faces) - 1)
    ]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_FRAMES), st.integers(min_value=0, max_value=2**32 - 1))
def test_tensors_of_composites_and_composites_of_tensors_pass_the_checked_constructors(
    frame, seed
):
    rng = random.Random(seed)
    f1, g1 = _named_chain(rng, frame, ("a0", "a1", "a2"), "l")
    f2, g2 = _named_chain(rng, frame, ("b0", "b1", "b2"), "r")
    tensor_of_composites = tensor_fuzzy(compose_fuzzy(g1, f1), compose_fuzzy(g2, f2))
    composite_of_tensors = compose_fuzzy(tensor_fuzzy(g1, g2), tensor_fuzzy(f1, f2))
    assert_fuzzy_rebuilds(tensor_of_composites)
    assert_fuzzy_rebuilds(composite_of_tensors)
    assert tensor_of_composites == composite_of_tensors


def test_relation_over_another_domain_is_still_checked():
    wide_prnt = FuzzyRelation(U, {"a", "x"}, {"a", 0}, {("a", 0): U.top, ("x", 0): d("1/2")})
    with pytest.raises(ValueError):
        place(0, 1, ("a",), {("a", "K"): U.top}, wide_prnt)
    wide_ctrl = FuzzyRelation(U, {"a", "x"}, SIG.controls, {("x", "K"): U.top})
    with pytest.raises(ValueError):
        place(0, 1, ("a",), wide_ctrl, {("a", 0): U.top})
    wide_link = FuzzyRelation(U, {("v", 0), ("v", 5)}, {"y"}, {(("v", 5), "y"): U.top})
    with pytest.raises(ValueError):
        link_graph((), ("y",), ("v",), (), {("v", "L"): U.top}, wide_link)
    # in-range entries over a wider domain are accepted and re-homed
    ok = FuzzyRelation(U, {"a", "x"}, {"a", 0}, {("a", 0): U.top})
    p = place(0, 1, ("a",), {("a", "K"): U.top}, ok)
    assert p.prnt == FuzzyRelation(U, {"a"}, {"a", 0}, {("a", 0): U.top})


# Each end of a parent or link entry is accepted or refused as membership in
# the built union (sites and nodes, nodes and roots, inner names and ports)
# would: what equals position 1 and hashes as 1 is site 1, and an
# unhashable end is refused while the entries are read.
OUTSIDE = ValueError, "lies outside its domain/codomain"
MEMBERSHIP = [
    (True, None),
    (1.0, None),
    (Fraction(1), None),
    (1, None),
    (2, OUTSIDE),
    (-1, OUTSIDE),
    (2.5, OUTSIDE),
    ("w", OUTSIDE),
    (("v", 1), OUTSIDE),
    ([1], (TypeError, "unhashable type: 'list'")),
]


def _refused_as(fault, build, pair):
    if fault is None:
        return build()
    kind, text = fault
    if kind is ValueError:
        text = f"relation entry ({pair[0]!r}, {pair[1]!r}) {text}"
    with pytest.raises(kind, match=f"^{re.escape(text)}$"):
        build()


@pytest.mark.parametrize("end, fault", MEMBERSHIP, ids=lambda x: repr(x))
def test_each_end_is_refused_as_membership_in_the_built_union_refuses(end, fault):
    sites_and_nodes = frozenset(range(2)) | {"v"}
    try:
        inside = end in sites_and_nodes
    except TypeError:
        inside = None
    assert (fault is None) is (inside is True), "the table follows frozenset membership"
    nodes, ctrl = ("v",), {("v", "K"): U.top}
    for pair in ((end, "v"), ("v", end)):
        entries = [(pair, U.top)]
        for build in (
            lambda: place(2, 2, nodes, ctrl, entries),
            lambda: Type2FuzzyPlaceGraph(
                U, SIG, 2, 2, FuzzySet(U, {"v": U.top}), ctrl, entries, U.top
            ),
        ):
            graph = _refused_as(fault, build, pair)
            if graph is not None:
                assert graph.prnt.degree(*[1 if x == end else x for x in pair]) == U.top
    # A port's index is an end too: ("v", True) is port ("v", 1).
    port = ("v", end)
    try:
        inside = port in frozenset({("v", 0), ("v", 1)}) | {"x"}
    except TypeError:
        inside = None
    assert (fault is None) is (inside is True)
    graph = _refused_as(
        fault, lambda: link_graph(("x",), ("y",), nodes, (), ctrl, [((port, "y"), U.top)]),
        (port, "y"),
    )
    if graph is not None:
        assert graph.link.degree(("v", 1), "y") == U.top


def test_a_relation_of_the_same_parts_is_reused_and_builds_no_union():
    p = place(1, 1, ("a",), {("a", "K"): U.top}, {(0, "a"): U.top, ("a", 0): U.top})
    again = place(1, 1, ("a",), p.ctrl, p.prnt)
    assert again.prnt is p.prnt and again.ctrl is p.ctrl
    assert type(p.prnt._domain) is not frozenset and type(p.prnt._codomain) is not frozenset
    # A relation whose sets are built is compared by them, and reused too.
    assert p.prnt.domain == {0, "a"}
    assert place(1, 1, ("a",), p.ctrl, p.prnt).prnt is p.prnt
    l = link_graph(("x",), ("y",), ("v",), ("e",), {("v", "L"): U.top},
                   {("x", "e"): U.top, (("v", 0), "y"): U.top})
    assert link_graph(("x",), ("y",), ("v",), ("e",), l.ctrl, l.link).link is l.link
    assert type(l.link._domain) is not frozenset and type(l.link._codomain) is not frozenset


def test_parent_relations_union_part_by_part_and_name_an_overlap_as_the_built_sets_do():
    p = place(2, 1, ("a",), {("a", "K"): U.top}, {(0, "a"): U.top, (1, 0): U.top, ("a", 0): U.top})
    q = place(1, 0, ("b",), {("b", "K"): U.top}, {(0, "b"): U.top})
    r = place(0, 1, ("c",), {("c", "K"): U.top}, {("c", 0): U.top})
    for other, shared in ((q, {0}), (p, {0, 1, "a"})):
        message = f"relation domains overlap on {sorted(map(repr, shared))}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            p.prnt.union(other.prnt)
    union = p.prnt.union(r.prnt)
    assert type(union._domain) is not frozenset and type(union._codomain) is not frozenset
    assert union.domain == {0, 1, "a", "c"} and union.codomain == {"a", "c", 0}


@pytest.mark.parametrize("graded", [False, True], ids=["fuzzy", "type2"])
def test_a_wide_place_graph_costs_nothing_until_its_relation_sets_are_read(graded):
    """Width 65,536, the model-file bound, with one node and two entries:
    the parent relation holds the widths as positions, so the graph holds
    a few KB and builds in well under a millisecond (building both
    position sets took ~12 MB and 110-160 ms)."""
    width, top = 65_536, U.top
    nodes = FuzzySet(U, {"v": top}) if graded else ("v",)
    args = (nodes, {("v", "K"): top}, {(width - 1, "v"): top, ("v", 0): top})
    cls = Type2FuzzyPlaceGraph if graded else FuzzyPlaceGraph
    tracemalloc.start()
    try:
        started = time.perf_counter()
        graph = cls(U, SIG, width, width, *args, *([top] if graded else []))
        elapsed = time.perf_counter() - started
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, f"{held / 2**20:.1f} MiB held"
    assert elapsed < 0.05, f"{elapsed * 1e3:.0f} ms"
    assert len(graph.prnt.domain) == len(graph.prnt.codomain) == width + 1


def test_relation_over_an_equal_but_separate_frame_is_rebuilt():
    other = FiniteChainFrame(5)
    prnt = FuzzyRelation(other, {"a"}, {"a", 0}, {("a", 0): other.value(3)})
    p = place(0, 1, ("a",), {("a", "K"): chain(5).top}, prnt, frame=chain(5))
    assert p.prnt.frame is chain(5)
    assert p.prnt.degree("a", 0) == chain(5).value(3)


def _deep_chain_place(depth: int, frame=U) -> FuzzyPlaceGraph:
    nodes = [f"n{i}" for i in range(depth)]
    prnt = {(nodes[i], nodes[i + 1]): frame.top for i in range(depth - 1)}
    prnt[(nodes[-1], 0)] = frame.top
    return place(0, 1, nodes, {(v, "K"): frame.top for v in nodes}, prnt, frame=frame)


def test_deep_nesting_validates_without_recursion():
    deep = _deep_chain_place(10_000)
    assert skeleton_is_acyclic(deep.prnt, deep.nodes)
    assert validate_fuzzy_place(deep).ok
    looped = FuzzyPlaceGraph(
        U, SIG, 0, 1, deep.nodes, deep.ctrl, deep.prnt.with_entry("n9999", "n0", U.top)
    )
    assert not skeleton_is_acyclic(looped.prnt, looped.nodes)
