"""Type-2 fuzzy bigraphs: graded ports, support, thresholds, translations."""

import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzySet,
    Interface,
    Signature,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    TWO_POINT,
    UNIT_INTERVAL,
    check_type2_support_translation,
    compose_fuzzy,
    compose_fuzzy_link,
    compose_fuzzy_place,
    compose_type2,
    compose_type2_link,
    compose_type2_place,
    embed_bigraph,
    find_support_equivalence,
    fuzzify,
    identity_bigraph,
    identity_type2_bigraph,
    make_type2_translation,
    translate_type2,
    type2_ports,
    type2_support,
)
from fuzzybig.errors import (
    InterfaceMismatchError,
    SignatureMismatchError,
    SupportOverlapError,
)
from fuzzybig.fuzzy import SupportTranslation
from fuzzybig.generators import (
    DEFAULT_SIGNATURE,
    random_fuzzy_chain,
    random_interface,
    random_type2_bigraph,
    random_type2_chain,
)
from fuzzybig import type2
from fuzzybig.type2 import validate_type2_place

from helpers import ALL_FRAMES, DiamondFrame, assert_checked_rebuild, d, make_h
from type2_oracle import brute_force_equivalence, refilter_link, refilter_place

U = UNIT_INTERVAL
SIG = Signature({"K": 2, "L": 1, "M": 3, "Z": 0})


def fset(**entries):
    return FuzzySet(U, {k: d(v) for k, v in entries.items()})


# --- ports -----------------------------------------------------------------


def test_ports_follow_the_unique_join_attaining_control():
    nodes = fset(v="9/10")
    ctrl = {("v", "K"): d("9/10")}
    assert type2_ports(SIG, nodes, _rel(nodes, ctrl)) == {("v", 0), ("v", 1)}


def _rel(nodes, entries):
    from fuzzybig import FuzzyRelation

    return FuzzyRelation(U, nodes.support, SIG.controls, entries)


def test_ports_pick_the_join_attaining_control_not_the_union():
    nodes = fset(v="1")
    ctrl = {("v", "K"): d("2/5"), ("v", "L"): d("9/10")}
    # oracle: enumerate the control row, take the join, keep its control
    row = {"K": d("2/5"), "L": d("9/10")}
    best = U.join_all(row.values())
    winners = sorted(k for k, deg in row.items() if deg == best)
    assert winners == ["L"]
    assert type2_ports(SIG, nodes, _rel(nodes, ctrl)) == {("v", 0)}


def test_ports_tie_breaks_lexicographically():
    nodes = fset(v="1")
    ctrl = {("v", "M"): d("1/2"), ("v", "K"): d("1/2")}
    # K and M tie at 1/2; K is lexicographically least, arity 2
    assert type2_ports(SIG, nodes, _rel(nodes, ctrl)) == {("v", 0), ("v", 1)}


def test_all_bottom_control_row_gives_no_ports():
    nodes = fset(v="1")
    assert type2_ports(SIG, nodes, _rel(nodes, {})) == frozenset()


def test_a_control_row_off_the_node_support_gives_no_ports():
    from fuzzybig import FuzzyRelation

    nodes = fset(v="1")
    ctrl = FuzzyRelation(U, {"v", "w"}, SIG.controls, {("v", "L"): U.top, ("w", "K"): U.top})
    assert type2_ports(SIG, nodes, ctrl) == {("v", 0)}


@pytest.mark.parametrize("nodes", [{"v": U.top}, FuzzySet(TWO_POINT, {"v": TWO_POINT.top})],
                         ids=["a dict", "another frame"])
def test_type2_parts_take_their_nodes_as_a_fuzzy_set_over_their_frame(nodes):
    message = r"^nodes must be a FuzzySet over the same frame$"
    with pytest.raises(TypeError, match=message):
        Type2FuzzyPlaceGraph(U, SIG, 0, 1, nodes, {}, {}, U.top)
    with pytest.raises(TypeError, match=message):
        Type2FuzzyLinkGraph(U, SIG, (), (), nodes, FuzzySet(U), {}, {}, U.top)


def _diamond_node(controls):
    """Node ``v`` holding each control at its diamond degree ("a", "b" or
    "ab"), as the fuzzy bigraph embed_bigraph takes and as the type-2 link
    graph's constructor takes it."""
    frame = DiamondFrame()
    ctrl = {("v", k): frame.value(frozenset(raw)) for k, raw in controls.items()}
    f = FuzzyBigraph(
        FuzzyPlaceGraph(frame, SIG, 0, 1, {"v"}, ctrl, {("v", 0): frame.top}),
        FuzzyLinkGraph(frame, SIG, (), (), {"v"}, (), ctrl, {}),
    )
    members = FuzzySet(frame, {"v": frame.top})

    def build():
        return Type2FuzzyLinkGraph(frame, SIG, (), (), members, FuzzySet(frame), ctrl, {}, frame.top)

    return f, build


def test_a_node_whose_controls_do_not_attain_their_join_is_named():
    # Off a chain, K at {a} and L at {b} join at {a,b}, which neither holds.
    f, build = _diamond_node({"K": "a", "L": "b"})
    message = "node 'v': none of its controls attains the join of their degrees"
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        embed_bigraph(f)
    assert str(err.value) == message


def test_the_first_such_node_in_control_entry_order_is_named():
    from fuzzybig import FuzzyRelation

    frame = DiamondFrame()
    a, b = frame.value(frozenset("a")), frame.value(frozenset("b"))
    nodes = FuzzySet(frame, {v: frame.top for v in "vwxyz"})
    entries = {(v, k): degree for v in "zyxwv" for k, degree in (("K", a), ("L", b))}
    ctrl = FuzzyRelation(frame, nodes.support, SIG.controls, entries)
    with pytest.raises(ValueError, match="^node 'z': "):
        type2_ports(SIG, nodes, ctrl)


def test_a_diamond_node_whose_join_is_attained_keeps_its_ports():
    # K at {a} lies below M at {a,b}, which attains the join: M's 3 ports.
    f, build = _diamond_node({"K": "a", "M": "ab"})
    ports = {("v", 0), ("v", 1), ("v", 2)}
    assert build().ports == ports
    assert embed_bigraph(f).link.ports == ports


# --- support ----------------------------------------------------------------


def _bigraph(nodes, edges, beta, delta, ctrl=(), prnt=(), link=()):
    place = Type2FuzzyPlaceGraph(U, SIG, 0, 1, nodes, dict(ctrl), dict(prnt), beta)
    link_part = Type2FuzzyLinkGraph(
        U, SIG, frozenset(), frozenset({"y"}), nodes, edges, dict(ctrl),
        dict(link), delta,
    )
    return Type2FuzzyBigraph(place, link_part)


def test_support_of_empty_sets_is_empty():
    g = _bigraph(FuzzySet(U), FuzzySet(U), U.top, U.top)
    assert len(type2_support(g)) == 0


def test_support_unions_node_and_edge_memberships():
    g = _bigraph(fset(v="4/5"), fset(e="3/10"), U.top, U.top,
                 prnt={("v", 0): d("1")})
    sup = type2_support(g)
    assert sup.membership("v") == d("4/5")
    assert sup.membership("e") == d("3/10")


def test_literal_off_sort_flag_lifts_nodes_to_top():
    g = _bigraph(fset(v="4/5"), fset(e="3/10"), U.top, U.top)
    sup = type2_support(g, literal_off_sort_top=True)
    assert sup.membership("v") == U.top
    assert sup.membership("e") == d("3/10")


def test_top_embedding_support_matches_crisp_support():
    h = fuzzify(make_h(), U)
    embedded = embed_bigraph(h)
    sup = type2_support(embedded)
    assert sup.support == h.nodes | h.edges
    assert all(deg.is_top() for _e, deg in sup.items())


# --- gamma and composition degrees ----------------------------------------------


def test_gamma_is_the_meet_of_beta_and_delta():
    g = _bigraph(FuzzySet(U), FuzzySet(U), d("7/10"), d("2/5"))
    assert g.degree == d("2/5")
    assert g.degree == g.place.degree.meet(g.link.degree)


def test_composite_gamma_is_meet_of_input_gammas():
    rng = random.Random(11)
    a, b = random_type2_chain(rng, U, SIG, 2)
    composite = compose_type2(b, a)
    assert composite.degree == a.degree.meet(b.degree)
    assert composite.place.degree == a.place.degree.meet(b.place.degree)


def test_identity_with_top_degree_leaves_argument_unchanged():
    rng = random.Random(12)
    for trial in range(20):
        a = random_type2_chain(rng, U, SIG, 1, prefix=f"i{trial}_")[0]
        assert compose_type2(identity_type2_bigraph(a.outer, U, SIG), a) == a
        assert compose_type2(a, identity_type2_bigraph(a.inner, U, SIG)) == a


# --- thresholds -------------------------------------------------------------------


def test_threshold_drops_entries_below_kappa():
    # mu=0.6, nu=0.8 -> kappa=0.6; the 0.5 entry is dropped, 0.7 survives
    f = Type2FuzzyPlaceGraph(
        U, SIG, 0, 1, fset(u0="1", u1="1"),
        {("u0", "Z"): U.top, ("u1", "Z"): U.top},
        {("u0", 0): d("1/2"), ("u1", 0): d("7/10")},
        d("3/5"),
    )
    g = Type2FuzzyPlaceGraph(U, SIG, 1, 1, FuzzySet(U), {}, {(0, 0): U.top}, d("4/5"))
    composite = compose_type2_place(g, f)
    assert composite.degree == d("3/5")
    assert composite.prnt.entry_dict() == {("u1", 0): d("7/10")}


def test_threshold_filtering_matches_brute_force_refilter():
    rng = random.Random(13)
    for trial in range(60):
        a, b = random_type2_chain(rng, U, SIG, 2, prefix=f"r{trial}_",
                                  coherent=False)
        composite = compose_type2_place(b.place, a.place)
        assert composite.prnt.entry_dict() == refilter_place(b.place, a.place)
        link_composite = compose_type2_link(b.link, a.link)
        assert link_composite.link.entry_dict() == refilter_link(b.link, a.link)


def test_link_chain_with_thresholds():
    # 0.7 then 0.6 through y at kappa=0.5 composes to 0.6
    f = Type2FuzzyLinkGraph(
        U, SIG, frozenset(), frozenset({"y"}), fset(v="1"), FuzzySet(U),
        {("v", "L"): U.top}, {(("v", 0), "y"): d("7/10")}, d("1/2"),
    )
    g = Type2FuzzyLinkGraph(
        U, SIG, frozenset({"y"}), frozenset({"z"}), FuzzySet(U), fset(e="1"),
        {}, {("y", "e"): d("3/5")}, U.top,
    )
    composite = compose_type2_link(g, f)
    assert composite.degree == d("1/2")
    assert composite.link.degree(("v", 0), "e") == d("3/5")


def test_identity_style_link_keeps_entries_at_or_above_mu():
    f = Type2FuzzyLinkGraph(
        U, SIG, frozenset(), frozenset({"y"}), fset(v="1"), FuzzySet(U),
        {("v", "K"): U.top},
        {(("v", 0), "y"): d("7/10"), (("v", 1), "y"): d("2/5")},
        d("3/5"),
    )
    g = Type2FuzzyLinkGraph(
        U, SIG, frozenset({"y"}), frozenset({"y"}), FuzzySet(U), FuzzySet(U),
        {}, {("y", "y"): U.top}, U.top,
    )
    composite = compose_type2_link(g, f)
    assert composite.degree == d("3/5")
    # entries below mu are filtered, the rest survive unchanged
    assert composite.link.entry_dict() == {(("v", 0), "y"): d("7/10")}


def test_crisp_embeddings_compose_like_fuzzy():
    sig = Signature({"K": 2, "L": 1, "M": 0})
    f = fuzzify(make_h(), U)
    embedded = embed_bigraph(f)
    composite = compose_type2(identity_type2_bigraph(f.outer, U, sig), embedded)
    assert composite == embedded
    # against the fuzzy composite of the same shapes
    fuzzy_composite = compose_fuzzy(identity_bigraph(f.outer, U, sig), f)
    assert composite.place.prnt == fuzzy_composite.prnt

    # At kappa = bottom with full memberships nothing is guarded, so the
    # type-2 composite is the embedded fuzzy one.  Pairs whose embedding
    # the type-2 port rule refuses are skipped.
    rng = random.Random(14)
    agreed = 0
    for frame in ALL_FRAMES:
        bottom = frame.bottom
        for _trial in range(60):
            a, b = random_fuzzy_chain(rng, frame, DEFAULT_SIGNATURE, 2)
            try:
                expected = embed_bigraph(compose_fuzzy(b, a), bottom, bottom)
                left, right = embed_bigraph(b, bottom, bottom), embed_bigraph(a, bottom, bottom)
            except ValueError:
                continue
            assert compose_type2(left, right) == expected
            agreed += 1
    assert agreed >= 60


def test_width_mismatch_raises():
    f = Type2FuzzyPlaceGraph(U, SIG, 0, 2, FuzzySet(U), {}, {}, U.top)
    g = Type2FuzzyPlaceGraph(U, SIG, 3, 1, FuzzySet(U), {}, {}, U.top)
    with pytest.raises(InterfaceMismatchError):
        compose_type2_place(g, f)


@pytest.mark.parametrize("compose, identity", [
    (compose_fuzzy_place, lambda *a: identity_bigraph(*a).place),
    (compose_fuzzy_link, lambda *a: identity_bigraph(*a).link),
    (compose_type2_place, lambda *a: identity_type2_bigraph(*a).place),
    (compose_type2_link, lambda *a: identity_type2_bigraph(*a).link),
], ids=["fuzzy-place", "fuzzy-link", "type2-place", "type2-link"])
def test_part_composers_check_frames_and_signatures_before_kappa(compose, identity):
    # A type-2 composer that met the interface degrees first would raise
    # FrameMismatchError from the meet instead.
    face = Interface(1, frozenset({"x"}))
    f = identity(face, U, SIG)
    with pytest.raises(SignatureMismatchError) as caught:
        compose(identity(face, TWO_POINT, SIG), f)
    assert str(caught.value) == "frames differ: unit-interval vs two-point"
    other = Signature({"K": 2})
    with pytest.raises(SignatureMismatchError, match="^signatures differ$"):
        compose(identity(face, U, other), f)


def test_support_overlap_raises():
    f = _bigraph(fset(v="1"), FuzzySet(U), U.top, U.top,
                 prnt={("v", 0): U.top})
    ident = identity_type2_bigraph(Interface(1, frozenset({"y"})), U, SIG)
    with pytest.raises(SupportOverlapError):
        compose_type2(
            _endo(f), _endo(f)
        )


def _endo(b):
    # wrap a 0->1 bigraph into an endo-shaped one for the overlap test
    place = Type2FuzzyPlaceGraph(
        U, SIG, 1, 1, b.nodes, b.ctrl,
        {**b.place.prnt.entry_dict(), (0, 0): U.top}, b.place.degree,
    )
    link = b.link
    link2 = Type2FuzzyLinkGraph(
        U, SIG, frozenset({"y"}), frozenset({"y"}), b.nodes, b.edges, b.ctrl,
        {**link.link.entry_dict(), ("y", "y"): U.top}, link.degree,
    )
    return Type2FuzzyBigraph(place, link2)


def test_associativity_on_coherent_triples():
    rng = random.Random(15)
    for trial in range(60):
        a, b, c = random_type2_chain(rng, U, SIG, 3, prefix=f"s{trial}_")
        left = compose_type2(c, compose_type2(b, a))
        right = compose_type2(compose_type2(c, b), a)
        assert left == right


# --- support translation -----------------------------------------------------------


def test_identity_translation_is_support_equivalent():
    rng = random.Random(16)
    f = random_type2_bigraph(rng, U, SIG, random_interface(rng, 2, 2),
                             random_interface(rng, 2, 2), prefix="id_")
    rel_v, rel_e = make_type2_translation(f, f)
    report = check_type2_support_translation(rel_v, rel_e, f, f)
    assert report.support_equivalent
    assert report.check("node relation matches target memberships").ok
    assert report.check("edge relation matches target memberships").ok
    assert report.check("port relation bound").ok


def test_renamed_copy_is_support_equivalent():
    rng = random.Random(17)
    f = random_type2_bigraph(rng, U, SIG, random_interface(rng, 2, 2),
                             random_interface(rng, 2, 2), prefix="rc_")
    rho = SupportTranslation(
        {v: f"r_{v}" for v in f.nodes.support},
        {e: f"r_{e}" for e in f.link.edge_support},
    )
    g = translate_type2(f, rho)
    rel_v, rel_e = make_type2_translation(f, g)
    report = check_type2_support_translation(rel_v, rel_e, f, g)
    assert report.support_equivalent
    assert report.witness is not None
    assert translate_type2(f, report.witness) == g


def test_raised_parent_degree_flips_the_inequality_and_breaks_equivalence():
    f = _bigraph(fset(v="1"), FuzzySet(U), d("1"), d("1"),
                 ctrl={("v", "Z"): U.top}, prnt={("v", 0): d("1/2")})
    rho = SupportTranslation({"v": "w"}, {})
    g = translate_type2(f, rho)
    raised = g.place.prnt.with_entry("w", 0, d("9/10"))
    g2 = Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(U, SIG, 0, 1, g.nodes, g.ctrl, raised,
                             g.place.degree),
        g.link,
    )
    rel_v, rel_e = make_type2_translation(f, g2)
    report = check_type2_support_translation(rel_v, rel_e, f, g2)
    assert not report.check("parent inequality").ok
    assert not report.support_equivalent


def test_membership_mismatch_fails_the_displayed_constraint():
    f = _bigraph(fset(v="1"), FuzzySet(U), U.top, U.top,
                 prnt={("v", 0): U.top})
    g = translate_type2(f, SupportTranslation({"v": "w"}, {}))
    rel_v, rel_e = make_type2_translation(f, g)
    mutated = g.nodes.with_membership("w", d("1/2"))
    g2 = Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(U, SIG, 0, 1, mutated, g.ctrl, g.place.prnt,
                             g.place.degree),
        Type2FuzzyLinkGraph(U, SIG, g.link.inner, g.link.outer, mutated,
                            g.edges, g.ctrl, g.link.link, g.link.degree),
    )
    report = check_type2_support_translation(rel_v, rel_e, f, g2)
    assert not report.check("node relation matches target memberships").ok
    assert not report.support_equivalent


def test_off_carrier_relation_entries_are_rejected():
    f = _bigraph(fset(v="1"), FuzzySet(U), U.top, U.top,
                 prnt={("v", 0): U.top})
    g = translate_type2(f, SupportTranslation({"v": "w"}, {}))
    from fuzzybig import FuzzyRelation

    bad = FuzzyRelation(U, {"v", "zzz"}, {"w"}, {("zzz", "w"): U.top})
    _, rel_e = make_type2_translation(f, g)
    with pytest.raises(ValueError):
        check_type2_support_translation(bad, rel_e, f, g)


def test_a_relation_off_the_frame_is_refused():
    from fuzzybig import FuzzyRelation

    f = _bigraph(fset(v="1"), FuzzySet(U), U.top, U.top, prnt={("v", 0): U.top})
    g = translate_type2(f, SupportTranslation({"v": "w"}, {}))
    rel_v, rel_e = make_type2_translation(f, g)
    two_point = FuzzyRelation(TWO_POINT, {"v"}, {"w"}, {("v", "w"): TWO_POINT.top})
    for args, message in (
        ((dict(rel_v.items()), rel_e), "node relation is not a fuzzy relation over unit-interval"),
        ((rel_v, two_point), "edge relation is not a fuzzy relation over unit-interval"),
    ):
        with pytest.raises(ValueError) as err:
            check_type2_support_translation(*args, f, g)
        assert str(err.value) == message


def test_find_support_equivalence_handles_symmetric_nodes():
    f = _bigraph(fset(v0="1/2", v1="1/2"), FuzzySet(U), U.top, U.top,
                 ctrl={("v0", "Z"): U.top, ("v1", "Z"): d("1/2")},
                 prnt={("v0", 0): U.top, ("v1", 0): U.top})
    rho = SupportTranslation({"v0": "w1", "v1": "w0"}, {})
    g = translate_type2(f, rho)
    found = find_support_equivalence(f, g)
    assert found is not None
    assert translate_type2(f, found) == g


def test_type2_link_interface_mismatch_raises():
    f = Type2FuzzyLinkGraph(U, SIG, frozenset(), frozenset({"y"}),
                            FuzzySet(U), FuzzySet(U), {}, {}, U.top)
    g = Type2FuzzyLinkGraph(U, SIG, frozenset({"z"}), frozenset(),
                            FuzzySet(U), FuzzySet(U), {}, {}, U.top)
    with pytest.raises(InterfaceMismatchError):
        compose_type2_link(g, f)


def test_threshold_soundness_outside_the_unthresholded_case():
    # every composite entry either clears kappa or is copied by the
    # g-internal case, which the definition does not degree-threshold
    rng = random.Random(18)
    for trial in range(40):
        a, b = random_type2_chain(rng, U, SIG, 2, prefix=f"k{trial}_",
                                  coherent=False)
        composite = compose_type2_place(b.place, a.place)
        kappa = composite.degree
        for (child, _target), degree in composite.prnt.items():
            if child in b.place.node_support:
                continue  # the g-internal case carries no degree threshold
            assert kappa.leq(degree)


def test_support_equivalence_is_symmetric_and_transitive_on_examples():
    rng = random.Random(19)
    for trial in range(10):
        f = random_type2_bigraph(rng, U, SIG, random_interface(rng, 2, 2),
                                 random_interface(rng, 2, 2),
                                 prefix=f"eq{trial}a_")
        rho1 = SupportTranslation(
            {v: f"b_{v}" for v in f.nodes.support},
            {e: f"b_{e}" for e in f.link.edge_support},
        )
        g = translate_type2(f, rho1)
        rho2 = SupportTranslation(
            {f"b_{v}": f"c_{v}" for v in f.nodes.support},
            {f"b_{e}": f"c_{e}" for e in f.link.edge_support},
        )
        h = translate_type2(g, rho2)
        assert find_support_equivalence(f, f) is not None   # reflexive
        assert find_support_equivalence(f, g) is not None
        assert find_support_equivalence(g, f) is not None   # symmetric
        assert find_support_equivalence(f, h) is not None   # transitive chain


# --- composites built without re-checking --------------------------------------------


def assert_type2_rebuilds(b: Type2FuzzyBigraph) -> None:
    """Every relation of ``b``, and ``b`` itself, rebuild through the public
    checked constructors from plain entries and compare equal, and the
    ports of ``b`` are the ones the checked rebuild derives."""
    assert_checked_rebuild(b.ctrl, b.place.prnt, b.link.ctrl, b.link.link)
    nodes = FuzzySet(b.frame, dict(b.nodes.items()))
    place = Type2FuzzyPlaceGraph(
        b.frame, b.signature, b.place.inner, b.place.outer, nodes,
        b.ctrl.entry_dict(), b.place.prnt.entry_dict(), b.place.degree,
    )
    link = Type2FuzzyLinkGraph(
        b.frame, b.signature, b.link.inner, b.link.outer, nodes,
        FuzzySet(b.frame, dict(b.edges.items())),
        b.link.ctrl.entry_dict(), b.link.link.entry_dict(), b.link.degree,
    )
    assert b.link.ports == type2_ports(b.signature, nodes, link.ctrl)
    assert Type2FuzzyBigraph(place, link) == b


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_FRAMES),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_type2_composites_pass_the_checked_constructors(frame, coherent, seed):
    rng = random.Random(seed)
    f, g, h = random_type2_chain(rng, frame, SIG, 3, coherent=coherent)
    assert_type2_rebuilds(compose_type2(g, f))
    assert_type2_rebuilds(compose_type2(h, compose_type2(g, f)))
    assert_type2_rebuilds(compose_type2(identity_type2_bigraph(f.outer, frame, SIG), f))


def test_type2_composite_keeps_ports_of_multi_control_and_sub_kappa_nodes():
    top, half, quarter = U.top, d("1/2"), d("1/4")
    # u holds K (two ports) at 1/2 and L (one port) at top: L attains the
    # join.  w's membership 1/4 falls below kappa = 1/2.  v holds K and L
    # at one degree, and the tie goes to K.
    f_nodes = FuzzySet(U, {"u": top, "w": quarter})
    f_ctrl = {("u", "K"): half, ("u", "L"): top, ("w", "K"): top}
    f = Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(
            U, SIG, 0, 1, f_nodes, f_ctrl, {("u", 0): top, ("w", "u"): top}, half
        ),
        Type2FuzzyLinkGraph(
            U, SIG, (), ("x",), f_nodes, FuzzySet(U, {"e": top}), f_ctrl,
            {(("u", 0), "x"): top, (("w", 0), "e"): top, (("w", 1), "x"): half},
            half,
        ),
    )
    g_nodes = FuzzySet(U, {"v": top})
    g_ctrl = {("v", "K"): quarter, ("v", "L"): quarter}
    g = Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(
            U, SIG, 1, 1, g_nodes, g_ctrl, {(0, "v"): top, ("v", 0): top}, top
        ),
        Type2FuzzyLinkGraph(
            U, SIG, ("x",), ("y",), g_nodes, FuzzySet(U), g_ctrl,
            {("x", "y"): top, (("v", 0), "y"): top, (("v", 1), "y"): top},
            top,
        ),
    )
    composite = compose_type2(g, f)
    assert_type2_rebuilds(composite)
    assert composite.link.ports == {("u", 0), ("w", 0), ("w", 1), ("v", 0), ("v", 1)}
    assert composite.place.prnt.degree("w", "u").is_bottom()
    assert composite.nodes.membership("w") == quarter


def test_type2_place_graph_rejects_non_string_node_identifiers():
    sig = Signature({"K": 0})
    with pytest.raises(TypeError, match="node identifiers are strings, got 0"):
        Type2FuzzyPlaceGraph(
            U, sig, 1, 1, FuzzySet(U, {0: U.top}), {(0, "K"): U.top}, {(0, 0): U.top}, U.top
        )


def test_type2_link_graph_rejects_non_string_node_and_edge_identifiers():
    sig = Signature({"K": 0})
    with pytest.raises(TypeError, match="node identifiers are strings, got 0"):
        Type2FuzzyLinkGraph(
            U, sig, (), (), FuzzySet(U, {0: U.top}), FuzzySet(U), {(0, "K"): U.top}, {}, U.top
        )
    with pytest.raises(TypeError, match="edge identifiers are strings, got 1"):
        Type2FuzzyLinkGraph(
            U, sig, ("x",), (), FuzzySet(U), FuzzySet(U, {1: U.top}), {}, {("x", 1): U.top}, U.top
        )


def test_type2_routes_meeting_at_bottom_are_dropped_off_a_chain():
    frame = DiamondFrame()
    a, b, top = frame.value(frozenset("a")), frame.value(frozenset("b")), frame.top
    members = FuzzySet(frame, {"u": top})
    f = Type2FuzzyPlaceGraph(
        frame, SIG, 0, 1, members, {("u", "K"): top}, {("u", 0): a}, frame.bottom
    )
    g = Type2FuzzyPlaceGraph(frame, SIG, 1, 1, FuzzySet(frame), {}, {(0, 0): b}, top)
    place = compose_type2_place(g, f)
    assert len(place.prnt) == 0
    assert_checked_rebuild(place.prnt)
    f = Type2FuzzyLinkGraph(
        frame, SIG, (), ("x",), members, FuzzySet(frame),
        {("u", "L"): top}, {(("u", 0), "x"): a}, frame.bottom,
    )
    g = Type2FuzzyLinkGraph(
        frame, SIG, ("x",), ("y",), FuzzySet(frame), FuzzySet(frame), {}, {("x", "y"): b}, top
    )
    link = compose_type2_link(g, f)
    assert len(link.link) == 0
    assert_checked_rebuild(link.link)


def test_deep_type2_nesting_validates_without_recursion():
    depth = 10_000
    names = [f"n{i}" for i in range(depth)]
    prnt = {(names[i], names[i + 1]): U.top for i in range(depth - 1)}
    prnt[(names[-1], 0)] = U.top
    deep = Type2FuzzyPlaceGraph(
        U, SIG, 0, 1, FuzzySet(U, {v: U.top for v in names}),
        {(v, "K"): U.top for v in names}, prnt, U.top,
    )
    assert validate_type2_place(deep).ok
    prnt[(names[-1], names[0])] = d("1/2")
    looped = Type2FuzzyPlaceGraph(
        U, SIG, 0, 1, deep.nodes, deep.ctrl, prnt, U.top,
    )
    assert not validate_type2_place(looped).ok


def test_type2_link_graph_rejects_non_string_names():
    with pytest.raises(TypeError, match="inner name identifiers are strings"):
        Type2FuzzyLinkGraph(U, SIG, [1, 2], ["y"], FuzzySet(U), FuzzySet(U), {}, {}, U.top)
    with pytest.raises(TypeError, match="outer name identifiers are strings"):
        Type2FuzzyLinkGraph(U, SIG, ["x"], [3], FuzzySet(U), FuzzySet(U), {}, {}, U.top)


# --- the support-equivalence search against the brute-force oracle ----------------

# Two positive levels per frame, so membership classes hold several nodes
# and the structure repeats itself.
LEVELS = {U.name: ("1/2", "1"), "chain:5": ("2", "4"), "two-point": ("1",)}


def _levelled_bigraph(rng, frame, n_nodes, n_edges, levels=None, interfaces=None):
    """A type-2 bigraph whose degrees all come from ``levels`` (by default
    the frame's levels), on the given ``(inner, outer)`` or drawn ones."""
    if levels is None:
        levels = [frame.parse_degree(t) for t in LEVELS[frame.name]]
    if interfaces is None:
        interfaces = (
            Interface(rng.randint(0, 2), rng.sample(["x0", "x1"], rng.randint(0, 2))),
            Interface(rng.randint(1, 2), rng.sample(["y0", "y1"], rng.randint(0, 2))),
        )
    inner, outer = interfaces
    nodes = [f"v{i}" for i in range(n_nodes)]
    members = {v: rng.choice(levels) for v in nodes}
    ctrl = {(v, rng.choice(sorted(SIG.controls))): rng.choice(levels) for v in nodes}
    prnt = {}
    for i, v in enumerate(nodes):
        parents = nodes[i + 1:] + list(range(outer.width))
        for p in rng.sample(parents, min(len(parents), rng.choice((1, 1, 2)))):
            prnt[(v, p)] = rng.choice(levels)
    for site in range(inner.width):
        prnt[(site, rng.choice(nodes + list(range(outer.width))))] = rng.choice(levels)
    edges = {f"e{i}": rng.choice(levels) for i in range(n_edges)}
    targets = sorted(edges) + sorted(outer.names)
    points = sorted(inner.names) + [
        (v, i) for (v, k) in sorted(ctrl) for i in range(SIG.arity_of(k))
    ]
    link = {q: rng.choice(levels) for q in points if targets and rng.random() < 0.8}
    link = {(q, rng.choice(targets)): deg for q, deg in link.items()}
    return _rebuilt_type2(
        frame, inner, outer, members, edges, ctrl, prnt, link, levels[0], levels[-1]
    )


def _rebuilt_type2(frame, inner, outer, members, edges, ctrl, prnt, link, beta, delta):
    nodes = FuzzySet(frame, members)
    place = Type2FuzzyPlaceGraph(frame, SIG, inner.width, outer.width, nodes, ctrl, prnt, beta)
    link_part = Type2FuzzyLinkGraph(
        frame, SIG, inner.names, outer.names, nodes, FuzzySet(frame, edges), ctrl, link, delta
    )
    return Type2FuzzyBigraph(place, link_part)


def _shuffled_copy(rng, f):
    nodes, edges = sorted(f.nodes.support), sorted(f.edges.support)
    node_images = [f"w{i}" for i in range(len(nodes))]
    edge_images = [f"d{i}" for i in range(len(edges))]
    rng.shuffle(node_images)
    rng.shuffle(edge_images)
    return translate_type2(
        f, SupportTranslation(dict(zip(nodes, node_images)), dict(zip(edges, edge_images)))
    )


def _parts(b):
    return dict(
        frame=b.frame, inner=b.inner, outer=b.outer, members=dict(b.nodes.items()),
        edges=dict(b.edges.items()), ctrl=b.ctrl.entry_dict(), prnt=b.place.prnt.entry_dict(),
        link=b.link.link.entry_dict(), beta=b.place.degree, delta=b.link.degree,
    )


def _mutated(rng, b):
    """One membership, control or entry degree moved to another level; off
    a second level, one parent or link entry dropped instead."""
    parts = _parts(b)
    levels = [b.frame.parse_degree(t) for t in LEVELS[b.frame.name]]
    names = ("members", "edges", "ctrl", "prnt", "link") if len(levels) > 1 else ("prnt", "link")
    fields = [name for name in names if parts[name]]
    if not fields:
        return b
    table = parts[rng.choice(fields)]
    key = rng.choice(sorted(table, key=repr))
    others = [level for level in levels if level != table[key]]
    if others:
        table[key] = rng.choice(others)
    else:
        del table[key]
    return _rebuilt_type2(**parts)


def _rewired(rng, b):
    """Two parent (or link) entries swap targets: every degree multiset
    stays, the structure may not."""
    parts = _parts(b)
    name = rng.choice(("prnt", "link"))
    table = parts[name]
    entries = sorted(table.items(), key=repr)
    swaps = [
        (i, j)
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
        if (entries[i][0][0], entries[j][0][1]) not in table
        and (entries[j][0][0], entries[i][0][1]) not in table
    ]
    if not swaps:
        return b
    i, j = rng.choice(swaps)
    ((a, p), da), ((c, q), dc) = entries[i], entries[j]
    del table[(a, p)], table[(c, q)]
    table[(a, q)], table[(c, p)] = da, dc
    return _rebuilt_type2(**parts)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALL_FRAMES),
    st.sampled_from(("renamed", "mutated", "rewired")),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_support_equivalence_agrees_with_the_brute_force_oracle(
    frame, kind, n_nodes, n_edges, seed
):
    rng = random.Random(seed)
    f = _levelled_bigraph(rng, frame, n_nodes, n_edges)
    g = _shuffled_copy(rng, f)
    if kind == "mutated":
        g = _mutated(rng, g)
    elif kind == "rewired":
        g = _rewired(rng, g)
    expected = brute_force_equivalence(f, g)
    for a, b in ((f, g), (g, f)):
        found = find_support_equivalence(a, b)
        assert (found is None) == (expected is None)
        if found is not None:
            assert translate_type2(a, found) == b


# A node of each control, a parent chain, both port indices of K in use and
# an inner name: every kind of label the search numbers occurs.
LABELLED = dict(
    frame=U, inner=Interface(0, {"x"}), outer=Interface(1, {"y"}),
    members={"v0": d("1/2"), "v1": U.top, "v2": d("1/2")},
    edges={"e0": d("1/2"), "e1": U.top},
    ctrl={("v0", "K"): U.top, ("v1", "K"): d("1/2"), ("v2", "L"): U.top},
    prnt={("v0", "v1"): d("1/2"), ("v1", 0): U.top, ("v2", 0): d("1/2")},
    link={(("v0", 0), "e0"): d("1/2"), (("v1", 1), "e0"): U.top,
          (("v2", 0), "e1"): d("1/2"), ("x", "e1"): U.top, (("v0", 1), "y"): U.top},
    beta=d("1/2"), delta=d("1/2"),
)


def _one_label_changed(b, kind):
    """``b`` with the first entry (in ``repr`` order) of one kind of label
    changed: a degree moved between 1/2 and 1, or a link entry moved from
    port 0 to the node's free port 1."""
    parts = _parts(b)
    if kind == "port index":
        table = parts["link"]
        node, target = min(
            (q[0], t) for q, t in table
            if isinstance(q, tuple) and q[1] == 0 and (q[0], "K") in parts["ctrl"]
            and ((q[0], 1), t) not in table
        )
        table[((node, 1), target)] = table.pop(((node, 0), target))
    else:
        table = parts[kind]
        key = min(table, key=repr)
        table[key] = U.top if table[key] == d("1/2") else d("1/2")
    return _rebuilt_type2(**parts)


@pytest.mark.parametrize("kind", ["members", "edges", "ctrl", "prnt", "link", "port index"])
def test_a_changed_label_is_refused_before_the_structure_is_built(kind, monkeypatch):
    f = _rebuilt_type2(**LABELLED)
    copy = _shuffled_copy(random.Random(3), f)
    g = _one_label_changed(copy, kind)
    assert brute_force_equivalence(f, g) is None

    def unbuilt(*args):
        raise AssertionError("the search structure was built")

    monkeypatch.setattr(type2, "_support_structure", unbuilt)
    with pytest.raises(AssertionError):
        find_support_equivalence(f, copy)
    for a, b in ((f, g), (g, f)):
        assert find_support_equivalence(a, b) is None


def test_a_rewired_copy_keeping_every_label_is_refused_after_the_build(monkeypatch):
    # two parent or link entries swap targets: the label multisets agree,
    # so only refinement and the search can answer
    rng = random.Random(0)
    f = _levelled_bigraph(rng, U, 4, 2)
    g = _rewired(rng, _shuffled_copy(rng, f))
    assert brute_force_equivalence(f, g) is None
    built, build = [], type2._support_structure
    monkeypatch.setattr(type2, "_support_structure", lambda *args: built.append(args) or build(*args))
    assert find_support_equivalence(f, g) is None
    assert len(built) == 2


def test_an_inner_name_spelled_like_a_node_stays_an_inner_name():
    # inner name "x" and node "x" share a spelling; the only witness swaps
    # the nodes x and y and leaves the inner name where it is
    ctrl = {("x", "L"): U.top, ("y", "L"): U.top}
    f = _rebuilt_type2(
        U, Interface(0, {"x"}), Interface(1, {"o"}), {"x": U.top, "y": U.top},
        {"e": U.top}, ctrl, {("x", 0): U.top, ("y", "x"): U.top},
        {("x", "e"): U.top, (("x", 0), "e"): d("1/2"), (("y", 0), "o"): d("1/2")},
        U.top, U.top,
    )
    g = translate_type2(f, SupportTranslation({"x": "y", "y": "x"}, {"e": "e"}))
    found = find_support_equivalence(f, g)
    assert found is not None and found.node_map == {"x": "y", "y": "x"}
    assert translate_type2(f, found) == g
    # move the inner name's link to the outer name: no renaming of nodes
    # can follow it
    link = {**g.link.link.entry_dict(), ("x", "o"): U.top}
    del link[("x", "e")]
    moved = _rebuilt_type2(**{**_parts(g), "link": link})
    assert find_support_equivalence(f, moved) is None
    assert brute_force_equivalence(f, moved) is None


def _symmetric(n, degree="1/2"):
    """n nodes alike in every respect: same membership and control, each a
    child of root 0 with its one port on the edge e."""
    names = [f"v{i}" for i in range(n)]
    return _rebuilt_type2(
        U, Interface(0), Interface(1), {v: d("1/2") for v in names}, {"e": U.top},
        {(v, "L"): U.top for v in names}, {(v, 0): d(degree) for v in names},
        {((v, 0), "e"): d("1/2") for v in names}, d("1/2"), d("1/2"),
    )


@pytest.mark.parametrize("field, key", [("prnt", ("w3", 0)), ("link", (("w3", 0), "d0"))])
def test_eight_symmetric_nodes_with_one_degree_changed_are_told_apart_promptly(field, key):
    f = _symmetric(8)
    parts = _parts(_shuffled_copy(random.Random(8), f))
    parts[field][key] = d("3/4")
    g = _rebuilt_type2(**parts)
    start = time.perf_counter()
    assert find_support_equivalence(f, g) is None
    assert time.perf_counter() - start < 1.0


def test_fifty_symmetric_nodes_resolve_promptly():
    f = _symmetric(50)
    g = _shuffled_copy(random.Random(50), f)
    start = time.perf_counter()
    found = find_support_equivalence(f, g)
    assert time.perf_counter() - start < 1.0
    assert found is not None and translate_type2(f, found) == g


def _rings(sizes):
    """Parent rings of the given sizes over nodes alike in every respect."""
    names, prnt = [], {}
    for size in sizes:
        ring = [f"v{len(names) + i}" for i in range(size)]
        names += ring
        prnt.update({(v, ring[(i + 1) % size]): U.top for i, v in enumerate(ring)})
    return _rebuilt_type2(
        U, Interface(0), Interface(1), {v: U.top for v in names}, {},
        {(v, "Z"): U.top for v in names}, prnt, {}, U.top, U.top,
    )


def test_rings_that_refinement_cannot_split_are_settled_promptly():
    # every node has one parent and one child at the same degree, so
    # refinement leaves a single class; twelve 3-rings are no 36-ring
    rng = random.Random(12)
    f = _rings([3] * 12)
    start = time.perf_counter()
    assert find_support_equivalence(f, _shuffled_copy(rng, _rings([36]))) is None
    found = find_support_equivalence(f, g := _shuffled_copy(rng, f))
    assert time.perf_counter() - start < 1.0
    assert found is not None and translate_type2(f, found) == g


def _cycles(sizes, hub=False):
    """Nodes of the arity-2 control K in directed cycles of the given sizes:
    edge e_i joins port (v_i, 0) to port (v_{i+1}, 1) of the next node round
    its cycle.  Every degree is top, and every node is a child of root 0 or,
    with ``hub``, of one shared node h."""
    names, edges, link = [], {}, {}
    for size in sizes:
        ring = [f"v{len(names) + i}" for i in range(size)]
        for i, v in enumerate(ring):
            e = f"e{len(names) + i}"
            edges[e] = U.top
            link[((v, 0), e)] = link[((ring[(i + 1) % size], 1), e)] = U.top
        names += ring
    parent = "h" if hub else 0
    members = {v: U.top for v in names}
    ctrl = {(v, "K"): U.top for v in names}
    prnt = {(v, parent): U.top for v in names}
    if hub:
        members["h"], ctrl[("h", "Z")], prnt[("h", 0)] = U.top, U.top, U.top
    return _rebuilt_type2(
        U, Interface(0), Interface(1), members, edges, ctrl, prnt, link, U.top, U.top
    )


@pytest.mark.parametrize("hub", [False, True], ids=["root", "hub"])
@pytest.mark.parametrize("m, bound", [(4, 0.1), (50, 1.0)])
def test_cycles_that_refinement_cannot_split_are_decided_piece_by_piece(m, bound, hub):
    # refinement gives every node one colour and every edge another; f is
    # m + 1 six-cycles, which m six-cycles and two three-cycles are no
    # renaming of, and a shuffled copy of f is
    f = _cycles([6] * (m + 1), hub)
    rng = random.Random(m)
    for g, equivalent in (
        (_shuffled_copy(rng, _cycles([6] * m + [3, 3], hub)), False),
        (_shuffled_copy(rng, f), True),
    ):
        start = time.perf_counter()
        found = find_support_equivalence(f, g)
        assert time.perf_counter() - start < bound
        assert (found is not None) == equivalent
        if found is not None:
            assert translate_type2(f, found) == g


def _twisted(turns):
    """Triangles of nodes of the arity-2 control K, one per entry of
    ``turns``: node i of a triangle is the child of node i + 1, and edge i
    joins port (i, 0) to port (i + turn, 1).  Every node has one parent,
    one child and one edge at each port, so refinement splits no triangle
    from another; one of turn 1 is no renaming of one of turn 2."""
    names, edges, prnt, link = [], {}, {}, {}
    for turn in turns:
        ring = [f"v{len(names) + i}" for i in range(3)]
        for i, v in enumerate(ring):
            e = f"e{len(names) + i}"
            edges[e] = U.top
            prnt[(v, ring[(i + 1) % 3])] = U.top
            link[((v, 0), e)] = link[((ring[(i + turn) % 3], 1), e)] = U.top
        names += ring
    return _rebuilt_type2(
        U, Interface(0), Interface(1), {v: U.top for v in names}, edges,
        {(v, "K"): U.top for v in names}, prnt, link, U.top, U.top,
    )


def _searched(f, g, monkeypatch):
    """find_support_equivalence(f, g), and whether it went on to match
    pieces: neither the labels nor refinement answered."""
    calls, pieces = [], type2._pieces
    monkeypatch.setattr(type2, "_pieces", lambda *args: calls.append(args) or pieces(*args))
    return find_support_equivalence(f, g), bool(calls)


def test_a_triangle_no_renaming_fits_is_refused_after_backtracking(monkeypatch):
    # the labels and the refined classes agree, so each depth of the search
    # runs out of candidates in turn and the one piece of g does not fit
    f, g = _twisted([1]), _twisted([2])
    for a, b in ((f, g), (g, f)):
        assert brute_force_equivalence(a, b) is None
        assert _searched(a, b, monkeypatch) == (None, True)


def test_a_piece_is_matched_after_another_piece_of_its_group_does_not_fit(monkeypatch):
    # f's first triangle (turn 1) is tried against g's first (turn 2) in
    # vain, then fits g's second; the oracle settles each pair of pieces,
    # since a renaming maps pieces onto pieces
    f, g = _twisted([1, 2]), _twisted([2, 1])
    one, two = _twisted([1]), _twisted([2])
    assert brute_force_equivalence(one, _shuffled_copy(random.Random(1), one)) is not None
    assert brute_force_equivalence(two, _shuffled_copy(random.Random(2), two)) is not None
    assert brute_force_equivalence(one, two) is None
    for a, b in ((f, g), (g, f)):
        found, searched = _searched(a, b, monkeypatch)
        assert searched and found is not None
        assert translate_type2(a, found) == b


WITNESS_SCRIPT = """
import random
from fuzzybig import find_support_equivalence
from test_type2 import _parts, _rebuilt_type2, _shuffled_copy, _symmetric
f = _symmetric(6)
parts = _parts(_shuffled_copy(random.Random(6), f))
for name in ("members", "ctrl", "prnt", "link"):
    parts[name] = {key: parts[name][key] for key in frozenset(parts[name])}
g = _rebuilt_type2(**parts)
print(sorted(find_support_equivalence(f, g).node_map.items()))
"""


def test_the_witness_does_not_depend_on_the_hash_seed():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", WITNESS_SCRIPT],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2", "3")
    }
    assert len(outputs) == 1
