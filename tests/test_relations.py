"""Fuzzy relation and fuzzy set behaviour: normal form, composition, union."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import FuzzyRelation, FuzzySet, UNIT_INTERVAL, identity_relation
from fuzzybig.errors import FrameMismatchError
from fuzzybig.generators import random_degree
from fuzzybig.lattice import TWO_POINT, FiniteChainFrame, FrameValue, chain

from helpers import ALL_FRAMES, DiamondFrame, assert_checked_rebuild

U = UNIT_INTERVAL


def d(text):
    return U.parse_degree(text)


def rel(domain, codomain, entries):
    return FuzzyRelation(U, domain, codomain, entries)


def test_bottom_entries_are_never_stored():
    r = rel({"a"}, {"b"}, {("a", "b"): d("0")})
    assert len(r) == 0
    assert r == rel({"a"}, {"b"}, {})


def test_degree_defaults_to_bottom():
    r = rel({"a"}, {"b"}, {})
    assert r.degree("a", "b") == U.bottom


def test_entries_outside_domain_rejected():
    with pytest.raises(ValueError):
        rel({"a"}, {"b"}, {("a", "c"): d("1/2")})
    with pytest.raises(ValueError):
        rel({"a"}, {"b"}, {("x", "b"): d("1/2")})


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        FuzzyRelation(U, {"a"}, {"b"}, [(("a", "b"), d("1/2")), (("a", "b"), d("1/3"))])


def test_frame_mismatch_rejected():
    with pytest.raises(FrameMismatchError):
        rel({"a"}, {"b"}, {("a", "b"): TWO_POINT.top})


@pytest.mark.parametrize("operation, message", [
    ("then", "cannot compose relations over unit-interval and two-point"),
    ("union", "cannot union relations over different frames"),
    ("leq", "cannot compare relations over different frames"),
])
def test_relation_operations_refuse_another_frame(operation, message):
    r = rel({"a"}, {"b"}, {("a", "b"): d("1/2")})
    other = FuzzyRelation(TWO_POINT, {"b"}, {"c"}, {("b", "c"): TWO_POINT.top})
    with pytest.raises(FrameMismatchError) as err:
        getattr(r, operation)(other)
    assert str(err.value) == message


def test_then_is_sup_min():
    r = rel({"a"}, {"m1", "m2"}, {("a", "m1"): d("3/4"), ("a", "m2"): d("1/2")})
    s = rel({"m1", "m2"}, {"z"}, {("m1", "z"): d("1/4"), ("m2", "z"): d("1/2")})
    # max(min(3/4,1/4), min(1/2,1/2)) = 1/2
    assert r.then(s).degree("a", "z") == d("1/2")


def test_identity_is_neutral_for_then():
    r = rel({"a", "b"}, {"x"}, {("a", "x"): d("2/3"), ("b", "x"): d("1/3")})
    id_dom = identity_relation(U, {"a", "b"})
    id_cod = identity_relation(U, {"x"})
    assert id_dom.then(r) == r
    assert r.then(id_cod) == r


small_rel_entries = st.dictionaries(
    st.tuples(st.sampled_from("ab"), st.sampled_from("xy")),
    st.fractions(min_value=0, max_value=1, max_denominator=8).map(U.value),
    max_size=4,
)


@given(small_rel_entries, small_rel_entries, small_rel_entries)
def test_then_is_associative(e1, e2, e3):
    r = FuzzyRelation(U, "ab", "xy", {(a, b): v for (a, b), v in e1.items()})
    s = FuzzyRelation(U, "xy", "ab", {(b, a): v for (a, b), v in e2.items()})
    t = FuzzyRelation(U, "ab", "xy", {(a, b): v for (a, b), v in e3.items()})
    assert r.then(s).then(t) == r.then(s.then(t))


def test_union_requires_disjoint_domains():
    r = rel({"a"}, {"x"}, {("a", "x"): d("1/2")})
    s = rel({"b"}, {"x"}, {("b", "x"): d("1/3")})
    merged = r.union(s)
    assert merged.degree("a", "x") == d("1/2")
    assert merged.degree("b", "x") == d("1/3")
    with pytest.raises(ValueError, match=r"^relation domains overlap on \[\"'a'\"\]$"):
        r.union(r)


def test_leq_is_pointwise():
    r = rel({"a"}, {"x"}, {("a", "x"): d("1/2")})
    s = rel({"a"}, {"x"}, {("a", "x"): d("3/4")})
    assert r.leq(s)
    assert not s.leq(r)


def test_translate_renames_elements():
    r = rel({"a"}, {"x"}, {("a", "x"): d("1/2")})
    out = r.translate(dom_map=lambda e: e.upper(), cod_map=lambda e: e + "!")
    assert out.degree("A", "x!") == d("1/2")


def test_with_entry_replaces_and_removes():
    r = rel({"a"}, {"x"}, {("a", "x"): d("1/2")})
    assert r.with_entry("a", "x", d("3/4")).degree("a", "x") == d("3/4")
    assert len(r.with_entry("a", "x", d("0"))) == 0


def test_fuzzy_set_normal_form_and_union():
    s = FuzzySet(U, {"a": d("1/2"), "b": d("0")})
    assert s.support == {"a"}
    assert s.membership("b") == U.bottom
    t = FuzzySet(U, {"c": d("1/4")})
    assert (s.union(t)).membership("c") == d("1/4")
    with pytest.raises(ValueError, match=r"^fuzzy-set supports overlap on \[\"'a'\"\]$"):
        s.union(s)


def test_fuzzy_set_refuses_a_repeated_element():
    with pytest.raises(ValueError, match=r"^duplicate fuzzy-set entry for 'a'$"):
        FuzzySet(U, [("a", d("1/2")), ("a", d("1/3"))])


def test_fuzzy_set_union_refuses_another_frame():
    with pytest.raises(FrameMismatchError, match="^cannot union fuzzy sets over different frames$"):
        FuzzySet(U, {"a": d("1/2")}).union(FuzzySet(TWO_POINT, {"b": TWO_POINT.top}))


def test_fuzzy_set_translate():
    s = FuzzySet(U, {"a": d("1/2")})
    assert s.translate({"a": "z"}).membership("z") == d("1/2")


# --- results built without re-checking ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), st.integers(min_value=0, max_value=2**32 - 1))
def test_then_and_union_results_pass_the_checked_constructor(frame, seed):
    rng = random.Random(seed)

    def random_relation(domain, codomain):
        return FuzzyRelation(
            frame,
            domain,
            codomain,
            {(a, b): random_degree(rng, frame) for a in domain for b in codomain},
        )

    r = random_relation({"a", "b", 0}, {"x", "y", 1})
    s = random_relation({"x", "y", 1}, {"p", 2, ("v", 0)})
    t = random_relation({"c", 3}, {"x", "q"})
    ident = identity_relation(frame, {"x", "y", 1})
    assert_checked_rebuild(
        r.then(s),
        r.then(ident),
        r.union(t),
        r.union(t).then(s.union(identity_relation(frame, {"q"}))),
        identity_relation(frame, {"c", 3}).union(r).then(t.union(s)),
    )


def test_then_drops_meets_that_fall_to_bottom_off_a_chain():
    frame = DiamondFrame()
    a, b = frame.value(frozenset("a")), frame.value(frozenset("b"))
    r = FuzzyRelation(frame, {"x"}, {"m1", "m2"}, {("x", "m1"): a, ("x", "m2"): a})
    s = FuzzyRelation(frame, {"m1", "m2"}, {"z"}, {("m1", "z"): b, ("m2", "z"): frame.top})
    out = r.then(s)
    assert out.entry_dict() == {("x", "z"): a}
    assert_checked_rebuild(out)
    clash = FuzzyRelation(frame, {"m1"}, {"z"}, {("m1", "z"): b})
    assert len(r.then(clash)) == 0
    assert_checked_rebuild(r.then(clash))


def test_fuzzy_set_support_is_fixed_at_construction():
    s = FuzzySet(U, {"a": d("1/2"), "b": d("0")})
    assert s.support == frozenset({"a"})
    assert s.support is s.support
    assert s.with_membership("c", d("1/3")).support == {"a", "c"}


def test_with_entry_rejects_an_off_domain_pair_even_at_bottom():
    r = rel({"a"}, {"x"}, {("a", "x"): d("1/2")})
    for degree in (d("0"), d("1/2")):
        with pytest.raises(ValueError, match="lies outside its domain/codomain"):
            r.with_entry("a", "zz", degree)


def test_with_entry_and_with_membership_check_the_frame():
    r = rel({"a"}, {"x"}, {})
    with pytest.raises(FrameMismatchError):
        r.with_entry("a", "x", TWO_POINT.bottom)
    with pytest.raises(FrameMismatchError):
        FuzzySet(U).with_membership("a", TWO_POINT.top)
    assert FuzzySet(U, {"a": d("1/2")}).with_membership("a", U.bottom) == FuzzySet(U)


# --- the entry checker: every entry is checked, in entry order -----------------


def test_a_bottom_degree_that_is_not_the_frames_own_bottom_is_dropped():
    half = d("1/2")
    for bottom in (U.value(0), FrameValue(U, Fraction(0))):
        assert bottom is not U.bottom
        r = rel({"a", "b", "c"}, {"x"}, {("a", "x"): bottom, ("b", "x"): half, ("c", "x"): bottom})
        assert r.entry_dict() == {("b", "x"): half}


def test_a_degree_of_an_equal_named_frame_object_is_accepted():
    other = FiniteChainFrame(5)
    assert other is not chain(5) and other == chain(5)
    three = other.value(3)
    r = FuzzyRelation(chain(5), {"a", "b"}, {"x"}, {("a", "x"): three, ("b", "x"): other.value(0)})
    assert r.entry_dict() == {("a", "x"): chain(5).value(3)}
    assert r.degree("a", "x") is three


def test_a_repeated_degree_of_another_frame_is_rejected():
    top = TWO_POINT.top
    with pytest.raises(FrameMismatchError):
        rel({"a", "b"}, {"x"}, {("a", "x"): top, ("b", "x"): top})
    # Seen first at a good entry of its own frame, then in another relation.
    good = FuzzyRelation(TWO_POINT, {"a"}, {"x"}, {("a", "x"): top})
    assert len(good) == 1
    with pytest.raises(FrameMismatchError):
        rel({"a"}, {"x"}, good.entry_dict())


def test_bottom_off_a_chain_is_found_through_the_order_hook():
    frame = DiamondFrame()
    a = frame.value(frozenset("a"))
    r = FuzzyRelation(
        frame, {"p", "q", "s"}, {"x"},
        {("p", "x"): frame.value(frozenset()), ("q", "x"): a, ("s", "x"): frame.bottom},
    )
    assert r.entry_dict() == {("q", "x"): a}


def test_the_first_fault_in_entry_order_is_raised():
    bad, good = TWO_POINT.top, d("1/2")
    with pytest.raises(FrameMismatchError):
        rel({"a"}, {"x"}, {("a", "x"): bad, ("zz", "x"): good})
    with pytest.raises(ValueError, match=r"\('zz', 'x'\) lies outside"):
        rel({"a"}, {"x"}, {("zz", "x"): good, ("a", "x"): bad})
    # Within one entry the degree's frame comes before the pair's domain.
    with pytest.raises(FrameMismatchError):
        rel({"a"}, {"x"}, {("zz", "x"): bad})
