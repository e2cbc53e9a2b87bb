"""Frame lattice laws, degree parsing, and the degrees a frame shares."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzybig import (
    TWO_POINT,
    UNIT_INTERVAL,
    FuzzyBigraph,
    FuzzySet,
    Interface,
    ModelDocument,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    chain,
    frame_from_name,
    join,
    join_all,
    meet,
    parse,
    serialize,
)
from fuzzybig.errors import FrameMismatchError
from fuzzybig.generators import random_fuzzy_bigraph, random_type2_bigraph
from fuzzybig.lattice import (
    _MAX_DEGREE_DIGITS,
    _MAX_SHARED,
    FiniteChainFrame,
    Frame,
    FrameValue,
    TwoPointFrame,
    UnitIntervalFrame,
)
from helpers import H_SIGNATURE, DiamondFrame

CHAIN5 = chain(5)

unit_values = st.fractions(min_value=0, max_value=1, max_denominator=32).map(
    UNIT_INTERVAL.value
)
two_point_values = st.booleans().map(TWO_POINT.value)
chain_values = st.integers(min_value=0, max_value=4).map(CHAIN5.value)

any_frame_values = st.one_of(unit_values, two_point_values, chain_values)


def same_frame_triples():
    return st.one_of(
        st.tuples(unit_values, unit_values, unit_values),
        st.tuples(two_point_values, two_point_values, two_point_values),
        st.tuples(chain_values, chain_values, chain_values),
    )


def test_meet_on_unit_interval_is_min():
    assert meet(d("3/10"), d("7/10")) == d("3/10")


def test_top_is_identity_for_meet():
    for frame in (UNIT_INTERVAL, TWO_POINT, CHAIN5):
        x = frame.bottom.join(frame.top.meet(frame.bottom))
        assert frame.top.meet(x) == x
    assert UNIT_INTERVAL.top.meet(d("2/5")) == d("2/5")


def test_two_point_meet_of_top_and_bottom_is_bottom():
    assert TWO_POINT.top.meet(TWO_POINT.bottom) == TWO_POINT.bottom


def test_join_all_on_unit_interval_is_max():
    xs = [d("1/5"), d("9/10"), d("1/2")]
    assert join_all(xs) == d("9/10")


def test_join_all_of_empty_is_bottom():
    assert join_all([], frame=UNIT_INTERVAL) == UNIT_INTERVAL.bottom
    with pytest.raises(ValueError):
        join_all([])


def test_join_all_on_chain():
    assert CHAIN5.join_all([CHAIN5.value(1), CHAIN5.value(3)]) == CHAIN5.value(3)


def d(text):
    return UNIT_INTERVAL.parse_degree(text)


@given(same_frame_triples())
def test_meet_distributes_over_join(xs):
    x, y, z = xs
    frame = x.frame
    left = x.meet(frame.join_all([y, z]))
    right = frame.join_all([x.meet(y), x.meet(z)])
    assert left == right


@given(same_frame_triples())
def test_meet_join_associative_commutative_idempotent(xs):
    x, y, z = xs
    assert x.meet(y.meet(z)) == x.meet(y).meet(z)
    assert x.join(y.join(z)) == x.join(y).join(z)
    assert x.meet(y) == y.meet(x)
    assert x.join(y) == y.join(x)
    assert x.meet(x) == x
    assert x.join(x) == x


@given(same_frame_triples())
def test_order_characterisations_agree(xs):
    x, y, _ = xs
    assert x.leq(y) == (x.meet(y) == x)
    assert x.leq(y) == (x.join(y) == y)


@given(any_frame_values)
def test_bounds(x):
    frame = x.frame
    assert frame.bottom.leq(x)
    assert x.leq(frame.top)


def test_mixed_frames_rejected():
    with pytest.raises(FrameMismatchError):
        UNIT_INTERVAL.top.meet(TWO_POINT.top)
    with pytest.raises(FrameMismatchError):
        CHAIN5.value(2).join(UNIT_INTERVAL.value(Fraction(1, 2)))
    with pytest.raises(FrameMismatchError):
        UNIT_INTERVAL.join_all([TWO_POINT.top])


def test_a_chain_needs_two_elements():
    for n in (1, 0):
        with pytest.raises(ValueError, match="a finite chain needs at least two elements"):
            chain(n)


def test_degree_parsing_is_exact():
    assert d("3/10") == d("0.3")
    assert d("0.3").raw == Fraction(3, 10)
    assert UNIT_INTERVAL.format_degree(d("0.3")) == "3/10"
    assert UNIT_INTERVAL.format_degree(d("1")) == "1"


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        UNIT_INTERVAL.parse_degree("1.2")
    with pytest.raises(ValueError):
        UNIT_INTERVAL.parse_degree("-1/2")
    with pytest.raises(ValueError):
        CHAIN5.parse_degree("5")
    with pytest.raises(ValueError):
        TWO_POINT.parse_degree("2")


@pytest.mark.parametrize("frame, text, message", [
    (UNIT_INTERVAL, "1e", "'1e' is not an exact rational: "),
    (CHAIN5, "x", "'x' is not a chain element"),
], ids=["unit-interval", "chain"])
def test_degree_text_that_names_no_number_is_refused(frame, text, message):
    with pytest.raises(ValueError) as caught:
        frame.parse_degree(text)
    assert str(caught.value).startswith(message)


def test_two_point_admits_only_its_two_degrees():
    assert TWO_POINT.value(0) == TWO_POINT.bottom and TWO_POINT.value(1) == TWO_POINT.top
    with pytest.raises(ValueError, match=r"^2 is not a degree of frame two-point$"):
        TWO_POINT.value(2)


def test_a_two_point_file_may_list_a_row_at_bottom():
    """A row at ``"0"`` parses, and is dropped like every bottom entry."""
    text = """{"frame": "two-point", "signature": {"controls": {"K": 0, "L": 0}}, "graphs": {"p": {
        "kind": "fuzzy-place", "inner": 0, "outer": 1, "nodes": ["v"],
        "ctrl": [["v", "K", "1"], ["v", "L", "0"]], "prnt": [["v", 0, "1"]]}}}"""
    p = parse(text).graphs["p"]
    assert p.ctrl.entry_dict() == {("v", "K"): TWO_POINT.top}


def test_a_degree_is_immutable():
    with pytest.raises(AttributeError, match="^FrameValue is immutable$"):
        d("1/2").raw = Fraction(1, 3)


def test_the_frame_and_module_operations_agree_with_the_value_methods():
    low, high = d("1/3"), d("2/3")
    assert UNIT_INTERVAL.leq(low, high) and not UNIT_INTERVAL.leq(high, low)
    assert join(low, high) is high and join(high, low) is high
    with pytest.raises(FrameMismatchError):
        UNIT_INTERVAL.leq(TWO_POINT.top, high)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        UNIT_INTERVAL.value(0.3)


class _Third(Fraction):
    """A ``Fraction`` subclass, as a caller might pass one."""


_BIG = 10**999  # a 1000-digit number


@pytest.mark.parametrize("raw, admitted", [
    (0, Fraction(0)),
    (1, Fraction(1)),
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(-1, 2), ValueError),
    (Fraction(3, 2), ValueError),
    (-1, ValueError),
    (2, ValueError),
    (Fraction(_BIG, _BIG + 1), Fraction(_BIG, _BIG + 1)),
    (Fraction(_BIG + 1, _BIG), ValueError),
    (Fraction(-_BIG, _BIG + 1), ValueError),
    (_Third(1, 3), Fraction(1, 3)),
    (_Third(4, 3), ValueError),
    (True, TypeError),
    (False, TypeError),
    (0.5, TypeError),
    (0.0, TypeError),
    (float("nan"), TypeError),
    ("1/2", Fraction(1, 2)),
    ("0", Fraction(0)),
    ("1", Fraction(1)),
    ("0.25", Fraction(1, 4)),
    ("-1/2", ValueError),
    ("3/2", ValueError),
    ("half", ValueError),
    (None, ValueError),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v)[:24])
def test_unit_interval_admits_exactly_the_rationals_from_0_to_1(raw, admitted):
    if isinstance(admitted, type):
        with pytest.raises(admitted):
            UNIT_INTERVAL.value(raw)
    else:
        value = UNIT_INTERVAL.value(raw)
        assert value.raw == admitted and isinstance(value.raw, Fraction)


def test_frame_names_round_trip():
    for frame in (UNIT_INTERVAL, TWO_POINT, chain(7)):
        assert frame_from_name(frame.name) == frame
    with pytest.raises(ValueError):
        frame_from_name("lattice:oops")
    with pytest.raises(ValueError):
        frame_from_name("chain:x")


def test_meet_and_join_on_a_chain_return_an_operand():
    for frame, low, high in (
        (UNIT_INTERVAL, d("1/3"), d("2/3")),
        (CHAIN5, CHAIN5.value(1), CHAIN5.value(3)),
        (TWO_POINT, TWO_POINT.bottom, TWO_POINT.top),
    ):
        assert low.meet(high) is low and high.meet(low) is low
        assert low.join(high) is high and high.join(low) is high


def test_separately_built_chain_degrees_still_combine():
    other = FiniteChainFrame(5)
    assert other is not CHAIN5 and other == CHAIN5
    high, low = other.value(3), CHAIN5.value(1)
    assert high.meet(low) == CHAIN5.value(1) and low.meet(high) == CHAIN5.value(1)
    assert high.join(low) == CHAIN5.value(3) and low.join(high) == CHAIN5.value(3)
    assert low.leq(high) and not high.leq(low)
    assert CHAIN5.join_all([high, low]) == CHAIN5.value(3)
    assert other.value(2) == CHAIN5.value(2)
    CHAIN5.check_value(high)
    with pytest.raises(FrameMismatchError):
        high.meet(chain(4).value(1))
    with pytest.raises(FrameMismatchError):
        CHAIN5.value(1).join(chain(4).value(1))
    with pytest.raises(FrameMismatchError):
        UNIT_INTERVAL.top.meet(TWO_POINT.top)
    with pytest.raises(FrameMismatchError):
        CHAIN5.check_value(UNIT_INTERVAL.top)


# Numerators and denominators small, or within a few digits of the longest
# that degree text may carry.
_LONG = 10 ** (_MAX_DEGREE_DIGITS - 3)
_terms = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=_LONG, max_value=10**_MAX_DEGREE_DIGITS - 1),
)


@st.composite
def unit_raws(draw):
    """A raw unit-interval degree as a checked ``Fraction``."""
    den = draw(_terms)
    num = draw(st.integers(min_value=0, max_value=den))
    return UNIT_INTERVAL.value(Fraction(num, den)).raw


def _twin(raw: Fraction) -> Fraction:
    """An equal degree held in a different object."""
    twin = Fraction(raw.numerator * 3, raw.denominator * 3)
    assert twin == raw and twin is not raw
    return twin


def _assert_hooks_agree(frame, a, b) -> None:
    """The frame's raw hooks agree with the carrier's own order, and meet
    and join return one of their operands."""
    assert frame._leq(a, b) == (a <= b)
    low, high = frame._meet(a, b), frame._join(a, b)
    assert low == min(a, b) and (low is a or low is b)
    assert high == max(a, b) and (high is a or high is b)


@given(unit_raws(), unit_raws(), st.booleans())
@example(Fraction(1, 3), Fraction(1, 3), True)
@example(Fraction(10**999 - 1, 10**999), Fraction(10**999 - 2, 10**999 - 1), False)
def test_unit_interval_hooks_agree_with_fraction_order(a, b, twin):
    if twin:
        b = _twin(a)
    _assert_hooks_agree(UNIT_INTERVAL, a, b)
    _assert_hooks_agree(UNIT_INTERVAL, b, a)


@given(
    st.one_of(
        st.tuples(st.just(CHAIN5), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just(TWO_POINT), st.booleans(), st.booleans()),
    )
)
def test_chain_and_two_point_hooks_agree_with_native_order(case):
    frame, a, b = case
    _assert_hooks_agree(frame, frame.value(a).raw, frame.value(b).raw)


def _assert_equality_hooks_agree(frame, a, b) -> None:
    """``_eq`` is the carrier's own equality, and ``_key`` gives hashable
    keys that are equal exactly when the raw values are."""
    assert frame._eq(a, b) == (a == b)
    assert (frame._key(a) == frame._key(b)) == (a == b)
    assert len({frame._key(a), frame._key(b)}) == (1 if a == b else 2)


@given(unit_raws(), unit_raws(), st.booleans())
@example(Fraction(1, 3), Fraction(1, 3), True)
@example(Fraction(0), Fraction(0), True)
@example(Fraction(10**999 - 1, 10**999), Fraction(10**999 - 2, 10**999 - 1), False)
def test_unit_interval_equality_hooks_agree_with_fraction_equality(a, b, twin):
    if twin:
        b = _twin(a)
    _assert_equality_hooks_agree(UNIT_INTERVAL, a, b)
    _assert_equality_hooks_agree(UNIT_INTERVAL, b, a)


@given(
    st.one_of(
        st.tuples(st.just(CHAIN5), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just(TWO_POINT), st.booleans(), st.booleans()),
    )
)
def test_chain_and_two_point_equality_hooks_agree_with_native_equality(case):
    frame, a, b = case
    _assert_equality_hooks_agree(frame, frame.value(a).raw, frame.value(b).raw)


def _equal_as_before(x: FrameValue, y) -> bool:
    """Degree equality as it was written before the frames' ``_eq`` hook."""
    return (
        isinstance(y, FrameValue)
        and (x.frame is y.frame or x.frame == y.frame)
        and x.raw == y.raw
    )


def test_degree_equality_off_a_chain_is_unchanged():
    diamond = DiamondFrame()
    raws = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    values = [diamond.value(r) for r in raws]
    # equal raws in distinct objects, and a second frame of the same name
    values += [diamond.value(frozenset(set(r))) for r in raws]
    values += [DiamondFrame().value(r) for r in raws]
    others = values + [UNIT_INTERVAL.top, TWO_POINT.bottom, CHAIN5.bottom, frozenset("a"), None]
    for x in values:
        for y in others:
            assert (x == y) is _equal_as_before(x, y)
            assert (x != y) is not _equal_as_before(x, y)
            if x == y:
                assert hash(x) == hash(y)


class _DiamondWithoutMeetOrJoin(Frame):
    """The diamond lattice with only the order hooks.  The chain rule would
    give {a} ∧ {b} = {b} here, where the meet is the bottom {}."""

    name = "diamond-without-meet"
    _contains = DiamondFrame._contains
    _leq = DiamondFrame._leq
    _bottom_raw = DiamondFrame._bottom_raw
    _top_raw = DiamondFrame._top_raw
    _format = DiamondFrame._format


def test_a_frame_without_meet_and_join_hooks_refuses_to_combine():
    frame = _DiamondWithoutMeetOrJoin()
    a, b = frame.value(frozenset("a")), frame.value(frozenset("b"))
    with pytest.raises(NotImplementedError):
        frame.meet(a, b)
    with pytest.raises(NotImplementedError):
        frame.join(a, b)


class _FrameWithoutHooks(Frame):
    """A frame that overrides none of the hooks."""

    name = "without-hooks"


def test_a_frame_without_hooks_refuses_every_use_of_them():
    frame = _FrameWithoutHooks()
    raw = FrameValue(frame, 0)
    for use in (
        lambda: frame.value(0),  # _contains
        lambda: raw.leq(raw),  # _leq
        lambda: frame.bottom,  # _bottom_raw
        lambda: frame.top,  # _top_raw
        lambda: frame.parse_degree("0"),  # _parse
        lambda: frame.format_degree(raw),  # _format
    ):
        with pytest.raises(NotImplementedError):
            use()


# --- shared degrees ----------------------------------------------------------
#
# Each test builds its own frames: the property tests above may fill the
# tables of the module's frames.


INNER = Interface(2, frozenset({"x0", "x1"}))
OUTER = Interface(2, frozenset({"y0", "y1"}))


def _degrees(g) -> list:
    """Every degree of a graded bigraph, in field order."""
    rels = [g.place.ctrl, g.place.prnt, g.link.link]
    out = [x for rel in rels for _key, x in rel.items()]
    if isinstance(g, Type2FuzzyBigraph):
        out += [x for fset in (g.place.nodes, g.link.edges) for _elem, x in fset.items()]
        out += [g.place.degree, g.link.degree]
    return out


def test_a_degree_is_handed_out_as_one_object():
    for frame, raws in (
        (UnitIntervalFrame(), [0, "1/3", Fraction(1, 2), 1]),
        (FiniteChainFrame(5), range(5)),
        (TwoPointFrame(), [False, True, 0, 1]),
        (DiamondFrame(), [frozenset(), frozenset("a"), frozenset("ab")]),
    ):
        for raw in raws:
            assert frame.value(raw) is frame.value(raw)


def test_equal_unit_interval_degrees_are_one_object():
    u = UnitIntervalFrame()
    assert u.value(1) is u.top
    assert u.value("1/2") is u.value(Fraction(2, 4)) is u.parse_degree("0.5")
    assert u.value(0) is not u.bottom and u.value(0) == u.bottom


def test_sharing_keeps_every_refusal():
    u, c = UnitIntervalFrame(), FiniteChainFrame(5)
    assert u.value(1) is u.value(1) and c.value(1) is c.value(1)
    with pytest.raises(ValueError):
        c.value(True)
    with pytest.raises(TypeError):
        u.value(True)
    with pytest.raises(TypeError):
        u.value(1.0)


def test_a_degree_is_shared_only_with_raw_values_of_its_type():
    u = UnitIntervalFrame()
    third = u.value(_Third(1, 3))
    plain = u.value(Fraction(1, 3))
    assert plain is not third and plain == third and hash(plain) == hash(third)
    assert type(plain.raw) is Fraction and u.value(Fraction(1, 3)) is plain
    assert type(third.raw) is _Third and u.value(_Third(1, 3)) is third


def test_the_table_stops_growing_at_its_bound():
    u = UnitIntervalFrame()
    n = _MAX_SHARED + 10
    shared = [u.value(Fraction(i, n)) for i in range(n)]
    assert len(u._degrees) == _MAX_SHARED
    assert all(u.value(Fraction(i, n)) is shared[i] for i in range(_MAX_SHARED))
    late = Fraction(n - 1, n)
    assert u.value(late) is not u.value(late)
    assert u.value(late) == shared[-1] and hash(u.value(late)) == hash(shared[-1])
    assert u.top == u.value(1) and u.top.is_top()
    assert len(u._degrees) == _MAX_SHARED


def test_two_parses_of_one_file_yield_the_same_degree_objects():
    # A chain's table holds at most its size, so no earlier test fills it.
    frame = chain(9)
    g = random_type2_bigraph(random.Random(3), frame, H_SIGNATURE, INNER, OUTER, "", 40, 20)
    text = serialize(ModelDocument(frame, H_SIGNATURE, {"g": g}))
    first, second = (parse(text).graphs["g"] for _ in range(2))
    degrees = []
    for a, b in zip(_degrees(first), _degrees(second)):
        assert a is b
        degrees.append(a)
    assert len(degrees) > 100
    assert len({id(x) for x in degrees}) == len(set(degrees)) <= frame.size


# A child process: evicting the frames this module holds, such as CHAIN5,
# would break nothing, but would make ``chain(5) is CHAIN5`` false here.
CHAIN_REGISTRY_SCRIPT = """
from fuzzybig import Interface, ModelDocument, Signature, chain, compose_fuzzy, identity_bigraph
from fuzzybig import parse, serialize
sig = Signature({})
frame = chain(2)
text = serialize(ModelDocument(frame, sig, {"id": identity_bigraph(Interface(1, frozenset("x")), frame, sig)}))
def over(n):
    return parse(text.replace('"chain:2"', f'"chain:{n}"')).graphs["id"]
for n in range(2, 20002):
    g = over(n)
    if n == 7:
        early = g
assert chain.cache_info().currsize <= 64, chain.cache_info()
assert chain(5) is chain(5)
late = over(7)
assert late.frame is not early.frame and late.frame == early.frame
assert compose_fuzzy(late, early) == early
print("ok")
"""


def test_a_process_keeps_a_bounded_number_of_chain_frames():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", CHAIN_REGISTRY_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


# --- one node set and one control relation per bigraph -----------------------

def _copied_link(link):
    """An equal link part that shares no node set or relation with ``link``."""
    frame = link.frame
    if isinstance(link, Type2FuzzyLinkGraph):
        nodes = FuzzySet(frame, dict(link.nodes.items()))
        more = {"degree": link.degree}
    else:
        nodes, more = set(link.nodes), {}
    return type(link)(
        frame, link.signature, link.inner, link.outer, nodes, link.edges,
        link.ctrl.entry_dict(), link.link.entry_dict(), **more,
    )


# The parts' agreement and its messages are pinned in test_graph_classes.py.
@pytest.mark.parametrize("make, bigraph", [
    (random_fuzzy_bigraph, FuzzyBigraph),
    (random_type2_bigraph, Type2FuzzyBigraph),
], ids=["fuzzy", "type2"])
def test_a_bigraph_built_from_equal_parts_keeps_one_node_set_and_control_relation(make, bigraph):
    g = make(random.Random(4), UnitIntervalFrame(), H_SIGNATURE, INNER, OUTER, "", 8, 4)
    place, link = g.place, _copied_link(g.link)
    assert link.nodes is not place.nodes and link.ctrl is not place.ctrl
    b = bigraph(place, link)
    assert b.place is place and b.link.nodes is place.nodes and b.link.ctrl is place.ctrl
    assert b.link == link and b == g
    assert bigraph(place, b.link).link is b.link  # nothing left to share: kept as given
