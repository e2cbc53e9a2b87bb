"""Frame lattice laws and degree parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzybig import TWO_POINT, UNIT_INTERVAL, chain, frame_from_name, join_all, meet
from fuzzybig.errors import FrameMismatchError
from fuzzybig.lattice import _MAX_DEGREE_DIGITS, FiniteChainFrame, Frame, FrameValue
from helpers import DiamondFrame

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
