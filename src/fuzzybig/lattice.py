"""Frame lattices carrying every degree in the model.

A frame is a partially ordered set with all joins, finite meets, and meet
distributing over join.  Everything in this package only ever takes finite
joins, so three concrete bounded chains cover all uses:

* ``unit-interval`` -- exact rationals in [0, 1], the default carrier;
* ``two-point``     -- the Boolean lattice {bottom, top}, bridging the
  crisp structures;
* ``chain:<n>``     -- the finite chain 0 < 1 < ... < n-1.

Unit-interval degrees are ``fractions.Fraction`` values, never floats, so
every lattice law checked by the test suite is an exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import FrameMismatchError


_MAX_SHARED = 4096  # degrees per frame; past it, each ``value`` is a new object


class FrameValue:
    """An element of a frame, tagged with the frame it belongs to.

    Values are immutable and only combine with values of the same frame;
    mixing frames raises :class:`FrameMismatchError`.  ``Frame.value``
    shares one object per degree; equality and hashing stay by value.
    """

    __slots__ = ("frame", "raw")

    def __init__(self, frame: "Frame", raw):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("FrameValue is immutable")

    # A copy or an unpickled degree is the one its frame hands out.
    def __reduce__(self):
        return self.frame.value, (self.raw,)

    # On a chain every meet and join is one of its two operands, so the
    # operand itself is returned; only a genuinely new raw value goes back
    # through the checked ``Frame.value``.
    def meet(self, other: "FrameValue") -> "FrameValue":
        """Greatest lower bound of ``self`` and ``other``."""
        frame = self.frame
        frame.check_value(other)
        raw = frame._meet(self.raw, other.raw)
        if raw is self.raw:
            return self
        if raw is other.raw:
            return other
        return frame.value(raw)

    def join(self, other: "FrameValue") -> "FrameValue":
        """Least upper bound of ``self`` and ``other``."""
        frame = self.frame
        frame.check_value(other)
        raw = frame._join(self.raw, other.raw)
        if raw is self.raw:
            return self
        if raw is other.raw:
            return other
        return frame.value(raw)

    def leq(self, other: "FrameValue") -> bool:
        """Lattice order: true iff ``self`` lies below ``other``."""
        self.frame.check_value(other)
        return self.frame._leq(self.raw, other.raw)

    def is_bottom(self) -> bool:
        return self.raw == self.frame._bottom_raw()

    def is_top(self) -> bool:
        return self.raw == self.frame._top_raw()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FrameValue):
            return False
        frame = self.frame
        return (frame is other.frame or frame == other.frame) and frame._eq(self.raw, other.raw)

    def __hash__(self) -> int:
        return hash((self.frame, self.raw))

    def __repr__(self) -> str:
        return f"{self.frame._format(self.raw)}[{self.frame.name}]"


class Frame:
    """A bounded distributive lattice of degrees.

    All shipped instances are chains, which trivially satisfy the frame
    distributivity law; the subclass hooks would equally support richer
    lattices.
    """

    name: str = "?"

    # --- subclass hooks -------------------------------------------------
    def _contains(self, raw) -> bool:
        raise NotImplementedError

    def _coerce(self, raw):
        return raw

    def _leq(self, a, b) -> bool:
        raise NotImplementedError

    def _meet(self, a, b):
        raise NotImplementedError

    def _join(self, a, b):
        raise NotImplementedError

    def _eq(self, a, b) -> bool:
        return a == b

    # A hashable stand-in for a raw value: two keys are equal exactly when
    # their raw values are.  ``value`` shares degrees by it.
    def _key(self, raw):
        return raw

    def _bottom_raw(self):
        raise NotImplementedError

    def _top_raw(self):
        raise NotImplementedError

    def _parse(self, text: str):
        raise NotImplementedError

    def _format(self, raw) -> str:
        raise NotImplementedError

    # --- public surface ---------------------------------------------------
    def value(self, raw) -> FrameValue:
        """Wrap a raw carrier element, rejecting anything off the carrier;
        a degree handed out before comes back as the same object."""
        raw = self._coerce(raw)
        if not self._contains(raw):
            raise ValueError(f"{raw!r} is not a degree of frame {self.name}")
        return self._shared(raw)

    # Degrees are immutable, so each frame keeps one object per degree
    # (Filliâtre & Conchon's hash-consing), up to ``_MAX_SHARED``: the table
    # lives as long as the frame, and files may hold any number of degrees.
    # Keys hold the raw type, so a caller's ``Fraction`` subclass reaches
    # no other caller.
    @cached_property
    def _degrees(self) -> dict:
        return {}

    def _shared(self, raw) -> FrameValue:
        degrees = self._degrees
        key = (type(raw), self._key(raw))
        known = degrees.get(key)
        if known is None:
            known = FrameValue(self, raw)
            if len(degrees) < _MAX_SHARED:
                degrees[key] = known
        return known

    # Bottom stays outside the table: relations never store it.
    @cached_property
    def bottom(self) -> FrameValue:
        return FrameValue(self, self._bottom_raw())

    @cached_property
    def top(self) -> FrameValue:
        return self._shared(self._top_raw())

    def check_value(self, v: FrameValue) -> None:
        if type(v) is FrameValue and v.frame is self:
            return
        if not isinstance(v, FrameValue) or v.frame != self:
            got = getattr(getattr(v, "frame", None), "name", type(v).__name__)
            raise FrameMismatchError(
                f"expected a degree of frame {self.name}, got one of {got}"
            )

    def meet(self, a: FrameValue, b: FrameValue) -> FrameValue:
        self.check_value(a)
        return a.meet(b)

    def join(self, a: FrameValue, b: FrameValue) -> FrameValue:
        self.check_value(a)
        return a.join(b)

    def join_all(self, values: Iterable[FrameValue]) -> FrameValue:
        """Least upper bound of a finite collection; empty yields bottom."""
        out = self.bottom
        for v in values:
            self.check_value(v)
            out = out.join(v)
        return out

    def leq(self, a: FrameValue, b: FrameValue) -> bool:
        self.check_value(a)
        return a.leq(b)

    def parse_degree(self, text: str) -> FrameValue:
        if not isinstance(text, str):
            raise ValueError(f"degree must be a string, got {text!r}")
        return self.value(self._parse(text))

    def format_degree(self, v: FrameValue) -> str:
        self.check_value(v)
        return self._format(v.raw)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Frame) and self.name == other.name)

    # A frame is a constant: a copy is the frame itself, and a pickled one
    # comes back as the frame its name resolves to, so degrees come back as
    # the objects that frame shares.  A frame ``frame_from_name`` does not
    # know is refused when pickled.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        frame_from_name(self.name)  # raises for a name it does not know
        return frame_from_name, (self.name,)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Frame({self.name})"


_ZERO = Fraction(0)
_ONE = Fraction(1)

# Unit-interval degree text is bounded before ``Fraction`` expands it: an
# exponent of ``"1e-999999999"`` alone would build a billion-digit power.
# Accepted degrees have at most this many digits above and below the bar,
# so every one of them formats back to text.
_MAX_DEGREE_DIGITS = 1000
_DEGREE_LIMIT = 10**_MAX_DEGREE_DIGITS


class UnitIntervalFrame(Frame):
    """Exact rationals in [0, 1] under the usual order."""

    name = "unit-interval"

    def _coerce(self, raw):
        if isinstance(raw, Fraction):
            return raw
        if isinstance(raw, float):
            raise TypeError(
                "unit-interval degrees are exact rationals; pass a Fraction, "
                "int or string, not a float"
            )
        if isinstance(raw, bool):
            raise TypeError("unit-interval degrees are rationals, not booleans")
        if isinstance(raw, str):
            return self._parse(raw)
        if isinstance(raw, int):
            raw = Fraction(raw)
        return raw

    # A ``Fraction``'s denominator is positive, so ``0 <= raw <= 1`` iff
    # ``0 <= numerator <= denominator``; the slots are read directly, as in
    # the hooks below.
    def _contains(self, raw) -> bool:
        return isinstance(raw, Fraction) and 0 <= raw._numerator <= raw._denominator

    # Every raw degree is a checked ``Fraction``, whose denominator is
    # positive, so ``a <= b`` iff ``a.n * b.d <= b.n * a.d`` exactly.  The
    # slots are read directly: ``Fraction.__le__`` costs several times more.
    def _leq(self, a, b) -> bool:
        return a._numerator * b._denominator <= b._numerator * a._denominator

    def _meet(self, a, b):
        return a if a._numerator * b._denominator <= b._numerator * a._denominator else b

    def _join(self, a, b):
        return b if a._numerator * b._denominator <= b._numerator * a._denominator else a

    # A checked ``Fraction`` is in lowest terms, so equal values have equal
    # slots; ``Fraction.__eq__`` and ``__hash__`` cost several times more.
    def _eq(self, a, b) -> bool:
        return a._numerator == b._numerator and a._denominator == b._denominator

    def _key(self, raw):
        return (raw._numerator, raw._denominator)

    def _bottom_raw(self):
        return _ZERO

    def _top_raw(self):
        return _ONE

    def _parse(self, text: str):
        has_exponent = "e" in text or "E" in text
        if has_exponent:
            try:
                too_far = abs(int(text.lower().rpartition("e")[2])) > _MAX_DEGREE_DIGITS
            except ValueError:
                too_far = False  # not an exponent: Fraction rejects the text
            if too_far:
                raise ValueError(
                    f"{text!r} has an exponent beyond ±{_MAX_DEGREE_DIGITS}"
                )
        try:
            raw = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{text!r} is not an exact rational: {exc}") from exc
        # Without an exponent, a text shorter than the bound stays within it.
        if (has_exponent or len(text) >= _MAX_DEGREE_DIGITS) and (
            abs(raw.numerator) >= _DEGREE_LIMIT or raw.denominator >= _DEGREE_LIMIT
        ):
            raise ValueError(
                f"{text!r} has more than {_MAX_DEGREE_DIGITS} digits "
                "in its numerator or denominator"
            )
        return raw

    def _format(self, raw) -> str:
        return str(raw)


class _NativeChain(Frame):
    """A chain whose raw values Python already orders (``bool`` or ``int``):
    each hook is one native comparison, and meet and join return an
    operand."""

    def _leq(self, a, b) -> bool:
        return a <= b

    def _meet(self, a, b):
        return a if a <= b else b

    def _join(self, a, b):
        return b if a <= b else a


class TwoPointFrame(_NativeChain):
    """The Boolean lattice: bottom < top."""

    name = "two-point"

    def _coerce(self, raw):
        if isinstance(raw, bool):
            return raw
        if raw in (0, 1):
            return bool(raw)
        return raw

    def _contains(self, raw) -> bool:
        return isinstance(raw, bool)

    def _bottom_raw(self):
        return False

    def _top_raw(self):
        return True

    def _parse(self, text: str):
        if text == "0":
            return False
        if text == "1":
            return True
        raise ValueError(f"two-point degree must be '0' or '1', got {text!r}")

    def _format(self, raw) -> str:
        return "1" if raw else "0"


class FiniteChainFrame(_NativeChain):
    """The chain 0 < 1 < ... < n-1."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("a finite chain needs at least two elements")
        self.size = n
        self.name = f"chain:{n}"

    def _contains(self, raw) -> bool:
        return isinstance(raw, int) and not isinstance(raw, bool) and 0 <= raw < self.size

    def _bottom_raw(self):
        return 0

    def _top_raw(self):
        return self.size - 1

    def _parse(self, text: str):
        try:
            return int(text)
        except ValueError as exc:
            raise ValueError(f"{text!r} is not a chain element") from exc

    def _format(self, raw) -> str:
        return str(raw)


UNIT_INTERVAL = UnitIntervalFrame()
TWO_POINT = TwoPointFrame()


# Files may name any number of chains; an evicted frame still works, since
# frames compare and hash by name.
@lru_cache(maxsize=64)
def chain(n: int) -> FiniteChainFrame:
    """The finite chain frame with ``n`` elements (cached)."""
    return FiniteChainFrame(n)


def frame_from_name(name: str) -> Frame:
    """Resolve the serialized frame names: unit-interval | two-point | chain:<n>."""
    if name == UNIT_INTERVAL.name:
        return UNIT_INTERVAL
    if name == TWO_POINT.name:
        return TWO_POINT
    if name.startswith("chain:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed chain frame name {name!r}") from None
        return chain(n)
    raise ValueError(f"unknown frame {name!r}")


def meet(a: FrameValue, b: FrameValue) -> FrameValue:
    return a.meet(b)


def join(a: FrameValue, b: FrameValue) -> FrameValue:
    return a.join(b)


def join_all(values: Iterable[FrameValue], frame: Frame | None = None) -> FrameValue:
    """Join of a finite collection.

    An empty collection is permitted when ``frame`` says which bottom to
    return.
    """
    values = list(values)
    if frame is None:
        if not values:
            raise ValueError("join_all of an empty collection needs an explicit frame")
        frame = values[0].frame
    return frame.join_all(values)
