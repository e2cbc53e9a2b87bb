"""Finite fuzzy relations and fuzzy sets over a frame.

Both types keep a normal form: pairs (or elements) at degree bottom are
never stored, so structural equality of the entry maps is exactly equality
of the relations.  Elements come in three sorts -- site/root numbers,
identifier strings, and ``(node, index)`` port pairs -- and
:func:`element_sort_key` gives them one total order for canonical output.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import FrameMismatchError
from .lattice import Frame, FrameValue

Element = object
Port = tuple  # (node identifier, port index)


def element_sort_key(element):
    """Total order over mixed element sorts, for deterministic output."""
    if isinstance(element, bool):
        raise TypeError("booleans are not model elements")
    if isinstance(element, int):
        return (0, "", element, 0)
    if isinstance(element, str):
        return (1, element, 0, 0)
    if isinstance(element, tuple) and len(element) == 2:
        return (2, element[0], 0, element[1])
    raise TypeError(f"unsupported element {element!r}")


def _as_entries(entries) -> Iterable[tuple]:
    # A plain dict is by far the common case; the ABC check is slow.
    if type(entries) is dict or isinstance(entries, Mapping):
        return entries.items()
    return entries


class _Union(tuple):
    """A domain or codomain held, until first read, as its disjoint parts:
    frozensets, fuzzy sets' membership dicts, or positions ``range(width)``.
    ``in`` and ``issuperset`` answer as the union would (``True`` is 1)."""

    __slots__ = ()

    def issuperset(self, elements) -> bool:
        rest = set(elements).difference(*(p for p in self if type(p) is not range))
        return all(hash(x) == x and any(hash(x) in p for p in self if type(p) is range) for x in rest)

    def __contains__(self, x) -> bool:
        return self.issuperset((x,))


def _built(held) -> frozenset:
    """A domain or codomain as a frozenset: held so, or its parts' union."""
    return frozenset(held[0]).union(*held[1:]) if type(held) is _Union else held


def _parts(held) -> tuple:
    return held if type(held) is _Union else (held,)


def _entry_dict(entries) -> dict:
    """Relation entries given as a mapping or as ``((a, b), degree)`` pairs,
    as a dict; pairs may not repeat."""
    out: dict = {}
    for (a, b), degree in _as_entries(entries):
        if (a, b) in out:
            raise ValueError(f"duplicate relation entry for ({a!r}, {b!r})")
        out[(a, b)] = degree
    return out


class FuzzyRelation:
    """A degree-valued map on ``domain x codomain`` with finite support.

    Absent pairs have degree bottom; stored entries are always strictly
    above bottom.
    """

    __slots__ = ("frame", "_domain", "_codomain", "_entries", "_floor", "_kept")

    def __init__(self, frame: Frame, domain, codomain, entries=()):
        self.frame = frame
        self._domain = domain = domain if type(domain) is _Union else frozenset(domain)
        self._codomain = codomain = codomain if type(codomain) is _Union else frozenset(codomain)
        if type(entries) is not dict:
            entries = _entry_dict(entries)
        # Entries are checked in entry order, each degree's frame before its
        # pair's domain (tested one by one if a bulk test fails); the fast
        # path of ``check_value`` is inlined.  The walk meets every degree
        # through the frame's hook, which also serves frames off a chain:
        # that meet is the relation's floor (see ``_clear``), and only where
        # it reaches bottom can an entry be bottom.
        clean = domain.issuperset(a for a, _ in entries) and codomain.issuperset(b for _, b in entries)
        leq, meet, bottom = frame._leq, frame._meet, frame.bottom.raw
        floor = frame._top_raw()
        for (a, b), degree in entries.items():
            if type(degree) is not FrameValue or degree.frame is not frame:
                frame.check_value(degree)
            if not clean and (a not in domain or b not in codomain):
                raise ValueError(
                    f"relation entry ({a!r}, {b!r}) lies outside its domain/codomain"
                )
            floor = meet(floor, degree.raw)
        self._kept = None
        if leq(floor, bottom):
            self._entries = {
                key: d for key, d in entries.items() if not leq(d.raw, bottom)
            }
            self._floor = None
        else:
            self._entries = dict(entries)
            self._floor = floor

    @classmethod
    def _trusted(cls, frame: Frame, domain, codomain, store: dict, floor=None) -> "FuzzyRelation":
        """Wrap an entry dict that is already in normal form.

        For results built from validated relations of ``frame``: every
        degree belongs to the frame and lies strictly above bottom, and
        every key lies in ``domain x codomain``, each a frozenset or parts.
        Nothing is re-checked.  ``floor``, if given, is the raw meet of the
        stored degrees.
        """
        rel = cls.__new__(cls)
        rel.frame = frame
        rel._floor, rel._kept = floor, None
        rel._domain, rel._codomain = domain, codomain
        rel._entries = store
        return rel

    @property
    def domain(self) -> frozenset:
        self._domain = _built(self._domain)
        return self._domain

    @property
    def codomain(self) -> frozenset:
        self._codomain = _built(self._codomain)
        return self._codomain

    def __len__(self) -> int:
        return len(self._entries)

    def degree(self, a, b) -> FrameValue:
        return self._entries.get((a, b), self.frame.bottom)

    def items(self):
        """Iterate ``((a, b), degree)`` over the stored (positive) entries."""
        return iter(self._entries.items())

    def sorted_items(self):
        return sorted(
            self._entries.items(),
            key=lambda kv: (element_sort_key(kv[0][0]), element_sort_key(kv[0][1])),
        )

    def entry_dict(self) -> dict:
        return dict(self._entries)

    def then(self, other: "FuzzyRelation") -> "FuzzyRelation":
        """Relational composition ``self ; other`` (sup-min over the middle).

        Middle elements are matched by equality between this relation's
        codomain and the other's domain; the result relates ``self.domain``
        to ``other.codomain``.
        """
        if self.frame != other.frame:
            raise FrameMismatchError(
                f"cannot compose relations over {self.frame.name} and {other.frame.name}"
            )
        out = _route(self, other, (), (), self.frame.bottom, (), ())
        return FuzzyRelation._trusted(self.frame, self._domain, other._codomain, out)

    def union(self, other: "FuzzyRelation") -> "FuzzyRelation":
        """Disjoint union: the domains' parts must not overlap; entries are merged."""
        if self.frame != other.frame:
            raise FrameMismatchError("cannot union relations over different frames")
        a, b = _parts(self._domain), _parts(other._domain)
        for p in a:  # each part of a against b's
            p = p.keys() if type(p) is dict else set(p) if type(p) is range else p
            if not all(map(p.isdisjoint, b)):
                shared = self.domain & other.domain
                raise ValueError(f"relation domains overlap on {sorted(map(repr, shared))}")
        merged = dict(self._entries)
        merged.update(other._entries)
        c, d = self._codomain, other._codomain
        codomain = c if c is d else _Union(_parts(c) + _parts(d))
        return FuzzyRelation._trusted(self.frame, _Union(a + b), codomain, merged)

    def leq(self, other: "FuzzyRelation") -> bool:
        """Pointwise order: every degree of ``self`` lies below ``other``'s."""
        if self.frame != other.frame:
            raise FrameMismatchError("cannot compare relations over different frames")
        # Raw degrees through the frame's hook, fetched once.  A stored
        # degree lies above bottom, so a pair ``other`` lacks fails.
        leq = self.frame._leq
        get = other._entries.get
        for key, d in self._entries.items():
            e = get(key)
            if e is None or not leq(d.raw, e.raw):
                return False
        return True

    def translate(
        self,
        dom_map: Callable | None = None,
        cod_map: Callable | None = None,
    ) -> "FuzzyRelation":
        """Rename elements through the given callables (identity if None).

        Every renamed entry keeps its checked degree and lands inside the
        renamed domain and codomain, so the result is not re-checked.
        """
        dm = dom_map or (lambda e: e)
        cm = cod_map or (lambda e: e)
        return FuzzyRelation._trusted(
            self.frame,
            frozenset(map(dm, self.domain)),
            frozenset(map(cm, self.codomain)),
            {(dm(a), cm(b)): d for (a, b), d in self._entries.items()},
        )

    def with_entry(self, a, b, degree: FrameValue) -> "FuzzyRelation":
        """Copy with one entry replaced (bottom removes the entry)."""
        entries = dict(self._entries)
        entries[(a, b)] = degree
        return FuzzyRelation(self.frame, self._domain, self._codomain, entries)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FuzzyRelation)
            and self.frame == other.frame
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self._entries == other._entries
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FuzzyRelation({len(self._entries)} entries, "
            f"{len(self.domain)}x{len(self.codomain)}, {self.frame.name})"
        )

    # A copy or an unpickled relation holds built sets and the same entries,
    # and keeps nothing: what ``_route`` kept is built again when needed.
    def __reduce__(self):
        return FuzzyRelation._trusted, (self.frame, self.domain, self.codomain, self._entries)


_AS_F, _AS_G = 0, 2  # where a relation's ``_kept`` holds its split as f and as g


def _kept(rel: FuzzyRelation, role: int, internal, build):
    """``build(rel._entries, internal)``: the split of ``rel`` in ``role``
    (``_AS_F`` or ``_AS_G``) for the internal set ``internal``, kept from
    the second time it is asked for.

    ``rel._kept`` holds, per role, the internal set last asked for and the
    split kept for it, so a relation composed once in a role keeps only a
    reference to that set.  A split is used again only for that very
    object: a relation shared by two graphs that split its codomain
    differently is split again, not misread.  Entry dicts are never written
    once wrapped, so nothing kept goes stale.  With nothing internal
    (``then``, or a graph without nodes or edges) every entry crosses, and
    nothing is kept.
    """
    if not internal:
        return build(rel._entries, internal)
    kept = rel._kept
    if kept is None:
        kept = rel._kept = [None, None, None, None]
    if kept[role] is not internal:
        kept[role], kept[role + 1] = internal, None
        return build(rel._entries, internal)
    split = kept[role + 1]
    if split is None:
        split = kept[role + 1] = build(rel._entries, internal)
    return split


def _meet_of(entries: dict, frame: Frame):
    """The meet of the stored degrees' raw values; top if there are none.

    Degrees are shared per value, so each distinct object is met once."""
    meet, floor = frame._meet, frame._top_raw()
    for d in dict(zip(map(id, entries.values()), entries.values())).values():
        floor = meet(floor, d.raw)
    return floor


_ASKED = object()  # a floor asked for once, not yet computed


def _clear(k, held) -> bool:
    """Whether the raw kappa ``k`` lies below every degree ``held`` (a
    relation or a fuzzy set) stores, by the floor kept on it: the meet of
    those degrees, below which no guard can fire.

    The checked constructors keep the floor as they walk the degrees.  For
    anything else a floor costs a pass over the entries, about as much as
    the guarded walk it saves, so it is computed on the second call for
    ``held``; the first reads False, and a value composed once pays nothing
    for it.
    """
    floor = held._floor
    if floor is None:
        held._floor = _ASKED
        return False
    if floor is _ASKED:
        floor = held._floor = _meet_of(held._entries, held.frame)
    return held.frame._leq(k, floor)


def _crossing(at: int):
    """The split of a relation at the end ``at`` of its keys (1 for f,
    whose targets may be interface positions; 0 for g, whose sources may):
    the keys whose end ``at`` lies outside the internal set, and their legs
    ``(other end, degree, raw degree)`` grouped by that position."""
    other = 1 - at

    def split(entries: dict, internal) -> tuple:
        walk, legs = [], {}
        for key, d in entries.items():
            b = key[at]
            if b not in internal:
                walk.append(key)
                legs.setdefault(b, []).append((key[other], d, d.raw))
        return walk, legs

    return split


_leaving, _entering = _crossing(1), _crossing(0)


def _route(f_rel, g_rel, f_internal, g_internal, kappa, f_drop, g_drop) -> dict:
    """Entries of the composite of ``f_rel`` then ``g_rel`` through their
    shared interface, by the sup-min rule.

    An entry ``(a, b)`` of f whose target lies in ``f_internal`` is copied;
    any other target is an interface position, and the entry is routed
    through every entry of g leaving that position, at the meet of the two
    legs, parallel routes joining.  Entries of g whose source lies in
    ``g_internal`` are copied.  Above bottom, ``kappa`` guards the type-2
    composite: f's entries and g's routed legs must reach it.  The sources
    in ``f_drop`` and ``g_drop`` (type-2 nodes whose membership falls below
    a kappa above bottom) lose their entries.  Operand entries are already
    normal, so the result is too.

    Copies are whole-dict copies, which reuse the stored key hashes; the
    entries that are routed or dropped are then deleted from them.  The
    callers' composability checks keep every copied key apart from every
    routed one: f's copies end in f's nodes or edges, g's start at g's.
    Which keys cross, and their legs grouped by interface position, is
    kept on each relation for its internal set (see ``_kept``), so a
    relation composed again in a role walks only those, and each position
    routes f's legs into it through g's legs out of it.
    A guard runs unless the kept floor shows kappa below every degree it
    would test (see ``_clear``); then f's split is the kept one too.

    Degrees are compared as raw carrier values through the frame's hooks,
    fetched once.  Nothing is re-checked: every stored degree was checked
    when its relation was built, and every caller has already required
    one frame for both relations and ``kappa`` (``FuzzyRelation.then``, and
    ``fuzzy._require_compatible`` before each compose).
    """
    frame = f_rel.frame
    leq, meet, join = frame._leq, frame._meet, frame._join
    bottom = frame.bottom.raw
    k = kappa.raw
    guarded = k != bottom
    f_entries, g_entries = f_rel._entries, g_rel._entries
    # No guard on f can fire when nothing is dropped and kappa lies below
    # f's floor; then f's split is the kept one.  Otherwise f is walked
    # whole: its crossing keys leave the copy, and so do the internal keys
    # the guard drops; only the crossing legs the guard keeps are routed.
    if guarded and (f_drop or not _clear(k, f_rel)):
        f_walk, f_legs = [], {}
        for key, d in f_entries.items():
            a, b = key
            r = d.raw
            if b not in f_internal:
                f_walk.append(key)
                if a not in f_drop and leq(k, r):
                    f_legs.setdefault(b, []).append((a, d, r))
            elif a in f_drop or not leq(k, r):
                f_walk.append(key)
    else:
        f_walk, f_legs = _kept(f_rel, _AS_F, f_internal, _leaving)
    g_walk, legs = _kept(g_rel, _AS_G, g_internal, _entering)
    if guarded and not _clear(k, g_rel):
        legs = {b: [leg for leg in row if leq(k, leg[2])] for b, row in legs.items()}
    g_gone = g_walk + [key for key in g_entries if key[0] in g_drop] if g_drop else g_walk
    # A walked key can equal a routed one (f's root j and g's root j), so
    # every walked key leaves the copies before any route lands.
    out: dict = {}
    if f_internal:
        out.update(f_entries)
        for key in f_walk:
            del out[key]
    if g_internal:
        out.update(g_entries)
        for key in g_gone:
            del out[key]
    # At each interface position, every leg of f into it meets every leg
    # of g out of it.
    for b, f_row in f_legs.items():
        g_row = legs.get(b)
        if not g_row:
            continue
        for a, d1, r1 in f_row:
            for c, d2, r2 in g_row:
                # A hook that returns an operand's raw value keeps that
                # operand's degree.  On a chain it always does; off a chain
                # a new meet is checked, and dropped if it falls to bottom.
                r = meet(r1, r2)
                if r is r1:
                    deg = d1
                elif r is r2:
                    deg = d2
                elif r == bottom:
                    continue
                else:
                    deg = frame.value(r)
                ac = (a, c)
                prev = out.setdefault(ac, deg)
                if prev is deg:
                    continue
                p = prev.raw
                r = join(p, deg.raw)
                if r is not p:
                    out[ac] = deg if r is deg.raw else frame.value(r)
    return out


def identity_relation(frame: Frame, elements) -> FuzzyRelation:
    """The fuzzy identity: degree top on equal pairs, bottom elsewhere.

    Every pair lies on the diagonal at the frame's own top, so there is
    nothing to check.
    """
    elements = frozenset(elements)
    store = dict.fromkeys(zip(elements, elements), frame.top)
    return FuzzyRelation._trusted(frame, elements, elements, store)


class FuzzySet:
    """A degree-valued set with finite support (absent elements at bottom).

    ``support``, the frozenset of stored elements, is built when first read.
    """

    __slots__ = ("frame", "_entries", "_support", "_floor")

    def __init__(self, frame: Frame, entries=()):
        self.frame = frame
        meet, floor = frame._meet, frame._top_raw()
        store: dict = {}
        for element, degree in _as_entries(entries):
            frame.check_value(degree)
            if degree.is_bottom():
                continue
            if element in store:
                raise ValueError(f"duplicate fuzzy-set entry for {element!r}")
            store[element] = degree
            floor = meet(floor, degree.raw)
        self._entries = store
        self._support = None
        self._floor = floor

    @classmethod
    def _trusted(cls, frame: Frame, store: dict, floor=None) -> "FuzzySet":
        """Wrap a membership dict that is already in normal form: every
        degree belongs to ``frame`` and lies strictly above bottom.
        ``floor``, if given, is the raw meet of the memberships."""
        fset = cls.__new__(cls)
        fset.frame = frame
        fset._entries = store
        fset._support = None
        fset._floor = floor
        return fset

    @property
    def support(self) -> frozenset:
        if self._support is None:
            self._support = frozenset(self._entries)
        return self._support

    def __len__(self) -> int:
        return len(self._entries)

    def membership(self, element) -> FrameValue:
        return self._entries.get(element, self.frame.bottom)

    def items(self):
        return iter(self._entries.items())

    def sorted_items(self):
        return sorted(self._entries.items(), key=lambda kv: element_sort_key(kv[0]))

    def union(self, other: "FuzzySet") -> "FuzzySet":
        """Disjoint union: supports must not overlap, as the merged size shows.
        Both operands were checked when built, so the merged memberships are not."""
        if self.frame != other.frame:
            raise FrameMismatchError("cannot union fuzzy sets over different frames")
        merged = dict(self._entries)
        merged.update(other._entries)
        if len(merged) != len(self._entries) + len(other._entries):
            shared = self.support & other.support
            raise ValueError(f"fuzzy-set supports overlap on {sorted(map(repr, shared))}")
        return FuzzySet._trusted(self.frame, merged)

    def translate(self, mapping: Mapping) -> "FuzzySet":
        return FuzzySet(
            self.frame, {mapping.get(e, e): d for e, d in self._entries.items()}
        )

    def with_membership(self, element, degree: FrameValue) -> "FuzzySet":
        """Copy with one membership replaced (bottom removes the element)."""
        entries = dict(self._entries)
        entries[element] = degree
        return FuzzySet(self.frame, entries)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FuzzySet)
            and self.frame == other.frame
            and self._entries == other._entries
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FuzzySet({len(self._entries)} elements, {self.frame.name})"

    def __reduce__(self):
        return FuzzySet._trusted, (self.frame, self._entries)
