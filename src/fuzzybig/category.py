"""Fuzzy-category law harness.

Arrows carry a plausibility degree; composing two arrows meets their
degrees (``p(g . f) = p(f) ∧ p(g)`` by construction), identity arrows sit
at top.  :func:`check_category_laws` verifies, exhaustively or on a seeded
sample, the identity laws, associativity, and that each arrow's and each
composite's payload yields its degree, reporting every violation with a
witness.

The intended instance has interfaces as objects and type-2 fuzzy bigraphs
as arrow payloads, where an arrow's degree is its bigraph's plausibility
degree; :func:`type2_arrow_system` builds exactly that.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .crisp import Signature
from .errors import NotComposableError, SupportOverlapError
from .lattice import Frame, FrameValue
from .type2 import Type2FuzzyBigraph, compose_type2, identity_type2_bigraph


@dataclass(frozen=True)
class FuzzyArrow:
    """An arrow between two objects, carrying a payload and a degree."""

    source: object
    target: object
    payload: object
    degree: FrameValue
    name: str = field(default="", compare=False)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        label = self.name or "arrow"
        return f"{label}: {self.source} -> {self.target}"


class ArrowSystem:
    """A finite collection of arrows with a partial payload composition.

    ``compose_payloads(g_payload, f_payload)`` must produce the composite
    payload for arrows meeting head to tail; it may raise
    :class:`SupportOverlapError` for pairs whose supports collide, which
    the law checker treats as not composable (composition of concrete
    structures is partial).
    """

    def __init__(
        self,
        frame: Frame,
        objects: Iterable,
        arrows: Sequence[FuzzyArrow],
        compose_payloads: Callable,
        identities: dict,
        payload_degree: Callable | None = None,
        payload_eq: Callable | None = None,
    ):
        self.frame = frame
        self.objects = frozenset(objects)
        self.arrows = tuple(arrows)
        self.compose_payloads = compose_payloads
        self.identities = dict(identities)
        self.payload_degree = payload_degree
        self.payload_eq = payload_eq or (lambda a, b: a == b)
        for obj, ident in self.identities.items():
            if ident.source != obj or ident.target != obj:
                raise ValueError(f"identity for {obj} has wrong endpoints")

    def compose(self, g: FuzzyArrow, f: FuzzyArrow) -> FuzzyArrow:
        """Composite arrow ``g . f``; degree is the meet of the degrees."""
        if f.target != g.source:
            raise NotComposableError(
                f"cannot compose: {f!r} ends at {f.target}, {g!r} starts at {g.source}"
            )
        payload = self.compose_payloads(g.payload, f.payload)
        name = f"{g.name or 'g'}∘{f.name or 'f'}"
        return FuzzyArrow(f.source, g.target, payload, f.degree.meet(g.degree), name)


def compose_arrow(system: ArrowSystem, g: FuzzyArrow, f: FuzzyArrow) -> FuzzyArrow:
    return system.compose(g, f)


@dataclass
class LawViolation:
    law: str
    witness: str

    def __str__(self) -> str:
        return f"{self.law}: {self.witness}"


@dataclass
class CategoryLawReport:
    arrow_count: int = 0
    identity_checks: int = 0
    pairs_checked: int = 0
    triples_checked: int = 0
    skipped_overlaps: int = 0
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "arrows": self.arrow_count,
            "identity_checks": self.identity_checks,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "skipped_overlaps": self.skipped_overlaps,
            "violations": [
                {"law": v.law, "witness": v.witness} for v in self.violations
            ],
            "ok": self.ok,
        }

    def __str__(self) -> str:
        lines = [
            f"arrows: {self.arrow_count}",
            f"identity checks: {self.identity_checks}",
            f"pairs checked: {self.pairs_checked}"
            + (
                f" ({self.skipped_overlaps} skipped for support overlap)"
                if self.skipped_overlaps
                else ""
            ),
            f"triples checked: {self.triples_checked}",
        ]
        if self.ok:
            lines.append("all laws hold")
        else:
            lines.append(f"violations: {len(self.violations)}")
            lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def _arrow_label(a: FuzzyArrow) -> str:
    return a.name or repr(a)


def check_category_laws(
    system: ArrowSystem, samples: int | None = None, seed: int = 0
) -> CategoryLawReport:
    """Run the identity, associativity and degree laws over the system.

    ``samples=None`` checks every composable pair and triple; otherwise at
    most ``samples`` of each are drawn with the given seed.  Pairs whose
    payload composition overlaps on support are skipped and counted.

    Each two-arrow composite is built once and shared by the pair and
    triple checks, and dropped after its last use; the two sides of an
    associativity check are always built afresh.  Neither the pairs nor the
    triples are listed.
    """
    report = CategoryLawReport(arrow_count=len(system.arrows))
    eq = system.payload_eq

    def composite(g, f):
        try:
            return system.compose(g, f)
        except SupportOverlapError:
            report.skipped_overlaps += 1
            return None

    # arrow/identity well-formedness and identity laws
    for obj, ident in sorted(system.identities.items(), key=lambda kv: str(kv[0])):
        if not ident.degree.is_top():
            report.violations.append(
                LawViolation(
                    "identity degree",
                    f"identity at {obj} has degree "
                    f"{system.frame.format_degree(ident.degree)}",
                )
            )
    if system.payload_degree is not None:
        for a in system.arrows:
            if system.payload_degree(a.payload) != a.degree:
                report.violations.append(
                    LawViolation(
                        "degree law",
                        f"{_arrow_label(a)} carries degree "
                        f"{system.frame.format_degree(a.degree)} but its payload "
                        "yields "
                        f"{system.frame.format_degree(system.payload_degree(a.payload))}",
                    )
                )

    for a in system.arrows:
        id_t = system.identities.get(a.target)
        id_s = system.identities.get(a.source)
        for ident, arrow_of in ((id_t, lambda i: composite(i, a)),
                                (id_s, lambda i: composite(a, i))):
            if ident is None:
                continue
            got = arrow_of(ident)
            report.identity_checks += 1
            if got is None:
                continue
            if not (eq(got.payload, a.payload) and got.degree == a.degree):
                report.violations.append(
                    LawViolation(
                        "identity law",
                        f"identity composite differs from {_arrow_label(a)}",
                    )
                )

    # Arrows are unhashable, so pairs, triples and the memo go by position.
    # The composable pairs and triples are numbered in arrow order and never
    # listed: prefix counts map a number to its arrows, and only the checked
    # numbers are mapped.
    arrows = system.arrows
    by_source: dict = {}
    for k, h in enumerate(arrows):
        by_source.setdefault(h.source, []).append(k)
    # For each object, the prefix sums of the out-degrees at the ends of the
    # arrows leaving it: the triples through each such arrow, in order.
    onward = {
        obj: list(accumulate((len(by_source.get(arrows[j].target, ())) for j in out), initial=0))
        for obj, out in by_source.items()
    }
    # Arrow i starts pair_starts[i+1] - pair_starts[i] pairs, and likewise
    # for triples.
    pair_starts = list(accumulate((len(by_source.get(f.target, ())) for f in arrows), initial=0))
    triple_starts = list(accumulate((onward.get(f.target, (0,))[-1] for f in arrows), initial=0))
    checked_pairs, picks = range(pair_starts[-1]), range(triple_starts[-1])
    if samples is not None:
        # pairs first, then triples: random.sample draws the same positions
        # from range(n) as from any sequence of length n
        rng = random.Random(seed)
        if len(checked_pairs) > samples:
            checked_pairs = rng.sample(checked_pairs, samples)
        if len(picks) > samples:
            picks = rng.sample(picks, samples)

    def pair_at(p):
        i = bisect_right(pair_starts, p) - 1
        return i, by_source[arrows[i].target][p - pair_starts[i]]

    def triple_at(t):
        i = bisect_right(triple_starts, t) - 1
        t -= triple_starts[i]
        starts = onward[arrows[i].target]
        m = bisect_right(starts, t) - 1
        j = by_source[arrows[i].target][m]
        return i, j, by_source[arrows[j].target][t - starts[m]]

    # The checks below fetch g . f for each checked pair, and g . f and
    # h . g for each drawn triple; counting those fetches up front lets the
    # memo drop each composite after its last one.
    uses: dict = {}
    for p in checked_pairs:
        i, j = pair_at(p)
        uses[j, i] = uses.get((j, i), 0) + 1
    for t in picks:
        i, j, k = triple_at(t)
        uses[j, i] = uses.get((j, i), 0) + 1
        uses[k, j] = uses.get((k, j), 0) + 1
    memo: dict = {}

    def composite_at(j, i):
        """``g . f`` for the arrows at positions j and i, built once per
        check; an overlap found before is counted again on every hit."""
        key = (j, i)
        if key in memo:
            gf = memo[key]
            if gf is None:
                report.skipped_overlaps += 1
        else:
            gf = composite(arrows[j], arrows[i])
        uses[key] -= 1
        if uses[key]:
            memo[key] = gf
        else:
            memo.pop(key, None)
        return gf

    for p in checked_pairs:
        i, j = pair_at(p)
        f, g = arrows[i], arrows[j]
        gf = composite_at(j, i)
        if gf is None:
            continue
        report.pairs_checked += 1
        if system.payload_degree is not None and system.payload_degree(gf.payload) != gf.degree:
            report.violations.append(
                LawViolation(
                    "degree law",
                    f"composite payload of {_arrow_label(g)}∘{_arrow_label(f)} "
                    "carries a different degree than the meet",
                )
            )

    for t in picks:
        i, j, k = triple_at(t)
        f, g, h = arrows[i], arrows[j], arrows[k]
        gf = composite_at(j, i)
        hg = composite_at(k, j)
        if gf is None or hg is None:
            continue
        # both sides are built afresh, so the law compares two computations
        left = composite(h, gf)
        right = composite(hg, f)
        if left is None or right is None:
            continue
        report.triples_checked += 1
        if not eq(left.payload, right.payload):
            report.violations.append(
                LawViolation(
                    "associativity",
                    f"({_arrow_label(h)}∘{_arrow_label(g)})∘{_arrow_label(f)} != "
                    f"{_arrow_label(h)}∘({_arrow_label(g)}∘{_arrow_label(f)})",
                )
            )
    return report


def type2_arrow_system(
    frame: Frame,
    signature: Signature,
    bigraphs: Sequence[Type2FuzzyBigraph],
    names: Sequence[str] | None = None,
) -> ArrowSystem:
    """The bigraphical instance: interfaces as objects, type-2 fuzzy
    bigraphs as payloads, plausibility degrees as arrow degrees."""
    objects = set()
    arrows = []
    for i, b in enumerate(bigraphs):
        objects.add(b.inner)
        objects.add(b.outer)
        label = names[i] if names else f"a{i}"
        arrows.append(FuzzyArrow(b.inner, b.outer, b, b.degree, label))
    identities = {
        obj: FuzzyArrow(
            obj,
            obj,
            identity_type2_bigraph(obj, frame, signature),
            frame.top,
            f"id[{obj}]",
        )
        for obj in objects
    }
    return ArrowSystem(
        frame,
        objects,
        arrows,
        compose_type2,
        identities,
        payload_degree=lambda payload: payload.degree,
    )
