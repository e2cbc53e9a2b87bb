"""An independent oracle for sup-min composition, one level at a time.

On a chain, a meet reaches a level alpha exactly when both operands do, and
a join exactly when one of them does.  So the alpha-cut of a composite is
the crisp composite of its operands' alpha-cuts, at every level alpha (the
resolution identity: Zadeh, "Similarity relations and fuzzy orderings",
1971).  This module cuts fuzzy relations into crisp ones and composes those
as Boolean matrices, each row a Python int used as a bitset over the
columns.  Degrees are compared with Python's own order on the raw carrier
values (``Fraction``, ``int`` or ``bool``), never through the frame's hooks,
so the oracle shares no comparison code with the kernel it checks.
"""

from __future__ import annotations


def levels(*relations) -> set:
    """The raw values of every stored degree of the given relations."""
    return {d.raw for rel in relations for _pair, d in rel.items()}


def cut(rel, alpha, drop=()) -> frozenset:
    """The pairs of ``rel`` at or above level ``alpha`` (a raw value),
    leaving out those whose source lies in ``drop``."""
    return frozenset(
        (a, b) for (a, b), d in rel.items() if alpha <= d.raw and a not in drop
    )


def bool_compose(r: frozenset, s: frozenset) -> frozenset:
    """Crisp relational composition ``r ; s`` through bitset rows."""
    columns = list({c for _b, c in s})
    index = {c: i for i, c in enumerate(columns)}
    s_rows: dict = {}
    for b, c in s:
        s_rows[b] = s_rows.get(b, 0) | 1 << index[c]
    rows: dict = {}
    for a, b in r:
        rows[a] = rows.get(a, 0) | s_rows.get(b, 0)
    out = set()
    for a, bits in rows.items():
        while bits:
            low = bits & -bits
            out.add((a, columns[low.bit_length() - 1]))
            bits ^= low
    return frozenset(out)


def composite_cut(f_cut: frozenset, g_cut: frozenset, f_internal, g_internal) -> frozenset:
    """The crisp composite of two cuts through their shared interface.

    f's pairs into ``f_internal`` and g's pairs out of ``g_internal`` are
    copied; f's other pairs end on an interface position and are composed
    with g's pairs that leave it.
    """
    f_copied = frozenset((a, b) for a, b in f_cut if b in f_internal)
    g_copied = frozenset((b, c) for b, c in g_cut if b in g_internal)
    return f_copied | bool_compose(f_cut - f_copied, g_cut - g_copied) | g_copied
