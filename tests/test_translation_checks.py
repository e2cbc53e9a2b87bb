"""The translation checkers against the dense oracle.

The library's type-2 checker reads only the relations' stored entries;
``type2_oracle.dense_check_type2_support_translation`` evaluates every
constraint over all pairs of the two supports, and
``type2_oracle.dense_translated_sides`` builds the inequalities' sides from
identity relations, unions and ``then``.  Reports must agree, and so must
the row kernel's verdict and the order of those sides.

The fuzzy checker and both renamings are compared with the per-flavour
versions kept in ``translation_oracle``: reports, translated graphs and
raised errors must agree.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzybig import (
    TWO_POINT,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzyRelation,
    FuzzySet,
    Interface,
    SupportTranslation,
    check_support_translation,
    identity_translation,
    check_type2_support_translation,
    embed_bigraph,
    fuzzify,
    identity_type2_bigraph,
    make_type2_translation,
    translate_fuzzy,
    translate_type2,
)
from fuzzybig import fuzzy, type2
from fuzzybig.errors import FrameMismatchError
from fuzzybig.fuzzy import derive_ports
from fuzzybig.generators import (
    random_degree,
    random_fuzzy_bigraph,
    random_interface,
    random_type2_bigraph,
)
from fuzzybig.type2 import _membership_mismatch

import translation_oracle
from helpers import ALL_FRAMES, DiamondFrame, d, make_h
from test_type2 import (
    SIG,
    U,
    _levelled_bigraph,
    _mutated,
    _rebuilt_type2,
    _rewired,
    _shuffled_copy,
)
from type2_oracle import dense_check_type2_support_translation, dense_translated_sides

RELATION_KINDS = ("canonical", "dropped", "changed", "empty", "arbitrary")


def _outcome(check, rho_nodes, rho_edges, f, g):
    """Everything a report shows, or the error the check raised."""
    try:
        report = check(rho_nodes, rho_edges, f, g)
    except Exception as exc:  # both checkers must raise alike
        return type(exc), str(exc)
    witness = report.witness
    return (
        str(report),
        [(c.name, c.ok, c.detail) for c in report.checks],
        report.ok,
        report.support_equivalent,
        None if witness is None else (witness.node_map, witness.edge_map),
    )


def _relation(rng, kind: str, canonical: FuzzyRelation, levels=None) -> FuzzyRelation:
    """The canonical relation, or one with entries dropped, degrees changed,
    no entries at all, or arbitrary entries on the same carriers.  New
    degrees come from ``levels`` when it is given."""
    frame = canonical.frame

    def degree():
        return rng.choice(levels) if levels else random_degree(rng, frame, positive=True)

    entries = canonical.entry_dict()
    keys = sorted(entries)
    if kind == "dropped" and keys:
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            del entries[key]
    elif kind == "changed" and keys:
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            entries[key] = degree()
    elif kind == "empty":
        entries = {}
    elif kind == "arbitrary":
        grid = [(a, b) for a in sorted(canonical.domain) for b in sorted(canonical.codomain)]
        entries = {pair: degree() for pair in grid if rng.random() < 0.5}
    return FuzzyRelation(frame, canonical.domain, canonical.codomain, entries)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_FRAMES),
    st.sampled_from(("renamed", "mutated", "rewired", "unrelated")),
    st.sampled_from(RELATION_KINDS),
    st.sampled_from(RELATION_KINDS),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_checker_reports_what_the_dense_oracle_reports(
    frame, pair, node_kind, edge_kind, n_nodes, n_edges, seed
):
    rng = random.Random(seed)
    f = _levelled_bigraph(rng, frame, n_nodes, n_edges)
    if pair == "unrelated":
        g = _levelled_bigraph(rng, frame, rng.randint(0, 6), rng.randint(0, 3))
    else:
        g = _shuffled_copy(rng, f)
        if pair == "mutated":
            g = _mutated(rng, g)
        elif pair == "rewired":
            g = _rewired(rng, g)
    canonical_nodes, canonical_edges = make_type2_translation(f, g)
    rho_nodes = _relation(rng, node_kind, canonical_nodes)
    rho_edges = _relation(rng, edge_kind, canonical_edges)
    assert _outcome(check_type2_support_translation, rho_nodes, rho_edges, f, g) == _outcome(
        dense_check_type2_support_translation, rho_nodes, rho_edges, f, g
    )


# --- canonical relations, read from one shared row ---------------------------------
#
# A relation that passes its membership check is read from one shared row
# instead of a row per source.  The diamond is a frame off a chain, where a
# meet can be a degree neither operand holds, so distributivity is what the
# shared row rests on there.

DIAMOND = DiamondFrame()
SHARED_ROW_FRAMES = (*ALL_FRAMES, DIAMOND)
PAIRS = ("renamed", "rewired", "unrelated")
# Both relations canonical, or one canonical beside one altered.
CANONICAL_FORMS = (
    ("canonical", "canonical"),
    ("canonical", "changed"),
    ("canonical", "dropped"),
    ("changed", "canonical"),
    ("dropped", "canonical"),
)


def _shared_row_case(rng, frame, pair: str, n_nodes: int, n_edges: int):
    """f, g on f's interfaces, and the positive degrees they are drawn from.
    Zero counts give empty supports and edge-only graphs; a node whose
    control is ``Z`` has no ports."""
    if frame is DIAMOND:
        levels = [frame.value(frozenset(s)) for s in ("a", "b", "ab")]
    else:
        texts = {U.name: ("1/4", "1/2", "1"), "chain:5": ("1", "2", "4"), "two-point": ("1",)}
        levels = [frame.parse_degree(t) for t in texts[frame.name]]
    f = _levelled_bigraph(rng, frame, n_nodes, n_edges, levels)
    if pair == "unrelated":
        counts = rng.randint(0, 5), rng.randint(0, 3)
        g = _levelled_bigraph(rng, frame, *counts, levels, (f.inner, f.outer))
    else:
        g = _shuffled_copy(rng, f)
        if pair == "rewired":
            g = _rewired(rng, g)
    return f, g, levels


def _drawn_relations(rng, kinds, f, g, levels):
    canonical = make_type2_translation(f, g)
    return [_relation(rng, kind, rel, levels) for kind, rel in zip(kinds, canonical)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SHARED_ROW_FRAMES),
    st.sampled_from(PAIRS),
    st.sampled_from(CANONICAL_FORMS),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# empty supports, and an edge-only pair
@example(DIAMOND, "renamed", CANONICAL_FORMS[0], 0, 0, 1)
@example(DIAMOND, "renamed", CANONICAL_FORMS[0], 0, 3, 1)
def test_canonical_relations_check_as_the_dense_oracle_checks(
    frame, pair, kinds, n_nodes, n_edges, seed
):
    rng = random.Random(seed)
    f, g, levels = _shared_row_case(rng, frame, pair, n_nodes, n_edges)
    rho_nodes, rho_edges = _drawn_relations(rng, kinds, f, g, levels)
    assert _outcome(check_type2_support_translation, rho_nodes, rho_edges, f, g) == _outcome(
        dense_check_type2_support_translation, rho_nodes, rho_edges, f, g
    )


class _Routed(Exception):
    """Raised where the checker would route relations entry by entry."""


def _refuse_routing(*_args):
    raise _Routed


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHARED_ROW_FRAMES),
    st.sampled_from(PAIRS),
    st.sampled_from(RELATION_KINDS),
    st.sampled_from(RELATION_KINDS),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_no_relation_is_routed_entry_by_entry(
    frame, pair, node_kind, edge_kind, n_nodes, n_edges, seed
):
    # canonical or not, every relation is read as rows
    rng = random.Random(seed)
    f, g, levels = _shared_row_case(rng, frame, pair, n_nodes, n_edges)
    rho_nodes, rho_edges = _drawn_relations(rng, (node_kind, edge_kind), f, g, levels)
    expected = _outcome(dense_check_type2_support_translation, rho_nodes, rho_edges, f, g)
    with pytest.MonkeyPatch.context() as patch:
        # type2 routes only through the composers' kernels in fuzzy
        patch.setattr(fuzzy, "_route", _refuse_routing)
        patch.setattr(FuzzyRelation, "then", _refuse_routing)
        assert _outcome(check_type2_support_translation, rho_nodes, rho_edges, f, g) == expected


def _displaced(canonical: FuzzyRelation) -> FuzzyRelation:
    """The canonical relation with its first pair moved onto a target that
    is no member, so it keeps its size and its degrees."""
    entries = canonical.entry_dict()
    if not entries:
        return canonical
    (x, y), degree = min(entries.items())
    del entries[(x, y)]
    entries[(x, "zz")] = degree
    return FuzzyRelation(canonical.frame, canonical.domain, canonical.codomain | {"zz"}, entries)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHARED_ROW_FRAMES),
    st.sampled_from(PAIRS),
    st.sampled_from((*RELATION_KINDS, "displaced")),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_relation_on_its_target_memberships_is_the_canonical_relation(
    frame, pair, kind, n_nodes, n_edges, seed
):
    # the shared row is sound only for the canonical relation's entries
    rng = random.Random(seed)
    f, g, levels = _shared_row_case(rng, frame, pair, n_nodes, n_edges)
    for canonical, a, b in zip(make_type2_translation(f, g), (f.nodes, f.edges), (g.nodes, g.edges)):
        if kind == "displaced":
            rel = _displaced(canonical)
        else:
            rel = _relation(rng, kind, canonical, levels)
        if _membership_mismatch(rel, a, b) is None:
            assert (rel.domain, rel.codomain, rel.entry_dict()) == (
                canonical.domain, canonical.codomain, canonical.entry_dict()
            )


def _grid_case():
    # f's nodes a, b, c and g's nodes y, z, all at membership top except z
    members_f = {"a": U.top, "b": U.top, "c": U.top}
    members_g = {"y": U.top, "z": d("1/2")}
    ctrl_f = {(v, "Z"): U.top for v in members_f}
    ctrl_g = {(v, "Z"): U.top for v in members_g}
    prnt_f = {(v, 0): U.top for v in members_f}
    prnt_g = {(v, 0): U.top for v in members_g}
    none, root = Interface(0, ()), Interface(1, ())
    f = _rebuilt_type2(U, none, root, members_f, {}, ctrl_f, prnt_f, {}, U.top, U.top)
    g = _rebuilt_type2(U, none, root, members_g, {}, ctrl_g, prnt_g, {}, U.top, U.top)
    return f, g


@pytest.mark.parametrize(
    "changed, dropped, first",
    [
        # a pair left out comes first in sorted order, after an entry whose
        # degree is wrong in entry order
        ({("c", "z"): d("1/3")}, [("b", "y")], ("b", "y")),
        # every pair is stored, so only a wrong degree can mismatch
        ({("c", "y"): d("1/3"), ("b", "z"): d("1")}, [], ("b", "z")),
        # too many pairs are missing to hold the grid
        ({}, [("c", "z"), ("a", "z")], ("a", "z")),
    ],
)
def test_the_first_membership_mismatch_is_the_first_pair_in_sorted_order(changed, dropped, first):
    f, g = _grid_case()
    canonical, rho_edges = make_type2_translation(f, g)
    # entries stored in reverse sorted order, so entry order differs
    entries = dict(sorted(canonical.entry_dict().items(), reverse=True))
    entries.update(changed)
    for pair in dropped:
        del entries[pair]
    rho_nodes = FuzzyRelation(U, canonical.domain, canonical.codomain, entries)
    report = check_type2_support_translation(rho_nodes, rho_edges, f, g)
    check = report.check("node relation matches target memberships")
    assert (check.ok, check.detail) == (False, f"first mismatch at {first}")
    assert str(report) == str(dense_check_type2_support_translation(rho_nodes, rho_edges, f, g))


def _carrier(elements) -> frozenset:
    """A fuzzy graph's node or edge set, or a type-2 graph's support."""
    return elements.support if isinstance(elements, FuzzySet) else elements


def _random_relation(rng, domain, codomain, levels) -> FuzzyRelation:
    """Each pair of ``domain x codomain`` with probability one half, at a
    degree drawn from ``levels``."""
    entries = {
        (a, b): rng.choice(levels)
        for a in sorted(domain)
        for b in sorted(codomain, key=repr)
        if rng.random() < 0.5
    }
    return FuzzyRelation(levels[0].frame, domain, codomain, entries)


def _dense_port_relation(rho_nodes: FuzzyRelation, f_ports, g_ports) -> FuzzyRelation:
    """Each index-matched pair of ports at its node pair's degree."""
    entries = {
        ((v, i), (w, j)): rho_nodes.degree(v, w)
        for v, i in f_ports
        for w, j in g_ports
        if i == j and not rho_nodes.degree(v, w).is_bottom()
    }
    return FuzzyRelation(rho_nodes.frame, f_ports, g_ports, entries)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHARED_ROW_FRAMES),
    st.sampled_from(PAIRS),
    st.sampled_from(("arbitrary", "crisp", "canonical")),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_row_kernel_decides_as_the_identity_union_formulas(
    frame, pair, kind, n_nodes, n_edges, seed
):
    rng = random.Random(seed)
    f, g, levels = _shared_row_case(rng, frame, pair, n_nodes, n_edges)
    if kind == "canonical":
        rho_nodes, rho_edges = make_type2_translation(f, g)
    else:
        drawn = [frame.top] if kind == "crisp" else levels
        rho_nodes = _random_relation(rng, f.nodes.support, g.nodes.support, drawn)
        rho_edges = _random_relation(rng, f.edges.support, g.edges.support, drawn)
    rho_ports = _dense_port_relation(rho_nodes, f.link.ports, g.link.ports)
    no_targets = FuzzyRelation(frame, (), (), {})
    # a canonical relation reads alike as one row and as a row per source
    for one_row in (True, False) if kind == "canonical" else (False,):
        node_rows = type2._rows(rho_nodes, f.nodes, g.nodes, one_row)
        edge_rows = type2._rows(rho_edges, f.edges, g.edges, one_row)
        port_rows = type2._port_rows(node_rows, f.link.ports, g.link.ports)
        for rows, args in (
            ((node_rows, ({}, {})), (f.ctrl, g.ctrl, rho_nodes, no_targets, (), SIG.controls)),
            (
                (node_rows, node_rows),
                (
                    f.place.prnt, g.place.prnt, rho_nodes, rho_nodes,
                    range(f.place.inner), range(f.place.outer),
                ),
            ),
            (
                (port_rows, edge_rows),
                (f.link.link, g.link.link, rho_ports, rho_edges, f.link.inner, f.link.outer),
            ),
        ):
            lhs, rhs = dense_translated_sides(*args)
            assert type2._pulled_below_pushed(*args[:2], *rows) == lhs.leq(rhs)


# --- one renaming and one fuzzy checker for both flavours ---------------------


def _h(flavour: str):
    f = fuzzify(make_h(), U)
    return f if flavour == "fuzzy" else embed_bigraph(f)


@pytest.mark.parametrize(
    "flavour, part, message",
    [
        ("fuzzy", "node", "node renaming does not cover exactly the node set"),
        ("fuzzy", "edge", "edge renaming does not cover exactly the edge set"),
        ("type2", "node", "node renaming does not cover exactly the node support"),
        ("type2", "edge", "edge renaming does not cover exactly the edge support"),
    ],
)
def test_a_renaming_that_leaves_an_identifier_out_names_what_it_must_cover(
    flavour, part, message
):
    f = _h(flavour)
    maps = {"node": {v: v for v in _carrier(f.nodes)}, "edge": {e: e for e in _carrier(f.edges)}}
    del maps[part][min(maps[part])]
    translate = translate_fuzzy if flavour == "fuzzy" else translate_type2
    with pytest.raises(ValueError) as raised:
        translate(f, SupportTranslation(maps["node"], maps["edge"]))
    assert str(raised.value) == message


def test_a_report_names_no_check_it_does_not_hold():
    f = fuzzify(make_h())
    report = check_support_translation(identity_translation(f), f, f)
    assert report.check("control preservation").ok
    with pytest.raises(KeyError):
        report.check("no such check")


def test_the_type2_checker_refuses_operands_over_different_frames():
    # Routing compares raw degrees without checking their frames, so the
    # mismatch must be caught before the inequality sides are routed.
    f, g = (embed_bigraph(fuzzify(make_h(), frame)) for frame in (U, TWO_POINT))
    rho_nodes, rho_edges = make_type2_translation(f, f)
    with pytest.raises(FrameMismatchError):
        check_type2_support_translation(rho_nodes, rho_edges, f, g)


def test_the_type2_checker_refuses_empty_supports_over_different_frames():
    # with no nodes or edges, the membership checks have no pair to name
    f, g = (
        identity_type2_bigraph(Interface(1, frozenset({"x"})), frame, SIG)
        for frame in (U, TWO_POINT)
    )
    rho_nodes, rho_edges = make_type2_translation(f, f)
    with pytest.raises(FrameMismatchError):
        check_type2_support_translation(rho_nodes, rho_edges, f, g)


RENAMINGS = ("identity", "bijection", "clash", "missing", "extra", "non-string")
TARGETS = ("renamed", "control", "parent", "link", "wider")


def _renaming(rng, kind: str, f) -> SupportTranslation:
    """The identity, a random bijection onto fresh and own names, one whose
    images may clash with an edge or an outer name, one that leaves out or
    adds an identifier, or a bijection with one image replaced by an int."""
    nodes, edges = sorted(_carrier(f.nodes)), sorted(_carrier(f.edges))
    node_pool = nodes + [f"w{i}" for i in range(len(nodes))]
    edge_pool = edges + [f"d{i}" for i in range(len(edges))]
    if kind == "clash":
        node_pool += edges[:1]
        edge_pool += sorted(f.link.outer)
    if kind == "identity":
        node_map, edge_map = dict(zip(nodes, nodes)), dict(zip(edges, edges))
    else:
        node_map = dict(zip(nodes, rng.sample(node_pool, len(nodes))))
        edge_map = dict(zip(edges, rng.sample(edge_pool, len(edges))))
    table = rng.choice((node_map, edge_map))
    if kind == "missing" and table:
        del table[rng.choice(sorted(table))]
    elif kind in ("missing", "extra"):
        table["zz"] = "zz_image"
    elif kind == "non-string" and table:
        table[rng.choice(sorted(table))] = 7
    return SupportTranslation(node_map, edge_map)


def _lowered(rng, degree):
    """A degree strictly below ``degree``; bottom drops the entry."""
    lower = random_degree(rng, degree.frame).meet(degree)
    return degree.frame.bottom if lower == degree else lower


def _changed_target(rng, g, target: str):
    """``g`` with one control, parent or link degree lowered, or one node
    given a control wider than any it holds, rebuilt through the public
    constructors; link entries on ports the change removes are dropped."""
    ctrl, prnt, link = g.ctrl.entry_dict(), g.prnt.entry_dict(), g.link.link.entry_dict()
    table = {"control": ctrl, "parent": prnt, "link": link}.get(target)
    if table:
        key = rng.choice(sorted(table, key=repr))
        lower = _lowered(rng, table[key])
        del table[key]
        if not lower.is_bottom():
            table[key] = lower
    elif target == "wider":
        widest = {v: -1 for v in g.nodes}
        for v, control in ctrl:
            widest[v] = max(widest[v], SIG.arity_of(control))
        options = [
            (v, control)
            for v in sorted(g.nodes)
            for control in sorted(SIG.controls)
            if SIG.arity_of(control) > widest[v]
        ]
        if options:
            ctrl[rng.choice(options)] = random_degree(rng, g.frame, positive=True)
    place = FuzzyPlaceGraph(g.frame, SIG, g.place.inner, g.place.outer, g.nodes, ctrl, prnt)
    ports = derive_ports(SIG, place.ctrl)
    link = {(q, t): x for (q, t), x in link.items() if not isinstance(q, tuple) or q in ports}
    link_part = FuzzyLinkGraph(
        g.frame, SIG, g.link.inner, g.link.outer, g.nodes, g.edges, place.ctrl, link
    )
    return FuzzyBigraph(place, link_part)


def _attempt(call, *args):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # both paths must raise alike
        return type(exc), str(exc)


def _shown(report):
    if isinstance(report, tuple):
        return report
    return str(report), [(c.name, c.ok, c.detail) for c in report.checks], report.ok


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_FRAMES),
    st.sampled_from(("fuzzy", "type2")),
    st.sampled_from(RENAMINGS),
    st.sampled_from(TARGETS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_renaming_and_checking_agree_with_the_per_flavour_oracles(
    frame, flavour, renaming, target, seed
):
    rng = random.Random(seed)
    inner, outer = random_interface(rng, 2, 2), random_interface(rng, 2, 2)
    make = random_fuzzy_bigraph if flavour == "fuzzy" else random_type2_bigraph
    f = make(rng, frame, SIG, inner, outer, "f_")
    rho = _renaming(rng, renaming, f)
    translate, oracle = {
        "fuzzy": (translate_fuzzy, translation_oracle.translate_fuzzy),
        "type2": (translate_type2, translation_oracle.translate_type2),
    }[flavour]
    translated = _attempt(translate, f, rho)
    assert translated == _attempt(oracle, f, rho)
    if flavour == "type2":
        return
    g = translated
    if not isinstance(g, FuzzyBigraph):
        g = translation_oracle.translate_fuzzy(f, _renaming(rng, "bijection", f))
    g = _changed_target(rng, g, target)
    assert _shown(_attempt(check_support_translation, rho, f, g)) == _shown(
        _attempt(translation_oracle.check_support_translation, rho, f, g)
    )
