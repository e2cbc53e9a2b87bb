"""The composition kernel against dense oracles, and the composers'
preconditions.

``compose_fuzzy`` and ``compose_type2``, their part composers and
``FuzzyRelation.then`` all route through ``relations._route``, which copies
the pass-through entries and walks only those that meet the interface.
Here each composite is compared with an oracle that evaluates every pair
of the composite's grid: a dense sup-min for fuzzy composites and
``FuzzyRelation.then``, and ``type2_oracle.refilter_place`` /
``refilter_link`` for type-2 ones.  The operands are drawn over every frame
and over ``helpers.DiamondFrame``, whose meets can fall to bottom and whose
joins can be new values; type-2 degrees and memberships come from the same
pool, so the guard drops entries.  Interfaces are drawn so that an f root
index often equals a g root index and g's inner names often equal its
outer names, where a routed key can equal a walked one.

The precondition tests pin the support-overlap message for every pairing
of an f node or edge with a g node or edge, and that an overlap is named
before any other fault of the pair, and check that a composite's controls
are its operands' controls together, and that each composite, tensor,
identity and embedding holds one node set and one control relation for
both parts, which equal the parts built alone.  A composite's domains,
codomains and supports are built when first read; the next tests read
them first and compare them with the sets the checked constructors
derive.  The last tests compose operands again, with other partners, in
both roles and between guards that fire and guards that cannot, where
each relation routes through the split and the floor it kept (as f, its
crossing legs grouped by interface position), and compare every
composite with that of freshly rebuilt operands.
"""

import random

import pytest

from fuzzybig import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    FuzzyRelation,
    FuzzySet,
    Interface,
    Signature,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    UNIT_INTERVAL as U,
    compose_fuzzy,
    compose_fuzzy_link,
    compose_fuzzy_place,
    compose_type2,
    compose_type2_link,
    compose_type2_place,
    derive_ports,
    chain,
    embed_bigraph,
    embed_link,
    embed_place,
    identity_bigraph,
    identity_link,
    identity_place,
    identity_type2_bigraph,
    tensor_fuzzy,
    tensor_fuzzy_link,
    tensor_fuzzy_place,
)
from fuzzybig.errors import ModelError, NameClashError, SignatureMismatchError, SupportOverlapError
from fuzzybig.relations import _AS_F, _AS_G, element_sort_key

from helpers import ALL_FRAMES, DiamondFrame, d
from type2_oracle import refilter_link, refilter_place

SIG = Signature({"K": 2, "L": 1, "M": 0})
DIAMOND = DiamondFrame()
FRAMES = (*ALL_FRAMES, DIAMOND)


def _pool(frame) -> list:
    """The positive degrees operands draw from: the whole frame but bottom,
    or a few levels of the unit interval."""
    if frame is DIAMOND:
        return [frame.value(frozenset(s)) for s in ("a", "b", "ab")]
    if frame.name == "unit-interval":
        return [d(s) for s in ("1/4", "1/2", "2/3", "3/4", "1")]
    if frame.name == "two-point":
        return [frame.top]
    return [frame.value(i) for i in range(1, frame.size)]


def _names(prefix: str, count: int) -> frozenset:
    return frozenset(f"{prefix}{i}" for i in range(count))


def _interfaces(rng) -> tuple:
    """Interfaces k -> m -> n; g's inner names equal its outer names, and
    its widths match, half the time."""
    inner = Interface(rng.randint(0, 2), _names("x", rng.randint(0, 2)))
    mid = Interface(rng.randint(1, 3), _names("y", rng.randint(1, 3)))
    outer = mid if rng.random() < 0.5 else Interface(rng.randint(1, 3), _names("z", rng.randint(1, 3)))
    return inner, mid, outer


def _rows(rng, pool, sources, targets_of) -> dict:
    """Up to two entries per source, onto targets drawn from
    ``targets_of(i)`` for the i-th source."""
    out = {}
    for i, source in enumerate(sources):
        targets = targets_of(i)
        for target in rng.sample(targets, rng.randint(0, min(2, len(targets)))):
            out[(source, target)] = rng.choice(pool)
    return out


def _parts(rng, frame, inner: Interface, outer: Interface, prefix: str) -> tuple:
    """Random rows for a bigraph ``inner -> outer``: nodes, edges, one
    control per node, an acyclic parent map and a link map."""
    pool = _pool(frame)
    nodes = [f"{prefix}v{i}" for i in range(rng.randint(0, 4))]
    edges = [f"{prefix}e{i}" for i in range(rng.randint(0, 3))]
    ctrl = {(v, rng.choice(sorted(SIG.controls))): rng.choice(pool) for v in nodes}
    roots = list(range(outer.width))
    prnt = _rows(rng, pool, nodes, lambda i: nodes[i + 1 :] + roots)
    prnt.update(_rows(rng, pool, range(inner.width), lambda i: nodes + roots))
    ctrl_rel = FuzzyRelation(frame, nodes, SIG.controls, ctrl)
    points = sorted(inner.names) + sorted(derive_ports(SIG, ctrl_rel))
    link_targets = edges + sorted(outer.names)
    link = _rows(rng, pool, points, lambda i: link_targets)
    return nodes, edges, ctrl, prnt, link


def _fuzzy(rng, frame, inner, outer, prefix) -> FuzzyBigraph:
    nodes, edges, ctrl, prnt, link = _parts(rng, frame, inner, outer, prefix)
    return FuzzyBigraph(
        FuzzyPlaceGraph(frame, SIG, inner.width, outer.width, nodes, ctrl, prnt),
        FuzzyLinkGraph(frame, SIG, inner.names, outer.names, nodes, edges, ctrl, link),
    )


def _type2(rng, frame, inner, outer, prefix, degree=None) -> Type2FuzzyBigraph:
    """Random type-2 rows; both parts at ``degree`` if it is given, else
    each at a degree drawn from the pool and bottom."""
    nodes, edges, ctrl, prnt, link = _parts(rng, frame, inner, outer, prefix)
    pool = _pool(frame)
    members = FuzzySet(frame, {v: rng.choice(pool) for v in nodes})
    edge_members = FuzzySet(frame, {e: rng.choice(pool) for e in edges})
    degrees = pool + [frame.bottom]
    return Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(
            frame, SIG, inner.width, outer.width, members, ctrl, prnt,
            rng.choice(degrees) if degree is None else degree,
        ),
        Type2FuzzyLinkGraph(
            frame, SIG, inner.names, outer.names, members, edge_members, ctrl, link,
            rng.choice(degrees) if degree is None else degree,
        ),
    )


def _pair(rng, frame, make, trial: int) -> tuple:
    inner, mid, outer = _interfaces(rng)
    return make(rng, frame, inner, mid, f"f{trial}_"), make(rng, frame, mid, outer, f"g{trial}_")


def _ordered(elements) -> list:
    return sorted(elements, key=element_sort_key)


def dense_sup_min(f_rel, g_rel, middle, f_kept, g_kept) -> dict:
    """Every pair of the composite's grid by the sup-min rule: f's entries
    onto ``f_kept`` as they stand, f's sources into g's targets at the join
    over ``middle`` of the meet of the two legs, and g's entries from
    ``g_kept`` as they stand; bottom is left out."""
    frame = f_rel.frame
    out = {}
    targets = _ordered(g_rel.codomain)
    for x in _ordered(f_rel.domain):
        for z in _ordered(f_kept):
            degree = f_rel.degree(x, z)
            if not degree.is_bottom():
                out[(x, z)] = degree
        for z in targets:
            degree = frame.join_all(f_rel.degree(x, m).meet(g_rel.degree(m, z)) for m in middle)
            if not degree.is_bottom():
                out[(x, z)] = degree
    for x in _ordered(g_kept):
        for z in targets:
            degree = g_rel.degree(x, z)
            if not degree.is_bottom():
                out[(x, z)] = degree
    return out


def _relations(graph) -> list:
    """The relations a graph of either kind holds, bigraph or part."""
    parts = [graph.place, graph.link] if hasattr(graph, "place") else [graph]
    out = []
    for part in parts:
        out.append(part.ctrl)
        out.append(part.prnt if hasattr(part, "prnt") else part.link)
    return out


def _snapshot(*graphs) -> list:
    return [(rel, rel.entry_dict()) for graph in graphs for rel in _relations(graph)]


def _assert_fresh(composite, snapshot) -> None:
    """The composite shares no entry dict with an operand, and every
    operand relation still holds the entries it held before."""
    operand_dicts = [id(rel._entries) for rel, _ in snapshot]
    for rel in _relations(composite):
        assert id(rel._entries) not in operand_dicts
    for rel, entries in snapshot:
        assert rel.entry_dict() == entries


def _fuzzy_expected(g, f) -> tuple:
    place = dense_sup_min(f.place.prnt, g.place.prnt, range(f.place.outer), f.nodes, g.nodes)
    link = dense_sup_min(f.link.link, g.link.link, f.link.outer, f.edges, g.link.ports)
    return place, link


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
def test_fuzzy_composites_match_the_dense_sup_min(frame):
    rng = random.Random(24)
    for trial in range(60):
        f, g = _pair(rng, frame, _fuzzy, trial)
        place, link = _fuzzy_expected(g, f)
        before = _snapshot(f, g)
        composite = compose_fuzzy(g, f)
        assert composite.place.prnt.entry_dict() == place
        assert composite.link.link.entry_dict() == link
        parts = compose_fuzzy_place(g.place, f.place), compose_fuzzy_link(g.link, f.link)
        assert parts == (composite.place, composite.link)
        for composed in (composite, *parts):
            _assert_fresh(composed, before)


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
def test_type2_composites_match_the_refilter_oracles(frame):
    rng = random.Random(24)
    guarded = 0
    for trial in range(60):
        f, g = _pair(rng, frame, _type2, trial)
        before = _snapshot(f, g)
        composite = compose_type2(g, f)
        assert composite.place.prnt.entry_dict() == refilter_place(g.place, f.place)
        assert composite.link.link.entry_dict() == refilter_link(g.link, f.link)
        parts = compose_type2_place(g.place, f.place), compose_type2_link(g.link, f.link)
        assert parts == (composite.place, composite.link)
        for composed in (composite, *parts):
            _assert_fresh(composed, before)
        # The guard drops entries: the fuzzy composite of the same rows,
        # which has no guard, holds more.
        plain = compose_fuzzy(_untyped(g), _untyped(f))
        kept = len(composite.place.prnt) + len(composite.link.link)
        guarded += len(plain.place.prnt) + len(plain.link.link) > kept
    if frame.name != "two-point":
        assert guarded >= 10


def _untyped(b: Type2FuzzyBigraph) -> FuzzyBigraph:
    """The fuzzy bigraph of a type-2 one's rows, memberships dropped."""
    nodes, edges = b.nodes.support, b.link.edge_support
    return FuzzyBigraph(
        FuzzyPlaceGraph(b.frame, SIG, b.place.inner, b.place.outer, nodes, b.ctrl, b.place.prnt),
        FuzzyLinkGraph(b.frame, SIG, b.link.inner, b.link.outer, nodes, edges, b.ctrl, b.link.link),
    )


def test_then_matches_the_dense_sup_min_on_the_diamond():
    rng = random.Random(24)
    pool = _pool(DIAMOND)
    for trial in range(60):
        left, mid, right = (_names(p, rng.randint(1, 4)) for p in "lmr")
        r = FuzzyRelation(DIAMOND, left, mid, _rows(rng, pool, sorted(left), lambda i: sorted(mid)))
        s = FuzzyRelation(DIAMOND, mid, right, _rows(rng, pool, sorted(mid), lambda i: sorted(right)))
        before = (r.entry_dict(), s.entry_dict())
        out = r.then(s)
        assert out.entry_dict() == dense_sup_min(r, s, _ordered(mid), (), ())
        assert (out.domain, out.codomain) == (r.domain, s.codomain)
        assert out._entries is not r._entries and out._entries is not s._entries
        assert (r.entry_dict(), s.entry_dict()) == before


def test_a_routed_key_may_equal_a_walked_key():
    # f sends u to roots 0 and 1 and g swaps them, so each routed key is the
    # key of the other walked entry; likewise through g's names y0 <-> y1.
    frame = DIAMOND
    a, b, top = (frame.value(frozenset(s)) for s in ("a", "b", "ab"))
    ctrl = {("u", "L"): top}
    f = FuzzyBigraph(
        FuzzyPlaceGraph(frame, SIG, 0, 2, {"u"}, ctrl, {("u", 0): a, ("u", 1): b}),
        FuzzyLinkGraph(
            frame, SIG, (), ("y0", "y1"), {"u"}, (), ctrl,
            {(("u", 0), "y0"): a, (("u", 0), "y1"): b},
        ),
    )
    swap = {(0, 1): top, (1, 0): top}
    g = FuzzyBigraph(
        FuzzyPlaceGraph(frame, SIG, 2, 2, (), {}, swap),
        FuzzyLinkGraph(
            frame, SIG, ("y0", "y1"), ("y0", "y1"), (), (), {},
            {("y0", "y1"): top, ("y1", "y0"): top},
        ),
    )
    composite = compose_fuzzy(g, f)
    assert composite.place.prnt.entry_dict() == {("u", 1): a, ("u", 0): b}
    assert composite.link.link.entry_dict() == {(("u", 0), "y1"): a, (("u", 0), "y0"): b}
    # Below every degree, the guard keeps every entry.
    bottom = frame.bottom
    embedded = compose_type2(embed_bigraph(g, bottom, bottom), embed_bigraph(f, bottom, bottom))
    assert embedded.place.prnt.entry_dict() == {("u", 1): a, ("u", 0): b}
    assert embedded.link.link.entry_dict() == {(("u", 0), "y1"): a, (("u", 0), "y0"): b}


# --- preconditions ---------------------------------------------------------------

OVERLAPS = {
    "f node on g node": ("v", None, "['v']"),
    "f node on g edge": ("w", "v", "['v']"),
    "f edge on g node": ("e", None, "['e']"),
    "f edge on g edge": ("w", "e", "['e']"),
    "both, sorted": ("v", "e", "['e', 'v']"),
}


def _overlap_pair(g_node: str, g_edge, *, f_frame=U, g_sig=SIG, g_outer="z") -> tuple:
    """Composable fuzzy bigraphs ``<0,{}> -> <1,{y}> -> <1,{g_outer}>``, but
    for the faults the options give: f, over ``f_frame``, holds node v and
    edge e; g, over ``g_sig``, holds ``g_node`` and, if given, ``g_edge``."""
    top = f_frame.top
    f_ctrl = {("v", "L"): top}
    f = FuzzyBigraph(
        FuzzyPlaceGraph(f_frame, SIG, 0, 1, {"v"}, f_ctrl, {("v", 0): top}),
        FuzzyLinkGraph(f_frame, SIG, (), ("y",), {"v"}, ("e",), f_ctrl, {(("v", 0), "e"): top}),
    )
    top = U.top
    g_ctrl = {(g_node, "L"): top}
    g_edges = () if g_edge is None else (g_edge,)
    g_link = {("y", g_outer): top, ((g_node, 0), g_edge or g_outer): top}
    g = FuzzyBigraph(
        FuzzyPlaceGraph(U, g_sig, 1, 1, {g_node}, g_ctrl, {(g_node, 0): top, (0, 0): top}),
        FuzzyLinkGraph(U, g_sig, ("y",), (g_outer,), {g_node}, g_edges, g_ctrl, g_link),
    )
    return f, g


@pytest.mark.parametrize("case", OVERLAPS, ids=str)
def test_every_support_overlap_pairing_raises_one_message(case):
    g_node, g_edge, shared = OVERLAPS[case]
    f, g = _overlap_pair(g_node, g_edge)
    message = f"supports overlap on {shared}"
    calls = {
        "compose_fuzzy": lambda: compose_fuzzy(g, f),
        "compose_fuzzy_link": lambda: compose_fuzzy_link(g.link, f.link),
        "tensor_fuzzy_link": lambda: tensor_fuzzy_link(f.link, g.link),
        "compose_type2": lambda: compose_type2(embed_bigraph(g), embed_bigraph(f)),
        "compose_type2_link": lambda: compose_type2_link(embed_link(g.link), embed_link(f.link)),
    }
    for name, call in calls.items():
        with pytest.raises(SupportOverlapError) as caught:
            call()
        assert type(caught.value) is SupportOverlapError, name
        assert str(caught.value) == message, name


def test_bare_place_parts_name_their_node_overlap():
    f, g = _overlap_pair("v", None)
    for call in (lambda: compose_fuzzy_place(g.place, f.place),
                 lambda: tensor_fuzzy_place(f.place, g.place),
                 lambda: compose_type2_place(embed_place(g.place), embed_place(f.place))):
        with pytest.raises(SupportOverlapError) as caught:
            call()
        assert type(caught.value) is SupportOverlapError
        assert str(caught.value) == "supports overlap on nodes ['v']"


# A second fault of the pair, and what it raises once the supports are apart.
SECOND_FAULTS = {
    "frames differ": (
        {"f_frame": chain(5)}, SignatureMismatchError, "frames differ: chain:5 vs unit-interval"
    ),
    "signatures differ": (
        {"g_sig": Signature({"K": 2, "L": 1, "M": 0, "N": 1})},
        SignatureMismatchError,
        "signatures differ",
    ),
    "f edge on a g outer name": (
        {"g_outer": "e"}, NameClashError, "edge identifiers collide with outer names: ['e']"
    ),
}


@pytest.mark.parametrize("case", SECOND_FAULTS, ids=str)
def test_a_support_overlap_is_named_before_any_other_fault(case):
    options, error, message = SECOND_FAULTS[case]
    for g_node, expected, text in (
        ("v", SupportOverlapError, "supports overlap on ['v']"),
        ("w", error, message),
    ):
        f, g = _overlap_pair(g_node, None, **options)
        for call in (lambda: compose_fuzzy(g, f),
                     lambda: compose_type2(embed_bigraph(g), embed_bigraph(f))):
            with pytest.raises(ModelError) as caught:
                call()
            assert type(caught.value) is expected, (g_node, caught.value)
            assert str(caught.value) == text


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
def test_a_composite_holds_its_operands_controls_together(frame):
    rng = random.Random(7)
    for trial in range(30):
        for make, compose in ((_fuzzy, compose_fuzzy), (_type2, compose_type2)):
            f, g = _pair(rng, frame, make, trial)
            composite = compose(g, f)
            expected = f.ctrl.union(g.ctrl)
            assert composite.ctrl == expected
            assert composite.place.ctrl == expected
            assert composite.link.ctrl == expected


def _holds_one_node_set_and_control(h, place, link) -> None:
    """``h``'s parts hold one node set and one control relation, and equal
    ``place`` and ``link``, built alone from the same operands."""
    assert h.link.nodes is h.place.nodes and h.link.ctrl is h.place.ctrl
    assert h.place == place and h.link == link


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
def test_every_graded_bigraph_built_holds_one_node_set_and_control_relation(frame):
    """Composites, tensors, identities and embeddings build the node set
    and control relation once, for both parts; each part equals what its
    public part function builds alone."""
    rng = random.Random(36)
    pool = _pool(frame)
    for trial in range(20):
        f, g = _pair(rng, frame, _fuzzy, trial)
        _holds_one_node_set_and_control(
            compose_fuzzy(g, f),
            compose_fuzzy_place(g.place, f.place), compose_fuzzy_link(g.link, f.link),
        )
        x, y = _pair(rng, frame, _type2, trial)
        _holds_one_node_set_and_control(
            compose_type2(y, x),
            compose_type2_place(y.place, x.place), compose_type2_link(y.link, x.link),
        )
        a = _fuzzy(rng, frame, *_apart_interface(rng, "p", "q"), f"a{trial}_")
        b = _fuzzy(rng, frame, *_apart_interface(rng, "r", "s"), f"b{trial}_")
        _holds_one_node_set_and_control(
            tensor_fuzzy(a, b), tensor_fuzzy_place(a.place, b.place), tensor_fuzzy_link(a.link, b.link)
        )
        place_degree, link_degree = rng.choice(pool), rng.choice(pool)
        for embedded in (a, tensor_fuzzy(a, b), compose_fuzzy(g, f)):
            _holds_one_node_set_and_control(
                embed_bigraph(embedded, place_degree, link_degree),
                embed_place(embedded.place, place_degree), embed_link(embedded.link, link_degree),
            )
        interface = _interfaces(rng)[1]
        place = identity_place(interface.width, frame, SIG)
        link = identity_link(interface.names, frame, SIG)
        _holds_one_node_set_and_control(identity_bigraph(interface, frame, SIG), place, link)
        _holds_one_node_set_and_control(
            identity_type2_bigraph(interface, frame, SIG), embed_place(place), embed_link(link)
        )


# --- sets built when first read --------------------------------------------------


def _read_once(owner, name: str, expected) -> None:
    """``owner.name``, read here, equals ``expected``; a second read returns
    the same object."""
    first = getattr(owner, name)
    assert first == expected, name
    assert getattr(owner, name) is first, name


def _assert_sets_read_right(part) -> None:
    """Every set of a graph part that a composer may leave unbuilt, read
    first here: a fuzzy node or edge set's support is its keys, and each
    relation's domain and codomain are the sets the checked constructors
    derive from the part's fields."""
    ids = {}
    for name in ("nodes", "edges"):
        field = getattr(part, name, frozenset())
        if isinstance(field, FuzzySet):
            _read_once(field, "support", frozenset(dict(field.items())))
            assert repr(field).startswith("FuzzySet(")
            field = field.support
        ids[name] = field
    nodes = ids["nodes"]
    _read_once(part.ctrl, "domain", nodes)
    _read_once(part.ctrl, "codomain", SIG.controls)
    if hasattr(part, "prnt"):
        rel = part.prnt
        domain = frozenset(range(part.inner)) | nodes
        codomain = nodes | frozenset(range(part.outer))
    else:
        rel, domain, codomain = part.link, part.inner | part.ports, ids["edges"] | part.outer
    _read_once(rel, "domain", domain)
    _read_once(rel, "codomain", codomain)
    for shown in (part.ctrl, rel, part):
        assert repr(shown).startswith(type(shown).__name__ + "(")


def _apart_interface(rng, inner: str, outer: str) -> tuple:
    return tuple(
        Interface(rng.randint(0, 2), _names(prefix, rng.randint(0, 2))) for prefix in (inner, outer)
    )


@pytest.mark.parametrize("frame", ALL_FRAMES, ids=lambda frame: frame.name)
def test_sets_built_on_first_read_are_the_derived_ones(frame):
    rng = random.Random(32)
    for trial in range(20):
        for make, compose in ((_fuzzy, compose_fuzzy), (_type2, compose_type2)):
            f, g = _pair(rng, frame, make, trial)
            composite = compose(g, f)
            for part in (composite.place, composite.link):
                _assert_sets_read_right(part)
            assert repr(composite).startswith(type(composite).__name__ + "(")
        a = _fuzzy(rng, frame, *_apart_interface(rng, "p", "q"), f"a{trial}_")
        b = _fuzzy(rng, frame, *_apart_interface(rng, "r", "s"), f"b{trial}_")
        tensor = tensor_fuzzy(a, b)
        for part in (tensor.place, tensor.link):
            _assert_sets_read_right(part)
        for r, s in ((a.ctrl, b.ctrl), (a.link.link, b.link.link)):
            union = r.union(s)
            _read_once(union, "domain", r.domain | s.domain)
            _read_once(union, "codomain", r.codomain | s.codomain)
            assert repr(union).startswith("FuzzyRelation(")
        x = _type2(rng, frame, *_apart_interface(rng, "p", "q"), f"x{trial}_")
        y = _type2(rng, frame, *_apart_interface(rng, "r", "s"), f"y{trial}_")
        for r, s in ((x.nodes, y.nodes), (x.edges, y.edges)):
            union = r.union(s)
            _read_once(union, "support", frozenset(dict(union.items())))
            assert union.support == r.support | s.support
            assert repr(union).startswith("FuzzySet(")


# --- what an operand keeps between composes ----------------------------------------


def _rebuilt(b):
    """``b`` built again through the public constructors from its entries:
    equal to it, and holding nothing an earlier compose kept."""
    p, l = b.place, b.link
    if isinstance(b, Type2FuzzyBigraph):
        nodes = FuzzySet(b.frame, dict(b.nodes.items()))
        edges = FuzzySet(b.frame, dict(l.edges.items()))
        return Type2FuzzyBigraph(
            Type2FuzzyPlaceGraph(
                b.frame, SIG, p.inner, p.outer, nodes, p.ctrl.entry_dict(),
                p.prnt.entry_dict(), p.degree,
            ),
            Type2FuzzyLinkGraph(
                b.frame, SIG, l.inner, l.outer, nodes, edges, l.ctrl.entry_dict(),
                l.link.entry_dict(), l.degree,
            ),
        )
    return FuzzyBigraph(
        FuzzyPlaceGraph(b.frame, SIG, p.inner, p.outer, p.nodes, p.ctrl.entry_dict(), p.prnt.entry_dict()),
        FuzzyLinkGraph(
            b.frame, SIG, l.inner, l.outer, l.nodes, l.edges, l.ctrl.entry_dict(), l.link.entry_dict()
        ),
    )


def _has_kept_split(rel, role: int) -> bool:
    """Whether ``rel`` holds a kept split in ``role`` (``_AS_F`` or ``_AS_G``)."""
    return rel._kept is not None and rel._kept[role + 1] is not None


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
@pytest.mark.parametrize("make", (_fuzzy, _type2), ids=("fuzzy", "type2"))
def test_operands_composed_again_give_the_composites_of_fresh_operands(make, frame):
    """An operand composed again, with the same partner or another, and as
    f or as g, gives the composite of freshly rebuilt operands each time."""
    rng = random.Random(33)
    compose = compose_fuzzy if make is _fuzzy else compose_type2
    reused = 0
    for trial in range(25):
        inner, mid, outer = _interfaces(rng)
        f = make(rng, frame, inner, mid, f"f{trial}_")
        g0, g1 = (make(rng, frame, mid, outer, f"g{trial}{i}_") for i in range(2))
        h = make(rng, frame, outer, Interface(1, _names("w", 2)), f"h{trial}_")
        for left, right in ((g0, f), (g1, f), (h, g0), (g0, f), (h, g0), (g1, f), (g0, f)):
            reused += _has_kept_split(right.place.prnt, _AS_F) + _has_kept_split(left.link.link, _AS_G)
            assert compose(left, right) == compose(_rebuilt(left), _rebuilt(right))
    assert reused >= 25


def _ladder(frame) -> tuple:
    """Four degrees, low < mid < high < top."""
    if frame.name == "unit-interval":
        return tuple(d(s) for s in ("1/4", "1/2", "3/4", "1"))
    return tuple(frame.value(i) for i in range(1, 5))


@pytest.mark.parametrize("frame", (U, chain(5)), ids=lambda frame: frame.name)
def test_a_guard_that_fires_between_reuses_leaves_the_kept_split_sound(frame):
    """f is composed twice with g1, whose kappa lies below every degree of
    f, and so keeps its split; then with g2, whose kappa drops f entries
    and the f node v; then with g1 again, through the kept split.  Each
    composite is that of freshly rebuilt operands, and its entries are the
    refilter oracles'."""
    low, mid, high, top = _ladder(frame)
    ctrl = {("v", "K"): top, ("w", "L"): top}
    nodes = FuzzySet(frame, {"v": mid, "w": high})
    f = Type2FuzzyBigraph(
        Type2FuzzyPlaceGraph(
            frame, SIG, 1, 1, nodes, ctrl,
            {(0, "v"): high, ("v", "w"): mid, ("v", 0): low, ("w", 0): high}, high,
        ),
        Type2FuzzyLinkGraph(
            frame, SIG, {"x"}, {"y"}, nodes, FuzzySet(frame, {"e": top}), ctrl,
            {("x", "e"): low, (("v", 0), "y"): high, (("v", 1), "e"): high, (("w", 0), "y"): mid},
            high,
        ),
    )

    def g(degree, prefix):
        u = f"{prefix}u"
        g_ctrl, g_nodes = {(u, "L"): top}, FuzzySet(frame, {u: top})
        return Type2FuzzyBigraph(
            Type2FuzzyPlaceGraph(
                frame, SIG, 1, 1, g_nodes, g_ctrl, {(0, u): top, (u, 0): top, (0, 0): mid}, degree
            ),
            Type2FuzzyLinkGraph(
                frame, SIG, {"y"}, {"z"}, g_nodes, FuzzySet(frame, {}), g_ctrl,
                {("y", "z"): top, ((u, 0), "z"): high}, degree,
            ),
        )

    g1, g2 = g(low, "a"), g(top, "b")
    dropped = []
    for step, other in enumerate((g1, g1, g2, g1)):
        if step == 3:
            assert _has_kept_split(f.place.prnt, _AS_F) and _has_kept_split(f.link.link, _AS_F)
        composite = compose_type2(other, f)
        assert composite == compose_type2(_rebuilt(other), _rebuilt(f))
        assert composite.place.prnt.entry_dict() == refilter_place(other.place, f.place)
        assert composite.link.link.entry_dict() == refilter_link(other.link, f.link)
        dropped.append(len(composite.place.prnt) + len(composite.link.link))
    # g2's kappa drops entries of f, and every parent entry of the node v.
    assert dropped[2] < dropped[0] == dropped[1] == dropped[3]
    assert not any(child == "v" for child, _ in compose_type2(g2, f).place.prnt.entry_dict())


@pytest.mark.parametrize("frame", FRAMES, ids=lambda frame: frame.name)
def test_f_legs_kept_grouped_route_again_after_a_guard_that_fires(frame):
    """f, at degree top, is composed as f three times with g1, whose kappa
    is the meet of the degree pool, so no guard can fire and from the
    second compose on f's relations keep their crossing legs grouped by
    interface position; then with g2, at top, whose guard drops f's entries
    and nodes below top; then with g1 again, through the kept legs.  Each
    composite is that of rebuilt operands, with the refilter oracles'
    entries."""
    rng = random.Random(36)
    pool = _pool(frame)
    low = pool[0]
    for other in pool:
        low = low.meet(other)
    kept = drops = 0
    for trial in range(25):
        inner, mid, outer = _interfaces(rng)
        f = _type2(rng, frame, inner, mid, f"f{trial}_", frame.top)
        g1, g2 = (
            _type2(rng, frame, mid, outer, f"g{trial}{i}_", degree)
            for i, degree in ((1, low), (2, frame.top))
        )
        for step, g in enumerate((g1, g1, g1, g2, g1)):
            if step in (2, 4):
                kept += _has_kept_split(f.place.prnt, _AS_F) + _has_kept_split(f.link.link, _AS_F)
            composite = compose_type2(g, f)
            assert composite == compose_type2(_rebuilt(g), _rebuilt(f))
            assert composite.place.prnt.entry_dict() == refilter_place(g.place, f.place)
            assert composite.link.link.entry_dict() == refilter_link(g.link, f.link)
        drops += any(m != frame.top for _v, m in f.nodes.items())
    assert kept >= 50
    if frame.name != "two-point":
        assert drops >= 12


def test_a_link_relation_two_graphs_split_differently_is_split_for_each():
    """One link relation is held by two link graphs that split its codomain
    {e1, e2, y} into edges and outer names differently.  Composed as f with
    each in turn, it is split for the graph at hand, not by the split an
    earlier compose kept."""
    top, half = U.top, d("1/2")
    ctrl = {("v", "K"): top}
    link = FuzzyRelation(
        U, {"x", ("v", 0), ("v", 1)}, {"e1", "e2", "y"},
        {("x", "e1"): top, (("v", 0), "e2"): half, (("v", 1), "y"): top},
    )
    a = FuzzyLinkGraph(U, SIG, {"x"}, {"e2", "y"}, {"v"}, {"e1"}, ctrl, link)
    b = FuzzyLinkGraph(U, SIG, {"x"}, {"e1", "y"}, {"v"}, {"e2"}, ctrl, link)
    assert a.link is b.link is link

    def onto_z(inner):
        return FuzzyLinkGraph(U, SIG, inner, {"z"}, (), (), {}, {(n, "z"): top for n in inner})

    for f, g in ((a, onto_z({"e2", "y"})), (b, onto_z({"e1", "y"})), (a, onto_z({"e2", "y"}))):
        composite = compose_fuzzy_link(g, f)
        assert composite.link.entry_dict() == dense_sup_min(
            f.link, g.link, f.outer, f.edges, g.ports
        )
    assert compose_fuzzy_link(onto_z({"e1", "y"}), b).link.entry_dict() == {
        ("x", "z"): top, (("v", 0), "e2"): half, (("v", 1), "z"): top,
    }


def test_equality_and_repr_ignore_what_a_relation_keeps():
    rng = random.Random(5)
    inner, mid, outer = _interfaces(rng)
    f, g = _type2(rng, U, inner, mid, "f_"), _type2(rng, U, mid, outer, "g_")
    fresh = (_rebuilt(f), _rebuilt(g))
    for _ in range(3):
        compose_type2(g, f)
    values = [
        (f, fresh[0]), (g, fresh[1]), (f.place.prnt, fresh[0].place.prnt),
        (g.link.link, fresh[1].link.link), (f.nodes, fresh[0].nodes),
    ]
    for kept, bare in values:
        assert kept == bare and bare == kept
        assert repr(kept) == repr(bare)
