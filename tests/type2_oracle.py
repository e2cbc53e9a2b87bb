"""Independent re-derivations of type-2 threshold composition, of
support equivalence and of the type-2 translation checker.

The composition oracles walk the full child/target grid and apply the
threshold rules from scratch, sharing no code with the library's
entry-driven composition.  The equivalence oracle tries every renaming
that keeps memberships.  The dense checker evaluates the translation
constraints over every |f|x|g| pair, with the inequalities' sides built as
``identity ∪ rho ; g`` and ``f ; rho ∪ identity``; the library reads only
stored entries.  The test suite compares all of them with the library on
sampled inputs.
"""

from __future__ import annotations

from itertools import permutations

from fuzzybig import SupportTranslation, find_support_equivalence, translate_type2
from fuzzybig.errors import InterfaceMismatchError
from fuzzybig.fuzzy import TranslationCheck
from fuzzybig.relations import FuzzyRelation, identity_relation
from fuzzybig.type2 import Type2TranslationReport


def refilter_place(g, f) -> dict:
    """Expected parent entries of the composite type-2 place graph g . f."""
    kappa = f.degree.meet(g.degree)
    frame = f.frame
    out: dict = {}
    f_children = list(range(f.inner)) + sorted(f.node_support)
    targets_g = sorted(g.node_support) + list(range(g.outer))
    for child in f_children:
        memb = frame.top if isinstance(child, int) else f.nodes.membership(child)
        if not kappa.leq(memb):
            continue
        for target in sorted(f.node_support):
            deg = f.prnt.degree(child, target)
            if not deg.is_bottom() and kappa.leq(deg):
                out[(child, target)] = deg
        for target in targets_g:
            routes = []
            for j in range(f.outer):
                leg1 = f.prnt.degree(child, j)
                leg2 = g.prnt.degree(j, target)
                if leg1.is_bottom() or leg2.is_bottom():
                    continue
                if kappa.leq(leg1) and kappa.leq(leg2):
                    routes.append(leg1.meet(leg2))
            joined = frame.join_all(routes)
            if not joined.is_bottom():  # off a chain, meets can fall to bottom
                out[(child, target)] = joined
    for child in sorted(g.node_support):
        if not kappa.leq(g.nodes.membership(child)):
            continue
        for target in targets_g:
            deg = g.prnt.degree(child, target)
            if not deg.is_bottom():
                out[(child, target)] = deg
    return out


def refilter_link(g, f) -> dict:
    """Expected link entries of the composite type-2 link graph g . f."""
    kappa = f.degree.meet(g.degree)
    frame = f.frame
    out: dict = {}
    g_links = sorted(g.edge_support) + sorted(g.outer)
    for point in sorted(f.points, key=repr):
        for target in sorted(f.edge_support):
            deg = f.link.degree(point, target)
            if not deg.is_bottom() and kappa.leq(deg):
                out[(point, target)] = deg
        for target in g_links:
            routes = []
            for mid in sorted(f.outer):
                leg1 = f.link.degree(point, mid)
                leg2 = g.link.degree(mid, target)
                if leg1.is_bottom() or leg2.is_bottom():
                    continue
                if kappa.leq(leg1) and kappa.leq(leg2):
                    routes.append(leg1.meet(leg2))
            joined = frame.join_all(routes)
            if not joined.is_bottom():  # off a chain, meets can fall to bottom
                out[(point, target)] = joined
    for point in sorted(g.ports):
        for target in g_links:
            deg = g.link.degree(point, target)
            if not deg.is_bottom():
                out[(point, target)] = deg
    return out


def brute_force_equivalence(f, g):
    """A renaming under which g is exactly the image of f, or ``None``.

    Tries every pairing of f's nodes (and edges) with g's nodes (and edges)
    of equal membership, and keeps the first whose translate reproduces g.
    The cost is the product of the class sizes' factorials.
    """
    if f.inner != g.inner or f.outer != g.outer:
        return None

    def groups(a, b):
        by_degree_a: dict = {}
        by_degree_b: dict = {}
        for x, d in a.items():
            by_degree_a.setdefault(d, []).append(x)
        for x, d in b.items():
            by_degree_b.setdefault(d, []).append(x)
        if set(by_degree_a) != set(by_degree_b):
            return None
        out = []
        for d in by_degree_a:
            xs, ys = sorted(by_degree_a[d]), sorted(by_degree_b[d])
            if len(xs) != len(ys):
                return None
            out.append((xs, ys))
        return out

    node_groups = groups(f.nodes, g.nodes)
    edge_groups = groups(f.edges, g.edges)
    if node_groups is None or edge_groups is None:
        return None

    def pairings(group_list):
        if not group_list:
            yield {}
            return
        (xs, ys), rest = group_list[0], group_list[1:]
        for tail in pairings(rest):
            for perm in permutations(ys):
                table = dict(tail)
                table.update(zip(xs, perm))
                yield table

    for node_map in pairings(node_groups):
        for edge_map in pairings(edge_groups):
            rho = SupportTranslation(node_map, edge_map)
            if translate_type2(f, rho) == g:
                return rho
    return None


def dense_translated_sides(f_rel, g_rel, rho_sources, rho_targets, inner, outer):
    """The two sides of a translation inequality: g's relation pulled back
    along the renaming of its sources, and f's relation pushed forward
    along the renaming of its targets (interface positions map to
    themselves), built as ``identity ∪ rho ; g`` and ``f ; rho ∪ identity``."""
    frame = f_rel.frame
    pulled = identity_relation(frame, inner).union(rho_sources).then(g_rel)
    pushed = f_rel.then(rho_targets.union(identity_relation(frame, outer)))
    return pulled, pushed


def dense_check_type2_support_translation(
    rho_nodes: FuzzyRelation,
    rho_edges: FuzzyRelation,
    f: Type2FuzzyBigraph,
    g: Type2FuzzyBigraph,
) -> Type2TranslationReport:
    """Check the type-2 support-translation constraints from f to g, over
    every pair of f's and g's supports.

    The membership constraints and both inequalities are evaluated exactly
    as displayed, with the link inequality normalised to act on ports and
    links.  Support equivalence is reported when some bijective renaming of
    f reproduces g degree for degree.
    """
    if f.inner != g.inner or f.outer != g.outer:
        raise InterfaceMismatchError(
            f"interface mismatch: {f.inner}->{f.outer} vs {g.inner}->{g.outer}"
        )
    frame = f.frame
    for rel, dom, cod, what in (
        (rho_nodes, f.nodes.support, g.nodes.support, "node relation"),
        (rho_edges, f.link.edge_support, g.link.edge_support, "edge relation"),
    ):
        if not isinstance(rel, FuzzyRelation) or rel.frame != frame:
            raise ValueError(f"{what} is not a fuzzy relation over {frame.name}")
        for (a, b), _d in rel.items():
            if a not in dom or b not in cod:
                raise ValueError(f"{what} entry ({a!r}, {b!r}) is off-carrier")

    checks: list[TranslationCheck] = []

    for what, rel, a, b in (
        ("node", rho_nodes, f.nodes, g.nodes),
        ("edge", rho_edges, f.edges, g.edges),
    ):
        bad = [
            (x, y)
            for x in sorted(a.support)
            for y in sorted(b.support)
            if rel.degree(x, y) != b.membership(y)
        ]
        checks.append(
            TranslationCheck(
                f"{what} relation matches target memberships",
                not bad,
                "" if not bad else f"first mismatch at {bad[0]}",
            )
        )

    # control preservation: g's controls pulled along the node relation stay
    # below f's.
    pulled = rho_nodes.then(g.ctrl)
    ok_ctrl = pulled.leq(f.ctrl)
    checks.append(
        TranslationCheck(
            "control preservation",
            ok_ctrl,
            "" if ok_ctrl else "pulled-back control degrees exceed f's",
        )
    )

    # induced port relation: index-matched port pairs inherit the node degree.
    f_ports = f.link.ports
    g_ports = g.link.ports
    port_entries = {}
    for (v, i) in f_ports:
        for (w, j) in g_ports:
            if i == j:
                d = rho_nodes.degree(v, w)
                if not d.is_bottom():
                    port_entries[((v, i), (w, j))] = d
    rho_ports = FuzzyRelation(frame, f_ports, g_ports, port_entries)
    ok_ports = all(
        rho_nodes.degree(v, w).leq(rho_ports.degree((v, i), (w, i)))
        for (v, i) in f_ports
        for (w, j) in g_ports
        if i == j
    )
    checks.append(
        TranslationCheck(
            "port relation bound",
            ok_ports,
            "" if ok_ports else "a port pair falls below its node degree",
        )
    )

    lhs, rhs = dense_translated_sides(
        f.place.prnt, g.place.prnt, rho_nodes, rho_nodes, range(f.place.inner),
        range(f.place.outer),
    )
    ok_prnt = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            "parent inequality",
            ok_prnt,
            "" if ok_prnt else "translated parent degrees exceed the bound",
        )
    )

    lhs, rhs = dense_translated_sides(
        f.link.link, g.link.link, rho_ports, rho_edges, f.link.inner, f.link.outer
    )
    ok_link = lhs.leq(rhs)
    checks.append(
        TranslationCheck(
            "link inequality",
            ok_link,
            "" if ok_link else "translated link degrees exceed the bound",
        )
    )

    witness = find_support_equivalence(f, g)
    return Type2TranslationReport(
        checks, support_equivalent=witness is not None, witness=witness
    )
