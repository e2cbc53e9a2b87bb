"""Independent re-derivations of type-2 threshold composition and of
support equivalence.

The composition oracles walk the full child/target grid and apply the
threshold rules from scratch, sharing no code with the library's
entry-driven composition.  The equivalence oracle tries every renaming
that keeps memberships.  The test suite compares both with the library on
sampled inputs.
"""

from __future__ import annotations

from itertools import permutations

from fuzzybig import SupportTranslation, translate_type2


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
            if routes:
                out[(child, target)] = frame.join_all(routes)
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
            if routes:
                out[(point, target)] = frame.join_all(routes)
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
