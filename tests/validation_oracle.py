"""The crisp and fuzzy place and link validators as they stood before they
sorted only the faulty elements, kept verbatim, and the depth-first cycle
check of the fuzzy place skeleton as it stood before Kahn's algorithm.

Each validator walks every node or point in sorted order and tests it.
The test suite compares the library's reports with these, problem by
problem and in order, and its cycle verdicts with this search's.
"""

from __future__ import annotations

from fuzzybig.crisp import LinkGraph, PlaceGraph, _rooted_nodes
from fuzzybig.errors import ValidationReport
from fuzzybig.fuzzy import FuzzyLinkGraph, FuzzyPlaceGraph
from fuzzybig.relations import FuzzyRelation


def validate_place_graph(p: PlaceGraph, subject: str = "place graph") -> ValidationReport:
    report = ValidationReport(subject)
    if p.inner < 0 or p.outer < 0:
        report.add("interface widths must be natural numbers")
    for v in sorted(p.nodes):
        control = p.ctrl.get(v)
        if control is None:
            report.add(f"control map is not total: node {v!r} has no control")
        elif control not in p.signature.arity:
            report.add(f"node {v!r} has unknown control {control!r}")
    for v in p.ctrl:
        if v not in p.nodes:
            report.add(f"control map mentions undeclared node {v!r}")
    domain = set(p.sites) | set(p.nodes)
    for child in sorted(domain, key=repr):
        if child not in p.prnt:
            report.add(f"parent map is not total: {child!r} has no parent")
    for child, parent in p.prnt.items():
        if child not in domain:
            report.add(f"parent map mentions unknown child {child!r}")
        if isinstance(parent, str):
            if parent not in p.nodes:
                report.add(f"parent of {child!r} is an undeclared node {parent!r}")
        elif isinstance(parent, int) and not isinstance(parent, bool):
            if not 0 <= parent < p.outer:
                report.add(f"parent of {child!r} is an out-of-range root {parent}")
        else:
            report.add(f"parent of {child!r} has unsupported sort: {parent!r}")
    rooted = _rooted_nodes(p.prnt, p.nodes)
    for v in sorted(p.nodes):
        if v in p.prnt and not rooted[v]:
            report.add(f"parent map is cyclic at node {v!r}")
    return report


def validate_link_graph(l: LinkGraph, subject: str = "link graph") -> ValidationReport:
    report = ValidationReport(subject)
    for v in sorted(l.nodes):
        control = l.ctrl.get(v)
        if control is None:
            report.add(f"control map is not total: node {v!r} has no control")
        elif control not in l.signature.arity:
            report.add(f"node {v!r} has unknown control {control!r}")
    overlap = l.edges & l.outer
    if overlap:
        report.add(f"edge identifiers collide with outer names: {sorted(overlap)}")
    overlap = l.nodes & l.edges
    if overlap:
        report.add(f"node and edge identifiers overlap: {sorted(overlap)}")
    points = l.points
    for point in sorted(points, key=repr):
        if point not in l.link:
            report.add(f"link map is not total: point {point!r} is unlinked")
    links = l.edges | l.outer
    for point, target in l.link.items():
        if isinstance(point, tuple) and len(point) == 2:
            v, index = point
            if v not in l.nodes:
                report.add(f"link map mentions a port of undeclared node {v!r}")
            else:
                control = l.ctrl.get(v)
                bound = l.signature.arity.get(control, 0) if control else 0
                if not isinstance(index, int) or not 0 <= index < bound:
                    report.add(
                        f"port ({v!r}, {index}) violates the arity bound of control "
                        f"{control!r} ({bound} port(s))"
                    )
        elif isinstance(point, str):
            if point not in l.inner:
                report.add(f"link map mentions undeclared inner name {point!r}")
        else:
            report.add(f"link map has a point of unsupported sort: {point!r}")
        if target not in links:
            report.add(f"link target {target!r} is neither an edge nor an outer name")
    return report


def skeleton_is_acyclic(prnt: FuzzyRelation, nodes: frozenset[str]) -> bool:
    """Depth-first cycle check of the positive node-to-node parent pairs.

    The search keeps an explicit stack, so nesting depth is not bounded by
    the interpreter's recursion limit.
    """
    succ: dict[str, list[str]] = {}
    for c, p in {(c, p) for (c, p), _d in prnt.items() if c in nodes and p in nodes}:
        succ.setdefault(c, []).append(p)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for start in sorted(succ):
        if state.get(start) == 2:
            continue
        state[start] = 1
        stack = [(start, iter(succ[start]))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                mark = state.get(w)
                if mark == 1:
                    return False
                if mark is None:
                    state[w] = 1
                    stack.append((w, iter(succ.get(w, ()))))
                    break
            else:
                state[v] = 2
                stack.pop()
    return True


def validate_fuzzy_place(
    p: FuzzyPlaceGraph, subject: str = "fuzzy place graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    if not skeleton_is_acyclic(p.prnt, p.nodes):
        report.add("the positive part of the parent relation has a cycle")
    parented = {c for (c, _t), _d in p.prnt.items()}
    for site in range(p.inner):
        if site not in parented:
            report.add(f"site {site} has no parent of positive degree")
    for v in sorted(p.nodes):
        if v not in parented:
            report.add(f"node {v!r} has no parent of positive degree")
    return report


def validate_fuzzy_link(
    l: FuzzyLinkGraph, subject: str = "fuzzy link graph"
) -> ValidationReport:
    report = ValidationReport(subject)
    linked = {q for (q, _t), _d in l.link.items()}
    for point in sorted(l.points, key=repr):
        if point not in linked:
            report.add(f"point {point!r} has no link of positive degree")
    return report
