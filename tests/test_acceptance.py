"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance here is exact equality; degrees are
exact rationals or chain elements, so nothing depends on rounding.
"""

import random
import time

from fuzzybig import (
    ArrowSystem,
    FuzzyArrow,
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    Interface,
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    UNIT_INTERVAL,
    chain,
    check_category_laws,
    check_support_translation,
    check_type2_support_translation,
    compose_crisp,
    compose_fuzzy,
    compose_fuzzy_place,
    compose_type2,
    export_dot,
    fuzzify,
    identity_bigraph,
    load_document,
    make_type2_translation,
    serialize,
    tensor_fuzzy,
    translate_fuzzy,
    translate_type2,
    validate_document,
)
from fuzzybig.fuzzy import SupportTranslation
from fuzzybig.generators import (
    DEFAULT_SIGNATURE,
    random_arrow_system,
    random_degree,
    random_fuzzy_chain,
    random_fuzzy_place,
    random_interface,
    random_type2_bigraph,
    random_type2_chain,
)

from crisp_oracle import compose_direct, enumerate_composable_pairs
from type2_oracle import refilter_link, refilter_place

U = UNIT_INTERVAL
CHAIN5 = chain(5)
SIG = DEFAULT_SIGNATURE

SWEEP_BUDGET = 6
SWEEP_PAIR_COUNT = 36545  # frozen size of the exhaustive budget-6 sweep


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_composition_associativity():
    started = time.monotonic()
    checked = 0
    for frame, seed in ((U, 101), (CHAIN5, 102)):
        rng = random.Random(seed)
        for _ in range(500):
            a, b, c = random_fuzzy_chain(rng, frame, SIG, 3,
                                         max_nodes=6, max_edges=4,
                                         max_width=3, max_names=3)
            left = compose_fuzzy(c, compose_fuzzy(b, a))
            right = compose_fuzzy(compose_fuzzy(c, b), a)
            assert left == right
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 1000
    assert elapsed < 30.0
    _report(
        "criterion 1 (associativity)",
        f"{checked} randomized composable triples, exact equality, {elapsed:.1f}s",
    )


def test_criterion_2_identity_and_unit_laws():
    unit = {}
    checked = 0
    for frame, seed in ((U, 201), (CHAIN5, 202)):
        rng = random.Random(seed)
        unit[frame.name] = identity_bigraph(Interface(0, frozenset()), frame, SIG)
        for _ in range(250):
            f, g = random_fuzzy_chain(rng, frame, SIG, 2,
                                      max_nodes=6, max_edges=4,
                                      max_width=3, max_names=3)
            assert compose_fuzzy(identity_bigraph(f.outer, frame, SIG), f) == f
            assert compose_fuzzy(g, identity_bigraph(g.inner, frame, SIG)) == g
            assert tensor_fuzzy(f, unit[frame.name]) == f
            assert tensor_fuzzy(unit[frame.name], f) == f
            checked += 1
    _report(
        "criterion 2 (identity and unit laws)",
        f"{checked} generated bigraphs, id∘f = f, g∘id = g, f⊗ε = f exact",
    )


def test_criterion_3_crisp_oracle_equivalence():
    started = time.monotonic()
    pair_count = 0
    maxima = {"nodes": 0, "edges": 0, "width": 0, "names": 0}
    fuzzy_cache: dict = {}

    def cached_fuzzify(b):
        key = id(b)
        if key not in fuzzy_cache:
            fuzzy_cache[key] = fuzzify(b)
        return fuzzy_cache[key]

    keepalive = []
    for f, g in enumerate_composable_pairs(SWEEP_BUDGET):
        keepalive.append(f)
        keepalive.append(g)
        composed_then_fuzzified = fuzzify(compose_crisp(g, f))
        fuzzified_then_composed = compose_fuzzy(cached_fuzzify(g), cached_fuzzify(f))
        assert composed_then_fuzzified == fuzzified_then_composed
        assert compose_crisp(g, f) == compose_direct(g, f)
        pair_count += 1
        maxima["nodes"] = max(maxima["nodes"], len(f.nodes) + len(g.nodes))
        maxima["edges"] = max(maxima["edges"], len(f.edges) + len(g.edges))
        for iface in (f.inner, f.outer, g.outer):
            maxima["width"] = max(maxima["width"], iface.width)
            maxima["names"] = max(maxima["names"], len(iface.names))
    elapsed = time.monotonic() - started
    assert pair_count == SWEEP_PAIR_COUNT
    assert maxima == {"nodes": 3, "edges": 2, "width": 2, "names": 2}
    assert elapsed < 60.0
    _report(
        "criterion 3 (crisp-oracle equivalence)",
        f"{pair_count} exhaustively enumerated composable pairs "
        f"(≤3 nodes, ≤2 edges, widths ≤2, ≤2 names attained), "
        f"zero discrepancies, {elapsed:.1f}s",
    )


def test_criterion_4_type2_degree_laws():
    rng = random.Random(401)
    constructions = 0
    for _ in range(200):
        b = random_type2_bigraph(
            rng, U, SIG, random_interface(rng, 2, 2), random_interface(rng, 2, 2),
            prefix=f"c4a{constructions}_", coherent=False,
        )
        assert b.degree == b.place.degree.meet(b.link.degree)
        constructions += 1
    composites = 0
    for trial in range(200):
        f, g = random_type2_chain(rng, U, SIG, 2, prefix=f"c4b{trial}_",
                                  coherent=False)
        composite = compose_type2(g, f)
        assert composite.place.degree == f.place.degree.meet(g.place.degree)
        assert composite.link.degree == f.link.degree.meet(g.link.degree)
        assert composite.degree == f.degree.meet(g.degree)
        assert composite.place.prnt.entry_dict() == refilter_place(g.place, f.place)
        assert composite.link.link.entry_dict() == refilter_link(g.link, f.link)
        composites += 1
    _report(
        "criterion 4 (type-2 degree laws)",
        f"gamma = beta∧delta on {constructions} constructions, kappa = mu∧nu and "
        f"threshold re-filter reproduced on {composites} sampled composites",
    )


def _mutate_fuzzy_copy(rng, f, g):
    """One detectable single-entry mutation of the (f, g) translation pair.

    Lowering a degree on the g side or raising one on the f side breaks the
    domination checks in one direction or the other.
    """
    side = rng.choice(("f", "g"))
    graph = f if side == "f" else g
    candidates = []
    for rel_name in ("ctrl", "prnt", "link"):
        rel = graph.ctrl if rel_name == "ctrl" else (
            graph.prnt if rel_name == "prnt" else graph.link.link
        )
        for (a, b), degree in rel.items():
            if side == "g" or degree.raw < 1:
                candidates.append((rel_name, a, b, degree))
    if not candidates:
        return None
    rel_name, a, b, degree = candidates[rng.randrange(len(candidates))]
    if side == "g":
        new_degree = U.value(degree.raw / 2)
    else:
        new_degree = U.value((degree.raw + 1) / 2)
    target = f if side == "f" else g
    rel = target.ctrl if rel_name == "ctrl" else (
        target.prnt if rel_name == "prnt" else target.link.link
    )
    mutated_rel = rel.with_entry(a, b, new_degree)
    if rel_name == "ctrl":
        place = FuzzyPlaceGraph(U, target.signature, target.place.inner,
                                target.place.outer, target.nodes, mutated_rel,
                                target.prnt)
        link = FuzzyLinkGraph(U, target.signature, target.link.inner,
                              target.link.outer, target.nodes, target.edges,
                              mutated_rel, target.link.link)
    elif rel_name == "prnt":
        place = FuzzyPlaceGraph(U, target.signature, target.place.inner,
                                target.place.outer, target.nodes, target.ctrl,
                                mutated_rel)
        link = target.link
    else:
        place = target.place
        link = FuzzyLinkGraph(U, target.signature, target.link.inner,
                              target.link.outer, target.nodes, target.edges,
                              target.ctrl, mutated_rel)
    mutated = FuzzyBigraph(place, link)
    return (mutated, g) if side == "f" else (f, mutated)


def _mutate_type2_copy(rng, g):
    """One single-entry mutation of a type-2 bigraph: any degree, membership
    or interface degree; detection is the loss of support equivalence."""
    kind = rng.choice(("prnt", "link", "node", "edge", "beta", "delta"))
    place, link = g.place, g.link
    if kind == "prnt" and len(place.prnt):
        (a, b), degree = sorted(place.prnt.items(), key=repr)[
            rng.randrange(len(place.prnt))
        ]
        place = Type2FuzzyPlaceGraph(U, g.signature, place.inner, place.outer,
                                     g.nodes, g.ctrl,
                                     place.prnt.with_entry(a, b, U.value(degree.raw / 2)),
                                     place.degree)
    elif kind == "link" and len(link.link):
        (a, b), degree = sorted(link.link.items(), key=repr)[
            rng.randrange(len(link.link))
        ]
        link = Type2FuzzyLinkGraph(U, g.signature, link.inner, link.outer,
                                   g.nodes, g.edges, g.ctrl,
                                   link.link.with_entry(a, b, U.value(degree.raw / 2)),
                                   link.degree)
    elif kind == "node" and len(g.nodes):
        v, memb = sorted(g.nodes.items())[rng.randrange(len(g.nodes))]
        nodes = g.nodes.with_membership(v, U.value(memb.raw / 2))
        trimmed_prnt = {
            pair: deg for pair, deg in place.prnt.items()
        }
        place = Type2FuzzyPlaceGraph(U, g.signature, place.inner, place.outer,
                                     nodes, g.ctrl, trimmed_prnt, place.degree)
        link = Type2FuzzyLinkGraph(U, g.signature, link.inner, link.outer,
                                   nodes, g.edges, g.ctrl,
                                   link.link.entry_dict(), link.degree)
    elif kind == "edge" and len(g.edges):
        e, memb = sorted(g.edges.items())[rng.randrange(len(g.edges))]
        edges = g.edges.with_membership(e, U.value(memb.raw / 2))
        link = Type2FuzzyLinkGraph(U, g.signature, link.inner, link.outer,
                                   g.nodes, edges, g.ctrl,
                                   link.link.entry_dict(), link.degree)
    elif kind == "beta":
        place = Type2FuzzyPlaceGraph(U, g.signature, place.inner, place.outer,
                                     g.nodes, g.ctrl, place.prnt,
                                     U.value(place.degree.raw / 2))
    elif kind == "delta":
        link = Type2FuzzyLinkGraph(U, g.signature, link.inner, link.outer,
                                   g.nodes, g.edges, g.ctrl, link.link,
                                   U.value(link.degree.raw / 2))
    else:
        return None
    return Type2FuzzyBigraph(place, link)


def test_criterion_5_support_translation_and_mutations():
    rng = random.Random(501)

    copies = 0
    fuzzy_detected = 0
    fuzzy_trials = 0
    while fuzzy_trials < 100:
        f = random_fuzzy_chain(rng, U, SIG, 1, prefix=f"c5f{fuzzy_trials}_",
                               max_nodes=4, max_edges=3)[0]
        rho = SupportTranslation(
            {v: f"r_{v}" for v in f.nodes}, {e: f"r_{e}" for e in f.edges}
        )
        g = translate_fuzzy(f, rho)
        report = check_support_translation(rho, f, g)
        assert report.ok, str(report)
        copies += 1
        mutated = _mutate_fuzzy_copy(rng, f, g)
        if mutated is None:
            continue
        mutated_f, mutated_g = mutated
        mutated_report = check_support_translation(rho, mutated_f, mutated_g)
        assert not mutated_report.ok
        fuzzy_detected += 1
        fuzzy_trials += 1

    type2_detected = 0
    type2_trials = 0
    while type2_trials < 100:
        f = random_type2_bigraph(
            rng, U, SIG, random_interface(rng, 2, 2), random_interface(rng, 2, 2),
            prefix=f"c5t{type2_trials}_", coherent=False,
        )
        rho = SupportTranslation(
            {v: f"r_{v}" for v in f.nodes.support},
            {e: f"r_{e}" for e in f.link.edge_support},
        )
        g = translate_type2(f, rho)
        rel_v, rel_e = make_type2_translation(f, g)
        report = check_type2_support_translation(rel_v, rel_e, f, g)
        assert report.support_equivalent, str(report)
        copies += 1
        mutated_g = _mutate_type2_copy(rng, g)
        if mutated_g is None:
            continue
        rel_v, rel_e = make_type2_translation(f, mutated_g)
        mutated_report = check_type2_support_translation(rel_v, rel_e, f, mutated_g)
        assert not mutated_report.support_equivalent
        type2_detected += 1
        type2_trials += 1

    assert fuzzy_detected == 100 and type2_detected == 100
    _report(
        "criterion 5 (support translation)",
        f"{copies} renamed copies pass; "
        f"{fuzzy_detected + type2_detected}/200 single-entry mutations detected",
    )


def test_criterion_6_fuzzy_category_laws():
    system = random_arrow_system(random.Random(42), U, SIG, arrow_count=20)
    report = check_category_laws(system)
    assert report.ok, str(report)
    assert report.arrow_count == 20

    victim = system.arrows[0]
    corrupted = FuzzyArrow(victim.source, victim.target, victim.payload,
                           U.value(victim.degree.raw / 2), victim.name)
    mutated = ArrowSystem(
        system.frame, system.objects,
        [corrupted] + list(system.arrows[1:]),
        system.compose_payloads, system.identities, system.payload_degree,
    )
    mutant_report = check_category_laws(mutated)
    assert not mutant_report.ok
    witnesses = [v for v in mutant_report.violations if victim.name in v.witness]
    assert witnesses, str(mutant_report)
    _report(
        "criterion 6 (fuzzy category laws)",
        f"20-arrow system passes identity/associativity/degree laws "
        f"({report.pairs_checked} pairs, {report.triples_checked} triples); "
        "corrupted degree rejected with a witness",
    )


def test_criterion_7_frame_distributivity():
    frames = (U, chain(5), __import__("fuzzybig").TWO_POINT)
    checked = 0
    for frame, seed in zip(frames, (701, 702, 703)):
        rng = random.Random(seed)
        for _ in range(10_000):
            x, y, z = (random_degree(rng, frame) for _ in range(3))
            left = x.meet(y.join(z))
            right = x.meet(y).join(x.meet(z))
            assert left == right
            checked += 1
    _report(
        "criterion 7 (frame distributivity)",
        f"meet-over-join exact on {checked} random triples across "
        "unit-interval, chain:5, two-point",
    )


def test_criterion_8_worked_example_reconstruction():
    doc = load_document("models/h_bigraph.fbg.json")
    reports = validate_document(doc)
    assert all(r.ok for r in reports)
    with open("models/h_bigraph.fbg.json", encoding="utf-8") as handle:
        original_text = handle.read()
    assert serialize(doc) == original_text
    h = doc.graph("h")
    assert h.place.inner == 3 and h.place.outer == 2
    assert h.inner.names == {"x1", "x2"} and h.outer.names == {"y"}
    roots = {_walk_root(h.place, v) for v in h.nodes}
    assert roots == {0, 1}  # a forest of two rooted trees
    for view in ("place", "link"):
        first = export_dot(doc, "h", view)
        second = export_dot(doc, "h", view)
        assert first == second and first
    _report(
        "criterion 8 (worked-example reconstruction)",
        "H model validates, round-trips byte-identically, DOT views deterministic",
    )


def _walk_root(place, node):
    current = node
    while isinstance(current, str):
        current = place.prnt[current]
    return current


def _independent_acyclic(pairs, nodes) -> bool:
    """Kahn-style cycle check, independent of the library's DFS."""
    succ: dict = {v: set() for v in nodes}
    indegree: dict = {v: 0 for v in nodes}
    for child, parent in pairs:
        if parent not in succ[child]:
            succ[child].add(parent)
            indegree[parent] += 1
    queue = [v for v in sorted(nodes) if indegree[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in sorted(succ[v]):
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return seen == len(succ)


def test_criterion_9_acyclicity_preservation():
    rng = random.Random(901)
    checked = 0
    for trial in range(1000):
        mid = rng.randint(1, 3)
        f = random_fuzzy_place(rng, U, SIG, rng.randint(0, 3), mid,
                               [f"c9f{trial}_{i}" for i in range(rng.randint(0, 5))])
        g = random_fuzzy_place(rng, U, SIG, mid, rng.randint(1, 3),
                               [f"c9g{trial}_{i}" for i in range(rng.randint(0, 5))])
        skeleton_f = [(c, p) for (c, p), _d in f.prnt.items()
                      if c in f.nodes and p in f.nodes]
        skeleton_g = [(c, p) for (c, p), _d in g.prnt.items()
                      if c in g.nodes and p in g.nodes]
        assert _independent_acyclic(skeleton_f, f.nodes)
        assert _independent_acyclic(skeleton_g, g.nodes)
        composite = compose_fuzzy_place(g, f)
        skeleton = [(c, p) for (c, p), _d in composite.prnt.items()
                    if c in composite.nodes and p in composite.nodes]
        assert _independent_acyclic(skeleton, composite.nodes)
        checked += 1
    assert checked == 1000
    _report(
        "criterion 9 (acyclicity preservation)",
        f"{checked} composable place-graph pairs, every composite skeleton acyclic",
    )
