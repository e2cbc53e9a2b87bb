"""Fuzzy-category laws: degree meets, identities, witnesses for violations."""

import random
import tracemalloc

import pytest

from fuzzybig import (
    ArrowSystem,
    FuzzyArrow,
    Signature,
    UNIT_INTERVAL,
    chain,
    check_category_laws,
    compose_arrow,
    type2_arrow_system,
)
from fuzzybig.errors import NotComposableError, SupportOverlapError
from fuzzybig.generators import random_arrow_system, random_type2_bigraph, random_interface

from helpers import d

U = UNIT_INTERVAL
SIG = Signature({"K": 2, "L": 1, "M": 0})


def _toy_system():
    """Strings compose by concatenation; degrees are explicit."""
    arrows = [
        FuzzyArrow("A", "B", "f", d("1/2"), "f"),
        FuzzyArrow("B", "C", "g", d("9/10"), "g"),
        FuzzyArrow("C", "A", "h", d("3/4"), "h"),
    ]
    identities = {
        obj: FuzzyArrow(obj, obj, "", U.top, f"id{obj}") for obj in "ABC"
    }
    return ArrowSystem(
        U,
        "ABC",
        arrows,
        lambda gp, fp: fp + gp,
        identities,
    )


def test_arrows_are_equal_by_endpoints_payload_and_degree_but_not_name():
    f = FuzzyArrow("A", "B", "f", d("1/2"), "f")
    assert f == FuzzyArrow("A", "B", "f", d("1/2"), "renamed")
    assert f == FuzzyArrow("A", "B", "f", d("1/2"))
    assert f != FuzzyArrow("A", "B", "f", d("1/3"), "f")
    assert f != FuzzyArrow("A", "B", "g", d("1/2"), "f")
    assert f != FuzzyArrow("C", "B", "f", d("1/2"), "f")
    assert f != FuzzyArrow("A", "C", "f", d("1/2"), "f")
    assert f != "f"
    with pytest.raises(TypeError):
        hash(f)


def test_compose_meets_degrees():
    system = _toy_system()
    f, g, _h = system.arrows
    composite = compose_arrow(system, g, f)
    assert composite.degree == d("1/2")
    assert composite.payload == "fg"
    assert (composite.source, composite.target) == ("A", "C")


def test_identity_composes_without_changing_anything():
    system = _toy_system()
    f = system.arrows[0]
    out = system.compose(system.identities["B"], f)
    assert out.payload == f.payload and out.degree == f.degree


def test_mismatched_endpoints_raise():
    system = _toy_system()
    f, _g, h = system.arrows
    with pytest.raises(NotComposableError):
        system.compose(f, f)
    with pytest.raises(NotComposableError):
        compose_arrow(system, f, h)  # h ends at A, f starts at A: fine...
        # ...but f then h is the wrong way round
        compose_arrow(system, h, system.compose(h, system.arrows[1]))


def test_toy_system_passes_all_laws():
    report = check_category_laws(_toy_system())
    assert report.ok, str(report)
    assert report.pairs_checked > 0 and report.triples_checked > 0


def test_empty_system_passes_vacuously():
    system = ArrowSystem(U, (), (), lambda g, f: None, {})
    report = check_category_laws(system)
    assert report.ok
    assert report.pairs_checked == 0 and report.triples_checked == 0


def test_generated_type2_system_passes(seed=42):
    system = random_arrow_system(random.Random(seed), U, SIG, arrow_count=20)
    report = check_category_laws(system)
    assert report.ok, str(report)
    assert report.arrow_count == 20


def test_arrow_degree_is_the_payload_gamma():
    rng = random.Random(3)
    b = random_type2_bigraph(rng, U, SIG, random_interface(rng, 2, 2),
                             random_interface(rng, 2, 2), prefix="p_")
    system = type2_arrow_system(U, SIG, [b])
    (arrow,) = system.arrows
    assert arrow.degree == b.degree
    assert (arrow.source, arrow.target) == (b.inner, b.outer)


def test_corrupted_degree_is_rejected_with_a_witness():
    rng = random.Random(4)
    system = random_arrow_system(rng, U, SIG, arrow_count=8)
    victim = next(a for a in system.arrows if a.target == a.source or True)
    corrupted = FuzzyArrow(
        victim.source, victim.target, victim.payload,
        victim.degree.meet(d("1/97")), victim.name,
    )
    arrows = [corrupted if a is victim else a for a in system.arrows]
    mutated = ArrowSystem(
        system.frame, system.objects, arrows, system.compose_payloads,
        system.identities, system.payload_degree,
    )
    report = check_category_laws(mutated)
    assert not report.ok
    assert any(v.law == "degree law" for v in report.violations)
    assert any(victim.name in v.witness for v in report.violations)


def test_the_report_lists_each_violation_under_a_count():
    system = _toy_system()
    identities = {**system.identities, "A": FuzzyArrow("A", "A", "", d("1/2"), "idA")}
    report = check_category_laws(
        ArrowSystem(U, "ABC", system.arrows, system.compose_payloads, identities)
    )
    assert str(report) == "\n".join([
        "arrows: 3",
        "identity checks: 6",
        "pairs checked: 3",
        "triples checked: 3",
        "violations: 2",
        "  - identity degree: identity at A has degree 1/2",
        "  - identity law: identity composite differs from h",
    ])


class _JoiningSystem(ArrowSystem):
    """An arrow system whose composites carry the join of the degrees."""

    def compose(self, g, f):
        gf = super().compose(g, f)
        return FuzzyArrow(gf.source, gf.target, gf.payload, f.degree.join(g.degree), gf.name)


def test_a_composite_degree_other_than_the_meet_breaks_the_degree_law_on_payloads():
    generated = random_arrow_system(random.Random(4), U, SIG, arrow_count=8)
    system = _JoiningSystem(
        U, generated.objects, generated.arrows, generated.compose_payloads, {},
        generated.payload_degree,
    )
    report = check_category_laws(system)
    assert report.pairs_checked > 0
    assert {v.law for v in report.violations} == {"degree law"}
    assert all(v.witness.startswith("composite payload of ") for v in report.violations)


def test_an_identity_must_start_and_end_at_its_object():
    with pytest.raises(ValueError, match=r"^identity for A has wrong endpoints$"):
        ArrowSystem(U, "AB", (), lambda g, f: None, {"A": FuzzyArrow("A", "B", "", U.top)})


def test_an_identity_composite_that_overlaps_is_counted_and_skipped():
    system = _toy_system()

    def compose_payloads(gp, fp):
        if not (gp and fp):
            raise SupportOverlapError("an identity payload")
        return fp + gp

    report = check_category_laws(
        ArrowSystem(U, "ABC", system.arrows, compose_payloads, system.identities)
    )
    assert report.ok, str(report)
    assert (report.identity_checks, report.skipped_overlaps) == (6, 6)
    assert (report.pairs_checked, report.triples_checked) == (3, 3)


def test_sampled_mode_is_deterministic():
    system = random_arrow_system(random.Random(9), U, SIG, arrow_count=12)
    a = check_category_laws(system, samples=30, seed=5)
    b = check_category_laws(system, samples=30, seed=5)
    assert a.to_dict() == b.to_dict()
    c = check_category_laws(system, samples=30, seed=6)
    assert c.pairs_checked <= 30


def test_laws_hold_over_a_chain_frame_too():
    frame = chain(5)
    system = random_arrow_system(random.Random(21), frame, SIG, arrow_count=10)
    report = check_category_laws(system)
    assert report.ok, str(report)


def test_a_non_associative_composition_is_caught():
    """Memoised pair composites must not hide a law that fails: both sides
    of each associativity check are computed apart."""
    system = _toy_system()
    grouped = ArrowSystem(
        U, "ABC", system.arrows, lambda gp, fp: f"({fp}{gp})", system.identities,
        payload_eq=lambda a, b: a.replace("()", "") == b.replace("()", ""),
    )
    report = check_category_laws(grouped)
    assert report.triples_checked > 0
    assert report.triples_checked == sum(v.law == "associativity" for v in report.violations)


def _naive_counts(system, samples, seed):
    """Pairs and triples checked and overlaps skipped, from materialised
    lists of every composable pair and triple, with no composite reused."""
    arrows = system.arrows
    pairs = [(f, g) for f in arrows for g in arrows if f.target == g.source]
    triples = [(f, g, h) for f, g in pairs for h in arrows if g.target == h.source]
    if samples is not None:
        rng = random.Random(seed)
        if len(pairs) > samples:
            pairs = rng.sample(pairs, samples)
        if len(triples) > samples:
            triples = rng.sample(triples, samples)
    skipped = 0

    def composite(g, f):
        nonlocal skipped
        try:
            return system.compose(g, f)
        except SupportOverlapError:
            skipped += 1
            return None

    pairs_checked = sum(composite(g, f) is not None for f, g in pairs)
    triples_checked = 0
    for f, g, h in triples:
        gf, hg = composite(g, f), composite(h, g)
        if gf is not None and hg is not None:
            left, right = composite(h, gf), composite(hg, f)
            triples_checked += left is not None and right is not None
    return pairs_checked, triples_checked, skipped


@pytest.mark.parametrize("arrow_count, samples, seed", [
    (20, None, 42), (20, 200, 42), (20, 50, 7), (40, 300, 1), (12, 5, 9),
])
def test_sampling_and_memo_match_the_materialised_lists(arrow_count, samples, seed):
    generated = random_arrow_system(random.Random(seed), U, SIG, arrow_count=arrow_count)
    # no identities: every skipped overlap then comes from a pair or triple
    system = ArrowSystem(
        U, generated.objects, generated.arrows, generated.compose_payloads, {},
        generated.payload_degree,
    )
    report = check_category_laws(system, samples=samples, seed=seed)
    assert report.ok, str(report)
    got = (report.pairs_checked, report.triples_checked, report.skipped_overlaps)
    assert got == _naive_counts(system, samples, seed)


def test_sampled_laws_hold_only_the_pairs_in_memory():
    """These 400 arrows have ~7.2 million composable triples (~0.5 GB as a
    list); a sample of 50 must not build them."""
    system = random_arrow_system(random.Random(42), U, SIG, arrow_count=400)
    tracemalloc.start()
    try:
        report = check_category_laws(system, samples=50, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, str(report)
    assert report.pairs_checked + report.skipped_overlaps >= 50
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_sampled_laws_list_neither_pairs_nor_triples():
    """These 4,000 arrows have ~5.3 million composable pairs (~0.7 GB traced
    as a list with their triple offsets); a sample of 50 must not list them."""
    system = random_arrow_system(random.Random(42), U, SIG, arrow_count=4000)
    tracemalloc.start()
    try:
        report = check_category_laws(system, samples=50, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, str(report)
    assert report.pairs_checked + report.skipped_overlaps >= 50
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_laws_drop_each_composite_after_its_last_use():
    """2,000 drawn pairs and triples on 400 arrows: the memo held every pair
    composite until the check returned, ~39 MiB traced; dropped after
    its last use, a composite holds no memory beyond it."""
    system = random_arrow_system(random.Random(42), U, SIG, arrow_count=400)
    tracemalloc.start()
    try:
        report = check_category_laws(system, samples=2000, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, str(report)
    assert report.pairs_checked + report.skipped_overlaps >= 2000
    assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
