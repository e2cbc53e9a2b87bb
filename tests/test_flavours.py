"""Renaming and identities agree across the crisp, fuzzy and type-2 flavours."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import (
    Interface,
    SupportTranslation,
    embed_bigraph,
    fuzzify,
    identity_bigraph,
    identity_crisp,
    identity_type2_bigraph,
    rename_crisp,
    translate_fuzzy,
    translate_type2,
)
from fuzzybig.generators import random_fuzzy_bigraph, random_interface

from helpers import ALL_FRAMES, H_SIGNATURE, assert_checked_rebuild, random_crisp_bigraph

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_renaming(rng: random.Random, nodes, edges) -> SupportTranslation:
    """A bijection onto a random mix of old and fresh identifiers."""

    def table(ids, fresh):
        ids = sorted(ids)
        pool = ids + [f"{fresh}{i}" for i in range(len(ids))]
        return dict(zip(ids, rng.sample(pool, len(ids))))

    return SupportTranslation(table(nodes, "n"), table(edges, "m"))


def outcome(build):
    """The built value, or the type of the error building it raised."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), SEEDS)
def test_crisp_renaming_commutes_with_fuzzify(frame, seed):
    rng = random.Random(seed)
    b = random_crisp_bigraph(
        rng, H_SIGNATURE, random_interface(rng), random_interface(rng), prefix="c"
    )
    rho = random_renaming(rng, b.nodes, b.edges)
    renamed = rename_crisp(b, rho.node_map, rho.edge_map)
    assert fuzzify(renamed, frame) == translate_fuzzy(fuzzify(b, frame), rho)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), SEEDS)
def test_fuzzy_renaming_commutes_with_the_type2_embedding(frame, seed):
    rng = random.Random(seed)
    f = random_fuzzy_bigraph(
        rng, frame, H_SIGNATURE, random_interface(rng), random_interface(rng), "f"
    )
    rho = random_renaming(rng, f.nodes, f.edges)
    # Embedding fails when a node's widest control is not its strongest;
    # renaming must not change that either.
    left = outcome(lambda: embed_bigraph(translate_fuzzy(f, rho)))
    right = outcome(lambda: translate_type2(embed_bigraph(f), rho))
    assert left == right
    if not isinstance(right, type):
        assert_checked_rebuild(right.ctrl, right.place.prnt, right.link.link)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FRAMES), SEEDS)
def test_identities_agree_across_flavours(frame, seed):
    rng = random.Random(seed)
    names = rng.sample(["x", "y", "z", "w"], rng.randint(0, 4))
    interface = Interface(rng.randint(0, 4), frozenset(names))
    crisp = identity_crisp(interface, H_SIGNATURE)
    fuzzy = identity_bigraph(interface, frame, H_SIGNATURE)
    assert crisp.inner == crisp.outer == interface
    assert fuzzify(crisp, frame) == fuzzy
    assert embed_bigraph(fuzzify(crisp, frame)) == identity_type2_bigraph(
        interface, frame, H_SIGNATURE
    )
