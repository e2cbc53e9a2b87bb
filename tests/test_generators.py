"""Generator sanity: validity of outputs, seeded determinism."""

import os
import random
import subprocess
import sys

from fuzzybig import (
    TWO_POINT,
    UNIT_INTERVAL,
    chain,
    compose_fuzzy,
    compose_type2,
    serialize,
    ModelDocument,
    validate_fuzzy_bigraph,
)
from fuzzybig.generators import (
    DEFAULT_SIGNATURE,
    random_degree,
    random_fuzzy_chain,
    random_type2_chain,
)


def test_random_degrees_live_in_their_frames():
    rng = random.Random(0)
    for frame in (UNIT_INTERVAL, TWO_POINT, chain(5)):
        for _ in range(200):
            value = random_degree(rng, frame)
            assert frame.bottom.leq(value) and value.leq(frame.top)
            assert not random_degree(rng, frame, positive=True).is_bottom()


def test_generated_chains_are_valid_and_composable():
    rng = random.Random(1)
    for frame in (UNIT_INTERVAL, chain(5)):
        graphs = random_fuzzy_chain(rng, frame, DEFAULT_SIGNATURE, 3)
        for g in graphs:
            assert validate_fuzzy_bigraph(g).ok
        combined = graphs[0]
        for nxt in graphs[1:]:
            combined = compose_fuzzy(nxt, combined)
        assert validate_fuzzy_bigraph(combined).ok


def test_generated_type2_chains_compose():
    rng = random.Random(2)
    a, b = random_type2_chain(rng, UNIT_INTERVAL, DEFAULT_SIGNATURE, 2)
    composite = compose_type2(b, a)
    assert composite.degree == a.degree.meet(b.degree)


def test_same_seed_reproduces_the_same_models():
    def snapshot(seed):
        rng = random.Random(seed)
        graphs = random_fuzzy_chain(rng, UNIT_INTERVAL, DEFAULT_SIGNATURE, 2)
        doc = ModelDocument(
            UNIT_INTERVAL, DEFAULT_SIGNATURE,
            {f"g{i}": g for i, g in enumerate(graphs)},
        )
        return serialize(doc)

    assert snapshot(123) == snapshot(123)
    assert snapshot(123) != snapshot(124)


def test_coherent_degrees_sit_below_every_entry():
    rng = random.Random(3)
    for trial in range(30):
        (g,) = random_type2_chain(rng, UNIT_INTERVAL, DEFAULT_SIGNATURE, 1,
                                  prefix=f"c{trial}_")
        beta = g.place.degree
        for _pair, degree in g.place.prnt.items():
            assert beta.leq(degree)
        for _v, membership in g.nodes.items():
            assert beta.leq(membership)
        delta = g.link.degree
        for _pair, degree in g.link.link.items():
            assert delta.leq(degree)


TYPE2_CHAIN_SCRIPT = """
import random
from fuzzybig import UNIT_INTERVAL, ModelDocument, serialize
from fuzzybig.generators import DEFAULT_SIGNATURE, random_type2_chain
chain = random_type2_chain(random.Random(5), UNIT_INTERVAL, DEFAULT_SIGNATURE, 3)
doc = ModelDocument(UNIT_INTERVAL, DEFAULT_SIGNATURE, {f"t{i}": g for i, g in enumerate(chain)})
print(serialize(doc))
"""


def test_a_seeded_type2_chain_does_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", TYPE2_CHAIN_SCRIPT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2", "3")
    }
    assert len(outputs) == 1
