"""Composition checked level by level against crisp Boolean composition.

Every shipped frame is a chain, so at each level alpha the cut of a
composite must equal the crisp composite of the operands' cuts
(``alpha_cut_oracle``).  For type-2 composites that holds at each level at
or above the guard kappa, once the entries of nodes whose membership falls
below kappa are removed; below kappa, the guarded entries are cut at kappa.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzybig import compose_fuzzy, compose_type2
from fuzzybig.generators import DEFAULT_SIGNATURE, random_fuzzy_chain, random_type2_chain

from alpha_cut_oracle import composite_cut, cut, levels
from helpers import ALL_FRAMES

frames = st.sampled_from(ALL_FRAMES)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_cuts_commute(h_rel, f_rel, g_rel, f_internal, g_internal, kappa=None, f_drop=(), g_drop=()):
    """``cut(h, alpha) == cut(f, alpha) ; cut(g, alpha)`` at every operand
    level, and composition made no new degree.

    Under a type-2 guard ``kappa``, f's entries and g's routed legs are cut
    at ``kappa`` at the levels below it, and g's internal entries are not.
    """
    assert levels(h_rel) <= levels(f_rel, g_rel)
    for alpha in levels(f_rel, g_rel):
        high = alpha if kappa is None or kappa <= alpha else kappa
        g_cut = cut(g_rel, high, g_drop) | {
            (b, c) for b, c in cut(g_rel, alpha, g_drop) if b in g_internal
        }
        expected = composite_cut(cut(f_rel, high, f_drop), g_cut, f_internal, g_internal)
        assert cut(h_rel, alpha) == expected, alpha


@settings(max_examples=60, deadline=None)
@given(frames, seeds)
def test_fuzzy_composition_commutes_with_every_alpha_cut(frame, seed):
    rng = random.Random(seed)
    f, g = random_fuzzy_chain(rng, frame, DEFAULT_SIGNATURE, 2, prefix="a")
    h = compose_fuzzy(g, f)
    _assert_cuts_commute(h.prnt, f.prnt, g.prnt, f.nodes, g.nodes)
    _assert_cuts_commute(h.link.link, f.link.link, g.link.link, f.edges, g.link.ports)


@settings(max_examples=60, deadline=None)
@given(frames, seeds)
def test_type2_composition_commutes_with_every_alpha_cut(frame, seed):
    rng = random.Random(seed)
    f, g = random_type2_chain(rng, frame, DEFAULT_SIGNATURE, 2, prefix="a", coherent=False)
    h = compose_type2(g, f)
    fp, gp = f.place, g.place
    kappa = min(fp.degree.raw, gp.degree.raw)
    _assert_cuts_commute(
        h.place.prnt,
        fp.prnt,
        gp.prnt,
        fp.node_support,
        gp.node_support,
        kappa,
        {v for v, m in fp.nodes.items() if not kappa <= m.raw},
        {v for v, m in gp.nodes.items() if not kappa <= m.raw},
    )
    fl, gl = f.link, g.link
    _assert_cuts_commute(
        h.link.link,
        fl.link,
        gl.link,
        fl.edge_support,
        gl.ports,
        min(fl.degree.raw, gl.degree.raw),
    )
