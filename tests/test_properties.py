"""Property tests of the exact identity-cost search on generated trees."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from deplen import Linearization, Token, Unit, build_tree, cost_D, random_tree
from deplen.optimize import subset_minimum


@st.composite
def sentences(draw):
    """A random tree with n <= 12 and word lengths 1..9, and random orders."""
    n = draw(st.integers(1, 12))
    shape = random_tree(n, random.Random(draw(st.integers(0, 2**32))))
    lengths = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    tokens = [Token(i, "x" * lam) for i, lam in enumerate(lengths, start=1)]
    orders = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=20))
    return build_tree(tokens, shape.heads), orders


@settings(max_examples=60, deadline=None)
@given(sentences(), st.sampled_from(list(Unit)))
def test_the_representative_attains_a_minimum_no_order_beats(case, unit):
    tree, orders = case
    res = subset_minimum(tree, unit)
    assert cost_D(tree, res.representative, unit=unit).D == res.min_cost
    for seq in orders:
        assert cost_D(tree, Linearization(tuple(seq)), unit=unit).D >= res.min_cost
