"""Property tests of the exact searches on generated trees."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deplen import (
    InfeasibleConstraintsError,
    Linearization,
    PrecedenceConstraint,
    Token,
    Unit,
    brute_force_mla,
    build_tree,
    cost_D,
    cost_function_from_spec,
    random_tree,
)
from deplen.optimize import subset_minimum

from oracles import admissible_orders


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


@st.composite
def constrained(draw):
    """A random tree with n <= 6 and a precedence pair, blocks, or both."""
    n = draw(st.integers(1, 6))
    shape = random_tree(n, random.Random(draw(st.integers(0, 2**32))))
    lengths = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    tokens = [Token(i, "x" * lam) for i, lam in enumerate(lengths, start=1)]
    pairs, blocks = set(), None
    kind = draw(st.sampled_from(("pair", "blocks", "both") if n > 1 else ("blocks",)))
    if kind != "blocks":
        pairs.add(tuple(draw(st.permutations(range(1, n + 1)))[:2]))
    if kind != "pair":
        order = draw(st.permutations(range(1, n + 1)))
        k = draw(st.integers(1, n))  # tokens in blocks
        cut = draw(st.integers(1, k))
        blocks = [b for b in (order[:cut], order[cut:k]) if b]
    return build_tree(tokens, shape.heads), PrecedenceConstraint(pairs=pairs, blocks=blocks)


@settings(max_examples=80, deadline=None)
@given(constrained(), st.sampled_from(list(Unit)), st.sampled_from(["identity", "power:2", "log"]))
def test_brute_force_lists_the_cheapest_admissible_orders(case, unit, spec):
    tree, constraint = case
    g = cost_function_from_spec(spec)
    admissible = admissible_orders(tree, constraint)
    if not admissible:
        with pytest.raises(InfeasibleConstraintsError):
            brute_force_mla(tree, unit, g, constraint)
        return
    costs = {seq: cost_D(tree, Linearization(seq), g, unit).D for seq in admissible}
    best = min(costs.values())
    res = brute_force_mla(tree, unit, g, constraint)
    assert res.min_cost == best
    assert [l.seq for l in res.optimal_orders] == [s for s in admissible if costs[s] == best]
    assert res.searched == len(admissible)


@st.composite
def twin_rich(draw):
    """A random tree with n <= 6 whose head of leaves gets up to 3 more,
    word lengths 1 or 3, and no constraint, a block or a pair."""
    m = draw(st.integers(1, 4))
    heads = list(random_tree(m, random.Random(draw(st.integers(0, 2**32)))).head_column)
    hub = draw(st.integers(1, m))
    heads += [hub] * draw(st.integers(0, 6 - m))
    n = len(heads)
    lengths = draw(st.lists(st.sampled_from((1, 3)), min_size=n, max_size=n))
    tokens = [Token(i, "x" * lam) for i, lam in enumerate(lengths, start=1)]
    constraint = None
    if n > 1:
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        constraint = draw(st.sampled_from((
            None, PrecedenceConstraint(blocks=[(a, b)]), PrecedenceConstraint(pairs={(a, b)})
        )))
    return build_tree(tokens, dict(enumerate(heads, 1))), constraint


@settings(max_examples=80, deadline=None)
@given(twin_rich(), st.sampled_from(list(Unit)), st.sampled_from(["identity", "power:2", "power:1/2", "log"]))
def test_twins_searched_once_give_every_optimum_of_a_scan(case, unit, spec):
    tree, constraint = case
    g = cost_function_from_spec(spec)
    admissible = admissible_orders(tree, constraint)
    costs = {seq: cost_D(tree, Linearization(seq), g, unit).D for seq in admissible}
    best = min(costs.values())
    optima = tuple(s for s in admissible if costs[s] == best)
    res = brute_force_mla(tree, unit, g, constraint)
    assert (res.min_cost, tuple(l.seq for l in res.optimal_orders)) == (best, optima)
    assert (res.searched, res.optimal_count) == (len(admissible), len(optima))
    assert res.optimal_count == len(res.optimal_orders)
    assert res.representative == res.optimal_orders[0]
    assert hash(res) == hash(brute_force_mla(tree, unit, g, constraint))
