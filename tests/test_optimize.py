"""Exhaustive, constrained, and projective arrangement searches."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from deplen import (
    CostFunction,
    InfeasibleConstraintsError,
    Linearization,
    PrecedenceConstraint,
    Token,
    TooLargeError,
    Unit,
    brute_force_mla,
    build_tree,
    cost_D,
    enumerate_projective,
    is_projective,
    make_cost_function,
    parse_conllu,
    projective_mla,
    random_tree,
    sum_lengths,
    word_centers,
)
from deplen.optimize import projective_minimum, subset_minimum


def toks(n):
    return [Token(i, "w%d" % i) for i in range(1, n + 1)]


def chain3():
    return build_tree(toks(3), {1: 0, 2: 1, 3: 2})


def star3():
    return build_tree(toks(3), {1: 0, 2: 1, 3: 1})


def drawn_constraints(count, seed=29):
    """Seeded pairs and blocks over tokens 1..n, n <= 8, most of them cyclic."""
    rng = random.Random(seed)
    for k in range(count):
        tokens = list(range(1, rng.randrange(2, 9) + 1))
        draws = rng.randrange(1, 2 * len(tokens))
        pairs = {tuple(rng.sample(tokens, 2)) for _ in range(draws)}
        order = rng.sample(tokens, rng.randrange(len(tokens) + 1))
        cuts = sorted(rng.sample(range(1, len(order)), min(2, max(len(order) - 1, 0))))
        blocks = [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)]) if i < j]
        yield pytest.param(pairs, blocks or None, None, id="drawn-%d" % k)


def star(k):
    """A head with k one-character dependents."""
    words = [Token(i, "x") for i in range(1, k + 2)]
    return build_tree(words, {1: 0, **{i: 1 for i in range(2, k + 2)}})


class TestBruteForce:
    def test_star_with_two_dependents(self):
        res = brute_force_mla(star3())
        assert res.min_cost == 2
        assert [l.seq for l in res.optimal_orders] == [(2, 1, 3), (3, 1, 2)]
        assert res.searched == 6
        assert res.representative.seq == (2, 1, 3)

    def test_chain_keeps_middle_token_medial(self):
        res = brute_force_mla(chain3())
        assert res.min_cost == 2
        assert [l.seq for l in res.optimal_orders] == [(1, 2, 3), (3, 2, 1)]
        for lin in res.optimal_orders:
            assert lin.position(2) == 2

    def test_single_token(self):
        t = build_tree([Token(1, "x")], {1: 0})
        res = brute_force_mla(t)
        assert res.min_cost == 0
        assert res.searched == 1

    def test_size_guard(self):
        t = build_tree(toks(11), {i: i - 1 for i in range(1, 12)})
        with pytest.raises(TooLargeError):
            brute_force_mla(t)

    def test_squared_cost_shrinks_the_optimum_set(self):
        # root with three dependents, one of which carries two of its own:
        # identity tolerates lopsided orders that the convex cost rejects
        t = build_tree(toks(6), {1: 4, 2: 4, 3: 4, 4: 0, 5: 2, 6: 2})
        g2 = make_cost_function("power", exponent=2)
        res_id = brute_force_mla(t)
        res_sq = brute_force_mla(t, g=g2)
        assert res_id.min_cost == 7
        assert len(res_id.optimal_orders) == 32
        assert res_sq.min_cost == 11
        assert len(res_sq.optimal_orders) == 24
        assert set(res_sq.optimal_orders) < set(res_id.optimal_orders)
        assert res_id.representative.seq == (1, 3, 4, 2, 5, 6)

    def test_table_cost_scales_like_identity(self):
        t = chain3()
        doubled = make_cost_function("table", table={1: 2, 2: 4})
        res = brute_force_mla(t, g=doubled)
        base = brute_force_mla(t)
        assert res.min_cost == 2 * base.min_cost
        assert res.optimal_orders == base.optimal_orders

    def test_character_unit_prefers_short_words_far_away(self):
        # head and one short plus one long dependent: words unit ties,
        # characters put the long word adjacent
        t = build_tree(
            [Token(1, "", 1), Token(2, "", 1), Token(3, "", 9)],
            {1: 0, 2: 1, 3: 1},
        )
        res_w = brute_force_mla(t)
        assert res_w.min_cost == 2
        assert len(res_w.optimal_orders) == 2
        res_c = brute_force_mla(t, unit=Unit.CHARACTERS)
        # 1 _ 3(9 chars) 2 costs (1+9)/2+1 + ... ; keep 3 next to 1
        for lin in res_c.optimal_orders:
            assert abs(lin.position(3) - lin.position(1)) == 1

    def test_character_unit_general_cost(self):
        from itertools import permutations

        t = build_tree(
            [Token(1, "Marie"), Token(2, "mange"), Token(3, "la"), Token(4, "pomme")],
            {1: 2, 2: 0, 3: 4, 4: 2},
        )
        res = brute_force_mla(t, unit=Unit.CHARACTERS)
        assert res.min_cost == Fraction(33, 2)
        assert [l.seq for l in res.optimal_orders] == [(1, 2, 4, 3), (3, 4, 2, 1)]

        g2 = make_cost_function("power", exponent=2)
        res2 = brute_force_mla(t, unit=Unit.CHARACTERS, g=g2)

        def squared_cost(lin):
            centers = word_centers(t, lin)
            return sum(
                g2(Fraction(abs(centers[h] - centers[d]), 2)) for h, d in t.edges
            )

        want = min(
            squared_cost(Linearization(s)) for s in permutations(range(1, 5))
        )
        assert res2.min_cost == want

    def test_reversal_symmetry_of_optima(self):
        rng = random.Random(88)
        for _ in range(30):
            t = random_tree(rng.randrange(2, 7), rng)
            res = brute_force_mla(t)
            opts = {l.seq for l in res.optimal_orders}
            assert {tuple(reversed(s)) for s in opts} == opts

    def test_optimum_is_sound_on_random_trees(self):
        rng = random.Random(17)
        for _ in range(25):
            t = random_tree(rng.randrange(2, 7), rng)
            res = brute_force_mla(t)
            for lin in res.optimal_orders:
                assert cost_D(t, lin).D == res.min_cost
                assert sum_lengths(t, lin) == res.min_cost
            seq = list(range(1, t.n + 1))
            rng.shuffle(seq)
            assert sum_lengths(t, Linearization(tuple(seq))) >= res.min_cost

    def test_convex_costs_never_grow_the_optimum_set_on_stars(self):
        g2 = make_cost_function("power", exponent=2)
        for k in range(2, 6):
            star = build_tree(toks(k + 1), {1: 0, **{i: 1 for i in range(2, k + 2)}})
            id_set = set(brute_force_mla(star).optimal_orders)
            sq_set = set(brute_force_mla(star, g=g2).optimal_orders)
            assert sq_set <= id_set


class TestConstraints:
    def test_pair_filters_optima(self):
        res = brute_force_mla(
            star3(), constraint=PrecedenceConstraint(pairs={(3, 1)})
        )
        assert res.min_cost == 2
        assert [l.seq for l in res.optimal_orders] == [(3, 1, 2)]
        assert res.searched == 3  # half of the 6 permutations

    def test_blocks_are_contiguous_and_ordered(self):
        res = brute_force_mla(
            chain3(), constraint=PrecedenceConstraint(blocks=((2, 3), (1,)))
        )
        assert res.min_cost == 2
        assert [l.seq for l in res.optimal_orders] == [(3, 2, 1)]
        assert res.searched == 2  # internal order of the block stays free

    def test_pair_cycle_is_rejected_up_front(self, monkeypatch):
        with pytest.raises(InfeasibleConstraintsError):
            brute_force_mla(
                chain3(), constraint=PrecedenceConstraint(pairs={(1, 2), (2, 1)})
            )

        def scanned(self, pos):
            pytest.fail("an order was scanned under a cyclic constraint")

        monkeypatch.setattr(PrecedenceConstraint, "satisfied_by", scanned)
        chain10 = build_tree(toks(10), {i: i - 1 for i in range(1, 11)})
        with pytest.raises(InfeasibleConstraintsError):
            brute_force_mla(
                chain10, constraint=PrecedenceConstraint(pairs={(9, 10), (10, 9)})
            )

    @pytest.mark.parametrize(
        "pairs, blocks, cycle",
        [
            ({(1, 2), (2, 1), (3, 1), (2, 4)}, None, {1, 2}),
            ({(1, 2), (2, 3), (3, 1), (4, 1), (3, 5)}, None, {1, 2, 3}),
            ({(3, 1)}, ((1, 2), (3,), (4, 5)), {1, 3}),
            *drawn_constraints(40),
        ],
    )
    def test_cycle_error_names_a_token_on_the_cycle(self, pairs, blocks, cycle):
        named = [t for pair in pairs for t in pair]
        named += [t for block in blocks or () for t in block]
        n = max(5, *named)
        tree = build_tree(toks(n), {i: i - 1 for i in range(1, n + 1)})
        constraint = PrecedenceConstraint(pairs=pairs, blocks=blocks)
        succ = {t: set() for t in range(1, n + 1)}  # the implied orderings
        for a, b in pairs:
            succ[a].add(b)
        for i, block in enumerate(blocks or ()):
            for a in block:
                succ[a].update(t for later in blocks[i + 1:] for t in later)

        def on_a_cycle(t):
            reached, todo = set(), list(succ[t])
            while todo:
                u = todo.pop()
                if u not in reached:
                    reached.add(u)
                    todo.extend(succ[u])
            return t in reached

        if not any(map(on_a_cycle, succ)):  # an acyclic draw is searched
            res = brute_force_mla(tree, constraint=constraint)
            for lin in res.optimal_orders:
                assert constraint.satisfied_by(lin.positions())
            return
        with pytest.raises(InfeasibleConstraintsError) as exc:
            brute_force_mla(tree, constraint=constraint)
        message = str(exc.value)
        prefix = "precedence constraints contain a cycle through token "
        assert message.startswith(prefix)
        token = int(message[len(prefix):])
        assert on_a_cycle(token)
        assert cycle is None or token in cycle

    def test_block_order_conflicting_with_pair_is_a_cycle(self):
        with pytest.raises(InfeasibleConstraintsError):
            brute_force_mla(
                chain3(),
                constraint=PrecedenceConstraint(pairs={(3, 1)}, blocks=((1,), (3,))),
            )

    def test_acyclic_but_unsatisfiable(self):
        # 1 and 2 must stay adjacent while 3 sits strictly between them
        with pytest.raises(InfeasibleConstraintsError):
            brute_force_mla(
                chain3(),
                constraint=PrecedenceConstraint(
                    pairs={(1, 3), (3, 2)}, blocks=((1, 2),)
                ),
            )

    @pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
    @pytest.mark.parametrize(
        "pairs, blocks, token",
        [
            ({(1, 5)}, None, 5),
            (set(), [(2, 7)], 7),
            ({(0, 2)}, None, 0),
            ({(1, 2), (2, 1), (1, 9)}, None, 9),  # checked before the cycle
        ],
    )
    def test_token_outside_the_tree_is_rejected(self, unit, pairs, blocks, token):
        constraint = PrecedenceConstraint(pairs=pairs, blocks=blocks)
        message = "constraint names token %d, outside 1..3" % token
        with pytest.raises(ValueError, match=message):
            brute_force_mla(chain3(), unit=unit, constraint=constraint)

    def test_blocks_cut_the_search_to_admissible_prefixes(self, monkeypatch):
        def scanned(self, pos):
            pytest.fail("an order was generated before being tested")

        monkeypatch.setattr(PrecedenceConstraint, "satisfied_by", scanned)
        chain10 = build_tree(toks(10), {i: i - 1 for i in range(1, 11)})
        blocks = ((1, 2), (3, 4), (5, 6), (7, 8))
        start = time.perf_counter()
        res = brute_force_mla(chain10, constraint=PrecedenceConstraint(blocks=blocks))
        assert time.perf_counter() - start < 1.0  # 10! orders take seconds
        assert res.min_cost == 9
        assert res.searched == 480  # 2^4 orders inside the blocks, 6!/4! places for 9, 10
        assert [l.seq for l in res.optimal_orders] == [tuple(range(1, 11))]

    def test_token_in_two_blocks_rejected(self):
        with pytest.raises(ValueError):
            PrecedenceConstraint(blocks=((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            PrecedenceConstraint(blocks=((),))

    def test_satisfied_by(self):
        c = PrecedenceConstraint(pairs={(1, 2)}, blocks=((3, 4),))
        assert c.satisfied_by({1: 1, 2: 2, 3: 3, 4: 4})
        assert not c.satisfied_by({1: 2, 2: 1, 3: 3, 4: 4})
        assert not c.satisfied_by({1: 1, 2: 3, 3: 2, 4: 4})  # block split


class TestProjectiveEnumeration:
    def test_counts_match_the_product_formula(self):
        # product over nodes of (children + 1)!
        assert sum(1 for _ in enumerate_projective(chain3())) == 4
        star4 = build_tree(toks(4), {1: 0, 2: 1, 3: 1, 4: 1})
        assert sum(1 for _ in enumerate_projective(star4)) == 24

    def test_yields_exactly_the_projective_orders(self):
        rng = random.Random(33)
        for _ in range(12):
            t = random_tree(rng.randrange(2, 7), rng)
            got = {l.seq for l in enumerate_projective(t)}
            from itertools import permutations

            want = {
                s
                for s in permutations(range(1, t.n + 1))
                if is_projective(t, Linearization(s))
            }
            assert got == want

    def test_size_guard(self):
        t = build_tree(toks(13), {i: i - 1 for i in range(1, 14)})
        with pytest.raises(TooLargeError):
            next(enumerate_projective(t))

    def test_first_order_needs_little_memory(self):
        # 9! orders; listing them all first would take tens of megabytes
        star = build_tree(toks(9), {1: 0, **{i: 1 for i in range(2, 10)}})
        tracemalloc.start()
        try:
            next(enumerate_projective(star))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSubsetMinimum:
    def test_star_optima_are_counted_not_listed(self):
        # the head at position 5 or 6, its 9 dependents in any order: 2 * 9!
        start = time.perf_counter()
        res = subset_minimum(star(9))
        assert time.perf_counter() - start < 1
        assert (res.min_cost, res.optimal_count) == (25, 725_760)
        assert res.representative.seq == (2, 3, 4, 5, 1, 6, 7, 8, 9, 10)
        assert len(res.optimal_orders) == 1
        tracemalloc.start()
        try:
            subset_minimum(star(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_characters_let_only_the_shortest_word_be_crossed(self):
        words = [Token(1, "h"), Token(2, "a"), Token(3, "bbb"), Token(4, "c" * 9)]
        t = build_tree(words, {1: 0, 2: 1, 3: 1, 4: 1})
        res = subset_minimum(t)
        # the head at position 2 or 3, its dependents in any order
        assert (res.min_cost, res.optimal_count) == (4, 12)
        assert res.representative.seq == (2, 1, 3, 4)
        res = subset_minimum(t, Unit.CHARACTERS)
        # "a" beside the head, and a longer word beyond it on that side
        assert (res.min_cost, res.optimal_count) == (13, 4)
        assert res.representative.seq == (3, 1, 2, 4)
        assert res.searched == 24

    def test_size_guard_comes_before_any_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(
                TooLargeError, match="subset search is limited to n <= 16, got n = 17"
            ):
                subset_minimum(star(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a table over 2**17 placed sets takes over 1 MB


class TestProjectiveMinimum:
    def test_degree_cap_is_checked_before_g(self):
        calls = []

        class Counting(CostFunction):
            def __call__(self, d):
                calls.append(d)
                return super().__call__(d)

        with pytest.raises(
            TooLargeError,
            match="projective search is limited to 16 dependents per head, got 17",
        ):
            projective_minimum(star(17), Unit.CHARACTERS, Counting("identity"))
        assert calls == []

    def test_sixteen_dependents_are_searched(self):
        # one-character words sit 2 characters apart: eight per side
        res = projective_minimum(star(16), Unit.CHARACTERS)
        assert res.min_cost == 2 * 2 * sum(range(1, 9))
        assert res.representative.seq == (*range(2, 10), 1, *range(10, 18))
        assert res.searched == math.factorial(17)


    @pytest.mark.parametrize("unit, gap", [(Unit.WORDS, 1), (Unit.CHARACTERS, 2)])
    def test_a_long_parsed_chain_keeps_one_block_map(self, unit, gap):
        n = 2000  # token i is headed by i - 1: every subtree's map would take 32 MB
        text = "".join("%d\tw\t_\t_\t_\t_\t%d\t_\t_\t_\n" % (i, i - 1)
                       for i in range(1, n + 1))
        (t,) = parse_conllu(text)
        assert t.subtree_size(1) == len(t.char_lengths) == n  # counted before tracing
        tracemalloc.start()
        try:
            res = projective_minimum(t, unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.min_cost == gap * (n - 1)  # one-character words, 2 apart in chars
        assert res.representative.seq == tuple(range(1, n + 1))
        assert peak < 2 * 2**20

class TestProjectiveOptimum:
    def test_small_shapes(self):
        assert projective_mla(chain3()).min_cost == 2
        assert projective_mla(star3()).min_cost == 2
        star4 = build_tree(toks(4), {1: 0, 2: 1, 3: 1, 4: 1})
        assert projective_mla(star4).min_cost == 4

    def test_result_is_projective(self):
        rng = random.Random(21)
        for _ in range(40):
            t = random_tree(rng.randrange(1, 10), rng)
            res = projective_mla(t)
            assert is_projective(t, res.representative)
            assert sum_lengths(t, res.representative) == res.min_cost

    def test_matches_enumeration_minimum(self):
        rng = random.Random(55)
        for _ in range(60):
            t = random_tree(rng.randrange(2, 9), rng)
            res = projective_mla(t)
            best = min(sum_lengths(t, lin) for lin in enumerate_projective(t))
            assert res.min_cost == best

    def test_never_beats_the_unrestricted_minimum(self):
        rng = random.Random(70)
        for _ in range(25):
            t = random_tree(rng.randrange(2, 8), rng)
            assert projective_mla(t).min_cost >= brute_force_mla(t).min_cost

    def test_json_dict(self):
        d = projective_mla(chain3()).to_json_dict()
        assert d == {
            "min_cost": "2",
            "min_cost_dec": "2.0",
            "optimal_count": 1,
            "representative": [3, 2, 1],
            "searched": 1,
        }
