"""Tree construction, validation, linearizations, projectivity."""

import random
import re
import tracemalloc

import pytest

from deplen import (
    ROOT,
    CycleError,
    DepTree,
    DisconnectedError,
    Linearization,
    MultiRootError,
    Token,
    build_tree,
    char_count,
    is_projective,
    parse_conllu,
    random_tree,
)


def toks(n):
    return [Token(i, "w%d" % i) for i in range(1, n + 1)]


def tree_of(heads):
    n = len(heads)
    return build_tree(toks(n), heads)


class TestToken:
    def test_char_length_defaults_to_nfc_count(self):
        assert Token(1, "pomme").char_length == 5
        assert Token(1, "été").char_length == 3

    def test_nfc_composes_combining_marks(self):
        # e + combining acute twice: 5 code points, 3 characters
        decomposed = "été"
        assert char_count(decomposed) == 3
        assert Token(1, decomposed).char_length == 3

    def test_explicit_char_length_must_match_form(self):
        assert Token(1, "la", 2).char_length == 2
        with pytest.raises(ValueError):
            Token(1, "la", 3)

    def test_empty_form_needs_explicit_length(self):
        assert Token(1, "", 4).char_length == 4
        with pytest.raises(ValueError):
            Token(1, "")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Token(0, "x")
        with pytest.raises(ValueError):
            Token(1, "", 0)


class TestDepTree:
    def test_basic_accessors(self):
        t = tree_of({1: 2, 2: ROOT, 3: 4, 4: 2})
        assert t.n == 4
        assert t.root == 2
        assert t.token(3).form == "w3"
        assert t.head_of(1) == 2
        assert t.edges == ((2, 1), (4, 3), (2, 4))
        assert t.edge_set == {(2, 1), (4, 3), (2, 4)}
        assert t.children(2) == (1, 4)
        assert t.children(3) == ()
        assert t.descendants(4) == {3}
        assert t.descendants(2) == {1, 3, 4}
        assert t.subtree_size(4) == 2
        assert t.subtree_size(2) == 4

    def test_the_head_column_is_kept_by_token(self):
        t = tree_of({1: 2, 2: ROOT, 3: 4, 4: 2})
        assert t.head_column == (2, ROOT, 4, 2)
        assert t.heads == {1: 2, 2: ROOT, 3: 4, 4: 2}
        for index in (0, 5):
            with pytest.raises(KeyError):
                t.head_of(index)

    def test_columns_follow_the_tokens(self):
        t = build_tree([Token(2, "e\u0301te\u0301"), Token(1, "", 4)], {1: 2, 2: ROOT})
        assert "tokens" not in vars(t)  # stored as columns, built on first read
        assert t.forms == ("", "e\u0301te\u0301")
        assert t.char_lengths == (4, 3)
        assert [tok.index for tok in t.tokens] == [1, 2]
        assert t.sent_id is None

    def test_sizes_and_descendants_follow_the_heads(self):
        rng = random.Random(41)
        for _ in range(60):
            t = random_tree(rng.randrange(1, 41), rng)
            above = {}  # each token's proper ancestors, by walking its heads
            for i in range(1, t.n + 1):
                above[i], h = set(), t.head_of(i)
                while h != ROOT:
                    above[i].add(h)
                    h = t.head_of(h)
            for v in range(1, t.n + 1):
                below = {i for i in above if v in above[i]}
                assert t.descendants(v) == below
                assert t.subtree_size(v) == len(below) + 1

    def test_sizes_of_a_long_parsed_chain_take_linear_memory(self):
        n = 2000  # token i is headed by i - 1: sets of descendants take 87 MB
        text = "".join("%d\tw\t_\t_\t_\t_\t%d\t_\t_\t_\n" % (i, i - 1)
                       for i in range(1, n + 1))
        (t,) = parse_conllu(text)
        tracemalloc.start()
        try:
            sizes = [t.subtree_size(i) for i in range(1, n + 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [n - i + 1 for i in range(1, n + 1)]
        assert peak < 2 * 2**20

    def test_heads_copy_is_isolated(self):
        t = tree_of({1: 0, 2: 1})
        h = t.heads
        h[2] = 99
        assert t.head_of(2) == 1

    def test_requires_exactly_one_root(self):
        with pytest.raises(MultiRootError):
            tree_of({1: 0, 2: 0})
        with pytest.raises(MultiRootError):
            tree_of({1: 2, 2: 1})  # no root at all

    def test_rejects_self_head_and_cycles(self):
        with pytest.raises(CycleError):
            tree_of({1: 1, 2: 0})
        with pytest.raises(CycleError):
            tree_of({1: 0, 2: 3, 3: 4, 4: 2})

    def test_rejects_out_of_range_head(self):
        with pytest.raises(DisconnectedError):
            tree_of({1: 0, 2: 5})

    def test_rejects_bad_token_sets(self):
        with pytest.raises(ValueError):
            build_tree([], {})
        with pytest.raises(ValueError):
            build_tree([Token(1, "a"), Token(3, "b")], {1: 0, 3: 1})
        with pytest.raises(ValueError):
            build_tree([Token(1, "a"), Token(1, "b")], {1: 0})
        with pytest.raises(ValueError):
            build_tree(toks(2), {1: 0})  # missing head entry

    def test_column_constructor_equals_build_tree(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randrange(1, 30)
            heads = list(random_tree(n, rng).head_column)
            forms = [rng.choice(["", "w", "e\u0301te\u0301"]) for _ in range(n)]
            lengths = [char_count(f) if f else rng.randrange(1, 9) for f in forms]
            tokens = [Token(i, f, c) for i, (f, c) in enumerate(zip(forms, lengths), 1)]
            built = build_tree(tokens[::-1], dict(enumerate(heads, 1)))
            direct = DepTree(forms, heads, char_lengths=lengths)
            for attr in ("forms", "head_column", "root", "char_lengths", "sent_id"):
                assert getattr(direct, attr) == getattr(built, attr)
            if all(forms):  # lengths left out are counted from the forms
                assert DepTree(forms, heads).char_lengths == built.char_lengths
            assert DepTree(forms, heads, "s1").sent_id == "s1"

    @pytest.mark.parametrize("heads", [
        [2, 1], [0, 0], [1, 0], [0, 5], [0, 3, 4, 2],
    ], ids=["no-root", "two-roots", "self-head", "out-of-range", "cycle"])
    def test_both_constructors_raise_alike(self, heads):
        with pytest.raises((MultiRootError, CycleError, DisconnectedError)) as direct:
            DepTree(["w"] * len(heads), heads)
        with pytest.raises(type(direct.value), match="^%s$" % re.escape(str(direct.value))):
            tree_of(dict(enumerate(heads, 1)))

    def test_columns_must_match_the_heads_in_length(self):
        with pytest.raises(ValueError, match="forms has 1 entries for 2 heads"):
            DepTree(["a"], [0, 1])
        with pytest.raises(ValueError, match="char_lengths has 3 entries for 2 heads"):
            DepTree(["a", "b"], [0, 1], char_lengths=[1, 1, 1])

    def test_single_token_tree(self):
        t = tree_of({1: ROOT})
        assert t.n == 1
        assert t.edges == ()
        assert t.identity_linearization().seq == (1,)


class TestLinearization:
    def test_must_be_permutation(self):
        with pytest.raises(ValueError):
            Linearization((1, 1, 2))
        with pytest.raises(ValueError):
            Linearization((2, 3))

    def test_positions_and_reverse(self):
        lin = Linearization((3, 1, 2))
        assert lin.n == 3
        assert lin.position(3) == 1
        assert lin.positions() == {3: 1, 1: 2, 2: 3}
        assert lin.reverse().seq == (2, 1, 3)
        assert lin.reverse().reverse() == lin

    def test_a_token_outside_the_order_is_a_key_error(self):
        lin = Linearization((3, 1, 2))
        for token in (0, 4, -1, "1"):
            with pytest.raises(KeyError) as exc:
                lin.position(token)
            assert exc.value.args == (token,)

    def test_positions_equal_the_position_of_each_token(self):
        rng = random.Random(31)
        for n in range(1, 30):
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            want = {t: p for p, t in enumerate(seq, start=1)}
            assert lin.positions() == want
            assert [lin.position(t) for t in range(1, n + 1)] == [want[t] for t in range(1, n + 1)]
            lin.positions()[seq[0]] = 0  # a fresh dict each call
            assert lin.positions() == want

    def test_identity_and_from_positions(self):
        assert Linearization.identity(4).seq == (1, 2, 3, 4)
        lin = Linearization.from_positions({1: 3, 2: 1, 3: 2})
        assert lin.seq == (2, 3, 1)

    def test_from_positions_needs_the_positions_1_to_n(self):
        for positions in ({1: 1, 2: 1, 3: 2}, {1: 5, 2: 9, 3: 7}):
            with pytest.raises(ValueError, match="positions are not exactly 1..n"):
                Linearization.from_positions(positions)
        lin = Linearization((3, 1, 4, 2))
        assert Linearization.from_positions(lin.positions()) == lin


class TestProjectivity:
    def test_chain_in_order_is_projective(self):
        t = tree_of({1: 2, 2: 3, 3: 4, 4: 5, 5: 0})
        assert is_projective(t, t.identity_linearization())

    def test_crossing_arrangement_is_not(self):
        # edge (4, 2) spans token 3, which is outside 4's subtree
        t = tree_of({1: 0, 2: 4, 3: 1, 4: 1})
        assert not is_projective(t, t.identity_linearization())
        # moving 2 next to 4 repairs it
        assert is_projective(t, Linearization((1, 3, 2, 4)))

    def test_reversal_preserves_projectivity(self):
        rng = random.Random(411)
        for _ in range(60):
            t = random_tree(rng.randrange(2, 8), rng)
            seq = list(range(1, t.n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            assert is_projective(t, lin) == is_projective(t, lin.reverse())


class TestRandomTree:
    def test_shapes_are_valid_and_deterministic(self):
        a = [random_tree(n, random.Random(99)) for n in range(1, 9)]
        b = [random_tree(n, random.Random(99)) for n in range(1, 9)]
        for ta, tb in zip(a, b):
            assert ta.heads == tb.heads
            assert isinstance(ta, DepTree)

    def test_all_rooted_trees_on_three_tokens_appear(self):
        # 3^(3-1) = 9 rooted labeled trees on 3 nodes
        rng = random.Random(7)
        seen = set()
        for _ in range(600):
            t = random_tree(3, rng)
            seen.add(tuple(sorted(t.heads.items())))
        assert len(seen) == 9
