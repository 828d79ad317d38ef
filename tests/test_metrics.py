"""Edge lengths, word centers, histograms, and the aggregate cost D."""

import random
from fractions import Fraction

import pytest

from deplen import (
    DomainError,
    EmptyCorpusError,
    Linearization,
    Token,
    Unit,
    UnknownEdgeError,
    build_tree,
    cost_D,
    cost_function_from_spec,
    edge_length,
    generalized_cost,
    length_histogram,
    make_cost_function,
    random_tree,
    sum_lengths,
    word_centers,
)


def svo_tree():
    tokens = [Token(1, "Marie"), Token(2, "mange"), Token(3, "la"), Token(4, "pomme")]
    return build_tree(tokens, {1: 2, 2: 0, 3: 4, 4: 2})


class TestWordCenters:
    def test_centers_with_single_space_between_words(self):
        t = svo_tree()
        centers = word_centers(t, t.identity_linearization())
        # "Marie mange la pomme": centers at 3, 9, 13.5, 18
        assert centers[1] == Fraction(6)  # half units
        assert {i: Fraction(h, 2) for i, h in centers.items()} == {
            1: 3,
            2: 9,
            3: Fraction(27, 2),
            4: 18,
        }

    def test_centers_follow_the_arrangement(self):
        t = svo_tree()
        centers = word_centers(t, Linearization((4, 3, 2, 1)))
        # "pomme la mange Marie"
        assert {i: Fraction(h, 2) for i, h in centers.items()} == {
            4: 3,
            3: Fraction(15, 2),
            2: 12,
            1: 18,
        }


class TestEdgeLength:
    def test_word_distance_is_position_difference(self):
        t = svo_tree()
        lin = t.identity_linearization()
        assert edge_length(t, lin, (2, 4)).length == 2
        assert edge_length(t, lin, (2, 1)).length == 1
        assert edge_length(t, lin, (2, 4)).unit is Unit.WORDS

    def test_character_distance_is_center_difference(self):
        t = svo_tree()
        lin = t.identity_linearization()
        assert edge_length(t, lin, (2, 1), unit=Unit.CHARACTERS).length == 6
        assert edge_length(t, lin, (4, 3), unit=Unit.CHARACTERS).length == Fraction(9, 2)
        assert edge_length(t, lin, (2, 4), unit=Unit.CHARACTERS).length == 9

    def test_direction_does_not_matter(self):
        t = svo_tree()
        lin = Linearization((4, 3, 2, 1))
        assert edge_length(t, lin, (2, 1)).length == 1
        assert edge_length(t, lin, (2, 4)).length == 2

    def test_unknown_edge_rejected(self):
        t = svo_tree()
        lin = t.identity_linearization()
        with pytest.raises(UnknownEdgeError):
            edge_length(t, lin, (1, 2))  # reversed
        with pytest.raises(UnknownEdgeError):
            edge_length(t, lin, (3, 1))

    def test_order_of_another_size_rejected(self):
        t = svo_tree()
        for seq in ((1, 2, 3), (1, 2, 3, 4, 5)):
            for unit in Unit:
                with pytest.raises(ValueError, match="order has"):
                    sum_lengths(t, Linearization(seq), unit)

    def test_sum_of_lengths(self):
        t = svo_tree()
        assert sum_lengths(t, t.identity_linearization()) == 4
        assert (
            sum_lengths(t, t.identity_linearization(), unit=Unit.CHARACTERS)
            == Fraction(39, 2)
        )

    def test_character_lengths_ignore_absolute_offsets(self):
        # same shapes, one tree with longer words on the left edge
        a = build_tree([Token(1, "", 9), Token(2, "", 2), Token(3, "", 2)], {1: 0, 2: 1, 3: 2})
        lin = a.identity_linearization()
        d23 = edge_length(a, lin, (2, 3), unit=Unit.CHARACTERS).length
        assert d23 == 3  # only the two words around the gap matter


class TestHistogram:
    def test_counts_and_proportions(self, sample_trees):
        h = length_histogram([(t, t.identity_linearization()) for t in sample_trees])
        assert dict(h.counts) == {1: 11, 2: 2}
        assert h.total_edges == 13
        assert h.proportions() == {1: Fraction(11, 13), 2: Fraction(2, 13)}

    def test_csv_and_json_shapes(self, sample_trees):
        h = length_histogram([(t, t.identity_linearization()) for t in sample_trees])
        lines = h.to_csv().splitlines()
        assert lines[0] == "d,count,p"
        assert lines[1].startswith("1,11,")
        assert h.to_json_dict() == {
            "counts": {"1": 11, "2": 2},
            "total_edges": 13,
        }

    def test_needs_words_unit(self, sample_trees):
        pairs = [(t, t.identity_linearization()) for t in sample_trees]
        with pytest.raises(ValueError):
            length_histogram(pairs, unit=Unit.CHARACTERS)

    def test_empty_corpus_rejected(self):
        lone = build_tree([Token(1, "x")], {1: 0})
        with pytest.raises(EmptyCorpusError):
            length_histogram([])
        with pytest.raises(EmptyCorpusError):
            length_histogram([(lone, lone.identity_linearization())])


class TestCostD:
    def test_identity_cost_equals_total_length(self):
        t = svo_tree()
        rep = cost_D(t, t.identity_linearization())
        assert rep.D == 4
        assert rep.sum_lengths == 4
        assert rep.n == 4
        assert dict(rep.histogram.counts) == {1: 2, 2: 1}
        assert rep.histogram.proportions()[1] == Fraction(2, 3)

    def test_squared_cost(self):
        t = build_tree(
            [Token(1, "dort"), Token(2, "Marie"), Token(3, "bien")],
            {1: 0, 2: 1, 3: 1},
        )
        g2 = make_cost_function("power", exponent=2)
        rep = cost_D(t, t.identity_linearization(), g=g2)
        assert rep.D == 5  # 1^2 + 2^2
        assert rep.sum_lengths == 3

    def test_character_unit(self):
        t = svo_tree()
        rep = cost_D(t, t.identity_linearization(), unit=Unit.CHARACTERS)
        assert rep.D == Fraction(39, 2)
        assert rep.histogram is None  # histograms only count word distances

    def test_single_token(self):
        t = build_tree([Token(1, "x")], {1: 0})
        rep = cost_D(t, t.identity_linearization())
        assert rep.D == 0
        assert rep.histogram.total_edges == 0

    def test_json_dict_has_exact_and_decimal_fields(self):
        t = svo_tree()
        d = cost_D(t, t.identity_linearization(), unit=Unit.CHARACTERS).to_json_dict()
        assert d["D"] == "39/2"
        assert d["D_dec"] == "19.5"
        assert d["unit"] == "chars"

    def test_grouped_and_edgewise_sums_agree_on_random_input(self):
        # (n-1) * sum_d p(d) g(d) must equal the plain sum over edges
        rng = random.Random(314)
        g_pool = [
            None,
            make_cost_function("power", exponent=2),
            make_cost_function("log"),
            make_cost_function("table", table={d: d * d for d in range(1, 12)}),
        ]
        for _ in range(120):
            t = random_tree(rng.randrange(2, 9), rng)
            seq = list(range(1, t.n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            g = rng.choice(g_pool)
            rep = cost_D(t, lin, g=g)
            fn = g if g is not None else (lambda d: Fraction(d))
            edgewise = sum(
                fn(abs(lin.position(h) - lin.position(d))) for h, d in t.edges
            )
            assert rep.D == edgewise
            m = rep.histogram.total_edges
            grouped = (t.n - 1) * sum(
                p * fn(d) for d, p in rep.histogram.proportions().items()
            )
            assert m == t.n - 1
            assert grouped == rep.D

    @pytest.mark.parametrize("unit", list(Unit))
    @pytest.mark.parametrize("spec", ["identity", "power:2", "power:1/2", "log", "table"])
    def test_the_integer_report_reads_as_a_fraction_oracle(self, unit, spec):
        # lengths and D summed as Fractions from each word's first and last
        # character; a table is defined on integer distances only
        if spec == "table":
            g = make_cost_function("table", table={d: Fraction(d * d, 7) + d for d in range(1, 400)})
        else:
            g = cost_function_from_spec(spec)
        rng = random.Random("report/%s/%s" % (unit.value, spec))
        for _ in range(40):
            shape = random_tree(rng.randrange(1, 30), rng)
            odd = rng.random() < 0.5  # odd word lengths: integer distances in chars
            lengths = [rng.randrange(1, 10, 2 if odd else 1) for _ in range(shape.n)]
            tree = build_tree(
                [Token(i, "x" * lam) for i, lam in enumerate(lengths, 1)], shape.heads
            )
            seq = list(range(1, tree.n + 1))
            rng.shuffle(seq)
            lin = rng.choice([None, Linearization(tuple(seq))])
            order = seq if lin else range(1, tree.n + 1)
            center, start = {}, 0
            for t in order:
                lam = 1 if unit is Unit.WORDS else lengths[t - 1]
                center[t] = Fraction(2 * start + 1 + lam, 2)  # (first + last) / 2
                start += lam + (unit is Unit.CHARACTERS)  # a space between words
            lengths_of = [abs(center[h] - center[d]) for h, d in tree.edges]
            try:
                D = sum((g(d) for d in lengths_of), Fraction(0))
            except DomainError:
                with pytest.raises(DomainError):
                    cost_D(tree, lin, g, unit)
                continue
            rep = cost_D(tree, lin, g, unit)
            total = sum(lengths_of, Fraction(0))
            assert (rep.sum_lengths, rep.D) == (total, D)
            assert type(rep.sum_lengths) is type(rep.D) is Fraction
            counts = {}
            for d in lengths_of:
                counts[int(d)] = counts.get(int(d), 0) + 1
            if unit is Unit.WORDS:
                assert (rep.histogram.counts, rep.histogram.total_edges) == (counts, tree.n - 1)
            else:
                assert rep.histogram is None
            assert rep.to_json_dict() == {
                "n": tree.n,
                "unit": unit.value,
                "sum_lengths": fraction_str(total),
                "sum_lengths_dec": repr(float(total)),
                "D": fraction_str(D),
                "D_dec": repr(float(D)),
                "histogram": {
                    "counts": {str(d): counts[d] for d in sorted(counts)},
                    "total_edges": tree.n - 1,
                } if unit is Unit.WORDS else None,
            }


def fraction_str(value):
    return str(value.numerator) if value.denominator == 1 else str(value)


class TestMetricProperties:
    def test_reversal_symmetry_in_both_units(self):
        rng = random.Random(909)
        for _ in range(40):
            n = rng.randrange(2, 9)
            t = random_tree(n, rng, char_length=rng.randrange(1, 7))
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            rev = lin.reverse()
            for unit in (Unit.WORDS, Unit.CHARACTERS):
                assert sum_lengths(t, lin, unit) == sum_lengths(t, rev, unit)
                assert cost_D(t, lin, unit=unit).D == cost_D(t, rev, unit=unit).D

    def test_character_lengths_depend_only_on_length_sequence(self):
        # same shape and same lambdas, different surface forms
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randrange(2, 7)
            shape = random_tree(n, rng)
            lams = [rng.randrange(1, 6) for _ in range(n)]
            t1 = build_tree(
                [Token(i, "", lams[i - 1]) for i in range(1, n + 1)], shape.heads
            )
            t2 = build_tree(
                [Token(i, "abcdé"[: lams[i - 1]]) for i in range(1, n + 1)],
                shape.heads,
            )
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            assert sum_lengths(t1, lin, Unit.CHARACTERS) == sum_lengths(
                t2, lin, Unit.CHARACTERS
            )

    def test_pointwise_larger_cost_never_lowers_D(self):
        rng = random.Random(606)
        g2 = make_cost_function("power", exponent=2)
        lo = make_cost_function("table", table={d: d for d in range(1, 12)})
        hi = make_cost_function("table", table={d: d + 1 for d in range(1, 12)})
        for _ in range(40):
            n = rng.randrange(2, 9)
            t = random_tree(n, rng)
            seq = list(range(1, n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            # d <= d^2 for integer word distances d >= 1
            assert cost_D(t, lin).D <= cost_D(t, lin, g=g2).D
            assert cost_D(t, lin, g=lo).D <= cost_D(t, lin, g=hi).D


class TestGeneralizedCost:
    def test_distance_only_kernel_matches_sum(self):
        t = svo_tree()
        lin = t.identity_linearization()
        got = generalized_cost(t, lin, lambda h, d, dist: dist)
        assert got == sum_lengths(t, lin)

    def test_kernel_sees_both_tokens(self):
        t = svo_tree()
        lin = t.identity_linearization()
        got = generalized_cost(
            t, lin, lambda h, d, dist: dist * h.char_length * d.char_length
        )
        # word distances 1, 1, 2 weighted by 5*5, 5*2, 5*5
        assert got == 85

    def test_char_unit_kernel(self):
        t = svo_tree()
        lin = t.identity_linearization()
        got = generalized_cost(t, lin, lambda h, d, dist: 1, unit=Unit.CHARACTERS)
        assert got == 3  # one per edge
