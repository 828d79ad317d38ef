"""Corpus parsing, serialization, punctuation removal."""

import pytest

from deplen import (
    NonLeafPunctuationError,
    ParseError,
    Token,
    Unit,
    build_tree,
    cost_D,
    drop_punctuation,
    is_punctuation,
    parse_conllu,
    to_conllu,
)


def row(i, form, head):
    cols = [str(i), form, "_", "_", "_", "_", str(head), "_", "_", "_"]
    return "\t".join(cols)


class TestParse:
    def test_sample_corpus(self, sample_trees):
        assert len(sample_trees) == 5
        t1 = sample_trees[0]
        assert [t.form for t in t1.tokens] == ["Marie", "mange", "la", "pomme"]
        assert t1.heads == {1: 2, 2: 0, 3: 4, 4: 2}
        assert sample_trees[2].n == 5
        assert sample_trees[3].heads == {1: 2, 2: 0}

    def test_ranges_comments_empty_nodes_skipped(self, sample_trees):
        t5 = sample_trees[4]
        assert [t.form for t in t5.tokens] == ["De", "le", "calme", "!"]
        assert t5.heads == {1: 2, 2: 3, 3: 0, 4: 3}

    def test_sent_ids_and_char_lengths(self, sample_trees):
        assert [t.sent_id for t in sample_trees] == ["1", "2", "3", "4", "5"]
        assert sample_trees[0].char_lengths == (5, 5, 2, 5)
        assert drop_punctuation(sample_trees[4]).sent_id == "5"
        (t,) = parse_conllu("# sent_id = x\n\n" + row(1, "il", 0) + "\n")
        assert t.sent_id is None  # the comment is not in the sentence's block

    def test_no_trailing_blank_line_needed(self):
        text = row(1, "il", 2) + "\n" + row(2, "dort", 0)
        trees = parse_conllu(text)
        assert len(trees) == 1
        assert trees[0].n == 2

    def test_empty_input_gives_no_sentences(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n# nothing here\n") == []

    def test_too_few_columns(self):
        with pytest.raises(ParseError) as exc:
            parse_conllu("1\tword\n")
        assert exc.value.line == 1

    def test_bad_head_value(self):
        text = "\t".join(["1", "word", "_", "_", "_", "_", "x", "_", "_", "_"])
        with pytest.raises(ParseError):
            parse_conllu(text)

    def test_bad_id_value(self):
        text = "\t".join(["zero", "word", "_", "_", "_", "_", "0", "_", "_", "_"])
        with pytest.raises(ParseError):
            parse_conllu(text)

    @pytest.mark.parametrize(
        "tid, head, message",
        [
            ("0", "1", "ID must be >= 1, got 0"),
            ("2", "-1", "HEAD must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_id_and_head(self, tid, head, message):
        text = row(1, "il", 0) + "\n" + "\t".join(
            [tid, "x", "_", "_", "_", "_", head, "_", "_", "_"]
        )
        with pytest.raises(ParseError) as exc:
            parse_conllu(text)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: " + message

    def test_duplicate_and_gapped_ids(self):
        dup = row(1, "a", 0) + "\n" + row(1, "b", 1)
        with pytest.raises(ParseError):
            parse_conllu(dup)
        gap = row(1, "a", 0) + "\n" + row(3, "b", 1)
        with pytest.raises(ParseError):
            parse_conllu(gap)

    def test_tree_errors_carry_sentence_number(self):
        good = row(1, "ok", 0)
        bad = row(1, "a", 2) + "\n" + row(2, "b", 1)  # no root
        with pytest.raises(Exception) as exc:
            parse_conllu(good + "\n\n" + bad + "\n")
        assert "sentence 2" in str(exc.value)

    def test_line_numbers_in_messages(self):
        text = "# c\n" + row(1, "a", 0) + "\n\n1\tshort\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(text)
        assert exc.value.line == 4

    def test_empty_form_names_its_line(self):
        text = row(1, "il", 2) + "\n" + row(2, "", 0) + "\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(text)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: empty FORM"


class TestRoundTrip:
    def test_parse_serialize_parse(self, sample_trees):
        text = to_conllu(sample_trees)
        again = parse_conllu(text)
        assert len(again) == len(sample_trees)
        for a, b in zip(sample_trees, again):
            assert a.heads == b.heads
            assert [t.form for t in a.tokens] == [t.form for t in b.tokens]

    def test_synthetic_char_lengths_survive(self):
        t = build_tree([Token(1, "", 3), Token(2, "", 5)], {1: 2, 2: 0})
        (again,) = parse_conllu(to_conllu([t]))
        lin = t.identity_linearization()
        assert cost_D(again, lin, unit=Unit.CHARACTERS).D == 5
        assert cost_D(t, lin, unit=Unit.CHARACTERS).D == 5

    def test_serialized_shape(self):
        t = build_tree([Token(1, "il"), Token(2, "dort")], {1: 2, 2: 0})
        text = to_conllu([t])
        lines = text.splitlines()
        assert lines[0].split("\t") == [
            "1", "il", "_", "_", "_", "_", "2", "_", "_", "_",
        ]
        assert text.endswith("\n")


class TestPunctuation:
    @pytest.mark.parametrize("form", ["!", ",", ".", "...", "?!", "-", "(", "«"])
    def test_punctuation_forms(self, form):
        assert is_punctuation(form)

    @pytest.mark.parametrize("form", ["word", "à", "1", "c3", "n't"])
    def test_non_punctuation_forms(self, form):
        assert not is_punctuation(form)

    def test_drop_reindexes_and_remaps_heads(self, sample_trees):
        t = drop_punctuation(sample_trees[4])
        assert [tok.form for tok in t.tokens] == ["De", "le", "calme"]
        assert t.heads == {1: 2, 2: 3, 3: 0}

    def test_drop_is_identity_without_punctuation(self, sample_trees):
        t = drop_punctuation(sample_trees[0])
        assert t.heads == sample_trees[0].heads

    def test_drop_keeps_synthetic_lengths_and_leaves_counting_lazy(self, sample_text):
        t = build_tree([Token(1, "", 3), Token(2, "."), Token(3, "", 5)], {1: 0, 2: 1, 3: 1})
        assert drop_punctuation(t).char_lengths == (3, 5)
        dropped = drop_punctuation(parse_conllu(sample_text)[4])
        assert "char_lengths" not in vars(dropped)
        assert dropped.char_lengths == (2, 2, 5)
        t = build_tree([Token(1, "un"), Token(2, "."), Token(3, "mot")], {1: 0, 2: 1, 3: 1})
        dropped = drop_punctuation(t)  # its lengths are its forms': counted on first read
        assert "char_lengths" not in vars(dropped)
        assert dropped.char_lengths == (2, 3)

    def test_non_leaf_punctuation_rejected(self):
        t = build_tree(
            [Token(1, "a"), Token(2, "-"), Token(3, "b")],
            {1: 2, 2: 0, 3: 2},
        )
        with pytest.raises(NonLeafPunctuationError):
            drop_punctuation(t)

    def test_all_punctuation_rejected(self):
        t = build_tree([Token(1, "!")], {1: 0})
        with pytest.raises(ParseError):
            drop_punctuation(t)
