"""Command-line interface: formats, flags, exit codes, determinism."""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deplen import (
    Linearization,
    Unit,
    cost_D,
    cost_function_from_spec,
    is_projective,
    parse_conllu,
    random_tree,
)
from deplen.cli import UNIT_NAMES, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path, *sentences):
    """Write one CoNLL-U sentence per list of heads (token i has heads[i-1])."""
    row = "%d\tw\t_\t_\t_\t_\t%d\t_\t_\t_"
    blocks = [
        "\n".join(row % (i, h) for i, h in enumerate(heads, start=1))
        for heads in sentences
    ]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_table_output(self, capsys, sample_path):
        code, out, err = run(capsys, "analyze", str(sample_path))
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "analyze: 5 sentence(s), unit=words, g=identity"
        assert lines[1].split() == ["sentence", "n", "sum_lengths", "D"]
        assert lines[2].split() == ["1", "4", "4", "4"]
        assert "distance histogram (words)" in out
        assert lines[-2].split() == ["1", "11", "11/13"]
        assert lines[-1].split() == ["2", "2", "2/13"]

    def test_json_output(self, capsys, sample_path):
        code, out, err = run(
            capsys, "analyze", str(sample_path), "--format", "json", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "analyze"
        assert payload["seed"] == 7
        assert payload["histogram"] == {
            "counts": {"1": 11, "2": 2},
            "total_edges": 13,
        }
        first = payload["sentences"][0]
        assert first["sentence"] == 1
        assert first["D"] == "4"
        assert first["D_dec"] == "4.0"
        assert [s["D"] for s in payload["sentences"]] == ["4", "3", "4", "1", "3"]

    def test_csv_output_with_characters_and_squared_cost(self, capsys, sample_path):
        code, out, err = run(
            capsys,
            "analyze",
            str(sample_path),
            "--format",
            "csv",
            "--unit",
            "chars",
            "--g",
            "power:2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sentence,n,sum_lengths,D"
        assert lines[1] == "1,4,19.5,137.25"
        assert lines[4] == "4,2,4,16"
        assert len(lines) == 6  # no histogram for character distances

    def test_drop_punct_changes_the_histogram(self, capsys, sample_path):
        code, out, _ = run(
            capsys, "analyze", str(sample_path), "--drop-punct", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["histogram"]["total_edges"] == 12
        assert payload["sentences"][4]["n"] == 3

    def test_log_cost_runs(self, capsys, sample_path):
        code, out, _ = run(capsys, "analyze", str(sample_path), "--g", "log")
        assert code == 0
        assert out.startswith("analyze: 5 sentence(s), unit=words, g=log")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/no/such/file.conllu")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_corpus(self, capsys, tmp_path):
        bad = tmp_path / "bad.conllu"
        bad.write_text("1\tword\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_empty_corpus(self, capsys, tmp_path):
        empty = tmp_path / "empty.conllu"
        empty.write_text("# nothing\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(empty))
        assert code == 2
        assert err.startswith("error:")

    def test_bad_cost_spec(self, capsys, sample_path):
        code, _, err = run(capsys, "analyze", str(sample_path), "--g", "cubic")
        assert code == 2
        assert "cost spec" in err

    def test_nonmonotone_table_needs_the_flag(self, capsys, sample_path, tmp_path):
        table = tmp_path / "g.csv"
        table.write_text("1,5\n2,1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "analyze", str(sample_path), "--g", "table:%s" % table
        )
        assert code == 2
        code, out, _ = run(
            capsys,
            "analyze",
            str(sample_path),
            "--g",
            "table:%s" % table,
            "--allow-nonmonotone-g",
        )
        assert code == 0

    @pytest.mark.parametrize("rows, message", [
        ("1,1\n1,2\n2,3\n", "row 2: distance 1 listed twice"),
        ("1,1\n2,1/0\n", "row 2: expected an integer d and a rational cost, got '2,1/0'"),
        ("1,1\n1.5,2\n", "row 2: expected an integer d and a rational cost, got '1.5,2'"),
        ("1,1\n2,abc\n", "row 2: expected an integer d and a rational cost, got '2,abc'"),
        # a first row is a header only when its d cell is no number
        ("0.5,9\n1,1\n2,2\n3,3\n", "row 1: expected an integer d and a rational cost, got '0.5,9'"),
    ])
    def test_malformed_cost_table_names_its_row(self, capsys, sample_path, tmp_path, rows, message):
        table = tmp_path / "g.csv"
        table.write_text(rows, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(sample_path), "--g", "table:%s" % table)
        assert (code, out) == (2, "")
        assert err == "error: %s %s\n" % (table, message)

    def test_a_value_past_the_double_range_prints_exactly(self, capsys, tmp_path):
        # words 40 and 41 characters long lie 83/2 apart: D = (83/2)**200
        corpus = tmp_path / "c.conllu"
        row = "%d\t%s\t_\t_\t_\t_\t%d\t_\t_\t_\n"
        corpus.write_text(row % (1, "a" * 40, 0) + row % (2, "b" * 41, 1), encoding="utf-8")
        argv = ["analyze", str(corpus), "--unit", "chars", "--g", "power:200"]
        D = Fraction(83, 2) ** 200
        assert D > sys.float_info.max
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split() == ["1", "2", "41.5", "%d/%d" % (D.numerator, D.denominator)]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        (sentence,) = json.loads(out)["sentences"]
        assert (sentence["D"], sentence["D_dec"]) == (str(D), "inf")
        assert (sentence["sum_lengths"], sentence["sum_lengths_dec"]) == ("83/2", "41.5")

    @pytest.mark.parametrize("command, field", [("analyze", "D"), ("optimize", "optimal")])
    def test_a_value_past_the_int_string_limit_prints_exactly(self, capsys, tmp_path, command, field):
        # D = (83/2)**3000 has over 4,300 digits, CPython's default cap on
        # int-to-str conversion; the CLI prints it, and callers keep the cap
        corpus = tmp_path / "c.conllu"
        row = "%d\t%s\t_\t_\t_\t_\t%d\t_\t_\t_\n"
        corpus.write_text(row % (1, "a" * 40, 0) + row % (2, "b" * 41, 1), encoding="utf-8")
        argv = [command, str(corpus), "--unit", "chars", "--g", "power:3000"]
        D = Fraction(83, 2) ** 3000
        cap = sys.get_int_max_str_digits()
        assert 0 < cap < D.numerator.bit_length() * math.log10(2)
        table = run(capsys, *argv)
        json_run = run(capsys, *argv, "--format", "json")
        assert sys.get_int_max_str_digits() == cap
        with pytest.raises(ValueError):
            str(D.numerator)
        sys.set_int_max_str_digits(0)
        try:
            exact = "%d/%d" % (D.numerator, D.denominator)
        finally:
            sys.set_int_max_str_digits(cap)
        code, out, err = table
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split()[3] == exact
        code, out, err = json_run
        assert (code, err) == (0, "")
        (sentence,) = json.loads(out)["sentences"]
        assert (sentence[field], sentence[field + "_dec"]) == (exact, "inf")

    def test_short_cost_table_names_the_sentence(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path / "c.conllu", [2, 0], [0, 1, 1])
        table = tmp_path / "g.csv"
        table.write_text("1,1\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", corpus, "--g", "table:%s" % table)
        assert (code, out) == (2, "")
        assert err == "error: sentence 2: table has no cost for d=2 (domain 1..1)\n"

    def test_an_error_names_the_sent_id_too(self, capsys, tmp_path):
        corpus = tmp_path / "c.conllu"
        write_corpus(corpus, [2, 0], [0, 1, 1])
        blocks = corpus.read_text(encoding="utf-8").split("\n\n")
        corpus.write_text("\n\n".join(
            ["# sent_id = a0-1\n" + blocks[0], "# sent_id = a0-2\n" + blocks[1]]
        ), encoding="utf-8")
        table = tmp_path / "g.csv"
        table.write_text("1,1\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(corpus), "--g", "table:%s" % table)
        assert (code, out) == (2, "")
        assert err == (
            "error: sentence 2 (sent_id a0-2): table has no cost for d=2 (domain 1..1)\n"
        )

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ([("a", 2), ("-", 0)], "punctuation token 2 ('-') has dependents"),
            ([("!", 0)], "sentence contains only punctuation"),
        ],
    )
    def test_a_drop_punct_error_names_the_sentence(self, capsys, tmp_path, tokens, message):
        row = "%d\t%s\t_\t_\t_\t_\t%d\t_\t_\t_"
        second = "\n".join(row % (i, f, h) for i, (f, h) in enumerate(tokens, start=1))
        corpus = tmp_path / "c.conllu"
        corpus.write_text(
            "# sent_id = x1\n" + row % (1, "w", 0) + "\n\n# sent_id = x2\n" + second + "\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", str(corpus), "--drop-punct")
        assert (code, out) == (2, "")
        assert err == "error: sentence 2 (sent_id x2): %s\n" % message


class TestOptimize:
    def test_table_output(self, capsys, sample_path):
        code, out, err = run(capsys, "optimize", str(sample_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "optimize: 5 sentence(s), unit=words, g=identity, max_n=8"
        rows = [l.split() for l in lines[2:]]
        assert rows[0] == ["1", "4", "4", "3", "4/3", "exhaustive", "1", "2", "4", "3"]
        assert rows[1][:6] == ["2", "3", "3", "2", "1.5", "exhaustive"]
        assert rows[2][:5] == ["3", "5", "4", "4", "1"]
        assert rows[4][:5] == ["5", "4", "3", "3", "1"]

    def test_json_gap_fields(self, capsys, sample_path):
        code, out, _ = run(
            capsys, "optimize", str(sample_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        s2 = payload["sentences"][1]
        assert s2["observed"] == "3"
        assert s2["optimal"] == "2"
        assert s2["gap"] == "3/2"
        assert s2["search"] == "exhaustive"
        assert s2["optimal_count"] == 2
        assert s2["searched"] == 6

    def test_projective_method_above_max_n(self, capsys, sample_path):
        code, out, _ = run(
            capsys, "optimize", str(sample_path), "--max-n", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        methods = {s["search"] for s in payload["sentences"]}
        assert methods == {"exhaustive", "projective"}
        # the projective construction still finds the true optimum here
        s3 = payload["sentences"][2]
        assert s3["search"] == "projective"
        assert s3["optimal"] == "4"

    def test_projective_enum_for_characters(self, capsys, sample_path):
        code, out, _ = run(
            capsys,
            "optimize",
            str(sample_path),
            "--max-n",
            "2",
            "--unit",
            "chars",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        methods = {s["search"] for s in payload["sentences"]}
        assert methods == {"exhaustive", "projective-enum"}

    @pytest.mark.parametrize(
        "unit, search, optimal",
        [("words", "projective", "1199"), ("chars", "projective-enum", "2398")],
    )
    def test_a_deep_chain_is_searched_without_recursion(
        self, capsys, tmp_path, unit, search, optimal
    ):
        # token i heads token i + 1: deeper than Python's recursion limit
        path = write_corpus(tmp_path / "chain.conllu", list(range(1200)))
        code, out, err = run(capsys, "optimize", path, "--unit", unit, "--format", "json")
        assert (code, err) == (0, "")
        (row,) = json.loads(out)["sentences"]
        assert (row["n"], row["search"], row["optimal"]) == (1200, search, optimal)
        (t,) = parse_conllu(Path(path).read_text(encoding="utf-8"))
        assert is_projective(t, t.identity_linearization())

    def test_exact_flag_forces_full_search(self, capsys, sample_path):
        code, out, _ = run(
            capsys,
            "optimize",
            str(sample_path),
            "--max-n",
            "2",
            "--exact",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {s["search"] for s in payload["sentences"]} == {"exhaustive"}

    def test_max_n_cap(self, capsys, sample_path):
        code, _, err = run(capsys, "optimize", str(sample_path), "--max-n", "11")
        assert code == 2
        assert "capped" in err

    def test_chars_search_has_no_length_limit(self, capsys, tmp_path):
        chain = [0] + list(range(1, 13))  # 13 tokens, each headed by the one before
        corpus = write_corpus(tmp_path / "c.conllu", [2, 0], chain)
        code, out, err = run(
            capsys, "optimize", corpus, "--unit", "chars", "--format", "json"
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["sentences"][1]
        assert (row["search"], row["optimal"]) == ("projective-enum", "24")
        assert row["searched"] == 2**12

    def test_projective_degree_limit_names_the_sentence(self, capsys, tmp_path):
        star = [0] + [1] * 17  # one head with 17 dependents
        corpus = write_corpus(tmp_path / "c.conllu", [2, 0], star)
        code, out, err = run(capsys, "optimize", corpus, "--unit", "chars")
        assert (code, out) == (2, "")
        assert err == (
            "error: sentence 2: projective search is limited to 16 dependents"
            " per head, got 17\n"
        )

    def test_exact_identity_search_past_brute_force(self, capsys, tmp_path):
        chain = [0] + list(range(1, 14))  # 14 tokens, each headed by the one before
        corpus = write_corpus(tmp_path / "c.conllu", chain)
        code, out, err = run(capsys, "optimize", corpus, "--exact", "--format", "json")
        assert (code, err) == (0, "")
        row = json.loads(out)["sentences"][0]
        assert (row["search"], row["optimal"], row["optimal_count"]) == ("exhaustive", "13", 2)
        assert row["representative"] == list(range(1, 15))
        assert row["searched"] == math.factorial(14)

    def test_exact_identity_limit_names_the_sentence(self, capsys, tmp_path):
        chain = [0] + list(range(1, 17))  # 17 tokens
        corpus = write_corpus(tmp_path / "c.conllu", [2, 0], chain)
        code, out, err = run(capsys, "optimize", corpus, "--exact", "--unit", "chars")
        assert (code, out) == (2, "")
        assert err == "error: sentence 2: subset search is limited to n <= 16, got n = 17\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--exact",), "subset search is limited to n <= 16, got n = 18"),
            (("--exact", "--g", "power:2"), "brute force is limited to n <= 10, got n = 18"),
            (("--unit", "chars"), "projective search is limited to 16 dependents per head, got 17"),
        ],
    )
    def test_size_limits_come_before_any_search(self, capsys, tmp_path, monkeypatch, flags, message):
        import deplen.optimize

        def never(*args, **kwargs):
            raise AssertionError("a search ran before every limit was checked")

        for search in ("subset_minimum", "brute_force_mla", "projective_mla", "projective_minimum"):
            monkeypatch.setattr(deplen.optimize, search, never)
        star = [0] + [1] * 17  # one head with 17 dependents
        corpus = write_corpus(tmp_path / "c.conllu", [2, 0, 2], star)
        code, out, err = run(capsys, "optimize", corpus, *flags)
        assert (code, out, err) == (2, "", "error: sentence 2: %s\n" % message)

    def test_chars_power_cost_on_a_40_token_sentence(self, capsys, tmp_path):
        tree = random_tree(40, random.Random(40))
        heads = [tree.head_of(i) for i in range(1, 41)]
        corpus = write_corpus(tmp_path / "c.conllu", heads)
        code, out, err = run(
            capsys, "optimize", corpus,
            "--unit", "chars", "--g", "power:2", "--format", "json",
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["sentences"][0]
        assert (row["n"], row["search"]) == (40, "projective-enum")
        best = Linearization(tuple(row["representative"]))
        assert is_projective(tree, best)
        # the corpus's words are one character long, like the tree's
        g = cost_function_from_spec("power:2")
        assert Fraction(row["optimal"]) == cost_D(tree, best, g, Unit.CHARACTERS).D

    def test_csv_output(self, capsys, sample_path):
        code, out, _ = run(capsys, "optimize", str(sample_path), "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sentence,n,observed,optimal,gap,search,best_order"
        assert lines[1] == "1,4,4,3,4/3,exhaustive,1 2 4 3"


class TestPredict:
    def test_all_scenarios_pass(self, capsys):
        code, out, _ = run(capsys, "predict")
        assert code == 0
        assert out.rstrip().endswith("all scenarios: pass")
        assert "star_k4_identity" in out
        assert "antilocality_vos" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "predict", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert len(payload["reports"]) == 29
        by_name = {r["name"]: r for r in payload["reports"]}
        assert by_name["star_k2_identity"]["min_cost"] == "2"
        assert by_name["branching_initial_m2_identity"]["min_cost"] == "11"

    def test_json_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "predict", "--json-out", str(target))
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["all_hold"] is True
        assert "all scenarios: pass" in out  # table still printed

    def test_failing_scenario_exits_one(self, capsys, monkeypatch):
        import deplen.cli as cli_mod
        import deplen.predictions as pred_mod

        broken = pred_mod.PredictionReport(
            "synthetic_failure",
            False,
            pred_mod.check_star_placement(2).witness,
            None,
            {},
        )
        monkeypatch.setattr(
            pred_mod, "run_default_suite", lambda: [broken]
        )
        code, out, _ = run(capsys, "predict")
        assert code == 1
        assert "all scenarios: FAIL" in out


class TestPair:
    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "pair")
        assert code == 0
        assert "total: 17/10 (1.7)" in out
        assert "verified against all assignments: yes" in out

    def test_shuffled_input_keeps_positions(self, capsys):
        code, out, _ = run(
            capsys,
            "pair",
            "--p",
            "0.2,0.5,0.3",
            "--costs",
            "3,1,2",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment"] == {"1": "3", "2": "1", "3": "2"}
        assert payload["total"] == "17/10"
        assert payload["verified_optimal"] is True

    def test_fractional_strings(self, capsys):
        code, out, _ = run(
            capsys, "pair", "--p", "1/2,1/2", "--costs", "1,3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["total"] == "2"

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "pair", "--p", "0.5,0.5", "--costs", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_nine_values_skip_the_exhaustive_check(self, capsys):
        values = ",".join(str(v) for v in range(1, 10))
        code, out, _ = run(
            capsys, "pair", "--p", values, "--costs", values, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verified_optimal"] is None

    def test_float_values_are_parsed_as_exact_decimals(self, capsys):
        code, out, _ = run(
            capsys, "pair", "--p", "0.1,0.9", "--costs", "2,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == ["1/10", "9/10"]
        assert payload["total"] == "11/10"


class TestCaseStudy:
    def test_default_characters(self, capsys):
        code, out, _ = run(capsys, "casestudy")
        assert code == 0
        assert "ranking: b < a < c" in out
        assert "clitic (b) shorter than heavy verb-final (c): yes" in out
        assert "svo (a) vs clitic (b): b<a" in out

    def test_words_unit_json(self, capsys):
        code, out, _ = run(
            capsys, "casestudy", "--unit", "words", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "casestudy"
        assert payload["unit"] == "words"
        assert payload["ranking"] == ["b", "a", "c"]
        totals = {e["label"]: e["total"] for e in payload["entries"]}
        assert totals == {"a": "4", "b": "3", "c": "5"}


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_repeated_runs_are_byte_identical(self, capsys, sample_path):
        outs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys, "analyze", str(sample_path), "--format", "json", "--seed", "3"
            )
            outs.add(out)
        assert len(outs) == 1


# Reference stdout, one file per case and format, saved from the CLI with
# "--seed 7 --format FMT" appended to the arguments below (SAMPLE is
# tests/data/sample.conllu).  Every byte of every format is pinned.
GOLDEN_CASES = {
    "analyze": ["analyze", "SAMPLE"],
    "analyze-chars-log": ["analyze", "SAMPLE", "--unit", "chars", "--g", "log"],
    "analyze-drop-punct": ["analyze", "SAMPLE", "--drop-punct"],
    "optimize": ["optimize", "SAMPLE"],
    "predict": ["predict"],
    "pair": ["pair"],
    "casestudy": ["casestudy"],
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_output_matches_golden(capsys, sample_path, case, fmt):
    argv = [str(sample_path) if a == "SAMPLE" else a for a in GOLDEN_CASES[case]]
    code, out, err = run(capsys, *argv, "--seed", "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / ("%s.%s" % (case, fmt))).read_bytes().decode("utf-8")



@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_each_format_builds_only_what_it_prints(capsys, monkeypatch, sample_path, case):
    import deplen.casestudy as casestudy_mod
    import deplen.cli as cli_mod
    import deplen.metrics as metrics_mod
    import deplen.predictions as pred_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("built the output of another format")

    argv = [str(sample_path) if a == "SAMPLE" else a for a in GOLDEN_CASES[case]]
    with monkeypatch.context() as m:
        for name in ("_table", "_csv", "_render"):
            m.setattr(cli_mod, name, forbidden)
        code, _, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_json_text", forbidden)
        for cls in (
            metrics_mod.CostReport,
            metrics_mod.LengthHistogram,
            pred_mod.PredictionReport,
            casestudy_mod.CaseStudyReport,
        ):
            m.setattr(cls, "to_json_dict", forbidden)
        for fmt in ("table", "csv"):
            code, _, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")


@pytest.mark.parametrize("unit", UNIT_NAMES)
@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--drop-punct"], ["optimize"]])
def test_measuring_and_searching_build_no_tokens(capsys, monkeypatch, sample_path, argv, unit):
    """Parsed trees go from columns to output: no Token, no build_tree."""
    # The CLI loads a module only when a command runs it: load them now, so
    # that their bindings are patched too.
    import deplen.conllu  # noqa: F401
    import deplen.optimize  # noqa: F401
    import deplen.tree as tree_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("built a Token or a tree from Tokens")

    monkeypatch.setattr(tree_mod.Token, "__post_init__", forbidden)
    for name, module in list(sys.modules.items()):  # every binding of build_tree
        if name.split(".")[0] == "deplen" and hasattr(module, "build_tree"):
            monkeypatch.setattr(module, "build_tree", forbidden)
    code, out, err = run(capsys, *argv, str(sample_path), "--unit", unit)
    assert (code, err) == (0, "")
    assert out.startswith(argv[0] + ": 5 sentence(s), unit=" + unit)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", ["analyze", "analyze-drop-punct", "optimize"])
def test_words_runs_count_no_characters(capsys, monkeypatch, sample_path, case, fmt):
    """A parsed tree counts its forms' characters only when a length is read."""
    # The CLI loads a module only when a command runs it: load them now, so
    # that their bindings are patched too.
    import deplen.conllu  # noqa: F401
    import deplen.optimize  # noqa: F401
    import deplen.tree  # noqa: F401

    def forbidden(form):
        raise AssertionError("counted the characters of %r" % form)

    for name, module in list(sys.modules.items()):  # every binding of char_count
        if name.split(".")[0] == "deplen" and hasattr(module, "char_count"):
            monkeypatch.setattr(module, "char_count", forbidden)
    argv = [str(sample_path) if a == "SAMPLE" else a for a in GOLDEN_CASES[case]]
    code, out, err = run(capsys, *argv, "--unit", "words", "--seed", "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / ("%s.%s" % (case, fmt))).read_bytes().decode("utf-8")
