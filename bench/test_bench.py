"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import proc  # noqa: E402
import workloads  # noqa: E402
from proc import ROOT, run_cli, run_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_bytes():
    for shards in (gen.analyze_shards, gen.optimize_shards):
        first = "".join(gen.to_conllu(s) for s in shards(7))
        assert first == "".join(gen.to_conllu(s) for s in shards(7))
        assert first != "".join(gen.to_conllu(s) for s in shards(8))


def test_generated_trees_are_rooted_trees_with_nfc_lengths():
    for shard in gen.optimize_shards(3):
        for s in shard:
            assert s.heads.count(0) == 1
            for d in range(1, s.n + 1):  # every token reaches the root
                seen, v = set(), d
                while v:
                    assert v not in seen
                    seen.add(v)
                    v = s.heads[v - 1]
            assert all(1 <= gen.nfc_length(f) <= 12 for f in s.forms)


@pytest.fixture(scope="module")
def small_shard(tmp_path_factory):
    shard = gen.optimize_shards(5)[0][:5]
    path = tmp_path_factory.mktemp("shard") / "s.conllu"
    path.write_text(gen.to_conllu(shard), encoding="utf-8")
    return shard, str(path)


def _cli(args, tmp_path):
    _, code, _, _, out, err = run_cli(args, tmp_path)
    assert code == 0, err
    return out


def _corrupt_first_row(text, column):
    lines = text.split("\n")
    fields = lines[2].split()
    fields[column] = str(Fraction(fields[column]) + 1)
    lines[2] = "  ".join(fields)
    return "\n".join(lines)


def test_checker_rejects_a_corrupted_analyze_number(small_shard, tmp_path):
    shard, path = small_shard
    out = _cli(["analyze", path], tmp_path)
    check.check_analyze_table(out, shard)
    with pytest.raises(ValueError):
        check.check_analyze_table(_corrupt_first_row(out, 3), shard)

    out = _cli(["analyze", path, "--unit", "chars", "--g", "log", "--format", "json"], tmp_path)
    check.check_analyze_json(out, shard, "chars", "log")
    data = json.loads(out)
    data["sentences"][0]["D"] = str(Fraction(data["sentences"][0]["D"]) * 2)
    with pytest.raises(ValueError):
        check.check_analyze_json(json.dumps(data), shard, "chars", "log")


def test_checker_rejects_a_corrupted_optimum(small_shard, tmp_path):
    shard, path = small_shard
    out = _cli(["optimize", path, "--unit", "chars", "--g", "power:2"], tmp_path)
    check.check_optimize_table(out, shard, "chars", "power:2", 8)
    with pytest.raises(ValueError):
        check.check_optimize_table(_corrupt_first_row(out, 3), shard, "chars", "power:2", 8)


def test_checker_rejects_a_consistent_but_suboptimal_order(small_shard, tmp_path):
    shard, path = small_shard
    out = _cli(["optimize", path], tmp_path)
    check.check_optimize_table(out, shard, "words", "identity", 8)
    lines = out.split("\n")
    for row, s in enumerate(shard, start=2):
        fields = lines[row].split()
        if fields[2] != fields[3]:  # the observed order is not optimal
            break
    else:
        pytest.fail("every observed order is optimal")
    # Report the observed order as the optimum: its cost and gap agree.
    fields[3:] = [fields[2], "1", fields[5], *map(str, check.identity(s))]
    lines[row] = "  ".join(fields)
    with pytest.raises(ValueError):
        check.check_optimize_table("\n".join(lines), shard, "words", "identity", 8)


def test_exhaustive_minimum_counts_mirror_images():
    path = gen.Sentence("p", (2, 0, 2), ("a", "bb", "c"))  # 1 <- 2 -> 3
    assert check.exhaustive_minimum(path, "words", "identity") == (2, 2)
    assert check.exhaustive_minimum(path, "chars", "power:2") == (Fraction(25, 2), 2)  # 2.5 ** 2 twice


def test_checker_rejects_a_failed_prediction(tmp_path):
    out = _cli(["predict", "--format", "json", "--seed", "3"], tmp_path)
    check.check_predict_json(out, 3)
    data = json.loads(out)
    data["reports"][0]["holds"] = False
    with pytest.raises(ValueError):
        check.check_predict_json(json.dumps(data), 3)


def test_chars_search_past_n12_is_the_known_failure(tmp_path):
    rounds, shards, _ = workloads.optimize(1, tmp_path)
    statuses = [run_op(op, tmp_path, set()).status for op in rounds[0]]
    long_shard = [any(s.n > 12 for s in shard) for shard in shards[:3]]
    assert long_shard == [False, False, True]
    assert statuses == ["ok"] * 5 + ["known-limit"]


@pytest.mark.parametrize(
    "err, status",
    [
        ("error: projective enumeration is limited to n <= 12, got n = 14\n", "known-limit"),
        ("error: invalid literal for int() with base 10: 'x'\n", "exit-2"),
    ],
)
def test_only_the_limit_message_is_the_known_failure(monkeypatch, tmp_path, err, status):
    op = proc.Op("chars-power2", ("optimize",), 1, lambda out: None, known_limit=True)
    monkeypatch.setattr(proc, "run_cli", lambda args, workdir: (0.1, 2, 1, False, "", err))
    outcome = run_op(op, tmp_path, set())
    assert outcome.status == status
    assert proc.is_incorrect(outcome.status) == (status == "exit-2")


def _run(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "predict", "--seed", "1"]
        + ["--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
