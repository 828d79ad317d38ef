"""The three workloads, as rounds of CLI operations over generated shards.

A run repeats the rounds in order and stops only at a round boundary, so
every run holds the same mix of configurations.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import check
import gen
from proc import Op

NAMES = ("analyze", "optimize", "predict")


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def analyze(seed: int, workdir: Path):
    shards = gen.analyze_shards(seed)
    rounds = []
    for k, shard in enumerate(shards):
        path = _write(workdir, "analyze-%d.conllu" % k, gen.to_conllu(shard))
        rounds.append(
            [
                Op(
                    "words-identity-table",
                    ("analyze", path),
                    len(shard),
                    partial(check.check_analyze_table, shard=shard),
                ),
                Op(
                    "chars-log-json",
                    ("analyze", path, "--unit", "chars", "--g", "log", "--format", "json"),
                    len(shard),
                    partial(check.check_analyze_json, shard=shard, unit="chars", g="log"),
                ),
            ]
        )
    return rounds, shards, gen.properties(shards)


def optimize(seed: int, workdir: Path):
    shards = gen.optimize_shards(seed)
    ops = []
    for k, shard in enumerate(shards):
        path = _write(workdir, "optimize-%d.conllu" % k, gen.to_conllu(shard))
        max_n = str(gen.OPTIMIZE_MAX_N)
        ops.append(
            Op(
                "words-identity-max9",
                ("optimize", path, "--max-n", max_n),
                len(shard),
                partial(
                    check.check_optimize_table,
                    shard=shard,
                    unit="words",
                    g="identity",
                    max_n=gen.OPTIMIZE_MAX_N,
                ),
            )
        )
        ops.append(
            Op(
                "chars-power2",
                ("optimize", path, "--unit", "chars", "--g", "power:2"),
                len(shard),
                partial(
                    check.check_optimize_table,
                    shard=shard,
                    unit="chars",
                    g="power:2",
                    max_n=gen.OPTIMIZE_DEFAULT_MAX_N,
                ),
                known_limit=any(s.n > gen.PROJECTIVE_ENUM_LIMIT for s in shard),
            )
        )
    per_round = 2 * len(gen.OPTIMIZE_PATTERN)
    rounds = [ops[i : i + per_round] for i in range(0, len(ops), per_round)]
    return rounds, shards, gen.properties(shards)


def predict(seed: int, workdir: Path):
    op = Op(
        "json",
        ("predict", "--format", "json", "--seed", str(seed)),
        check.PREDICT_SCENARIOS,
        partial(check.check_predict_json, seed=seed),
    )
    return [[op]], [], {"scenarios": check.PREDICT_SCENARIOS}


BUILD = {"analyze": analyze, "optimize": optimize, "predict": predict}
