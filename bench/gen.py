"""Seeded inputs for the deplen benchmark.

Everything here depends only on the seed and the standard library, never
on deplen itself, so a change to the program cannot change its inputs.
Tree shapes follow the same law as ``deplen.random_tree`` (a uniform
rooted labeled tree), drawn through a Pruefer sequence and a uniform root.
"""

from __future__ import annotations

import heapq
import math
import random
import unicodedata
from collections import Counter
from dataclasses import dataclass

ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"
PRECOMPOSED = "éèàüöñçøåßłąěžı"
# Each pair composes to a single code point under NFC, so the chars unit
# must normalise before it counts.
DECOMPOSED = ("é", "à", "ü", "ö", "ñ", "ç")
P_PRECOMPOSED = 0.08
P_DECOMPOSED = 0.04

# Form length in NFC characters, 1..12, skewed short.
FORM_LENGTH_WEIGHTS = (10, 14, 14, 12, 10, 8, 6, 5, 4, 3, 2, 2)

# analyze: n = 1..40, each at least once, the rest by weight, mode at 15.
# A shard is the size of one treebank file: the dev and test files of
# UD English-EWT hold 2,001 and 2,077 sentences, and the 20k-sentence
# analyze corpus of the ROADMAP is ten such files.  Every shard holds the
# same multiset of sizes, so shards differ only in tree shape, forms and
# order, and per-operation times cluster tightly.
ANALYZE_N_WEIGHTS = tuple(n**4 * math.exp(-n / 3.75) for n in range(1, 41))
ANALYZE_SHARDS = 2
ANALYZE_SENTENCES = 2000

# optimize: fixed sentence-size templates, shuffled within each shard.
# Type A holds only n <= 9.  Type B holds sentences with n > 12, which
# the chars configuration cannot search today (projective enumeration
# stops at n = 12), so every chars operation on a B shard fails.  Sizes
# 10 to 12 are left out of the shards the chars search can finish: their
# projective order counts are so heavy-tailed that the tree shapes of one
# seed would move the run's times by tens of percent; the per-layer
# metrics time n = 12 on trees of a fixed count instead.  With the pattern
# A, A, B the three operation clusters (B, A words, A chars) are equally
# common, so the median and the tail each fall inside one.
OPTIMIZE_TEMPLATES = {
    "A": (3, 5, 6, 7, 8, 9),
    "B": (2, 4, 5, 6, 7, 10, 14, 19, 24),
}
OPTIMIZE_PATTERN = "AAB"
OPTIMIZE_SHARDS = 3
OPTIMIZE_MAX_N = 9  # --max-n of the words configuration
OPTIMIZE_DEFAULT_MAX_N = 8  # the CLI default, which the chars configuration keeps
PROJECTIVE_ENUM_LIMIT = 12


@dataclass(frozen=True)
class Sentence:
    """One generated sentence: heads[i - 1] is the head of token i, 0 = root."""

    sent_id: str
    heads: tuple[int, ...]
    forms: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.heads)


def random_heads(n: int, rng: random.Random) -> tuple[int, ...]:
    """Head array of a uniform random rooted labeled tree on 1..n."""
    if n == 1:
        return (0,)
    adj = {v: [] for v in range(1, n + 1)}
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = Counter(code)
    leaves = [v for v in range(1, n + 1) if v not in degree]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 0:
            heapq.heappush(leaves, v)
    u, w = leaves
    adj[u].append(w)
    adj[w].append(u)
    root = rng.randint(1, n)
    heads = [0] * (n + 1)
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for c in adj[v]:
            if c not in seen:
                seen.add(c)
                heads[c] = v
                stack.append(c)
    return tuple(heads[1:])


def random_form(rng: random.Random) -> str:
    """A word of 1..12 NFC characters, some non-ASCII, some decomposed."""
    length = rng.choices(range(1, 13), FORM_LENGTH_WEIGHTS)[0]
    letters = []
    for _ in range(length):
        r = rng.random()
        if r < P_DECOMPOSED:
            letters.append(rng.choice(DECOMPOSED))
        elif r < P_DECOMPOSED + P_PRECOMPOSED:
            letters.append(rng.choice(PRECOMPOSED))
        else:
            letters.append(rng.choice(ASCII_LETTERS))
    return "".join(letters)


def make_sentence(sent_id: str, n: int, rng: random.Random) -> Sentence:
    heads = random_heads(n, rng)
    forms = tuple(random_form(rng) for _ in range(n))
    return Sentence(sent_id, heads, forms)


def to_conllu(sentences) -> str:
    """Ten-column CoNLL-U with a ``# sent_id`` comment per sentence."""
    blocks = []
    for s in sentences:
        lines = ["# sent_id = %s" % s.sent_id]
        for i, (form, head) in enumerate(zip(s.forms, s.heads), start=1):
            deprel = "root" if head == 0 else "dep"
            lines.append("%d\t%s\t_\t_\t_\t_\t%d\t%s\t_\t_" % (i, form, head, deprel))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("deplen-bench/%s/%d" % (workload, seed))


def quotas(weights, total: int) -> list[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def analyze_shards(seed: int) -> list[list[Sentence]]:
    rng = _rng("analyze", seed)
    counts = quotas(ANALYZE_N_WEIGHTS, ANALYZE_SENTENCES - len(ANALYZE_N_WEIGHTS))
    sizes = [n for n, c in enumerate(counts, start=1) for _ in range(c + 1)]
    shards = []
    for k in range(ANALYZE_SHARDS):
        ns = sizes[:]
        rng.shuffle(ns)
        shards.append(
            [make_sentence("a%d-%d" % (k, j), n, rng) for j, n in enumerate(ns, 1)]
        )
    return shards


def optimize_shards(seed: int) -> list[list[Sentence]]:
    rng = _rng("optimize", seed)
    shards = []
    for k in range(OPTIMIZE_SHARDS):
        ns = list(OPTIMIZE_TEMPLATES[OPTIMIZE_PATTERN[k % len(OPTIMIZE_PATTERN)]])
        rng.shuffle(ns)
        shards.append(
            [make_sentence("o%d-%d" % (k, j), n, rng) for j, n in enumerate(ns, 1)]
        )
    return shards


def nfc_length(form: str) -> int:
    return len(unicodedata.normalize("NFC", form))


def properties(shards) -> dict:
    """Input properties the program's behaviour depends on."""
    sentences = [s for shard in shards for s in shard]
    forms = [f for s in sentences for f in s.forms]
    ns = Counter(s.n for s in sentences)
    count = len(sentences)
    return {
        "shards": len(shards),
        "sentences": count,
        "tokens": len(forms),
        "n_histogram": {str(n): c for n, c in sorted(ns.items())},
        "share_n_le_max_n": sum(c for n, c in ns.items() if n <= OPTIMIZE_MAX_N) / count,
        "share_n_gt_12": sum(c for n, c in ns.items() if n > PROJECTIVE_ENUM_LIMIT)
        / count,
        "share_shards_n_gt_12": sum(
            any(s.n > PROJECTIVE_ENUM_LIMIT for s in shard) for shard in shards
        )
        / len(shards),
        "share_non_ascii_forms": sum(not f.isascii() for f in forms) / len(forms),
        "share_decomposed_forms": sum(
            unicodedata.normalize("NFC", f) != f for f in forms
        )
        / len(forms),
        "max_n": OPTIMIZE_MAX_N,
    }
