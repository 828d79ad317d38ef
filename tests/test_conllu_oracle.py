"""parse_conllu against a slow oracle on seeded, partly malformed corpora.

The oracle is the line-by-line parser that built one Token per row and
validated every tree through the checked DepTree constructor: its
parse_conllu is kept verbatim, and its Token and build_tree are replaced
by copies that compute the same things without deplen.  Both must give
the same trees, or the same error type, message and line.
"""

import random
import unicodedata

import pytest

from deplen import CycleError, DeplenError, DisconnectedError, MultiRootError, ParseError
from deplen import parse_conllu


class Token:
    """Oracle token: index, form and the NFC length of the form."""

    def __init__(self, index, form):
        self.index, self.form = index, form
        self.char_length = len(unicodedata.normalize("NFC", form))


class OracleTree:
    def __init__(self, tokens, heads, root):
        self.tokens, self.heads, self.root = tokens, heads, root


def build_tree(tokens, heads):
    """The checks of the checked DepTree constructor, in its order."""
    tokens = tuple(sorted(tokens, key=lambda t: t.index))
    n = len(tokens)
    heads = {i: int(heads[i]) for i in range(1, n + 1)}
    roots = [i for i, h in heads.items() if h == 0]
    if len(roots) != 1:
        raise MultiRootError("expected exactly one root, found %d" % len(roots))
    for i, h in heads.items():
        if h == i:
            raise CycleError("token %d is its own head" % i)
        if h != 0 and not 1 <= h <= n:
            raise DisconnectedError(
                "token %d names head %d, outside 1..%d" % (i, h, n)
            )
    state = {}  # 1 = on current path, 2 = known good
    for start in range(1, n + 1):
        path = []
        v = start
        while v != 0 and state.get(v) != 2:
            if state.get(v) == 1:
                raise CycleError("cycle through token %d" % v)
            state[v] = 1
            path.append(v)
            v = heads[v]
        for u in path:
            state[u] = 2
    return OracleTree(tokens, heads, roots[0])


def oracle_parse_conllu(text: str):
    """Parse CoNLL-U text into a list of dependency trees."""
    trees = []
    rows = []  # (index, form, head, line_no) for the current sentence

    def flush():
        if not rows:
            return
        sent_no = len(trees) + 1
        seen = {}
        for idx, _, _, line_no in rows:
            if idx in seen:
                raise ParseError(
                    "sentence %d: duplicate token ID %d" % (sent_no, idx),
                    line=line_no,
                )
            seen[idx] = line_no
        ids = sorted(seen)
        if ids != list(range(1, len(ids) + 1)):
            raise ParseError(
                "sentence %d: token IDs are not consecutive from 1" % sent_no,
                line=rows[0][3],
            )
        tokens = [Token(idx, form) for idx, form, _, _ in rows]
        heads = {idx: head for idx, _, head, _ in rows}
        try:
            trees.append(build_tree(tokens, heads))
        except DeplenError as e:
            raise type(e)("sentence %d: %s" % (sent_no, e)) from e
        rows.clear()

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 7:
            raise ParseError(
                "expected at least 7 tab-separated columns, got %d"
                % len(fields),
                line=line_no,
            )
        tid = fields[0]
        if "-" in tid or "." in tid:
            continue  # multiword range or empty node
        try:
            idx = int(tid)
        except ValueError:
            raise ParseError("malformed ID %r" % tid, line=line_no) from None
        try:
            head = int(fields[6])
        except ValueError:
            raise ParseError(
                "malformed HEAD %r" % fields[6], line=line_no
            ) from None
        if idx < 1:
            raise ParseError("ID must be >= 1, got %d" % idx, line=line_no)
        if head < 0:
            raise ParseError(
                "HEAD must be >= 0, got %d" % head, line=line_no
            )
        if not fields[1]:
            raise ParseError("empty FORM", line=line_no)
        rows.append((idx, fields[1], head, line_no))
    flush()
    return trees


FORMS = [
    "a", "pomme", "mange", "n't", "!", "...", "\u00ab",  # ASCII and punctuation
    "\u00e9t\u00e9", "ni\u00f1o", "Stra\u00dfe", "\u65e5\u672c",  # NFC
    "e\u0301te\u0301", "n\u0303", "a\u0301\u0301",  # decomposed
    "x y",  # an inner space
]

MUTATIONS = (
    "duplicate-id", "missing-id", "swap-ids", "id-zero", "head-minus-one",
    "head-past-n", "two-roots", "no-root", "self-head", "cycle",
    "short-row", "empty-form", "bad-id", "bad-head",
)


def random_heads(n, rng):
    """A random rooted tree as a head list (token i + 1 has heads[i])."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    for k, v in enumerate(order[1:], start=1):
        heads[v - 1] = order[rng.randrange(k)]
    return heads


def random_sentence(rng, k):
    """Lines of one sentence, its sent_id and its mutation (or None)."""
    n = rng.randint(1, 7)
    ids = list(range(1, n + 1))
    heads = random_heads(n, rng)
    forms = [rng.choice(FORMS) for _ in ids]
    mutation = rng.choice(MUTATIONS) if rng.random() < 0.4 else None
    i = rng.randrange(n)
    if mutation == "duplicate-id":
        ids[i] = rng.randint(1, n)
    elif mutation == "missing-id":
        ids[i] += n
    elif mutation == "swap-ids":
        rng.shuffle(ids)
        heads = [heads[t - 1] for t in ids]
        forms = [forms[t - 1] for t in ids]
    elif mutation == "id-zero":
        ids[i] = 0
    elif mutation == "head-minus-one":
        heads[i] = -1
    elif mutation == "head-past-n":
        heads[i] = n + rng.randint(1, 3)
    elif mutation == "two-roots":
        heads[i] = 0
    elif mutation == "no-root":
        heads[heads.index(0)] = rng.randint(1, n)
    elif mutation == "self-head":
        heads[i] = ids[i]
    elif mutation == "cycle" and n > 2:
        a, b = rng.sample(range(1, n + 1), 2)
        heads[a - 1], heads[b - 1] = b, a
    elif mutation == "empty-form":
        forms[i] = ""
    rows = [
        ["%d" % t, f, "_", "_", "_", "_", "%d" % h, "_", "_", "_"]
        for t, f, h in zip(ids, forms, heads)
    ]
    if mutation == "bad-id":
        rows[i][0] = rng.choice(["x", "", "1a"])
    elif mutation == "bad-head":
        rows[i][6] = rng.choice(["h", "", "2.0"])
    lines = ["\t".join(r) for r in rows]
    if mutation == "short-row":
        lines[i] = "\t".join(rows[i][: rng.randint(1, 6)])
    if rng.random() < 0.3:  # a multiword range before a token
        at = rng.randrange(len(lines))
        lines.insert(at, "%d-%d\tdu\t_\t_\t_\t_\t_\t_\t_\t_" % (at + 1, at + 2))
    if rng.random() < 0.3:  # an empty node after a token
        at = rng.randrange(len(lines))
        lines.insert(at + 1, "%d.1\toui\t_\t_\t_\t_\t_\t_\t_\t_" % (at + 1))
    sent_id = None
    if rng.random() < 0.7:
        sent_id = "s%d-%d" % (k, rng.randrange(100))
        lines.insert(0, rng.choice(["# sent_id = %s", "#sent_id=%s"]) % sent_id)
    if rng.random() < 0.5:
        lines.insert(rng.randrange(len(lines) + 1), "# text = %s" % " ".join(forms))
    return lines, sent_id, mutation


def random_corpus(seed):
    rng = random.Random(seed)
    blocks, sent_ids, mutations = [], [], []
    for k in range(rng.randint(1, 4)):
        if rng.random() < 0.1:  # a block of comments only is no sentence
            blocks.append(["# sent_id = none-%d" % k, "# newdoc"])
        lines, sent_id, mutation = random_sentence(rng, k)
        blocks.append(lines)
        sent_ids.append(sent_id)
        mutations.append(mutation)
    sep = rng.choice(["\n", "\r\n"])
    gap = sep + rng.choice(["", " ", "\t", sep]) + sep
    text = gap.join(sep.join(lines) for lines in blocks)
    return text + rng.choice(["", sep, sep + sep]), sent_ids, mutations


def outcome(parse, text):
    try:
        return parse(text), None
    except DeplenError as e:
        return None, (type(e), str(e), getattr(e, "line", None))


@pytest.mark.parametrize("chunk", range(10))
def test_parser_matches_the_oracle(chunk):
    for seed in range(300 * chunk, 300 * (chunk + 1)):
        text, sent_ids, _ = random_corpus(seed)
        want, want_error = outcome(oracle_parse_conllu, text)
        got, got_error = outcome(parse_conllu, text)
        assert got_error == want_error, (seed, text)
        if want is None:
            continue
        assert len(got) == len(want), seed
        for tree, expected, sent_id in zip(got, want, sent_ids):
            cols = [(t.index, t.form, t.char_length) for t in expected.tokens]
            assert [(t.index, t.form, t.char_length) for t in tree.tokens] == cols
            assert (list(tree.forms), list(tree.char_lengths)) == (
                [c[1] for c in cols], [c[2] for c in cols]
            )
            assert (tree.heads, tree.root) == (expected.heads, expected.root)
            assert tree.sent_id == sent_id, seed


def test_mutations_reach_every_outcome():
    """The corpora reach valid trees, reordered IDs and every parse error."""
    messages = set()
    reordered = 0
    for seed in range(3000):
        text, _, mutations = random_corpus(seed)
        _, error = outcome(oracle_parse_conllu, text)
        messages.add(error[1] if error else "ok")
        reordered += not error and "swap-ids" in mutations
    assert reordered > 0 and "ok" in messages
    for needle in (
        "columns", "malformed ID", "malformed HEAD", "ID must be", "HEAD must be",
        "empty FORM", "duplicate token ID", "not consecutive", "exactly one root",
        "its own head", "outside 1..", "cycle through",
    ):
        assert any(needle in m for m in messages), needle
