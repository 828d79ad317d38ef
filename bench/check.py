"""Independent checker for deplen CLI output.

Every expected value is recomputed from the generated heads and forms with
the standard library only, following the README: words-unit lengths are
position differences; chars-unit lengths are distances between word
centres (a word of NFC length lam is centred (lam + 1) / 2 characters in,
words separated by one space); ``log`` is log(1 + d) snapped to the
nearest double and ``power:A`` with integer A is exact.  Lengths are kept
as integer half-units, as the chars unit makes them half-integers.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

from gen import Sentence, nfc_length

PREDICT_SCENARIOS = 29


def identity_cost(halves: int) -> Fraction:
    return Fraction(halves, 2)


def log_cost(halves: int) -> Fraction:
    return Fraction(math.log1p(halves / 2))


def power2_cost(halves: int) -> Fraction:
    return Fraction(halves, 2) ** 2


COSTS = {"identity": identity_cost, "log": log_cost, "power:2": power2_cost}


def edge_halves(s: Sentence, order, unit: str) -> list[int]:
    """Per-edge lengths in half-units for the tokens laid out in ``order``."""
    if unit == "words":
        centre = {t: 2 * p for p, t in enumerate(order, start=1)}
    else:
        centre = {}
        start = 1
        for t in order:
            lam = nfc_length(s.forms[t - 1])
            centre[t] = 2 * start + lam - 1
            start += lam + 1
    return [abs(centre[h] - centre[d]) for d, h in enumerate(s.heads, start=1) if h]


def cost(s: Sentence, order, unit: str, g: str) -> Fraction:
    return sum(map(COSTS[g], edge_halves(s, order, unit)), Fraction(0))


def identity(s: Sentence) -> list[int]:
    return list(range(1, s.n + 1))


EXPONENTS = {"identity": 1, "power:2": 2}


def exhaustive_minimum(s: Sentence, unit: str, g: str) -> tuple[Fraction, int]:
    """(minimum cost, number of optimal orders) over all n! orders.

    Only for costs d ** a with integer a, summed exactly in half-units.
    Token t sits at centre c[t - 1] (half-units, up to a shift that
    distances do not see); in the words unit the centres are simply a
    permutation of 0, 2, 4, ...
    """
    a = EXPONENTS[g]
    edges = [(d - 1, h - 1) for d, h in enumerate(s.heads, start=1) if h]
    if unit == "words":
        layouts = permutations(range(0, 2 * s.n, 2))
    else:
        layouts = _chars_centres(s)
    best, count = None, 0
    for c in layouts:
        key = sum(abs(c[d] - c[h]) ** a for d, h in edges)
        if best is None or key < best:
            best, count = key, 1
        elif key == best:
            count += 1
    return Fraction(best, 2**a), count


def _chars_centres(s: Sentence):
    lam = [nfc_length(f) for f in s.forms]
    centre = [0] * s.n
    for order in permutations(range(s.n)):
        x = 0
        for t in order:
            centre[t] = x + lam[t]
            x += 2 * lam[t] + 2
        yield centre


def _same(text: str, exact: Fraction) -> bool:
    """A rendered number: 'p/q' must be exact, a decimal may be a float's repr."""
    try:
        value = Fraction(text)
    except ValueError:
        return False
    return value == exact or ("/" not in text and float(value) == float(exact))


def _lines(text: str, first: str) -> list[str]:
    lines = text.split("\n")
    if not lines or not lines[0].startswith(first):
        raise ValueError("output does not start with %r" % first)
    return lines


def check_analyze_table(text: str, shard: list[Sentence]) -> None:
    """analyze, words unit, identity cost, table output."""
    lines = _lines(text, "analyze: %d sentence(s), unit=words, g=identity" % len(shard))
    if lines[1].split() != ["sentence", "n", "sum_lengths", "D"]:
        raise ValueError("bad sentence header %r" % lines[1])
    hist = Counter()
    for i, s in enumerate(shard, start=1):
        fields = lines[1 + i].split()
        halves = edge_halves(s, identity(s), "words")
        hist.update(h // 2 for h in halves)
        total = Fraction(sum(halves), 2)
        if fields[:2] != [str(i), str(s.n)] or len(fields) != 4:
            raise ValueError("sentence %d: bad row %r" % (i, lines[1 + i]))
        if not (_same(fields[2], total) and _same(fields[3], total)):
            raise ValueError("sentence %d: expected %s, got %r" % (i, total, fields[2:]))
    rest = lines[2 + len(shard) :]
    if rest[:2] != ["", "distance histogram (words)"] or rest[2].split() != ["d", "count", "p"]:
        raise ValueError("bad histogram header")
    edges = sum(hist.values())
    got = {}
    for line in rest[3:]:
        if not line:
            continue
        d, count, p = line.split()
        got[int(d)] = int(count)
        if not _same(p, Fraction(int(count), edges)):
            raise ValueError("histogram d=%s: p %s is not %d/%d" % (d, p, int(count), edges))
    if got != dict(hist):
        raise ValueError("histogram counts differ")


def check_analyze_json(text: str, shard: list[Sentence], unit: str, g: str) -> None:
    """analyze --format json for any unit and cost."""
    data = json.loads(text)
    if (data["command"], data["unit"], data["g"]) != ("analyze", unit, g):
        raise ValueError("bad header fields")
    rows = data["sentences"]
    if len(rows) != len(shard):
        raise ValueError("expected %d sentences, got %d" % (len(shard), len(rows)))
    for i, (s, row) in enumerate(zip(shard, rows), start=1):
        halves = edge_halves(s, identity(s), unit)
        total = Fraction(sum(halves), 2)
        D = sum(map(COSTS[g], halves), Fraction(0))
        if row["sentence"] != i or row["n"] != s.n:
            raise ValueError("sentence %d: bad index or n" % i)
        if Fraction(row["sum_lengths"]) != total or Fraction(row["D"]) != D:
            raise ValueError(
                "sentence %d: expected total %s and D %s, got %s and %s"
                % (i, total, D, row["sum_lengths"], row["D"])
            )
        if not (_same(row["sum_lengths_dec"], total) and _same(row["D_dec"], D)):
            raise ValueError("sentence %d: decimal renderings disagree" % i)


def check_optimize_table(
    text: str, shard: list[Sentence], unit: str, g: str, max_n: int
) -> None:
    """optimize, table output.

    The reported order must be a permutation whose recomputed cost is the
    reported optimum.  Where the search is exhaustive (n <= max_n), that
    optimum must be the true minimum over all n! orders, found here by
    exhaustive search.  Above max_n the CLI searches projective orders
    only, and the minimum is not rechecked.
    """
    head = "optimize: %d sentence(s), unit=%s, g=%s, max_n=%d" % (len(shard), unit, g, max_n)
    lines = _lines(text, head)
    if lines[1].split() != ["sentence", "n", "observed", "optimal", "gap", "search", "best_order"]:
        raise ValueError("bad header %r" % lines[1])
    for i, s in enumerate(shard, start=1):
        fields = lines[1 + i].split()
        if fields[:2] != [str(i), str(s.n)]:
            raise ValueError("sentence %d: bad row %r" % (i, lines[1 + i]))
        observed = cost(s, identity(s), unit, g)
        order = [int(t) for t in fields[6:]]
        if sorted(order) != identity(s):
            raise ValueError("sentence %d: order is not a permutation" % i)
        optimal = cost(s, order, unit, g)
        if not _same(fields[2], observed):
            raise ValueError("sentence %d: observed %s, expected %s" % (i, fields[2], observed))
        if not _same(fields[3], optimal):
            raise ValueError(
                "sentence %d: optimal %s, but its order costs %s" % (i, fields[3], optimal)
            )
        if s.n <= max_n:
            minimum = exhaustive_minimum(s, unit, g)[0]
            if fields[5] != "exhaustive" or optimal != minimum:
                raise ValueError(
                    "sentence %d: %s optimum %s, but the minimum is %s"
                    % (i, fields[5], optimal, minimum)
                )
        if optimal and not _same(fields[4], observed / optimal):
            raise ValueError("sentence %d: gap %s is not observed/optimal" % (i, fields[4]))


def check_predict_json(text: str, seed: int) -> None:
    data = json.loads(text)
    if data["command"] != "predict" or data["seed"] != seed:
        raise ValueError("bad command or seed")
    reports = data["reports"]
    if len(reports) != PREDICT_SCENARIOS:
        raise ValueError("expected %d reports, got %d" % (PREDICT_SCENARIOS, len(reports)))
    if data["all_hold"] is not True or not all(r["holds"] for r in reports):
        raise ValueError("a scenario does not hold")
