"""The integer cost path against a plain Fraction oracle.

The oracle recomputes every edge length from positions and NFC form
lengths and sums g(Fraction(h, 2)) edge by edge, with no table, no
common denominator and no memo.
"""

import random
import unicodedata
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from deplen import (
    CostFunction,
    DepTree,
    DomainError,
    Linearization,
    PrecedenceConstraint,
    Token,
    Unit,
    brute_force_mla,
    build_tree,
    cost_D,
    cost_function_from_spec,
    enumerate_projective,
    is_projective,
    make_cost_function,
    parse_conllu,
    projective_mla,
    random_tree,
    sum_lengths,
    to_conllu,
)
from deplen.costs import HalfTable
from deplen.metrics import edge_halves
from deplen.optimize import projective_minimum, subset_minimum

from oracles import admissible_orders

LETTERS = "abcdefghijklmnop"
# precomposed letters and decomposed pairs that NFC composes to one character
NON_ASCII = ("é", "ß", "ł", "é", "à", "ñ")
SPECS = ("identity", "power:2", "power:3/2", "log")


def random_form(rng, longest=8):
    return "".join(
        rng.choice(NON_ASCII) if rng.random() < 0.2 else rng.choice(LETTERS)
        for _ in range(rng.randrange(1, longest + 1))
    )


def random_sentence(n, rng, longest=8):
    shape = random_tree(n, rng)
    tokens = [Token(i, random_form(rng, longest)) for i in range(1, n + 1)]
    return build_tree(tokens, shape.heads)


def oracle_halves(tree, seq, unit):
    if unit is Unit.WORDS:
        at = {t: 2 * p for p, t in enumerate(seq, start=1)}
    else:
        at, start = {}, 1
        for t in seq:
            lam = len(unicodedata.normalize("NFC", tree.forms[t - 1]))
            at[t] = 2 * start + lam - 1
            start += lam + 1
    return [abs(at[h] - at[d]) for h, d in tree.edges]


def oracle_cost(g, halves):
    return sum((g(Fraction(h, 2)) for h in halves), Fraction(0))


def oracle_mla(tree, unit, g, seqs=None):
    if seqs is None:
        seqs = permutations(range(1, tree.n + 1))
    costs = {seq: oracle_cost(g, oracle_halves(tree, seq, unit)) for seq in seqs}
    best = min(costs.values())
    return best, sorted(s for s, c in costs.items() if c == best)


@pytest.fixture()
def csv_table(tmp_path):
    path = tmp_path / "g.csv"
    # g(d) = d + 1/k with k cycling through 2..5: increasing, mixed denominators
    rows = "".join(
        "%d,%d/%d\n" % (d, d * k + 1, k) for d, k in ((d, d % 4 + 2) for d in range(1, 200))
    )
    path.write_text("d,cost\n" + rows, encoding="utf-8")
    return "table:%s" % path


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
def test_cost_D_matches_the_fraction_oracle(unit, csv_table):
    rng = random.Random(2024)
    for spec in SPECS + (csv_table,):
        # a fresh function per spec, so its memo starts empty and grows
        g = cost_function_from_spec(spec)
        for _ in range(40):
            t = random_sentence(rng.randrange(1, 16), rng)
            seq = list(range(1, t.n + 1))
            rng.shuffle(seq)
            lin = Linearization(tuple(seq))
            halves = oracle_halves(t, seq, unit)
            try:
                want = oracle_cost(g, halves)
            except DomainError:  # a table meets a half-integer distance
                with pytest.raises(DomainError):
                    cost_D(t, lin, g, unit)
                continue
            rep = cost_D(t, lin, g, unit)
            assert rep.D == want
            assert rep.sum_lengths == Fraction(sum(halves), 2)
            assert sum_lengths(t, lin, unit) == rep.sum_lengths



def outcome(fn, *args):
    """fn(*args), or the type and message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as e:
        return type(e), str(e)


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
def test_the_trees_own_order_measures_as_its_identity_order(unit, csv_table):
    # lin None reads the head column; the explicit order goes through a
    # Linearization.  A tree from Tokens carries its lengths, and its round
    # trip through CoNLL-U counts them from the forms on first use.
    rng = random.Random(4040)
    for spec in ("identity", "log", "power:2", "power:1/2", csv_table):
        g = cost_function_from_spec(spec)
        for _ in range(30):
            shape = random_tree(rng.randrange(1, 41), rng)
            words = [Token(i, "", rng.randint(1, 9)) for i in range(1, shape.n + 1)]
            built = build_tree(words, shape.heads)
            (parsed,) = parse_conllu(to_conllu([built]))
            for t in (built, parsed):
                lin = t.identity_linearization()
                assert edge_halves(t, None, unit) == edge_halves(t, lin, unit)
                assert outcome(cost_D, t, None, g, unit) == outcome(cost_D, t, lin, g, unit)


def test_cost_D_checks_the_grouped_sum_on_either_path(monkeypatch):
    # a miscount of one distance must surface, with or without an order
    import deplen.metrics as metrics_mod

    def miscount(halves):
        return Counter(halves) + Counter(halves[:1])

    monkeypatch.setattr(metrics_mod, "Counter", miscount)
    t = random_sentence(6, random.Random(5))
    for lin in (None, t.identity_linearization()):
        for unit in (Unit.WORDS, Unit.CHARACTERS):
            with pytest.raises(AssertionError, match="grouped cost"):
                cost_D(t, lin, None, unit)


def random_constraints(n, rng):
    """One pair, and blocks that leave at least one token free."""
    yield PrecedenceConstraint(pairs={tuple(rng.sample(range(1, n + 1), 2))})
    tokens = rng.sample(range(1, n + 1), n)
    k = rng.randrange(1, n)  # tokens in blocks
    cut = rng.randrange(1, k + 1)
    yield PrecedenceConstraint(blocks=[b for b in (tokens[:cut], tokens[cut:k]) if b])


def signed_table(rng):
    """g on 1..60 at seeded values of either sign, zero at a short distance.

    Where g can be zero or negative no prefix may be cut for its cost.
    """
    values = {
        d: Fraction(rng.randrange(-40, 100), rng.randrange(1, 7)) for d in range(1, 61)
    }
    zero, negative = rng.sample(range(2, 7), 2)
    values[zero], values[negative] = Fraction(0), Fraction(-7, 3)
    return make_cost_function("table", table=values, allow_nonmonotone=True)


@pytest.mark.parametrize(
    "spec, unit",
    [
        pytest.param(spec, unit, id=spec + ("-words" if unit is Unit.WORDS else ""))
        for spec in ("identity", "power:2", "log", "table")
        for unit in (Unit.CHARACTERS, Unit.WORDS)
    ],
)
def test_brute_force_matches_a_plain_permutation_loop(spec, unit):
    rng = random.Random(77)
    pick = random.Random(78)
    g = signed_table(random.Random(79)) if spec == "table" else cost_function_from_spec(spec)
    for _ in range(10):
        n = rng.randrange(2, 8)
        if spec == "table":  # odd lengths keep every chars distance an integer
            shape = random_tree(n, rng)
            words = [Token(i, "x" * rng.choice((1, 3, 5))) for i in range(1, n + 1)]
            t = build_tree(words, shape.heads)
        else:
            t = random_sentence(n, rng)
        for constraint in (None, *random_constraints(t.n, pick)):
            seqs = admissible_orders(t, constraint)
            best, optima = oracle_mla(t, unit, g, seqs)
            res = brute_force_mla(t, unit=unit, g=g, constraint=constraint)
            assert res.min_cost == best
            assert len(res.optimal_orders) == len(optima)
            assert res.representative.seq == optima[0]
            assert [l.seq for l in res.optimal_orders] == optima
            assert res.optimal_count == len(optima)
            assert res.searched == len(seqs)


def test_short_character_table_fails_where_a_scan_of_every_order_does():
    # a scan of every order, in lexicographic order, evaluates g at each
    # order's distances in edge order; the search must stop at the same one
    def first_failure(t, g):
        for seq in permutations(range(1, t.n + 1)):
            for h in oracle_halves(t, seq, Unit.CHARACTERS):
                try:
                    g(Fraction(h, 2))
                except DomainError as e:
                    return str(e)
        return None

    rng = random.Random(61)
    failures = set()
    for _ in range(40):
        n = rng.randrange(2, 8)
        shape = random_tree(n, rng)
        words = [Token(i, "x" * rng.randrange(1, 6)) for i in range(1, n + 1)]
        t = build_tree(words, shape.heads)
        g = make_cost_function("table", table={d: d for d in range(1, rng.randrange(2, 14))})
        message = first_failure(t, g)
        if message is None:
            brute_force_mla(t, unit=Unit.CHARACTERS, g=g)  # g covers every distance
            continue
        with pytest.raises(DomainError) as exc:
            brute_force_mla(t, unit=Unit.CHARACTERS, g=g)
        assert str(exc.value) == message
        failures.add(message.split(" (")[0])
    assert len(failures) > 3  # the integer rule and several missing distances


def scan_mla(tree, unit, g, constraint):
    """(min cost, optima in lexicographic order, admissible count) by a scan.

    Every admissible order is costed by cost_D: no masks, no twins and no cut.
    """
    admissible = admissible_orders(tree, constraint)
    costs = [cost_D(tree, Linearization(seq), g, unit).D for seq in admissible]
    best = min(costs)
    return best, tuple(s for s, c in zip(admissible, costs) if c == best), len(admissible)


def tree_with_forms(heads, rng=None):
    """Forms all "x" (rng None), else of 1, 3 or 5 letters: chars distances stay integers."""
    n = len(heads)
    lengths = [1] * n if rng is None else [rng.choice((1, 3, 5)) for _ in range(n)]
    return build_tree([Token(i, "x" * lam) for i, lam in enumerate(lengths, 1)],
                      dict(enumerate(heads, 1)))


def star_heads(k):
    return [0] + [1] * k


def caterpillar_heads(spine, legs):
    """A chain 1..spine, each spine token with legs leaves after it."""
    return [0] + list(range(1, spine)) + [s for s in range(1, spine + 1) for _ in range(legs)]


def leaf_pair(tree):
    """Two leaves with one head, twins but for a constraint, or None."""
    by_head = {}
    for h, d in tree.edges:
        if not tree.children(d):
            by_head.setdefault(h, []).append(d)
    return next((tuple(ds[:2]) for ds in by_head.values() if len(ds) > 1), None)


def twin_constraints(tree):
    """No constraint, then, for two would-be twins a, b: both in one block,
    each in a block of its own, a in a block with its head and b free, and
    a pair putting b before a."""
    yield None
    pair = leaf_pair(tree)
    if pair:
        a, b = pair
        yield PrecedenceConstraint(blocks=[(a, b)])
        yield PrecedenceConstraint(blocks=[(a,), (b,)])
        yield PrecedenceConstraint(blocks=[(a, tree.head_of(a))])
        yield PrecedenceConstraint(pairs={(b, a)})


def twin_trees():
    rng = random.Random(1515)
    for k in range(1, 6):
        yield "star%d" % k, tree_with_forms(star_heads(k))
    yield "star4-mixed", tree_with_forms(star_heads(4), random.Random(3))
    yield "caterpillar2x2", tree_with_forms(caterpillar_heads(2, 2))
    yield "caterpillar3x1", tree_with_forms(caterpillar_heads(3, 1))
    for i in range(6):
        shape = random_tree(rng.randrange(4, 7), rng)
        yield "random%d" % i, tree_with_forms(shape.head_column)


TWIN_COSTS = ("identity", "power:2", "power:1/2", "log", "table")


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
@pytest.mark.parametrize("spec", TWIN_COSTS)
def test_twin_search_matches_a_scan_of_every_order(unit, spec):
    # twins (same neighbours, width, predecessors, successors and block)
    # are searched in index order only and their optima listed by permuting
    # them; the scan knows nothing of twins
    if spec == "table":  # monotone, past every distance met here
        g = make_cost_function("table", table={d: d * d + 1 for d in range(1, 40)})
    else:
        g = cost_function_from_spec(spec)
    trees = list(twin_trees())
    assert sum(leaf_pair(t) is not None for _, t in trees) >= 8  # most have twins
    for name, t in trees:
        for constraint in twin_constraints(t):
            best, optima, admissible = scan_mla(t, unit, g, constraint)
            res = brute_force_mla(t, unit=unit, g=g, constraint=constraint)
            got = (res.min_cost, tuple(l.seq for l in res.optimal_orders),
                   res.searched, res.optimal_count)
            assert got == (best, optima, admissible, len(optima)), (name, constraint)


def test_a_star_of_six_lists_every_optimum():
    # 7 words, the head in the middle: one optimum per order of the 6 leaves
    g = cost_function_from_spec("power:2")
    t = tree_with_forms(star_heads(6))
    res = brute_force_mla(t, g=g)
    best, optima, admissible = scan_mla(t, Unit.WORDS, g, None)
    assert (res.min_cost, res.searched, res.optimal_count) == (best, admissible, 720)
    assert tuple(l.seq for l in res.optimal_orders) == optima


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
def test_a_short_table_fails_on_twins_where_the_scan_does(unit):
    # words: every distance 1..n-1 is evaluated first, in increasing order;
    # chars: at the first order, lexicographically, that meets a distance g
    # lacks, which has its twins in index order
    def first_failure(t, g, constraint):
        if unit is Unit.WORDS:
            seqs, halves = [None], lambda seq: range(2, 2 * t.n, 2)
        else:
            seqs = admissible_orders(t, constraint)
            halves = lambda seq: oracle_halves(t, seq, unit)
        for seq in seqs:
            for h in halves(seq):
                try:
                    g(Fraction(h, 2))
                except DomainError as e:
                    return str(e)
        return None

    rng = random.Random(62)
    messages = set()
    for name, t in twin_trees():
        for forms in (None, rng):
            t = tree_with_forms(t.head_column, forms)
            for constraint in twin_constraints(t):
                g = make_cost_function("table", table={d: d for d in range(1, rng.randrange(2, 9))})
                message = first_failure(t, g, constraint)
                if message is None:
                    brute_force_mla(t, unit=unit, g=g, constraint=constraint)
                    continue
                with pytest.raises(DomainError) as exc:
                    brute_force_mla(t, unit=unit, g=g, constraint=constraint)
                assert str(exc.value) == message, (name, constraint)
                messages.add(message)
    assert len(messages) > 3


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
def test_subset_minimum_matches_brute_force(unit):
    # exhaustive identity rows: the subset DP against scoring every order
    rng = random.Random(53)
    for n in range(1, 9):
        for _ in range(5):
            t = random_sentence(n, rng, longest=9)
            res, oracle = subset_minimum(t, unit), brute_force_mla(t, unit)
            assert res.min_cost == oracle.min_cost
            assert res.optimal_count == len(oracle.optimal_orders)
            assert res.representative == oracle.representative
            assert res.searched == oracle.searched


def test_searches_rescale_when_a_new_denominator_appears():
    # one-character forms keep every chars distance an integer; each
    # table entry brings a new prime denominator in the middle of the search
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

    def fresh_table():
        return make_cost_function(
            "table", table={d: Fraction(d * 60, p) for d, p in enumerate(primes, 1)},
            allow_nonmonotone=True,
        )

    g = fresh_table()
    rng = random.Random(5)
    pick = random.Random(6)
    for _ in range(6):
        shape = random_tree(rng.randrange(3, 7), rng)
        t = build_tree([Token(i, "x") for i in range(1, shape.n + 1)], shape.heads)
        best, optima = oracle_mla(t, Unit.CHARACTERS, g)
        res = brute_force_mla(t, unit=Unit.CHARACTERS, g=fresh_table())
        assert res.min_cost == best
        assert [l.seq for l in res.optimal_orders] == optima
        block = PrecedenceConstraint(blocks=[pick.sample(range(1, t.n + 1), 2)])
        seqs = admissible_orders(t, block)
        best, optima = oracle_mla(t, Unit.CHARACTERS, g, seqs)
        res = brute_force_mla(t, unit=Unit.CHARACTERS, g=fresh_table(), constraint=block)
        assert res.min_cost == best
        assert [l.seq for l in res.optimal_orders] == optima
        assert res.searched == len(seqs)
        projective = min(
            (oracle_cost(g, oracle_halves(t, lin.seq, Unit.CHARACTERS)), lin.seq)
            for lin in enumerate_projective(t)
        )
        res = projective_minimum(t, Unit.CHARACTERS, fresh_table())
        assert (res.min_cost, res.representative.seq) == projective


def nonmonotone_table(rng):
    """g on 1..60 at seeded random values: not monotone, mixed denominators."""
    return make_cost_function(
        "table",
        table={
            d: Fraction(rng.randrange(1, 200), rng.randrange(1, 7))
            for d in range(1, 61)
        },
        allow_nonmonotone=True,
    )


@pytest.mark.parametrize("unit", [Unit.WORDS, Unit.CHARACTERS])
def test_projective_enum_matches_the_oracle(unit):
    # projective-enum rows: the tree DP against scoring every projective order
    rng = random.Random(31)
    for spec in ("identity", "power:2", "power:1/2", "power:3/2", "log", "table"):
        for _ in range(12):
            n = rng.randrange(1, 10)
            if spec == "table":  # odd lengths keep every chars distance an integer
                shape = random_tree(n, rng)
                words = [Token(i, "x" * rng.choice((1, 3, 5))) for i in range(1, n + 1)]
                t = build_tree(words, shape.heads)
                g = nonmonotone_table(rng)
            else:
                t = random_sentence(n, rng)
                g = cost_function_from_spec(spec)
            costs = {
                lin.seq: oracle_cost(g, oracle_halves(t, lin.seq, unit))
                for lin in enumerate_projective(t)
            }
            best = min(costs.values())
            res = projective_minimum(t, unit, g)
            assert res.min_cost == best
            assert res.representative.seq == min(s for s, c in costs.items() if c == best)
            assert res.searched == len(costs)


def test_both_projective_searches_agree_beyond_the_oracle():
    rng = random.Random(41)
    for _ in range(60):
        t = random_tree(rng.randrange(1, 41), rng)
        assert projective_minimum(t).min_cost == projective_mla(t).min_cost


def test_table_refuses_a_half_integer_character_distance(csv_table):
    g = cost_function_from_spec(csv_table)
    t = build_tree([Token(1, "ab"), Token(2, "c")], {1: 0, 2: 1})  # 3/2 apart
    lin = t.identity_linearization()
    with pytest.raises(DomainError, match="integers only"):
        cost_D(t, lin, g, Unit.CHARACTERS)
    with pytest.raises(DomainError, match="integers only"):
        brute_force_mla(t, unit=Unit.CHARACTERS, g=g)
    with pytest.raises(DomainError, match="integers only"):
        projective_minimum(t, Unit.CHARACTERS, g)


def test_table_shorter_than_the_longest_distance():
    g = make_cost_function("table", table={1: 1, 2: 3})
    t = build_tree([Token(i, "w") for i in range(1, 5)], {1: 0, 2: 1, 3: 1, 4: 1})
    message = r"table has no cost for d=3 \(domain 1\.\.2\)"
    with pytest.raises(DomainError, match=message):
        cost_D(t, t.identity_linearization(), g)
    with pytest.raises(DomainError, match=message):
        brute_force_mla(t, g=g)
    # the failed evaluations leave the memo usable
    assert cost_D(t, Linearization((2, 1, 3, 4)), g).D == 1 + 1 + 3


def test_each_distinct_distance_reaches_g_once():
    calls = []

    class Counting(CostFunction):
        def __call__(self, d):
            calls.append(d)
            return super().__call__(d)

    g = Counting("log")
    rng = random.Random(8)
    seen = set()
    for _ in range(30):
        t = random_sentence(rng.randrange(2, 12), rng)
        lin = t.identity_linearization()
        for unit in (Unit.WORDS, Unit.CHARACTERS):
            cost_D(t, lin, g, unit)
            seen.update(Fraction(h, 2) for h in oracle_halves(t, lin.seq, unit))
    assert sorted(calls) == sorted(seen)


@pytest.mark.parametrize(
    "spec, scale",
    [("identity", 2), ("power:3", 8), ("table", 12), ("log", 2**53), ("power:1/2", 2**53)],
    ids=["identity", "power:3", "table", "log", "power:1/2"],
)
def test_half_table_scale_is_fixed_by_the_kind(spec, scale):
    if spec == "table":  # denominators 3 and 4
        g = make_cost_function("table", table={1: Fraction(1, 3), 2: Fraction(3, 4), 3: 2})
    else:
        g = cost_function_from_spec(spec)
    table = g.half_table
    assert table.scale == scale
    table.fill([2, 4, 6])  # g at 1, 2 and 3
    assert table.scale == scale


@pytest.mark.parametrize(
    "spec", ["identity", "power:2", "power:3", "power:3/2", "power:1/2", "log", "table"]
)
def test_half_table_is_exact_at_its_scale(spec, csv_table):
    g = cost_function_from_spec(csv_table if spec == "table" else spec)
    table = g.half_table
    # a table is defined on whole distances only, and up to 199
    defined = [h for h in range(2, 401) if spec != "table" or (h % 2 == 0 and h < 400)]
    assert table.fill(defined) is None
    for h in defined:
        assert table.ints[h] * Fraction(1, table.scale) == g(Fraction(h, 2))


def test_a_value_off_the_scale_is_an_assertion_error():
    with pytest.raises(AssertionError, match="not a multiple of 1/2"):
        HalfTable(lambda d: d / 3, 2).fill([2])
    # (1/2)**(3/2) needs 2**-54, below the least distance any search meets
    with pytest.raises(AssertionError, match="not a multiple of 1/%d" % 2**53):
        cost_function_from_spec("power:3/2").half_table.fill([1])


def width_halves(widths, seq):
    """Doubled center 2s + w of each token after tokens of total width s."""
    at, start = {}, 0
    for t in seq:
        at[t] = 2 * start + widths[t - 1]
        start += widths[t - 1]
    return at


def test_every_search_reads_the_unit_from_the_tree_widths(monkeypatch):
    # In characters without the space, only DepTree.widths changes: every
    # measure and search must follow it to the same oracle.
    monkeypatch.setattr(
        DepTree, "widths",
        lambda self, unit: self.char_lengths if unit is Unit.CHARACTERS else (1,) * self.n,
    )
    rng = random.Random(97)
    for spec in ("identity", "power:2", "log", "power:1/2"):
        g = cost_function_from_spec(spec)
        for _ in range(6):
            t = random_sentence(rng.randrange(2, 8), rng, longest=5)
            costs = {}
            for seq in permutations(range(1, t.n + 1)):
                at = width_halves(t.char_lengths, seq)
                costs[seq] = oracle_cost(g, [abs(at[h] - at[d]) for h, d in t.edges])
            seq = rng.choice(sorted(costs))
            assert cost_D(t, Linearization(seq), g, Unit.CHARACTERS).D == costs[seq]
            best = min(costs.values())
            optima = sorted(s for s, c in costs.items() if c == best)
            res = brute_force_mla(t, Unit.CHARACTERS, g)
            assert (res.min_cost, [l.seq for l in res.optimal_orders]) == (best, optima)
            if spec == "identity":
                res = subset_minimum(t, Unit.CHARACTERS)
                assert (res.min_cost, res.optimal_count) == (best, len(optima))
                assert res.representative.seq == optima[0]
            projective = min(
                (c, s) for s, c in costs.items() if is_projective(t, Linearization(s))
            )
            res = projective_minimum(t, Unit.CHARACTERS, g)
            assert (res.min_cost, res.representative.seq) == projective
