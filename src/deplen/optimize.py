"""Minimum linear arrangement searches over dependency trees.

subset_minimum finds the exact minimum over every order for identity
cost, in either unit, by a DP over placed sets (n <= 16); it counts the
optima without listing them.  brute_force_mla searches every order
(n <= 10) for any cost by a depth-first search over placed prefixes: it
generates only the orders that meet the precedence/contiguity
constraints (compiled once to bit masks, their tokens and any cycle
checked first), drops a prefix that already costs more than the best
order for the kinds positive on d > 0, and returns every optimum.
Twins, tokens that no cost or constraint tells apart, are searched in
one order only, and the optima their other orders give are listed by
permuting them.
projective_minimum finds the exact projective minimum for any unit and
cost by a tree DP, at any n but at most 16 dependents per head;
projective_mla constructs one directly for words and identity cost.
enumerate_projective lazily yields every projective arrangement
(n <= 12), a test oracle.  The searches read the unit from
DepTree.widths, and sum costs as integers over the fixed scale of the
cost function's HalfTable, or as doubled widths for identity cost; a
Fraction is built once per result.  Neither projective search recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, permutations, product
from math import factorial, inf, prod

from . import BRUTE_FORCE_MAX
from .costs import IDENTITY
from .errors import InfeasibleConstraintsError, TooLargeError
from .metrics import cost_D, frac_dec, frac_str, sum_lengths
from .tree import Linearization, Unit

SUBSET_DP_MAX = 16
PROJECTIVE_ENUM_MAX = 12
PROJECTIVE_DEGREE_MAX = 16


def _check_n(tree, limit, search):
    if tree.n > limit:
        raise TooLargeError(
            "%s is limited to n <= %d, got n = %d" % (search, limit, tree.n)
        )


def check_max_n(max_n):
    """Refuse a --max-n beyond the largest n brute force searches."""
    if max_n > BRUTE_FORCE_MAX:
        raise TooLargeError(
            "--max-n is capped at %d (exhaustive search)" % BRUTE_FORCE_MAX
        )


def _check_degree(tree):
    degree = max(len(tree.children(v)) for v in range(1, tree.n + 1))
    if degree > PROJECTIVE_DEGREE_MAX:
        raise TooLargeError(
            "projective search is limited to %d dependents per head, got %d"
            % (PROJECTIVE_DEGREE_MAX, degree)
        )


@dataclass(frozen=True)
class PrecedenceConstraint:
    """Restrictions on admissible linear orders.

    pairs: (a, b) entries force token a before token b.
    blocks: groups of tokens; each group must occupy consecutive
    positions, and the groups appear in the given relative order.
    Tokens in no group are free to land anywhere that keeps the listed
    groups contiguous.
    """

    pairs: frozenset = frozenset()
    blocks: tuple = None

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", frozenset((int(a), int(b)) for a, b in self.pairs)
        )
        if self.blocks is not None:
            blocks = tuple(tuple(int(t) for t in b) for b in self.blocks)
            object.__setattr__(self, "blocks", blocks)
            seen = set()
            for b in blocks:
                if not b:
                    raise ValueError("empty block")
                for t in b:
                    if t in seen:
                        raise ValueError("token %d appears in two blocks" % t)
                    seen.add(t)

    def satisfied_by(self, pos: dict[int, int]) -> bool:
        for a, b in self.pairs:
            if pos[a] >= pos[b]:
                return False
        if self.blocks:
            prev_max = None
            for block in self.blocks:
                ps = [pos[t] for t in block]
                lo, hi = min(ps), max(ps)
                if hi - lo + 1 != len(block):
                    return False
                if prev_max is not None and lo < prev_max:
                    return False
                prev_max = hi
        return True


def _masks(constraint, n):
    """The constraint as bit masks over token - 1: (pred, blocks).

    pred[v] holds v's paired predecessors and every token of an earlier
    block; blocks holds each block's tokens.  A token outside 1..n is a
    ValueError, then a cycle in pred an InfeasibleConstraintsError naming
    a token on it, before any search.
    """
    named = [t for pair in constraint.pairs for t in pair]
    named += [t for block in constraint.blocks or () for t in block]
    outside = sorted(t for t in named if not 1 <= t <= n)
    if outside:
        raise ValueError(
            "constraint names token %d, outside 1..%d" % (outside[0], n)
        )
    pred, blocks = [0] * n, []
    for a, b in constraint.pairs:
        pred[b - 1] |= 1 << a - 1
    for block in constraint.blocks or ():
        for t in block:
            pred[t - 1] |= sum(blocks)  # the earlier blocks, disjoint
        blocks.append(sum(1 << t - 1 for t in block))
    rest, free = (1 << n) - 1, True  # peel off tokens with no predecessor left
    while free:
        free = sum(1 << v for v in range(n) if rest >> v & 1 and not pred[v] & rest)
        rest &= ~free
    if rest:  # every token left has a predecessor left: walk back to a repeat
        v, seen = rest.bit_length() - 1, set()
        while v not in seen:
            seen.add(v)
            v = (pred[v] & rest).bit_length() - 1
        raise InfeasibleConstraintsError(
            "precedence constraints contain a cycle through token %d" % (v + 1)
        )
    return pred, blocks


@dataclass(frozen=True)
class MlaResult:
    """Outcome of an arrangement search.

    optimal_orders holds the optima the search returns: every one for
    brute_force_mla, in lexicographic order, and one for the others.
    That one is the smallest for subset_minimum, the smallest projective
    one for projective_minimum, and the one constructed for projective_mla.
    optimal_count is the number of optima counted: every one for the
    exhaustive searches, the one returned for the projective ones.
    """

    min_cost: Fraction
    optimal_orders: tuple
    searched: int
    optimal_count: int

    @property
    def representative(self) -> Linearization:
        """The first optimal order returned (see optimal_orders)."""
        return self.optimal_orders[0]

    def to_json_dict(self):
        return {
            "min_cost": frac_str(self.min_cost),
            "min_cost_dec": frac_dec(self.min_cost),
            "optimal_count": self.optimal_count,
            "representative": list(self.representative.seq),
            "searched": self.searched,
        }


def _moves(adj, pred, blocks):
    """The admissible next steps from each placed set reached, and their count.

    Sets are bit masks over token - 1 (see _masks), and adj lists each
    token's neighbours.  moves[s] lists (v, the tokens in s linked to v,
    s with v) for each token v that may follow s: pred[v] is in s, v
    finishes the block s has started, if any, and some admissible order
    goes on from there.  ways[s] counts those orders, so ways[0] is the
    number of admissible orders, 0 when none exists.  Only the sets that
    such steps reach from the empty set are visited.  brute_force_mla
    chains each class of twins in pred, so there ways[0] counts the
    canonical orders, those with every class in index order.
    """
    n = len(adj)
    full = (1 << n) - 1
    moves, ways = [()] * (full + 1), [None] * full + [1]  # None: not visited

    def visit(s):
        free = full & ~s
        for b in blocks:
            if s & b and free & b:  # started, not finished
                free &= b
        steps = []
        for v in range(n):
            if free >> v & 1 and not pred[v] & ~s:
                t = s | 1 << v
                if ways[t] is None:
                    visit(t)
                if ways[t]:
                    steps.append((v, tuple(u for u in adj[v] if s >> u & 1), t))
        moves[s], ways[s] = steps, sum(ways[t] for _, _, t in steps)

    visit(0)
    return moves, ways[0]


def _twin_classes(adj, w, pred, blocks):
    """The classes of two or more twins, each a list of tokens - 1 in index order.

    Twins have the same neighbours, the same width, the same predecessors
    and successors in pred and the same block, if any (see _masks).
    Swapping two twins changes neither the cost of an order nor whether
    it is admissible.
    """
    n = len(adj)
    succ = [sum(1 << v for v in range(n) if pred[v] >> u & 1) for u in range(n)]
    block = [next((i for i, b in enumerate(blocks) if b >> v & 1), None) for v in range(n)]
    classes = {}
    for v in range(n):
        key = frozenset(adj[v]), w[v], pred[v], succ[v], block[v]
        classes.setdefault(key, []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def _arrangements(seq, classes):
    """seq with each class's tokens permuted over the positions they take, every way.

    seq holds each class in index order, so its k-th token sits where
    the k-th token of a permutation goes.
    """
    tokens = [v + 1 for c in classes for v in c]
    at = {t: len(seq) + i for i, t in enumerate(tokens)}  # in seq + the permutations
    index = [at.get(t, p) for p, t in enumerate(seq)]
    rows = []
    for perms in product(*(permutations([v + 1 for v in c]) for c in classes)):
        source = seq + tuple(chain.from_iterable(perms))
        rows.append(tuple(map(source.__getitem__, index)))
    return rows


def brute_force_mla(tree, unit=Unit.WORDS, g=None, constraint=None) -> MlaResult:
    """Exact minimum over all (admissible) orders, with every optimum.

    Guarded at n <= 10.  A depth-first search places tokens left to right
    at doubled centers, so both units share one path.  Only admissible
    prefixes are generated (see _moves), and an edge's cost, one lookup
    in g's HalfTable, is added once, when its second end is placed.  For
    the kinds positive on d > 0 (all but tables), a prefix that already
    costs more than the best complete order is dropped; ties are kept, so
    every optimum is returned, in lexicographic order.  In characters a
    distance g has not seen yet leaves the prefix unsummed down to its
    first leaf, where g is evaluated at that order's distances in edge
    order, as a scan of every order would.  Each class of twins (see
    _twin_classes) is placed in index order only; the optimal set is
    closed under permuting a class, so each optimum found is expanded
    into every arrangement of each class over the positions it took.  The
    first order, lexicographically, that meets a distance g lacks has
    every class in index order, so the search stops where a scan would.
    searched is the number of admissible orders: the canonical ones
    times the product of the factorials of the class sizes.
    """
    n = tree.n
    _check_n(tree, BRUTE_FORCE_MAX, "brute force")
    if g is None:
        g = IDENTITY
    pred, blocks = _masks(constraint or PrecedenceConstraint(), n)
    table = g.half_table
    if unit is Unit.WORDS:
        table.fill(range(2, 2 * n, 2))  # every distance 1..n-1 occurs
    edges = [(h - 1, d - 1) for h, d in tree.edges]
    adj = [[] for _ in range(n)]
    for h, d in edges:
        adj[h].append(d)
        adj[d].append(h)
    w = tree.widths(unit)
    twins = _twin_classes(adj, w, pred, blocks)
    for c in twins:  # each class in index order: one order per arrangement of twins
        for u, v in zip(c, c[1:]):
            pred[v] |= 1 << u
    moves, canonical = _moves(adj, pred, blocks)
    if not canonical:
        raise InfeasibleConstraintsError(
            "no linear order satisfies the constraints"
        )
    searched = canonical * prod(factorial(len(c)) for c in twins)
    ints, cut, full = table.ints, g.kind != "table", (1 << n) - 1
    at, seq, sums = [0] * n, [0] * n, [0] * (n + 1)  # sums[k]: the first k placed
    best = bound = inf  # bound stays inf where there is no cut
    optima = []

    def refill():  # g where the order at the leaf misses it, then the path re-summed
        table.fill([abs(at[h] - at[d]) for h, d in edges])
        for k, v in enumerate(seq):
            c = at[v - 1]
            sums[k + 1] = sums[k] + sum(ints[c - at[u]] for u in adj[v - 1] if at[u] < c)
        return sums[n]

    def descend(s, start, k):
        nonlocal best, bound, optima
        for v, back, t in moves[s]:
            at[v] = c = 2 * start + w[v]
            seq[k] = v + 1
            x = sums[k]
            if x is not None:
                try:
                    for u in back:
                        x += ints[c - at[u]]
                except (IndexError, TypeError):  # a distance g has not seen yet
                    x = None
            if t != full:
                if x is None or x <= bound:
                    sums[k + 1] = x
                    descend(t, start + w[v], k + 1)
                continue
            if x is None:
                x = refill()
            if x < best:
                best, optima = x, [tuple(seq)]
                if cut:
                    bound = best
            elif x == best:
                optima.append(tuple(seq))

    descend(0, 0, 0)
    if twins:
        optima = sorted(s for seq in optima for s in _arrangements(seq, twins))
    orders = tuple(map(Linearization, optima))
    return MlaResult(Fraction(best, table.scale), orders, searched, len(orders))


def subset_minimum(tree, unit=Unit.WORDS) -> MlaResult:
    """Exact minimum over all orders for identity cost, by a DP over placed sets.

    Each token v has its width w_v (see DepTree.widths).  An edge's
    doubled length is then w_h + w_d plus 2 w_v for each token v it
    crosses.  Placing tokens left to right after the placed set S, the
    edges crossing the next token v are the edges across S's cut that do
    not end at v.  So rest[S], the least cost of finishing from S, and
    ways[S], the number of finishes attaining it, take O(2^n * n); every
    (n - |S|)! finish is covered, so searched is n!.  A walk that places
    the smallest token keeping the cost optimal gives the
    lexicographically smallest optimum, and no optimum is listed.
    Guarded at n <= 16.
    """
    _check_n(tree, SUBSET_DP_MAX, "subset search")
    n = tree.n
    step = [2 * w for w in tree.widths(unit)]
    adj = [0] * n  # each token's neighbours, as a set of bits
    for h, d in tree.edges:
        adj[h - 1] |= 1 << d - 1
        adj[d - 1] |= 1 << h - 1
    full = (1 << n) - 1
    cut = [0] * (full + 1)  # the number of edges leaving each placed set
    for s in range(1, full + 1):
        v = (s & -s).bit_length() - 1
        cut[s] = cut[s & (s - 1)] + adj[v].bit_count() - 2 * (adj[v] & s).bit_count()
    rest, ways = [0] * (full + 1), [1] * (full + 1)

    def cost(s, v):  # of placing v next after s, plus the least finish
        return rest[s | 1 << v] + step[v] * (cut[s] - (adj[v] & s).bit_count())

    for s in range(full - 1, -1, -1):
        xs = {v: cost(s, v) for v in range(n) if not s >> v & 1}
        rest[s] = best = min(xs.values())
        ways[s] = sum(ways[s | 1 << v] for v, x in xs.items() if x == best)
    seq, s = [], 0
    while s != full:
        v = next(v for v in range(n) if not s >> v & 1 and cost(s, v) == rest[s])
        seq.append(v + 1)
        s |= 1 << v
    ends = sum(step[h - 1] + step[d - 1] for h, d in tree.edges) // 2
    return MlaResult(
        Fraction(ends + rest[0], 2), (Linearization(tuple(seq)),), factorial(n), ways[0]
    )


def _projective_seqs(tree, v, units=None):
    """Lazily yield v's projective subtree orders; units sets v's and kids' order."""
    if units is None:
        for units in permutations((v,) + tree.children(v)):
            yield from _projective_seqs(tree, v, units)
    elif not units:
        yield ()
    else:
        first = ((v,),) if units[0] == v else _projective_seqs(tree, units[0])
        for head in first:
            for rest in _projective_seqs(tree, v, units[1:]):
                yield head + rest


def enumerate_projective(tree):
    """Yield every projective arrangement of the tree exactly once.

    Every subtree occupies a contiguous span; at each node the head and
    its dependents' spans are interleaved in all possible orders.  The
    count is the product over nodes of (children + 1)!, built one order at
    a time.  Guarded at n <= 12, since that count can still be huge.
    """
    _check_n(tree, PROJECTIVE_ENUM_MAX, "projective enumeration")
    for seq in _projective_seqs(tree, tree.root):
        yield Linearization(seq)


def projective_minimum(tree, unit=Unit.WORDS, g=None) -> MlaResult:
    """Exact minimum over every projective arrangement, for any unit and cost.

    Each subtree fills one block, so a dependent's doubled edge length
    depends only on its head's width, its own head's offset in its block
    and the width b of the sibling blocks in between.  best[v] maps v's
    doubled offset to the least (cost, token sequence) of v's block; each
    side of v is a subset DP over its dependents, outermost block added
    last.  Blocks of one subtree hold the same tokens, so the least
    (cost, sequence) is the lexicographically smallest optimum.
    """
    _check_degree(tree)
    table = (g or IDENTITY).half_table
    w = (0,) + tree.widths(unit)

    def length(left, v, c, off, b):  # from v's center to c's, doubled
        return 2 * b + w[v] + (2 * span[c] - off if left else off)

    best, span, searched = {}, {}, 1
    for v in sorted(range(1, tree.n + 1), key=tree.subtree_size):  # dependents first
        cs = tree.children(v)
        searched *= factorial(len(cs) + 1)  # the projective orders
        span[v] = w[v] + sum(span[c] for c in cs)
        full = (1 << len(cs)) - 1
        width = [0] * (full + 1)  # the span of each subset of cs
        for s in range(1, full + 1):
            width[s] = width[s & (s - 1)] + span[cs[(s & -s).bit_length() - 1]]
        between = [{width[s] for s in range(full + 1) if not s >> i & 1}
                   for i in range(len(cs))]
        table.fill(sorted({
            length(left, v, c, off, b) for left in (True, False)
            for c, bs in zip(cs, between) for off in best[c] for b in bs
        }))
        sides = []
        for left in (True, False):
            place = [{b: min((cost + table.ints[length(left, v, c, off, b)], seq)
                             for off, (cost, seq) in best[c].items())
                      for b in bs} for c, bs in zip(cs, between)]

            def outermost(inner, i):  # block i beyond the blocks in inner
                (cost, seq), (c0, s0) = place[i][width[inner]], side[inner]
                return c0 + cost, (seq + s0 if left else s0 + seq)
            side = [(0, ())]
            for s in range(1, full + 1):
                side.append(min(outermost(s ^ 1 << i, i)
                                for i in range(len(cs)) if s >> i & 1))
            sides.append(side)
        for c in cs:  # no map but v's is read again: free its dependents'
            del best[c]
        best[v] = {}
        for s in range(full + 1):
            (lc, ls), (rc, rs) = sides[0][s], sides[1][full ^ s]
            off, cand = 2 * width[s] + w[v], (lc + rc, ls + (v,) + rs)
            best[v][off] = min(cand, best[v].get(off, cand))
    cost, seq = min(best[tree.root].values())
    return MlaResult(Fraction(cost, table.scale), (Linearization(seq),), searched, 1)


def projective_mla(tree) -> MlaResult:
    """Optimal projective arrangement, words unit, identity cost.

    Constructive: no search.  Dependents' blocks go to alternating sides
    of the head in decreasing subtree-size order, the smallest nearest
    the head, and the side facing the parent receives the smaller total,
    which both minimizes the internal total length and keeps the head as
    close as possible to the block edge the parent connects through.  The
    cost of the built arrangement is measured, not predicted, so the
    result is consistent with the metrics module by construction.
    """
    seq = []
    todo = [(tree.root, None)]  # blocks (v, its parent's side) and heads, next last
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            seq.append(item)
            continue
        v, parent_side = item
        kids = sorted(
            tree.children(v), key=lambda c: (-tree.subtree_size(c), c)
        )
        odd = kids[0::2]   # larger half: 1st, 3rd, ... largest first
        even = kids[1::2]  # smaller half: 2nd, 4th, ...
        if parent_side == "left":
            left, right = even, odd
        else:  # parent to the right, or root
            left, right = odd, even
        # On each side the outermost block is the largest: left side keeps
        # decreasing order, the right side is mirrored.  The block reads
        # left, v, reversed(right), so it is pushed in the opposite order.
        todo.extend((c, "left") for c in right)
        todo.append(v)
        todo.extend((c, "right") for c in reversed(left))
    lin = Linearization(tuple(seq))
    cost = sum_lengths(tree, lin, Unit.WORDS)
    return MlaResult(cost, (lin,), 1, 1)


def _plan_one(tree, unit, g, max_n, exact):
    """The search a tree gets, with its size limit checked before any search.

    Exhaustive search when exact or n <= max_n: the subset DP for identity
    cost, brute force for any other.  Otherwise the projective construction
    for words with identity cost, else the projective tree DP.  Returns a
    callable that runs the search and gives the tree's row.
    """
    if exact or tree.n <= max_n:
        mode = "exhaustive"
        if g.kind == "identity":
            _check_n(tree, SUBSET_DP_MAX, "subset search")
            search = partial(subset_minimum, tree, unit)
        else:
            _check_n(tree, BRUTE_FORCE_MAX, "brute force")
            search = partial(brute_force_mla, tree, unit, g)
    elif unit is Unit.WORDS and g.kind == "identity":
        mode, search = "projective", partial(projective_mla, tree)
    else:
        _check_degree(tree)
        mode, search = "projective-enum", partial(projective_minimum, tree, unit, g)
    return partial(_optimize_one, tree, unit, g, mode, search)


def _optimize_one(tree, unit, g, mode, search):
    """Observed cost of the tree's own order against search()'s minimum."""
    observed = cost_D(tree, None, g, unit).D
    result = search()
    gap = observed / result.min_cost if result.min_cost else Fraction(1)
    return {
        "n": tree.n,
        "observed": observed,
        "optimal": result.min_cost,
        "gap": gap,
        "search": mode,
        "optimal_count": result.optimal_count if mode == "exhaustive" else None,
        "searched": result.searched,
        "representative": list(result.representative.seq),
    }
