"""Minimum linear arrangement searches over dependency trees.

subset_minimum finds the exact minimum over every order for identity
cost, in either unit, by a DP over placed sets (n <= 16); it counts the
optima without listing them.  brute_force_mla enumerates every
permutation (n <= 10) for any cost, optionally filtered by
precedence/contiguity constraints, and returns every optimum.
projective_minimum finds the exact projective minimum for any unit and
cost by a tree DP, at any n but at most 16 dependents per head;
projective_mla constructs one directly for words and identity cost.
enumerate_projective lazily yields every projective arrangement
(n <= 12), a test oracle.  Costs are summed as integers through the
cost function's HalfTable, or as doubled widths for identity cost; a
Fraction is built once per result.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import factorial

from .costs import IDENTITY
from .errors import InfeasibleConstraintsError, TooLargeError
from .metrics import _half_positions, cost_D, frac_dec, frac_str, sum_lengths
from .tree import Linearization, Unit

BRUTE_FORCE_MAX = 10
SUBSET_DP_MAX = 16
PROJECTIVE_ENUM_MAX = 12
PROJECTIVE_DEGREE_MAX = 16


def _check_n(tree, limit, search):
    if tree.n > limit:
        raise TooLargeError(
            "%s is limited to n <= %d, got n = %d" % (search, limit, tree.n)
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

    def ordering_digraph(self) -> dict[int, set[int]]:
        """Token-level precedence edges implied by pairs and block order."""
        succ = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        if self.blocks:
            for i, bi in enumerate(self.blocks):
                for bj in self.blocks[i + 1:]:
                    for a in bi:
                        for b in bj:
                            succ.setdefault(a, set()).add(b)
        return succ

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


def _check_acyclic(constraint: PrecedenceConstraint):
    try:
        graphlib.TopologicalSorter(constraint.ordering_digraph()).prepare()
    except graphlib.CycleError as e:
        raise InfeasibleConstraintsError(
            "precedence constraints contain a cycle through token %d"
            % e.args[1][0]
        ) from None


@dataclass(frozen=True)
class MlaResult:
    """Outcome of an arrangement search.

    optimal_orders holds the optima the search returns, the smallest
    first: every one for brute_force_mla, one for the other searches.
    optimal_count is the number of optima counted: every one for the
    exhaustive searches, the one returned for the projective ones.
    """

    min_cost: Fraction
    optimal_orders: tuple
    searched: int
    optimal_count: int

    @property
    def representative(self) -> Linearization:
        """Lexicographically smallest optimal order."""
        return self.optimal_orders[0]

    def to_json_dict(self):
        return {
            "min_cost": frac_str(self.min_cost),
            "min_cost_dec": frac_dec(self.min_cost),
            "optimal_count": self.optimal_count,
            "representative": list(self.representative.seq),
            "searched": self.searched,
        }


def _scan(table, costs, edges, placements):
    """(minimum scaled cost, the placements attaining it, placements seen).

    costs[k] is the scaled cost of distance k: for brute_force_mla a
    prefilled slice by word distance, or in characters table.ints itself,
    which a miss fills and so rescales in place.
    """
    best = None
    optimal = []
    searched = 0
    for at in placements:
        searched += 1
        try:
            cost = 0
            for h, d in edges:
                cost += costs[abs(at[h] - at[d])]
        except (IndexError, TypeError):  # a distance g has not seen yet
            grown = table.fill([abs(at[h] - at[d]) for h, d in edges])
            if best is not None:
                best *= grown
            cost = sum(costs[abs(at[h] - at[d])] for h, d in edges)
        if best is None or cost < best:
            best = cost
            optimal = [at]
        elif cost == best:
            optimal.append(at)
    return best, optimal, searched


def _order(at):
    """The token sequence of a placement: tokens by increasing position."""
    return tuple(sorted(range(1, len(at) + 1), key=lambda t: at[t - 1]))


def brute_force_mla(tree, unit=Unit.WORDS, g=None, constraint=None) -> MlaResult:
    """Exact minimum over all (admissible) permutations.

    Guarded at n <= 10.  Returns the full set of optima, sorted so the
    lexicographically smallest order comes first.  An order is scanned as
    a placement (each token's position, or doubled center in characters),
    so an edge's cost is one lookup in g's HalfTable.
    """
    n = tree.n
    _check_n(tree, BRUTE_FORCE_MAX, "brute force")
    if g is None:
        g = IDENTITY
    if constraint is not None:
        _check_acyclic(constraint)

    tokens = range(1, n + 1)
    table = g.half_table
    if unit is Unit.WORDS:
        table.fill(range(2, 2 * n, 2))  # every distance 1..n-1 occurs
        costs = table.ints[::2]  # by word distance
        placements = permutations(tokens)  # token positions, 1..n
        if constraint is not None:
            placements = (
                at for at in placements
                if constraint.satisfied_by(dict(zip(tokens, at)))
            )
    else:
        costs = table.ints  # by half-unit distance, filled as met
        seqs = permutations(tokens)
        if constraint is not None:
            seqs = (
                seq for seq in seqs
                if constraint.satisfied_by(dict(zip(seq, tokens)))
            )
        placements = _half_positions(tree, unit, seqs)
    edges = [(h - 1, d - 1) for h, d in tree.edges]
    best, optimal, searched = _scan(table, costs, edges, placements)
    if searched == 0:
        raise InfeasibleConstraintsError(
            "no linear order satisfies the constraints"
        )
    orders = tuple(Linearization(s) for s in sorted(map(_order, optimal)))
    return MlaResult(Fraction(best, table.scale), orders, searched, len(orders))


def subset_minimum(tree, unit=Unit.WORDS) -> MlaResult:
    """Exact minimum over all orders for identity cost, by a DP over placed sets.

    Give each token v a width w_v: 1 in words, its length plus one space
    in characters.  An edge's doubled length is then w_h + w_d plus 2 w_v
    for each token v it crosses.  Placing tokens left to right after the
    placed set S, the edges crossing the next token v are the edges across
    S's cut that do not end at v.  So rest[S], the least cost of finishing
    from S, and ways[S], the number of finishes attaining it, take
    O(2^n * n); every (n - |S|)! finish is covered, so searched is n!.  A
    walk that places the smallest token keeping the cost optimal gives the
    lexicographically smallest optimum, and no optimum is listed.  Guarded
    at n <= 16.
    """
    _check_n(tree, SUBSET_DP_MAX, "subset search")
    n, chars = tree.n, unit is Unit.CHARACTERS
    step = [2 * (t.char_length + 1 if chars else 1) for t in tree.tokens]
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
    gap = int(unit is Unit.CHARACTERS)
    lam = [0] + [t.char_length if gap else 1 for t in tree.tokens]

    def length(left, v, c, off, b):  # from v's center to c's, doubled
        near = 2 * span[c] - off - 1 if left else off + 2 * gap + 1
        return 2 * b + lam[v] + near

    best, span, searched = {}, {}, 1
    for v in sorted(range(1, tree.n + 1), key=tree.subtree_size):  # dependents first
        cs = tree.children(v)
        searched *= factorial(len(cs) + 1)  # the projective orders
        span[v] = lam[v] + gap + sum(span[c] for c in cs)
        full = (1 << len(cs)) - 1
        width = [0] * (full + 1)  # the span of each subset of cs
        for s in range(1, full + 1):
            width[s] = width[s & (s - 1)] + span[cs[(s & -s).bit_length() - 1]]
        between = [{width[s] for s in range(full + 1) if not s >> i & 1}
                   for i in range(len(cs))]
        grown = table.fill(sorted({
            length(left, v, c, off, b) for left in (True, False)
            for c, bs in zip(cs, between) for off in best[c] for b in bs
        }))
        if grown != 1:  # the costs summed so far are at the old scale
            for block in best.values():
                block.update({o: (x * grown, q) for o, (x, q) in block.items()})
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
        best[v] = {}
        for s in range(full + 1):
            (lc, ls), (rc, rs) = sides[0][s], sides[1][full ^ s]
            off, cand = 2 * width[s] + lam[v] - 1, (lc + rc, ls + (v,) + rs)
            best[v][off] = min(cand, best[v].get(off, cand))
    cost, seq = min(best[tree.root].values())
    return MlaResult(Fraction(cost, table.scale), (Linearization(seq),), searched, 1)


def _arrange(tree, v, parent_side):
    """Optimal block for v's subtree, head offset minimized toward the parent.

    Dependents' blocks go to alternating sides of the head in decreasing
    subtree-size order, the smallest nearest the head, and the side
    facing the parent receives the smaller total, which both minimizes
    the internal total length and keeps the head as close as possible
    to the block edge the parent connects through.
    """
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
    # decreasing order, the right side is mirrored.
    seq = []
    for c in left:
        seq.extend(_arrange(tree, c, "right"))
    seq.append(v)
    for c in reversed(right):
        seq.extend(_arrange(tree, c, "left"))
    return seq


def projective_mla(tree) -> MlaResult:
    """Optimal projective arrangement, words unit, identity cost.

    Constructive: no search.  The cost of the built arrangement is
    measured, not predicted, so the result is consistent with the
    metrics module by construction.
    """
    lin = Linearization(tuple(_arrange(tree, tree.root, None)))
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
    observed = cost_D(tree, tree.identity_linearization(), g, unit).D
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
