"""Slow reference checks that the constrained searches are compared against."""

from itertools import permutations


def satisfied_by(constraint, pos):
    """True iff the positions pos {token: position} keep every pair and block of constraint."""
    for a, b in constraint.pairs:
        if pos[a] >= pos[b]:
            return False
    prev_max = None
    for block in constraint.blocks or ():
        ps = [pos[t] for t in block]
        lo, hi = min(ps), max(ps)
        if hi - lo + 1 != len(block):
            return False
        if prev_max is not None and lo < prev_max:
            return False
        prev_max = hi
    return True


def admissible_orders(tree, constraint):
    """Every order of the tree's tokens that satisfied_by accepts, in lexicographic order.

    constraint None accepts every order.
    """
    return [
        seq for seq in permutations(range(1, tree.n + 1))
        if constraint is None or satisfied_by(constraint, {t: p for p, t in enumerate(seq, 1)})
    ]
