"""Slow reference checks that the searches and the prediction judges are compared against."""

from itertools import permutations
from math import factorial

from deplen import cost_D, star_tree
from deplen.metrics import frac_str


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


# The prediction judges as they read the full listing of optima, each
# giving (holds, counterexample, detail) for a search's result: the
# reference for the judges of deplen.predictions, which read one optimum
# per arrangement of twins.


def star_verdict(k, result, g):
    """check_star_placement's verdict on a k-dependent star, from every optimum."""
    tree = star_tree(k)
    medians = {(k + 2) // 2, (k + 3) // 2}
    optima = result.optimal_orders
    head_positions = {lin.position(1) for lin in optima}
    peripheral = cost_D(tree, None, g).D
    detail = {
        "k": k,
        "medians": sorted(medians),
        "head_positions": sorted(head_positions),
        "peripheral_cost": frac_str(peripheral),
        "gap_vs_peripheral": frac_str(peripheral / result.min_cost) if result.min_cost else None,
    }
    if k == 1:
        holds = len(optima) == result.searched == 2
        detail["placement_irrelevant"] = holds
        return holds, None, detail
    holds = head_positions == medians and len(optima) == len(medians) * factorial(k)
    return holds, next((lin for lin in optima if lin.position(1) not in medians), None), detail


def _placement(lin, head, deps):
    hp, dps = lin.position(head), [lin.position(d) for d in deps]
    return "first" if hp < min(dps) else "last" if hp > max(dps) else "interior"


def branching_verdict(position, m, result):
    """check_verb_argument_branching's verdict, from every optimum."""
    n1, n2 = 2, m + 3
    deps1, deps2 = tuple(range(3, 3 + m)), tuple(range(m + 4, m + 4 + m))
    optima = result.optimal_orders
    placements = [(_placement(lin, n1, deps1), _placement(lin, n2, deps2)) for lin in optima]
    detail = {
        "position": position,
        "m": m,
        "arg1_placements": sorted({p1 for p1, _ in placements}),
        "arg2_placements": sorted({p2 for _, p2 in placements}),
        "head_first_in_every_optimum": all(p == ("first", "first") for p in placements),
        "head_last_in_every_optimum": all(p == ("last", "last") for p in placements),
    }
    if position == "medial":
        detail["asserted"] = False
        detail["preverbal_head_last_in_all"] = all(p1 == "last" for p1, _ in placements)
        detail["postverbal_head_first_in_all"] = all(p2 == "first" for _, p2 in placements)
        return True, None, detail
    expected, never = {"initial": ("first", "last"), "final": ("last", "first")}[position]
    opposite = next((lin for lin, p in zip(optima, placements) if never in p), None)
    return (expected, expected) in placements and opposite is None, opposite, detail


def auxiliary_verdict(base, result):
    """check_auxiliary_placement's verdict, from every optimum."""
    offset = 1 if base == "SOV" else -1
    optima = result.optimal_orders
    violating = next(
        (lin for lin in optima if lin.position(6) != lin.position(1) + offset), None
    )
    detail = {
        "base": base,
        "expected_offset_from_head": offset,
        "observed_offsets": sorted({lin.position(6) - lin.position(1) for lin in optima}),
    }
    return violating is None, violating, detail
