"""Word-order placement checks on small synthetic trees.

Each scenario builds a tree of unit-length tokens, runs a (possibly
constrained) exhaustive search in the words unit, and checks the shape
of the full optimal set:

  * a head with k >= 2 dependents sits at a median position in every
    optimum, and with k = 1 placement does not matter;
  * with the verb first, placing each argument's head before its own
    dependents is optimal and the opposite placement never is (mirror
    statement with the verb last);
  * a bare function word attached to a clause head is placed right next
    to that head: after it in a head-final clause, before it in a
    head-initial one;
  * making dependencies inside a constituent longer can shorten the
    whole: adjectives stacked before their noun versus the noun wedged
    centrally among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import IDENTITY, make_cost_function
from .errors import RangeError
from .metrics import cost_D, frac_str, sum_lengths
from .optimize import MlaResult, PrecedenceConstraint, brute_force_mla
from .tree import DepTree, Linearization, Token, Unit, build_tree

POWER2 = make_cost_function("power", exponent=2)


@dataclass(frozen=True)
class PredictionReport:
    """Outcome of one scenario check."""

    name: str
    holds: bool
    witness: MlaResult
    counterexample: Linearization | None
    detail: dict

    def to_json_dict(self):
        return {
            "name": self.name,
            "holds": self.holds,
            "min_cost": frac_str(self.witness.min_cost),
            "optimal_count": self.witness.optimal_count,
            "searched": self.witness.searched,
            "representative": list(self.witness.representative.seq),
            "counterexample": (
                list(self.counterexample.seq) if self.counterexample else None
            ),
            "detail": self.detail,
        }


def _unit_tokens(n):
    return [Token(i, "", 1) for i in range(1, n + 1)]


def _run(name, tree, g, constraint, judge) -> PredictionReport:
    """Search tree in words under constraint and judge its optimal set.

    g defaults to the identity cost.  judge(result, g) gives (holds,
    counterexample, detail); the report adds the cost spec to detail
    and is named <name>_<g.spec()>.
    """
    if g is None:
        g = IDENTITY
    result = brute_force_mla(tree, unit=Unit.WORDS, g=g, constraint=constraint)
    holds, counterexample, detail = judge(result, g)
    detail["g"] = g.spec()
    return PredictionReport(
        "%s_%s" % (name, g.spec()), holds, result, counterexample, detail
    )


def star_tree(k: int) -> DepTree:
    """One head (token 1) with k unit-length dependents."""
    heads = {1: 0}
    heads.update({i: 1 for i in range(2, k + 2)})
    return build_tree(_unit_tokens(k + 1), heads)


def check_star_placement(k: int, g=None) -> PredictionReport:
    """Optimal head position in a k-dependent star.

    For k >= 2 the optima are exactly the orders with the head at a
    median position; for k = 1 every order is optimal.
    """
    if not 1 <= k <= 7:
        raise RangeError("star scenario supports k in 1..7, got %d" % k)
    tree = star_tree(k)
    medians = {(k + 2) // 2, (k + 3) // 2}

    def judge(result, g):
        optima = result.optimal_orders
        head_positions = {lin.position(1) for lin in optima}
        peripheral = cost_D(tree, None, g).D
        detail = {
            "k": k,
            "medians": sorted(medians),
            "head_positions": sorted(head_positions),
            "peripheral_cost": frac_str(peripheral),
            "gap_vs_peripheral": frac_str(peripheral / result.min_cost)
            if result.min_cost
            else None,
        }
        if k == 1:
            holds = len(optima) == result.searched == 2
            detail["placement_irrelevant"] = holds
            return holds, None, detail
        holds = (
            head_positions == medians
            and len(optima) == len(medians) * math.factorial(k)
        )
        off_median = (lin for lin in optima if lin.position(1) not in medians)
        return holds, next(off_median, None), detail

    return _run("star_k%d" % k, tree, g, None, judge)


def _placement(lin, head, deps):
    hp = lin.position(head)
    dps = [lin.position(d) for d in deps]
    if hp < min(dps):
        return "first"
    if hp > max(dps):
        return "last"
    return "interior"


# The argument-head placement the verb's side predicts, and the one no
# optimum may take: (expected, never optimal).
_FACING_THE_VERB = {"initial": ("first", "last"), "final": ("last", "first")}


def check_verb_argument_branching(position: str, m: int = 1, g=None) -> PredictionReport:
    """Direction of head placement inside the two verbal arguments.

    Verb initial: an order with both argument heads first is optimal
    and no optimum puts an argument head last (the converse with the
    verb final).  Verb medial: no direction is asserted; the observed
    placements are reported.
    """
    if position not in ("initial", "medial", "final"):
        raise RangeError("verb position must be initial, medial or final")
    if m not in (1, 2):
        raise RangeError("supported dependents per argument: 1 or 2")
    # verb = 1; argument heads 2 and m+3; each with m dependents
    n1, n2 = 2, m + 3
    deps1 = tuple(range(3, 3 + m))
    deps2 = tuple(range(m + 4, m + 4 + m))
    heads = {1: 0, n1: 1, n2: 1}
    heads.update({d: n1 for d in deps1})
    heads.update({d: n2 for d in deps2})
    tree = build_tree(_unit_tokens(3 + 2 * m), heads)
    # the verb's block goes before, between or after the two arguments
    blocks = [(n1,) + deps1, (n2,) + deps2]
    blocks.insert(("initial", "medial", "final").index(position), (1,))

    def judge(result, g):
        optima = result.optimal_orders
        placements = [
            (_placement(lin, n1, deps1), _placement(lin, n2, deps2))
            for lin in optima
        ]
        detail = {
            "position": position,
            "m": m,
            "arg1_placements": sorted({p1 for p1, _ in placements}),
            "arg2_placements": sorted({p2 for _, p2 in placements}),
            "head_first_in_every_optimum": all(
                p == ("first", "first") for p in placements
            ),
            "head_last_in_every_optimum": all(
                p == ("last", "last") for p in placements
            ),
        }
        if position == "medial":
            detail["asserted"] = False
            detail["preverbal_head_last_in_all"] = all(
                p1 == "last" for p1, _ in placements
            )
            detail["postverbal_head_first_in_all"] = all(
                p2 == "first" for _, p2 in placements
            )
            return True, None, detail
        expected, never = _FACING_THE_VERB[position]
        opposite = next(
            (lin for lin, p in zip(optima, placements) if never in p), None
        )
        holds = (expected, expected) in placements and opposite is None
        return holds, opposite, detail

    constraint = PrecedenceConstraint(blocks=blocks)
    return _run("branching_%s_m%d" % (position, m), tree, g, constraint, judge)


def auxiliary_tree() -> DepTree:
    """Clause head M (1) with subject 2(+3), object 4(+5) and function word 6."""
    heads = {1: 0, 2: 1, 3: 2, 4: 1, 5: 4, 6: 1}
    return build_tree(_unit_tokens(6), heads)


def check_auxiliary_placement(base: str, g=None) -> PredictionReport:
    """Placement of a bare function word relative to the clause head.

    The subject and object blocks and the head keep the base order
    (head-final or head-initial); the function word may land anywhere.
    Holds iff every optimum puts it immediately after the head when the
    head is final, immediately before when initial.
    """
    if base not in ("SOV", "VSO"):
        raise RangeError("base order must be SOV or VSO, got %r" % base)
    if base == "SOV":
        blocks, offset = ((2, 3), (4, 5), (1,)), 1  # right after the head
    else:
        blocks, offset = ((1,), (2, 3), (4, 5)), -1  # right before the head

    def judge(result, g):
        optima = result.optimal_orders
        violating = next(
            (lin for lin in optima if lin.position(6) != lin.position(1) + offset),
            None,
        )
        detail = {
            "base": base,
            "expected_offset_from_head": offset,
            "observed_offsets": sorted(
                {lin.position(6) - lin.position(1) for lin in optima}
            ),
        }
        return violating is None, violating, detail

    constraint = PrecedenceConstraint(blocks=blocks)
    return _run("auxiliary_%s" % base, auxiliary_tree(), g, constraint, judge)


def antilocality_demo(adjectives_per_noun: int = 2, mirror: bool = False) -> PredictionReport:
    """Anti-local placement inside constituents versus a central head.

    Two noun blocks (each: adjectives plus their noun) followed by the
    verb they attach to.  Compares (i) the noun at the block edge facing
    the verb, all adjectives stacked on the far side, against (ii) the
    noun at the median slot of its block.  The stacked layout makes the
    inside-block dependencies pointwise no shorter, never increases the
    total length, and is strictly cheaper under any strictly convex
    cost (power 2 is used as the convex witness).
    """
    j = adjectives_per_noun
    if not 1 <= j <= 3:
        raise RangeError("supported adjectives per noun: 1..3, got %d" % j)
    n1, n2, verb = j + 1, 2 * j + 2, 2 * j + 3
    adjs1 = tuple(range(1, j + 1))
    adjs2 = tuple(range(j + 2, 2 * j + 2))
    heads = {verb: 0, n1: verb, n2: verb}
    heads.update({a: n1 for a in adjs1})
    heads.update({a: n2 for a in adjs2})
    tree = build_tree(_unit_tokens(verb), heads)

    def block(adjs, noun, slot):
        return adjs[: slot - 1] + (noun,) + adjs[slot - 1:]

    def sov_order(slot):
        return block(adjs1, n1, slot) + block(adjs2, n2, slot) + (verb,)

    # The noun-edge and noun-central orders and the witness's block order,
    # verb last.  The mirror reverses all three; a block's own order is free.
    sov = (
        sov_order(j + 1),
        sov_order((j + 2) // 2),
        (adjs1 + (n1,), adjs2 + (n2,), (verb,)),
    )
    seq_final, seq_central, blocks = (s[::-1] for s in sov) if mirror else sov
    lin_final = Linearization(seq_final)
    lin_central = Linearization(seq_central)

    id_final = sum_lengths(tree, lin_final, Unit.WORDS)
    id_central = sum_lengths(tree, lin_central, Unit.WORDS)
    convex_final = cost_D(tree, lin_final, POWER2).D
    convex_central = cost_D(tree, lin_central, POWER2).D

    def inside_lengths(lin):
        pos = lin.positions()
        return {
            a: abs(pos[a] - pos[h])
            for h, adjs in ((n1, adjs1), (n2, adjs2))
            for a in adjs
        }

    inside_final = inside_lengths(lin_final)
    inside_central = inside_lengths(lin_central)
    pointwise_no_shorter = all(
        inside_final[a] >= inside_central[a] for a in inside_final
    )

    witness = brute_force_mla(
        tree, unit=Unit.WORDS, constraint=PrecedenceConstraint(blocks=blocks)
    )

    holds = (
        pointwise_no_shorter
        and id_final <= id_central
        and convex_final < convex_central
    )
    detail = {
        "adjectives_per_noun": j,
        "mirror": mirror,
        "noun_edge_order": list(seq_final),
        "noun_central_order": list(seq_central),
        "sum_noun_edge": frac_str(id_final),
        "sum_noun_central": frac_str(id_central),
        "convex_cost_noun_edge": frac_str(convex_final),
        "convex_cost_noun_central": frac_str(convex_central),
        "inside_lengths_pointwise_no_shorter": pointwise_no_shorter,
        "vacuous": j < 2,
    }
    name = "antilocality_%s%s" % ("vos" if mirror else "sov", "" if j == 2 else "_j%d" % j)
    return PredictionReport(name, holds, witness, None, detail)


def run_default_suite() -> list[PredictionReport]:
    """Every scenario at its default sizes, identity and power:2 costs."""
    reports = []
    for g in (IDENTITY, POWER2):
        for k in range(1, 7):
            reports.append(check_star_placement(k, g=g))
    for g in (IDENTITY, POWER2):
        for position in ("initial", "final"):
            for m in (1, 2):
                reports.append(check_verb_argument_branching(position, m=m, g=g))
    for m in (1, 2):
        reports.append(check_verb_argument_branching("medial", m=m))
    for g in (IDENTITY, POWER2):
        for base in ("SOV", "VSO"):
            reports.append(check_auxiliary_placement(base, g=g))
    reports.append(antilocality_demo())
    reports.append(antilocality_demo(mirror=True))
    reports.append(antilocality_demo(adjectives_per_noun=1))
    return reports
