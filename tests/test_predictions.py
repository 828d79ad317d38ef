"""Word order placement scenarios on synthetic trees."""

import math
from fractions import Fraction

import pytest

from deplen import (
    RangeError,
    antilocality_demo,
    check_auxiliary_placement,
    check_star_placement,
    check_verb_argument_branching,
    cost_function_from_spec,
    make_cost_function,
    run_default_suite,
    star_tree,
)

POWER2 = make_cost_function("power", exponent=2)


class TestStarPlacement:
    def test_tree_shape(self):
        t = star_tree(3)
        assert t.n == 4
        assert t.heads == {1: 0, 2: 1, 3: 1, 4: 1}

    @pytest.mark.parametrize(
        "k,min_cost,medians",
        [
            (1, 1, [1, 2]),
            (2, 2, [2]),
            (3, 4, [2, 3]),
            (4, 6, [3]),
            (5, 9, [3, 4]),
            (6, 12, [4]),
        ],
    )
    def test_identity_minima_and_medians(self, k, min_cost, medians):
        r = check_star_placement(k)
        assert r.holds
        assert r.witness.min_cost == min_cost
        assert r.detail["head_positions"] == medians
        assert r.detail["medians"] == medians
        if k >= 2:
            assert len(r.witness.optimal_orders) == len(medians) * math.factorial(k)

    @pytest.mark.parametrize(
        "k,min_cost", [(1, 1), (2, 2), (3, 6), (4, 10), (5, 19), (6, 28)]
    )
    def test_squared_cost_keeps_the_same_optima(self, k, min_cost):
        r = check_star_placement(k, g=POWER2)
        assert r.holds
        assert r.witness.min_cost == min_cost
        assert r.detail["head_positions"] == check_star_placement(k).detail["head_positions"]

    def test_single_dependent_is_placement_free(self):
        r = check_star_placement(1)
        assert r.holds
        assert r.detail["placement_irrelevant"]
        assert len(r.witness.optimal_orders) == 2

    def test_gap_against_peripheral_head(self):
        r = check_star_placement(2)
        assert r.detail["peripheral_cost"] == "3"
        assert r.detail["gap_vs_peripheral"] == "3/2"
        r = check_star_placement(4)
        assert r.detail["peripheral_cost"] == "10"
        assert Fraction(r.detail["gap_vs_peripheral"]) == Fraction(10, 6)

    def test_every_optimum_splits_dependents_evenly(self):
        r = check_star_placement(4)
        for lin in r.witness.optimal_orders:
            left = sum(1 for d in range(2, 6) if lin.position(d) < lin.position(1))
            assert left == 2

    def test_range_guard(self):
        with pytest.raises(RangeError):
            check_star_placement(0)
        with pytest.raises(RangeError):
            check_star_placement(8)


class TestVerbArgumentBranching:
    def test_single_dependent_arguments_are_strict(self):
        r = check_verb_argument_branching("initial", m=1)
        assert r.holds
        assert r.witness.min_cost == 6
        assert r.detail["arg1_placements"] == ["first"]
        assert r.detail["arg2_placements"] == ["first"]
        assert r.detail["head_first_in_every_optimum"]

        r = check_verb_argument_branching("final", m=1)
        assert r.holds
        assert r.witness.min_cost == 6
        assert r.detail["arg1_placements"] == ["last"]
        assert r.detail["head_last_in_every_optimum"]

    def test_two_dependent_arguments_admit_interior_ties(self):
        r = check_verb_argument_branching("initial", m=2)
        assert r.holds
        assert r.witness.min_cost == 11
        assert r.detail["arg1_placements"] == ["first", "interior"]
        assert not r.detail["head_first_in_every_optimum"]
        # but no optimum turns an argument head fully against the verb
        assert "last" not in r.detail["arg1_placements"]
        assert "last" not in r.detail["arg2_placements"]

    def test_squared_cost_minima(self):
        assert check_verb_argument_branching("initial", m=1, g=POWER2).witness.min_cost == 12
        assert check_verb_argument_branching("initial", m=2, g=POWER2).witness.min_cost == 27
        assert check_verb_argument_branching("final", m=2, g=POWER2).witness.min_cost == 27

    @pytest.mark.parametrize(
        "spec, min_cost",
        [
            ("log", Fraction(12751853354077045, 2251799813685248)),
            ("power:1/2", Fraction(34453805092250909, 4503599627370496)),
        ],
    )
    @pytest.mark.parametrize(
        "position, arg1, arg2",
        [
            ("initial", ["first", "interior"], ["interior"]),
            ("final", ["interior"], ["interior", "last"]),
        ],
    )
    def test_concave_costs_break_two_dependent_arguments(
        self, spec, min_cost, position, arg1, arg2
    ):
        # Under a concave g no optimum puts both argument heads toward the
        # verb, though none turns one against it: the prediction fails at m = 2.
        r = check_verb_argument_branching(position, m=2, g=cost_function_from_spec(spec))
        assert (r.holds, r.witness.optimal_count, r.counterexample) == (False, 8, None)
        assert (r.detail["arg1_placements"], r.detail["arg2_placements"]) == (arg1, arg2)
        assert r.witness.min_cost == min_cost

    @pytest.mark.parametrize("spec", ["identity", "log", "power:1/2", "power:2", "power:3"])
    @pytest.mark.parametrize("position", ["initial", "final"])
    def test_single_dependent_arguments_hold_under_every_cost(self, spec, position):
        g = cost_function_from_spec(spec)
        assert check_verb_argument_branching(position, m=1, g=g).holds

    def test_final_mirrors_initial(self):
        a = check_verb_argument_branching("initial", m=2)
        b = check_verb_argument_branching("final", m=2)
        assert a.witness.min_cost == b.witness.min_cost
        flip = {"first": "last", "last": "first", "interior": "interior"}
        assert sorted(a.detail["arg1_placements"]) == sorted(
            flip[p] for p in b.detail["arg1_placements"]
        )

    def test_medial_reports_without_asserting(self):
        r = check_verb_argument_branching("medial", m=1)
        assert r.holds
        assert r.detail["asserted"] is False
        assert r.witness.min_cost == 4
        assert r.detail["preverbal_head_last_in_all"]
        assert r.detail["postverbal_head_first_in_all"]
        r2 = check_verb_argument_branching("medial", m=2)
        assert r2.witness.min_cost == 8
        assert not r2.detail["preverbal_head_last_in_all"]

    def test_range_guards(self):
        with pytest.raises(RangeError):
            check_verb_argument_branching("floating")
        with pytest.raises(RangeError):
            check_verb_argument_branching("initial", m=3)


class TestAuxiliaryPlacement:
    @pytest.mark.parametrize("base,offset", [("SOV", 1), ("VSO", -1)])
    def test_function_word_lands_next_to_the_head(self, base, offset):
        r = check_auxiliary_placement(base)
        assert r.holds
        assert r.witness.min_cost == 7
        assert len(r.witness.optimal_orders) == 1
        assert r.detail["observed_offsets"] == [offset]
        assert r.counterexample is None

    def test_squared_cost_agrees(self):
        for base in ("SOV", "VSO"):
            r = check_auxiliary_placement(base, g=POWER2)
            assert r.holds
            assert r.witness.min_cost == 13

    def test_unique_optimum_order(self):
        r = check_auxiliary_placement("SOV")
        lin = r.witness.representative
        assert lin.position(6) == lin.position(1) + 1
        # subject block before object block before head
        assert max(lin.position(2), lin.position(3)) < min(
            lin.position(4), lin.position(5)
        )

    def test_range_guard(self):
        with pytest.raises(RangeError):
            check_auxiliary_placement("SVO")


class TestAntilocality:
    def test_identity_ties_and_convex_strictness(self):
        r = antilocality_demo()
        assert r.holds
        assert r.detail["sum_noun_edge"] == "11"
        assert r.detail["sum_noun_central"] == "11"
        assert r.detail["convex_cost_noun_edge"] == "27"
        assert r.detail["convex_cost_noun_central"] == "33"
        assert r.detail["inside_lengths_pointwise_no_shorter"]
        assert not r.detail["vacuous"]
        assert r.witness.min_cost == 11

    def test_mirror_is_symmetric(self):
        a = antilocality_demo()
        b = antilocality_demo(mirror=True)
        assert b.holds
        assert b.detail["sum_noun_edge"] == a.detail["sum_noun_edge"]
        assert b.detail["convex_cost_noun_edge"] == a.detail["convex_cost_noun_edge"]
        assert b.detail["noun_edge_order"] == list(
            reversed(a.detail["noun_edge_order"])
        )
        # the VOS witness is searched verb-first, the SOV one verb-last
        verb = 7
        assert all(lin.position(verb) == 1 for lin in b.witness.optimal_orders)
        assert all(lin.position(verb) == 7 for lin in a.witness.optimal_orders)
        assert b.witness.min_cost == a.witness.min_cost
        assert len(b.witness.optimal_orders) == len(a.witness.optimal_orders)
        assert b.witness.searched == a.witness.searched

    def test_single_adjective_case_is_vacuous_but_holds(self):
        r = antilocality_demo(adjectives_per_noun=1)
        assert r.holds
        assert r.detail["vacuous"]
        assert r.detail["sum_noun_edge"] == "6"
        assert r.detail["sum_noun_central"] == "8"

    def test_range_guard(self):
        with pytest.raises(RangeError):
            antilocality_demo(adjectives_per_noun=0)
        with pytest.raises(RangeError):
            antilocality_demo(adjectives_per_noun=4)


class TestReproducibility:
    def test_witnesses_rebuild_identically(self):
        for make in (
            lambda: check_star_placement(3),
            lambda: check_verb_argument_branching("initial", m=2),
            lambda: check_auxiliary_placement("SOV"),
            lambda: antilocality_demo(),
        ):
            a, b = make(), make()
            assert a.witness.min_cost == b.witness.min_cost
            assert a.witness.optimal_orders == b.witness.optimal_orders
            assert a.witness.searched == b.witness.searched
            assert a.detail == b.detail


class TestSuite:
    def test_default_suite_runs_green(self):
        reports = run_default_suite()
        assert len(reports) == 29
        assert all(r.holds for r in reports)
        names = [r.name for r in reports]
        assert len(set(names)) == 29
        assert "star_k4_identity" in names
        assert "branching_final_m2_power:2" in names
        assert "antilocality_vos" in names

    def test_json_shape(self):
        d = check_star_placement(2).to_json_dict()
        assert d["name"] == "star_k2_identity"
        assert d["holds"] is True
        assert d["min_cost"] == "2"
        assert d["optimal_count"] == 2
        assert d["representative"] == [2, 1, 3]
        assert d["counterexample"] is None
