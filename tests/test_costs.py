"""Cost functions and the proportion-to-cost pairing rule."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from deplen import (
    IDENTITY,
    CostFunction,
    DomainError,
    NonMonotoneError,
    SizeMismatchError,
    TooLargeError,
    cost_function_from_spec,
    make_cost_function,
    optimal_pairing,
    verify_pairing_optimal,
)


class TestCostFunctions:
    def test_identity(self):
        assert IDENTITY(3) == 3
        assert IDENTITY(Fraction(7, 2)) == Fraction(7, 2)
        assert isinstance(IDENTITY(3), Fraction)

    def test_power_integer_exponent_is_exact(self):
        g = make_cost_function("power", exponent=2)
        assert g(3) == 9
        assert g(Fraction(3, 2)) == Fraction(9, 4)

    def test_power_fractional_exponent_snaps_to_double(self):
        g = make_cost_function("power", exponent=Fraction(1, 2))
        assert g(4) == 2  # 4**0.5 is exactly 2.0
        assert g(2) == Fraction(2**0.5)

    def test_log_snaps_to_double(self):
        g = make_cost_function("log")
        assert g(1) == Fraction(math.log(2))
        assert g(Fraction(3, 2)) == Fraction(math.log(2.5))
        assert g(2) > g(1)

    def test_rejects_nonpositive_distance(self):
        for g in (IDENTITY, make_cost_function("log")):
            with pytest.raises(DomainError):
                g(0)
            with pytest.raises(DomainError):
                g(-1)

    def test_table_lookup(self):
        g = make_cost_function("table", table={1: 1, 2: 3, 3: "7/2"})
        assert g(2) == 3
        assert g(3) == Fraction(7, 2)
        assert g.domain_max == 3

    def test_table_rejects_out_of_domain_and_fractional(self):
        g = make_cost_function("table", table={1: 1, 2: 3})
        with pytest.raises(DomainError):
            g(3)
        with pytest.raises(DomainError):
            g(Fraction(3, 2))

    def test_table_keys_must_start_at_one_and_be_consecutive(self):
        with pytest.raises(ValueError):
            make_cost_function("table", table={2: 1, 3: 2})
        with pytest.raises(ValueError):
            make_cost_function("table", table={1: 1, 3: 2})

    def test_table_monotonicity(self):
        with pytest.raises(NonMonotoneError):
            make_cost_function("table", table={1: 2, 2: 2})
        g = make_cost_function(
            "table", table={1: 2, 2: 1}, allow_nonmonotone=True
        )
        assert g(2) == 1

    def test_table_is_stored_as_its_values(self):
        g = make_cost_function("table", table={2: 3, 1: 1, 3: "7/2"})
        assert g.table == (1, 3, Fraction(7, 2))
        assert g.domain_max == len(g.table) == 3
        for g in (IDENTITY, make_cost_function("log"), make_cost_function("power", exponent=2)):
            assert g.table is None and g.domain_max is None

    def test_every_field_is_an_init_parameter(self):
        # a CostFunction is rebuilt from its fields, as a counting copy is
        assert [f.name for f in dataclasses.fields(CostFunction)] == ["kind", "exponent", "table"]
        g = make_cost_function("table", table={1: 1, 2: 3})
        assert CostFunction(**{f.name: getattr(g, f.name) for f in dataclasses.fields(g)}) == g

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            make_cost_function("cubic")
        with pytest.raises(ValueError):
            make_cost_function("power")
        with pytest.raises(ValueError):
            make_cost_function("power", exponent=0)
        with pytest.raises(ValueError):
            make_cost_function("identity", exponent=2)
        with pytest.raises(ValueError):
            make_cost_function("identity", table={1: 1})

    def test_spec_strings(self):
        assert IDENTITY.spec() == "identity"
        assert make_cost_function("log").spec() == "log"
        assert make_cost_function("power", exponent=2).spec() == "power:2"
        assert make_cost_function("power", exponent="1.5").spec() == "power:3/2"
        assert make_cost_function("table", table={1: 1, 2: 2}).spec() == "table[1..2]"


class TestSpecParsing:
    def test_named_kinds(self):
        assert cost_function_from_spec("identity").kind == "identity"
        assert cost_function_from_spec("log").kind == "log"
        g = cost_function_from_spec("power:2")
        assert g.kind == "power" and g.exponent == 2
        assert cost_function_from_spec("power:3/2").exponent == Fraction(3, 2)

    def test_table_from_csv(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("d,cost\n1,1\n2,5/2\n3,4\n", encoding="utf-8")
        g = cost_function_from_spec("table:%s" % path)
        assert g(2) == Fraction(5, 2)
        assert g.domain_max == 3

    def test_table_csv_without_header(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("1,1\n2,2\n", encoding="utf-8")
        assert cost_function_from_spec("table:%s" % path)(2) == 2

    def test_nonmonotone_table_needs_flag(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("1,5\n2,1\n", encoding="utf-8")
        with pytest.raises(NonMonotoneError):
            cost_function_from_spec("table:%s" % path)
        g = cost_function_from_spec("table:%s" % path, allow_nonmonotone=True)
        assert g(2) == 1

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            cost_function_from_spec("exp")
        with pytest.raises(ValueError):
            cost_function_from_spec("power:zero")


class TestPairing:
    def test_frozen_example(self):
        p = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
        res = optimal_pairing(p, (1, 2, 3))
        assert res.total == Fraction(17, 10)
        assert res.assignment == {1: 1, 2: 2, 3: 3}

    def test_assignment_tracks_input_positions(self):
        p = (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))
        res = optimal_pairing(p, (3, 1, 2))
        assert res.total == Fraction(17, 10)
        assert res.assignment == {2: 1, 3: 2, 1: 3}

    def test_swapping_adjacent_ranks_costs_more(self):
        p = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
        # pairing the largest p with cost 2 instead of 1
        swapped = p[0] * 2 + p[1] * 1 + p[2] * 3
        assert swapped == Fraction(19, 10)
        assert optimal_pairing(p, (1, 2, 3)).total < swapped

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            optimal_pairing((0.5, 0.5), (1, 2))
        with pytest.raises(TypeError):
            optimal_pairing((Fraction(1, 2), Fraction(1, 2)), (1.0, 2))

    def test_numeric_strings_accepted(self):
        res = optimal_pairing(("0.5", "0.3", "0.2"), ("1", "2", "3"))
        assert res.total == Fraction(17, 10)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            optimal_pairing((1, 2), (1,))
        with pytest.raises(SizeMismatchError):
            optimal_pairing((), ())

    def test_verify_agrees_with_exhaustive(self):
        rng = random.Random(2024)
        for _ in range(40):
            m = rng.randrange(1, 7)
            p = [Fraction(rng.randrange(1, 20), 20) for _ in range(m)]
            g = [Fraction(rng.randrange(1, 30), rng.randrange(1, 4)) for _ in range(m)]
            assert verify_pairing_optimal(p, g)

    def test_verify_size_guard(self):
        with pytest.raises(TooLargeError):
            verify_pairing_optimal([1] * 9, [1] * 9)

    def test_scaling_all_costs_scales_the_total(self):
        rng = random.Random(321)
        for _ in range(25):
            m = rng.randrange(1, 7)
            p = [Fraction(rng.randrange(1, 20), 20) for _ in range(m)]
            g = [Fraction(rng.randrange(1, 30)) for _ in range(m)]
            c = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
            base = optimal_pairing(p, g)
            scaled = optimal_pairing(p, [c * v for v in g])
            assert scaled.total == c * base.total
            assert scaled.assignment == {
                rank: c * v for rank, v in base.assignment.items()
            }

    def test_rank_pairing_matches_brute_force_minimum(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rng.randrange(2, 6)
            p = [Fraction(rng.randrange(0, 10), 10) for _ in range(m)]
            g = [Fraction(rng.randrange(1, 15)) for _ in range(m)]
            best = min(
                sum(pi * gi for pi, gi in zip(p, perm))
                for perm in permutations(g)
            )
            assert optimal_pairing(p, g).total == best
