import pytest

from dualcircle.abgroups import GradedGroup, GroupExpr
from dualcircle.qspaces import SymbolicQSpace
from dualcircle.tc import (
    HurewiczRangeError,
    NormalMap,
    check_fr_commute,
    coassembly_conclusion,
    completed_pi_q,
    diff_table1,
    diff_table2,
    dual_tc_shift_sum_check,
    dual_tc_sphere_model_homology,
    e_homology,
    e_homology_zero_row,
    expected_table1,
    frobenius_general,
    frobenius_map,
    hurewicz_cap,
    restriction_map,
    table1,
    table2,
    table2_wedge_check,
    tc_dual_circle_model_homology,
    tc_sphere_model_homology,
)

Z = GroupExpr.free(1)


class TestFrobeniusRestriction:
    def test_first_level_staircase(self):
        routes = frobenius_map(3, 1).routes
        assert routes[0].map == NormalMap.make(transfer=(1, 0))
        assert routes[1].map == NormalMap.make(inclusion=(1, 0))

    def test_middle_summand_at_level_two(self):
        routes = frobenius_map(3, 2).routes
        assert routes[1].map == NormalMap.make(transfer=(1, 0))
        assert routes[1].target == 1

    def test_iterated_equals_direct(self):
        for p in (2, 3):
            direct = frobenius_general(p, 4, 0)
            step = frobenius_map(p, 4)
            for lvl in (3, 2, 1):
                step = step.then(frobenius_map(p, lvl))
            assert step == direct

    def test_restriction_deletes_one_summand(self):
        for n in (1, 2, 3):
            rmap = restriction_map(5, n)
            assert [k for k, r in enumerate(rmap.routes) if r.target is None] == [0]

    def test_double_restriction_deletes_two(self):
        composite = restriction_map(5, 3).then(restriction_map(5, 2))
        assert [k for k, r in enumerate(composite.routes) if r.target is None] == [0, 1]

    def test_fr_commute(self):
        for p in (2, 3, 5):
            for n in (2, 3, 4):
                assert check_fr_commute(p, n), (p, n)

    def test_prop_routing_rule_on_all_subgroup_pairs(self):
        p, n = 2, 4
        for h in range(n + 1):
            level = frobenius_general(p, n, h)
            for k in range(n + 1):
                r = level.routes[k]
                assert r.target == min(h, k)
                expected = NormalMap.make(
                    transfer=(n - k, h - min(h, k)),
                    inclusion=(k, min(h, k)))
                assert r.map == expected

    def test_transfer_chain_mismatch_raises(self):
        a = NormalMap.make(transfer=(3, 2))
        b = NormalMap.make(transfer=(1, 0))
        with pytest.raises(ValueError):
            a.then(b)


class TestEHomology:
    def test_printed_row(self):
        h = e_homology(2, -2, 4)
        expected = [Z, GroupExpr.zero(), GroupExpr.countable_free(),
                    GroupExpr.torsion_tower(2), GroupExpr.zero(),
                    GroupExpr.torsion_tower(2), GroupExpr.zero()]
        assert [h.at(d) for d in range(-2, 5)] == expected

    def test_bottom_degree_alone(self):
        assert e_homology(7, -2, -2).at(-2) == Z

    def test_negative_control_changes_h_minus_one(self):
        sabotaged = e_homology_zero_row(3, -2, 0)
        assert sabotaged.at(-1) == Z  # reference value is 0
        assert e_homology(3, -2, 0).at(-1).is_zero()


class TestTables:
    def test_table1_exact_for_small_primes(self):
        for p in (2, 3, 5):
            assert diff_table1(table1(p, -2, 4), expected_table1(p)) == []

    def test_table1_rejects_composites(self):
        with pytest.raises(ValueError):
            table1(6, -2, 4)

    def test_table2_exact_at_seven(self):
        t = table2(7)
        assert diff_table2(t) == []
        assert t.cap == 8

    def test_table2_cross_checks(self):
        t = table2(7)
        assert dual_tc_shift_sum_check(t)
        assert table2_wedge_check(t)

    def test_table2_specific_cells(self):
        t = table2(7)
        assert t.cell("E^_p", -2) == SymbolicQSpace.padic(1)
        assert t.cell("E^_p", 0) == SymbolicQSpace.ext_free_countable()
        assert t.cell("TC(DS^1)^_p", 1) == SymbolicQSpace.ext_tower_countable()
        assert t.cell("(DS^1 ^ TC(S))^_p", -1) == SymbolicQSpace.padic(2)

    def test_truncation_markers(self):
        with pytest.raises(HurewiczRangeError):
            table2(3)
        t = table2(3, truncate_out_of_range=True)
        assert t.cap == 0
        assert t.cell("E^_p", 0) is not None
        assert all(t.cell(label, d) is None
                   for label in t.rows for d in range(1, 7))
        assert diff_table2(t) == []

    def test_truncation_at_five(self):
        t = table2(5, truncate_out_of_range=True)
        assert hurewicz_cap(5) == 4
        assert t.cell("E^_p", 4) is not None
        assert t.cell("E^_p", 5) is None
        assert diff_table2(t) == []

    def test_tiny_prime_keeps_only_the_bottom_column(self):
        t = table2(2, truncate_out_of_range=True)
        assert t.cap == -2
        assert t.cell("E^_p", -2) == SymbolicQSpace.padic(1)
        assert t.cell("E^_p", -1) is None
        assert diff_table2(t) == []

    def test_row_order_is_canonical(self):
        from dualcircle.tc import TABLE1_ROW_LABELS, TABLE2_ROW_LABELS
        assert tuple(table1(3)) == TABLE1_ROW_LABELS
        assert tuple(table2(7).rows) == TABLE2_ROW_LABELS


class TestCompletedPiQ:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_refuses_the_first_degree_past_the_window(self, p):
        cap = 2 * p - 6
        h = e_homology(p, cap - 1, cap + 1)
        assert isinstance(completed_pi_q(h, p, cap), SymbolicQSpace)
        with pytest.raises(HurewiczRangeError) as err:
            completed_pi_q(h, p, 2 * p - 5)
        assert (err.value.degree, err.value.cap) == (2 * p - 5, cap)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_finite_groups_and_towers_prime_to_p_change_no_cell(self, p):
        """What rational completion kills, so no homology cell needs filtering:
        Z/q, the q-tower and its countable sum for a prime q != p, and Z/p^k."""
        lo, hi = -3, 2 * p - 6
        extras = [GroupExpr.cyclic(p ** k) for k in (1, 2, 3)]
        for q in (2, 3, 5, 7, 13):
            if q != p:
                tower = GroupExpr.torsion_tower(q)
                extras += [GroupExpr.cyclic(q), tower, tower.countable_sum()]
        e, sphere_model = e_homology(p, lo, hi), tc_sphere_model_homology(lo, hi)
        rows = [e, sphere_model, dual_tc_sphere_model_homology(lo, hi),
                tc_dual_circle_model_homology(sphere_model, e)]
        for h in rows:
            cells = {d: h.at(d) for d in range(lo, hi + 1)}
            for d in range(lo, hi + 1):
                for extra in extras:
                    bumped = GradedGroup.from_dict(
                        {**cells, d: cells[d].plus(extra)}, (lo, hi))
                    # degree n reads the cells in n and n - 1
                    for n in (d, d + 1):
                        if lo < n <= hi:
                            assert completed_pi_q(bumped, p, n) == \
                                completed_pi_q(h, p, n), (h, d, extra, n)


class TestCoassembly:
    def test_regular_prime_window(self):
        v = coassembly_conclusion(1, 5, True)
        assert v.status == "zero"
        assert v.summary() == "coassembly is zero on pi_4^Q"
        assert v.square["top_right"] == "Q"
        assert v.square["bottom_left"] == "0"

    def test_regularity_gate(self):
        v = coassembly_conclusion(1, 5, False)
        assert v.status == "inconclusive"
        assert "regularity" in v.failed_hypothesis

    def test_window_gate(self):
        v = coassembly_conclusion(3, 7, True)
        assert v.status == "inconclusive"
        assert "2i + 3" in v.failed_hypothesis

    def test_higher_degree(self):
        v = coassembly_conclusion(2, 7, True)
        assert v.status == "zero"
        assert v.degree == 8

    def test_much_higher_degree(self):
        v = coassembly_conclusion(5, 13, True)
        assert v.status == "zero"
        assert v.degree == 20

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coassembly_conclusion(0, 5, True)
        with pytest.raises(ValueError):
            coassembly_conclusion(1, 4, True)


class TestExpectedFixture:
    def test_reference_row_parametrizes_by_prime(self):
        e2 = expected_table1(2)["E"]
        e5 = expected_table1(5)["E"]
        assert e2[1] == GroupExpr.torsion_tower(2)
        assert e5[1] == GroupExpr.torsion_tower(5)
        assert e2[-2] == e5[-2] == Z
