from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle import cyclic
from dualcircle.abgroups import FGAbGroup, GroupExpr
from dualcircle.cyclic import (
    EquivariantCellComplex,
    GradedModule,
    NormalizedHochschild,
    UnsupportedModule,
    brute_hochschild,
    brute_hochschild_weights,
    cell_weight_homology_fg,
    lambda_cell_model,
    rotation_matrix,
    rotation_orbits,
    thh_homology_square_zero,
    weight_complex,
    weight_homology,
    weight_homology_fg,
)
from dualcircle.matrices import IntMatrix

Z0 = GradedModule.single(0, 0)
Z1 = GradedModule.single(1, 0)
Zm1 = GradedModule.single(-1, 0)

FIXTURES = {
    "Z": Z0,
    "Z/2": GradedModule.single(0, 2),
    "Z/3": GradedModule.single(0, 3),
    "Z^2": GradedModule.from_groups({0: FGAbGroup.free(2)}),
    "Z[1]": Z1,
    "Z[-1]": Zm1,
}


class TestWeightComplex:
    def test_weight_one_has_zero_differential(self):
        wc = weight_complex(1, Z0)
        assert wc.differential.is_zero()
        assert (wc.level_bottom, wc.level_top) == (0, 1)

    def test_weight_two_doubles(self):
        wc = weight_complex(2, Z0)
        assert wc.differential.entries == ((2,),)

    def test_odd_degree_modules_cancel_signs(self):
        for n in (1, 2, 3, 4, 5):
            assert weight_complex(n, Zm1).differential.is_zero()

    def test_two_adjacent_levels_only(self):
        for n in (1, 2, 3, 4):
            wc = weight_complex(n, Z0)
            assert wc.level_top - wc.level_bottom == 1

    def test_rotation_has_full_order(self):
        for m in (Z0, Zm1, Z1, FIXTURES["Z^2"]):
            for n in (1, 2, 3, 4):
                rot = rotation_matrix(n, m, include_simplicial_sign=False)
                power = IntMatrix.identity(rot.rows)
                for _ in range(n):
                    power = rot.mul(power)
                assert power.entries == IntMatrix.identity(rot.rows).entries


class TestWeightHomology:
    def test_weight_two_of_the_integers(self):
        wh = weight_homology(2, Z0)
        assert wh.at(1) == GroupExpr.cyclic(2)
        assert wh.at(2).is_zero()

    def test_desuspended_line_every_weight(self):
        for n in (1, 2, 3, 4, 5):
            assert weight_homology_fg(n, Zm1) == {
                -1: FGAbGroup.free(1), 0: FGAbGroup.free(1)}

    def test_weight_one(self):
        assert weight_homology_fg(1, Z0) == {0: FGAbGroup.free(1), 1: FGAbGroup.free(1)}


class TestBruteOracle:
    def test_zero_module(self):
        h = brute_hochschild(GradedModule.zero(), 3)
        assert h.at(0) == GroupExpr.free(1)
        assert all(h.at(d).is_zero() for d in (1, 2, 3))

    def test_dual_numbers(self):
        h = brute_hochschild(Z0, 3)
        assert h.at(0) == GroupExpr.free(2)
        assert h.at(1) == GroupExpr.free(1).plus(GroupExpr.cyclic(2))

    def test_oracle_matches_weight_complexes_on_all_fixtures(self):
        for name, m in FIXTURES.items():
            per_weight = brute_hochschild_weights(m, 5, -6, 6)
            for n in range(1, 6):
                expected = {t: g for t, g in weight_homology_fg(n, m).items()
                            if -6 <= t <= 6}
                assert per_weight[n] == expected, (name, n)

    def test_weight_pieces_live_on_two_levels(self):
        oracle = NormalizedHochschild(Z0, max_level=5)
        for w in range(1, 5):
            levels = {k for k in range(6)
                      for c in oracle.bases[k] if oracle.chain_weight(c) == w}
            assert levels == {w - 1, w}

    def test_unrestricted_negative_degrees_refused(self):
        oracle = NormalizedHochschild(Zm1, max_level=4)
        with pytest.raises(UnsupportedModule):
            oracle.homology(0)
        with pytest.raises(UnsupportedModule):
            brute_hochschild(Zm1, 2)

    def test_truncation_stability(self):
        shallow = brute_hochschild(Z0, 4)
        deeper = NormalizedHochschild(Z0, max_level=8)
        for d in range(0, 5):
            assert shallow.at(d) == GroupExpr.from_fg(deeper.homology(d))


class TestCellModel:
    def test_smallest_model(self):
        c = lambda_cell_model(1)
        c.validate()
        assert c.cells == {0: 1, 1: 1}
        assert c.actions[0].entries == ((1,),)
        assert c.boundaries[1].is_zero()

    def test_binary_model_swaps_with_signs(self):
        c = lambda_cell_model(2)
        c.validate()
        assert c.cells == {1: 2, 2: 2}
        assert c.actions[1].entries == ((0, -1), (-1, 0))

    def test_action_axioms_hold_up_to_weight_six(self):
        for n in range(1, 7):
            lambda_cell_model(n).validate()

    def test_cell_homology_matches_weight_homology(self):
        for name, m in FIXTURES.items():
            for n in range(1, 6):
                assert cell_weight_homology_fg(n, m) == weight_homology_fg(n, m), \
                    (name, n)

    def test_validate_catches_broken_action(self):
        c = lambda_cell_model(3)
        broken = EquivariantCellComplex(
            group_order=3,
            cells=c.cells,
            boundaries=c.boundaries,
            actions={2: IntMatrix.identity(3), 3: c.actions[3]},
            orbit_reps=c.orbit_reps,
        )
        with pytest.raises(Exception):
            broken.validate()


generated_modules = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from((0, 2, 3, 4, 6))),
    min_size=1, max_size=3)


class TestOrbitKernel:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(gens=generated_modules, n=st.integers(1, 4))
    def test_three_routes_agree_on_generated_modules(self, gens, n):
        m = GradedModule(tuple(gens))
        degrees = [d for d, _ in gens]
        # every total degree weight n can reach: internal degree + level
        lo, hi = n * min(degrees) + n - 1, n * max(degrees) + n
        oracle = brute_hochschild_weights(m, n, lo, hi)[n]
        assert weight_homology_fg(n, m) == oracle
        assert cell_weight_homology_fg(n, m) == oracle

    def test_weight_and_cell_routes_agree_at_high_weight(self):
        m = GradedModule(((0, 0), (1, 0), (2, 3)))
        for n in (6, 7):
            assert weight_homology_fg(n, m) == cell_weight_homology_fg(n, m), n

    def test_orbit_count_is_the_necklace_count(self):
        def phi(d):
            return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

        for g in (1, 2, 3):
            m = GradedModule(((0, 0),) * g)
            for n in range(1, 8):
                necklaces = sum(phi(d) * g ** (n // d)
                                for d in range(1, n + 1) if n % d == 0) // n
                assert len(rotation_orbits(n, m)) == necklaces, (g, n)

    def test_weight_route_uses_no_generic_homology(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generic homology called")

        monkeypatch.setattr(cyclic, "homology_with_orders", refuse)
        m = GradedModule(((0, 0), (1, 2), (2, 0)))
        assert weight_homology_fg(4, m)

    def test_cell_route_does_not_use_the_weight_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("weight route called")

        expected = weight_homology_fg(4, FIXTURES["Z^2"])
        monkeypatch.setattr(cyclic, "weight_homology_fg", refuse)
        assert cell_weight_homology_fg(4, FIXTURES["Z^2"]) == expected


class TestThhAssembly:
    def test_zero_module(self):
        h = thh_homology_square_zero(GradedModule.zero(), -1, 2)
        assert h.at(0) == GroupExpr.free(1)
        assert h.at(1).is_zero()

    def test_circle_dual_case(self):
        h = thh_homology_square_zero(Zm1, -1, 0)
        assert h.at(-1) == GroupExpr.countable_free()
        assert h.at(0) == GroupExpr.free(1).plus(GroupExpr.countable_free())

    def test_positive_degree_case_matches_oracle(self):
        h = thh_homology_square_zero(Z1, 0, 3)
        oracle = brute_hochschild(Z1, 3)
        for d in range(0, 4):
            assert h.at(d) == oracle.at(d)

    def test_deeply_negative_case_is_finite(self):
        m = GradedModule.single(-2, 0)
        h = thh_homology_square_zero(m, -4, 0)
        # weight 1 sits in degrees -2 and -1; weight 2 in -4 and -3
        assert h.at(-1) == GroupExpr.free(1)
        assert h.at(-2) == GroupExpr.free(1)

    def test_mixed_signs_refused(self):
        m = GradedModule(((-1, 0), (1, 0)))
        with pytest.raises(UnsupportedModule):
            thh_homology_square_zero(m, -1, 1)

    def test_multiple_generators_in_degree_minus_one_refused(self):
        m = GradedModule(((-1, 0), (-1, 0)))
        with pytest.raises(UnsupportedModule):
            thh_homology_square_zero(m, -1, 0)
