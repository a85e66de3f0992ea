import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle.abgroups import GradedGroup, GroupExpr, UnsupportedAtom
from dualcircle.qspaces import SymbolicQSpace, bousfield_pi_q, ext_pinf_q

Z = GroupExpr.free(1)
CF = GroupExpr.countable_free()


class TestNormalization:
    def test_absorption_rules(self):
        A = SymbolicQSpace.ext_free_countable()
        B = SymbolicQSpace.ext_tower(1)
        Binf = SymbolicQSpace.ext_tower_countable()
        Qp = SymbolicQSpace.padic(1)
        assert A.plus(Qp) == A
        assert B.plus(Qp, Qp) == B
        assert Binf.plus(Qp) == Binf
        assert Binf.plus(B) == Binf
        assert A.plus(A) == A

    def test_no_extra_identifications(self):
        A = SymbolicQSpace.ext_free_countable()
        B = SymbolicQSpace.ext_tower(1)
        assert A.plus(B) != A
        assert A.plus(B) != B

    def test_countable_sum(self):
        assert SymbolicQSpace.padic(3).countable_sum() == SymbolicQSpace.ext_free_countable()
        assert SymbolicQSpace.ext_tower(1).countable_sum() == SymbolicQSpace.ext_tower_countable()
        with pytest.raises(UnsupportedAtom):
            SymbolicQSpace.rational(2).countable_sum()

    @given(st.integers(0, 2), st.integers(0, 2), st.booleans(), st.integers(0, 2), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_is_zero_is_equality_with_zero(self, q, qp, a, b, binf):
        v = SymbolicQSpace.make(q, qp, a, b, binf)
        assert v.is_zero() == (v == SymbolicQSpace.make())

    @pytest.mark.parametrize("a", [False, True])
    @pytest.mark.parametrize("binf", [False, True])
    def test_make_equals_the_constructor_on_absorbed_fields(self, a, binf):
        for q, qp, b in itertools.product(range(3), repeat=3):
            # the absorption rules, applied by hand
            kept_b = 0 if binf else b
            kept_qp = 0 if a or kept_b or binf else qp
            expected = SymbolicQSpace(q, kept_qp, a, kept_b, binf)
            got = SymbolicQSpace.make(q, qp, a, b, binf)
            assert (got, hash(got), repr(got)) == (expected, hash(expected), repr(expected))
        assert SymbolicQSpace.make() is SymbolicQSpace.zero() is SymbolicQSpace.make(0, 0)

    def test_rendering(self):
        assert str(SymbolicQSpace.zero()) == "0"
        assert str(SymbolicQSpace.padic(2)) == "Q_p^2"
        assert str(SymbolicQSpace.ext_tower_countable()) == "B_oo"

    @given(st.lists(st.sampled_from([
        SymbolicQSpace.rational(1), SymbolicQSpace.padic(1),
        SymbolicQSpace.ext_free_countable(), SymbolicQSpace.ext_tower(1),
        SymbolicQSpace.ext_tower_countable()]), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_plus_commutative_idempotent_normalization(self, parts):
        total = SymbolicQSpace.zero().plus(*parts)
        assert total == SymbolicQSpace.zero().plus(*reversed(parts))
        assert total.plus(SymbolicQSpace.zero()) == total


class TestExt:
    def test_free_line(self):
        assert ext_pinf_q(Z, 5) == SymbolicQSpace.padic(1)

    def test_finite_vanishes(self):
        assert ext_pinf_q(GroupExpr.cyclic(5**3), 5).is_zero()
        assert ext_pinf_q(GroupExpr.cyclic(9), 5).is_zero()

    def test_countable_free(self):
        assert ext_pinf_q(CF, 5) == SymbolicQSpace.ext_free_countable()

    def test_towers(self):
        assert ext_pinf_q(GroupExpr.torsion_tower(5), 5) == SymbolicQSpace.ext_tower(1)
        assert ext_pinf_q(GroupExpr.torsion_tower(3), 5).is_zero()
        assert ext_pinf_q(GroupExpr.torsion_tower(5).countable_sum(), 5) == \
            SymbolicQSpace.ext_tower_countable()

    def test_additive(self):
        parts = [Z, GroupExpr.cyclic(25), CF, GroupExpr.torsion_tower(5)]
        total = GroupExpr.zero().plus(*parts)
        summed = SymbolicQSpace.zero().plus(*(ext_pinf_q(g, 5) for g in parts))
        assert ext_pinf_q(total, 5) == summed

    @given(st.lists(st.sampled_from([
        Z, GroupExpr.cyclic(4), GroupExpr.cyclic(25), CF,
        GroupExpr.torsion_tower(5), GroupExpr.torsion_tower(3),
        GroupExpr.torsion_tower(5).countable_sum()]), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_ext_and_hom_additive_on_random_sums(self, parts):
        total = GroupExpr.zero().plus(*parts)
        assert ext_pinf_q(total, 5) == SymbolicQSpace.zero().plus(
            *(ext_pinf_q(g, 5) for g in parts))
        # the Hom term, read from degree n - 1, is zero on every sum
        pi = GradedGroup.from_dict({0: total}, known_range=(0, 1))
        assert bousfield_pi_q(pi, 5, 1).is_zero()


class TestHom:
    def test_everything_in_scope_is_reduced(self):
        for g in (Z, GroupExpr.cyclic(8), CF,
                  GroupExpr.torsion_tower(2), GroupExpr.torsion_tower(2).countable_sum()):
            pi = GradedGroup.from_dict({-1: g}, known_range=(-1, 0))
            assert bousfield_pi_q(pi, 2, 0).is_zero()


class TestBousfield:
    def test_negative_degree_line(self):
        pi = GradedGroup.from_dict({-2: Z}, known_range=(-3, 0))
        assert bousfield_pi_q(pi, 5, -2) == SymbolicQSpace.padic(1)

    def test_countable_free_line(self):
        pi = GradedGroup.from_dict({0: CF}, known_range=(-1, 1))
        assert bousfield_pi_q(pi, 5, 0) == SymbolicQSpace.ext_free_countable()

    def test_tower_line_with_vanishing_hom_term(self):
        pi = GradedGroup.from_dict(
            {1: GroupExpr.torsion_tower(5), 0: CF}, known_range=(0, 1))
        assert bousfield_pi_q(pi, 5, 1) == SymbolicQSpace.ext_tower(1)

    def test_degenerates_to_ext_for_every_atom(self):
        for g in (Z, GroupExpr.cyclic(4), CF,
                  GroupExpr.torsion_tower(2), GroupExpr.torsion_tower(2).countable_sum()):
            pi = GradedGroup.from_dict({0: g}, known_range=(-1, 0))
            assert bousfield_pi_q(pi, 2, 0) == ext_pinf_q(g, 2)

    def test_missing_degree_is_an_error(self):
        from dualcircle.abgroups import DegreeOutOfRange
        pi = GradedGroup.from_dict({0: Z}, known_range=(0, 0))
        with pytest.raises(DegreeOutOfRange):
            bousfield_pi_q(pi, 5, 0)  # needs degree -1 as well
