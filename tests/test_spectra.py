import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle.abgroups import GradedGroup, GroupExpr, StructuralError
from dualcircle.spectra import (
    CountableWedge,
    CPInf,
    EvaluationUnsupported,
    Shift,
    Sphere,
    SuspCircle,
    Wedge,
    WedgeCircleTransfer,
    fiber_homology,
    homology,
    homology_graded,
)

Z = GroupExpr.free(1)


def _reference_homology(expr, d: int) -> GroupExpr:
    """Integral homology in one degree by the recursion on the tree that
    reads each degree on its own: the reference for the window walk."""
    if isinstance(expr, Sphere):
        return GroupExpr.free(1) if d == 0 else GroupExpr.zero()
    if isinstance(expr, SuspCircle):
        return GroupExpr.free(1) if d in (0, 1) else GroupExpr.zero()
    if isinstance(expr, CPInf):
        return GroupExpr.free(1) if (d >= -2 and d % 2 == 0) else GroupExpr.zero()
    if isinstance(expr, Shift):
        return _reference_homology(expr.inner, d - expr.k)
    if isinstance(expr, Wedge):
        return GroupExpr.zero().plus(*(_reference_homology(e, d) for e in expr.parts))
    if isinstance(expr, CountableWedge):
        kind = expr.family[0]
        if kind == "bcyc_ppowers":
            if d == 0:
                return GroupExpr.countable_free()
            if d > 0 and d % 2 == 1:
                return GroupExpr.torsion_tower(expr.family[1])
            return GroupExpr.zero()
        if kind == "orbits_all":
            return GroupExpr.countable_free() if d in (0, 1) else GroupExpr.zero()
        raise EvaluationUnsupported(f"unknown countable family {kind!r}")
    raise EvaluationUnsupported(f"no homology rule for {type(expr).__name__}")


_LEAVES = st.sampled_from([Sphere(), SuspCircle(), CPInf(), CountableWedge(("orbits_all",))]
                          + [CountableWedge(("bcyc_ppowers", p)) for p in (2, 3, 5)])


def _trees(depth: int):
    """Expression trees of at most ``depth`` levels, a leaf being one."""
    if depth == 1:
        return _LEAVES
    inner = _trees(depth - 1)
    return st.one_of(_LEAVES, st.builds(Shift, st.integers(-3, 3), inner),
                     st.builds(Wedge, st.lists(inner, max_size=3).map(tuple)))


# windows from lo to lo + width: negative ends, and a single degree, included
_WINDOWS = st.tuples(st.integers(-6, 4), st.integers(0, 6)).map(lambda w: (w[0], w[0] + w[1]))

# nodes without a homology rule: a map, and a countable family with no rule
_UNKNOWN = st.sampled_from([WedgeCircleTransfer(3), CountableWedge(("bcyc_all",))])


class TestAtomHomology:
    def test_sphere(self):
        assert homology(Sphere(), 0) == Z
        assert homology(Sphere(), 1).is_zero()

    def test_stunted_projective(self):
        for d in (-1, 1, 3, 5):
            assert homology(Shift(1, CPInf()), d) == Z
        for d in (-2, 0, 2, 4):
            assert homology(Shift(1, CPInf()), d).is_zero()

    def test_shift_moves_degrees(self):
        e = Shift(-1, SuspCircle())
        assert homology(e, -1) == Z
        assert homology(e, 0) == Z
        assert homology(e, 1).is_zero()

    def test_wedge_is_additive(self):
        e = Wedge((Sphere(), Shift(1, CPInf())))
        assert homology(e, 0) == Z
        assert homology(e, -1) == Z

    def test_additivity_and_shift_on_random_expressions(self):
        rng = random.Random(11)
        atoms = [Sphere(), SuspCircle(), CPInf(), Shift(1, CPInf()),
                 CountableWedge(("orbits_all",))]
        for _ in range(50):
            parts = tuple(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
            k = rng.randint(-2, 2)
            d = rng.randint(-3, 5)
            wedge = Wedge(parts)
            total = GroupExpr.zero().plus(*(homology(e, d) for e in parts))
            assert homology(wedge, d) == total
            assert homology(Shift(k, wedge), d + k) == total


class TestWindowWalk:
    @given(_trees(3), _WINDOWS)
    @settings(max_examples=300, deadline=None)
    def test_every_degree_matches_the_per_degree_reference(self, expr, window):
        lo, hi = window
        g = homology_graded(expr, lo, hi)
        assert g.known_range == (lo, hi)
        for d in range(lo, hi + 1):
            assert g.at(d) == _reference_homology(expr, d)
            assert homology(expr, d) == g.at(d)

    @given(_trees(2), _UNKNOWN, st.integers(-3, 3), _WINDOWS)
    @settings(max_examples=50, deadline=None)
    def test_an_unknown_node_raises_on_both_paths(self, expr, unknown, k, window):
        lo, hi = window
        for tree in (unknown, Shift(k, unknown), Wedge((expr, unknown))):
            with pytest.raises(EvaluationUnsupported):
                homology_graded(tree, lo, hi)
            with pytest.raises(EvaluationUnsupported):
                _reference_homology(tree, lo)


class TestCountableFamilies:
    def test_power_tower_wedge(self):
        fam = CountableWedge(("bcyc_ppowers", 5))
        assert homology(fam, 0) == GroupExpr.countable_free()
        assert homology(fam, 3) == GroupExpr.torsion_tower(5)
        assert homology(fam, 2).is_zero()

    def test_orbit_families(self):
        fam = CountableWedge(("orbits_all",))
        assert homology(fam, 1) == GroupExpr.countable_free()
        assert homology(fam, 2).is_zero()

    def test_unknown_family_refused(self):
        with pytest.raises(EvaluationUnsupported):
            homology(CountableWedge(("bcyc_all",)), 0)


class TestFiber:
    def test_wedge_transfer_fiber(self):
        h = fiber_homology(WedgeCircleTransfer(2), -2, 2)
        assert h.at(-2) == Z
        assert h.at(-1).is_zero()
        assert h.at(0) == GroupExpr.countable_free()
        assert h.at(1) == GroupExpr.torsion_tower(2)

    def test_transfer_kernel_and_cokernel_in_degree_zero(self):
        t = WedgeCircleTransfer(3)
        w, b = homology_graded(t.domain, -1, 1), homology_graded(t.codomain, -1, 1)
        assert t.kernel_cokernel(w, b) == {0: (GroupExpr.countable_free(), GroupExpr.zero())}

    def test_transfer_refuses_the_wrong_degree_zero_groups(self):
        t = WedgeCircleTransfer(3)
        w = homology_graded(t.domain, -1, 1)
        for b in (GradedGroup.from_dict({}, (-1, 1)),
                  GradedGroup.from_dict({0: GroupExpr.free(2)}, (-1, 1))):
            with pytest.raises(StructuralError):
                t.kernel_cokernel(w, b)
        with pytest.raises(StructuralError):
            t.kernel_cokernel(homology_graded(Sphere(), -1, 1),
                              homology_graded(t.codomain, -1, 1))

    def test_transfer_has_no_entry_outside_degree_zero(self):
        t = WedgeCircleTransfer(5)
        w, b = homology_graded(t.domain, 2, 5), homology_graded(t.codomain, 2, 5)
        assert t.kernel_cokernel(w, b) == {}
        assert fiber_homology(t, 3, 4).at(3) == GroupExpr.torsion_tower(5)

    def test_graded_window(self):
        g = homology_graded(Sphere(), -1, 1)
        assert g.at(0) == Z
        assert g.known_range == (-1, 1)


class TestStuntedProjective:
    def test_shifted_rule_is_the_shift_of_the_even_rule(self):
        for d in range(-4, 8):
            assert homology(Shift(1, CPInf()), d) == homology(CPInf(), d - 1)

    def test_even_cells_from_minus_two(self):
        assert homology(CPInf(), -2) == Z
        assert homology(CPInf(), -3).is_zero()
        assert homology(CPInf(), -4).is_zero()
        assert homology(CPInf(), 6) == Z

