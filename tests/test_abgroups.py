from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle.abgroups import (
    ChainComplex,
    FGAbGroup,
    GradedGroup,
    GroupExpr,
    IndeterminateExtension,
    MapDescriptor,
    StructuralError,
    DegreeOutOfRange,
    homology_at,
    homology_with_orders,
    les_fiber,
)
from dualcircle.matrices import IntMatrix, SparseMatrix, cokernel_invariants, kernel_basis
from dualcircle.primes import factorint


def _to_fg(expr: GroupExpr) -> FGAbGroup:
    """The inverse of ``GroupExpr.from_fg`` on finitely generated atoms."""
    orders = []
    for kind, param, mult in expr.atoms:
        assert kind in ("Z", "Zmod"), kind
        orders += [0 if kind == "Z" else param] * mult
    return FGAbGroup.from_orders(orders)


class TestFGAbGroup:
    def test_canonical_form(self):
        g = FGAbGroup.from_orders([4, 6, 0])
        assert g.free_rank == 1
        assert g.torsion == (2, 12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FGAbGroup(0, (4, 6))

    def test_direct_sum_recombines(self):
        a = FGAbGroup.from_orders([2])
        b = FGAbGroup.from_orders([15])
        assert a.direct_sum(b) == FGAbGroup.from_orders([30])

    def test_str(self):
        assert str(FGAbGroup.from_orders([0, 0, 2])) == "Z^2 + Z/2"
        assert str(FGAbGroup.zero()) == "0"


class TestGroupExpr:
    def test_prime_power_splitting_makes_equality_iso_invariant(self):
        assert GroupExpr.cyclic(6) == GroupExpr.cyclic(2).plus(GroupExpr.cyclic(3))

    def test_unit_cyclic_dropped(self):
        assert GroupExpr.cyclic(1).is_zero()

    def test_countable_atoms_are_idempotent(self):
        c = GroupExpr.countable_free()
        assert c.plus(c) == c
        s = GroupExpr.torsion_tower(5).countable_sum()
        assert s.plus(s) == s
        # a finite free part next to a countable one is not absorbed
        assert GroupExpr.free(1).plus(c) != c

    def test_a_double_tower_is_not_a_tower(self):
        # doubling a tower doubles each cyclic multiplicity
        t = GroupExpr.torsion_tower(5)
        assert t.plus(t) != t
        assert t.plus(t).atoms == (("TorsionTower", 5, 2),)

    def test_normalization_idempotent(self):
        g = GroupExpr.free(2).plus(GroupExpr.cyclic(12), GroupExpr.torsion_tower(3))
        again = GroupExpr._make(g.atoms)
        assert again == g

    def test_countable_sum(self):
        assert GroupExpr.free(3).countable_sum() == GroupExpr.countable_free()
        assert GroupExpr.torsion_tower(2).countable_sum().atoms == (
            ("CountableTowerSum", 2, 1),)
        with pytest.raises(Exception):
            GroupExpr.cyclic(4).countable_sum()

    def test_round_trip_fg(self):
        g = FGAbGroup.from_orders([0, 4, 2])
        assert _to_fg(GroupExpr.from_fg(g)) == g

    def test_json_atoms_use_decimal_strings(self):
        obj = GroupExpr.cyclic(8, 2).to_json_obj()
        assert obj == [{"atom": "Zmod", "parameter": "8", "multiplicity": "2"}]

    @given(st.lists(st.sampled_from([
        GroupExpr.free(1), GroupExpr.cyclic(4), GroupExpr.cyclic(9),
        GroupExpr.countable_free(), GroupExpr.torsion_tower(3)]), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_plus_is_commutative_and_normal(self, parts):
        total = GroupExpr.zero().plus(*parts)
        total_rev = GroupExpr.zero().plus(*reversed(parts))
        assert total == total_rev
        assert GroupExpr._make(total.atoms) == total


class TestChainHomology:
    def test_multiplication_by_two(self):
        cx = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
        assert homology_at(cx, 1) == FGAbGroup.zero()
        assert homology_at(cx, 0) == FGAbGroup.from_orders([2])

    def test_zero_differentials(self):
        cx = ChainComplex({0: 3}, {})
        assert homology_at(cx, 0) == FGAbGroup.free(3)

    def test_projective_plane(self):
        cx = ChainComplex(
            {0: 1, 1: 1, 2: 1},
            {1: IntMatrix.from_rows([[0]]), 2: IntMatrix.from_rows([[2]])})
        assert str(homology_at(cx, 0)) == "Z"
        assert str(homology_at(cx, 1)) == "Z/2"
        assert homology_at(cx, 2).is_trivial()

    def test_rejects_non_complexes(self):
        with pytest.raises(StructuralError):
            ChainComplex(
                {0: 1, 1: 1, 2: 1},
                {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])})

    def test_nonzero_composite_raises_when_the_kernel_is_zero(self):
        # Z --1--> Z --1--> Z: the middle kernel is zero, the composite is not
        with pytest.raises(StructuralError):
            homology_with_orders(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]),
                                 [0], [0])

    def test_ill_defined_map_raises_when_the_kernel_is_zero(self):
        # multiplication by 1 from Z/2 to Z is not well defined
        with pytest.raises(StructuralError):
            homology_with_orders(IntMatrix.from_rows([[1]]), None, [2], [0])

    def test_torus(self):
        # one 0-cell, two 1-cells, one 2-cell, all boundaries zero
        cx = ChainComplex({0: 1, 1: 2, 2: 1},
                          {1: IntMatrix.zero(1, 2), 2: IntMatrix.zero(2, 1)})
        assert homology_at(cx, 1) == FGAbGroup.free(2)

    def test_klein_bottle(self):
        # square identification: da = 0, db = 0, d(face) = 2b
        cx = ChainComplex({0: 1, 1: 2, 2: 1},
                          {1: IntMatrix.zero(1, 2),
                           2: IntMatrix.from_rows([[0], [2]])})
        assert homology_at(cx, 0) == FGAbGroup.free(1)
        assert homology_at(cx, 1) == FGAbGroup.from_orders([0, 2])
        assert homology_at(cx, 2).is_trivial()

    def test_three_dimensional_lens_spaces(self):
        for p in (2, 3, 5, 7**5):
            cx = ChainComplex(
                {0: 1, 1: 1, 2: 1, 3: 1},
                {1: IntMatrix.zero(1, 1),
                 2: IntMatrix.from_rows([[p]]),
                 3: IntMatrix.zero(1, 1)})
            assert homology_at(cx, 0) == FGAbGroup.free(1)
            assert homology_at(cx, 1) == FGAbGroup.from_orders([p])
            assert homology_at(cx, 2).is_trivial()
            assert homology_at(cx, 3) == FGAbGroup.free(1)


class TestGradedGroup:
    def test_known_range(self):
        gg = GradedGroup.from_dict({0: GroupExpr.free(1)}, known_range=(-1, 2))
        assert gg.at(2).is_zero()
        with pytest.raises(DegreeOutOfRange):
            gg.at(3)
        with pytest.raises(DegreeOutOfRange):
            gg.at(-2)

    def test_wedge_adds_degreewise(self):
        gg = GradedGroup.from_dict({0: GroupExpr.free(1)}, known_range=(-1, 2))
        w = gg.wedge(gg, -1, 1)
        assert w.known_range == (-1, 1)
        assert w.at(0) == GroupExpr.free(2)
        assert w.at(1).is_zero()

    def test_one_cell_per_degree_of_the_window(self):
        gg = GradedGroup.from_dict({5: GroupExpr.cyclic(3), 9: GroupExpr.free(1)},
                                   known_range=(3, 7))
        assert gg.cells == (GroupExpr.zero(), GroupExpr.zero(), GroupExpr.cyclic(3),
                            GroupExpr.zero(), GroupExpr.zero())
        assert [gg.at(d) for d in range(3, 8)] == list(gg.cells)

    def test_the_window_is_required(self):
        with pytest.raises(TypeError):
            GradedGroup.from_dict({0: GroupExpr.free(1)})


def _graded(values, known=(-3, 5)):
    return GradedGroup.from_dict(values, known_range=known)


class TestLesFiber:
    def test_zero_base_gives_total_space(self):
        w = _graded({0: GroupExpr.free(2), 3: GroupExpr.cyclic(4)})
        fiber = les_fiber(w, _graded({}), {}, -1, 4)
        assert fiber.known_range == (-1, 4)
        assert fiber.at(0) == GroupExpr.free(2)
        assert fiber.at(3) == GroupExpr.cyclic(4)

    def test_countable_row_example(self):
        w = _graded({0: GroupExpr.countable_free()})
        b = _graded({0: GroupExpr.free(1), -1: GroupExpr.free(1)})
        f = {0: MapDescriptor.row_powers(5)}
        fiber = les_fiber(w, b, f, -2, 0)
        assert fiber.at(-2) == GroupExpr.free(1)
        assert fiber.at(-1).is_zero()
        assert fiber.at(0) == GroupExpr.countable_free()

    def test_refuses_ambiguous_extension(self):
        w = _graded({0: GroupExpr.free(1)})
        b = _graded({1: GroupExpr.free(1)})
        with pytest.raises(IndeterminateExtension) as err:
            les_fiber(w, b, {}, 0, 0)
        assert err.value.degree == 0

    def test_missing_descriptor_is_an_error(self):
        w = _graded({0: GroupExpr.free(1)})
        b = _graded({0: GroupExpr.free(1)})
        with pytest.raises(StructuralError):
            les_fiber(w, b, {}, 0, 0)


def _reference_homology_with_orders(d_out, d_in, orders_here, orders_below):
    """Homology at B of A -> B -> C by two kernel bases and a cokernel: the
    kernel K of B -> C is spanned by the B-rows P of a kernel basis of
    [d_out | R_C], and H = Z^r / {a : P a in L} with L spanned by the
    columns of d_in and R_B, read off a kernel basis of [P | L]."""
    orders_here = list(orders_here)
    n_b = len(orders_here)
    if n_b == 0:
        return FGAbGroup.zero()
    out = None if d_out is None else SparseMatrix.of(d_out)
    if out is not None and (out.rows == 0 or out.is_zero()):
        out = None
    killed = []
    if d_in is not None and d_in.cols:
        killed.extend(col for col in SparseMatrix.of(d_in).columns if col)
    killed.extend({i: o} for i, o in enumerate(orders_here) if o)
    if out is None:
        r, relations = n_b, killed
    else:
        orders_below = list(orders_below)
        for col in killed:
            image = {}
            for j, x in col.items():
                for i, y in out.columns[j].items():
                    image[i] = image.get(i, 0) + x * y
            for i, v in image.items():
                c = orders_below[i]
                if (v % c if c else v) != 0:
                    raise StructuralError("input is not a complex")
        block = out.columns + tuple({i: o} for i, o in enumerate(orders_below) if o)
        p = [{k: x for k, x in col.items() if k < n_b}
             for col in kernel_basis(SparseMatrix(out.rows, block)).columns]
        r = len(p)
        relations = [{k: x for k, x in col.items() if k < r}
                     for col in kernel_basis(SparseMatrix(n_b, tuple(p + killed))).columns]
    free, torsion = cokernel_invariants(SparseMatrix(r, tuple(relations)))
    return FGAbGroup(free, tuple(torsion))


_ORDERS = st.sampled_from((0, 0, 2, 3, 4, 6))


@st.composite
def _small_complexes(draw, orders_c=st.lists(_ORDERS, min_size=0, max_size=3)):
    """A -> B -> C with mixed free and torsion generators in B, and C's
    orders drawn from ``orders_c``.  d_out is well defined on B; the
    columns of d_in are drawn from the lattice of B's generators that
    d_out sends into C's relations, so d_out d_in is zero modulo R_C but
    often not over Z.  A's orders are no input of the homology; a column
    of d_in of finite order in B stands for a torsion generator of A."""
    orders_b = draw(st.lists(_ORDERS, min_size=1, max_size=4))
    orders_c = draw(orders_c)
    small = st.integers(min_value=-3, max_value=3)
    # o_j * d[i][j] must be a multiple of o_i, and 0 when o_i = 0 < o_j
    d_out = IntMatrix.from_rows([
        [0 if oi == 0 and oj else
         draw(small) * (oi // gcd(oi, oj) if oi else 1)
         for oj in orders_b] for oi in orders_c])
    block = [[d_out.entries[i][j] for j in range(len(orders_b))]
             + [o if k == i else 0 for k, o in enumerate(orders_c) if o]
             for i in range(len(orders_c))]
    lifts = kernel_basis(IntMatrix.from_rows(block)) if orders_c else None
    n_lifts = lifts.cols if lifts is not None else len(orders_b)
    cols = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeffs = draw(st.lists(small, min_size=n_lifts, max_size=n_lifts))
        if lifts is None:
            cols.append(coeffs)
        else:
            cols.append([sum(lifts.entries[i][k] * c for k, c in enumerate(coeffs))
                         for i in range(len(orders_b))])
    d_in = IntMatrix.from_rows(list(zip(*cols))) if cols else None
    return d_out, d_in, orders_b, orders_c


def _agrees_with_reference(cx):
    d_out, d_in, orders_b, orders_c = cx
    assert (homology_with_orders(d_out, d_in, orders_b, orders_c)
            == _reference_homology_with_orders(d_out, d_in, orders_b, orders_c))


class TestHomologyWithOrdersReference:
    @given(_small_complexes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_kernel_basis_reference(self, cx):
        _agrees_with_reference(cx)

    # the rank of d_B is read off C's free rows: all of them, or none
    @given(_small_complexes(st.lists(st.just(0), min_size=1, max_size=3)))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_when_c_is_all_free(self, cx):
        _agrees_with_reference(cx)

    @given(_small_complexes(st.lists(st.sampled_from((2, 3, 4, 6)), min_size=1, max_size=3)))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_when_c_is_all_torsion(self, cx):
        _agrees_with_reference(cx)

    def test_free_summand_and_torsion_lift(self):
        # B = Z^2 + Z/4 -> C = Z/2 by (1, 0, 2): the kernel is 2Z + Z + Z/4, and
        # d_in kills (2, 0, 1), whose image 4 is zero in C only modulo 2
        d_out = IntMatrix.from_rows([[1, 0, 2]])
        d_in = IntMatrix.from_rows([[2], [0], [1]])
        got = homology_with_orders(d_out, d_in, [0, 0, 4], [2])
        assert got == _reference_homology_with_orders(d_out, d_in, [0, 0, 4], [2])
        assert got == FGAbGroup.from_orders([0, 4])

    @pytest.mark.parametrize("args", [
        # B = Z + Z/2 -> C = Z by (0, 1): the relation 2 e_1 maps to 2, not
        # into C's relations; e_0 spans a nonzero kernel
        (IntMatrix.from_rows([[0, 1]]), None, [0, 2], [0]),
        # B = Z^2 -> C = Z/4 by (0, 1), A = Z -> B by (0, 2): the composite
        # is 2, not zero modulo 4; e_0 spans a nonzero kernel
        (IntMatrix.from_rows([[0, 1]]), IntMatrix.from_rows([[0], [2]]), [0, 0], [4]),
    ], ids=["relation-of-B", "incoming-image"])
    def test_non_complex_with_a_nonzero_kernel_raises(self, args):
        with pytest.raises(StructuralError, match="not a complex"):
            homology_with_orders(*args)
        with pytest.raises(StructuralError):
            _reference_homology_with_orders(*args)


class TestHomologyWithOrdersBruteForce:
    """Independent check of the subquotient algorithm: enumerate small
    finite complexes element by element and compare the multiset of element
    orders of ker/im with the computed invariant-factor answer (for finite
    abelian groups that multiset determines the isomorphism type)."""

    @staticmethod
    def _elements(orders):
        from itertools import product
        return list(product(*(range(o) for o in orders)))

    @staticmethod
    def _apply(matrix_rows, x, target_orders):
        return tuple(
            sum(matrix_rows[i][j] * x[j] for j in range(len(x))) % target_orders[i]
            for i in range(len(target_orders)))

    @classmethod
    def _element_order(cls, x, orders):
        from math import gcd, lcm
        return lcm(*(o // gcd(o, v) for o, v in zip(orders, x))) if x else 1

    def test_random_small_torsion_complexes(self):
        import random
        from math import gcd

        from dualcircle.abgroups import homology_with_orders
        from dualcircle.matrices import IntMatrix

        rng = random.Random(99)
        for trial in range(40):
            orders_b = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 3))]
            orders_c = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
            # well-defined g: entry (i, j) must be a multiple of o_i / gcd(o_i, o_j)
            g_rows = [[(orders_c[i] // gcd(orders_c[i], orders_b[j]))
                       * rng.randint(0, 3)
                       for j in range(len(orders_b))]
                      for i in range(len(orders_c))]
            b_elements = self._elements(orders_b)
            kernel = [x for x in b_elements
                      if not any(self._apply(g_rows, x, orders_c))]
            # f: a few random kernel elements as generators, orders matching
            n_gens = rng.randint(0, 2)
            chosen = [rng.choice(kernel) for _ in range(n_gens)]
            f_cols = chosen
            orders_a = [self._element_order(x, orders_b) for x in chosen]
            f_rows = [[col[i] for col in f_cols] for i in range(len(orders_b))] \
                if f_cols else None
            image = set()
            for coeffs in self._elements(orders_a or []):
                y = tuple(
                    sum(c * col[i] for c, col in zip(coeffs, f_cols)) % orders_b[i]
                    for i in range(len(orders_b)))
                image.add(y)
            if not image:
                image = {tuple(0 for _ in orders_b)}

            def canonical(x):
                return min(tuple((xi + ii) % o for xi, ii, o in zip(x, i, orders_b))
                           for i in image)

            classes = {}
            for x in kernel:
                classes.setdefault(canonical(x), []).append(x)
            # order of a coset: least k with k*x in the image (0 is in it)
            coset_orders = []
            for rep in classes:
                k = 1
                while tuple((k * v) % o for v, o in zip(rep, orders_b)) not in image:
                    k += 1
                coset_orders.append(k)

            got = homology_with_orders(
                d_out=IntMatrix.from_rows(g_rows),
                d_in=IntMatrix.from_rows(f_rows) if f_rows else None,
                orders_here=orders_b,
                orders_below=orders_c)
            # compare group order and the multiset of element orders
            expected_size = len(classes)
            size = 1
            for d in got.torsion:
                size *= d
            assert got.free_rank == 0
            assert size == expected_size, (trial, got, expected_size)
            expected_multiset = sorted(coset_orders)
            produced = sorted(
                self._element_order(x, got.torsion or [1])
                for x in self._elements(got.torsion or [1]))
            assert produced == expected_multiset, (trial, got)


def _reference_from_orders(orders):
    """Invariant factors from primary parts: factor every order, and
    multiply the largest prime powers together, then the next largest..."""
    rank, primary = 0, {}
    for d in orders:
        if d == 0:
            rank += 1
        for p, e in factorint(d).items() if d > 1 else ():
            primary.setdefault(p, []).append(e)
    tiers = [sorted(exps, reverse=True) for exps in primary.values()]
    factors = []
    for k in range(max(map(len, tiers), default=0)):
        d = 1
        for p, exps in zip(primary, tiers):
            d *= p ** exps[k] if k < len(exps) else 1
        factors.append(d)
    return FGAbGroup(rank, tuple(reversed(factors)))


@given(st.lists(st.integers(min_value=0, max_value=400), max_size=8))
@settings(max_examples=300, deadline=None)
def test_from_orders_matches_the_primary_decomposition(orders):
    assert FGAbGroup.from_orders(orders) == _reference_from_orders(orders)


@given(st.lists(st.integers(min_value=0, max_value=64), max_size=6))
@settings(max_examples=150, deadline=None)
def test_group_expr_roundtrips_finitely_generated_groups(orders):
    g = FGAbGroup.from_orders(orders)
    assert _to_fg(GroupExpr.from_fg(g)) == g
