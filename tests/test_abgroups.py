from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualcircle.abgroups import (
    FGAbGroup,
    GradedGroup,
    GroupExpr,
    IndeterminateExtension,
    StructuralError,
    DegreeOutOfRange,
    UnsupportedAtom,
    homology_with_orders,
    les_fiber,
)
from dualcircle.matrices import IntMatrix, kernel_basis, smith_normal_form
from dualcircle.primes import factorint


def middle(d_out, d_in, orders_b, orders_c) -> FGAbGroup:
    """The homology at B of A -> B -> C, with B and C described by their
    orders and A free, from one graded call over all three degrees."""
    orders, boundary = {0: list(orders_c), 1: list(orders_b)}, {1: d_out}
    if d_in is not None:
        orders[2], boundary[2] = [0] * d_in.cols, d_in
    return homology_with_orders(orders, boundary)[1]


def free_complex(*boundaries: list[list[int]]) -> dict[int, str]:
    """Every degree's group, printed, of the complex of free groups whose
    boundary out of degree t is ``boundaries[t - 1]``, as rows."""
    mats = [IntMatrix.from_rows(rows) for rows in boundaries]
    orders = {0: [0] * mats[0].rows}
    orders.update({t: [0] * m.cols for t, m in enumerate(mats, 1)})
    groups = homology_with_orders(orders, dict(enumerate(mats, 1)))
    return {t: str(g) for t, g in groups.items()}


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

    def test_zero_is_one_shared_value(self):
        assert FGAbGroup.zero() is FGAbGroup.zero()
        assert FGAbGroup.zero() == FGAbGroup(0, ())


def _validated_from_orders(orders) -> FGAbGroup:
    """``from_orders`` by hand: replace pairs by their gcd and lcm until
    each order divides the next, then build through the validating
    constructor, which refuses anything but a divisibility chain."""
    rank = sum(1 for d in orders if d == 0)
    chain = sorted(abs(d) for d in orders if abs(d) > 1)
    for s in range(len(chain)):
        for t in range(s + 1, len(chain)):
            chain[s], chain[t] = gcd(chain[s], chain[t]), lcm(chain[s], chain[t])
    return FGAbGroup(rank, tuple(d for d in chain if d > 1))


@given(st.lists(st.integers(min_value=-40, max_value=40), max_size=8))
@example([4, 6])
@example([0, 1, -1, 0])
@example([-6, 6, 4, 4, 9])
@example([])
@settings(max_examples=300, deadline=None)
def test_from_orders_equals_the_validating_constructor(orders):
    got, expected = FGAbGroup.from_orders(orders), _validated_from_orders(orders)
    assert (got, hash(got), repr(got)) == (expected, hash(expected), repr(expected))


def test_from_orders_of_non_dividing_orders_is_their_invariant_factors():
    assert str(FGAbGroup.from_orders([4, 6])) == "Z/2 + Z/12"


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
        # and prints with its multiplicity, as (Z/5)^2 does
        assert str(t) == "(+)_k Z/5^k"
        assert str(t.plus(t)) == "((+)_k Z/5^k)^2"
        assert str(GroupExpr.cyclic(5).plus(t, t)) == "Z/5 + ((+)_k Z/5^k)^2"

    def test_normalization_idempotent(self):
        g = GroupExpr.free(2).plus(GroupExpr.cyclic(12), GroupExpr.torsion_tower(3))
        again = GroupExpr._make(g.atoms)
        assert again == g

    def test_make_refuses_an_unknown_atom_kind(self):
        # so a rule read off the atoms, such as qspaces.ext_pinf_q, never
        # meets a kind it has no case for
        with pytest.raises(UnsupportedAtom):
            GroupExpr._make([("Mystery", None, 1)])

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


# normal forms from raw atoms of every kind: multiplicity 0 and Z/1 vanish,
# Z/0 is Z, Z/m splits, and the countable atoms are idempotent
_RAW_ATOMS = st.one_of(
    st.tuples(st.just("Z"), st.none(), st.integers(0, 2)),
    st.tuples(st.just("Zmod"), st.integers(0, 12), st.integers(0, 2)),
    st.tuples(st.just("CountableFree"), st.none(), st.integers(0, 2)),
    st.tuples(st.sampled_from(["TorsionTower", "CountableTowerSum"]),
              st.sampled_from([2, 3, 5]), st.integers(0, 2)))
_NORMAL_FORMS = st.lists(_RAW_ATOMS, max_size=3).map(GroupExpr._make)


class TestSharedValues:
    def test_the_constants_are_the_normal_forms_of_their_atoms(self):
        assert GroupExpr.free(1) == GroupExpr._make([("Z", None, 1)])
        assert GroupExpr.countable_free() == GroupExpr._make([("CountableFree", None, 1)])
        assert GroupExpr.zero() == GroupExpr._make([])

    @given(_NORMAL_FORMS, st.lists(_NORMAL_FORMS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_plus_is_the_normal_form_of_all_the_atoms(self, a, bs):
        assert a.plus(*bs) == GroupExpr._make([atom for g in (a, *bs) for atom in g.atoms])


class TestChainHomology:
    """Complexes of free groups: every order is 0, and one call gives every
    degree's group."""

    def test_multiplication_by_two(self):
        assert free_complex([[2]]) == {0: "Z/2", 1: "0"}

    def test_zero_differentials(self):
        assert homology_with_orders({0: [0, 0, 0]}, {}) == {0: FGAbGroup.free(3)}

    def test_projective_plane(self):
        assert free_complex([[0]], [[2]]) == {0: "Z", 1: "Z/2", 2: "0"}

    @pytest.mark.parametrize("d_out", [IntMatrix.zero(1, 3), IntMatrix.zero(2, 2)],
                             ids=["wide", "tall"])
    def test_a_zero_outgoing_boundary_of_the_wrong_shape_raises(self, d_out):
        with pytest.raises(StructuralError, match="wrong shape"):
            homology_with_orders({0: [0], 1: [0, 0]}, {1: d_out})

    @pytest.mark.parametrize("boundary", [
        {1: IntMatrix.from_rows([[1, 0, 0]])}, {3: IntMatrix.zero(0, 1)},
    ], ids=["nonzero", "out-of-an-absent-degree"])
    def test_a_boundary_of_the_wrong_shape_raises(self, boundary):
        with pytest.raises(StructuralError, match="wrong shape"):
            homology_with_orders({0: [0], 1: [0, 0]}, boundary)

    def test_nonzero_composite_raises_when_the_kernel_is_zero(self):
        # Z --1--> Z --1--> Z: the middle kernel is zero, the composite is not
        with pytest.raises(StructuralError):
            free_complex([[1]], [[1]])

    def test_ill_defined_map_raises_when_the_kernel_is_zero(self):
        # multiplication by 1 from Z/2 to Z is not well defined
        with pytest.raises(StructuralError):
            homology_with_orders({0: [0], 1: [2]}, {1: IntMatrix.from_rows([[1]])})

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_non_complex_in_any_degree_raises(self, k):
        # Z in degrees 0..5, every boundary zero but d_k and d_(k+1) = 1,
        # whose composite is not zero; then Z/2 in degree k mapping onto Z
        boundary = {t: IntMatrix.from_rows([[int(t in (k, k + 1))]]) for t in range(1, 6)}
        with pytest.raises(StructuralError, match=f"degree {k} .*not a complex"):
            homology_with_orders({t: [0] for t in range(6)}, boundary)
        boundary = {t: IntMatrix.from_rows([[int(t == k)]]) for t in range(1, 6)}
        orders = {t: [2 if t == k else 0] for t in range(6)}
        with pytest.raises(StructuralError, match=f"degree {k} .*not a complex"):
            homology_with_orders(orders, boundary)

    def test_degrees_without_chains_are_zero_and_no_chains_give_nothing(self):
        assert homology_with_orders({}, {}) == {}
        got = homology_with_orders({0: [0], 1: [], 2: [3]}, {1: IntMatrix.zero(1, 0)})
        assert got == {0: FGAbGroup.free(1), 1: FGAbGroup.zero(),
                       2: FGAbGroup.from_orders([3])}

    def test_torus(self):
        # one 0-cell, two 1-cells, one 2-cell, all boundaries zero
        assert free_complex([[0, 0]], [[0], [0]]) == {0: "Z", 1: "Z^2", 2: "Z"}

    def test_klein_bottle(self):
        # square identification: da = 0, db = 0, d(face) = 2b
        assert free_complex([[0, 0]], [[0], [2]]) == {0: "Z", 1: "Z + Z/2", 2: "0"}

    def test_three_dimensional_lens_spaces(self):
        for p in (2, 3, 5, 7**5):
            assert free_complex([[0]], [[p]], [[0]]) == {0: "Z", 1: f"Z/{p}", 2: "0", 3: "Z"}


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
        w = gg.wedge(gg)
        assert w.known_range == (-1, 2)
        assert w.at(0) == GroupExpr.free(2)
        assert w.at(1).is_zero()

    def test_wedge_refuses_a_different_window(self):
        gg = GradedGroup.from_dict({0: GroupExpr.free(1)}, known_range=(-1, 2))
        other = GradedGroup.from_dict({0: GroupExpr.free(1)}, known_range=(-1, 1))
        with pytest.raises(StructuralError):
            gg.wedge(other)

    def test_countable_sum_keeps_the_window(self):
        gg = GradedGroup.from_dict({0: GroupExpr.free(1)}, known_range=(-1, 2))
        s = gg.countable_sum()
        assert s.known_range == (-1, 2)
        assert s.at(0) == GroupExpr.countable_free()
        assert s.at(2).is_zero()

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
        # the row (1, 5, 25, ...) is onto Z with a countable free kernel
        f = {0: (GroupExpr.countable_free(), GroupExpr.zero())}
        fiber = les_fiber(w, b, f, -2, 0)
        assert fiber.at(-2) == GroupExpr.free(1)
        assert fiber.at(-1).is_zero()
        assert fiber.at(0) == GroupExpr.countable_free()

    def test_explicit_zero_map(self):
        w = _graded({0: GroupExpr.countable_free()})
        b = _graded({0: GroupExpr.free(1), -1: GroupExpr.free(1)})
        fiber = les_fiber(w, b, {0: (w.at(0), b.at(0))}, -2, 0)
        assert fiber.at(-2) == GroupExpr.free(1)
        assert fiber.at(-1) == GroupExpr.free(1)
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
    """Homology at B of A -> B -> C by two kernel bases and a Smith form,
    none of which runs the live elimination core: the kernel K of B -> C
    is spanned by the B-rows P of a kernel basis of [d_out | R_C], and
    H = Z^r / {a : P a in L} with L spanned by the columns of d_in and R_B,
    read off a kernel basis of [P | L]."""
    orders_here = list(orders_here)
    n_b = len(orders_here)
    if n_b == 0:
        return FGAbGroup.zero()
    out = None if d_out is None or not any(d_out.columns) else d_out
    killed = []
    if d_in is not None and d_in.cols:
        killed.extend(col for col in d_in.columns if col)
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
             for col in kernel_basis(IntMatrix(out.rows, block)).columns]
        r = len(p)
        relations = [{k: x for k, x in col.items() if k < r}
                     for col in kernel_basis(IntMatrix(n_b, tuple(p + killed))).columns]
    snf = smith_normal_form(IntMatrix(r, tuple(relations)))
    return FGAbGroup.from_orders([0] * (r - snf.rank) + snf.invariant_factors())


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
    if not orders_c:  # from_rows([]) is 0 x 0, not the 0 x n map to C = 0
        d_out = IntMatrix.zero(0, len(orders_b))
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
    assert (middle(d_out, d_in, orders_b, orders_c)
            == _reference_homology_with_orders(d_out, d_in, orders_b, orders_c))


def _cycles(d: IntMatrix, below: list[int]) -> list[list[int]]:
    """Vectors spanning the x with d x in the relations of ``below``, the
    orders of d's target: the B-rows of a kernel basis of [d | R]."""
    if not below:
        return [[int(i == j) for i in range(d.cols)] for j in range(d.cols)]
    block = [[d.entries[i][j] for j in range(d.cols)]
             + [o if k == i else 0 for k, o in enumerate(below) if o]
             for i in range(len(below))]
    return [[col.get(i, 0) for i in range(d.cols)]
            for col in kernel_basis(IntMatrix.from_rows(block)).columns]


def _order_in(x: list[int], orders: list[int]) -> int:
    """The order of x in the sum of cyclic groups of ``orders``, 0 if infinite."""
    if any(v and not o for v, o in zip(x, orders)):
        return 0
    return lcm(*(o // gcd(o, v) for v, o in zip(x, orders) if o))


@st.composite
def _graded_complexes(draw):
    """Complexes of 4 to 6 consecutive degrees, chained the way
    ``_small_complexes`` draws d_in: each column of a boundary is drawn
    from the lattice that the boundary below sends into its target's
    relations, so every composite is zero modulo relations but often not
    over Z.  A generator is free, or has a nonzero multiple of its
    column's order (any of 2, 3, 4, 6 when the column is zero), so every
    map is well defined and degrees mix free and torsion generators."""
    low = draw(st.integers(-2, 2))
    small = st.integers(min_value=-3, max_value=3)
    orders = {low: draw(st.lists(_ORDERS, min_size=0, max_size=3))}
    boundary = {}
    lattice = None  # spans the cycles of the degree below
    for t in range(low + 1, low + draw(st.integers(4, 6))):
        below = orders[t - 1]
        if lattice is None:
            lattice = [[int(i == j) for i in range(len(below))] for j in range(len(below))]
        columns, here = [], []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            coeffs = draw(st.lists(small, min_size=len(lattice), max_size=len(lattice)))
            x = [sum(c * v[i] for c, v in zip(coeffs, lattice)) for i in range(len(below))]
            k = _order_in(x, below)
            here.append(draw(st.sampled_from((0, k, 2 * k) if k > 1 else (0, 2, 3, 4, 6)
                                             if k else (0,))))
            columns.append({i: v for i, v in enumerate(x) if v})
        orders[t], boundary[t] = here, IntMatrix(len(below), tuple(columns))
        lattice = _cycles(boundary[t], below)
    return orders, boundary


class TestHomologyWithOrdersReference:
    @given(_small_complexes())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_kernel_basis_reference(self, cx):
        _agrees_with_reference(cx)

    # C all free or all torsion: no place, or one per generator of C, in
    # the cone's F part below B
    @given(_small_complexes(st.lists(st.just(0), min_size=1, max_size=3)))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_when_c_is_all_free(self, cx):
        _agrees_with_reference(cx)

    @given(_small_complexes(st.lists(st.sampled_from((2, 3, 4, 6)), min_size=1, max_size=3)))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_when_c_is_all_torsion(self, cx):
        _agrees_with_reference(cx)

    @given(_graded_complexes())
    @settings(max_examples=150, deadline=None)
    def test_every_degree_of_a_longer_complex_matches_the_reference(self, cx):
        orders, boundary = cx
        got = homology_with_orders(orders, boundary)
        assert list(got) == list(orders)
        for t, here in orders.items():
            assert got[t] == _reference_homology_with_orders(
                boundary.get(t), boundary.get(t + 1), here, orders.get(t - 1, [])), t

    def test_free_summand_and_torsion_lift(self):
        # B = Z^2 + Z/4 -> C = Z/2 by (1, 0, 2): the kernel is 2Z + Z + Z/4, and
        # d_in kills (2, 0, 1), whose image 4 is zero in C only modulo 2
        d_out = IntMatrix.from_rows([[1, 0, 2]])
        d_in = IntMatrix.from_rows([[2], [0], [1]])
        got = middle(d_out, d_in, [0, 0, 4], [2])
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
            middle(*args)
        with pytest.raises(StructuralError):
            _reference_homology_with_orders(*args)


class TestUnitPairCancellation:
    """Generic homology cancels an entry +-1 only between generators of the
    same order, where it is an isomorphism Z -> Z or Z/o -> Z/o; each
    complex below holds a unit between unequal orders, which must stay."""

    @pytest.mark.parametrize("orders, boundary_rows, expected", [
        # Z -> Z/2 by 1, onto with kernel 2Z, the image of Z by 2
        ({0: [2], 1: [0], 2: [0]}, {1: [[1]], 2: [[2]]}, {0: "0", 1: "0", 2: "0"}),
        # Z/4 -> Z/2 by 1: onto, with kernel 2Z/4
        ({0: [2], 1: [4]}, {1: [[1]]}, {0: "0", 1: "Z/2"}),
        # Z -> Z/2 + Z by (1, 1): the unit into Z cancels, the one into Z/2,
        # met first, does not, and Z/2 is left
        ({0: [2, 0], 1: [0]}, {1: [[1], [1]]}, {0: "Z/2", 1: "0"}),
    ], ids=["free-to-Z/2", "Z/4-to-Z/2", "past-Z/2-to-Z"])
    def test_a_unit_between_unequal_orders_is_kept(self, orders, boundary_rows, expected):
        boundary = {t: IntMatrix.from_rows(r) for t, r in boundary_rows.items()}
        got = homology_with_orders(orders, boundary)
        assert {t: str(g) for t, g in got.items()} == expected
        for t, here in orders.items():
            assert got[t] == _reference_homology_with_orders(
                boundary.get(t), boundary.get(t + 1), here, orders.get(t - 1, []))

    @pytest.mark.parametrize("order", [0, 3])
    def test_a_bad_composite_on_cancellable_pairs_raises_in_its_degree(self, order):
        # d_2 = d_3 = 1 between generators of one order: cancelling the pair
        # of d_2 first would leave d_3 zero and hide the composite of degree 2
        boundary = {t: IntMatrix.from_rows([[int(t > 1)]]) for t in (1, 2, 3)}
        with pytest.raises(StructuralError, match="degree 2 .*not a complex"):
            homology_with_orders({t: [order] for t in range(4)}, boundary)


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

    @classmethod
    def _complexes(cls):
        """40 seeded complexes A -f-> B -g-> C of finite groups: the orders
        of A, B and C, the rows of g and the columns of f, and the kernel
        of g as a list of elements."""
        import random
        from math import gcd

        rng = random.Random(99)
        for _ in range(40):
            orders_b = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 3))]
            orders_c = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
            # well-defined g: entry (i, j) must be a multiple of o_i / gcd(o_i, o_j)
            g_rows = [[(orders_c[i] // gcd(orders_c[i], orders_b[j]))
                       * rng.randint(0, 3)
                       for j in range(len(orders_b))]
                      for i in range(len(orders_c))]
            kernel = [x for x in cls._elements(orders_b)
                      if not any(cls._apply(g_rows, x, orders_c))]
            # f: a few random kernel elements as generators, orders matching
            f_cols = [rng.choice(kernel) for _ in range(rng.randint(0, 2))]
            orders_a = [cls._element_order(x, orders_b) for x in f_cols]
            yield orders_a, orders_b, orders_c, g_rows, f_cols, kernel

    @staticmethod
    def _matrices(g_rows, f_cols, orders_b):
        f_rows = [[col[i] for col in f_cols] for i in range(len(orders_b))]
        return IntMatrix.from_rows(g_rows), IntMatrix.from_rows(f_rows) if f_cols else None

    def test_random_small_torsion_complexes(self):
        for trial, cx in enumerate(self._complexes()):
            orders_a, orders_b, orders_c, g_rows, f_cols, kernel = cx
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

            g, f = self._matrices(g_rows, f_cols, orders_b)
            orders = {0: orders_c, 1: orders_b, 2: orders_a}
            got = homology_with_orders(orders, {1: g} if f is None else {1: g, 2: f})[1]
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
