from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle import matrices
from dualcircle.matrices import (
    IntMatrix,
    NoIntegralSolution,
    cokernel_invariants,
    image_lattice_basis,
    kernel_basis,
    smith_normal_form,
    solve_integral,
)

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r, max_size=r)))

matrices_up_to_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=c, max_size=c),
            min_size=r, max_size=r)))

def det(m: IntMatrix) -> int:
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    from fractions import Fraction
    a = [[Fraction(x) for x in row] for row in a]
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for j in range(i + 1, n):
            f = a[j][i] / a[i][i]
            a[j] = [x - f * y for x, y in zip(a[j], a[i])]
    out = sign * prod(a[i][i] for i in range(n))
    assert out.denominator == 1
    return int(out)


def dense_product(a, b):
    """The product of two row grids, the schoolbook way."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]) if b else 0)) for i in range(len(a)))


class TestAgainstDenseGrids:
    """The column-sparse layout against products written on row grids."""

    @given(matrices_up_to_5)
    @settings(max_examples=200, deadline=None)
    def test_from_rows_keeps_the_grid(self, rows):
        m = IntMatrix.from_rows(rows)
        assert m.entries == tuple(map(tuple, rows))
        assert (m.rows, m.cols) == (len(rows), len(rows[0]))
        assert all(0 not in col.values() for col in m.columns)
        assert [m.column(j) for j in range(m.cols)] == [tuple(c) for c in zip(*rows)]

    @given(matrices_up_to_5, st.data())
    @settings(max_examples=200, deadline=None)
    def test_mul_and_apply_match_dense_products(self, rows, data):
        m = IntMatrix.from_rows(rows)
        other = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                                   min_size=m.cols, max_size=m.cols))
        assert m.mul(IntMatrix.from_rows(other)).entries == dense_product(rows, other)
        vec = [row[0] for row in other]
        assert m.apply(vec) == tuple(row[0] for row in dense_product(rows, other))

    def test_a_product_that_cancels_is_the_zero_matrix(self):
        a = IntMatrix.from_rows([[1, 1], [2, 2], [-3, -3]])
        b = IntMatrix.from_rows([[1, -2, 0], [-1, 2, 0]])
        product = a.mul(b)
        assert not any(product.columns)
        assert product == IntMatrix.zero(3, 3)
        assert hash(product) == hash(IntMatrix.zero(3, 3))
        assert product.entries == ((0, 0, 0),) * 3

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_shape_mismatches_are_refused(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2).mul(IntMatrix.identity(3))
        with pytest.raises(ValueError):
            IntMatrix.identity(2).apply((1, 2, 3))


class TestSmith:
    def test_worked_example(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.d.diagonal_entries() == [2, 4]

    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.d.entries == IntMatrix.identity(3).entries

    def test_zero_one_by_one(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert snf.d.entries == ((0,),)

    @given(small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_decomposition_properties(self, rows):
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        assert snf.u.mul(m).mul(snf.v).entries == snf.d.entries
        assert abs(det(snf.u)) == 1
        assert abs(det(snf.v)) == 1
        diag = snf.d.diagonal_entries()
        for i in range(m.rows):
            for j in range(m.cols):
                if i != j:
                    assert snf.d.entries[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_square_determinant_is_preserved(self, rows):
        m = IntMatrix.from_rows(rows)
        if m.rows != m.cols:
            return
        snf = smith_normal_form(m)
        assert abs(det(m)) == prod(snf.d.diagonal_entries())


class TestLatticeHelpers:
    def test_kernel_basis(self):
        m = IntMatrix.from_rows([[1, 2, 3]])
        k = kernel_basis(m)
        assert k.cols == 2
        for j in range(k.cols):
            assert m.apply(k.column(j)) == (0,)

    def test_cokernel(self):
        free, torsion = cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert free == 0 and torsion == [6]
        free, torsion = cokernel_invariants(IntMatrix.from_rows([[2], [0]]))
        assert free == 1 and torsion == [2]

    def test_image_lattice(self):
        m = IntMatrix.from_rows([[2, 4], [0, 0]])
        basis = image_lattice_basis(m)
        assert basis.cols == 1
        col = basis.column(0)
        assert col[1] == 0 and abs(col[0]) == 2

    def test_solve(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        x = solve_integral(m, (4, -9))
        assert m.apply(x) == (4, -9)
        with pytest.raises(NoIntegralSolution):
            solve_integral(m, (1, 0))

    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_solve_finds_solutions_for_reachable_targets(self, rows, coeffs):
        m = IntMatrix.from_rows(rows)
        coeffs = (coeffs * m.cols)[:m.cols]
        b = m.apply(coeffs)
        x = solve_integral(m, b)
        assert m.apply(x) == b

    def test_the_smith_form_runs_without_the_elimination_core(self, monkeypatch):
        # the Smith form is the reference that the elimination core is
        # checked against, so neither it nor a helper read off it runs the core
        def refuse(*args, **kwargs):
            raise AssertionError("the elimination core ran")

        monkeypatch.setattr(matrices, "_eliminate", refuse)
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        snf = smith_normal_form(m)
        assert snf.d.diagonal_entries() == [2, 6, 12]
        assert snf.u.mul(m).mul(snf.v) == snf.d
        k = kernel_basis(IntMatrix.from_rows([[1, 2, 3]]))
        assert k.cols == 2 and not any(IntMatrix.from_rows([[1, 2, 3]]).mul(k).columns)
        assert image_lattice_basis(m).cols == 3
        assert m.apply(solve_integral(m, (4, 6, -4))) == (4, 6, -4)
        with pytest.raises(AssertionError, match="core ran"):
            cokernel_invariants(m)

    def test_huge_entries_are_exact(self):
        p37 = 5**37
        snf = smith_normal_form(IntMatrix.from_rows([[p37, 0], [0, 5]]))
        assert snf.d.diagonal_entries() == [5, p37]

    def test_larger_random_stress(self):
        import random

        rng = random.Random(2024)
        for _ in range(20):
            r = rng.randint(1, 7)
            c = rng.randint(1, 7)
            m = IntMatrix.from_rows(
                [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)])
            snf = smith_normal_form(m)
            assert snf.u.mul(m).mul(snf.v).entries == snf.d.entries
            assert abs(det(snf.u)) == 1
            assert abs(det(snf.v)) == 1
            diag = snf.d.diagonal_entries()
            nonzero = [d for d in diag if d]
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
            # zeros trail: after the first zero, everything is zero
            if 0 in diag:
                assert all(d == 0 for d in diag[diag.index(0):])
            # kernel columns really lie in the kernel
            k = kernel_basis(m)
            for j in range(k.cols):
                assert m.apply(k.column(j)) == (0,) * r


def laplace_det(rows) -> int:
    """Determinant by cofactor expansion along the first row: no pivots,
    no division, nothing shared with elimination."""
    if not rows:
        return 1
    return sum((-1) ** j * x * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def determinantal_divisors(rows) -> list[int]:
    """D_k = gcd of all k x k minors, for k = 1 .. min(rows, cols)."""
    r, c = len(rows), len(rows[0])
    return [gcd(*(laplace_det([[rows[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(r), k) for cs in combinations(range(c), k)))
            for k in range(1, min(r, c) + 1)]


@st.composite
def cone_blocks(draw):
    """Row grids of up to 6 x 6 shaped like the oracle's cone blocks: a
    cycle of unit columns e_i + s_i e_(i+1) on the first L rows (so long
    runs of unit pivots, whose signs decide whether the cycle closes up to
    a 2), relation columns o e_i, and rows and columns shuffled."""
    r = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=0, max_value=r))
    columns = [{i: 1} for i in range(length)]
    for i, col in enumerate(columns):
        j = (i + 1) % length
        col[j] = col.get(j, 0) + draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(min_value=0, max_value=6 - length))):
        columns.append({draw(st.integers(min_value=0, max_value=r - 1)):
                        draw(st.sampled_from((2, 3, 4, 6)))})
    if not columns:
        columns.append({})
    rows = draw(st.permutations(range(r)))
    columns = draw(st.permutations(columns))
    return [[col.get(i, 0) for col in columns] for i in rows]


class TestAgainstDeterminantalDivisors:
    """The invariant factors satisfy d_1 ... d_k = D_k, the gcd of the k x k
    minors (Newman, Integral Matrices, 1972), so rank and factors are
    checked against a characterisation that uses no elimination."""

    @staticmethod
    def _check(rows):
        m = IntMatrix.from_rows(rows)
        divisors = determinantal_divisors(rows)
        r = sum(1 for d in divisors if d)
        snf_factors = smith_normal_form(m).invariant_factors()
        free, torsion = cokernel_invariants(m)
        assert m.rows - free == r  # the rank
        coker_factors = [1] * (r - len(torsion)) + torsion
        for factors in (snf_factors, coker_factors):
            assert len(factors) == r
            for k in range(1, r + 1):
                assert prod(factors[:k]) == divisors[k - 1], (k, factors, divisors)
        k = kernel_basis(m)
        assert k.cols == m.cols - r
        assert not any(m.mul(k).columns)
        # saturated: Z^cols / (kernel lattice) has no torsion
        assert cokernel_invariants(k) == (m.cols - k.cols, [])

    @given(matrices_up_to_5)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_invariant_factors_rank_and_kernel(self, rows):
        self._check(rows)

    @given(cone_blocks())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_sparse_unit_heavy_blocks(self, rows):
        self._check(rows)
        # long runs of unit pivots: the Smith form's transforms stay
        # unimodular and still diagonalize m
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        assert snf.u.mul(m).mul(snf.v) == snf.d
        assert abs(det(snf.u)) == 1 and abs(det(snf.v)) == 1
        assert all(set(col) <= {j} for j, col in enumerate(snf.d.columns))
