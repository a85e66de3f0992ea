"""Exact integer matrices and Smith normal form.

All entries are Python ints, so torsion coefficients like p**37 cost
nothing but digits.  The Smith routine tracks the unimodular change of
basis on both sides, which is what the kernel, cokernel, image-lattice and
integral-solve helpers below need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count does not match entry grid")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        grid = tuple(tuple(int(x) for x in row) for row in rows)
        n_rows = len(grid)
        n_cols = len(grid[0]) if grid else 0
        return cls(n_rows, n_cols, grid)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None) -> "IntMatrix":
        diag = list(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        return cls(rows, cols, tuple(
            tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
            for i in range(rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        grid = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries)
        if not grid:
            grid = ()
        return IntMatrix(self.rows, other.cols, grid if self.rows else ())

    def apply(self, vector) -> tuple[int, ...]:
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)

    def diagonal_entries(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


class _Worker:
    """Mutable scratch state for the Smith reduction.

    Maintains A = U M V with U, V unimodular by mirroring every elementary
    operation.
    """

    def __init__(self, m: IntMatrix):
        self.r = m.rows
        self.c = m.cols
        self.a = [list(row) for row in m.entries]
        self.u = [[1 if i == j else 0 for j in range(self.r)] for i in range(self.r)]
        self.v = [[1 if i == j else 0 for j in range(self.c)] for i in range(self.c)]

    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def add_row(self, dst, src, q):
        """row_dst += q * row_src"""
        if q == 0:
            return
        self.a[dst] = [x + q * y for x, y in zip(self.a[dst], self.a[src])]
        self.u[dst] = [x + q * y for x, y in zip(self.u[dst], self.u[src])]

    def add_col(self, dst, src, q):
        """col_dst += q * col_src"""
        if q == 0:
            return
        for row in self.a:
            row[dst] += q * row[src]
        for row in self.v:
            row[dst] += q * row[src]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]

    def combine_rows(self, i, j, x, y, s, t):
        """(row_i, row_j) <- (x*row_i + y*row_j, s*row_i + t*row_j), det must be +-1."""
        ai, aj = self.a[i], self.a[j]
        self.a[i] = [x * p + y * q for p, q in zip(ai, aj)]
        self.a[j] = [s * p + t * q for p, q in zip(ai, aj)]
        ui, uj = self.u[i], self.u[j]
        self.u[i] = [x * p + y * q for p, q in zip(ui, uj)]
        self.u[j] = [s * p + t * q for p, q in zip(ui, uj)]

    def combine_cols(self, i, j, x, y, s, t):
        """(col_i, col_j) <- (x*col_i + y*col_j, s*col_i + t*col_j), det +-1."""
        for row in self.a:
            p, q = row[i], row[j]
            row[i] = x * p + y * q
            row[j] = s * p + t * q
        for row in self.v:
            p, q = row[i], row[j]
            row[i] = x * p + y * q
            row[j] = s * p + t * q


@dataclass(frozen=True)
class SmithDecomposition:
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d.diagonal_entries() if x != 0)

    def invariant_factors(self) -> list[int]:
        return [x for x in self.d.diagonal_entries() if x != 0]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """U m V = D with U, V unimodular, D diagonal, nonnegative,
    and d_i | d_{i+1}.

    >>> d = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).d
    >>> d.diagonal_entries()
    [2, 4]
    """
    w = _Worker(m)
    r, c = w.r, w.c

    def find_pivot(t):
        best = None
        for i in range(t, r):
            row = w.a[i]
            for j in range(t, c):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        return best
        return best

    t = 0
    while True:
        piv = find_pivot(t)
        if piv is None:
            break
        _, pi, pj = piv
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        # clear row and column t; gcd steps may refill, so loop
        while True:
            a_tt = w.a[t][t]
            dirty = False
            for i in range(t + 1, r):
                x = w.a[i][t]
                if x == 0:
                    continue
                if x % a_tt == 0:
                    w.add_row(i, t, -(x // a_tt))
                else:
                    g, alpha, beta = _xgcd(a_tt, x)
                    w.combine_rows(t, i, alpha, beta, -(x // g), a_tt // g)
                    dirty = True
                a_tt = w.a[t][t]
            for j in range(t + 1, c):
                x = w.a[t][j]
                if x == 0:
                    continue
                if x % a_tt == 0:
                    w.add_col(j, t, -(x // a_tt))
                else:
                    g, alpha, beta = _xgcd(a_tt, x)
                    w.combine_cols(t, j, alpha, beta, -(x // g), a_tt // g)
                    dirty = True
                a_tt = w.a[t][t]
            if not dirty and all(w.a[i][t] == 0 for i in range(t + 1, r)):
                break
        if w.a[t][t] < 0:
            w.negate_row(t)
        t += 1
        if t >= min(r, c):
            break

    # enforce the divisibility chain d_i | d_{i+1}
    k = min(r, c)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = w.a[i][i], w.a[i + 1][i + 1]
            if a != 0 and b % a != 0:
                changed = True
                # diag(a, b) ~ diag(gcd, lcm) via one column mix and a re-clear
                w.add_col(i, i + 1, 1)
                g, alpha, beta = _xgcd(a, b)
                w.combine_rows(i, i + 1, alpha, beta, -(b // g), a // g)
                # now row i+1 and column i need cleaning in the 2x2 block
                x = w.a[i + 1][i]
                if x != 0:
                    w.add_row(i + 1, i, -(x // w.a[i][i]))
                x = w.a[i][i + 1]
                if x != 0:
                    w.add_col(i + 1, i, -(x // w.a[i][i]))
                if w.a[i][i] < 0:
                    w.negate_row(i)
                if w.a[i + 1][i + 1] < 0:
                    w.negate_row(i + 1)

    # the entries are ints already, so skip from_rows' per-entry int()
    return SmithDecomposition(
        d=IntMatrix(r, c, tuple(map(tuple, w.a))),
        u=IntMatrix(r, r, tuple(map(tuple, w.u))),
        v=IntMatrix(c, c, tuple(map(tuple, w.v))),
    )


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of m."""
    snf = smith_normal_form(m)
    rank = snf.rank
    return IntMatrix(m.cols, m.cols - rank, tuple(row[rank:] for row in snf.v.entries))


def cokernel_invariants(m: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, invariant factors >= 2) of Z^rows / im(m)."""
    snf = smith_normal_form(m)
    torsion = [d for d in snf.invariant_factors() if d >= 2]
    return m.rows - snf.rank, torsion


def image_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the column lattice of m (image of Z^cols):
    the first rank columns of m V, which equal those of U^-1 D."""
    snf = smith_normal_form(m)
    rank = snf.rank
    return IntMatrix(m.rows, rank, tuple(row[:rank] for row in m.mul(snf.v).entries))


class NoIntegralSolution(Exception):
    pass


def solve_integral(m: IntMatrix, b, snf: SmithDecomposition | None = None) -> tuple[int, ...]:
    """Some x with m @ x = b, or raise NoIntegralSolution."""
    if snf is None:
        snf = smith_normal_form(m)
    y = snf.u.apply(b)
    diag = snf.d.diagonal_entries()
    x_prime = [0] * m.cols
    for i, yi in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if yi != 0:
                raise NoIntegralSolution(f"inconsistent at row {i}")
        else:
            if yi % d != 0:
                raise NoIntegralSolution(f"non-divisible at row {i}")
            if i < m.cols:
                x_prime[i] = yi // d
    return snf.v.apply(x_prime)
