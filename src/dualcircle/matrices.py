"""Exact integer matrices, homology's elimination core and Smith normal form.

All entries are Python ints, so torsion coefficients like p**37 cost
nothing but digits.  ``IntMatrix`` is the one matrix type: it keeps its
columns as sparse dicts, the form in which callers build it and in which
elimination reads it, and a dense grid only on request.  One sparse
elimination core (``_eliminate``) serves cokernels and generic homology:
it diagonalizes a list of sparse rows and tracks no transform.  The Smith
form is a separate dense routine that tracks both transforms; no verb
runs it, and the kernel, image and solve helpers are read off it, so it
shares no step with the core it is checked against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .frozen import Frozen


class IntMatrix(Frozen):
    """A rows x len(columns) integer matrix kept by columns: ``columns[j]``
    maps the row of each nonzero entry of column j to that entry.

    Columns are the form elimination wants: the kernel of m is computed
    on the rows of m's transpose, and a block [A | B] is the concatenation
    of the column tuples.  A column never stores a zero, so two matrices
    are equal exactly when their fields are, and the dicts are never
    mutated.  The constructor trusts its input; ``from_rows`` checks it.
    """

    __slots__ = ("rows", "columns")

    def __init__(self, rows: int, columns: tuple[dict[int, int], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", columns)

    def __hash__(self):
        return hash((self.rows, tuple([frozenset(col.items()) for col in self.columns])))

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense grid, a tuple of row tuples."""
        return tuple([tuple([col.get(i, 0) for col in self.columns])
                      for i in range(self.rows)])

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        grid = [[int(x) for x in row] for row in rows]
        n_cols = len(grid[0]) if grid else 0
        columns: list[dict[int, int]] = [{} for _ in range(n_cols)]
        for i, row in enumerate(grid):
            if len(row) != n_cols:
                raise ValueError("rows of unequal length")
            for j, x in enumerate(row):
                if x:
                    columns[j][i] = x
        return cls(len(grid), tuple(columns))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, ({},) * cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, tuple([{j: 1} for j in range(n)]))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, y in col.items():
                for i, x in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: x for i, x in acc.items() if x})
        return IntMatrix(self.rows, tuple(out))

    def apply(self, vector) -> tuple[int, ...]:
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for y, col in zip(vec, self.columns):
            if y:
                for i, x in col.items():
                    out[i] += x * y
        return tuple(out)

    def column(self, j: int) -> tuple[int, ...]:
        col = self.columns[j]
        return tuple([col.get(i, 0) for i in range(self.rows)])

    def diagonal_entries(self) -> list[int]:
        return [self.columns[i].get(i, 0) for i in range(min(self.rows, self.cols))]

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _nearest_quotient(x: int, a: int) -> int:
    """q with |x - q*a| <= |a|/2, so Euclid's steps shrink fast."""
    q, r = divmod(x, a)
    return q + 1 if 2 * abs(r) > abs(a) else q


def _eliminate(rows: list[dict]) -> list[tuple[int, int]]:
    """Diagonalize ``rows`` in place by unimodular row and column
    operations and return the pivots (row, column) in the order they were
    fixed.  Each row is a dict from column to nonzero entry; a pivot row
    ends holding its pivot alone and every other row ends empty, so the
    matrix is diagonal up to the order of rows and columns.

    Pivot order: the next pivot row is a shortest row among those holding
    an entry of least absolute value (a unit whenever one is left), and
    its pivot is such an entry in the column with fewest entries, so it
    has the least Markowitz cost (r - 1)(c - 1) in its row.  Rows wait in
    a heap keyed by (least absolute entry, length), and a column -> rows
    index follows every fill-in and cancellation, so no step rescans the
    matrix.  A unit pivot clears its column in one pass, with quotients
    x * a for a = +-1; a pivot that does not divide its column is replaced
    by the least remainder, as in Euclid's algorithm, until the column is
    clear.  Column operations then clear the pivot row.  They touch that
    row alone, because its column has just been cleared; a unit pivot
    clears the row at once, and a remainder that a larger pivot does not
    divide becomes the next pivot of the same row.
    """
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c in where:
                where[c].add(i)
            else:
                where[c] = {i}
    key: list[tuple[int, int] | None] = [
        (min(map(abs, row.values())), len(row)) if row else None for row in rows]
    heap = [(k[0], k[1], i) for i, k in enumerate(key) if k is not None]
    heapify(heap)

    def reduce_row(k: int, i: int, q: int) -> None:
        """rows[k] -= q * rows[i], keeping the index and the heap current."""
        dst = rows[k]
        for c, v in rows[i].items():
            x = dst.get(c)
            if x is None:
                dst[c] = -q * v
                where[c].add(k)
            else:
                x -= q * v
                if x:
                    dst[c] = x
                else:
                    del dst[c]
                    where[c].discard(k)
        if dst:
            key[k] = new = (min(map(abs, dst.values())), len(dst))
            heappush(heap, (new[0], new[1], k))
        else:
            key[k] = None

    pivots = []
    while heap:
        least, length, i = heappop(heap)
        if key[i] != (least, length):
            continue  # a stale entry: the row changed or was fixed since
        row = rows[i]
        j, fewest = None, len(rows) + 1
        for c, v in row.items():
            if (v == least or v == -least) and len(where[c]) < fewest:
                j, fewest = c, len(where[c])
        while True:
            # clear column j with pivot (i, j), Euclid-style
            column = where[j]
            while len(column) > 1:
                a = row[j]
                unit = a == 1 or a == -1
                for k in [k for k in column if k != i]:
                    x = rows[k][j]
                    q = x * a if unit else _nearest_quotient(x, a)
                    if q:
                        reduce_row(k, i, q)
                if len(column) > 1:  # never after a unit pivot
                    i = min((k for k in column if k != i),
                            key=lambda k: (abs(rows[k][j]), len(rows[k])))
                    row = rows[i]
            if len(row) == 1:
                break
            # clear row i by column operations, Euclid-style
            a = row[j]
            unit = a == 1 or a == -1
            for c in [c for c in row if c != j]:
                q = row[c] * a if unit else _nearest_quotient(row[c], a)
                if q:
                    x = row[c] - q * a
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        where[c].discard(i)
            if len(row) == 1:
                break
            j = min((c for c in row if c != j), key=lambda c: abs(row[c]))
        for c in row:
            where[c].discard(i)
        del where[j]
        key[i] = None
        pivots.append((i, j))
    return pivots


def _divisibility_chain(diag: list[int]) -> list[int]:
    """Make positive diagonal entries a chain d_1 | d_2 | ... in place by
    replacing pairs (a, b) with (gcd, lcm)."""
    if all(b % a == 0 for a, b in zip(diag, diag[1:])):
        return diag
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            a, b = diag[s], diag[t]
            if b % a:
                g = gcd(a, b)
                diag[s], diag[t] = g, a // g * b
    return diag


class SmithDecomposition(Frozen):
    """U m V = D, as the fields d, u, v."""

    __slots__ = ("d", "u", "v")

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d.diagonal_entries() if x != 0)

    def invariant_factors(self) -> list[int]:
        return [x for x in self.d.diagonal_entries() if x != 0]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """U m V = D with U, V unimodular, D diagonal, nonnegative,
    and d_i | d_{i+1}.

    The textbook dense routine on row lists, sharing no step with
    ``_eliminate``.  For each t an entry of least absolute value of the
    block from (t, t) on moves to (t, t), and its row and column are
    reduced by it; a nonzero remainder is a smaller entry and becomes the
    next pivot.  Once both are clear, a pivot that does not divide an
    entry of the block below and to the right takes in that entry's row,
    and the reduction goes on.  Every row operation is repeated on U and
    every column operation on V.

    >>> d = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).d
    >>> d.diagonal_entries()
    [2, 4]
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == k) for k in range(r)] for i in range(r)]
    v = [[int(j == k) for k in range(c)] for j in range(c)]  # V itself, by rows

    def add_row(dst, src, q):  # row dst += q * row src, on m and U
        for grid in (a, u):
            grid[dst] = [x + q * y for x, y in zip(grid[dst], grid[src])]

    def add_column(dst, src, q):  # column dst += q * column src, on m and V
        for grid in (a, v):
            for row in grid:
                row[dst] += q * row[src]

    for t in range(min(r, c)):
        while True:
            least = min(((abs(a[i][j]), i, j) for i in range(t, r) for j in range(t, c)
                         if a[i][j]), default=None)
            if least is None:
                break  # the block is zero
            _, i, j = least
            for grid in (a, u):
                grid[t], grid[i] = grid[i], grid[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, r):
                add_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, c):
                add_column(j, t, -(a[t][j] // p))
            if any(a[i][t] for i in range(t + 1, r)) or any(a[t][t + 1:]):
                continue  # a remainder is left, and the next pass takes it as pivot
            miss = next((i for i in range(t + 1, r) if any(x % p for x in a[i][t + 1:])), None)
            if miss is None:
                break
            add_row(t, miss, 1)
        if a[t][t] < 0:
            for grid in (a, u):
                grid[t] = [-x for x in grid[t]]
    d = tuple([{t: a[t][t]} if t < r and a[t][t] else {} for t in range(c)])
    return SmithDecomposition(IntMatrix(r, d), IntMatrix.from_rows(u), IntMatrix.from_rows(v))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of m: the
    columns of V past the rank, which D sends to zero."""
    snf = smith_normal_form(m)
    return IntMatrix(m.cols, snf.v.columns[snf.rank:])


def cokernel_invariants(m: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, invariant factors >= 2) of Z^rows / im(m)."""
    rows = [dict(col) for col in m.columns]  # m^T: same invariants
    diag = [abs(rows[i][j]) for i, j in _eliminate(rows)]
    chain = _divisibility_chain(sorted(d for d in diag if d != 1))
    return m.rows - len(diag), [d for d in chain if d != 1]


def image_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the column lattice of m (image of Z^cols):
    the first rank columns of m V, which equal those of U^-1 D."""
    snf = smith_normal_form(m)
    return IntMatrix(m.rows, m.mul(snf.v).columns[:snf.rank])


class NoIntegralSolution(Exception):
    pass


def solve_integral(m: IntMatrix, b, snf: SmithDecomposition | None = None) -> tuple[int, ...]:
    """Some x with m @ x = b, or raise NoIntegralSolution: D y = U b is
    solved entry by entry, and x = V y."""
    if snf is None:
        snf = smith_normal_form(m)
    ub = snf.u.apply(b)
    diag = snf.d.diagonal_entries() + [0] * (m.rows - m.cols)  # one entry per row
    for i, (x, d) in enumerate(zip(ub, diag)):
        if x % d if d else x:
            raise NoIntegralSolution(f"entry {i} of U b is {x}, not a multiple of {d}")
    y = [x // d if d else 0 for x, d in zip(ub, diag)]
    return snf.v.apply(y[:m.cols] + [0] * (m.cols - m.rows))
