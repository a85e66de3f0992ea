"""Exact integer matrices and Smith normal form.

All entries are Python ints, so torsion coefficients like p**37 cost
nothing but digits.  ``IntMatrix`` is the one matrix type: it keeps its
columns as sparse dicts, the form in which callers build it and in which
elimination reads it, and a dense grid only on request.  One
sparse elimination core (``_eliminate``) serves the kernel, cokernel and
Smith routines, and generic homology: it row-reduces a list of sparse
rows, optionally mirroring its operations on transform rows.  The kernel
of m is read off the left transform of m's transpose, whose rows are m's
columns; the cokernel tracks no transform, and the Smith routine tracks
both sides.
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
                _subtract(acc, self.columns[k], -y)
            out.append(acc)
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


def _transpose(vectors, n: int) -> list[dict[int, int]]:
    """The n sparse vectors whose entry j is entry i of vectors[j]: a
    matrix's rows from its columns, or back."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


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


def _nearest_quotient(x: int, a: int) -> int:
    """q with |x - q*a| <= |a|/2, so Euclid's steps shrink fast."""
    q, r = divmod(x, a)
    return q + 1 if 2 * abs(r) > abs(a) else q


def _subtract(dst: dict, src: dict, q: int) -> None:
    """dst -= q * src on sparse vectors, dropping entries that cancel."""
    if not q:
        return
    for c, v in src.items():
        x = dst.get(c, 0) - q * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def _eliminate(rows: list[dict], left: list[dict] | None = None,
               right: list[dict] | None = None,
               split: bool = False) -> list[tuple[int, int]]:
    """Reduce ``rows`` in place by unimodular row operations and return
    the pivots (row, column) in the order they were fixed.  Each row is a
    dict from column to nonzero entry; rows that are not pivot rows end
    empty.  Every row operation is repeated on ``left`` when given.

    Pivot order: the next pivot row is a shortest row among those holding
    an entry of least absolute value (a unit whenever one is left), and
    its pivot is such an entry in the column with fewest entries, so it
    has the least Markowitz cost (r - 1)(c - 1) in its row.  Rows wait in
    a heap keyed by (least absolute entry, length), and a column -> rows
    index follows every fill-in and cancellation, so no step rescans the
    matrix.  A unit pivot clears its column in one pass, with quotients
    x * a for a = +-1; a pivot that does not divide its column is replaced
    by the least remainder, as in Euclid's algorithm, until the column is
    clear.

    Without ``split`` the result is an echelon form: a pivot's column is
    empty in every row fixed after it, so the pivot rows are independent.
    With ``split`` each pivot row is also cleared by column operations,
    repeated on the rows of ``right`` (the transpose of the right
    transform).  Those touch the pivot row alone, because its column has
    just been cleared; a unit pivot clears the row at once, and a
    remainder that a larger pivot does not divide becomes the next pivot
    of the same row.  Every pivot row then ends holding its pivot alone,
    so the matrix is diagonal up to the order of rows and columns.
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
        if left is not None:
            _subtract(left[k], left[i], q)
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
            if not split or len(row) == 1:
                break
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
                    if right is not None:
                        _subtract(right[c], right[j], q)
            if len(row) == 1:
                break
            j = min((c for c in row if c != j), key=lambda c: abs(row[c]))
        for c in row:
            where[c].discard(i)
        del where[j]
        key[i] = None
        pivots.append((i, j))
    return pivots


def _divisibility_chain(diag: list[int], mix=None) -> list[int]:
    """Make positive diagonal entries a chain d_1 | d_2 | ... in place by
    replacing pairs (a, b) with (gcd, lcm); ``mix(s, t, a, b)`` is told of
    each replacement so a caller can follow it in its transforms."""
    if all(b % a == 0 for a, b in zip(diag, diag[1:])):
        return diag
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            a, b = diag[s], diag[t]
            if b % a:
                if mix is not None:
                    mix(s, t, a, b)
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

    The split elimination leaves one pivot per nonzero row; moving those
    rows and columns to the front in order of size and mixing pairs that
    break the divisibility chain finishes D.

    >>> d = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).d
    >>> d.diagonal_entries()
    [2, 4]
    """
    r, c = m.rows, m.cols
    rows = _transpose(m.columns, r)
    u = [{i: 1} for i in range(r)]
    vt = [{j: 1} for j in range(c)]  # the rows of V transposed
    pivots = sorted(_eliminate(rows, u, vt, split=True),
                    key=lambda p: abs(rows[p[0]][p[1]]))
    pivot_rows = {i for i, _ in pivots}
    pivot_cols = {j for _, j in pivots}
    u = [u[i] for i, _ in pivots] + [u[i] for i in range(r) if i not in pivot_rows]
    vt = [vt[j] for _, j in pivots] + [vt[j] for j in range(c) if j not in pivot_cols]
    diag = []
    for t, (i, j) in enumerate(pivots):
        d = rows[i][j]
        if d < 0:
            u[t] = {k: -x for k, x in u[t].items()}
        diag.append(abs(d))

    def mix(s, t, a, b):
        # diag(a, b) -> diag(g, lcm): col s += col t, a unimodular mix of
        # rows s and t, then col t -= (y b / g) col s
        g, x, y = _xgcd(a, b)
        _subtract(vt[s], vt[t], -1)
        us, ut = u[s], u[t]
        u[s] = _combination(us, x, ut, y)
        u[t] = _combination(us, -(b // g), ut, a // g)
        _subtract(vt[t], vt[s], y * b // g)

    _divisibility_chain(diag, mix)
    d = tuple([{t: x} for t, x in enumerate(diag)] + [{}] * (c - len(diag)))
    return SmithDecomposition(IntMatrix(r, d), IntMatrix(r, tuple(_transpose(u, r))),
                              IntMatrix(c, tuple(vt)))


def _combination(p: dict, x: int, q: dict, y: int) -> dict:
    """x * p + y * q on sparse vectors."""
    out = {k: x * v for k, v in p.items()} if x else {}
    _subtract(out, q, -y)
    return out


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of m.

    The rows of m's transpose are brought to echelon form; a unimodular
    left transform T has T m^T = E, and the rows of T whose rows of E
    ended zero span exactly the vectors x with m x = 0.
    """
    rows = [dict(col) for col in m.columns]
    left = [{t: 1} for t in range(len(rows))]
    fixed = {i for i, _ in _eliminate(rows, left)}
    return IntMatrix(len(rows), tuple([left[t] for t in range(len(rows)) if t not in fixed]))


def cokernel_invariants(m: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, invariant factors >= 2) of Z^rows / im(m)."""
    rows = [dict(col) for col in m.columns]  # m^T: same invariants
    diag = [abs(rows[i][j]) for i, j in _eliminate(rows, split=True)]
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
