"""Weight-split cyclic homology of square-zero extensions, three ways.

For a graded module M over the integers, the Hochschild-style homology of
the square-zero ring Z (+) M splits by weight (the number of M-tensor
factors).  The weight-n piece is a two-term complex

    M^(x)n  --(1 - tau_n)-->  M^(x)n

sitting in simplicial levels n and n-1, where tau_n rotates the tensor
factors and carries the sign

    (simplicial cyclic sign (-1)^(n-1)) * (Koszul sign of the rotation).

Since tau_n permutes the tensor basis up to sign, the complex splits into
one block per rotation orbit, of length L dividing n.  Three routes compute
its homology, each from its own source:

* the weight route reads each orbit's groups off a closed form in the
  orbit's total sign tau_n^L = +-1 and its order (``weight_homology_fg``);
* the cell route takes an equivariant cell model of the weight-n attaching
  space (a simplex cross a circle, boundary collapsed) tensored over the
  cyclic group, whose sign comes from the cell orientations, builds each
  orbit's sparse L x L block and runs generic homology on it
  (``cell_weight_homology_fg``);
* the oracle is a brute-force normalized Hochschild complex built purely
  from the simplicial face maps of the ring, with dense matrices and a
  generic Smith normal form (``NormalizedHochschild``).

All three must compute the same homology; the test suite enforces this on
a fixture zoo and on generated modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abgroups import (
    FGAbGroup,
    GradedGroup,
    GroupExpr,
    StructuralError,
    graded_from_fg,
    homology_with_orders,
)
from .matrices import IntMatrix


class UnsupportedModule(Exception):
    """The requested assembly needs module shapes this engine refuses."""


@dataclass(frozen=True)
class GradedModule:
    """Finitely generated graded abelian group, flattened to a tuple of
    (degree, order) generators with order 0 meaning an infinite cyclic
    summand."""

    generators: tuple[tuple[int, int], ...]

    @classmethod
    def from_groups(cls, groups: dict[int, FGAbGroup]) -> "GradedModule":
        gens = []
        for degree in sorted(groups):
            g = groups[degree]
            gens.extend((degree, 0) for _ in range(g.free_rank))
            gens.extend((degree, d) for d in g.torsion)
        return cls(tuple(gens))

    @classmethod
    def single(cls, degree: int = 0, order: int = 0) -> "GradedModule":
        """One cyclic summand Z/order (Z when order = 0) in the given degree."""
        return cls(((degree, order),))

    @classmethod
    def zero(cls) -> "GradedModule":
        return cls(())

    def is_zero(self) -> bool:
        return not self.generators

    def degrees(self) -> list[int]:
        return sorted({d for d, _ in self.generators})

    def group_at(self, degree: int) -> FGAbGroup:
        return FGAbGroup.from_orders(
            [o for d, o in self.generators if d == degree])

    def __str__(self):
        if not self.generators:
            return "0"
        return " + ".join(
            (f"Z[{d}]" if o == 0 else f"Z/{o}[{d}]") for d, o in self.generators)


# ---------------------------------------------------------------------------
# tensor powers and the cyclic rotation


def _tensor_basis(m: GradedModule, n: int) -> list[tuple[int, ...]]:
    """Basis tuples of generator indices for M^(x)n, in lexicographic order."""
    g = len(m.generators)
    basis: list[tuple[int, ...]] = [()]
    for _ in range(n):
        basis = [t + (i,) for t in basis for i in range(g)]
    return basis


def _tensor_order(m: GradedModule, t: tuple[int, ...]) -> int:
    o = 0
    for i in t:
        o = gcd(o, m.generators[i][1])
    return o


def _tensor_degree(m: GradedModule, t: tuple[int, ...]) -> int:
    return sum(m.generators[i][0] for i in t)


def signed_rotation(n: int, m: GradedModule) -> tuple[list[int], list[int]]:
    """The Koszul-signed cyclic rotation of M^(x)n as a signed permutation
    of the lexicographic basis: basis element j goes to ``sign[j]`` times
    basis element ``target[j]``.  The last tensor factor moves to the front
    and passes the others, so the sign is -1 exactly when the moved factor
    and the rest both have odd degree.

    >>> signed_rotation(2, GradedModule(((0, 0), (1, 0))))
    ([0, 2, 1, 3], [1, 1, 1, -1])
    """
    g = len(m.generators)
    front = g ** (n - 1)
    target, sign = [], []
    for j, t in enumerate(_tensor_basis(m, n)):
        last = j % g
        target.append(last * front + j // g)
        deg_last = m.generators[last][0]
        deg_rest = _tensor_degree(m, t) - deg_last
        sign.append(-1 if (deg_last % 2) and (deg_rest % 2) else 1)
    return target, sign


def rotation_orbits(n: int, m: GradedModule,
                    ) -> list[tuple[list[int], list[int], int, int]]:
    """The orbits of the rotation on the tensor basis of M^(x)n.  Each is
    (basis indices from the least, in the order the rotation visits them;
    their Koszul signs; internal degree; order).  The elements of an orbit
    share degree and order, since they permute the same factors."""
    target, sign = signed_rotation(n, m)
    seen = [False] * len(target)
    orbits = []
    for start, t in enumerate(_tensor_basis(m, n)):
        if seen[start]:
            continue
        orbit, j = [], start
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = target[j]
        orbits.append((orbit, [sign[j] for j in orbit],
                       _tensor_degree(m, t), _tensor_order(m, t)))
    return orbits


def rotation_matrix(n: int, m: GradedModule, include_simplicial_sign: bool) -> IntMatrix:
    """Dense matrix of the cyclic rotation on M^(x)n: the last tensor factor
    moves to the front with its Koszul sign, optionally multiplied by the
    simplicial sign (-1)^(n-1)."""
    target, sign = signed_rotation(n, m)
    size = len(target)
    simplicial = -1 if (include_simplicial_sign and n % 2 == 0) else 1
    rows = [[0] * size for _ in range(size)]
    for j, (i, s) in enumerate(zip(target, sign)):
        rows[i][j] = simplicial * s
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class WeightComplex:
    """The two-term weight-n complex: M^(x)n in simplicial levels n and n-1
    with differential 1 - tau_n.  Total degree = internal degree + level."""

    weight: int
    module: GradedModule
    basis: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    internal_degrees: tuple[int, ...]
    differential: IntMatrix

    @property
    def level_top(self) -> int:
        return self.weight

    @property
    def level_bottom(self) -> int:
        return self.weight - 1


def weight_complex(n: int, m: GradedModule) -> WeightComplex:
    """Build the weight-n two-term complex for the square-zero module m,
    with a dense differential.

    >>> wc = weight_complex(2, GradedModule.single(0, 0))
    >>> wc.differential.entries
    ((2,),)
    """
    if n < 1:
        raise ValueError("weight must be at least 1")
    basis = _tensor_basis(m, n)
    tau = rotation_matrix(n, m, include_simplicial_sign=True)
    size = len(basis)
    diff = IntMatrix.from_rows([
        [(1 if i == j else 0) - tau.entries[i][j] for j in range(size)]
        for i in range(size)])
    return WeightComplex(
        weight=n,
        module=m,
        basis=tuple(basis),
        orders=tuple(_tensor_order(m, t) for t in basis),
        internal_degrees=tuple(_tensor_degree(m, t) for t in basis),
        differential=diff,
    )


def _collect(n: int, parts) -> dict[int, FGAbGroup]:
    """Sum (internal degree, top orders, bottom orders) parts into groups
    keyed by total degree: the top level n, the bottom level n - 1."""
    orders: dict[int, list[int]] = {}
    for d, top, bottom in parts:
        orders.setdefault(d + n, []).extend(top)
        orders.setdefault(d + n - 1, []).extend(bottom)
    groups = {t: FGAbGroup.from_orders(o) for t, o in orders.items()}
    return {t: g for t, g in groups.items() if not g.is_trivial()}


def weight_homology_fg(n: int, m: GradedModule) -> dict[int, FGAbGroup]:
    """Exact homology of the weight-n complex, keyed by total degree.

    On an orbit of length L with order o, tau_n^L is multiplication by
    eps = ((-1)^(n-1))^L * (product of the Koszul signs along the orbit),
    and 1 - tau_n on the orbit's L generators has kernel and cokernel:
    Z/o and Z/o when eps = +1; 0 and Z/2 when eps = -1 and o = 0; and
    Z/gcd(2, o) twice when eps = -1 and o != 0.
    """
    if n < 1:
        raise ValueError("weight must be at least 1")
    simplicial = -1 if n % 2 == 0 else 1
    parts = []
    for orbit, signs, d, o in rotation_orbits(n, m):
        eps = simplicial ** len(orbit)
        for s in signs:
            eps *= s
        if eps == 1:
            parts.append((d, [o], [o]))
        elif o == 0:
            parts.append((d, [], [2]))
        else:
            parts.append((d, [gcd(2, o)], [gcd(2, o)]))
    return _collect(n, parts)


def weight_homology(n: int, m: GradedModule) -> GradedGroup:
    """Homology of the weight-n piece as a graded group.

    >>> wh = weight_homology(2, GradedModule.single(0, 0))
    >>> str(wh.at(1)), str(wh.at(2))
    ('Z/2', '0')
    """
    return graded_from_fg(weight_homology_fg(n, m))


# ---------------------------------------------------------------------------
# brute-force normalized Hochschild oracle


@dataclass(frozen=True)
class _Chain:
    """A normalized chain (r0; m_1, ..., m_k): slot 0 is either the ring
    unit (None) or a module generator index, and the tail slots are module
    generator indices."""

    r0: int | None
    tail: tuple[int, ...]


class NormalizedHochschild:
    """The normalized Hochschild complex of the square-zero ring Z (+) M,
    built from the simplicial face maps, truncated at ``max_level``.

    Serves as the independent oracle for the weight complexes: the
    differential here is the full alternating face sum of the ring
    structure, with no cyclic-operator shortcut.
    """

    def __init__(self, m: GradedModule, max_level: int):
        self.module = m
        self.max_level = max_level
        g = len(m.generators)
        self.bases: list[list[_Chain]] = []
        for k in range(max_level + 1):
            tails: list[tuple[int, ...]] = [()]
            for _ in range(k):
                tails = [t + (i,) for t in tails for i in range(g)]
            level = [_Chain(None, t) for t in tails]
            level += [_Chain(r0, t) for r0 in range(g) for t in tails]
            self.bases.append(level)
        self._indexes = [
            {c: i for i, c in enumerate(level)} for level in self.bases]
        self.diffs: list[IntMatrix | None] = [None]
        for k in range(1, max_level + 1):
            self.diffs.append(self._differential(k))

    # chain bookkeeping -----------------------------------------------------

    def chain_weight(self, c: _Chain) -> int:
        return len(c.tail) + (0 if c.r0 is None else 1)

    def chain_degree(self, c: _Chain) -> int:
        gens = self.module.generators
        d = 0 if c.r0 is None else gens[c.r0][0]
        return d + sum(gens[i][0] for i in c.tail)

    def chain_order(self, c: _Chain) -> int:
        gens = self.module.generators
        o = 0 if c.r0 is None else gens[c.r0][1]
        for i in c.tail:
            o = gcd(o, gens[i][1])
        return o

    def total_degree(self, level: int, c: _Chain) -> int:
        return level + self.chain_degree(c)

    # the face-sum differential ----------------------------------------------

    def _differential(self, k: int) -> IntMatrix:
        gens = self.module.generators
        src = self.bases[k]
        dst_index = self._indexes[k - 1]
        rows = [[0] * len(src) for _ in range(len(self.bases[k - 1]))]
        for j, c in enumerate(src):
            # face 0 multiplies slots 0 and 1: unit * m_1 survives
            if c.r0 is None:
                image = _Chain(c.tail[0], c.tail[1:])
                rows[dst_index[image]][j] += 1
            # faces 1..k-1 multiply adjacent module slots: always zero
            # face k rotates the last slot to the front, then multiplies
            last = c.tail[-1]
            if c.r0 is None:
                deg_last = gens[last][0]
                deg_front = sum(gens[i][0] for i in c.tail[:-1])
                koszul = -1 if (deg_last % 2) and (deg_front % 2) else 1
                sign = (1 if k % 2 == 0 else -1) * koszul
                image = _Chain(last, c.tail[:-1])
                rows[dst_index[image]][j] += sign
        return IntMatrix.from_rows(rows)

    # homology ----------------------------------------------------------------

    def _selected(self, level: int, total_degree: int, weight: int | None):
        return [i for i, c in enumerate(self.bases[level])
                if self.total_degree(level, c) == total_degree
                and (weight is None or self.chain_weight(c) == weight)]

    def homology(self, total_degree: int, weight: int | None = None) -> FGAbGroup:
        """Homology of the truncated complex at a total degree, optionally
        restricted to one weight.

        Unrestricted queries require every module degree to be nonnegative
        and enough levels (max_level >= total_degree + 1) to be exact;
        weight-restricted queries only need max_level >= weight.
        """
        if weight is None:
            if any(d < 0 for d, _ in self.module.generators):
                raise UnsupportedModule(
                    "unrestricted homology needs nonnegative module degrees; "
                    "use the weight-restricted oracle instead")
            if self.max_level < total_degree + 1:
                raise UnsupportedModule(
                    f"max_level {self.max_level} too small for degree {total_degree}")
        elif self.max_level < weight:
            raise UnsupportedModule(
                f"max_level {self.max_level} too small for weight {weight}")

        # assemble the three consecutive chain groups across levels
        here: list[tuple[int, int]] = []
        below: list[tuple[int, int]] = []
        above: list[tuple[int, int]] = []
        for k in range(self.max_level + 1):
            here += [(k, i) for i in self._selected(k, total_degree, weight)]
            below += [(k, i) for i in self._selected(k, total_degree - 1, weight)]
            above += [(k, i) for i in self._selected(k, total_degree + 1, weight)]

        def matrix_for(src, dst):
            dst_pos = {cell: r for r, cell in enumerate(dst)}
            rows = [[0] * len(src) for _ in range(len(dst))]
            for col, (k, i) in enumerate(src):
                if k == 0:
                    continue
                diff = self.diffs[k]
                for r in range(diff.rows):
                    x = diff.entries[r][i]
                    if x:
                        cell = (k - 1, r)
                        if cell in dst_pos:
                            rows[dst_pos[cell]][col] = x
            return IntMatrix.from_rows(rows) if dst else IntMatrix.zero(0, len(src))

        d_out = matrix_for(here, below)
        d_in = matrix_for(above, here)
        orders_here = [self.chain_order(self.bases[k][i]) for k, i in here]
        orders_below = [self.chain_order(self.bases[k][i]) for k, i in below]
        return homology_with_orders(d_out, d_in, orders_here, orders_below)


def brute_hochschild_weights(m: GradedModule, max_weight: int,
                             degree_lo: int, degree_hi: int,
                             ) -> dict[int, dict[int, FGAbGroup]]:
    """Weight-separated oracle homology: result[w][t] for weights
    1..max_weight and total degrees in the window."""
    oracle = NormalizedHochschild(m, max_level=max_weight)
    out: dict[int, dict[int, FGAbGroup]] = {}
    for w in range(1, max_weight + 1):
        row: dict[int, FGAbGroup] = {}
        for t in range(degree_lo, degree_hi + 1):
            h = oracle.homology(t, weight=w)
            if not h.is_trivial():
                row[t] = h
        out[w] = row
    return out


def brute_hochschild(m: GradedModule, degree_bound: int) -> GradedGroup:
    """Total oracle homology in degrees 0..degree_bound of Z (+) M for
    modules in nonnegative degrees (weight 0 contributes the unit Z in
    degree 0).  Modules with negative degrees need the weight-separated
    oracle; see ``brute_hochschild_weights``."""
    if m.is_zero():
        return graded_from_fg({0: FGAbGroup.free(1)},
                              known_range=(0, degree_bound))
    if any(d < 0 for d, _ in m.generators):
        raise UnsupportedModule(
            "total homology with negative-degree generators is not finitely "
            "assembled; use brute_hochschild_weights")
    oracle = NormalizedHochschild(m, max_level=degree_bound + 2)
    values = {}
    for t in range(0, degree_bound + 1):
        h = oracle.homology(t)
        if not h.is_trivial():
            values[t] = h
    return graded_from_fg(values, known_range=(0, degree_bound))


# ---------------------------------------------------------------------------
# the equivariant cell model


@dataclass(frozen=True)
class EquivariantCellComplex:
    """Free cell complex with a cyclic-group action by signed permutation
    matrices, one action matrix per dimension."""

    group_order: int
    cells: dict[int, int]
    boundaries: dict[int, IntMatrix]
    actions: dict[int, IntMatrix]
    orbit_reps: dict[int, tuple[int, ...]]

    def validate(self) -> None:
        for d, bnd in self.boundaries.items():
            if bnd.cols != self.cells.get(d, 0) or bnd.rows != self.cells.get(d - 1, 0):
                raise StructuralError(f"boundary at dimension {d} has wrong shape")
            upper = self.boundaries.get(d + 1)
            if upper is not None and not bnd.mul(upper).is_zero():
                raise StructuralError("boundaries do not square to zero")
            act_here = self.actions[d]
            act_below = self.actions[d - 1]
            if act_below.mul(bnd).entries != bnd.mul(act_here).entries:
                raise StructuralError(f"action does not commute with the boundary at {d}")
        for d, act in self.actions.items():
            power = IntMatrix.identity(self.cells[d])
            for _ in range(self.group_order):
                power = act.mul(power)
            if power.entries != IntMatrix.identity(self.cells[d]).entries:
                raise StructuralError(f"action power at dimension {d} is not the identity")


def lambda_cell_model(n: int) -> EquivariantCellComplex:
    """Cell model of the weight-n attaching space: the quotient of a
    simplex-cross-circle by its cyclic boundary.  Two free orbits of cells,
    in dimensions n-1 and n; the group generator advances each orbit by one
    step and carries the orientation sign of rotating the simplex vertices.

    >>> c = lambda_cell_model(2)
    >>> c.cells
    {1: 2, 2: 2}
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = 1 if n % 2 == 1 else -1
    action = IntMatrix.from_rows([
        [eps if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)])
    boundary = IntMatrix.from_rows([
        [eps * ((1 if i == (j + 1) % n else 0) - (1 if i == j else 0))
         for j in range(n)] for i in range(n)])
    return EquivariantCellComplex(
        group_order=n,
        cells={n - 1: n, n: n},
        boundaries={n: boundary},
        actions={n - 1: action, n: action},
        orbit_reps={n - 1: (0,), n: (0,)},
    )


def _decompose_in_orbit(column: tuple[int, ...], action: IntMatrix,
                        rep: int, group_order: int) -> list[int]:
    """Write a chain as sum_a c_a * (g^a . rep) over a free orbit."""
    n = len(column)
    coeffs = [0] * group_order
    vec = [1 if i == rep else 0 for i in range(n)]
    remaining = list(column)
    for a in range(group_order):
        idx = next(i for i, x in enumerate(vec) if x != 0)
        sign = vec[idx]
        c, r = divmod(remaining[idx], sign)
        if r:
            raise StructuralError("chain does not lie in the free orbit lattice")
        coeffs[a] = c
        remaining[idx] -= c * sign
        vec = list(action.apply(vec))
    if any(remaining):
        raise StructuralError("chain decomposition over the orbit failed")
    return coeffs


def cell_weight_homology_fg(n: int, m: GradedModule) -> dict[int, FGAbGroup]:
    """Homology of the cell model tensored over the cyclic group with
    M^(x)n, keyed by total degree.

    The module action of the group generator is the Koszul-signed rotation;
    the simplex-orientation sign lives in the cell action matrices, so this
    computation derives the weight-complex sign table from the cell data
    rather than postulating it.  The attaching boundary, written as
    sum_a c_a g^a over the free orbit, acts on M^(x)n as sum_a c_a rot^-a.
    That operator keeps each rotation orbit, so each orbit's L x L block
    goes through generic homology on its own.
    """
    cx = lambda_cell_model(n)
    coeffs = _decompose_in_orbit(cx.boundaries[n].column(cx.orbit_reps[n][0]),
                                 cx.actions[n - 1], cx.orbit_reps[n - 1][0], n)
    parts = []
    for orbit, signs, d, o in rotation_orbits(n, m):
        size = len(orbit)
        rows = [[0] * size for _ in range(size)]
        for col in range(size):
            # rot e_orbit[k] = signs[k] e_orbit[k+1], so rot^-1 steps back
            pos, sign = col, 1
            for c in coeffs:
                rows[pos][col] += c * sign
                pos = (pos - 1) % size
                sign *= signs[pos]
        block = IntMatrix.from_rows(rows)
        orders = [o] * size
        top = homology_with_orders(block, None, orders, orders)
        bottom = homology_with_orders(None, block, orders, [])
        parts.append((d, top.orders(), bottom.orders()))
    return _collect(n, parts)


# ---------------------------------------------------------------------------
# assembly over all weights


def thh_homology_square_zero(m: GradedModule, lo: int, hi: int) -> GradedGroup:
    """Homology of the full square-zero Hochschild object in the window
    [lo, hi]: the unit Z in degree 0 plus every contributing weight.

    Supported module shapes: all generator degrees >= 0, all degrees <= -2,
    or a single infinite cyclic generator in degree -1 (where every weight
    contributes the same two lines and the sum is a countable free atom per
    degree).  Anything else raises ``UnsupportedModule``.
    """
    values: dict[int, GroupExpr] = {}

    def add(degree: int, expr: GroupExpr):
        if lo <= degree <= hi and not expr.is_zero():
            values[degree] = values.get(degree, GroupExpr.zero()).plus(expr)

    add(0, GroupExpr.free(1))
    if m.is_zero():
        return GradedGroup.from_dict(values, known_range=(lo, hi))

    degs = [d for d, _ in m.generators]
    mn, mx = min(degs), max(degs)

    if mn >= 0:
        w = 1
        while w - 1 + w * mn <= hi:
            for t, g in weight_homology_fg(w, m).items():
                add(t, GroupExpr.from_fg(g))
            w += 1
    elif mx <= -2:
        w = 1
        while w * (1 + mx) >= lo:
            for t, g in weight_homology_fg(w, m).items():
                add(t, GroupExpr.from_fg(g))
            w += 1
    elif m.generators == ((-1, 0),):
        # every weight contributes the same pattern; check, then sum countably
        pattern = weight_homology_fg(1, m)
        for w in (2, 3, 4):
            if weight_homology_fg(w, m) != pattern:
                raise UnsupportedModule("weight pattern unexpectedly varies")
        for t, g in pattern.items():
            add(t, GroupExpr.from_fg(g).countable_sum())
    else:
        raise UnsupportedModule(
            "infinitely many weights contribute with varying values in the "
            "requested window")
    return GradedGroup.from_dict(values, known_range=(lo, hi))
