"""Weight-split cyclic homology of square-zero extensions, three ways.

For a graded module M over the integers, the Hochschild-style homology of
the square-zero ring Z (+) M splits by weight (the number of M-tensor
factors).  The weight-n piece is a two-term complex

    M^(x)n  --(1 - tau_n)-->  M^(x)n

sitting in simplicial levels n and n-1, where tau_n rotates the tensor
factors and carries the sign

    (simplicial cyclic sign (-1)^(n-1)) * (Koszul sign of the rotation).

Since tau_n permutes the tensor basis up to sign, the complex splits into
one block per rotation orbit, of length L dividing n.  ``rotation_orbits``
lists the orbits in one pass, reading each basis element's degree, order
and Koszul sign off degrees and orders built factor by factor.  Three
routes compute its homology, each from its own source:

* the weight route reads each orbit's groups off a closed form in the
  orbit's total sign tau_n^L = +-1 and its order (``weight_homology_fg``);
* the cell route takes an equivariant cell model of the weight-n attaching
  space (a simplex cross a circle, boundary collapsed) tensored over the
  cyclic group, whose sign comes from the cell orientations, builds the
  sparse L x L block of each distinct orbit sign sequence, eliminates it
  once per call, and reads each orbit's kernel and cokernel off that
  elimination with the orbit's own order (``cell_weight_homology_fg``);
* the oracle is a brute-force normalized Hochschild complex, asked one
  weight at a time, whose differential is written from the ring's first
  and last face maps, the others vanishing on a square-zero product; on a
  weight's first query it lists the words and writes their face columns
  in one pass, and one graded call of generic homology gives that
  weight's groups in every degree (``NormalizedHochschild``): it cancels
  unit pairs of equal order, then makes one elimination of the cone of
  what is left (Kaczynski, Mischaikow and Mrozek, ch. 4).

All three must compute the same homology; the test suite enforces this on
a fixture zoo and on generated modules.  Every matrix here is a
column-sparse ``IntMatrix`` written column by column: the rotation, the
cell model's action and boundary and the oracle's face sums hold at most
a few entries per column, never an n x n grid.
"""

from __future__ import annotations

from math import gcd

from .abgroups import (
    FGAbGroup,
    GradedGroup,
    GroupExpr,
    StructuralError,
    homology_with_orders,
)
from .frozen import Frozen
from .matrices import IntMatrix, cokernel_invariants


class UnsupportedModule(Exception):
    """The requested assembly needs module shapes this engine refuses."""


class GradedModule(Frozen):
    """Finitely generated graded abelian group, flattened to a tuple of
    (degree, order) generators with order 0 meaning an infinite cyclic
    summand."""

    __slots__ = ("generators",)

    @classmethod
    def single(cls, degree: int = 0, order: int = 0) -> "GradedModule":
        """One cyclic summand Z/order (Z when order = 0) in the given degree."""
        return cls(((degree, order),))

    @classmethod
    def zero(cls) -> "GradedModule":
        return cls(())

    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self):
        if not self.generators:
            return "0"
        return " + ".join(
            (f"Z[{d}]" if o == 0 else f"Z/{o}[{d}]") for d, o in self.generators)


# ---------------------------------------------------------------------------
# tensor powers and the cyclic rotation


def _tensor_grading(m: GradedModule, n: int) -> tuple[list[int], list[int]]:
    """The internal degree and the order of each basis element of M^(x)n,
    in lexicographic order, built one tensor factor at a time."""
    degrees, orders = [0], [0]
    for _ in range(n):
        degrees = [d + e for d in degrees for e, _ in m.generators]
        orders = [gcd(o, order) for o in orders for _, order in m.generators]
    return degrees, orders


def signed_rotation(n: int, m: GradedModule, degrees: list[int] | None = None,
                    ) -> tuple[list[int], list[int]]:
    """The Koszul-signed cyclic rotation of M^(x)n as a signed permutation
    of the lexicographic basis: basis element j goes to ``sign[j]`` times
    basis element ``target[j]``.  The last tensor factor moves to the front
    and passes the others, so the sign is -1 exactly when the moved factor
    and the rest both have odd degree.  ``degrees`` are the basis degrees
    of ``_tensor_grading`` when the caller has them.

    >>> signed_rotation(2, GradedModule(((0, 0), (1, 0))))
    ([0, 2, 1, 3], [1, 1, 1, -1])
    """
    if degrees is None:
        degrees = _tensor_grading(m, n)[0]
    g = len(m.generators)
    front = g ** (n - 1)
    target = [last * front + rest for rest in range(front) for last in range(g)]
    # the moved factor and the rest are both odd when the factor is odd
    # and the whole tensor even
    odd_last = [d % 2 for d, _ in m.generators] * front
    sign = [-1 if odd and not deg % 2 else 1 for deg, odd in zip(degrees, odd_last)]
    return target, sign


def rotation_orbits(n: int, m: GradedModule,
                    ) -> list[tuple[list[int], list[int], int, int]]:
    """The orbits of the rotation on the tensor basis of M^(x)n.  Each is
    (basis indices from the least, in the order the rotation visits them;
    their Koszul signs; internal degree; order).  The elements of an orbit
    share degree and order, since they permute the same factors."""
    degrees, orders = _tensor_grading(m, n)
    target, sign = signed_rotation(n, m, degrees)
    seen = [False] * len(target)
    orbits = []
    for start in range(len(target)):
        if seen[start]:
            continue
        orbit, j = [start], target[start]
        while j != start:
            seen[j] = True
            orbit.append(j)
            j = target[j]
        orbits.append((orbit, [sign[j] for j in orbit], degrees[start], orders[start]))
    return orbits


def rotation_matrix(n: int, m: GradedModule, include_simplicial_sign: bool) -> IntMatrix:
    """Matrix of the cyclic rotation on M^(x)n, one signed column per basis
    element: the last tensor factor moves to the front with its Koszul
    sign, optionally multiplied by the simplicial sign (-1)^(n-1)."""
    target, sign = signed_rotation(n, m)
    simplicial = -1 if (include_simplicial_sign and n % 2 == 0) else 1
    return IntMatrix(len(target), tuple([{i: simplicial * s} for i, s in zip(target, sign)]))


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


# ---------------------------------------------------------------------------
# brute-force normalized Hochschild oracle


class NormalizedHochschild:
    """The normalized Hochschild complex of the square-zero ring Z (+) M,
    truncated at ``max_level``, with its differential written from the
    simplicial face maps of the ring.

    Serves as the independent oracle for the weight complexes: it takes
    its signs from the faces and hands its complex to generic homology.

    A normalized chain (r0; m_1, ..., m_k) has level k; r0 is the ring
    unit or a module generator and the m_i are module generators.  Every
    face keeps the weight, the number of module letters, so the complex is
    asked one weight at a time.  A weight-w word u gives the module-led
    chain (u_1; u_2, ..., u_w) at level w - 1 and the unit-led (1; u) at
    level w.  Only faces 0 and w are written: faces 1..k-1 multiply
    adjacent module slots, as does every face of a module-led chain, so
    their vanishing is derived here, not evaluated.  A unit-led chain's
    face 0 is the module-led chain of u, and its face w that of u rotated
    (last letter to the front) with sign (-1)^w times the Koszul sign of
    the move; when the rotation fixes u the two add.

    A weight's first query lists its words with degree and order in one
    pass, writes each unit-led face column by the words' places in their
    degree, and makes one ``homology_with_orders`` call on the whole
    weight: total degree t holds the module-led chains of degree t - w + 1
    words, then the unit-led ones of degree t - w.  That call cancels unit
    pairs of equal order, then runs one elimination of the cone of what is
    left (Kaczynski, Mischaikow and Mrozek, ch. 4); later queries read its
    groups off.  Nothing is kept beyond the instance.
    """

    def __init__(self, m: GradedModule, max_level: int):
        self.module = m
        self.max_level = max_level
        self._groups: dict[int, dict[int, FGAbGroup]] = {}  # weight -> groups by degree

    def _weight_complex(self, w: int) -> tuple[dict[int, list[int]], dict[int, IntMatrix]]:
        """Weight w's complex by total degree: each degree's chain orders,
        the gcd of their letters', and the boundary out of each degree."""
        gens = self.module.generators
        g = len(gens)
        degrees, orders = [0], [0]
        for _ in range(w):
            degrees = [d + e for d in degrees for e, _ in gens]
            orders = [gcd(o, q) for o in orders for _, q in gens]
        words: dict[int, list[int]] = {}  # internal degree -> its words' orders
        place = []
        for d, o in zip(degrees, orders):
            here = words.setdefault(d, [])
            place.append(len(here))
            here.append(o)
        faces: dict[int, list[dict[int, int]]] = {d: [] for d in words}
        front, simplicial = g ** (w - 1), -1 if w % 2 else 1  # simplicial = (-1)^w
        for u, d in enumerate(degrees):
            last = u % g
            e = gens[last][0]
            sign = -simplicial if e % 2 and (d - e) % 2 else simplicial
            p, r = place[u], place[last * front + u // g]
            faces[d].append({p: 1, r: sign} if p != r else {p: 2} if sign == 1 else {})
        chains, boundary = {}, {}
        for t in sorted({d + w - k for d in words for k in (0, 1)}):
            above, here = words.get(t - w + 1, []), words.get(t - w, [])
            chains[t] = above + here
            if here:
                boundary[t] = IntMatrix(len(here) + len(words.get(t - w - 1, ())),
                                        ({},) * len(above) + tuple(faces[t - w]))
        return chains, boundary

    def homology(self, total_degree: int, weight: int) -> FGAbGroup:
        """Homology of weight ``weight`` at a total degree; the weight is
        at least 1 and at most max_level."""
        if weight < 1:
            raise ValueError("weight must be at least 1")
        if self.max_level < weight:
            raise UnsupportedModule(
                f"max_level {self.max_level} too small for weight {weight}")
        groups = self._groups.get(weight)
        if groups is None:
            groups = self._groups[weight] = homology_with_orders(*self._weight_complex(weight))
        return groups.get(total_degree, FGAbGroup.zero())

    def weight_homology(self, w: int, lo: int, hi: int) -> dict[int, FGAbGroup]:
        """The nonzero groups of weight w in total degrees lo..hi; builds
        only that weight's words."""
        out = {}
        for t in range(lo, hi + 1):
            h = self.homology(t, weight=w)
            if not h.is_trivial():
                out[t] = h
        return out


def brute_hochschild(m: GradedModule, degree_bound: int) -> GradedGroup:
    """Total oracle homology in degrees 0..degree_bound of Z (+) M for
    modules in nonnegative degrees: the unit Z in degree 0 plus weights
    1..degree_bound + 1.  Weight w has no chain below total degree w - 1,
    so no higher weight reaches the window."""
    if any(d < 0 for d, _ in m.generators):
        raise UnsupportedModule(
            "total homology with negative-degree generators is not finitely "
            "assembled; ask the oracle one weight at a time")
    oracle = NormalizedHochschild(m, max_level=degree_bound + 1)
    values = {0: GroupExpr.free(1)}
    for w in range(1, degree_bound + 2):
        for t, g in oracle.weight_homology(w, 0, degree_bound).items():
            values[t] = values.get(t, GroupExpr.zero()).plus(GroupExpr.from_fg(g))
    return GradedGroup.from_dict(values, known_range=(0, degree_bound))


# ---------------------------------------------------------------------------
# the equivariant cell model


class EquivariantCellComplex(Frozen):
    """Free cell complex with a cyclic-group action by signed permutation
    matrices, one action matrix per dimension."""

    __slots__ = ("group_order", "cells", "boundaries", "actions", "orbit_reps")

    def __init__(self, group_order: int, cells: dict[int, int],
                 boundaries: dict[int, IntMatrix], actions: dict[int, IntMatrix],
                 orbit_reps: dict[int, tuple[int, ...]]):
        super().__init__(group_order, cells, boundaries, actions, orbit_reps)


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
    # cell j goes to cell j + 1, and bounds the difference of the two
    action = IntMatrix(n, tuple([{(j + 1) % n: eps} for j in range(n)]))
    boundary = IntMatrix(n, tuple([{j: -eps, (j + 1) % n: eps} if n > 1 else {}
                                   for j in range(n)]))
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


def _orbit_block(coeffs: list[int], signs: list[int]) -> IntMatrix:
    """The L x L block of sum_a coeffs[a] rot^-a on an orbit of length L
    with Koszul signs ``signs``: rot e_orbit[k] = signs[k] e_orbit[k+1],
    so rot^-1 steps back."""
    size = len(signs)
    columns = []
    for col in range(size):
        entries: dict[int, int] = {}
        pos, sign = col, 1
        for c in coeffs:
            entries[pos] = entries.get(pos, 0) + c * sign
            pos = (pos - 1) % size
            sign *= signs[pos]
        columns.append({i: x for i, x in entries.items() if x})
    return IntMatrix(size, tuple(columns))


def cell_weight_homology_fg(n: int, m: GradedModule) -> dict[int, FGAbGroup]:
    """Homology of the cell model tensored over the cyclic group with
    M^(x)n, keyed by total degree.

    The module action of the group generator is the Koszul-signed rotation;
    the simplex-orientation sign lives in the cell action matrices, so this
    computation derives the weight-complex sign table from the cell data
    rather than postulating it.  The attaching boundary, written as
    sum_a c_a g^a over the free orbit, acts on M^(x)n as sum_a c_a rot^-a.
    That operator keeps each rotation orbit, so each orbit's L x L block B
    acts on (Z/o)^L on its own.  The coefficients are fixed for n, so B
    depends only on the orbit's sign sequence: each distinct B is
    eliminated once per call, over Z, and each orbit applies its own order
    o to the result.  If B has invariant factors d_i and cokernel rank f
    over Z, then

        coker = (+)_i Z/gcd(d_i, o) (+) (Z/o)^f,

    and the kernel is the same group when o != 0 (B and its Smith form
    differ by unimodular changes of basis) and Z^f when o = 0.
    """
    cx = lambda_cell_model(n)
    coeffs = _decompose_in_orbit(cx.boundaries[n].column(cx.orbit_reps[n][0]),
                                 cx.actions[n - 1], cx.orbit_reps[n - 1][0], n)
    blocks: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    parts = []
    for _, signs, d, o in rotation_orbits(n, m):
        key = tuple(signs)
        if key not in blocks:
            blocks[key] = cokernel_invariants(_orbit_block(coeffs, signs))
        free, torsion = blocks[key]
        coker = [gcd(t, o) for t in torsion] + [o] * free
        parts.append((d, coker if o else [0] * free, coker))
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
        # Weight n of Z[-1] has one basis tensor, so one rotation orbit of
        # length 1 with sign (-1)^(n-1) * (-1)^(n-1) = +1: every weight gives
        # Z in degrees 0 and -1, the pattern of weight 1, summed countably.
        pattern = weight_homology_fg(1, m)
        for t, g in pattern.items():
            add(t, GroupExpr.from_fg(g).countable_sum())
    else:
        raise UnsupportedModule(
            "infinitely many weights contribute with varying values in the "
            "requested window")
    return GradedGroup.from_dict(values, known_range=(lo, hi))
