"""Finitely generated abelian groups, formal countable sums, graded groups,
and the long-exact-sequence fiber solver.

Two value layers live here.  ``FGAbGroup`` is the exact invariant-factor
form that homology computations return.  ``GroupExpr`` is a formal finite
multiset over a fixed alphabet of atoms that also includes three countable
shapes: a countable free sum, the tower ``(+)_{k>=0} Z/p^k``, and a
countable sum of such towers (reached as the ``countable_sum`` of a tower).
Those three atoms are exactly what the homology tables downstream need;
anything else is refused loudly.  ``from_fg`` turns a computed group into
an expression; nothing converts back.

A ``GradedGroup`` is one cell per degree of a finite window, the range in
which its values are certified.  ``les_fiber`` assembles the fiber of a
map of graded groups from the map's kernel and cokernel in each degree
where neither side is zero.
"""

from __future__ import annotations

from .frozen import Frozen, _new, _set
from .matrices import IntMatrix, _divisibility_chain, _eliminate
from .primes import factorint


class StructuralError(Exception):
    """Input violates a structural precondition (not a chain complex, shape
    mismatch, a map given on the wrong groups)."""


class IndeterminateExtension(Exception):
    """The long exact sequence leaves a non-degenerate extension problem."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"indeterminate extension problem in degree {degree}")


class UnsupportedAtom(Exception):
    """A formal group atom outside the supported alphabet."""


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FGAbGroup(Frozen):
    """Invariant-factor form: Z^free_rank + Z/d_1 + ... with d_1 | d_2 | ...
    Groups order by (free_rank, torsion).

    >>> print(FGAbGroup.from_orders([0, 4, 6]))
    Z + Z/2 + Z/12
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError(f"broken divisibility chain: {prev} does not divide {d}")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __eq__(self, other):
        if type(other) is not FGAbGroup:
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __lt__(self, other):
        if type(other) is not FGAbGroup:
            return NotImplemented
        return (self.free_rank, self.torsion) < (other.free_rank, other.torsion)

    @staticmethod
    def zero() -> "FGAbGroup":
        return _ZERO_FG

    @classmethod
    def free(cls, rank: int) -> "FGAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, m: int) -> "FGAbGroup":
        if m == 0:
            return cls(1, ())
        return cls.from_orders([m])

    @staticmethod
    def from_orders(orders) -> "FGAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 meaning Z);
        ``_from_torsion`` builds the chain once and does not validate it."""
        rank, torsion = 0, []
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d > 1:
                torsion.append(d)
        return _from_torsion(rank, torsion)

    def orders(self) -> list[int]:
        """Cyclic orders of the summands, 0 meaning Z."""
        return [0] * self.free_rank + list(self.torsion)

    def direct_sum(self, *others: "FGAbGroup") -> "FGAbGroup":
        orders = self.orders()
        for g in others:
            orders += g.orders()
        return FGAbGroup.from_orders(orders)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


_ZERO_FG = FGAbGroup(0, ())


def _from_torsion(rank: int, torsion: list[int]) -> FGAbGroup:
    """Z^rank plus the cyclic groups of orders ``torsion``, each at least 2,
    built without ``__init__``: their divisibility chain is canonical."""
    if not (rank or torsion):
        return _ZERO_FG
    chain = _divisibility_chain(sorted(torsion))
    g = _new(FGAbGroup)
    _set(g, "free_rank", rank)
    _set(g, "torsion", tuple(chain[chain.count(1):]))  # the 1s lead the chain
    return g


# ---------------------------------------------------------------------------
# formal group expressions

_Z = "Z"
_ZMOD = "Zmod"
_COUNTABLE_FREE = "CountableFree"
_TORSION_TOWER = "TorsionTower"
_COUNTABLE_TOWER_SUM = "CountableTowerSum"

_ATOM_ORDER = {_Z: 0, _ZMOD: 1, _COUNTABLE_FREE: 2, _TORSION_TOWER: 3, _COUNTABLE_TOWER_SUM: 4}

# atoms isomorphic to their own square absorb their multiplicity; a single
# tower is NOT one of them (doubling it doubles every cyclic multiplicity)
_IDEMPOTENT = {_COUNTABLE_FREE, _COUNTABLE_TOWER_SUM}


class GroupExpr(Frozen):
    """Formal finite sum of atoms, canonically normalized.

    Atoms are (kind, parameter, multiplicity) with cyclic parts split into
    prime powers, so on finitely generated expressions equality of normal
    forms is isomorphism.  Countable atoms are tracked formally: a finite
    free part next to a countable free one stays distinct, mirroring how
    the tables display their entries.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[tuple[str, int | None, int], ...]):
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def _make(cls, raw_atoms) -> "GroupExpr":
        counts: dict[tuple[str, int | None], int] = {}
        for kind, param, mult in raw_atoms:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            if kind == _ZMOD:
                if param is None or param < 0:
                    raise ValueError("Z/m atom needs m >= 0")
                if param == 0:
                    kind, param = _Z, None
                elif param == 1:
                    continue
                else:
                    # split into prime powers so normal forms are iso-invariant
                    for p, e in factorint(param).items():
                        key = (_ZMOD, p**e)
                        counts[key] = counts.get(key, 0) + mult
                    continue
            elif kind in (_TORSION_TOWER, _COUNTABLE_TOWER_SUM):
                if param is None or param < 2:
                    raise ValueError(f"{kind} needs a prime parameter")
            elif kind in (_Z, _COUNTABLE_FREE):
                param = None
            else:
                raise UnsupportedAtom(f"unknown atom kind {kind!r}")
            key = (kind, param)
            counts[key] = counts.get(key, 0) + mult
        atoms = []
        for (kind, param), mult in counts.items():
            if kind in _IDEMPOTENT:
                mult = 1
            atoms.append((kind, param, mult))
        atoms.sort(key=lambda a: (_ATOM_ORDER[a[0]], a[1] or 0))
        return cls(tuple(atoms))

    @staticmethod
    def zero() -> "GroupExpr":
        return _ZERO_EXPR

    @classmethod
    def free(cls, rank: int = 1) -> "GroupExpr":
        return _FREE_EXPR if rank == 1 else cls._make([(_Z, None, rank)])

    @classmethod
    def cyclic(cls, m: int, mult: int = 1) -> "GroupExpr":
        return cls._make([(_ZMOD, m, mult)])

    @staticmethod
    def countable_free() -> "GroupExpr":
        return _COUNTABLE_FREE_EXPR

    @classmethod
    def torsion_tower(cls, p: int) -> "GroupExpr":
        return cls._make([(_TORSION_TOWER, p, 1)])

    @classmethod
    def from_fg(cls, g: FGAbGroup) -> "GroupExpr":
        raw = [(_Z, None, g.free_rank)]
        raw += [(_ZMOD, d, 1) for d in g.torsion]
        return cls._make(raw)

    def plus(self, *others: "GroupExpr") -> "GroupExpr":
        summands = [g for g in (self, *others) if g.atoms]
        if len(summands) < 2:  # every value is a normal form, so a lone one is the sum
            return summands[0] if summands else _ZERO_EXPR
        return GroupExpr._make([atom for g in summands for atom in g.atoms])

    def countable_sum(self) -> "GroupExpr":
        """The countable direct sum (+)^infinity of this expression."""
        if self.is_zero():
            return self
        raw = []
        for kind, param, mult in self.atoms:
            if kind in (_Z, _COUNTABLE_FREE):
                raw.append((_COUNTABLE_FREE, None, 1))
            elif kind in (_TORSION_TOWER, _COUNTABLE_TOWER_SUM):
                raw.append((_COUNTABLE_TOWER_SUM, param, 1))
            else:
                raise UnsupportedAtom(
                    f"countable sum of {kind} atoms has no representation here")
        return GroupExpr._make(raw)

    def is_zero(self) -> bool:
        return not self.atoms

    def to_json_obj(self) -> list[dict]:
        return [
            {"atom": kind,
             "parameter": None if param is None else str(param),
             "multiplicity": str(mult)}
            for kind, param, mult in self.atoms
        ]

    def __str__(self):
        if not self.atoms:
            return "0"
        parts = []
        for kind, param, mult in self.atoms:
            if kind == _Z:
                parts.append("Z" if mult == 1 else f"Z^{mult}")
            elif kind in (_ZMOD, _TORSION_TOWER):
                s = f"Z/{param}" if kind == _ZMOD else f"(+)_k Z/{param}^k"
                parts.append(s if mult == 1 else f"({s})^{mult}")
            elif kind == _COUNTABLE_FREE:
                parts.append("(+)_k Z")
            else:
                parts.append(f"(+)^oo (+)_k Z/{param}^k")
        return " + ".join(parts)


# values are immutable, so one of each constant serves every caller
_ZERO_EXPR = GroupExpr(())
_FREE_EXPR = GroupExpr(((_Z, None, 1),))
_COUNTABLE_FREE_EXPR = GroupExpr(((_COUNTABLE_FREE, None, 1),))


# ---------------------------------------------------------------------------
# graded groups


class DegreeOutOfRange(Exception):
    def __init__(self, degree, known):
        self.degree = degree
        super().__init__(f"degree {degree} outside known range {known}")


class GradedGroup(Frozen):
    """Integer-graded GroupExpr values on the finite window ``known_range``
    = (lo, hi): ``cells`` holds one value per degree, the one in degree d at
    ``cells[d - lo]``.  Queries outside the window raise instead of silently
    returning 0."""

    __slots__ = ("known_range", "cells")

    @classmethod
    def from_dict(cls, values: dict[int, GroupExpr], known_range) -> "GradedGroup":
        """The window ``known_range`` holding ``values``: 0 in a degree they
        omit, and a degree outside the window is dropped."""
        lo, hi = known_range
        return cls((lo, hi), tuple([values.get(d, _ZERO_EXPR) for d in range(lo, hi + 1)]))

    def at(self, degree: int) -> GroupExpr:
        lo, hi = self.known_range
        if not lo <= degree <= hi:
            raise DegreeOutOfRange(degree, self.known_range)
        return self.cells[degree - lo]

    def wedge(self, other: "GradedGroup") -> "GradedGroup":
        """The degreewise sum with ``other``, which must have the same window."""
        if other.known_range != self.known_range:
            raise StructuralError(f"wedge of windows {self.known_range} and {other.known_range}")
        return GradedGroup(self.known_range, tuple(map(GroupExpr.plus, self.cells, other.cells)))

    def countable_sum(self) -> "GradedGroup":
        return GradedGroup(self.known_range, tuple([c.countable_sum() for c in self.cells]))


# ---------------------------------------------------------------------------
# homology of complexes of finitely generated abelian groups


_NOT_A_COMPLEX = ("relations or incoming image of degree {} do not land in the kernel "
                  "(input is not a complex)")


def homology_with_orders(orders: dict[int, list[int]],
                         boundary: dict[int, IntMatrix]) -> dict[int, FGAbGroup]:
    """Homology in every degree of a chain complex of direct sums of
    cyclic groups: ``orders[t]`` lists the orders of degree t's generators
    (0 meaning Z), and ``boundary[t]``, an integer matrix on generators,
    maps degree t to degree t - 1 (a degree without one maps by zero).

    The relations R_t (o e_i per nonzero order o) and the columns of
    ``boundary[t + 1]`` must map into R_{t-1}, or ``StructuralError`` names
    degree t; this reads the input as given, as a cancellation can hide a
    bad composite.  Unit pairs of equal order are cancelled first
    (Kaczynski, Mischaikow and Mrozek, Computational Homology, 2004, ch. 4),
    degree by degree: a = +-1 in ``boundary[t]`` from tau to sigma of one
    order is an isomorphism Z -> Z or Z/o -> Z/o, so dropping both keeps the
    homology once each other column c becomes c - c[sigma] a col(tau).

    Then one elimination of the cone of what is left.  With C_t = Z^n_t /
    R_t, the complex is the cokernel of the injective chain map of
    relations, so it has the homology of the cone of R, a complex of free
    groups whose degree t is Z^n_t (+) F_t, one generator of F_t per
    nonzero order of degree t - 1.  Its differential into degree t is
    spanned by the lifts (x ; R_{t-1}^-1 d_t x) of what must die in C_t.
    It is block diagonal by degree, so one elimination of every lift, each
    pivot read by the degree it lands in, gives the rank r_t and invariant
    factors of the differential into degree t, and H_t = Z^(n_t + |F_t| -
    r_t - r_{t-1}) (+) (those factors other than 1); the F rows carry the
    cone's opposite sign, which changes neither.  Below, C_0 = Z + Z/2,
    C_1 = Z^2 maps onto it by the identity, so its kernel is 0 + 2Z, and
    C_2 = Z maps onto 4Z; the unit Z -> Z cancels, Z -> Z/2 does not:

    >>> homology_with_orders({0: [0, 2], 1: [0, 0], 2: [0]},
    ...                      {1: IntMatrix.from_rows([[1, 0], [0, 1]]),
    ...                       2: IntMatrix.from_rows([[0], [4]])})[1]
    FGAbGroup(free_rank=0, torsion=(2,))
    """
    for t, d in boundary.items():
        if d.cols != len(orders.get(t, ())) or d.rows != len(orders.get(t - 1, ())):
            raise StructuralError(f"boundary out of degree {t} has the wrong shape")
    columns = {t: [{}] * len(here) for t, here in orders.items()}  # None: cancelled
    rank = dict.fromkeys(orders, 0)
    for t in sorted(boundary):
        out, here, below = boundary[t].columns, orders.get(t, ()), orders.get(t - 1, ())
        where: dict[int, set[int]] = {}  # row -> the columns holding it
        for j, col in enumerate(out):
            for i, y in col.items():
                if here[j] and (not below[i] or here[j] * y % below[i]):
                    raise StructuralError(_NOT_A_COMPLEX.format(t))
                where.setdefault(i, set()).add(j)
        for col in boundary[t + 1].columns if t + 1 in boundary else ():
            image: dict[int, int] = {}
            for j, x in col.items():
                for i, y in out[j].items():
                    image[i] = image.get(i, 0) + x * y
            for i, v in image.items():
                if v and (not below[i] or v % below[i]):
                    raise StructuralError(_NOT_A_COMPLEX.format(t))
        cols = columns[t] = list(map(dict, out))
        left = columns.get(t - 1, ())  # a cancelled row stays, but never pivots
        for tau, col in enumerate(cols):
            o, sigma = here[tau], None
            for i, x in col.items():
                if ((x == 1 or x == -1) and below[i] == o and left[i] is not None
                        and (sigma is None or len(where[i]) < len(where[sigma]))):
                    sigma = i
            if sigma is None:
                continue
            for i in col:
                where[i].discard(tau)
            a = col.pop(sigma)
            for c in where.pop(sigma):
                other = cols[c]
                q = other.pop(sigma) * a
                for i, x in col.items():
                    v = other.get(i, 0) - q * x
                    if v:
                        other[i] = v
                        where[i].add(c)
                    else:
                        del other[i]
                        where[i].discard(c)
            cols[tau] = left[sigma] = None
            rank[t - 1] += 1  # the pivot the cone would find in the pair's unit,
            rank[t] += o != 0  # and, of finite order, the one in tau's relation
    lifts: list[dict[tuple[int, int], int]] = []  # every lift, by (degree, place) in the cone
    size: dict[int, int] = {}
    for t, here in orders.items():
        out, below, n = columns[t], orders.get(t - 1, ()), len(here)
        left = columns.get(t - 1, ())  # the cone skips cancelled rows
        killed = [col for col in columns.get(t + 1, ()) if col]
        killed += [{i: o} for i, o in enumerate(here) if o and out[i] is not None]
        for col in killed:
            lift, image = {}, {}
            for j, x in col.items():
                if out[j] is not None:
                    lift[t, j] = x
                    for i, y in out[j].items():
                        image[i] = image.get(i, 0) + x * y
            for i, v in image.items():
                if v and left[i] is not None:
                    lift[t, n + i] = v // below[i]  # generator i of F_t
            lifts.append(lift)
        size[t] = n + len(below) - below.count(0)
    torsion: dict[int, list[int]] = {t: [] for t in orders}
    for i, j in _eliminate(lifts):
        t = j[0]
        rank[t] += 1
        d = lifts[i][j]
        if d != 1 and d != -1:
            torsion[t].append(abs(d))
    return {t: _from_torsion(size[t] - rank[t] - rank.get(t - 1, 0), torsion[t])
            for t in orders}


# ---------------------------------------------------------------------------
# the LES fiber solver


def les_fiber(w: GradedGroup, b: GradedGroup, f: dict[int, tuple[GroupExpr, GroupExpr]],
              lo: int, hi: int) -> GradedGroup:
    """Homology of the fiber F of a map f: W -> B, assembled degreewise from
    ... -> H_n(F) -> H_n(W) -> H_n(B) -> H_{n-1}(F) -> ...

    ``f`` maps a degree n to the pair (ker f_n, coker f_n).  A degree
    without an entry must have a zero domain or a zero codomain, so that
    f_n is zero, with kernel W_n and cokernel B_n; otherwise the solver
    raises ``StructuralError``.  In each degree, H_n(F) is an extension of
    ker(f_n) by coker(f_{n+1}); the solver only accepts the degenerate
    cases (one side zero) and raises ``IndeterminateExtension`` otherwise.
    """
    def kernel_cokernel(n):
        pair = f.get(n)
        if pair is None:
            pair = w.at(n), b.at(n)
            if not (pair[0].is_zero() or pair[1].is_zero()):
                raise StructuralError(
                    f"degree {n}: both sides nonzero but no kernel and cokernel given")
        return pair

    cells = []
    for n in range(lo, hi + 1):
        ker_n, coker_up = kernel_cokernel(n)[0], kernel_cokernel(n + 1)[1]
        if not ker_n.is_zero() and not coker_up.is_zero():
            raise IndeterminateExtension(n)
        cells.append(ker_n.plus(coker_up))
    return GradedGroup((lo, hi), tuple(cells))
