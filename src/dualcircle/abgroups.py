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
map of graded groups from a dict of one ``MapDescriptor`` per degree, of
which there are two kinds: the zero map and the transfer row
``row_powers``.
"""

from __future__ import annotations

from .frozen import Frozen
from .matrices import IntMatrix, _divisibility_chain, cokernel_invariants, rank
from .primes import factorint


class StructuralError(Exception):
    """Input violates a structural precondition (not a chain complex, shape
    mismatch, malformed descriptor)."""


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

    @classmethod
    def zero(cls) -> "FGAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, m: int) -> "FGAbGroup":
        if m == 0:
            return cls(1, ())
        return cls.from_orders([m])

    @classmethod
    def from_orders(cls, orders) -> "FGAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 meaning Z)."""
        rank, torsion = 0, []
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d > 1:
                torsion.append(d)
        chain = _divisibility_chain(sorted(torsion))
        return cls(rank, tuple(chain[chain.count(1):]))  # the 1s lead the chain

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
        return cls._make([(_Z, None, rank)])

    @classmethod
    def cyclic(cls, m: int, mult: int = 1) -> "GroupExpr":
        return cls._make([(_ZMOD, m, mult)])

    @classmethod
    def countable_free(cls) -> "GroupExpr":
        return cls._make([(_COUNTABLE_FREE, None, 1)])

    @classmethod
    def torsion_tower(cls, p: int) -> "GroupExpr":
        return cls._make([(_TORSION_TOWER, p, 1)])

    @classmethod
    def from_fg(cls, g: FGAbGroup) -> "GroupExpr":
        raw = [(_Z, None, g.free_rank)]
        raw += [(_ZMOD, d, 1) for d in g.torsion]
        return cls._make(raw)

    def plus(self, *others: "GroupExpr") -> "GroupExpr":
        raw = list(self.atoms)
        for o in others:
            raw.extend(o.atoms)
        return GroupExpr._make(raw)

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
            elif kind == _ZMOD:
                s = f"Z/{param}"
                parts.append(s if mult == 1 else f"({s})^{mult}")
            elif kind == _COUNTABLE_FREE:
                parts.append("(+)_k Z")
            elif kind == _TORSION_TOWER:
                parts.append(f"(+)_k Z/{param}^k")
            else:
                parts.append(f"(+)^oo (+)_k Z/{param}^k")
        return " + ".join(parts)


_ZERO_EXPR = GroupExpr(())  # values are immutable, so one zero serves every caller


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

    def wedge(self, other: "GradedGroup", lo: int, hi: int) -> "GradedGroup":
        return GradedGroup((lo, hi), tuple([self.at(d).plus(other.at(d))
                                            for d in range(lo, hi + 1)]))

    def countable_sum(self, lo: int, hi: int) -> "GradedGroup":
        return GradedGroup((lo, hi), tuple([self.at(d).countable_sum()
                                            for d in range(lo, hi + 1)]))


# ---------------------------------------------------------------------------
# homology of complexes of finitely generated abelian groups


def homology_with_orders(d_out: IntMatrix | None, d_in: IntMatrix | None,
                         orders_here, orders_below) -> FGAbGroup:
    """Homology at the middle of A -> B -> C where the groups are direct
    sums of cyclic groups (order 0 meaning Z), B is described by
    ``orders_here``, C by ``orders_below``, and the maps are given by
    integer matrices on generators.

    With B = Z^n / R_B and C = Z^m / R_C (R holding o e_i per nonzero
    order o), the complex is the cokernel of the injective chain map of
    relations R: F_1 -> F_0, so it is quasi-isomorphic to the cone of R, a
    complex of free groups.  B's place in the cone is Z^n (+) F_1(C), with
    one generator of F_1(C) per nonzero order of C (m' in all), and its
    differentials are d_B = [d_out | R_C], m x (n + m'), and d_{B+1}, with
    a column (x ; R_C^-1 d_out x) for each column x of ``d_in`` and R_B.
    So H = Z^(n + m' - rank d_B - rank d_{B+1}) (+) (the invariant factors
    of d_{B+1} other than 1).  Over Q the columns of R_C span C's torsion
    rows, so rank d_B = m' + (the rank of d_out on C's free rows): one
    elimination without a transform, none if d_out is zero there, and one
    more for d_{B+1}.  The cone's F_1(C) rows carry the opposite sign,
    which changes neither rank nor invariant factors.  A non-integral R_C^-1 d_out x means the input
    is not a complex.  When d_out is zero, H is the cokernel of the columns
    of ``d_in`` and R_B.  Below, C = Z + Z/2 and B = Z^2 -> C is the
    identity, so the kernel is 0 + 2Z, and A = Z maps onto 4Z:

    >>> str(homology_with_orders(IntMatrix.from_rows([[1, 0], [0, 1]]),
    ...                          IntMatrix.from_rows([[0], [4]]), [0, 0], [0, 2]))
    'Z/2'
    """
    orders_here = list(orders_here)
    n_b = len(orders_here)
    if n_b == 0:
        return FGAbGroup.zero()
    out = None if d_out is None or d_out.is_zero() else d_out
    if out is not None:
        if out.cols != n_b:
            raise StructuralError("outgoing boundary has wrong width")
        orders_below = list(orders_below)
        if out.rows != len(orders_below):
            raise StructuralError("outgoing boundary has wrong height")

    # generators of what must die: the image of A, plus B's relations
    killed: list[dict[int, int]] = []
    if d_in is not None and d_in.cols:
        if d_in.rows != n_b:
            raise StructuralError("incoming boundary has wrong height")
        killed.extend(col for col in d_in.columns if col)
    killed.extend({i: o} for i, o in enumerate(orders_here) if o)
    if out is None:
        free, torsion = cokernel_invariants(IntMatrix(n_b, tuple(killed)))
        return FGAbGroup(free, tuple(torsion))

    slot: dict[int, int] = {}  # row i of C -> its row in F_1(C), after B's
    for i, o in enumerate(orders_below):
        if o:
            slot[i] = n_b + len(slot)
    lifted = []
    for col in killed:
        image: dict[int, int] = {}
        for j, x in col.items():
            for i, y in out.columns[j].items():
                image[i] = image.get(i, 0) + x * y
        lift = dict(col)
        for i, v in image.items():
            if v:
                o = orders_below[i]
                if not o or v % o:
                    raise StructuralError(
                        "relations or incoming image do not land in the kernel "
                        "(input is not a complex)")
                lift[slot[i]] = v // o
        lifted.append(lift)
    on_free = [c for c in ({i: x for i, x in col.items() if i not in slot}
                           for col in out.columns) if c]  # d_out on C's free rows
    rank_b = len(slot) + (rank(IntMatrix(out.rows, tuple(on_free))) if on_free else 0)
    free, torsion = cokernel_invariants(IntMatrix(n_b + len(slot), tuple(lifted)))
    return FGAbGroup(free - rank_b, tuple(torsion))


# ---------------------------------------------------------------------------
# degreewise map descriptors and the LES fiber solver


class MapDescriptor(Frozen):
    """One degree of a map between GroupExpr values.

    kind:
      "zero"            the zero map
      "row_powers"      CountableFree -> Z, e_k |-> base**k (data = base)
    """

    __slots__ = ("kind", "data")

    @classmethod
    def zero(cls):
        return cls("zero", None)

    @classmethod
    def row_powers(cls, base: int):
        return cls("row_powers", base)


def descriptor_kernel_cokernel(desc: MapDescriptor, domain: GroupExpr,
                               codomain: GroupExpr) -> tuple[GroupExpr, GroupExpr]:
    if desc.kind == "zero":
        return domain, codomain
    if desc.kind == "row_powers":
        if domain != GroupExpr.countable_free() or codomain != GroupExpr.free(1):
            raise StructuralError("row descriptor needs CountableFree -> Z")
        # the k = 0 coefficient base**0 = 1 generates Z, and the kernel of a
        # map from a countable free group onto Z is again free of countable rank
        return GroupExpr.countable_free(), GroupExpr.zero()
    raise StructuralError(f"unknown descriptor kind {desc.kind!r}")


def _kernel_cokernel_at(w: GradedGroup, b: GradedGroup, f: dict[int, MapDescriptor],
                        degree: int) -> tuple[GroupExpr, GroupExpr]:
    dom = w.at(degree)
    cod = b.at(degree)
    desc = f.get(degree)
    if desc is None:
        if dom.is_zero():
            return GroupExpr.zero(), cod
        if cod.is_zero():
            return dom, GroupExpr.zero()
        raise StructuralError(
            f"degree {degree}: both sides nonzero but no map descriptor given")
    return descriptor_kernel_cokernel(desc, dom, cod)


def les_fiber(w: GradedGroup, b: GradedGroup, f: dict[int, MapDescriptor],
              lo: int, hi: int) -> GradedGroup:
    """Homology of the fiber F of a map f: W -> B, assembled degreewise from
    ... -> H_n(F) -> H_n(W) -> H_n(B) -> H_{n-1}(F) -> ...

    ``f`` maps a degree to its descriptor; a degree without one must have a
    zero domain or a zero codomain.  In each degree, H_n(F) is an extension
    of ker(f_n) by coker(f_{n+1}); the solver only accepts the degenerate
    cases (one side zero) and raises ``IndeterminateExtension`` otherwise.
    """
    cells = []
    for n in range(lo, hi + 1):
        ker_n, _ = _kernel_cokernel_at(w, b, f, n)
        _, coker_up = _kernel_cokernel_at(w, b, f, n + 1)
        if not ker_n.is_zero() and not coker_up.is_zero():
            raise IndeterminateExtension(n)
        cells.append(ker_n.plus(coker_up))
    return GradedGroup((lo, hi), tuple(cells))
