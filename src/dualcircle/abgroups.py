"""Finitely generated abelian groups, formal countable sums, graded groups,
and the long-exact-sequence fiber solver.

Two value layers live here.  ``FGAbGroup`` is the exact invariant-factor
form produced by Smith normal form.  ``GroupExpr`` is a formal finite
multiset over a fixed alphabet of atoms that also includes three countable
shapes: a countable free sum, the tower ``(+)_{k>=0} Z/p^k``, and a
countable sum of such towers.  Those three atoms are exactly what the
homology tables downstream need; anything else is refused loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .matrices import (
    IntMatrix,
    NoIntegralSolution,
    cokernel_invariants,
    image_lattice_basis,
    kernel_basis,
    smith_normal_form,
    solve_integral,
)
from .primes import factorint, gcd_many


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


@dataclass(frozen=True, order=True)
class FGAbGroup:
    """Invariant-factor form: Z^free_rank + Z/d_1 + ... with d_1 | d_2 | ...

    >>> print(FGAbGroup.from_orders([0, 4, 6]))
    Z + Z/2 + Z/12
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError(f"broken divisibility chain: {prev} does not divide {d}")
            prev = d

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
        rank = 0
        primary: dict[int, list[int]] = {}
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d == 1:
                continue
            else:
                for p, e in factorint(d).items():
                    primary.setdefault(p, []).append(e)
        for exps in primary.values():
            exps.sort(reverse=True)
        factors = []
        for tier in zip_longest(*primary.values(), fillvalue=0):
            d = 1
            for p, e in zip(primary.keys(), tier):
                d *= p**e
            factors.append(d)
        factors = [d for d in factors if d > 1]
        factors.reverse()  # ascending divisibility chain
        return cls(rank, tuple(factors))

    def orders(self) -> list[int]:
        """Cyclic orders of the summands, 0 meaning Z."""
        return [0] * self.free_rank + list(self.torsion)

    def direct_sum(self, *others: "FGAbGroup") -> "FGAbGroup":
        orders = self.orders()
        for g in others:
            orders += g.orders()
        return FGAbGroup.from_orders(orders)

    def elementary_divisors(self) -> list[int]:
        out = []
        for d in self.torsion:
            for p, e in factorint(d).items():
                out.append(p**e)
        return sorted(out)

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


@dataclass(frozen=True)
class GroupExpr:
    """Formal finite sum of atoms, canonically normalized.

    Atoms are (kind, parameter, multiplicity) with cyclic parts split into
    prime powers, so on finitely generated expressions equality of normal
    forms is isomorphism.  Countable atoms are tracked formally: a finite
    free part next to a countable free one stays distinct unless absorbed
    explicitly (``absorb_free``), mirroring how the tables display their
    entries.
    """

    atoms: tuple[tuple[str, int | None, int], ...] = ()

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

    @classmethod
    def zero(cls) -> "GroupExpr":
        return cls._make([])

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
    def countable_tower_sum(cls, p: int) -> "GroupExpr":
        return cls._make([(_COUNTABLE_TOWER_SUM, p, 1)])

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

    def absorb_free(self) -> "GroupExpr":
        """Fold finite Z-multiplicities into a countable free atom, if present."""
        if not self.has_atom(_COUNTABLE_FREE):
            return self
        raw = [a for a in self.atoms if a[0] != _Z]
        return GroupExpr._make(raw)

    def has_atom(self, kind: str) -> bool:
        return any(a[0] == kind for a in self.atoms)

    def multiplicity(self, kind: str, param: int | None = None) -> int:
        for k, q, mult in self.atoms:
            if k == kind and q == param:
                return mult
        return 0

    def is_zero(self) -> bool:
        return not self.atoms

    def is_finitely_generated(self) -> bool:
        return all(a[0] in (_Z, _ZMOD) for a in self.atoms)

    def to_fg(self) -> FGAbGroup:
        if not self.is_finitely_generated():
            raise StructuralError("expression contains countable atoms")
        orders = []
        for kind, param, mult in self.atoms:
            orders += [0 if kind == _Z else param] * mult
        return FGAbGroup.from_orders(orders)

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


# ---------------------------------------------------------------------------
# graded groups


@dataclass(frozen=True)
class PeriodicTail:
    """Eventually periodic values: for degree d >= start, the value applies
    when (d - offset) % period == 0, and the group is zero at the other
    degrees beyond the explicit support."""

    start: int
    period: int
    offset: int
    value: GroupExpr

    def applies(self, degree: int) -> bool:
        return degree >= self.start

    def at(self, degree: int) -> GroupExpr:
        if (degree - self.offset) % self.period == 0:
            return self.value
        return GroupExpr.zero()


class DegreeOutOfRange(Exception):
    def __init__(self, degree, known):
        self.degree = degree
        super().__init__(f"degree {degree} outside known range {known}")


@dataclass(frozen=True)
class GradedGroup:
    """Integer-graded GroupExpr values: finite explicit support plus an
    optional periodic tail.  ``known_range`` bounds where values are
    certified; queries outside it raise instead of silently returning 0."""

    explicit: tuple[tuple[int, GroupExpr], ...] = ()
    tail: PeriodicTail | None = None
    known_range: tuple[int | None, int | None] = (None, None)

    @classmethod
    def from_dict(cls, values: dict[int, GroupExpr], tail: PeriodicTail | None = None,
                  known_range=(None, None)) -> "GradedGroup":
        items = tuple(sorted((d, g) for d, g in values.items() if not g.is_zero()))
        if tail is not None:
            for d, _ in items:
                if tail.applies(d):
                    raise StructuralError(
                        f"explicit degree {d} overlaps the periodic tail")
        return cls(items, tail, tuple(known_range))

    @classmethod
    def zero(cls) -> "GradedGroup":
        return cls()

    def at(self, degree: int) -> GroupExpr:
        lo, hi = self.known_range
        if (lo is not None and degree < lo) or (hi is not None and degree > hi):
            raise DegreeOutOfRange(degree, self.known_range)
        for d, g in self.explicit:
            if d == degree:
                return g
        if self.tail is not None and self.tail.applies(degree):
            return self.tail.at(degree)
        return GroupExpr.zero()

    def shift(self, k: int) -> "GradedGroup":
        """Degree shift: result at d equals self at d - k."""
        items = tuple((d + k, g) for d, g in self.explicit)
        tail = None
        if self.tail is not None:
            tail = PeriodicTail(self.tail.start + k, self.tail.period,
                                self.tail.offset + k, self.tail.value)
        lo, hi = self.known_range
        known = (None if lo is None else lo + k, None if hi is None else hi + k)
        return GradedGroup(tuple(sorted(items)), tail, known)

    def wedge(self, other: "GradedGroup", lo: int, hi: int) -> "GradedGroup":
        values = {d: self.at(d).plus(other.at(d)) for d in range(lo, hi + 1)}
        return GradedGroup.from_dict(values, known_range=(lo, hi))

    def countable_sum(self, lo: int, hi: int) -> "GradedGroup":
        values = {d: self.at(d).countable_sum() for d in range(lo, hi + 1)}
        return GradedGroup.from_dict(values, known_range=(lo, hi))

    def equal_on(self, other: "GradedGroup", lo: int, hi: int) -> bool:
        return all(self.at(d) == other.at(d) for d in range(lo, hi + 1))

    def to_json_obj(self, lo: int | None = None, hi: int | None = None) -> dict:
        """Explicit degrees plus the periodic-tail rule; pass a window to
        additionally materialize evaluated values over [lo, hi]."""
        obj: dict = {
            "explicit": {str(d): g.to_json_obj() for d, g in self.explicit},
        }
        if self.tail is not None:
            obj["tail"] = {
                "start": str(self.tail.start),
                "period": str(self.tail.period),
                "offset": str(self.tail.offset),
                "value": self.tail.value.to_json_obj(),
            }
        if lo is not None and hi is not None:
            obj["values"] = {str(d): self.at(d).to_json_obj()
                             for d in range(lo, hi + 1)}
        return obj


def graded_from_fg(values: dict[int, FGAbGroup], known_range=(None, None)) -> GradedGroup:
    return GradedGroup.from_dict(
        {d: GroupExpr.from_fg(g) for d, g in values.items()},
        known_range=known_range)


# ---------------------------------------------------------------------------
# chain complexes of free abelian groups


@dataclass(frozen=True)
class ChainComplex:
    """Bounded complex of free abelian groups.

    ``boundaries[d]`` is the matrix of the map from degree d to degree d-1;
    ``ranks[d]`` the rank of the degree-d group.  Consecutive boundaries
    must compose to zero.
    """

    ranks: dict[int, int]
    boundaries: dict[int, IntMatrix]

    def __post_init__(self):
        for d, m in self.boundaries.items():
            if m.cols != self.ranks.get(d, 0) or m.rows != self.ranks.get(d - 1, 0):
                raise StructuralError(f"boundary at degree {d} has wrong shape")
        for d, m in self.boundaries.items():
            n = self.boundaries.get(d + 1)
            if n is not None and not m.mul(n).is_zero():
                raise StructuralError(f"boundary composite at degree {d + 1} is nonzero")

    def boundary(self, d: int) -> IntMatrix:
        m = self.boundaries.get(d)
        if m is not None:
            return m
        return IntMatrix.zero(self.ranks.get(d - 1, 0), self.ranks.get(d, 0))


def homology_at(complex_: ChainComplex, degree: int) -> FGAbGroup:
    """H_degree = ker(boundary_degree) / im(boundary_{degree+1}) in
    invariant-factor form.

    >>> rp2 = ChainComplex({0: 1, 1: 1, 2: 1},
    ...                    {1: IntMatrix.from_rows([[0]]),
    ...                     2: IntMatrix.from_rows([[2]])})
    >>> [str(homology_at(rp2, d)) for d in (0, 1, 2)]
    ['Z', 'Z/2', '0']
    """
    rank = complex_.ranks.get(degree, 0)
    return homology_with_orders(
        d_out=complex_.boundary(degree),
        d_in=complex_.boundary(degree + 1),
        orders_here=[0] * rank,
        orders_below=[0] * complex_.ranks.get(degree - 1, 0),
    )


def homology_with_orders(d_out: IntMatrix | None, d_in: IntMatrix | None,
                         orders_here, orders_below) -> FGAbGroup:
    """Homology at the middle of A -> B -> C where the groups are direct
    sums of cyclic groups (order 0 meaning Z), B is described by
    ``orders_here``, C by ``orders_below``, and the maps are given by
    integer matrices on generators.

    The kernel of B -> C is computed as a sublattice of the generator
    lattice of B (pulling back the relation lattice of C), and the image
    of A -> B together with B's own relations is divided out.
    """
    orders_here = list(orders_here)
    n_b = len(orders_here)
    if n_b == 0:
        return FGAbGroup.zero()

    # kernel lattice of B -> C, as a sublattice of Z^{n_b}
    if d_out is None or d_out.rows == 0 or d_out.is_zero():
        kernel_lattice = IntMatrix.identity(n_b)
    else:
        if d_out.cols != n_b:
            raise StructuralError("outgoing boundary has wrong width")
        orders_below = list(orders_below)
        if d_out.rows != len(orders_below):
            raise StructuralError("outgoing boundary has wrong height")
        block_rows = []
        for i in range(d_out.rows):
            row = list(d_out.entries[i])
            row += [-orders_below[i] if j == i else 0 for j in range(len(orders_below))]
            block_rows.append(row)
        big_kernel = kernel_basis(IntMatrix.from_rows(block_rows))
        projected = IntMatrix.from_rows([big_kernel.entries[i] for i in range(n_b)]) \
            if big_kernel.cols else IntMatrix.zero(n_b, 0)
        kernel_lattice = image_lattice_basis(projected)

    # generators of what must die: the image of A, plus B's relations
    killed_cols: list[tuple[int, ...]] = []
    if d_in is not None and d_in.cols:
        if d_in.rows != n_b:
            raise StructuralError("incoming boundary has wrong height")
        killed_cols.extend(d_in.column(j) for j in range(d_in.cols))
    for i, o in enumerate(orders_here):
        if o != 0:
            killed_cols.append(tuple(o if k == i else 0 for k in range(n_b)))

    k = kernel_lattice.cols
    if k == 0:
        return FGAbGroup.zero()
    if not killed_cols:
        return FGAbGroup.free(k)

    snf = smith_normal_form(kernel_lattice)
    coeff_cols = []
    for col in killed_cols:
        try:
            x = solve_integral(kernel_lattice, col, snf)
        except NoIntegralSolution as exc:
            raise StructuralError(
                "relations or incoming image do not land in the kernel "
                "(input is not a complex)") from exc
        coeff_cols.append(x[:k])
    coeff = IntMatrix(k, len(coeff_cols), tuple(zip(*coeff_cols)))
    free, torsion = cokernel_invariants(coeff)
    return FGAbGroup(free, tuple(torsion))


# ---------------------------------------------------------------------------
# degreewise map descriptors and the LES fiber solver


@dataclass(frozen=True)
class MapDescriptor:
    """One degree of a map between GroupExpr values.

    kind:
      "zero"            the zero map
      "iso"             an isomorphism (domain and codomain must agree)
      "mult"            multiplication by ``data`` on matching Z^r atoms
      "row_powers"      CountableFree -> Z, e_k |-> base**k (data = base)
      "row_list"        CountableFree -> Z, finitely many coefficients
      "matrix"          Z^cols -> Z^rows by an IntMatrix
    """

    kind: str
    data: object = None

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def iso(cls):
        return cls("iso")

    @classmethod
    def mult(cls, n: int):
        return cls("mult", n)

    @classmethod
    def row_powers(cls, base: int):
        return cls("row_powers", base)

    @classmethod
    def row_list(cls, coeffs):
        return cls("row_list", tuple(int(c) for c in coeffs))

    @classmethod
    def matrix(cls, m: IntMatrix):
        return cls("matrix", m)


def descriptor_kernel_cokernel(desc: MapDescriptor, domain: GroupExpr,
                               codomain: GroupExpr) -> tuple[GroupExpr, GroupExpr]:
    if desc.kind == "zero":
        return domain, codomain
    if desc.kind == "iso":
        if domain != codomain:
            raise StructuralError("iso descriptor between non-equal expressions")
        return GroupExpr.zero(), GroupExpr.zero()
    if desc.kind == "mult":
        n = abs(int(desc.data))
        r = domain.multiplicity(_Z)
        if domain != GroupExpr.free(r) or codomain != GroupExpr.free(r):
            raise StructuralError("mult descriptor needs matching Z^r atoms")
        if n == 0:
            return domain, codomain
        if n == 1:
            return GroupExpr.zero(), GroupExpr.zero()
        return GroupExpr.zero(), GroupExpr.cyclic(n, r)
    if desc.kind in ("row_powers", "row_list"):
        if domain != GroupExpr.countable_free() or codomain != GroupExpr.free(1):
            raise StructuralError("row descriptor needs CountableFree -> Z")
        if desc.kind == "row_powers":
            g = 1  # the k = 0 coefficient base**0 = 1 already generates
        else:
            g = gcd_many(desc.data)
        # the kernel of any map from a countable free group to Z whose image
        # is g*Z (or 0) is again free of countable rank
        kernel = GroupExpr.countable_free()
        if g == 0:
            return kernel, codomain
        if g == 1:
            return kernel, GroupExpr.zero()
        return kernel, GroupExpr.cyclic(g)
    if desc.kind == "matrix":
        m: IntMatrix = desc.data
        if domain != GroupExpr.free(m.cols) or codomain != GroupExpr.free(m.rows):
            raise StructuralError("matrix descriptor shape mismatch")
        ker_rank = kernel_basis(m).cols
        free, torsion = cokernel_invariants(m)
        coker = GroupExpr.from_fg(FGAbGroup(free, tuple(torsion)))
        return GroupExpr.free(ker_rank), coker
    raise StructuralError(f"unknown descriptor kind {desc.kind!r}")


@dataclass(frozen=True)
class GradedMapData:
    """Degreewise descriptors for a map of graded groups.  Degrees without a
    descriptor must have zero domain or zero codomain."""

    descriptors: tuple[tuple[int, MapDescriptor], ...] = ()

    @classmethod
    def from_dict(cls, d: dict[int, MapDescriptor]) -> "GradedMapData":
        return cls(tuple(sorted(d.items())))

    @classmethod
    def zero(cls) -> "GradedMapData":
        return cls(())

    def at(self, degree: int) -> MapDescriptor | None:
        for d, desc in self.descriptors:
            if d == degree:
                return desc
        return None


def _kernel_cokernel_at(w: GradedGroup, b: GradedGroup, f: GradedMapData,
                        degree: int) -> tuple[GroupExpr, GroupExpr]:
    dom = w.at(degree)
    cod = b.at(degree)
    desc = f.at(degree)
    if desc is None:
        if dom.is_zero():
            return GroupExpr.zero(), cod
        if cod.is_zero():
            return dom, GroupExpr.zero()
        raise StructuralError(
            f"degree {degree}: both sides nonzero but no map descriptor given")
    return descriptor_kernel_cokernel(desc, dom, cod)


def les_fiber(w: GradedGroup, b: GradedGroup, f: GradedMapData,
              lo: int, hi: int) -> GradedGroup:
    """Homology of the fiber F of a map W -> B, assembled degreewise from
    ... -> H_n(F) -> H_n(W) -> H_n(B) -> H_{n-1}(F) -> ...

    In each degree, H_n(F) is an extension of ker(f_n) by coker(f_{n+1});
    the solver only accepts the degenerate cases (one side zero) and raises
    ``IndeterminateExtension`` otherwise.
    """
    values: dict[int, GroupExpr] = {}
    for n in range(lo, hi + 1):
        ker_n, _ = _kernel_cokernel_at(w, b, f, n)
        _, coker_up = _kernel_cokernel_at(w, b, f, n + 1)
        if not ker_n.is_zero() and not coker_up.is_zero():
            raise IndeterminateExtension(n)
        values[n] = ker_n.plus(coker_up)
    return GradedGroup.from_dict(values, known_range=(lo, hi))


def les_exactness_audit(w: GradedGroup, b: GradedGroup, f: GradedMapData,
                        fiber: GradedGroup, lo: int, hi: int) -> bool:
    """Recheck, descriptor by descriptor, that the assembled fiber makes the
    long exact sequence exact in every requested degree."""
    for n in range(lo, hi + 1):
        ker_n, _ = _kernel_cokernel_at(w, b, f, n)
        _, coker_up = _kernel_cokernel_at(w, b, f, n + 1)
        if fiber.at(n) != ker_n.plus(coker_up):
            return False
        if not ker_n.is_zero() and not coker_up.is_zero():
            return False
    return True
