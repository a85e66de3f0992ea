"""Symbolic rational vector spaces for the homotopy tables of p-completed
spectra.

A cell of the rational-homotopy table is a formal sum over the atoms

    Q        a rational line (uncompleted rows only)
    Qp       Ext(Z/p^oo, Z) tensor Q, the p-adic rational line
    A        Ext(Z/p^oo, (+)^oo Z) tensor Q
    B        Ext(Z/p^oo, (+)_{k>=0} Z/p^k) tensor Q
    B_oo     Ext(Z/p^oo, (+)^oo (+)_{k>=0} Z/p^k) tensor Q

The absorption rules implemented by ``normalize`` are exactly the
identifications the table cells rely on (each of A, B, B_oo contains every
finite Qp^n as a retract, and B_oo swallows B):

    A  + Qp^n = A        B + Qp^n = B        B_oo + Qp^n = B_oo
    B_oo + B  = B_oo     A + A = A

plus the countable-sum rules used when a wedge of countably many identical
summands is completed as a whole:

    (+)^oo Qp = A        (+)^oo B = B_oo
"""

from __future__ import annotations

from .abgroups import GroupExpr, GradedGroup, UnsupportedAtom
from .frozen import Frozen


class SymbolicQSpace(Frozen):
    """A formal sum: Q^q (Q^oo when ``q_countable``), Qp^qp, A when ``a``,
    B^b, and B_oo when ``binf``; ``make`` applies the absorption rules."""

    __slots__ = ("q", "q_countable", "qp", "a", "b", "binf")

    def __init__(self, q: int, q_countable: bool, qp: int, a: bool, b: int, binf: bool):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_countable", q_countable)
        object.__setattr__(self, "qp", qp)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "binf", binf)

    @classmethod
    def make(cls, q=0, q_countable=False, qp=0, a=False, b=0, binf=False) -> "SymbolicQSpace":
        if binf:
            b = 0
        if a or b or binf:
            qp = 0
        if q_countable:
            q = 0
        return cls(q, q_countable, qp, a, b, binf)

    @classmethod
    def zero(cls):
        return cls.make()

    @classmethod
    def rational(cls, n: int = 1):
        return cls.make(q=n)

    @classmethod
    def padic(cls, n: int = 1):
        return cls.make(qp=n)

    @classmethod
    def ext_free_countable(cls):
        return cls.make(a=True)

    @classmethod
    def ext_tower(cls, n: int = 1):
        return cls.make(b=n)

    @classmethod
    def ext_tower_countable(cls):
        return cls.make(binf=True)

    def plus(self, *others: "SymbolicQSpace") -> "SymbolicQSpace":
        q, qc, qp, a, b, binf = (self.q, self.q_countable, self.qp,
                                 self.a, self.b, self.binf)
        for o in others:
            q += o.q
            qc = qc or o.q_countable
            qp += o.qp
            a = a or o.a
            b += o.b
            binf = binf or o.binf
        return SymbolicQSpace.make(q, qc, qp, a, b, binf)

    def countable_sum(self) -> "SymbolicQSpace":
        return SymbolicQSpace.make(
            q=0,
            q_countable=self.q_countable or self.q > 0,
            qp=0,
            a=self.a or self.qp > 0,
            b=0,
            binf=self.binf or self.b > 0,
        )

    def is_zero(self) -> bool:
        return self == SymbolicQSpace.zero()

    def __str__(self):
        parts = []
        if self.q_countable:
            parts.append("Q^oo")
        elif self.q == 1:
            parts.append("Q")
        elif self.q > 1:
            parts.append(f"Q^{self.q}")
        if self.qp == 1:
            parts.append("Q_p")
        elif self.qp > 1:
            parts.append(f"Q_p^{self.qp}")
        if self.a:
            parts.append("A")
        if self.b == 1:
            parts.append("B")
        elif self.b > 1:
            parts.append(f"B^{self.b}")
        if self.binf:
            parts.append("B_oo")
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self):
        tags = []
        if self.q_countable:
            tags.append({"atom": "Q^oo", "multiplicity": "1"})
        elif self.q:
            tags.append({"atom": "Q", "multiplicity": str(self.q)})
        if self.qp:
            tags.append({"atom": "Qp", "multiplicity": str(self.qp)})
        if self.a:
            tags.append({"atom": "A", "multiplicity": "1"})
        if self.b:
            tags.append({"atom": "B", "multiplicity": str(self.b)})
        if self.binf:
            tags.append({"atom": "B_oo", "multiplicity": "1"})
        return tags


def _ext_atom(kind: str, param, mult: int, p: int) -> SymbolicQSpace:
    if kind == "Z":
        return SymbolicQSpace.padic(mult)
    if kind == "Zmod":
        return SymbolicQSpace.zero()  # finite group tensored with Q
    if kind == "CountableFree":
        return SymbolicQSpace.ext_free_countable()
    if kind == "TorsionTower":
        return SymbolicQSpace.ext_tower(mult) if param == p else SymbolicQSpace.zero()
    if kind == "CountableTowerSum":
        return SymbolicQSpace.ext_tower_countable() if param == p else SymbolicQSpace.zero()
    raise UnsupportedAtom(f"Ext(Z/p^oo, -) tensor Q undefined for atom {kind!r}")


def _hom_atom(kind: str, param, mult: int, p: int) -> SymbolicQSpace:
    # every supported atom is a direct sum of cyclic groups, hence reduced:
    # it has no divisible subgroup, so any map out of Z/p^oo is zero
    if kind in ("Z", "Zmod", "CountableFree", "TorsionTower", "CountableTowerSum"):
        return SymbolicQSpace.zero()
    raise UnsupportedAtom(f"Hom(Z/p^oo, -) tensor Q undefined for atom {kind!r}")


def ext_pinf_q(g: GroupExpr, p: int) -> SymbolicQSpace:
    """Ext(Z/p^oo, g) tensor Q, computed atomwise.

    >>> str(ext_pinf_q(GroupExpr.free(1), 5))
    'Q_p'
    >>> str(ext_pinf_q(GroupExpr.countable_free(), 5))
    'A'
    """
    out = SymbolicQSpace.zero()
    for kind, param, mult in g.atoms:
        out = out.plus(_ext_atom(kind, param, mult, p))
    return out


def hom_pinf_q(g: GroupExpr, p: int) -> SymbolicQSpace:
    """Hom(Z/p^oo, g) tensor Q; zero on every atom in scope, but unknown
    atoms raise rather than silently vanishing."""
    out = SymbolicQSpace.zero()
    for kind, param, mult in g.atoms:
        out = out.plus(_hom_atom(kind, param, mult, p))
    return out


def bousfield_pi_q(g: GradedGroup, p: int, n: int) -> SymbolicQSpace:
    """Rationalized homotopy of the p-completion of X in degree n, read off
    the split short exact sequence

        0 -> Ext(Z/p^oo, pi_n X) -> pi_n(X^_p) -> Hom(Z/p^oo, pi_{n-1} X) -> 0

    with ``g`` in place of pi_* X.  ``g`` may also be the homology of X in
    degrees where the two agree modulo torsion prime to p, since both
    functors vanish rationally on that torsion (``tc.completed_pi_q``
    enforces that window).  ``g`` must be defined at degrees n and n-1 (its
    known_range enforces this)."""
    return ext_pinf_q(g.at(n), p).plus(hom_pinf_q(g.at(n - 1), p))
