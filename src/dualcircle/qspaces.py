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

A countable sum of Q is refused: no cell that the tables sum countably
holds Q.
"""

from __future__ import annotations

from .abgroups import GroupExpr, GradedGroup, UnsupportedAtom
from .frozen import Frozen, _new, _set


class SymbolicQSpace(Frozen):
    """A formal sum: Q^q, Qp^qp, A when ``a``, B^b, and B_oo when
    ``binf``; ``make`` applies the absorption rules."""

    __slots__ = ("q", "qp", "a", "b", "binf")

    @staticmethod
    def make(q=0, qp=0, a=False, b=0, binf=False) -> "SymbolicQSpace":
        """The normal form, built once: the absorption rules are applied
        and the fields set directly, since the result is canonical by
        construction; every zero is the one shared value."""
        if binf:
            b = 0
        if a or b or binf:
            qp = 0
        elif not q and not qp:
            return _ZERO_QSPACE
        v = _new(SymbolicQSpace)
        _set(v, "q", q)
        _set(v, "qp", qp)
        _set(v, "a", a)
        _set(v, "b", b)
        _set(v, "binf", binf)
        return v

    @staticmethod
    def zero():
        return _ZERO_QSPACE

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
        q, qp, a, b, binf = self.q, self.qp, self.a, self.b, self.binf
        for o in others:
            q += o.q
            qp += o.qp
            a = a or o.a
            b += o.b
            binf = binf or o.binf
        return SymbolicQSpace.make(q, qp, a, b, binf)

    def countable_sum(self) -> "SymbolicQSpace":
        """The countable sum, by the rules above; a rational line has none
        here, since no table cell that is summed countably holds Q."""
        if self.q:
            raise UnsupportedAtom("countable sum of Q atoms has no representation here")
        return SymbolicQSpace.make(a=self.a or self.qp > 0, binf=self.binf or self.b > 0)

    def is_zero(self) -> bool:
        return not (self.q or self.qp or self.a or self.b or self.binf)

    def __str__(self):
        parts = []
        if self.q == 1:
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
        if self.q:
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


# values are immutable, so one zero serves every caller
_ZERO_QSPACE = SymbolicQSpace(0, 0, False, 0, False)


def ext_pinf_q(g: GroupExpr, p: int) -> SymbolicQSpace:
    """Ext(Z/p^oo, g) tensor Q, read off the atoms of ``g`` in one pass: a
    finite cyclic atom, and a tower at a prime other than p, add nothing.
    ``GroupExpr`` admits no atom outside these five kinds.

    >>> str(ext_pinf_q(GroupExpr.free(1), 5))
    'Q_p'
    >>> str(ext_pinf_q(GroupExpr.countable_free(), 5))
    'A'
    """
    qp, a, b, binf = 0, False, 0, False
    for kind, param, mult in g.atoms:
        if kind == "Z":
            qp += mult
        elif kind == "CountableFree":
            a = True
        elif kind == "TorsionTower" and param == p:
            b += mult
        elif kind == "CountableTowerSum" and param == p:
            binf = True
    return SymbolicQSpace.make(qp=qp, a=a, b=b, binf=binf)


def bousfield_pi_q(g: GradedGroup, p: int, n: int) -> SymbolicQSpace:
    """Rationalized homotopy of the p-completion of X in degree n, read off
    the split short exact sequence

        0 -> Ext(Z/p^oo, pi_n X) -> pi_n(X^_p) -> Hom(Z/p^oo, pi_{n-1} X) -> 0

    with ``g`` in place of pi_* X.  ``g`` may also be the homology of X in
    degrees where the two agree modulo torsion prime to p, since both
    functors vanish rationally on that torsion (``tc.completed_pi_q``
    enforces that window).  Every atom of ``GroupExpr`` is a direct sum of
    cyclic groups, hence reduced, so every map out of Z/p^oo into it is zero
    and the Hom term vanishes; ``g`` must still be defined at degrees n and
    n-1 (its known_range enforces this)."""
    g.at(n - 1)
    return ext_pinf_q(g.at(n), p)
