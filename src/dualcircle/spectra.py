"""Formal spectrum expressions with exact homology evaluation.

Expressions are trees over a small alphabet of atoms (the sphere, the
suspension spectrum of the circle and the stunted projective spectrum) and
constructors (shift, finite wedge, lazy countable wedge).  A homology query
walks the tree once for its whole window of degrees.  Countable wedges are
indexed families whose rule is applied degree by degree, so a query only
ever touches the finitely many summand shapes that can contribute.  The
one map is the wedge of circle transfers whose fiber is the spectrum E;
``fiber_homology`` evaluates such a fiber by the long exact sequence.

Homology rules stay inside the atom alphabet of ``GroupExpr``; a query
with no rule raises ``EvaluationUnsupported`` instead of approximating.
"""

from __future__ import annotations

from .abgroups import GradedGroup, GroupExpr, StructuralError, les_fiber
from .frozen import Frozen


class EvaluationUnsupported(Exception):
    pass


# ---------------------------------------------------------------------------
# expression alphabet


class Sphere(Frozen):
    """The sphere spectrum."""

    __slots__ = ()


class SuspCircle(Frozen):
    """Suspension spectrum of the circle with disjoint basepoint."""

    __slots__ = ()


class CPInf(Frozen):
    """Stunted complex projective spectrum with cells from dimension -2:
    one integral class in every even degree >= -2."""

    __slots__ = ()


class Shift(Frozen):
    """The expression ``inner`` shifted up by k degrees."""

    __slots__ = ("k", "inner")


class Wedge(Frozen):
    """The finite wedge of the tuple ``parts``."""

    __slots__ = ("parts",)


class CountableWedge(Frozen):
    """Lazily indexed countable wedge.  ``family`` is one of
    ("bcyc_ppowers", p), the suspension spectra of the classifying spaces
    of the cyclic groups of order p^k for k >= 0, or ("orbits_all",), the
    suspension spectra of the circle orbits S^1/C_n for n >= 1."""

    __slots__ = ("family",)


# ---------------------------------------------------------------------------
# the map whose fiber is E


class WedgeCircleTransfer(Frozen):
    """The wedge over k >= 0 of circle transfers out of the classifying
    spaces of the p-power cyclic groups; on degree-zero homology this is
    the row (1, p, p^2, ...)."""

    __slots__ = ("p",)

    @property
    def domain(self):
        return CountableWedge(("bcyc_ppowers", self.p))

    @property
    def codomain(self):
        return Shift(-1, SuspCircle())

    def kernel_cokernel(self, w: GradedGroup,
                        b: GradedGroup) -> dict[int, tuple[GroupExpr, GroupExpr]]:
        """(kernel, cokernel) by degree, where neither the domain's homology
        ``w`` nor the codomain's ``b`` is zero: degree 0, if in the window."""
        lo, hi = w.known_range
        if not lo <= 0 <= hi:
            return {}
        if w.at(0) != GroupExpr.countable_free() or b.at(0) != GroupExpr.free(1):
            raise StructuralError("the transfer row needs CountableFree -> Z")
        # the row's entry p^0 = 1 generates Z, and the kernel of a map from a
        # countable free group onto Z is again free of countable rank
        return {0: (GroupExpr.countable_free(), GroupExpr.zero())}


# ---------------------------------------------------------------------------
# homology evaluation


def homology_graded(expr, lo: int, hi: int) -> GradedGroup:
    """Integral homology of the expression in every degree of [lo, hi],
    read in one walk of its tree."""
    return GradedGroup((lo, hi), _cells(expr, lo, hi))


def homology(expr, d: int) -> GroupExpr:
    """Integral homology of the expression in one degree: the window [d, d]."""
    return _cells(expr, d, d)[0]


_FREE, _COUNTABLE_FREE, _ZERO = GroupExpr.free(1), GroupExpr.countable_free(), GroupExpr.zero()


def _cells(expr, lo: int, hi: int) -> tuple[GroupExpr, ...]:
    """One cell per degree of [lo, hi]: an atom gives its cells, a shift
    moves the window, a wedge sums its parts cell by cell, and a countable
    wedge applies its family's rule in each degree."""
    degrees = range(lo, hi + 1)
    if isinstance(expr, Sphere):
        return tuple([_FREE if d == 0 else _ZERO for d in degrees])
    if isinstance(expr, SuspCircle):
        return tuple([_FREE if d in (0, 1) else _ZERO for d in degrees])
    if isinstance(expr, CPInf):
        return tuple([_FREE if (d >= -2 and d % 2 == 0) else _ZERO for d in degrees])
    if isinstance(expr, Shift):
        return _cells(expr.inner, lo - expr.k, hi - expr.k)
    if isinstance(expr, Wedge):
        parts = [_cells(e, lo, hi) for e in expr.parts]
        return tuple([GroupExpr.plus(*column) for column in zip([_ZERO] * len(degrees), *parts)])
    if isinstance(expr, CountableWedge):
        return _countable_wedge_cells(expr.family, degrees)
    raise EvaluationUnsupported(f"no homology rule for {type(expr).__name__}")


def _countable_wedge_cells(family: tuple, degrees: range) -> tuple[GroupExpr, ...]:
    kind = family[0]
    if kind == "bcyc_ppowers":
        tower = GroupExpr.torsion_tower(family[1])
        return tuple([_COUNTABLE_FREE if d == 0 else tower if d > 0 and d % 2 == 1 else _ZERO
                      for d in degrees])
    if kind == "orbits_all":
        return tuple([_COUNTABLE_FREE if d in (0, 1) else _ZERO for d in degrees])
    raise EvaluationUnsupported(f"unknown countable family {kind!r}")


def fiber_homology(map_expr, lo: int, hi: int) -> GradedGroup:
    """Homology of the fiber of a map expression in [lo, hi], via the long
    exact sequence, from the map's ``kernel_cokernel``."""
    w = homology_graded(map_expr.domain, lo - 1, hi + 1)
    b = homology_graded(map_expr.codomain, lo - 1, hi + 1)
    return les_fiber(w, b, map_expr.kernel_cokernel(w, b), lo, hi)
