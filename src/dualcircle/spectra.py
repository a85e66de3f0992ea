"""Formal spectrum expressions with exact homology evaluation.

Expressions are trees over a small alphabet of atoms (the sphere, the
suspension spectrum of the circle, the stunted projective spectrum and its
suspension) and constructors (shift, finite wedge, lazy countable wedge).
Countable wedges are indexed families evaluated degreewise, so a homology
query only ever touches the finitely many summand shapes that can
contribute.  The one map is the wedge of circle transfers whose fiber is the
spectrum E; ``fiber_homology`` evaluates such a fiber by the long exact
sequence.

Homology rules stay inside the atom alphabet of ``GroupExpr``; a query
with no rule raises ``EvaluationUnsupported`` instead of approximating.
"""

from __future__ import annotations

from .abgroups import GradedGroup, GroupExpr, MapDescriptor, les_fiber
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


class CPInfShift(Frozen):
    """Suspension of the stunted projective spectrum: one integral class in
    every odd degree >= -1 (the shift of the rule above by one)."""

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

    def graded_data(self) -> dict[int, MapDescriptor]:
        return {0: MapDescriptor.row_powers(self.p)}


# ---------------------------------------------------------------------------
# homology evaluation


def homology(expr, d: int) -> GroupExpr:
    """Integral homology of the expression in one degree."""
    if isinstance(expr, Sphere):
        return GroupExpr.free(1) if d == 0 else GroupExpr.zero()
    if isinstance(expr, SuspCircle):
        return GroupExpr.free(1) if d in (0, 1) else GroupExpr.zero()
    if isinstance(expr, CPInf):
        return GroupExpr.free(1) if (d >= -2 and d % 2 == 0) else GroupExpr.zero()
    if isinstance(expr, CPInfShift):
        return homology(CPInf(), d - 1)
    if isinstance(expr, Shift):
        return homology(expr.inner, d - expr.k)
    if isinstance(expr, Wedge):
        return GroupExpr.zero().plus(*(homology(e, d) for e in expr.parts))
    if isinstance(expr, CountableWedge):
        return _countable_wedge_homology(expr.family, d)
    raise EvaluationUnsupported(f"no homology rule for {type(expr).__name__}")


def _countable_wedge_homology(family: tuple, d: int) -> GroupExpr:
    kind = family[0]
    if kind == "bcyc_ppowers":
        p = family[1]
        if d == 0:
            return GroupExpr.countable_free()
        if d > 0 and d % 2 == 1:
            return GroupExpr.torsion_tower(p)
        return GroupExpr.zero()
    if kind == "orbits_all":
        return GroupExpr.countable_free() if d in (0, 1) else GroupExpr.zero()
    raise EvaluationUnsupported(f"unknown countable family {kind!r}")


def homology_graded(expr, lo: int, hi: int) -> GradedGroup:
    return GradedGroup.from_dict(
        {d: homology(expr, d) for d in range(lo, hi + 1)},
        known_range=(lo, hi))


def fiber_homology(map_expr, lo: int, hi: int) -> GradedGroup:
    """Homology of the fiber of a map expression with a degreewise
    realization (``graded_data``), via the long exact sequence."""
    w = homology_graded(map_expr.domain, lo - 1, hi + 1)
    b = homology_graded(map_expr.codomain, lo - 1, hi + 1)
    return les_fiber(w, b, map_expr.graded_data(), lo, hi)
