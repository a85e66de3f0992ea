"""The Frobenius/restriction algebra, the spectrum E, and the homology /
rational-homotopy tables of the dual circle.

Genuine C_{p^n} fixed points of the suspension spectrum of the circle
orbits split into n + 1 homotopy-orbit summands, one per subgroup.  The
Frobenius map routes the summands by finite transfers plus one fixed-point
inclusion, and the restriction map deletes the deepest orbit summand and
relabels; ``LevelMap`` holds these routes in a normal form, so the two
composites can be compared exactly.

E is the fiber of the wedge of circle transfers out of the p-power cyclic
classifying spaces (``spectra.WedgeCircleTransfer``), evaluated by the long
exact sequence.  Table 1 is the integral homology of the sphere, the
suspended stunted projective spectrum and E.  Table 2 completes those
homology rows: inside the window n <= 2p - 6, homotopy agrees with
homology modulo torsion prime to p, which rational completion kills, so
``completed_pi_q`` reads each cell straight off a homology row and refuses
a degree past the window.  ``coassembly_conclusion`` assembles the
rational square in degree 4i from the same cells into a verdict.
"""

from __future__ import annotations

import json
from importlib import resources

from .abgroups import GradedGroup, GroupExpr, les_fiber
from .frozen import Frozen
from .primes import is_prime
from .qspaces import SymbolicQSpace, bousfield_pi_q
from .spectra import (
    CPInf,
    Shift,
    Sphere,
    Wedge,
    WedgeCircleTransfer,
    fiber_homology,
    homology_graded,
)


class HurewiczRangeError(ValueError):
    """A table-2 degree past the homology-to-homotopy window; a ValueError,
    so the command line reports it without loading this module."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(
            f"degree {degree} exceeds the homology-to-homotopy window (<= {cap})")


# ---------------------------------------------------------------------------
# the Frobenius / restriction algebra on tom Dieck summands


class NormalMap(Frozen):
    """Normal form of a summand-level map: an optional transfer (orbit
    exponents, descending), an optional fixed-point inclusion (fixed
    exponents, descending), and a count of label identifications.  Transfers
    and inclusions commute past each other and past relabelings, so the
    triple is a faithful normal form for the composites that arise."""

    __slots__ = ("transfer", "inclusion", "relabels")

    def __init__(self, transfer: tuple[int, int] | None, inclusion: tuple[int, int] | None,
                 relabels: int):
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "inclusion", inclusion)
        object.__setattr__(self, "relabels", relabels)

    @classmethod
    def make(cls, transfer=None, inclusion=None, relabels=0) -> "NormalMap":
        if transfer is not None:
            a, b = transfer
            if a < b:
                raise ValueError("transfers go down in orbit exponent")
            if a == b:
                transfer = None
        if inclusion is not None:
            a, b = inclusion
            if a < b:
                raise ValueError("inclusions go down in fixed exponent")
            if a == b:
                inclusion = None
        return cls(transfer, inclusion, relabels)

    def then(self, other: "NormalMap") -> "NormalMap":
        """Composite: self first, then other.

        Fixed-point exponents of the later map are expressed in relabeled
        coordinates, so they shift up by the relabel count already applied;
        orbit exponents of transfers are untouched by relabeling.
        """
        transfer = self.transfer
        if other.transfer is not None:
            if transfer is None:
                transfer = other.transfer
            else:
                if transfer[1] != other.transfer[0]:
                    raise ValueError("transfer chain mismatch")
                transfer = (transfer[0], other.transfer[1])
        inclusion = self.inclusion
        if other.inclusion is not None:
            shifted = (other.inclusion[0] + self.relabels,
                       other.inclusion[1] + self.relabels)
            if inclusion is None:
                inclusion = shifted
            else:
                if inclusion[1] != shifted[0]:
                    raise ValueError("inclusion chain mismatch")
                inclusion = (inclusion[0], shifted[1])
        return NormalMap.make(transfer, inclusion, self.relabels + other.relabels)


class SummandRoute(Frozen):
    """Where ``map`` sends its summand: to summand ``target``, or nowhere
    (None) when the summand is deleted."""

    __slots__ = ("target", "map")

    def __init__(self, target: int | None, map: NormalMap):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", map)


class LevelMap(Frozen):
    """A map between tom Dieck levels: ``routes[k]`` is the route of
    summand k, for k = 0..level_from."""

    __slots__ = ("p", "level_from", "level_to", "routes")

    def then(self, other: "LevelMap") -> "LevelMap":
        if other.level_from != self.level_to or other.p != self.p:
            raise ValueError("level maps do not compose")
        routes = []
        for r in self.routes:
            nxt = None if r.target is None else other.routes[r.target]
            if nxt is None or nxt.target is None:
                # a deleted composite is the zero route, canonically
                routes.append(SummandRoute(None, NormalMap.make()))
            else:
                routes.append(SummandRoute(nxt.target, r.map.then(nxt.map)))
        return LevelMap(self.p, self.level_from, other.level_to, tuple(routes))


def frobenius_route(p: int, n: int, h: int, k: int) -> SummandRoute:
    """Where the inclusion of fixed points sends one summand: at the level
    of the groups G = C_{p^n} >= H = C_{p^h}, the summand of K = C_{p^k}
    lands on the summand of H \\cap K = C_{p^min(h,k)} by a transfer of
    homotopy orbits followed by a fixed-point inclusion."""
    if not (0 <= k <= n and 0 <= h <= n):
        raise ValueError("subgroup exponents out of range")
    target = min(h, k)
    return SummandRoute(
        target, NormalMap.make(transfer=(n - k, h - target), inclusion=(k, target)))


def frobenius_general(p: int, n: int, h: int) -> LevelMap:
    """The full summand routing of the fixed-point inclusion from the
    C_{p^n} level to the C_{p^h} level."""
    return LevelMap(p, n, h, tuple(
        frobenius_route(p, n, h, k) for k in range(n + 1)))


def frobenius_map(p: int, n: int) -> LevelMap:
    """One Frobenius step: level n to level n-1.  Every orbit summand maps
    by a finite transfer; the top fixed-point summand maps by the inclusion.

    >>> [(r.target, r.map.transfer, r.map.inclusion) for r in frobenius_map(2, 1).routes]
    [(0, (1, 0), None), (0, None, (1, 0))]
    """
    if n < 1:
        raise ValueError("Frobenius needs a positive level")
    return frobenius_general(p, n, n - 1)


def restriction_map(p: int, n: int) -> LevelMap:
    """One restriction step: deletes the deepest homotopy-orbit summand and
    relabels the remaining summands one step down."""
    if n < 1:
        raise ValueError("restriction needs a positive level")
    routes = [SummandRoute(None, NormalMap.make())]
    routes += [SummandRoute(i - 1, NormalMap.make(relabels=1)) for i in range(1, n + 1)]
    return LevelMap(p, n, n - 1, tuple(routes))


def check_fr_commute(p: int, n: int) -> bool:
    """Symbolic equality of the two composites F(R(-)) and R(F(-)) from
    level n down to level n-2."""
    if n < 2:
        raise ValueError("need level at least 2")
    fr = restriction_map(p, n).then(frobenius_map(p, n - 1))
    rf = frobenius_map(p, n).then(restriction_map(p, n - 1))
    return fr == rf


# ---------------------------------------------------------------------------
# the spectrum E


def e_homology(p: int, lo: int, hi: int) -> GradedGroup:
    """Integral homology of E in the window [lo, hi].

    >>> h = e_homology(3, -2, 4)
    >>> [str(h.at(d)) for d in range(-2, 5)]
    ['Z', '0', '(+)_k Z', '(+)_k Z/3^k', '0', '(+)_k Z/3^k', '0']
    """
    return fiber_homology(WedgeCircleTransfer(p), lo, hi)


def e_homology_zero_row(p: int, lo: int, hi: int) -> GradedGroup:
    """Same fiber computation with the degree-zero transfer row replaced by
    zero; used as a negative control (a zero row must change H_{-1})."""
    transfer = WedgeCircleTransfer(p)
    w = homology_graded(transfer.domain, lo - 1, hi + 1)
    b = homology_graded(transfer.codomain, lo - 1, hi + 1)
    return les_fiber(w, b, {0: (w.at(0), b.at(0))}, lo, hi)


# ---------------------------------------------------------------------------
# homology-to-homotopy passage (mod torsion prime to p, bounded window)


def hurewicz_cap(p: int) -> int:
    return 2 * p - 6


def completed_pi_q(h: GradedGroup, p: int, n: int) -> SymbolicQSpace:
    """Rational homotopy of the p-completion in degree n, read off the
    homology row ``h``; only for n <= 2p - 6, where homotopy agrees with
    homology modulo torsion prime to p.  That torsion needs no filtering:
    Ext(Z/p^oo, -) and Hom(Z/p^oo, -) vanish on it rationally, as they do
    on every finite group.

    >>> str(completed_pi_q(e_homology(7, -3, 8), 7, 0))
    'A'
    """
    cap = hurewicz_cap(p)
    if n > cap:
        raise HurewiczRangeError(n, cap)
    return bousfield_pi_q(h, p, n)


# ---------------------------------------------------------------------------
# table 1: integral homology of the three wedge components


TABLE1_ROW_LABELS = ("S", "SigmaCP^oo_-1", "E")


def table1(p: int, lo: int = -2, hi: int = 4) -> dict[str, GradedGroup]:
    """Integral homology of the sphere, the suspended stunted projective
    spectrum, and E, per degree in [lo, hi]."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return {
        "S": homology_graded(Sphere(), lo, hi),
        "SigmaCP^oo_-1": homology_graded(Shift(1, CPInf()), lo, hi),
        "E": e_homology(p, lo, hi),
    }


# ---------------------------------------------------------------------------
# table 2: rational homotopy of the p-completions


TABLE2_ROW_LABELS = (
    "K(S)",
    "DS^1 ^ K(S)",
    "TC(S)^_p",
    "(DS^1 ^ TC(S))^_p",
    "E^_p",
    "TC(DS^1)^_p",
)

TABLE2_LO, TABLE2_HI = -2, 6


def k_sphere_rational(n: int) -> SymbolicQSpace:
    """Rational homotopy of the algebraic K-theory of the sphere: one line
    in degree 0 and one in each degree 4k+1, k >= 1.  External input
    constant."""
    if n == 0 or (n >= 5 and n % 4 == 1):
        return SymbolicQSpace.rational(1)
    return SymbolicQSpace.zero()


def dual_smash_row(row) -> dict[int, SymbolicQSpace]:
    """Shift-sum rule for smashing with the dual circle (a sphere wedge a
    desuspended sphere): degree n picks up degrees n and n+1."""
    return {n: row(n).plus(row(n + 1)) for n in range(TABLE2_LO, TABLE2_HI + 1)}


TC_SPHERE_MODEL = Wedge((Sphere(), Shift(1, CPInf())))


def tc_sphere_model_homology(lo: int, hi: int) -> GradedGroup:
    """Integral homology of the wedge modelling the p-complete cyclic
    homology of the sphere: sphere wedge suspended stunted projective."""
    return homology_graded(TC_SPHERE_MODEL, lo, hi)


def dual_tc_sphere_model_homology(lo: int, hi: int) -> GradedGroup:
    """Integral homology of the dual circle (a sphere wedge a desuspended
    sphere) smashed with that model: degree n picks up degrees n and n+1."""
    return homology_graded(Wedge((TC_SPHERE_MODEL, Shift(-1, TC_SPHERE_MODEL))), lo, hi)


def tc_dual_circle_model_homology(sphere_model: GradedGroup, e: GradedGroup) -> GradedGroup:
    """Integral homology of sphere + suspended stunted projective (the row
    ``sphere_model``) + a countable wedge of copies of E (the row ``e``)."""
    return sphere_model.wedge(e.countable_sum())


class Table2(Frozen):
    """The table of prime p over ``degrees``: ``rows`` maps each row label
    to its cells by degree, None for a degree past ``cap``."""

    __slots__ = ("p", "cap", "degrees", "rows")

    def cell(self, label: str, n: int):
        return self.rows[label][n]


def table2(p: int, truncate_out_of_range: bool = False) -> Table2:
    """The six-row rational homotopy table over degrees -2..6.

    Completed rows are read off homology, so they hold only in degrees
    <= 2p - 6; for p < 7 the higher columns are marked out of range (None)
    when truncation is allowed, and raise otherwise.  Each homology row is
    evaluated once; the dual-circle row wedges the sphere model's and E's.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cap = hurewicz_cap(p)
    if cap < TABLE2_HI and not truncate_out_of_range:
        raise HurewiczRangeError(TABLE2_HI, cap)
    degrees = tuple(range(TABLE2_LO, TABLE2_HI + 1))

    def row(cell) -> dict:
        return {n: (cell(n) if n <= cap else None) for n in degrees}

    rows = {"K(S)": row(k_sphere_rational),
            "DS^1 ^ K(S)": row(dual_smash_row(k_sphere_rational).get)}
    lo, hi = TABLE2_LO - 1, TABLE2_HI  # a completed cell in degree n reads n and n - 1
    sphere_model, e = tc_sphere_model_homology(lo, hi), e_homology(p, lo, hi)
    for label, h in (("TC(S)^_p", sphere_model),
                     ("(DS^1 ^ TC(S))^_p", dual_tc_sphere_model_homology(lo, hi)),
                     ("E^_p", e),
                     ("TC(DS^1)^_p", tc_dual_circle_model_homology(sphere_model, e))):
        rows[label] = row(lambda n: completed_pi_q(h, p, n))
    return Table2(p, cap, degrees, rows)


def table2_wedge_check(t: Table2) -> bool:
    """Independent recomputation of the dual-circle row as the normalized
    symbolic wedge of the component rows: the sphere and projective-space
    contributions plus a countable sum of the E row."""
    lo, hi = TABLE2_LO - 1, TABLE2_HI
    sphere = homology_graded(Sphere(), lo, hi)
    cp = homology_graded(Shift(1, CPInf()), lo, hi)
    return all(
        completed_pi_q(sphere, t.p, n).plus(completed_pi_q(cp, t.p, n),
                                            t.cell("E^_p", n).countable_sum())
        == t.cell("TC(DS^1)^_p", n)
        for n in t.degrees if n <= t.cap)


def dual_tc_shift_sum_check(t: Table2) -> bool:
    """The smashed row must also equal the shift-sum of the completed
    sphere row, wherever both cells sit inside the window."""
    base = t.rows["TC(S)^_p"]
    past = tc_sphere_model_homology(TABLE2_HI, TABLE2_HI + 1)  # for the cell past the table
    for n in t.degrees:
        if n + 1 > t.cap:
            continue
        upper = base[n + 1] if n + 1 <= TABLE2_HI else completed_pi_q(past, t.p, n + 1)
        if t.cell("(DS^1 ^ TC(S))^_p", n) != base[n].plus(upper):
            return False
    return True


# ---------------------------------------------------------------------------
# expected tables (embedded reference fixture)


def _load_fixture() -> dict:
    text = resources.files("dualcircle").joinpath(
        "fixtures/expected_tables.json").read_text()
    return json.loads(text)


def _expected(name: str, read) -> dict:
    """The reference table ``name`` by row label, then degree, with each
    cell word turned into a value by ``read``."""
    fx = _load_fixture()[name]
    lo = fx["degrees"][0]
    return {label: {lo + i: read(cell) for i, cell in enumerate(cells)}
            for label, cells in fx["rows"].items()}


def _diff(name: str, expected: dict, got) -> list[str]:
    """One line for each cell of ``expected`` that ``got(label, degree)``
    differs from; a cell where ``got`` gives None is not compared."""
    problems = []
    for label, row in expected.items():
        for d, cell in row.items():
            value = got(label, d)
            if value is not None and value != cell:
                problems.append(f"{name}[{label}][{d}]: got {value}, expected {cell}")
    return problems


_TABLE1_VOCAB = {
    "0": lambda p: GroupExpr.zero(),
    "Z": lambda p: GroupExpr.free(1),
    "Sum_k Z": lambda p: GroupExpr.countable_free(),
    "Sum_k Z/p^k": lambda p: GroupExpr.torsion_tower(p),
}

_TABLE2_VOCAB = {
    "0": SymbolicQSpace.zero(),
    "Q": SymbolicQSpace.rational(1),
    "Q^2": SymbolicQSpace.rational(2),
    "Qp": SymbolicQSpace.padic(1),
    "Qp^2": SymbolicQSpace.padic(2),
    "A": SymbolicQSpace.ext_free_countable(),
    "B": SymbolicQSpace.ext_tower(1),
    "B_oo": SymbolicQSpace.ext_tower_countable(),
}


def expected_table1(p: int) -> dict[str, dict[int, GroupExpr]]:
    return _expected("table1", lambda cell: _TABLE1_VOCAB[cell](p))


def expected_table2() -> dict[str, dict[int, SymbolicQSpace]]:
    return _expected("table2", lambda cell: _TABLE2_VOCAB[cell])


def diff_table1(computed: dict[str, GradedGroup],
                expected: dict[str, dict[int, GroupExpr]]) -> list[str]:
    """Cell-for-cell comparison against ``expected`` in the window of each
    computed row; returns a list of mismatch descriptions (empty on exact
    agreement)."""
    def got(label, d):
        lo, hi = computed[label].known_range
        return computed[label].at(d) if lo <= d <= hi else None
    return _diff("table1", expected, got)


def diff_table2(t: Table2) -> list[str]:
    return _diff("table2", expected_table2(), t.cell)


# ---------------------------------------------------------------------------
# the coassembly verdict


class CoassemblyVerdict(Frozen):
    """``status`` is "zero"; "inconclusive" when ``failed_hypothesis``
    fails; "open" when the hypotheses hold but the assembled ``square`` in
    ``degree`` does not close."""

    __slots__ = ("status", "degree", "failed_hypothesis", "square")

    def summary(self) -> str:
        if self.status == "zero":
            return f"coassembly is zero on pi_{self.degree}^Q"
        if self.status == "open":
            return f"assembled square in degree {self.degree} did not close"
        return f"inconclusive in degree {self.degree}: {self.failed_hypothesis}"


def coassembly_conclusion(i: int, p: int, p_regular: bool) -> CoassemblyVerdict:
    """Assemble the commuting square of rational homotopy groups in degree
    4i and conclude.

    With p regular and p >= 2i + 3: the target corner (dual circle smashed
    with sphere K-theory) is a rational line; the completed dual-circle
    corner vanishes; the right-hand map is rationally injective (an input
    fact about the trace at regular primes), so the top map is zero.

    >>> coassembly_conclusion(1, 5, True).summary()
    'coassembly is zero on pi_4^Q'
    """
    if i < 1:
        raise ValueError("i must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degree = 4 * i
    if p < 2 * i + 3:
        return CoassemblyVerdict(
            "inconclusive", degree,
            f"window hypothesis fails: p = {p} < 2i + 3 = {2 * i + 3}",
            {})
    if not p_regular:
        return CoassemblyVerdict(
            "inconclusive", degree,
            "regularity hypothesis not established for p",
            {})

    # the four corners at degree 4i
    top_right = k_sphere_rational(degree).plus(k_sphere_rational(degree + 1))
    lo = degree - 1
    bottom_left = completed_pi_q(tc_dual_circle_model_homology(
        tc_sphere_model_homology(lo, degree), e_homology(p, lo, degree)), p, degree)
    bottom_right = completed_pi_q(dual_tc_sphere_model_homology(lo, degree), p, degree)

    square = {
        "top_left": "pi^Q of K of the dual circle (unknown)",
        "top_right": str(top_right),
        "bottom_left": str(bottom_left),
        "bottom_right": str(bottom_right),
        "right_map": "rationally injective (trace at a regular prime)",
    }
    if top_right == SymbolicQSpace.rational(1) and bottom_left.is_zero() \
            and not bottom_right.is_zero():
        return CoassemblyVerdict("zero", degree, None, square)
    return CoassemblyVerdict("open", degree, None, square)
