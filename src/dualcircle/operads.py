"""Exact-arithmetic model of a non-symmetric operad of shifted diagonals,
its strict and large-shift suboperads, and the induced action on a cube
model of suspension coordinates.

An arity-n point is a tuple of n-1 nonnegative rationals (t_1, ..., t_{n-1});
by convention the point is really (t_1, ..., t_{n-1}, 0) inside the
nonnegative orthant of dimension n, with the last coordinate pinned to zero.
Keeping the trailing zero implicit makes that pinning a property of the
representation instead of a runtime check.  Each point set is convex; no
claim about homotopy type is encoded here.

Points and action maps store their coordinates as integer numerators
``nums`` over one positive denominator ``den`` in lowest terms,
``gcd(den, *nums) == 1``, so equal rationals have equal ``(nums, den)`` and
every axiom check in the test suite is a decidable equality of integers.
Composition scales to the lcm of the denominators and adds integers; the
sums need no reduction (see ``compose``).  ``shifts`` and ``shift_vector``
read the coordinates back as ``fractions.Fraction``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .frozen import Frozen, _new, _set


class ArityMismatch(Exception):
    def __init__(self, expected: int, given: int):
        self.expected = expected
        self.given = given
        super().__init__(f"expected {expected} inner points, got {given}")


class DomainError(Exception):
    pass


def _over_common_denominator(pairs) -> tuple[tuple[int, ...], int]:
    """The rationals n/d of the integer pairs (n, d), d > 0, as numerators
    over one denominator, in lowest terms."""
    pairs = list(pairs)
    if any(d < 1 for _, d in pairs):
        raise DomainError("denominators must be positive")
    den = lcm(*(d for _, d in pairs))
    nums = [n * (den // d) for n, d in pairs]
    g = gcd(den, *nums)
    return tuple([n // g for n in nums]), den // g


class _Rationals(Frozen):
    """An immutable tuple of rationals held as ``nums`` over ``den``."""

    __slots__ = ("nums", "den")
    _field = ""  # the public name of the coordinates, for ``repr``

    def __init__(self, values):
        nums, den = _over_common_denominator(
            (f.numerator, f.denominator) for f in map(Fraction, values))
        self._validate(nums, den)
        _set(self, "nums", nums)
        _set(self, "den", den)

    @classmethod
    def _trusted(cls, nums: tuple[int, ...], den: int):
        """An instance of coordinates already valid and in lowest terms."""
        self = _new(cls)
        _set(self, "nums", nums)
        _set(self, "den", den)
        return self

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def _fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={self._fractions()!r})"


class OperadPoint(_Rationals):
    """A point of the arity-(len(shifts)+1) operad space; built from any
    rationals (ints, strings, Fractions)."""

    __slots__ = ()
    _field = "shifts"

    @classmethod
    def from_pairs(cls, pairs) -> "OperadPoint":
        """The point whose shifts are n/d for the integer pairs (n, d)."""
        nums, den = _over_common_denominator(pairs)
        cls._validate(nums, den)
        return cls._trusted(nums, den)

    @staticmethod
    def _validate(nums, den):
        for n in nums:
            if n < 0:
                raise DomainError(f"negative shift coordinate {Fraction(n, den)}")

    @property
    def shifts(self) -> tuple[Fraction, ...]:
        return self._fractions()

    @property
    def arity(self) -> int:
        return len(self.nums) + 1

    def to_json(self) -> str:
        return json.dumps([str(t) for t in self.shifts])

    def __str__(self):
        return "(" + ", ".join(str(t) for t in self.shifts) + ")"


def compose(outer: OperadPoint, inners: list[OperadPoint]) -> OperadPoint:
    """Operadic substitution: slot (i, j) of the result is t_i + s^i_j.

    >>> p = compose(OperadPoint((Fraction(1),)),
    ...             [OperadPoint((Fraction(2),)), OperadPoint((Fraction(3),))])
    >>> str(p)
    '(3, 1, 3)'
    """
    if len(inners) != outer.arity:
        raise ArityMismatch(outer.arity, len(inners))
    den = outer.den
    for p in inners:
        if den % p.den:
            den = lcm(den, p.den)
    scale = den // outer.den
    nums = []
    # slot i < k: t_i + s^i_j for each j, then t_i plus the trailing zero
    for t, inner in zip(outer.nums, inners):
        t *= scale
        k = den // inner.den
        if k == 1 and not t:
            nums.extend(inner.nums)
        else:
            nums.extend([t + k * s for s in inner.nums])
        nums.append(t)
    # slot k: t_k = 0, and the last inner's trailing zero is the result's
    k = den // inners[-1].den
    nums.extend(inners[-1].nums if k == 1 else [k * s for s in inners[-1].nums])
    # No gcd is needed.  Let q^e exactly divide den.  Either some t_i has
    # q-part q^e in its denominator, and t_i is itself a slot (t_i plus the
    # trailing zero of inner i); or some s^i_j has it and t_i a smaller one,
    # and then t_i + s^i_j has it.  That slot's numerator is prime to q.
    return OperadPoint._trusted(tuple(nums), den)


OPERAD_TAGS = ("O", "A", "Oprime", "Zop")


def is_member(operad: str, point: OperadPoint) -> bool:
    """Membership in the full operad or one of its suboperads.

    "A" is the strict-diagonal suboperad (all shifts zero), "Oprime" the
    large-shift suboperad (arity one, or every shift at least 1), and "Zop"
    shares A's point set but is flagged to act by zero.
    """
    if operad not in OPERAD_TAGS:
        raise ValueError(f"unknown operad tag {operad!r}")
    if operad == "O":
        return True
    if operad in ("A", "Zop"):
        return not any(point.nums)
    return all(n >= point.den for n in point.nums)


class SuspensionActionMap(_Rationals):
    """The map of suspension coordinates induced by an operad point: one
    circle coordinate s goes to (s + t_1, ..., s + t_{n-1}, s), and the
    label is duplicated n times."""

    __slots__ = ()
    _field = "shift_vector"

    @staticmethod
    def _validate(nums, den):
        if not nums:
            raise DomainError("shift vector must be nonempty")
        if nums[-1] != 0:
            raise DomainError("last entry of a shift vector must be 0")
        for n in nums:
            if n < 0:
                raise DomainError(f"negative shift entry {Fraction(n, den)}")

    @property
    def shift_vector(self) -> tuple[Fraction, ...]:
        return self._fractions()

    @property
    def arity(self) -> int:
        return len(self.nums)


def action_map(point: OperadPoint) -> SuspensionActionMap:
    """The suspension-coordinate action of an operad point."""
    # an appended zero keeps the denominator in lowest terms
    return SuspensionActionMap._trusted(point.nums + (0,), point.den)


class CubePoint(Frozen):
    """A point of the open-cube model of S^n smashed with n label copies.
    ``coords`` is None at the basepoint."""

    __slots__ = ("coords", "label_copies")

    def __init__(self, coords: tuple[Fraction, ...] | None, label_copies: int = 0):
        if coords is not None:
            if label_copies < 1:
                raise DomainError("interior points carry at least one label copy")
            for c in coords:
                if not (0 < c < 1):
                    raise DomainError(f"interior coordinate {c} not in (0,1)")
        _set(self, "coords", coords)
        _set(self, "label_copies", label_copies)

    @property
    def is_basepoint(self) -> bool:
        return self.coords is None


# frozen, so every evaluation that lands on the basepoint may share it
_BASEPOINT = CubePoint(None, 0)


def eval_action(m: SuspensionActionMap, s) -> CubePoint:
    """Evaluate the action at circle coordinate s in (0,1).

    Any translated coordinate landing outside the open unit interval sends
    the whole point to the basepoint.

    >>> eval_action(SuspensionActionMap((Fraction(1), Fraction(0))), Fraction(1, 3)).is_basepoint
    True
    """
    if type(s) is not Fraction:
        s = Fraction(s)
    a, b = s.numerator, s.denominator
    if not 0 < a < b:
        raise DomainError(f"s = {s} not in the open interval (0,1)")
    # s + t > 0 for every shift t >= 0; s + max(t) < 1 decides the rest
    if max(m.nums) * b < (b - a) * m.den:
        return CubePoint(tuple(s + Fraction(n, m.den) for n in m.nums), m.arity)
    return _BASEPOINT


def compose_action_maps(outer: SuspensionActionMap,
                        inners: list[SuspensionActionMap]) -> SuspensionActionMap:
    """Composition of action maps; slot (i, j) shift is outer_i + inner^i_j.

    Agrees with ``action_map(compose(...))`` of the underlying operad
    points, which is the coalgebra-compatibility identity the tests check;
    the two share no code, so the check compares independent sums.  The
    result is in lowest terms for the reason given in ``compose``.
    """
    if len(inners) != outer.arity:
        raise ArityMismatch(outer.arity, len(inners))
    den = outer.den
    for m in inners:
        if den % m.den:
            den = lcm(den, m.den)
    scale = den // outer.den
    nums = []
    for t, inner in zip(outer.nums, inners):
        t *= scale
        k = den // inner.den
        if k == 1 and not t:
            nums.extend(inner.nums)
        else:
            nums.extend([t + k * s for s in inner.nums])
    return SuspensionActionMap._trusted(tuple(nums), den)


def nullhomotopy_point(t) -> OperadPoint:
    """The binary point (t) interpolating the strict diagonal (t = 0) and
    the large-shift suboperad (t = 1)."""
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise DomainError(f"nullhomotopy parameter {t} not in [0,1]")
    return OperadPoint((t,))


class ZeroMapVerdict(NamedTuple):
    is_zero: bool
    witness: Fraction | None


def is_zero_map(m: SuspensionActionMap) -> ZeroMapVerdict:
    """Whether the action map collapses everything to the basepoint.

    The analytic criterion: the map is zero exactly when some shift is at
    least 1 (then s + t >= 1 for every s in (0,1)).  When it is not zero, a
    witness s = (1 - max shift)/2 evaluates to an interior point.
    """
    if m.arity < 2:
        raise DomainError("zero-map criterion applies to arity >= 2 only")
    top = max(m.nums)
    if top >= m.den:
        return ZeroMapVerdict(True, None)
    return ZeroMapVerdict(False, Fraction(m.den - top, 2 * m.den))
