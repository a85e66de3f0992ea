"""Exact-arithmetic model of a non-symmetric operad of shifted diagonals,
its strict and large-shift suboperads, and the induced action on a cube
model of suspension coordinates.

An arity-n point is a tuple of n-1 nonnegative rationals (t_1, ..., t_{n-1});
by convention the point is really (t_1, ..., t_{n-1}, 0) inside the
nonnegative orthant of dimension n, with the last coordinate pinned to zero.
Keeping the trailing zero implicit makes that pinning a property of the
representation instead of a runtime check.  Each point set is convex; no
claim about homotopy type is encoded here.

Coordinates are ``fractions.Fraction`` throughout, so every axiom check in
the test suite is a decidable equality of rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class ArityMismatch(Exception):
    def __init__(self, expected: int, given: int):
        self.expected = expected
        self.given = given
        super().__init__(f"expected {expected} inner points, got {given}")


class DomainError(Exception):
    pass


def _as_fraction(x) -> Fraction:
    return Fraction(x)


@dataclass(frozen=True)
class OperadPoint:
    """A point of the arity-(len(shifts)+1) operad space."""

    shifts: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(_as_fraction(t) for t in self.shifts))
        for t in self.shifts:
            if t < 0:
                raise DomainError(f"negative shift coordinate {t}")

    @property
    def arity(self) -> int:
        return len(self.shifts) + 1

    def padded(self) -> tuple[Fraction, ...]:
        """All arity coordinates, including the implicit trailing zero."""
        return self.shifts + (Fraction(0),)

    def to_json(self) -> str:
        return json.dumps([str(t) for t in self.shifts])

    @classmethod
    def from_json(cls, text: str) -> "OperadPoint":
        return cls(tuple(Fraction(s) for s in json.loads(text)))

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
    coords = []
    for t, inner in zip(outer.padded(), inners):
        coords.extend(t + s for s in inner.padded())
    # the last slot is t_k + 0 with t_k = 0, so the convention is preserved
    assert coords[-1] == 0
    return OperadPoint(tuple(coords[:-1]))


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
        return all(t == 0 for t in point.shifts)
    return point.arity == 1 or all(t >= 1 for t in point.shifts)


@dataclass(frozen=True)
class SuspensionActionMap:
    """The map of suspension coordinates induced by an operad point: one
    circle coordinate s goes to (s + t_1, ..., s + t_{n-1}, s), and the
    label is duplicated n times."""

    shift_vector: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift_vector",
                           tuple(_as_fraction(t) for t in self.shift_vector))
        if not self.shift_vector:
            raise DomainError("shift vector must be nonempty")
        if self.shift_vector[-1] != 0:
            raise DomainError("last entry of a shift vector must be 0")
        for t in self.shift_vector:
            if t < 0:
                raise DomainError(f"negative shift entry {t}")

    @property
    def arity(self) -> int:
        return len(self.shift_vector)


def action_map(point: OperadPoint) -> SuspensionActionMap:
    """The suspension-coordinate action of an operad point."""
    return SuspensionActionMap(point.shifts + (Fraction(0),))


@dataclass(frozen=True)
class CubePoint:
    """A point of the open-cube model of S^n smashed with n label copies.
    ``coords`` is None at the basepoint."""

    coords: tuple[Fraction, ...] | None
    label_copies: int = 0

    @classmethod
    def basepoint(cls) -> "CubePoint":
        return cls(None, 0)

    @property
    def is_basepoint(self) -> bool:
        return self.coords is None

    def __post_init__(self):
        if self.coords is not None:
            if self.label_copies < 1:
                raise DomainError("interior points carry at least one label copy")
            for c in self.coords:
                if not (0 < c < 1):
                    raise DomainError(f"interior coordinate {c} not in (0,1)")


def eval_action(m: SuspensionActionMap, s) -> CubePoint:
    """Evaluate the action at circle coordinate s in (0,1).

    Any translated coordinate landing outside the open unit interval sends
    the whole point to the basepoint.

    >>> eval_action(SuspensionActionMap((Fraction(1), Fraction(0))), Fraction(1, 3)).is_basepoint
    True
    """
    s = _as_fraction(s)
    if not (0 < s < 1):
        raise DomainError(f"s = {s} not in the open interval (0,1)")
    coords = tuple(s + t for t in m.shift_vector)
    if all(0 < c < 1 for c in coords):
        return CubePoint(coords, m.arity)
    return CubePoint.basepoint()


def compose_action_maps(outer: SuspensionActionMap,
                        inners: list[SuspensionActionMap]) -> SuspensionActionMap:
    """Composition of action maps; slot (i, j) shift is outer_i + inner^i_j.

    Agrees with ``action_map(compose(...))`` of the underlying operad
    points, which is the coalgebra-compatibility identity the tests check.
    """
    if len(inners) != outer.arity:
        raise ArityMismatch(outer.arity, len(inners))
    shifts = []
    for t, inner in zip(outer.shift_vector, inners):
        shifts.extend(t + s for s in inner.shift_vector)
    return SuspensionActionMap(tuple(shifts))


def nullhomotopy_point(t) -> OperadPoint:
    """The binary point (t) interpolating the strict diagonal (t = 0) and
    the large-shift suboperad (t = 1)."""
    t = _as_fraction(t)
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
    top = max(m.shift_vector)
    if top >= 1:
        return ZeroMapVerdict(True, None)
    return ZeroMapVerdict(False, (1 - top) / 2)
