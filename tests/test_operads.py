import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle import operad_checks
from dualcircle.operads import (
    ArityMismatch,
    DomainError,
    OperadPoint,
    SuspensionActionMap,
    ZeroMapVerdict,
    action_map,
    compose,
    compose_action_maps,
    eval_action,
    is_member,
    is_zero_map,
    nullhomotopy_point,
)
from dualcircle.report import RunConfig


def pt(*coords):
    return OperadPoint(tuple(Fraction(c) for c in coords))


# n/d with d in 1..8 and n in 0..4d: the rationals in [0, 4] with
# denominator at most 8, the set st.fractions(min_value=0, max_value=4,
# max_denominator=8) covers.  Built from integers, since drawing
# st.fractions took most of these tests' time.
rationals = st.builds(lambda n, d: Fraction(n % (4 * d + 1), d),
                      st.integers(0, 32), st.integers(1, 8))
points = st.lists(rationals, min_size=0, max_size=3).map(lambda c: OperadPoint(tuple(c)))


class TestCompose:
    def test_worked_example(self):
        assert compose(pt(1), [pt(2), pt(3)]) == pt(3, 1, 3)

    def test_identity_is_neutral(self):
        p = pt("1/2", 3)
        assert compose(OperadPoint(()), [p]) == p
        assert compose(p, [OperadPoint(())] * p.arity) == p

    def test_strict_points_compose_to_strict_points(self):
        result = compose(pt(0, 0), [pt(0), pt(0), pt(0)])
        assert result == pt(0, 0, 0, 0, 0)
        assert is_member("A", result)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch) as err:
            compose(pt(1), [pt(2)])
        assert err.value.expected == 2
        assert err.value.given == 1

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            pt(-1)
        with pytest.raises(DomainError, match="negative shift coordinate -1/2"):
            OperadPoint.from_pairs([(1, 1), (-2, 4)])
        with pytest.raises(DomainError, match="denominators must be positive"):
            OperadPoint.from_pairs([(1, 0)])

    @given(points, st.data())
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, outer, data):
        inners = [data.draw(points) for _ in range(outer.arity)]
        deepest = [data.draw(points) for _ in range(sum(p.arity for p in inners))]
        left = compose(compose(outer, inners), deepest)
        pos = 0
        composed_inners = []
        for p in inners:
            composed_inners.append(compose(p, deepest[pos:pos + p.arity]))
            pos += p.arity
        assert left == compose(outer, composed_inners)

    @given(points, st.data())
    @settings(max_examples=200, deadline=None)
    def test_coalgebra_compatibility(self, outer, data):
        inners = [data.draw(points) for _ in range(outer.arity)]
        assert action_map(compose(outer, inners)) == compose_action_maps(
            action_map(outer), [action_map(p) for p in inners])


class TestMembership:
    def test_large_shift_points(self):
        assert is_member("Oprime", pt(1, 2))
        assert not is_member("Oprime", pt("1/2"))
        assert is_member("Oprime", OperadPoint(()))

    def test_strict_points(self):
        assert is_member("A", pt(0, 0, 0))
        assert not is_member("A", pt(0, 1))
        assert is_member("Zop", pt(0, 0, 0))

    def test_everything_lies_in_the_big_operad(self):
        assert is_member("O", pt("7/3", 0))

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            is_member("Q", pt(0))


class TestActionMaps:
    def test_shift_vector_appends_zero(self):
        assert action_map(pt(1)).shift_vector == (1, 0)
        assert action_map(OperadPoint(())).shift_vector == (0,)
        assert action_map(pt(3, 1, 3)).shift_vector == (3, 1, 3, 0)

    def test_eval_diagonal(self):
        out = eval_action(SuspensionActionMap((Fraction(0), Fraction(0))), Fraction(1, 3))
        assert out.coords == (Fraction(1, 3), Fraction(1, 3))
        assert out.label_copies == 2

    def test_eval_collapses_to_basepoint(self):
        m = SuspensionActionMap((Fraction(1), Fraction(0)))
        assert eval_action(m, Fraction(1, 3)).is_basepoint

    def test_eval_interior_with_fractional_shift(self):
        m = SuspensionActionMap((Fraction(1, 2), Fraction(0)))
        out = eval_action(m, Fraction(1, 3))
        assert out.coords == (Fraction(5, 6), Fraction(1, 3))

    def test_eval_domain_error(self):
        m = SuspensionActionMap((Fraction(0),))
        with pytest.raises(DomainError):
            eval_action(m, Fraction(1))
        with pytest.raises(DomainError):
            eval_action(m, Fraction(0))

    def test_compose_action_maps_examples(self):
        got = compose_action_maps(
            action_map(pt(1)), [action_map(pt(2)), action_map(pt(3))])
        assert got.shift_vector == (3, 1, 3, 0)
        m = action_map(pt("2/3", 1))
        assert compose_action_maps(action_map(OperadPoint(())), [m]) == m
        diag = compose_action_maps(
            action_map(pt(0)), [action_map(pt(0)), action_map(pt(0))])
        assert diag.shift_vector == (0, 0, 0, 0)

    def test_compose_action_maps_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose_action_maps(action_map(pt(1)), [action_map(pt(0))])


class TestNullhomotopy:
    def test_endpoints(self):
        assert is_member("A", nullhomotopy_point(0))
        assert is_member("Oprime", nullhomotopy_point(1))
        mid = nullhomotopy_point(Fraction(1, 2))
        assert not is_member("A", mid) and not is_member("Oprime", mid)

    def test_domain(self):
        with pytest.raises(DomainError):
            nullhomotopy_point(Fraction(3, 2))

    def test_start_acts_as_diagonal_and_end_acts_by_zero(self):
        start = eval_action(action_map(nullhomotopy_point(0)), Fraction(2, 5))
        assert start.coords == (Fraction(2, 5), Fraction(2, 5))
        assert is_zero_map(action_map(nullhomotopy_point(1))).is_zero


class TestZeroMap:
    def test_examples(self):
        assert is_zero_map(SuspensionActionMap((1, 2, 0))).is_zero
        v = is_zero_map(SuspensionActionMap((0, 0)))
        assert not v.is_zero and v.witness == Fraction(1, 2)
        v = is_zero_map(SuspensionActionMap((Fraction(1, 2), 0)))
        assert not v.is_zero and v.witness == Fraction(1, 4)

    def test_arity_one_not_applicable(self):
        with pytest.raises(DomainError):
            is_zero_map(SuspensionActionMap((Fraction(0),)))

    @given(st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_soundness(self, shifts):
        m = action_map(OperadPoint(tuple(shifts)))
        verdict = is_zero_map(m)
        if verdict.is_zero:
            for num in (1, 7, 49, 99):
                assert eval_action(m, Fraction(num, 100)).is_basepoint
        else:
            assert not eval_action(m, verdict.witness).is_basepoint


class TestSerialization:
    def test_json_roundtrip(self):
        p = pt("3/2", 0, 7)
        assert p.to_json() == '["3/2", "0", "7"]'
        assert OperadPoint(tuple(Fraction(s) for s in json.loads(p.to_json()))) == p


# Plain-Fraction reference versions of the operations, written from their
# definitions; they share no code with the integer numerators of operads.py.

def ref_compose(outer, inners):
    coords = []
    for t, inner in zip(list(outer) + [Fraction(0)], inners):
        coords += [t + s for s in list(inner) + [Fraction(0)]]
    return tuple(coords[:-1])


def ref_compose_vectors(outer, inners):
    return tuple(t + s for t, inner in zip(outer, inners) for s in inner)


def ref_eval(vector, s):
    coords = tuple(s + t for t in vector)
    return coords if all(0 < c < 1 for c in coords) else None


def ref_is_zero(vector):
    top = max(vector)
    return (True, None) if top >= 1 else (False, (1 - top) / 2)


def assert_canonical(x):
    assert x.den >= 1
    assert gcd(x.den, *x.nums) == 1


# built from integer pairs, since st.fractions costs most of a test's time
ratios = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12))
shift_lists = st.lists(ratios, min_size=0, max_size=3)
open_unit = st.builds(lambda n, d: Fraction(n, n + d),
                      st.integers(1, 12), st.integers(1, 12))


def fr(*coords):
    return tuple(Fraction(c) for c in coords)


# (outer shifts, inner shifts per slot), one case per branch of compose and
# compose_action_maps
COMPOSE_BRANCHES = {
    # only the last slot, whose outer shift is the pinned zero
    "outer of arity 1": (fr(), [fr("1/2", 3)]),
    # inners 0 and 1 are over den 6 = lcm: with t = 0 inner 0 is copied, and
    # inner 1 is shifted by t = 1/2
    "inner at the lcm with t = 0": (fr(0, "1/2"), [fr("1/6", "5/6"), fr("1/6"), fr("1/2")]),
    # every inner scaled by k > 1, the outer by 6
    "inners with k > 1": (fr("1/6", 1), [fr("1/2"), fr("2/3", 1), fr("1/3", 2)]),
    # den 1 -> 2 -> 6 -> 12 as the inners are read
    "lcm growing across the inners": (fr(1, 2, 0), [fr("1/2"), fr("1/3"), fr("1/4"), fr(1)]),
}


class TestComposeBranches:
    @pytest.mark.parametrize("case", COMPOSE_BRANCHES)
    def test_compose(self, case):
        outer, inners = COMPOSE_BRANCHES[case]
        got = compose(OperadPoint(outer), [OperadPoint(s) for s in inners])
        assert_canonical(got)
        assert got.shifts == ref_compose(outer, inners)

    @pytest.mark.parametrize("case", COMPOSE_BRANCHES)
    def test_compose_action_maps(self, case):
        outer, inners = COMPOSE_BRANCHES[case]
        vectors = [s + (Fraction(0),) for s in [outer] + inners]
        got = compose_action_maps(SuspensionActionMap(vectors[0]),
                                  [SuspensionActionMap(v) for v in vectors[1:]])
        assert_canonical(got)
        assert got.shift_vector == ref_compose_vectors(vectors[0], vectors[1:])

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_one_inner_too_few_or_too_many(self, extra):
        outer, inners = COMPOSE_BRANCHES["lcm growing across the inners"]
        inners = (inners + [fr(2)])[:len(inners) + extra]
        with pytest.raises(ArityMismatch) as err:
            compose(OperadPoint(outer), [OperadPoint(s) for s in inners])
        assert (err.value.expected, err.value.given) == (4, 4 + extra)
        vectors = [s + (Fraction(0),) for s in [outer] + inners]
        with pytest.raises(ArityMismatch) as err:
            compose_action_maps(SuspensionActionMap(vectors[0]),
                                [SuspensionActionMap(v) for v in vectors[1:]])
        assert (err.value.expected, err.value.given) == (4, 4 + extra)


class TestAgainstFractionReference:
    @given(shift_lists, st.data())
    @settings(max_examples=300, deadline=None)
    def test_compose(self, outer, data):
        inners = [data.draw(shift_lists) for _ in range(len(outer) + 1)]
        got = compose(OperadPoint(outer), [OperadPoint(s) for s in inners])
        assert_canonical(got)
        assert got.shifts == ref_compose(outer, inners)

    @given(shift_lists, st.data())
    @settings(max_examples=300, deadline=None)
    def test_compose_action_maps(self, outer, data):
        inners = [data.draw(shift_lists) for _ in range(len(outer) + 1)]
        vectors = [tuple(s) + (Fraction(0),) for s in [outer] + inners]
        got = compose_action_maps(SuspensionActionMap(vectors[0]),
                                  [SuspensionActionMap(v) for v in vectors[1:]])
        assert_canonical(got)
        assert got.shift_vector == ref_compose_vectors(vectors[0], vectors[1:])

    @given(shift_lists, open_unit)
    @settings(max_examples=300, deadline=None)
    def test_eval_action(self, shifts, s):
        vector = tuple(shifts) + (Fraction(0),)
        out = eval_action(SuspensionActionMap(vector), s)
        expected = ref_eval(vector, s)
        if expected is None:
            assert out.is_basepoint
        else:
            assert out.coords == expected and out.label_copies == len(vector)

    @given(st.lists(ratios, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_is_zero_map(self, shifts):
        vector = tuple(shifts) + (Fraction(0),)
        assert tuple(is_zero_map(SuspensionActionMap(vector))) == ref_is_zero(vector)

    @given(shift_lists, st.lists(st.integers(1, 6), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_equal_shifts_give_equal_points(self, shifts, scales):
        p = OperadPoint(shifts)
        assert_canonical(p)
        assert p.shifts == tuple(shifts)
        scaled = [(f.numerator * k, f.denominator * k)
                  for f, k in zip(shifts, scales)]
        for q in (OperadPoint([str(f) for f in shifts]),
                  OperadPoint.from_pairs(scaled)):
            assert_canonical(q)
            assert q == p and hash(q) == hash(p)
        assert_canonical(action_map(p))


# The operad suite draws on getrandbits with operad_checks._below's loop, run
# inline in its hot paths; every seed must keep drawing the points that
# randint and choice drew.

def ref_random_point(rng, min_arity=1, suboperad="O"):
    arity = rng.randint(min_arity, 4)
    if suboperad == "A":
        return OperadPoint.from_pairs([(0, 1)] * (arity - 1))
    pairs = [(rng.randint(0, 12), rng.choice((1, 2, 3, 4))) for _ in range(arity - 1)]
    if suboperad == "Oprime":
        pairs = [(n + d, d) for n, d in pairs]
    return OperadPoint.from_pairs(pairs)


def wide_below(bits, n):
    """A draw that takes one bit more than randrange does."""
    k = n.bit_length() + 1
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def below_matches_randrange(below):
    for seed in range(400):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in (2, 3, 4, 5, 13, 99):
            if below(rng.getrandbits, n) != ref.randrange(n):
                return False
        if rng.getstate() != ref.getstate():
            return False
    return True


# every (min_arity, suboperad) pair that run_operad_check draws
SUITE_DRAWS = [(1, "O"), (1, "A"), (1, "Oprime"), (2, "Oprime")]


def points_match_reference(bit_source=lambda rng: rng.getrandbits):
    """Whether _random_point, drawing from ``bit_source(rng)``, draws what
    ref_random_point draws and leaves the generator in the same state."""
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        bits = bit_source(rng)
        for min_arity, suboperad in SUITE_DRAWS * 3:
            got = operad_checks._random_point(bits, min_arity, suboperad)
            if got != ref_random_point(ref, min_arity, suboperad):
                return False
            if rng.getstate() != ref.getstate():
                return False
    return True


def ref_zero_action_draws(seed, trials):
    """The (point, s-values) pairs of the suite's zero-action checks, drawn
    in the suite's order by ref_random_point and randrange."""
    ref = random.Random(seed)
    for _ in range(trials):  # associativity and unit: a, its bs, their cs
        a = ref_random_point(ref)
        bs = [ref_random_point(ref) for _ in range(a.arity)]
        for _ in range(sum(b.arity for b in bs)):
            ref_random_point(ref)
    for _ in range(trials):  # closure: an A composite, then an Oprime one
        for suboperad in ("A", "Oprime"):
            for _ in range(ref_random_point(ref, suboperad=suboperad).arity):
                ref_random_point(ref, suboperad=suboperad)
    for _ in range(trials):  # coalgebra compatibility
        for _ in range(ref_random_point(ref).arity):
            ref_random_point(ref)
    draws = []
    for _ in range(200):
        point = ref_random_point(ref, 2, "Oprime")
        draws.append((point, [Fraction(1 + ref.randrange(99), 100) for _ in range(100)]))
    return draws


class TestDrawStream:
    def test_below_draws_what_randrange_draws(self):
        assert below_matches_randrange(operad_checks._below)

    def test_a_draw_of_one_bit_more_is_caught(self):
        assert not below_matches_randrange(wide_below)

    def test_points_match_the_randint_reference(self):
        assert points_match_reference()

    def test_points_drawn_with_one_bit_more_are_caught(self):
        assert not points_match_reference(lambda rng: lambda k: rng.getrandbits(k + 1))

    def test_suite_s_values_match_the_randrange_reference(self, monkeypatch):
        recorded = []

        def record(point, s_values, real=operad_checks.zero_action):
            recorded.append((point, s_values))
            return real(point, s_values)

        monkeypatch.setattr(operad_checks, "zero_action", record)
        for seed in range(50):
            recorded.clear()
            report = operad_checks.run_operad_check(RunConfig(seed=seed, trials=5))
            assert report.exit_code == 0
            assert recorded == ref_zero_action_draws(seed, trials=5)

    def test_s_values_are_the_hundredths(self):
        assert len(operad_checks._S_VALUES) == 99
        for k, s in enumerate(operad_checks._S_VALUES):
            assert s == Fraction(k + 1, 100)

    # the first zero-action payload when no action reads as zero, frozen from
    # the suite that built Fraction(1 + k, 100) for each draw k
    @pytest.mark.parametrize("seed, inputs", [
        (3, {"point": ["1", "7"], "s": "63/100"}),
        (11, {"point": ["6", "11/2"], "s": "39/100"})])
    def test_zero_action_payload_is_frozen(self, monkeypatch, seed, inputs):
        monkeypatch.setattr(operad_checks, "is_zero_map",
                            lambda m: ZeroMapVerdict(False, None))
        report = operad_checks.run_operad_check(RunConfig(seed=seed, trials=20))
        failed = next(c for c in report.checks if c.status == "fail")
        assert failed.payload == {"check": "zero-action", "inputs": inputs}
