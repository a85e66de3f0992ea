import json
import random
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcircle import abgroups, cyclic, matrices
from dualcircle.abgroups import FGAbGroup, GroupExpr
from dualcircle.cyclic import (
    EquivariantCellComplex,
    GradedModule,
    NormalizedHochschild,
    UnsupportedModule,
    brute_hochschild,
    cell_weight_homology_fg,
    lambda_cell_model,
    rotation_matrix,
    rotation_orbits,
    thh_homology_square_zero,
    weight_homology_fg,
)
from dualcircle.matrices import IntMatrix, cokernel_invariants

# oracle homology of Z[0]+Z[1]+Z/3[2] at weights 6 and 7, frozen from
# NormalizedHochschild after it agreed with the weight and cell routes
ORACLE_WEIGHTS_6_7 = Path(__file__).parent / "data" / "oracle_weights_6_7.json"

Z0 = GradedModule.single(0, 0)
Z1 = GradedModule.single(1, 0)
Zm1 = GradedModule.single(-1, 0)

FIXTURES = {
    "Z": Z0,
    "Z/2": GradedModule.single(0, 2),
    "Z/3": GradedModule.single(0, 3),
    "Z^2": GradedModule(((0, 0), (0, 0))),
    "Z[1]": Z1,
    "Z[-1]": Zm1,
}


class TestWeightHomology:
    def test_weight_two_of_the_integers(self):
        # 1 - tau_2 is multiplication by 2 on Z: Z/2 in degree 1 alone
        assert weight_homology_fg(2, Z0) == {1: FGAbGroup.from_orders([2])}

    def test_desuspended_line_every_weight(self):
        # thh_homology_square_zero sums weight 1's pattern over all weights
        for n in range(1, 9):
            assert weight_homology_fg(n, Zm1) == weight_homology_fg(1, Zm1) == {
                -1: FGAbGroup.free(1), 0: FGAbGroup.free(1)}

    def test_weight_one(self):
        assert weight_homology_fg(1, Z0) == {0: FGAbGroup.free(1), 1: FGAbGroup.free(1)}


class TestBruteOracle:
    def test_zero_module(self):
        h = brute_hochschild(GradedModule.zero(), 3)
        assert h.at(0) == GroupExpr.free(1)
        assert all(h.at(d).is_zero() for d in (1, 2, 3))

    def test_dual_numbers(self):
        h = brute_hochschild(Z0, 3)
        assert h.at(0) == GroupExpr.free(2)
        assert h.at(1) == GroupExpr.free(1).plus(GroupExpr.cyclic(2))

    # brute_hochschild(m, 4) in degrees 0..4, frozen from the oracle when it
    # still summed every weight in one complex; weight 5 reaches degree 4 in
    # all but Z[1], so a sum over weights 1..4 alone misses it
    TOTALS = {
        ((0, 0),): ["Z^2", "Z + Z/2", "Z", "Z + Z/2", "Z"],
        ((0, 2),): ["Z + Z/2", "(Z/2)^2", "(Z/2)^2", "(Z/2)^2", "(Z/2)^2"],
        ((1, 0),): ["Z", "Z", "Z", "Z", "Z"],
        ((0, 0), (1, 3)): ["Z^2", "Z + Z/2 + Z/3", "Z + (Z/3)^2",
                           "Z + Z/2 + (Z/3)^3", "Z + (Z/3)^4"],
        ((0, 0), (0, 0)): ["Z^3", "Z^3 + (Z/2)^2", "Z^5", "Z^8 + (Z/2)^2", "Z^12"],
        ((2, 0), (0, 4)): ["Z + Z/4", "Z/2 + Z/4", "Z + Z/2 + Z/4",
                           "Z + Z/2 + (Z/4)^2", "Z/2 + (Z/4)^3"],
    }

    @pytest.mark.parametrize("gens", sorted(TOTALS))
    def test_total_homology_is_frozen(self, gens):
        h = brute_hochschild(GradedModule(gens), 4)
        assert [str(h.at(d)) for d in range(5)] == self.TOTALS[gens]

    def test_oracle_matches_weight_complexes_on_all_fixtures(self):
        for name, m in FIXTURES.items():
            for n in range(1, 6):
                expected = {t: g for t, g in weight_homology_fg(n, m).items()
                            if -6 <= t <= 6}
                oracle = NormalizedHochschild(m, max_level=n)
                assert oracle.weight_homology(n, -6, 6) == expected, (name, n)

    def test_weight_pieces_live_on_two_levels(self):
        # a chain's level is its tail length, its weight that plus a module lead
        oracle = NormalizedHochschild(Z0, max_level=5)
        for w in range(1, 5):
            chains = [c for block in oracle._weight_chains(w).values() for c in block]
            assert {len(tail) + (r0 is not None) for r0, tail in chains} == {w}
            assert {len(tail) for _, tail in chains} == {w - 1, w}

    def test_unrestricted_negative_degrees_refused(self):
        with pytest.raises(UnsupportedModule):
            brute_hochschild(Zm1, 2)

    def test_the_oracle_answers_one_weight_at_a_time(self):
        oracle = NormalizedHochschild(Z0, max_level=4)
        with pytest.raises(TypeError):
            oracle.homology(0)
        for w in (0, -1):
            with pytest.raises(ValueError):
                oracle.homology(0, weight=w)
        with pytest.raises(UnsupportedModule):
            oracle.homology(0, weight=5)

    def test_truncation_stability(self):
        # the total in degrees 0..4 sums weights 1..5; a deeper oracle's
        # weights 6..8 add nothing there
        shallow = brute_hochschild(Z0, 4)
        deeper = NormalizedHochschild(Z0, max_level=8)
        for d in range(0, 5):
            total = GroupExpr.free(1 if d == 0 else 0).plus(*(
                GroupExpr.from_fg(deeper.homology(d, weight=w)) for w in range(1, 9)))
            assert shallow.at(d) == total, d


class TestOracleWork:
    """Work counts of the oracle, in place of timings: a weight's chains
    and each face-sum block are built once per instance, and each query is
    one call of generic homology with at most two eliminations, a rank on
    C's free rows and a cokernel."""

    M = GradedModule(((0, 0), (1, 2), (2, 0)))
    TORSION = GradedModule(((0, 2), (1, 4), (2, 2)))

    @staticmethod
    def _count(monkeypatch):
        """Record every face taken, elimination run, cokernel and rank
        taken, and generic homology call, by the oracle's queries."""
        seen = {"faces": Counter(), "eliminations": [], "cokernels": [],
                "ranks": [], "calls": []}
        boundary = NormalizedHochschild._boundary
        eliminate = matrices._eliminate
        generic = cyclic.homology_with_orders
        rank = abgroups.rank

        def counted_boundary(self, k, c):
            seen["faces"][c] += 1
            return boundary(self, k, c)

        def counted_eliminate(*args, **kwargs):
            seen["eliminations"].append(args[0])
            return eliminate(*args, **kwargs)

        def counted_cokernel(m):
            seen["cokernels"].append(m)
            return cokernel_invariants(m)

        def counted_rank(m):
            seen["ranks"].append((m, seen["calls"][-1][3]))
            return rank(m)

        def counted_homology(*args):
            seen["calls"].append(args)
            return generic(*args)

        monkeypatch.setattr(NormalizedHochschild, "_boundary", counted_boundary)
        monkeypatch.setattr(matrices, "_eliminate", counted_eliminate)
        monkeypatch.setattr(abgroups, "cokernel_invariants", counted_cokernel)
        monkeypatch.setattr(abgroups, "rank", counted_rank)
        monkeypatch.setattr(cyclic, "homology_with_orders", counted_homology)
        return seen

    def test_each_block_is_built_once_per_instance(self, monkeypatch):
        seen = self._count(monkeypatch)
        eliminations, cokernels, ranks = (
            seen["eliminations"], seen["cokernels"], seen["ranks"])
        oracle = NormalizedHochschild(self.M, max_level=4)
        queries = 0
        for w in (1, 2, 3, 4):
            for t in range(-1, 15):
                for _ in range(2):  # a repeated query builds nothing new
                    before = len(eliminations), len(cokernels), len(ranks)
                    oracle.homology(t, weight=w)
                    queries += 1
                    assert len(eliminations) - before[0] <= 2, (t, w)
                    assert len(cokernels) - before[1] <= 1, (t, w)
                    assert (len(eliminations) - before[0]
                            == len(cokernels) - before[1]
                            + len(ranks) - before[2]), (t, w)
        # each chain is faced once, when its block is built
        assert max(seen["faces"].values()) == 1
        assert len(seen["calls"]) == queries

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_a_restricted_query_builds_only_its_weight(self, w):
        oracle = NormalizedHochschild(self.M, max_level=4)
        oracle.homology(w, weight=w)
        assert list(oracle._weights) == [w]
        # 3^(w-1) tails for each of 3 module leads, and 3^w unit-led tails
        built = [c for block in oracle._weights[w].values() for c in block]
        assert len(built) == len(set(built)) == 2 * 3 ** w

    def test_rank_sees_only_the_free_rows_of_c(self, monkeypatch):
        seen = self._count(monkeypatch)
        oracle = NormalizedHochschild(self.M, max_level=4)
        for w in (1, 2, 3, 4):
            for t in range(-1, 15):
                oracle.homology(t, weight=w)
        assert seen["ranks"]
        for m, orders_below in seen["ranks"]:
            assert all(col and all(orders_below[i] == 0 for i in col)
                       for col in m.columns)

    def test_no_rank_elimination_when_c_is_all_torsion(self, monkeypatch):
        seen = self._count(monkeypatch)
        oracle = NormalizedHochschild(self.TORSION, max_level=4)
        for w in (1, 2, 3, 4):
            for t in range(-1, 15):
                oracle.homology(t, weight=w)
        assert not seen["ranks"]
        assert len(seen["eliminations"]) == len(seen["cokernels"])

    def test_mixed_queries_answer_as_fresh_instances(self):
        queries = [(t, w) for t in range(-1, 4) for w in (1, 2, 3)]
        queries += [(t, 4) for t in range(2, 13)]
        random.Random(7).shuffle(queries)
        oracle = NormalizedHochschild(self.M, max_level=4)
        for t, w in queries:
            fresh = NormalizedHochschild(self.M, max_level=4).homology(t, weight=w)
            assert oracle.homology(t, weight=w) == fresh, (t, w)


def validate(c: EquivariantCellComplex) -> None:
    """The axioms of a cell complex with a cyclic action: boundaries of the
    right shape that square to zero and commute with the action, whose
    group-order-th power is the identity in every dimension."""
    for d, bnd in c.boundaries.items():
        assert bnd.cols == c.cells.get(d, 0) and bnd.rows == c.cells.get(d - 1, 0), \
            f"boundary at dimension {d} has wrong shape"
        upper = c.boundaries.get(d + 1)
        assert upper is None or bnd.mul(upper).is_zero(), \
            "boundaries do not square to zero"
        assert c.actions[d - 1].mul(bnd) == bnd.mul(c.actions[d]), \
            f"action does not commute with the boundary at {d}"
    for d, act in c.actions.items():
        power = IntMatrix.identity(c.cells[d])
        for _ in range(c.group_order):
            power = act.mul(power)
        assert power == IntMatrix.identity(c.cells[d]), \
            f"action power at dimension {d} is not the identity"


class TestCellModel:
    def test_smallest_model(self):
        c = lambda_cell_model(1)
        validate(c)
        assert c.cells == {0: 1, 1: 1}
        assert c.actions[0].entries == ((1,),)
        assert c.boundaries[1].is_zero()

    def test_binary_model_swaps_with_signs(self):
        c = lambda_cell_model(2)
        validate(c)
        assert c.cells == {1: 2, 2: 2}
        assert c.actions[1].entries == ((0, -1), (-1, 0))

    def test_action_axioms_hold_up_to_weight_six(self):
        for n in range(1, 7):
            validate(lambda_cell_model(n))

    def test_cell_homology_matches_weight_homology(self):
        for name, m in FIXTURES.items():
            for n in range(1, 6):
                assert cell_weight_homology_fg(n, m) == weight_homology_fg(n, m), \
                    (name, n)

    def test_validate_catches_broken_action(self):
        c = lambda_cell_model(3)
        broken = EquivariantCellComplex(
            group_order=3,
            cells=c.cells,
            boundaries=c.boundaries,
            actions={2: IntMatrix.identity(3), 3: c.actions[3]},
            orbit_reps=c.orbit_reps,
        )
        with pytest.raises(AssertionError, match="does not commute"):
            validate(broken)


# The orbit listing as first written: basis tuples, with each tensor's
# degree and order summed from its factors.  The one-pass listing must
# reproduce it exactly.
def tuple_basis(m, n):
    g = len(m.generators)
    basis = [()]
    for _ in range(n):
        basis = [t + (i,) for t in basis for i in range(g)]
    return basis


def tuple_signed_rotation(n, m):
    g = len(m.generators)
    front = g ** (n - 1)
    target, sign = [], []
    for j, t in enumerate(tuple_basis(m, n)):
        last = j % g
        target.append(last * front + j // g)
        deg_last = m.generators[last][0]
        deg_rest = sum(m.generators[i][0] for i in t) - deg_last
        sign.append(-1 if (deg_last % 2) and (deg_rest % 2) else 1)
    return target, sign


def tuple_rotation_orbits(n, m):
    target, sign = tuple_signed_rotation(n, m)
    seen = [False] * len(target)
    orbits = []
    for start, t in enumerate(tuple_basis(m, n)):
        if seen[start]:
            continue
        orbit, j = [], start
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = target[j]
        order = 0
        for i in t:
            order = gcd(order, m.generators[i][1])
        orbits.append((orbit, [sign[j] for j in orbit],
                       sum(m.generators[i][0] for i in t), order))
    return orbits


generated_modules = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from((0, 2, 3, 4, 6))),
    min_size=1, max_size=3)


class TestOrbitKernel:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(gens=generated_modules, n=st.integers(1, 4))
    def test_three_routes_agree_on_generated_modules(self, gens, n):
        m = GradedModule(tuple(gens))
        degrees = [d for d, _ in gens]
        # every total degree weight n can reach: internal degree + level
        lo, hi = n * min(degrees) + n - 1, n * max(degrees) + n
        oracle = NormalizedHochschild(m, max_level=n).weight_homology(n, lo, hi)
        assert weight_homology_fg(n, m) == oracle
        assert cell_weight_homology_fg(n, m) == oracle

    def test_weight_and_cell_routes_agree_at_high_weight(self):
        frozen = json.loads(ORACLE_WEIGHTS_6_7.read_text())
        m = GradedModule(tuple(tuple(g) for g in frozen["module"]))
        for w, groups in frozen["weights"].items():
            expected = {int(t): FGAbGroup(g["free_rank"], tuple(g["torsion"]))
                        for t, g in groups.items()}
            assert weight_homology_fg(int(w), m) == expected, w
            assert cell_weight_homology_fg(int(w), m) == expected, w

    def test_oracle_reproduces_the_frozen_weight_six(self):
        frozen = json.loads(ORACLE_WEIGHTS_6_7.read_text())
        m = GradedModule(tuple(tuple(g) for g in frozen["module"]))
        expected = {int(t): FGAbGroup(g["free_rank"], tuple(g["torsion"]))
                    for t, g in frozen["weights"]["6"].items()}
        degrees = [d for d, _ in m.generators]
        oracle = NormalizedHochschild(m, max_level=6)
        got = {t: oracle.homology(t, weight=6)
               for t in range(6 * min(degrees) + 5, 6 * max(degrees) + 7)}
        assert {t: h for t, h in got.items() if not h.is_trivial()} == expected

    def test_orbit_count_is_the_necklace_count(self):
        def phi(d):
            return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

        for g in (1, 2, 3):
            m = GradedModule(((0, 0),) * g)
            for n in range(1, 8):
                necklaces = sum(phi(d) * g ** (n // d)
                                for d in range(1, n + 1) if n % d == 0) // n
                assert len(rotation_orbits(n, m)) == necklaces, (g, n)

    def test_orbits_match_the_tuple_listing(self):
        rng = random.Random(19)
        modules = [GradedModule(tuple((rng.randint(-3, 3), rng.choice((0, 2, 3, 4, 6)))
                                      for _ in range(1 + k % 3))) for k in range(30)]
        # every generator count, both parities and free and torsion orders
        assert {len(m.generators) for m in modules} == {1, 2, 3}
        gens = {g for m in modules for g in m.generators}
        assert {d % 2 for d, _ in gens} == {0, 1} and {o for _, o in gens} >= {0, 2, 3}
        for m in modules:
            for n in range(1, 7):
                assert cyclic.signed_rotation(n, m) == tuple_signed_rotation(n, m), (m, n)
                assert rotation_orbits(n, m) == tuple_rotation_orbits(n, m), (m, n)

    def test_rotation_has_full_order(self):
        for m in (Z0, Zm1, Z1, FIXTURES["Z^2"]):
            for n in (1, 2, 3, 4):
                rot = rotation_matrix(n, m, include_simplicial_sign=False)
                power = IntMatrix.identity(rot.rows)
                for _ in range(n):
                    power = rot.mul(power)
                assert power.entries == IntMatrix.identity(rot.rows).entries

    def test_weight_route_uses_no_generic_homology(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generic homology called")

        monkeypatch.setattr(cyclic, "homology_with_orders", refuse)
        m = GradedModule(((0, 0), (1, 2), (2, 0)))
        assert weight_homology_fg(4, m)

    def test_cell_route_eliminates_each_orbit_block_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("homology_with_orders called")

        blocks = []

        def counted(m):
            blocks.append(m)
            return cokernel_invariants(m)

        monkeypatch.setattr(cyclic, "homology_with_orders", refuse)
        monkeypatch.setattr(cyclic, "cokernel_invariants", counted)
        # Z/2 and Z/3 in one degree give orbits with one sign sequence and
        # different orders, which share a block but not its groups
        for gens in [((0, 0), (1, 2), (2, 0)), ((0, 2), (0, 3)),
                     ((0, 2), (0, 3), (1, 0))]:
            m = GradedModule(gens)
            for n in (1, 4, 6):
                blocks.clear()
                assert cell_weight_homology_fg(n, m) == weight_homology_fg(n, m)
                orbits = rotation_orbits(n, m)
                orders: dict[tuple[int, ...], set[int]] = {}
                for _, signs, _, o in orbits:
                    orders.setdefault(tuple(signs), set()).add(o)
                assert sorted((b.rows, b.cols) for b in blocks) == \
                    sorted((len(k), len(k)) for k in orders), (gens, n)
                assert len(set(blocks)) == len(blocks), (gens, n)
                assert max(len(os) for os in orders.values()) > 1, (gens, n)

    def test_cell_route_does_not_use_the_weight_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("weight route called")

        expected = weight_homology_fg(4, FIXTURES["Z^2"])
        monkeypatch.setattr(cyclic, "weight_homology_fg", refuse)
        assert cell_weight_homology_fg(4, FIXTURES["Z^2"]) == expected


class TestThhAssembly:
    def test_zero_module(self):
        h = thh_homology_square_zero(GradedModule.zero(), -1, 2)
        assert h.at(0) == GroupExpr.free(1)
        assert h.at(1).is_zero()

    def test_circle_dual_case(self):
        h = thh_homology_square_zero(Zm1, -1, 0)
        assert h.at(-1) == GroupExpr.countable_free()
        assert h.at(0) == GroupExpr.free(1).plus(GroupExpr.countable_free())

    def test_positive_degree_case_matches_oracle(self):
        h = thh_homology_square_zero(Z1, 0, 3)
        oracle = brute_hochschild(Z1, 3)
        for d in range(0, 4):
            assert h.at(d) == oracle.at(d)

    def test_deeply_negative_case_is_finite(self):
        m = GradedModule.single(-2, 0)
        h = thh_homology_square_zero(m, -4, 0)
        # weight 1 sits in degrees -2 and -1; weight 2 in -4 and -3
        assert h.at(-1) == GroupExpr.free(1)
        assert h.at(-2) == GroupExpr.free(1)

    def test_mixed_signs_refused(self):
        m = GradedModule(((-1, 0), (1, 0)))
        with pytest.raises(UnsupportedModule):
            thh_homology_square_zero(m, -1, 1)

    def test_multiple_generators_in_degree_minus_one_refused(self):
        m = GradedModule(((-1, 0), (-1, 0)))
        with pytest.raises(UnsupportedModule):
            thh_homology_square_zero(m, -1, 0)
