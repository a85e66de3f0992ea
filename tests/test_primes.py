import json
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from dualcircle import primes
from dualcircle.primes import (
    TooLargeToFactor,
    factorint,
    irregular_indices,
    is_prime,
    is_regular_prime,
)


def bernoulli_exact(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0, ..., B_{n_max} (convention B_1 = -1/2).

    Straight recurrence over exact rationals, quadratic in n_max: the
    exact reference route for ``irregular_indices`` at small indices.
    """
    bern = [Fraction(1)]
    for m in range(1, n_max + 1):
        # B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j
        acc = Fraction(0)
        binom = 1  # C(m+1, 0)
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / (m + 1))
    return bern


def power_sum_irregular_indices(p: int) -> list[int]:
    """Reference route for ``irregular_indices``, about p^2 steps.

    For even 2 <= k <= p-3 the power sum S_k(p) = sum_{a=1}^{p-1} a^k is
    divisible by p and S_k(p)/p = B_k mod p, so p divides the numerator of
    B_k exactly when S_k(p) = 0 mod p^2.
    """
    p2 = p * p
    n_sums = (p - 3) // 2  # k = 2, 4, ..., p-3
    sums = [0] * n_sums
    for a in range(1, p):
        a2 = a * a % p2
        pw = a2
        for i in range(n_sums):
            sums[i] += pw
            pw = pw * a2 % p2
    bad = []
    for i, s in enumerate(sums):
        s %= p2
        assert s % p == 0, (p, 2 * (i + 1))
        if s == 0:
            bad.append(2 * (i + 1))
    return bad


def schoolbook_mul(a, b, p, m):
    """The first m coefficients of a * b mod p, term by term."""
    out = [0] * m
    for i, x in enumerate(a[:m]):
        for j, y in enumerate(b[:m - i]):
            out[i + j] += x * y
    return [c % p for c in out]


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


def test_is_prime_refuses_numbers_above_its_bound():
    assert is_prime(999999999989)  # the largest prime below 10^12
    assert primes.PRIME_TEST_BOUND == 10**12
    with pytest.raises(ValueError, match="above"):
        is_prime(10**12 + 39)


def test_factorint():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(97) == {97: 1}
    with pytest.raises(ValueError):
        factorint(0)


def test_factorint_at_its_bound():
    # trial division runs to 10^6, the square root of is_prime's bound
    assert factorint(5**37) == {5: 37}
    assert factorint(999983**2) == {999983: 2}  # the largest prime below 10^6
    assert factorint(2 * 999999999989) == {2: 1, 999999999989: 1}
    # a cofactor above 10^12 with no prime factor up to 10^6 is refused
    for n in (1000003 * 1000033, 8 * 1000003**2, 100000000000000003):
        with pytest.raises(TooLargeToFactor, match="no prime factor up to 1000000"):
            factorint(n)
    assert issubclass(TooLargeToFactor, ValueError)


def test_bernoulli_small_values():
    b = bernoulli_exact(12)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[12] == Fraction(-691, 2730)
    assert all(b[k] == 0 for k in (3, 5, 7, 9, 11))


def test_regular_and_irregular_primes():
    for p in (2, 3, 5, 7, 11, 13, 97):
        assert is_regular_prime(p), p
    for p in (37, 59, 67, 101, 103, 131, 149, 157, 691):
        assert not is_regular_prime(p), p


def test_irregular_indices_match_exact_bernoulli_numerators():
    bern = bernoulli_exact(60)
    for p in (37, 59, 61, 67):
        flagged = set(irregular_indices(p))
        for k in range(2, min(p - 2, 61), 2):
            assert (bern[k].numerator % p == 0) == (k in flagged), (p, k)


def test_known_irregular_pairs():
    assert irregular_indices(37) == [32]
    assert irregular_indices(59) == [44]
    assert irregular_indices(67) == [58]
    assert 12 in irregular_indices(691)


def test_irregular_indices_match_power_sums():
    for p in [q for q in range(2, 700) if is_prime(q)] + [1871, 3677]:
        assert irregular_indices(p) == power_sum_irregular_indices(p), p


def test_irregular_indices_rejects_non_primes():
    with pytest.raises(ValueError, match="not prime"):
        irregular_indices(10**4 + 1)


def test_perturbed_series_inverse_fails_the_certificate(monkeypatch):
    exact = primes._series_inverse

    def perturbed(s, p):
        b = exact(s, p)
        b[len(b) // 2] = (b[len(b) // 2] + 1) % p
        return b

    monkeypatch.setattr(primes, "_series_inverse", perturbed)
    with pytest.raises(ArithmeticError):
        irregular_indices(691)


def test_a_wrong_correction_product_fails_the_certificate(monkeypatch):
    # corrupt only _series_quotient's third product, the correction b r
    # that gives the quotient's high half; the certificate s q = c is a
    # product of its own and must catch it
    exact_mul, exact_inverse = primes._mul, primes._series_inverse
    products = None  # _mul calls since the half-length inverse returned

    def inverse(s, p):
        nonlocal products
        b = exact_inverse(s, p)
        products = 0
        return b

    def mul(a, b, p, m):
        nonlocal products
        out = exact_mul(a, b, p, m)
        if products is not None:
            products += 1
            if products == 3:  # after q0 = c b and s q0
                out[len(out) // 2] = (out[len(out) // 2] + 1) % p
        return out

    monkeypatch.setattr(primes, "_series_inverse", inverse)
    monkeypatch.setattr(primes, "_mul", mul)
    with pytest.raises(ArithmeticError):
        irregular_indices(691)
    assert products == 4  # the certificate ran on the uncorrupted _mul


@pytest.mark.parametrize("p", [5, 691, 9973, 99991])
def test_mul_matches_the_schoolbook_product(p):
    rng = random.Random(p)
    cases = []
    for la in range(1, 65):
        lb = rng.randint(1, 64)
        a = array("Q", [rng.randrange(p) for _ in range(la)])
        b = array("Q", [rng.randrange(p) for _ in range(lb)])
        full = la + lb - 1
        cases.append((a, b, {rng.randint(1, full), full}))
    # lengths 1..3 at every m: empty odd halves, and odd and even m
    for la in (1, 2, 3):
        for lb in (1, 2, 3):
            a = array("Q", [rng.randrange(p) for _ in range(la)])
            b = array("Q", [rng.randrange(p) for _ in range(lb)])
            cases.append((a, b, range(1, la + lb)))
    for a, b, ms in cases:
        for m in ms:
            assert list(primes._mul(a, b, p, m)) == schoolbook_mul(a, b, p, m), \
                (len(a), len(b), m)


@pytest.mark.parametrize("p, slot_bytes", [(7, 1), (9973, 5), (99991, 7)])
def test_mul_at_the_slot_bound(p, slot_bytes):
    # every coefficient below m sits at its largest value, (k+1) (p-1)^2;
    # at p = 99991 the top one fills 49 of the 56 bits of a 7-byte slot
    m = (p - 1) // 2
    assert (m * (p - 1) ** 2).bit_length() + 7 >> 3 == slot_bytes
    top = array("Q", [p - 1]) * m
    assert list(primes._mul(top, top, p, m)) == [(k + 1) * (p - 1) ** 2 % p
                                                 for k in range(m)]


def test_series_inverse_at_every_length_up_to_70():
    # odd lengths take the ceil(m/2) Newton steps
    p = 691
    rng = random.Random(p)
    for n in range(1, 71):
        s = array("Q", [1] + [rng.randrange(p) for _ in range(n - 1)])
        assert schoolbook_mul(s, primes._series_inverse(s, p), p, n) == \
            [1] + [0] * (n - 1), n


@pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64])
def test_half_length_quotient_matches_the_full_inverse(n):
    p = 691
    rng = random.Random(n)
    c = array("Q", [rng.randrange(p) for _ in range(n)])
    s = array("Q", [1] + [rng.randrange(p) for _ in range(n - 1)])
    full = primes._mul(c, primes._series_inverse(s, p), p, n)
    assert primes._series_quotient(c, s, p) == full


def test_frozen_benchmark_verdicts():
    # the regularity workload's 40 candidates with their frozen verdicts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / \
        "regularity_candidates.json"
    verdicts = {int(p): regular for band in json.loads(path.read_text())["bands"]
                for p, regular in band["verdicts"].items()}
    assert len(verdicts) == 40
    assert {p: is_regular_prime(p) for p in verdicts} == verdicts
