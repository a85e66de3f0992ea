"""Elementary number theory helpers: primality, factorization, p-adic
valuations and the regular-prime test.

Everything here is exact integer arithmetic.  The regularity test reads
all of B_2, ..., B_{p-3} mod p off one power-series quotient and
certifies the quotient with one more product, so it stays fast for primes
below 10^5.  Series are multiplied by Kronecker substitution on Python
ints, with little-endian slots only as wide as the coefficient bound
needs (at most 7 bytes below 10^5), evaluated at the two points +-2^(4w)
for w-byte slots: the even- and odd-index halves of a series are packed
apart, so each of the two int products has operands of half the length
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comput. 44 (2009)).  The quotient comes from a
Newton inverse of half the length, whose precisions are halved down from
the top so that no step overshoots, and one correction step (Karp and
Markstein's division), after Buhler, Crandall, Ernvall, Metsankyla and
Shokrollahi, "Irregular primes and cyclotomic invariants to 12 million"
(2001).  The package holds no second route to Bernoulli numbers: the
exact recurrence and the power-sum congruence that cross-check the
modular method live in the test suite.
"""

from __future__ import annotations

import sys
from array import array
from math import isqrt


# the largest number is_prime tests: trial division up to its square root
# takes about 0.1 s there, and 100 times as long for every factor 10^4 above
PRIME_TEST_BOUND = 10**12
_TRIAL_DIVISION_BOUND = isqrt(PRIME_TEST_BOUND)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; a number above
    ``PRIME_TEST_BOUND`` raises ``ValueError`` instead of taking hours."""
    if n > PRIME_TEST_BOUND:
        raise ValueError(f"{n} is above {PRIME_TEST_BOUND}, the largest number "
                         "the primality test accepts")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    root = isqrt(n)
    d = 3
    while d <= root:
        if n % d == 0:
            return False
        d += 2
    return True


class TooLargeToFactor(ValueError):
    """A number that trial division up to 10^6 cannot finish factoring."""


def factorint(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: exponent} by trial division
    up to the square root of ``PRIME_TEST_BOUND``: a cofactor above that
    bound with no prime factor up to there raises ``TooLargeToFactor``.

    >>> factorint(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n <= 0:
        raise ValueError(f"factorint expects a positive integer, got {n}")
    result: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            n //= p
            result[p] = result.get(p, 0) + 1
    d = 5
    while d * d <= n:
        if d > _TRIAL_DIVISION_BOUND:
            raise TooLargeToFactor(
                f"a cofactor above {PRIME_TEST_BOUND} has no prime factor up to "
                f"{_TRIAL_DIVISION_BOUND}")
        for p in (d, d + 2):
            while n % p == 0:
                n //= p
                result[p] = result.get(p, 0) + 1
        d += 6
    if n > 1:
        result[n] = result.get(n, 0) + 1
    return dict(sorted(result.items()))


def _pack(a: array, w: int) -> int:
    """The int whose little-endian bytes are a's coefficients, w bytes each.

    Byte k of every slot is copied in one extended-slice assignment from
    byte k of every 8-byte word, read little endian (the words are
    byteswapped first on a big-endian host).  The caller guarantees every
    coefficient is below 2^(8w), so the dropped high bytes are zero.
    """
    if sys.byteorder == "big":
        a = array("Q", a)
        a.byteswap()
    raw = a.tobytes()
    out = bytearray(w * len(a))
    for k in range(w):
        out[k::w] = raw[k::8]
    return int.from_bytes(out, "little")


def _mul(a: array, b: array, p: int, m: int) -> array:
    """The first m coefficients of a * b, reduced mod p, for entries of a
    and b in [0, p) and m <= len(a) + len(b) - 1.

    Kronecker substitution at two points (Harvey's KS2): each series is
    split into its even-index and odd-index halves E and O, each half is
    packed into one int with a w-byte little-endian slot per coefficient,
    and a(+-x) = E +- (O << 4w) for x = 2^(4w).  The two int products
    H+- = a(+-x) b(+-x) give (H+ + H-)/2, the even product coefficients in
    w-byte slots, and (H+ - H-)/(2x), the odd ones.  Each product has
    operands of half the length, so the two cost about 2 (1/2)^1.58 of
    one full-length Karatsuba product.  No slot carries into the next:
    product coefficient k is a sum of at most min(len a, len b) terms,
    each at most (p-1)^2, and w is the least byte count with
    min(len a, len b) * (p-1)^2 < 2^(8w).  That bound is at least p - 1,
    so every entry of a and b fits its slot too; the entries need not fit
    in 4w bits.  At the regularity test's full length (p-1)/2, w is at
    most 5 for p < 10^4 and at most 7 below 10^5, against the 8 bytes of
    an array word; fewer bytes make the int products shorter.  Unpacking
    copies byte lanes back into 8-byte words, even and odd coefficients
    alternately, whose high 8 - w bytes stay zero.
    """
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7 >> 3
    x = 4 * w
    ea, oa = _pack(a[0::2], w), _pack(a[1::2], w) << x
    eb, ob = _pack(b[0::2], w), _pack(b[1::2], w) << x
    plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    n = len(a) + len(b) - 1  # coefficients of a * b: n - n // 2 even, n // 2 odd
    even = ((plus + minus) >> 1).to_bytes(w * (n - n // 2), "little")
    odd = ((plus - minus) >> (x + 1)).to_bytes(w * (n // 2), "little")
    raw = bytearray(8 * m)
    for k in range(w):
        raw[k::16] = even[k:w * (m - m // 2):w]
        raw[8 + k::16] = odd[k:w * (m // 2):w]
    slots = array("Q", raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return array("Q", [c % p for c in slots])


def _series_inverse(s: array, p: int) -> array:
    """1/s mod (p, y^len(s)) for s[0] = 1, by Newton iteration.

    The precisions n, ceil(n/2), ..., 1 are fixed from the top, so no step
    computes coefficients past n.  A step from b = 1/s mod y^k to
    precision m, k = ceil(m/2), reads the high half of s b:
    s b = 1 + y^k e mod y^m, and b (1 - y^k e) = 1/s mod y^m as 2k >= m,
    so the new coefficients k..m-1 are -(b e mod y^(m-k)), an (m-k) by
    (m-k) product.
    """
    steps = []
    m = len(s)
    while m > 1:
        steps.append(m)
        m -= m // 2
    b = array("Q", [1])
    for m in reversed(steps):
        k = len(b)
        e = _mul(s[:m], b, p, m)[k:]
        b += array("Q", [-c % p for c in _mul(b[:m - k], e, p, m - k)])
    return b


def _series_quotient(c: array, s: array, p: int) -> array:
    """c/s mod (p, y^n) for n = len(c) = len(s) and s[0] = 1, from an inverse
    of half the length.

    With h = ceil(n/2) and b = 1/s mod y^h, q0 = c b mod y^h is the
    quotient mod y^h, so c - s q0 is divisible by y^h.  Its coefficients
    h..n-1, r = (c - s q0) div y^h, give the rest: c/s = q0 + y^h (r/s),
    and r/s = b r mod y^(n-h) because n - h <= h.  So
    q = q0 + y^h (b r mod y^(n-h)) costs an inverse of half the length and
    three products, the largest n by h, in place of a full-length inverse
    and an n by n product (Karp and Markstein's half-precision division).
    In the regularity test c[0] = 1, so a wrong b gives a wrong q0, which
    the caller's certificate s q = c catches.
    """
    n = len(s)
    h = n - n // 2
    b = _series_inverse(s[:h], p)
    q0 = _mul(c[:h], b, p, h)
    r = [(x - y) % p for x, y in zip(c[h:], _mul(s, q0, p, n)[h:])]
    return q0 + _mul(b[:n - h], array("Q", r), p, n - h)


def irregular_indices(p: int) -> list[int]:
    """Even indices k with 2 <= k <= p-3 such that p divides the numerator
    of B_k.  Empty exactly when p is regular.

    Reads every B_k mod p off one power series.  With y = x^2,
    x coth x = cosh x / (sinh x / x) = sum_j 4^j B_{2j} y^j / (2j)!, where
    the numerator has coefficients 1/(2j)! and the denominator 1/(2j+1)!.
    Both are taken mod p to n = (p-1)/2 terms and divided with
    ``_series_quotient``: a Newton inverse to half length on precisions
    halved down from n/2, one correction step, and Kronecker products
    evaluated at two points, each an int product of half-length operands.
    For 2j <= p-3, p divides neither 4^j nor (2j)! nor the denominator of
    B_{2j} (whose prime factors q satisfy (q-1) | 2j), so p divides the
    numerator of B_{2j} exactly when coefficient j of the quotient
    vanishes mod p.

    The inverse factorials need no modular inversion: Wilson's theorem
    gives (p-2)! = 1 mod p, and 1/(k-1)! = k/k! sweeps down from there.
    The quotient q is certified by checking s q = c mod (p, y^n), a
    product of its own that reuses none of the quotient's; a failure
    raises ``ArithmeticError``.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= 10**5:
        raise ValueError("regularity test supported for primes below 10^5")
    if p < 5:
        return []  # the index range 2..p-3 is empty
    inv_fact = array("Q", [0]) * (p - 1)  # 1/k! mod p for k = 0..p-2
    inv_fact[p - 2] = 1
    for k in range(p - 2, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    c, s = inv_fact[0::2], inv_fact[1::2]  # n = (p-1)/2 terms each
    n = len(c)
    q = _series_quotient(c, s, p)
    if _mul(s, q, p, n) != c:
        raise ArithmeticError(f"Bernoulli series mod {p} fails its certificate")
    return [2 * j for j in range(1, n) if q[j] == 0]


def is_regular_prime(p: int) -> bool:
    """True when p divides no numerator among B_2, ..., B_{p-3}.

    >>> is_regular_prime(5), is_regular_prime(37), is_regular_prime(691)
    (True, False, False)
    """
    return not irregular_indices(p)
