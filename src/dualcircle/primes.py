"""Elementary number theory helpers: primality, factorization, p-adic
valuations and the regular-prime test.

Everything here is exact integer arithmetic.  The regularity test reads
all of B_2, ..., B_{p-3} mod p off one power-series quotient and
certifies the quotient with one more product, so it stays fast for primes
below 10^5.  Series are multiplied by Kronecker substitution on Python
ints, with little-endian slots only as wide as the coefficient bound
needs (at most 7 bytes below 10^5).  The quotient comes from a Newton
inverse of half the length and one correction step (Karp and Markstein's
division), after Buhler, Crandall, Ernvall, Metsankyla and Shokrollahi,
"Irregular primes and cyclotomic invariants to 12 million" (2001).  The
package holds no second route to Bernoulli numbers: the exact recurrence
and the power-sum congruence that cross-check the modular method live in
the test suite.
"""

from __future__ import annotations

import sys
from array import array
from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for CLI-sized inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


def factorint(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: exponent} by trial division.

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

    Kronecker substitution: each series is packed into one int with a
    w-byte little-endian slot per coefficient, so one int product gives
    every coefficient at once.  No slot carries into the next: product
    coefficient k is a sum of at most min(len a, len b) terms, each at
    most (p-1)^2, and w is the least byte count with
    min(len a, len b) * (p-1)^2 < 2^(8w).  That bound is at least p - 1,
    so every entry of a and b fits its slot too.  At the regularity
    test's full length (p-1)/2, w is at most 5 for p < 10^4 and at most 7
    below 10^5, against the 8 bytes of an array word; fewer bytes make the
    int product shorter.  Unpacking copies byte lanes back into 8-byte
    words, whose high 8 - w bytes stay zero.
    """
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7 >> 3
    data = (_pack(a, w) * _pack(b, w)).to_bytes(w * (len(a) + len(b) - 1), "little")
    raw = bytearray(8 * m)
    for k in range(w):
        raw[k::8] = data[k:w * m:w]
    slots = array("Q", raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return array("Q", [c % p for c in slots])


def _series_inverse(s: array, p: int) -> array:
    """1/s mod (p, y^len(s)) by Newton iteration b <- b (2 - s b); s[0] = 1."""
    b = array("Q", [1])
    m = 1
    while m < len(s):
        m = min(2 * m, len(s))
        e = array("Q", [-c % p for c in _mul(s[:m], b, p, m)])
        e[0] = (e[0] + 2) % p
        b = _mul(b, e, p, m)
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
    ``_series_quotient`` (Newton inversion to half length, one correction
    step, Kronecker products).  For 2j <= p-3, p divides neither
    4^j nor (2j)! nor the denominator of B_{2j} (whose prime factors q
    satisfy (q-1) | 2j), so p divides the numerator of B_{2j} exactly when
    coefficient j of the quotient vanishes mod p.

    The inverse factorials need no modular inversion: Wilson's theorem
    gives (p-2)! = 1 mod p, and 1/(k-1)! = k/k! sweeps down from there.
    The quotient q is certified by checking s q = c mod (p, y^n); a
    failure raises ``ArithmeticError``.
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
