"""Elementary number theory helpers: primality, factorization, p-adic
valuations and the regular-prime test.

Everything here is exact integer arithmetic.  The regularity test reads
all of B_2, ..., B_{p-3} mod p off one power-series quotient (Newton
inversion, Kronecker products on Python ints) and certifies the quotient
with one more product, so it stays fast for primes below 10^5.  The
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


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n.  Requires n != 0."""
    if n == 0:
        raise ValueError("p-adic valuation of 0 is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _mul(a: array, b: array, p: int, m: int) -> array:
    """The first m coefficients of a * b, reduced mod p.

    Kronecker substitution: each series is packed into one int with a
    64-bit slot per coefficient.  Both series are at most (p-1)/2 long, so
    a product coefficient is a sum of at most (p-1)/2 terms below p^2,
    which stays below 2^64 for p < 2^21: no slot carries into the next.
    Packing and unpacking both use the native byte order, and on either
    order the first 8m bytes of the full-length product hold coefficients
    0..m-1.
    """
    order = sys.byteorder
    prod = int.from_bytes(a.tobytes(), order) * int.from_bytes(b.tobytes(), order)
    slots = array("Q", prod.to_bytes(8 * (len(a) + len(b) - 1), order)[:8 * m])
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


def irregular_indices(p: int) -> list[int]:
    """Even indices k with 2 <= k <= p-3 such that p divides the numerator
    of B_k.  Empty exactly when p is regular.

    Reads every B_k mod p off one power series.  With y = x^2,
    x coth x = cosh x / (sinh x / x) = sum_j 4^j B_{2j} y^j / (2j)!, where
    the numerator has coefficients 1/(2j)! and the denominator 1/(2j+1)!.
    Both are taken mod p to n = (p-1)/2 terms and divided by Newton
    inversion with Kronecker products.  For 2j <= p-3, p divides neither
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
    q = _mul(c, _series_inverse(s, p), p, n)
    if _mul(s, q, p, n) != c:
        raise ArithmeticError(f"Bernoulli series mod {p} fails its certificate")
    return [2 * j for j in range(1, n) if q[j] == 0]


def is_regular_prime(p: int) -> bool:
    """True when p divides no numerator among B_2, ..., B_{p-3}.

    >>> is_regular_prime(5), is_regular_prime(37), is_regular_prime(691)
    (True, False, False)
    """
    return not irregular_indices(p)
