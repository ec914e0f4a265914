"""Exact integer helpers: primality, factoring, square-free decomposition.

Inputs stay at desk scale, but everything here remains exact for arbitrary
precision integers; no floating point is ever involved.  Factoring is
bounded: a radicand with two prime factors beyond about 10**11 is reported
as FactorBudgetExhausted, an InputError, rather than searched for.
"""
from __future__ import annotations

from math import gcd, isqrt

from .errors import FactorBudgetExhausted

# Pollard-Brent steps allowed for one split: a second or two at desk
# scale.  It finds prime factors up to about 10**11 reliably; a composite
# with two larger prime factors is reported instead of searched for hours.
_RHO_BUDGET = 1 << 21

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the primes below 1000, by the sieve of Eratosthenes
_sieve = bytearray([1]) * 1000
_sieve[:2] = b"\0\0"
for _p in range(2, 32):  # 31 < sqrt(1000) < 32
    if _sieve[_p]:
        _sieve[_p * _p :: _p] = bytes(len(range(_p * _p, 1000, _p)))
_SMALL_PRIMES = [_n for _n in range(1000) if _sieve[_n]]


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division, a strong base-2 Miller-Rabin test and a
    strong Lucas test with Selfridge's parameters (Baillie-Wagstaff, Math.
    Comp. 35 (1980)).  Exact below 2**64; no composite passing it is known.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat (Miller-Rabin) test of an odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd n > 2 that has no factor below 41.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.
    """
    r = isqrt(n)
    if r * r == n:  # no such D exists for a square
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # |D| < n here, so gcd(D, n) is a proper factor
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n along the bits of d, from k = 1 (P = 1)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u % 2 else u) // 2
            v = (v + n if v % 2 else v) // 2
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def _pollard_brent(n: int) -> int | None:
    """Some nontrivial factor of an odd composite n (Brent's cycle method),
    or None once _RHO_BUDGET steps of the iteration are spent."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 1000):
        y, m = 2, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            steps += r
            if steps > _RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            steps += r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor() wants a positive integer")
    radicand = n
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        if d is None:
            raise FactorBudgetExhausted(
                f"cannot factor {radicand} to make it square-free within "
                f"{_RHO_BUDGET} Pollard-Brent steps"
            )
        stack.append(d)
        stack.append(m // d)
    return out


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s*s*d with d square-free; returns (s, d).  Requires n >= 0."""
    if n < 0:
        raise ValueError("squarefree_part() wants a nonnegative integer")
    if n == 0:
        return 0, 1
    r = isqrt(n)
    if r * r == n:
        return r, 1
    s, d = 1, 1
    for p, e in factor(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d
