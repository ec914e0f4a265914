import random
import time
from math import isqrt

import pytest

from noksurf import InputError
from noksurf.intmath import _SMALL_PRIMES, factor, is_prime, squarefree_part


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 43):
        assert is_prime(n) == (n in primes)


def test_small_primes_are_the_primes_below_1000():
    assert _SMALL_PRIMES == [n for n in range(2, 1000) if is_prime(n)]


def test_is_prime_carmichael_and_big():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_is_prime_rejects_psi12():
    # the smallest strong pseudoprime to all twelve prime bases 2..37
    p, q = 399165290221, 798330580441
    assert p * q == 318665857834031151167461
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)
    assert squarefree_part(p * p * q) == (p, q)


def test_is_prime_needs_both_halves_of_bpsw():
    # strong base-2 pseudoprimes (fooling Miller-Rabin to base 2), then strong
    # Lucas pseudoprimes (fooling the Selfridge Lucas test); none has a factor
    # below 41, so trial division does not catch them
    for n in (8321, 42799, 49141, 65281, 3825123056546413051):
        assert not is_prime(n)
    for n in (5459, 5777, 10877, 16109, 18971, 22499):
        assert not is_prime(n)


def test_is_prime_matches_trial_division():
    for n in range(1, 20000):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, isqrt(n) + 1)))


def test_factor_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        f = factor(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q) == {p: 1, q: 1}
    p, q = 2**31 - 1, 2**31 + 11
    assert factor(p * q) == {p: 1, q: 1}


def test_factor_budget_exhausted_names_the_radicand():
    p, q = 30000000000000000041, 70000000000000000013  # two 20-digit primes
    assert is_prime(p) and is_prime(q)
    t0 = time.perf_counter()
    with pytest.raises(InputError, match=str(p * q)):
        squarefree_part(p * q)
    assert time.perf_counter() - t0 < 30


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, (0, 1)),
        (1, (1, 1)),
        (4, (2, 1)),
        (8, (2, 2)),
        (12, (2, 3)),
        (49, (7, 1)),
        (50, (5, 2)),
        (360, (6, 10)),
    ],
)
def test_squarefree_part_known(n, expected):
    assert squarefree_part(n) == expected


def test_squarefree_part_reconstructs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**8)
        s, d = squarefree_part(n)
        assert s * s * d == n
        for p in range(2, 40):
            assert d % (p * p) != 0


def test_squarefree_part_negative_rejected():
    with pytest.raises(ValueError):
        squarefree_part(-4)
