import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_oracle.errors import DomainError, ResourceError
from prime_oracle.numtheory import (
    is_prime_u64,
    lucas_lehmer,
    mersenne_digit_count,
    primes_up_to,
)


def trial_division_is_prime(n: int) -> bool:
    """Independent oracle: plain trial division by 2, 3 and 6k +- 1."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def mersenne_smallest_factor(p: int) -> int | None:
    """Independent factorization oracle for 2**p - 1 with p an odd prime.

    Scans the only admissible divisor shapes (q = 2mp + 1, q = +-1 mod 8)
    up to sqrt(2**p - 1); returns the smallest factor, or None if 2**p - 1
    is prime.  Exact for p <= 61 where everything fits in int64.
    """
    m = (1 << p) - 1
    m_max = math.isqrt(m) // (2 * p)
    if m_max < 1:
        return None
    q = 2 * p * np.arange(1, m_max + 1, dtype=np.int64) + 1
    q = q[(q % 8 == 1) | (q % 8 == 7)]
    divisors = q[np.int64(m) % q == 0]
    return int(divisors[0]) if len(divisors) else None


class TestPrimesUpTo:
    def test_tiny_exhaustive(self):
        assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert primes_up_to(2).primes.tolist() == [2]

    def test_million_count(self):
        assert len(primes_up_to(10**6)) == 78498

    def test_table_invariants(self, primes_small):
        p = primes_small.primes.astype(np.int64)
        assert p[0] == 2
        assert np.all(np.diff(p) > 0)
        assert p[-1] <= primes_small.limit

    def test_segmented_matches_simple(self):
        whole = primes_up_to(300_000)
        segmented = primes_up_to(300_000, segment_bytes=1 << 16)
        assert np.array_equal(whole.primes, segmented.primes)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            primes_up_to(1)

    def test_resource_ceiling(self):
        with pytest.raises(ResourceError):
            primes_up_to(10**9 + 1)


class TestIsPrimeU64:
    def test_unit_is_not_prime(self):
        assert is_prime_u64(1) is False

    def test_large_candidate_exponent(self):
        assert is_prime_u64(140000053) is True
        assert trial_division_is_prime(140000053) is True

    def test_even_neighbor(self):
        assert is_prime_u64(140000054) is False

    def test_agrees_with_trial_division_to_20k(self):
        for n in range(2, 20_000):
            assert is_prime_u64(n) == trial_division_is_prime(n), n

    def test_sieve_round_trip(self, primes_small):
        flags = np.zeros(primes_small.limit + 1, dtype=bool)
        flags[primes_small.primes.astype(np.int64)] = True
        for n in range(2, primes_small.limit + 1, 37):
            assert is_prime_u64(n) == bool(flags[n])
        assert all(is_prime_u64(int(p)) for p in primes_small.primes[::251])

    def test_known_64bit_edge_cases(self):
        # strong-pseudoprime traps that defeat smaller witness sets
        assert is_prime_u64(3215031751) is False  # 151 * 751 * 28351
        assert is_prime_u64(3825123056546413051) is False  # spsp to bases 2..23
        assert is_prime_u64((1 << 61) - 1) is True
        assert is_prime_u64((1 << 59) - 1) is False
        assert 3215031751 == 151 * 751 * 28351
        assert 3825123056546413051 == 149491 * 747451 * 34233211

    def test_refuses_past_proven_range(self):
        # the twelve-prime witness set is proven only below psi_12
        # (Sorenson & Webster 2017)
        psi_12 = 318_665_857_834_031_151_167_461
        with pytest.raises(DomainError):
            is_prime_u64(psi_12)
        assert isinstance(is_prime_u64(psi_12 - 2), bool)


class TestLucasLehmer:
    def test_small_prime_exponents(self):
        assert lucas_lehmer(7) is True  # 127
        assert lucas_lehmer(13) is True  # 8191

    def test_composite_mersenne(self):
        assert lucas_lehmer(11) is False  # 2047 = 23 * 89
        assert mersenne_smallest_factor(11) == 23

    def test_agrees_with_factorization_to_61(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            assert lucas_lehmer(p) == (mersenne_smallest_factor(p) is None), p

    def test_rejects_non_prime_exponent(self):
        with pytest.raises(DomainError):
            lucas_lehmer(9)
        with pytest.raises(DomainError):
            lucas_lehmer(2)

    def test_ceiling_is_loud(self):
        with pytest.raises(ResourceError):
            lucas_lehmer(100003)


class TestDigitCount:
    def test_tiny(self):
        assert mersenne_digit_count(7) == 3  # 127

    def test_published_record_exponent(self):
        assert mersenne_digit_count(136279841) == 41024320

    def test_smallest_table_exponent(self):
        assert mersenne_digit_count(140000053) == 42144216

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_length(self, p):
        assert mersenne_digit_count(p) == len(str((1 << p) - 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            mersenne_digit_count(0)
