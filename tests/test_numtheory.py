import bisect
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_oracle import numtheory
from prime_oracle.errors import DomainError, ResourceError
from prime_oracle.numtheory import (
    is_prime_batch,
    is_prime_u64,
    lucas_lehmer,
    mersenne_digit_count,
    prime_segments,
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


#: The first twelve primes: as strong-probable-prime bases they are proven
#: for every n < psi_12 (Sorenson & Webster, Math. Comp. 86, 2017).
TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Jaeschke's psi_k (Math. Comp. 61, 1993; OEIS A014233) for k = 1..6: the
#: least strong pseudoprime to all of the first k prime bases.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383)


def strong_probable_prime(n: int, bases) -> bool:
    """Independent oracle: the strong probable-prime test of odd n > 37 to ``bases``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_by_spsp(n: int) -> int:
    """Smallest prime >= odd n > 37 by the twelve-base test (n < psi_12)."""
    while not strong_probable_prime(n, TWELVE_PRIMES):
        n += 2
    return n


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


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


#: pi(10**k) for k = 1..9, OEIS A006880.
PI_POWERS_OF_TEN = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534)


class TestPrimesUpTo:
    def test_tiny_exhaustive(self):
        assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert primes_up_to(2).primes.tolist() == [2]

    def test_million_count(self):
        assert len(primes_up_to(10**6)) == 78498

    def test_counts_at_powers_of_ten(self):
        for k, count in enumerate(PI_POWERS_OF_TEN[:8], start=1):
            assert len(primes_up_to(10**k)) == count, k

    def test_count_bound(self):
        # the bound sizes the sieve's one output array, so it must hold at
        # every x to 4e5, across the switch from Rosser-Schoenfeld to Dusart
        # at 355991, and at the decades to 1e9
        top = 4 * 10**5
        flags = np.zeros(top + 1, dtype=np.int64)
        flags[primes_up_to(top).primes.astype(np.int64)] = 1
        pi = np.cumsum(flags)
        bound = [numtheory._prime_count_bound(x) for x in range(2, top + 1)]
        assert np.all(np.array(bound) >= pi[2:])
        for k, count in enumerate(PI_POWERS_OF_TEN, start=1):
            assert numtheory._prime_count_bound(10**k) >= count, k

    def test_table_held_once(self):
        # the primes are written into one array sized by the bound: chunks
        # joined by np.concatenate peaked at twice the 44 MiB table at 1e8
        tracemalloc.start()
        try:
            table = primes_up_to(10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * table.primes.nbytes + 8 * 2**20, peak

    def test_table_invariants(self, primes_small):
        p = primes_small.primes.astype(np.int64)
        assert p[0] == 2
        assert np.all(np.diff(p) > 0)
        assert p[-1] <= primes_small.limit

    def test_segment_boundaries(self, monkeypatch):
        # A segment of ``seg`` flags, one per integer prime to 6, spans
        # 3*seg integers: limits on either side of the k-th multiple of seg,
        # 2*seg and 3*seg, at a prime square, at the squares p*p = 2*k*seg + 1
        # that were a segment's first flag with one flag per odd integer, and
        # at a prime square q*q whose flat index q*q // 3 is a multiple of
        # seg, so that q*q is a segment's first flag (limit q*q makes it the
        # whole last segment).
        expected = trial_division_primes(751 * 751 + 1000)
        for seg, p, q in ((2, 3, 5), (7, 13, 29), (64, 127, 191), (1000, 751, 499)):
            assert p * p % (2 * seg) == 1 and trial_division_is_prime(p)
            assert q * q // 3 % seg == 0 and trial_division_is_prime(q)
            monkeypatch.setattr(numtheory, "_SEGMENT", seg)
            limits = [m * k * seg + d for m in (1, 2, 3) for k in (1, 2, 5) for d in (-1, 0, 1)]
            limits += [97 * 97, p * p, p * p + seg, q * q - 1, q * q, q * q + 1, q * q + 3 * seg]
            for limit in [n for n in limits if n >= 2]:
                got = primes_up_to(limit).primes
                assert got.dtype == np.uint64
                want = expected[: bisect.bisect_right(expected, limit)]
                assert got.tolist() == want, (seg, limit)

    def test_equality_is_identity(self):
        # the generated __eq__ and __hash__ would compare and hash the array
        a, b = primes_up_to(100), primes_up_to(100)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    @given(st.integers(min_value=2, max_value=20_000))
    @settings(max_examples=60, deadline=None)
    def test_small_segments_match_trial_division(self, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numtheory, "_SEGMENT", 64)
            assert primes_up_to(limit).primes.tolist() == trial_division_primes(limit)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            primes_up_to(1)

    def test_resource_ceiling(self):
        with pytest.raises(ResourceError):
            primes_up_to(10**9 + 1)


#: Sizes of ``_SEGMENT`` the window tests run at, each a few flags wide.
SMALL_SEGMENTS = (2, 7, 64, 1000)
ORACLE_TOP = 80_000


@pytest.fixture(scope="module")
def oracle_primes():
    return trial_division_primes(ORACLE_TOP)


def window_of(oracle, lo, hi):
    """The oracle's primes in ``[lo, hi)``."""
    return oracle[bisect.bisect_left(oracle, lo) : bisect.bisect_left(oracle, hi)]


def streamed(lo, hi):
    """``prime_segments(lo, hi)`` joined, after checking each array's type and order."""
    got = []
    for arr in prime_segments(lo, hi):
        assert arr.dtype == np.uint64
        values = arr.tolist()
        assert values == sorted(set(values))
        assert not got or not values or values[0] > got[-1]
        got += values
    return got


class TestPrimeSegments:
    @pytest.mark.parametrize("seg", SMALL_SEGMENTS)
    def test_windows_match_trial_division(self, seg, monkeypatch, oracle_primes):
        monkeypatch.setattr(numtheory, "_SEGMENT", seg)
        rng = random.Random(seg)
        windows = [(0, ORACLE_TOP), (1, 2), (5, 5)]
        for _ in range(40):
            lo = rng.randrange(0, ORACLE_TOP - 3000)
            windows.append((lo, lo + rng.randrange(0, 3000)))
        for lo, hi in windows:
            assert streamed(lo, hi) == window_of(oracle_primes, lo, hi), (seg, lo, hi)

    @pytest.mark.parametrize("seg", SMALL_SEGMENTS)
    def test_windows_at_segment_edges_and_squares(self, seg, monkeypatch, oracle_primes):
        # a segment starts at the integer 3*k*seg; flat index q*q // 3 a
        # multiple of seg puts the square q*q first in its segment
        monkeypatch.setattr(numtheory, "_SEGMENT", seg)
        edges = [3 * k * seg + d for k in (1, 2, 5) for d in (-1, 0, 1)]
        squares = [q for q in (5, 29, 191, 251) if q * q // 3 % seg == 0]
        edges += [p * p + d for p in (5, 7, 97, *squares) for d in (-1, 0, 1)]
        windows = [(lo, hi) for lo in edges for hi in edges if 0 <= hi - lo <= 2000]
        for e in edges:
            for width in (1, 2, 100, 3 * seg + 1, 9 * seg):
                windows += [(max(e - width, 0), e), (e, e + width)]
        for lo, hi in windows:
            assert streamed(lo, hi) == window_of(oracle_primes, lo, hi), (seg, lo, hi)

    @given(
        st.sampled_from(SMALL_SEGMENTS),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_drawn_windows(self, seg, a, b):
        lo, hi = min(a, b), max(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numtheory, "_SEGMENT", seg)
            got = streamed(lo, hi)
        assert got == [n for n in range(lo, hi) if trial_division_is_prime(n)]

    def test_small_windows(self):
        # 2 and 3 go in front of the first array and 5 is its first flag:
        # each appears only inside the window, and 1 (flag 0) never does
        oracle = trial_division_primes(30)
        for seg in SMALL_SEGMENTS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numtheory, "_SEGMENT", seg)
                for lo in range(31):
                    for hi in range(lo, 31):
                        got = streamed(lo, hi)
                        assert got == window_of(oracle, lo, hi), (seg, lo, hi)
                        assert 1 not in got
                        for p in (2, 3, 5):
                            assert (p in got) == (lo <= p < hi)

    def test_adjacent_windows_concatenate(self, monkeypatch):
        rng = random.Random(30)
        for seg in SMALL_SEGMENTS:
            monkeypatch.setattr(numtheory, "_SEGMENT", seg)
            for _ in range(25):
                start = rng.randrange(0, 15_000)
                a, b, c = sorted(start + rng.randrange(0, 5_000) for _ in range(3))
                if c < 3:
                    continue
                table = primes_up_to(c - 1).primes
                want = table[np.searchsorted(table, a) :].tolist()
                assert streamed(a, b) + streamed(b, c) == want, (seg, a, b, c)

    def test_full_segments_match_the_table(self):
        # around the first edges of the real segment size, 3 * _SEGMENT
        span = 3 * numtheory._SEGMENT
        table = primes_up_to(2 * span + 2000).primes
        for lo, hi in ((0, span + 1), (span - 1000, span + 1000), (span - 1, 2 * span + 1)):
            want = table[np.searchsorted(table, lo) : np.searchsorted(table, hi)].tolist()
            assert streamed(lo, hi) == want, (lo, hi)

    def test_refusals(self):
        # refused at the call, before the first array is asked for
        with pytest.raises(DomainError):
            prime_segments(-1, 10)
        with pytest.raises(DomainError):
            prime_segments(11, 10)
        with pytest.raises(ResourceError):
            prime_segments(0, 10**12 + 1)
        assert list(prime_segments(10**12 - 10, 10**12 - 10)) == []

    def test_stream_holds_no_table(self):
        # [1e8, 1e8 + 1e7) holds 541,854 primes (4.3 MB as uint64), about
        # four segments of 3 * 2**20 integers; held one segment at a time
        lo, hi = 10**8, 10**8 + 10**7
        count, last = 0, lo - 1
        tracemalloc.start()
        try:
            for arr in prime_segments(lo, hi):
                count += len(arr)
                assert int(arr[0]) > last
                last = int(arr[-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 541_854
        assert peak < 8 * 2**20, peak


#: The two primality paths: one value at a time, and one array pass.
PATHS = {"scalar": lambda values: [is_prime_u64(n) for n in values], "batch": is_prime_batch}


def assert_both_paths(values, expected):
    """Both paths give ``expected``, one verdict per value in input order."""
    values, expected = list(values), list(expected)
    for name, path in PATHS.items():
        got = path(values)
        wrong = [(n, g) for n, g, w in zip(values, got, expected) if g is not w]
        assert len(got) == len(expected) and not wrong, (name, len(got), wrong[:5])


def assert_batch_matches_scalar(values):
    values = list(values)
    assert_both_paths(values, [is_prime_u64(n) for n in values])


class TestIsPrimeU64:
    def test_unit_is_not_prime(self):
        assert is_prime_u64(1) is False

    def test_large_candidate_exponent(self):
        assert is_prime_u64(140000053) is True
        assert trial_division_is_prime(140000053) is True

    def test_even_neighbor(self):
        assert is_prime_u64(140000054) is False

    def test_agrees_with_trial_division_to_20k(self):
        assert_both_paths(range(2, 20_000), map(trial_division_is_prime, range(2, 20_000)))

    def test_sieve_round_trip(self, primes_small):
        flags = np.zeros(primes_small.limit + 1, dtype=bool)
        flags[primes_small.primes.astype(np.int64)] = True
        for n in range(2, primes_small.limit + 1, 37):
            assert is_prime_u64(n) == bool(flags[n])
        assert all(is_prime_u64(int(p)) for p in primes_small.primes[::251])

    def test_known_64bit_edge_cases(self):
        # strong-pseudoprime traps that defeat smaller witness sets
        assert_both_paths(
            [3215031751, 3825123056546413051, (1 << 61) - 1, (1 << 59) - 1],
            [False, False, True, False],  # 151 * 751 * 28351, spsp to bases 2..23
        )
        assert 3215031751 == 151 * 751 * 28351
        assert 3825123056546413051 == 149491 * 747451 * 34233211

    def test_witness_rows_change_at_each_bound(self):
        # psi_k fools the first k primes, so it must already fall in a later
        # row; 3825123056546413051 (psi_9 = psi_10 = psi_11) fools the first
        # eleven and must meet the 64-bit bases
        traps = [*enumerate(PSI, start=1), (11, 3825123056546413051)]
        for k, bound in traps:
            assert strong_probable_prime(bound, TWELVE_PRIMES[:k]), bound
            assert not strong_probable_prime(bound, TWELVE_PRIMES), bound
        assert_both_paths([bound for _, bound in traps], [False] * len(traps))

    def test_64bit_matches_twelve_bases_seeded(self):
        rng = random.Random(11)
        primes32 = [next_prime_by_spsp(rng.getrandbits(32) | 1 << 31 | 1) for _ in range(60)]
        primes64 = [next_prime_by_spsp(rng.getrandbits(64) | 1 << 63 | 1) for _ in range(60)]
        cases = [561, 41041, 825265]  # Carmichael numbers
        cases += [p * q for p, q in zip(primes32[::2], primes32[1::2])]
        cases += [rng.randrange(1 << 40, 1 << 64) | 1 for _ in range(3000)]
        assert_both_paths(
            primes64 + cases,
            [True] * len(primes64) + [strong_probable_prime(n, TWELVE_PRIMES) for n in cases],
        )

    @given(st.lists(st.integers(min_value=1 << 39, max_value=(1 << 63) - 1), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_64bit_matches_twelve_bases(self, halves):
        odd = [2 * half + 1 for half in halves]  # in [2**40, 2**64)
        assert_both_paths(odd, [strong_probable_prime(n, TWELVE_PRIMES) for n in odd])

    @pytest.mark.parametrize(
        "n, calls",
        [
            (18446744073709551557, 7),  # largest prime below 2**64
            ((1 << 61) - 1, 7),
            (1000003, 2),  # below psi_2
            ((1 << 64) + 13, 12),  # prime past 2**64
        ],
    )
    def test_modular_exponentiations_per_prime(self, monkeypatch, n, calls):
        count = 0

        def counting(*args):
            nonlocal count
            count += 1
            return pow(*args)

        monkeypatch.setattr(numtheory, "pow", counting, raising=False)
        assert is_prime_u64(n) is True
        assert count == calls

    def test_refuses_past_proven_range(self):
        # the twelve-prime witness set is proven only below psi_12
        # (Sorenson & Webster 2017)
        psi_12 = 318_665_857_834_031_151_167_461
        with pytest.raises(DomainError):
            is_prime_u64(psi_12)
        assert isinstance(is_prime_u64(psi_12 - 2), bool)


class TestIsPrimeBatch:
    """Cases only the array path can get wrong: its Montgomery arithmetic
    near the 64- and 32-bit limb edges, empty input, and the values it
    hands to the scalar path with the input order kept."""

    def test_top_of_u64(self):
        # n near 2**64: the REDC high words t and m*n/2**64 are both near
        # 2**64, and t < m*n/2**64 must borrow n back
        assert_batch_matches_scalar(range((1 << 64) - 4096, 1 << 64))

    def test_around_2_to_63(self):
        # 2**64 mod n falls from near n to near 2**63 as n passes 2**63
        assert_batch_matches_scalar(range((1 << 63) - 2048, (1 << 63) + 2048))

    def test_squares_of_primes_below_2_to_32(self):
        primes = [n for n in range((1 << 32) - 1, (1 << 32) - 2000, -2) if is_prime_u64(n)]
        products = [p * p for p in primes] + [p * q for p, q in zip(primes, primes[1:])]
        assert_both_paths(products + primes, [False] * len(products) + [True] * len(primes))

    def test_empty_input(self):
        assert is_prime_batch([]) == []
        assert is_prime_batch(np.array([], dtype=np.uint64)) == []

    def test_uint64_array_matches_list(self):
        # windows of a sieve or a hunt arrive as arrays; near 2**64 a float
        # round trip would change the values
        values = [*range(2048), *range((1 << 64) - 2048, 1 << 64), 3825123056546413051]
        expected = is_prime_batch(values)
        got = is_prime_batch(np.array(values, dtype=np.uint64))
        assert got == expected and all(type(v) is bool for v in got)
        assert expected == [is_prime_u64(n) for n in values]

    def test_other_integer_arrays_take_the_list_path(self):
        values = np.array([-7, 0, 2, 9, 97, 1 << 62], dtype=np.int64)
        assert is_prime_batch(values) == [False, False, True, False, True, False]

    def test_mixed_ranges_keep_input_order(self):
        past_u64 = [(1 << 64) + 13, (1 << 64) + 15, 10**23 + 117, 10**23 + 119]
        values = [-7, 0, 1, *TWELVE_PRIMES, *past_u64, -(1 << 70), 39, 41, (1 << 64) - 59]
        for order in (values, values[::-1], sorted(values)):
            assert_batch_matches_scalar(order)
        assert [is_prime_u64(n) for n in past_u64] == [True, False, True, False]

    def test_refuses_past_proven_range(self):
        psi_12 = 318_665_857_834_031_151_167_461
        with pytest.raises(DomainError, match=str(psi_12 + 1)):
            is_prime_batch([7, 1 << 64, psi_12 + 1, psi_12, 9])


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
