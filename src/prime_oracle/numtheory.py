"""Exact integer primality and prime-table services.

Everything here is deterministic.  Miller-Rabin runs with the smallest
witness set proven for the range of its input (``_MR_TABLE``): the first k
primes below Jaeschke's psi_k for k <= 6 (Math. Comp. 61, 1993; OEIS
A014233), Sinclair's seven bases below 2**64 (checked against Feitsma and
Galway's list of every base-2 strong pseudoprime below 2**64), and the first
twelve primes below psi_12 ~ 3.19e23 (Sorenson & Webster, Math. Comp. 86,
2017).  Larger inputs are refused, and the Lucas-Lehmer test is exact for
Mersenne numbers.  Prime tables come from a segmented sieve of Eratosthenes
that keeps one flag per odd integer, 1 MB of scratch flags per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import DomainError, ResourceError

__all__ = [
    "PrimeTable",
    "primes_up_to",
    "is_prime_u64",
    "lucas_lehmer",
    "mersenne_digit_count",
    "LUCAS_LEHMER_CEILING",
    "SIEVE_LIMIT_CEILING",
]

#: First twelve primes: the trial divisors, and a proven deterministic
#: Miller-Rabin witness set for every n < psi_12 (Sorenson & Webster 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461

#: ``(bound, witnesses)`` rows, ascending; the first row whose bound exceeds n
#: decides n.  Rows 1-6 are psi_1..psi_6 with the first k primes (Jaeschke
#: 1993).  Sinclair's bases need no reduction mod n: every n reaching that row
#: is at least psi_6 ~ 3.47e12, past the largest base.
_MR_TABLE = (
    (2_047, _MR_WITNESSES[:1]),
    (1_373_653, _MR_WITNESSES[:2]),
    (25_326_001, _MR_WITNESSES[:3]),
    (3_215_031_751, _MR_WITNESSES[:4]),
    (2_152_302_898_747, _MR_WITNESSES[:5]),
    (3_474_749_660_383, _MR_WITNESSES[:6]),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (_MR_LIMIT, _MR_WITNESSES),
)

#: Largest exponent accepted by :func:`lucas_lehmer`; certifying 1e8-scale
#: exponents is out of reach on desk hardware and refused loudly.
LUCAS_LEHMER_CEILING = 100_000

#: Largest sieve limit this module will attempt.
SIEVE_LIMIT_CEILING = 10**9

#: Boolean flags per sieve segment, one per odd integer, so a segment spans
#: ``2 * _SEGMENT`` integers: the scratch memory of any sieve (1 MB, sized to
#: fit a per-core L2 cache).
_SEGMENT = 1 << 20

# 56 digits of log10(2); exact digit counts for any exponent a float could
# silently get wrong near an integer boundary.
_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131")


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending, as an unsigned 64-bit array."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


def _prime_count_bound(x: int) -> int:
    """A proven upper bound on pi(x) for x >= 2, so a sieve fills one array.

    Dusart (2010, Thm 6.9): pi(x) <= x/log x * (1 + 1/log x + 2.51/log^2 x)
    for x >= 355991, within 0.04% of pi(x) at 1e8 and 1e9; below that,
    Rosser & Schoenfeld (1962): pi(x) < 1.25506 x/log x for x > 1.  The
    floor plus one absorbs the float rounding of either bound.
    """
    log_x = math.log(x)
    if x >= 355_991:
        bound = x / log_x * (1.0 + 1.0 / log_x + 2.51 / log_x**2)
    else:
        bound = 1.25506 * x / log_x
    return int(bound) + 1


def primes_up_to(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977) on odd numbers.

    Each segment ``[lo, lo + 2*_SEGMENT)`` holds one flag per odd integer,
    ``flags[i]`` standing for ``lo + 2i + 1``, and 2 is put in front of the
    result.  Each odd base prime ``p <= isqrt(limit)`` strikes every other
    multiple from the first odd one at or above ``max(p*p, lo)``.  The base
    primes come from this same function (five levels deep at 1e9), so one
    loop serves every limit within 1 MB of scratch flags.  The primes go
    straight into one array sized by :func:`_prime_count_bound`, and the
    table is its filled prefix, so the result is held once.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"primes_up_to requires limit >= 2, got {limit}")
    if limit > SIEVE_LIMIT_CEILING:
        raise ResourceError(f"sieve limit {limit} exceeds ceiling {SIEVE_LIMIT_CEILING}")

    root = math.isqrt(limit)
    base = primes_up_to(root).primes[1:].tolist() if root >= 2 else []
    out = np.empty(_prime_count_bound(limit), dtype=np.uint64)
    out[0] = 2
    count = 1
    for lo in range(0, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit + 1)
        flags = np.ones((hi - lo) // 2, dtype=bool)
        if lo == 0:
            flags[0] = False
        for p in base:
            if p * p >= hi:  # not on start >= hi: a larger p may still strike here
                break
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - lo) // 2 :: p] = False
        odd = np.flatnonzero(flags)
        odd *= 2
        odd += lo + 1
        out[count : count + len(odd)] = odd
        count += len(odd)
    return PrimeTable(limit, out[:count])


def is_prime_u64(n: int) -> bool:
    """Deterministic primality for every integer below psi_12 (past 2**64).

    Small-prime division by 2..37 handles the bulk of composites; survivors
    go through Miller-Rabin with the witnesses of the first ``_MR_TABLE`` row
    whose bound exceeds n: the first k primes below psi_k for k <= 6
    (Jaeschke 1993), Sinclair's seven bases below 2**64, and the first twelve
    primes below psi_12 (Sorenson & Webster 2017).  Each set has no false
    answers in its range.  Larger inputs raise :class:`DomainError` rather
    than get an unproven verdict.
    """
    n = int(n)
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"{n} is past the proven Miller-Rabin range (n < {_MR_LIMIT})")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, witnesses in _MR_TABLE:
        if n < bound:
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lucas_lehmer(p: int) -> bool:
    """True iff ``2**p - 1`` is prime, for an odd prime exponent ``p``.

    Runs the classical residue recursion ``s <- s*s - 2 (mod 2**p - 1)``
    with the shift-and-add reduction special to Mersenne moduli.
    """
    p = int(p)
    if p == 2 or not is_prime_u64(p) or p % 2 == 0:
        raise DomainError(f"lucas_lehmer requires an odd prime exponent, got {p}")
    if p > LUCAS_LEHMER_CEILING:
        raise ResourceError(
            f"exponent {p} exceeds the Lucas-Lehmer ceiling {LUCAS_LEHMER_CEILING}"
        )
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = s * s - 2
        s = (s & m) + (s >> p)
        if s >= m:
            s -= m
    return s == 0


def mersenne_digit_count(p: int) -> int:
    """Decimal digit count of ``2**p - 1``, i.e. ``floor(p*log10(2)) + 1``."""
    p = int(p)
    if p < 1:
        raise DomainError(f"mersenne_digit_count requires p >= 1, got {p}")
    return int(Decimal(p) * _LOG10_2) + 1

