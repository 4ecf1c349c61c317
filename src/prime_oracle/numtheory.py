"""Exact integer primality and prime-table services.

Everything here is deterministic: the Miller-Rabin witness set below is
proven to classify every integer up to 3.3e24 (comfortably past 2**64)
without error, and the Lucas-Lehmer test is exact for Mersenne numbers.
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

#: First twelve primes; a proven deterministic Miller-Rabin witness set for
#: every n < 318,665,857,834,031,151,167,461 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Largest exponent accepted by :func:`lucas_lehmer`; certifying 1e8-scale
#: exponents is out of reach on desk hardware and refused loudly.
LUCAS_LEHMER_CEILING = 100_000

#: Largest sieve limit this module will attempt.
SIEVE_LIMIT_CEILING = 10**9

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

    def __post_init__(self) -> None:
        if self.primes.dtype != np.uint64:
            object.__setattr__(self, "primes", self.primes.astype(np.uint64))


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def primes_up_to(limit: int, *, segment_bytes: int = 1 << 26) -> PrimeTable:
    """Sieve of Eratosthenes, segmented to cap working memory.

    ``segment_bytes`` bounds the boolean scratch array per segment, so a
    limit of 1e9 stays within a small fraction of an 8 GB machine.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"primes_up_to requires limit >= 2, got {limit}")
    if limit > SIEVE_LIMIT_CEILING:
        raise ResourceError(f"sieve limit {limit} exceeds ceiling {SIEVE_LIMIT_CEILING}")

    segment = max(int(segment_bytes), 1 << 16)
    if limit <= segment:
        return PrimeTable(limit, _simple_sieve(limit).astype(np.uint64))

    base = _simple_sieve(math.isqrt(limit))
    chunks = [base.astype(np.uint64)]
    lo = int(base[-1]) + 1 if len(base) else 2
    lo = max(lo, math.isqrt(limit) + 1)
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                flags[start - lo :: p] = False
        chunks.append((np.flatnonzero(flags) + lo).astype(np.uint64))
        lo = hi + 1
    return PrimeTable(limit, np.concatenate(chunks))


def is_prime_u64(n: int) -> bool:
    """Deterministic primality for unsigned 64-bit integers.

    Small-prime division handles the bulk of composites; survivors go
    through Miller-Rabin with the fixed witness set, which has no false
    answers in the u64 range.
    """
    n = int(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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

