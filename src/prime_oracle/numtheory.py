"""Exact integer primality and prime-table services.

Everything here is deterministic.  Miller-Rabin runs with the smallest
witness set proven for the range of its input (``_MR_TABLE``): the first k
primes below Jaeschke's psi_k for k <= 6 (Math. Comp. 61, 1993; OEIS
A014233), Sinclair's seven bases below 2**64 (checked against Feitsma and
Galway's list of every base-2 strong pseudoprime below 2**64), and the first
twelve primes below psi_12 ~ 3.19e23 (Sorenson & Webster, Math. Comp. 86,
2017).  Larger inputs are refused, and the Lucas-Lehmer test is exact for
Mersenne numbers.

Primality has two paths with the same witness rows, picked by the caller's
input size.  :func:`is_prime_u64` tests one integer with Python ``pow``, a
few microseconds: the single values of hunt targets, candidate records, the
hunt's per-candidate filter, :func:`lucas_lehmer` and trial factoring, and
the tests' oracle.  :func:`is_prime_batch` tests a list or a ``uint64``
array in one pass of ``uint64`` array arithmetic (Montgomery multiplication
on 32-bit limbs) for ``verify``, which hands it one column of parsed values:
about 23 ms for 10,000 mixed 64-bit values (21 ms as an array) against
0.14 s one by one on a 2-core Xeon, but with a fixed cost of a few thousand
numpy calls, about 5 ms for one 64-bit prime, that one ``pow`` does not
have.

Primes come from a segmented sieve of Eratosthenes that keeps one flag per
integer prime to 6, 1 MB of scratch flags for each segment of about 3.1M
integers.  :func:`prime_segments` streams any window below 1e12 one segment
at a time, and :func:`primes_up_to` collects ``[0, limit]`` into one table:
pi(1e8) in 0.13 s and pi(1e9) in 1.5-1.9 s; one segment near 1e9 costs
about 5.6 ms and near 1e10 about 9.5 ms, on a 2-core Xeon.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import DomainError, ResourceError

__all__ = [
    "PrimeTable",
    "primes_up_to",
    "prime_segments",
    "is_prime_u64",
    "is_prime_batch",
    "lucas_lehmer",
    "mersenne_digit_count",
    "LUCAS_LEHMER_CEILING",
    "MILLER_RABIN_LIMIT",
    "SIEVE_LIMIT_CEILING",
]

#: First twelve primes: the trial divisors, and a proven deterministic
#: Miller-Rabin witness set for every n below ``MILLER_RABIN_LIMIT`` = psi_12
#: (Sorenson & Webster 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318_665_857_834_031_151_167_461

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
    (MILLER_RABIN_LIMIT, _MR_WITNESSES),
)

#: The array path of :func:`is_prime_batch`: the six psi_k bounds of
#: ``_MR_TABLE`` (``searchsorted(..., side="right")`` is the row index, 6 for
#: Sinclair's bases), and each row's witnesses after the leading 2,
#: zero-padded, with their count.
_ROW_BOUNDS = np.array([bound for bound, _ in _MR_TABLE[:6]], dtype=np.uint64)
_ROW_WITNESSES = np.array(
    [w[1:] + (0,) * (7 - len(w)) for _, w in _MR_TABLE[:7]], dtype=np.uint64
)
_ROW_LENGTHS = np.array([len(w) - 1 for _, w in _MR_TABLE[:7]])
_U64_LIMIT = 1 << 64
_LOW32 = np.uint64(0xFFFF_FFFF)

#: Largest exponent accepted by :func:`lucas_lehmer`; certifying 1e8-scale
#: exponents is out of reach on desk hardware and refused loudly.
LUCAS_LEHMER_CEILING = 100_000

#: Largest sieve limit this module will attempt.
SIEVE_LIMIT_CEILING = 10**9

#: Boolean flags per sieve segment, one per integer prime to 6, so a segment
#: spans ``3 * _SEGMENT`` integers: the scratch memory of any sieve (1 MB,
#: sized to fit a per-core L2 cache).
_SEGMENT = 1 << 20

#: Largest window end of :func:`prime_segments`, whose base primes stay below 1e6.
_WINDOW_CEILING = 10**12

# 56 digits of log10(2); exact digit counts for any exponent a float could
# silently get wrong near an integer boundary.
_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131")


@dataclass(frozen=True, eq=False)
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
    """All primes up to ``limit``: the segments of :func:`prime_segments` over ``[0, limit]``.

    2 and 3 go in front, and each segment's primes (see :func:`_sieve`) are
    written straight into one array sized by :func:`_prime_count_bound`; the
    table is its filled prefix, so the result is held once.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"primes_up_to requires limit >= 2, got {limit}")
    if limit > SIEVE_LIMIT_CEILING:
        raise ResourceError(f"sieve limit {limit} exceeds ceiling {SIEVE_LIMIT_CEILING}")

    out = np.empty(_prime_count_bound(limit), dtype=np.uint64)
    out[0], out[1] = 2, 3
    count = 1 if limit < 3 else 2
    for first, flags in _sieve(0, limit + 1):
        found = np.flatnonzero(flags)
        _flag_values(found, first, out[count : count + len(found)])
        count += len(found)
    return PrimeTable(limit, out[:count])


def prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes in ``[lo, hi)``, ascending, as one ``uint64`` array per segment.

    Each segment covers ``3 * _SEGMENT`` integers (see :func:`_sieve`), and
    2 and 3, when in the window, go in front of the first array, so the
    arrays concatenate to the window's primes while only one segment's
    flags and primes are held at a time.  ``lo > hi`` or ``lo < 0`` raise
    :class:`DomainError` and ``hi > 10**12`` raises :class:`ResourceError`
    (the base primes stay below 1e6), both at the call, before the first
    array.
    """
    lo, hi = int(lo), int(hi)
    if lo < 0 or lo > hi:
        raise DomainError(f"prime_segments requires 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > _WINDOW_CEILING:
        raise ResourceError(f"prime_segments window end {hi} exceeds ceiling {_WINDOW_CEILING}")
    return _segment_arrays(lo, hi)


def _segment_arrays(lo: int, hi: int):
    """The generator behind :func:`prime_segments`, whose checks run at the call."""
    head = [q for q in (2, 3) if lo <= q < hi]
    for first, flags in _sieve(lo, hi):
        found = np.flatnonzero(flags)
        primes = np.empty(len(head) + len(found), dtype=np.uint64)
        primes[: len(head)] = head
        _flag_values(found, first, primes[len(head) :])
        head = []
        yield primes
    if head:  # a window such as [2, 5) holds no integer prime to 6
        yield np.array(head, dtype=np.uint64)


def _flag_index(v: int) -> int:
    """The flat index of the least integer prime to 6 that is ``>= v >= 0``."""
    i, r = divmod(v, 3)
    return i + 1 if r == 2 and i % 2 == 0 else i


def _flag_values(found: np.ndarray, first: int, out: np.ndarray) -> None:
    """Write the integers of flat indices ``first + found`` into ``out`` in place.

    Index ``i`` stands for ``3i + 1 + (i & 1)``, which is ``(3i + 1) | 1``.
    """
    np.multiply(found, 3, out=out, casting="unsafe")
    out += 3 * first + 1
    out |= 1


def _sieve(lo: int, hi: int):
    """Segmented sieve of Eratosthenes on the integers prime to 6 in ``[lo, hi)``.

    Bays & Hudson's segments (BIT 17, 1977) on the smallest wheel (Pritchard,
    Acta Inform. 17, 1982): flat index ``i`` stands for ``3i + 1 + (i & 1)``
    and ``v // 3`` maps back.  Yields ``(first, flags)`` per segment of at
    most ``_SEGMENT`` flags, ``flags[j]`` true iff the integer of flat index
    ``first + j`` is prime (1 is not).  A base prime ``p >= 5`` strikes its
    multiples ``m*p`` with ``m >= p`` prime to 6: ``m = 1`` and ``m = 5
    (mod 6)`` each advance ``6p`` in value and ``2p`` in flat index.  Each
    progression's first flat index ``s`` (from ``p*p`` and the next
    multiplier above p) is worked out once; a segment's offsets are
    ``max(s - first, (s - first) mod 2p)`` for every active base prime in
    one array expression.  The base primes come from :func:`primes_up_to`
    (three levels deep at 1e9; below 25 from the wheel itself).
    """
    start, stop = _flag_index(lo), _flag_index(hi)
    root = math.isqrt(hi - 1) if hi > 1 else 0
    if root < 25:  # below 5*5 every integer prime to 6 but 1 is prime
        base = [p for p in (5, 7, 11, 13, 17, 19, 23) if p <= root]
    else:
        base = primes_up_to(root).primes[2:].tolist()
    steps = [2 * p for p in base]
    # flat indices of p*p and of (p + 2)p or (p + 4)p, whose multiplier is
    # the least above p in the other residue class
    squares = [p * p // 3 for p in base]
    strikes = [squares, [(p + 6 - 2 * (p % 3)) * p // 3 for p in base]]
    columns = None
    for first in range(start, stop, _SEGMENT):
        end = min(first + _SEGMENT, stop)
        flags = np.ones(end - first, dtype=bool)
        if first == 0:
            flags[0] = False
        active = bisect.bisect_left(squares, end)
        offsets = strikes
        if first and active:
            if columns is None:
                columns = np.array(strikes), np.array(steps)
            d = columns[0][:, :active] - first
            offsets = np.maximum(d, d % columns[1][:active]).tolist()
        for step, a, b in zip(steps[:active], *offsets):
            flags[a::step] = False
            flags[b::step] = False
        yield first, flags


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
    if n >= MILLER_RABIN_LIMIT:
        raise DomainError(
            f"{n} is past the proven Miller-Rabin range (n < {MILLER_RABIN_LIMIT})"
        )
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


def is_prime_batch(values) -> list[bool]:
    """One :func:`is_prime_u64` verdict per value, in input order, in one array pass.

    Values in ``[0, 2**64)`` go into one ``uint64`` array: trial division by
    2..37 is an array ``%``, each survivor's ``_MR_TABLE`` row comes from
    ``np.searchsorted`` over the six psi_k bounds, and Miller-Rabin runs in
    Montgomery arithmetic (:func:`_mont_mul`).  Base 2, first in every row,
    runs on every survivor; only those that pass it meet the rest of their
    row's witnesses, all (value, witness) pairs in one array.  The witness
    sets are the scalar path's, so the same proofs apply.  A ``uint64``
    array is tested as it is, and a list whose values all lie in
    ``[0, 2**64)`` becomes one such array.  Otherwise negative values and
    values in ``[2**64, psi_12)`` take :func:`is_prime_u64`, which also
    refuses the first value at or past psi_12 with :class:`DomainError`
    before any array work.  Verdicts are Python ``bool``.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return _is_prime_array(values).tolist()
    values = list(values)
    if not values or (min(values) >= 0 and max(values) < _U64_LIMIT):
        return _is_prime_array(np.array(values, dtype=np.uint64)).tolist()
    verdicts = [False] * len(values)
    in_u64 = []
    for i, n in enumerate(values):
        if 0 <= n < _U64_LIMIT:
            in_u64.append(i)
        else:
            verdicts[i] = is_prime_u64(n)
    if in_u64:
        n = np.array([values[i] for i in in_u64], dtype=np.uint64)
        for i, verdict in zip(in_u64, _is_prime_array(n).tolist()):
            verdicts[i] = verdict
    return verdicts


def _is_prime_array(n: np.ndarray) -> np.ndarray:
    """:func:`is_prime_u64` verdicts for a ``uint64`` array, as a bool array."""
    prime = np.zeros(len(n), dtype=bool)
    alive = n > 1
    for p in _MR_WITNESSES:
        prime |= n == p
        alive &= n % p != 0
    idx = np.flatnonzero(alive)
    if not len(idx):
        return prime
    mod = _montgomery(n[idx])
    passed = _strong_probable_prime(mod, np.full(len(idx), 2, dtype=np.uint64))
    rest = np.flatnonzero(passed)
    row = np.searchsorted(_ROW_BOUNDS, mod[0, rest], side="right")
    counts = _ROW_LENGTHS[row]
    owner = np.repeat(rest, counts)
    if len(owner):
        # each pair's place in its value's run of witnesses
        column = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        bases = _ROW_WITNESSES[np.repeat(row, counts), column]
        passed[owner[~_strong_probable_prime(mod[:, owner], bases)]] = False
    prime[idx] = passed
    return prime


def _montgomery(n: np.ndarray) -> np.ndarray:
    """Rows ``n, n_lo, n_hi, n_inv, one, r2`` for odd ``uint64`` moduli ``n``.

    ``n_lo``/``n_hi`` are the 32-bit limbs of n, ``n_inv = n**-1 mod 2**64``
    (Newton's iteration from ``n``, right to 3 bits, doubling each step),
    ``one = 2**64 mod n`` (1 in Montgomery form) and ``r2 = 2**128 mod n``:
    ``2 * one`` squared six times in Montgomery form, ``2**j R -> 2**2j R``.
    """
    n_inv = n.copy()
    for _ in range(5):
        n_inv *= 2 - n * n_inv
    one = (~n + 1) % n  # below n <= 2**63, or 2**64 - n: 2 * one cannot wrap
    r2 = one << 1
    r2 -= n * (r2 >= n)
    mod = np.stack([n, n & _LOW32, n >> 32, n_inv, one, r2])
    for _ in range(6):
        mod[5] = _mont_mul(mod[5], mod[5], mod)
    return mod


def _mul_hi(x: np.ndarray, y_lo: np.ndarray, y_hi: np.ndarray) -> np.ndarray:
    """High 64 bits of ``x * y`` for ``uint64`` arrays, with y as 32-bit limbs.

    The four limb products are exact in ``uint64``; the middle column (low
    product's high half plus both cross products' low halves) stays below
    ``3 * 2**32``, and its carry joins the high word.
    """
    x_lo = x & _LOW32
    x_hi = x >> 32
    cross = x_lo * y_hi
    cross2 = x_hi * y_lo
    mid = x_lo * y_lo
    mid >>= 32
    mid += cross & _LOW32
    mid += cross2 & _LOW32
    high = x_hi * y_hi
    high += cross >> 32
    high += cross2 >> 32
    high += mid >> 32
    return high


def _mont_mul(x: np.ndarray, y: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """``x * y / 2**64 mod n`` (REDC, Montgomery, Math. Comp. 44, 1985), x < 2**64, y < n.

    ``m = x * y * n_inv mod 2**64`` makes ``m * n`` agree with ``x * y`` in
    the low word, so ``(x * y - m * n) / 2**64`` is the difference of the
    high words.  Both are below n, so a borrow is fixed by adding n once.
    """
    n, n_lo, n_hi, n_inv = mod[:4]
    t = _mul_hi(x, y & _LOW32, y >> 32)
    m = x * y
    m *= n_inv
    u = _mul_hi(m, n_lo, n_hi)
    borrow = t < u
    t -= u
    t += n * borrow  # not np.add(..., where=): that costs ten plain ops
    return t


def _mont_pow(a: np.ndarray, d: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """``a**d`` per element in Montgomery form, by fixed 4-bit windows of d.

    A table of ``a**0 .. a**15`` (14 products) lets each hex digit of d,
    most significant first, cost four squarings and one product.
    """
    table = np.empty((16, len(a)), dtype=np.uint64)
    table[0] = mod[4]
    table[1] = a
    for k in range(2, 16):
        table[k] = _mont_mul(table[k - 1], a, mod)
    column = np.arange(len(a))
    top = (int(d.max()).bit_length() - 1) // 4 * 4
    x = table[(d >> top) & 15, column]
    for shift in range(top - 4, -1, -4):
        for _ in range(4):
            x = _mont_mul(x, x, mod)
        x = _mont_mul(x, table[(d >> shift) & 15, column], mod)
    return x


def _strong_probable_prime(mod: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Whether each odd ``n = mod[0]`` is a strong probable prime to base ``bases < n``.

    With ``n - 1 = d * 2**s``: ``a**d`` by :func:`_mont_pow`, then up to
    ``s - 1`` squarings of the values not yet decided, each pass on the
    shrinking subset that can still reach -1.
    """
    n, one = mod[0], mod[4]
    minus_one = n - one
    n1 = n - 1
    s = np.frexp((n1 & (~n1 + 1)).astype(np.float64))[1] - 1  # exact: a power of two
    d = n1 >> s.astype(np.uint64)
    x = _mont_pow(_mont_mul(bases, mod[5], mod), d, mod)
    passed = (x == one) | (x == minus_one)
    live = np.flatnonzero(~passed & (s > 1))
    x = x[live]
    for r in range(1, int(s.max())):
        x = _mont_mul(x, x, mod[:, live])
        hit = x == minus_one[live]
        passed[live[hit]] = True
        keep = ~hit & (s[live] > r + 1)
        live, x = live[keep], x[keep]
        if not len(live):
            break
    return passed


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

