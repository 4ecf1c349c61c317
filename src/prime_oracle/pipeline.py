"""End-to-end prime hunting: calibration, chains, filtering, persistence.

A hunt is: calibrate the stage count k from the starting prime (k log k ~ p0),
run the TMCMC chain(s), floor-and-shift every visited state to the integer
``floor(exp(z)) + p0``, keep the ones that pass the deterministic primality
test, and append the survivors to a JSON-lines results file with enough
provenance to reproduce them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from ._fork import both
from .errors import DomainError
from .numtheory import (
    MILLER_RABIN_LIMIT,
    is_prime_batch,
    is_prime_u64,
    mersenne_digit_count,
    primes_up_to,
)
from .specialfn import MT, ErrorBoundModel
from .tmcmc import (
    MOVE_COUNTERS,
    HuntTarget,
    TargetKind,
    TmcmcChain,
    TmcmcConfig,
    initial_z,
    make_log_target,
    run_steps,
)

__all__ = [
    "FILE_HEADER",
    "RecordKind",
    "CandidateRecord",
    "HuntPlan",
    "HuntStats",
    "HuntResult",
    "VerifyReport",
    "solve_k",
    "hunt_general",
    "hunt_mersenne",
    "verify_file",
    "write_records",
    "load_records",
    "read_text",
    "collect_candidates",
    "mersenne_small_factor",
    "trial_factor_batch",
]

#: Version stamp written as the first line of every CSV / JSON-lines output.
FILE_HEADER = "# prime-oracle v1"

_U64_LIMIT = 1 << 64

#: What ``verify`` accepts as an integer: ``int()`` alone would also take
#: ``1_000`` and non-ASCII digits such as ``\u0661\u0663``.
_DECIMAL = re.compile(r"[+-]?[0-9]+")

#: Odd primes below this bound, and below a quarter of a block's row width,
#: strike the trial divisors ``q = 2mp + 1`` they divide before any
#: powering.  Each prime adds a fixed cost per block, which 38-bit sweeps do
#: not repay above 2**12.  Measured on a 2-core Xeon near p = 1e6: 2**11
#: costs the same at 38 bits and 13% more at 44 bits; 2**13 costs 16% more
#: at 38 bits and the same at 44 bits.  Rows of 3,900 values of m (40 bits
#: near p = 1.4e8) took 0.12-0.15 ms per exponent with primes below a
#: quarter of the width, 0.17-0.24 ms with all below the width, and the
#: same with an eighth.
_TF_SMALL_PRIME_BOUND = 1 << 12

#: Lanes (values of ``m``, over one or more exponents) per block of the
#: trial-factoring sweep: 256 KB of flags.  About 13% of them survive the
#: small-prime strikes, and half of those the mod-8 strikes, so with its
#: ``uint64`` candidate arrays a block holds about 1 MB of scratch, as one
#: sieve segment does.  Measured 10% faster at 44 bits than 2**20 and level
#: with 2**17.
_TF_BLOCK = 1 << 18

#: Chain steps per block of :func:`collect_candidates`: the states of one
#: block and their numpy scratch take a few MB, whatever the hunt length.
_CHAIN_BLOCK = 1 << 16


class RecordKind(enum.Enum):
    GENERAL_PRIME = "general-prime"
    MERSENNE_EXPONENT = "mersenne-exponent"


#: The keys of a stored record and the JSON type of each (integers must be
#: JSON integers); ``to_json`` writes exactly these and ``from_json`` checks them.
_RECORD_SCHEMA = {
    "value": int,
    "kind": str,
    "p0": int,
    "k": int,
    "seed": int,
    "iteration_found": int,
    "target_kind": str,
    "digit_count": (int, type(None)),
}


@dataclass(frozen=True)
class CandidateRecord:
    """A discovered prime (or candidate Mersenne exponent) with provenance."""

    value: int
    kind: RecordKind
    p0: int
    k: int
    seed: int
    iteration_found: int
    target_kind: str
    digit_count: int | None = None

    def __post_init__(self) -> None:
        if not is_prime_u64(self.value):
            raise DomainError(f"candidate record value {self.value} is not prime")
        if self.value <= self.p0:
            raise DomainError(f"candidate {self.value} does not exceed p0={self.p0}")
        if self.kind is RecordKind.MERSENNE_EXPONENT:
            expected = mersenne_digit_count(self.value)
            if self.digit_count != expected:
                raise DomainError(
                    f"digit count {self.digit_count} != {expected} for {self.value}"
                )

    def to_json(self) -> str:
        fields = {key: getattr(self, key) for key in _RECORD_SCHEMA}
        fields["kind"] = self.kind.value
        return json.dumps(fields, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CandidateRecord":
        """Inverse of :meth:`to_json`; anything off its schema is a DomainError."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DomainError(f"not a JSON record ({exc})") from None
        if not isinstance(obj, dict):
            raise DomainError(f"a record must be a JSON object, got {line!r}")
        for key, types in _RECORD_SCHEMA.items():
            value = obj.get(key, ...)
            # bool is an int subclass in Python but not a JSON integer
            if isinstance(value, bool) or not isinstance(value, types):
                raise DomainError(f"record key {key!r} is missing or of the wrong JSON type")
        fields = {key: obj[key] for key in _RECORD_SCHEMA}
        try:
            fields["kind"] = RecordKind(fields["kind"])
        except ValueError:
            raise DomainError(f"unknown record kind {fields['kind']!r}") from None
        return cls(**fields)


@dataclass
class HuntPlan:
    """Everything needed to reproduce a hunt session.

    Every field means the same in both hunts: each of ``rounds`` rounds runs
    one chain per target for ``burn_in + iterations`` steps, and only visits
    after the ``burn_in`` steps become records.  The stage count ``k`` is
    always ``solve_k(p0)``.
    """

    p0: int
    iterations: int = 10_000_000
    burn_in: int = 0
    rounds: int = 1
    config: TmcmcConfig = field(default_factory=TmcmcConfig)
    model: ErrorBoundModel = MT
    out_path: str | Path | None = None
    k: int = field(init=False)
    trial_factor_bits: int | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.burn_in < 0 or self.rounds < 1:
            raise DomainError("burn_in must be >= 0 and rounds >= 1")
        if self.trial_factor_bits is not None:
            _check_trial_factor_bits(self.trial_factor_bits)
        self.k = solve_k(self.p0)


@dataclass
class HuntStats:
    """Counters and per-target prime sets accumulated during a hunt.

    The proposal, accept and auto-reject counts are the chains' own
    (:class:`.tmcmc.TmcmcChain`), summed over every chain of the hunt.
    """

    iterations: int = 0
    distinct_candidates: int = 0
    skipped_small: int = 0
    skipped_oversize: int = 0
    factored_out: int = 0
    proposals_add: int = 0
    accepts_add: int = 0
    proposals_mult: int = 0
    accepts_mult: int = 0
    auto_rejects: int = 0
    primes_by_target: dict = field(default_factory=dict)

    def add_chain(self, chain: TmcmcChain) -> None:
        """Add one finished chain's move counters."""
        for name in MOVE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(chain, name))

    def summary(self) -> str:
        """One line: accept rate per move, auto-rejects and skipped states."""

        def rate(accepts: int, proposals: int) -> str:
            return f"{accepts / proposals:.3f}" if proposals else "n/a"

        return (
            f"chain: {self.iterations} iterations, accept rate "
            f"add {rate(self.accepts_add, self.proposals_add)} "
            f"mult {rate(self.accepts_mult, self.proposals_mult)}, "
            f"{self.auto_rejects} auto-rejects; skipped {self.skipped_small} small, "
            f"{self.skipped_oversize} oversize"
        )

    def intersection_report(self) -> dict:
        """Sizes of each target's prime set and of their overlap."""
        sets = {k: set(v) for k, v in self.primes_by_target.items()}
        report = {f"{k}_count": len(v) for k, v in sets.items()}
        if len(sets) >= 2:
            names = sorted(sets)
            common = set.intersection(*(sets[n] for n in names))
            report["intersection_count"] = len(common)
            report["intersection"] = sorted(common)
        return report


@dataclass
class HuntResult:
    records: list[CandidateRecord]
    stats: HuntStats


def solve_k(p0: float) -> int:
    """Integer k minimizing ``|k log k - p0|`` (Newton plus neighbor check)."""
    p0 = float(p0)
    if not (10.0 <= p0 < math.inf):  # also refuses NaN
        raise DomainError(f"solve_k requires finite p0 >= 10, got {p0}")
    k = max(2.0, p0 / math.log(p0))
    for _ in range(80):
        step = (k * math.log(k) - p0) / (math.log(k) + 1.0)
        k -= step
        if k < 2.0:
            k = 2.0
        if abs(step) < 1e-9:
            break
    best = min(
        (kk for kk in (math.floor(k), math.ceil(k)) if kk >= 2),
        key=lambda kk: abs(kk * math.log(kk) - p0),
    )
    return int(best)


class CollectResult(NamedTuple):
    visited: dict[int, int]
    chain: TmcmcChain
    skipped_small: int
    skipped_oversize: int


def collect_candidates(
    target: HuntTarget,
    config: TmcmcConfig,
    iterations: int,
    burn_in: int = 0,
    snapshot: dict | None = None,
) -> CollectResult:
    """Map each distinct visited integer to the iteration it first appeared.

    Visits during the first ``burn_in`` iterations are ignored; floored
    values below 2 or beyond the u64 range are skipped (the chain can dip to
    ``exp(z) < 1`` early on).  Passing a ``snapshot`` resumes a previous
    chain so interrupted runs reproduce the uninterrupted record set.

    The chain runs in blocks of :data:`_CHAIN_BLOCK` steps, so one block of
    states is held at a time, and each block is reduced with numpy.  Every
    double in ``[0, 2**64)`` converts to ``uint64`` as its exact floor, so
    one ``uint64`` pass forms ``floor(exp(z)) + p0`` for every state; a sum
    past ``2**64 - 1`` counts as oversize.
    """
    if snapshot is None:
        chain = TmcmcChain(initial_z(target), config.seed)
    else:
        chain = TmcmcChain.from_snapshot(snapshot)
    log_t = make_log_target(target)
    p0 = np.uint64(target.p0)
    # the largest floor(exp(z)) whose sum with p0 is below 2**64
    floor_max = np.uint64(_U64_LIMIT - 1 - target.p0)
    visited: dict[int, int] = {}
    skipped_small = 0
    skipped_oversize = 0
    remaining = iterations
    while remaining:
        n = min(remaining, _CHAIN_BLOCK)
        first = chain.iteration + 1  # the iteration number of zs[0]
        zs = run_steps(chain, log_t, config, n)
        remaining -= n
        skip = min(max(burn_in - first + 1, 0), n)
        if skip == n:
            continue
        e = np.fromiter(map(math.exp, zs[skip:]), dtype=float, count=n - skip)
        first += skip
        small = int(np.count_nonzero(e < 2.0))
        keep = np.flatnonzero((e >= 2.0) & (e < 2.0**64))
        floors = e[keep].astype(np.uint64)
        fits = floors <= floor_max
        keep = keep[fits]
        skipped_small += small
        skipped_oversize += len(e) - small - len(keep)
        distinct, at = np.unique(floors[fits] + p0, return_index=True)
        for value, i in zip(distinct.tolist(), keep[at].tolist()):
            if value not in visited:
                visited[value] = first + i
    return CollectResult(visited, chain, skipped_small, skipped_oversize)


def hunt_general(plan: HuntPlan) -> HuntResult:
    """Hunt primes above ``plan.p0`` with both general targets (see :func:`_hunt`)."""
    return _hunt(plan, (TargetKind.GENERAL_H1, TargetKind.GENERAL_H2))


def hunt_mersenne(plan: HuntPlan) -> HuntResult:
    """Hunt candidate Mersenne exponents above ``plan.p0`` (see :func:`_hunt`)."""
    return _hunt(plan, (TargetKind.MERSENNE_H1,))


def _hunt(plan: HuntPlan, kinds: tuple[TargetKind, ...]) -> HuntResult:
    """Run ``plan.rounds`` rounds of one seeded chain per target kind.

    Each chain runs ``burn_in + iterations`` steps with seed ``config.seed +
    len(kinds) * round + offset``; the primes it first visits after the
    burn-in, less those already in ``plan.out_path`` (and, for Mersenne
    targets, those trial factoring removes), become records.  Each later
    round re-seats p0 on the largest prime found and re-calibrates k.

    The chains of a round share nothing until their candidates merge, so
    the first runs in this process while the others run at the same time in
    a forked worker where :func:`._fork.forks` allows (:func:`_collect_round`);
    the merge goes in kind order either way, so records and stats are the
    same as when the chains run in turn.
    """
    out = plan.out_path
    known = load_records(out) if out is not None and Path(out).exists() else []
    seen = {(r.value, r.kind) for r in known}
    stats = HuntStats()
    records: list[CandidateRecord] = []
    p0, k = plan.p0, plan.k
    steps = plan.burn_in + plan.iterations
    for rnd in range(plan.rounds):
        round_best = 0
        jobs = [
            (
                HuntTarget(kind, p0, k, plan.model),
                replace(plan.config, seed=plan.config.seed + len(kinds) * rnd + offset),
            )
            for offset, kind in enumerate(kinds)
        ]
        results = _collect_round(jobs, steps, plan.burn_in)
        for (target, cfg), (visited, chain, small, oversize) in zip(jobs, results):
            kind = target.kind
            mersenne = kind is TargetKind.MERSENNE_H1
            rec_kind = RecordKind.MERSENNE_EXPONENT if mersenne else RecordKind.GENERAL_PRIME
            bits = plan.trial_factor_bits if mersenne else None
            stats.iterations += steps
            stats.add_chain(chain)
            stats.skipped_small += small
            stats.skipped_oversize += oversize
            stats.distinct_candidates += len(visited)
            prime_set = stats.primes_by_target.setdefault(kind.value, set())
            for value, it in sorted(visited.items()):
                if not is_prime_u64(value):
                    continue
                if bits is not None and mersenne_small_factor(value, bits) is not None:
                    stats.factored_out += 1
                    continue
                prime_set.add(value)
                round_best = max(round_best, value)
                if (value, rec_kind) in seen:
                    continue
                seen.add((value, rec_kind))
                digits = mersenne_digit_count(value) if mersenne else None
                records.append(
                    CandidateRecord(value, rec_kind, p0, k, cfg.seed, it, kind.value, digits)
                )
        if rnd + 1 < plan.rounds and round_best > p0:
            p0, k = round_best, solve_k(round_best)
    if out is not None:
        write_records(out, records)
    return HuntResult(records, stats)


def _collect_round(jobs, steps: int, burn_in: int) -> list[CollectResult]:
    """:func:`collect_candidates` for each ``(target, config)`` job, in job order.

    Job 0 runs here while the others run in turn in a forked worker at the
    same time (:func:`._fork.both`); a worker's exception is raised here as
    it was raised there.
    """
    here, *others = [functools.partial(collect_candidates, t, c, steps, burn_in) for t, c in jobs]
    if not others:
        return [here()]
    mine, theirs = both(here, lambda: [run() for run in others])
    return [mine, *theirs]


def trial_factor_batch(ps: Iterable[int], bits) -> list[int | None]:
    """Smallest factor ``q = 2mp + 1`` of ``2**p - 1`` below ``2**bits``, per exponent.

    ``bits`` is one int for every exponent or one per exponent, each in
    [2, 48], and every ``p`` must be prime.  Where ``isqrt(2**p - 1) + 1`` is
    below ``2**bits`` it is the bound instead, so ``2**p - 1`` is never its
    own answer and a factor found proves it composite.  The answers come in
    input order, None where no factor lies under the bound.

    All exponents share one sweep over (p, m) lanes.  Level by level, each
    exponent still without a factor takes the next :data:`_TF_BLOCK` values
    of ``m``; those rows, ordered by their number of ``m``, are packed into
    blocks of about ``_TF_BLOCK`` lanes, and :func:`_sweep_rows` settles a
    block at once.  Striking composite ``q`` there cannot change an answer:
    every prime factor of ``2**p - 1`` has this form, so the smallest divisor
    of this form is prime.
    """
    ps = [int(p) for p in ps]
    if isinstance(bits, (int, np.integer)):
        _check_trial_factor_bits(bits)
        levels = [bits] * len(ps)
    else:
        levels = list(bits)
        for b in levels:
            _check_trial_factor_bits(b)
    if len(levels) != len(ps):
        raise DomainError(f"{len(levels)} trial-factor bit levels for {len(ps)} exponents")
    for p in ps:
        if not is_prime_u64(p):
            raise DomainError(f"trial factoring needs a prime exponent, got {p}")
    m_max = []  # the largest m with q under its exponent's bound
    for p, b in zip(ps, levels):
        limit = 1 << int(b)
        if p <= 2 * b:  # only then can 2**b reach past sqrt(2**p - 1)
            limit = min(limit, math.isqrt((1 << p) - 1) + 1)
        m_max.append((limit - 2) // (2 * p))
    found: list[int | None] = [None] * len(ps)
    todo = sorted((i for i, top in enumerate(m_max) if top >= 1), key=m_max.__getitem__)
    lo = 1
    while todo:
        # this level, each exponent in todo sweeps m in [lo, lo + _TF_BLOCK)
        widths = [min(m_max[i] - lo + 1, _TF_BLOCK) for i in todo]
        start = 0
        while start < len(todo):
            stop = start + 1  # widths ascend, so the last row of a block is its widest
            while stop < len(todo) and (stop + 1 - start) * widths[stop] <= _TF_BLOCK:
                stop += 1
            rows = todo[start:stop]
            hit_rows, hit_q = _sweep_rows(
                np.array([ps[i] for i in rows], dtype=np.int64),
                np.array([m_max[i] for i in rows], dtype=np.int64),
                lo,
                widths[stop - 1],
            )
            for row, q in zip(hit_rows.tolist(), hit_q.tolist()):
                found[rows[row]] = q
            start = stop
        lo += _TF_BLOCK
        todo = [i for i in todo if found[i] is None and m_max[i] >= lo]
    return found


def mersenne_small_factor(p: int, bits: int) -> int | None:
    """Smallest factor of ``2**p - 1`` of the form ``q = 2mp + 1 < 2**bits``.

    The one-exponent view of :func:`trial_factor_batch`, with its bound,
    answers and refusals: None when no factor lies under ``2**bits``, or
    under ``isqrt(2**p - 1)`` where that is lower.
    """
    return trial_factor_batch([p], bits)[0]


def _check_trial_factor_bits(bits: int) -> None:
    if not 2 <= bits <= 48:
        raise DomainError("trial-factor bits must lie in [2, 48]")


def _sweep_rows(p: np.ndarray, m_max: np.ndarray, lo: int, width: int):
    """Each row's smallest factor ``q = 2mp + 1`` with ``lo <= m < lo + width``.

    ``p`` and ``m_max`` hold one prime exponent and its largest ``m`` per
    row, ``m_max`` ascending; returns the rows with a factor and their
    factors.  One flag per (row, m) lane.  Each odd prime ``s`` below
    :data:`_TF_SMALL_PRIME_BOUND` and ``width / 4``, other than an exponent
    of the block, strikes every ``q`` it divides other than ``q == s``: in
    a row those are the ``m = -(2p)**-1 (mod s)``, one strided write for all
    rows (:func:`_strike`).  Only ``q`` congruent to +-1 mod 8 can divide a
    Mersenne number, so ``m`` congruent to 2 or ``p`` mod 4 is struck the
    same way.  :func:`_pow2_mod` tests the rest at once as ``2**p mod q ==
    1``, with one exponent per lane, so ``2**p - 1`` is never materialized.
    """
    rows = len(p)
    s = _small_odd_primes()
    s = s[s < width // 4]
    s = s[~np.isin(s, p)]
    # first[i, j]: the m in [1, s_j) at which s_j divides q in row i
    first = s - _inverse_mod((2 * p[:, None] % s).astype(np.int32), s.astype(np.int32))
    col = (first - lo) % s
    # each row is padded to take whole periods of every s, and of 4
    stride = width + max(int(s[-1]) if len(s) else 0, 4)
    keep = np.ones((rows, stride), dtype=bool)
    _strike(keep, width, s.tolist(), col)
    # q == s is a prime of this form, a candidate like any other
    own_row, own = np.nonzero((2 * p[:, None] * first + 1 == s) & (first >= lo))
    keep[own_row, first[own_row, own] - lo] = True
    # q = 2mp + 1 = +-1 (mod 8) leaves m = 0 and m = -p (mod 4)
    _strike(keep, width, [4, 4], (np.stack([np.full_like(p, 2), p]).T - lo) % 4)
    keep[:, width:] = False
    if m_max[0] - lo + 1 < width:  # m_max ascends: some rows end before width
        keep[:, :width] &= np.arange(width) <= (m_max - lo)[:, None]
    row, m = np.divmod(np.flatnonzero(keep), stride)
    exponent = p.astype(np.uint64)[row]
    q = m.astype(np.uint64)
    q += lo
    q *= exponent
    q <<= 1
    q += 1
    hits = np.flatnonzero(_pow2_mod(exponent, q) == 1)
    hit_rows, at = np.unique(row[hits], return_index=True)
    return hit_rows, q[hits[at]]


def _strike(keep: np.ndarray, width: int, periods: list[int], col: np.ndarray) -> None:
    """Clear ``keep[i, col[i, j] + k * periods[j]]`` for every row i, column j, k >= 0.

    All rows' strikes of one period go at once through a ``(rows, n //
    period, period)`` view of their first ``n`` flags, ``n`` the whole
    periods that cover ``width`` (the rows are padded for it).  A block of
    one row takes plain slices instead, five times faster for it.
    """
    rows = len(keep)
    if rows == 1:
        for period, c in zip(periods, col[0].tolist()):
            keep[0, c::period] = False
        return
    across = np.arange(rows)
    for j, period in enumerate(periods):
        n = -(-width // period) * period
        keep[:, :n].reshape(rows, n // period, period)[across, :, col[:, j]] = False


def _inverse_mod(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``a**-1 mod s`` elementwise for ``0 < a < s``, ``s`` odd primes below 2**12.

    Fermat: ``a**(s - 2) mod s`` by right-to-left binary powering; every
    product is below 2**24.
    """
    e = s - 2
    r = np.ones_like(a)
    for i in range(int(e.max()).bit_length() if len(e) else 0):
        r = np.where(e >> i & 1, r * a % s, r)
        a = a * a % s
    return r


@functools.lru_cache(maxsize=1)
def _small_odd_primes() -> np.ndarray:
    """The odd primes below :data:`_TF_SMALL_PRIME_BOUND`, sieved once."""
    primes = primes_up_to(_TF_SMALL_PRIME_BOUND).primes[1:].astype(np.int64)
    primes.flags.writeable = False
    return primes


def _pow2_mod(p, q: np.ndarray) -> np.ndarray:
    """``2**p mod q`` for a ``uint64`` array of ``q < 2**48``.

    ``p`` is one exponent for every lane or a ``uint64`` array of one per
    lane.  Left-to-right binary powering, preloaded with ``2**e mod q`` for
    the top five bits ``e`` of the widest exponent, keeps each residue ``r``
    in ``[0, 2q)``.  A square ``r * r mod q`` takes its quotient from
    doubles: ``r * r / q`` is below ``4q < 2**50``, where the rounded
    ``r * r * (1 / q)`` is within 0.38 of it, so truncating it less 0.5 gives
    the quotient or one less.  ``r * r - k * q``, exact in wrapping
    ``uint64`` arithmetic, then lies in ``[0, 2q)`` with no division.  A
    doubling step shifts only the lanes whose exponent has that bit, and is
    skipped where none has it.
    """
    p = np.asarray(p, dtype=np.uint64)
    inverse = 1.0 / q
    twice = q << np.uint64(1)
    some = int(np.bitwise_or.reduce(p, axis=None))  # the bits set in any exponent
    every = int(np.bitwise_and.reduce(p, axis=None))  # ... and in all of them
    shift = max(some.bit_length() - 5, 0)
    r = np.left_shift(np.uint64(1), p >> np.uint64(shift)) % q
    quotient = np.empty(len(q))
    k = np.empty(len(q), dtype=np.int64)
    kq = k.view(np.uint64)
    for i in range(shift - 1, -1, -1):
        quotient[:] = r
        quotient *= quotient
        quotient *= inverse
        quotient -= 0.5
        np.copyto(k, quotient, casting="unsafe")  # truncates towards 0
        kq *= q
        r *= r
        r -= kq
        if some >> i & 1:
            r <<= 1 if every >> i & 1 else p >> np.uint64(i) & np.uint64(1)
            np.subtract(r, twice, out=r, where=r >= twice)
    np.subtract(r, q, out=r, where=r >= q)
    return r


# ---------------------------------------------------------------------------
# Persistence: JSON-lines, append-only, one record per line.
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """The whole of a UTF-8 text file, read with universal newlines.

    Bytes that are not UTF-8 raise :class:`DomainError` naming ``path`` and
    the offset of the first bad byte, instead of a :class:`UnicodeDecodeError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so the offset is the file's
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_records(path, records: Iterable[CandidateRecord]) -> None:
    """Append records to a JSON-lines file, creating it with the version header."""
    path = Path(path)
    is_new = not path.exists() or path.stat().st_size == 0
    with open(path, "a", encoding="utf-8") as fh:
        if is_new:
            fh.write(FILE_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_json() + "\n")


def load_records(path) -> list[CandidateRecord]:
    """Read records back, re-verifying that every value is prime.

    The primality re-check is the startup self-check against a corrupted or
    hand-edited store (record construction re-runs the proof).  A line that
    is not a well-formed, valid record raises :class:`DomainError` naming
    ``path:line``.
    """
    records = []
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                records.append(CandidateRecord.from_json(line))
            except DomainError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# Verification of externally supplied integer lists.
# ---------------------------------------------------------------------------


class VerifyEntry(NamedTuple):
    line_no: int
    text: str
    value: int | None
    verdict: bool | None
    error: str | None = None


@dataclass(frozen=True)
class VerifyReport:
    """What :func:`verify_file` found, as parallel columns with one item per line read.

    ``values[i]`` and ``verdicts[i]`` are None where ``errors[i]`` is set.
    The counts are taken once, and :attr:`entries`, the same lines as
    :class:`VerifyEntry` rows, is built only when first read.
    """

    line_nos: list[int]
    texts: list[str]
    values: list[int | None]
    verdicts: list[bool | None]
    errors: list[str | None]

    @functools.cached_property
    def entries(self) -> list[VerifyEntry]:
        return list(map(VerifyEntry, self.line_nos, self.texts, self.values, self.verdicts,
                        self.errors))

    @functools.cached_property
    def n_prime(self) -> int:
        return self.verdicts.count(True)

    @functools.cached_property
    def n_composite(self) -> int:
        return self.verdicts.count(False)

    @functools.cached_property
    def n_errors(self) -> int:
        return len(self.errors) - self.errors.count(None)

    def composites(self) -> list[int]:
        return [value for value, verdict in zip(self.values, self.verdicts) if verdict is False]

    def summary(self) -> str:
        return (
            f"{len(self.line_nos)} entries: {self.n_prime} prime, "
            f"{self.n_composite} composite, {self.n_errors} unparseable"
        )


def verify_file(path) -> VerifyReport:
    """Per-line primality verdicts for a file of integers, one per line.

    The file is read in one piece by :func:`read_text` and split at ``\\n``
    alone, which its universal newlines have made of ``\\r\\n`` and a lone
    ``\\r``: a form feed or another separator that ``str.splitlines`` breaks
    at stays inside its line.  Bytes that are not UTF-8 raise
    :class:`DomainError` before any verdict.  Blank lines and ``#`` comments
    are skipped; a line that is not an ASCII decimal integer (optional sign,
    digits 0-9) is reported as unparseable and processing continues.  Plain
    ASCII digits skip the pattern match.  The lines, values and errors are
    kept as columns of the report, and all values get their verdicts from one
    :func:`.numtheory.is_prime_batch` call (the array path; single values
    elsewhere take :func:`.numtheory.is_prime_u64`).  A value past the proven
    primality range raises :class:`DomainError` naming ``path:line`` of the
    first such line, before any verdict.
    """
    lines = read_text(path).split("\n")
    line_nos, texts, values, errors = [], [], [], []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text[0] == "#":
            continue
        line_nos.append(line_no)
        texts.append(text)
        if text.isascii() and text.isdigit() or _DECIMAL.fullmatch(text):
            try:
                values.append(int(text))
                errors.append(None)
                continue
            except ValueError as exc:  # int()'s limit on digit count
                error = str(exc)
        else:
            error = f"not an ASCII decimal integer: {text!r}"
        values.append(None)
        errors.append(error)
    numbers = [value for value in values if value is not None] if any(errors) else values
    try:
        verdicts = is_prime_batch(numbers)
    except DomainError as exc:
        line_no = next(no for no, value in zip(line_nos, values)
                       if value is not None and value >= MILLER_RABIN_LIMIT)
        raise DomainError(f"{path}:{line_no}: {exc}") from None
    if numbers is not values:
        found = iter(verdicts)
        verdicts = [None if value is None else next(found) for value in values]
    return VerifyReport(line_nos, texts, values, verdicts, errors)
