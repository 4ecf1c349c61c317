"""End-to-end prime hunting: calibration, chains, filtering, persistence.

A hunt is: calibrate the stage count k from the starting prime (k log k ~ p0),
run the TMCMC chain(s), floor-and-shift every visited state to the integer
``floor(exp(z)) + p0``, keep the ones that pass the deterministic primality
test, and append the survivors to a JSON-lines results file with enough
provenance to reproduce them.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DomainError
from .numtheory import is_prime_u64, mersenne_digit_count
from .specialfn import MT, ErrorBoundModel
from .tmcmc import HuntTarget, TargetKind, TmcmcChain, TmcmcConfig, initial_z, run_steps

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
    "collect_candidates",
    "mersenne_small_factor",
]

#: Version stamp written as the first line of every CSV / JSON-lines output.
FILE_HEADER = "# prime-oracle v1"

_U64_LIMIT = 1 << 64


class RecordKind(enum.Enum):
    GENERAL_PRIME = "general-prime"
    MERSENNE_EXPONENT = "mersenne-exponent"


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
        return json.dumps(
            {
                "value": self.value,
                "kind": self.kind.value,
                "p0": self.p0,
                "k": self.k,
                "seed": self.seed,
                "iteration_found": self.iteration_found,
                "target_kind": self.target_kind,
                "digit_count": self.digit_count,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CandidateRecord":
        obj = json.loads(line)
        return cls(
            value=int(obj["value"]),
            kind=RecordKind(obj["kind"]),
            p0=int(obj["p0"]),
            k=int(obj["k"]),
            seed=int(obj["seed"]),
            iteration_found=int(obj["iteration_found"]),
            target_kind=str(obj["target_kind"]),
            digit_count=None if obj.get("digit_count") is None else int(obj["digit_count"]),
        )


@dataclass
class HuntPlan:
    """Everything needed to reproduce a hunt session.

    Every field means the same in both hunts: each of ``rounds`` rounds runs
    one chain per target for ``burn_in + iterations`` steps, and only visits
    after the ``burn_in`` steps become records.
    """

    p0: int
    iterations: int = 10_000_000
    burn_in: int = 0
    rounds: int = 1
    config: TmcmcConfig = field(default_factory=TmcmcConfig)
    model: ErrorBoundModel = MT
    out_path: str | Path | None = None
    k: int | None = None
    trial_factor_bits: int | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.burn_in < 0 or self.rounds < 1:
            raise DomainError("burn_in must be >= 0 and rounds >= 1")
        if self.k is None:
            self.k = solve_k(self.p0)
        if abs(self.k * math.log(self.k) - self.p0) > 0.05 * self.p0:
            raise DomainError(f"k={self.k} is not calibrated to p0={self.p0}")


@dataclass
class HuntStats:
    """Counters and per-target prime sets accumulated during a hunt."""

    iterations: int = 0
    distinct_candidates: int = 0
    skipped_small: int = 0
    skipped_oversize: int = 0
    factored_out: int = 0
    primes_by_target: dict = field(default_factory=dict)

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
    if p0 < 10.0:
        raise DomainError(f"solve_k requires p0 >= 10, got {p0}")
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
    """
    if snapshot is None:
        chain = TmcmcChain(initial_z(target), config.seed)
    else:
        chain = TmcmcChain.from_snapshot(snapshot)
    visited: dict[int, int] = {}
    skipped_small = 0
    skipped_oversize = 0
    p0 = target.p0
    for it, z, _accepted in run_steps(chain, target, config, iterations):
        if it <= burn_in:
            continue
        c = int(math.exp(z))
        if c <= 1:
            skipped_small += 1
            continue
        value = c + p0
        if value >= _U64_LIMIT:
            skipped_oversize += 1
            continue
        if value not in visited:
            visited[value] = it
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
    """
    out = plan.out_path
    known = load_records(out) if out is not None and Path(out).exists() else []
    seen = {(r.value, r.kind) for r in known}
    stats = HuntStats()
    records: list[CandidateRecord] = []
    p0, k = plan.p0, int(plan.k)
    steps = plan.burn_in + plan.iterations
    for rnd in range(plan.rounds):
        round_best = 0
        for offset, kind in enumerate(kinds):
            mersenne = kind is TargetKind.MERSENNE_H1
            rec_kind = RecordKind.MERSENNE_EXPONENT if mersenne else RecordKind.GENERAL_PRIME
            bits = plan.trial_factor_bits if mersenne else None
            target = HuntTarget(kind, p0, k, plan.model)
            cfg = replace(plan.config, seed=plan.config.seed + len(kinds) * rnd + offset)
            visited, _chain, small, oversize = collect_candidates(
                target, cfg, steps, burn_in=plan.burn_in
            )
            stats.iterations += steps
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


def mersenne_small_factor(p: int, bits: int) -> int | None:
    """Smallest factor of ``2**p - 1`` of the form ``q = 2mp + 1 < 2**bits``.

    Only divisors congruent to +-1 mod 8 can divide a Mersenne number, and
    divisibility is checked as ``2**p mod q == 1``, so ``2**p - 1`` itself is
    never materialized.  Returns None when no factor lies under the bound.
    """
    if bits < 2 or bits > 48:
        raise DomainError("trial-factor bits must lie in [2, 48]")
    limit = 1 << bits
    if p <= 2 * bits:  # only then can 2**bits reach past sqrt(2**p - 1)
        limit = min(limit, math.isqrt((1 << p) - 1) + 1)
    q = 2 * p + 1
    while q < limit:
        if q % 8 in (1, 7) and pow(2, p, q) == 1:
            return q
        q += 2 * p
    return None


# ---------------------------------------------------------------------------
# Persistence: JSON-lines, append-only, one record per line.
# ---------------------------------------------------------------------------


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
    hand-edited store (record construction re-runs the proof).
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                records.append(CandidateRecord.from_json(line))
    return records


# ---------------------------------------------------------------------------
# Verification of externally supplied integer lists.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyEntry:
    line_no: int
    text: str
    value: int | None
    verdict: bool | None
    error: str | None = None


@dataclass(frozen=True)
class VerifyReport:
    entries: list[VerifyEntry]

    @property
    def n_prime(self) -> int:
        return sum(1 for e in self.entries if e.verdict is True)

    @property
    def n_composite(self) -> int:
        return sum(1 for e in self.entries if e.verdict is False)

    @property
    def n_errors(self) -> int:
        return sum(1 for e in self.entries if e.error is not None)

    def composites(self) -> list[int]:
        return [e.value for e in self.entries if e.verdict is False]

    def summary(self) -> str:
        return (
            f"{len(self.entries)} entries: {self.n_prime} prime, "
            f"{self.n_composite} composite, {self.n_errors} unparseable"
        )


def verify_file(path) -> VerifyReport:
    """Per-line primality verdicts for a file of integers, one per line.

    Blank lines and ``#`` comments are skipped; unparseable lines are
    reported and processing continues.  A value past the proven primality
    range raises :class:`DomainError` naming ``path:line``.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = int(text)
            except ValueError as exc:
                entries.append(VerifyEntry(line_no, text, None, None, str(exc)))
                continue
            try:
                verdict = is_prime_u64(value)
            except DomainError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from None
            entries.append(VerifyEntry(line_no, text, value, verdict))
    return VerifyReport(entries)
