"""Transformation-based MCMC kernel and the prime-hunting log targets.

The kernel mixes two deterministic-magnitude moves on the unrestricted
log-scale state z:

* additive (probability ``p_add``): ``z' = z + s * add_scale`` with the sign
  s equiprobable; accepted with probability ``min(1, exp(l(z') - l(z)))``.
* multiplicative (probability ``p_mult``): ``z' = z * m`` with
  ``m = exp(s * mult_scale)``; accepted with probability
  ``min(1, exp(l(z') - l(z)) * m)`` -- the extra factor m is the move's
  Jacobian, which is what makes the mixture satisfy detailed balance.

The hunt targets are approximations of the recursive posterior predictive
after k primes with flat hyperparameters, reparameterized through
``t = exp(z)`` so the state is unrestricted.  The Mersenne-exponent target
additionally carries the ``-exp(z) * log 2`` term coming from the
change-of-variable ``s = 2**t - 1``; no power of two is ever formed.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import DomainError
from .numtheory import is_prime_u64
from .specialfn import MT, ErrorBoundModel, error_forms, positive_density_floor

__all__ = [
    "Z_MAX",
    "TargetKind",
    "HuntTarget",
    "TmcmcConfig",
    "TmcmcChain",
    "make_log_target",
    "log_target",
    "initial_z",
    "run",
    "run_steps",
]

#: Largest allowed state; beyond this exp(z) leaves the safe double range.
Z_MAX = 700.0

_LOG2 = math.log(2.0)


class TargetKind(enum.Enum):
    GENERAL_H1 = "general-h1"
    GENERAL_H2 = "general-h2"
    MERSENNE_H1 = "mersenne-h1"


@dataclass(frozen=True)
class HuntTarget:
    """A hunt configuration: candidate integers are ``floor(exp(z)) + p0``."""

    kind: TargetKind
    p0: int
    k: int
    model: ErrorBoundModel = MT

    def __post_init__(self) -> None:
        if not is_prime_u64(self.p0):
            raise DomainError(f"p0 must be prime, got {self.p0}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        # GENERAL_H2 takes log f at every u > p0.  The elasticity x f / F
        # grows with x, so f > 0 there once p0 is at the model's floor.
        floor = positive_density_floor(self.model)
        if self.kind is TargetKind.GENERAL_H2 and self.p0 < floor:
            raise DomainError(
                f"the {self.model.label} density is not positive above p0={self.p0}; "
                f"use p0 >= {floor}"
            )


@dataclass(frozen=True)
class TmcmcConfig:
    """Move mix and scales; the defaults are the pinned pilot-tuned values."""

    p_add: float = 0.1
    p_mult: float = 0.9
    add_scale: float = 0.5
    mult_scale: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if abs(self.p_add + self.p_mult - 1.0) > 1e-12:
            raise DomainError("move probabilities must sum to 1")
        if not (0.0 <= self.p_add <= 1.0):
            raise DomainError("p_add must lie in [0, 1]")
        if self.add_scale <= 0.0 or self.mult_scale <= 0.0:
            raise DomainError("move scales must be positive")


def make_log_target(target: HuntTarget) -> Callable[[float], float]:
    """Compile a scalar log-target for the given hunt configuration.

    The returned callable assumes ``z <= Z_MAX`` (the kernel screens this)
    and is kept free of array dispatch: it sits inside loops that run for
    tens of millions of iterations.  It calls the model's ``log F_raw`` form
    (:func:`.specialfn.error_forms`) once, on the logs it has already taken.
    """
    p0 = float(target.p0)
    k = float(target.k)
    log_raw, elasticity = error_forms(target.model)
    exp, log = math.exp, math.log

    if target.kind is TargetKind.GENERAL_H2:
        def log_t(z: float) -> float:
            u = exp(z) + p0
            lu = log(u)
            llu = log(lu)
            l_int = log_raw(lu, llu)
            lf = l_int - lu + log(elasticity(lu))
            return lf - k * (lu + l_int - llu) + z

        return log_t

    mers = target.kind is TargetKind.MERSENNE_H1

    def log_t(z: float) -> float:
        ez = exp(z)
        u = ez + p0
        lu = log(u)
        llu = log(lu)
        out = -llu - k * (lu + log_raw(lu, llu) - llu) + z
        if mers:
            out -= ez * _LOG2
        return out

    return log_t


def log_target(target: HuntTarget, z: float) -> float:
    """Evaluate the hunt log-target at ``z``, raising outside the safe range."""
    if z > Z_MAX:
        raise DomainError(f"z={z:g} exceeds the safe evaluation range {Z_MAX}")
    return make_log_target(target)(z)


def initial_z(target: HuntTarget) -> float:
    """Start near the prime-gap scale beyond p0: ``z0 = log(log(p0))``."""
    return math.log(math.log(target.p0))


class TmcmcChain:
    """Mutable chain state: position, RNG, and per-move acceptance counters."""

    __slots__ = (
        "z",
        "rng",
        "iteration",
        "log_density",
        "proposals_add",
        "accepts_add",
        "proposals_mult",
        "accepts_mult",
        "auto_rejects",
    )

    def __init__(self, z: float, seed: int | None = None):
        self.z = float(z)
        self.rng = random.Random(seed)
        self.iteration = 0
        self.log_density: float | None = None
        self.proposals_add = 0
        self.accepts_add = 0
        self.proposals_mult = 0
        self.accepts_mult = 0
        self.auto_rejects = 0

    @property
    def accept_rate(self) -> float:
        total = self.proposals_add + self.proposals_mult
        return (self.accepts_add + self.accepts_mult) / total if total else 0.0

    def snapshot(self) -> dict:
        """Resumable state: position, counters and the full RNG state."""
        return {
            "z": self.z,
            "iteration": self.iteration,
            "log_density": self.log_density,
            "proposals_add": self.proposals_add,
            "accepts_add": self.accepts_add,
            "proposals_mult": self.proposals_mult,
            "accepts_mult": self.accepts_mult,
            "auto_rejects": self.auto_rejects,
            "rng_state": self.rng.getstate(),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "TmcmcChain":
        chain = cls(state["z"])
        chain.iteration = state["iteration"]
        chain.log_density = state["log_density"]
        chain.proposals_add = state["proposals_add"]
        chain.accepts_add = state["accepts_add"]
        chain.proposals_mult = state["proposals_mult"]
        chain.accepts_mult = state["accepts_mult"]
        chain.auto_rejects = state["auto_rejects"]
        # a snapshot that went through JSON holds lists where getstate() gave tuples
        version, internal, gauss_next = state["rng_state"]
        chain.rng.setstate((version, tuple(internal), gauss_next))
        return chain


def run_steps(
    chain: TmcmcChain, target, config: TmcmcConfig, iterations: int
) -> Iterator[tuple[int, float, bool]]:
    """Advance an existing chain, yielding ``(iteration, z, accepted)``.

    Draw protocol per step: move type, then sign, then (only when the log
    acceptance ratio is negative) the acceptance uniform.  The chain's RNG
    advances in place, and its log density and counters are written back
    when the generator finishes or is closed, so a chain advanced in several
    calls follows the same stream as one advanced in a single call.
    """
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    log_t = target if callable(target) else make_log_target(target)
    rng_random = chain.rng.random
    p_add = config.p_add
    add_scale = config.add_scale
    mult_scale = config.mult_scale
    z = chain.z
    lz = chain.log_density
    if lz is None:
        lz = log_t(z)

    props_add = accs_add = props_mult = accs_mult = auto = 0
    exp = math.exp
    try:
        for _ in range(iterations):
            if rng_random() < p_add:
                z_new = z + (add_scale if rng_random() < 0.5 else -add_scale)
                log_jac = 0.0
                props_add += 1
                additive = True
            else:
                log_jac = mult_scale if rng_random() < 0.5 else -mult_scale
                z_new = z * exp(log_jac)
                props_mult += 1
                additive = False

            accepted = False
            if abs(z_new) > Z_MAX:
                auto += 1
            else:
                d = log_t(z_new) - lz + log_jac
                if d >= 0.0 or rng_random() < exp(d):
                    accepted = True
                    z = z_new
                    lz = lz + (d - log_jac)
                    if additive:
                        accs_add += 1
                    else:
                        accs_mult += 1
            chain.iteration += 1
            chain.z = z
            yield chain.iteration, z, accepted
    finally:
        chain.z = z
        chain.log_density = lz
        chain.proposals_add += props_add
        chain.accepts_add += accs_add
        chain.proposals_mult += props_mult
        chain.accepts_mult += accs_mult
        chain.auto_rejects += auto


def run(target, config: TmcmcConfig, iterations: int) -> Iterator[tuple[int, float, bool]]:
    """Fresh seeded chain advanced for ``iterations`` steps."""
    chain = TmcmcChain(initial_z(target), config.seed)
    return run_steps(chain, target, config, iterations)
