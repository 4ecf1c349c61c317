"""Transformation-based MCMC kernel and the prime-hunting log targets.

The kernel mixes two deterministic-magnitude moves on the unrestricted
log-scale state z:

* additive (probability ``p_add``): ``z' = z + s * add_scale`` with the sign
  s equiprobable; accepted with probability ``min(1, exp(l(z') - l(z)))``.
* multiplicative (probability ``p_mult``): ``z' = z * m`` with
  ``m = exp(s * mult_scale)``; accepted with probability
  ``min(1, exp(l(z') - l(z)) * m)`` -- the extra factor m is the move's
  Jacobian, which is what makes the mixture satisfy detailed balance.

:func:`run_steps` is the one kernel loop: it advances a chain a given number
of steps and returns the states as a list, so callers such as
:func:`.pipeline.collect_candidates` run long chains block by block and
reduce each block with numpy.  A proposal that undoes the last accepted move
often lands exactly on the state the chain just left (29% of all proposals
on every hunt target at p0 = 999983 and 1.4e8); the kernel then reuses that
state's log target instead of evaluating it again.

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
from dataclasses import InitVar, dataclass, field
from typing import Callable

from .errors import DomainError
from .numtheory import is_prime_u64
from .specialfn import MT, ErrorBoundModel, error_forms, positive_density_floor

__all__ = [
    "Z_MAX",
    "MOVE_COUNTERS",
    "TargetKind",
    "HuntTarget",
    "TmcmcConfig",
    "TmcmcChain",
    "make_log_target",
    "initial_z",
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
        # a hunt maps states to floor(exp(z)) + p0, which must fit in 64 bits
        if not (self.p0 < 1 << 64 and is_prime_u64(self.p0)):
            raise DomainError(f"p0 must be a prime below 2**64, got {self.p0}")
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
        # every comparison below is false for nan, so nan is refused too
        for name in ("p_add", "p_mult"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("add_scale", "mult_scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if abs(self.p_add + self.p_mult - 1.0) > 1e-12:
            raise DomainError("move probabilities must sum to 1")


def make_log_target(target: HuntTarget) -> Callable[[float], float]:
    """Compile a scalar log-target for the given hunt configuration.

    The returned callable assumes ``z <= Z_MAX`` (the kernel screens this)
    and is kept free of array dispatch: it sits inside loops that run for
    tens of millions of iterations.  It calls the model's ``log F_raw`` form
    (:func:`.specialfn.error_forms`) once, on the logs it has already taken.
    """
    p0 = float(target.p0)
    k = float(target.k)
    # The target stays on Python floats for criterion 12's byte identity: on
    # arrays the MT form rounds up to 2 ulps apart (``** 0.5`` takes ``sqrt``,
    # not ``pow``), which can move an accept and so the records.
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


def initial_z(target: HuntTarget) -> float:
    """Start near the prime-gap scale beyond p0: ``z0 = log(log(p0))``."""
    return math.log(math.log(target.p0))


#: The chain's per-move counters, each kept by :func:`run_steps`.
MOVE_COUNTERS = ("proposals_add", "accepts_add", "proposals_mult", "accepts_mult", "auto_rejects")

#: What a snapshot holds besides the RNG state, in snapshot key order.
_SNAPSHOT_FIELDS = ("z", "iteration", "log_density", *MOVE_COUNTERS)


@dataclass(slots=True, eq=False)
class TmcmcChain:
    """Mutable chain state: position, RNG, and per-move acceptance counters."""

    z: float
    seed: InitVar[int | None] = None
    rng: random.Random = field(init=False, repr=False)
    iteration: int = field(init=False, default=0)
    log_density: float | None = field(init=False, default=None)
    proposals_add: int = field(init=False, default=0)
    accepts_add: int = field(init=False, default=0)
    proposals_mult: int = field(init=False, default=0)
    accepts_mult: int = field(init=False, default=0)
    auto_rejects: int = field(init=False, default=0)

    def __post_init__(self, seed: int | None) -> None:
        self.z = float(self.z)
        self.rng = random.Random(seed)

    @property
    def accept_rate(self) -> float:
        total = self.proposals_add + self.proposals_mult
        return (self.accepts_add + self.accepts_mult) / total if total else 0.0

    def snapshot(self) -> dict:
        """Resumable state: position, counters and the full RNG state."""
        state = {key: getattr(self, key) for key in _SNAPSHOT_FIELDS}
        state["rng_state"] = self.rng.getstate()
        return state

    @classmethod
    def from_snapshot(cls, state: dict) -> "TmcmcChain":
        """Inverse of :meth:`snapshot`; a missing key raises ``KeyError``."""
        chain = cls(state["z"])
        for key in _SNAPSHOT_FIELDS[1:]:
            setattr(chain, key, state[key])
        # a snapshot that went through JSON holds lists where getstate() gave tuples
        version, internal, gauss_next = state["rng_state"]
        chain.rng.setstate((version, tuple(internal), gauss_next))
        return chain


def run_steps(chain: TmcmcChain, target, config: TmcmcConfig, iterations: int) -> list[float]:
    """Advance ``chain`` by ``iterations`` steps and return the state after each.

    Draw protocol per step: move type, then sign, then (only when the log
    acceptance ratio is negative) the acceptance uniform.  A proposal with
    ``|z'| > Z_MAX`` is rejected without a target evaluation or an
    acceptance draw.  The chain's RNG advances in place; its state, running
    log density, iteration and per-move counters are written back on
    return, so a chain advanced in several calls follows the same stream as
    one advanced in a single call.

    ``target`` is a :class:`HuntTarget` or a compiled log target (any pure
    callable).  A proposal that lands exactly on the state the chain last
    left reuses that state's stored log target instead of evaluating it
    again: the target is pure, so every decision is unchanged bit for bit.
    """
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    log_t = target if callable(target) else make_log_target(target)
    rng_random = chain.rng.random
    p_add = config.p_add
    add_scale = config.add_scale
    mult_scale = config.mult_scale
    grow, shrink = math.exp(mult_scale), math.exp(-mult_scale)
    exp = math.exp
    z = chain.z
    l_cur = log_t(z)
    lz = l_cur if chain.log_density is None else chain.log_density
    # the state the chain last left and its log target; nan equals nothing
    z_prev, l_prev = math.nan, 0.0

    zs = [0.0] * iterations
    props_add = accs_add = accs_mult = auto = 0
    for i in range(iterations):
        if rng_random() < p_add:
            z_new = z + (add_scale if rng_random() < 0.5 else -add_scale)
            log_jac = 0.0
            props_add += 1
        elif rng_random() < 0.5:
            z_new = z * grow
            log_jac = mult_scale
        else:
            z_new = z * shrink
            log_jac = -mult_scale

        if abs(z_new) > Z_MAX:
            auto += 1
        else:
            lt = l_prev if z_new == z_prev else log_t(z_new)
            d = lt - lz + log_jac
            if d >= 0.0 or rng_random() < exp(d):
                z_prev, l_prev = z, l_cur
                z, l_cur = z_new, lt
                lz = lz + (d - log_jac)
                if log_jac:  # nonzero exactly for multiplicative moves
                    accs_mult += 1
                else:
                    accs_add += 1
        zs[i] = z

    chain.z = z
    chain.log_density = lz
    chain.iteration += iterations
    chain.proposals_add += props_add
    chain.accepts_add += accs_add
    chain.proposals_mult += iterations - props_add
    chain.accepts_mult += accs_mult
    chain.auto_rejects += auto
    return zs
