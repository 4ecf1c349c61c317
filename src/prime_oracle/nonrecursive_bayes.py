"""Exact single-shot posterior over (alpha, beta) given a block of primes.

Conditioning on all k primes at once makes the likelihood a product of k
binomials ``alpha*C1 + beta*C2``, whose expansion has 2**k terms.  Expanding
the product one stage at a time instead yields the k+1 coefficients of the
polynomial in (alpha, beta) with O(k^2) work; the result is a (k+1)-component
mixture of gamma products, mathematically identical to the 2**k sum.  This
module exists to cross-validate the recursive engine, so k is capped small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import DomainError, ResourceError
from . import recursive_bayes as rb
from .recursive_bayes import Hyperparameters
from .specialfn import ErrorBoundModel, Li, RH_SQRT, error_density, error_integral, li

__all__ = [
    "K_CAP",
    "NonRecPosterior",
    "EquivalenceRow",
    "build",
    "mean_alpha",
    "var_alpha",
    "mean_beta",
    "var_beta",
    "log_predictive",
    "equivalence_report",
]

#: Default stage cap, kept small because this module cross-validates the
#: recursive engine.  It is not an accuracy limit: against a 40-digit
#: ``mpmath`` evaluation the alpha mean is within 1.4e-14 relative at k=64,
#: 2.8e-14 at k=256 and 1.2e-13 at k=1024.  Callers may raise it via ``cap``.
K_CAP = 64


@dataclass(frozen=True)
class NonRecPosterior:
    """Mixture weights and sufficient statistics of the exact posterior.

    ``log_e[r]`` is the log of the elementary coefficient of
    ``alpha**r * beta**(k-r)`` in the expanded likelihood product;
    ``log_p`` are the normalized mixture weights in the alpha-led
    parameterization and ``log_q`` the same weights re-indexed for the
    beta-led parameterization (``q_r = p_{k-r}``).
    """

    k: int
    hyper: Hyperparameters
    model: ErrorBoundModel
    sum_b1: float
    sum_b2: float
    t_last: float
    log_e: np.ndarray
    log_p: np.ndarray
    log_q: np.ndarray


def _log_coefficient_stages(
    primes: Sequence[float], model: ErrorBoundModel
) -> Iterator[np.ndarray]:
    """Log elementary coefficients of prod_{i<=j} (C1_i alpha + C2_i beta), stage by stage.

    The j-th array yielded (j = 1..k) has j+1 entries; entry r is the
    coefficient of ``alpha**r * beta**(j-r)``.
    """
    log_e = np.zeros(1)
    for t in primes:
        c2 = error_density(model, t)
        if c2 <= 0.0:
            raise DomainError(
                f"error density not positive at prime {t:g}; drop leading primes"
            )
        log_c1, log_c2 = math.log(li(t)), math.log(c2)
        new = np.empty(log_e.size + 1)
        new[0] = log_e[0] + log_c2  # the beta term at every stage so far
        new[-1] = log_e[-1] + log_c1  # the alpha term at every stage so far
        new[1:-1] = np.logaddexp(log_e[:-1] + log_c1, log_e[1:] + log_c2)
        log_e = new
        yield log_e


def _validated(
    primes: Sequence[float], hyper: Hyperparameters, cap: int
) -> tuple[list[float], Hyperparameters]:
    """Check the primes and hyperparameters ``build`` accepts; return them as floats."""
    primes = [float(t) for t in primes]
    k = len(primes)
    if k < 1:
        raise DomainError("need at least one prime")
    if k > cap:
        raise ResourceError(f"k={k} exceeds the non-recursive cap {cap}")
    if any(t2 <= t1 for t1, t2 in zip(primes, primes[1:])) or primes[0] < 2.0:
        raise DomainError("primes must be ascending and >= 2")
    hyper = Hyperparameters(*hyper)
    if any(h < 0 for h in hyper):
        raise DomainError(f"hyperparameters must be >= 0, got {hyper}")
    if hyper.gamma <= 0.0 or hyper.xi <= 0.0:
        raise DomainError("gamma and xi must be positive for a proper posterior")
    return primes, hyper


def _posterior(
    log_e: np.ndarray, t_k: float, hyper: Hyperparameters, model: ErrorBoundModel
) -> NonRecPosterior:
    """Mixture weights over the coefficients ``log_e`` of the first k primes, ending at ``t_k``."""
    k = log_e.size - 1
    sum_b1 = hyper.a + Li(t_k)
    sum_b2 = hyper.b + error_integral(model, t_k)
    if sum_b1 <= 0.0 or sum_b2 <= 0.0:
        raise DomainError("improper posterior: a rate is zero")

    r = np.arange(k + 1, dtype=float)
    log_a, log_b = math.log(sum_b1), math.log(sum_b2)
    log_p = (
        log_e
        + gammaln(hyper.gamma + r)
        - (hyper.gamma + r) * log_a
        + gammaln(hyper.xi + k - r)
        - (hyper.xi + k - r) * log_b
    )
    log_p = log_p - logsumexp(log_p)
    log_q = (
        log_e[::-1]
        + gammaln(hyper.gamma + k - r)
        - (hyper.gamma + k - r) * log_a
        + gammaln(hyper.xi + r)
        - (hyper.xi + r) * log_b
    )
    log_q = log_q - logsumexp(log_q)
    return NonRecPosterior(k, hyper, model, sum_b1, sum_b2, t_k, log_e, log_p, log_q)


def build(
    primes: Sequence[float],
    hyper: Hyperparameters,
    model: ErrorBoundModel = RH_SQRT,
    *,
    cap: int = K_CAP,
) -> NonRecPosterior:
    """Exact posterior given ascending primes ``t_1..t_k`` (k <= cap)."""
    primes, hyper = _validated(primes, hyper, cap)
    for log_e in _log_coefficient_stages(primes, model):
        pass
    return _posterior(log_e, primes[-1], hyper, model)


def mean_alpha(post: NonRecPosterior) -> float:
    r = np.arange(post.k + 1, dtype=float)
    w = np.exp(post.log_p)
    return float(np.sum(w * (post.hyper.gamma + r)) / post.sum_b1)


def var_alpha(post: NonRecPosterior) -> float:
    r = np.arange(post.k + 1, dtype=float)
    return rb._mixture_var(np.exp(post.log_p), post.hyper.gamma + r, post.sum_b1)


def mean_beta(post: NonRecPosterior) -> float:
    r = np.arange(post.k + 1, dtype=float)
    w = np.exp(post.log_q)
    return float(np.sum(w * (post.hyper.xi + r)) / post.sum_b2)


def var_beta(post: NonRecPosterior) -> float:
    r = np.arange(post.k + 1, dtype=float)
    return rb._mixture_var(np.exp(post.log_q), post.hyper.xi + r, post.sum_b2)


def log_predictive(post: NonRecPosterior, t_next: float) -> float:
    """Log posterior predictive density at ``t_next > t_k``.

    Two (k+1)-term sums, one led by the log-integral coefficient at the new
    point and one by the error density there, assembled in log space.
    """
    t_next = float(t_next)
    if t_next <= post.t_last:
        raise DomainError("predictive point must exceed the last prime")
    gamma, xi = post.hyper.gamma, post.hyper.xi
    k = post.k
    ap = post.sum_b1 + (Li(t_next) - Li(post.t_last))
    bp = post.sum_b2 + (
        error_integral(post.model, t_next) - error_integral(post.model, post.t_last)
    )
    log_ratio_a = math.log(post.sum_b1) - math.log(ap)
    log_ratio_b = math.log(post.sum_b2) - math.log(bp)
    r = np.arange(k + 1, dtype=float)

    term1 = (
        post.log_p
        + np.log(gamma + r)
        - math.log(ap)
        + (gamma + r) * log_ratio_a
        + (xi + k - r) * log_ratio_b
    )
    term2 = (
        post.log_q
        + np.log(xi + r)
        - math.log(bp)
        + (xi + r) * log_ratio_b
        + (gamma + k - r) * log_ratio_a
    )
    c2_new = error_density(post.model, t_next)
    if c2_new <= 0.0:
        raise DomainError("error density not positive at the predictive point")
    return float(
        logsumexp(
            [
                math.log(li(t_next)) + logsumexp(term1),
                math.log(c2_new) + logsumexp(term2),
            ]
        )
    )


@dataclass(frozen=True)
class EquivalenceRow:
    k: int
    t_last: float
    rec_mean_alpha: float
    nonrec_mean_alpha: float
    rec_mean_beta: float
    nonrec_mean_beta: float

    @property
    def gap_alpha(self) -> float:
        return abs(self.rec_mean_alpha - self.nonrec_mean_alpha)

    @property
    def gap_beta(self) -> float:
        return abs(self.rec_mean_beta - self.nonrec_mean_beta)


def equivalence_report(
    primes: Sequence[float],
    hyper: Hyperparameters,
    checkpoints: Sequence[int],
    model: ErrorBoundModel = RH_SQRT,
    *,
    cap: int = K_CAP,
) -> list[EquivalenceRow]:
    """Recursive vs exact posterior means at the requested stage counts.

    The two inference routes share every prime, so the rows expose exactly
    how fast the recursion's extra shape inflation washes out.  The exact
    side extends one coefficient convolution through the primes and reads
    it at each checkpoint; the recursive side is the closed-form stage state.
    Checkpoints below 1 give no row.
    """
    cps = sorted(int(c) for c in checkpoints)
    if cps and cps[-1] > cap:
        raise ResourceError(f"checkpoints beyond the cap {cap}")
    if cps and cps[-1] > len(primes):
        raise DomainError("not enough primes for the requested checkpoints")
    if not cps or cps[-1] < 1:
        return []
    primes, hyper = _validated(primes[: cps[-1]], hyper, cap)
    wanted = set(cps)
    rows = []
    for k, log_e in enumerate(_log_coefficient_stages(primes, model), start=1):
        if k not in wanted:
            continue
        t_k = primes[k - 1]
        post = _posterior(log_e, t_k, hyper, model)
        state = rb.state_at(hyper, model, k, t_k)
        rows.append(
            EquivalenceRow(
                k,
                t_k,
                rb.posterior_mean_alpha(state),
                mean_alpha(post),
                rb.posterior_mean_beta(state),
                mean_beta(post),
            )
        )
    return rows
