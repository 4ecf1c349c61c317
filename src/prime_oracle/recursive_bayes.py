"""Stage-wise recursive posterior over the two intensity coefficients.

Feeding the ascending primes one at a time, each stage's posterior (with both
shape parameters advanced by one) becomes the next stage's prior, so the
posterior after k primes stays a two-component mixture of gamma-product
densities no matter how large k grows.  The accumulated sufficient statistics
telescope: the alpha-rate is ``a + Li(t_k)`` and the beta-rate is
``b + F(t_k)`` for the chosen error-bound integral F.  So :func:`state_at`
evaluates any stage in closed form from ``k`` and ``t_k`` alone; ``init`` and
``update`` are thin wrappers over it, and a trajectory costs one evaluation
per checkpoint rather than one update per prime.

The posterior trajectory across checkpoints is the package's diagnostic
instrument: the alpha mean approaches 1 under every error model (the
prime-count analogue of the classical x/log x law), while the beta mean
diverges under the square-root-barrier models, stays near 1 under
``X_OVER_LOG``, and creeps upward extremely slowly under ``MT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .specialfn import (
    ErrorBoundModel,
    Li,
    error_density,
    error_integral,
    li,
    MT_DECAY_CONSTANT,
    positive_density_floor,
)

__all__ = [
    "Hyperparameters",
    "RecursionState",
    "MixtureComponent",
    "GammaProductMixture",
    "TrajectoryRow",
    "state_at",
    "init",
    "update",
    "posterior",
    "posterior_mean_alpha",
    "posterior_var_alpha",
    "posterior_mean_beta",
    "posterior_var_beta",
    "log_posterior_predictive",
    "trajectory",
    "asymptotic_form_table",
    "model_compare_log_ratio",
]


class Hyperparameters(NamedTuple):
    """Prior hyperparameters (exponential rates a, b; shape offsets gamma, xi)."""

    a: float = 0.0
    b: float = 0.0
    gamma: float = 1.0
    xi: float = 1.0


@dataclass(frozen=True)
class RecursionState:
    """Sufficient statistics of the stage-k posterior.

    ``sum_b1`` and ``sum_b2`` include the prior rates, so they equal
    ``a + Li(t_last)`` and ``b + F(t_last)`` respectively.
    """

    k: int
    hyper: Hyperparameters
    sum_b1: float
    sum_b2: float
    t_last: float
    model: ErrorBoundModel


class MixtureComponent(NamedTuple):
    weight: float
    rate_a: float
    shape_a: float
    rate_b: float
    shape_b: float


@dataclass(frozen=True)
class GammaProductMixture:
    """Mixture of products of independent gamma densities over (alpha, beta)."""

    components: list[MixtureComponent]

    def pdf(self, alpha: float, beta: float) -> float:
        total = 0.0
        for w, ra, sa, rb, sb in self.components:
            la = sa * math.log(ra) - math.lgamma(sa) + (sa - 1.0) * math.log(alpha) - ra * alpha
            lb = sb * math.log(rb) - math.lgamma(sb) + (sb - 1.0) * math.log(beta) - rb * beta
            total += w * math.exp(la + lb)
        return total


class TrajectoryRow(NamedTuple):
    k: int
    t_last: float
    mean_alpha: float
    var_alpha: float
    mean_beta: float
    var_beta: float


def _checked_hyper(hyper: Hyperparameters) -> Hyperparameters:
    hyper = Hyperparameters(*hyper)
    if any(h < 0 for h in hyper):
        raise DomainError(f"hyperparameters must be >= 0, got {hyper}")
    return hyper


def state_at(
    hyper: Hyperparameters, model: ErrorBoundModel, k: int, t_k: float
) -> RecursionState:
    """Closed-form stage-k state after conditioning on ``k`` primes ending at ``t_k``.

    The stage sums telescope, so the state depends on the primes only
    through ``k`` and the last one: the rates are ``a + Li(t_k)`` and
    ``b + F(t_k)``.
    """
    hyper = _checked_hyper(hyper)
    t_k = float(t_k)
    if t_k < 2.0:
        raise DomainError(f"primes must be >= 2, got {t_k}")
    if k < 1:
        raise DomainError(f"stage count must be >= 1, got {k}")
    return RecursionState(
        k=int(k),
        hyper=hyper,
        sum_b1=hyper.a + Li(t_k),
        sum_b2=hyper.b + error_integral(model, t_k),
        t_last=t_k,
        model=model,
    )


def init(hyper: Hyperparameters, model: ErrorBoundModel, t1: float) -> RecursionState:
    """Start the recursion at the first observed prime ``t1``."""
    return state_at(hyper, model, 1, t1)


def update(state: RecursionState, t_next: float) -> RecursionState:
    """Advance one stage by conditioning on the next prime."""
    t_next = float(t_next)
    if t_next <= state.t_last:
        raise DomainError(
            f"primes must be strictly increasing: {t_next} after {state.t_last}"
        )
    return state_at(state.hyper, state.model, state.k + 1, t_next)


def _log_gamma_pair(
    lc: float, shape_a: float, log_a: float, shape_b: float, log_b: float
) -> float:
    """Log of ``c * Gamma(sa) / A**sa * Gamma(sb) / B**sb``."""
    return (
        lc
        + math.lgamma(shape_a)
        - shape_a * log_a
        + math.lgamma(shape_b)
        - shape_b * log_b
    )


def _component_logs(state: RecursionState) -> tuple[float, float]:
    """Unnormalized log weights ``(lw1, lw2)`` of the two posterior components."""
    gamma, xi = state.hyper.gamma, state.hyper.xi
    k = state.k
    shapes = (gamma + k, xi + k - 1.0, gamma + k - 1.0, xi + k)
    if min(shapes) <= 0.0:
        raise DomainError(f"improper posterior component: shapes {shapes}")
    ra, rb = state.sum_b1, state.sum_b2
    if ra <= 0.0 or rb <= 0.0:
        raise DomainError(
            "improper posterior: non-positive rate (the accumulated integrals "
            "are empty or negative this close to the support edge)"
        )
    c2 = error_density(state.model, state.t_last)
    if c2 <= 0.0:
        raise DomainError(
            f"error density is not positive at t={state.t_last:g}; start the "
            f"recursion at {positive_density_floor(state.model)} or later"
        )
    log_a, log_b = math.log(ra), math.log(rb)
    return (
        _log_gamma_pair(math.log(li(state.t_last)), gamma + k, log_a, xi + k - 1.0, log_b),
        _log_gamma_pair(math.log(c2), gamma + k - 1.0, log_a, xi + k, log_b),
    )


def _weights(state: RecursionState) -> tuple[float, float]:
    """Normalized weights ``(w1, w2)`` of the two posterior components.

    Normalized through ``d = lw2 - lw1`` alone: the component logs are of
    order ``k log k``, and subtracting their log-sum from each would leave
    the weights summing to 1 only within ``k log k`` ulps.
    """
    lw1, lw2 = _component_logs(state)
    d = lw2 - lw1
    if d > 0.0:
        e = math.exp(-d)
        return e / (1.0 + e), 1.0 / (1.0 + e)
    e = math.exp(d)
    return 1.0 / (1.0 + e), e / (1.0 + e)


def posterior(state: RecursionState) -> GammaProductMixture:
    """Closed-form stage-k posterior as a two-component gamma-product mixture."""
    w1, w2 = _weights(state)
    gamma, xi = state.hyper.gamma, state.hyper.xi
    k = state.k
    ra, rb = state.sum_b1, state.sum_b2
    return GammaProductMixture(
        components=[
            MixtureComponent(w1, ra, gamma + k, rb, xi + k - 1.0),
            MixtureComponent(w2, ra, gamma + k - 1.0, rb, xi + k),
        ]
    )


def _mixture_var(w: Sequence[float], shape: Sequence[float], rate: float) -> float:
    """Variance of a gamma mixture with a common rate: ``(E_w[s] + Var_w[s]) / rate**2``.

    Written this way it avoids the cancellation of ``E[x**2] - E[x]**2`` at
    large shapes.  Summed over plain floats, since the recursive posterior
    has only two components; the exact posterior passes its arrays too.
    """
    mean_shape = math.fsum(wi * si for wi, si in zip(w, shape))
    spread = math.fsum(wi * (si - mean_shape) ** 2 for wi, si in zip(w, shape))
    return float((mean_shape + spread) / rate**2)


def _alpha_moments(state: RecursionState, w: tuple[float, float]) -> tuple[float, float]:
    """Mean and variance of alpha under the component weights ``w``."""
    s = state.hyper.gamma + state.k
    mean = (w[0] * s + w[1] * (s - 1.0)) / state.sum_b1
    return mean, _mixture_var(w, (s, s - 1.0), state.sum_b1)


def _beta_moments(state: RecursionState, w: tuple[float, float]) -> tuple[float, float]:
    """Mean and variance of beta under the component weights ``w``."""
    s = state.hyper.xi + state.k
    mean = (w[0] * (s - 1.0) + w[1] * s) / state.sum_b2
    return mean, _mixture_var(w, (s - 1.0, s), state.sum_b2)


def posterior_mean_alpha(state: RecursionState) -> float:
    return _alpha_moments(state, _weights(state))[0]


def posterior_var_alpha(state: RecursionState) -> float:
    return _alpha_moments(state, _weights(state))[1]


def posterior_mean_beta(state: RecursionState) -> float:
    return _beta_moments(state, _weights(state))[0]


def posterior_var_beta(state: RecursionState) -> float:
    return _beta_moments(state, _weights(state))[1]


def log_posterior_predictive(state: RecursionState, t: float) -> float:
    """Log density of the next prime's position at ``t > t_last``.

    Four gamma-ratio terms; the stage sums are extended across (t_last, t]
    and the new coefficients are evaluated at ``t`` itself.  Everything is
    assembled in log space since the gamma functions overflow near k ~ 170.
    """
    t = float(t)
    if t <= state.t_last:
        raise DomainError("predictive point must exceed the last prime")
    log_den = np.logaddexp(*_component_logs(state))
    gamma, xi = state.hyper.gamma, state.hyper.xi
    k = state.k
    ap = state.hyper.a + Li(t)
    bp = state.hyper.b + error_integral(state.model, t)
    log_ap, log_bp = math.log(ap), math.log(bp)

    lc1_prev = math.log(li(state.t_last))
    lc2_prev = math.log(error_density(state.model, state.t_last))
    lc1_new = math.log(li(t))
    c2_new = error_density(state.model, t)
    if c2_new <= 0.0:
        raise DomainError("error density not positive at the predictive point")
    lc2_new = math.log(c2_new)

    terms = (
        _log_gamma_pair(lc1_new + lc1_prev, gamma + k + 1.0, log_ap, xi + k - 1.0, log_bp),
        _log_gamma_pair(lc2_new + lc1_prev, gamma + k, log_ap, xi + k, log_bp),
        _log_gamma_pair(lc1_new + lc2_prev, gamma + k, log_ap, xi + k, log_bp),
        _log_gamma_pair(lc2_new + lc2_prev, gamma + k - 1.0, log_ap, xi + k + 1.0, log_bp),
    )
    return float(np.logaddexp.reduce(terms) - log_den)


def trajectory(
    model: ErrorBoundModel,
    primes: Sequence[int],
    hyper: Hyperparameters,
    checkpoints: Sequence[float],
) -> list[TrajectoryRow]:
    """Posterior moment rows at each checkpoint threshold.

    ``checkpoints`` are x-thresholds; each row reports the state after the
    largest prime not exceeding that threshold, and a checkpoint below the
    first usable prime gives no row.  Primes below the model's
    positive-density floor (the prime 2 for the ``X_OVER_LOG`` and ``MT``
    shapes) are skipped so every mixture coefficient stays positive.  Each
    row is evaluated in closed form from its stage count and last prime.
    """
    ts = np.asarray(primes, dtype=float)
    ts = ts[ts >= positive_density_floor(model)]
    if ts.size == 0:
        return []
    hyper = _checked_hyper(hyper)
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("primes must be strictly increasing")
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    rows: list[TrajectoryRow] = []
    for k in np.searchsorted(ts, cps, side="right").tolist():
        if k == 0:
            continue
        state = state_at(hyper, model, k, ts[k - 1])
        w = _weights(state)
        mean_a, var_a = _alpha_moments(state, w)
        mean_b, var_b = _beta_moments(state, w)
        rows.append(TrajectoryRow(state.k, state.t_last, mean_a, var_a, mean_b, var_b))
    return rows


def asymptotic_form_table(k_values: Sequence[int]) -> list[tuple[int, float, float]]:
    """Rows ``(k, sqrt(k)/(log k)^{3/2}, (log k)^{-1/4} exp(sqrt(log k / 6.315)))``.

    These are the large-k growth laws of the beta posterior mean under the
    square-root-barrier model and the MT model respectively; evaluated in
    log space so arguments like 10**500 are exact.
    """
    rows = []
    for k in k_values:
        if k < 3:
            raise DomainError(f"asymptotic forms need k >= 3, got {k}")
        log_k = math.log(k)
        sqrt_form = math.exp(0.5 * log_k - 1.5 * math.log(log_k))
        mt_form = math.exp(
            math.sqrt(log_k / MT_DECAY_CONSTANT) - 0.25 * math.log(log_k)
        )
        rows.append((k, sqrt_form, mt_form))
    return rows


def model_compare_log_ratio(
    state_m1: RecursionState, state_m2: RecursionState, t_next: float
) -> float:
    """Log predictive ratio of two states fed identical primes.

    Positive values favor the first model at ``t_next``; for the MT versus
    ``X_OVER_LOG`` pair the ratio grows without bound in k.
    """
    if state_m1.k != state_m2.k or state_m1.t_last != state_m2.t_last:
        raise DomainError(
            "model comparison requires states conditioned on the same primes"
        )
    if state_m1.model == state_m2.model:
        return 0.0
    return log_posterior_predictive(state_m1, t_next) - log_posterior_predictive(
        state_m2, t_next
    )
