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

The stage-k posterior is the exact one-prime posterior under the prior
advanced k-1 stages, so both engines return one posterior type:
:class:`GammaProductMixture`, built by :func:`mixture`, with its weights,
moments, predictive and density.  :func:`posterior` gives the stage-k one
and :func:`.nonrecursive_bayes.build` the exact one.

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
    GAUSS_LEGENDRE_3,
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
    "Moments",
    "GammaProductMixture",
    "TrajectoryRow",
    "state_at",
    "init",
    "update",
    "mixture",
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


#: Widest predictive quadrature panel, as a fraction of its left end.
_PANEL_FRACTION = 0.01
_GL_NODES, _GL_WEIGHTS = np.array(GAUSS_LEGENDRE_3).T

#: Largest posterior rate, and the reciprocal of the smallest: the variances
#: divide by ``rate**2``, which overflows (raising) above about 2**512 and
#: underflows to zero below about 2**-537.
_RATE_CEILING = 2.0**510


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


class TrajectoryRow(NamedTuple):
    k: int
    t_last: float
    mean_alpha: float
    var_alpha: float
    mean_beta: float
    var_beta: float


def _checked_hyper(hyper: Hyperparameters) -> Hyperparameters:
    hyper = Hyperparameters(*hyper)
    if not all(0.0 <= h < math.inf for h in hyper):  # also refuses NaN
        raise DomainError(f"hyperparameters must be finite and >= 0, got {hyper}")
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
    if not t_k >= 2.0:  # also refuses NaN
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


class Moments(NamedTuple):
    mean_alpha: float
    var_alpha: float
    mean_beta: float
    var_beta: float


class GammaProductMixture(NamedTuple):
    """Components ``Gamma(a0 + r, A) x Gamma(b0 + m - r, B)``, r = 0..m.

    The one posterior type of both engines.  ``state`` supplies the rates
    ``A = sum_b1`` and ``B = sum_b2`` together with the model, prior and last
    prime that the predictive extends from; ``log_c`` are the log
    coefficients the mixture was built from, ``w`` the normalized weights
    and ``log_w`` their logs.
    """

    state: RecursionState
    log_c: np.ndarray
    w: np.ndarray
    log_w: np.ndarray
    shape_a: np.ndarray
    shape_b: np.ndarray

    def moments(self) -> Moments:
        """The posterior means and variances of alpha and beta.

        Each variance is ``(E_w[s] + Var_w[s]) / rate**2`` over the component
        shapes s, which avoids the cancellation of ``E[x**2] - E[x]**2`` at
        large shapes.  Every summand is non-negative, so plain sums lose
        nothing to cancellation.
        """
        out: list[float] = []
        for shape, rate in ((self.shape_a, self.state.sum_b1), (self.shape_b, self.state.sum_b2)):
            mean_shape = float(self.w @ shape)
            spread = float(self.w @ (shape - mean_shape) ** 2)
            out += [mean_shape / rate, (mean_shape + spread) / rate**2]
        return Moments(*out)

    def log_predictive(self, t: float) -> float:
        """Log density of the next prime's position at ``t > t_last``.

        With ``A' = a + Li(t)`` and ``B' = b + F(t)`` this is ``log sum_r w_r
        (A/A')**sa_r (B/B')**sb_r (li(t) sa_r / A' + f(t) sb_r / B')``: each
        component's expected hazard at ``t`` times its survival over
        ``(t_last, t]``, summed in log space.  The gaps ``A' - A`` and
        ``B' - B`` are integrated over ``[t_last, t]`` by :func:`_gap_rule`, not
        taken as differences of two rounded values: at ``t`` near 1e6 those
        lose 1e-10 of a gap between neighbouring primes.
        """
        state = self.state
        t = float(t)
        if not (state.t_last < t < math.inf):
            raise DomainError("predictive point must be finite and exceed the last prime")
        c2 = error_density(state.model, t)
        if c2 <= 0.0:
            raise DomainError("error density not positive at the predictive point")
        nodes, weights = _gap_rule(state.t_last, t)
        gap_a = float(li(nodes) @ weights)
        gap_b = float(error_density(state.model, nodes) @ weights)
        ap = state.sum_b1 + gap_a
        bp = state.sum_b2 + gap_b
        # log(A/A') = -log1p((A' - A)/A): no rounding of log(A) near k log k
        log_ra = -math.log1p(gap_a / state.sum_b1)
        log_rb = -math.log1p(gap_b / state.sum_b2)
        z = (
            self.log_w
            + self.shape_a * log_ra
            + self.shape_b * log_rb
            + np.log(li(t) * self.shape_a / ap + c2 * self.shape_b / bp)
        )
        top = z.max()
        return float(top + math.log(np.exp(z - top).sum()))

    def pdf(self, alpha, beta):
        """Density at ``(alpha, beta) > 0``; the two arguments broadcast."""
        from scipy.special import gammaln

        ra, rb = self.state.sum_b1, self.state.sum_b2
        a = np.asarray(alpha, dtype=float)[..., None]
        b = np.asarray(beta, dtype=float)[..., None]
        sa, sb = self.shape_a, self.shape_b
        log_terms = (
            self.log_w
            + sa * math.log(ra) - gammaln(sa) + (sa - 1.0) * np.log(a) - ra * a
            + sb * math.log(rb) - gammaln(sb) + (sb - 1.0) * np.log(b) - rb * b
        )
        return np.exp(log_terms).sum(axis=-1)


def _gap_rule(t0: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 3-point Gauss-Legendre in t over ``[t0, t]``.

    The panels are equal in log t and each is at most :data:`_PANEL_FRACTION`
    of its left end wide.  So a gap of at most 1% of ``t0`` is one panel, of
    the exact width ``t - t0``, and ``(2, e**80]`` is about 8,000 panels.
    Against 40-digit mpmath, the four models' integrals over 150 gaps
    between neighbouring primes from 1e4 to 1e6 come out within 2.2e-16
    relative for ``li`` and 1.1e-15 for ``f``.  Over wide intervals they come
    out within 1.5e-15, except for the x-over-log and MT densities from
    ``t0 = 3``, just above their zeros, which err by up to 1e-14.
    """
    log_ratio = math.log1p((t - t0) / t0)
    panels = math.ceil(log_ratio / math.log1p(_PANEL_FRACTION))
    edges = t0 * np.exp(np.arange(panels + 1) * (log_ratio / panels))
    edges[0], edges[-1] = t0, t
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def mixture(state: RecursionState, log_c, a0: float, b0: float) -> GammaProductMixture:
    """The posterior whose component r carries coefficient ``exp(log_c[r])``.

    Component r's weight is ``c_r Gamma(a0+r) / A**(a0+r) * Gamma(b0+m-r) /
    B**(b0+m-r)``.  The logs are of order ``k log k``, so they are normalized
    by subtracting their maximum: subtracting their log-sum from each would
    leave the weights summing to 1 only within ``k log k`` ulps.
    """
    from scipy.special import gammaln

    if a0 <= 0.0 or b0 <= 0.0:
        raise DomainError(f"improper posterior component: base shapes {a0}, {b0}")
    ra, rb = state.sum_b1, state.sum_b2
    if ra <= 0.0 or rb <= 0.0:
        raise DomainError(
            "improper posterior: non-positive rate (the accumulated integrals "
            "are empty or negative this close to the support edge)"
        )
    if max(ra, rb) > _RATE_CEILING or min(ra, rb) < 1.0 / _RATE_CEILING:
        raise DomainError(
            f"posterior rates {ra:g}, {rb:g} lie outside [2**-510, 2**510], "
            "beyond which their squares leave the float range"
        )
    log_c = np.asarray(log_c, dtype=float)
    r = np.arange(log_c.size, dtype=float)
    shape_a, shape_b = a0 + r, b0 + (log_c.size - 1) - r
    lw = (
        log_c
        + gammaln(shape_a)
        - shape_a * math.log(ra)
        + gammaln(shape_b)
        - shape_b * math.log(rb)
    )
    lw = lw - lw.max()
    w = np.exp(lw)
    total = w.sum()
    return GammaProductMixture(state, log_c, w / total, lw - math.log(total), shape_a, shape_b)


def posterior(state: RecursionState) -> GammaProductMixture:
    """The stage-k posterior as a two-component mixture.

    It is the exact one-prime posterior under the prior advanced k-1 stages:
    base shapes ``gamma + k - 1`` and ``xi + k - 1``, coefficients
    ``f(t_k)`` (r = 0) and ``li(t_k)`` (r = 1).
    """
    c2 = error_density(state.model, state.t_last)
    if c2 <= 0.0:
        raise DomainError(
            f"error density is not positive at t={state.t_last:g}; start the "
            f"recursion at {positive_density_floor(state.model)} or later"
        )
    advanced = state.k - 1
    log_c = (math.log(c2), math.log(li(state.t_last)))
    return mixture(state, log_c, state.hyper.gamma + advanced, state.hyper.xi + advanced)


def posterior_mean_alpha(state: RecursionState) -> float:
    return posterior(state).moments().mean_alpha


def posterior_var_alpha(state: RecursionState) -> float:
    return posterior(state).moments().var_alpha


def posterior_mean_beta(state: RecursionState) -> float:
    return posterior(state).moments().mean_beta


def posterior_var_beta(state: RecursionState) -> float:
    return posterior(state).moments().var_beta


def log_posterior_predictive(state: RecursionState, t: float) -> float:
    """Log density of the next prime's position at ``t > t_last``."""
    return posterior(state).log_predictive(t)


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
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    # NaN would be dropped by the floor filter, or sort last among checkpoints
    if np.isnan(ts).any() or np.isnan(cps).any():
        raise DomainError("primes and checkpoints must not be NaN")
    ts = ts[ts >= positive_density_floor(model)]
    if ts.size == 0:
        return []
    hyper = _checked_hyper(hyper)
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("primes must be strictly increasing")
    rows: list[TrajectoryRow] = []
    for k in np.searchsorted(ts, cps, side="right").tolist():
        if k == 0:
            continue
        state = state_at(hyper, model, k, ts[k - 1])
        rows.append(TrajectoryRow(state.k, state.t_last, *posterior(state).moments()))
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
    return log_posterior_predictive(state_m1, t_next) - log_posterior_predictive(
        state_m2, t_next
    )
