"""Stage-wise recursive posterior over the two intensity coefficients.

Feeding the ascending primes one at a time, each stage's posterior (with both
shape parameters advanced by one) becomes the next stage's prior, so the
posterior after k primes stays a two-component mixture of gamma-product
densities no matter how large k grows.  The accumulated sufficient statistics
telescope: the alpha-rate is ``a + Li(t_k)`` and the beta-rate is
``b + F(t_k)`` for the chosen error-bound integral F.  So :func:`state_at`
evaluates any stage in closed form from ``k`` and ``t_k`` alone; ``init`` and
``update`` are thin wrappers over it.  ``k`` and ``t_k`` may also be arrays,
one entry per stage, and :func:`posterior` and the moments follow them, so a
trajectory costs one array evaluation for all checkpoints rather than one
update per prime.

The stage-k posterior is the exact one-prime posterior under the prior
advanced k-1 stages: :func:`posterior` gives it as a two-component
:class:`GammaProductMixture`.  The exact posterior of all k primes
(:func:`.nonrecursive_bayes.build`) has the same methods, and shares the
rate checks and the predictive's gaps (:func:`_checked_rates`,
:func:`_predictive_gaps`, which sums :func:`.increments` over log panels).
The mixture weights are closed-form too: by ``Gamma(s+1) = s Gamma(s)``
they need no log-gamma values.

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
from .specialfn import (PANEL_WIDTH, ErrorBoundModel, Li, error_density, error_integral,
                        increments, li, MT_DECAY_CONSTANT, positive_density_floor)

__all__ = [
    "Hyperparameters", "RecursionState", "Moments", "GammaProductMixture", "TrajectoryRow",
    "state_at", "init", "update", "posterior", "posterior_mean_alpha", "posterior_var_alpha",
    "posterior_mean_beta", "posterior_var_beta", "log_posterior_predictive", "trajectory",
    "asymptotic_form_table", "model_compare_log_ratio",
]


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
    ``a + Li(t_last)`` and ``b + F(t_last)`` respectively.  A state of
    several stages holds equal-shape arrays in ``k``, ``sum_b1``, ``sum_b2``
    and ``t_last``, one entry per stage.
    """

    k: int | np.ndarray
    hyper: Hyperparameters
    sum_b1: float | np.ndarray
    sum_b2: float | np.ndarray
    t_last: float | np.ndarray
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


def _refuse(bad, message: str, *values) -> None:
    """Raise ``DomainError(message.format(*values))`` with each of ``values``
    (broadcast against ``bad``) taken at the first stage where ``bad`` holds."""
    if np.count_nonzero(bad):
        bad = np.asarray(bad)
        at = int(np.argmax(bad))
        raise DomainError(message.format(
            *(np.broadcast_to(v, bad.shape).flat[at].item() for v in values)))


def state_at(
    hyper: Hyperparameters, model: ErrorBoundModel, k, t_k
) -> RecursionState:
    """Closed-form stage-k state after conditioning on ``k`` primes ending at ``t_k``.

    The stage sums telescope, so the state depends on the primes only
    through ``k`` and the last one: the rates are ``a + Li(t_k)`` and
    ``b + F(t_k)``.  Scalar ``k`` and ``t_k`` give an int and floats;
    equal-shape arrays give a state of as many stages, every check naming
    the first stage that fails it.
    """
    hyper = _checked_hyper(hyper)
    ks, ts = np.asarray(k), np.asarray(t_k, dtype=float)
    if ks.shape != ts.shape:
        raise DomainError(f"stage counts and primes differ in shape: {ks.shape}, {ts.shape}")
    _refuse(~(ts >= 2.0), "primes must be >= 2, got {}", ts)  # also refuses NaN
    _refuse(ks < 1, "stage count must be >= 1, got {}", ks)
    sum_b1, sum_b2 = hyper.a + Li(ts), hyper.b + error_integral(model, ts)
    ks = ks.astype(int) if ks.ndim else int(ks)
    return RecursionState(k=ks, hyper=hyper, sum_b1=sum_b1, sum_b2=sum_b2,
                          t_last=ts if ts.ndim else float(ts), model=model)


def init(hyper: Hyperparameters, model: ErrorBoundModel, t1: float) -> RecursionState:
    """Start the recursion at the first observed prime ``t1``."""
    return state_at(hyper, model, 1, t1)


def update(state: RecursionState, t_next: float) -> RecursionState:
    """Advance one stage by conditioning on the next prime."""
    t_next = float(t_next)
    if t_next <= state.t_last:
        raise DomainError(f"primes must be strictly increasing: {t_next} after {state.t_last}")
    return state_at(state.hyper, state.model, state.k + 1, t_next)


class Moments(NamedTuple):
    mean_alpha: float
    var_alpha: float
    mean_beta: float
    var_beta: float


class GammaProductMixture(NamedTuple):
    """Components ``Gamma(a0, A) x Gamma(b0 + 1, B)`` and ``Gamma(a0 + 1, A) x Gamma(b0, B)``.

    The stage-k posterior of the recursive engine.  ``state`` supplies the
    rates ``A = sum_b1`` and ``B = sum_b2`` together with the model, prior
    and last prime that the predictive extends from; ``w`` are the
    normalized weights and ``log_w`` their logs.  The last axis of ``w``,
    ``log_w`` and the shapes runs over the two components, the others over
    the stages of ``state``; the predictive and the density take one stage.
    """

    state: RecursionState
    w: np.ndarray
    log_w: np.ndarray
    shape_a: np.ndarray
    shape_b: np.ndarray

    def moments(self) -> Moments:
        """The posterior means and variances of alpha and beta.

        Each variance is ``(E_w[s] + Var_w[s]) / rate**2`` over the component
        shapes s: non-negative summands, free of ``E[x**2] - E[x]**2``.  Floats
        for one stage, arrays over the stages of a batched state.
        """
        out = []
        for shape, rate in ((self.shape_a, self.state.sum_b1), (self.shape_b, self.state.sum_b2)):
            mean_shape = np.vecdot(self.w, shape)
            spread = np.vecdot(self.w, (shape - mean_shape[..., None]) ** 2)
            out += [mean_shape / rate, (mean_shape + spread) / rate**2]
        return Moments(*(x if x.ndim else float(x) for x in out))

    def log_predictive(self, t: float) -> float:
        """Log density of the next prime's position at ``t > t_last``.

        With ``A' = a + Li(t)`` and ``B' = b + F(t)`` this is ``log sum_r w_r
        (A/A')**sa_r (B/B')**sb_r (li(t) sa_r / A' + f(t) sb_r / B')``: each
        component's expected hazard at ``t`` times its survival over
        ``(t_last, t]``, summed in log space.
        """
        state, sa, sb = self.state, self.shape_a, self.shape_b
        li_t, f_t, gap_a, gap_b = _predictive_gaps(state, t)
        ap, bp = state.sum_b1 + gap_a, state.sum_b2 + gap_b
        # log(A/A') = -log1p((A' - A)/A): no rounding of log(A) near k log k
        log_ra, log_rb = -math.log1p(gap_a / state.sum_b1), -math.log1p(gap_b / state.sum_b2)
        z = self.log_w + sa * log_ra + sb * log_rb + np.log(li_t * sa / ap + f_t * sb / bp)
        top = z.max()
        return float(top + math.log(np.exp(z - top).sum()))

    def pdf(self, alpha, beta):
        """Density at ``(alpha, beta) > 0``; the two arguments broadcast."""
        from scipy.special import gammaln

        ra, rb, sa, sb = self.state.sum_b1, self.state.sum_b2, self.shape_a, self.shape_b
        a, b = np.asarray(alpha, dtype=float)[..., None], np.asarray(beta, dtype=float)[..., None]
        log_terms = (
            self.log_w
            + sa * math.log(ra) - gammaln(sa) + (sa - 1.0) * np.log(a) - ra * a
            + sb * math.log(rb) - gammaln(sb) + (sb - 1.0) * np.log(b) - rb * b
        )
        return np.exp(log_terms).sum(axis=-1)


def _predictive_gaps(state: RecursionState, t: float) -> tuple[float, float, float, float]:
    """``li(t)``, ``f(t)`` and the rate gaps ``A' - A``, ``B' - B`` of a predictive at ``t``.

    Both engines' predictives take their domain check from here.  The gaps
    are the :func:`.increments` over ``(t_last, t]`` split into equal panels
    in log t of at most :data:`.PANEL_WIDTH`, so a gap of at most 1% of
    ``t_last`` is one panel and ``(2, e**80]`` 7,931.
    """
    t0, t = state.t_last, float(t)
    if not (t0 < t < math.inf):
        raise DomainError("predictive point must be finite and exceed the last prime")
    f_t = error_density(state.model, t)
    if f_t <= 0.0:
        raise DomainError("error density not positive at the predictive point")
    log_ratio = math.log1p((t - t0) / t0)
    panels = math.ceil(log_ratio / PANEL_WIDTH)
    if panels == 1:  # on floats: one-element arrays cost six times as much
        gap_a, gap_b = increments(state.model, t0, t)
        return li(t), f_t, float(gap_a), float(gap_b)
    edges = t0 * np.exp(np.arange(panels + 1) * (log_ratio / panels))
    edges[0], edges[-1] = t0, t
    gap_a, gap_b = increments(state.model, edges[:-1], edges[1:])
    return li(t), f_t, float(gap_a.sum()), float(gap_b.sum())


def _checked_rates(state: RecursionState):
    """The rates ``(A, B)`` of ``state``, refused where a posterior on them is improper."""
    ra, rb = state.sum_b1, state.sum_b2
    _refuse((ra <= 0.0) | (rb <= 0.0), "improper posterior: non-positive rate (the accumulated "
            "integrals are empty or negative this close to the support edge)")
    floor = 1.0 / _RATE_CEILING
    _refuse((ra > _RATE_CEILING) | (rb > _RATE_CEILING) | (ra < floor) | (rb < floor),
            "posterior rates {:g}, {:g} lie outside [2**-510, 2**510], beyond which their "
            "squares leave the float range", ra, rb)
    return ra, rb


def posterior(state: RecursionState) -> GammaProductMixture:
    """The stage-k posterior as a two-component mixture.

    It is the exact one-prime posterior under the prior advanced k-1 stages:
    base shapes ``a0 = gamma + k - 1``, ``b0 = xi + k - 1`` and coefficients
    ``c_0 = f(t_k)``, ``c_1 = li(t_k)``; component r weighs ``c_r
    Gamma(a0+r) / A**(a0+r) * Gamma(b0+1-r) / B**(b0+1-r)``.  By
    ``Gamma(s+1) = s Gamma(s)`` the two weights are proportional to
    ``c_0 b0 A`` and ``c_1 a0 B``: their logs, of order ``log k``, are
    normalized by their log-sum, where differencing ``log Gamma`` values of
    order ``k log k`` would lose ``k log k`` ulps.  A state of several stages
    gives their mixtures in one, the components on the last axis.
    """
    t = state.t_last
    c2 = error_density(state.model, t)
    _refuse(c2 <= 0.0, "error density is not positive at t={:g}; start the recursion at {} "
            "or later", t, positive_density_floor(state.model))
    advanced = state.k - 1
    a0, b0 = state.hyper.gamma + advanced, state.hyper.xi + advanced
    _refuse((a0 <= 0.0) | (b0 <= 0.0), "improper posterior component: base shapes {}, {}",
            a0, b0)
    ra, rb = _checked_rates(state)
    r = np.arange(2, dtype=float)
    shape_a, shape_b = np.add.outer(a0, r), np.subtract.outer(b0 + 1, r)
    lw = np.empty(np.shape(t) + (2,))
    lw[..., 0] = np.log(c2) + np.log(b0) + np.log(ra)
    lw[..., 1] = np.log(li(t)) + np.log(a0) + np.log(rb)
    lw -= np.logaddexp(lw[..., 0], lw[..., 1])[..., None]
    return GammaProductMixture(state, np.exp(lw), lw, shape_a, shape_b)


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

    Each row is the closed-form state after the largest prime not exceeding
    its x-threshold; a checkpoint below the first usable prime gives no row.
    Primes below the model's positive-density floor (2 for ``X_OVER_LOG`` and
    ``MT``) are skipped so every mixture coefficient stays positive.  The
    rows come from one array evaluation for all checkpoints.
    """
    ts = np.asarray(primes, dtype=float)
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    # NaN would be dropped by the floor filter, or sort last among checkpoints
    if np.isnan(ts).any() or np.isnan(cps).any():
        raise DomainError("primes and checkpoints must not be NaN")
    # checked on the whole input, before the floor filter drops its start
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("primes must be strictly increasing")
    if ts.size and not (ts[0] >= 2.0 and ts[-1] < math.inf):
        raise DomainError(f"primes must be finite and >= 2, got {ts[0]} to {ts[-1]}")
    ts = ts[ts >= positive_density_floor(model)]
    if ts.size == 0:
        return []
    ks = np.searchsorted(ts, cps, side="right")
    ks = ks[ks > 0]
    state = state_at(hyper, model, ks, ts[ks - 1])
    columns = (state.k, state.t_last, *posterior(state).moments())
    return [TrajectoryRow(*row) for row in zip(*(c.tolist() for c in columns))]


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
        mt_form = math.exp(math.sqrt(log_k / MT_DECAY_CONSTANT) - 0.25 * math.log(log_k))
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
        raise DomainError("model comparison requires states conditioned on the same primes")
    return log_posterior_predictive(state_m1, t_next) - log_posterior_predictive(state_m2, t_next)
