"""Nonhomogeneous Poisson process on [2, inf) with intensity alpha*li + beta*f.

The process plays the role of a randomized prime-counting function: event
times are the analogue of primes, and the three ``*_check`` helpers report
the empirical ratios whose limits are 1 under the classical asymptotics
(counts ~ x/log x, n-th event ~ n log n, short-window counts ~ x^theta/log x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specialfn import (
    ErrorBoundModel,
    IntensityParams,
    Li,
    error_forms,
    error_integral,
    li,
)

__all__ = [
    "EventStream",
    "cumulative_intensity",
    "log_waiting_density",
    "simulate",
    "pnt_ratio_check",
    "nth_event_check",
    "gap_window_check",
]


@dataclass(frozen=True)
class EventStream:
    """One realization of the process up to ``horizon``."""

    times: np.ndarray
    model: ErrorBoundModel
    params: IntensityParams
    seed: int
    horizon: float

    def count_up_to(self, x: float) -> int:
        return int(np.searchsorted(self.times, x, side="right"))


def cumulative_intensity(
    model: ErrorBoundModel, params: IntensityParams, x1: float, x2: float
):
    """``Lambda((x1, x2]) = alpha*(Li(x2)-Li(x1)) + beta*(F(x2)-F(x1))``."""
    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    if np.any(a1 < 2.0) or np.any(a2 < a1):
        raise DomainError("cumulative_intensity requires 2 <= x1 <= x2")
    out = params.alpha * (Li(a2) - Li(a1)) + params.beta * (
        error_integral(model, a2) - error_integral(model, a1)
    )
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(out)
    return out


def _hazard(model: ErrorBoundModel, params: IntensityParams, t):
    """``alpha*li(t) + beta*f(t)`` with the signed density ``f`` of :func:`error_forms`.

    ``error_density`` refuses ``X_OVER_LOG`` below ``e``, where f < 0,
    because a posterior coefficient must be positive.  The process only
    needs the whole intensity to be positive, which ``simulate`` checks on
    its grid.
    """
    lam = params.alpha * li(t)
    if params.beta != 0.0:
        log_raw, elasticity = error_forms(model)
        lg = np.log(t)
        lam = lam + params.beta * np.exp(log_raw(lg, np.log(lg)) - lg) * elasticity(lg)
    return lam


def log_waiting_density(
    model: ErrorBoundModel, params: IntensityParams, t_prev: float, t: float
) -> float:
    """Log density of the next event at ``t`` given the last one at ``t_prev``.

    Equals ``-Lambda((t_prev, t]) + log(alpha*li(t) + beta*f(t))`` with the
    hazard of :func:`_hazard`, the one ``simulate`` inverts; a hazard that is
    not positive at ``t`` is refused.
    """
    if not (t > t_prev >= 2.0):
        raise DomainError("log_waiting_density requires t > t_prev >= 2")
    lam = float(_hazard(model, params, t))
    if lam <= 0.0:
        raise DomainError(f"non-positive hazard at t={t:g}")
    return -cumulative_intensity(model, params, t_prev, t) + math.log(lam)


def _draw_targets(rng: np.random.Generator, total: float) -> np.ndarray:
    """Cumulative sums of unit-rate exponentials, truncated at ``total``."""
    sums = np.empty(0)
    last = 0.0
    while last <= total:
        block = max(64, int(total - last) + int(4.0 * math.sqrt(total + 1.0)))
        incs = rng.exponential(size=block)
        incs[0] += last
        more = np.cumsum(incs)
        sums = np.concatenate([sums, more])
        last = float(sums[-1])
    return sums[sums <= total]


def simulate(
    model: ErrorBoundModel, params: IntensityParams, horizon: float, seed: int
) -> EventStream:
    """Draw one realization by the time-change method.

    Unit-rate exponential arrival sums are mapped through the inverse of the
    cumulative intensity.  The inverse is found per event by bracketed
    Newton iteration: a monotone grid supplies the bracket and the starting
    point, and each round evaluates the cumulative intensity and the hazard
    only on the events still active.  An event converges when its Newton
    step is at most 1e-9 relative in t; that last step is taken (even onto a
    bracket end) and the event leaves the active set.  An active event whose
    step leaves its bracket is bisected instead.  Events still active after
    60 rounds raise :class:`DomainError` rather than return unconverged.
    """
    if not (horizon > 2.0):
        raise DomainError("simulate requires horizon > 2")
    rng = np.random.default_rng(seed)
    total = cumulative_intensity(model, params, 2.0, horizon)
    targets = _draw_targets(rng, total)
    if len(targets) == 0:
        return EventStream(np.empty(0), model, params, int(seed), float(horizon))

    # Monotone bracket grid in log-t; fine enough that Newton converges in a
    # couple of steps from the interpolated start.
    grid_log_t = np.linspace(math.log(2.0), math.log(horizon), 2049)
    grid_t = np.exp(grid_log_t)
    grid_t[0], grid_t[-1] = 2.0, horizon
    grid_lam = np.asarray(cumulative_intensity(model, params, 2.0, grid_t))
    if np.any(np.diff(grid_lam) <= 0.0):
        raise DomainError(
            "cumulative intensity is not strictly increasing on [2, horizon]; "
            "the chosen coefficients make the intensity negative near the edge"
        )

    idx = np.clip(np.searchsorted(grid_lam, targets, side="right"), 1, len(grid_t) - 1)
    lo = grid_t[idx - 1]
    hi = grid_t[idx]
    t = np.exp(np.interp(targets, grid_lam, grid_log_t))
    t = np.clip(t, lo, hi)

    active = np.arange(len(t))
    for _ in range(60):
        ta = t[active]
        resid = np.asarray(cumulative_intensity(model, params, 2.0, ta)) - targets[active]
        lo_a = np.where(resid < 0.0, ta, lo[active])
        hi_a = np.where(resid >= 0.0, ta, hi[active])
        step = resid / _hazard(model, params, ta)
        t_new = ta - step
        done = np.abs(step) <= 1e-9 * np.maximum(1.0, ta)
        outside = ~done & ((t_new <= lo_a) | (t_new >= hi_a))
        t_new[outside] = 0.5 * (lo_a[outside] + hi_a[outside])
        t[active], lo[active], hi[active] = t_new, lo_a, hi_a
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise DomainError(
            f"Newton inversion left {active.size} of {len(t)} events unconverged "
            "after 60 rounds"
        )
    return EventStream(np.sort(t), model, params, int(seed), float(horizon))


def pnt_ratio_check(stream: EventStream, x_grid) -> list[tuple[float, float]]:
    """Ratios ``N([2, x]) / (x / log x)`` along ``x_grid``.

    With a unit coefficient on the log-integral component the ratios drift
    toward 1 as x grows; with coefficient ``alpha`` they drift toward alpha.
    """
    out = []
    for x in np.atleast_1d(np.asarray(x_grid, dtype=float)):
        if x <= math.e:
            raise DomainError("pnt ratio needs x > e for a positive normalizer")
        out.append((float(x), stream.count_up_to(float(x)) / (x / math.log(x))))
    return out


def nth_event_check(stream: EventStream, n_grid) -> list[tuple[int, float]]:
    """Ratios ``Z_n / (n log n)`` for the requested event indices."""
    out = []
    for n in np.atleast_1d(np.asarray(n_grid, dtype=int)):
        n = int(n)
        if n < 2:
            raise DomainError("nth_event_check requires n >= 2")
        if n > len(stream.times):
            continue
        z_n = float(stream.times[n - 1])
        out.append((n, z_n / (n * math.log(n))))
    return out


def gap_window_check(
    stream: EventStream, theta: float, x_grid
) -> list[tuple[float, float]]:
    """Window-count ratios ``N((x, x + x**theta]) * log(x) / x**theta``.

    ``theta`` must exceed 1/2; that is the regime in which the short-window
    counts track ``x**theta / log x``.
    """
    if not (0.5 < theta < 1.0):
        raise DomainError(f"gap window exponent must lie in (1/2, 1), got {theta}")
    out = []
    for x in np.atleast_1d(np.asarray(x_grid, dtype=float)):
        x = float(x)
        if x <= math.e:
            raise DomainError("gap window needs x > e")
        width = x**theta
        count = stream.count_up_to(x + width) - stream.count_up_to(x)
        out.append((x, count * math.log(x) / width))
    return out
