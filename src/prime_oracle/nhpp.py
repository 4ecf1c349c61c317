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

from .errors import DomainError, ResourceError
from .specialfn import (
    GAUSS_LEGENDRE_3,
    PANEL_WIDTH,
    ErrorBoundModel,
    IntensityParams,
    Li,
    error_integral,
    li,
    signed_density,
)

__all__ = [
    "NHPP_EVENT_CEILING",
    "EventStream",
    "cumulative_intensity",
    "log_waiting_density",
    "simulate",
    "pnt_ratio_check",
    "nth_event_check",
    "gap_window_check",
]


#: Largest expected event count ``Lambda((2, horizon])`` that :func:`simulate`
#: will draw.  One draw peaks near 129 bytes per event (``ru_maxrss``,
#: rh-sqrt at 1e7), so 2**23 events take about 1.1 GB; at alpha = 1,
#: beta = 0 that is horizon 1.49e8.  The bracket grid needs no ceiling: its
#: cells are :data:`.PANEL_WIDTH` in log t, 69,009 at horizon 1e300.
NHPP_EVENT_CEILING = 1 << 23


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
    """``alpha*li(t) + beta*f(t)`` with the signed ``f`` of :func:`.signed_density`.

    Unlike a posterior coefficient, ``f`` may be negative here (below ``e``
    for ``X_OVER_LOG``): the process needs only the whole intensity to be
    positive, which ``simulate`` checks on its grid.
    """
    lam = params.alpha * li(t)
    if params.beta != 0.0:
        lam = lam + params.beta * signed_density(model, np.log(t))
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


def _log_increment(model: ErrorBoundModel, params: IntensityParams, a, t):
    """``Lambda((e^a, t])`` as ``integral_a^{log t} hazard(e^s) e^s ds``.

    One 3-point Gauss-Legendre panel, exact for quintics in ``s``; ``t`` lies
    in the bracket cell that opens at ``e^a``, so the panel is at most
    :data:`.PANEL_WIDTH` wide, which bounds the rule's error.  The nodes are
    added one at a time, so the rule holds one node's array at once.
    """
    # log(t / e^a), not log(t) - a: the ratio lies within a cell of 1, so
    # rounding it costs an ulp of t, where rounding log t costs an ulp of
    # log t, about log t times more
    half = np.exp(a)
    np.divide(t, half, out=half)
    np.log(half, out=half)
    half *= 0.5
    mid = a + half
    total = 0.0
    for node, weight in GAUSS_LEGENDRE_3:
        t_node = np.exp(mid + node * half)
        t_node *= weight * _hazard(model, params, t_node)
        total += t_node
    total *= half
    return total


def simulate(
    model: ErrorBoundModel, params: IntensityParams, horizon: float, seed: int
) -> EventStream:
    """Draw one realization by the time-change method.

    Unit-rate exponential arrival sums are mapped through the inverse of the
    cumulative intensity.  The inverse is found per event by bracketed
    Newton iteration: a monotone grid even in log t, of
    ``ceil(log(horizon / 2) / PANEL_WIDTH)`` cells (1314 points at 1e6),
    supplies the bracket and the starting point.  Each round evaluates only
    the events still active, and evaluates no log-integral: the residual is
    the grid's cumulative intensity at the point that opens the event's
    first bracket plus the one-panel increment from there by
    :func:`_log_increment`, and the slope is :func:`_hazard`: four hazard
    evaluations per event per round.  An event converges when
    its Newton step is at most 1e-9 relative in t; that last step is taken
    (even onto a bracket end) and the event leaves the active set.  An active
    event whose step leaves its bracket is bisected instead.  Events still
    active after 60 rounds raise :class:`DomainError` rather than return
    unconverged.

    An expected count ``Lambda((2, horizon])`` above :data:`NHPP_EVENT_CEILING`
    raises :class:`ResourceError` before any draw.
    """
    if not (horizon > 2.0):
        raise DomainError("simulate requires horizon > 2")
    total = cumulative_intensity(model, params, 2.0, horizon)
    if not (total <= NHPP_EVENT_CEILING):
        raise ResourceError(
            f"expected event count {total:.4g} exceeds ceiling {NHPP_EVENT_CEILING}"
        )
    rng = np.random.default_rng(seed)
    targets = _draw_targets(rng, total)
    if len(targets) == 0:
        return EventStream(np.empty(0), model, params, int(seed), float(horizon))

    # Monotone bracket grid in log-t, one Gauss-Legendre panel per cell; fine
    # enough that Newton converges in two steps from the interpolated start.
    cells = math.ceil(math.log(horizon / 2.0) / PANEL_WIDTH)
    grid_log_t = np.linspace(math.log(2.0), math.log(horizon), cells + 1)
    grid_t = np.exp(grid_log_t)
    grid_t[0], grid_t[-1] = 2.0, horizon
    grid_lam = np.asarray(cumulative_intensity(model, params, 2.0, grid_t))
    if np.any(np.diff(grid_lam) <= 0.0):
        raise DomainError(
            "cumulative intensity is not strictly increasing on [2, horizon]; "
            "the chosen coefficients make the intensity negative near the edge"
        )
    # grid_lam[j] is Lambda at e**anchors[j]: Li and F take this same log of
    # the grid as set (an ulp off grid_log_t at a few points)
    anchors = np.log(grid_t)

    idx = np.clip(np.searchsorted(grid_lam, targets, side="right") - 1, 0, len(grid_t) - 2)
    lo = grid_t[idx]
    hi = grid_t[idx + 1]
    t = np.exp(np.interp(targets, grid_lam, grid_log_t))
    t = np.clip(t, lo, hi)
    # the cumulative intensity each root still needs beyond its grid point
    rest = targets
    rest -= grid_lam[idx]

    active = np.arange(len(t))
    for _ in range(60):
        ta = t[active]
        resid = _log_increment(model, params, anchors[idx[active]], ta) - rest[active]
        lo_a = np.where(resid < 0.0, ta, lo[active])
        hi_a = np.where(resid >= 0.0, ta, hi[active])
        step = resid / _hazard(model, params, ta)
        t_new = ta - step
        done = np.abs(step) <= 1e-9 * np.maximum(1.0, ta)
        outside = ~done & ((t_new <= lo_a) | (t_new >= hi_a))
        t_new[outside] = 0.5 * (lo_a[outside] + hi_a[outside])
        t[active], lo[active], hi[active] = t_new, lo_a, hi_a
        active = active[~done]
        # free this round's arrays before the next round makes its own
        del ta, resid, lo_a, hi_a, step, t_new, done, outside
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
