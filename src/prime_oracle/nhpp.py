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
    ErrorBoundModel,
    IntensityParams,
    Li,
    error_forms,
    error_integral,
    li,
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
#: rh-sqrt at 1e7), so 2**23 events take about 1.1 GB.  At alpha = 1,
#: beta = 0 the ceiling falls at horizon 1.49e8, whose bracket cells are
#: 0.0089 wide in log t: one panel each, on which the 3-point rule errs by at
#: most 7.7e-16 of the increment (on the cell at t = 2; 2e-19 on the cell at
#: the horizon).  A smaller alpha admits wider cells, which are split into
#: panels of at most :data:`_PANEL_WIDTH`.
NHPP_EVENT_CEILING = 1 << 23

#: Widest Gauss-Legendre panel in log t.  The 3-point rule errs by about
#: ``5e-7 * h**6`` of a panel's increment (4e-19 here).  On the panel at
#: t = 2, where the hazard bends hardest, it errs by 1.5e-15 at beta <= 0.01
#: (2.4e-14 for x-over-log at beta = 1).  A bracket cell is one panel up to
#: horizon 1.6e9.
_PANEL_WIDTH = 0.01


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


def _log_increment(model: ErrorBoundModel, params: IntensityParams, a, t, panels: int):
    """``Lambda((e^a, t])`` as ``integral_a^{log t} hazard(e^s) e^s ds``.

    3-point Gauss-Legendre on ``panels`` equal panels, exact for quintics in
    ``s``; :data:`_PANEL_WIDTH` bounds its error.  The nodes are added one at
    a time, so the rule holds one node's array at once.
    """
    # log(t / e^a), not log(t) - a: the ratio lies within a cell of 1, so
    # rounding it costs an ulp of t, where rounding log t costs an ulp of
    # log t, about log t times more
    half = np.exp(a)
    np.divide(t, half, out=half)
    np.log(half, out=half)
    half *= 0.5 / panels
    total = 0.0
    for k in range(panels):
        mid = a + (2 * k + 1) * half
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
    Newton iteration: a monotone grid of 2049 points, even in log t, supplies
    the bracket and the starting point.  Each round evaluates only the events
    still active, and evaluates no log-integral: the residual is the grid's
    cumulative intensity at the point that opens the event's first bracket
    plus the increment from there by :func:`_log_increment`, and the slope
    is :func:`_hazard`: four hazard evaluations per event per round where a
    bracket cell is one panel.  An
    event converges when its Newton step is at most 1e-9 relative in t; that
    last step is taken (even onto a bracket end) and the event leaves the
    active set.  An active event whose step leaves its bracket is bisected
    instead.  Events still active after 60 rounds raise :class:`DomainError`
    rather than return unconverged.

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
    # grid_lam[j] is Lambda at e**anchors[j]: Li and F take this same log of
    # the grid as set (an ulp off grid_log_t at a few points)
    anchors = np.log(grid_t)
    panels = math.ceil((grid_log_t[1] - grid_log_t[0]) / _PANEL_WIDTH)

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
        resid = _log_increment(model, params, anchors[idx[active]], ta, panels) - rest[active]
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
