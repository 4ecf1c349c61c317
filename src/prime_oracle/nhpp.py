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
    PANEL_WIDTH,
    ErrorBoundModel,
    IntensityParams,
    Li,
    error_integral,
    increments,
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
#: will draw.  One draw at 1e7 (rh-sqrt, alpha = beta = 1, seed 1: 717,731
#: events) raises ``ru_maxrss`` by 26 bytes per event over the import with
#: scipy loaded (its tracemalloc peak is 27 bytes per event), and its total
#: ``ru_maxrss`` is 110 bytes per event; so 2**23 events take about 0.21 GB
#: over the import, or 0.92 GB at the total's rate.  At alpha = 1,
#: beta = 0 the ceiling is horizon 1.49e8.  The bracket grid needs no ceiling:
#: its cells are :data:`.PANEL_WIDTH` in log t, 69,009 at horizon 1e300.
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
    """Cumulative sums of unit-rate exponentials, truncated at ``total``.

    The sums are taken in place and never fall, so the truncation is a
    prefix view: a draw that ends in its first chunk, as all but about 3e-5
    of them do, copies no draw-sized array beyond the exponentials.
    """
    sums = None
    last = 0.0
    while last <= total:
        block = max(64, int(total - last) + int(4.0 * math.sqrt(total + 1.0)))
        incs = rng.exponential(size=block)
        incs[0] += last
        more = np.cumsum(incs, out=incs)
        sums = more if sums is None else np.concatenate([sums, more])
        last = float(sums[-1])
    return sums[: np.searchsorted(sums, total, side="right")]


def _event_cells(grid_lam: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The grid cell of each sorted target: the last ``j`` with
    ``grid_lam[j] <= target``, clipped to the ``len(grid_lam) - 1`` cells.

    The targets are sorted, so one search per grid point among them gives
    each cell's run of targets, where a search per target in the grid would
    cost one per event.
    """
    cells = len(grid_lam) - 1
    runs = np.diff(np.searchsorted(targets, grid_lam), prepend=0, append=len(targets))
    return np.repeat(np.clip(np.arange(-1, cells + 1), 0, cells - 1), runs)


#: Events per block of the Newton inversion in :func:`simulate`.  A round
#: makes about 40 float temporaries per event, but at most 14 float arrays,
#: the block's five inputs included, are alive at once (112 bytes per event
#: under tracemalloc); at 2**14 events that is 1.8 MB, which stays in a 2 MB
#: L2 cache.  On a 2-core Xeon with 2 MB of L2 per core, ten alternating
#: sets of nine draws at 1e6 (rh-sqrt, rh-eps:0.1, mt; beta 0.01; three
#: seeds) ran at a median 10.9M events/s in blocks of 2**14, 10.3M in blocks
#: of 2**13 and 10.6M in blocks of 2**15, against 7.4M for one whole array.
_EVENT_BLOCK = 1 << 14


def _invert_block(model, params, start, rest, lo, hi, t):
    """Newton roots of ``Lambda((start, t]) = rest`` within ``[lo, hi]`` from ``t``.

    Each round evaluates only the events still active, on arrays compacted
    to them, with their start, rest, bracket and output position; see
    :func:`simulate` for the step, the convergence test and the bisection.
    """
    times = None
    pos = None
    for _ in range(60):
        gap_li, gap_f = increments(model, start, t)
        resid = params.alpha * gap_li + params.beta * gap_f - rest
        step = resid / _hazard(model, params, t)
        t_new = t - step
        done = np.abs(step) <= 1e-9 * np.maximum(1.0, t)
        if times is None:
            times = t_new
        else:
            times[pos] = t_new
        if done.all():
            return times
        keep = np.flatnonzero(~done)
        pos = keep if pos is None else pos[keep]
        t, t_new, resid = t[keep], t_new[keep], resid[keep]
        lo = np.where(resid < 0.0, t, lo[keep])
        hi = np.where(resid >= 0.0, t, hi[keep])
        outside = (t_new <= lo) | (t_new >= hi)
        t = np.where(outside, 0.5 * (lo + hi), t_new)
        start, rest = start[keep], rest[keep]
    raise DomainError(
        f"Newton inversion left {len(t)} of the {len(times)} events in a block "
        "unconverged after 60 rounds"
    )


def simulate(
    model: ErrorBoundModel, params: IntensityParams, horizon: float, seed: int
) -> EventStream:
    """Draw one realization by the time-change method.

    Unit-rate exponential arrival sums are mapped through the inverse of the
    cumulative intensity.  The inverse is found per event by bracketed
    Newton iteration: a monotone grid even in log t, of
    ``ceil(log(horizon / 2) / PANEL_WIDTH)`` cells (1314 points at 1e6),
    supplies the bracket and the starting point, the cubic Hermite
    interpolant (Fritsch & Carlson 1980) of log t in Lambda with slopes
    ``1 / (hazard(t) * t)`` at the grid points.  Within a cell log t grows
    like log Lambda, so the start errs by at most about
    6 * PANEL_WIDTH**4 / 384 = 1.6e-10 in log t (1.2e-10 measured at 1e6),
    under the convergence test: each event converges in the first round,
    bar a few in the first cells where the hazard is steep near 2.  Each
    round evaluates only the events still active, on arrays compacted to
    them, and evaluates no log-integral: the residual is the grid's
    cumulative intensity at the point that opens the event's first bracket
    plus the one-panel increments from there by :func:`.increments`, and
    the slope is :func:`_hazard`: three quadrature nodes and one hazard
    evaluation per event per round.  An event converges when
    its Newton step is at most 1e-9 relative in t; that last step is taken
    (even onto a bracket end) and the event leaves the active set.  An active
    event whose step leaves its bracket is bisected instead.  Events still
    active after 60 rounds raise :class:`DomainError`, naming how many of
    their block's events were left, rather than return unconverged.

    The grid, its Hermite coefficients and each target's cell are computed
    for the whole draw; the start and the Newton rounds then run on
    contiguous blocks of :data:`_EVENT_BLOCK` sorted targets, whose arrays
    stay in cache, and each block's roots are written into one output array.
    Every step is elementwise per event, so the times do not depend on the
    block size.  A draw holds about 27 bytes per event at its peak: the
    targets, their cells and the output, besides one block's temporaries.
    The roots are sorted at the end.

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
    # enough that the cubic-Hermite start is within about 1.6e-10 of the root
    # in log t, so Newton converges in one step.
    cells = math.ceil(math.log(horizon / 2.0) / PANEL_WIDTH)
    grid_log_t = np.linspace(math.log(2.0), math.log(horizon), cells + 1)
    grid_t = np.exp(grid_log_t)
    grid_t[0], grid_t[-1] = 2.0, horizon
    grid_lam = np.asarray(cumulative_intensity(model, params, 2.0, grid_t))
    grid_dlam = np.diff(grid_lam)
    if np.any(grid_dlam <= 0.0):
        raise DomainError(
            "cumulative intensity is not strictly increasing on [2, horizon]; "
            "the chosen coefficients make the intensity negative near the edge"
        )
    # grid_lam[j] is Lambda at e**anchors[j]: Li and F take this same log of
    # the grid as set (an ulp off grid_log_t at a few points)
    anchors = np.log(grid_t)

    # Cubic Hermite of log t in Lambda on each cell, in the cell's unit
    # u = (Lambda - grid_lam[j]) / grid_dlam[j]: end slopes d(log t)/du are
    # grid_dlam / (hazard * t).  A cell with an end where hazard * t is not
    # positive and finite (hazard(2) <= 0 under X_OVER_LOG at beta/alpha >=
    # 2.259) takes the secant for both slopes, which makes the cubic linear.
    rise = np.diff(anchors)
    dlam_dlogt = _hazard(model, params, grid_t) * grid_t
    usable = np.isfinite(dlam_dlogt) & (dlam_dlogt > 0.0)
    usable = usable[:-1] & usable[1:]
    m0 = np.divide(grid_dlam, dlam_dlogt[:-1], out=rise.copy(), where=usable)
    m1 = np.divide(grid_dlam, dlam_dlogt[1:], out=rise.copy(), where=usable)
    # log(t / t_j) = u * (m0 + u * (c2 + u * c3))
    c2 = 3.0 * rise - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * rise

    idx = _event_cells(grid_lam, targets)
    grid_start = np.exp(anchors)
    times = np.empty(len(targets))
    for first in range(0, len(targets), _EVENT_BLOCK):
        block = slice(first, first + _EVENT_BLOCK)
        cell = idx[block]
        # the cumulative intensity each root still needs beyond its grid point
        rest = targets[block] - grid_lam[cell]
        u = rest / grid_dlam[cell]
        lo = grid_t[cell]
        hi = grid_t[cell + 1]
        t = np.clip(lo * np.exp(u * (m0[cell] + u * (c2[cell] + u * c3[cell]))), lo, hi)
        times[block] = _invert_block(model, params, grid_start[cell], rest, lo, hi, t)
    # timsort finds the runs, so roots that are sorted or nearly so (as those
    # of sorted targets are) sort in about one pass over them
    times.sort(kind="stable")
    return EventStream(times, model, params, int(seed), float(horizon))


def pnt_ratio_check(stream: EventStream, x_grid) -> list[tuple[float, float]]:
    """Ratios ``N([2, x]) / (x / log x)`` along ``x_grid``.

    With a unit coefficient on the log-integral component the ratios drift
    toward 1 as x grows; with coefficient ``alpha`` they drift toward alpha.
    """
    out = []
    for x in np.atleast_1d(np.asarray(x_grid, dtype=float)).tolist():
        if not (math.e < x < math.inf):  # also refuses NaN
            raise DomainError("pnt ratio needs finite x > e for a positive normalizer")
        out.append((x, stream.count_up_to(x) / (x / math.log(x))))
    return out


def nth_event_check(stream: EventStream, n_grid) -> list[tuple[int, float]]:
    """Ratios ``Z_n / (n log n)`` for the requested event indices."""
    out = []
    for n in np.atleast_1d(np.asarray(n_grid, dtype=float)).tolist():
        if not (2.0 <= n < math.inf):  # also refuses NaN
            raise DomainError("nth_event_check requires finite n >= 2")
        n = int(n)
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
    for x in np.atleast_1d(np.asarray(x_grid, dtype=float)).tolist():
        if not (math.e < x < math.inf):  # also refuses NaN
            raise DomainError("gap window needs finite x > e")
        width = x**theta
        count = stream.count_up_to(x + width) - stream.count_up_to(x)
        out.append((x, count * math.log(x) / width))
    return out
