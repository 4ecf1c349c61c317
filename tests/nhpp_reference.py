"""The one-array Newton inversion of the NHPP draw (test oracle).

The code under test is :func:`prime_oracle.nhpp.simulate`, which inverts the
cumulative intensity on contiguous blocks of the sorted targets so that each
Newton round works on cache-sized arrays.  This is the draw it replaced: the
same exponential arrival sums, bracket grid, cubic-Hermite start and Newton
rounds, each round one numpy pass over every event still active.  Every step
is elementwise per event, so the two must give the same event times to the
bit.
"""

import math

import numpy as np

from prime_oracle.errors import DomainError
from prime_oracle.nhpp import _event_cells, _hazard, cumulative_intensity
from prime_oracle.specialfn import PANEL_WIDTH, increments


def draw_targets(rng, total):
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


def simulate_times(model, params, horizon, seed):
    """Sorted event times of ``simulate(model, params, horizon, seed)``."""
    if not (horizon > 2.0):
        raise DomainError("simulate requires horizon > 2")
    total = cumulative_intensity(model, params, 2.0, horizon)
    rng = np.random.default_rng(seed)
    targets = draw_targets(rng, total)
    if len(targets) == 0:
        return np.empty(0)

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
    # the cumulative intensity each root still needs beyond its grid point
    rest = targets
    rest -= grid_lam[idx]
    u = rest / grid_dlam[idx]
    lo = grid_t[idx]
    hi = grid_t[idx + 1]
    t = np.clip(lo * np.exp(u * (m0[idx] + u * (c2[idx] + u * c3[idx]))), lo, hi)
    start = np.exp(anchors)[idx]
    del u, idx

    # Newton on compacted arrays: each round keeps only the events that did
    # not converge, with their start, rest, bracket and output position
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
            break
        keep = np.flatnonzero(~done)
        pos = keep if pos is None else pos[keep]
        t, t_new, resid = t[keep], t_new[keep], resid[keep]
        lo = np.where(resid < 0.0, t, lo[keep])
        hi = np.where(resid >= 0.0, t, hi[keep])
        outside = (t_new <= lo) | (t_new >= hi)
        t = np.where(outside, 0.5 * (lo + hi), t_new)
        start, rest = start[keep], rest[keep]
        # free this round's arrays before the next round makes its own
        del gap_li, gap_f, resid, step, t_new, done, keep, outside
    else:
        raise DomainError(
            f"Newton inversion left {len(t)} of {len(times)} events unconverged "
            "after 60 rounds"
        )
    times.sort()
    return times
