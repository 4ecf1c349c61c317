"""Exact single-shot posterior over (alpha, beta) given a block of primes.

Given all k primes, the posterior is ``alpha**(gamma-1) beta**(xi-1)
exp(-alpha A - beta B) prod_i (alpha li_i + beta f_i)`` with the recursive
stage-k rates ``A = a + Li(t_k)``, ``B = b + F(t_k)``.  With ``beta = rho
alpha``, alpha integrates out: for ``N = gamma + xi + k`` and ``u = log rho``,
``p(u)`` is proportional to ``exp(xi u) (A + rho B)**-N prod_i (1 + rho
q_i)`` with ``q_i = f_i / li_i``, and ``alpha | rho ~ Gamma(N, A + rho B)``.
Every output is a 12-point Gauss-Legendre sum over unit panels in u of a
closed form, each node costing one O(k) sum of ``log1p(rho q_i)``.  The
recursive stage-k posterior, which this module cross-validates, is this one
with the one factor ``li_k + rho f_k`` and shapes ``gamma + k - 1``, ``xi +
k - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import recursive_bayes as rb
from .errors import DomainError
from .recursive_bayes import Hyperparameters, Moments, RecursionState
from .specialfn import ErrorBoundModel, RH_SQRT, error_density, li

__all__ = ["ExactPosterior", "EquivalenceRow", "build", "equivalence_report"]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
#: Nodes and log weights of the rule on one unit panel in u.
_PANEL_U, _PANEL_LOG_W = 0.5 * (_GL_X + 1.0), np.log(0.5 * _GL_W)
#: Each tail the window drops holds at most ``exp(-_TAIL)`` of the mass.
_TAIL = 40.0
#: Widest window in u: ``rho q_i`` and ``rho B`` stay finite inside it.
_U_LIMIT = 600.0
#: Smallest posterior sd of u the rule resolves: on a Gaussian of sd 0.4 the
#: unit panels err by under 1e-15 (by 6e-12 at sd 0.25 and 4e-4 at 0.1).
_MIN_SD = 0.4
#: Entries of ``log1p(rho q_i)`` the pass holds at a time (128 KB).
_BLOCK = 2**14


class ExactPosterior(NamedTuple):
    """The exact posterior as normalized log weights ``log_w`` at nodes ``u``.

    ``state`` has the rates, stage count, model, prior and last prime, ``q``
    the primes' ``f_i / li_i``, and ``log_z`` the log integral over u of the
    unnormalized density the weights came from.
    """

    state: RecursionState
    q: np.ndarray
    u: np.ndarray
    log_w: np.ndarray
    log_z: float

    @property
    def shape(self) -> float:
        return self.state.hyper.gamma + self.state.hyper.xi + self.state.k

    def moments(self) -> Moments:
        """Means and variances; each variance is the mean of the conditional
        variances ``m**2 / N`` plus the variance of the conditional means m."""
        s, n, w = self.state, self.shape, np.exp(self.log_w)
        out = []
        for m, mean in zip(*_means(w, np.exp(self.u), n, s.sum_b1, s.sum_b2)):
            out += [float(mean), float(w @ (m * m / n + (m - mean) ** 2))]
        return Moments(*out)

    def log_predictive(self, t: float) -> float:
        """Log density of the next prime's position at ``t > t_last``: at each node,
        ``(li(t) + rho f(t)) N / R' * (R / R')**N`` with ``R = A + rho B`` and
        ``R' = a + Li(t) + rho (b + F(t))``, alpha being ``Gamma(N, R)`` there."""
        s, n, rho = self.state, self.shape, np.exp(self.u)
        li_t, f_t, gap_a, gap_b = rb._predictive_gaps(s, t)
        rate, gap = s.sum_b1 + rho * s.sum_b2, gap_a + rho * gap_b
        z = self.log_w + np.log(n * (li_t + rho * f_t) / (rate + gap)) - n * np.log1p(gap / rate)
        top = z.max()
        return float(top + math.log(np.exp(z - top).sum()))

    def pdf(self, alpha, beta):
        """Density at ``(alpha, beta) > 0``, broadcast: that of ``u =
        log(beta/alpha)`` over the Jacobian beta, times that of alpha given rho."""
        from scipy.special import gammaln

        s, n = self.state, self.shape
        a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
        rho = b / a
        rate = s.sum_b1 + rho * s.sum_b2
        log_u = (np.log1p(rho[..., None] * self.q).sum(axis=-1) + s.hyper.xi * np.log(rho)
                 - n * np.log1p(rho * (s.sum_b2 / s.sum_b1)) - self.log_z)
        log_a = n * np.log(rate) - gammaln(n) + (n - 1.0) * np.log(a) - rate * a
        return np.exp(log_u + log_a - np.log(b))


def _means(w, rho, n, ra, rb_):
    """Alpha's mean given rho, ``N / (A + rho B)``, beta's (rho times it), and
    the means of both over the weights ``w`` (last axis)."""
    m_a = n / (ra + rho * rb_)
    m_b = rho * m_a
    return (m_a, m_b), (np.einsum("...j,...j", w, m_a), np.einsum("...j,...j", w, m_b))


def _validated(primes: Sequence[float], model: ErrorBoundModel) -> tuple[np.ndarray, np.ndarray]:
    """The primes as floats, checked, and their ratios ``q_i = f_i / li_i``."""
    ts = np.asarray(primes, dtype=float)
    if ts.size < 1:
        raise DomainError("need at least one prime")
    # written so that NaN fails every comparison and is refused
    if not (ts.ndim == 1 and 2.0 <= ts[0] and ts[-1] < math.inf and np.all(np.diff(ts) > 0.0)):
        raise DomainError("primes must be finite, ascending and >= 2")
    f = error_density(model, ts)
    bad = np.flatnonzero(f <= 0.0)
    if bad.size:
        raise DomainError(
            f"error density not positive at prime {ts[bad[0]]:g}; drop leading primes")
    return ts, f / li(ts)


def _scan(q: np.ndarray, state: RecursionState):
    """Log node weights of a state's ascending stages, in one pass over the primes.

    The window in u is the README's: tails falling at rate xi left of ``c -
    log N`` and gamma right of ``c + log N``, ``c = log(A/B)``, cut where they
    hold ``exp(-_TAIL)`` of the mass; unit panels cover every stage's.  The
    sums of ``log1p(rho q_i)`` run over blocks of primes, read at each stage's
    k.  Yields ``(u, lw, n, ra, rb_)`` for the next stages in order: log
    weights (quadrature weights included) at the nodes ``u``, and their N, A, B.
    """
    hyper = state.hyper
    if hyper.gamma <= 0.0 or hyper.xi <= 0.0:
        raise DomainError(f"improper posterior: prior shapes {hyper.gamma}, {hyper.xi}")
    ra, rb_ = np.atleast_1d(*rb._checked_rates(state))
    ks = np.atleast_1d(state.k)
    n = hyper.gamma + hyper.xi + ks
    c, log_n = np.log(ra) - np.log(rb_), np.log(n)
    excess = _TAIL + 1.0 + 0.5 * (log_n - math.log(8.0 * math.pi))
    lo = float(np.min(c - log_n - np.maximum(excess - math.log(hyper.xi), 0.0) / hyper.xi))
    hi = float(np.max(c + log_n + np.maximum(excess - math.log(hyper.gamma), 0.0) / hyper.gamma))
    if not (-_U_LIMIT <= lo and hi <= _U_LIMIT):
        raise DomainError(f"the posterior mass of log(beta/alpha) spans [{lo:.4g}, {hi:.4g}], "
                          f"beyond the window [-{_U_LIMIT:g}, {_U_LIMIT:g}] the rule can hold")
    edges = np.arange(math.floor(lo), math.ceil(hi), dtype=float)
    u = (edges[:, None] + _PANEL_U).ravel()
    rho = np.exp(u)
    base = hyper.xi * u + np.tile(_PANEL_LOG_W, edges.size)
    total, first, step = np.zeros(u.size), 0, max(1, _BLOCK // u.size)
    for start in range(0, int(ks[-1]), step):
        terms = np.multiply.outer(q[start : start + step], rho)
        np.log1p(terms, out=terms)
        last = int(np.searchsorted(ks, start + len(terms), side="right"))
        if last == first:
            total += terms.sum(axis=0)
            continue
        terms[0] += total
        for i in range(1, len(terms)):  # faster than np.cumsum along axis 0
            terms[i] += terms[i - 1]
        total, at = terms[-1], slice(first, last)
        # log p(u) less the constant N log A, whose rounding at large k would
        # reach 1e-10 at every node
        log1p_x = np.log1p(np.multiply.outer(rb_[at] / ra[at], rho))
        log1p_x *= n[at, None]
        lw = terms[ks[at] - 1 - start]
        lw += base
        lw -= log1p_x
        yield u, lw, n[at, None], ra[at, None], rb_[at, None]
        first = last


def _weights(lw: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weights over the nodes ``u`` (last axis) and the log totals, refusing a
    posterior narrower in u than the rule resolves (by the rule's own sd)."""
    top = lw.max(axis=-1, keepdims=True)
    w = np.exp(lw - top)
    total = w.sum(axis=-1, keepdims=True)
    w /= total
    sd = np.sqrt(np.maximum(w @ (u * u) - (w @ u) ** 2, 0.0)).min()
    if sd < _MIN_SD:
        raise DomainError(f"the posterior of log(beta/alpha) has sd {sd:.3g}, narrower "
                          f"than the {_MIN_SD:g} that the exact rule's unit panels resolve")
    return w, (top + np.log(total))[..., 0]


def build(primes: Sequence[float], hyper: Hyperparameters,
          model: ErrorBoundModel = RH_SQRT) -> ExactPosterior:
    """Exact posterior given ascending primes ``t_1..t_k``."""
    ts, q = _validated(primes, model)
    state = rb.state_at(hyper, model, ts.size, ts[-1])
    [(u, lw, *_)] = _scan(q, state)
    _, log_z = _weights(lw[0], u)
    return ExactPosterior(state, q, u, lw[0] - log_z, float(log_z))


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


def equivalence_report(primes: Sequence[float], hyper: Hyperparameters, checkpoints: Sequence[int],
                       model: ErrorBoundModel = RH_SQRT) -> list[EquivalenceRow]:
    """Recursive vs exact posterior means at the requested stage counts.

    The routes share every prime and the stage rates, so the rows show how
    fast the recursion's extra shape inflation washes out.  The recursive
    side is one array evaluation for all checkpoints, and the exact side
    reads every checkpoint off one pass.  Checkpoints below 1 give no row.
    """
    cps = sorted(int(c) for c in checkpoints)
    if cps and cps[-1] > len(primes):
        raise DomainError("not enough primes for the requested checkpoints")
    if not cps or cps[-1] < 1:
        return []
    ts, q = _validated(primes[: cps[-1]], model)
    ks = np.unique(cps)
    ks = ks[ks >= 1]
    state = rb.state_at(hyper, model, ks, ts[ks - 1])
    rec = rb.posterior(state).moments()
    exact = [_means(_weights(lw, u)[0], np.exp(u), n, ra, rb_)[1]
             for u, lw, n, ra, rb_ in _scan(q, state)]
    ea, eb = (np.concatenate(m) for m in zip(*exact))
    columns = (ks, state.t_last, rec.mean_alpha, ea, rec.mean_beta, eb)
    return [EquivalenceRow(*row) for row in zip(*(c.tolist() for c in columns))]
