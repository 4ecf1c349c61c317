"""Analytic building blocks: the log-integral pair and the error-bound families.

The intensity measure used throughout the package is ``alpha * Li + beta * F``
where ``Li(x) = int_2^x dt/log(t)`` and ``F`` is one of four error-bound
integrals selected by :class:`ErrorBoundModel`:

* ``RH_SQRT``   -- ``sqrt(x) * log(x)``, the square-root-barrier bound.
* ``RH_EPS``    -- ``x**(1/2 + eps)`` for a fixed ``0 < eps < 1/2``.
* ``X_OVER_LOG``-- ``x / log(x)``, the leading prime-counting term itself.
* ``MT``        -- ``x * (log x)**(-3/4) * exp(-sqrt(log(x) / 6.315))``, the
  sharpest explicit unconditional bound on ``|pi(x) - Li(x)|`` (up to its
  multiplicative constant, which is deliberately omitted).

Each model is defined once, in :func:`error_forms`, as ``log F_raw`` and the
elasticity ``x f / F_raw`` written in ``log x`` and ``log log x``.  The array
and scalar functions here (``F``, ``f`` and the positive-density floor) and
the hunt targets of :mod:`.tmcmc` are all derived from that form; ``f``
itself, with its sign, is :func:`signed_density`.

Every ``F`` handed to callers by :func:`error_integral` is anchored at 2
(``F(2) == 0``) so that stage sums over consecutive primes telescope exactly.
``Li`` is anchored the same way, at scipy's own ``expi(log 2)``.  Short
increments of both, for the NHPP's Newton inversion and the predictives, are
integrated by :func:`increments`, not differenced.

:func:`Li` is the one function here that needs scipy.  It imports
``scipy.special.expi`` on first use, so importing the package (and the CLI)
loads numpy and the standard library only, and the commands that never
evaluate ``Li`` start without scipy.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "Variant",
    "ErrorBoundModel",
    "IntensityParams",
    "RH_SQRT",
    "X_OVER_LOG",
    "MT",
    "rh_eps",
    "li",
    "Li",
    "error_forms",
    "error_integral",
    "error_integral_raw",
    "error_density",
    "positive_density_floor",
    "MT_DECAY_CONSTANT",
    "PANEL_WIDTH",
    "signed_density",
    "increments",
]

#: Denominator inside the MT exponential decay term.
MT_DECAY_CONSTANT = 6.315

#: 3-point Gauss-Legendre nodes on [-1, 1] and their weights, the rule of
#: :func:`increments`.
_GAUSS_LEGENDRE_3 = (
    (0.0, 8.0 / 9.0),
    (math.sqrt(0.6), 5.0 / 9.0),
    (-math.sqrt(0.6), 5.0 / 9.0),
)

#: Widest panel in log t: the 3-point rule errs by about ``5e-7 * h**6`` of a
#: panel's increment (4e-19), and on the NHPP panel at t = 2 by 1.5e-15 at
#: beta <= 0.01 (2.4e-14 for x-over-log at beta = 1).
PANEL_WIDTH = 0.01

_LOG2 = math.log(2.0)
_E = math.e


class Variant(enum.Enum):
    """The four supported error-bound shapes."""

    RH_SQRT = "rh-sqrt"
    RH_EPS = "rh-eps"
    X_OVER_LOG = "x-over-log"
    MT = "mt"


@dataclass(frozen=True)
class ErrorBoundModel:
    """Choice of error integral ``F`` (and its density ``f = dF/dx``).

    ``epsilon`` is meaningful only for the ``RH_EPS`` variant, where it must
    satisfy ``0 < epsilon < 1/2``.
    """

    variant: Variant
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.variant is Variant.RH_EPS:
            if self.epsilon is None or not (0.0 < self.epsilon < 0.5):
                raise DomainError(
                    f"RH_EPS requires 0 < epsilon < 1/2, got {self.epsilon!r}"
                )
        elif self.epsilon is not None:
            raise DomainError(f"epsilon is only meaningful for RH_EPS, got {self.variant}")

    @property
    def label(self) -> str:
        """Stable text form, e.g. ``rh-sqrt`` or ``rh-eps:0.1``."""
        if self.variant is Variant.RH_EPS:
            return f"rh-eps:{self.epsilon:g}"
        return self.variant.value

    @classmethod
    def parse(cls, text: str) -> "ErrorBoundModel":
        """Inverse of :attr:`label`; accepts ``rh-eps:<eps>`` syntax."""
        text = text.strip().lower()
        if text.startswith("rh-eps"):
            _, _, tail = text.partition(":")
            if not tail:
                raise DomainError("rh-eps needs an epsilon, e.g. rh-eps:0.1")
            try:
                epsilon = float(tail)
            except ValueError:
                raise DomainError(f"rh-eps epsilon must be a number, got {tail!r}") from None
            return cls(Variant.RH_EPS, epsilon)
        for variant in Variant:
            if variant is not Variant.RH_EPS and text == variant.value:
                return cls(variant)
        raise DomainError(f"unknown error-bound model {text!r}")


RH_SQRT = ErrorBoundModel(Variant.RH_SQRT)
X_OVER_LOG = ErrorBoundModel(Variant.X_OVER_LOG)
MT = ErrorBoundModel(Variant.MT)


def rh_eps(epsilon: float) -> ErrorBoundModel:
    """The ``x**(1/2 + epsilon)`` error-bound model."""
    return ErrorBoundModel(Variant.RH_EPS, epsilon)


@dataclass(frozen=True)
class IntensityParams:
    """Coefficients of the two intensity components.

    ``alpha`` must be strictly positive.  ``beta`` may be zero (the pure
    log-integral process); a negative value is rejected.  Both must be
    finite.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (0.0 <= self.beta < math.inf):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")


def _check_min(x, lo: float, *, strict: bool, what: str):
    """``x`` as a float array, refused unless every entry is finite and above
    ``lo`` (or at it, unless ``strict``); NaN fails every comparison."""
    arr = np.asarray(x, dtype=float)
    ok = (arr > lo) if strict else (arr >= lo)
    ok &= arr < math.inf
    if not ok.all():
        op = ">" if strict else ">="
        raise DomainError(f"{what} requires x {op} {lo:g} and finite")
    return arr


def _ret(arr: np.ndarray, value):
    """Return a float for a 0-d ``arr``, the ndarray ``value`` otherwise."""
    if arr.ndim == 0:
        return float(value)
    return value


def _log_1d(arr: np.ndarray) -> np.ndarray:
    """``log(arr)`` with at least one dimension, for the error forms.

    On a numpy scalar ``** 0.5`` calls ``pow``, on an array ``sqrt``: the MT
    form rounds an ulp apart in the two, which ``exp(log F_raw)`` widens to
    some twenty.  A scalar taken as a one-entry array rounds as the same
    entry of a batch does.
    """
    return np.log(arr.reshape(arr.shape or (1,)))


def li(x):
    """Reciprocal-log density ``1 / log(x)`` for ``x > 1``."""
    arr = _check_min(x, 1.0, strict=True, what="li")
    return _ret(arr, 1.0 / np.log(arr))


def Li(x):
    """Offset logarithmic integral ``int_2^x dt / log(t)`` for ``x >= 2``.

    Evaluated through the exponential integral, ``Ei(log x) - Ei(log 2)``,
    which agrees with adaptive quadrature to well below 1e-10 relative.
    scipy's ``expi`` is imported on first use, and the anchor is its own
    ``expi(log 2)``, computed in the call: it is two ulps below the correctly
    rounded value, and only the same rounding on both sides keeps
    ``Li(2) == 0`` exactly.
    """
    from scipy.special import expi

    arr = _check_min(x, 2.0, strict=False, what="Li")
    return _ret(arr, expi(np.log(arr)) - expi(_LOG2))


def error_forms(model: ErrorBoundModel) -> tuple[Callable, Callable]:
    """The one definition of each error bound: ``(log_raw, elasticity)``.

    Written in ``lg = log x`` and ``llg = log lg``, ``log_raw(lg, llg)`` is
    ``log F_raw(x)`` and ``elasticity(lg)`` is ``x f(x) / F_raw(x)``, so that
    ``f = F_raw * elasticity / x``.  Both are plain arithmetic and take floats
    and numpy arrays alike; every function below and every hunt target in
    :mod:`.tmcmc` derives from them.  Each elasticity increases with ``x``.
    """
    v = model.variant
    if v is Variant.RH_SQRT:
        return (lambda lg, llg: 0.5 * lg + llg), (lambda lg: 0.5 + 1.0 / lg)
    if v is Variant.RH_EPS:
        power = 0.5 + model.epsilon
        return (lambda lg, llg: power * lg), (lambda lg: power)
    if v is Variant.X_OVER_LOG:
        return (lambda lg, llg: lg - llg), (lambda lg: 1.0 - 1.0 / lg)
    decay = MT_DECAY_CONSTANT
    return (
        (lambda lg, llg: lg - 0.75 * llg - (lg / decay) ** 0.5),
        (lambda lg: 1.0 - 0.75 / lg - 0.5 / (decay * lg) ** 0.5),
    )


def error_integral_raw(model: ErrorBoundModel, x):
    """The un-anchored closed form of ``F`` (no subtraction at 2).

    Valid for ``x > 1``; prefer :func:`error_integral` in anything that sums
    stage contributions, which is anchored so ``F(2) == 0``.
    """
    arr = _check_min(x, 1.0, strict=True, what="error_integral_raw")
    lg = _log_1d(arr)
    return _ret(arr, np.exp(error_forms(model)[0](lg, np.log(lg))).reshape(arr.shape))


@functools.lru_cache(maxsize=64)
def _anchor(model: ErrorBoundModel) -> float:
    """``F_raw(2)``, computed once per (frozen, hashable) model."""
    return error_integral_raw(model, 2.0)


def error_integral(model: ErrorBoundModel, x):
    """``F(x) - F(2)`` for ``x >= 2`` (anchored so stage sums telescope)."""
    arr = _check_min(x, 2.0, strict=False, what="error_integral")
    return _ret(arr, error_integral_raw(model, arr) - _anchor(model))


def signed_density(model: ErrorBoundModel, lg):
    """The signed ``f = dF/dx`` at ``x = e**lg``, with no domain check."""
    log_raw, elasticity = error_forms(model)
    # (F_raw / x) * elasticity: taking the exp of log F_raw - log x keeps f(2)
    # correctly rounded for RH_SQRT, where exp(log F_raw) * e / x is 1.2 ulp off
    return np.exp(log_raw(lg, np.log(lg)) - lg) * elasticity(lg)


def increments(model: ErrorBoundModel, t0, t):
    """``(Li(t) - Li(t0), F(t) - F(t0))`` over one panel, with no domain check.

    3-point Gauss-Legendre in ``s = log x``, exact for quintics in ``s``, on
    ``e**s / s`` and ``e**s f(e**s)`` with the signed ``f`` of
    :func:`signed_density`.  ``2 <= t0 <= t`` broadcast and lie at most
    :data:`PANEL_WIDTH` apart in ``s``; callers split wider intervals.  The
    increments are integrated, not differenced: near 1e6 two rounded values
    of ``Li`` lose 1e-10 of a gap between neighbouring primes.  Against
    40-digit mpmath the four models' increments over 150 prime gaps from 1e4
    to 1e6 err by at most 4.4e-16 relative for ``Li`` and 1.3e-15 for ``F``,
    and sums over the panels of ``(3, 1e6)``, ``(3, 1e12)`` and
    ``(100, e**80)`` by 2.3e-15.
    """
    # log1p((t - t0) / t0) rounds at an ulp of t, where log t - log t0 would
    # round at an ulp of log t.  The nodes are added one at a time, so the
    # rule holds one node's arrays at once.
    half = np.log1p((t - t0) / t0)
    half *= 0.5
    lg0 = np.log(t0)
    d_li = d_f = 0.0
    for node, weight in _GAUSS_LEGENDRE_3:
        s = (1.0 + node) * half
        x = np.exp(s)
        x *= weight * t0
        s += lg0
        d_f += x * signed_density(model, s)
        x /= s
        d_li += x
    d_li *= half
    d_f *= half
    return d_li, d_f


def error_density(model: ErrorBoundModel, x):
    """Exact derivative ``f = dF/dx`` for ``x >= 2``.

    The ``X_OVER_LOG`` density ``(log x - 1) / (log x)**2`` is negative below
    ``e``; evaluating it there raises instead of silently returning a
    negative hazard.  The MT density is likewise negative just above 2 and is
    returned exactly; see :func:`positive_density_floor` for the first prime
    at which each density is safe to use as a mixture coefficient.
    """
    arr = _check_min(x, 2.0, strict=False, what="error_density")
    if model.variant is Variant.X_OVER_LOG and (arr <= _E).any():
        raise DomainError("X_OVER_LOG density is not positive below e")
    return _ret(arr, signed_density(model, _log_1d(arr)).reshape(arr.shape))


def positive_density_floor(model: ErrorBoundModel) -> int:
    """Smallest prime at which ``error_density`` is strictly positive.

    2 where the elasticity is positive at 2 (the power-law variants), else 3
    (``X_OVER_LOG`` is negative below ``e``, ``MT`` below roughly 2.57).  The
    elasticity increases with ``x`` and is positive at 3 for every model.
    """
    return 2 if error_forms(model)[1](_LOG2) > 0.0 else 3
