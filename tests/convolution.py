"""The exact posterior by log-space polynomial convolution (test oracle).

Conditioning on k primes at once makes the likelihood a product of k
binomials ``alpha*li_i + beta*f_i``, whose expansion has 2**k terms.
Expanding the product one stage at a time instead yields its k+1
coefficients with O(k^2) work; the posterior is then a (k+1)-component
mixture of gamma products, mathematically identical to the 2**k sum.

This is an independent route to what :mod:`prime_oracle.nonrecursive_bayes`
computes as a one-dimensional integral, so the tests check that engine
against it.  At k = 1 the mixture is built with the arithmetic of
:func:`prime_oracle.recursive_bayes.posterior`, so there the two coincide
exactly.
"""

import math

import numpy as np
from scipy.special import gammaln

from prime_oracle import recursive_bayes as rb
from prime_oracle.errors import DomainError
from prime_oracle.specialfn import error_density, li


def log_coefficient_stages(primes, model):
    """Log elementary coefficients of prod_{i<=j} (li_i alpha + f_i beta), stage by stage.

    The j-th array yielded (j = 1..k) has j+1 entries; entry r is the
    coefficient of ``alpha**r * beta**(j-r)``.
    """
    ts = np.asarray(primes, dtype=float)
    log_e = np.zeros(1)
    for t, c1, c2 in zip(ts.tolist(), li(ts).tolist(), error_density(model, ts).tolist()):
        if c2 <= 0.0:
            raise DomainError(f"error density not positive at prime {t:g}")
        log_c1, log_c2 = math.log(c1), math.log(c2)
        new = np.empty(log_e.size + 1)
        new[0] = log_e[0] + log_c2  # the beta term at every stage so far
        new[-1] = log_e[-1] + log_c1  # the alpha term at every stage so far
        new[1:-1] = np.logaddexp(log_e[:-1] + log_c1, log_e[1:] + log_c2)
        log_e = new
        yield log_e


def log_coefficients(primes, model):
    """The k+1 log coefficients of the whole likelihood product."""
    for log_e in log_coefficient_stages(primes, model):
        pass
    return log_e


def mixture(state, log_c, a0, b0):
    """The posterior whose component r is ``Gamma(a0 + r, A) x Gamma(b0 + m - r, B)``.

    Component r carries weight ``exp(log_c[r]) Gamma(a0+r) / A**(a0+r) *
    Gamma(b0+m-r) / B**(b0+m-r)``, normalized by the largest log weight.
    """
    ra, rb_ = state.sum_b1, state.sum_b2
    log_c = np.asarray(log_c, dtype=float)
    r = np.arange(log_c.size, dtype=float)
    shape_a, shape_b = a0 + r, b0 + (log_c.size - 1) - r
    lw = (
        log_c
        + gammaln(shape_a)
        - shape_a * math.log(ra)
        + gammaln(shape_b)
        - shape_b * math.log(rb_)
    )
    lw = lw - lw.max()
    w = np.exp(lw)
    total = w.sum()
    return rb.GammaProductMixture(state, w / total, lw - math.log(total), shape_a, shape_b)


def build(primes, hyper, model):
    """The exact posterior given ascending primes, at the recursive stage-k rates."""
    log_c = log_coefficients(primes, model)
    state = rb.state_at(hyper, model, log_c.size - 1, float(primes[-1]))
    return mixture(state, log_c, state.hyper.gamma, state.hyper.xi)
