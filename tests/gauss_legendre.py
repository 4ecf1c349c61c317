"""Tensor Gauss-Legendre oracle for integrals over (alpha, beta) boxes.

The posteriors under test are smooth on the log scale, so the box
``[lo, hi]**2`` is mapped to ``(log alpha, log beta)`` and a fixed n-point
Gauss-Legendre rule is applied on each axis.  Every call evaluates the rule
at n and at 2n nodes and fails unless the two agree (the node-doubling
self-check), so a rule too coarse for its integrand cannot pass silently.
"""

import numpy as np


def box_integrals(integrands, hi, lo=1e-15, n=200, rtol=1e-12):
    """Integrals of ``integrands(alpha, beta)`` over ``[lo, hi]**2``.

    The box stands in for ``[0, hi]**2``.  Where the density stays positive
    on an axis (a flat prior with every likelihood factor on one term), the
    cut below ``lo`` drops about ``lo`` of the mass, so ``lo`` sits at 1e-15.

    ``integrands`` gets ``alpha`` as a column and ``beta`` as a row of nodes
    and returns an array whose last two axes run over them; any leading axis
    stacks separate integrands.  Returns the 2n-node values after checking
    that the n-node values agree with them to ``rtol``.
    """
    mid, half = 0.5 * (np.log(hi) + np.log(lo)), 0.5 * (np.log(hi) - np.log(lo))

    def rule(m):
        x, w = np.polynomial.legendre.leggauss(m)
        a = np.exp(mid + half * x)
        wa = half * w * a  # d alpha = alpha d(log alpha)
        return np.asarray(integrands(a[:, None], a[None, :])) @ wa @ wa

    coarse, fine = rule(n), rule(2 * n)
    assert np.allclose(coarse, fine, rtol=rtol, atol=0.0), (coarse, fine)
    return fine
