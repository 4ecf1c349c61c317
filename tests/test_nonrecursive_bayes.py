import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from gauss_legendre import box_integrals
from prime_oracle.errors import DomainError, ResourceError
from prime_oracle import nonrecursive_bayes as nb
from prime_oracle import recursive_bayes as rb
from prime_oracle.recursive_bayes import Hyperparameters
from prime_oracle.specialfn import (
    MT,
    RH_SQRT,
    X_OVER_LOG,
    Li,
    error_density,
    error_integral,
    li,
)

FLAT = Hyperparameters()
PROPER = Hyperparameters(1.0, 1.0, 1.0, 1.0)


def subset_coefficients(primes, model):
    """Exhaustive 2**k expansion of the likelihood product (test oracle)."""
    c1 = [li(float(t)) for t in primes]
    c2 = [error_density(model, float(t)) for t in primes]
    k = len(primes)
    coeffs = np.zeros(k + 1)
    for picks in itertools.product((0, 1), repeat=k):
        prod = 1.0
        for i, pick in enumerate(picks):
            prod *= c1[i] if pick else c2[i]
        coeffs[sum(picks)] += prod
    return coeffs


class TestBuild:
    def test_two_term_structure_at_k1(self):
        post = nb.build([2], PROPER, RH_SQRT)
        p = np.exp(post.log_p)
        c1, c2 = li(2.0), error_density(RH_SQRT, 2.0)
        a_rate, b_rate = post.sum_b1, post.sum_b2
        w1 = c1 * math.gamma(2.0) / a_rate**2 * math.gamma(1.0) / b_rate
        w0 = c2 * math.gamma(1.0) / a_rate * math.gamma(2.0) / b_rate**2
        assert p[1] == pytest.approx(w1 / (w0 + w1), rel=1e-12)
        assert p[0] == pytest.approx(w0 / (w0 + w1), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_convolution_equals_enumeration(self, k, primes_small):
        primes = [int(p) for p in primes_small.primes[:k]]
        post = nb.build(primes, FLAT if k > 1 else PROPER, RH_SQRT)
        expected = subset_coefficients(primes, RH_SQRT)
        np.testing.assert_allclose(np.exp(post.log_e), expected, rtol=1e-10)

    def test_every_stage_equals_enumeration(self, primes_small):
        primes = [float(p) for p in primes_small.primes[:12]]
        stages = list(nb._log_coefficient_stages(primes, RH_SQRT))
        assert len(stages) == len(primes)
        for j, log_e in enumerate(stages, start=1):
            expected = subset_coefficients(primes[:j], RH_SQRT)
            np.testing.assert_allclose(np.exp(log_e), expected, rtol=1e-10)

    def test_weights_normalized(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:10]]
        post = nb.build(primes, FLAT, RH_SQRT)
        assert np.exp(post.log_p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_cap(self, primes_2e6):
        primes = [int(p) for p in primes_2e6.primes[:4097]]
        with pytest.raises(ResourceError):
            nb.build(primes, FLAT, RH_SQRT)

    def test_accurate_past_cap(self, primes_small):
        # The log-space convolution stays accurate well past K_CAP: compare
        # the alpha mean at k=1024 with the same coefficients convolved and
        # mixed in 40-digit arithmetic (measured relative error 1.1e-13).
        mp = pytest.importorskip("mpmath")
        primes = [int(p) for p in primes_small.primes[:1024]]
        k = len(primes)
        post = nb.build(primes, FLAT, RH_SQRT)
        with mp.workdps(40):
            e = [mp.mpf(1)] + [mp.mpf(0)] * k
            for i, t in enumerate(primes):
                c1 = mp.mpf(li(float(t)))
                c2 = mp.mpf(error_density(RH_SQRT, float(t)))
                for r in range(i + 1, 0, -1):
                    e[r] = e[r] * c2 + e[r - 1] * c1
                e[0] *= c2
            A, B = mp.mpf(post.sum_b1), mp.mpf(post.sum_b2)
            w = [
                e[r] * mp.gamma(1 + r) / A ** (1 + r) * mp.gamma(1 + k - r) / B ** (1 + k - r)
                for r in range(k + 1)
            ]
            expected = mp.fsum(wr * (1 + r) for r, wr in enumerate(w)) / mp.fsum(w) / A
        assert nb.mean_alpha(post) == pytest.approx(float(expected), rel=1e-12)

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            nb.build([5, 3], FLAT, RH_SQRT)

    def test_rejects_zero_shape(self):
        with pytest.raises(DomainError):
            nb.build([2, 3], Hyperparameters(0, 0, 0.0, 1.0), RH_SQRT)

    def test_rejects_negative_rate(self):
        # anchored MT error integral is negative at t=3, so a single prime
        # at 3 gives an improper beta marginal
        with pytest.raises(DomainError):
            nb.build([3], FLAT, MT)


@pytest.fixture(scope="module")
def post_k10(primes_small):
    primes = [int(p) for p in primes_small.primes[:10]]
    return nb.build(primes, FLAT, RH_SQRT)


class TestMoments:
    def test_match_quadrature(self, post_k10, primes_small):
        primes = [float(p) for p in primes_small.primes[:10]]
        c1 = [li(t) for t in primes]
        c2 = [error_density(RH_SQRT, t) for t in primes]
        A, B = post_k10.sum_b1, post_k10.sum_b2

        def unnorm(a, b):
            prod = 1.0
            for x, y in zip(c1, c2):
                prod *= a * x + b * y
            return math.exp(-a * A - b * B) * prod

        def integral(weight):
            def inner(b):
                v, _ = quad(
                    lambda a: weight(a, b) * unnorm(a, b),
                    0, 70, epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                return v

            v, _ = quad(inner, 0, 70, epsabs=1e-14, epsrel=1e-13, limit=200)
            return v

        z = integral(lambda a, b: 1.0)
        ma = integral(lambda a, b: a) / z
        mb = integral(lambda a, b: b) / z
        maa = integral(lambda a, b: a * a) / z
        assert nb.mean_alpha(post_k10) == pytest.approx(ma, rel=1e-6)
        assert nb.mean_beta(post_k10) == pytest.approx(mb, rel=1e-6)
        assert nb.var_alpha(post_k10) == pytest.approx(maa - ma**2, rel=1e-6)

    def test_both_parameterizations_agree(self, post_k10):
        r = np.arange(post_k10.k + 1, dtype=float)
        # beta moments computed from the alpha-led weights must match the
        # beta-led computation exactly: same density, re-expanded
        w_p = np.exp(post_k10.log_p)
        beta_from_p = float(np.sum(w_p * (post_k10.hyper.xi + post_k10.k - r)) / post_k10.sum_b2)
        assert nb.mean_beta(post_k10) == pytest.approx(beta_from_p, rel=1e-12)

    def test_k1_equals_recursive(self):
        state = rb.init(PROPER, RH_SQRT, 2)
        post = nb.build([2], PROPER, RH_SQRT)
        assert nb.mean_alpha(post) == rb.posterior_mean_alpha(state)
        assert nb.mean_beta(post) == rb.posterior_mean_beta(state)
        assert nb.var_alpha(post) == rb.posterior_var_alpha(state)
        assert nb.var_beta(post) == rb.posterior_var_beta(state)


class TestPredictive:
    def test_matches_quadrature(self, primes_small):
        primes = [float(p) for p in primes_small.primes[:10]]
        post = nb.build(primes, FLAT, RH_SQRT)
        from prime_oracle.specialfn import Li, error_integral

        c1 = [li(t) for t in primes]
        c2 = [error_density(RH_SQRT, t) for t in primes]
        A, B = post.sum_b1, post.sum_b2
        tk = primes[-1]
        ts = (31.0, 45.0, 80.0)

        def unnorm(a, b):
            prod = 1.0
            for x, y in zip(c1, c2):
                prod *= a * x + b * y
            return np.exp(-a * A - b * B) * prod

        def waiting(a, b, t):
            lam = a * li(t) + b * error_density(RH_SQRT, t)
            delta = a * (Li(t) - Li(tk)) + b * (
                error_integral(RH_SQRT, t) - error_integral(RH_SQRT, tk)
            )
            return np.exp(-delta) * lam

        def integrands(a, b):
            u = unnorm(a, b)
            return np.stack([u] + [waiting(a, b, t) * u for t in ts])

        z, *preds = box_integrals(integrands, 60.0)
        for t, target in zip(ts, np.array(preds) / z):
            assert math.exp(nb.log_predictive(post, t)) == pytest.approx(target, rel=1e-10)

    def test_k1_equals_recursive(self):
        state = rb.init(PROPER, RH_SQRT, 2)
        post = nb.build([2], PROPER, RH_SQRT)
        for t in (3.0, 10.0, 100.0):
            assert nb.log_predictive(post, t) == pytest.approx(
                rb.log_posterior_predictive(state, t), abs=1e-12
            )

    def test_model_ratio_positive_at_k50(self, primes_small):
        primes = [int(p) for p in primes_small.primes[1:51]]
        t_next = int(primes_small.primes[51])
        post_mt = nb.build(primes, FLAT, MT)
        post_xl = nb.build(primes, FLAT, X_OVER_LOG)
        ratio = nb.log_predictive(post_mt, t_next) - nb.log_predictive(post_xl, t_next)
        assert ratio > 0

    def test_rejects_points_behind(self, primes_small):
        post = nb.build([2, 3, 5], FLAT, RH_SQRT)
        with pytest.raises(DomainError):
            nb.log_predictive(post, 5.0)


class TestEquivalenceReport:
    def test_rows_and_band(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:64]]
        rows = nb.equivalence_report(primes, FLAT, [5, 50])
        assert [r.k for r in rows] == [5, 50]
        k50 = rows[1]
        assert 0.5 <= k50.rec_mean_alpha <= 1.5
        assert 0.5 <= k50.nonrec_mean_alpha <= 1.5
        assert k50.t_last == 229

    def test_empty_checkpoints(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:10]]
        assert nb.equivalence_report(primes, FLAT, []) == []

    def test_checkpoint_pastcap(self, primes_2e6):
        primes = [int(p) for p in primes_2e6.primes[:4097]]
        with pytest.raises(ResourceError):
            nb.equivalence_report(primes, FLAT, [4097])

    def test_incremental_pass_matches_fixed_width_convolution(self, primes_small):
        # reference: every coefficient array held at full width k+1 and
        # padded with -inf, so no stage treats its end terms specially
        primes = [int(p) for p in primes_small.primes[:64]]
        k_max = len(primes)
        log_e = np.full(k_max + 1, -np.inf)
        log_e[0] = 0.0
        expected = {}
        for k, t in enumerate(primes, start=1):
            log_c1 = math.log(li(float(t)))
            log_c2 = math.log(error_density(RH_SQRT, float(t)))
            new = log_e + log_c2
            new[1:] = np.logaddexp(log_e[:-1] + log_c1, new[1:])
            log_e = new
            if k == 1:
                continue  # the flat prior is improper at k=1 (Li(2) = 0)
            a, b = Li(float(t)), error_integral(RH_SQRT, float(t))
            r = np.arange(k + 1, dtype=float)
            log_p = (
                log_e[: k + 1]
                + gammaln(1.0 + r) - (1.0 + r) * math.log(a)
                + gammaln(1.0 + k - r) - (1.0 + k - r) * math.log(b)
            )
            p = np.exp(log_p - logsumexp(log_p))
            expected[k] = (np.sum(p * (1.0 + r)) / a, np.sum(p[::-1] * (1.0 + r)) / b)
        rows = nb.equivalence_report(primes, FLAT, range(2, k_max + 1))
        assert [r.k for r in rows] == list(range(2, k_max + 1))
        for row in rows:
            assert row.t_last == primes[row.k - 1]
            mean_a, mean_b = expected[row.k]
            assert row.nonrec_mean_alpha == pytest.approx(mean_a, rel=1e-12)
            assert row.nonrec_mean_beta == pytest.approx(mean_b, rel=1e-12)

    def test_cap_keyword(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:128]]
        [row] = nb.equivalence_report(primes, FLAT, [128])
        post = nb.build(primes, FLAT, RH_SQRT)
        assert row.nonrec_mean_alpha == pytest.approx(nb.mean_alpha(post), rel=1e-12)
        assert row.nonrec_mean_beta == pytest.approx(nb.mean_beta(post), rel=1e-12)

    @pytest.mark.parametrize(
        "primes, hyper, checkpoints, model",
        [
            ([2, 5, 3, 7], FLAT, [4], RH_SQRT),
            ([1, 3, 5, 7], FLAT, [4], RH_SQRT),
            ([2, 3, 5, 7], Hyperparameters(0.0, 0.0, 0.0, 1.0), [4], RH_SQRT),
            ([2, 3, 5, 7], Hyperparameters(-1.0, 0.0, 1.0, 1.0), [4], RH_SQRT),
            ([2, 3, 5], FLAT, [4], RH_SQRT),
            ([3, 5], FLAT, [1], MT),  # the anchored MT integral is negative at 3
            ([2, 3], PROPER, [2], MT),  # the MT density is negative at 2
        ],
    )
    def test_rejects_what_build_rejects(self, primes, hyper, checkpoints, model):
        with pytest.raises(DomainError):
            nb.equivalence_report(primes, hyper, checkpoints, model)
