import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import convolution
from gauss_legendre import box_integrals
from prime_oracle.errors import DomainError
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
    rh_eps,
)

FLAT = Hyperparameters()
PROPER = Hyperparameters(1.0, 1.0, 1.0, 1.0)
#: The four models, each with the index of its first prime: the x-over-log
#: and MT densities are not positive at 2.
MODELS = [(RH_SQRT, 0), (rh_eps(0.1), 0), (MT, 1), (X_OVER_LOG, 1)]


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


def flat_joint(primes, post):
    """Flat prior times the likelihood of ``primes``, unnormalized (test oracle)."""
    c1 = [li(t) for t in primes]
    c2 = [error_density(RH_SQRT, t) for t in primes]
    A, B = post.state.sum_b1, post.state.sum_b2

    def unnorm(a, b):
        prod = 1.0
        for x, y in zip(c1, c2):
            prod *= a * x + b * y
        return np.exp(-a * A - b * B) * prod

    return unnorm


class TestBuild:
    def test_two_term_structure_at_k1(self):
        post = convolution.build([2], PROPER, RH_SQRT)
        p = np.exp(post.log_w)
        c1, c2 = li(2.0), error_density(RH_SQRT, 2.0)
        a_rate, b_rate = post.state.sum_b1, post.state.sum_b2
        w1 = c1 * math.gamma(2.0) / a_rate**2 * math.gamma(1.0) / b_rate
        w0 = c2 * math.gamma(1.0) / a_rate * math.gamma(2.0) / b_rate**2
        assert p[1] == pytest.approx(w1 / (w0 + w1), rel=1e-12)
        assert p[0] == pytest.approx(w0 / (w0 + w1), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_convolution_equals_enumeration(self, k, primes_small):
        primes = [int(p) for p in primes_small.primes[:k]]
        log_c = convolution.log_coefficients(primes, RH_SQRT)
        expected = subset_coefficients(primes, RH_SQRT)
        np.testing.assert_allclose(np.exp(log_c), expected, rtol=1e-10)

    def test_every_stage_equals_enumeration(self, primes_small):
        primes = [float(p) for p in primes_small.primes[:12]]
        stages = list(convolution.log_coefficient_stages(primes, RH_SQRT))
        assert len(stages) == len(primes)
        for j, log_e in enumerate(stages, start=1):
            expected = subset_coefficients(primes[:j], RH_SQRT)
            np.testing.assert_allclose(np.exp(log_e), expected, rtol=1e-10)

    def test_weights_normalized(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:10]]
        post = nb.build(primes, FLAT, RH_SQRT)
        assert np.exp(post.log_w).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [64, 1024, 4096])
    @pytest.mark.parametrize("model, first", MODELS, ids=[m.label for m, _ in MODELS])
    def test_matches_convolution(self, model, first, k, primes_2e6):
        # the convolution oracle itself errs by up to 2.2e-13 at k = 1024
        primes = primes_2e6.primes[first : first + k]
        got = nb.build(primes, FLAT, model).moments()
        want = convolution.build(primes, FLAT, model).moments()
        assert got.mean_alpha == pytest.approx(want.mean_alpha, rel=1e-12)
        assert got.mean_beta == pytest.approx(want.mean_beta, rel=1e-12)
        assert got.var_alpha == pytest.approx(want.var_alpha, rel=1e-11)
        assert got.var_beta == pytest.approx(want.var_beta, rel=1e-11)

    def test_accurate_past_cap(self, primes_small):
        # compare the alpha mean at k=1024 with the convolution's
        # coefficients convolved and mixed in 40-digit arithmetic
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
            A, B = mp.mpf(post.state.sum_b1), mp.mpf(post.state.sum_b2)
            w = [
                e[r] * mp.gamma(1 + r) / A ** (1 + r) * mp.gamma(1 + k - r) / B ** (1 + k - r)
                for r in range(k + 1)
            ]
            expected = mp.fsum(wr * (1 + r) for r, wr in enumerate(w)) / mp.fsum(w) / A
        assert post.moments().mean_alpha == pytest.approx(float(expected), rel=1e-12)

    def test_far_prior_accepted(self, primes_small):
        # b = 1e8 puts the mass near log(beta/alpha) = -19, far from 0
        primes = primes_small.primes[:64]
        hyper = Hyperparameters(0.0, 1e8, 1.0, 1.0)
        post = nb.build(primes, hyper, RH_SQRT)
        assert np.exp(post.log_w) @ post.u < -15
        got, want = post.moments(), convolution.build(primes, hyper, RH_SQRT).moments()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_window_refused(self, primes_small):
        # xi = 1e-3 spreads the left tail over 4.8e4 in log(beta/alpha)
        with pytest.raises(DomainError, match=r"beyond the window \[-600, 600\]"):
            nb.build(primes_small.primes[:64], Hyperparameters(0.0, 0.0, 1.0, 1e-3), RH_SQRT)

    def test_narrow_posterior_refused(self, primes_small):
        # prior shapes of 2000 pin log(beta/alpha) to an sd near 0.03, far
        # below what the rule's unit panels resolve
        with pytest.raises(DomainError, match="narrower than the 0.4"):
            nb.build(primes_small.primes[:64], Hyperparameters(0.0, 0.0, 2e3, 2e3), RH_SQRT)

    def test_primes_at_pi_1e6(self, exact_at_1e6):
        # flat prior, primes to 1e6 (from 3 for mt and x-over-log): the
        # exact means of F1, to the digits given there
        expected = {
            "rh-sqrt": (0.99454, 0.0220),
            "rh-eps:0.1": (0.99430, 0.0811),
            "mt": (0.9118, 0.2142),
            "x-over-log": (0.6334, 0.3965),
        }
        for label, (alpha, beta) in expected.items():
            got = exact_at_1e6[label]
            assert round(got.mean_alpha, 5 if alpha > 0.99 else 4) == alpha, label
            assert round(got.mean_beta, 4) == beta, label

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            nb.build([5, 3], FLAT, RH_SQRT)

    @pytest.mark.parametrize(
        "primes",
        [[2, 3, math.nan], [math.nan, 3, 5], [2, math.nan, 5], [2, 3, math.inf]],
        ids=["nan-last", "nan-first", "nan-middle", "inf-last"],
    )
    @pytest.mark.parametrize("engine", ["build", "equivalence_report"])
    def test_rejects_non_finite_prime(self, engine, primes):
        with pytest.raises(DomainError, match="primes must be finite, ascending and >= 2"):
            if engine == "build":
                nb.build(primes, PROPER, RH_SQRT)
            else:
                nb.equivalence_report(primes, PROPER, [3], RH_SQRT)

    @pytest.mark.parametrize(
        "model, message",
        [
            (MT, "error density not positive at prime 2; drop leading primes"),
            (X_OVER_LOG, "X_OVER_LOG density is not positive below e"),
        ],
        ids=["mt", "x-over-log"],
    )
    @pytest.mark.parametrize("engine", ["build", "equivalence_report"])
    def test_density_refusal_message(self, engine, model, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            if engine == "build":
                nb.build([2, 3, 5, 7], PROPER, model)
            else:
                nb.equivalence_report([2, 3, 5, 7], PROPER, [2, 4], model)

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


class TestDensity:
    def test_normalizes_by_quadrature(self, post_k10):
        assert box_integrals(post_k10.pdf, 70.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_prior_times_likelihood(self, post_k10, primes_small):
        unnorm = flat_joint([float(p) for p in primes_small.primes[:10]], post_k10)
        z = box_integrals(unnorm, 70.0)
        for point in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
            assert post_k10.pdf(*point) == pytest.approx(unnorm(*point) / z, rel=1e-10)


class TestMoments:
    def test_match_quadrature(self, post_k10, primes_small):
        unnorm = flat_joint([float(p) for p in primes_small.primes[:10]], post_k10)

        def integrands(a, b):
            u = unnorm(a, b)
            return np.stack([u, a * u, b * u, a * a * u])

        z, *moments = box_integrals(integrands, 70.0)
        ma, mb, maa = np.array(moments) / z
        assert post_k10.moments().mean_alpha == pytest.approx(ma, rel=1e-10)
        assert post_k10.moments().mean_beta == pytest.approx(mb, rel=1e-10)
        assert post_k10.moments().var_alpha == pytest.approx(maa - ma**2, rel=1e-10)

    def test_both_parameterizations_agree(self, post_k10, primes_small):
        # the oracle's beta mean from its alpha-led weights matches the
        # exact engine's, which integrates over beta/alpha instead
        primes = [int(p) for p in primes_small.primes[:10]]
        oracle = convolution.build(primes, FLAT, RH_SQRT)
        state = oracle.state
        r = np.arange(state.k + 1, dtype=float)
        beta_from_p = float(np.sum(oracle.w * (state.hyper.xi + state.k - r)) / state.sum_b2)
        assert post_k10.moments().mean_beta == pytest.approx(beta_from_p, rel=1e-12)

    def test_k1_equals_recursive(self):
        # the oracle's k = 1 mixture is built with the recursive arithmetic
        state = rb.init(PROPER, RH_SQRT, 2)
        post = convolution.build([2], PROPER, RH_SQRT)
        assert post.moments().mean_alpha == rb.posterior_mean_alpha(state)
        assert post.moments().mean_beta == rb.posterior_mean_beta(state)
        assert post.moments().var_alpha == rb.posterior_var_alpha(state)
        assert post.moments().var_beta == rb.posterior_var_beta(state)

    @pytest.mark.parametrize("model, first", MODELS, ids=[m.label for m, _ in MODELS])
    def test_k1_engine_near_recursive(self, model, first, primes_small):
        # measured: within 1.2e-15 relative for the four models
        t = float(primes_small.primes[first])
        got = nb.build([t], PROPER, model).moments()
        want = rb.posterior(rb.init(PROPER, model, t)).moments()
        np.testing.assert_allclose(got, want, rtol=4e-15)


class TestPredictive:
    def test_matches_quadrature(self, primes_small):
        primes = [float(p) for p in primes_small.primes[:10]]
        post = nb.build(primes, FLAT, RH_SQRT)
        unnorm = flat_joint(primes, post)
        tk = primes[-1]
        ts = (31.0, 45.0, 80.0)

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
            assert math.exp(post.log_predictive(t)) == pytest.approx(target, rel=1e-10)

    def test_k1_equals_recursive(self):
        state = rb.init(PROPER, RH_SQRT, 2)
        post = nb.build([2], PROPER, RH_SQRT)
        for t in (3.0, 10.0, 100.0):
            assert post.log_predictive(t) == pytest.approx(
                rb.log_posterior_predictive(state, t), abs=1e-12
            )

    def test_matches_convolution(self, primes_small):
        primes = primes_small.primes[:512]
        post = nb.build(primes, FLAT, RH_SQRT)
        oracle = convolution.build(primes, FLAT, RH_SQRT)
        for t in (3673.0, 3700.0, 5000.0):
            assert post.log_predictive(t) == pytest.approx(oracle.log_predictive(t), rel=1e-13)

    def test_model_ratio_positive_at_k50(self, primes_small):
        primes = [int(p) for p in primes_small.primes[1:51]]
        t_next = int(primes_small.primes[51])
        post_mt = nb.build(primes, FLAT, MT)
        post_xl = nb.build(primes, FLAT, X_OVER_LOG)
        ratio = post_mt.log_predictive(t_next) - post_xl.log_predictive(t_next)
        assert ratio > 0

    def test_rejects_points_behind(self, primes_small):
        post = nb.build([2, 3, 5], FLAT, RH_SQRT)
        with pytest.raises(DomainError):
            post.log_predictive(5.0)


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

    def test_rows_match_build_across_blocks(self, primes_small):
        # the pass reads its sums in blocks of primes; rows before, at and
        # after block edges, and after blocks with no checkpoint, equal the
        # posteriors built one by one
        primes = primes_small.primes[:300]
        ks = [2, 3, 13, 14, 15, 16, 100, 250, 299, 300]
        rows = nb.equivalence_report(primes, FLAT, ks + [0, 14])
        assert [r.k for r in rows] == ks
        for row in rows:
            m = nb.build(primes[: row.k], FLAT, RH_SQRT).moments()
            assert row.nonrec_mean_alpha == pytest.approx(m.mean_alpha, rel=1e-13)
            assert row.nonrec_mean_beta == pytest.approx(m.mean_beta, rel=1e-13)

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

    def test_one_array_pass_for_all_checkpoints(self, primes_small, specialfn_calls):
        # a loop over stages would call Li and the density once per row
        calls = []
        for k_max in (8, 64):
            specialfn_calls.clear()
            rows = nb.equivalence_report(primes_small.primes[:k_max], FLAT, range(2, k_max + 1))
            assert len(rows) == k_max - 1
            calls.append(dict(specialfn_calls))
        assert calls[0] == calls[1]
        assert calls[0]["Li"] >= 1 and calls[0]["error_density"] >= 1

    def test_refusal_names_first_bad_stage(self):
        # the message the per-stage loop gave for its first (k = 1) stage
        with pytest.raises(DomainError) as info:
            nb.equivalence_report([2, 3, 5, 7], Hyperparameters(1.0, 1e-200, 1.0, 1.0), [1, 2, 3])
        assert str(info.value) == ("posterior rates 1, 1e-200 lie outside [2**-510, 2**510], "
                                   "beyond which their squares leave the float range")

    def test_cap_keyword(self, primes_small):
        primes = [int(p) for p in primes_small.primes[:128]]
        [row] = nb.equivalence_report(primes, FLAT, [128])
        post = nb.build(primes, FLAT, RH_SQRT)
        assert row.nonrec_mean_alpha == pytest.approx(post.moments().mean_alpha, rel=1e-12)
        assert row.nonrec_mean_beta == pytest.approx(post.moments().mean_beta, rel=1e-12)

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
