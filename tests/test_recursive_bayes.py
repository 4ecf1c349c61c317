import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gauss_legendre import box_integrals
from prime_oracle.cli import main
from prime_oracle.errors import DomainError
from prime_oracle import recursive_bayes as rb
from prime_oracle.recursive_bayes import Hyperparameters
from prime_oracle.specialfn import (
    MT,
    MT_DECAY_CONSTANT,
    RH_SQRT,
    X_OVER_LOG,
    Li,
    error_density,
    error_integral,
    li,
    positive_density_floor,
    rh_eps,
)

FLAT = Hyperparameters()  # a=b=0, gamma=xi=1
PROPER = Hyperparameters(1.0, 1.0, 1.0, 1.0)
ALL_MODELS = (RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT)
#: The flat prior or a proper one (positive rates and shapes).
PRIORS = st.one_of(
    st.just(FLAT),
    st.builds(Hyperparameters, *[st.floats(min_value=0.01, max_value=100.0)] * 4),
)
#: Ascending stages ``(k, t_k)`` as steps: k by 1 to 10**5, log t by 0 to 3,
#: from a first prime of 5 to 1e9, where every model's density and rates
#: are positive.
STAGES = st.tuples(
    st.floats(min_value=5.0, max_value=1e9),
    st.lists(st.tuples(st.integers(min_value=1, max_value=10**5),
                       st.floats(min_value=0.0, max_value=3.0)), min_size=1, max_size=8),
)


def stage_arrays(stages):
    """``(ks, ts)`` arrays of the ascending stages that ``STAGES`` drew."""
    t0, steps = stages
    k_steps, log_steps = zip(*steps)
    return np.cumsum(k_steps), t0 * np.exp(np.cumsum(log_steps))


def assert_means_bounded(m, hyper, model, k, t_k):
    """The stage-k shapes are gamma+k-1 and gamma+k for alpha (xi+k-1 and
    xi+k for beta) whatever the primes, so each mean is a shape between those
    over its rate, entry by entry: the beta trajectory is pi(x) / F(x) up to
    O(1/k); the weights sum to 1 within an ulp, hence the 1e-15 slack."""
    for mean, offset, rate in (
        (m.mean_alpha, hyper.gamma, hyper.a + Li(t_k)),
        (m.mean_beta, hyper.xi, hyper.b + error_integral(model, t_k)),
    ):
        lo, hi = (offset + k - 1) / rate, (offset + k) / rate
        assert np.all((lo * (1 - 1e-15) <= mean) & (mean <= hi * (1 + 1e-15)))


def folded_states(model, primes, hyper):
    """Stage-by-stage reference for the closed form: starting from the first
    usable prime, each stage adds the increments of Li and F across the gap
    to the next prime.  Yields the state after every stage."""
    usable = [float(p) for p in primes if p >= positive_density_floor(model)]
    prev = usable[0]
    sum_b1, sum_b2 = hyper.a + Li(prev), hyper.b + error_integral(model, prev)
    yield rb.RecursionState(1, hyper, sum_b1, sum_b2, prev, model)
    for k, t in enumerate(usable[1:], start=2):
        sum_b1 += Li(t) - Li(prev)
        sum_b2 += error_integral(model, t) - error_integral(model, prev)
        prev = t
        yield rb.RecursionState(k, hyper, sum_b1, sum_b2, t, model)


def mp_forms(mp, model):
    """``(F_raw, f)`` of the RH_SQRT or MT closed form in mpmath."""
    decay = mp.mpf(MT_DECAY_CONSTANT)

    def F_raw(x):
        lg = mp.log(x)
        if model is RH_SQRT:
            return mp.sqrt(x) * lg
        return x * lg ** mp.mpf(-0.75) * mp.exp(-mp.sqrt(lg / decay))

    def f(x):
        lg = mp.log(x)
        if model is RH_SQRT:
            return (lg / 2 + 1) / mp.sqrt(x)
        return F_raw(x) * (1 - mp.mpf(0.75) / lg - 1 / (2 * mp.sqrt(decay * lg))) / x

    return F_raw, f


def mp_log_predictive(mp, model, k, t_k, t):
    """The flat-prior stage-k log predictive at ``t``, every input exact.

    The four gamma-ratio terms of the predictive over the two terms of its
    normalizer, with ``Li`` from ``mp.ei`` and ``F``, ``f`` from the closed
    forms, so no float rate or gap enters.
    """
    F_raw, f = mp_forms(mp, model)
    t_k, t = mp.mpf(t_k), mp.mpf(t)
    two = mp.mpf(2)

    def Li(x):
        return mp.ei(mp.log(x)) - mp.ei(mp.log(two))

    a, b = Li(t_k), F_raw(t_k) - F_raw(two)
    ap, bp = Li(t), F_raw(t) - F_raw(two)
    c1, c2, n1, n2 = 1 / mp.log(t_k), f(t_k), 1 / mp.log(t), f(t)

    def log_term(c, sa, sb, ra, rb_):
        # log of c * Gamma(sa) / ra**sa * Gamma(sb) / rb_**sb
        return (
            mp.log(c) + mp.loggamma(sa) - sa * mp.log(ra)
            + mp.loggamma(sb) - sb * mp.log(rb_)
        )

    num = [
        log_term(n1 * c1, k + 2, k, ap, bp),
        log_term(n2 * c1, k + 1, k + 1, ap, bp),
        log_term(n1 * c2, k + 1, k + 1, ap, bp),
        log_term(n2 * c2, k, k + 2, ap, bp),
    ]
    den = [log_term(c1, k + 1, k, a, b), log_term(c2, k, k + 1, a, b)]
    top, bot = max(num), max(den)
    return (
        top
        + mp.log(mp.fsum(mp.exp(x - top) for x in num))
        - bot
        - mp.log(mp.fsum(mp.exp(x - bot) for x in den))
    )


@pytest.fixture(scope="module")
def state_k5():
    s = rb.init(FLAT, RH_SQRT, 2)
    for p in (3, 5, 7, 11):
        s = rb.update(s, p)
    return s


def joint_unnormalized(state, alpha, beta):
    """Prior x per-stage likelihoods with the recursion's shape inflation:
    every intermediate coefficient pair collapses to an alpha*beta factor,
    so the stage-k joint is alpha^(g+k-2) beta^(x+k-2) e^(-aA-bB) (aC1+bC2)."""
    g, x = state.hyper.gamma, state.hyper.xi
    k = state.k
    c1 = li(state.t_last)
    c2 = error_density(state.model, state.t_last)
    return (
        alpha ** (g + k - 2.0)
        * beta ** (x + k - 2.0)
        * np.exp(-alpha * state.sum_b1 - beta * state.sum_b2)
        * (alpha * c1 + beta * c2)
    )


class TestInitUpdate:
    def test_init_at_two_is_empty(self):
        s = rb.init(FLAT, RH_SQRT, 2)
        assert s.k == 1
        assert s.sum_b1 == 0.0
        assert s.sum_b2 == 0.0

    def test_init_offsets_prior_rate(self):
        s = rb.init(Hyperparameters(a=1.0), RH_SQRT, 3)
        assert s.sum_b1 == pytest.approx(1.0 + Li(3.0), rel=1e-12)

    def test_telescoping(self):
        s = rb.init(FLAT, RH_SQRT, 2)
        for p in (3, 5):
            s = rb.update(s, p)
        assert s.sum_b1 == pytest.approx(Li(5.0), rel=1e-12)
        assert s.sum_b2 == pytest.approx(error_integral(RH_SQRT, 5.0), rel=1e-12)

    def test_telescoping_long(self, primes_2e6):
        primes = primes_2e6.primes[primes_2e6.primes <= 10**6]
        s = rb.init(FLAT, RH_SQRT, int(primes[0]))
        for p in primes[1:]:
            s = rb.update(s, int(p))
        assert s.k == 78498
        assert s.sum_b1 == pytest.approx(Li(999983.0), rel=1e-10)
        assert s.sum_b2 == pytest.approx(error_integral(RH_SQRT, 999983.0), rel=1e-10)

    def test_rejects_non_increasing(self):
        s = rb.init(FLAT, RH_SQRT, 5)
        with pytest.raises(DomainError):
            rb.update(s, 5)

    def test_rejects_bad_first_prime(self):
        with pytest.raises(DomainError):
            rb.init(FLAT, RH_SQRT, 1.5)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_state_at_rejects_nan_prime(self, model):
        with pytest.raises(DomainError, match="primes must be >= 2, got nan"):
            rb.state_at(Hyperparameters(1.0, 1.0, 1.0, 1.0), model, 5, math.nan)

    def test_rejects_negative_hyper(self):
        with pytest.raises(DomainError):
            rb.init(Hyperparameters(a=-1.0), RH_SQRT, 2)

    @pytest.mark.parametrize(
        "hyper", [Hyperparameters(a=math.nan), Hyperparameters(gamma=math.inf)]
    )
    def test_rejects_non_finite_hyper(self, hyper):
        with pytest.raises(DomainError):
            rb.init(hyper, RH_SQRT, 2)


class TestPosterior:
    def test_weights_sum_to_one(self, state_k5):
        mix = rb.posterior(state_k5)
        assert mix.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mix.w >= 0)
        assert np.all(mix.shape_a > 0) and np.all(mix.shape_b > 0)

    @pytest.mark.parametrize("model", [RH_SQRT, MT, X_OVER_LOG], ids=lambda m: m.label)
    @pytest.mark.parametrize(
        "k, t", [(78_498, 999_983.0), (5_761_455, 99_999_989.0)], ids=["1e6", "1e8"]
    )
    def test_weights_match_mpmath(self, model, k, t):
        # the gamma-function form of the weights at 50 digits, on the same
        # float coefficients and rates.  Differencing log Gamma values of
        # order k log k erred by 1.5e-11 to 1e-10 relative in w[1] at
        # k = 78498 and 7.6e-10 to 5.8e-9 at k = 5761455; the closed form
        # by at most 2.3e-15
        mp = pytest.importorskip("mpmath")
        state = rb.state_at(FLAT, model, k, t)
        got = rb.posterior(state).w[1]
        with mp.workdps(50):
            ra, rb_ = mp.mpf(state.sum_b1), mp.mpf(state.sum_b2)

            def log_weight(c, sa, sb):
                return (mp.log(c) + mp.loggamma(sa) - sa * mp.log(ra)
                        + mp.loggamma(sb) - sb * mp.log(rb_))

            # flat prior: base shapes a0 = b0 = k
            w0 = log_weight(mp.mpf(error_density(model, t)), k, k + 1)
            w1 = log_weight(mp.mpf(li(t)), k + 1, k)
            expected = 1 / (1 + mp.exp(w0 - w1))
            err = float(abs(mp.mpf(got) / expected - 1))
        assert err <= 4e-15, err

    def test_mixture_normalizes_by_quadrature(self, state_k5):
        mix = rb.posterior(state_k5)
        total = box_integrals(mix.pdf, 80.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_density_matches_prior_times_likelihood(self, state_k5):
        z = box_integrals(lambda a, b: joint_unnormalized(state_k5, a, b), 80.0)
        mix = rb.posterior(state_k5)
        for point in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
            direct = joint_unnormalized(state_k5, *point) / z
            assert mix.pdf(*point) == pytest.approx(direct, rel=1e-10)

    def test_improper_when_rate_zero(self):
        s = rb.init(FLAT, RH_SQRT, 2)  # both accumulated integrals empty
        with pytest.raises(DomainError):
            rb.posterior(s)

    def test_extreme_rates_refused(self):
        # rate**2 in the variances underflows to 0 (ZeroDivisionError) at
        # the first rate and overflows (OverflowError) at the second
        tiny_b = rb.state_at(Hyperparameters(1.0, 1e-200, 1.0, 1.0), RH_SQRT, 1, 2.0)
        huge_f = rb.state_at(FLAT, X_OVER_LOG, 5, 1e160)
        for state in (tiny_b, huge_f):
            with pytest.raises(DomainError, match="float range"):
                rb.posterior(state)

    def test_improper_when_shape_zero(self):
        s = rb.init(Hyperparameters(a=1.0, b=1.0, gamma=0.0, xi=1.0), RH_SQRT, 3)
        with pytest.raises(DomainError):
            rb.posterior(s)

    def test_mt_support_edges(self):
        # the anchored MT error integral dips below zero until x ~ 3.5, so a
        # state whose last prime is 3 has a negative accumulated rate and is
        # improper; by t = 5 everything is positive again
        s = rb.init(FLAT, MT, 3)
        assert s.sum_b2 < 0
        with pytest.raises(DomainError):
            rb.posterior(s)
        s = rb.update(s, 5)
        assert s.sum_b2 > 0
        mix = rb.posterior(s)
        assert mix.w.sum() == pytest.approx(1.0, abs=1e-12)
        # the stage coefficient itself is negative at t = 2
        bad = rb.init(Hyperparameters(a=1.0, b=1.0), MT, 2)
        with pytest.raises(DomainError):
            rb.posterior(bad)


class TestMoments:
    def test_equal_weight_algebra(self, state_k5):
        # with forced equal weights the mean collapses to (gamma+k-1/2)/sum_b1
        g, k = FLAT.gamma, state_k5.k
        mean_equal = (0.5 * (g + k) + 0.5 * (g + k - 1)) / state_k5.sum_b1
        assert mean_equal == pytest.approx((g + k - 0.5) / state_k5.sum_b1, rel=1e-15)

    @pytest.mark.parametrize("k_stages", [2, 5, 8])
    def test_moments_match_quadrature(self, k_stages, primes_small):
        primes = [int(p) for p in primes_small.primes[:k_stages]]
        state = None
        for p in primes:
            state = rb.init(FLAT, RH_SQRT, p) if state is None else rb.update(state, p)

        def integrands(a, b):
            u = joint_unnormalized(state, a, b)
            return np.stack([u, a * u, b * u, a * a * u, b * b * u])

        z, *moments = box_integrals(integrands, 80.0)
        ma, mb, maa, mbb = np.array(moments) / z
        assert rb.posterior_mean_alpha(state) == pytest.approx(ma, rel=1e-10)
        assert rb.posterior_mean_beta(state) == pytest.approx(mb, rel=1e-10)
        assert rb.posterior_var_alpha(state) == pytest.approx(maa - ma**2, rel=1e-10)
        assert rb.posterior_var_beta(state) == pytest.approx(mbb - mb**2, rel=1e-10)

    @given(
        model=st.sampled_from(ALL_MODELS),
        k=st.integers(min_value=1, max_value=10**7),
        t_k=st.floats(min_value=2.0, max_value=1e12),
        hyper=st.tuples(*[st.floats(min_value=0.0, max_value=100.0)] * 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_means_bounded_by_count_and_rates(self, model, k, t_k, hyper):
        hyper = Hyperparameters(*hyper)
        assume(t_k >= positive_density_floor(model))
        assume(min(hyper.gamma, hyper.xi) + k - 1 > 0)
        state = rb.state_at(hyper, model, k, t_k)
        # outside this range the posterior is refused, see test_extreme_rates_refused
        assume(all(2.0**-510 <= r <= 2.0**510 for r in (state.sum_b1, state.sum_b2)))
        assert_means_bounded(rb.posterior(state).moments(), hyper, model, k, t_k)

    @given(model=st.sampled_from(ALL_MODELS), hyper=PRIORS, stages=STAGES)
    @settings(max_examples=200, deadline=None)
    def test_means_bounded_on_batched_state(self, model, hyper, stages):
        ks, ts = stage_arrays(stages)
        m = rb.posterior(rb.state_at(hyper, model, ks, ts)).moments()
        assert all(col.shape == ks.shape for col in m)
        assert_means_bounded(m, hyper, model, ks, ts)

    def test_million_scale_alpha(self, primes_2e6):
        primes = primes_2e6.primes[primes_2e6.primes <= 10**6]
        s = rb.state_at(FLAT, RH_SQRT, len(primes), int(primes[-1]))
        assert 0.99 <= rb.posterior_mean_alpha(s) <= 1.01
        assert rb.posterior_var_alpha(s) < 2e-5

    @pytest.mark.parametrize("model", [RH_SQRT, MT], ids=lambda m: m.label)
    def test_million_scale_moments_match_mpmath(self, model, primes_2e6):
        # the variances are (E_w[s] + Var_w[s]) / rate**2, free of the
        # cancellation in E[x**2] - E[x]**2 (which loses about 8 digits
        # here), and the weights sum to 1 although their logs are ~1e6;
        # measured: 5e-16 relative or better on every moment
        mp = pytest.importorskip("mpmath")
        [row] = rb.trajectory(model, primes_2e6.primes, FLAT, [10**6])
        with mp.workdps(40):
            t, k = mp.mpf(row.t_last), row.k
            F_raw, density = mp_forms(mp, model)
            lg, f = mp.log(t), density(t)
            rate_a = mp.ei(lg) - mp.ei(mp.log(2))
            rate_b = F_raw(t) - F_raw(mp.mpf(2))
            log_a, log_b = mp.log(rate_a), mp.log(rate_b)
            lw1 = -mp.log(lg) + mp.loggamma(k + 1) - (k + 1) * log_a + mp.loggamma(k) - k * log_b
            lw2 = mp.log(f) + mp.loggamma(k) - k * log_a + mp.loggamma(k + 1) - (k + 1) * log_b
            w1 = 1 / (1 + mp.exp(lw2 - lw1))
            w2 = 1 - w1
            expected = []
            for s1, s2, rate in ((k + 1, k, rate_a), (k, k + 1, rate_b)):
                mean = (w1 * s1 + w2 * s2) / rate
                second = (w1 * s1 * (s1 + 1) + w2 * s2 * (s2 + 1)) / rate**2
                expected += [float(mean), float(second - mean**2)]
        got = [row.mean_alpha, row.var_alpha, row.mean_beta, row.var_beta]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_million_scale_beta_by_model(self, primes_2e6):
        primes = [int(p) for p in primes_2e6.primes[primes_2e6.primes <= 10**6]]
        means = {}
        for model in (RH_SQRT, X_OVER_LOG):
            start = 0 if model is RH_SQRT else 1
            s = rb.state_at(FLAT, model, len(primes) - start, primes[-1])
            means[model.label] = rb.posterior_mean_beta(s)
        assert 5.0 <= means["rh-sqrt"] <= 6.5
        assert 1.05 <= means["x-over-log"] <= 1.12


class TestBatchedStages:
    @given(model=st.sampled_from(ALL_MODELS), hyper=PRIORS, stages=STAGES)
    @settings(max_examples=200, deadline=None)
    def test_batched_equals_scalar(self, model, hyper, stages):
        # a batched state is the stages' 0-d states side by side: each row of
        # its moments is the scalar call's within 4 ulps
        ks, ts = stage_arrays(stages)
        batched = rb.posterior(rb.state_at(hyper, model, ks, ts)).moments()
        for i, (k, t_k) in enumerate(zip(ks.tolist(), ts.tolist())):
            scalar = rb.posterior(rb.state_at(hyper, model, k, t_k)).moments()
            assert all(type(v) is float for v in scalar)
            got, want = np.array([col[i] for col in batched]), np.array(scalar)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_scalar_state_holds_python_numbers(self):
        s = rb.state_at(FLAT, RH_SQRT, np.int64(5), np.float64(11.0))
        assert [type(v) for v in (s.k, s.t_last, s.sum_b1, s.sum_b2)] == [int, float, float, float]
        batched = rb.state_at(FLAT, RH_SQRT, [5], [11.0])
        assert batched.k.tolist() == [5] and batched.sum_b1.tolist() == [s.sum_b1]

    def test_unequal_shapes_refused(self):
        with pytest.raises(DomainError, match="differ in shape"):
            rb.state_at(FLAT, RH_SQRT, [1, 2], [3.0])

    # each message as the per-stage loop gave it for the first offending stage
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rb.state_at(FLAT, RH_SQRT, [1, 2, 3], [3.0, math.nan, 1.0]),
             "primes must be >= 2, got nan"),
            (lambda: rb.state_at(FLAT, RH_SQRT, [2, 0, -1], [3.0, 5.0, 7.0]),
             "stage count must be >= 1, got 0"),
            (lambda: rb.posterior(rb.state_at(PROPER, MT, [1, 2], [2.0, 3.0])),
             "error density is not positive at t=2; start the recursion at 3 or later"),
            (lambda: rb.trajectory(RH_SQRT, [2, 3, 5, 7], Hyperparameters(1.0, 1.0, 0.0, 1.0),
                                   [2, 10]),
             "improper posterior component: base shapes 0.0, 1.0"),
            (lambda: rb.trajectory(RH_SQRT, [2, 3, 5, 7], FLAT, [2, 10]),
             "improper posterior: non-positive rate (the accumulated integrals are empty or "
             "negative this close to the support edge)"),
            (lambda: rb.trajectory(X_OVER_LOG, [3, 5, 1e159, 1e160], FLAT, [10, 1e159, 1e160]),
             "posterior rates 2.73891e+156, 2.73141e+156 lie outside [2**-510, 2**510], "
             "beyond which their squares leave the float range"),
        ],
        ids=["nan-prime", "stage-count", "density", "base-shapes", "zero-rate", "rate-range"],
    )
    def test_refusals_name_first_bad_stage(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestPredictive:
    @pytest.mark.parametrize("model", [RH_SQRT, MT], ids=lambda m: m.label)
    def test_million_scale_matches_mpmath(self, model, primes_2e6):
        # against a 50-digit evaluation with every input exact: the gaps
        # Li(t) - Li(t_k) and F(t) - F(t_k) across one prime gap near 1e6 are
        # integrated, since as differences of two rounded values they lose
        # 1e-10 relative (rh-sqrt: log predictive off by 1.9e-10 that way;
        # measured now: 1e-15 for both models)
        mp = pytest.importorskip("mpmath")
        k = 78_497
        primes = [int(p) for p in primes_2e6.primes[positive_density_floor(model) - 2 :]]
        t_k, t = float(primes[k - 1]), float(primes[k])
        assert t_k == (999_979.0 if model is RH_SQRT else 999_983.0)
        got = rb.log_posterior_predictive(rb.state_at(FLAT, model, k, t_k), t)
        with mp.workdps(50):
            expected = mp_log_predictive(mp, model, k, t_k, t)
        assert got == pytest.approx(float(expected), rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "k, t_k, t", [(2, 3.0, 5.0), (78_497, 999_979.0, 2e6)], ids=["3-5", "1e6-2e6"]
    )
    def test_wide_intervals_match_mpmath(self, k, t_k, t):
        # many quadrature panels: 51 from 3 to 5, 70 from 999,979 to 2e6;
        # the second value is -81,262, where 1e-14 relative is 55 ulps
        # (measured: 2.5e-15 absolute and 4 ulps)
        mp = pytest.importorskip("mpmath")
        got = rb.log_posterior_predictive(rb.state_at(FLAT, RH_SQRT, k, t_k), t)
        with mp.workdps(50):
            expected = mp_log_predictive(mp, RH_SQRT, k, t_k, t)
        assert got == pytest.approx(float(expected), rel=1e-14, abs=1e-14)

    def test_matches_posterior_integral(self, state_k5):
        tk = state_k5.t_last
        ts = (12.0, 20.0, 60.0)

        def waiting(a, b, t):
            lam = a * li(t) + b * error_density(RH_SQRT, t)
            delta = a * (Li(t) - Li(tk)) + b * (
                error_integral(RH_SQRT, t) - error_integral(RH_SQRT, tk)
            )
            return np.exp(-delta) * lam

        def integrands(a, b):
            u = joint_unnormalized(state_k5, a, b)
            return np.stack([u] + [waiting(a, b, t) * u for t in ts])

        z, *preds = box_integrals(integrands, 80.0)
        for t, target in zip(ts, np.array(preds) / z):
            got = math.exp(rb.log_posterior_predictive(state_k5, t))
            assert got == pytest.approx(target, rel=1e-10)

    @pytest.mark.parametrize("k_stages", [1, 5, 50])
    def test_tail_integrates_to_one(self, k_stages, primes_small):
        primes = [int(p) for p in primes_small.primes[:k_stages]]
        hyper = Hyperparameters(1.0, 1.0, 1.0, 1.0) if k_stages == 1 else FLAT
        state = None
        for p in primes:
            state = rb.init(hyper, RH_SQRT, p) if state is None else rb.update(state, p)

        def integrand(w):
            return math.exp(rb.log_posterior_predictive(state, math.exp(w)) + w)

        total, _ = quad(
            integrand, math.log(state.t_last) + 1e-12, 80.0,
            epsabs=1e-11, epsrel=1e-11, limit=500,
        )
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_boundary_collapses_to_hazard_product(self, state_k5):
        # as t -> t_last+ the four coefficient products approach
        # (li + f)(t_last)^2 with no survival discount; the 1e-10 offset
        # moves the predictive by about 1e-10 relative
        tk = state_k5.t_last
        got = math.exp(rb.log_posterior_predictive(state_k5, tk + 1e-10))
        c1, c2 = li(tk), error_density(RH_SQRT, tk)

        def integrands(a, b):
            u = joint_unnormalized(state_k5, a, b)
            return np.stack([u, (a * c1 + b * c2) * u])

        z, hazard = box_integrals(integrands, 80.0)
        assert got == pytest.approx(hazard / z, rel=1e-9)

    def test_rejects_points_behind(self, state_k5):
        with pytest.raises(DomainError):
            rb.log_posterior_predictive(state_k5, 11.0)


class TestTrajectory:
    def test_alpha_rises_toward_one_all_models(self, primes_small):
        primes = [int(p) for p in primes_small.primes]
        for model in (RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT):
            rows = rb.trajectory(model, primes, FLAT, [10**2, 10**3, 10**4])
            means = [r.mean_alpha for r in rows]
            assert means[0] < means[1] < means[2] < 1.0, model.label

    def test_rh_beta_increases(self, primes_small):
        primes = [int(p) for p in primes_small.primes]
        rows = rb.trajectory(RH_SQRT, primes, FLAT, [10**2, 10**3, 10**4])
        betas = [r.mean_beta for r in rows]
        assert betas[0] < betas[1] < betas[2]

    def test_skips_unsupported_leading_prime(self, primes_small):
        primes = [int(p) for p in primes_small.primes]
        rows = rb.trajectory(MT, primes, FLAT, [10**3])
        # the prime 2 is dropped, so k is one less than the prime count
        n_below = sum(1 for p in primes if p <= 1000)
        assert rows[0].k == n_below - 1

    def test_checkpoint_semantics(self, primes_small):
        primes = [int(p) for p in primes_small.primes]
        [row] = rb.trajectory(RH_SQRT, primes, FLAT, [100])
        assert row.t_last == 97
        assert row.k == 25

    @pytest.mark.parametrize("hyper", [FLAT, Hyperparameters(0.5, 0.3, 2.0, 1.5)])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_closed_form_matches_fold(self, model, hyper, primes_small):
        checkpoints = [10**2, 10**3, 10**4]
        rows = rb.trajectory(model, primes_small.primes, hyper, checkpoints)
        states = list(folded_states(model, primes_small.primes, hyper))
        expected = [[s for s in states if s.t_last <= cp][-1] for cp in checkpoints]
        assert [(r.k, r.t_last) for r in rows] == [(s.k, s.t_last) for s in expected]
        for row, state in zip(rows, expected):
            assert row.mean_alpha == pytest.approx(rb.posterior_mean_alpha(state), rel=1e-12)
            assert row.mean_beta == pytest.approx(rb.posterior_mean_beta(state), rel=1e-12)
            assert row.var_alpha == pytest.approx(rb.posterior_var_alpha(state), rel=1e-12)
            assert row.var_beta == pytest.approx(rb.posterior_var_beta(state), rel=1e-12)

    @pytest.mark.parametrize(
        "model, primes, checkpoints",
        [
            (RH_SQRT, [2, 3, 7, 5, 11], [100]),
            (RH_SQRT, [2, 3, 3, 5], [100]),
            # the disorder and the sub-2 start lie below the density floor
            (MT, [3, 2, 5, 7], [10]),
            (RH_SQRT, [1, 0.5, 3, 5, 7], [10]),
            (RH_SQRT, [2, 3, 5, math.inf], [math.inf]),
        ],
        ids=["swapped", "repeated", "mt-swapped-below-floor", "below-two", "infinite"],
    )
    def test_rejects_non_increasing(self, model, primes, checkpoints):
        with pytest.raises(DomainError, match="primes must be"):
            rb.trajectory(model, primes, FLAT, checkpoints)

    @pytest.mark.parametrize(
        "primes, checkpoints",
        [([2, 3, math.nan, 7], [10]), ([math.nan, 3, 5], [10]), ([2, 3, 5, 7], [5, math.nan])],
        ids=["nan-prime", "nan-first-prime", "nan-checkpoint"],
    )
    def test_rejects_nan(self, primes, checkpoints):
        with pytest.raises(DomainError, match="must not be NaN"):
            rb.trajectory(RH_SQRT, primes, FLAT, checkpoints)

    @pytest.mark.parametrize("checkpoints", [[100], [1.0]])
    def test_rejects_negative_hyper(self, checkpoints, primes_small):
        with pytest.raises(DomainError):
            rb.trajectory(RH_SQRT, primes_small.primes, Hyperparameters(a=-1.0), checkpoints)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_one_array_pass_for_all_checkpoints(self, model, primes_small, specialfn_calls):
        # a loop over checkpoints would call Li and the density once per row
        calls = []
        for n in (5, 50):
            specialfn_calls.clear()
            rows = rb.trajectory(model, primes_small.primes, FLAT, np.geomspace(10, 10**4, n))
            assert len(rows) == n
            calls.append(dict(specialfn_calls))
        assert calls[0] == calls[1]
        assert calls[0]["Li"] >= 1 and calls[0]["error_density"] >= 1

    def test_checkpoint_below_first_usable_prime(self, primes_small):
        # MT starts at 3, so a checkpoint at 2.5 has no state yet
        for model, low in ((RH_SQRT, 1.5), (MT, 2.5)):
            rows = rb.trajectory(model, primes_small.primes, FLAT, [low, 100])
            assert [(r.k, r.t_last) for r in rows] == [(27 - positive_density_floor(model), 97)]


class TestAsymptoticForms:
    def test_reference_rows(self):
        rows = rb.asymptotic_form_table([10**10, 10**100, 10**500])
        expected = {
            10**10: (905.058, 3.081),
            10**100: (2.862e46, 107.618),
            10**500: (2.560e245, 125503.7),
        }
        for k, sqrt_form, mt_form in rows:
            ref = expected[k]
            assert sqrt_form == pytest.approx(ref[0], rel=5e-3)
            assert mt_form == pytest.approx(ref[1], rel=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            rb.asymptotic_form_table([2])


class TestModelCompare:
    def test_identical_models_zero(self, primes_small):
        primes = [int(p) for p in primes_small.primes[1:50]]
        s1 = s2 = None
        for p in primes:
            s1 = rb.init(FLAT, MT, p) if s1 is None else rb.update(s1, p)
            s2 = rb.init(FLAT, MT, p) if s2 is None else rb.update(s2, p)
        assert rb.model_compare_log_ratio(s1, s2, 300.0) == 0.0
        with pytest.raises(DomainError):
            rb.model_compare_log_ratio(s1, s2, 1.0)  # below t_last = 229

    def test_mismatched_states_rejected(self, primes_small):
        primes = [int(p) for p in primes_small.primes[1:20]]
        s1 = s2 = None
        for p in primes:
            s1 = rb.init(FLAT, MT, p) if s1 is None else rb.update(s1, p)
        for p in primes[:-1]:
            s2 = rb.init(FLAT, X_OVER_LOG, p) if s2 is None else rb.update(s2, p)
        with pytest.raises(DomainError):
            rb.model_compare_log_ratio(s1, s2, 300.0)

    def test_mt_favored_over_x_over_log(self, primes_2e6):
        primes = [int(p) for p in primes_2e6.primes[1:13_000]]
        s1 = s2 = None
        ratios = []
        for i, p in enumerate(primes[:-1]):
            if s1 is None:
                s1, s2 = rb.init(FLAT, MT, p), rb.init(FLAT, X_OVER_LOG, p)
            else:
                s1, s2 = rb.update(s1, p), rb.update(s2, p)
            if s1.k in (1000, 10_000):
                ratios.append(rb.model_compare_log_ratio(s1, s2, primes[i + 1]))
        assert ratios[0] > 0 and ratios[1] > ratios[0]

    def test_cli_matches_fold(self, tmp_path, primes_2e6):
        out = tmp_path / "cmp.csv"
        assert main(["compare-models", "--limit", "1e4", "--out", str(out)]) == 0
        got = [line.split(",") for line in out.read_text().splitlines()[2:]]
        primes = [int(p) for p in primes_2e6.primes[1:1300]]
        n = sum(1 for p in primes if p <= 10**4)
        pairs = zip(folded_states(MT, primes, FLAT), folded_states(X_OVER_LOG, primes, FLAT))
        expected = [
            (s1.k, rb.model_compare_log_ratio(s1, s2, primes[s1.k]))
            for s1, s2 in pairs
            if s1.k in (10, 100, 1000, n)
        ]
        assert [int(k) for k, _ in got] == [k for k, _ in expected] == [10, 100, 1000, 1228]
        for (_, ratio), (_, want) in zip(got, expected):
            assert float(ratio) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestHyperRobustness:
    def test_alpha_mean_insensitive_to_prior(self, primes_2e6):
        primes = [int(p) for p in primes_2e6.primes[primes_2e6.primes <= 10**6]]
        means = []
        for hyper in (FLAT, Hyperparameters(5.0, 5.0, 3.0, 3.0)):
            s = rb.state_at(hyper, RH_SQRT, len(primes), primes[-1])
            means.append(rb.posterior_mean_alpha(s))
        assert abs(means[0] - means[1]) < 1e-3
