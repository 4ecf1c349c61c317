import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from prime_oracle import specialfn
from prime_oracle.errors import DomainError
from prime_oracle.recursive_bayes import Hyperparameters, _predictive_gaps, state_at
from prime_oracle.specialfn import (
    MT,
    MT_DECAY_CONSTANT,
    RH_SQRT,
    X_OVER_LOG,
    ErrorBoundModel,
    IntensityParams,
    Li,
    Variant,
    error_density,
    error_integral,
    error_integral_raw,
    increments,
    li,
    positive_density_floor,
    rh_eps,
)

ALL_MODELS = [RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT]

#: Every public function of x, each error function once per model.
FUNCTIONS_OF_X = [("li", li), ("Li", Li)] + [
    (f"{fn.__name__}-{model.label}", functools.partial(fn, model))
    for fn in (error_integral_raw, error_integral, error_density)
    for model in ALL_MODELS
]


def li_quadrature(x: float) -> float:
    val, _ = quad(lambda t: 1.0 / math.log(t), 2.0, x, epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


class TestLi:
    def test_reciprocal_log_values(self):
        assert li(math.e) == pytest.approx(1.0, rel=1e-14)
        assert li(math.e**2) == pytest.approx(0.5, rel=1e-14)
        assert li(1e6) == pytest.approx(1.0 / math.log(1e6), rel=1e-14)

    def test_li_domain(self):
        with pytest.raises(DomainError):
            li(1.0)

    def test_empty_integral(self):
        assert Li(2.0) == 0.0

    @pytest.mark.parametrize("x", [10.0, 1e3, 1e6])
    def test_matches_adaptive_quadrature(self, x):
        assert Li(x) == pytest.approx(li_quadrature(x), rel=1e-10)

    def test_li_of_ten(self):
        assert Li(10.0) == pytest.approx(5.1204357246698, rel=1e-12)

    def test_million_close_to_prime_count(self):
        value = Li(1e6)
        assert value == pytest.approx(78626.5, abs=1.0)
        assert abs(value - 78498) / 78498 < 0.002

    def test_li_domain_below_two(self):
        with pytest.raises(DomainError):
            Li(1.5)

    @given(
        st.floats(min_value=2.0, max_value=1e8),
        st.floats(min_value=1.001, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_increment_bracket(self, x1, factor):
        x2 = x1 * factor
        inc = Li(x2) - Li(x1)
        assert (x2 - x1) / math.log(x2) <= inc + 1e-9
        assert inc <= (x2 - x1) / math.log(x1) + 1e-9

    def test_vectorized(self):
        xs = np.array([2.0, 10.0, 1e4])
        out = Li(xs)
        assert out.shape == xs.shape
        assert out[0] == 0.0


@pytest.mark.parametrize(
    "x",
    [math.nan, np.array([10.0, math.nan, 20.0]), math.inf, np.array([10.0, math.inf])],
    ids=["scalar", "array", "inf-scalar", "inf-array"],
)
@pytest.mark.parametrize("fn", [f for _, f in FUNCTIONS_OF_X], ids=[n for n, _ in FUNCTIONS_OF_X])
def test_nan_refused(fn, x):
    with pytest.raises(DomainError, match="requires x"):
        fn(x)


class TestErrorIntegral:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_anchored_at_two(self, model):
        assert error_integral(model, 2.0) == 0.0

    def test_anchor_computed_once_per_model(self):
        specialfn._anchor.cache_clear()
        for model in ALL_MODELS * 3:
            error_integral(model, 10.0)
            error_integral(model, np.array([2.0, 1e6]))
        assert specialfn._anchor.cache_info().misses == len(ALL_MODELS)

    def test_x_over_log_closed_form(self):
        x = math.e**2
        expected = x / 2.0 - 2.0 / math.log(2.0)
        assert error_integral(X_OVER_LOG, x) == pytest.approx(expected, rel=1e-14)

    def test_rh_sqrt_closed_form(self):
        x = 1e4
        expected = math.sqrt(x) * math.log(x) - math.sqrt(2) * math.log(2)
        assert error_integral(RH_SQRT, x) == pytest.approx(expected, rel=1e-14)

    def test_mt_matches_quadrature_of_density(self):
        val, _ = quad(
            lambda t: error_density(MT, t), 2.0, 1e6, epsabs=1e-10, epsrel=1e-12, limit=400
        )
        assert error_integral(MT, 1e6) == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_strictly_increasing_on_grid(self, model):
        # MT and X_OVER_LOG dip just above 2 (their densities are negative
        # there), so monotonicity is asserted from 3 onward.
        lo = positive_density_floor(model)
        grid = np.logspace(math.log10(lo), 9, 200)
        vals = error_integral(model, grid)
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            error_integral(RH_SQRT, 1.9)


class TestErrorDensity:
    def test_rh_sqrt_at_four(self):
        assert error_density(RH_SQRT, 4.0) == pytest.approx(0.5 * (math.log(2.0) + 1.0), rel=1e-14)

    def test_rh_eps_power_rule(self):
        model = rh_eps(0.1)
        for x in (3.0, 50.0, 1e5):
            assert error_density(model, x) == pytest.approx(0.6 * x ** (-0.4), rel=1e-14)

    def test_x_over_log_formula(self):
        x = 100.0
        lg = math.log(x)
        assert error_density(X_OVER_LOG, x) == pytest.approx((lg - 1.0) / lg**2, rel=1e-14)

    def test_x_over_log_loud_below_e(self):
        with pytest.raises(DomainError):
            error_density(X_OVER_LOG, 2.5)

    def test_mt_negative_just_above_two(self):
        assert error_density(MT, 2.0) < 0.0
        assert error_density(MT, 3.0) > 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize("x", [10.0**j for j in range(1, 9)])
    def test_is_derivative_of_integral(self, model, x):
        h = 1e-4 * x
        fd = (error_integral(model, x + h) - error_integral(model, x - h)) / (2.0 * h)
        assert error_density(model, x) == pytest.approx(fd, rel=1e-6)

    def test_mt_central_difference_at_1e4(self):
        h = 1e-3
        fd = (error_integral(MT, 1e4 + h) - error_integral(MT, 1e4 - h)) / (2.0 * h)
        assert error_density(MT, 1e4) == pytest.approx(fd, rel=1e-6)


def mp_increments(mp, model, t0, t):
    """``(Li(t) - Li(t0), F(t) - F(t0))`` from ``mp.ei`` and the closed forms,
    at the working precision, with the model's float constants as given."""
    v = model.variant

    def F_raw(x):
        lg = mp.log(x)
        if v is Variant.RH_SQRT:
            return mp.sqrt(x) * lg
        if v is Variant.RH_EPS:
            return x ** mp.mpf(0.5 + model.epsilon)
        if v is Variant.X_OVER_LOG:
            return x / lg
        return x * lg ** mp.mpf(-0.75) * mp.exp(-mp.sqrt(lg / mp.mpf(MT_DECAY_CONSTANT)))

    t0, t = mp.mpf(t0), mp.mpf(t)
    return mp.ei(mp.log(t)) - mp.ei(mp.log(t0)), F_raw(t) - F_raw(t0)


def mp_relative_errors(mp, model, t0s, ts, got_li, got_f):
    """Largest relative errors of the li and F increments, both at 40 digits."""
    worst = [0.0, 0.0]
    with mp.workdps(40):
        for t0, t, *got in zip(t0s, ts, got_li, got_f):
            for j, exact in enumerate(mp_increments(mp, model, t0, t)):
                worst[j] = max(worst[j], float(abs(mp.mpf(got[j]) / exact - 1)))
    return worst


class TestIncrements:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_prime_gaps_match_mpmath(self, model, primes_2e6):
        # one panel per gap, all 150 in one broadcast call (measured: 4.4e-16
        # for li, up to 1.3e-15 for f)
        mp = pytest.importorskip("mpmath")
        primes = primes_2e6.primes
        primes = primes[(primes >= 10_000) & (primes <= 1_000_000)]
        at = np.sort(np.random.default_rng(0).choice(len(primes) - 1, 150, replace=False))
        t0, t = primes[at].astype(float), primes[at + 1].astype(float)
        err_li, err_f = mp_relative_errors(mp, model, t0, t, *increments(model, t0, t))
        assert err_li <= 5e-16 and err_f <= 2e-15, (err_li, err_f)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_split_intervals_match_mpmath(self, model):
        # the predictive's split into equal log panels: 1,272 panels from 3
        # to 1e6, 2,654 to 1e12 and 7,540 from 100 to e**80 (measured: up to
        # 2.3e-15)
        mp = pytest.importorskip("mpmath")
        t0s, ts = (3.0, 3.0, 100.0), (1e6, 1e12, math.exp(80.0))
        gaps = [_predictive_gaps(state_at(Hyperparameters(), model, 1, t0), t)[2:]
                for t0, t in zip(t0s, ts)]
        errs = mp_relative_errors(mp, model, t0s, ts, *zip(*gaps))
        assert max(errs) <= 3e-15, errs

    def test_empty_and_broadcast(self):
        assert increments(RH_SQRT, 7.0, 7.0) == (0.0, 0.0)
        d_li, d_f = increments(MT, np.array([10.0, 20.0]), 20.0)
        assert d_li.shape == d_f.shape == (2,) and d_li[1] == d_f[1] == 0.0


class TestModelTypes:
    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            rh_eps(0.5)
        with pytest.raises(DomainError):
            rh_eps(0.0)
        with pytest.raises(DomainError):
            ErrorBoundModel(Variant.RH_SQRT, epsilon=0.1)

    def test_labels_round_trip(self):
        for model in ALL_MODELS:
            assert ErrorBoundModel.parse(model.label) == model
        with pytest.raises(DomainError):
            ErrorBoundModel.parse("zeta")

    def test_intensity_params(self):
        IntensityParams(1.0, 0.0)
        with pytest.raises(DomainError):
            IntensityParams(0.0, 1.0)
        with pytest.raises(DomainError):
            IntensityParams(1.0, -0.1)

    @pytest.mark.parametrize(
        "alpha,beta", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_intensity_params_must_be_finite(self, alpha, beta):
        with pytest.raises(DomainError, match="finite"):
            IntensityParams(alpha, beta)

    def test_density_floor(self):
        assert positive_density_floor(RH_SQRT) == 2
        assert positive_density_floor(rh_eps(0.2)) == 2
        assert positive_density_floor(X_OVER_LOG) == 3
        assert positive_density_floor(MT) == 3
