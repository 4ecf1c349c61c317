import math
import tracemalloc

import nhpp_reference
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binomtest, chisquare, ks_2samp, poisson

from prime_oracle import nhpp
from prime_oracle.errors import DomainError, ResourceError
from prime_oracle.nhpp import (
    NHPP_EVENT_CEILING,
    _draw_targets,
    _hazard,
    cumulative_intensity,
    gap_window_check,
    log_waiting_density,
    nth_event_check,
    pnt_ratio_check,
    simulate,
)
from prime_oracle.specialfn import (
    MT,
    MT_DECAY_CONSTANT,
    PANEL_WIDTH,
    RH_SQRT,
    X_OVER_LOG,
    IntensityParams,
    Li,
    error_density,
    error_integral,
    li,
    rh_eps,
)

UNIT = IntensityParams(1.0, 1.0)
NEAR_PNT = IntensityParams(1.0, 0.01)


class TestCumulativeIntensity:
    def test_empty_interval(self):
        for model in (RH_SQRT, X_OVER_LOG, MT):
            assert cumulative_intensity(model, UNIT, 7.0, 7.0) == 0.0

    def test_rh_sqrt_composition(self):
        expected = Li(1e4) + math.sqrt(1e4) * math.log(1e4) - math.sqrt(2) * math.log(2)
        assert cumulative_intensity(RH_SQRT, UNIT, 2.0, 1e4) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_alpha(self):
        params = IntensityParams(2.0, 0.0)
        for x in (10.0, 1e5):
            assert cumulative_intensity(X_OVER_LOG, params, 2.0, x) == pytest.approx(
                2.0 * Li(x), rel=1e-12
            )

    def test_additive(self):
        for x1, x2, x3 in ((2.0, 50.0, 1e4), (10.0, 1e3, 1e8)):
            whole = cumulative_intensity(RH_SQRT, UNIT, x1, x3)
            split = cumulative_intensity(RH_SQRT, UNIT, x1, x2) + cumulative_intensity(
                RH_SQRT, UNIT, x2, x3
            )
            assert split == pytest.approx(whole, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cumulative_intensity(RH_SQRT, UNIT, 1.0, 10.0)
        with pytest.raises(DomainError):
            cumulative_intensity(RH_SQRT, UNIT, 10.0, 9.0)


class TestWaitingDensity:
    def test_boundary_limit(self):
        t_prev = 100.0
        expected = math.log(li(t_prev) + error_density(RH_SQRT, t_prev))
        got = log_waiting_density(RH_SQRT, UNIT, t_prev, t_prev + 1e-9)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_composed_value_at_ten(self):
        expected = -(Li(10.0) + error_integral(RH_SQRT, 10.0)) + math.log(
            li(10.0) + error_density(RH_SQRT, 10.0)
        )
        assert log_waiting_density(RH_SQRT, UNIT, 2.0, 10.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", [RH_SQRT, MT, X_OVER_LOG], ids=lambda m: m.label)
    @pytest.mark.parametrize("t_prev,t_hi", [(2.0, 1e3), (1e3, 1e5)])
    def test_integrates_to_survival_complement(self, model, t_prev, t_hi):
        def integrand(t):
            return math.exp(log_waiting_density(model, UNIT, t_prev, t))

        val, _ = quad(integrand, t_prev, t_hi, epsabs=1e-12, epsrel=1e-12, limit=500)
        expected = 1.0 - math.exp(-cumulative_intensity(model, UNIT, t_prev, t_hi))
        assert val == pytest.approx(expected, rel=1e-8)

    def test_negative_hazard_is_loud(self):
        # X_OVER_LOG's density is negative below e: at beta = 5 it outweighs
        # li (hazard about -1.0 at 2.1), at beta = 1 it does not (0.99 at 2.5)
        with pytest.raises(DomainError):
            log_waiting_density(X_OVER_LOG, IntensityParams(1.0, 5.0), 2.0, 2.1)
        assert math.isfinite(log_waiting_density(X_OVER_LOG, UNIT, 2.0, 2.5))

    def test_ordering(self):
        with pytest.raises(DomainError):
            log_waiting_density(RH_SQRT, UNIT, 10.0, 10.0)


class TestSimulate:
    def test_times_are_valid(self):
        stream = simulate(RH_SQRT, UNIT, 1e4, seed=5)
        t = stream.times
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 2.0 and t[-1] <= 1e4

    def test_x_over_log_events_below_e(self):
        # the X_OVER_LOG density is negative below e, yet the intensity
        # alpha*li + beta*f stays positive there, so every seed simulates
        for seed in range(20):
            t = simulate(X_OVER_LOG, NEAR_PNT, 1e3, seed=seed).times
            assert np.all(np.diff(t) > 0)
            assert t[0] >= 2.0 and t[-1] <= 1e3

    @pytest.mark.parametrize("model", [RH_SQRT, rh_eps(0.1), MT, X_OVER_LOG], ids=lambda m: m.label)
    def test_event_cells_equal_a_search_per_event(self, model, monkeypatch):
        seen = []

        def recorded(grid_lam, targets):
            idx = event_cells(grid_lam, targets)
            seen.append((grid_lam, targets.copy(), idx))
            return idx

        event_cells = nhpp._event_cells
        monkeypatch.setattr(nhpp, "_event_cells", recorded)
        for beta in (0.0, 0.01, 1.0):
            for horizon in (1e3, 1e6):
                for seed in range(3):
                    simulate(model, IntensityParams(1.0, beta), horizon, seed)
        assert len(seen) == 18
        for grid_lam, targets, idx in seen:
            cells = len(grid_lam) - 1
            per_event = np.searchsorted(grid_lam, targets, side="right") - 1
            assert np.array_equal(idx, np.clip(per_event, 0, cells - 1))

    def test_deterministic_per_seed(self):
        a = simulate(MT, UNIT, 1e4, seed=7)
        b = simulate(MT, UNIT, 1e4, seed=7)
        c = simulate(MT, UNIT, 1e4, seed=8)
        assert np.array_equal(a.times, b.times)
        assert len(c.times) != len(a.times) or not np.array_equal(a.times, c.times)

    def test_inverse_accuracy(self):
        # Lambda(t_k) must land on the k-th exponential arrival sum: the
        # residual, scaled to t by the hazard, is at the rounding of Lambda
        horizon, seed = 1e6, 3
        for model in (RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT):
            total = cumulative_intensity(model, NEAR_PNT, 2.0, horizon)
            targets = _draw_targets(np.random.default_rng(seed), total)
            t = simulate(model, NEAR_PNT, horizon, seed=seed).times
            assert len(t) == len(targets), model.label
            resid = cumulative_intensity(model, NEAR_PNT, 2.0, t) - targets
            rel = np.abs(resid) / (_hazard(model, NEAR_PNT, t) * t)
            assert rel.max() <= 1e-12, (model.label, rel.max())

    def test_inverse_accuracy_on_wide_cells(self):
        # a tiny alpha keeps a 1e300 horizon below the event ceiling; its
        # 69,009 bracket cells are each one Gauss-Legendre panel 0.01 wide in
        # log t; one panel on cells 0.34 wide left errors of 2e-10
        params, horizon = IntensityParams(1e-295, 0.0), 1e300
        for seed in range(3):
            total = cumulative_intensity(RH_SQRT, params, 2.0, horizon)
            targets = _draw_targets(np.random.default_rng(seed), total)
            t = simulate(RH_SQRT, params, horizon, seed=seed).times
            assert len(t) == len(targets) > 100
            resid = cumulative_intensity(RH_SQRT, params, 2.0, t) - targets
            rel = np.abs(resid) / (_hazard(RH_SQRT, params, t) * t)
            assert rel.max() <= 1e-12, (seed, rel.max())

    def test_root_accuracy_against_mpmath(self):
        # 200 evenly spaced events per model, each against the root of
        # Lambda((2, t]) = target in 40-digit arithmetic from the written-out
        # closed forms.  The bound is the worst error on this sample of the
        # residual Lambda((2, t]) - target evaluated through expi at every t
        # (2.07e-15, mt); grid anchors plus Gauss-Legendre increments measured
        # 1.77e-15, left by expi's own error of up to 8 ulps at the anchors
        mp = pytest.importorskip("mpmath")
        horizon, seed = 1e6, 0
        decay = mp.mpf(MT_DECAY_CONSTANT)
        raw = {
            "rh-sqrt": lambda x: mp.sqrt(x) * mp.log(x),
            "rh-eps:0.1": lambda x: x ** mp.mpf("0.6"),
            "x-over-log": lambda x: x / mp.log(x),
            "mt": lambda x: x * mp.log(x) ** mp.mpf(-0.75) * mp.exp(-mp.sqrt(mp.log(x) / decay)),
        }
        worst = 0.0
        for model in (RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT):
            total = cumulative_intensity(model, NEAR_PNT, 2.0, horizon)
            targets = _draw_targets(np.random.default_rng(seed), total)
            t = simulate(model, NEAR_PNT, horizon, seed=seed).times
            F = raw[model.label]
            with mp.workdps(40):
                two = mp.mpf(2)
                anchor = mp.ei(mp.log(two)), F(two)

                def lam(x):
                    return NEAR_PNT.alpha * (mp.ei(mp.log(x)) - anchor[0]) + NEAR_PNT.beta * (
                        F(x) - anchor[1]
                    )

                for k in np.linspace(0, len(t) - 1, 200).astype(int):
                    root = mp.findroot(lambda x: lam(x) - mp.mpf(targets[k]), mp.mpf(t[k]))
                    worst = max(worst, float(abs(mp.mpf(t[k]) - root) / root))
        assert worst <= 2.07e-15, worst

    @pytest.mark.parametrize("model", [RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT], ids=lambda m: m.label)
    @pytest.mark.parametrize("horizon", [1e3, 1e5, 1e7], ids=["1e3", "1e5", "1e7"])
    def test_work_per_event(self, monkeypatch, horizon, model):
        # the cumulative intensity (expi) runs on the total and the bracket
        # grid only, one cell per panel width in log t, and the hazard runs
        # once on the grid for the slopes of the cubic-Hermite start.  Each
        # Newton round takes the increments once per event for the residual
        # and the hazard at the iterate for the slope, and converged events
        # leave the loop.  From the Hermite start every event converged in
        # the first round (seeds 6-15, each model and horizon here); the
        # slack lets four events take a second round
        asked = []
        hazard_elements = []
        increment_elements = []
        real = nhpp.cumulative_intensity
        real_hazard = nhpp._hazard
        real_increments = nhpp.increments

        def counting(model, params, x1, x2):
            asked.append(np.size(x2))
            return real(model, params, x1, x2)

        def counting_hazard(model, params, t):
            hazard_elements.append(np.size(t))
            return real_hazard(model, params, t)

        def counting_increments(model, t0, t):
            increment_elements.append(np.broadcast(t0, t).size)
            return real_increments(model, t0, t)

        monkeypatch.setattr(nhpp, "cumulative_intensity", counting)
        monkeypatch.setattr(nhpp, "_hazard", counting_hazard)
        monkeypatch.setattr(nhpp, "increments", counting_increments)
        stream = simulate(model, NEAR_PNT, horizon, seed=6)
        events = len(stream.times)
        cells = math.ceil(math.log(horizon / 2.0) / PANEL_WIDTH)
        assert sorted(asked) == [1, 1 + cells]
        assert sum(hazard_elements) <= events + (cells + 1) + 4
        assert sum(increment_elements) <= events + 4

    @pytest.mark.parametrize("horizon", [10.0, 1e4], ids=["10", "1e4"])
    @pytest.mark.parametrize(
        "model,beta",
        [(X_OVER_LOG, 2.25), (X_OVER_LOG, 2.259), (X_OVER_LOG, 2.26), (MT, 100.0)],
        ids=["x-over-log-2.25", "x-over-log-2.259", "x-over-log-2.26", "mt-100"],
    )
    def test_non_positive_hazard_at_the_grid(self, model, beta, horizon):
        # under X_OVER_LOG the hazard at 2 is 5.7e-3 at beta 2.25, -6.9e-5 at
        # 2.259 and -7.1e-4 at 2.26: a grid point whose hazard is not positive
        # has no usable Hermite slope, so its cells start linearly, and Lambda
        # still increases on every cell, so the draw is exact.  Under MT at
        # beta 100 the hazard at 2 is -28.9 and Lambda falls on the first cell
        params = IntensityParams(1.0, beta)
        if model is MT:
            with pytest.raises(DomainError, match="not strictly increasing"):
                simulate(model, params, horizon, seed=0)
            return
        for seed in range(3):
            total = cumulative_intensity(model, params, 2.0, horizon)
            targets = _draw_targets(np.random.default_rng(seed), total)
            t = simulate(model, params, horizon, seed=seed).times
            assert len(t) == len(targets) > 0
            resid = cumulative_intensity(model, params, 2.0, t) - targets
            rel = np.abs(resid) / (_hazard(model, params, t) * t)
            assert rel.max() <= 1e-12, (seed, rel.max())

    def test_unconverged_events_are_loud(self, monkeypatch):
        # a slope 100 times too steep makes every Newton step 1% of the way
        # to the root, so the round cap is reached with events still moving.
        # The residual integrates the densities without the hazard, so the
        # root stays where it was.
        real = nhpp._hazard
        monkeypatch.setattr(
            nhpp, "_hazard", lambda model, params, t: 100.0 * real(model, params, t)
        )
        with pytest.raises(DomainError, match="unconverged"):
            simulate(RH_SQRT, NEAR_PNT, 1e4, seed=3)

    def test_event_ceiling(self):
        # the expected count is checked before any draw: 1e300 would ask
        # for an array no machine holds
        with pytest.raises(ResourceError, match="ceiling"):
            simulate(RH_SQRT, NEAR_PNT, 1e300, seed=0)
        big = IntensityParams(NHPP_EVENT_CEILING / Li(1e4) * 1.001, 0.0)
        with pytest.raises(ResourceError):
            simulate(RH_SQRT, big, 1e4, seed=0)

    def test_mean_count_matches_intensity(self):
        total = cumulative_intensity(RH_SQRT, UNIT, 2.0, 1e5)
        counts = [len(simulate(RH_SQRT, UNIT, 1e5, seed=100 + r).times) for r in range(200)]
        se = math.sqrt(total / 200.0)
        assert abs(np.mean(counts) - total) <= 3.0 * se

    def test_empty_near_left_edge(self):
        stream = simulate(RH_SQRT, UNIT, 2.0 + 1e-7, seed=1)
        assert len(stream.times) == 0

    def test_disjoint_window_counts_uncorrelated(self):
        n_rep = 500
        a = np.empty(n_rep)
        b = np.empty(n_rep)
        for r in range(n_rep):
            s = simulate(RH_SQRT, NEAR_PNT, 3e4, seed=2000 + r)
            a[r] = s.count_up_to(1e4)
            b[r] = s.count_up_to(3e4) - s.count_up_to(2e4)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_counts_chi_square_against_poisson(self):
        n_rep = 500
        lam = cumulative_intensity(RH_SQRT, NEAR_PNT, 2.0, 1e4)
        counts = np.array(
            [len(simulate(RH_SQRT, NEAR_PNT, 1e4, seed=4000 + r).times) for r in range(n_rep)]
        )
        # bin the Poisson law into >= 5-expected cells
        lo, hi = int(lam - 5 * math.sqrt(lam)), int(lam + 5 * math.sqrt(lam))
        edges = [-np.inf]
        acc = poisson.cdf(lo, lam)
        last = lo
        for v in range(lo + 1, hi):
            if (poisson.cdf(v, lam) - acc) * n_rep >= 5.0:
                edges.append(v)
                acc = poisson.cdf(v, lam)
                last = v
        edges.append(np.inf)
        observed = np.histogram(counts, bins=np.array(edges) + 0.5)[0]
        cdf = poisson.cdf(np.array(edges[1:-1]) , lam)
        probs = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        _, p_value = chisquare(observed, probs * n_rep)
        assert p_value > 0.01


class TestBlockedInversion:
    """``simulate`` inverts blocks of :data:`nhpp._EVENT_BLOCK` events; the
    one-array inversion it replaced (``tests/nhpp_reference.py``) must give
    the same times to the bit."""

    MODELS = [RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT]

    def assert_same_draw(self, model, params, horizon, seed):
        expected = nhpp_reference.simulate_times(model, params, horizon, seed)
        got = simulate(model, params, horizon, seed).times
        assert got.tobytes() == expected.tobytes(), (model.label, params, horizon, seed)
        return len(got)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize("beta", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("horizon", [10.0, 1e3, 1e6], ids=["10", "1e3", "1e6"])
    def test_matches_one_array_inversion(self, model, beta, horizon):
        for seed in range(3):
            self.assert_same_draw(model, IntensityParams(1.0, beta), horizon, seed)

    def test_matches_without_hermite_slopes(self):
        # under X_OVER_LOG at beta 2.259 the hazard at 2 is negative, so the
        # first cells start linearly
        for horizon in (10.0, 1e4):
            for seed in range(3):
                assert self.assert_same_draw(X_OVER_LOG, IntensityParams(1.0, 2.259), horizon, seed)

    def test_matches_on_wide_cells(self):
        for seed in range(3):
            assert self.assert_same_draw(RH_SQRT, IntensityParams(1e-295, 0.0), 1e300, seed) > 100

    @pytest.mark.parametrize("block", [7, nhpp._EVENT_BLOCK])
    @pytest.mark.parametrize("scale", [0.4, 3.0])
    def test_matches_over_many_rounds(self, scale, block, monkeypatch):
        # from the Hermite start a second round moves no event by an ulp, so
        # the draws above check only the first.  A hazard off by a constant
        # factor, in the start's slopes and the Newton step alike, takes every
        # event through 13-32 rounds; at 0.4 the steps overshoot out of their
        # brackets, so the bisection runs too
        real = nhpp._hazard

        def off(model, params, t):
            return scale * real(model, params, t)

        monkeypatch.setattr(nhpp, "_hazard", off)
        monkeypatch.setattr(nhpp_reference, "_hazard", off)
        monkeypatch.setattr(nhpp, "_EVENT_BLOCK", block)
        for model in (RH_SQRT, MT):
            assert self.assert_same_draw(model, NEAR_PNT, 1e4, 1) > 1000

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_edges_everywhere(self, block, monkeypatch):
        # blocks of 1 and 7 events put a block edge between every pair of
        # events, or at every residue mod 7, so no edge is special
        monkeypatch.setattr(nhpp, "_EVENT_BLOCK", block)
        drawn = 0
        for model in self.MODELS:
            for beta in (0.0, 0.01, 1.0):
                for horizon in (10.0, 1e3):
                    for seed in range(3):
                        drawn += self.assert_same_draw(
                            model, IntensityParams(1.0, beta), horizon, seed
                        )
        assert drawn > 100 * block

    def test_unsorted_roots_are_sorted(self, monkeypatch):
        # the roots of sorted targets come out sorted in every draw above, so
        # only roots out of order show that the final sort runs
        real = nhpp._invert_block
        monkeypatch.setattr(nhpp, "_invert_block", lambda *args: real(*args)[::-1])
        assert self.assert_same_draw(RH_SQRT, NEAR_PNT, 1e4, 0) > 1

    def test_draw_targets_over_several_chunks(self):
        # a draw of unit-rate exponentials overshoots its first chunk of
        # total + 4 sqrt(total) but for about 3e-5 of seeds; exponentials a
        # tenth as long take several chunks every time
        class Short:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def exponential(self, size):
                return 0.1 * self.rng.exponential(size=size)

        for total in (30.0, 1e4):
            for seed in range(5):
                got = _draw_targets(Short(seed), total)
                expected = nhpp_reference.draw_targets(Short(seed), total)
                assert got.tobytes() == expected.tobytes()
                assert len(got) > 5 * total

    def test_memory_per_event(self):
        # the whole-draw arrays are the targets, their cells and the output
        # (24 B/event); one block's Newton temporaries are a fixed cost.  The
        # one-array inversion peaked at 104-120 B/event here, the blocked one
        # at 27
        params = IntensityParams(1.0, 1.0)
        tracemalloc.start()
        try:
            events = len(simulate(RH_SQRT, params, 1e7, seed=1).times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events == 717_731
        assert peak <= 48 * events, peak / events


class TestThinningOracle:
    """Lewis & Shedler (1979) thinning draws the same process without
    inverting Lambda: homogeneous candidates at the maximum hazard on
    [2, horizon], each kept with probability lambda(t) / lambda_max.  The
    densities are written out here, apart from ``specialfn``."""

    HORIZON = 1e4
    REPS = 200
    LEVEL = 0.01  # significance of every comparison, fixed in advance
    DENSITY = {
        "rh-sqrt": lambda t: (np.log(t) + 2.0) / (2.0 * np.sqrt(t)),
        "x-over-log": lambda t: (np.log(t) - 1.0) / np.log(t) ** 2,
    }

    def hazard(self, model, t):
        return UNIT.alpha / np.log(t) + UNIT.beta * self.DENSITY[model.label](t)

    @pytest.mark.parametrize("model", [RH_SQRT, X_OVER_LOG], ids=lambda m: m.label)
    def test_time_change_matches_thinning(self, model):
        # X_OVER_LOG's density is negative below e, where the hazard dips;
        # 1% above the maximum on a fine grid bounds the hazard between nodes
        grid = np.geomspace(2.0, self.HORIZON, 100_001)
        lam_max = 1.01 * float(self.hazard(model, grid).max())
        rng = np.random.default_rng(1979)
        by_thinning = []
        for _ in range(self.REPS):
            n = rng.poisson(lam_max * (self.HORIZON - 2.0))
            t = rng.uniform(2.0, self.HORIZON, n)
            by_thinning.append(t[rng.uniform(0.0, lam_max, n) < self.hazard(model, t)])
        by_thinning = np.concatenate(by_thinning)
        by_inversion = np.concatenate(
            [simulate(model, UNIT, self.HORIZON, seed=7000 + r).times for r in range(self.REPS)]
        )
        n_inv, n_thin = len(by_inversion), len(by_thinning)
        assert binomtest(n_inv, n_inv + n_thin, 0.5).pvalue > self.LEVEL, (n_inv, n_thin)
        assert ks_2samp(by_inversion, by_thinning).pvalue > self.LEVEL


class TestRatioChecks:
    def test_single_realization_band(self):
        stream = simulate(RH_SQRT, NEAR_PNT, 1e6, seed=42)
        [(_, ratio)] = pnt_ratio_check(stream, [1e6])
        assert 0.9 <= ratio <= 1.2

    def test_trend_toward_one(self):
        grid = [1e4, 1e5, 1e6]
        ratios = np.zeros(3)
        for r in range(10):
            stream = simulate(RH_SQRT, NEAR_PNT, 1e6, seed=300 + r)
            ratios += [v for _, v in pnt_ratio_check(stream, grid)]
        ratios /= 10.0
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_alpha_two_doubles_the_ratio(self):
        stream = simulate(RH_SQRT, IntensityParams(2.0, 0.01), 1e6, seed=77)
        [(_, ratio)] = pnt_ratio_check(stream, [1e6])
        assert 1.9 <= ratio <= 2.5

    def test_nth_event_band(self):
        stream = simulate(RH_SQRT, NEAR_PNT, 1e6, seed=11)
        [(_, ratio)] = nth_event_check(stream, [50_000])
        assert 0.8 <= ratio <= 1.2

    def test_nth_event_tracks_inverse_intensity(self):
        # Z_n / (n log n) approaches 1 only logarithmically; at reachable n
        # the informative check is that the simulated ratios sit on the
        # deterministic inverse-intensity curve (values frozen from a
        # root-finding oracle on the cumulative intensity).
        oracle = {100: 1.0588, 1000: 1.1151, 10_000: 1.1276, 40_000: 1.1272}
        tolerance = {100: 0.13, 1000: 0.045, 10_000: 0.02, 40_000: 0.02}
        grid = sorted(oracle)
        acc = np.zeros(len(grid))
        for r in range(10):
            stream = simulate(RH_SQRT, NEAR_PNT, 1e6, seed=500 + r)
            rows = nth_event_check(stream, grid)
            acc += [v for _, v in rows]
            for n, ratio in rows:
                assert ratio > 0.5, (n, ratio)
        acc /= 10.0
        for n, mean_ratio in zip(grid, acc):
            assert mean_ratio == pytest.approx(oracle[n], abs=tolerance[n]), n

    def test_gap_window_mean_near_one(self):
        theta, x = 0.75, 1e5
        horizon = x + x**theta + 1
        vals = [
            gap_window_check(simulate(RH_SQRT, NEAR_PNT, horizon, seed=900 + r), theta, [x])[0][1]
            for r in range(100)
        ]
        se = np.std(vals, ddof=1) / 10.0
        assert abs(np.mean(vals) - 1.0) <= 3.0 * se

    def test_gap_window_beta_zero_same_limit(self):
        theta, x = 0.75, 1e5
        horizon = x + x**theta + 1
        means = []
        for params, base in ((IntensityParams(1.0, 0.0), 1300), (NEAR_PNT, 1500)):
            vals = [
                gap_window_check(simulate(RH_SQRT, params, horizon, seed=base + r), theta, [x])[0][1]
                for r in range(60)
            ]
            means.append(np.mean(vals))
        assert abs(means[0] - means[1]) < 0.02

    def test_theta_boundary(self):
        stream = simulate(RH_SQRT, UNIT, 1e4, seed=2)
        gap_window_check(stream, 0.51, [1e3])
        with pytest.raises(DomainError):
            gap_window_check(stream, 0.5, [1e3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_pnt_ratio_refuses_non_finite(self, bad):
        stream = simulate(RH_SQRT, UNIT, 1e4, seed=2)
        [(x, ratio)] = pnt_ratio_check(stream, [1e3])
        assert type(x) is float and type(ratio) is float
        with pytest.raises(DomainError, match="finite"):
            pnt_ratio_check(stream, [1e3, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nth_event_refuses_non_finite(self, bad):
        stream = simulate(RH_SQRT, UNIT, 1e4, seed=2)
        with pytest.raises(DomainError, match="finite"):
            nth_event_check(stream, [10, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_gap_window_refuses_non_finite(self, bad):
        stream = simulate(RH_SQRT, UNIT, 1e4, seed=2)
        with pytest.raises(DomainError, match="finite"):
            gap_window_check(stream, 0.75, [1e3, bad])
