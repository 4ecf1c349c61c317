import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from prime_oracle.errors import DomainError
from prime_oracle.numtheory import is_prime_u64
from prime_oracle.specialfn import (
    MT,
    RH_SQRT,
    X_OVER_LOG,
    error_density,
    error_integral_raw,
    rh_eps,
)
from prime_oracle.tmcmc import (
    Z_MAX,
    HuntTarget,
    TargetKind,
    TmcmcChain,
    TmcmcConfig,
    initial_z,
    log_target,
    run,
    run_steps,
)

P0 = 1_000_003  # prime
K0 = 87_846  # k log k ~ p0
ALL_MODELS = [RH_SQRT, rh_eps(0.1), X_OVER_LOG, MT]


def standard_normal_log_density(z: float) -> float:
    return -0.5 * z * z


class TestConfig:
    def test_defaults(self):
        cfg = TmcmcConfig()
        assert cfg.p_add == 0.1 and cfg.p_mult == 0.9
        assert cfg.add_scale == 0.5 and cfg.mult_scale == 0.3

    def test_validation(self):
        with pytest.raises(DomainError):
            TmcmcConfig(p_add=0.3, p_mult=0.8)
        with pytest.raises(DomainError):
            TmcmcConfig(add_scale=0.0)


class TestLogTarget:
    def test_mersenne_minus_general_is_exp_term(self):
        # exact identity; the absolute tolerance covers cancellation of the
        # ~1e6-magnitude log densities being subtracted
        gen = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        mer = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        for z in (-2.0, 0.5, 3.0, 8.0):
            diff = log_target(mer, z) - log_target(gen, z)
            assert diff == pytest.approx(-math.exp(z) * math.log(2.0), abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_general_h2_uses_error_density(self, model):
        h1 = HuntTarget(TargetKind.GENERAL_H1, P0, K0, model)
        h2 = HuntTarget(TargetKind.GENERAL_H2, P0, K0, model)
        z = 4.0
        u = math.exp(z) + P0
        expected = math.log(error_density(model, u) * math.log(u))
        assert log_target(h2, z) - log_target(h1, z) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_derivative_matches_analytic_composition(self, model):
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0, model)
        z = 5.0
        ez = math.exp(z)
        u = ez + P0
        lu = math.log(u)
        f_over_raw = error_density(model, u) / error_integral_raw(model, u)
        analytic = 1.0 + ez * (
            -1.0 / (u * lu) - K0 * (1.0 / u + f_over_raw - 1.0 / (u * lu))
        )
        # the target is ~2e6 here, so h = 1e-6 leaves ~1e-5 rounding noise in
        # the difference quotient; at h = 1e-4 it is below 1e-7 for every model
        h = 1e-4
        fd = (log_target(target, z + h) - log_target(target, z - h)) / (2.0 * h)
        assert fd == pytest.approx(analytic, rel=1e-5)

    def test_mersenne_decreasing_past_mode(self):
        target = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        zs = np.linspace(1.0, 12.0, 60)
        vals = [log_target(target, z) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_out_of_range_is_loud(self):
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        with pytest.raises(DomainError):
            log_target(target, 701.0)

    def test_target_validation(self):
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H1, 1_000_004, K0)  # composite p0
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H1, P0, 0)
        # the MT density is negative on (2, 2.57): H2 needs p0 >= 3
        HuntTarget(TargetKind.GENERAL_H1, 2, 1, MT)
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H2, 2, 1, MT)

    def test_initial_state(self):
        assert initial_z(HuntTarget(TargetKind.GENERAL_H1, P0, K0)) == pytest.approx(
            math.log(math.log(P0))
        )


class TestKernel:
    def test_sure_acceptance_when_flat(self):
        # equal log densities and unit Jacobian: the additive move on a flat
        # target must always be accepted
        chain = TmcmcChain(0.0, seed=1)
        cfg = TmcmcConfig(p_add=1.0, p_mult=0.0, add_scale=0.7, mult_scale=0.1)
        for _ in range(500):
            list(run_steps(chain, lambda z: 1.25, cfg, 1))
        assert chain.accepts_add == 500
        assert chain.auto_rejects == 0

    def test_detailed_balance_on_lattice(self):
        # additive-only kernel on a 5-point lattice: the transition matrix
        # implied by the kernel's acceptance rule must satisfy pi_i P_ij =
        # pi_j P_ji to 1e-12
        delta = 0.5
        lattice = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        log_pi = np.array([standard_normal_log_density(z) for z in lattice])
        pi = np.exp(log_pi)
        n = len(lattice)
        P = np.zeros((n, n))
        for i in range(n):
            for sign in (+1, -1):
                j = i + sign
                if 0 <= j < n:
                    P[i, j] = 0.5 * min(1.0, math.exp(log_pi[j] - log_pi[i]))
            P[i, i] = 1.0 - P[i].sum()
        flows = pi[:, None] * P
        np.testing.assert_allclose(flows, flows.T, atol=1e-12)

        # the same probabilities are realized by the kernel: check empirically
        cfg = TmcmcConfig(p_add=1.0, p_mult=0.0, add_scale=delta, mult_scale=0.1)
        target = lambda z: standard_normal_log_density(z) if abs(z) <= 1.0 + 1e-9 else -math.inf
        counts = np.zeros((n, n))
        trials = 4000
        for i in (0, 2, 4):
            rng_chain = TmcmcChain(lattice[i], seed=50 + i)
            for _ in range(trials):
                rng_chain.z = lattice[i]
                rng_chain.log_density = None
                list(run_steps(rng_chain, target, cfg, 1))
                j = int(np.argmin(np.abs(lattice - rng_chain.z)))
                counts[i, j] += 1
        freq = counts / trials
        for i in (0, 2, 4):
            for j in range(n):
                se = math.sqrt(max(P[i, j] * (1 - P[i, j]), 1e-4) / trials)
                assert abs(freq[i, j] - P[i, j]) <= 4 * se, (i, j)

    def test_toy_chain_mean_and_ks(self):
        cfg = TmcmcConfig(seed=2024)
        chain = TmcmcChain(0.3, seed=cfg.seed)
        samples = np.empty(10**6)
        for i, (_, z, _) in enumerate(run_steps(chain, standard_normal_log_density, cfg, 10**6)):
            samples[i] = z
        assert abs(samples.mean()) < 0.02
        sorted_z = np.sort(samples)
        grid = np.arange(1, len(sorted_z) + 1) / len(sorted_z)
        cdf = norm.cdf(sorted_z)
        ks = max(np.abs(grid - cdf).max(), np.abs(grid - 1 / len(sorted_z) - cdf).max())
        assert ks <= 0.01

    def test_invariance_under_kernel(self):
        # 1e4 exact draws, 10 kernel applications each (1e5 total): the
        # empirical mean must stay within 3 standard errors of the target's
        rng = np.random.default_rng(99)
        points = rng.standard_normal(10_000)
        cfg = TmcmcConfig(seed=7)
        out = np.empty_like(points)
        for idx, z0 in enumerate(points):
            chain = TmcmcChain(float(z0), seed=10_000 + idx)
            for _ in range(10):
                list(run_steps(chain, standard_normal_log_density, cfg, 1))
            out[idx] = chain.z
        se = 1.0 / math.sqrt(len(points))
        assert abs(out.mean()) <= 3 * se

    def test_auto_reject_counted(self):
        chain = TmcmcChain(Z_MAX - 0.1, seed=3)
        cfg = TmcmcConfig(p_add=1.0, p_mult=0.0, add_scale=5.0, mult_scale=0.1)
        flat = lambda z: 0.0
        for _ in range(200):
            list(run_steps(chain, flat, cfg, 1))
        assert chain.auto_rejects > 0


class TestReproducibility:
    def test_bit_identical_streams(self):
        target = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        cfg = TmcmcConfig(seed=5)
        a = list(run(target, cfg, 5000))
        b = list(run(target, cfg, 5000))
        assert a == b

    def test_run_equals_step_loop(self):
        # one run of 3000 equals 3000 one-step run_steps calls resuming the
        # same chain: the draw protocol carries over from call to call
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        cfg = TmcmcConfig(seed=9)
        via_run = list(run(target, cfg, 3000))
        chain = TmcmcChain(initial_z(target), cfg.seed)
        via_step = []
        for _ in range(3000):
            via_step.extend(run_steps(chain, target, cfg, 1))
        assert via_run == via_step

    def test_snapshot_resume(self):
        target = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        cfg = TmcmcConfig(seed=31)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        first = [z for _, z, _ in run_steps(chain, target, cfg, 2000)]
        snap = chain.snapshot()
        rest = [z for _, z, _ in run_steps(chain, target, cfg, 2000)]

        resumed = TmcmcChain.from_snapshot(snap)
        rest_resumed = [z for _, z, _ in run_steps(resumed, target, cfg, 2000)]
        assert rest == rest_resumed
        assert resumed.iteration == 4000

        from_json = TmcmcChain.from_snapshot(json.loads(json.dumps(snap)))
        assert [z for _, z, _ in run_steps(from_json, target, cfg, 2000)] == rest
        assert from_json.snapshot() == resumed.snapshot()

        whole_chain = TmcmcChain(initial_z(target), cfg.seed)
        whole = [z for _, z, _ in run_steps(whole_chain, target, cfg, 4000)]
        assert whole == first + rest

    def test_visited_integer_sets_identical(self):
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        cfg = TmcmcConfig(seed=77)
        set_a = {int(math.exp(z)) + P0 for _, z, _ in run(target, cfg, 20_000)}
        set_b = {int(math.exp(z)) + P0 for _, z, _ in run(target, cfg, 20_000)}
        assert set_a == set_b


class TestHuntBehavior:
    def test_mersenne_acceptance_rate_band(self):
        # pilot-tuned default scales on the Mersenne target: the observed
        # rate (~0.85) is frozen here with a generous band
        target = HuntTarget(TargetKind.MERSENNE_H1, 999983, 87846)
        cfg = TmcmcConfig(seed=4)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        for _ in run_steps(chain, target, cfg, 100_000):
            pass
        assert 0.05 < chain.accept_rate < 0.95

    def test_chain_finds_primes_above_p0(self):
        target = HuntTarget(TargetKind.GENERAL_H1, 999983, 87846)
        cfg = TmcmcConfig(seed=42)
        visited = {int(math.exp(z)) + 999983 for _, z, _ in run(target, cfg, 100_000)}
        primes = {v for v in visited if v > 999983 and is_prime_u64(v)}
        assert primes
        assert all(p > 999983 for p in primes)


class TestPerformance:
    def test_ten_million_iterations_under_a_minute(self):
        import time

        target = HuntTarget(TargetKind.MERSENNE_H1, 140000053, 8_800_000)
        cfg = TmcmcConfig(seed=1)
        t0 = time.perf_counter()
        n = 0
        for _ in run(target, cfg, 10_000_000):
            n += 1
        elapsed = time.perf_counter() - t0
        assert n == 10_000_000
        assert elapsed < 60.0, f"10M iterations took {elapsed:.1f}s"
