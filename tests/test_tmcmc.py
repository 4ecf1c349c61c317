import json
import math
import pathlib

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
    error_forms,
    error_integral_raw,
    rh_eps,
)
from prime_oracle.tmcmc import (
    MOVE_COUNTERS,
    Z_MAX,
    HuntTarget,
    TargetKind,
    TmcmcChain,
    TmcmcConfig,
    initial_z,
    make_log_target,
    run_steps,
)

from prime_oracle.pipeline import solve_k

from collect import run_steps as reference_steps

DATA_DIR = pathlib.Path(__file__).parent / "data"
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("name", ["p_add", "p_mult", "add_scale", "mult_scale"])
    def test_non_finite_refused(self, name, value):
        # a nan mult_scale used to pass and stall every multiplicative move
        with pytest.raises(DomainError, match=name):
            TmcmcConfig(**{name: value})


class TestLogTarget:
    def test_mersenne_minus_general_is_exp_term(self):
        # exact identity; the absolute tolerance covers cancellation of the
        # ~1e6-magnitude log densities being subtracted
        gen = make_log_target(HuntTarget(TargetKind.GENERAL_H1, P0, K0))
        mer = make_log_target(HuntTarget(TargetKind.MERSENNE_H1, P0, K0))
        for z in (-2.0, 0.5, 3.0, 8.0):
            diff = mer(z) - gen(z)
            assert diff == pytest.approx(-math.exp(z) * math.log(2.0), abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_general_h2_uses_error_density(self, model):
        h1 = make_log_target(HuntTarget(TargetKind.GENERAL_H1, P0, K0, model))
        h2 = make_log_target(HuntTarget(TargetKind.GENERAL_H2, P0, K0, model))
        z = 4.0
        u = math.exp(z) + P0
        expected = math.log(error_density(model, u) * math.log(u))
        assert h2(z) - h1(z) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_derivative_matches_analytic_composition(self, model):
        log_t = make_log_target(HuntTarget(TargetKind.GENERAL_H1, P0, K0, model))
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
        fd = (log_t(z + h) - log_t(z - h)) / (2.0 * h)
        assert fd == pytest.approx(analytic, rel=1e-5)

    def test_mersenne_decreasing_past_mode(self):
        log_t = make_log_target(HuntTarget(TargetKind.MERSENNE_H1, P0, K0))
        zs = np.linspace(1.0, 12.0, 60)
        vals = [log_t(z) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_target_validation(self):
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H1, 1_000_004, K0)  # composite p0
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H1, P0, 0)
        # a prime past 2**64: every floor(exp(z)) + p0 would leave uint64
        with pytest.raises(DomainError, match="below 2"):
            HuntTarget(TargetKind.GENERAL_H1, (1 << 64) + 13, K0)
        # the MT density is negative on (2, 2.57): H2 needs p0 >= 3
        HuntTarget(TargetKind.GENERAL_H1, 2, 1, MT)
        with pytest.raises(DomainError):
            HuntTarget(TargetKind.GENERAL_H2, 2, 1, MT)

    @pytest.mark.parametrize("p0", [999_983, 140_000_041])
    def test_mt_float_path_within_two_ulps_of_the_array_path(self, p0):
        # The log target takes the MT form on Python floats, where ``** 0.5``
        # calls ``pow``, while an array takes ``sqrt``, and ``math.log`` and
        # ``np.log`` may round apart.  Over 1e5 seeded points near p0, 21
        # (p0 = 999983) and 29 (1.4e8) of the two log F_raw differed, by at
        # most 2 ulps.
        log_raw, _ = error_forms(MT)
        zs = np.random.default_rng(0).uniform(0.0, math.log(1e4), 10**5).tolist()
        us = [math.exp(z) + p0 for z in zs]  # as the target forms them
        lus = [math.log(u) for u in us]
        floats = np.array([log_raw(lu, math.log(lu)) for lu in lus])
        lg = np.log(np.array(us))
        arrays = log_raw(lg, np.log(lg))
        ulps = np.abs(floats.view(np.int64) - arrays.view(np.int64))
        assert ulps.max() <= 2, (np.count_nonzero(ulps), ulps.max())
        # and the target is those floats, term for term
        k = solve_k(p0)
        log_t = make_log_target(HuntTarget(TargetKind.GENERAL_H1, p0, k, MT))
        for z, lu in list(zip(zs, lus))[:1000]:
            llu = math.log(lu)
            assert log_t(z) == -llu - k * (lu + log_raw(lu, llu) - llu) + z

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
            run_steps(chain, lambda z: 1.25, cfg, 1)
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
                run_steps(rng_chain, target, cfg, 1)
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
        samples = np.array(run_steps(chain, standard_normal_log_density, cfg, 10**6))
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
                run_steps(chain, standard_normal_log_density, cfg, 1)
            out[idx] = chain.z
        se = 1.0 / math.sqrt(len(points))
        assert abs(out.mean()) <= 3 * se

    def test_auto_reject_counted(self):
        chain = TmcmcChain(Z_MAX - 0.1, seed=3)
        cfg = TmcmcConfig(p_add=1.0, p_mult=0.0, add_scale=5.0, mult_scale=0.1)
        flat = lambda z: 0.0
        for _ in range(200):
            run_steps(chain, flat, cfg, 1)
        assert chain.auto_rejects > 0


class TestReproducibility:
    def test_bit_identical_streams(self):
        target = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        cfg = TmcmcConfig(seed=5)
        chain_a = TmcmcChain(initial_z(target), cfg.seed)
        chain_b = TmcmcChain(initial_z(target), cfg.seed)
        assert run_steps(chain_a, target, cfg, 5000) == run_steps(chain_b, target, cfg, 5000)
        assert chain_a.snapshot() == chain_b.snapshot()

    def test_run_equals_step_loop(self):
        # one run of 3000 equals 3000 one-step run_steps calls resuming the
        # same chain: the draw protocol carries over from call to call
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        cfg = TmcmcConfig(seed=9)
        whole = TmcmcChain(initial_z(target), cfg.seed)
        via_run = run_steps(whole, target, cfg, 3000)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        via_step = []
        for _ in range(3000):
            via_step.extend(run_steps(chain, target, cfg, 1))
        assert via_run == via_step
        # the move counters, running log density and RNG carry over too
        assert chain.snapshot() == whole.snapshot()

    def test_snapshot_resume(self):
        target = HuntTarget(TargetKind.MERSENNE_H1, P0, K0)
        cfg = TmcmcConfig(seed=31)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        first = run_steps(chain, target, cfg, 2000)
        snap = chain.snapshot()
        rest = run_steps(chain, target, cfg, 2000)

        resumed = TmcmcChain.from_snapshot(snap)
        rest_resumed = run_steps(resumed, target, cfg, 2000)
        assert rest == rest_resumed
        assert resumed.iteration == 4000
        assert resumed.snapshot() == chain.snapshot()

        from_json = TmcmcChain.from_snapshot(json.loads(json.dumps(snap)))
        assert run_steps(from_json, target, cfg, 2000) == rest
        assert from_json.snapshot() == resumed.snapshot()

        whole_chain = TmcmcChain(initial_z(target), cfg.seed)
        whole = run_steps(whole_chain, target, cfg, 4000)
        assert whole == first + rest
        assert whole_chain.snapshot() == chain.snapshot()

    def test_snapshot_keys_pinned(self):
        assert list(TmcmcChain(2.5, 7).snapshot()) == [
            "z", "iteration", "log_density", "proposals_add", "accepts_add",
            "proposals_mult", "accepts_mult", "auto_rejects", "rng_state",
        ]
        assert tuple(TmcmcChain(2.5, 7).snapshot())[3:8] == MOVE_COUNTERS

    def test_stored_snapshot_resumes(self):
        # written as JSON after 2000 steps of this chain, before the chain
        # state became a dataclass; it must keep loading and resuming
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        cfg = TmcmcConfig(seed=31)
        stored = json.loads((DATA_DIR / "chain_snapshot.json").read_text())
        assert list(stored) == list(TmcmcChain(0.0).snapshot())
        resumed = TmcmcChain.from_snapshot(stored)
        assert json.loads(json.dumps(resumed.snapshot())) == stored
        whole = TmcmcChain(initial_z(target), cfg.seed)
        states = run_steps(whole, target, cfg, 4000)
        assert run_steps(resumed, target, cfg, 2000) == states[2000:]
        assert resumed.snapshot() == whole.snapshot()

    @pytest.mark.parametrize("key", list(TmcmcChain(0.0).snapshot()))
    def test_snapshot_missing_key_refused(self, key):
        # a missing counter must not silently restart at 0
        state = TmcmcChain(1.5, 3).snapshot()
        del state[key]
        with pytest.raises(KeyError, match=key):
            TmcmcChain.from_snapshot(state)

    def test_visited_integer_sets_identical(self):
        target = HuntTarget(TargetKind.GENERAL_H1, P0, K0)
        cfg = TmcmcConfig(seed=77)
        set_a, set_b = (
            {int(math.exp(z)) + P0
             for z in run_steps(TmcmcChain(initial_z(target), cfg.seed), target, cfg, 20_000)}
            for _ in range(2)
        )
        assert set_a == set_b


class TestReferenceKernel:
    """The kernel against the loop that evaluates the target at every proposal."""

    @staticmethod
    def counted(target):
        log_t = make_log_target(target)
        calls = [0]

        def counted_log_t(z):
            calls[0] += 1
            return log_t(z)

        return counted_log_t, calls

    @pytest.mark.parametrize("p0", [999_983, 140_000_053])
    @pytest.mark.parametrize("kind", list(TargetKind), ids=lambda k: k.value)
    def test_identical_with_fewer_target_calls(self, kind, p0):
        target = HuntTarget(kind, p0, K0)
        cfg = TmcmcConfig(seed=61)
        fast, fast_calls = self.counted(target)
        slow, slow_calls = self.counted(target)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        ref = TmcmcChain(initial_z(target), cfg.seed)
        # two calls, so the second starts from a stored running log density
        for n in (30_000, 20_001):
            assert run_steps(chain, fast, cfg, n) == reference_steps(ref, slow, cfg, n)
            assert chain.snapshot() == ref.snapshot()
        # a quarter of the proposals land back on the state the chain just left
        assert fast_calls[0] < 0.8 * slow_calls[0]

    def test_identical_on_toy_target_with_auto_rejects(self):
        cfg = TmcmcConfig(p_add=0.5, p_mult=0.5, add_scale=5.0, mult_scale=0.5, seed=62)
        flat_tail = lambda z: -abs(z) * 1e-3
        chain = TmcmcChain(Z_MAX - 1.0, seed=62)
        ref = TmcmcChain(Z_MAX - 1.0, seed=62)
        assert run_steps(chain, flat_tail, cfg, 5000) == reference_steps(ref, flat_tail, cfg, 5000)
        assert chain.snapshot() == ref.snapshot()
        assert chain.auto_rejects > 0

    def test_reuses_the_exact_target_value(self):
        # on an O(1) target the running log density is an ulp off the exact
        # log target at about a third of the states, and the final running
        # value shows which of the two a reused evaluation took
        cfg = TmcmcConfig(seed=63)
        for seed in range(300):
            chain = TmcmcChain(0.3, seed=seed)
            ref = TmcmcChain(0.3, seed=seed)
            zs = run_steps(chain, standard_normal_log_density, cfg, 50)
            assert zs == reference_steps(ref, standard_normal_log_density, cfg, 50)
            assert chain.snapshot() == ref.snapshot(), seed


class TestHuntBehavior:
    def test_mersenne_acceptance_rate_band(self):
        # pilot-tuned default scales on the Mersenne target: the observed
        # rate (~0.85) is frozen here with a generous band
        target = HuntTarget(TargetKind.MERSENNE_H1, 999983, 87846)
        cfg = TmcmcConfig(seed=4)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        run_steps(chain, target, cfg, 100_000)
        assert 0.05 < chain.accept_rate < 0.95

    def test_chain_finds_primes_above_p0(self):
        target = HuntTarget(TargetKind.GENERAL_H1, 999983, 87846)
        cfg = TmcmcConfig(seed=42)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        visited = {int(math.exp(z)) + 999983 for z in run_steps(chain, target, cfg, 100_000)}
        primes = {v for v in visited if v > 999983 and is_prime_u64(v)}
        assert primes
        assert all(p > 999983 for p in primes)


class TestPerformance:
    def test_ten_million_iterations_under_a_minute(self):
        import time

        target = HuntTarget(TargetKind.MERSENNE_H1, 140000053, 8_800_000)
        cfg = TmcmcConfig(seed=1)
        chain = TmcmcChain(initial_z(target), cfg.seed)
        t0 = time.perf_counter()
        n = 0
        for _ in range(100):  # in blocks, as a hunt runs it: one list of 1e7 states is ~300 MB
            n += len(run_steps(chain, target, cfg, 100_000))
        elapsed = time.perf_counter() - t0
        assert n == chain.iteration == 10_000_000
        assert elapsed < 60.0, f"10M iterations took {elapsed:.1f}s"
