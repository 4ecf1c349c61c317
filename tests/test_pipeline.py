import json
import math
import multiprocessing
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from prime_oracle import numtheory, pipeline, tmcmc
from prime_oracle.errors import DomainError
from prime_oracle.numtheory import is_prime_u64, mersenne_digit_count, primes_up_to
from prime_oracle.pipeline import (
    FILE_HEADER,
    CandidateRecord,
    HuntPlan,
    RecordKind,
    collect_candidates,
    hunt_general,
    hunt_mersenne,
    load_records,
    mersenne_small_factor,
    solve_k,
    trial_factor_batch,
    verify_file,
    write_records,
)
from prime_oracle.tmcmc import HuntTarget, TargetKind, TmcmcChain, TmcmcConfig, run_steps

from collect import collect_candidates as oracle_collect
from test_numtheory import trial_division_is_prime
from trial_factor import mersenne_small_factor as scalar_small_factor
from trial_factor import trial_factor_batch as scalar_batch

P0 = 999_983  # largest prime below 1e6
DATA_DIR = pathlib.Path(__file__).parent / "data"
ODD_PRIMES_TO_3000 = primes_up_to(3000).primes[1:].tolist()
KINDS = list(TargetKind)
U64_MAX_PRIME = (1 << 64) - 59


def _target(kind, p0=P0):
    return HuntTarget(kind, p0, solve_k(p0))


class TestSolveK:
    def test_exact_inverse(self):
        assert solve_k(10.0 * math.log(10.0)) == 10

    def test_large_target(self):
        k = solve_k(1.4e8)
        assert abs(k * math.log(k) - 1.4e8) <= 0.005 * 1.4e8
        assert k == pytest.approx(8.8e6, rel=0.01)

    def test_monotone(self):
        values = [solve_k(p) for p in (10, 100, 1e3, 1e5, 1e7, 1e9)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_k(9.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_refused(self, bad):
        with pytest.raises(DomainError, match="finite"):
            solve_k(bad)


@pytest.fixture(scope="module")
def general_hunt(tmp_path_factory):
    out = tmp_path_factory.mktemp("hunt") / "records.jsonl"
    plan = HuntPlan(p0=P0, iterations=30_000, config=TmcmcConfig(seed=42), out_path=out)
    return hunt_general(plan), out, plan


TWIN_P0 = 1_000_037  # its next prime is the twin 1_000_039


@pytest.fixture(scope="module")
def mersenne_hunt():
    plan = HuntPlan(
        p0=TWIN_P0, iterations=100_000, burn_in=100_000, config=TmcmcConfig(seed=3)
    )
    return hunt_mersenne(plan)


class TestHuntGeneral:
    def test_records_are_prime_by_trial_division(self, general_hunt):
        records = general_hunt[0].records
        assert len(records) >= 1
        for rec in records:
            assert trial_division_is_prime(rec.value)
            assert rec.value > P0
            assert rec.kind is RecordKind.GENERAL_PRIME

    def test_provenance_fields(self, general_hunt):
        for rec in general_hunt[0].records:
            assert rec.p0 == P0
            assert rec.k == solve_k(P0)
            assert rec.iteration_found >= 1
            assert rec.target_kind in ("general-h1", "general-h2")

    def test_intersection_report(self, general_hunt):
        report = general_hunt[0].stats.intersection_report()
        assert "general-h1_count" in report and "general-h2_count" in report
        assert report["intersection_count"] <= min(
            report["general-h1_count"], report["general-h2_count"]
        )

    def test_dedup_idempotence(self, general_hunt):
        _, out, plan = general_hunt
        n_lines = len(load_records(out))
        again = hunt_general(plan)
        assert again.records == []
        assert len(load_records(out)) == n_lines

    def test_persisted_file_verifies(self, general_hunt):
        _, out, _ = general_hunt
        loaded = load_records(out)
        assert {r.value for r in loaded} == {r.value for r in general_hunt[0].records}


class TestHuntStats:
    def test_chain_counters_sum_both_chains(self, general_hunt):
        stats = general_hunt[0].stats
        chains = [
            collect_candidates(_target(kind), TmcmcConfig(seed=42 + offset), 30_000)
            for offset, kind in enumerate((TargetKind.GENERAL_H1, TargetKind.GENERAL_H2))
        ]
        for name in ("proposals_add", "accepts_add", "proposals_mult", "accepts_mult",
                     "auto_rejects"):
            assert getattr(stats, name) == sum(getattr(c.chain, name) for c in chains), name
        assert stats.skipped_small == sum(c.skipped_small for c in chains) > 0
        assert stats.proposals_add + stats.proposals_mult == stats.iterations == 60_000

    def test_summary_line(self):
        stats = pipeline.HuntStats(
            iterations=10, skipped_small=3, skipped_oversize=1, proposals_add=4,
            accepts_add=1, proposals_mult=6, accepts_mult=6, auto_rejects=2,
        )
        assert stats.summary() == (
            "chain: 10 iterations, accept rate add 0.250 mult 1.000, 2 auto-rejects; "
            "skipped 3 small, 1 oversize"
        )
        assert "add n/a mult n/a" in pipeline.HuntStats().summary()


class TestHuntGeneralRounds:
    def test_reseating_advances_p0(self):
        plan = HuntPlan(p0=P0, iterations=30_000, rounds=2, config=TmcmcConfig(seed=42))
        result = hunt_general(plan)
        p0s = {rec.p0 for rec in result.records}
        assert len(p0s) >= 2  # second round re-seated on a found prime
        assert max(p0s) > P0

    def test_burn_in_applies(self):
        plan = HuntPlan(
            p0=P0, iterations=30_000, burn_in=20_000, config=TmcmcConfig(seed=42)
        )
        result = hunt_general(plan)
        assert result.records
        assert all(rec.iteration_found > 20_000 for rec in result.records)
        assert result.stats.iterations == 2 * (20_000 + 30_000)


#: Runs a hunt too long to finish and prints the worker chain's pid once it starts.
KILLED_HUNT = r"""
import os
from prime_oracle import pipeline

pipeline.os.sched_getaffinity = lambda pid: {0, 1}
collect, caller = pipeline.collect_candidates, os.getpid()

def announced(*args):
    if os.getpid() != caller:
        print(os.getpid(), flush=True)
    return collect(*args)

pipeline.collect_candidates = announced
pipeline.hunt_general(pipeline.HuntPlan(p0=999_983, iterations=10**8))
"""


def _env_with_src():
    src = str(pathlib.Path(pipeline.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def _ended(pid):
    """Whether ``pid`` has exited: gone, or a zombie no one has reaped yet."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _children(pid):
    """The pids of ``pid``'s child processes, from every thread's ``children`` list."""
    tasks = pathlib.Path(f"/proc/{pid}/task")
    try:
        return [int(c) for task in tasks.iterdir() for c in (task / "children").read_text().split()]
    except FileNotFoundError:  # the process or one of its threads has just exited
        return []


@pytest.mark.skipif(sys.platform != "linux", reason="chains run in workers on Linux only")
class TestHuntChainsInWorkers:
    """A round's second chain runs in a forked worker when two CPUs are usable."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def _rounds(monkeypatch):
        """Whether each round had a pool, and its chains' final snapshots."""
        rounds = []
        collect_round = pipeline._collect_round

        def recorded(pool, *args):
            results = collect_round(pool, *args)
            rounds.append((pool is not None, [r.chain.snapshot() for r in results]))
            return results

        monkeypatch.setattr(pipeline, "_collect_round", recorded)
        return rounds

    def test_forked_matches_one_cpu(self, tmp_path, monkeypatch):
        first = tmp_path / "first.jsonl"
        hunt_general(HuntPlan(p0=P0, iterations=5000, config=TmcmcConfig(seed=8), out_path=first))
        outcomes = {}
        for cpus in (2, 1):
            out = tmp_path / f"cpus{cpus}.jsonl"
            out.write_bytes(first.read_bytes())
            self._cpus(monkeypatch, cpus)
            rounds = self._rounds(monkeypatch)
            plan = HuntPlan(p0=P0, iterations=20_000, rounds=2, config=TmcmcConfig(seed=9),
                            out_path=out)
            result = hunt_general(plan)
            assert [pooled for pooled, _ in rounds] == [cpus > 1] * 2
            outcomes[cpus] = (result.records, result.stats.summary(),
                              result.stats.intersection_report(),
                              [snaps for _, snaps in rounds], out.read_bytes())
        assert outcomes[2][0]  # the file held some primes; the hunt found others
        assert outcomes[2] == outcomes[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("refused", [TargetKind.GENERAL_H1, TargetKind.GENERAL_H2],
                             ids=["in-caller", "in-worker"])
    def test_chain_error_reaches_the_caller(self, refused, monkeypatch):
        def refusing(target):
            if target.kind is refused:
                raise DomainError(f"refused in process {os.getpid()}")
            return tmcmc.make_log_target(target)

        self._cpus(monkeypatch, 2)
        monkeypatch.setattr(pipeline, "make_log_target", refusing)
        with pytest.raises(DomainError, match=r"^refused in process \d+$") as caught:
            hunt_general(HuntPlan(p0=P0, iterations=2000, config=TmcmcConfig(seed=4)))
        assert type(caught.value) is DomainError
        pid = int(caught.value.args[0].rsplit(" ", 1)[1])
        assert (pid == os.getpid()) == (refused is TargetKind.GENERAL_H1)
        assert multiprocessing.active_children() == []

    def test_worker_dies_with_a_killed_caller(self):
        # a caller killed by SIGTERM never shuts its pool down
        with subprocess.Popen([sys.executable, "-c", KILLED_HUNT], env=_env_with_src(),
                              stdout=subprocess.PIPE, text=True) as done:
            try:
                worker = int(done.stdout.readline())
            finally:
                done.terminate()
        assert worker != done.pid
        assert done.returncode == -signal.SIGTERM
        deadline = time.monotonic() + 20
        while not _ended(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        ended = _ended(worker)
        if not ended:
            os.kill(worker, signal.SIGKILL)
        assert ended, f"worker {worker} outlived its caller"

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
    def test_interrupted_caller_kills_its_worker(self):
        # SIGINT to the caller alone, as ``kill -INT`` sends it (a terminal's
        # Ctrl-C reaches the whole process group): the caller must not wait
        # for the worker's chain to finish
        argv = [sys.executable, "-m", "prime_oracle", "hunt", "--p0", "999983",
                "--iters", "3000000"]
        with subprocess.Popen(argv, env=_env_with_src(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as hunt:
            deadline = time.monotonic() + 20
            while not (workers := _children(hunt.pid)) and time.monotonic() < deadline:
                time.sleep(0.02)
            hunt.send_signal(signal.SIGINT)
            sent = time.monotonic()
            try:
                hunt.wait(timeout=5)
            finally:
                hunt.kill()
            elapsed = time.monotonic() - sent
            stderr = hunt.stderr.read()
        assert workers, "the hunt started no worker"
        assert hunt.returncode == -signal.SIGINT, stderr
        assert stderr.rstrip().endswith("KeyboardInterrupt"), stderr
        assert elapsed < 1.0, f"the interrupted hunt took {elapsed:.2f} s to exit"
        assert all(_ended(pid) for pid in workers)

    def test_mersenne_runs_in_the_caller(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        rounds = self._rounds(monkeypatch)
        hunt_mersenne(HuntPlan(p0=TWIN_P0, iterations=2000, config=TmcmcConfig(seed=4)))
        assert [pooled for pooled, _ in rounds] == [False]


class TestHuntMersenne:
    # the chain equilibrates a couple of integers above p0, so a start whose
    # next prime is only two away (a twin) makes desk-scale runs productive

    def test_records_structure(self, mersenne_hunt):
        assert len(mersenne_hunt.records) >= 1
        for rec in mersenne_hunt.records:
            assert rec.kind is RecordKind.MERSENNE_EXPONENT
            assert trial_division_is_prime(rec.value)
            assert rec.value > TWIN_P0
            assert rec.digit_count == mersenne_digit_count(rec.value)

    def test_only_post_burn_in(self, mersenne_hunt):
        assert mersenne_hunt.records
        for rec in mersenne_hunt.records:
            assert rec.iteration_found > 100_000

    def test_trial_factor_screen(self, mersenne_hunt):
        plan = HuntPlan(
            p0=TWIN_P0,
            iterations=100_000,
            burn_in=100_000,
            config=TmcmcConfig(seed=3),
            trial_factor_bits=30,
        )
        screened = hunt_mersenne(plan)
        # screening can only remove candidates, never add
        assert len(screened.records) + screened.stats.factored_out == len(mersenne_hunt.records)
        for rec in screened.records:
            assert mersenne_small_factor(rec.value, 30) is None

    def test_rounds_reseat_p0(self, mersenne_hunt):
        plan = HuntPlan(
            p0=TWIN_P0,
            iterations=100_000,
            burn_in=100_000,
            rounds=2,
            config=TmcmcConfig(seed=3),
        )
        result = hunt_mersenne(plan)
        assert result.stats.iterations == 2 * (100_000 + 100_000)
        # round 1 is the fixture's hunt; round 2 starts from its largest prime
        round1_best = max(mersenne_hunt.stats.primes_by_target["mersenne-h1"])
        assert {rec.p0 for rec in result.records} <= {TWIN_P0, round1_best}


class TestMersenneSmallFactor:
    def test_known_factor(self):
        assert mersenne_small_factor(11, 12) == 23  # 2047 = 23 * 89
        assert mersenne_small_factor(23, 12) == 47

    def test_prime_mersenne_clean(self):
        assert mersenne_small_factor(13, 20) is None
        assert mersenne_small_factor(31, 20) is None

    def test_bits_domain(self):
        with pytest.raises(DomainError):
            mersenne_small_factor(11, 1)

    def test_composite_exponent_refused(self):
        # the sweep strikes composite q, which is sound only for a prime p
        with pytest.raises(DomainError, match="prime exponent"):
            mersenne_small_factor(15, 20)

    @pytest.mark.parametrize("bits", [12, 20])
    def test_matches_scalar_oracle(self, bits):
        for p in ODD_PRIMES_TO_3000:
            assert mersenne_small_factor(p, bits) == scalar_small_factor(p, bits), p

    def test_matches_scalar_oracle_at_30_bits(self):
        expected = _factors_30bit()
        assert {p: mersenne_small_factor(p, 30) for p in expected} == expected

    def test_matches_scalar_oracle_near_1e6(self):
        exponents = [p for p in range(1_000_037, 1_001_000, 2) if is_prime_u64(p)][:40]
        assert len(exponents) == 40
        for p in exponents:
            assert mersenne_small_factor(p, 38) == scalar_small_factor(p, 38), p

    @pytest.mark.parametrize("p, q", [(11, 23), (23, 47), (83, 167), (1019, 2039)])
    def test_divisor_equal_to_a_striking_prime(self, p, q):
        # q is itself one of the small primes, which must not strike it
        assert q < pipeline._TF_SMALL_PRIME_BOUND
        assert mersenne_small_factor(p, 20) == scalar_small_factor(p, 20) == q

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_across_block_boundaries(self, block, monkeypatch):
        monkeypatch.setattr(pipeline, "_TF_BLOCK", block)
        bits = 12 if block == 1 else 16
        for p in ODD_PRIMES_TO_3000:
            assert mersenne_small_factor(p, bits) == scalar_small_factor(p, bits), p
        if block == 1000:
            for p in (1_000_037, 1_000_039):
                assert mersenne_small_factor(p, 30) == scalar_small_factor(p, 30), p

    def test_sqrt_cap(self):
        # for p <= 2 * bits the bound is isqrt(2**p - 1): a prime 2**p - 1
        # below 2**bits would otherwise be its own factor
        assert mersenne_small_factor(31, 48) is None
        for bits in range(2, 49):
            for p in primes_up_to(min(2 * bits, 60)).primes.tolist():
                assert mersenne_small_factor(p, bits) == scalar_small_factor(p, bits), (p, bits)

    @pytest.mark.parametrize("bits", range(2, 49))
    def test_pow2_mod(self, bits):
        rng = random.Random(bits)
        top = 1 << bits
        qs = [q for q in range(max(top - 40, 3), top) if q % 2] + [
            rng.randrange(3, top) | 1 for _ in range(40)
        ]
        q = np.array(qs, dtype=np.uint64)
        for p in (2, 3, 31, 32, 1_000_039, 140_000_053, (1 << 47) - 115):
            assert pipeline._pow2_mod(p, q).tolist() == [pow(2, p, int(x)) for x in qs]

    def test_pow2_mod_one_exponent_per_lane(self):
        # the lanes' exponents differ in their low bits and in their lengths
        rng = random.Random(5)
        qs = [rng.randrange(3, 1 << 48) | 1 for _ in range(300)]
        qs += [(1 << 48) - 1 - 2 * i for i in range(20)] + [3, 5, 7]
        ps = [rng.choice([2, 3, 31, 1_000_039, 140_000_053, (1 << 47) - 115]) for _ in qs]
        got = pipeline._pow2_mod(np.array(ps, dtype=np.uint64), np.array(qs, dtype=np.uint64))
        assert got.tolist() == [pow(2, p, q) for p, q in zip(ps, qs)]

    def test_44_bits_under_five_seconds(self):
        import time

        t0 = time.perf_counter()
        mersenne_small_factor(1_000_039, 44)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"one 44-bit exponent took {elapsed:.1f}s"


def _factors_30bit():
    """The scalar loop's answers, written by ``python tests/trial_factor.py``
    (it takes about a minute live)."""
    expected = {}
    for line in (DATA_DIR / "mersenne_factors_30bit.txt").read_text().splitlines():
        if not line.startswith("#"):
            p, q = line.split()
            expected[int(p)] = None if q == "None" else int(q)
    assert sorted(expected) == ODD_PRIMES_TO_3000
    return expected


class TestTrialFactorBatch:
    def test_matches_30bit_file_in_one_call(self):
        expected = _factors_30bit()
        got = trial_factor_batch(list(expected), 30)
        assert got == list(expected.values())
        for p, q in zip(expected, got):
            if q is not None:
                assert q % (2 * p) == 1 and q % 8 in (1, 7) and pow(2, p, q) == 1
                assert q < (1 << p) - 1, p

    def test_matches_scalar_oracle_at_mixed_bits(self):
        # deep exponents, one factored and one not at each of 38, 44 and 48
        # bits, among small ones at shallow levels (the isqrt cap where
        # p <= 2 * bits) and among the sqrt-capped ones at every level
        deep = [(1_000_033, 38), (1_000_039, 38), (100_000_037, 44), (100_000_039, 44),
                (1_000_000_009, 48), (1_000_000_033, 48), ((1 << 46) + 15, 48)]
        rng = random.Random(11)
        small = [(p, rng.randrange(2, 25)) for p in ODD_PRIMES_TO_3000[:120]]
        small += [(p, rng.randrange(max(p // 2, 2), 49)) for p in ODD_PRIMES_TO_3000 if p <= 60]
        rng.shuffle(small)
        pairs = small[:75] + deep + small[75:]
        ps, bits = [p for p, _ in pairs], [b for _, b in pairs]
        got = trial_factor_batch(ps, bits)
        assert got == scalar_batch(ps, bits)
        assert [got[ps.index(p)] is None for p, _ in deep] == [
            False, True, False, True, True, False, True]

    def test_never_the_mersenne_number_itself(self):
        # 2**p - 1 is prime and of the form 2mp + 1 for these p
        for bits in range(2, 49):
            assert trial_factor_batch([3, 5, 7, 13, 17, 19, 31], bits) == [None] * 7

    def test_order_duplicates_and_empty(self):
        assert trial_factor_batch([], 20) == []
        assert trial_factor_batch([23, 11, 13, 11], 12) == [47, 23, None, 23]
        assert trial_factor_batch([23, 11], [5, 12]) == [None, 23]

    def test_refusals_match_the_one_exponent_view(self):
        for bits in (1, 49):
            with pytest.raises(DomainError, match=r"\[2, 48\]"):
                trial_factor_batch([11], bits)
            with pytest.raises(DomainError, match=r"\[2, 48\]"):
                trial_factor_batch([11, 13], [20, bits])
        with pytest.raises(DomainError, match=r"\[2, 48\]"):
            trial_factor_batch([], 1)
        with pytest.raises(DomainError, match="prime exponent, got 15"):
            trial_factor_batch([11, 15], 20)
        with pytest.raises(DomainError, match="past the proven"):
            trial_factor_batch([numtheory.MILLER_RABIN_LIMIT], 20)
        with pytest.raises(DomainError, match="2 trial-factor bit levels for 3 exponents"):
            trial_factor_batch([3, 5, 7], [20, 20])

    @pytest.mark.parametrize("block", [7, 1000])
    def test_rows_packed_across_blocks(self, block, monkeypatch):
        # several exponents' rows share each block, and the deeper ones
        # carry on level by level
        monkeypatch.setattr(pipeline, "_TF_BLOCK", block)
        ps = ODD_PRIMES_TO_3000[::3] + [1_000_033, 1_000_037]
        bits = [12 + p % 9 for p in ps]
        assert trial_factor_batch(ps, bits) == scalar_batch(ps, bits)

    def test_strikes_spare_every_prime_candidate(self, monkeypatch):
        # every prime q = 2mp + 1 = +-1 (mod 8) under the bound reaches the
        # powering, also where q or the exponent is itself a striking prime
        tested = set()
        pow2_mod = pipeline._pow2_mod

        def recorded(p, q):
            tested.update(zip(np.broadcast_to(p, q.shape).tolist(), q.tolist()))
            return pow2_mod(p, q)

        monkeypatch.setattr(pipeline, "_pow2_mod", recorded)
        ps = [41, 43, 47, 53, 59, 67, 71, 73, 79]  # one level, rows sharing a block
        assert trial_factor_batch(ps, 20) == scalar_batch(ps, 20)
        primes = set(primes_up_to(1 << 20).primes.tolist())
        assert {(p, q) for p in ps for q in range(2 * p + 1, 1 << 20, 2 * p)
                if q in primes and q % 8 in (1, 7)} <= tested

    def test_divisor_equal_to_a_striking_prime_in_a_shared_block(self):
        # q == s for 11, 23 and 83, with rows wide enough for 47 and 167 to strike
        ps = [11, 23, 83, 1019, 1_000_033]
        assert trial_factor_batch(ps, 22) == [23, 47, 167, 2039, None]


class TestResume:
    def test_split_run_matches_uninterrupted(self):
        target = HuntTarget(TargetKind.GENERAL_H1, P0, solve_k(P0))
        cfg = TmcmcConfig(seed=17)
        whole = collect_candidates(target, cfg, 20_000)

        first = collect_candidates(target, cfg, 10_000)
        snap = first.chain.snapshot()
        second = collect_candidates(target, cfg, 10_000, snapshot=snap)

        merged = dict(first.visited)
        for value, it in second.visited.items():
            merged.setdefault(value, it)
        assert merged == whole.visited


def _same(result, expected):
    """Visited map, skip counts and the whole chain state (RNG included) agree."""
    assert result.visited == expected.visited
    assert result.skipped_small == expected.skipped_small
    assert result.skipped_oversize == expected.skipped_oversize
    assert result.chain.snapshot() == expected.chain.snapshot()


@pytest.fixture
def block_sizes(monkeypatch):
    """Shrink the collection block to 1000 steps and record every block run."""
    sizes = []

    def recorded(*args):
        zs = run_steps(*args)
        sizes.append(len(zs))
        return zs

    monkeypatch.setattr(pipeline, "_CHAIN_BLOCK", 1000)
    monkeypatch.setattr(pipeline, "run_steps", recorded)
    return sizes


class TestCollectCandidates:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("burn_in", [0, 2345, 3000], ids=["none", "mid-block", "block-edge"])
    def test_matches_per_step_oracle(self, kind, burn_in, block_sizes):
        target, cfg = _target(kind), TmcmcConfig(seed=21)
        result = collect_candidates(target, cfg, 5500, burn_in=burn_in)
        _same(result, oracle_collect(target, cfg, 5500, burn_in=burn_in))
        assert result.chain.iteration == 5500
        # 5500 steps in blocks of at most 1000: six blocks held one at a time
        assert block_sizes == [1000] * 5 + [500]
        if burn_in:
            assert min(result.visited.values()) > burn_in

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_resume_from_mid_block_snapshot(self, kind, block_sizes):
        target, cfg = _target(kind), TmcmcConfig(seed=22)
        snap = collect_candidates(target, cfg, 2500).chain.snapshot()
        # the burn-in ends inside the first resumed block, 2500 steps in
        resumed = collect_candidates(target, cfg, 3700, burn_in=2900, snapshot=snap)
        _same(resumed, oracle_collect(target, cfg, 3700, burn_in=2900, snapshot=snap))
        assert resumed.chain.iteration == 6200
        assert min(resumed.visited.values()) > 2900
        whole = collect_candidates(target, cfg, 6200, burn_in=2900)
        assert resumed.visited == whole.visited
        assert resumed.chain.snapshot() == whole.chain.snapshot()

    def test_default_block_spans_a_partial_block(self):
        # 70000 steps: one full default block and a partial one
        target, cfg = _target(TargetKind.GENERAL_H2), TmcmcConfig(seed=23)
        _same(
            collect_candidates(target, cfg, 70_000, burn_in=65_000),
            oracle_collect(target, cfg, 70_000, burn_in=65_000),
        )

    def test_skipped_small_pinned(self):
        # at p0 = 999983 the Mersenne chain spends most of its time at exp(z) < 2
        target, cfg = _target(TargetKind.MERSENNE_H1), TmcmcConfig(seed=24)
        result = collect_candidates(target, cfg, 20_000)
        _same(result, oracle_collect(target, cfg, 20_000))
        assert result.skipped_small > 10_000
        assert result.skipped_oversize == 0

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_exact_integer_path(self, kind):
        # started at z = 100, the chain falls back through
        # exp(z) >= 2**64 (oversize) and [2**53, 2**64) (exact-integer values)
        target, cfg = _target(kind), TmcmcConfig(seed=25)
        snap = TmcmcChain(100.0, seed=25).snapshot()
        result = collect_candidates(target, cfg, 3000, snapshot=snap)
        _same(result, oracle_collect(target, cfg, 3000, snapshot=snap))
        assert result.skipped_oversize > 0
        assert any(value >= (1 << 53) + P0 for value in result.visited)

    def test_oversize_next_to_u64_limit(self):
        # from the largest u64 prime, every floor(exp(z)) >= 59 runs past 2**64
        target, cfg = _target(TargetKind.GENERAL_H1, U64_MAX_PRIME), TmcmcConfig(seed=26)
        result = collect_candidates(target, cfg, 5000)
        _same(result, oracle_collect(target, cfg, 5000))
        assert result.skipped_oversize > 0
        assert all(value < 1 << 64 for value in result.visited)

    def test_u64_cast_is_exact_floor(self):
        # collect_candidates floors every state below 2**64 with this one
        # cast, past 2**53 (where doubles are even) and 2**63 (past int64) too
        e = np.array([2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64 - 2048, 2.5, 1e6 + 0.5, 2.0**52 - 0.5])
        assert e.astype(np.uint64).tolist() == [
            1 << 53, (1 << 53) + 2, 1 << 63, (1 << 64) - 2048, 2, 1_000_000, (1 << 52) - 1
        ]


class TestPersistence:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        rec = CandidateRecord(
            value=1_000_003,
            kind=RecordKind.GENERAL_PRIME,
            p0=P0,
            k=solve_k(P0),
            seed=1,
            iteration_found=5,
            target_kind="general-h1",
        )
        write_records(path, [rec])
        lines = path.read_text().splitlines()
        assert lines[0] == FILE_HEADER
        assert load_records(path) == [rec]

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "records.jsonl"
        rec = CandidateRecord(
            value=1_000_003,
            kind=RecordKind.GENERAL_PRIME,
            p0=P0,
            k=solve_k(P0),
            seed=1,
            iteration_found=5,
            target_kind="general-h1",
        )
        write_records(path, [rec])
        write_records(path, [])
        text = path.read_text()
        assert text.count(FILE_HEADER) == 1

    def test_self_check_rejects_corruption(self, tmp_path):
        path = tmp_path / "records.jsonl"
        obj = {
            "value": 1_000_004,  # composite
            "kind": "general-prime",
            "p0": P0,
            "k": solve_k(P0),
            "seed": 1,
            "iteration_found": 5,
            "target_kind": "general-h1",
            "digit_count": None,
        }
        path.write_text(FILE_HEADER + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(DomainError):
            load_records(path)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],  # torn: the writer died mid-line
            lambda text: text.replace('"value": 1000003', '"value": 1000003.0'),
            lambda text: text.replace('"seed": 1, ', ""),
            lambda text: text.replace('"seed": 1', '"seed": true'),
            lambda text: "[" + text + "]",
        ],
        ids=["torn", "float-value", "missing-key", "bool-seed", "not-an-object"],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, mangle):
        path = tmp_path / "records.jsonl"
        rec = CandidateRecord(
            value=1_000_003,
            kind=RecordKind.GENERAL_PRIME,
            p0=P0,
            k=solve_k(P0),
            seed=1,
            iteration_found=5,
            target_kind="general-h1",
        )
        write_records(path, [rec, rec])
        header, good, last = path.read_text().splitlines()
        bad = mangle(last)
        assert bad != last
        path.write_text("\n".join([header, good, bad]))
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}:3: "):
            load_records(path)

    def test_record_validation(self):
        with pytest.raises(DomainError):
            CandidateRecord(
                value=1_000_004,
                kind=RecordKind.GENERAL_PRIME,
                p0=P0,
                k=1,
                seed=0,
                iteration_found=1,
                target_kind="general-h1",
            )
        with pytest.raises(DomainError):
            CandidateRecord(
                value=1_000_003,
                kind=RecordKind.MERSENNE_EXPONENT,
                p0=P0,
                k=1,
                seed=0,
                iteration_found=1,
                target_kind="mersenne-h1",
                digit_count=42,  # wrong count
            )


class TestVerifyFile:
    def test_mixed_content(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_text("# comment\n140000053\n140000054\nnot-a-number\n\n7\n")
        report = verify_file(path)
        assert report.n_prime == 2
        assert report.n_composite == 1
        assert report.n_errors == 1
        assert report.composites() == [140000054]
        assert "2 prime" in report.summary()

    def test_only_ascii_decimal_integers_parse(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_text("1_000\n-5\n+7\n\u0661\u0663\n 13 \n0x1f\n", encoding="utf-8")
        report = verify_file(path)
        assert [(e.line_no, e.value, e.verdict) for e in report.entries] == [
            (1, None, None),
            (2, -5, False),
            (3, 7, True),
            (4, None, None),
            (5, 13, True),
            (6, None, None),
        ]
        assert report.n_errors == 3

    def test_digit_count_past_int_limit_is_unparseable(self, tmp_path):
        path = tmp_path / "ints.txt"
        path.write_text("7\n" + "9" * 5000 + "\n11\n")
        report = verify_file(path)
        assert [(e.line_no, e.value, e.verdict) for e in report.entries] == [
            (1, 7, True),
            (2, None, None),
            (3, 11, True),
        ]
        assert "digits" in report.entries[1].error

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        report = verify_file(path)
        assert report.entries == []
        assert report.n_prime == 0

    def test_verdicts_are_python_bools(self, tmp_path):
        # n_prime counts ``verdict is True``: an np.bool_ would count as neither
        path = tmp_path / "ints.txt"
        path.write_text("7\n9\nzzz\n-3\n18446744073709551557\n18446744073709551629\n")
        report = verify_file(path)
        assert [e.verdict for e in report.entries] == [True, False, None, False, True, True]
        assert [type(e.verdict) for e in report.entries] == [bool] * 2 + [type(None)] + [bool] * 3
        assert (report.n_prime, report.n_composite, report.n_errors) == (3, 2, 1)

    def test_u64_lines_make_no_scalar_pow_call(self, tmp_path, monkeypatch):
        # every value in [0, 2**64) takes the array path; one prime past
        # 2**64 takes the scalar one, with its twelve witnesses
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return pow(*args)

        monkeypatch.setattr(numtheory, "pow", counting, raising=False)
        lines = [U64_MAX_PRIME, 3825123056546413051, 140000053, 1000003, 2047, 41, 2, 1, -5]
        path = tmp_path / "ints.txt"
        path.write_text("".join(f"{n}\n" for n in lines))
        assert verify_file(path).n_prime == 5
        assert calls == 0
        path.write_text("".join(f"{n}\n" for n in lines + [(1 << 64) + 13]))
        assert verify_file(path).n_prime == 6
        assert calls == 12

    def test_reference_exponent_list(self, candidate_exponent_file):
        report = verify_file(candidate_exponent_file)
        assert len(report.entries) == 184
        assert report.n_errors == 0
