import json
import math

import pytest

from prime_oracle.errors import DomainError
from prime_oracle.numtheory import mersenne_digit_count
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
    verify_file,
    write_records,
)
from prime_oracle.tmcmc import HuntTarget, TargetKind, TmcmcConfig

from test_numtheory import trial_division_is_prime

P0 = 999_983  # largest prime below 1e6


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        report = verify_file(path)
        assert report.entries == []
        assert report.n_prime == 0

    def test_reference_exponent_list(self, candidate_exponent_file):
        report = verify_file(candidate_exponent_file)
        assert len(report.entries) == 184
        assert report.n_errors == 0
