import gc
import warnings
from pathlib import Path

import pytest

import convolution
import trial_factor
from prime_oracle import cli, pipeline
from prime_oracle import recursive_bayes as rb
from prime_oracle.cli import _read_config_file, build_parser, main
from prime_oracle.numtheory import (
    LUCAS_LEHMER_CEILING,
    lucas_lehmer,
    mersenne_digit_count,
    primes_up_to,
)
from prime_oracle.pipeline import FILE_HEADER, HuntPlan, hunt_general, load_records
from prime_oracle.recursive_bayes import Hyperparameters
from prime_oracle.specialfn import RH_SQRT
from prime_oracle.tmcmc import TmcmcConfig

#: The exponents of the 14 Mersenne primes with p <= 1500.
MERSENNE_EXPONENTS_TO_1500 = (3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == FILE_HEADER
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


class TestHuntCommands:
    def test_hunt_writes_records(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(
            ["hunt", "--p0", "999983", "--iters", "30000", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        records = load_records(out)
        assert records
        captured = capsys.readouterr().out
        assert "new prime records" in captured
        assert "target overlap" in captured
        stats = hunt_general(HuntPlan(p0=999983, iterations=30000, config=TmcmcConfig(seed=42))).stats
        assert stats.summary() in captured.splitlines()

    def test_mersenne_from_results(self, tmp_path, capsys):
        general = tmp_path / "records.jsonl"
        main(["hunt", "--p0", "1000033", "--iters", "30000", "--seed", "7", "--out", str(general)])
        found = {r.value for r in load_records(general)}
        assert 1000037 in found  # twin partner of 1000039 sits two above p0
        out = tmp_path / "mersenne.jsonl"
        code = main(
            [
                "mersenne",
                "--from-results",
                str(general),
                "--burnin",
                "100000",
                "--keep",
                "100000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for rec in load_records(out):
            assert rec.iteration_found > 100000
        assert "chain: 200000 iterations, accept rate add " in capsys.readouterr().out

    def test_mersenne_from_torn_results_exit_code(self, tmp_path, capsys):
        general = tmp_path / "records.jsonl"
        general.write_text(FILE_HEADER + '\n{"value": 1000003, "kind": "gen')
        assert main(["mersenne", "--from-results", str(general), "--keep", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {general}:2: ")

    def test_mersenne_requires_start(self):
        assert main(["mersenne", "--keep", "10", "--burnin", "0"]) == 2

    @pytest.mark.parametrize("bits", ["99", "-5", "1", "49"])
    def test_mersenne_bad_trial_factor_bits_exit_code(self, bits, capsys):
        # refused before the chain runs, not once a visited prime reaches the screen
        code = main(["mersenne", "--p0", "1000003", "--burnin", "0", "--keep", "1",
                     "--trial-factor-bits", bits])
        captured = capsys.readouterr()
        assert code == 2
        assert "[2, 48]" in captured.err
        assert "Traceback" not in captured.err
        assert "candidate exponents" not in captured.out

    @pytest.mark.parametrize("p0, factored", [("1000037", 0), ("1001981", 1)])
    def test_mersenne_trial_factoring_matches_scalar_oracle(
        self, p0, factored, tmp_path, capsys, monkeypatch
    ):
        # the chain visits 1000039 (no factor below 2**38) from 1000037, and
        # 1001983 (factor 306606799) and 1001989 from 1001981
        argv = ["mersenne", "--p0", p0, "--burnin", "20000", "--keep", "20000",
                "--trial-factor-bits", "38", "--seed", "5", "--out"]

        def run(out):
            assert main(argv + [str(out)]) == 0
            return capsys.readouterr().out.replace(str(out), "OUT"), out.read_text()

        sweep = run(tmp_path / "sweep.jsonl")
        monkeypatch.setattr(pipeline, "mersenne_small_factor", trial_factor.mersenne_small_factor)
        scalar = run(tmp_path / "scalar.jsonl")
        assert sweep == scalar
        assert load_records(tmp_path / "sweep.jsonl")
        assert (f"{factored} candidates removed by trial factoring" in sweep[0]) == bool(factored)


class TestDiagnosticsCommands:
    def test_diagnose_csv(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--model", "rh-sqrt", "--limit", "10000", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["model", "k", "t_k", "mean_alpha", "var_alpha", "mean_beta", "var_beta"]
        assert [r["t_k"] for r in rows] == ["7", "97", "997", "9973"]
        assert rows[-1]["model"] == "rh-sqrt"
        assert 0.9 < float(rows[-1]["mean_alpha"]) < 1.1

    def test_diagnose_eps_model_and_hyper(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(
            [
                "diagnose",
                "--model",
                "rh-eps:0.1",
                "--limit",
                "1000",
                "--hyper",
                "1,1,2,2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["model"] == "rh-eps:0.1"

    def test_diagnose_bad_model_exit_code(self, tmp_path):
        assert main(["diagnose", "--model", "zeta", "--limit", "100"]) == 2

    def test_diagnose_non_numeric_epsilon_exit_code(self, capsys):
        assert main(["diagnose", "--model", "rh-eps:abc", "--limit", "100"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_diagnose_non_numeric_hyper_exit_code(self, capsys):
        argv = ["diagnose", "--model", "mt", "--limit", "100", "--hyper", "1,x,1,1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_compare_models_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare-models", "--limit", "10000", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "log_ratio"]
        assert [r["k"] for r in rows] == ["10", "100", "1000", "1228"]

    def test_simulate_nhpp_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate-nhpp",
                "--model",
                "rh-sqrt",
                "--alpha",
                "1.0",
                "--beta",
                "0.01",
                "--horizon",
                "100000",
                "--reps",
                "2",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "count", "ratio"]
        assert len(rows) == 2 * 5  # decades 10..1e4 plus the horizon, twice
        for row in rows:
            assert float(row["ratio"]) > 0

    def test_equivalence_csv(self, tmp_path):
        out = tmp_path / "eq.csv"
        code = main(["equivalence", "--kmax", "12", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "k"
        assert [r["k"] for r in rows] == [str(k) for k in range(2, 13)]
        assert all(float(r["gap_alpha"]) >= 0 for r in rows)

    def test_equivalence_past_former_cap(self, tmp_path, primes_2e6):
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--kmax", "4097", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        last = rows[-1]
        assert last["k"] == "4097" and len(rows) == 4096
        oracle = convolution.build(primes_2e6.primes[:4097], Hyperparameters(), RH_SQRT)
        want = oracle.moments()
        assert float(last["nonrec_mean_alpha"]) == pytest.approx(want.mean_alpha, rel=1e-12)
        assert float(last["nonrec_mean_beta"]) == pytest.approx(want.mean_beta, rel=1e-12)
        rec = rb.posterior(oracle.state).moments()
        assert float(last["rec_mean_alpha"]) == rec.mean_alpha
        assert float(last["rec_mean_beta"]) == rec.mean_beta

    def test_equivalence_sieve_ceiling(self, capsys):
        assert main(["equivalence", "--kmax", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sieve limit ") and "exceeds ceiling 1000000000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--model", "rh-sqrt", "--limit", "inf"],
            ["diagnose", "--model", "rh-sqrt", "--limit", "nan"],
            ["compare-models", "--limit", "inf"],
            ["compare-models", "--limit", "nan"],
            ["simulate-nhpp", "--horizon", "inf"],
        ],
        ids=["diagnose-inf", "diagnose-nan", "compare-inf", "compare-nan", "simulate-inf"],
    )
    def test_non_finite_size_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--beta", "inf"], "beta must be finite"),
            (["--alpha", "inf"], "alpha must be finite"),
            (["--reps", "0"], "--reps must be at least 1"),
            (["--reps", "-1"], "--reps must be at least 1"),
            (["--horizon", "1e300"], "exceeds ceiling"),
        ],
        ids=["beta-inf", "alpha-inf", "reps-0", "reps-negative", "horizon-1e300"],
    )
    def test_simulate_nhpp_refusals_exit_code(self, flags, message, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ["simulate-nhpp", "--horizon", "100", "--out", str(out)] + flags
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestVerifyAndLl:
    def test_verify_output(self, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        path.write_text("140000053\n140000054\nzzz\n")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "140000053 prime" in out
        assert "140000054 COMPOSITE" in out
        assert "PARSE ERROR" in out
        assert "1 prime, 1 composite, 1 unparseable" in out

    def test_verify_past_proven_range_names_line(self, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        path.write_text("7\n318665857834031151167461\n")
        assert main(["verify", str(path)]) == 2
        assert f"{path}:2:" in capsys.readouterr().err
        # the first refused line is named, past a parse error and before a
        # later refused line, and no verdict is printed
        path.write_text("7\nzzz\n318665857834031151167461\n11\n318665857834031151167463\n")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{path}:3:" in captured.err
        assert captured.out == ""

    def test_verify_golden_edge_cases(self, capsys):
        # stdout recorded from the line-by-line reader this one replaced
        data = Path(__file__).parent / "data"
        raw = (data / "verify_edge_cases.txt").read_bytes()
        for form in (b"\r\n", b"\r1", b"\x0b", b"\x0c", b"\n\n", b"\n#", b"\n+7", b"\n007"):
            assert form in raw, form  # a checkout that rewrote line endings defeats the test
        assert not raw.endswith(b"\n")
        assert main(["verify", str(data / "verify_edge_cases.txt")]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == (data / "verify_edge_cases.out").read_bytes()
        assert captured.err == ""

    def test_verify_missing_file_is_io_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.txt")]) == 3

    def test_ll_check(self, capsys):
        assert main(["ll-check", "--max-exponent", "61"]) == 0
        out = capsys.readouterr().out
        assert "2^31-1 is prime" in out
        assert "[3, 5, 7, 13, 17, 19, 31, 61]" in out

    @pytest.mark.parametrize("top", [3, 7, 13, 61, 127, 1500])
    def test_ll_check_prints_the_lucas_lehmer_sweep(self, top, capsys):
        # up to 61 Lucas-Lehmer runs alone; 127 and 1500 pass through the screen
        found = [p for p in primes_up_to(top).primes[1:].tolist() if lucas_lehmer(p)]
        expected = "".join(f"2^{p}-1 is prime ({mersenne_digit_count(p)} digits)\n" for p in found)
        expected += f"{len(found)} Mersenne exponents up to {top}: {found}\n"
        assert main(["ll-check", "--max-exponent", str(top)]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_ll_check_screen_spares_lucas_lehmer(self, capsys, monkeypatch):
        screened, tested = {}, []
        screen = pipeline.trial_factor_batch

        def batch(ps, bits):
            factors = screen(ps, bits)
            screened.update(zip(ps, factors))
            return factors

        def counted(p):
            tested.append(p)
            return lucas_lehmer(p)

        monkeypatch.setattr(cli.pipeline, "trial_factor_batch", batch)
        monkeypatch.setattr(cli, "lucas_lehmer", counted)
        assert main(["ll-check", "--max-exponent", "1500"]) == 0
        capsys.readouterr()
        exponents = primes_up_to(1500).primes[1:].tolist()
        assert sorted(screened) == [p for p in exponents if p >= 64]
        assert tested == [p for p in exponents if screened.get(p) is None]
        assert len(tested) < len(screened)
        assert set(MERSENNE_EXPONENTS_TO_1500) <= set(tested)

    def test_ll_check_screens_from_64(self, capsys, monkeypatch):
        # below 64 Lucas-Lehmer is cheaper than the screen's fixed cost, so
        # 11 (factor 23) is tested; from 64 on, 73 (factor 439) is not
        screened, tested = [], []
        screen = pipeline.trial_factor_batch

        def batch(ps, bits):
            screened.extend(ps)
            return screen(ps, bits)

        monkeypatch.setattr(cli.pipeline, "trial_factor_batch", batch)
        monkeypatch.setattr(cli, "lucas_lehmer", lambda p: tested.append(p) or lucas_lehmer(p))
        assert main(["ll-check", "--max-exponent", "20"]) == 0
        assert (screened, tested) == ([], [3, 5, 7, 11, 13, 17, 19])
        tested.clear()
        assert main(["ll-check", "--max-exponent", "73"]) == 0
        capsys.readouterr()
        assert screened == [67, 71, 73]
        assert tested == primes_up_to(72).primes[1:].tolist()

    def test_ll_check_cap(self, capsys):
        assert main(["ll-check", "--max-exponent", "200000"]) == 2
        # the CLI refuses exactly past lucas_lehmer's own ceiling
        assert main(["ll-check", "--max-exponent", str(LUCAS_LEHMER_CEILING + 1)]) == 2
        assert capsys.readouterr().err.count("--max-exponent is capped at 100000") == 2

    def test_ll_check_below_first_odd_prime_refused(self, capsys):
        # 2**2 - 1 = 3 is prime, but the sweep covers odd exponents only
        for top in ("2", "0", "-7"):
            assert main(["ll-check", "--max-exponent", top]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-exponent")


class TestConfigFile:
    def test_file_overrides_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text("add_scale=0.9\nseed=5\n# comment\n")
        out = tmp_path / "records.jsonl"
        code = main(
            [
                "hunt",
                "--p0",
                "999983",
                "--iters",
                "5000",
                "--config",
                str(cfg),
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = load_records(out)
        # the explicit --seed beat the file's seed
        assert all(r.seed in (42, 43) for r in records)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text("not_a_key=1\n")
        assert main(["hunt", "--p0", "999983", "--iters", "100", "--config", str(cfg)]) == 2

    def test_bad_value_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text("# kernel\nseed=abc\n")
        assert main(["hunt", "--p0", "999983", "--iters", "100", "--config", str(cfg)]) == 2
        assert f"{cfg}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["p_add", "p_mult", "add_scale", "mult_scale"])
    @pytest.mark.parametrize("command", ["hunt", "mersenne"])
    def test_non_finite_kernel_value_refused(
        self, command, name, source, value, tmp_path, capsys
    ):
        # --mult-scale nan used to run to exit 0 with no multiplicative move taken
        out = tmp_path / "records.jsonl"
        argv = [command, "--p0", "999983", "--out", str(out)]
        argv += ["--iters", "2000"] if command == "hunt" else ["--burnin", "10", "--keep", "10"]
        if source == "flag":
            argv += [f"--{name.replace('_', '-')}", value]
        else:
            cfg = tmp_path / "kernel.cfg"
            cfg.write_text(f"{name}={value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must")
        assert captured.out == ""
        assert not out.exists()

    def test_hunt_past_u64_refused(self, capsys):
        # (1 << 64) + 13 is prime; it used to end in an OverflowError traceback
        assert main(["hunt", "--p0", str((1 << 64) + 13), "--iters", "100"]) == 2
        assert "p0 must be a prime below 2**64" in capsys.readouterr().err

    def test_file_is_closed(self, tmp_path):
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text("add_scale=0.9\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _read_config_file(str(cfg)) == {"add_scale": 0.9}
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestParserReuse:
    """``main`` parses every call with one parser built once per process."""

    @staticmethod
    def run(argv, tmp_path, capsys):
        """Exit code, stdout and --out file of one ``main`` call; the file is then removed."""
        code = main([a.format(d=tmp_path) for a in argv])
        out = tmp_path / "second.out"
        written = out.read_text() if out.exists() else None
        if written is not None:
            out.unlink()
        return code, capsys.readouterr().out, written

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ["diagnose", "--model", "mt", "--limit", "3000", "--hyper", "1,1,1,1",
                 "--out", "{d}/first.out"],
                ["diagnose", "--model", "mt", "--limit", "3000", "--out", "{d}/second.out"],
            ),
            (
                ["simulate-nhpp", "--horizon", "3000", "--seed", "5", "--beta", "0.5",
                 "--out", "{d}/first.out"],
                ["simulate-nhpp", "--horizon", "3000", "--out", "{d}/second.out"],
            ),
            (
                ["mersenne", "--p0", "1000037", "--burnin", "500", "--keep", "500",
                 "--trial-factor-bits", "24", "--p-add", "0.5", "--p-mult", "0.5", "--seed", "1",
                 "--out", "{d}/first.out"],
                ["mersenne", "--from-results", "{d}/general.jsonl", "--burnin", "500",
                 "--keep", "500", "--out", "{d}/second.out"],
            ),
            (
                ["mersenne", "--from-results", "{d}/general.jsonl", "--burnin", "500",
                 "--keep", "500", "--out", "{d}/first.out"],
                ["mersenne", "--p0", "1000033", "--burnin", "500", "--keep", "500",
                 "--out", "{d}/second.out"],
            ),
        ],
        ids=["diagnose-hyper", "simulate-nhpp-seed-beta", "mersenne-p0-then-results",
             "mersenne-results-then-p0"],
    )
    def test_no_state_carried_between_calls(self, first, second, tmp_path, capsys):
        (tmp_path / "general.jsonl").write_text(
            FILE_HEADER + '\n{"digit_count": null, "iteration_found": 534, "k": 87846, '
            '"kind": "general-prime", "p0": 1000033, "seed": 42, '
            '"target_kind": "general-h1", "value": 1000037}\n'
        )
        assert self.run(first, tmp_path, capsys)[0] == 0
        after_first = self.run(second, tmp_path, capsys)
        build_parser.cache_clear()
        alone = self.run(second, tmp_path, capsys)
        assert alone[0] == 0 and alone[2] is not None
        assert after_first == alone

    def test_usage_error_after_successful_calls(self, capsys):
        for _ in range(2):
            assert main(["ll-check", "--max-exponent", "31"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["ll-check"])
        assert exc.value.code == 2
        assert "--max-exponent" in capsys.readouterr().err
        assert main(["ll-check", "--max-exponent", "31"]) == 0

    @pytest.mark.parametrize("argv", [["--help"], ["diagnose", "--help"]], ids=["top", "diagnose"])
    def test_help_wraps_to_columns_when_printed(self, argv, monkeypatch, capsys):
        def help_at(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        build_parser.cache_clear()
        wide = help_at(200)  # the parser is built at this width
        narrow = help_at(50)
        build_parser.cache_clear()
        assert narrow == help_at(50)
        assert narrow != wide
        assert max(map(len, wide.splitlines())) > 50

    def test_parser_built_once(self, capsys):
        build_parser.cache_clear()
        for argv in (["ll-check", "--max-exponent", "31"], ["ll-check", "--max-exponent", "61"],
                     ["diagnose", "--model", "zeta", "--limit", "100"]):
            main(argv)
        assert build_parser.cache_info().misses == 1
