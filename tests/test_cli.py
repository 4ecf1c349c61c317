import gc
import warnings

import pytest

from prime_oracle.cli import _read_config_file, build_parser, main
from prime_oracle.pipeline import FILE_HEADER, load_records


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

    def test_mersenne_from_torn_results_exit_code(self, tmp_path, capsys):
        general = tmp_path / "records.jsonl"
        general.write_text(FILE_HEADER + '\n{"value": 1000003, "kind": "gen')
        assert main(["mersenne", "--from-results", str(general), "--keep", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {general}:2: ")

    def test_mersenne_requires_start(self):
        assert main(["mersenne", "--keep", "10", "--burnin", "0"]) == 2


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

    def test_equivalence_cap(self):
        assert main(["equivalence", "--kmax", "4097"]) == 2

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

    def test_verify_missing_file_is_io_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.txt")]) == 3

    def test_ll_check(self, capsys):
        assert main(["ll-check", "--max-exponent", "61"]) == 0
        out = capsys.readouterr().out
        assert "2^31-1 is prime" in out
        assert "[3, 5, 7, 13, 17, 19, 31, 61]" in out

    def test_ll_check_cap(self):
        assert main(["ll-check", "--max-exponent", "200000"]) == 2

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
