import gc
import warnings

from prime_oracle.cli import _read_config_file, main
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
