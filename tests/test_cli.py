import math

import pytest

from rbcsp.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholdsCmd:
    def test_classic_benchmark_point(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--k", "2", "--alpha", "0.8",
                           "--p", "0.25", "--n", "59")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert float(values["r_cr"]) == pytest.approx(0.8 / math.log(4 / 3), abs=1e-9)
        assert float(values["p_cr"]) == pytest.approx(0.25, abs=1e-12)
        assert values["d"] == "26"
        assert values["m"] == "669"
        assert values["q"] == "169"
        assert "condition.alpha_gt_1_over_k" in out
        assert "violated" not in out

    def test_requires_p_or_r(self, capsys):
        code, _, err = run(capsys, "thresholds", "--k", "2", "--alpha", "0.8")
        assert code == 1
        assert "provide" in err


class TestGenCmd:
    def test_classic_benchmark_dimacs_header(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--model", "rb", "--k", "2", "--n", "59", "--alpha", "0.8",
            "--r", "2.780845", "--p", "0.25", "--seed", "1", "--forced",
            "--format", "dimacs", "--out-dir", str(tmp_path),
        )
        assert code == 0
        files = list(tmp_path.glob("*.cnf"))
        assert len(files) == 1
        text = files[0].read_text()
        # d=26, m=669, q=169: 59*26 variables; 59 + 59*325 + 669*169 clauses
        assert "p cnf 1534 132295" in text
        assert "c forced=1" in text

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["gen", "--model", "rd", "--k", "2", "--n", "8", "--alpha", "0.7",
                "--r", "1.2", "--p", "0.3", "--seed", "42", "--count", "3",
                "--format", "both", "--out-dir"]
        run(capsys, *argv, str(tmp_path / "a"))
        run(capsys, *argv, str(tmp_path / "b"))
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in a_files] == [f.name for f in b_files]
        assert len(a_files) == 6
        for fa, fb in zip(a_files, b_files):
            assert fa.read_bytes() == fb.read_bytes()

    def test_seed_required(self, capsys):
        code, _, err = run(capsys, "gen", "--model", "rb", "--k", "2", "--n", "8",
                           "--alpha", "0.7", "--r", "1.2", "--p", "0.3")
        assert code == 1
        assert "--seed" in err

    def test_emit_solution_sidecar(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "--model", "rb", "--k", "2", "--n", "6", "--alpha", "0.7",
            "--r", "1.0", "--p", "0.4", "--seed", "2", "--forced",
            "--format", "rbcsp", "--emit-solution", "--out-dir", str(tmp_path),
        )
        assert code == 0
        sidecars = list(tmp_path.glob("*.solution"))
        assert len(sidecars) == 1
        csp_text = next(tmp_path.glob("*.csp")).read_text()
        assert "solution" not in csp_text

    def test_runtime_error_exit_2(self, capsys, tmp_path):
        # alpha too small: derived domain collapses
        code, _, err = run(capsys, "gen", "--model", "rb", "--k", "2", "--n", "4",
                           "--alpha", "0.1", "--r", "1.0", "--p", "0.3",
                           "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "10", "--alpha", "0.8", "--r", "inf", "--p", "0.3", "--seed", "1"],
        ["gen", "--n", "10", "--alpha", "inf", "--r", "1", "--p", "0.3", "--seed", "1"],
        ["gen", "--n", "10", "--alpha", "0.8", "--r", "1e308", "--p", "0.3", "--seed", "1"],
        ["gen", "--n", "10", "--alpha", "300", "--r", "1", "--p", "0.3", "--seed", "1"],
        ["gen", "--n", "10", "--alpha", "0.8", "--r", "1e300", "--p", "0.3", "--seed", "1"],
        ["thresholds", "--alpha", "400", "--p", "0.3", "--n", "10"],
    ])
    def test_nonfinite_or_overflowing_params_exit_2(self, capsys, tmp_path, argv):
        if argv[0] == "gen":
            argv = argv + ["--out-dir", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("rbcsp: error: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestSolveCmd:
    def test_roundtrip_gen_solve(self, capsys, tmp_path):
        run(capsys, "gen", "--model", "rb", "--k", "2", "--n", "6", "--alpha", "0.7",
            "--r", "1.0", "--p", "0.4", "--seed", "3", "--forced",
            "--format", "both", "--out-dir", str(tmp_path))
        csp = next(tmp_path.glob("*.csp"))
        code, out, _ = run(capsys, "solve", str(csp))
        assert code == 0
        assert "status=SAT" in out
        assert "witness=" in out

        cnf = next(tmp_path.glob("*.cnf"))
        code, out, _ = run(capsys, "solve", str(cnf), "--no-witness")
        assert code == 0
        assert "status=SAT" in out
        assert "witness=" not in out

    def test_count_all(self, capsys, tmp_path):
        run(capsys, "gen", "--model", "rd", "--k", "2", "--n", "5", "--alpha", "0.7",
            "--r", "1.0", "--p", "0.35", "--seed", "4", "--format", "both",
            "--out-dir", str(tmp_path))
        csp = next(tmp_path.glob("*.csp"))
        cnf = next(tmp_path.glob("*.cnf"))
        _, out_csp, _ = run(capsys, "solve", str(csp), "--count-all")
        _, out_cnf, _ = run(capsys, "solve", str(cnf), "--count-all")
        count_csp = [l for l in out_csp.splitlines() if l.startswith("solutions=")]
        count_cnf = [l for l in out_cnf.splitlines() if l.startswith("solutions=")]
        assert count_csp == count_cnf


    def test_dimacs_clause_split_across_lines(self, capsys, tmp_path):
        # one clause (1 v 2 v 3) written over two lines: 7 of 8 assignments
        path = tmp_path / "split.cnf"
        path.write_text("p cnf 3 1\n1 2\n3 0\n")
        code, out, _ = run(capsys, "solve", str(path), "--count-all")
        assert code == 0
        assert "solutions=7" in out.splitlines()

    def test_dimacs_satlib_terminator(self, capsys, tmp_path):
        path = tmp_path / "uf.cnf"
        path.write_text("c SATLIB style\np cnf 2 2\n 1 -2 0\n 2 0\n%\n0\n\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "status=SAT" in out.splitlines()
        assert "witness=1 1" in out.splitlines()

    @pytest.mark.parametrize("data", [
        b"1 2 0\n",
        b"p cnf two 1\n1 0\n",
        b"p cnf 2 1\n1 5 0\n",
        b"p cnf 2 1\n1 x 0\n",
        b"p cnf 2 1\n1 2\n",
        b"p cnf 2 3\n1 2 0\n",
        b"p cnf 1 1\n1 0 \xff\n",  # not UTF-8
        b"p cnf 2147483648 0\n",  # more variables than a C int
        b"p cnf 100000000 0\n",
    ])
    def test_malformed_dimacs_exit_2(self, capsys, tmp_path, data):
        path = tmp_path / "bad.cnf"
        path.write_bytes(data)
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("rbcsp: error: ")
        assert "Traceback" not in err


class TestEncodeCmd:
    def test_encode_matches_gen(self, capsys, tmp_path):
        run(capsys, "gen", "--model", "rb", "--k", "2", "--n", "6", "--alpha", "0.7",
            "--r", "1.0", "--p", "0.4", "--seed", "5", "--format", "both",
            "--out-dir", str(tmp_path))
        csp = next(tmp_path.glob("*.csp"))
        direct = next(tmp_path.glob("*.cnf")).read_bytes()
        out_path = tmp_path / "reencoded.cnf"
        code, _, _ = run(capsys, "encode", str(csp), "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == direct


class TestProfileCmd:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "profile", "--model", "rb", "--k", "2", "--n", "10",
                           "--alpha", "0.8", "--r", "1.5", "--p", "0.25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "S,d_t,log_expected_random,log_expected_forced"
        assert len(lines) == 12  # header + S = 0..10
        last = lines[-1].split(",")
        assert last[0] == "10" and float(last[1]) == 0.0
        assert float(last[3]) == pytest.approx(0.0, abs=1e-9)


class TestSweepScaleCmd:
    def test_sweep_csv_deterministic(self, capsys, tmp_path):
        argv = ["sweep", "--model", "rb", "--k", "2", "--n", "8", "--alpha", "0.8",
                "--r", "1.5", "--p", "0.3", "--seed", "6", "--axis", "p",
                "--values", "0.2,0.4", "--samples", "5", "--out"]
        run(capsys, *argv, str(tmp_path / "a.csv"))
        run(capsys, *argv, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert len((tmp_path / "a.csv").read_text().splitlines()) == 3

    def test_scale_csv_deterministic(self, capsys, tmp_path):
        argv = ["scale", "--model", "rb", "--k", "2", "--n", "8", "--alpha", "0.8",
                "--r", "1.5", "--p", "0.3", "--seed", "7", "--n-values", "6,8",
                "--samples", "5", "--out"]
        run(capsys, *argv, str(tmp_path / "a.csv"))
        run(capsys, *argv, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_compare_forced_output(self, capsys):
        code, out, _ = run(capsys, "compare-forced", "--model", "rb", "--k", "2",
                           "--n", "8", "--alpha", "0.8", "--r", "1.5", "--p", "0.25",
                           "--seed", "8", "--samples", "10")
        assert code == 0
        assert "ratio=" in out
        assert "discarded_unsat=" in out


class TestValidateCmd:
    def test_validate_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "11", "--instances", "24")
        assert code == 0
        assert out.count("[PASS]") == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1
