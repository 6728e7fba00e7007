import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbcsp.cli import build_parser, cli_main
from rbcsp.core import CspParams, ModelKind
from rbcsp.encoder import encode_cnf, write_csp_native, write_dimacs
from rbcsp.generator import GenRequest, generate


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

    def test_conditions_without_n(self, capsys):
        """The side conditions need no n, so an arity above any placeholder n
        still prints them."""
        code, out, _ = run(capsys, "thresholds", "--k", "3", "--alpha", "0.8", "--p", "0.3")
        assert code == 0
        assert out.splitlines() == [
            "r_cr=2.242938601646",
            "p_cr=0.300000000000",
            "condition.alpha_gt_1_over_k=ok margin=0.466667",
            "condition.k_ge_1_over_1mp=ok margin=1.571429",
            "condition.k_exp_ge_1=ok margin=1.100000",
        ]

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
        # d^k is never computed for a huge arity
        ["gen", "--n", "10", "--k", "99999999999999999999", "--alpha", "0.8", "--r", "1",
         "--p", "0.3", "--seed", "1"],
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

    def test_variable_count_above_dpll_bound(self, capsys, tmp_path):
        # the header alone would size dpll's arrays at 2^31 entries
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 2147483648 0\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err == "rbcsp: error: 2147483648 CNF variables exceed the DPLL bound 65536\n"

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

    def test_refuses_to_overwrite_its_input(self, capsys, tmp_path):
        # a native file named .cnf: its default output path is the file itself
        inst = generate(GenRequest(CspParams(ModelKind.RB, 2, 6, 0.7, 1.0, 0.4), seed=5))
        path = tmp_path / "inst.cnf"
        path.write_text(write_csp_native(inst), encoding="utf-8")
        before = path.read_bytes()
        for argv in (["encode", str(path)], ["encode", str(path), "--out", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("rbcsp: error: output ")
            assert "is the input file" in err
            assert path.read_bytes() == before
        elsewhere = tmp_path / "elsewhere.cnf"
        code, _, _ = run(capsys, "encode", str(path), "--out", str(elsewhere))
        assert code == 0
        assert elsewhere.read_text(encoding="utf-8") == write_dimacs(encode_cnf(inst))
        assert path.read_bytes() == before


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

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "p", "--values", "0.3"], ["scale", "--n-values", "6,8"],
    ], ids=lambda argv: argv[0])
    def test_nonpositive_samples_exit_2(self, capsys, argv, samples):
        code, out, err = run(capsys, *argv, "--n", "8", "--alpha", "0.8", "--r", "1.5",
                             "--p", "0.3", "--seed", "1", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("rbcsp: error: samples per point must be >= 1")

    def test_compare_forced_output(self, capsys):
        code, out, _ = run(capsys, "compare-forced", "--model", "rb", "--k", "2",
                           "--n", "8", "--alpha", "0.8", "--r", "1.5", "--p", "0.25",
                           "--seed", "8", "--samples", "10")
        assert code == 0
        keys = [line.split("=")[0] for line in out.splitlines()]
        assert keys == ["median_nodes_forced", "median_nodes_random_sat", "ratio", "samples_forced",
                        "samples_random_sat", "discarded_unsat", "censored_forced", "censored_random"]


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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "p", "--values", value] for value in ("0.2,abc", "1,,2", "")
    ] + [
        ["scale", "--n-values", value]
        for value in ("8,x", "8,1.5", "0.5", "inf", "nan", "1e308", "")
    ])
    def test_malformed_list_flag(self, capsys, argv):
        params = ["--n", "8", "--alpha", "0.8", "--r", "1.5", "--p", "0.3", "--seed", "1",
                  "--samples", "2"]
        code, out, err = run(capsys, *argv, *params)
        assert code == 1
        assert out == ""
        assert f"error: argument {argv[-2]}: expected comma-separated" in err


# One small valid command line per subcommand; {csp} and {cnf} are tiny
# instance files and {out} an output directory.
PARAMS = ["--n", "6", "--alpha", "0.8", "--r", "1.5", "--p", "0.3"]
RUN = ["--seed", "1", "--samples", "2", "--node-limit", "1000"]
SMALL_ARGV = {
    "gen": ["gen", *PARAMS, "--seed", "1", "--out-dir", "{out}"],
    "thresholds": ["thresholds", "--alpha", "0.8", "--p", "0.3", "--r", "1.5", "--n", "6"],
    "profile": ["profile", *PARAMS],
    "encode": ["encode", "{csp}", "--out", "{out}/x.cnf"],
    "solve": ["solve", "{csp}", "--node-limit", "1000"],
    "solve.cnf": ["solve", "{cnf}", "--node-limit", "1000"],
    "sweep": ["sweep", *PARAMS, *RUN, "--axis", "p", "--values", "0.2,0.4"],
    "scale": ["scale", *PARAMS, *RUN, "--n-values", "6,8"],
    "compare-forced": ["compare-forced", *PARAMS, *RUN],
    "validate": ["validate", "--seed", "1", "--instances", "2"],
}
# none is a large integer, so no count flag (--samples, --count, --instances)
# starts a long run; --n of thresholds and profile stops at MAX_PROFILE_N
EDGE_VALUES = ["-1", "0", "1", "0.5", "nan", "inf", "-inf", "1e308", "x", "", "1,,2"]
NOT_VARIED = {"--out", "--out-dir", "--model", "--axis"}


def _subcommands() -> dict:
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def _edge_cases():
    subcommands = _subcommands()
    for name, base in SMALL_ARGV.items():
        for action in subcommands[base[0]]._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if flag is None or action.nargs == 0 or flag in NOT_VARIED:
                continue
            for value in EDGE_VALUES:
                if flag in base:
                    argv = list(base)
                    argv[argv.index(flag) + 1] = value
                else:
                    argv = [*base, flag, value]
                yield pytest.param(argv, id=f"{name} {flag} {value!r}")


def test_small_argv_covers_every_subcommand():
    assert set(_subcommands()) == {argv[0] for argv in SMALL_ARGV.values()}


class TestEdgeValues:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("edge")
        params = CspParams(ModelKind.RB, 2, 6, 0.8, 1.5, 0.3)
        (root / "x.csp").write_text(write_csp_native(generate(GenRequest(params=params, seed=1))))
        (root / "x.cnf").write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        (root / "out").mkdir()
        return {"csp": root / "x.csp", "cnf": root / "x.cnf", "out": root / "out"}

    @pytest.mark.parametrize("argv", list(_edge_cases()))
    def test_exit_code_without_traceback(self, capsys, files, argv):
        argv = [a.format(**files) for a in argv]
        code = cli_main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv


class TestRejectedBeforeAnyOutput:
    """Values the edge-value table accepts with any exit code, pinned to exit
    2 with nothing written."""

    @pytest.mark.parametrize("argv,message", [
        (["validate", "--seed", "1", "--instances", "0"], "instances must be >= 1"),
        (["validate", "--seed", "1", "--instances", "-1"], "instances must be >= 1"),
        (["gen", *PARAMS, "--seed", "1", "--count", "0"], "count must be >= 1"),
        (["gen", *PARAMS, "--seed", "1", "--count", "-1"], "count must be >= 1"),
        (["gen", *PARAMS, "--seed", "1", "--split-width", "1"], "split_width must be >= 3"),
        (["gen", *PARAMS, "--seed", "1", "--split-width", "2"], "split_width must be >= 3"),
        (["gen", *PARAMS, "--seed", "1", "--emit-solution"], "--emit-solution needs --forced"),
        *((["compare-forced", *PARAMS, "--seed", "1", "--samples", s], "samples must be >= 10")
          for s in ("9", "0", "-1")),
        (["thresholds", "--alpha", "0.8", "--p", "0.3", "--k", "1"], "arity k must be >= 2"),
        (["thresholds", "--alpha", "400", "--p", "0.3", "--n", "10"], "sizes overflow"),
        *((["thresholds", "--alpha", "0.8", "--p", "0.3", "--n", n], "variable count n must be >= 2")
          for n in ("1", "-5")),
        (["thresholds", "--alpha", "1", "--p", "0.99", "--n", "6"], "effective tightness 1"),
        *(([cmd, "--k", "3", "--n", "2", "--alpha", "0.8", "--r", "1.5", "--p", "0.3", *extra],
           "arity k = 3 exceeds variable count n = 2")
          for cmd, extra in [("gen", ["--seed", "1"]), ("thresholds", []), ("profile", []),
                             ("sweep", [*RUN, "--axis", "p", "--values", "0.2,0.4"])]),
        (["scale", *PARAMS, *RUN, "--k", "3", "--n-values", "2,3"], "arity k = 3 exceeds variable count n = 2"),
        (["profile", "--n", "6", "--alpha", "1", "--r", "1", "--p", "0.99"], "effective tightness 1"),
        (["thresholds", "--alpha", "0.8", "--p", "0.3", "--n", "100000000000"],
         "n = 100000000000 exceeds the closed-form bound 1000000"),
        (["profile", "--alpha", "0.8", "--r", "1.5", "--p", "0.3", "--n", "100000000"],
         "n = 100000000 exceeds the closed-form bound 1000000"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_exit_2(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "out"
        if argv[0] == "gen":
            argv = [*argv, "--out-dir", str(out_dir)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"rbcsp: error: {message}")
        assert not out_dir.exists() or not any(out_dir.iterdir())


BLOCK_IMPORTS = """
import sys
class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("mpmath", "numpy", "hypothesis", "pytest"):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, Block())
from rbcsp.cli import cli_main
sys.exit(cli_main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["gen", *PARAMS, "--seed", "1", "--format", "both", "--forced", "--emit-solution"],
    ["sweep", *PARAMS, *RUN, "--axis", "p", "--values", "0.2,0.4"],
    ["validate", "--seed", "1", "--instances", "4"],
], ids=lambda argv: argv[0])
def test_runs_without_test_dependencies(tmp_path, argv):
    """The package has no runtime dependencies: mpmath, numpy, hypothesis
    and pytest are blocked from import in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    if argv[0] == "gen":
        argv = [*argv, "--out-dir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_IMPORTS, *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
