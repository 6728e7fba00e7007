"""Command-line front end.

Every randomized subcommand takes an explicit --seed; there is no
ambient-entropy default, so identical invocations produce identical bytes.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, harness
from .core import (
    Assignment,
    CspParams,
    ModelKind,
    ParameterError,
    RbcspError,
    derive_sizes,
)
from .encoder import (
    encode_cnf,
    read_csp_native,
    read_dimacs,
    write_csp_native,
    write_dimacs,
    write_solution,
)
from .generator import GenRequest, generate
from .rng import derive_stream
from .solver import SolveConfig, dpll, solve_csp


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_params_args(sub, need_seed=True):
    sub.add_argument("--model", choices=["rb", "rd"], default="rb")
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--r", type=float, required=True)
    sub.add_argument("--p", type=float, required=True)
    if need_seed:
        sub.add_argument("--seed", type=int, required=True)


def _add_run_args(sub):
    sub.add_argument("--samples", type=int, default=100)
    sub.add_argument("--node-limit", type=int, default=10_000_000)
    sub.add_argument("--heuristic", choices=["lex", "mrv"], default="mrv")


def _list_of(kind):
    """argparse type: a comma-separated list of `kind` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def _params_from(args) -> CspParams:
    return CspParams(
        model=args.model, k=args.k, n=args.n,
        alpha=args.alpha, r=args.r, p=args.p,
    )


def _write(out: Path | str | None, text: str):
    """Write text to the file `out` and print its path; to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
        print(Path(out))
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ParameterError(f"count must be >= 1, got {args.count}")
    if args.split_width is not None and args.split_width < 3:
        raise ParameterError(f"split_width must be >= 3, got {args.split_width}")
    if args.emit_solution and not args.forced:
        raise ParameterError("--emit-solution needs --forced: random instances hide no solution")
    params = _params_from(args)
    sizes = derive_sizes(params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = derive_stream(args.seed, i) if args.count > 1 else args.seed
        instance = generate(GenRequest(params=params, seed=seed, forced=args.forced))
        stem = f"{params.model.value}_k{params.k}_n{params.n}_d{sizes.d}_m{sizes.m}_i{i:04d}"
        if args.format in ("rbcsp", "both"):
            _write(out_dir / f"{stem}.csp", write_csp_native(instance))
        if args.format in ("dimacs", "both"):
            _write(out_dir / f"{stem}.cnf", write_dimacs(encode_cnf(instance, args.split_width)))
        if args.emit_solution:
            _write(out_dir / f"{stem}.solution", write_solution(instance.forced))
    return 0


def _cmd_thresholds(args) -> int:
    if args.p is None and args.r is None:
        print("thresholds: provide --p, --r, or both", file=sys.stderr)
        return 1
    r_cr = analysis.r_threshold(args.alpha, args.p) if args.p is not None else None
    r_for_conditions = args.r if args.r is not None else r_cr
    p_cr = analysis.p_threshold(args.alpha, r_for_conditions)
    p = args.p if args.p is not None else p_cr
    # every value before any output, so that a rejected parameter prints nothing
    lines = [f"r_cr={r_cr:.12f}"] if r_cr is not None else []
    lines.append(f"p_cr={p_cr:.12f}")
    lines += [f"condition.{cond.name}={'ok' if cond.satisfied else 'violated'} "
              f"margin={cond.margin:.6f}"
              for cond in analysis.check_conditions(args.k, args.alpha, r_for_conditions, p)]
    if args.n is not None:
        params = CspParams(model=ModelKind.RB, k=args.k, n=args.n, alpha=args.alpha, r=r_for_conditions, p=p)
        sizes = derive_sizes(params)
        lines += [f"d={sizes.d}", f"m={sizes.m}", f"q={sizes.q}",
                  f"log_first_moment={analysis.first_moment_log(params):.9f}",
                  f"log_forced_expected={analysis.forced_expected_count_log(params):.9f}"]
    print("\n".join(lines))
    return 0


def _cmd_profile(args) -> int:
    params = _params_from(args)
    random_points = analysis.distance_profile(params, forced=False)
    forced_points = analysis.distance_profile(params, forced=True)
    lines = ["S,d_t,log_expected_random,log_expected_forced"]
    for rnd, frc in zip(random_points, forced_points):
        lines.append(f"{rnd.S},{rnd.d_t!r},{rnd.log_expected!r},{frc.log_expected!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_encode(args) -> int:
    path = Path(args.input)
    out = Path(args.out) if args.out else path.with_suffix(".cnf")
    if out.exists() and out.samefile(path):
        raise RbcspError(f"output {out} is the input file; name another with --out")
    instance = read_csp_native(path.read_text(encoding="utf-8"))
    _write(out, write_dimacs(encode_cnf(instance, args.split_width)))
    return 0


def _cmd_solve(args) -> int:
    path = Path(args.input)
    fmt = args.format or ("dimacs" if path.suffix == ".cnf" else "rbcsp")
    cfg = SolveConfig(node_limit=args.node_limit, heuristic=args.heuristic,
                      count_all=args.count_all)
    if fmt == "rbcsp":
        instance = read_csp_native(path.read_text(encoding="utf-8"))
        result = solve_csp(instance, cfg)
    else:
        result = dpll(read_dimacs(path.read_text(encoding="utf-8")), cfg)
    print(f"status={result.status.value}")
    print(f"nodes={result.nodes}")
    print(f"backtracks={result.backtracks}")
    if result.solutions is not None:
        print(f"solutions={result.solutions}")
    if result.witness is not None and not args.no_witness:
        if isinstance(result.witness, Assignment):
            text = " ".join(str(v + 1) for v in result.witness.values)
        else:
            text = " ".join("1" if b else "0" for b in result.witness)
        print(f"witness={text}")
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.SweepSpec(
        base=_params_from(args),
        axis=args.axis,
        values=args.values,
        samples_per_point=args.samples,
        base_seed=args.seed,
        node_limit=args.node_limit,
        forced=args.forced,
        heuristic=args.heuristic,
    )
    _write(args.out, harness.sweep_csv(harness.sweep(spec)))
    return 0


def _cmd_scale(args) -> int:
    rows = harness.scaling_study(
        base=_params_from(args),
        n_values=args.n_values,
        samples=args.samples,
        base_seed=args.seed,
        node_limit=args.node_limit,
        forced=not args.random,
        heuristic=args.heuristic,
    )
    _write(args.out, harness.scaling_csv(rows))
    return 0


def _cmd_compare_forced(args) -> int:
    summary = harness.forced_vs_random(
        params=_params_from(args),
        samples=args.samples,
        base_seed=args.seed,
        node_limit=args.node_limit,
        heuristic=args.heuristic,
    )
    print(f"median_nodes_forced={summary.median_forced!r}")
    print(f"median_nodes_random_sat={summary.median_random_sat!r}")
    print(f"ratio={summary.ratio!r}")
    print(f"samples_forced={summary.samples_forced}")
    print(f"samples_random_sat={summary.samples_random_sat}")
    print(f"discarded_unsat={summary.discarded_unsat}")
    print(f"censored_forced={summary.censored_forced}")
    print(f"censored_random={summary.censored_random}")
    return 0


def _cmd_validate(args) -> int:
    from .validate import run_validation

    ok = run_validation(seed=args.seed, instances=args.instances)
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="rbcsp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate instances")
    _add_params_args(gen)
    gen.add_argument("--forced", action="store_true")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--format", choices=["rbcsp", "dimacs", "both"], default="both")
    gen.add_argument("--split-width", type=int, default=None)
    gen.add_argument("--out-dir", default=".")
    gen.add_argument("--emit-solution", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    thr = subs.add_parser("thresholds", help="threshold report (key=value)")
    thr.add_argument("--k", type=int, default=2)
    thr.add_argument("--alpha", type=float, required=True)
    thr.add_argument("--p", type=float, default=None)
    thr.add_argument("--r", type=float, default=None)
    thr.add_argument("--n", type=int, default=None, help="also derive sizes/moments for this n")
    thr.set_defaults(func=_cmd_thresholds)

    prof = subs.add_parser("profile", help="distance-profile CSV")
    _add_params_args(prof, need_seed=False)
    prof.add_argument("--out", default=None)
    prof.set_defaults(func=_cmd_profile)

    enc = subs.add_parser("encode", help="RBCSP file -> DIMACS CNF")
    enc.add_argument("input")
    enc.add_argument("--split-width", type=int, default=None)
    enc.add_argument("--out", default=None)
    enc.set_defaults(func=_cmd_encode)

    slv = subs.add_parser("solve", help="solve an RBCSP or DIMACS file")
    slv.add_argument("input")
    slv.add_argument("--format", choices=["rbcsp", "dimacs"], default=None)
    slv.add_argument("--heuristic", choices=["lex", "mrv"], default="mrv",
                     help="variable order of forward checking on .csp input (dpll ignores it)")
    slv.add_argument("--node-limit", type=int, default=None)
    slv.add_argument("--count-all", action="store_true")
    slv.add_argument("--no-witness", action="store_true")
    slv.set_defaults(func=_cmd_solve)

    swp = subs.add_parser("sweep", help="SAT fraction and cost across an axis")
    _add_params_args(swp)
    swp.add_argument("--axis", choices=["p", "r"], required=True)
    swp.add_argument("--values", type=_list_of(float), required=True,
                     help="comma-separated, ascending")
    _add_run_args(swp)
    swp.add_argument("--forced", action="store_true")
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=_cmd_sweep)

    scl = subs.add_parser("scale", help="hardness growth in n at fixed (k, alpha, r, p)")
    _add_params_args(scl)
    scl.add_argument("--n-values", type=_list_of(int), required=True, help="comma-separated")
    _add_run_args(scl)
    scl.add_argument("--random", action="store_true", help="random instead of forced instances")
    scl.add_argument("--out", default=None)
    scl.set_defaults(func=_cmd_scale)

    cmp = subs.add_parser("compare-forced", help="forced vs random-satisfiable cost")
    _add_params_args(cmp)
    _add_run_args(cmp)
    cmp.set_defaults(func=_cmd_compare_forced)

    val = subs.add_parser("validate", help="run the oracle and moment self-checks")
    val.add_argument("--seed", type=int, required=True)
    val.add_argument("--instances", type=int, default=200)
    val.set_defaults(func=_cmd_validate)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RbcspError, OSError, UnicodeDecodeError) as exc:
        print(f"rbcsp: error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
