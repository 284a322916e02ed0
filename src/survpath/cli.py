"""Command-line interface.

Subcommands::

    survpath solve {msp|mfsp} --alg ALG --in FILE [--k N] [--w N] [--q P]
                   [--seed S] [--c C] [--node-limit N] [--repair]
                   [--out {json|csv}] [--measure-time]
    survpath bench --paths N --fibers M --w-range A..B --trials T
                   [--problem {msp|mfsp}] [--algs LIST] [--k N] [--seed S]
                   [--q P] [--c C] [--node-limit N] [--measure-time]
    survpath verify --in FILE --paths 1,4,7

Exit codes: 0 success, 2 infeasible instance / unsurvivable selection,
3 randomized-run failure or exhausted exact-search node budget, 64 usage or
input-format error.

Instances may be ``.spn`` parallel-path files or ``.lnet`` layered networks
(candidate paths are enumerated, capped by ``--k`` when given).  Seeded
invocations print byte-identical output across reruns; pass ``--measure-time``
to fill the timing fields instead of zeroing them.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .formats import read_lnet, read_spn
from .model import (
    InfeasibleInstanceError,
    Limits,
    RandomizedFailureError,
    SearchBudgetExceeded,
    SurvPathError,
    SurvivalMatrix,
    ValidationError,
)
from .pathing import enumerate_paths_k_restricted, enumerate_paths_unrestricted

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_RANDOM_FAILURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    infeasibility, so usage problems exit 64 instead."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="survpath", description="Survivable path set solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("problem", choices=bench_mod.PROBLEMS)
    solve.add_argument("--alg", required=True, help="algorithm name")
    solve.add_argument("--in", dest="infile", required=True, help="instance file")
    solve.add_argument("--k", type=int, help="per-path fiber cap")
    solve.add_argument("--w", type=int, help="per-fiber load cap")
    solve.add_argument("--q", type=float, default=0.9, help="rounding survivability target")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--c", type=float, default=10.0, help="epsilon-net sampling constant")
    solve.add_argument("--node-limit", type=int, help="exact-search node budget")
    solve.add_argument("--repair", action="store_true", help="greedy-complete unsurvivable roundings")
    solve.add_argument("--out", choices=("json", "csv"), default="json")
    solve.add_argument("--measure-time", action="store_true")

    bench = sub.add_parser("bench", help="run a solver ensemble, emit CSV")
    bench.add_argument("--problem", choices=bench_mod.PROBLEMS, default="mfsp")
    bench.add_argument("--paths", type=int, required=True)
    bench.add_argument("--fibers", type=int, required=True)
    bench.add_argument("--w-range", required=True, help="load caps, e.g. 2..6")
    bench.add_argument("--k", type=int, help="per-path fiber cap")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--algs", help="comma-separated algorithm list")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--q", type=float, default=0.9)
    bench.add_argument("--c", type=float, default=10.0)
    bench.add_argument("--node-limit", type=int)
    bench.add_argument("--measure-time", action="store_true")

    verify = sub.add_parser("verify", help="check a selection's survivability")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--paths", required=True, help="comma-separated path ids")

    return parser


def _load_matrix(
    infile: str, k: int | None, w: int | None
) -> tuple[SurvivalMatrix, Limits]:
    """Read an instance file; CLI caps override file-declared ones."""
    if infile.endswith(".lnet"):
        net = read_lnet(infile)
        if k is not None:
            catalog = enumerate_paths_k_restricted(net, k)
        else:
            catalog = enumerate_paths_unrestricted(net)
        matrix = catalog.matrix(net.num_fibers)
        limits = Limits(max_fibers_per_path=k, max_paths_per_fiber=w)
    else:
        instance = read_spn(infile)
        matrix = instance.matrix()
        file_limits = instance.limits
        limits = Limits(
            max_fibers_per_path=k if k is not None else file_limits.max_fibers_per_path,
            max_paths_per_fiber=w if w is not None else file_limits.max_paths_per_fiber,
        )
    return matrix, limits


def _cmd_solve(args) -> tuple[int, str]:
    # Name and --repair checks come before the instance file is read.
    bench_mod.check_algorithms(args.problem, (args.alg,))
    if args.repair and (args.problem, args.alg) != ("mfsp", "rr"):
        raise ValidationError("--repair only applies to 'mfsp --alg rr'")
    matrix, limits = _load_matrix(args.infile, args.k, args.w)
    report = bench_mod.solve_named(
        args.problem, args.alg, matrix, limits, seed=args.seed, q=args.q, c=args.c,
        node_limit=args.node_limit, repair=args.repair,
    )
    if args.out == "json":
        payload = report.to_dict(include_timing=args.measure_time)
        payload["alg"] = args.alg
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        row = bench_mod.BenchRow.from_report(args.alg, report, limits, trial=1)
        cells = row.csv_cells(include_timing=args.measure_time)
        out = ",".join(bench_mod.CSV_COLUMNS) + "\n" + ",".join(cells) + "\n"
    return (EXIT_OK if report.solution.survivable else EXIT_RANDOM_FAILURE), out


def _parse_w_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValidationError(f"cannot parse --w-range {text!r}; expected A..B") from None
    if lo < 1 or hi < lo:
        raise ValidationError(f"bad --w-range {text!r}: need 1 <= A <= B")
    return tuple(range(lo, hi + 1))


def _cmd_bench(args) -> tuple[int, str]:
    w_values = _parse_w_range(args.w_range)
    algs = None
    if args.algs is not None:
        algs = tuple(token.strip() for token in args.algs.split(",") if token.strip())
        if not algs:
            raise ValidationError("--algs must name at least one algorithm")
    result = bench_mod.run_experiment(
        problem=args.problem, algs=algs, num_paths=args.paths, num_fibers=args.fibers,
        w_values=w_values, max_fibers_per_path=args.k, trials=args.trials, seed=args.seed,
        q=args.q, c=args.c, node_limit=args.node_limit,
    )
    return EXIT_OK, result.to_csv(include_timing=args.measure_time)


def _cmd_verify(args) -> tuple[int, str]:
    matrix, _ = _load_matrix(args.infile, None, None)
    tokens = [token.strip() for token in args.paths.split(",") if token.strip()]
    try:
        ids = [int(token) for token in tokens]
    except ValueError:
        raise ValidationError(f"cannot parse --paths {args.paths!r}") from None
    uncovered = matrix.uncovered_fibers(ids)
    if uncovered:
        listed = " ".join(str(f) for f in uncovered)
        return EXIT_INFEASIBLE, f"not survivable: uncovered fibers: {listed}\n"
    return EXIT_OK, f"survivable: {len(ids)} paths cover all {matrix.num_fibers} fibers\n"


_COMMANDS = {"solve": _cmd_solve, "bench": _cmd_bench, "verify": _cmd_verify}

# The one map from errors to exit codes: the first row whose type matches
# gives the stderr label and the code.  A command returns its output rather
# than printing it, so a failed write to stdout is never taken for one of
# these.
_ERRORS = (
    (InfeasibleInstanceError, "infeasible: ", EXIT_INFEASIBLE),
    ((RandomizedFailureError, SearchBudgetExceeded), "", EXIT_RANDOM_FAILURE),
    (OSError, "cannot read instance: ", EXIT_USAGE),
    # Anything not mapped more precisely above is an input problem.
    (SurvPathError, "error: ", EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, out = _COMMANDS[args.command](args)
    except (SurvPathError, OSError) as exc:
        # bench reads no instance file, so an OSError there (starting its
        # worker processes, say) is not the input's fault and propagates.
        if isinstance(exc, OSError) and args.command == "bench":
            raise
        for kind, label, code in _ERRORS:
            if isinstance(exc, kind):
                print(f"survpath {args.command}: {label}{exc}", file=sys.stderr)
                return code
    sys.stdout.write(out)
    return code
