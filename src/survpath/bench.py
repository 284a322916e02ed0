"""Benchmark harness: run solver ensembles over random instances, emit CSV.

One :class:`BenchRow` is produced per (algorithm, load cap W, trial); aggregate
mean/std rows per (algorithm, W) are recomputable from the raw rows (and tested
to be).  All seeding is derived deterministically from the experiment seed, so
a rerun with the same arguments reproduces the CSV byte for byte (timing
columns are zeroed unless explicitly requested).

The trial loop parallelizes across processes; the ``SURVPATH_THREADS``
environment variable caps the worker count.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from hashlib import blake2b
from statistics import mean, pstdev

from .instances import RandomEnsembleConfig, gen_random_parallel
from .mfsp import (
    RoundingConfig,
    mfsp_acg,
    mfsp_epsnet,
    mfsp_exact,
    mfsp_nacg,
    mfsp_randomized_rounding,
    mfsp_rsg,
)
from .model import (
    Limits,
    RandomizedFailureError,
    SearchBudgetExceeded,
    SolveReport,
    SurvivalMatrix,
    ValidationError,
)
from .msp import _Budget, msp_epsnet, msp_exact, msp_greedy

__all__ = [
    "BenchRow",
    "ExperimentResult",
    "run_experiment",
    "solve_named",
    "CSV_COLUMNS",
    "worker_count",
]

CSV_COLUMNS = (
    "alg",
    "problem",
    "W",
    "K",
    "trial",
    "seed",
    "objective",
    "survivable",
    "iterations",
    "elapsed_us",
)

# The one list of solvers: every (problem, alg) pair the library, the CLI and
# the bench grid accept.  Each entry takes the matrix, the limits and
# solve_named's keyword options, and ignores the options it has no use for.
SOLVERS: dict[tuple[str, str], Callable[..., SolveReport]] = {
    ("msp", "exact"): lambda mat, limits, node_limit, **_: msp_exact(
        mat, limits, node_limit=node_limit
    ),
    ("msp", "greedy"): lambda mat, limits, **_: msp_greedy(mat),
    ("msp", "epsnet"): lambda mat, limits, seed, c, **_: msp_epsnet(mat, limits, seed, c=c),
    ("mfsp", "exact"): lambda mat, limits, node_limit, **_: mfsp_exact(
        mat, limits, node_limit=node_limit
    ),
    ("mfsp", "acg"): lambda mat, limits, **_: mfsp_acg(mat),
    ("mfsp", "nacg"): lambda mat, limits, **_: mfsp_nacg(mat),
    ("mfsp", "rsg"): lambda mat, limits, seed, **_: mfsp_rsg(mat, seed),
    ("mfsp", "rr"): lambda mat, limits, seed, q, repair, relaxation, **_: (
        mfsp_randomized_rounding(
            mat,
            RoundingConfig(target_survivability=q, seed=seed),
            repair=repair,
            relaxation=relaxation,
        )
    ),
    ("mfsp", "epsnet"): lambda mat, limits, seed, c, **_: mfsp_epsnet(
        mat, limits if limits is not None else Limits(), seed, c=c
    ),
}
PROBLEMS = tuple(dict.fromkeys(problem for problem, _ in SOLVERS))
# The grid run_experiment (and so ``survpath bench``) runs when no algorithms
# are named.
DEFAULT_ALGS: dict[str, tuple[str, ...]] = {
    "msp": ("greedy", "epsnet"),
    "mfsp": ("acg", "nacg", "rsg"),
}


def check_algorithms(problem: str, algs: Iterable[str]) -> None:
    """Raise :class:`ValidationError`, listing the choices, unless every name
    in ``algs`` is a solver of ``problem``."""
    if problem not in PROBLEMS:
        raise ValidationError(
            f"unknown problem {problem!r} (choose from {', '.join(PROBLEMS)})"
        )
    valid = [alg for p, alg in SOLVERS if p == problem]
    for alg in algs:
        if alg not in valid:
            raise ValidationError(
                f"algorithm {alg!r} is not a {problem} solver "
                f"(choose from {', '.join(valid)})"
            )


def solve_named(
    problem: str,
    alg: str,
    mat: SurvivalMatrix,
    limits: Limits | None,
    *,
    seed: int = 0,
    q: float = 0.9,
    c: float = 10.0,
    node_limit: int | None = None,
    repair: bool = False,
    relaxation=None,
) -> SolveReport:
    """Run the solver :data:`SOLVERS` lists under ``(problem, alg)``."""
    check_algorithms(problem, (alg,))
    return SOLVERS[problem, alg](
        mat,
        limits,
        seed=seed,
        q=q,
        c=c,
        node_limit=node_limit,
        repair=repair,
        relaxation=relaxation,
    )


def derive_seed(text: str) -> int:
    """Stable 64-bit seed derived from a textual label."""
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class BenchRow:
    """One solver run.  ``objective``/``survivable``/``iterations`` are None
    when the run did not finish (exact over budget); a randomized run that
    exhausted its schedule keeps ``survivable=False`` with no objective."""

    alg: str
    problem: str
    w: int | None
    k: int | None
    trial: int
    seed: int | None
    objective: int | None
    survivable: bool | None
    iterations: int | None
    elapsed_us: int

    @classmethod
    def from_report(
        cls, alg: str, report: SolveReport, limits: Limits, trial: int
    ) -> BenchRow:
        """The row of a finished run; W and K are the caps it was solved under."""
        return cls(
            alg,
            report.problem,
            limits.max_paths_per_fiber,
            limits.max_fibers_per_path,
            trial,
            report.seed,
            report.objective,
            report.solution.survivable,
            report.iterations,
            int(report.elapsed * 1e6),
        )

    def csv_cells(self, *, include_timing: bool) -> list[str]:
        return [
            self.alg,
            self.problem,
            _cell(self.w),
            _cell(self.k),
            str(self.trial),
            _cell(self.seed),
            _cell(self.objective),
            _cell(None if self.survivable is None else int(self.survivable)),
            _cell(self.iterations),
            str(self.elapsed_us if include_timing else 0),
        ]


@dataclass(frozen=True)
class ExperimentResult:
    """All rows of one experiment plus derivable aggregates."""

    problem: str
    rows: tuple[BenchRow, ...]

    def aggregates(self) -> list[list[str]]:
        """Mean/std rows per (alg, W): objective and iterations over completed
        runs, the completed-and-survivable rate in the mean row's survivable
        column."""
        groups: dict[tuple[str, int], list[BenchRow]] = {}
        for row in self.rows:
            groups.setdefault((row.alg, row.w), []).append(row)
        out: list[list[str]] = []
        for (alg, w), rows in sorted(groups.items()):
            done = [r for r in rows if r.objective is not None]
            objectives = [r.objective for r in done]
            iteration_counts = [r.iterations for r in done]
            success_rate = _fmt(sum(bool(r.survivable) for r in rows) / len(rows))
            for label, stat, survivable in (
                ("mean", mean, success_rate),
                ("std", pstdev, ""),
            ):
                out.append(
                    [
                        alg,
                        self.problem,
                        _cell(w),
                        _cell(rows[0].k),
                        label,
                        "",
                        _fmt(stat(objectives)) if objectives else "",
                        survivable,
                        _fmt(stat(iteration_counts)) if iteration_counts else "",
                        "",
                    ]
                )
        return out

    def mean_objective(self, alg: str, w: int) -> float:
        values = [
            r.objective
            for r in self.rows
            if r.alg == alg and r.w == w and r.objective is not None
        ]
        if not values:
            raise ValidationError(f"no completed runs for {alg} at W={w}")
        return mean(values)

    def to_csv(self, *, include_timing: bool = False) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(row.csv_cells(include_timing=include_timing)))
        for cells in self.aggregates():
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return "" if value is None else str(value)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def worker_count() -> int:
    """Worker cap: SURVPATH_THREADS when set, else up to 8 CPUs."""
    raw = os.environ.get("SURVPATH_THREADS")
    if raw is None:
        return max(1, min(os.cpu_count() or 1, 8))
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"SURVPATH_THREADS must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValidationError("SURVPATH_THREADS must be >= 1")
    return value


def _run_trial(
    instance: tuple[int, int, SurvivalMatrix],
    *,
    problem: str,
    algs: tuple[str, ...],
    k: int | None,
    experiment_seed: int,
    options: dict,
) -> list[BenchRow]:
    """Rows of every algorithm on one ``(W, trial, matrix)`` instance.

    Every cell gets a seed derived from its label; deterministic solvers
    ignore it and report ``seed=None``.
    """
    w, trial, mat = instance
    limits = Limits(max_fibers_per_path=k, max_paths_per_fiber=w)
    rows = []
    for alg in algs:
        seed = derive_seed(f"{experiment_seed}:{problem}:{alg}:{w}:{trial}")
        try:
            report = solve_named(problem, alg, mat, limits, seed=seed, **options)
        except SearchBudgetExceeded:
            rows.append(BenchRow(alg, problem, w, k, trial, None, None, None, None, 0))
        except RandomizedFailureError as exc:
            rows.append(BenchRow(alg, problem, w, k, trial, exc.seed, None, False, None, 0))
        else:
            rows.append(BenchRow.from_report(alg, report, limits, trial))
    return rows


def run_experiment(
    *,
    problem: str = "mfsp",
    algs: tuple[str, ...] | None = None,
    num_paths: int,
    num_fibers: int,
    w_values: tuple[int, ...],
    max_fibers_per_path: int | None = None,
    trials: int,
    seed: int = 0,
    q: float = 0.9,
    c: float = 10.0,
    node_limit: int | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Run every requested algorithm over ``trials`` fresh instances per W.

    ``algs`` defaults to the problem's :data:`DEFAULT_ALGS` grid.  A negative
    ``node_limit`` raises :class:`~survpath.model.PreconditionError` even when
    no algorithm in the grid reads it.
    """
    if algs is None:
        algs = DEFAULT_ALGS.get(problem, ())
    check_algorithms(problem, algs)
    _Budget(node_limit)
    instances = []
    for w in w_values:
        cfg = RandomEnsembleConfig(
            num_paths=num_paths,
            num_fibers=num_fibers,
            max_paths_per_fiber=w,
            max_fibers_per_path=max_fibers_per_path,
            trials=trials,
            seed=derive_seed(f"{seed}:ensemble:{w}"),
        )
        for trial, mat in enumerate(gen_random_parallel(cfg), start=1):
            instances.append((w, trial, mat))
    # A partial of a module-level function pickles, so workers can run it.
    run_trial = partial(
        _run_trial,
        problem=problem,
        algs=tuple(algs),
        k=max_fibers_per_path,
        experiment_seed=seed,
        options=dict(q=q, c=c, node_limit=node_limit),
    )
    limit = workers if workers is not None else worker_count()
    if limit <= 1 or len(instances) <= 1:
        nested = [run_trial(instance) for instance in instances]
    else:
        with ProcessPoolExecutor(max_workers=min(limit, len(instances))) as pool:
            nested = list(pool.map(run_trial, instances))
    rows = [row for batch in nested for row in batch]
    rows.sort(key=lambda r: (r.alg, r.w, r.trial))
    return ExperimentResult(problem=problem, rows=tuple(rows))
