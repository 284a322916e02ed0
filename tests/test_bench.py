from __future__ import annotations

import statistics

import pytest

from survpath import (
    Limits,
    PreconditionError,
    SurvivalMatrix,
    ValidationError,
    run_experiment,
    solve_named,
)
from survpath.bench import CSV_COLUMNS, derive_seed, worker_count


def test_csv_schema_header_is_stable():
    assert CSV_COLUMNS == (
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


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed("a") == derive_seed("a")
    assert derive_seed("a") != derive_seed("b")
    assert 0 <= derive_seed("anything") < 2**63


def _small_experiment(**overrides):
    kwargs = dict(
        problem="mfsp",
        algs=("acg", "nacg", "rsg"),
        num_paths=8,
        num_fibers=12,
        w_values=(2, 3),
        trials=3,
        seed=11,
    )
    kwargs.update(overrides)
    return run_experiment(**kwargs)


def test_experiment_row_layout():
    result = _small_experiment()
    assert result.problem == "mfsp"
    assert len(result.rows) == 3 * 2 * 3  # algs x W values x trials
    assert [
        (r.alg, r.w, r.trial) for r in result.rows
    ] == sorted((r.alg, r.w, r.trial) for r in result.rows)
    for row in result.rows:
        assert row.problem == "mfsp"
        assert row.objective is not None
        assert row.survivable
        if row.alg == "rsg":
            assert row.seed is not None
        else:
            assert row.seed is None


def test_experiment_is_deterministic():
    a = _small_experiment().to_csv()
    b = _small_experiment().to_csv()
    assert a == b


def test_parallel_workers_do_not_change_results():
    sequential = _small_experiment(workers=1).to_csv()
    parallel = _small_experiment(workers=2).to_csv()
    assert sequential == parallel


def test_csv_contains_aggregate_rows():
    result = _small_experiment()
    text = result.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 18 per-trial rows + (3 algs x 2 W) x 2 aggregate rows.
    assert len(lines) == 1 + 18 + 12
    mean_lines = [l for l in lines if ",mean," in l]
    std_lines = [l for l in lines if ",std," in l]
    assert len(mean_lines) == 6 and len(std_lines) == 6
    # Timing column is zeroed by default on trial rows, blank on aggregates.
    for line in lines[1:]:
        cells = line.split(",")
        if cells[4] in ("mean", "std"):
            assert cells[-1] == ""
        else:
            assert cells[-1] == "0"


def test_aggregate_mean_matches_recomputation():
    result = _small_experiment()
    for alg in ("acg", "nacg", "rsg"):
        for w in (2, 3):
            rows = [r for r in result.rows if r.alg == alg and r.w == w]
            expected = statistics.mean(r.objective for r in rows)
            assert abs(result.mean_objective(alg, w) - expected) < 1e-12
    # The mean row's survivable cell carries the success fraction.
    for line in result.to_csv().splitlines():
        cells = line.split(",")
        if cells[4] == "mean":
            assert cells[7] == "1.000000"


def test_msp_experiment_uses_msp_algorithms():
    result = run_experiment(
        problem="msp",
        algs=("greedy", "epsnet"),
        num_paths=8,
        num_fibers=10,
        w_values=(2,),
        trials=2,
        seed=3,
    )
    assert all(r.problem == "msp" for r in result.rows)
    assert {r.alg for r in result.rows} == {"greedy", "epsnet"}


def test_default_algorithms_follow_the_problem():
    grid = dict(num_paths=8, num_fibers=10, w_values=(2,), trials=1, seed=3)
    msp = run_experiment(problem="msp", **grid)
    assert {r.alg for r in msp.rows} == {"greedy", "epsnet"}
    mfsp = run_experiment(problem="mfsp", **grid)
    assert {r.alg for r in mfsp.rows} == {"acg", "nacg", "rsg"}


def test_unknown_algorithm_rejected():
    with pytest.raises(ValidationError):
        _small_experiment(algs=("acg", "nope"))
    with pytest.raises(ValidationError):
        run_experiment(
            problem="msp",
            algs=("acg",),  # an MFSP algorithm
            num_paths=6,
            num_fibers=8,
            w_values=(2,),
            trials=1,
            seed=0,
        )


def test_solve_named_dispatch(pairwise3):
    limits = Limits(max_paths_per_fiber=2)
    for problem, alg, expected in [
        ("msp", "exact", 3),
        ("msp", "greedy", 3),
        ("msp", "epsnet", 3),
        ("mfsp", "exact", 3),
        ("mfsp", "acg", 3),
        ("mfsp", "nacg", 3),
        ("mfsp", "rsg", 3),
        ("mfsp", "rr", 3),
        ("mfsp", "epsnet", 3),
    ]:
        report = solve_named(problem, alg, pairwise3, limits, seed=1)
        assert report.objective == expected, (problem, alg)
        assert report.problem == problem


def test_solve_named_rejects_unknown(pairwise3):
    with pytest.raises(ValidationError):
        solve_named("msp", "rr", pairwise3, None)
    with pytest.raises(ValidationError):
        solve_named("nope", "exact", pairwise3, None)


def test_worker_count_respects_environment(monkeypatch):
    monkeypatch.setenv("SURVPATH_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SURVPATH_THREADS", "0")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.setenv("SURVPATH_THREADS", "abc")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.delenv("SURVPATH_THREADS")
    assert worker_count() >= 1


def test_budget_exhaustion_yields_dnf_rows():
    result = run_experiment(
        problem="mfsp",
        algs=("exact", "nacg"),
        num_paths=10,
        num_fibers=14,
        w_values=(3,),
        trials=2,
        seed=5,
        node_limit=1,
    )
    exact_rows = [r for r in result.rows if r.alg == "exact"]
    assert exact_rows and all(r.objective is None for r in exact_rows)
    assert all(r.survivable is None for r in exact_rows)
    text = result.to_csv()
    for line in text.splitlines():
        cells = line.split(",")
        if cells[0] == "exact" and cells[4] not in ("mean", "std"):
            assert cells[6] == "" and cells[7] == "" and cells[8] == ""


def test_negative_node_limit_is_rejected_without_an_exact_solver():
    # The default MSP grid (greedy, epsnet) never starts an exact search.
    with pytest.raises(PreconditionError, match="node_limit"):
        run_experiment(
            problem="msp", num_paths=6, num_fibers=8, w_values=(2,), trials=1,
            node_limit=-3,
        )
