"""Differential check of the exact relaxation against SciPy's HiGHS solver.

SciPy is a test-only, optional dependency: the module is skipped without it.
"""

from __future__ import annotations

from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    RandomEnsembleConfig,
    SurvivalMatrix,
    gen_from_setcover,
    gen_random_parallel,
    solve_mfsp_relaxation,
)

optimize = pytest.importorskip("scipy.optimize")


def highs_relaxation(mat: SurvivalMatrix):
    """Solve the same LP with HiGHS over variables ``p_1..p_n, f_1..f_m``."""
    n, m = mat.num_paths, mat.num_fibers
    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    for i in range(1, m + 1):
        row = [-1.0 if mat.survives(i, j) else 0.0 for j in range(1, n + 1)]
        a_ub.append(row + [0.0] * m)
        b_ub.append(-1.0)
    for j in range(1, n + 1):
        for i in sorted(mat.path_fibers(j)):
            row = [0.0] * (n + m)
            row[j - 1] = 1.0
            row[n + i - 1] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    return optimize.linprog(
        c=[0.0] * n + [1.0] * m,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * m,
        method="highs",
    )


def assert_agrees(mat: SurvivalMatrix) -> None:
    res = highs_relaxation(mat)
    if res.status == 2:
        with pytest.raises(InfeasibleInstanceError):
            solve_mfsp_relaxation(mat)
        return
    assert res.status == 0, res.message
    exact = float(solve_mfsp_relaxation(mat).objective_exact)
    assert abs(res.fun - exact) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_ensemble_objective_matches_highs(seed):
    rng = Random(f"highs-ensemble:{seed}")
    m = rng.randint(4, 16)
    w = rng.randint(2, 4)
    n = rng.randint(4, min(20, w * m))
    cfg = RandomEnsembleConfig(
        num_paths=n, num_fibers=m, max_paths_per_fiber=w, trials=4, seed=seed
    )
    for mat in gen_random_parallel(cfg):
        assert_agrees(mat)


@pytest.mark.parametrize("seed", range(6))
def test_setcover_objective_matches_highs(seed):
    rng = Random(f"highs-setcover:{seed}")
    ground = rng.randint(4, 14)
    subsets = [
        rng.sample(range(1, ground + 1), rng.randint(1, ground))
        for _ in range(rng.randint(2, 12))
    ]
    assert_agrees(gen_from_setcover(ground, subsets))


@pytest.mark.parametrize("size", [8, 12, 16, 20])
def test_dense_setcover_objective_matches_highs(size):
    # Each subset holds about a quarter of the ground set, so each path uses
    # about 3/4 of the fibers: every pivot touches most of a row.  Subset j
    # holds element j, so the instance is feasible.
    rng = Random(f"highs-dense:{size}")
    q = size // 4
    subsets = [
        {j, *rng.sample(range(1, size + 1), rng.randint(q - 1, q))}
        for j in range(1, size + 1)
    ]
    assert_agrees(gen_from_setcover(size, subsets))


def test_infeasible_instances_agree():
    # Fiber 1 is used by every path: HiGHS and the exact solver both refuse.
    mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [1], [1, 3]])
    assert highs_relaxation(mat).status == 2
    assert_agrees(mat)
    # An element no subset contains is an uncoverable fiber.
    cover = gen_from_setcover(4, [[1, 2], [2, 3]])
    assert highs_relaxation(cover).status == 2
    assert_agrees(cover)
