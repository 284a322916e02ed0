from __future__ import annotations

import math
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    Limits,
    PreconditionError,
    RandomizedFailureError,
    SearchBudgetExceeded,
    SurvivalMatrix,
    gen_from_setcover,
    gen_random_parallel,
    mfsp_exact,
    msp_epsnet,
    msp_exact,
    msp_greedy,
)
from survpath.instances import RandomEnsembleConfig
from survpath.msp import EpsNetState, effective_fiber_cap, epsnet_round

from oracles import (
    brute_min_cover,
    brute_msp,
    random_feasible_matrix,
    random_setcover_subsets,
)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def test_exact_pairwise(pairwise3):
    report = msp_exact(pairwise3)
    assert report.objective == 3
    assert report.solution.selected == (1, 2, 3)
    assert report.solution.survivable
    assert report.problem == "msp"
    assert report.algorithm == "msp_exact"
    assert brute_msp(pairwise3) == (3, (1, 2, 3))


def test_exact_disjoint_pair():
    mat = SurvivalMatrix.from_fiber_sets(2, [[1], [2]])
    report = msp_exact(mat)
    assert report.objective == 2
    assert report.solution.selected == (1, 2)


def test_exact_zero_fibers_needs_nothing():
    mat = SurvivalMatrix.from_fiber_sets(0, [[], []])
    report = msp_exact(mat)
    assert report.objective == 0
    assert report.solution.selected == ()


def test_exact_single_covering_path():
    mat = SurvivalMatrix.from_fiber_sets(3, [[], [1, 2, 3]])
    report = msp_exact(mat)
    assert report.objective == 1
    assert report.solution.selected == (1,)


def test_exact_known_cover_of_four():
    # Elements 1,4,5,8 each live in exactly one subset, so the partition
    # {1,2},{3,4},{5,6},{7,8} is forced and the two overlap decoys are useless.
    subsets = [[1, 2], [3, 4], [5, 6], [7, 8], [2, 3], [6, 7]]
    assert brute_min_cover(8, subsets) == 4
    mat = gen_from_setcover(8, subsets)
    report = msp_exact(mat)
    assert report.objective == 4
    assert report.solution.selected == (1, 2, 3, 4)


def test_exact_matches_brute_force_on_random_instances():
    rng = Random("msp-exact-vs-brute")
    for _ in range(60):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=10)
        size, ids = brute_msp(mat)
        report = msp_exact(mat)
        assert report.objective == size
        assert report.solution.selected == ids
        assert report.solution.survivable


def test_exact_reports_search_size_bound(pairwise3):
    report = msp_exact(pairwise3)
    # min(m, n) + 1 = 4 here; no declared limits.
    assert report.extra["size_bound"] == 4
    assert report.iterations >= 1


@pytest.mark.parametrize("solve", [msp_exact, mfsp_exact])
def test_exact_reaches_the_k_plus_one_bound(solve):
    # Path i survives only fiber i, so it uses the other m - 1 = K fibers, and
    # the one survivable set is all m = K + 1 paths: the bound is exact here.
    m = 6
    mat = SurvivalMatrix.from_fiber_sets(
        m, [[f for f in range(1, m + 1) if f != i] for i in range(1, m + 1)]
    )
    report = solve(mat, Limits(max_fibers_per_path=m - 1))
    assert report.extra["size_bound"] == m
    assert report.solution.selected == tuple(range(1, m + 1))


def test_exact_respects_node_budget():
    rng = Random("msp-budget")
    mat = random_feasible_matrix(rng, max_paths=12, max_fibers=12, min_paths=8)
    with pytest.raises(SearchBudgetExceeded) as exc_info:
        msp_exact(mat, node_limit=1)
    assert exc_info.value.nodes >= 1


def test_exact_solves_a_60_set_cover_embedding_within_100k_nodes():
    # 60 subsets of 60 elements at density 0.25, the setcover-msp shape at a
    # larger size: the witness pass must prune, not only check feasibility.
    mat = gen_from_setcover(60, random_setcover_subsets(Random(1), 60, 0.25))
    report = msp_exact(mat, node_limit=100_000)
    assert report.objective == 5
    assert report.solution.survivable


def test_exact_solves_an_80_set_cover_embedding_within_100k_nodes():
    # The same construction at 80 x 80: a witness search that orders its
    # branches by id alone needs more than 200k nodes here.
    mat = gen_from_setcover(80, random_setcover_subsets(Random(1), 80, 0.25))
    report = msp_exact(mat, node_limit=100_000)
    assert report.objective == 6
    assert report.solution.selected == (1, 23, 24, 31, 40, 64)
    assert report.solution.survivable


def test_exact_infeasible(uncoverable):
    with pytest.raises(InfeasibleInstanceError) as exc_info:
        msp_exact(uncoverable)
    assert exc_info.value.fiber == 1


def test_exact_declared_limit_checked(pairwise3):
    with pytest.raises(PreconditionError):
        msp_exact(pairwise3, Limits(max_fibers_per_path=1))


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def test_greedy_pairwise(pairwise3):
    report = msp_greedy(pairwise3)
    assert report.objective == 3
    assert report.solution.selected == (1, 2, 3)
    assert report.solution.survivable


def test_greedy_tie_breaks_to_smaller_id():
    mat = SurvivalMatrix.from_fiber_sets(2, [[2], [2], [1]])
    report = msp_greedy(mat)
    assert report.solution.selected == (1, 3)
    assert report.extra["selections"] == [[1, 1], [3, 1]]


def test_greedy_trace_gains_are_maximal():
    rng = Random("greedy-trace")
    for _ in range(40):
        mat = random_feasible_matrix(rng, max_paths=9, max_fibers=9)
        report = msp_greedy(mat)
        covered = 0
        for path_id, gain in report.extra["selections"]:
            best = max(
                (mat.survive_mask(j) & ~covered).bit_count()
                for j in range(1, mat.num_paths + 1)
            )
            assert gain == best > 0
            covered |= mat.survive_mask(path_id)
        assert covered == mat.all_fibers_mask
        assert report.objective == len(report.extra["selections"])


def test_greedy_infeasible(uncoverable):
    with pytest.raises(InfeasibleInstanceError):
        msp_greedy(uncoverable)


# ---------------------------------------------------------------------------
# Structural bounds under K / W restrictions
# ---------------------------------------------------------------------------


def test_k_restricted_bounds():
    rng = Random("k-bounds")
    for trial in range(60):
        k = rng.randint(2, 6)
        cfg = RandomEnsembleConfig(
            num_paths=rng.randint(6, 14),
            num_fibers=rng.randint(8, 16),
            max_paths_per_fiber=rng.randint(3, 6),
            max_fibers_per_path=k,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        limits = Limits(max_fibers_per_path=k)
        exact = msp_exact(mat, limits)
        greedy = msp_greedy(mat)
        assert exact.objective <= k + 1
        assert greedy.objective <= k + 1
        assert greedy.objective <= (math.log(k) + 1) * exact.objective


def test_w_restricted_bounds():
    rng = Random("w-bounds")
    for trial in range(60):
        w = rng.randint(1, 6)
        cfg = RandomEnsembleConfig(
            num_paths=rng.randint(2, min(10, w * 6)),
            num_fibers=rng.randint(6, 12),
            max_paths_per_fiber=w,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        limits = Limits(max_paths_per_fiber=w)
        assert msp_exact(mat, limits).objective <= w + 1
        assert msp_greedy(mat).objective <= w + 1


def test_any_w_plus_one_paths_are_survivable():
    # The W+1 bound is witnessed by *any* W+1 distinct paths: a fiber loaded
    # at most W cannot be used by all of them.
    rng = Random("w-plus-one")
    for trial in range(40):
        w = rng.randint(1, 4)
        n = w + 1 + rng.randint(0, 4)
        cfg = RandomEnsembleConfig(
            num_paths=n,
            num_fibers=rng.randint(6, 12),
            max_paths_per_fiber=w,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        for _ in range(5):
            ids = rng.sample(range(1, n + 1), w + 1)
            assert mat.is_survivable(ids)


def test_effective_fiber_cap(pairwise3):
    assert effective_fiber_cap(pairwise3, None) == 2
    assert effective_fiber_cap(pairwise3, Limits(max_fibers_per_path=3)) == 3
    empty = SurvivalMatrix.from_fiber_sets(2, [[], []])
    assert effective_fiber_cap(empty, None) == 1


# ---------------------------------------------------------------------------
# Epsilon-net sampling solver
# ---------------------------------------------------------------------------


def test_epsnet_pairwise_deterministic(pairwise3):
    a = msp_epsnet(pairwise3, seed=7)
    b = msp_epsnet(pairwise3, seed=7)
    assert a.objective == 3
    assert a.solution.selected == b.solution.selected == (1, 2, 3)
    assert a.seed == 7
    assert a.extra["guess"] >= 1
    assert a.extra["sample_size"] >= 1


def test_epsnet_keeps_zero_cost_path():
    mat = SurvivalMatrix.from_fiber_sets(2, [[], [1], [2]])
    report = msp_epsnet(mat, seed=0)
    assert report.objective == 1
    assert report.solution.selected == (1,)


def test_epsnet_zero_fibers():
    mat = SurvivalMatrix.from_fiber_sets(0, [[]])
    report = msp_epsnet(mat, seed=3)
    assert report.objective == 0
    assert report.solution.selected == ()


def test_epsnet_results_are_minimal_and_survivable():
    rng = Random("epsnet-minimal")
    for trial in range(40):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=10)
        report = msp_epsnet(mat, seed=trial)
        ids = report.solution.selected
        assert mat.is_survivable(ids)
        if len(ids) > 1:
            for drop in ids:
                remaining = [j for j in ids if j != drop]
                assert not mat.is_survivable(remaining)


def test_epsnet_success_rate_and_quality_under_w():
    rng = Random("epsnet-quality")
    successes = 0
    ratios = []
    runs = 100
    for trial in range(runs):
        cfg = RandomEnsembleConfig(
            num_paths=30,
            num_fibers=40,
            max_paths_per_fiber=4,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            successes += 1  # does not count against the solver
            continue
        exact = msp_exact(mat, Limits(max_paths_per_fiber=4)).objective
        try:
            report = msp_epsnet(mat, Limits(max_paths_per_fiber=4), seed=trial)
        except RandomizedFailureError:
            continue
        successes += 1
        ratios.append(report.objective / exact)
        assert report.objective <= 4 + 1  # W+1 holds for any minimal output
    assert successes >= 95
    ratios.sort()
    median = ratios[len(ratios) // 2]
    # D = min(log2(K_eff)+1, W); the multiplicative guarantee is loose here.
    assert median <= (math.log2(4) + 1) * (math.log2(3) + 1) * 3


def test_epsnet_weights_stay_powers_of_two(pairwise3):
    state = EpsNetState(weights=[1, 1, 1], sample_size=2)
    rng = Random(5)
    for _ in range(6):
        outcome = epsnet_round(state, pairwise3, rng)
        assert all(w >= 1 and (w & (w - 1)) == 0 for w in state.weights)
        if outcome is not None:
            assert pairwise3.is_survivable(outcome)
            break
    distribution = state.distribution()
    assert abs(sum(distribution) - 1.0) < 1e-12


def test_epsnet_doubles_only_helpful_paths():
    # Fiber 1 is missed when the sample is {3} (path 3 uses fiber 1); the
    # paths surviving fiber 1 are exactly 1 and 2, so only they double.
    mat = SurvivalMatrix.from_fiber_sets(2, [[2], [2], [1]])
    state = EpsNetState(weights=[1, 1, 1], sample_size=1)
    class FixedRng:
        def randrange(self, total):
            return 2  # always lands on path 3

    outcome = epsnet_round(state, mat, FixedRng())
    assert outcome is None
    assert state.unsurvived == (1,)
    assert state.weights == [2, 2, 1]


def test_epsnet_failure_is_deterministic_and_replayable(pairwise3):
    # With c=0.05 every sample is a single draw; no single path is survivable
    # here, and the guess schedule tops out below the required three paths.
    for seed in (0, 1, 99):
        with pytest.raises(RandomizedFailureError) as exc_info:
            msp_epsnet(pairwise3, seed=seed, c=0.05)
        assert exc_info.value.seed == seed
        assert "seed" in str(exc_info.value)


def test_epsnet_infeasible(uncoverable):
    with pytest.raises(InfeasibleInstanceError):
        msp_epsnet(uncoverable, seed=0)


def test_epsnet_rejects_bad_c(pairwise3):
    with pytest.raises(PreconditionError):
        msp_epsnet(pairwise3, seed=0, c=0.0)
