from __future__ import annotations

import math
import statistics
from fractions import Fraction
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    Limits,
    PreconditionError,
    RandomizedFailureError,
    RoundingConfig,
    SearchBudgetExceeded,
    SurvivalMatrix,
    check_lemma7,
    gen_random_parallel,
    mfsp_acg,
    mfsp_epsnet,
    mfsp_exact,
    mfsp_nacg,
    mfsp_randomized_rounding,
    mfsp_rsg,
    msp_exact,
    solve_mfsp_relaxation,
)
from survpath.instances import RandomEnsembleConfig
from survpath.msp import _substitution_sweep

from oracles import brute_mfsp, brute_min_additive, random_feasible_matrix


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def test_exact_pairwise(pairwise3):
    report = mfsp_exact(pairwise3)
    assert report.objective == 3
    assert report.solution.selected == (1, 2, 3)
    assert report.solution.fibers_used == frozenset({1, 2, 3})
    assert report.algorithm == "mfsp_exact"
    assert report.problem == "mfsp"


def test_exact_prefers_fewer_fibers_over_fewer_paths(nonadditive):
    # Paths 2,3,4 share fibers pairwise and cover everything with 5 distinct
    # fibers, beating the additive-cheapest pair {1, 3} which lights 6.
    report = mfsp_exact(nonadditive)
    assert report.objective == 5
    assert report.solution.selected == (2, 3, 4)
    assert brute_mfsp(nonadditive) == (5, (2, 3, 4))
    additive_cost, additive_ids = brute_min_additive(nonadditive)
    assert (additive_cost, additive_ids) == (6, (1, 3))
    assert len(nonadditive.fibers_used_by(additive_ids)) == 6


def test_exact_disjoint_pair():
    mat = SurvivalMatrix.from_fiber_sets(2, [[1], [2]])
    report = mfsp_exact(mat)
    assert report.objective == 2
    assert report.solution.selected == (1, 2)


def test_exact_zero_cost_path_wins():
    mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [], [3]])
    report = mfsp_exact(mat)
    assert report.objective == 0
    assert report.solution.selected == (2,)


def test_exact_matches_brute_force_on_random_instances():
    rng = Random("mfsp-exact-vs-brute")
    for _ in range(60):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=10)
        fibers, ids = brute_mfsp(mat)
        report = mfsp_exact(mat)
        assert report.objective == fibers
        assert report.solution.selected == ids
        assert report.solution.survivable


def test_exact_respects_node_budget():
    rng = Random("mfsp-budget")
    mat = random_feasible_matrix(rng, max_paths=12, max_fibers=12, min_paths=8)
    with pytest.raises(SearchBudgetExceeded):
        mfsp_exact(mat, node_limit=1)


def test_exact_does_not_explore_every_tied_optimum():
    # 300 fiber-disjoint single-fiber paths: any two are optimal, and there
    # are 44,850 such pairs.  Returning the lex-smallest one must not visit
    # them all.
    n = 300
    mat = SurvivalMatrix.from_fiber_sets(n, [[j] for j in range(1, n + 1)])
    report = mfsp_exact(mat, node_limit=1_000)
    assert report.objective == 2
    assert report.solution.selected == (1, 2)


def test_exact_infeasible(uncoverable):
    with pytest.raises(InfeasibleInstanceError):
        mfsp_exact(uncoverable)


# ---------------------------------------------------------------------------
# Amortized-cost greedies
# ---------------------------------------------------------------------------


def test_acg_zero_cost_path_selected_alone():
    mat = SurvivalMatrix.from_fiber_sets(2, [[], [1], [2]])
    report = mfsp_acg(mat)
    assert report.solution.selected == (1,)
    assert report.objective == 0
    assert report.extra["selections"] == [[1, 0, 2]]


def test_nacg_reused_fibers_cost_nothing():
    # After {1,2,5} and {3,4,5} are chosen, path 3 rides entirely on already
    # lit fibers: its dynamic cost is 0 even though it uses four fibers.
    mat = SurvivalMatrix.from_fiber_sets(5, [[1, 2, 5], [3, 4, 5], [1, 2, 3, 4]])
    report = mfsp_nacg(mat)
    assert report.solution.selected == (1, 2, 3)
    assert report.objective == 5
    assert report.extra["selections"] == [[1, 3, 2], [2, 2, 2], [3, 0, 1]]


def test_acg_charges_static_cost_for_the_same_instance():
    mat = SurvivalMatrix.from_fiber_sets(5, [[1, 2, 5], [3, 4, 5], [1, 2, 3, 4]])
    report = mfsp_acg(mat)
    assert report.solution.selected == (1, 2, 3)
    assert report.extra["selections"] == [[1, 3, 2], [2, 3, 2], [3, 4, 1]]


def _best_step(mat, covered, used_union, dynamic):
    """Oracle for one greedy step: minimal (cost/gain, cost, id)."""
    best = None
    for j in range(1, mat.num_paths + 1):
        gain = (mat.survive_mask(j) & ~covered).bit_count()
        if gain == 0:
            continue
        if dynamic:
            cost = (mat.used_mask(j) & ~used_union).bit_count()
        else:
            cost = mat.used_mask(j).bit_count()
        key = (Fraction(cost, gain), cost, j)
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("dynamic", [False, True])
def test_greedy_traces_pick_minimal_amortized_cost(dynamic):
    rng = Random(f"greedy-oracle-{dynamic}")
    for _ in range(40):
        mat = random_feasible_matrix(rng, max_paths=9, max_fibers=9)
        report = (mfsp_nacg if dynamic else mfsp_acg)(mat)
        covered = 0
        used_union = 0
        for path_id, cost, gain in report.extra["selections"]:
            key = _best_step(mat, covered, used_union, dynamic)
            assert key is not None
            expected_ratio, expected_cost, expected_id = key
            assert path_id == expected_id
            assert cost == expected_cost
            assert Fraction(cost, gain) == expected_ratio
            assert gain == (mat.survive_mask(path_id) & ~covered).bit_count()
            covered |= mat.survive_mask(path_id)
            used_union |= mat.used_mask(path_id)
        assert covered == mat.all_fibers_mask
        assert report.objective == used_union.bit_count()


def test_greedy_objectives_sandwich_exact():
    rng = Random("greedy-vs-exact")
    for trial in range(60):
        cfg = RandomEnsembleConfig(
            num_paths=14,
            num_fibers=20,
            max_paths_per_fiber=4,
            max_fibers_per_path=5,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        exact = mfsp_exact(mat).objective
        for report in (mfsp_acg(mat), mfsp_nacg(mat), mfsp_rsg(mat, seed=trial)):
            assert report.solution.survivable
            assert exact <= report.objective
            # W (ln m + 1) multiplicative guarantee, with W = 4 here.
            assert report.objective <= 4 * (math.log(20) + 1) * max(exact, 1)


# ---------------------------------------------------------------------------
# Substitution greedy (randomized removal)
# ---------------------------------------------------------------------------

# m=9 instance engineered so the base greedy picks 1,2,3,4 in order and the
# substitution sweep behaves differently per drawn partner at the last
# iteration: drawing path 3 makes paths 1 and 2 both redundant against
# S4 | S3 (their fiber sets intersect nowhere), drawing path 1 exposes only
# path 2, and drawing path 2 exposes nobody.
_DOMINANCE_SETS = [[1, 2, 3], [1, 2, 4, 5], [1, 3, 5, 6], [2, 4, 7, 8, 9]]


def _dominance_matrix() -> SurvivalMatrix:
    return SurvivalMatrix.from_fiber_sets(9, _DOMINANCE_SETS)


def test_rsg_base_order_matches_nacg():
    mat = _dominance_matrix()
    report = mfsp_nacg(mat)
    assert report.solution.selected == (1, 2, 3, 4)
    assert report.extra["selections"] == [[1, 3, 6], [2, 2, 1], [3, 1, 1], [4, 3, 1]]


def test_rsg_removal_depends_on_drawn_partner():
    mat = _dominance_matrix()
    no_removal = mfsp_rsg(mat, seed=0)
    assert no_removal.extra["removed"] == []
    assert no_removal.solution.selected == (1, 2, 3, 4)

    removed_first = mfsp_rsg(mat, seed=1)
    assert removed_first.extra["removed"] == [1]
    assert removed_first.solution.selected == (2, 3, 4)

    removed_second = mfsp_rsg(mat, seed=2)
    assert removed_second.extra["removed"] == [2]
    assert removed_second.solution.selected == (1, 3, 4)

    # Every variant stays survivable and lights the same fiber set here.
    for report in (no_removal, removed_first, removed_second):
        assert report.solution.survivable
        assert report.objective == 9


def test_substitution_sweep_retires_the_smallest_dominated_path():
    # Path 4 uses no fiber, so with it every earlier pick is dominated: the
    # sweep keeps the drawn peer and retires the smallest other id, which is
    # path 1 unless path 1 was the peer.
    mat = SurvivalMatrix.from_fiber_sets(3, [[1], [2], [3], []])
    for seed in range(8):
        selected = [1, 2, 3, 4]
        victim = _substitution_sweep(mat, selected, mat.all_fibers_mask, 4, Random(seed))
        assert victim == (2 if 1 in selected else 1)
        assert victim not in selected and len(selected) == 3


def test_rsg_short_runs_never_remove():
    mat = SurvivalMatrix.from_fiber_sets(2, [[1], [2]])
    report = mfsp_rsg(mat, seed=123)
    assert report.solution.selected == (1, 2)
    assert report.extra["removed"] == []


def test_rsg_random_outputs_always_survivable():
    rng = Random("rsg-valid")
    for trial in range(60):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=12)
        for seed in (0, 1):
            report = mfsp_rsg(mat, seed=seed)
            assert report.solution.survivable
            removed = report.extra["removed"]
            assert not (set(removed) & set(report.solution.selected))
            assert report.objective == len(report.solution.fibers_used)


def test_rsg_deterministic_per_seed():
    mat = _dominance_matrix()
    assert mfsp_rsg(mat, seed=5).solution == mfsp_rsg(mat, seed=5).solution


def test_rsg_mean_close_to_exact_mean():
    objs_rsg = []
    objs_exact = []
    for trial in range(150):
        cfg = RandomEnsembleConfig(
            num_paths=14,
            num_fibers=20,
            max_paths_per_fiber=3,
            max_fibers_per_path=5,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        objs_rsg.append(mfsp_rsg(mat, seed=trial).objective)
        objs_exact.append(mfsp_exact(mat).objective)
    mean_rsg = statistics.mean(objs_rsg)
    mean_exact = statistics.mean(objs_exact)
    assert mean_exact <= mean_rsg <= 1.10 * mean_exact


# ---------------------------------------------------------------------------
# Randomized rounding
# ---------------------------------------------------------------------------


def test_rounding_schedule_values():
    assert RoundingConfig(0.99, 0).rounds(20) == 8
    assert RoundingConfig(0.9, 0).rounds(20) == 6
    assert RoundingConfig(0.5, 0).rounds(1) == 1
    assert RoundingConfig(0.5, 0).rounds(0) == 1


def test_rounding_config_validation():
    from survpath import ValidationError

    with pytest.raises(ValidationError):
        RoundingConfig(0.0, 0)
    with pytest.raises(ValidationError):
        RoundingConfig(1.0, 0)


def test_rounding_all_ones_relaxation_always_succeeds(pairwise3):
    # Each fiber here has a unique survivor, forcing p* = (1,1,1); every
    # rounding draw then selects every path regardless of seed.
    relaxation = solve_mfsp_relaxation(pairwise3)
    assert relaxation.path_values == (1.0, 1.0, 1.0)
    for seed in range(50):
        report = mfsp_randomized_rounding(
            pairwise3, RoundingConfig(0.9, seed), relaxation=relaxation
        )
        assert report.solution.survivable
        assert report.solution.selected == (1, 2, 3)
        assert report.objective == 3
        assert report.extra["lp_objective"] == 3.0
        assert report.extra["rounds"] == RoundingConfig(0.9, seed).rounds(3)


def test_rounding_reports_unsurvivable_outcome_without_repair():
    cfg = RandomEnsembleConfig(
        num_paths=10, num_fibers=14, max_paths_per_fiber=3, trials=1, seed=0
    )
    mat = gen_random_parallel(cfg)[0]
    relaxation = solve_mfsp_relaxation(mat)
    report = mfsp_randomized_rounding(
        mat, RoundingConfig(0.5, 4), relaxation=relaxation
    )
    assert not report.solution.survivable
    assert report.solution.selected == (10,)
    assert report.objective == 1
    assert "repair_added" not in report.extra


def test_rounding_repair_completes_the_same_outcome():
    cfg = RandomEnsembleConfig(
        num_paths=10, num_fibers=14, max_paths_per_fiber=3, trials=1, seed=0
    )
    mat = gen_random_parallel(cfg)[0]
    relaxation = solve_mfsp_relaxation(mat)
    report = mfsp_randomized_rounding(
        mat, RoundingConfig(0.5, 4), repair=True, relaxation=relaxation
    )
    assert report.solution.survivable
    assert report.extra["objective_before_repair"] == 1
    assert report.extra["repair_added"] == [1]
    assert 10 in report.solution.selected and 1 in report.solution.selected


def test_rounding_success_rate_and_mean_fiber_bound():
    cfg = RandomEnsembleConfig(
        num_paths=15, num_fibers=20, max_paths_per_fiber=3, trials=1, seed=20260823
    )
    mat = gen_random_parallel(cfg)[0]
    relaxation = solve_mfsp_relaxation(mat)
    q = 0.9
    successes = 0
    objectives = []
    for seed in range(200):
        report = mfsp_randomized_rounding(
            mat, RoundingConfig(q, seed), relaxation=relaxation
        )
        if report.solution.survivable:
            successes += 1
            objectives.append(report.objective)
    assert successes >= 180  # target q = 0.9
    mean = statistics.mean(objectives)
    bound = 3 * math.log(mat.num_fibers / (1 - q)) * relaxation.objective
    assert mean <= max(bound, 1.0)


def test_rounding_caches_relaxation_across_seeds(pairwise3):
    relaxation = solve_mfsp_relaxation(pairwise3)
    a = mfsp_randomized_rounding(pairwise3, RoundingConfig(0.9, 3), relaxation=relaxation)
    b = mfsp_randomized_rounding(pairwise3, RoundingConfig(0.9, 3))
    assert a.solution == b.solution
    assert a.extra["lp_objective"] == b.extra["lp_objective"]


def test_rounding_rejects_mismatched_relaxation(pairwise3):
    from survpath import ValidationError

    other = solve_mfsp_relaxation(SurvivalMatrix.from_fiber_sets(2, [[1], [2]]))
    with pytest.raises(ValidationError):
        mfsp_randomized_rounding(pairwise3, RoundingConfig(0.9, 0), relaxation=other)


def test_rounding_rejects_relaxation_with_other_fiber_count(pairwise3):
    from survpath import ValidationError

    # Same three paths, four fibers: only the fiber count tells them apart.
    other = solve_mfsp_relaxation(
        SurvivalMatrix.from_fiber_sets(4, [[1, 2], [1, 3], [2, 3]])
    )
    assert len(other.path_values) == pairwise3.num_paths
    assert len(other.fiber_values) != pairwise3.num_fibers
    with pytest.raises(ValidationError):
        mfsp_randomized_rounding(pairwise3, RoundingConfig(0.9, 0), relaxation=other)


# ---------------------------------------------------------------------------
# Epsilon-net wrapper
# ---------------------------------------------------------------------------


def test_mfsp_epsnet_requires_declared_load_cap(pairwise3):
    with pytest.raises(PreconditionError):
        mfsp_epsnet(pairwise3, Limits(max_fibers_per_path=2), seed=0)


def test_mfsp_epsnet_pairwise(pairwise3):
    report = mfsp_epsnet(pairwise3, Limits(max_paths_per_fiber=2), seed=1)
    assert report.solution.selected == (1, 2, 3)
    assert report.objective == 3
    assert report.extra["msp_size"] == 3
    assert report.algorithm == "mfsp_epsnet"


def test_mfsp_epsnet_objective_counts_fibers_within_bound():
    for idx in range(3):
        cfg = RandomEnsembleConfig(
            num_paths=12, num_fibers=16, max_paths_per_fiber=8, trials=1, seed=700 + idx
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        limits = Limits(max_paths_per_fiber=8)
        relaxation = solve_mfsp_relaxation(mat)
        msp_opt = msp_exact(mat, limits).objective
        report = mfsp_epsnet(mat, limits, seed=idx)
        assert report.solution.survivable
        assert report.objective == len(report.solution.fibers_used)
        bound = (
            8
            * (math.log2(8) + 1)
            * (math.log2(max(msp_opt, 2)) + 1)
            * max(relaxation.objective, 1.0)
        )
        assert report.objective <= bound


# ---------------------------------------------------------------------------
# Load-cap accounting (sum of path costs vs. lit fibers)
# ---------------------------------------------------------------------------


def test_lemma7_equality_cases():
    # W = 1 forces disjoint paths: total cost equals the footprint exactly.
    disjoint = SurvivalMatrix.from_fiber_sets(4, [[1, 2], [3, 4]])
    assert check_lemma7(disjoint, [1, 2], Limits(max_paths_per_fiber=1))
    # Two identical paths at W = 2: total cost is exactly W times the footprint.
    shared = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [1, 2], [3]])
    assert check_lemma7(shared, [1, 2, 3], Limits(max_paths_per_fiber=2))


def test_lemma7_requires_load_cap(pairwise3):
    with pytest.raises(PreconditionError):
        check_lemma7(pairwise3, [1, 2, 3], Limits(max_fibers_per_path=2))


def test_lemma7_holds_for_all_solver_outputs():
    rng = Random("lemma7")
    for trial in range(40):
        w = rng.randint(2, 5)
        cfg = RandomEnsembleConfig(
            num_paths=rng.randint(4, 12),
            num_fibers=rng.randint(6, 14),
            max_paths_per_fiber=w,
            trials=1,
            seed=trial,
        )
        mat = gen_random_parallel(cfg)[0]
        if mat.infeasible_fibers():
            continue
        limits = Limits(max_paths_per_fiber=w)
        for report in (
            mfsp_acg(mat),
            mfsp_nacg(mat),
            mfsp_rsg(mat, seed=trial),
            mfsp_exact(mat),
        ):
            assert check_lemma7(mat, report.solution, limits)
            assert check_lemma7(mat, report.solution.selected, limits)


def test_footprint_sandwich_against_additive_optimum():
    # 1/W * (min additive cost) <= min fibers <= min additive cost, where W is
    # the instance's own maximum fiber load.
    rng = Random("sandwich")
    for _ in range(40):
        mat = random_feasible_matrix(rng, max_paths=9, max_fibers=9)
        fibers, _ = brute_mfsp(mat)
        additive, _ = brute_min_additive(mat)
        w = max(mat.max_fiber_load(), 1)
        assert fibers <= additive
        assert Fraction(additive, w) <= Fraction(fibers)
