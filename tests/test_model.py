from __future__ import annotations

import pickle
from itertools import combinations
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    LayeredNetwork,
    LightpathRouting,
    Limits,
    LogicalTopology,
    PathSet,
    PhysicalTopology,
    PreconditionError,
    RandomizedFailureError,
    RoutingIntegrityError,
    SearchBudgetExceeded,
    SurvivalMatrix,
    ValidationError,
    build_survival_matrix,
    enumerate_paths_unrestricted,
    require_feasible,
    residual_survivability_check,
)
from survpath.model import SolveReport

from oracles import naive_is_survivable, random_feasible_matrix, random_parallel_layered


# ---------------------------------------------------------------------------
# Survival matrix entries
# ---------------------------------------------------------------------------


def test_pairwise_matrix_entries(pairwise3):
    mat = pairwise3
    assert (mat.num_fibers, mat.num_paths) == (3, 3)
    # Path j uses exactly the two fibers of its pair; the survival entry is
    # the complement of usage.
    expected_usage = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    for j, fibers in expected_usage.items():
        assert set(mat.path_fibers(j)) == fibers
        assert mat.path_cost(j) == 2
        for i in range(1, 4):
            assert mat.uses(i, j) == (i in fibers)
            assert mat.survives(i, j) != mat.uses(i, j)
    # Row bitmasks: fiber 1 is survived only by path 2, fiber 2 only by
    # path 3, fiber 3 only by path 1 (bit j-1 stands for path j).
    assert mat.survivor_row(1) == 0b010
    assert mat.survivor_row(2) == 0b100
    assert mat.survivor_row(3) == 0b001
    assert mat.fiber_load == (2, 2, 2)
    assert mat.max_fiber_load() == 2
    assert mat.max_path_cost() == 2


def test_full_usage_path_has_empty_survivor_column():
    mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2, 3], [2]])
    assert mat.survive_mask(1) == 0
    assert mat.path_cost(1) == 3
    assert mat.fiber_load == (1, 2, 1)


def test_empty_usage_path_survives_everything():
    mat = SurvivalMatrix.from_fiber_sets(2, [[], [1, 2]])
    assert mat.path_cost(1) == 0
    assert mat.survive_mask(1) == mat.all_fibers_mask
    assert mat.is_survivable([1])


def test_out_of_range_ids_rejected():
    mat = SurvivalMatrix.from_fiber_sets(2, [[1]])
    with pytest.raises(ValidationError):
        mat.uses(0, 1)
    with pytest.raises(ValidationError):
        mat.uses(3, 1)
    with pytest.raises(ValidationError):
        mat.survives(1, 2)
    with pytest.raises(ValidationError):
        SurvivalMatrix.from_fiber_sets(2, [[3]])
    # Programmatic fiber iterables have set semantics; repeats are harmless.
    assert SurvivalMatrix.from_fiber_sets(2, [[1, 1]]).path_cost(1) == 1


def test_fiber_sets_may_be_one_shot_iterables():
    # Each path's fibers are read once, so generators work, and the first
    # out-of-range fiber in their order is the one named.
    mat = SurvivalMatrix.from_fiber_sets(3, [iter([1, 2]), (f for f in (3, 3))])
    assert mat.used_masks == (0b011, 0b100)
    with pytest.raises(ValidationError, match=r"path 2 uses fiber 5, outside 1\.\.3"):
        SurvivalMatrix.from_fiber_sets(3, [[1], (f for f in (2, 5, 0))])


# ---------------------------------------------------------------------------
# Survivability predicate
# ---------------------------------------------------------------------------


def test_pairwise_survivability_cases(pairwise3):
    assert pairwise3.is_survivable([1, 2, 3])
    for pair in combinations([1, 2, 3], 2):
        assert not pairwise3.is_survivable(pair)
    for single in (1, 2, 3):
        assert not pairwise3.is_survivable([single])
    assert not pairwise3.is_survivable([])


def test_empty_selection_on_zero_fibers_is_survivable():
    mat = SurvivalMatrix.from_fiber_sets(0, [[], []])
    assert mat.is_survivable([])
    assert mat.is_survivable([1, 2])


def test_disjoint_pair_is_survivable():
    mat = SurvivalMatrix.from_fiber_sets(4, [[1, 2], [3, 4]])
    assert mat.is_survivable([1, 2])
    assert mat.is_survivable((1, 2))


def test_survivability_matches_naive_oracle():
    rng = Random("survive-oracle")
    for _ in range(80):
        mat = random_feasible_matrix(rng, max_paths=8, max_fibers=8)
        for _ in range(10):
            k = rng.randint(0, mat.num_paths)
            ids = rng.sample(range(1, mat.num_paths + 1), k)
            assert mat.is_survivable(ids) == naive_is_survivable(mat, ids)


def test_pair_survivability_equals_fiber_disjointness():
    rng = Random("disjoint-pairs")
    for _ in range(60):
        mat = random_feasible_matrix(rng, max_paths=7, max_fibers=9)
        for i, j in combinations(range(1, mat.num_paths + 1), 2):
            disjoint = not (set(mat.path_fibers(i)) & set(mat.path_fibers(j)))
            assert mat.is_survivable([i, j]) == disjoint


def test_adding_paths_preserves_survivability():
    rng = Random("monotone")
    for _ in range(60):
        mat = random_feasible_matrix(rng, max_paths=8, max_fibers=8)
        ids = [j for j in range(1, mat.num_paths + 1) if rng.random() < 0.7]
        if not mat.is_survivable(ids):
            continue
        extra = rng.randint(1, mat.num_paths)
        assert mat.is_survivable(set(ids) | {extra})


def test_uncovered_fibers_and_masks(pairwise3):
    assert pairwise3.uncovered_fibers([1]) == (1, 2)
    assert pairwise3.uncovered_fibers([1, 2]) == (2,)
    assert pairwise3.uncovered_fibers([1, 2, 3]) == ()
    assert pairwise3.survived_fibers_mask([1]) == 0b100
    assert pairwise3.fibers_used_by([1, 2]) == frozenset({1, 2, 3})


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def test_uncoverable_fiber_detected(uncoverable):
    assert uncoverable.infeasible_fibers() == (1,)
    with pytest.raises(InfeasibleInstanceError) as exc_info:
        require_feasible(uncoverable)
    assert exc_info.value.fiber == 1
    assert "fiber 1 is used by every path" in str(exc_info.value)


def test_matrix_without_paths_is_infeasible_when_fibers_exist():
    mat = SurvivalMatrix.from_fiber_sets(2, [])
    assert mat.infeasible_fibers() == (1, 2)


def test_feasible_matrix_passes(pairwise3):
    require_feasible(pairwise3)  # must not raise


# ---------------------------------------------------------------------------
# Layered networks and routing integrity
# ---------------------------------------------------------------------------


def _square_net() -> LayeredNetwork:
    """Physical square s-a-t-b-s with a unit-routed logical copy."""
    physical = PhysicalTopology(
        nodes=("s", "a", "t", "b"),
        fibers=(("s", "a"), ("a", "t"), ("t", "b"), ("b", "s")),
    )
    logical = LogicalTopology(
        nodes=("s", "a", "t", "b"),
        links=(("s", "a"), ("a", "t"), ("t", "b"), ("b", "s")),
        source="s",
        sink="t",
    )
    routing = LightpathRouting(routes=((1,), (2,), (3,), (4,)))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def test_multi_fiber_walk_routes_validate():
    physical = PhysicalTopology(
        nodes=("s", "x", "t"), fibers=(("s", "x"), ("x", "t"), ("s", "t"))
    )
    logical = LogicalTopology(nodes=("s", "t"), links=(("s", "t"), ("s", "t")), source="s", sink="t")
    net = LayeredNetwork(
        physical=physical,
        logical=logical,
        routing=LightpathRouting(routes=((1, 2), (3,))),
    )
    assert net.fibers_of_link(1) == frozenset({1, 2})
    assert net.fibers_of_links([1, 2]) == frozenset({1, 2, 3})


def test_disconnected_walk_rejected():
    physical = PhysicalTopology(
        nodes=("s", "x", "y", "t"), fibers=(("s", "x"), ("y", "t"))
    )
    logical = LogicalTopology(nodes=("s", "t"), links=(("s", "t"),), source="s", sink="t")
    with pytest.raises(RoutingIntegrityError, match="not a connected walk"):
        LayeredNetwork(
            physical=physical, logical=logical, routing=LightpathRouting(routes=((1, 2),))
        )


def test_walk_ending_elsewhere_rejected():
    physical = PhysicalTopology(nodes=("s", "x", "t"), fibers=(("s", "x"), ("x", "t")))
    logical = LogicalTopology(nodes=("s", "t"), links=(("s", "t"),), source="s", sink="t")
    with pytest.raises(RoutingIntegrityError, match="ends at"):
        LayeredNetwork(
            physical=physical, logical=logical, routing=LightpathRouting(routes=((1,),))
        )


def test_unknown_fiber_in_route_rejected():
    physical = PhysicalTopology(nodes=("s", "t"), fibers=(("s", "t"),))
    logical = LogicalTopology(nodes=("s", "t"), links=(("s", "t"),), source="s", sink="t")
    with pytest.raises(RoutingIntegrityError, match="unknown fiber"):
        LayeredNetwork(
            physical=physical, logical=logical, routing=LightpathRouting(routes=((7,),))
        )


def test_empty_route_rejected():
    with pytest.raises(ValidationError, match="empty routing"):
        LightpathRouting(routes=((),))


def test_route_count_must_match_links():
    physical = PhysicalTopology(nodes=("s", "t"), fibers=(("s", "t"),))
    logical = LogicalTopology(nodes=("s", "t"), links=(("s", "t"),), source="s", sink="t")
    with pytest.raises(RoutingIntegrityError, match="1 logical links"):
        LayeredNetwork(
            physical=physical, logical=logical, routing=LightpathRouting(routes=((1,), (1,)))
        )


def test_self_loop_and_unknown_node_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        PhysicalTopology(nodes=("s", "t"), fibers=(("s", "s"),))
    with pytest.raises(ValidationError, match="unknown node"):
        PhysicalTopology(nodes=("s", "t"), fibers=(("s", "q"),))
    with pytest.raises(ValidationError, match="duplicate physical node"):
        PhysicalTopology(nodes=("s", "s"), fibers=())
    with pytest.raises(ValidationError, match="must differ"):
        LogicalTopology(nodes=("s", "t"), links=(), source="s", sink="s")


def test_build_matrix_crosschecks_recorded_fibers():
    net = _square_net()
    catalog = enumerate_paths_unrestricted(net)
    good = build_survival_matrix(net, catalog.paths)
    assert good.num_fibers == 4
    from survpath import LogicalPath

    tampered = [
        LogicalPath(path_id=p.path_id, links=p.links, fibers_used=frozenset({1}))
        for p in catalog.paths
    ]
    with pytest.raises(RoutingIntegrityError):
        build_survival_matrix(net, tampered)


# ---------------------------------------------------------------------------
# Residual-graph survivability vs. matrix survivability
# ---------------------------------------------------------------------------


def test_residual_check_on_square():
    net = _square_net()
    catalog = enumerate_paths_unrestricted(net)
    # Two logical routes: links (1,2) over fibers {1,2} and links (4,3) over
    # fibers {4,3}.
    assert [p.links for p in catalog.paths] == [(1, 2), (4, 3)]
    paths = catalog.paths
    # With both paths selected, every single-fiber failure is survivable.
    for fiber in range(1, 5):
        assert residual_survivability_check(net, paths, [1, 2], fiber)
    # With only path 1, failing one of its fibers disconnects the residual.
    assert not residual_survivability_check(net, paths, [1], 1)
    assert residual_survivability_check(net, paths, [1], 3)
    # No selection at all: nothing survives.
    assert not residual_survivability_check(net, paths, [], 1)


def test_residual_check_matches_matrix_on_random_parallel_nets():
    rng = Random("residual-vs-matrix")
    for _ in range(40):
        net = random_parallel_layered(rng)
        catalog = enumerate_paths_unrestricted(net)
        mat = catalog.matrix(net.num_fibers)
        n = mat.num_paths
        assert n == net.logical.num_links
        for _ in range(8):
            ids = [j for j in range(1, n + 1) if rng.random() < 0.6]
            for fiber in range(1, net.num_fibers + 1):
                by_matrix = any(mat.survives(fiber, j) for j in ids)
                by_residual = residual_survivability_check(net, catalog.paths, ids, fiber)
                assert by_matrix == by_residual


# ---------------------------------------------------------------------------
# Limits, path sets, reports
# ---------------------------------------------------------------------------


def test_limits_validation():
    with pytest.raises(ValidationError):
        Limits(max_fibers_per_path=0)
    with pytest.raises(ValidationError):
        Limits(max_paths_per_fiber=-2)
    limits = Limits(max_fibers_per_path=2, max_paths_per_fiber=2)
    limits.validate_against(SurvivalMatrix.from_fiber_sets(3, [[1, 2], [3]]))


def test_limits_violations_raise_precondition_error(pairwise3):
    with pytest.raises(PreconditionError, match="path"):
        Limits(max_fibers_per_path=1).validate_against(pairwise3)
    with pytest.raises(PreconditionError, match="fiber"):
        Limits(max_paths_per_fiber=1).validate_against(pairwise3)


def test_pathset_from_ids(pairwise3):
    ps = PathSet.from_ids(pairwise3, [3, 1, 2])
    assert ps.selected == (1, 2, 3)
    assert ps.survivable
    assert ps.fibers_used == frozenset({1, 2, 3})
    assert ps.size == 3
    assert ps.num_fibers_used == 3
    partial = PathSet.from_ids(pairwise3, [1])
    assert not partial.survivable
    assert partial.fibers_used == frozenset({1, 2})


def test_solve_report_serialization(pairwise3):
    ps = PathSet.from_ids(pairwise3, [1, 2, 3])
    report = SolveReport(
        algorithm="msp_greedy",
        problem="msp",
        solution=ps,
        objective=3,
        iterations=3,
        seed=None,
        elapsed=0.25,
        extra={"selections": [[1, 1]]},
    )
    payload = report.to_dict()
    assert payload["elapsed_us"] == 0
    assert payload["objective"] == 3
    assert payload["selected_paths"] == [1, 2, 3]
    assert payload["fibers_used"] == [1, 2, 3]
    assert payload["survivable"] is True
    timed = report.to_dict(include_timing=True)
    assert timed["elapsed_us"] == 250000


@pytest.mark.parametrize(
    "exc, attribute, value",
    [
        (InfeasibleInstanceError(4), "fiber", 4),
        (RandomizedFailureError(7, "no survivable sample"), "seed", 7),
        (SearchBudgetExceeded(12), "nodes", 12),
    ],
)
def test_errors_survive_pickling(exc, attribute, value):
    # Worker processes send their errors back pickled; the copy must keep
    # the message and the field it was built from.
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert getattr(copy, attribute) == value
