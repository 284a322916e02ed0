"""The library's invariant checks must raise, not ``assert``, so that they
hold under ``python -O`` too: the exact solvers' witness checks, the greedies'
progress and coverage checks, the enumeration bound and the gadget's path
count.  Each is driven by a bad state or a monkeypatched helper."""

from __future__ import annotations

import gc
import inspect
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import survpath
import survpath.instances
import survpath.mfsp
import survpath.msp
import survpath.pathing
from survpath import (
    LayeredNetwork,
    LightpathRouting,
    LogicalTopology,
    PhysicalTopology,
    PreconditionError,
    SearchBudgetExceeded,
    SurvivalMatrix,
    SurvPathError,
    enumerate_paths_k_restricted,
    gen_from_setcover,
    gen_mfsp_3setcover_gadget,
    mfsp_exact,
    mfsp_nacg,
    msp_exact,
)
from survpath.msp import _Budget, _greedy, _min_cover_size, _substitution_sweep

from oracles import brute_completion_cost, random_feasible_matrix


def test_msp_exact_rejects_a_size_with_no_witness(pairwise3, monkeypatch):
    # pairwise3 needs all three paths; claim that two suffice.
    monkeypatch.setattr(survpath.msp, "_min_cover_size", lambda *args: 2)
    with pytest.raises(SurvPathError, match="no survivable set of 2 paths"):
        msp_exact(pairwise3)


def test_msp_exact_rejects_an_unsurvivable_witness(pairwise3, monkeypatch):
    monkeypatch.setattr(survpath.msp, "_lex_smallest_cover", lambda *args: [1, 2])
    with pytest.raises(SurvPathError, match=r"witness \[1, 2\] is not a survivable"):
        msp_exact(pairwise3)


def test_mfsp_exact_rejects_a_cost_with_no_witness(pairwise3, monkeypatch):
    # pairwise3 needs all three paths on its three fibers; claim that two
    # paths on three fibers suffice (fibers weigh n + 1 = 4).
    monkeypatch.setattr(survpath.msp, "_min_cover_size", lambda *args: 3 * 4 + 2)
    with pytest.raises(SurvPathError, match="no survivable set of 2 paths on 3 fibers"):
        mfsp_exact(pairwise3)


def test_mfsp_exact_rejects_an_unsurvivable_witness(pairwise3, monkeypatch):
    monkeypatch.setattr(survpath.msp, "_lex_smallest_cover", lambda *args: [1])
    with pytest.raises(SurvPathError, match=r"witness \[1\] is not a survivable"):
        mfsp_exact(pairwise3)


def test_greedy_without_progress_raises(uncoverable):
    with pytest.raises(SurvPathError, match="no path surviving an uncovered fiber"):
        _greedy(uncoverable)


def test_witness_check_still_raises_under_python_O():
    code = (
        "import survpath.msp\n"
        "from survpath import SurvPathError, SurvivalMatrix, msp_exact\n"
        "assert False, 'asserts must be stripped here'\n"
        "mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [2, 3], [1, 3]])\n"
        "survpath.msp._lex_smallest_cover = lambda *args: [1, 2]\n"
        "try:\n"
        "    msp_exact(mat)\n"
        "except SurvPathError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: exact witness [1, 2]")


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a ``python -O`` subprocess that imports this survpath."""
    env = dict(os.environ)
    src = str(Path(survpath.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_best_candidate_without_an_eligible_path_raises(uncoverable):
    # Both paths selected and fiber 1 still uncovered: nothing is left to add.
    with pytest.raises(SurvPathError, match="no path surviving an uncovered fiber"):
        _greedy(uncoverable, uncoverable.used_masks, dynamic=True, start=[1, 2])


def test_best_candidate_check_still_raises_under_python_O():
    code = (
        "from survpath import SurvPathError, SurvivalMatrix\n"
        "from survpath.msp import _greedy\n"
        "assert False, 'asserts must be stripped here'\n"
        "mat = SurvivalMatrix.from_fiber_sets(2, [[1], [1, 2]])\n"
        "try:\n"
        "    _greedy(mat, mat.used_masks, start=[1, 2])\n"
        "except SurvPathError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: greedy found no path surviving")


def test_greedy_run_rejects_an_unsurvivable_result(pairwise3, monkeypatch):
    # Stop the greedy after its first pick: one path of pairwise3 survives
    # only one of the three fibers.
    monkeypatch.setattr(
        survpath.mfsp, "_greedy", lambda *args, **kwargs: ([1], [[1, 2, 1]], [])
    )
    with pytest.raises(SurvPathError, match="greedy selection .* is not survivable"):
        mfsp_nacg(pairwise3)


def test_substitution_sweep_rejects_a_coverage_loss():
    # Path 3 survives both fibers, so it dominates paths 1 and 2; but the sweep
    # is told 3 is the newest pick of a selection that does not hold it, so
    # retiring a dominated path loses the fiber only that path survived.
    mat = SurvivalMatrix.from_fiber_sets(2, [[2], [1], []])
    with pytest.raises(SurvPathError, match="substitution sweep lost coverage"):
        _substitution_sweep(mat, [1, 2], mat.all_fibers_mask, 3, Random(0))


def test_enumeration_above_the_footprint_bound_raises(monkeypatch):
    # Two fibers and K=1 allow at most 2 distinct fiber sets; report three.
    net = _parallel_net(links=1, fibers=2)
    fake = (((1,), (2,), (3,)), (0b01, 0b10, 0b11))
    monkeypatch.setattr(survpath.pathing, "_enumerate", lambda net, cap: fake)
    with pytest.raises(SurvPathError, match="3 distinct fiber sets, above the m\\^K bound 2"):
        enumerate_paths_k_restricted(net, 1)


def test_gadget_with_a_wrong_path_count_raises(monkeypatch):
    real = survpath.instances.enumerate_paths_unrestricted

    def drop_last(net):
        catalog = real(net)
        return replace(catalog, paths=catalog.paths[:-1])

    monkeypatch.setattr(survpath.instances, "enumerate_paths_unrestricted", drop_last)
    with pytest.raises(SurvPathError, match="got 5 instead of 6"):
        gen_mfsp_3setcover_gadget(3, [[1, 2, 3], [1, 2, 3]], 15)


def _parallel_net(links: int, fibers: int) -> LayeredNetwork:
    """``links`` parallel s-t logical links, all routed over fiber 1 of
    ``fibers`` parallel s-t fibers."""
    return LayeredNetwork(
        physical=PhysicalTopology(nodes=("s", "t"), fibers=(("s", "t"),) * fibers),
        logical=LogicalTopology(
            nodes=("s", "t"), links=(("s", "t"),) * links, source="s", sink="t"
        ),
        routing=LightpathRouting(routes=((1,),) * links),
    )


def test_parallel_links_over_one_fiber_enumerate_past_m_to_the_k():
    # Three link sequences share the one footprint {1}: three paths on m=1,
    # K=1 are legal, since m^K bounds distinct fiber sets, not paths.
    catalog = enumerate_paths_k_restricted(_parallel_net(links=3, fibers=1), 1)
    assert [p.links for p in catalog.paths] == [(1,), (2,), (3,)]


@pytest.mark.parametrize("solve", [msp_exact, mfsp_exact])
def test_node_budget_boundary_is_exact(solve):
    # One budget spans the whole search (for MSP, both passes): a limit of
    # exactly the node count returns the same report, one less raises after
    # one node more than it allows.
    rng = Random(20261018)
    for _ in range(40):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=10)
        report = solve(mat)
        again = solve(mat, node_limit=report.iterations)
        assert again.to_dict() == report.to_dict()
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            solve(mat, node_limit=report.iterations - 1)
        assert exc_info.value.nodes == report.iterations


@pytest.mark.parametrize("solve", [msp_exact, mfsp_exact])
def test_negative_node_limit_is_a_precondition_error(pairwise3, solve):
    with pytest.raises(PreconditionError, match="node_limit"):
        solve(pairwise3, node_limit=-3)
    # A zero budget is valid and is spent by the first node.
    with pytest.raises(SearchBudgetExceeded):
        solve(pairwise3, node_limit=0)


@pytest.mark.parametrize("solve", [msp_exact, mfsp_exact])
def test_negative_node_limit_is_rejected_before_the_feasibility_check(
    uncoverable, solve
):
    with pytest.raises(PreconditionError, match="node_limit"):
        solve(uncoverable, node_limit=-3)


def test_min_cover_size_returns_the_least_completion_cost_below_best():
    # From a random partial selection, the search returns min(best, least
    # further cost) for either fiber weight, with best just below, at or above
    # that cost, and whether or not it may stop early at the cost itself.
    rng = Random(20261019)
    for _ in range(300):
        mat = random_feasible_matrix(rng, max_paths=10, max_fibers=10, min_paths=1)
        n = mat.num_paths
        covered = union = 0
        for j in rng.sample(range(1, n + 1), rng.randint(0, n - 1)):
            covered |= mat.survive_mask(j)
            union |= mat.used_mask(j)
        eligible = rng.getrandbits(n)
        for weight in (0, n + 1):
            least = brute_completion_cost(mat, covered, union, eligible, weight)
            if least is None:
                cases = [(best, 0) for best in range(1, 5)]
            else:
                cases = [
                    (best, floor)
                    for best in range(least - 1, least + 4)
                    for floor in (0, least)
                ]
            for best, floor in cases:
                got = _min_cover_size(
                    mat, covered, eligible, best, _Budget(None), floor, union, weight
                )
                expected = best if least is None else min(best, least)
                state = (mat.used_masks, covered, union, eligible, weight, best, floor)
                assert got == expected, state


@pytest.mark.parametrize("solver", [msp_exact, mfsp_exact])
def test_exact_search_deeper_than_the_recursion_limit_hits_its_budget(solver):
    # 1100 singleton subsets: the only cover takes every path, and the greedy
    # incumbent leaves the search to prove that 1100 levels deep.
    mat = gen_from_setcover(1100, [[i] for i in range(1, 1101)])
    with pytest.raises(SearchBudgetExceeded):
        solver(mat, node_limit=5000)


@pytest.mark.parametrize("solver", [msp_exact, mfsp_exact])
def test_exact_search_runs_in_constant_stack_depth(solver):
    # 150 singleton subsets need all 150 paths: a search that took a stack
    # frame per selected path would overflow a limit 100 frames above here.
    mat = gen_from_setcover(150, [[i] for i in range(1, 151)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        report = solver(mat)
    finally:
        sys.setrecursionlimit(limit)
    assert report.solution.selected == tuple(range(1, 151))


@pytest.mark.parametrize("solver", [msp_exact, mfsp_exact])
def test_exact_solvers_leave_no_cyclic_garbage(solver):
    # Without the cyclic collector, only reference counting can free the
    # matrix: a reference cycle through the search would keep it alive.
    mat = gen_from_setcover(6, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 4]])
    ref = weakref.ref(mat)
    gc.collect()
    gc.disable()
    try:
        solver(mat)
        del mat
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
