"""The greedy's first pick, and every later one, against a plain full scan.

From an empty selection every fiber is open and unpaid, so path j gains its
m - c_j survived fibers at cost 1 (unit), c_j (static) or c_j (dynamic): the
scan's pick is the lowest-id path on the fewest fibers, which
``msp._greedy`` reads off ``SurvivalMatrix.path_costs``.  Later steps,
``start``-seeded runs (the ``rr --repair`` completion) and the substitution
sweeps of ``rsg`` must match ``oracles.scan_greedy`` step for step.
"""

from __future__ import annotations

from random import Random

import pytest

from survpath import SurvivalMatrix, mfsp_acg, mfsp_nacg, mfsp_rsg, msp_greedy
from survpath.msp import _greedy

from oracles import random_feasible_matrix, scan_greedy

# (cost masks, dynamic) of the unit-cost, static-cost and dynamic-cost greedies.
MODES = {
    "unit": lambda mat: (None, False),
    "static": lambda mat: (mat.used_masks, False),
    "dynamic": lambda mat: (mat.used_masks, True),
}


def run_both(mat: SurvivalMatrix, mode: str, *, start=(), seed=None):
    costs, dynamic = MODES[mode](mat)
    rngs = (None, None) if seed is None else (Random(seed), Random(seed))
    got = _greedy(mat, costs, dynamic=dynamic, start=start, rng=rngs[0])
    want = scan_greedy(mat, costs, dynamic=dynamic, start=start, rng=rngs[1])
    return got, want


@pytest.mark.parametrize("mode", MODES)
def test_ties_on_the_fewest_fibers_go_to_the_lower_id(mode):
    # Paths 2 and 3 use two fibers each, the fewest; path 2 is taken first.
    mat = SurvivalMatrix.from_fiber_sets(5, [[1, 2, 3], [2, 4], [3, 5], [1, 2, 3, 4]])
    got, want = run_both(mat, mode)
    assert got == want
    assert got[1][0] == [2, 1 if mode == "unit" else 2, 3]


@pytest.mark.parametrize("mode", MODES)
def test_a_path_on_no_fibers_is_taken_first_and_alone(mode):
    mat = SurvivalMatrix.from_fiber_sets(3, [[1], [2, 3], [], [2]])
    got, want = run_both(mat, mode)
    assert got == want
    assert got == ([3], [[3, 1 if mode == "unit" else 0, 3]], [])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", (0, 3))
def test_no_fibers_give_an_empty_selection(mode, n):
    mat = SurvivalMatrix(0, n, (0,) * n)
    assert run_both(mat, mode) == (([], [], []), ([], [], []))


def test_greedy_reports_take_the_lowest_id_path_on_the_fewest_fibers():
    rng = Random(20261019)
    for _ in range(200):
        mat = random_feasible_matrix(rng)
        first = mat.path_costs.index(min(mat.path_costs)) + 1
        for solve in (msp_greedy, mfsp_acg, mfsp_nacg, lambda mat: mfsp_rsg(mat, seed=3)):
            assert solve(mat).extra["selections"][0][0] == first


def test_seeded_starts_and_sweeps_match_the_scan():
    rng = Random(20261020)
    sweeps = starts = 0
    for _ in range(300):
        mat = random_feasible_matrix(rng)
        start = sorted(rng.sample(range(1, mat.num_paths + 1), rng.randint(1, 2)))
        for mode in MODES:
            got, want = run_both(mat, mode, start=start)
            assert got == want
            starts += bool(got[1])
        seed = rng.randrange(2**31)
        got, want = run_both(mat, "dynamic", seed=seed)
        assert got == want
        sweeps += len(got[2])
    # Both branches ran: some starts needed completing and some sweeps removed.
    assert starts > 100 and sweeps > 10


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32),
    st.sampled_from(sorted(MODES)),
    st.none() | st.integers(0, 2**16),
    st.integers(0, 2),
)
def test_greedy_matches_a_plain_full_scan(draw, mode, seed, started):
    rng = Random(draw)
    mat = random_feasible_matrix(rng)
    start = sorted(rng.sample(range(1, mat.num_paths + 1), started))
    got, want = run_both(mat, mode, start=start, seed=seed)
    assert got == want
