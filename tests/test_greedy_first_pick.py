"""The greedy's first pick, and every later one, against a plain full scan.

From an empty selection every fiber is open and unpaid, so path j gains its
m - c_j survived fibers at cost 1 (unit), c_j (static) or c_j (dynamic): the
scan's pick is the lowest-id path on the fewest fibers, which
``msp._greedy`` reads off ``SurvivalMatrix.path_costs``.  Later steps,
``start``-seeded runs (the ``rr --repair`` completion) and the substitution
sweeps of ``rsg`` must match ``oracles.scan_greedy`` step for step.

``msp._greedy`` takes its later steps in one of two loops, chosen by the
matrix's shape: a scan of every path, or bit-sliced counters when there are
more paths than fibers.  Each loop is also run here directly, on shapes on
both sides of that rule.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from random import Random

import pytest

from survpath import SurvivalMatrix, mfsp_acg, mfsp_nacg, mfsp_rsg, msp_greedy
from survpath import msp
from survpath.msp import _bit_sliced_greedy, _greedy, _scanning_greedy

from oracles import random_feasible_matrix, scan_greedy

# (cost masks, dynamic) of the unit-cost, static-cost and dynamic-cost greedies.
MODES = {
    "unit": lambda mat: (None, False),
    "static": lambda mat: (mat.used_masks, False),
    "dynamic": lambda mat: (mat.used_masks, True),
}


LOOPS = {"scan": _scanning_greedy, "bit-sliced": _bit_sliced_greedy}


def run_both(mat: SurvivalMatrix, mode: str, *, start=(), seed=None, greedy=_greedy):
    costs, dynamic = MODES[mode](mat)
    rngs = (None, None) if seed is None else (Random(seed), Random(seed))
    got = greedy(mat, costs, dynamic=dynamic, start=start, rng=rngs[0])
    want = scan_greedy(mat, costs, dynamic=dynamic, start=start, rng=rngs[1])
    return got, want


def shaped_matrix(rng: Random, m: int, n: int, fill: float) -> SurvivalMatrix:
    """n paths on m fibers, each using each fiber with probability ``fill``;
    a fiber on every path is then dropped from one of them, so that the
    matrix is feasible."""
    masks = [sum(1 << i for i in range(m) if rng.random() < fill) for _ in range(n)]
    common = reduce(and_, masks, (1 << m) - 1)
    for i in range(m):
        if common >> i & 1:
            masks[rng.randrange(n)] &= ~(1 << i)
    return SurvivalMatrix(m, n, tuple(masks))


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


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("m", (1, 7, 8, 9, 63, 64, 65))
def test_each_loop_matches_the_scan_across_byte_boundaries(loop, m):
    # Fiber counts on both sides of each byte of the decoder's columns, and
    # path counts on both sides of the rule that picks the loop.
    rng = Random(f"loops:{m}")
    for n in (max(1, m // 2), m, m + 1, 2 * m + 5):
        for fill in (0.3, 0.85):
            mat = shaped_matrix(rng, m, n, fill)
            for mode in MODES:
                start = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 2))))
                got, want = run_both(mat, mode, start=start, greedy=LOOPS[loop])
                assert got == want, (n, fill, mode, start)
            seed = rng.randrange(2**31)
            got, want = run_both(mat, "dynamic", seed=seed, greedy=LOOPS[loop])
            assert got == want, (n, fill, seed)


def nine_bit_matrix(rng: Random, light: int) -> SurvivalMatrix:
    """Paths 1..260 use fiber 1 and 256 to 262 of the other 263 fibers, so
    fiber 1's row holds 260 paths and each of their costs takes nine bits;
    paths 261..300 use ``light`` random fibers each, none of them fiber 1."""
    m = 264
    heavy = [
        1 | sum(1 << i for i in rng.sample(range(1, m), rng.randint(256, 262)))
        for _ in range(260)
    ]
    rest = [sum(1 << i for i in rng.sample(range(1, m), light)) for _ in range(40)]
    return SurvivalMatrix(m, 300, tuple(heavy + rest))


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("light", (2, 80))
def test_each_loop_matches_the_scan_on_counts_of_nine_bits(loop, light):
    # From a start on path 1, at least 257 fibers are open.  With 2 fibers
    # each, the light paths' gains take nine bits; with 80, the light paths
    # are the best buys at fiber cost, and a heavy path's cost read without
    # its ninth bit would undercut them.
    mat = nine_bit_matrix(Random(f"nine bits:{light}"), light)
    assert not mat.infeasible_fibers() and mat.fiber_load[0] == 260
    assert min(mat.path_costs[:260]) >= 257
    for start in ((), (1,)):
        for mode in MODES:
            got, want = run_both(mat, mode, start=start, greedy=LOOPS[loop])
            assert got == want, (start, mode)
            if start and mode == "static":
                assert got[1][0][0] > 260
        got, want = run_both(mat, "dynamic", start=start, seed=11, greedy=LOOPS[loop])
        assert got == want
    gains = [len(mat.path_fibers(1) - mat.path_fibers(j)) for j in range(261, 301)]
    assert (max(gains) >= 256) == (light == 2)


@pytest.mark.parametrize("loop", LOOPS)
def test_each_loop_matches_the_scan_on_free_picks_and_seeded_starts(loop):
    # At dynamic cost a path on paid fibers alone costs 0, and the lowest id
    # of those surviving an open fiber wins, whatever its gain.
    rng = Random(20261021)
    free = starts = 0
    for _ in range(150):
        m = rng.randint(4, 20)
        mat = shaped_matrix(rng, m, rng.randint(m + 1, 3 * m), rng.choice((0.5, 0.8)))
        start = sorted(rng.sample(range(1, mat.num_paths + 1), rng.randint(1, 3)))
        got, want = run_both(mat, "dynamic", start=start, greedy=LOOPS[loop])
        assert got == want
        starts += bool(got[1])
        got, want = run_both(mat, "dynamic", seed=rng.randrange(2**31), greedy=LOOPS[loop])
        assert got == want
        free += sum(cost == 0 for _, cost, _ in got[1][1:])
    assert free >= 10 and starts >= 50, (free, starts)


# Matrices (m, used masks) and rsg seeds on which a sweep before the last
# step retires a path using a fiber that no remaining selected path uses;
# found by a seeded search, since few sweeps do.
UNPAYING = [
    (9, (353, 420, 338, 439, 446, 118, 478, 254, 494, 367), 0),
    (10, (753, 371, 959, 380, 575, 861, 1014, 975, 1020, 95, 921), 2),
    (9, (391, 221, 358, 492, 133, 251, 286, 439, 475, 506, 474, 172), 1),
]


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize(("m", "masks", "seed"), UNPAYING)
def test_each_loop_matches_the_scan_when_a_sweep_unpays_fibers(loop, m, masks, seed):
    mat = SurvivalMatrix(m, len(masks), masks)
    unpaid = []
    sweep = msp._substitution_sweep

    def watched(mat, selected, covered, newest, rng):
        before = reduce(lambda a, j: a | mat.used_masks[j - 1], selected, 0)
        victim = sweep(mat, selected, covered, newest, rng)
        after = reduce(lambda a, j: a | mat.used_masks[j - 1], selected, 0)
        if before & ~after and covered != mat.all_fibers_mask:
            unpaid.append(victim)
        return victim

    msp._substitution_sweep = watched
    try:
        got, want = run_both(mat, "dynamic", seed=seed, greedy=LOOPS[loop])
    finally:
        msp._substitution_sweep = sweep
    assert got == want
    assert unpaid and unpaid[0] in got[2]


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
