"""Property tests: ``msp_exact`` and ``mfsp_exact`` against the brute-force
oracles.

Hypothesis draws small matrices one survived-fiber set per path.  Its sets
lean small, so most instances are sparse, set-cover-shaped covers that need
several paths, which is where the exact search prunes hardest.  Hypothesis is
a test-only dependency; without it this module skips.
"""

from __future__ import annotations

import pytest

from survpath import InfeasibleInstanceError, SurvivalMatrix, mfsp_exact, msp_exact

from oracles import brute_mfsp, brute_msp

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def matrices(draw) -> SurvivalMatrix:
    fibers = draw(st.integers(1, 10))
    survived = draw(st.lists(st.sets(st.integers(1, fibers)), min_size=1, max_size=10))
    return SurvivalMatrix.from_fiber_sets(
        fibers, [[f for f in range(1, fibers + 1) if f not in s] for s in survived]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_exact_matches_brute_force(mat):
    expected = brute_msp(mat)
    if expected is None:
        with pytest.raises(InfeasibleInstanceError):
            msp_exact(mat)
        return
    report = msp_exact(mat)
    assert (report.objective, report.solution.selected) == expected
    assert report.solution.survivable


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_mfsp_exact_matches_brute_force(mat):
    expected = brute_mfsp(mat)
    if expected is None:
        with pytest.raises(InfeasibleInstanceError):
            mfsp_exact(mat)
        return
    report = mfsp_exact(mat)
    assert (report.objective, report.solution.selected) == expected
    assert report.solution.survivable
