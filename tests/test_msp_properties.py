"""Property tests: ``msp_exact`` and ``mfsp_exact`` against the brute-force
oracles.

Each example is solved either with no declared limits or under the tightest
caps the matrix meets, K = max path cost and W = max fiber load (at least 1
each), where the K+1 / W+1 size bound is the search's starting bound.

Hypothesis draws small matrices one fiber set per path, and draws whether
that set is the path's survived fibers or its used fibers.  Its sets lean
small.  Drawn as survived sets they give set-cover-shaped covers that need
several paths, which is where the exact search prunes hardest.  Drawn as used
sets they give paths over few fibers and fibers under few paths, where an
optimum reaches the K+1 / W+1 bound.  Hypothesis is a test-only dependency;
without it this module skips.
"""

from __future__ import annotations

import pytest

from survpath import InfeasibleInstanceError, Limits, SurvivalMatrix, mfsp_exact, msp_exact

from oracles import brute_mfsp, brute_msp

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def matrices(draw) -> SurvivalMatrix:
    fibers = draw(st.integers(1, 10))
    drawn = draw(st.lists(st.sets(st.integers(1, fibers)), min_size=1, max_size=10))
    if draw(st.booleans()):
        return SurvivalMatrix.from_fiber_sets(fibers, drawn)
    return SurvivalMatrix.from_fiber_sets(
        fibers, [[f for f in range(1, fibers + 1) if f not in s] for s in drawn]
    )


def tight_limits(mat: SurvivalMatrix) -> Limits:
    return Limits(max(mat.max_path_cost(), 1), max(mat.max_fiber_load(), 1))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(matrices(), st.booleans())
def test_exact_matches_brute_force(mat, tight):
    limits = tight_limits(mat) if tight else None
    expected = brute_msp(mat)
    if expected is None:
        with pytest.raises(InfeasibleInstanceError):
            msp_exact(mat, limits)
        return
    report = msp_exact(mat, limits)
    assert (report.objective, report.solution.selected) == expected
    assert report.solution.survivable


@settings(max_examples=600, deadline=None, derandomize=True)
@given(matrices(), st.booleans())
def test_mfsp_exact_matches_brute_force(mat, tight):
    limits = tight_limits(mat) if tight else None
    expected = brute_mfsp(mat)
    if expected is None:
        with pytest.raises(InfeasibleInstanceError):
            mfsp_exact(mat, limits)
        return
    report = mfsp_exact(mat, limits)
    assert (report.objective, report.solution.selected) == expected
    assert report.solution.survivable
