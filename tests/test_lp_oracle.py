"""The condensed LP tableau against the full one it replaced.

``lp.solve_mfsp_relaxation`` keeps only the nonbasic columns, but it must make
the pivots that ``oracles.full_tableau_relaxation`` (every variable a column)
makes under the same Bland rule, and so land on the same vertex, or raise the
same error.  Ensemble draws with as many paths as the load cap W can leave a
fiber on every path, so the small shapes below include infeasible ones.
"""

from __future__ import annotations

from random import Random

import pytest

from survpath import RandomEnsembleConfig, SurvivalMatrix, gen_random_parallel
from survpath import SurvPathError, solve_mfsp_relaxation

from oracles import full_tableau_relaxation


def outcome(solve, mat: SurvivalMatrix):
    try:
        sol = solve(mat)
    except SurvPathError as exc:
        return type(exc), str(exc)
    return sol.path_exact, sol.fiber_exact


# (num_paths, num_fibers, W, seeds)
SHAPES = [
    (6, 8, 2, range(30)),
    (6, 8, 3, range(30)),
    (30, 30, 2, range(3)),
    (30, 30, 3, range(3)),
    (2, 3, 2, range(10)),
    (3, 4, 3, range(10)),
]


@pytest.mark.parametrize(
    "num_paths, num_fibers, w, seed",
    [(n, m, w, seed) for n, m, w, seeds in SHAPES for seed in seeds],
)
def test_same_vertex_as_the_full_tableau(num_paths, num_fibers, w, seed):
    cfg = RandomEnsembleConfig(
        num_paths=num_paths, num_fibers=num_fibers, max_paths_per_fiber=w, seed=seed
    )
    (mat,) = gen_random_parallel(cfg)
    assert outcome(solve_mfsp_relaxation, mat) == outcome(full_tableau_relaxation, mat)


def test_the_corpus_holds_infeasible_draws():
    outcomes = [
        outcome(
            solve_mfsp_relaxation,
            gen_random_parallel(RandomEnsembleConfig(n, m, w, seed=seed))[0],
        )
        for n, m, w, seeds in SHAPES[4:]
        for seed in seeds
    ]
    errors = [o for o in outcomes if isinstance(o[0], type)]
    assert 0 < len(errors) < len(outcomes)


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 16))
    fiber_sets = draw(
        st.lists(st.sets(st.integers(1, m), max_size=m), min_size=1, max_size=12)
    )
    return SurvivalMatrix.from_fiber_sets(m, [sorted(s) for s in fiber_sets])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_same_vertex_on_drawn_matrices(mat):
    assert outcome(solve_mfsp_relaxation, mat) == outcome(full_tableau_relaxation, mat)
