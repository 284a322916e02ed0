"""Pin the exact optimal vertex the relaxation returns on seeded instances.

The simplex uses Bland's rule, so on a degenerate or non-unique optimum the
vertex it lands on is decided by the pivot sequence.  These literals were
captured from the reference solver; any change to the arithmetic of the
tableau must keep every pivot, and so every vertex here, unchanged.
Values are written as space-separated rationals, paths then fibers.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from survpath import (
    RandomEnsembleConfig,
    SurvivalMatrix,
    gen_from_setcover,
    gen_random_parallel,
    solve_mfsp_relaxation,
)

# (num_paths, num_fibers, W, seed, path_exact, fiber_exact)
ENSEMBLE_PINS = [
    (6, 8, 2, 0, "0 0 0 1/2 1/2 1/2", "0 0 1/2 1/2 0 1/2 0 0"),
    (6, 8, 2, 1, "0 0 1/2 0 1/2 1/2", "1/2 0 0 0 0 0 1/2 1/2"),
    (6, 8, 2, 2, "0 0 1/3 1/3 1/3 1/3", "0 1/3 0 1/3 0 1/3 1/3 0"),
    (6, 8, 2, 3, "1/4 1/4 1/4 1/4 1/4 1/4", "1/4 1/4 1/4 1/4 1/4 1/4 1/4 1/4"),
    (6, 8, 2, 4, "0 0 0 1/2 1/2 1/2", "0 0 0 0 1/2 1/2 0 1/2"),
    (6, 8, 2, 5, "1/3 0 0 1/3 1/3 1/3", "1/3 0 0 0 0 1/3 1/3 1/3"),
    (6, 8, 2, 6, "1/3 0 0 1/3 1/3 1/3", "1/3 1/3 0 0 1/3 0 0 1/3"),
    (6, 8, 2, 7, "1/2 0 0 0 1/2 1/2", "0 1/2 0 0 0 1/2 1/2 0"),
    (8, 10, 2, 0, "0 0 1/5 1/5 1/5 1/5 1/5 1/5", "0 1/5 0 1/5 0 1/5 1/5 1/5 1/5 0"),
    (8, 10, 2, 1, "0 0 0 1/3 1/6 1/3 1/3 1/6", "0 1/3 1/3 0 0 0 0 1/6 1/3 0"),
    (8, 10, 2, 2, "0 1/4 0 0 1/4 1/4 1/4 1/4", "1/4 0 0 1/4 1/4 1/4 1/4 0 0 0"),
    (8, 10, 2, 3, "0 0 0 1/4 1/4 1/4 1/4 1/4", "1/4 1/4 0 0 0 1/4 1/4 0 0 1/4"),
    (8, 10, 2, 4, "0 0 0 1/6 1/3 1/6 1/3 1/3", "1/3 0 0 0 0 0 1/3 1/6 1/3 0"),
    (8, 10, 2, 5, "1/3 1/3 0 0 0 0 1/3 1/3", "0 0 1/3 1/3 0 0 0 1/3 1/3 0"),
    (
        12, 16, 3, 0,
        "0 0 0 0 0 0 0 1/2 1/4 1/4 1/4 1/4",
        "0 0 0 0 1/4 0 1/2 0 0 0 0 0 0 0 1/4 0",
    ),
    (
        12, 16, 3, 1,
        "0 0 1/7 0 1/7 0 1/7 1/7 1/7 1/7 1/7 1/7",
        "0 1/7 0 1/7 0 0 0 1/7 1/7 1/7 1/7 0 1/7 1/7 0 0",
    ),
    (
        12, 16, 3, 2,
        "0 0 0 0 0 0 1/8 1/4 1/4 1/4 1/8 1/4",
        "1/8 1/4 0 1/4 0 1/4 0 1/4 0 0 0 0 0 0 0 0",
    ),
    (
        12, 16, 3, 3,
        "0 0 0 0 1/6 1/6 1/6 1/12 1/6 1/12 1/6 1/6",
        "0 0 0 1/6 0 1/6 1/6 0 1/6 1/6 1/6 0 0 0 1/12 0",
    ),
    (
        30, 30, 3, 0,
        "0 0 0 0 0 0 1/10 1/10 0 0 0 1/10 1/10 1/10 0 0 1/10 0 0 0 0 0 0 1/10 "
        "1/10 0 1/10 1/10 1/10 1/10",
        "0 0 0 0 0 0 0 0 0 0 1/10 1/10 1/10 0 0 0 0 0 0 1/10 1/10 0 1/10 0 0 0 "
        "0 0 0 0",
    ),
    (
        30, 30, 3, 1,
        "0 0 0 0 0 1/12 0 0 0 1/12 0 0 1/12 0 1/12 1/12 1/12 1/12 1/12 0 0 0 "
        "1/12 1/12 0 1/12 1/12 1/12 0 1/12",
        "0 0 1/12 0 0 0 1/12 0 0 0 1/12 1/12 1/12 0 0 0 0 0 0 0 1/12 0 1/12 0 "
        "0 0 0 0 0 0",
    ),
    (
        30, 30, 3, 2,
        "0 0 0 0 0 1/16 0 1/16 1/16 1/16 1/16 0 0 0 1/16 1/16 1/16 1/16 0 1/16 "
        "1/16 0 1/16 1/16 0 1/16 1/16 1/16 1/16 1/16",
        "1/16 0 0 0 1/16 0 1/16 0 0 0 1/16 0 0 0 0 0 0 1/16 1/16 0 0 0 0 0 "
        "1/16 1/16 0 0 0 1/16",
    ),
]


def _assert_vertex(mat: SurvivalMatrix, path_text: str, fiber_text: str) -> None:
    sol = solve_mfsp_relaxation(mat)
    assert sol.path_exact == tuple(map(Fraction, path_text.split()))
    assert sol.fiber_exact == tuple(map(Fraction, fiber_text.split()))
    # Equality alone would accept ints; the exact views must stay Fractions.
    assert all(type(v) is Fraction for v in sol.path_exact + sol.fiber_exact)
    assert sol.path_values == tuple(float(v) for v in sol.path_exact)
    assert sol.fiber_values == tuple(float(v) for v in sol.fiber_exact)


@pytest.mark.parametrize(
    "n, m, w, seed, path_text, fiber_text",
    ENSEMBLE_PINS,
    ids=[f"{n}x{m}-W{w}-s{seed}" for n, m, w, seed, _, _ in ENSEMBLE_PINS],
)
def test_ensemble_vertex_is_pinned(n, m, w, seed, path_text, fiber_text):
    cfg = RandomEnsembleConfig(
        num_paths=n, num_fibers=m, max_paths_per_fiber=w, seed=seed
    )
    (mat,) = gen_random_parallel(cfg)
    _assert_vertex(mat, path_text, fiber_text)


def test_setcover_embedding_vertex_is_pinned():
    rng = Random("pin-setcover")
    subsets = [
        sorted(rng.sample(range(1, 11), rng.randint(6, 9))) for _ in range(8)
    ]
    _assert_vertex(
        gen_from_setcover(10, subsets),
        "1/6 1/6 1/6 1/6 1/6 1/6 1/6 2/3",
        "1/6 1/6 1/6 0 1/6 1/6 1/6 1/6 2/3 1/6",
    )


@pytest.mark.parametrize(
    "num_fibers, fiber_sets, path_text, fiber_text",
    [
        # Both artificials end phase 1 basic at level zero and are pivoted out.
        (2, [[1, 2], []], "0 1", "0 0"),
        (5, [[], [1, 4, 5], [1, 2, 3, 4]], "1 0 0", "0 0 0 0 0"),
    ],
)
def test_lingering_artificial_vertex_is_pinned(
    num_fibers, fiber_sets, path_text, fiber_text
):
    mat = SurvivalMatrix.from_fiber_sets(num_fibers, fiber_sets)
    _assert_vertex(mat, path_text, fiber_text)


# (ground size, seed tag, path_exact, fiber_exact): each subset holds about a
# quarter of the ground set, so each path uses about 3/4 of the fibers.
DENSE_PINS = [
    (
        16, "h",
        "1/2 1/2 1/2 1/2 1/2 1 1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2",
        "1 1 1 1 1/2 1 1 1/2 1 1/2 1 1 1 1 1 1/2",
    ),
    (
        20, "d",
        "1/3 1/3 1/3 1/3 1/3 1/3 1/2 1/2 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 1/3 "
        "1/3 1/3 1/3",
        "1/2 1/2 1/2 1/2 1/2 1/3 1/2 1/2 1/2 1/2 1/3 1/2 1/2 1/2 1/2 1/2 1/2 "
        "1/2 1/2 1/2",
    ),
]


@pytest.mark.parametrize(
    "size, tag, path_text, fiber_text",
    DENSE_PINS,
    ids=[f"{size}x{size}-{tag}" for size, tag, _, _ in DENSE_PINS],
)
def test_dense_setcover_vertex_is_pinned(size, tag, path_text, fiber_text):
    rng = Random(f"pin-dense:{size}:{tag}")
    q = size // 4
    subsets = [
        sorted(rng.sample(range(1, size + 1), rng.randint(q - 1, q + 1)))
        for _ in range(size)
    ]
    _assert_vertex(gen_from_setcover(size, subsets), path_text, fiber_text)
