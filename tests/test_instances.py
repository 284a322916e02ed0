from __future__ import annotations

import time
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    ValidationError,
    decode_gadget_objective,
    gen_from_setcover,
    gen_mfsp_3setcover_gadget,
    gen_random_parallel,
    mfsp_exact,
    msp_exact,
)
from survpath.instances import RandomEnsembleConfig

from oracles import brute_min_cover


# ---------------------------------------------------------------------------
# Random parallel ensembles
# ---------------------------------------------------------------------------


def test_generation_is_deterministic_per_config():
    cfg = RandomEnsembleConfig(
        num_paths=12, num_fibers=18, max_paths_per_fiber=3, trials=4, seed=11
    )
    assert gen_random_parallel(cfg) == gen_random_parallel(cfg)


def test_trials_differ_and_seeds_differ():
    cfg = RandomEnsembleConfig(
        num_paths=12, num_fibers=18, max_paths_per_fiber=3, trials=3, seed=11
    )
    mats = gen_random_parallel(cfg)
    assert len(mats) == 3
    assert len({m.used_masks for m in mats}) == 3
    other = gen_random_parallel(
        RandomEnsembleConfig(
            num_paths=12, num_fibers=18, max_paths_per_fiber=3, trials=3, seed=12
        )
    )
    assert mats[0] != other[0]


def test_generated_instances_respect_caps():
    rng = Random("caps")
    for trial in range(60):
        w = rng.randint(1, 5)
        k = rng.choice([None, rng.randint(1, 6)])
        m = rng.randint(4, 20)
        n = rng.randint(1, min(16, w * m))
        cfg = RandomEnsembleConfig(
            num_paths=n,
            num_fibers=m,
            max_paths_per_fiber=w,
            max_fibers_per_path=k,
            trials=2,
            seed=trial,
        )
        for mat in gen_random_parallel(cfg):
            assert mat.num_paths == n and mat.num_fibers == m
            assert mat.max_fiber_load() <= w
            for j in range(1, n + 1):
                assert 1 <= mat.path_cost(j) <= (k or m)


def test_capacity_infeasible_config_rejected_up_front():
    with pytest.raises(ValidationError, match="capacity"):
        RandomEnsembleConfig(num_paths=7, num_fibers=3, max_paths_per_fiber=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_paths=0, num_fibers=3, max_paths_per_fiber=2),
        dict(num_paths=3, num_fibers=0, max_paths_per_fiber=2),
        dict(num_paths=3, num_fibers=3, max_paths_per_fiber=0),
        dict(num_paths=3, num_fibers=3, max_paths_per_fiber=2, max_fibers_per_path=0),
        dict(num_paths=3, num_fibers=3, max_paths_per_fiber=2, trials=0),
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(ValidationError):
        RandomEnsembleConfig(**kwargs)


def test_large_generation_is_fast():
    cfg = RandomEnsembleConfig(
        num_paths=500, num_fibers=1000, max_paths_per_fiber=40, trials=1, seed=0
    )
    start = time.perf_counter()
    (mat,) = gen_random_parallel(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert mat.max_fiber_load() <= 40


# ---------------------------------------------------------------------------
# Set-cover embedding (minimum paths)
# ---------------------------------------------------------------------------


def test_setcover_example_two_subsets_needed():
    mat = gen_from_setcover(3, [[1, 2], [2, 3], [3]])
    assert brute_min_cover(3, [[1, 2], [2, 3], [3]]) == 2
    report = msp_exact(mat)
    assert report.objective == 2
    assert report.solution.selected == (1, 2)


def test_setcover_full_ground_subset_gives_one():
    mat = gen_from_setcover(4, [[2, 4], [1, 2, 3, 4]])
    assert msp_exact(mat).objective == 1


def test_setcover_missing_element_makes_solving_infeasible():
    # Element 3 is in no subset; the embedding is constructed fine but no
    # selection can survive the corresponding fiber.
    mat = gen_from_setcover(3, [[1], [2]])
    assert mat.infeasible_fibers() == (3,)
    with pytest.raises(InfeasibleInstanceError):
        msp_exact(mat)


@pytest.mark.parametrize(
    "ground, subsets",
    [
        (0, [[1]]),
        (3, []),
        (3, [[]]),
        (3, [[4]]),
        (3, [[0]]),
    ],
)
def test_setcover_validation(ground, subsets):
    with pytest.raises(ValidationError):
        gen_from_setcover(ground, subsets)


def test_setcover_matches_brute_force_on_random_covers():
    rng = Random("setcover-random")
    for _ in range(30):
        ground = rng.randint(3, 9)
        num_subsets = rng.randint(2, 7)
        subsets = []
        for _ in range(num_subsets):
            size = rng.randint(1, ground)
            subsets.append(sorted(rng.sample(range(1, ground + 1), size)))
        expected = brute_min_cover(ground, subsets)
        mat = gen_from_setcover(ground, subsets)
        if expected is None:
            assert mat.infeasible_fibers()
            continue
        assert msp_exact(mat).objective == expected


# ---------------------------------------------------------------------------
# 3-set-cover gadget (minimum fibers)
# ---------------------------------------------------------------------------


def test_gadget_structure_hand_expansion():
    # 3 elements, two copies of the full triple, chain length 15: each triple
    # contributes a private 16-fiber chain; fibers 33-38 are membership spurs,
    # 39-41 element entries, 42-47 the upper/lower tail pairs per element.
    net, catalog = gen_mfsp_3setcover_gadget(3, [[1, 2, 3], [1, 2, 3]], 15)
    assert net.num_fibers == 47
    assert net.logical.directed
    assert len(catalog.paths) == 6  # 3 paths per triple
    assert catalog.complete
    chain1 = set(range(1, 17))
    chain2 = set(range(17, 33))
    expected = [
        chain1 | {33, 39, 42, 45, 47},
        chain1 | {34, 40, 43, 44, 47},
        chain1 | {35, 41, 43, 45, 46},
        chain2 | {36, 39, 42, 45, 47},
        chain2 | {37, 40, 43, 44, 47},
        chain2 | {38, 41, 43, 45, 46},
    ]
    assert [set(p.fibers_used) for p in catalog.paths] == expected
    # Every path costs chain + membership + entry + one tail lane per element.
    assert all(p.cost == 15 + 3 + 3 for p in catalog.paths)


def test_gadget_chain_longer_than_the_recursion_limit():
    # Every chain fiber is its own logical hop, so the path walk goes 1200+
    # links deep; a walk that recursed per hop overflowed the interpreter stack.
    net, catalog = gen_mfsp_3setcover_gadget(3, [[1, 2, 3], [1, 2, 3]], 1200)
    assert len(catalog) == 6
    assert all(p.cost == 1200 + 3 + 3 for p in catalog.paths)
    mat = catalog.matrix(net.num_fibers)
    objective = mfsp_exact(mat).objective
    assert decode_gadget_objective(objective, 3, 1200, [[1, 2, 3], [1, 2, 3]]) == 1


def test_gadget_single_triple_cover_decodes_to_one():
    net, catalog = gen_mfsp_3setcover_gadget(3, [[1, 2, 3], [1, 2, 3]], 15)
    mat = catalog.matrix(net.num_fibers)
    report = mfsp_exact(mat)
    assert report.objective == 44
    assert decode_gadget_objective(44, 3, 15, [[1, 2, 3], [1, 2, 3]]) == 1


def test_gadget_disjoint_triples_decode_to_two():
    triples = [[1, 2, 3], [4, 5, 6]]
    net, catalog = gen_mfsp_3setcover_gadget(6, triples, 24)
    mat = catalog.matrix(net.num_fibers)
    report = mfsp_exact(mat)
    assert report.objective == 74
    assert decode_gadget_objective(74, 6, 24, triples) == 2


def test_gadget_decode_matches_brute_force_cover():
    rng = Random("gadget-random")
    for _ in range(5):
        m = rng.choice([4, 5, 6])
        universe = list(range(1, m + 1))
        triples = []
        # Cover all elements, then add noise triples.
        rng.shuffle(universe)
        for base in range(0, m, 3):
            block = universe[base : base + 3]
            while len(block) < 3:
                extra = rng.choice([e for e in range(1, m + 1) if e not in block])
                block.append(extra)
            triples.append(sorted(block))
        for _ in range(rng.randint(0, 3)):
            triples.append(sorted(rng.sample(range(1, m + 1), 3)))
        n = len(triples)
        chain = 3 * m + 3 * n
        net, catalog = gen_mfsp_3setcover_gadget(m, triples, chain)
        mat = catalog.matrix(net.num_fibers)
        objective = mfsp_exact(mat).objective
        decoded = decode_gadget_objective(objective, m, chain, triples)
        triple_sets = [set(t) for t in triples]
        assert decoded == brute_min_cover(m, triple_sets)


@pytest.mark.parametrize(
    "elements, triples, chain, fragment",
    [
        (2, [[1, 2, 2]], 30, "at least 3"),
        (3, [[1, 2, 3]], 30, "at least two triples"),
        (3, [[1, 2, 3], [1, 1, 2]], 30, "distinct"),
        (3, [[1, 2, 4], [1, 2, 3]], 30, "outside"),
        (4, [[1, 2, 3], [1, 2, 3]], 30, "element 4"),
        (3, [[1, 2, 3], [1, 2, 3]], 5, "chain_length"),
    ],
)
def test_gadget_validation(elements, triples, chain, fragment):
    with pytest.raises(ValidationError, match=fragment):
        gen_mfsp_3setcover_gadget(elements, triples, chain)


def test_decode_rejects_objectives_not_from_a_gadget():
    with pytest.raises(ValidationError):
        decode_gadget_objective(45, 3, 15, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValidationError):
        decode_gadget_objective(16, 3, 15, [[1, 2, 3], [1, 2, 3]])
