"""Catalog matrices against the per-fiber construction.

``PathCatalog.matrix`` and ``ParallelInstance.matrix`` must give the matrix
that ``SurvivalMatrix.from_fiber_sets`` builds from the catalog's fiber sets,
and must reject the fiber ids that constructor rejects: a fiber above m, or a
fiber id below 1.  They build it from each path's ``used_mask``, so every
producer's masks are checked here against the paths' fiber sets.
"""

from __future__ import annotations

import io
from dataclasses import replace
from random import Random

import pytest

from survpath import (
    Limits,
    LogicalPath,
    PathCatalog,
    SurvivalMatrix,
    ValidationError,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    matrix_to_instance,
    packaged_instance,
    read_spn,
    write_spn,
)
from survpath.instances import RandomEnsembleConfig, gen_random_parallel

from test_matrix_derived import random_layered

PACKAGED = ("pairwise3.spn", "uncoverable.spn", "nonadditive.spn")


def _catalog(*fiber_sets) -> PathCatalog:
    paths = tuple(
        LogicalPath(path_id=j, links=(j,), fibers_used=frozenset(fs))
        for j, fs in enumerate(fiber_sets, start=1)
    )
    return PathCatalog(paths=paths, limits=Limits(), complete=False)


def test_matrix_below_the_largest_fiber_raises():
    catalog = _catalog({1}, {2, 3})
    assert catalog.matrix(3).used_masks == (0b1, 0b110)
    with pytest.raises(ValidationError, match=r"path 2 uses .*outside 1\.\.2"):
        catalog.matrix(2)


def test_fiber_zero_raises_before_the_matrix_is_built():
    with pytest.raises(ValidationError):
        _catalog({1}, {0, 2}).matrix(2)


def test_shortened_catalog_matrix_matches_its_fiber_sets():
    catalog = _catalog({1, 2}, {3}, {2, 4}, {1, 4})
    short = replace(catalog, paths=catalog.paths[:-1])
    assert short.matrix(4) == SurvivalMatrix.from_fiber_sets(4, [{1, 2}, {3}, {2, 4}])
    assert short.matrix(4).num_paths == 3


@pytest.mark.parametrize("name", PACKAGED)
def test_packaged_spn_matrix_matches_its_fiber_sets(name):
    inst = read_spn(packaged_instance(name))
    expected = SurvivalMatrix.from_fiber_sets(inst.num_fibers, inst.catalog.fiber_sets())
    assert inst.matrix() == expected


def test_written_spn_matrix_matches_its_fiber_sets():
    checked = 0
    for seed in range(20):
        cfg = RandomEnsembleConfig(
            num_paths=4 + seed % 7, num_fibers=5 + seed % 9,
            max_paths_per_fiber=2 + seed % 3, seed=seed,
        )
        (mat,) = gen_random_parallel(cfg)
        buffer = io.StringIO()
        limits = Limits(max_paths_per_fiber=cfg.max_paths_per_fiber)
        write_spn(matrix_to_instance(mat, limits), buffer)
        inst = read_spn(io.StringIO(buffer.getvalue()))
        assert inst.matrix() == SurvivalMatrix.from_fiber_sets(
            inst.num_fibers, inst.catalog.fiber_sets()
        )
        assert inst.matrix() == mat
        checked += mat.num_paths
    assert checked > 100


def _mask_of(fibers) -> int:
    return sum(1 << (f - 1) for f in fibers)


def test_every_producer_hands_out_the_mask_of_its_fiber_set():
    rng = Random(20261018)
    checked = 0
    for _ in range(60):
        net = random_layered(rng)
        m = net.num_fibers
        enumerated = [
            enumerate_paths_unrestricted(net),
            enumerate_paths_k_restricted(net, rng.randint(1, 4)),
        ]
        catalogs = list(enumerated)
        for catalog in enumerated:
            # The walk meets the paths in the order their ids follow.
            links = [p.links for p in catalog.paths]
            assert links == sorted(links)
            inst = matrix_to_instance(catalog.matrix(m))
            buffer = io.StringIO()
            write_spn(inst, buffer)
            catalogs += [inst.catalog, read_spn(io.StringIO(buffer.getvalue())).catalog]
        for catalog in catalogs:
            for path in catalog.paths:
                assert path.used_mask == _mask_of(path.fibers_used)
                checked += 1
    assert checked > 400


def test_a_passed_mask_does_not_change_equality_or_hash():
    derived = LogicalPath(path_id=2, links=(1, 4), fibers_used=frozenset({1, 3}))
    passed = LogicalPath(
        path_id=2, links=(1, 4), fibers_used=frozenset({1, 3}), used_mask=0b101
    )
    assert derived.used_mask == passed.used_mask == 0b101
    assert derived == passed
    assert hash(derived) == hash(passed)
    assert repr(derived) == repr(passed)
    assert LogicalPath(path_id=1, links=(1,), fibers_used=frozenset()).used_mask == 0


@pytest.mark.parametrize(
    ("fibers", "mask", "message"),
    [
        ({0, 2}, None, "uses fiber 0; fiber ids are 1-based"),
        ({-3}, None, "uses fiber -3; fiber ids are 1-based"),
        ({1, 2}, -4, "used_mask does not encode its 2 fibers"),
        ({1, 2}, 0b1, "used_mask does not encode its 2 fibers"),
        (set(), 0b1000, "used_mask does not encode its 0 fibers"),
        # Right popcount, other fibers: the matrix would read fibers {1, 3}
        # while write_spn writes f1 f2.
        ({1, 2}, 0b101, "path 1: used_mask does not encode its 2 fibers"),
        ({3}, 0b1, "path 1: used_mask does not encode its 1 fibers"),
        ({0, 2}, 0b11, "path 1 uses fiber 0; fiber ids are 1-based"),
    ],
)
def test_a_bad_fiber_id_or_mask_raises(fibers, mask, message):
    with pytest.raises(ValidationError, match=message):
        LogicalPath(path_id=1, links=(1,), fibers_used=frozenset(fibers), used_mask=mask)
