"""Enumerated catalogs build their ``LogicalPath`` objects on first read only.

The walk hands the catalog its link tuples and fiber masks.  ``len``,
``limits``, ``complete``, ``matrix()``, the m^K footprint check and
``survpath solve`` on a ``.lnet`` file read the masks alone, so no path is
built (``"paths" not in vars(catalog)``).  Equality, hashing, repr,
``fiber_sets()``, pickling, copying and ``dataclasses.replace`` agree with a
catalog built eagerly through ``PathCatalog(...)``, whether or not ``paths``
was read first.  Pickling and copying take an object's state by different
routes on Python 3.10 and 3.11, so these checks run on both.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from random import Random

import survpath.cli
from survpath import (
    LayeredNetwork,
    LogicalPath,
    PathCatalog,
    SurvivalMatrix,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    write_lnet,
)
from survpath.cli import main

from test_exact_invariants import _parallel_net
from test_matrix_derived import random_layered


def paths_built(catalog: PathCatalog) -> bool:
    return "paths" in vars(catalog)


def enumerate_both(net: LayeredNetwork, k: int) -> list[PathCatalog]:
    return [enumerate_paths_unrestricted(net), enumerate_paths_k_restricted(net, k)]


def eager_twin(catalog: PathCatalog, net: LayeredNetwork) -> PathCatalog:
    """``catalog`` rebuilt through the public constructors, from its paths'
    links and the routing; this reads ``catalog.paths``."""
    return PathCatalog(
        paths=tuple(
            LogicalPath(p.path_id, p.links, net.fibers_of_links(p.links))
            for p in catalog.paths
        ),
        limits=catalog.limits,
        complete=True,
    )


def seeded_nets(count: int) -> list[tuple[LayeredNetwork, int]]:
    rng = Random(20261019)
    return [(random_layered(rng), rng.randint(1, 4)) for _ in range(count)]


def test_len_limits_complete_and_matrix_build_no_path():
    checked = 0
    for net, k in seeded_nets(60):
        twins = [eager_twin(c, net) for c in enumerate_both(net, k)]
        for catalog, twin in zip(enumerate_both(net, k), twins):
            m = net.num_fibers
            assert len(catalog) == len(twin)
            assert catalog.limits == twin.limits
            assert catalog.complete is True
            assert catalog.matrix(m) == twin.matrix(m)
            assert catalog.matrix(m).used_masks == tuple(p.used_mask for p in twin.paths)
            assert not paths_built(catalog)
            checked += len(twin)
    assert checked > 100


def test_the_footprint_check_builds_no_path():
    # Three paths on m = 1, K = 1 exceed the bound 1, so the footprints are
    # counted; they are one, so the catalog is returned.
    catalog = enumerate_paths_k_restricted(_parallel_net(links=3, fibers=1), 1)
    assert len(catalog) == 3
    assert not paths_built(catalog)
    assert [p.links for p in catalog.paths] == [(1,), (2,), (3,)]
    assert [p.fibers_used for p in catalog.paths] == [{1}] * 3


def test_solve_on_an_lnet_file_builds_no_path(tmp_path, monkeypatch, capsys):
    net = next(
        net
        for net, _ in seeded_nets(60)
        if len(catalog := enumerate_paths_unrestricted(net)) >= 3
        and not catalog.matrix(net.num_fibers).infeasible_fibers()
    )
    path = tmp_path / "net.lnet"
    with open(path, "w", encoding="utf-8") as handle:
        write_lnet(net, handle)
    n = len(catalog)
    made: list[PathCatalog] = []

    def recording(enumerate_paths):
        def wrapper(*args):
            made.append(enumerate_paths(*args))
            return made[-1]

        return wrapper

    for name in ("enumerate_paths_k_restricted", "enumerate_paths_unrestricted"):
        monkeypatch.setattr(survpath.cli, name, recording(getattr(survpath.cli, name)))
    for argv in (
        ["solve", "msp", "--alg", "greedy", "--in", str(path)],
        ["solve", "mfsp", "--alg", "nacg", "--k", "4", "--in", str(path)],
        ["verify", "--in", str(path), "--paths", ",".join(map(str, range(1, n + 1)))],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert len(made) == 3
    assert not any(map(paths_built, made))


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle-{protocol}": lambda c, protocol=protocol: pickle.loads(
            pickle.dumps(c, protocol)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def _agree(catalog: PathCatalog, twin: PathCatalog, m: int, kind: str) -> None:
    assert catalog == twin and twin == catalog, kind
    assert hash(catalog) == hash(twin), kind
    assert repr(catalog) == repr(twin), kind
    assert catalog.fiber_sets() == twin.fiber_sets(), kind
    assert len(catalog) == len(twin), kind
    assert catalog.matrix(m) == twin.matrix(m), kind


def test_reads_and_clones_agree_with_an_eager_catalog_before_and_after_the_first_read():
    checked = 0
    for net, k in seeded_nets(40):
        m = net.num_fibers
        for make in (
            lambda: enumerate_paths_unrestricted(net),
            lambda: enumerate_paths_k_restricted(net, k),
        ):
            twin = eager_twin(make(), net)
            # A fresh catalog per read: nothing has built its paths before it.
            assert make() == twin and twin == make()
            assert hash(make()) == hash(twin)
            assert repr(make()) == repr(twin)
            assert make().fiber_sets() == twin.fiber_sets()
            for kind, round_trip in ROUND_TRIPS.items():
                fresh = make()
                clone = round_trip(fresh)
                assert not paths_built(fresh) and not paths_built(clone), kind
                _agree(clone, twin, m, kind)
                _agree(fresh, twin, m, kind)
                read = make()
                assert read.paths == twin.paths, kind
                _agree(round_trip(read), twin, m, kind)
            read = make()
            assert read.paths == twin.paths
            for catalog in (make(), read):
                _agree(dataclasses.replace(catalog), twin, m, "replace")
                _agree(dataclasses.replace(catalog, complete=True), twin, m, "replace")
                assert dataclasses.replace(catalog, complete=False) != twin
            checked += len(twin)
    assert checked > 100


def test_no_model_class_has_a_getattr():
    for cls in (LogicalPath, PathCatalog, SurvivalMatrix):
        assert not hasattr(cls, "__getattr__"), cls.__name__
