"""Catalogs build their ``LogicalPath`` objects on first read only.

The walk hands an enumerated catalog its link tuples and fiber masks, and
``read_spn`` hands its catalog one link tuple ``(pid,)`` and the fiber mask of
each path line.  ``len``, ``limits``, ``complete``, ``matrix()``, the m^K
footprint check and ``survpath solve`` or ``verify`` on a ``.lnet`` or ``.spn``
file read the masks alone, so no path is built (``"paths" not in
vars(catalog)``).  Equality, hashing, repr, ``fiber_sets()``, pickling,
copying and ``dataclasses.replace`` agree with a catalog built eagerly through
``PathCatalog(...)``, whether or not ``paths`` was read first.  Pickling and
copying take an object's state by different routes on Python 3.10 and 3.11,
so these checks run on both.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import pickle
from collections import Counter
from itertools import chain
from random import Random

import survpath.cli
from survpath import (
    LayeredNetwork,
    Limits,
    LogicalPath,
    PathCatalog,
    SurvivalMatrix,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    read_spn,
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


def seeded_spn(count: int) -> list[tuple[str, PathCatalog, int]]:
    """``.spn`` texts, each with the eager twin of the catalog it reads as and
    its fiber count.  Path lines come in shuffled order, each listing its
    fibers ascending as ``write_spn`` does, and the twin grows each fiber set
    in that order and freezes it once, as ``fibers_of_links`` does.  The caps
    are declared, or not, at random, where the paths keep them.

    Fiber ids stay below 8, the fewest slots a set's hash table has.  Ids
    that share a slot (2 and 10 in 8 slots) print in insertion order, and
    pickling or copying rebuilds a frozenset by inserting its members in
    iteration order, so equal sets could print differently after a round
    trip, from an eager catalog as from a lazy one."""
    rng = Random(20261020)
    out = []
    for _ in range(count):
        m = rng.randint(1, 7)
        sets = [
            sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
            for _ in range(rng.randint(1, 9))
        ]
        load = max(Counter(chain.from_iterable(sets)).values(), default=0)
        k = rng.choice([None, max(1, *map(len, sets))])
        w = rng.choice([None, max(1, load)])
        if w is not None and len(sets) > w * m:
            w = None
        lines = [
            " ".join([f"path {j}:", *(f"f{f}" for f in fibers)])
            for j, fibers in enumerate(sets, start=1)
        ]
        rng.shuffle(lines)
        caps = [f"w {w}"] * (w is not None) + [f"k {k}"] * (k is not None)
        text = "\n".join(["spn 1", f"fibers {m}", *caps, *lines]) + "\n"
        twin = PathCatalog(
            paths=tuple(
                LogicalPath(j, (j,), frozenset(set(fibers)))
                for j, fibers in enumerate(sets, start=1)
            ),
            limits=Limits(max_fibers_per_path=k, max_paths_per_fiber=w),
            complete=False,
        )
        out.append((text, twin, m))
    return out


def spn_catalog(text: str) -> PathCatalog:
    return read_spn(io.StringIO(text)).catalog


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


def test_spn_len_limits_complete_and_matrix_build_no_path():
    checked = 0
    for text, twin, m in seeded_spn(60):
        instance = read_spn(io.StringIO(text))
        catalog = instance.catalog
        assert len(catalog) == len(twin)
        assert catalog.limits == instance.limits == twin.limits
        assert catalog.complete is False
        assert catalog.matrix(m) == instance.matrix() == twin.matrix(m)
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


def test_solve_and_verify_on_an_spn_file_build_no_path(tmp_path, monkeypatch, capsys):
    text, twin, m = next(
        (text, twin, m)
        for text, twin, m in seeded_spn(60)
        if len(twin) >= 3 and not twin.matrix(m).infeasible_fibers()
    )
    path = tmp_path / "paths.spn"
    path.write_text(text, encoding="utf-8")
    made = []

    def reading(source):
        made.append(read_spn(source))
        return made[-1]

    monkeypatch.setattr(survpath.cli, "read_spn", reading)
    for argv in (
        ["solve", "msp", "--alg", "greedy", "--in", str(path)],
        ["solve", "msp", "--alg", "exact", "--in", str(path)],
        ["solve", "mfsp", "--alg", "nacg", "--in", str(path)],
        ["verify", "--in", str(path), "--paths", ",".join(map(str, range(1, len(twin) + 1)))],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert len(made) == 4
    assert not any(paths_built(instance.catalog) for instance in made)


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


def _reads_and_clones_agree(make, twin: PathCatalog, m: int) -> None:
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
        _agree(dataclasses.replace(catalog, complete=twin.complete), twin, m, "replace")
        assert dataclasses.replace(catalog, complete=not twin.complete) != twin


def test_reads_and_clones_agree_with_an_eager_catalog_before_and_after_the_first_read():
    checked = 0
    for net, k in seeded_nets(40):
        for make in (
            lambda: enumerate_paths_unrestricted(net),
            lambda: enumerate_paths_k_restricted(net, k),
        ):
            twin = eager_twin(make(), net)
            _reads_and_clones_agree(make, twin, net.num_fibers)
            checked += len(twin)
    assert checked > 100


def test_spn_reads_and_clones_agree_with_an_eager_catalog_before_and_after_the_first_read():
    checked = 0
    for text, twin, m in seeded_spn(40):
        _reads_and_clones_agree(lambda: spn_catalog(text), twin, m)
        checked += len(twin)
    assert checked > 100


def test_no_model_class_has_a_getattr():
    for cls in (LogicalPath, PathCatalog, SurvivalMatrix):
        assert not hasattr(cls, "__getattr__"), cls.__name__
