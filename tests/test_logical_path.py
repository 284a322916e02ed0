"""The public contract of ``LogicalPath``, for built and for enumerated paths.

A path built by its constructor and a path that the enumeration walk hands
out must behave alike: the same dataclass fields, equality, hash and repr,
frozen assignment, and copies, pickles and ``dataclasses.replace`` that give
an equal path.  An enumerated path must copy and pickle before anything has
read its ``fibers_used``.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import pickle

import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    LogicalPath,
    LogicalTopology,
    PhysicalTopology,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    read_spn,
)

FIELDS = ("path_id", "links", "fibers_used", "used_mask")


def _net() -> LayeredNetwork:
    """Fibers 1 = a-b, 2 = b-c, 3 = a-c and 4 = c-d.  Logical links a-b, b-d
    and a-d are routed over fibers 1, then 2 and 4, then 3 and 4, so the path
    over links 1 and 2 uses fibers {1, 2, 4} and the path over link 3 uses
    {3, 4}."""
    nodes = ("a", "b", "c", "d")
    physical = PhysicalTopology(
        nodes=nodes, fibers=(("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"))
    )
    logical = LogicalTopology(
        nodes=("a", "b", "c", "d"),
        links=(("a", "b"), ("b", "d"), ("a", "d")),
        source="a",
        sink="d",
    )
    routing = LightpathRouting(routes=((1,), (2, 4), (3, 4)))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def _built() -> LogicalPath:
    return LogicalPath(path_id=2, links=(1, 4), fibers_used=frozenset({1, 3}))


def _enumerated() -> LogicalPath:
    """A fresh enumerated path; nothing has read its ``fibers_used`` yet."""
    return enumerate_paths_unrestricted(_net()).paths[0]


def _twin(path: LogicalPath, fibers) -> LogicalPath:
    return LogicalPath(path.path_id, path.links, frozenset(fibers))


def test_the_walk_meets_the_expected_paths():
    net = _net()
    paths = enumerate_paths_unrestricted(net).paths
    assert [(p.path_id, p.links) for p in paths] == [(1, (1, 2)), (2, (3,))]
    for path in paths:
        assert type(path.fibers_used) is frozenset
        assert path.fibers_used == net.fibers_of_links(path.links)
        assert path.cost == len(path.fibers_used)
        assert path.used_mask == sum(1 << (f - 1) for f in path.fibers_used)
    assert [p.fibers_used for p in paths] == [{1, 2, 4}, {3, 4}]
    assert [p.cost for p in paths] == [3, 2]
    capped = enumerate_paths_k_restricted(net, 2).paths
    assert [(p.path_id, p.links, p.fibers_used, p.cost) for p in capped] == [
        (1, (3,), {3, 4}, 2)
    ]


@pytest.mark.parametrize("make", [_built, _enumerated], ids=["built", "enumerated"])
def test_dataclass_fields_eq_hash_repr_and_frozen(make):
    path = make()
    fibers = {1, 3} if make is _built else {1, 2, 4}
    assert dataclasses.is_dataclass(path)
    assert tuple(f.name for f in dataclasses.fields(path)) == FIELDS
    twin = _twin(path, fibers)
    assert path == twin and twin == path
    assert hash(path) == hash(twin)
    assert path != _twin(path, fibers | {5})
    assert path != dataclasses.replace(twin, path_id=path.path_id + 1)
    listed = ", ".join(map(str, sorted(fibers)))
    assert repr(path) == (
        f"LogicalPath(path_id={path.path_id}, links={path.links!r}, "
        f"fibers_used=frozenset({{{listed}}}))"
    )
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(path, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(path, name)
    assert type(path.fibers_used) is frozenset
    assert path.fibers_used == fibers
    assert path.cost == len(fibers)
    assert path.used_mask == sum(1 << (f - 1) for f in fibers)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle-{protocol}": lambda p, protocol=protocol: pickle.loads(
            pickle.dumps(p, protocol)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("make", [_built, _enumerated], ids=["built", "enumerated"])
def test_copies_pickles_and_replace_give_an_equal_path(make):
    fibers = {1, 3} if make is _built else {1, 2, 4}
    for kind, round_trip in ROUND_TRIPS.items():
        # A fresh path each time: nothing has read its fibers before the copy.
        original = make()
        clone = round_trip(original)
        twin = _twin(original, fibers)
        assert clone == twin, kind
        assert hash(clone) == hash(twin), kind
        assert repr(clone) == repr(twin), kind
        assert clone.used_mask == twin.used_mask, kind
        assert type(clone.fibers_used) is frozenset, kind
        assert clone.fibers_used == fibers, kind
        assert clone.cost == len(fibers), kind
        assert clone == original, kind


def test_replace_revalidates_and_rederives():
    path = _enumerated()
    moved = dataclasses.replace(path, fibers_used=frozenset({2, 5}), used_mask=None)
    assert moved.used_mask == 0b10010
    assert moved.cost == 2
    assert moved.links == path.links and moved.path_id == path.path_id


def test_copy_of_a_path_in_a_catalog_before_any_read():
    catalog = enumerate_paths_unrestricted(_net())
    clone = pickle.loads(pickle.dumps(catalog))
    assert clone == catalog
    assert copy.deepcopy(catalog) == catalog
    assert [p.fibers_used for p in clone.paths] == [{1, 2, 4}, {3, 4}]


def test_reprs_list_fiber_ids_sorted_after_pickle_and_deepcopy():
    # Fibers 2 and 10 share a slot of an 8-slot hash table.  A frozenset
    # prints in table order, and pickle and deepcopy rebuild it by inserting
    # its members in that order, which can move them: this path's fibers
    # printed as {11, 2, 10, 6} and, after either round trip, {10, 2, 11, 6}.
    text = "spn 1\nfibers 12\npath 1: f2 f6 f10 f11\npath 2: f1 f3\npath 3:\n"
    catalog = read_spn(io.StringIO(text)).catalog
    want = [
        "LogicalPath(path_id=1, links=(1,), fibers_used=frozenset({2, 6, 10, 11}))",
        "LogicalPath(path_id=2, links=(2,), fibers_used=frozenset({1, 3}))",
        "LogicalPath(path_id=3, links=(3,), fibers_used=frozenset())",
    ]
    assert [repr(p) for p in catalog.paths] == want
    clones = [copy.deepcopy(catalog)]
    clones += [
        pickle.loads(pickle.dumps(catalog, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert [repr(p) for p in clone.paths] == want
        assert repr(clone) == repr(catalog)
