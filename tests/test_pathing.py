from __future__ import annotations

import time
from random import Random

import networkx as nx
import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    Limits,
    LogicalTopology,
    PathCatalog,
    PhysicalTopology,
    ValidationError,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    matrix_to_instance,
    read_spn,
    write_spn,
)
from survpath import SurvivalMatrix


def _chain_net(num_fibers: int) -> LayeredNetwork:
    """One logical s-t link routed over a physical chain of ``num_fibers`` hops."""
    nodes = tuple(f"n{i}" for i in range(num_fibers + 1))
    physical = PhysicalTopology(
        nodes=nodes, fibers=tuple((nodes[i], nodes[i + 1]) for i in range(num_fibers))
    )
    logical = LogicalTopology(
        nodes=(nodes[0], nodes[-1]),
        links=((nodes[0], nodes[-1]),),
        source=nodes[0],
        sink=nodes[-1],
    )
    routing = LightpathRouting(routes=(tuple(range(1, num_fibers + 1)),))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def _random_unit_net(rng: Random) -> LayeredNetwork:
    """Random logical multigraph where every link is its own unit-routed fiber."""
    node_count = rng.randint(3, 6)
    nodes = tuple(f"v{i}" for i in range(node_count))
    links = [(nodes[i], nodes[i + 1]) for i in range(node_count - 1)]
    for _ in range(rng.randint(0, 5)):
        u, v = rng.sample(range(node_count), 2)
        links.append((nodes[u], nodes[v]))
    physical = PhysicalTopology(nodes=nodes, fibers=tuple(links))
    logical = LogicalTopology(
        nodes=nodes, links=tuple(links), source=nodes[0], sink=nodes[-1]
    )
    routing = LightpathRouting(routes=tuple((k,) for k in range(1, len(links) + 1)))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def _nx_simple_edge_paths(net: LayeredNetwork) -> list[tuple[int, ...]]:
    """Oracle: all simple logical s-t paths as link-id sequences, sorted."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(net.logical.nodes)
    for k, (u, v) in enumerate(net.logical.links, start=1):
        graph.add_edge(u, v, key=k)
    found = []
    for edge_path in nx.all_simple_edge_paths(
        graph, net.logical.source, net.logical.sink
    ):
        found.append(tuple(key for _, _, key in edge_path))
    return sorted(found)


def test_single_link_two_fiber_chain():
    net = _chain_net(2)
    catalog = enumerate_paths_k_restricted(net, max_fibers=2)
    assert catalog.complete
    assert catalog.limits == Limits(max_fibers_per_path=2)
    assert len(catalog.paths) == 1
    (path,) = catalog.paths
    assert path.path_id == 1
    assert path.links == (1,)
    assert path.fibers_used == frozenset({1, 2})
    assert path.cost == 2


def test_cap_below_route_cost_excludes_path():
    net = _chain_net(3)
    catalog = enumerate_paths_k_restricted(net, max_fibers=2)
    assert catalog.paths == ()
    assert catalog.complete


def test_square_cycle_enumeration_order():
    physical = PhysicalTopology(
        nodes=("s", "a", "t", "b"),
        fibers=(("s", "a"), ("a", "t"), ("t", "b"), ("b", "s")),
    )
    logical = LogicalTopology(
        nodes=("s", "a", "t", "b"),
        links=(("s", "a"), ("a", "t"), ("t", "b"), ("b", "s")),
        source="s",
        sink="t",
    )
    net = LayeredNetwork(
        physical=physical,
        logical=logical,
        routing=LightpathRouting(routes=((1,), (2,), (3,), (4,))),
    )
    catalog = enumerate_paths_k_restricted(net, max_fibers=3)
    # Two simple s-t paths: clockwise over links (1,2), counterclockwise over
    # links (4,3); ids follow link-sequence lexicographic order.
    assert [(p.path_id, p.links) for p in catalog.paths] == [(1, (1, 2)), (2, (4, 3))]
    assert [sorted(p.fibers_used) for p in catalog.paths] == [[1, 2], [3, 4]]


def test_enumeration_matches_networkx_on_random_multigraphs():
    rng = Random("nx-enumeration")
    for _ in range(40):
        net = _random_unit_net(rng)
        catalog = enumerate_paths_unrestricted(net)
        ours = [p.links for p in catalog.paths]
        assert ours == _nx_simple_edge_paths(net)
        # Unit routings: the fiber set of a path is exactly its link set.
        for p in catalog.paths:
            assert p.fibers_used == frozenset(p.links)


def test_k_restriction_filters_unrestricted_enumeration():
    rng = Random("k-filter")
    for _ in range(25):
        net = _random_unit_net(rng)
        full = enumerate_paths_unrestricted(net)
        k = rng.randint(1, 4)
        capped = enumerate_paths_k_restricted(net, max_fibers=k)
        assert capped.complete
        expected = [p.links for p in full.paths if p.cost <= k]
        assert [p.links for p in capped.paths] == expected
        assert all(p.cost <= k for p in capped.paths)
        # Catalog ids are dense and 1-based in both cases.
        assert [p.path_id for p in capped.paths] == list(
            range(1, len(capped.paths) + 1)
        )


def test_disconnected_sink_yields_empty_catalog():
    physical = PhysicalTopology(nodes=("s", "t", "q"), fibers=(("s", "q"),))
    logical = LogicalTopology(nodes=("s", "t", "q"), links=(("s", "q"),), source="s", sink="t")
    net = LayeredNetwork(
        physical=physical, logical=logical, routing=LightpathRouting(routes=((1,),))
    )
    catalog = enumerate_paths_unrestricted(net)
    assert catalog.paths == ()
    assert catalog.complete


def test_parallel_links_sharing_one_fiber_stay_distinct():
    physical = PhysicalTopology(nodes=("s", "t"), fibers=(("s", "t"),))
    logical = LogicalTopology(
        nodes=("s", "t"), links=(("s", "t"), ("s", "t")), source="s", sink="t"
    )
    net = LayeredNetwork(
        physical=physical, logical=logical, routing=LightpathRouting(routes=((1,), (1,)))
    )
    catalog = enumerate_paths_unrestricted(net)
    # Same fiber footprint, different link sequences: both are kept.
    assert [p.links for p in catalog.paths] == [(1,), (2,)]
    assert [p.fibers_used for p in catalog.paths] == [frozenset({1}), frozenset({1})]


def test_invalid_cap_rejected():
    net = _chain_net(2)
    with pytest.raises(ValidationError):
        enumerate_paths_k_restricted(net, max_fibers=0)


def test_a_huge_cap_enumerates_as_fast_as_a_cap_of_m():
    # The footprint check bounds the footprints by m^K; at K >= m a cap above
    # m changes neither the catalog nor the check, so it must not cost more.
    from survpath.instances import gen_mfsp_3setcover_gadget

    net, _ = gen_mfsp_3setcover_gadget(3, [(1, 2, 3), (1, 2, 3)], 15)
    m = net.num_fibers
    at_m = enumerate_paths_k_restricted(net, max_fibers=m)
    start = time.perf_counter()
    huge = enumerate_paths_k_restricted(net, max_fibers=10**7)
    elapsed = time.perf_counter() - start
    assert huge.paths == at_m.paths
    assert len(huge) == 6
    assert huge.limits == Limits(max_fibers_per_path=10**7)
    assert huge.matrix(m) == at_m.matrix(m)
    assert elapsed < 2.0, f"enumeration at K = 10**7 took {elapsed:.1f} s"


def test_catalog_validates_dense_ids():
    net = _chain_net(2)
    catalog = enumerate_paths_k_restricted(net, max_fibers=2)
    (path,) = catalog.paths
    from survpath import LogicalPath

    renumbered = LogicalPath(path_id=5, links=path.links, fibers_used=path.fibers_used)
    with pytest.raises(ValidationError):
        PathCatalog(paths=(renumbered,), limits=Limits(), complete=False)


def test_catalog_rejects_cap_violations_and_duplicates():
    net = _chain_net(2)
    catalog = enumerate_paths_k_restricted(net, max_fibers=2)
    (path,) = catalog.paths
    with pytest.raises(ValidationError):
        PathCatalog(
            paths=(path,), limits=Limits(max_fibers_per_path=1), complete=False
        )
    from survpath import LogicalPath

    dup = LogicalPath(path_id=2, links=path.links, fibers_used=path.fibers_used)
    with pytest.raises(ValidationError):
        PathCatalog(paths=(path, dup), limits=Limits(), complete=False)


def test_spn_catalog_round_trip(tmp_path):
    mat = SurvivalMatrix.from_fiber_sets(4, [[1, 2], [3], [2, 4]])
    instance = matrix_to_instance(mat, Limits(max_paths_per_fiber=2))
    spn = tmp_path / "multi.spn"
    write_spn(instance, spn)
    catalog = read_spn(spn).catalog
    assert len(catalog.paths) == 3
    assert [sorted(p.fibers_used) for p in catalog.paths] == [[1, 2], [3], [2, 4]]
    assert catalog.limits.max_paths_per_fiber == 2
    rebuilt = catalog.matrix(4)
    assert rebuilt == mat
