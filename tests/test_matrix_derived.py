"""The survival matrix's derived fields against their per-cell definition.

``survive_rows`` and ``fiber_load`` are a transpose of ``used_masks``, and
``survive_masks`` is its complement; these tests rebuild them one (fiber,
path) cell at a time on seeded shapes, including the word-size edges, and
check that every way of building a matrix from the same fiber sets agrees,
down to the enumerated paths' own fiber sets.
"""

from __future__ import annotations

from random import Random

import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    LogicalTopology,
    PhysicalTopology,
    SurvivalMatrix,
    build_survival_matrix,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
)

SIZES = (0, 1, 2, 7, 8, 9, 63, 64, 65, 300)


def reference_rows(num_fibers: int, used_masks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-cell definition: bit j-1 of row i is set iff path j avoids fiber i."""
    rows = []
    load = []
    for i in range(num_fibers):
        row = 0
        used = 0
        for j, mask in enumerate(used_masks):
            if mask >> i & 1:
                used += 1
            else:
                row |= 1 << j
        rows.append(row)
        load.append(used)
    return tuple(rows), tuple(load)


def seeded_masks(rng: Random, m: int, n: int) -> list[int]:
    """Random masks at a random fill, with the edge columns mixed in: a path
    using every fiber, a path using none, and paths using the top fiber."""
    full = (1 << m) - 1
    fill = rng.random()
    masks = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            mask = full
        elif kind == 1:
            mask = 0
        else:
            mask = sum(1 << i for i in range(m) if rng.random() < fill)
            if kind == 2 and m:
                mask |= 1 << (m - 1)
        masks.append(mask)
    if n >= 2:
        masks[0], masks[-1] = full, 0
    return masks


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("n", SIZES)
def test_derived_fields_match_the_per_cell_definition(m, n):
    rng = Random(1000 * m + n)
    masks = seeded_masks(rng, m, n)
    mat = SurvivalMatrix(m, n, tuple(masks))
    rows, load = reference_rows(m, masks)
    assert mat.survive_rows == rows
    assert mat.fiber_load == load
    assert mat.survive_masks == tuple(
        sum(1 << i for i in range(m) if rows[i] >> j & 1) for j in range(n)
    )
    full = (1 << m) - 1
    for j, mask in enumerate(masks, start=1):
        assert mat.survive_mask(j) == full & ~mask
    assert mat.infeasible_fibers() == tuple(i + 1 for i in range(m) if rows[i] == 0)


@pytest.mark.parametrize("m", (1, 8, 9, 64, 65))
def test_single_column_edges(m):
    full = (1 << m) - 1
    for mask in (0, full, 1 << (m - 1), 1, full ^ (1 << (m - 1))):
        mat = SurvivalMatrix(m, 1, (mask,))
        assert (mat.survive_rows, mat.fiber_load) == reference_rows(m, [mask])


def random_layered(rng: Random) -> LayeredNetwork:
    """Random physical graph; logical links join random node pairs and are
    routed over randomly drawn simple physical walks, so a logical path's
    fiber set is a union over several links that may share fibers."""
    count = rng.randint(3, 7)
    nodes = tuple(f"n{i}" for i in range(count))
    fibers = [(nodes[i], nodes[i + 1]) for i in range(count - 1)]
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(range(count), 2)
        fibers.append((nodes[u], nodes[v]))
    adjacency: dict[str, list[tuple[int, str]]] = {p: [] for p in nodes}
    for fid, (u, v) in enumerate(fibers, start=1):
        adjacency[u].append((fid, v))
        adjacency[v].append((fid, u))

    def route(u: str, v: str) -> tuple[int, ...]:
        # Randomized iterative DFS; the chain keeps every pair connected.
        stack = [(u, [])]
        seen = {u}
        while stack:
            node, walk = stack.pop()
            if node == v:
                return tuple(walk)
            step = list(adjacency[node])
            rng.shuffle(step)
            for fid, nxt in step:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, walk + [fid]))
        raise AssertionError("the physical chain connects every pair")

    links = []
    for _ in range(rng.randint(2, 9)):
        u, v = rng.sample(range(count), 2)
        links.append((nodes[u], nodes[v]))
    return LayeredNetwork(
        physical=PhysicalTopology(nodes=nodes, fibers=tuple(fibers)),
        logical=LogicalTopology(
            nodes=nodes,
            links=tuple(links),
            source=nodes[0],
            sink=nodes[-1],
            directed=rng.random() < 0.5,
        ),
        routing=LightpathRouting(routes=tuple(route(u, v) for u, v in links)),
    )


def test_every_construction_agrees_on_random_layered_nets():
    rng = Random(20261018)
    checked = 0
    for _ in range(60):
        net = random_layered(rng)
        catalogs = [enumerate_paths_unrestricted(net)]
        catalogs.append(enumerate_paths_k_restricted(net, rng.randint(1, 4)))
        for catalog in catalogs:
            for path in catalog.paths:
                assert path.fibers_used == net.fibers_of_links(path.links)
            sets = catalog.fiber_sets()
            m = net.num_fibers
            masks = tuple(sum(1 << (f - 1) for f in s) for s in sets)
            built = [
                SurvivalMatrix(m, len(masks), masks),
                SurvivalMatrix.from_fiber_sets(m, sets),
                build_survival_matrix(net, catalog.paths),
                catalog.matrix(m),
            ]
            rows, load = reference_rows(m, masks)
            for mat in built:
                assert mat == built[0]
                assert mat.used_masks == masks
                assert (mat.survive_rows, mat.fiber_load) == (rows, load)
            checked += len(sets)
    assert checked > 100
