"""The survival matrix's derived fields against their per-cell definition.

``survive_rows`` and ``fiber_load`` are a transpose of ``used_masks``, and
``survive_masks`` is its complement; these tests rebuild them one (fiber,
path) cell at a time on seeded shapes, including the word-size edges, and
check that every way of building a matrix from the same fiber sets agrees,
down to the enumerated paths' own fiber sets.

The transpose is built on first read only: the greedy family and the
feasibility check read the path masks alone (and, on a matrix with more
paths than fibers, the greedy its byte columns), and pickling, copying or
replacing a matrix keeps its views equal whether or not they were built.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import subprocess
import sys
import weakref
from functools import reduce
from operator import and_
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    LayeredNetwork,
    LightpathRouting,
    LogicalPath,
    LogicalTopology,
    PathCatalog,
    PhysicalTopology,
    SurvivalMatrix,
    ValidationError,
    build_survival_matrix,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    mfsp_nacg,
    mfsp_rsg,
    msp_epsnet,
    msp_exact,
    msp_greedy,
    require_feasible,
    solve_mfsp_relaxation,
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
    assert mat.path_costs == tuple(sum(mask >> i & 1 for i in range(m)) for mask in masks)
    full = (1 << m) - 1
    for j, mask in enumerate(masks, start=1):
        assert mat.survive_mask(j) == full & ~mask
        assert mat.path_cost(j) == mat.path_costs[j - 1]
    assert mat.infeasible_fibers() == tuple(i + 1 for i in range(m) if rows[i] == 0)


def reference_columns(num_fibers: int, used_masks) -> tuple[bytes, ...]:
    """Byte b of every used mask, last path first."""
    return tuple(
        bytes(mask >> 8 * b & 255 for mask in reversed(used_masks))
        for b in range((num_fibers + 7) // 8)
    )


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("n", (0, 1, 9, 300))
def test_used_columns_hold_each_byte_of_every_mask(m, n):
    masks = seeded_masks(Random(7000 * m + n), m, n)
    mat = SurvivalMatrix(m, n, tuple(masks))
    assert mat.used_columns == reference_columns(m, masks)


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


# ---------------------------------------------------------------------------
# Views built on first read
# ---------------------------------------------------------------------------

FIBER_MAJOR = ("survive_rows", "fiber_load")


def fiber_major_built(mat: SurvivalMatrix) -> bool:
    built = [name in vars(mat) for name in FIBER_MAJOR]
    assert built[0] == built[1], "the two views are built together"
    return built[0]


def clones(mat: SurvivalMatrix) -> list[SurvivalMatrix]:
    out = [
        pickle.loads(pickle.dumps(mat, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    out += [copy.copy(mat), copy.deepcopy(mat), dataclasses.replace(mat)]
    return out


def feasible_k_restricted_matrix() -> SurvivalMatrix:
    """The first seeded net whose K-restricted catalog is feasible with at
    least four paths, as a matrix; feasibility is checked on the masks here."""
    rng = Random(20261019)
    while True:
        net = random_layered(rng)
        catalog = enumerate_paths_k_restricted(net, 3)
        masks = [p.used_mask for p in catalog.paths]
        full = (1 << net.num_fibers) - 1
        if len(masks) >= 4 and not reduce(and_, masks, full):
            return catalog.matrix(net.num_fibers)


def test_the_greedy_family_never_builds_the_fiber_major_views():
    mat = feasible_k_restricted_matrix()
    require_feasible(mat)
    msp_greedy(mat)
    mfsp_nacg(mat)
    mfsp_rsg(mat, seed=5)
    # A sample that misses a fiber doubles that fiber's survivors: three times here.
    assert msp_epsnet(mat, seed=2, c=0.5).iterations == 4
    assert not fiber_major_built(mat)

    before = clones(mat)
    assert not fiber_major_built(mat)
    for clone in before:
        assert clone == mat and hash(clone) == hash(mat)
        assert not fiber_major_built(clone)
    expected = reference_rows(mat.num_fibers, mat.used_masks)
    assert (mat.survive_rows, mat.fiber_load) == expected
    assert fiber_major_built(mat)
    assert mat.survivor_row(1) == expected[0][0]
    assert mat.max_fiber_load() == max(expected[1])

    after = clones(mat)
    for clone in before + after:
        assert clone == mat and hash(clone) == hash(mat)
        assert (clone.survive_rows, clone.fiber_load) == expected
        assert clone.survive_masks == mat.survive_masks
    assert all(fiber_major_built(clone) for clone in after)


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="every instance has a dict before CPython 3.11"
)
def test_the_views_keep_the_matrix_attributes_inline():
    # CPython 3.11 keeps an instance's attributes in an inline array until
    # something asks for its __dict__; from then on every attribute load on
    # the matrix costs two to three times as much.  vars() asks for it, so
    # the views are checked only after the referents are.
    mat = feasible_k_restricted_matrix()
    expected = reference_rows(mat.num_fibers, mat.used_masks)
    assert (mat.survive_rows, mat.fiber_load) == expected
    assert mat.used_columns == reference_columns(mat.num_fibers, mat.used_masks)
    msp_exact(mat)
    mfsp_nacg(mat)
    solve_mfsp_relaxation(mat)
    assert not [ref for ref in gc.get_referents(mat) if isinstance(ref, dict)]
    assert fiber_major_built(mat)


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="every instance has a dict before CPython 3.11"
)
def test_views_read_after_many_matrices_stay_inline():
    # Each new instance leaves less room in the inline array for names the
    # class has not met; once about 23 matrices had read no view, a matrix
    # that read one got a dict.  A fresh interpreter, so that no earlier test
    # has read a view first.
    code = (
        "import gc\n"
        "from survpath import SurvivalMatrix\n"
        "made = [SurvivalMatrix(2, 1, (1,)) for _ in range(100)]\n"
        "mat = SurvivalMatrix(2, 1, (1,))\n"
        "assert mat.survive_rows == (0, 1) and mat.fiber_load == (1, 0)\n"
        "assert mat.used_columns == (bytes([1]),)\n"
        "print(sum(isinstance(ref, dict) for ref in gc.get_referents(mat)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_the_views_hold_no_reference_to_their_matrix():
    # A matrix must go with its last reference, not wait for the cycle
    # collector: the views are tuples of ints and bytes only.
    mat = feasible_k_restricted_matrix()
    assert mat.num_paths > mat.num_fibers
    msp_greedy(mat)
    mfsp_rsg(mat, seed=5)
    msp_exact(mat)
    mat.max_fiber_load()
    assert fiber_major_built(mat) and "used_columns" in vars(mat)
    gone = weakref.ref(mat)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del mat
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    ("m", "masks", "fiber"),
    [
        # Fibers 3 and 5 lie on every path; the lowest is named.
        (6, (0b110100, 0b010101, 0b011100), 3),
        # Without paths every fiber is infeasible.
        (4, (), 1),
        # A path using every fiber: each fiber is on the lone path.
        (3, (0b111,), 1),
        # The top fiber only.
        (65, (1 << 64, (1 << 64) | 1, (1 << 65) - 1), 65),
    ],
)
def test_infeasibility_is_read_from_the_masks(m, masks, fiber):
    mat = SurvivalMatrix(m, len(masks), masks)
    with pytest.raises(InfeasibleInstanceError) as exc_info:
        require_feasible(mat)
    assert exc_info.value.fiber == fiber
    assert str(exc_info.value) == (
        f"instance is infeasible: fiber {fiber} is used by every path, "
        "so no path set survives its failure"
    )
    common = reduce(and_, masks, (1 << m) - 1)
    assert mat.infeasible_fibers() == tuple(i + 1 for i in range(m) if common >> i & 1)
    assert not fiber_major_built(mat)


@pytest.mark.parametrize(
    ("m", "masks"),
    [(0, ()), (0, (0, 0, 0)), (3, (0b011, 0b110, 0b101)), (300, (0, (1 << 300) - 1))],
)
def test_feasible_matrices_pass_without_the_rows(m, masks):
    mat = SurvivalMatrix(m, len(masks), masks)
    require_feasible(mat)
    assert mat.infeasible_fibers() == ()
    assert not fiber_major_built(mat)


@pytest.mark.parametrize(
    ("m", "masks", "first"),
    [
        # A negative mask and one with bit m set, then both again later on.
        (5, (0b10101, -1, 0b00001, 1 << 5, -8, (1 << 5) | 1), 2),
        (5, (0b11111, 0, 1 << 5, 0b10101, -1, 1 << 9), 3),
        (5, (0, 0b11111, 0b00001, 0b10000, -(1 << 5)), 5),
        (64, ((1 << 64) - 1, 1 << 64, -1), 2),
        (0, (0, 0, 1), 3),
        (0, (-1,), 1),
    ],
)
def test_the_range_check_names_the_first_bad_path(m, masks, first):
    with pytest.raises(ValidationError) as exc_info:
        SurvivalMatrix(m, len(masks), masks)
    assert str(exc_info.value) == f"path {first} uses a fiber outside 1..{m}"


def test_enumerated_catalogs_equal_the_publicly_checked_ones():
    rng = Random(20261018)
    checked = 0
    for _ in range(60):
        net = random_layered(rng)
        catalogs = [enumerate_paths_unrestricted(net)]
        catalogs.append(enumerate_paths_k_restricted(net, rng.randint(1, 4)))
        for catalog in catalogs:
            public = PathCatalog(
                paths=tuple(
                    LogicalPath(p.path_id, p.links, net.fibers_of_links(p.links))
                    for p in catalog.paths
                ),
                limits=catalog.limits,
                complete=True,
            )
            assert catalog == public
            assert repr(catalog) == repr(public)
            assert catalog == PathCatalog(
                paths=catalog.paths, limits=catalog.limits, complete=True
            )
            checked += len(catalog)
    assert checked > 100
