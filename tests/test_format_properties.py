"""Property tests: ``.spn`` and ``.lnet`` write -> read round trips.

On hypothesis-drawn instances, reading what a writer wrote gives back an equal
object, every parsed path carries the original's ``used_mask``
(``LogicalPath`` equality ignores it, so it is compared on its own), and
writing the parsed object again gives the same bytes.  Node names are drawn
with ``#`` in them, which is not a comment after a line's first character.
Hypothesis is a test-only dependency; without it this module skips.
"""

from __future__ import annotations

import io

import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    Limits,
    LogicalPath,
    LogicalTopology,
    PathCatalog,
    PhysicalTopology,
    read_lnet,
    read_spn,
    write_lnet,
    write_spn,
)
from survpath.formats import ParallelInstance

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def parallel_instances(draw) -> ParallelInstance:
    fibers = draw(st.integers(0, 12))
    fiber_sets = st.frozensets(st.integers(1, fibers)) if fibers else st.just(frozenset())
    sets = draw(st.lists(fiber_sets, max_size=8))
    k = w = None
    if draw(st.booleans()):
        k = max([len(s) for s in sets] + [1]) + draw(st.integers(0, 2))
    if fibers and draw(st.booleans()):
        loads = [sum(f in s for s in sets) for f in range(1, fibers + 1)]
        w = max(max(loads), 1, -(-len(sets) // fibers)) + draw(st.integers(0, 2))
    paths = tuple(
        LogicalPath(path_id=j, links=(j,), fibers_used=s) for j, s in enumerate(sets, start=1)
    )
    catalog = PathCatalog(paths=paths, limits=Limits(k, w), complete=False)
    return ParallelInstance(num_fibers=fibers, catalog=catalog)


NAMES = st.text(alphabet="abst#_.07", min_size=1, max_size=3)


@st.composite
def layered_networks(draw) -> LayeredNetwork:
    nodes = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    # (u, v) with v != u: v is drawn from the other len(nodes) - 1 indices.
    pairs = st.tuples(st.integers(0, len(nodes) - 1), st.integers(1, len(nodes) - 1))
    fibers = [(u, (u + d) % len(nodes)) for u, d in draw(st.lists(pairs, min_size=1, max_size=8))]
    links, routes = [], []
    for _ in range(draw(st.integers(0, 5))):
        # A random fiber walk; it becomes a logical link unless it is closed.
        start = at = draw(st.sampled_from([u for pair in fibers for u in pair]))
        route = []
        for _ in range(draw(st.integers(1, 4))):
            touching = [i for i, pair in enumerate(fibers, start=1) if at in pair]
            fiber = draw(st.sampled_from(touching))
            u, v = fibers[fiber - 1]
            at = v if at == u else u
            route.append(fiber)
        if at != start:
            links.append((nodes[start], nodes[at]))
            routes.append(tuple(route))
    lnodes = tuple(draw(st.permutations(nodes)))
    source, sink = draw(st.lists(st.sampled_from(lnodes), min_size=2, max_size=2, unique=True))
    return LayeredNetwork(
        physical=PhysicalTopology(
            nodes=tuple(nodes), fibers=tuple((nodes[u], nodes[v]) for u, v in fibers)
        ),
        logical=LogicalTopology(
            nodes=lnodes,
            links=tuple(links),
            source=source,
            sink=sink,
            directed=draw(st.booleans()),
        ),
        routing=LightpathRouting(routes=tuple(routes)),
    )


def _text(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(parallel_instances())
def test_spn_round_trip(inst):
    text = _text(write_spn, inst)
    again = read_spn(io.StringIO(text))
    assert again == inst
    assert [p.used_mask for p in again.catalog.paths] == [
        p.used_mask for p in inst.catalog.paths
    ]
    assert _text(write_spn, again) == text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(layered_networks())
def test_lnet_round_trip(net):
    text = _text(write_lnet, net)
    again = read_lnet(io.StringIO(text))
    assert again == net
    assert _text(write_lnet, again) == text
