"""Property test: the matrix row check against the residual-graph check.

On hypothesis-drawn layered networks, whose links are routed over drawn
physical walks, a fiber row of ``catalog.matrix(m)`` must agree with
``residual_survivability_check`` on both enumerators.  The two checks differ
in one way: the residual graph may join links of different selected paths.
So for a selection S:

* a selected path that avoids fiber f keeps the residual graph connected;
* the residual graph is connected exactly when some path of the unrestricted
  catalog that runs over S's links only avoids f (that catalog holds every
  simple s-t path, and a connected residual graph holds one of them).

Hypothesis is a test-only dependency; without it this module skips.
"""

from __future__ import annotations

import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    LogicalTopology,
    PhysicalTopology,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    residual_survivability_check,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def layered_networks(draw) -> LayeredNetwork:
    count = draw(st.integers(2, 5))
    nodes = tuple(f"n{i}" for i in range(count))
    fibers = [(nodes[i], nodes[i + 1]) for i in range(count - 1)]
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        fibers.append((u, v))
    incident = {p: [] for p in nodes}
    for fid, (u, v) in enumerate(fibers, start=1):
        incident[u].append((fid, v))
        incident[v].append((fid, u))
    links, routes = [], []
    for _ in range(draw(st.integers(1, 7))):
        # A logical link joins the two ends of a drawn walk; a walk that comes
        # back to its start would be a self-loop and is dropped.
        start = at = draw(st.sampled_from(nodes))
        route = []
        for _ in range(draw(st.integers(1, 3))):
            fid, at = draw(st.sampled_from(incident[at]))
            route.append(fid)
        if at != start:
            links.append((start, at))
            routes.append(tuple(route))
    return LayeredNetwork(
        physical=PhysicalTopology(nodes=nodes, fibers=tuple(fibers)),
        logical=LogicalTopology(
            nodes=nodes,
            links=tuple(links),
            source=nodes[0],
            sink=nodes[-1],
            directed=draw(st.booleans()),
        ),
        routing=LightpathRouting(routes=tuple(routes)),
    )


@settings(max_examples=60, deadline=None)
@given(net=layered_networks(), cap=st.integers(1, 4), data=st.data())
def test_matrix_rows_agree_with_the_residual_graph(net, cap, data):
    m = net.num_fibers
    full = enumerate_paths_unrestricted(net)
    full_mat = full.matrix(m)
    for catalog in (full, enumerate_paths_k_restricted(net, cap)):
        mat = catalog.matrix(m)
        ids = range(1, len(catalog) + 1)
        for _ in range(2):
            sel = sorted(data.draw(st.sets(st.sampled_from(ids))) if ids else ())
            links = {k for j in sel for k in catalog.paths[j - 1].links}
            within = [p.path_id for p in full.paths if links.issuperset(p.links)]
            residual = [
                residual_survivability_check(net, catalog.paths, sel, fiber)
                for fiber in range(1, m + 1)
            ]
            for fiber, connected in enumerate(residual, start=1):
                if any(mat.survives(fiber, j) for j in sel):
                    assert connected
                assert connected == any(full_mat.survives(fiber, j) for j in within)
            if mat.is_survivable(sel):
                assert all(residual)
            assert full_mat.is_survivable(within) == all(residual)
