"""Candidate-path generation: restricted enumeration and parallel-path catalogs.

Solvers consume a :class:`~survpath.model.SurvivalMatrix`; this module produces
the path universe behind that matrix.  Two sources exist:

* :func:`enumerate_paths_k_restricted` walks the logical layer of a layered
  network and lists every simple source-sink path whose fiber footprint stays
  within a per-path cap;
* :func:`survpath.formats.read_spn` reads a ``.spn`` file in which each path is
  given directly as a fiber set (the parallel-link abstraction); its
  ``catalog`` is a :class:`PathCatalog`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    LayeredNetwork,
    Limits,
    LogicalPath,
    SurvivalMatrix,
    SurvPathError,
    ValidationError,
    _bit_ids,
    _built_on_read,
    _fiber_mask,
)

__all__ = [
    "PathCatalog",
    "enumerate_paths_k_restricted",
    "enumerate_paths_unrestricted",
]


@dataclass(frozen=True)
class PathCatalog:
    """An ordered universe of candidate logical paths.

    ``complete`` is True when the catalog provably contains every admissible
    path (enumeration output); catalogs loaded from files are not assumed
    complete.  Path ids are dense and positional: ``paths[j-1].path_id == j``.

    The paths' fiber masks, one tuple in path order, serve ``len`` and
    :meth:`matrix`.  A catalog from :func:`_trusted_catalog` (enumeration,
    ``read_spn``, ``matrix_to_instance``) keeps each path's link tuple and
    mask, and builds its paths on the first read of ``paths``.
    """

    paths: tuple[LogicalPath, ...]
    limits: Limits
    complete: bool

    def __post_init__(self) -> None:
        k = self.limits.max_fibers_per_path
        seen_links: set[tuple[int, ...]] = set()
        masks = []
        for pos, path in enumerate(self.paths, start=1):
            if path.path_id != pos:
                raise ValidationError(
                    f"catalog path ids must be dense: position {pos} holds id {path.path_id}"
                )
            if k is not None and path.cost > k:
                raise ValidationError(
                    f"path {path.path_id} uses {path.cost} fibers, above the cap {k}"
                )
            if path.links in seen_links:
                raise ValidationError(
                    f"catalog contains duplicate link sequence for path {path.path_id}"
                )
            seen_links.add(path.links)
            masks.append(path.used_mask)
        object.__setattr__(self, "_masks", tuple(masks))

    @_built_on_read
    def paths(self) -> tuple[LogicalPath, ...]:
        # Grown in a set and frozen once, as fibers_of_links does: frozen
        # straight from the generator, a 25-fiber set takes 2,264 bytes, not
        # 1,240 (CPython 3.11), which raised peak RSS on lnet job lists by 12%.
        return tuple(
            LogicalPath(pid, links, frozenset(set(_bit_ids(mask))), mask)
            for pid, (links, mask) in enumerate(zip(self._links, self._masks), start=1)
        )

    def __len__(self) -> int:
        return len(self._masks)

    def fiber_sets(self) -> list[frozenset[int]]:
        return [p.fibers_used for p in self.paths]

    def matrix(self, num_fibers: int) -> SurvivalMatrix:
        """Expand the catalog into a survival matrix over ``num_fibers`` fibers.

        The paths' own fiber masks go to the constructor as they are, and its
        range check rejects a fiber above ``num_fibers``.
        """
        return SurvivalMatrix(num_fibers, len(self._masks), self._masks)


def _trusted_catalog(
    links: tuple[tuple[int, ...], ...], masks: tuple[int, ...], limits: Limits, complete: bool
) -> PathCatalog:
    """A catalog without ``__post_init__``'s checks, which the caller has made:
    path ``j`` is ``links[j-1]`` over ``masks[j-1]``, each link sequence comes
    once and each mask keeps the ``k`` cap.  Its paths are built, through
    ``LogicalPath(...)``, when first read."""
    catalog = object.__new__(PathCatalog)
    fields = {"_links": links, "_masks": masks, "limits": limits, "complete": complete}
    for name, value in fields.items():
        object.__setattr__(catalog, name, value)
    return catalog


def _enumerate(
    net: LayeredNetwork, cap: int | None
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """All simple s-t paths of the logical layer, fiber footprint <= cap.

    Neighbors are explored in ascending link-id order, so the walk meets the
    paths in link-sequence lexicographic order (no path is a prefix of another:
    each ends at its first visit to the sink), which fixes path ids
    deterministically.  Pruning is sound because a simple path's fiber union
    only grows along a partial path.  Returns each path's link ids and the
    fiber mask that the walk built for it, in path-id order.
    """
    adjacency: dict[str, list[tuple[int, str]]] = {n: [] for n in net.logical.nodes}
    for k, (u, v) in enumerate(net.logical.links, start=1):
        adjacency[u].append((k, v))
        if not net.logical.directed:
            adjacency[v].append((k, u))
    for entries in adjacency.values():
        entries.sort()

    source, sink = net.logical.source, net.logical.sink
    # Per link id (index 0 unused): its fiber set as a bitmask.
    link_fibers = [0, *map(_fiber_mask, net.routing.routes)]

    found: list[tuple[int, ...]] = []
    masks: list[int] = []  # masks[i] is the fiber mask of found[i]
    # Depth-first with an explicit stack (a path may be longer than the
    # recursion limit): one frame per node of the partial path, holding the
    # node, the fiber union up to it and its neighbours still to try.  The
    # topology guarantees source != sink.
    stack = [(source, 0, iter(adjacency[source]))]
    visited = {source}
    prefix: list[int] = []  # link ids from the source to the top frame's node
    while stack:
        node, fibers, pending = stack[-1]
        for k, nxt in pending:
            if nxt in visited:
                continue
            merged = fibers | link_fibers[k]
            if cap is not None and merged.bit_count() > cap:
                continue
            if nxt == sink:
                found.append((*prefix, k))
                masks.append(merged)
                continue
            visited.add(nxt)
            prefix.append(k)
            stack.append((nxt, merged, iter(adjacency[nxt])))
            break
        else:
            stack.pop()
            visited.remove(node)
            if stack:
                prefix.pop()

    return tuple(found), tuple(masks)


def enumerate_paths_k_restricted(net: LayeredNetwork, max_fibers: int) -> PathCatalog:
    """Enumerate every simple s-t logical path using at most ``max_fibers`` fibers.

    A disconnected logical layer yields an empty (still complete) catalog.  The
    number of distinct fiber footprints is bounded by m^K for m fibers, which
    is checked rather than assumed.  The path count is not: parallel logical
    links over the same fibers give distinct paths with one footprint.  The
    exponent is capped at m: for K >= m >= 2 both m^m and m^K are at least
    2^m, which already bounds the footprints, and for m <= 1 the bound is 1.
    """
    if max_fibers < 1:
        raise ValidationError("max_fibers must be >= 1")
    links, masks = _enumerate(net, max_fibers)
    bound = max(net.num_fibers, 1) ** min(max_fibers, net.num_fibers)
    if len(masks) > bound:
        footprints = len(set(masks))
        if footprints > bound:
            raise SurvPathError(
                f"enumeration found {footprints} distinct fiber sets, above "
                f"the m^K bound {bound}"
            )
    return _trusted_catalog(links, masks, Limits(max_fibers_per_path=max_fibers), True)


def enumerate_paths_unrestricted(net: LayeredNetwork) -> PathCatalog:
    """Enumerate every simple s-t logical path with no fiber cap."""
    return _trusted_catalog(*_enumerate(net, None), Limits(), True)
