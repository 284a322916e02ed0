"""Text formats for problem instances.

Two formats are supported, both line-oriented, ``#``-comment and blank-line
tolerant, with a versioned header line.

``.spn`` — parallel survivable-path instances (paths given as fiber sets)::

    spn 1
    fibers 8
    w 2          # optional: per-fiber load cap
    k 4          # optional: per-path fiber cap
    path 1: f1 f2 f3
    path 2: f4 f5

``.lnet`` — layered networks (physical graph, logical graph, routing)::

    lnet 1            # 'lnet 1 directed' for a directed logical layer
    pnodes s x t
    pfibers
    1 s x
    2 x t
    lnodes s t
    llinks
    1 s t: 1 2
    st s t

Writers emit a canonical form (sorted fiber lists, fixed section order) so that
write -> read -> write round-trips byte-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO, Iterable

from .model import (
    LayeredNetwork,
    Limits,
    LightpathRouting,
    LogicalPath,
    LogicalTopology,
    PhysicalTopology,
    SurvivalMatrix,
    ValidationError,
)
from .pathing import PathCatalog

__all__ = [
    "ParallelInstance",
    "read_spn",
    "write_spn",
    "matrix_to_instance",
    "read_lnet",
    "write_lnet",
    "packaged_instance",
]

SPN_VERSION = 1
LNET_VERSION = 1


@dataclass(frozen=True)
class ParallelInstance:
    """A parsed ``.spn`` file: fiber count plus the path catalog and declared caps."""

    num_fibers: int
    catalog: PathCatalog

    @property
    def limits(self) -> Limits:
        return self.catalog.limits

    def matrix(self) -> SurvivalMatrix:
        return self.catalog.matrix(self.num_fibers)


class _Lines:
    """Significant-line reader that tracks line numbers for error messages."""

    def __init__(self, stream: Iterable[str], name: str) -> None:
        self.name = name
        self.items: list[tuple[int, str]] = []
        for no, raw in enumerate(stream, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            self.items.append((no, text))
        self.pos = 0

    def error(self, lineno: int, message: str) -> ValidationError:
        return ValidationError(f"{self.name}:{lineno}: {message}")

    def next(self, expect: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise ValidationError(f"{self.name}: unexpected end of file, expected {expect}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def peek(self) -> tuple[int, str] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _open_lines(source, default_name: str) -> _Lines:
    if hasattr(source, "read"):
        name = getattr(source, "name", default_name)
        return _Lines(source, os.path.basename(str(name)))
    with open(source, "r", encoding="utf-8") as handle:
        return _Lines(handle, os.path.basename(str(source)))


def _int_field(lines: _Lines, lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise lines.error(lineno, f"expected an integer {what}, got {token!r}") from None


# ---------------------------------------------------------------------------
# .spn
# ---------------------------------------------------------------------------


def read_spn(source) -> ParallelInstance:
    """Parse a ``.spn`` file (path or open text stream) into a ParallelInstance.

    Validation enforced here: fiber ids within range, dense path ids, declared
    per-path cap respected, declared per-fiber load cap respected, and — when a
    load cap ``w`` is declared — at most ``w * fibers`` paths (the count bound
    implied by the cap: every fiber can serve at most ``w`` distinct paths).
    """
    lines = _open_lines(source, "<spn>")

    lineno, header = lines.next("'spn <version>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "spn":
        raise lines.error(lineno, f"expected 'spn {SPN_VERSION}' header, got {header!r}")
    if _int_field(lines, lineno, parts[1], "version") != SPN_VERSION:
        raise lines.error(lineno, f"unsupported spn version {parts[1]}")

    lineno, decl = lines.next("'fibers <m>' line")
    parts = decl.split()
    if len(parts) != 2 or parts[0] != "fibers":
        raise lines.error(lineno, f"expected 'fibers <m>' line, got {decl!r}")
    num_fibers = _int_field(lines, lineno, parts[1], "fiber count")
    if num_fibers < 0:
        raise lines.error(lineno, "fiber count must be non-negative")

    w_cap: int | None = None
    k_cap: int | None = None
    while True:
        item = lines.peek()
        if item is None:
            break
        lineno, text = item
        parts = text.split()
        if parts[0] == "w" and len(parts) == 2:
            if w_cap is not None:
                raise lines.error(lineno, "duplicate 'w' line")
            w_cap = _int_field(lines, lineno, parts[1], "load cap")
            lines.next("")
        elif parts[0] == "k" and len(parts) == 2:
            if k_cap is not None:
                raise lines.error(lineno, "duplicate 'k' line")
            k_cap = _int_field(lines, lineno, parts[1], "fiber cap")
            lines.next("")
        else:
            break

    # (path id, fiber set, the same set as a mask), one per path line.
    fiber_sets: list[tuple[int, frozenset[int], int]] = []
    while not lines.done():
        lineno, text = lines.next("'path <id>: ...' line")
        head, sep, tail = text.partition(":")
        parts = head.split()
        if not sep or len(parts) != 2 or parts[0] != "path":
            raise lines.error(lineno, f"expected 'path <id>: f...' line, got {text!r}")
        pid = _int_field(lines, lineno, parts[1], "path id")
        fibers = set()
        mask = 0
        for token in tail.split():
            if not token.startswith("f"):
                raise lines.error(lineno, f"expected fiber token like 'f3', got {token!r}")
            fid = _int_field(lines, lineno, token[1:], "fiber id")
            if not 1 <= fid <= num_fibers:
                raise lines.error(lineno, f"fiber {fid} outside 1..{num_fibers}")
            if fid in fibers:
                raise lines.error(lineno, f"duplicate fiber f{fid} on path {pid}")
            fibers.add(fid)
            mask |= 1 << (fid - 1)
        fiber_sets.append((pid, frozenset(fibers), mask))

    fiber_sets.sort()
    ids = [pid for pid, _, _ in fiber_sets]
    if ids != list(range(1, len(ids) + 1)):
        raise ValidationError(
            f"{lines.name}: path ids must be exactly 1..{len(ids)} with no duplicates"
        )

    try:
        limits = Limits(max_fibers_per_path=k_cap, max_paths_per_fiber=w_cap)
    except ValidationError as exc:
        raise ValidationError(f"{lines.name}: {exc}") from None

    if w_cap is not None and len(fiber_sets) > w_cap * num_fibers:
        raise ValidationError(
            f"{lines.name}: {len(fiber_sets)} paths exceeds the w*m bound "
            f"{w_cap * num_fibers} implied by the declared load cap"
        )
    if k_cap is not None:
        for pid, fibers, _ in fiber_sets:
            if len(fibers) > k_cap:
                raise ValidationError(
                    f"{lines.name}: path {pid} uses {len(fibers)} fibers, above the "
                    f"declared cap k={k_cap}"
                )
    if w_cap is not None:
        load = [0] * (num_fibers + 1)
        for _, fibers, _ in fiber_sets:
            for f in fibers:
                load[f] += 1
        for f in range(1, num_fibers + 1):
            if load[f] > w_cap:
                raise ValidationError(
                    f"{lines.name}: fiber {f} carries {load[f]} paths, above the "
                    f"declared load cap w={w_cap}"
                )

    paths = tuple(
        LogicalPath(path_id=pid, links=(pid,), fibers_used=fibers, used_mask=mask)
        for pid, fibers, mask in fiber_sets
    )
    catalog = PathCatalog(paths=paths, limits=limits, complete=False)
    return ParallelInstance(num_fibers=num_fibers, catalog=catalog)


def write_spn(instance: ParallelInstance, target) -> None:
    """Write a ParallelInstance in canonical ``.spn`` form."""
    out = []
    out.append(f"spn {SPN_VERSION}")
    out.append(f"fibers {instance.num_fibers}")
    limits = instance.limits
    if limits.max_paths_per_fiber is not None:
        out.append(f"w {limits.max_paths_per_fiber}")
    if limits.max_fibers_per_path is not None:
        out.append(f"k {limits.max_fibers_per_path}")
    for path in instance.catalog.paths:
        tokens = " ".join(f"f{f}" for f in sorted(path.fibers_used))
        line = f"path {path.path_id}:"
        out.append(f"{line} {tokens}" if tokens else line)
    _write_lines(target, out)


def matrix_to_instance(mat: SurvivalMatrix, limits: Limits = Limits()) -> ParallelInstance:
    """Wrap a survival matrix as a parallel instance (for saving to ``.spn``)."""
    paths = tuple(
        LogicalPath(path_id=j, links=(j,), fibers_used=mat.path_fibers(j), used_mask=mask)
        for j, mask in enumerate(mat.used_masks, start=1)
    )
    catalog = PathCatalog(paths=paths, limits=limits, complete=False)
    return ParallelInstance(num_fibers=mat.num_fibers, catalog=catalog)


# ---------------------------------------------------------------------------
# .lnet
# ---------------------------------------------------------------------------


def read_lnet(source) -> LayeredNetwork:
    """Parse a ``.lnet`` layered-network file."""
    lines = _open_lines(source, "<lnet>")

    lineno, header = lines.next("'lnet <version>' header")
    parts = header.split()
    if len(parts) not in (2, 3) or parts[0] != "lnet":
        raise lines.error(lineno, f"expected 'lnet {LNET_VERSION}' header, got {header!r}")
    if _int_field(lines, lineno, parts[1], "version") != LNET_VERSION:
        raise lines.error(lineno, f"unsupported lnet version {parts[1]}")
    directed = False
    if len(parts) == 3:
        if parts[2] != "directed":
            raise lines.error(lineno, f"unknown header flag {parts[2]!r}")
        directed = True

    lineno, text = lines.next("'pnodes ...' line")
    parts = text.split()
    if parts[0] != "pnodes" or len(parts) < 2:
        raise lines.error(lineno, f"expected 'pnodes <names...>', got {text!r}")
    pnodes = tuple(parts[1:])

    lineno, text = lines.next("'pfibers' line")
    if text != "pfibers":
        raise lines.error(lineno, f"expected 'pfibers' section, got {text!r}")
    fibers: list[tuple[int, str, str]] = []
    while (item := lines.peek()) is not None and item[1].split()[0].isdigit():
        lineno, text = lines.next("")
        parts = text.split()
        if len(parts) != 3:
            raise lines.error(lineno, f"expected '<id> <u> <v>' fiber line, got {text!r}")
        fibers.append((_int_field(lines, lineno, parts[0], "fiber id"), parts[1], parts[2]))
    fibers.sort()
    if [f[0] for f in fibers] != list(range(1, len(fibers) + 1)):
        raise ValidationError(f"{lines.name}: fiber ids must be exactly 1..{len(fibers)}")

    lineno, text = lines.next("'lnodes ...' line")
    parts = text.split()
    if parts[0] != "lnodes" or len(parts) < 2:
        raise lines.error(lineno, f"expected 'lnodes <names...>', got {text!r}")
    lnodes = tuple(parts[1:])

    lineno, text = lines.next("'llinks' line")
    if text != "llinks":
        raise lines.error(lineno, f"expected 'llinks' section, got {text!r}")
    links: list[tuple[int, str, str, tuple[int, ...]]] = []
    while (item := lines.peek()) is not None and item[1].split()[0].isdigit():
        lineno, text = lines.next("")
        head, sep, tail = text.partition(":")
        parts = head.split()
        if not sep or len(parts) != 3:
            raise lines.error(lineno, f"expected '<id> <u> <v>: <fibers...>', got {text!r}")
        route = tuple(
            _int_field(lines, lineno, tok, "fiber id") for tok in tail.split()
        )
        if not route:
            raise lines.error(lineno, "logical link has an empty routing")
        links.append(
            (_int_field(lines, lineno, parts[0], "link id"), parts[1], parts[2], route)
        )
    links.sort()
    if [l[0] for l in links] != list(range(1, len(links) + 1)):
        raise ValidationError(f"{lines.name}: link ids must be exactly 1..{len(links)}")

    lineno, text = lines.next("'st <source> <sink>' line")
    parts = text.split()
    if parts[0] != "st" or len(parts) != 3:
        raise lines.error(lineno, f"expected 'st <source> <sink>', got {text!r}")
    source_node, sink_node = parts[1], parts[2]

    if not lines.done():
        lineno, text = lines.next("")
        raise lines.error(lineno, f"unexpected trailing content {text!r}")

    physical = PhysicalTopology(nodes=pnodes, fibers=tuple((u, v) for _, u, v in fibers))
    logical = LogicalTopology(
        nodes=lnodes,
        links=tuple((u, v) for _, u, v, _ in links),
        source=source_node,
        sink=sink_node,
        directed=directed,
    )
    routing = LightpathRouting(routes=tuple(route for _, _, _, route in links))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def write_lnet(net: LayeredNetwork, target) -> None:
    """Write a layered network in canonical ``.lnet`` form."""
    out = []
    header = f"lnet {LNET_VERSION}"
    if net.logical.directed:
        header += " directed"
    out.append(header)
    out.append("pnodes " + " ".join(net.physical.nodes))
    out.append("pfibers")
    for idx, (u, v) in enumerate(net.physical.fibers, start=1):
        out.append(f"{idx} {u} {v}")
    out.append("lnodes " + " ".join(net.logical.nodes))
    out.append("llinks")
    for idx, (u, v) in enumerate(net.logical.links, start=1):
        route = " ".join(str(f) for f in net.routing.routes[idx - 1])
        out.append(f"{idx} {u} {v}: {route}")
    out.append(f"st {net.logical.source} {net.logical.sink}")
    _write_lines(target, out)


def _write_lines(target, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)


def packaged_instance(name: str) -> str:
    """Filesystem path of a data file shipped with the package."""
    from importlib.resources import files

    resource = files("survpath").joinpath("data", name)
    if not resource.is_file():
        raise ValidationError(f"no packaged instance named {name!r}")
    return str(resource)
