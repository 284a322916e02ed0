"""Text formats for problem instances.

Two formats are supported, both line-oriented with a versioned header line.
Blank lines and lines that start with ``#`` (a comment) are skipped.

``.spn`` — parallel instances: paths as fiber sets, optional ``w``/``k`` caps::

    spn 1
    fibers 8
    w 2
    k 4
    path 1: f1 f2 f3
    path 2: f4 f5

``.lnet`` — layered networks (``lnet 1 directed`` for a directed logical layer)::

    lnet 1
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

import io
import os
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from math import inf
from typing import Iterable, Iterator, Sequence

from .model import (
    LayeredNetwork,
    Limits,
    LightpathRouting,
    LogicalTopology,
    PhysicalTopology,
    SurvivalMatrix,
    ValidationError,
    _fiber_mask,
)
from .pathing import PathCatalog, _trusted_catalog

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
    """A file's significant lines, stripped, with their line numbers.

    Blank lines and lines that start with ``#`` are dropped.  A reader takes
    ``texts`` from ``pos`` on and moves ``pos`` past the lines it used; the
    line number of ``texts[i]`` is ``numbers[i]``.
    """

    def __init__(self, stream: Iterable[str], name: str) -> None:
        self.name = name
        texts = list(map(str.strip, stream))
        numbers: Sequence[int] = range(1, len(texts) + 1)
        # Once stripped, a comment line puts a '#' right after a newline here.
        if not all(texts) or "\n#" in "\n" + "\n".join(texts):
            numbers = [no for no, text in zip(numbers, texts) if text and text[0] != "#"]
            texts = [text for text in texts if text and text[0] != "#"]
        self.numbers, self.texts, self.pos = numbers, texts, 0

    def error(self, lineno: int, message: str) -> ValidationError:
        return ValidationError(f"{self.name}:{lineno}: {message}")

    def next(self, expect: str) -> tuple[int, str]:
        if self.pos >= len(self.texts):
            raise ValidationError(f"{self.name}: unexpected end of file, expected {expect}")
        self.pos += 1
        return self.numbers[self.pos - 1], self.texts[self.pos - 1]

    def rest(self) -> Iterator[tuple[int, str]]:
        """(line number, text) of each line from ``pos`` on."""
        return zip(self.numbers[self.pos :], self.texts[self.pos :])


def _open_lines(source, default_name: str) -> _Lines:
    if hasattr(source, "read"):
        name = getattr(source, "name", default_name)
        # Universal newlines, as a file opened by path gets: '\r' ends a line.
        return _Lines(io.StringIO(source.read(), newline=None), os.path.basename(str(name)))
    with open(source, "r", encoding="utf-8") as handle:
        return _Lines(handle, os.path.basename(str(source)))


def _int_field(lines: _Lines, lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise lines.error(lineno, f"expected an integer {what}, got {token!r}") from None


def _line(lines: _Lines, expect: str, shape: str, keyword: str, least: int, most: float):
    """The next line's number and tokens: ``keyword`` and ``least..most`` tokens in all."""
    lineno, text = lines.next(expect)
    parts = text.split()
    if parts[0] != keyword or not least <= len(parts) <= most:
        raise lines.error(lineno, f"expected {shape}, got {text!r}")
    return lineno, parts


def _by_id(lines: _Lines, ids: list[int], rows: list, what: str, note: str = "") -> list:
    """``rows`` in the order of their ``ids``, which must be exactly 1..n."""
    dense = list(range(1, len(ids) + 1))
    if ids != dense:
        ids, rows = map(list, zip(*sorted(zip(ids, rows))))
        if ids != dense:
            raise ValidationError(f"{lines.name}: {what} ids must be exactly 1..{len(ids)}{note}")
    return rows


def _path_fibers(lines: _Lines, lineno: int, pid: int, tail: str, num_fibers: int):
    """The fiber ids after a path line's colon.

    In bulk: every token is an 'f' and an int, no other 'f' is in the text, and
    the ints are distinct and in 1..m.  Failing that, the tokens are checked
    one at a time, to raise at the first bad one.
    """
    tokens = tail.split()
    if tail.count("f") == len(tokens) == " ".join(["", *tokens]).count(" f"):
        with suppress(ValueError):
            fibers = frozenset(map(int, tail.replace("f", " ").split()))
            in_range = min(fibers, default=1) >= 1 and max(fibers, default=0) <= num_fibers
            if len(fibers) == len(tokens) and in_range:
                return fibers
    fibers = set()
    for token in tokens:
        if not token.startswith("f"):
            raise lines.error(lineno, f"expected fiber token like 'f3', got {token!r}")
        fid = _int_field(lines, lineno, token[1:], "fiber id")
        if not 1 <= fid <= num_fibers:
            raise lines.error(lineno, f"fiber {fid} outside 1..{num_fibers}")
        if fid in fibers:
            raise lines.error(lineno, f"duplicate fiber f{fid} on path {pid}")
        fibers.add(fid)
    return frozenset(fibers)


# ---------------------------------------------------------------------------
# .spn
# ---------------------------------------------------------------------------


def read_spn(source) -> ParallelInstance:
    """Parse a ``.spn`` file (path or open text stream) into a ParallelInstance.

    Validation enforced here: fiber ids within range, dense path ids, declared
    per-path cap respected, declared per-fiber load cap respected, and — when a
    load cap ``w`` is declared — at most ``w * fibers`` paths (the count bound
    implied by the cap: every fiber can serve at most ``w`` distinct paths).
    The catalog builds its paths when ``paths`` is first read.
    """
    lines = _open_lines(source, "<spn>")
    shape = f"'spn {SPN_VERSION}' header"
    lineno, parts = _line(lines, "'spn <version>' header", shape, "spn", 2, 2)
    if _int_field(lines, lineno, parts[1], "version") != SPN_VERSION:
        raise lines.error(lineno, f"unsupported spn version {parts[1]}")
    lineno, parts = _line(lines, "'fibers <m>' line", "'fibers <m>' line", "fibers", 2, 2)
    num_fibers = _int_field(lines, lineno, parts[1], "fiber count")
    if num_fibers < 0:
        raise lines.error(lineno, "fiber count must be non-negative")

    caps: dict[str, int] = {}
    for lineno, text in lines.rest():
        parts = text.split()
        if len(parts) != 2 or parts[0] not in ("w", "k"):
            break
        if parts[0] in caps:
            raise lines.error(lineno, f"duplicate {parts[0]!r} line")
        what = "load cap" if parts[0] == "w" else "fiber cap"
        caps[parts[0]] = _int_field(lines, lineno, parts[1], what)
        lines.pos += 1

    pids: list[int] = []
    fiber_sets: list[frozenset[int]] = []
    for lineno, text in lines.rest():
        head, sep, tail = text.partition(":")
        parts = head.split()
        if not sep or len(parts) != 2 or parts[0] != "path":
            raise lines.error(lineno, f"expected 'path <id>: f...' line, got {text!r}")
        pids.append(pid := _int_field(lines, lineno, parts[1], "path id"))
        fiber_sets.append(_path_fibers(lines, lineno, pid, tail, num_fibers))
    fiber_sets = _by_id(lines, pids, fiber_sets, "path", " with no duplicates")

    try:
        limits = Limits(max_fibers_per_path=caps.get("k"), max_paths_per_fiber=caps.get("w"))
    except ValidationError as exc:
        raise ValidationError(f"{lines.name}: {exc}") from None

    return _parallel_instance(f"{lines.name}: ", num_fibers, fiber_sets, limits)


def _parallel_instance(
    where: str, num_fibers: int, fiber_sets: Sequence[frozenset[int]], limits: Limits
) -> ParallelInstance:
    """The instance whose path ``j`` (link ``j`` alone) uses the fibers
    ``fiber_sets[j-1]``, all in ``1..num_fibers``.  Raises
    :class:`ValidationError`, its message after ``where``, for more than
    ``w * num_fibers`` paths, a path above ``k`` fibers or a fiber above ``w``
    paths; with the dense ids, that is all ``PathCatalog(...)`` would check.
    """
    w_cap, k_cap = limits.max_paths_per_fiber, limits.max_fibers_per_path
    if w_cap is not None and len(fiber_sets) > w_cap * num_fibers:
        raise ValidationError(
            f"{where}{len(fiber_sets)} paths exceeds the w*m bound "
            f"{w_cap * num_fibers} implied by the declared load cap"
        )
    if k_cap is not None:
        for pid, fibers in enumerate(fiber_sets, start=1):
            if len(fibers) > k_cap:
                raise ValidationError(
                    f"{where}path {pid} uses {len(fibers)} fibers, above the "
                    f"declared cap k={k_cap}"
                )
    if w_cap is not None:
        load = Counter(chain.from_iterable(fiber_sets))
        over = [f for f, count in load.items() if count > w_cap]
        if over:
            raise ValidationError(
                f"{where}fiber {min(over)} carries {load[min(over)]} paths, above "
                f"the declared load cap w={w_cap}"
            )
    links = tuple(zip(range(1, len(fiber_sets) + 1)))  # (1,), (2,), ...
    masks = tuple(map(_fiber_mask, fiber_sets))
    catalog = _trusted_catalog(links, masks, limits, complete=False)
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
    """Wrap a survival matrix as a parallel instance (for saving to ``.spn``).

    Raises :class:`ValidationError` for a matrix that breaks a declared cap,
    as :func:`read_spn` would on the written file.
    """
    fiber_sets = [mat.path_fibers(j) for j in range(1, mat.num_paths + 1)]
    return _parallel_instance("", mat.num_fibers, fiber_sets, limits)


# ---------------------------------------------------------------------------
# .lnet
# ---------------------------------------------------------------------------


def read_lnet(source) -> LayeredNetwork:
    """Parse a ``.lnet`` layered-network file."""
    lines = _open_lines(source, "<lnet>")
    shape = f"'lnet {LNET_VERSION}' header"
    lineno, parts = _line(lines, "'lnet <version>' header", shape, "lnet", 2, 3)
    if _int_field(lines, lineno, parts[1], "version") != LNET_VERSION:
        raise lines.error(lineno, f"unsupported lnet version {parts[1]}")
    directed = len(parts) == 3
    if directed and parts[2] != "directed":
        raise lines.error(lineno, f"unknown header flag {parts[2]!r}")
    _, (_, *pnodes) = _line(lines, "'pnodes ...' line", "'pnodes <names...>'", "pnodes", 2, inf)
    _line(lines, "'pfibers' line", "'pfibers' section", "pfibers", 1, 1)

    # Numbered sections run while a line's first token is all digits.
    ids: list[int] = []
    fibers: list[tuple[str, str]] = []
    for lineno, text in lines.rest():
        parts = text.split()
        if not parts[0].isdigit():
            break
        if len(parts) != 3:
            raise lines.error(lineno, f"expected '<id> <u> <v>' fiber line, got {text!r}")
        ids.append(_int_field(lines, lineno, parts[0], "fiber id"))
        fibers.append((parts[1], parts[2]))
    lines.pos += len(ids)
    fibers = _by_id(lines, ids, fibers, "fiber")

    _, (_, *lnodes) = _line(lines, "'lnodes ...' line", "'lnodes <names...>'", "lnodes", 2, inf)
    _line(lines, "'llinks' line", "'llinks' section", "llinks", 1, 1)
    ids, links = [], []
    for lineno, text in lines.rest():
        if not text.split(None, 1)[0].isdigit():
            break
        head, sep, tail = text.partition(":")
        parts = head.split()
        if not sep or len(parts) != 3:
            raise lines.error(lineno, f"expected '<id> <u> <v>: <fibers...>', got {text!r}")
        tokens = tail.split()
        try:
            route, link = tuple(map(int, tokens)), int(parts[0])
        except ValueError:
            route = ()
        if not route:  # token by token, the route before the id, to name the fault
            route = tuple(_int_field(lines, lineno, tok, "fiber id") for tok in tokens)
            if not route:
                raise lines.error(lineno, "logical link has an empty routing")
            link = _int_field(lines, lineno, parts[0], "link id")
        ids.append(link)
        links.append((parts[1], parts[2], route))
    lines.pos += len(ids)
    links = _by_id(lines, ids, links, "link")

    shape = "'st <source> <sink>'"
    _, (_, source_node, sink_node) = _line(lines, f"{shape} line", shape, "st", 3, 3)
    for lineno, text in lines.rest():
        raise lines.error(lineno, f"unexpected trailing content {text!r}")

    physical = PhysicalTopology(nodes=tuple(pnodes), fibers=tuple(fibers))
    logical = LogicalTopology(
        nodes=tuple(lnodes),
        links=tuple([(u, v) for u, v, _ in links]),
        source=source_node,
        sink=sink_node,
        directed=directed,
    )
    routing = LightpathRouting(routes=tuple([route for _, _, route in links]))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def write_lnet(net: LayeredNetwork, target) -> None:
    """Write a layered network in canonical ``.lnet`` form.

    Raises :class:`ValidationError`, before writing anything, for a node name
    :func:`read_lnet` could not read back: an empty one, one holding
    whitespace, or a logical node name holding ``:``.
    """
    for kind, nodes in (("physical", net.physical.nodes), ("logical", net.logical.nodes)):
        for name in nodes:
            if name.split() != [name] or (kind == "logical" and ":" in name):
                raise ValidationError(
                    f"cannot write {kind} node {name!r} to .lnet: a node name must be "
                    "nonempty and hold no whitespace, and a logical one no ':'"
                )
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
