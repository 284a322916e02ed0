"""Core data model for survivable lightpath routing.

A layered network has a physical layer (nodes joined by numbered fibers) and a
logical layer (links between logical nodes, each routed over a walk of physical
fibers).  A logical path from the source to the sink is "killed" by the failure
of any fiber it is routed over; a set of logical paths is *survivable* when at
least one member avoids every single-fiber failure.

The canonical solver input is :class:`SurvivalMatrix`: entry ``a[i][j]`` is 1
when path ``j`` survives the failure of fiber ``i`` (i.e. does not use it) and
0 when it uses it.  A path set ``S`` is survivable iff every fiber row has a
surviving member in ``S``.  Rows and columns are stored as arbitrary-precision
integer bitmasks, which keeps the set algebra in C.

Identifiers are 1-based everywhere (fibers ``1..m``, paths ``1..n``); bit ``i-1``
of a fiber mask stands for fiber ``i``, and likewise for paths.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = [
    "SurvPathError",
    "ValidationError",
    "RoutingIntegrityError",
    "InfeasibleInstanceError",
    "PreconditionError",
    "RandomizedFailureError",
    "SearchBudgetExceeded",
    "PhysicalTopology",
    "LogicalTopology",
    "LightpathRouting",
    "LayeredNetwork",
    "LogicalPath",
    "SurvivalMatrix",
    "Limits",
    "PathSet",
    "SolveReport",
    "build_survival_matrix",
    "residual_survivability_check",
    "require_feasible",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class SurvPathError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SurvPathError, ValueError):
    """Malformed input: files, constructor arguments, or configuration."""


class RoutingIntegrityError(ValidationError):
    """A lightpath routing is inconsistent with the physical topology."""


class InfeasibleInstanceError(SurvPathError):
    """No survivable path set exists because some fiber is used by every path."""

    def __init__(self, fiber: int) -> None:
        self.fiber = fiber
        super().__init__(
            f"instance is infeasible: fiber {fiber} is used by every path, "
            "so no path set survives its failure"
        )

    def __reduce__(self):
        # Rebuilt from its field, not its message, when a worker sends it back.
        return type(self), (self.fiber,)


class PreconditionError(SurvPathError, ValueError):
    """An operation requires a declared limit (or other setup) that is missing."""


class RandomizedFailureError(SurvPathError):
    """A randomized solver exhausted its sampling schedule without success.

    Carries the seed so the failing run can be replayed exactly.
    """

    def __init__(self, seed: int, detail: str) -> None:
        self.seed = seed
        self.detail = detail
        super().__init__(f"randomized search failed (seed={seed}): {detail}")

    def __reduce__(self):
        return type(self), (self.seed, self.detail)


class SearchBudgetExceeded(SurvPathError):
    """An exact search hit its node budget before proving optimality."""

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes
        super().__init__(f"exact search exceeded its node budget after {nodes} nodes")

    def __reduce__(self):
        return type(self), (self.nodes,)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


def _check_unique(names: Sequence[str], what: str) -> None:
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate {what} name")


@dataclass(frozen=True)
class PhysicalTopology:
    """Physical layer: named nodes and numbered undirected fibers.

    Fiber ``i`` (1-based) joins ``fibers[i-1]``.  Parallel fibers between the
    same node pair are allowed; self-loops are not.
    """

    nodes: tuple[str, ...]
    fibers: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        _check_unique(self.nodes, "physical node")
        known = set(self.nodes)
        for idx, (u, v) in enumerate(self.fibers, start=1):
            if u not in known or v not in known:
                raise ValidationError(f"fiber {idx} references unknown node {u!r} or {v!r}")
            if u == v:
                raise ValidationError(f"fiber {idx} is a self-loop at {u!r}")

    @property
    def num_fibers(self) -> int:
        return len(self.fibers)


@dataclass(frozen=True)
class LogicalTopology:
    """Logical layer: named nodes, links (directed or not), and an s-t demand."""

    nodes: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    source: str
    sink: str
    directed: bool = False

    def __post_init__(self) -> None:
        _check_unique(self.nodes, "logical node")
        known = set(self.nodes)
        for idx, (u, v) in enumerate(self.links, start=1):
            if u not in known or v not in known:
                raise ValidationError(f"logical link {idx} references unknown node {u!r} or {v!r}")
            if u == v:
                raise ValidationError(f"logical link {idx} is a self-loop at {u!r}")
        if self.source not in known or self.sink not in known:
            raise ValidationError("source/sink must be logical nodes")
        if self.source == self.sink:
            raise ValidationError("source and sink must differ")

    @property
    def num_links(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class LightpathRouting:
    """Per-logical-link routing: ``routes[k-1]`` is the ordered fiber walk of link k."""

    routes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for idx, route in enumerate(self.routes, start=1):
            if len(route) == 0:
                raise ValidationError(f"logical link {idx} has an empty routing")


@dataclass(frozen=True)
class LayeredNetwork:
    """A physical topology, a logical topology, and the routing tying them together.

    Construction validates referential integrity: every routed fiber exists, and
    each link's fiber sequence forms a connected physical walk between the images
    of its logical endpoints (logical node names are physical node names here).
    """

    physical: PhysicalTopology
    logical: LogicalTopology
    routing: LightpathRouting

    def __post_init__(self) -> None:
        if len(self.routing.routes) != self.logical.num_links:
            raise RoutingIntegrityError(
                f"routing has {len(self.routing.routes)} entries for "
                f"{self.logical.num_links} logical links"
            )
        pnodes = set(self.physical.nodes)
        fibers = self.physical.fibers
        m = len(fibers)
        # Each route must be a fiber walk from u to v (fibers are undirected).
        for link, ((u, v), route) in enumerate(zip(self.logical.links, self.routing.routes), 1):
            if u not in pnodes or v not in pnodes:
                raise RoutingIntegrityError(
                    f"logical link {link} endpoints {u!r},{v!r} are not physical nodes"
                )
            at = u
            for fiber in route:
                if not 0 < fiber <= m:
                    raise RoutingIntegrityError(
                        f"logical link {link} routed over unknown fiber {fiber}"
                    )
                a, b = fibers[fiber - 1]
                if at == a:
                    at = b
                elif at == b:
                    at = a
                else:
                    raise RoutingIntegrityError(
                        f"logical link {link}: fiber {fiber} does not touch node {at!r}, "
                        "routing is not a connected walk"
                    )
            if at != v:
                raise RoutingIntegrityError(
                    f"logical link {link}: routing ends at {at!r}, expected {v!r}"
                )

    @property
    def num_fibers(self) -> int:
        return self.physical.num_fibers

    def fibers_of_link(self, link: int) -> frozenset[int]:
        if not 1 <= link <= self.logical.num_links:
            raise ValidationError(f"unknown logical link id {link}")
        return frozenset(self.routing.routes[link - 1])

    def fibers_of_links(self, links: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for k in links:
            out |= self.fibers_of_link(k)
        return frozenset(out)


@dataclass(frozen=True, slots=True)
class LogicalPath:
    """A source-sink path in the logical layer.

    ``links`` is the ordered logical-link sequence; ``fibers_used`` is the union
    of the routed fibers of those links.  ``cost`` is the number of distinct
    fibers the path depends on.

    ``used_mask`` is ``fibers_used`` as a bitmask, bit ``i-1`` for fiber ``i``
    (the encoding of :attr:`SurvivalMatrix.used_masks`).  It is derived when
    not given; a given mask must equal the derived one.  Enumerated paths are
    built from their masks alone (:func:`_path_from_mask`), and their
    ``fibers_used`` is derived from the mask the first time it is read.
    """

    path_id: int
    links: tuple[int, ...]
    fibers_used: frozenset[int]
    used_mask: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.path_id < 1:
            raise ValidationError("path ids are 1-based")
        lowest = min(self.fibers_used, default=1)
        if lowest < 1:
            raise ValidationError(
                f"path {self.path_id} uses fiber {lowest}; fiber ids are 1-based"
            )
        mask = _fiber_mask(self.fibers_used)
        if self.used_mask is None:
            object.__setattr__(self, "used_mask", mask)
        elif self.used_mask != mask:
            raise ValidationError(
                f"path {self.path_id}: used_mask does not encode its "
                f"{len(self.fibers_used)} fibers"
            )

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: here, for the unset
        # fibers_used slot of a path built by _path_from_mask.
        if name != "fibers_used":
            raise AttributeError(f"'LogicalPath' object has no attribute '{name}'")
        # Grown in a set and frozen once, as fibers_of_links does.  A frozenset
        # built straight from the generator gets a table up to twice as large
        # (2,264 against 1,240 bytes for 25 fibers, CPython 3.11), which has
        # raised peak RSS on layered-network job lists by up to 12%.
        fibers = frozenset(set(_bit_ids(self.used_mask)))
        object.__setattr__(self, "fibers_used", fibers)
        return fibers

    @property
    def cost(self) -> int:
        return self.used_mask.bit_count()


# The slots' own setters: they bypass the frozen __setattr__, as
# object.__setattr__ does, and cost less per call.
_set_path_id = LogicalPath.path_id.__set__
_set_links = LogicalPath.links.__set__
_set_fibers_used = LogicalPath.fibers_used.__set__
_set_used_mask = LogicalPath.used_mask.__set__


def _path_from_mask(
    path_id: int,
    links: tuple[int, ...],
    used_mask: int,
    fibers_used: frozenset[int] | None = None,
) -> LogicalPath:
    """A path whose fields the caller has checked: no ``__init__`` and no
    checks.  Without ``fibers_used``, :meth:`LogicalPath.__getattr__` derives
    it from the mask when it is first read."""
    path = object.__new__(LogicalPath)
    _set_path_id(path, path_id)
    _set_links(path, links)
    _set_used_mask(path, used_mask)
    if fibers_used is not None:
        _set_fibers_used(path, fibers_used)
    return path


# ---------------------------------------------------------------------------
# Survival matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalMatrix:
    """Fiber-by-path survival table in bitmask form.

    ``used_masks[j-1]`` has bit ``i-1`` set iff path ``j`` uses fiber ``i``
    (so ``a[i][j] == 0``).  Derived fields:

    * ``survive_masks[j-1]``: bit ``i-1`` set iff path ``j`` survives fiber ``i``;
    * ``survive_rows[i-1]``: bit ``j-1`` set iff path ``j`` survives fiber ``i``;
    * ``fiber_load[i-1]``: number of paths using fiber ``i`` (row load).

    Solvers read these tuples directly; the accessors below check ids.
    """

    num_fibers: int
    num_paths: int
    used_masks: tuple[int, ...]
    survive_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    survive_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    fiber_load: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_fibers < 0 or self.num_paths < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if len(self.used_masks) != self.num_paths:
            raise ValidationError("one used-fiber mask per path required")
        fiber_space = (1 << self.num_fibers) - 1
        for j, mask in enumerate(self.used_masks, start=1):
            if mask < 0 or mask & ~fiber_space:
                raise ValidationError(f"path {j} uses a fiber outside 1..{self.num_fibers}")
        object.__setattr__(
            self, "survive_masks", tuple(fiber_space ^ used for used in self.used_masks)
        )
        # Transpose in C, one byte column at a time: byte b of every mask,
        # path 1 lowest, read as one int and printed as one binary string of
        # 8 digits per path, last path first.  Digit 7-t of each group is then
        # fiber 8b+t+1 of one path, so one strided slice read in base 2 is that
        # fiber's used-row.  The cost does not depend on the fill, and only one
        # column's digits are alive at a time.
        width = (self.num_fibers + 7) // 8
        packed = b"".join(mask.to_bytes(width, "little") for mask in self.used_masks)
        everyone = self.all_paths_mask
        rows = []
        load = []
        for b in range(width):
            column = int.from_bytes(packed[b::width], "little")
            digits = format(column, f"0{8 * self.num_paths}b")
            for t in range(min(8, self.num_fibers - 8 * b)):
                # With no paths the slice is empty (or the lone "0" of zero).
                used = int(digits[7 - t :: 8] or "0", 2)
                rows.append(everyone ^ used)
                load.append(used.bit_count())
        object.__setattr__(self, "survive_rows", tuple(rows))
        object.__setattr__(self, "fiber_load", tuple(load))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fiber_sets(
        cls, num_fibers: int, fiber_sets: Sequence[Iterable[int]]
    ) -> "SurvivalMatrix":
        """Build a matrix from one used-fiber set per path (parallel-path form)."""
        masks = []
        for j, fibers in enumerate(fiber_sets, start=1):
            fibers = tuple(fibers)
            if fibers and not (min(fibers) >= 1 and max(fibers) <= num_fibers):
                bad = next(f for f in fibers if not 1 <= f <= num_fibers)
                raise ValidationError(f"path {j} uses fiber {bad}, outside 1..{num_fibers}")
            masks.append(_fiber_mask(fibers))
        return cls(num_fibers, len(masks), tuple(masks))

    # -- accessors ---------------------------------------------------------

    @property
    def all_fibers_mask(self) -> int:
        return (1 << self.num_fibers) - 1

    @property
    def all_paths_mask(self) -> int:
        return (1 << self.num_paths) - 1

    def _check_path(self, path: int) -> None:
        if not 1 <= path <= self.num_paths:
            raise ValidationError(f"unknown path id {path}")

    def _check_fiber(self, fiber: int) -> None:
        if not 1 <= fiber <= self.num_fibers:
            raise ValidationError(f"unknown fiber id {fiber}")

    def uses(self, fiber: int, path: int) -> bool:
        """True iff path ``path`` is routed over fiber ``fiber`` (entry 0)."""
        self._check_fiber(fiber)
        self._check_path(path)
        return bool(self.used_masks[path - 1] >> (fiber - 1) & 1)

    def survives(self, fiber: int, path: int) -> bool:
        """True iff path ``path`` survives the failure of fiber ``fiber`` (entry 1)."""
        return not self.uses(fiber, path)

    def used_mask(self, path: int) -> int:
        self._check_path(path)
        return self.used_masks[path - 1]

    def survive_mask(self, path: int) -> int:
        """Fibers (as a bitmask) whose failure path ``path`` survives."""
        self._check_path(path)
        return self.survive_masks[path - 1]

    def survivor_row(self, fiber: int) -> int:
        """Paths (as a bitmask) that survive the failure of fiber ``fiber``."""
        self._check_fiber(fiber)
        return self.survive_rows[fiber - 1]

    def path_fibers(self, path: int) -> frozenset[int]:
        return frozenset(_bit_ids(self.used_mask(path)))

    def path_cost(self, path: int) -> int:
        """Number of distinct fibers path ``path`` uses."""
        return self.used_mask(path).bit_count()

    # -- set queries -------------------------------------------------------

    def survived_fibers_mask(self, paths: Iterable[int]) -> int:
        """Fibers whose failure at least one path in ``paths`` survives."""
        out = 0
        for j in paths:
            out |= self.survive_mask(j)
        return out

    def is_survivable(self, paths: Iterable[int]) -> bool:
        """True iff every fiber's failure is survived by some path in ``paths``.

        The empty set is survivable only in the degenerate m=0 instance.
        """
        return self.survived_fibers_mask(paths) == self.all_fibers_mask

    def uncovered_fibers(self, paths: Iterable[int]) -> tuple[int, ...]:
        """Fibers whose failure kills every path in ``paths``, ascending."""
        missing = self.all_fibers_mask & ~self.survived_fibers_mask(paths)
        return tuple(_bit_ids(missing))

    def fibers_used_by(self, paths: Iterable[int]) -> frozenset[int]:
        union = 0
        for j in paths:
            union |= self.used_mask(j)
        return frozenset(_bit_ids(union))

    def infeasible_fibers(self) -> tuple[int, ...]:
        """Fibers used by every path; nonempty iff no survivable set exists."""
        return tuple(i for i, row in enumerate(self.survive_rows, start=1) if not row)

    def max_fiber_load(self) -> int:
        return max(self.fiber_load, default=0)

    def max_path_cost(self) -> int:
        return max((m.bit_count() for m in self.used_masks), default=0)


def _fiber_mask(fibers: Iterable[int]) -> int:
    """The fiber ids ``fibers`` (each >= 1, repeats allowed) as a bitmask, bit
    ``i-1`` for fiber ``i``: the encoding of :attr:`SurvivalMatrix.used_masks`."""
    # Bit f of the sum stands for fiber f; the mask keeps fiber f in bit f-1.
    return sum(map((1).__lshift__, set(fibers))) >> 1


def _bit_ids(mask: int) -> Iterator[int]:
    """1-based positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def build_survival_matrix(
    net: LayeredNetwork, paths: Sequence[LogicalPath]
) -> SurvivalMatrix:
    """Expand logical paths over a layered network into a survival matrix.

    Each path's recorded fiber set is cross-checked against the routing of its
    link sequence; a mismatch raises :class:`RoutingIntegrityError`.  Once the
    check passes every fiber is one the network validated.
    """
    for path in paths:
        if path.fibers_used != net.fibers_of_links(path.links):
            raise RoutingIntegrityError(
                f"path {path.path_id}: recorded fiber set does not match its routing"
            )
    return SurvivalMatrix.from_fiber_sets(
        net.num_fibers, [path.fibers_used for path in paths]
    )


def require_feasible(mat: SurvivalMatrix) -> None:
    """Raise :class:`InfeasibleInstanceError` naming a fiber no path survives."""
    bad = mat.infeasible_fibers()
    if bad:
        raise InfeasibleInstanceError(bad[0])


def residual_survivability_check(
    net: LayeredNetwork,
    paths: Sequence[LogicalPath],
    selected: Iterable[int],
    fiber: int,
) -> bool:
    """Check one failure scenario on the logical graph itself.

    Removes every logical link routed over ``fiber`` and asks whether the
    residual logical graph, restricted to links appearing in the selected
    paths, still connects source to sink.  This is the per-failure (flow-style)
    notion of survivability; on parallel-path instances it coincides with the
    matrix row check, which the test-suite cross-verifies.
    """
    if not 1 <= fiber <= net.num_fibers:
        raise ValidationError(f"unknown fiber id {fiber}")
    by_id = {p.path_id: p for p in paths}
    failed_links = {
        k
        for k in range(1, net.logical.num_links + 1)
        if fiber in net.routing.routes[k - 1]
    }
    adj: dict[str, set[str]] = {}
    for j in selected:
        if j not in by_id:
            raise ValidationError(f"unknown path id {j}")
        for k in by_id[j].links:
            if k in failed_links:
                continue
            u, v = net.logical.links[k - 1]
            adj.setdefault(u, set()).add(v)
            if not net.logical.directed:
                adj.setdefault(v, set()).add(u)
    seen = {net.logical.source}
    queue = deque([net.logical.source])
    while queue:
        node = queue.popleft()
        if node == net.logical.sink:
            return True
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return net.logical.sink in seen


# ---------------------------------------------------------------------------
# Limits, solutions, reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    """Declared instance restrictions.

    ``max_fibers_per_path`` caps the number of distinct fibers any one path may
    use; ``max_paths_per_fiber`` caps how many paths may share one fiber.
    Either may be absent.
    """

    max_fibers_per_path: int | None = None
    max_paths_per_fiber: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_fibers_per_path", "max_paths_per_fiber"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"{name} must be >= 1 when declared")

    def validate_against(self, mat: SurvivalMatrix) -> None:
        """Raise :class:`PreconditionError` when the matrix violates a declared cap."""
        k = self.max_fibers_per_path
        if k is not None:
            worst = mat.max_path_cost()
            if worst > k:
                raise PreconditionError(
                    f"declared max_fibers_per_path={k} but some path uses {worst} fibers"
                )
        w = self.max_paths_per_fiber
        if w is not None:
            worst = mat.max_fiber_load()
            if worst > w:
                raise PreconditionError(
                    f"declared max_paths_per_fiber={w} but some fiber carries {worst} paths"
                )


@dataclass(frozen=True)
class PathSet:
    """A solver's selected paths with their survivability verdict and fiber union."""

    selected: tuple[int, ...]
    survivable: bool
    fibers_used: frozenset[int]

    @classmethod
    def from_ids(cls, mat: SurvivalMatrix, ids: Iterable[int]) -> "PathSet":
        chosen = tuple(sorted(set(ids)))
        return cls(chosen, mat.is_survivable(chosen), mat.fibers_used_by(chosen))

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def num_fibers_used(self) -> int:
        return len(self.fibers_used)


@dataclass(frozen=True)
class SolveReport:
    """Uniform solver output.

    ``objective`` is the quantity the algorithm minimizes (path count for MSP,
    distinct-fiber count for MFSP); ``iterations`` counts algorithm-specific
    work (greedy selections, search nodes, sampling rounds); ``seed`` is set for
    randomized algorithms only; ``elapsed`` is wall-clock seconds.
    """

    algorithm: str
    problem: str
    solution: PathSet
    objective: int
    iterations: int
    seed: int | None
    elapsed: float
    extra: dict = field(default_factory=dict, compare=False)

    def to_dict(self, *, include_timing: bool = False) -> dict:
        """JSON-ready form; timing is zeroed unless requested, so that seeded
        invocations are byte-for-byte reproducible."""
        return {
            "algorithm": self.algorithm,
            "problem": self.problem,
            "objective": self.objective,
            "survivable": self.solution.survivable,
            "selected_paths": list(self.solution.selected),
            "fibers_used": sorted(self.solution.fibers_used),
            "iterations": self.iterations,
            "seed": self.seed,
            "elapsed_us": int(self.elapsed * 1e6) if include_timing else 0,
            "extra": _jsonable(self.extra),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    return value


class _Stopwatch:
    """Tiny helper so solvers report wall-clock time uniformly."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
