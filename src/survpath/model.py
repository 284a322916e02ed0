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

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
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


def _sorted_repr(ids: frozenset[int]) -> str:
    """``repr`` of a frozenset of ids, listed sorted.  A frozenset prints in
    hash-table order, which a pickle or deepcopy can change when ids share a
    slot (2 and 10 in 8)."""
    listed = ", ".join(map(str, sorted(ids)))
    return f"frozenset({{{listed}}})" if listed else "frozenset()"


@dataclass(frozen=True, slots=True, repr=False)
class LogicalPath:
    """A source-sink path in the logical layer.

    ``links`` is the ordered logical-link sequence; ``fibers_used`` is the union
    of the routed fibers of those links.  ``cost`` is the number of distinct
    fibers the path depends on.

    ``used_mask`` is ``fibers_used`` as a bitmask, bit ``i-1`` for fiber ``i``
    (the encoding of :attr:`SurvivalMatrix.used_masks`).  It is derived when
    not given; a given mask must equal the derived one.
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

    def __repr__(self) -> str:
        return (
            f"LogicalPath(path_id={self.path_id!r}, links={self.links!r}, "
            f"fibers_used={_sorted_repr(self.fibers_used)})"
        )

    @property
    def cost(self) -> int:
        return self.used_mask.bit_count()


class _built_on_read:
    """Decorates a method that builds a view of its object.  The first read of
    the name calls it and stores the value on the object with
    ``object.__setattr__``, shadowing this non-data descriptor, so later reads
    are plain loads.  ``functools.cached_property`` writes ``obj.__dict__``
    instead, which on CPython 3.11 materialises the dict and makes every load
    on the object two to three times as slow.  Read on the class, the name
    raises AttributeError, so a dataclass field it stands in for has no default.
    """

    def __init__(self, build) -> None:
        self.build = build
        self.name = build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _byte_columns(values: Sequence[int], width: int) -> tuple[bytes, ...]:
    """Byte ``b`` of every value in ``values`` (each below ``256**width``),
    last value first, for ``b`` in ``range(width)``: the form :func:`_bit_row`
    decodes."""
    if width == 1:
        packed = bytes(values[::-1])
    else:
        packed = b"".join(map(int.to_bytes, reversed(values), repeat(width), repeat("little")))
    return tuple(packed[b::width] for b in range(width))


# _BIT_DIGITS[t] maps a byte to the ASCII digit of its bit t: runs of 2**t
# zeros and 2**t ones, from byte 0 up.
_BIT_DIGITS = tuple((b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8))


def _bit_row(columns: Sequence[bytes], i: int) -> int:
    """Bit ``i`` of every value packed by :func:`_byte_columns`, as a mask
    with the first value in bit 0: bit ``i % 8`` of each byte of column
    ``i // 8``, read as one binary numeral.  On the matrix's
    :attr:`~SurvivalMatrix.used_columns` this is fiber ``i+1``'s used-row."""
    # With no values the column is empty, and so is the numeral.
    return int(columns[i >> 3].translate(_BIT_DIGITS[i & 7]) or b"0", 2)


# ---------------------------------------------------------------------------
# Survival matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalMatrix:
    """Fiber-by-path survival table in bitmask form.

    ``used_masks[j-1]`` has bit ``i-1`` set iff path ``j`` uses fiber ``i``
    (so ``a[i][j] == 0``).  Derived fields:

    * ``survive_masks[j-1]``: bit ``i-1`` set iff path ``j`` survives fiber ``i``;
    * ``path_costs[j-1]``: number of fibers path ``j`` uses;
    * ``survive_rows[i-1]``: bit ``j-1`` set iff path ``j`` survives fiber ``i``;
    * ``fiber_load[i-1]``: number of paths using fiber ``i`` (row load);
    * ``used_columns[b]``: byte ``b`` of every used mask, path ``n`` first,
      from which :func:`_bit_row` decodes any one fiber's used-row.

    ``survive_masks`` and ``path_costs`` are built with the matrix; the other
    three on first read: ``used_columns`` by the greedy on a matrix with more
    paths than fibers, or with ``survive_rows``; ``survive_rows`` and
    ``fiber_load`` by the exact search, the LP or a ``max_paths_per_fiber``
    check only.
    Solvers read these tuples directly; the accessors below check ids.
    """

    num_fibers: int
    num_paths: int
    used_masks: tuple[int, ...]
    # Plain attributes, not views: solvers load them outside their hoisted
    # loops, and a load that a descriptor shadows costs about twice as much.
    survive_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    path_costs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_fibers < 0 or self.num_paths < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if len(self.used_masks) != self.num_paths:
            raise ValidationError("one used-fiber mask per path required")
        fiber_space = (1 << self.num_fibers) - 1
        masks = self.used_masks
        if masks and (min(masks) < 0 or max(masks) > fiber_space):
            j = next(j for j, mask in enumerate(masks, 1) if not 0 <= mask <= fiber_space)
            raise ValidationError(f"path {j} uses a fiber outside 1..{self.num_fibers}")
        object.__setattr__(self, "survive_masks", tuple(fiber_space ^ used for used in masks))
        object.__setattr__(self, "path_costs", tuple(map(int.bit_count, masks)))

    @_built_on_read
    def used_columns(self) -> tuple[bytes, ...]:
        return _byte_columns(self.used_masks, (self.num_fibers + 7) // 8)

    @_built_on_read
    def survive_rows(self) -> tuple[int, ...]:
        columns = self.used_columns
        everyone = self.all_paths_mask
        return tuple(everyone ^ _bit_row(columns, i) for i in range(self.num_fibers))

    @_built_on_read
    def fiber_load(self) -> tuple[int, ...]:
        n = self.num_paths
        return tuple(n - row.bit_count() for row in self.survive_rows)

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
        self._check_path(path)
        return self.path_costs[path - 1]

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
        common = self.all_fibers_mask
        for mask in self.used_masks:
            if not (common := common & mask):
                return ()
        return tuple(_bit_ids(common))

    def max_fiber_load(self) -> int:
        return max(self.fiber_load, default=0)

    def max_path_cost(self) -> int:
        return max(self.path_costs, default=0)


# CPython 3.11 on keeps attributes inline only under names the class has met,
# and each new instance leaves less room for names it has not: after about 23
# matrices that read no view, a matrix that reads one gets a dict.  The views
# of one matrix read here are met for good.
_EMPTY = SurvivalMatrix(0, 0, ())
_EMPTY.used_columns, _EMPTY.survive_rows, _EMPTY.fiber_load
del _EMPTY


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


@dataclass(frozen=True, repr=False)
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

    def __repr__(self) -> str:
        return (
            f"PathSet(selected={self.selected!r}, survivable={self.survivable!r}, "
            f"fibers_used={_sorted_repr(self.fibers_used)})"
        )


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
