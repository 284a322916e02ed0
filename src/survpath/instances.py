"""Instance generation: random parallel ensembles and hardness reductions.

* :func:`gen_random_parallel` draws parallel-path instances whose per-fiber
  load respects a cap W (and per-path size a cap K when given), deterministic
  per (seed, trial).
* :func:`gen_from_setcover` embeds a set-cover instance so that minimum
  survivable path sets correspond to minimum covers.
* :func:`gen_mfsp_3setcover_gadget` builds the layered gadget network whose
  minimum-fiber optimum encodes a minimum 3-set cover in its fiber count;
  :func:`decode_gadget_objective` recovers the cover size.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .model import (
    LayeredNetwork,
    LightpathRouting,
    LogicalTopology,
    PhysicalTopology,
    SurvivalMatrix,
    SurvPathError,
    ValidationError,
)
from .pathing import PathCatalog, enumerate_paths_unrestricted

__all__ = [
    "RandomEnsembleConfig",
    "gen_random_parallel",
    "gen_from_setcover",
    "gen_mfsp_3setcover_gadget",
    "decode_gadget_objective",
]


# ---------------------------------------------------------------------------
# Random parallel ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomEnsembleConfig:
    """Parameters of one random parallel-path ensemble.

    ``max_paths_per_fiber`` (W) always binds; ``max_fibers_per_path`` (K)
    optionally caps drawn path sizes.  Capacity infeasibility
    (``num_paths > W * num_fibers``) is rejected here, before any generation.
    """

    num_paths: int
    num_fibers: int
    max_paths_per_fiber: int
    max_fibers_per_path: int | None = None
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_paths < 1 or self.num_fibers < 1:
            raise ValidationError("ensemble needs at least one path and one fiber")
        if self.max_paths_per_fiber < 1:
            raise ValidationError("max_paths_per_fiber must be >= 1")
        if self.max_fibers_per_path is not None and self.max_fibers_per_path < 1:
            raise ValidationError("max_fibers_per_path must be >= 1 when given")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.num_paths > self.max_paths_per_fiber * self.num_fibers:
            raise ValidationError(
                f"capacity infeasible: {self.num_paths} paths exceed "
                f"W*m = {self.max_paths_per_fiber * self.num_fibers} load slots"
            )


def _one_trial(cfg: RandomEnsembleConfig, trial: int) -> SurvivalMatrix:
    rng = Random(f"{cfg.seed}:{trial}")
    m = cfg.num_fibers
    w = cfg.max_paths_per_fiber
    size_cap = min(cfg.max_fibers_per_path or m, m)
    load = [0] * (m + 1)
    slots = w * m
    fiber_sets: list[list[int]] = []
    for remaining in range(cfg.num_paths, 0, -1):
        available = [f for f in range(1, m + 1) if load[f] < w]
        size = rng.randint(1, size_cap)
        # Reserve one load slot for every path still to come, so the draw can
        # never strand a later path without any usable fiber.
        size = min(size, len(available), slots - (remaining - 1))
        chosen = rng.sample(available, size)
        for f in chosen:
            load[f] += 1
        slots -= size
        fiber_sets.append(sorted(chosen))
    return SurvivalMatrix.from_fiber_sets(m, fiber_sets)


def gen_random_parallel(cfg: RandomEnsembleConfig) -> list[SurvivalMatrix]:
    """Generate ``cfg.trials`` parallel instances under the declared caps.

    Path sizes are uniform on [1, K] (or [1, m] without a K cap) before
    capacity clamping; fibers are drawn uniformly among those with residual
    load capacity.  The same config always generates the same instances.
    """
    return [_one_trial(cfg, t) for t in range(cfg.trials)]


# ---------------------------------------------------------------------------
# Set-cover embedding (minimum survivable paths)
# ---------------------------------------------------------------------------


def gen_from_setcover(
    ground_size: int, subsets: Sequence[Sequence[int]]
) -> SurvivalMatrix:
    """Embed set cover: path j survives fiber i iff subset j contains element i.

    A path selection is survivable exactly when the matching subsets cover the
    ground set, so minimum survivable path sets are minimum covers.  An element
    contained in no subset yields an uncoverable fiber; that surfaces as solver
    infeasibility, not as a generation error.
    """
    if ground_size < 1:
        raise ValidationError("ground set must be nonempty")
    if not subsets:
        raise ValidationError("at least one subset required")
    fiber_sets = []
    for j, subset in enumerate(subsets, start=1):
        members = set(subset)
        if not members:
            raise ValidationError(f"subset {j} is empty")
        for e in members:
            if not 1 <= e <= ground_size:
                raise ValidationError(
                    f"subset {j} contains element {e} outside 1..{ground_size}"
                )
        fiber_sets.append([i for i in range(1, ground_size + 1) if i not in members])
    return SurvivalMatrix.from_fiber_sets(ground_size, fiber_sets)


# ---------------------------------------------------------------------------
# 3-set-cover gadget (minimum fibers)
# ---------------------------------------------------------------------------


def gen_mfsp_3setcover_gadget(
    num_elements: int,
    triples: Sequence[Sequence[int]],
    chain_length: int,
) -> tuple[LayeredNetwork, PathCatalog]:
    """Layered network whose minimum-fiber optimum encodes minimum 3-set cover.

    Construction (one candidate lightpath per (triple j, element i in j) pair,
    all logical links directed so paths cannot wander back across layers):

    * a chain of ``chain_length + 1`` fibers from the source to a left node
      u_j per triple j — long chains make distinct-triples the dominant cost;
    * a membership fiber u_j - v_i per element i of triple j;
    * an entry fiber from each right node v_i into the tail;
    * a tail of ``num_elements`` segments, each with parallel fibers U_i / L_i;
      the lightpath for element i crosses segment i on U_i and every other
      segment on that segment's L fiber.

    The failure of L_i is survived only by element-i lightpaths, so every
    element contributes a path; the failure of any chain fiber forces a second
    distinct triple.  Requires ``chain_length >= 3*num_elements + 3*len(triples)``,
    ``num_elements >= 3``, at least two triples, each triple exactly 3 distinct
    in-range elements, and every element in some triple.
    """
    m = num_elements
    n = len(triples)
    if m < 3:
        raise ValidationError("gadget needs at least 3 elements")
    if n < 2:
        raise ValidationError("gadget needs at least two triples")
    normalized: list[tuple[int, int, int]] = []
    covered: set[int] = set()
    for j, triple in enumerate(triples, start=1):
        members = sorted(set(triple))
        if len(members) != 3:
            raise ValidationError(f"triple {j} must contain exactly 3 distinct elements")
        for e in members:
            if not 1 <= e <= m:
                raise ValidationError(
                    f"triple {j} contains element {e} outside 1..{m}"
                )
        covered.update(members)
        normalized.append((members[0], members[1], members[2]))
    missing = sorted(set(range(1, m + 1)) - covered)
    if missing:
        raise ValidationError(
            f"element {missing[0]} appears in no triple; the gadget would be infeasible"
        )
    min_chain = 3 * m + 3 * n
    if chain_length < min_chain:
        raise ValidationError(
            f"chain_length must be >= 3*elements + 3*triples = {min_chain}"
        )
    L = chain_length

    pnodes: list[str] = ["s"]
    fibers: list[tuple[str, str]] = []
    for j in range(1, n + 1):
        pnodes.extend(f"c{j}_{x}" for x in range(1, L + 1))
        pnodes.append(f"u{j}")
    for i in range(1, m + 1):
        pnodes.append(f"v{i}")
    pnodes.append("r")
    pnodes.extend(f"w{i}" for i in range(1, m))
    pnodes.append("t")
    tail_nodes = ["r"] + [f"w{i}" for i in range(1, m)] + ["t"]

    chain_fiber: dict[tuple[int, int], int] = {}
    for j in range(1, n + 1):
        stops = ["s"] + [f"c{j}_{x}" for x in range(1, L + 1)] + [f"u{j}"]
        for x in range(L + 1):
            fibers.append((stops[x], stops[x + 1]))
            chain_fiber[(j, x)] = len(fibers)
    membership_fiber: dict[tuple[int, int], int] = {}
    for j, members in enumerate(normalized, start=1):
        for i in members:
            fibers.append((f"u{j}", f"v{i}"))
            membership_fiber[(j, i)] = len(fibers)
    entry_fiber: dict[int, int] = {}
    for i in range(1, m + 1):
        fibers.append((f"v{i}", "r"))
        entry_fiber[i] = len(fibers)
    upper_fiber: dict[int, int] = {}
    lower_fiber: dict[int, int] = {}
    for i in range(1, m + 1):
        fibers.append((tail_nodes[i - 1], tail_nodes[i]))
        upper_fiber[i] = len(fibers)
        fibers.append((tail_nodes[i - 1], tail_nodes[i]))
        lower_fiber[i] = len(fibers)

    lnodes: list[str] = ["s"]
    for j in range(1, n + 1):
        lnodes.extend(f"c{j}_{x}" for x in range(1, L + 1))
        lnodes.append(f"u{j}")
    lnodes.extend(f"v{i}" for i in range(1, m + 1))
    lnodes.append("t")

    links: list[tuple[str, str]] = []
    routes: list[tuple[int, ...]] = []
    for j in range(1, n + 1):
        stops = ["s"] + [f"c{j}_{x}" for x in range(1, L + 1)] + [f"u{j}"]
        for x in range(L + 1):
            links.append((stops[x], stops[x + 1]))
            routes.append((chain_fiber[(j, x)],))
    for j, members in enumerate(normalized, start=1):
        for i in members:
            links.append((f"u{j}", f"v{i}"))
            routes.append((membership_fiber[(j, i)],))
    for i in range(1, m + 1):
        tail_route = [entry_fiber[i]]
        for seg in range(1, m + 1):
            tail_route.append(upper_fiber[seg] if seg == i else lower_fiber[seg])
        links.append((f"v{i}", "t"))
        routes.append(tuple(tail_route))

    net = LayeredNetwork(
        physical=PhysicalTopology(nodes=tuple(pnodes), fibers=tuple(fibers)),
        logical=LogicalTopology(
            nodes=tuple(lnodes),
            links=tuple(links),
            source="s",
            sink="t",
            directed=True,
        ),
        routing=LightpathRouting(routes=tuple(routes)),
    )
    catalog = enumerate_paths_unrestricted(net)
    expected = 3 * n
    if len(catalog) != expected:
        raise SurvPathError(
            "gadget should admit one path per (triple, member) pair, "
            f"got {len(catalog)} instead of {expected}"
        )
    return net, catalog


def decode_gadget_objective(
    objective: int,
    num_elements: int,
    chain_length: int,
    triples: Sequence[Sequence[int]],
) -> int:
    """Recover the minimum 3-set-cover size from a gadget's optimal fiber count.

    Every optimal gadget selection keeps one lightpath per element (4m fixed
    non-chain fibers) and lights ``ell`` chains, so the objective is
    ``ell * (chain_length + 1) + 4m`` with ``ell = max(2, cover)``.  The
    survivability-forced floor means ``ell == 2`` is ambiguous: it decodes to 1
    exactly when a single triple already covers every element.
    """
    m = num_elements
    ell, rem = divmod(objective - 4 * m, chain_length + 1)
    if rem != 0 or ell < 2:
        raise ValidationError(
            f"objective {objective} is not of the gadget form ell*(L+1) + 4m"
        )
    if ell == 2:
        for triple in triples:
            if set(triple) == set(range(1, m + 1)):
                return 1
    return ell
