"""Minimum-fiber survivable path set (MFSP): select paths surviving every
single-fiber failure while touching the fewest distinct fibers.

Solvers:

* :func:`mfsp_exact` — the MSP branch-and-bound with a fiber weight: each lit
  fiber costs n+1 and each path 1, so the cost orders selections by fiber
  count, then path count; the witness is the lex-smallest optimum.
* :func:`mfsp_acg` / :func:`mfsp_nacg` — amortized-cost greedies.  Each step
  selects the path minimizing cost / newly-survived-fibers, where cost is the
  path's full fiber count (static, ACG) or only the fibers it would newly add
  to the selection's footprint (dynamic, NACG, rewarding fiber re-use).
* :func:`mfsp_rsg` — NACG plus a randomized substitution sweep that retires an
  earlier selection dominated by the union of the newest path and a randomly
  drawn previous one.
* :func:`mfsp_randomized_rounding` — rounds the fractional relaxation over
  enough independent rounds to reach a target survivability probability.
* :func:`mfsp_epsnet` — the epsilon-net sampler, scored by fiber footprint.

:func:`check_lemma7` verifies the load-cap accounting bound tying a selection's
summed path costs to its fiber footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random

from .lp import FractionalSolution, solve_mfsp_relaxation
from .model import (
    Limits,
    PathSet,
    PreconditionError,
    SolveReport,
    SurvPathError,
    SurvivalMatrix,
    ValidationError,
    _Stopwatch,
    require_feasible,
)
from .msp import (
    _Budget,
    _greedy_selection,
    _lex_smallest_cover,
    _min_cover_size,
    _size_bound,
    _validated_limits,
    msp_epsnet,
)

__all__ = [
    "GreedyState",
    "RoundingConfig",
    "mfsp_exact",
    "mfsp_acg",
    "mfsp_nacg",
    "mfsp_rsg",
    "mfsp_randomized_rounding",
    "mfsp_epsnet",
    "check_lemma7",
]


# ---------------------------------------------------------------------------
# Greedy family
# ---------------------------------------------------------------------------


@dataclass
class GreedyState:
    """Evolving state of an amortized-cost greedy run.

    ``covered_mask`` holds fibers whose failure the selection already survives;
    ``used_union`` holds fibers the selection is routed over.  The amortized
    cost of a candidate is cost/gain; a candidate that survives no new fiber
    is never picked.
    """

    mat: SurvivalMatrix
    dynamic: bool
    selected: list[int] = field(default_factory=list)
    covered_mask: int = 0
    used_union: int = 0

    def gain(self, j: int) -> int:
        """Fibers newly survived if path j were selected now."""
        return (self.mat.survive_mask(j) & ~self.covered_mask).bit_count()

    def cost(self, j: int) -> int:
        """Static fiber count, or (dynamic mode) only the new fibers added."""
        used = self.mat.used_mask(j)
        if self.dynamic:
            used &= ~self.used_union
        return used.bit_count()

    @property
    def complete(self) -> bool:
        return self.covered_mask == self.mat.all_fibers_mask

    def best_candidate(self) -> int:
        """Unselected path with the least amortized cost.

        Ties break to the smaller cost, then the smaller path id (ascending
        scan with strict improvement gives both for free).
        """
        best_j = 0
        best_cost = 0
        best_gain = 0
        chosen = set(self.selected)
        # gain() and cost() inlined over the mask lists: ids here are valid.
        uncovered = ~self.covered_mask
        unlit = ~self.used_union if self.dynamic else -1
        masks = zip(self.mat.survive_masks, self.mat.used_masks)
        for j, (survive, used) in enumerate(masks, start=1):
            if j in chosen:
                continue
            g = (survive & uncovered).bit_count()
            if g == 0:
                continue
            c = (used & unlit).bit_count()
            if best_j == 0:
                best_j, best_cost, best_gain = j, c, g
                continue
            # c/g < best_cost/best_gain, by cross-multiplication.
            lhs = c * best_gain
            rhs = best_cost * g
            if lhs < rhs or (lhs == rhs and c < best_cost):
                best_j, best_cost, best_gain = j, c, g
        if not best_j:
            raise SurvPathError(
                "no unselected path survives an uncovered fiber; the "
                "feasibility precheck should have caught this instance"
            )
        return best_j

    def select(self, j: int) -> tuple[int, int]:
        """Add path j; returns its (cost, gain) as charged at selection time."""
        c, g = self.cost(j), self.gain(j)
        self.selected.append(j)
        self.covered_mask |= self.mat.survive_masks[j - 1]
        self.used_union |= self.mat.used_masks[j - 1]
        return c, g

    def remove(self, j: int) -> None:
        """Drop path j and rebuild the fiber footprint (coverage must hold)."""
        self.selected.remove(j)
        used = self.mat.used_masks
        self.used_union = 0
        for k in self.selected:
            self.used_union |= used[k - 1]


def _greedy_run(
    mat: SurvivalMatrix,
    *,
    dynamic: bool,
    algorithm: str,
    rng: Random | None = None,
    seed: int | None = None,
) -> SolveReport:
    clock = _Stopwatch()
    require_feasible(mat)
    state = GreedyState(mat=mat, dynamic=dynamic)
    trace: list[list[int]] = []
    removals: list[int] = []
    iterations = 0
    while not state.complete:
        j = state.best_candidate()
        c, g = state.select(j)
        iterations += 1
        trace.append([j, c, g])
        if rng is not None and iterations > 2 and len(state.selected) > 1:
            _substitution_sweep(state, j, rng, removals)
    solution = PathSet.from_ids(mat, state.selected)
    if not solution.survivable:
        raise SurvPathError(
            f"greedy selection {list(solution.selected)} is not survivable"
        )
    extra: dict = {"selections": trace}
    if rng is not None:
        extra["removed"] = removals
    return SolveReport(
        algorithm=algorithm,
        problem="mfsp",
        solution=solution,
        objective=solution.num_fibers_used,
        iterations=iterations,
        seed=seed,
        elapsed=clock.elapsed(),
        extra=extra,
    )


def _substitution_sweep(
    state: GreedyState, newest: int, rng: Random, removals: list[int]
) -> None:
    """Retire at most one earlier selection dominated by ``newest`` + a random peer.

    A previous selection k is dominated when every fiber it survives is already
    survived by the newest path together with the drawn peer; removing it keeps
    coverage identical (checked) and can only shrink the fiber footprint.
    """
    survive = state.mat.survive_masks
    previous = [k for k in state.selected if k != newest]
    peer = previous[rng.randrange(len(previous))]
    dominated_by = survive[newest - 1] | survive[peer - 1]
    victims = [
        k for k in previous if k != peer and survive[k - 1] & ~dominated_by == 0
    ]
    if not victims:
        return
    victim = min(victims)
    before = state.covered_mask
    state.remove(victim)
    after = 0
    for k in state.selected:
        after |= survive[k - 1]
    if after != before:
        raise SurvPathError(
            f"substitution sweep lost coverage retiring path {victim}"
        )
    removals.append(victim)


def mfsp_acg(mat: SurvivalMatrix) -> SolveReport:
    """Amortized-cost greedy with static costs (a path always charges its full
    fiber count, even for fibers the selection already uses)."""
    return _greedy_run(mat, dynamic=False, algorithm="mfsp_acg")


def mfsp_nacg(mat: SurvivalMatrix) -> SolveReport:
    """Amortized-cost greedy with dynamic costs: fibers already in the
    selection's footprint are free, so re-using lit fibers is rewarded."""
    return _greedy_run(mat, dynamic=True, algorithm="mfsp_nacg")


def mfsp_rsg(mat: SurvivalMatrix, seed: int = 0) -> SolveReport:
    """Randomized substitution greedy.

    Identical to :func:`mfsp_nacg` for the first two selections; afterwards
    each selection is followed by one substitution sweep (see
    :func:`_substitution_sweep`).  Removed paths may be selected again later;
    coverage grows monotonically, so the run terminates.
    """
    return _greedy_run(
        mat, dynamic=True, algorithm="mfsp_rsg", rng=Random(seed), seed=seed
    )


# ---------------------------------------------------------------------------
# Exact
# ---------------------------------------------------------------------------


def mfsp_exact(
    mat: SurvivalMatrix,
    limits: Limits | None = None,
    *,
    node_limit: int | None = None,
) -> SolveReport:
    """Optimal MFSP: the MSP search of :mod:`survpath.msp` with each lit fiber
    weighted n+1 and each path 1.

    Minimizes the distinct-fiber footprint; among minimum-footprint selections
    prefers the fewest paths, then the lexicographically smallest id tuple.
    An optimum is inclusion-minimal, so MSP's K+1 / W+1 size bounds hold.
    ``node_limit`` (>= 0, checked first) caps search nodes over both passes
    (:class:`~survpath.model.SearchBudgetExceeded` beyond it).
    """
    clock = _Stopwatch()
    budget = _Budget(node_limit)
    require_feasible(mat)
    limits = _validated_limits(mat, limits)
    size_bound = _size_bound(mat, limits)

    weight = mat.num_paths + 1
    cost = _min_cover_size(
        mat, 0, mat.all_paths_mask, mat.num_fibers * weight + size_bound + 1, budget,
        0, 0, weight,
    )
    witness = _lex_smallest_cover(mat, cost, budget, weight)

    fibers, paths = divmod(cost, weight)
    solution = PathSet.from_ids(mat, witness)
    if not solution.survivable or (solution.num_fibers_used, solution.size) != (fibers, paths):
        raise SurvPathError(
            f"exact witness {witness} is not a survivable set of {paths} paths "
            f"on {fibers} fibers"
        )
    return SolveReport(
        algorithm="mfsp_exact",
        problem="mfsp",
        solution=solution,
        objective=fibers,
        iterations=budget.nodes,
        seed=None,
        elapsed=clock.elapsed(),
        extra={"size_bound": size_bound},
    )


# ---------------------------------------------------------------------------
# Randomized rounding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingConfig:
    """Randomized-rounding parameters.

    ``target_survivability`` is the desired probability q that the rounded
    selection is survivable; the round count for an m-fiber instance is
    ``ceil(ln(m / (1 - q)))`` (at least 1), which drives the per-fiber failure
    probability below ``(1 - q) / m``.
    """

    target_survivability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_survivability < 1.0:
            raise ValidationError("target_survivability must lie strictly in (0, 1)")

    def rounds(self, num_fibers: int) -> int:
        if num_fibers <= 0:
            return 1
        raw = math.log(num_fibers / (1.0 - self.target_survivability))
        return max(1, math.ceil(raw))


def mfsp_randomized_rounding(
    mat: SurvivalMatrix,
    config: RoundingConfig,
    *,
    repair: bool = False,
    relaxation: FractionalSolution | None = None,
) -> SolveReport:
    """Round the fractional relaxation into a path selection.

    Runs ``config.rounds(m)`` independent rounds; each round admits path j with
    probability ``p*_j``.  The union may fail survivability (the 1-q event) —
    the report says so rather than hiding it.  With ``repair=True`` a greedy
    max-coverage completion is appended and reported separately under
    ``extra["repair_added"]``.  Pass ``relaxation`` to reuse an LP solution
    across seeds.
    """
    clock = _Stopwatch()
    require_feasible(mat)
    lp = relaxation if relaxation is not None else solve_mfsp_relaxation(mat)
    if (
        len(lp.path_values) != mat.num_paths
        or len(lp.fiber_values) != mat.num_fibers
    ):
        raise ValidationError("relaxation does not match the matrix dimensions")
    rounds = config.rounds(mat.num_fibers)
    rng = Random(config.seed)
    chosen: set[int] = set()
    for _ in range(rounds):
        for j in range(1, mat.num_paths + 1):
            if rng.random() < lp.path_values[j - 1]:
                chosen.add(j)
    extra: dict = {
        "lp_objective": lp.objective,
        "rounds": rounds,
    }
    if repair and not mat.is_survivable(chosen):
        extra["objective_before_repair"] = len(mat.fibers_used_by(chosen))
        added, _ = _greedy_selection(mat, chosen)
        chosen.update(added)
        extra["repair_added"] = added
    solution = PathSet.from_ids(mat, chosen)
    return SolveReport(
        algorithm="mfsp_rounding",
        problem="mfsp",
        solution=solution,
        objective=solution.num_fibers_used,
        iterations=rounds,
        seed=config.seed,
        elapsed=clock.elapsed(),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# Epsilon-net wrapper
# ---------------------------------------------------------------------------


def mfsp_epsnet(
    mat: SurvivalMatrix,
    limits: Limits,
    seed: int = 0,
    *,
    c: float = 10.0,
) -> SolveReport:
    """Epsilon-net sampling scored by fiber footprint.

    Requires a declared per-fiber load cap (the W-restricted setting), which
    both bounds the sampler's dimension proxy and gives the footprint guarantee
    its meaning.  Raises the sampler's
    :class:`~survpath.model.RandomizedFailureError` on schedule exhaustion.
    """
    clock = _Stopwatch()
    if limits is None or limits.max_paths_per_fiber is None:
        raise PreconditionError(
            "mfsp_epsnet requires a declared per-fiber load cap (W)"
        )
    inner = msp_epsnet(mat, limits, seed, c=c)
    solution = inner.solution
    return SolveReport(
        algorithm="mfsp_epsnet",
        problem="mfsp",
        solution=solution,
        objective=solution.num_fibers_used,
        iterations=inner.iterations,
        seed=seed,
        elapsed=clock.elapsed(),
        extra=dict(inner.extra, msp_size=solution.size),
    )


# ---------------------------------------------------------------------------
# Accounting bound
# ---------------------------------------------------------------------------


def check_lemma7(mat: SurvivalMatrix, selected, limits: Limits) -> bool:
    """Verify the load-cap accounting bound for a selection.

    Under a per-fiber load cap W, summing each selected path's fiber count
    charges every fiber of the footprint at most W times, so
    ``sum(C_j) <= W * |footprint|``.  With W=1 the selection is fiber-disjoint
    and the bound is an equality.  Raises
    :class:`~survpath.model.PreconditionError` when no load cap is declared.
    """
    if limits is None or limits.max_paths_per_fiber is None:
        raise PreconditionError("check_lemma7 requires a declared per-fiber load cap")
    if isinstance(selected, PathSet):
        ids = selected.selected
    else:
        ids = tuple(selected)
    total_cost = sum(mat.path_cost(j) for j in ids)
    footprint = len(mat.fibers_used_by(ids))
    return total_cost <= limits.max_paths_per_fiber * footprint
