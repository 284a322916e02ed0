"""Minimum survivable path set (MSP): pick the fewest paths that survive every
single-fiber failure.

This is a set-cover problem over fiber rows: path ``j`` covers the fibers it
survives.  Three solvers are provided:

* :func:`msp_exact` — one branch-and-bound over the bounded subset space finds
  the optimal size, then the lex-smallest witness place by place.  With a
  per-path fiber cap K the optimum has at most K+1 paths; with a per-fiber load
  cap W, at most W+1 (any W+1 distinct paths already form a survivable set,
  since a fiber carried by at most W paths cannot be used by all of them).
  A node with room for one more path only is settled by intersecting the
  survivor rows of its open fibers, with no child visited.  MFSP's exact
  solver runs the same search with a fiber weight.
* :func:`msp_greedy` — max-coverage greedy, ties to the smallest path id: the
  one set-cover greedy, :func:`_greedy`, at unit path cost.  MFSP's greedies
  run it with fiber costs.
* :func:`msp_epsnet` — multiplicative-weight epsilon-net sampling: when the
  optimum has g paths, a random sample hitting every (1/2g)-heavy fiber row is
  likely survivable once the weights of surviving paths have been doubled a
  bounded number of rounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from time import perf_counter
from typing import Iterable, Sequence

from .model import (
    Limits,
    PathSet,
    PreconditionError,
    RandomizedFailureError,
    SearchBudgetExceeded,
    SolveReport,
    SurvPathError,
    SurvivalMatrix,
    _bit_ids,
    _bit_row,
    _byte_columns,
    require_feasible,
)

__all__ = ["EpsNetState", "msp_exact", "msp_greedy", "msp_epsnet"]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _size_bound(mat: SurvivalMatrix, limits: Limits | None) -> int:
    """Upper bound on the path count of an inclusion-minimal survivable set,
    and so of an MSP or MFSP optimum."""
    bound = min(mat.num_fibers, mat.num_paths) + 1
    if limits is not None:
        if limits.max_fibers_per_path is not None:
            bound = min(bound, limits.max_fibers_per_path + 1)
        if limits.max_paths_per_fiber is not None:
            bound = min(bound, limits.max_paths_per_fiber + 1)
    return max(bound, 1)


def _validated_limits(mat: SurvivalMatrix, limits: Limits | None) -> Limits:
    limits = limits if limits is not None else Limits()
    limits.validate_against(mat)
    return limits


class _Budget:
    """Node counter shared by every pass of one exact search."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise PreconditionError(f"node_limit must be >= 0, got {limit}")
        self.nodes = 0
        self.limit = limit if limit is not None else math.inf

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise SearchBudgetExceeded(self.nodes)


def _report(
    mat: SurvivalMatrix,
    algorithm: str,
    ids: Iterable[int],
    started: float,
    iterations: int,
    seed: int | None = None,
    **extra,
) -> SolveReport:
    """Report selection ``ids`` for ``algorithm``, named ``<problem>_<alg>``;
    the objective is the path count for MSP and the lit fiber count for MFSP,
    and ``elapsed`` runs from ``started``, the solver's first
    ``perf_counter()`` reading."""
    problem = algorithm.split("_")[0]
    solution = PathSet.from_ids(mat, ids)
    objective = solution.size if problem == "msp" else solution.num_fibers_used
    return SolveReport(
        algorithm, problem, solution, objective, iterations, seed, perf_counter() - started, extra
    )


def effective_fiber_cap(mat: SurvivalMatrix, limits: Limits | None) -> int:
    """Declared per-path fiber cap, or the instance's max path cost (>= 1)."""
    if limits is not None and limits.max_fibers_per_path is not None:
        return limits.max_fibers_per_path
    return max(mat.max_path_cost(), 1)


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def _greedy(
    mat: SurvivalMatrix,
    cost_masks: Sequence[int] | None = None,
    *,
    dynamic: bool = False,
    start: Iterable[int] = (),
    rng: Random | None = None,
) -> tuple[list[int], list[list[int]], list[int]]:
    """Chvátal's weighted set-cover greedy over fiber rows, extending the
    ``start`` selection until it is survivable.

    Path j costs the bits of ``cost_masks[j-1]`` that are still unpaid: none
    are paid when the cost is fixed, and in ``dynamic`` mode the bits of every
    selected path are.  Without masks every path costs 1 (MSP); with the fiber
    masks the cost is the path's fiber count (ACG) or, in dynamic mode, the
    fibers it adds to the footprint (NACG).  Each step takes the path of least
    cost per newly survived fiber; ties break to the smaller cost, then the
    smaller id.  A path surviving no uncovered fiber, selected ones included,
    is never taken.  With ``rng``, every step after the second is followed by
    one :func:`_substitution_sweep`.

    Every caller passes unit costs or ``mat.used_masks``, and dynamic mode
    only with the latter.  From an empty ``start`` every fiber is then open
    and unpaid, so path j gains its m - c_j survived fibers at cost 1 or c_j,
    and the first pick is the lowest-id path on the fewest fibers, read off
    ``mat.path_costs``.

    Later steps scan every path when the matrix has no more paths than
    fibers (:func:`_scanning_greedy`), and otherwise read bit-sliced counters
    (:func:`_bit_sliced_greedy`); both take the same paths.

    Returns the selection, the per-step [path, cost, gain] trace and the
    paths the sweeps removed.
    """
    greedy = _bit_sliced_greedy if mat.num_paths > mat.num_fibers else _scanning_greedy
    return greedy(mat, cost_masks, dynamic=dynamic, start=start, rng=rng)


def _greedy_start(
    mat: SurvivalMatrix, cost_masks: Sequence[int] | None, start: Iterable[int]
) -> tuple[Sequence[int], list[int], int, int, list[list[int]]]:
    """The cost masks (all 1 for unit cost), the selection, the fibers it
    covers and pays, and the trace, once ``start`` is in and, from an empty
    ``start``, the first pick is taken."""
    unit = cost_masks is None
    if unit:
        cost_masks = [1] * mat.num_paths
    survive = mat.survive_masks
    selected = list(start)
    covered = paid = 0
    for j in selected:
        covered |= survive[j - 1]
        paid |= cost_masks[j - 1]
    trace: list[list[int]] = []
    if not selected:
        m = mat.num_fibers
        fewest = min(mat.path_costs, default=m)
        if fewest < m:
            j = mat.path_costs.index(fewest) + 1
            selected.append(j)
            covered = survive[j - 1]
            paid = cost_masks[j - 1]
            trace.append([j, 1 if unit else fewest, m - fewest])
    return cost_masks, selected, covered, paid, trace


def _scanning_greedy(
    mat: SurvivalMatrix,
    cost_masks: Sequence[int] | None = None,
    *,
    dynamic: bool = False,
    start: Iterable[int] = (),
    rng: Random | None = None,
) -> tuple[list[int], list[list[int]], list[int]]:
    """:func:`_greedy` with every step after the first a scan of all paths,
    two ``bit_count`` calls each."""
    cost_masks, selected, covered, paid, trace = _greedy_start(mat, cost_masks, start)
    full = mat.all_fibers_mask
    survive = mat.survive_masks
    removed: list[int] = []
    while covered != full:
        uncovered = ~covered
        unpaid = ~paid if dynamic else -1
        # Cost 1 per gain 0 loses to every candidate.
        best_j, best_cost, best_gain = 0, 1, 0
        for j, (survives, costs) in enumerate(zip(survive, cost_masks), start=1):
            gain = (survives & uncovered).bit_count()
            if not gain:
                continue
            cost = (costs & unpaid).bit_count()
            # cost/gain < best_cost/best_gain, by cross-multiplication.
            lhs = cost * best_gain
            rhs = best_cost * gain
            if lhs < rhs or (lhs == rhs and cost < best_cost):
                best_j, best_cost, best_gain = j, cost, gain
        if not best_j:
            _no_candidate()
        selected.append(best_j)
        covered |= survive[best_j - 1]
        paid |= cost_masks[best_j - 1]
        trace.append([best_j, best_cost, best_gain])
        if rng is not None and len(trace) > 2 and len(selected) > 1:
            victim = _substitution_sweep(mat, selected, covered, best_j, rng)
            if victim:
                removed.append(victim)
                paid = 0
                for j in selected:
                    paid |= cost_masks[j - 1]
    return selected, trace, removed


def _bit_sliced_greedy(
    mat: SurvivalMatrix,
    cost_masks: Sequence[int] | None = None,
    *,
    dynamic: bool = False,
    start: Iterable[int] = (),
    rng: Random | None = None,
) -> tuple[list[int], list[list[int]], list[int]]:
    """:func:`_greedy` with every step after the first read off bit-sliced
    counters: ``gains[b]`` is the path mask of the paths whose gain (open
    fibers survived) has bit b set, and ``costs[b]`` likewise for the cost.

    A fiber that a step covers takes 1 off the gain of each path surviving
    it, and one it pays (dynamic mode) 1 off the cost of each path using it;
    a fiber that a sweep unpays gives that 1 back.  Each takes one fiber's
    used-row, decoded from ``mat.used_columns``.  A pick walks the planes
    from the top: at unit cost for the paths of the greatest gain; at fiber
    cost through the cost classes, least first, taking the greatest gain of
    each, and stopping at a class whose cost per greatest gain cannot beat
    the best so far.  That is the scan's least (cost/gain, cost, id).
    """
    unit = cost_masks is None
    cost_masks, selected, covered, paid, trace = _greedy_start(mat, cost_masks, start)
    full = mat.all_fibers_mask
    removed: list[int] = []
    if covered == full:
        return selected, trace, removed
    survive = mat.survive_masks
    everyone = mat.all_paths_mask
    columns = mat.used_columns
    used_rows: dict[int, int] = {}

    def used_row(fiber: int) -> int:
        row = used_rows.get(fiber)
        if row is None:
            row = used_rows[fiber] = _bit_row(columns, fiber - 1)
        return row

    gains: list[int] = []
    for fiber in _bit_ids(full & ~covered):
        _count_up(gains, everyone ^ used_row(fiber))
    if not unit:
        bits = max(mat.path_costs, default=0).bit_length()
        cost_columns = _byte_columns(mat.path_costs, (bits + 7) // 8)
        costs = [_bit_row(cost_columns, b) for b in range(bits)]
        if dynamic:
            for fiber in _bit_ids(paid):
                _count_down(costs, used_row(fiber))
    while True:
        # The paths of the greatest gain.
        top, top_gain = everyone, 0
        for b in range(len(gains) - 1, -1, -1):
            hit = top & gains[b]
            if hit:
                top = hit
                top_gain |= 1 << b
        if not top_gain:
            _no_candidate()
        if unit:
            best, best_cost, best_gain = top & -top, 1, top_gain
        else:
            best, best_cost, best_gain = 0, 1, 0
            pool = 0
            for plane in gains:
                pool |= plane
            while pool:
                # The least cost in the pool, and its class.
                group, cost = pool, 0
                for b in range(len(costs) - 1, -1, -1):
                    hit = group & ~costs[b]
                    if hit:
                        group = hit
                    else:
                        cost |= 1 << b
                # cost/top_gain >= best_cost/best_gain, by cross-multiplication.
                if cost * best_gain >= best_cost * top_gain:
                    break
                pool ^= group
                if not cost:
                    # Every ratio is 0: the lowest id wins, whatever its gain.
                    group &= -group
                gain = 0
                for b in range(len(gains) - 1, -1, -1):
                    hit = group & gains[b]
                    if hit:
                        group = hit
                        gain |= 1 << b
                if cost * best_gain < best_cost * gain:
                    best, best_cost, best_gain = group & -group, cost, gain
        j = best.bit_length()
        was_covered, was_paid = covered, paid
        selected.append(j)
        covered |= survive[j - 1]
        paid |= cost_masks[j - 1]
        trace.append([j, best_cost, best_gain])
        if rng is not None and len(trace) > 2 and len(selected) > 1:
            victim = _substitution_sweep(mat, selected, covered, j, rng)
            if victim:
                removed.append(victim)
                paid = 0
                for k in selected:
                    paid |= cost_masks[k - 1]
        if covered == full:
            return selected, trace, removed
        for fiber in _bit_ids(covered & ~was_covered):
            _count_down(gains, everyone ^ used_row(fiber))
        if dynamic:
            for fiber in _bit_ids(paid & ~was_paid):
                _count_down(costs, used_row(fiber))
            for fiber in _bit_ids(was_paid & ~paid):
                _count_up(costs, used_row(fiber))


def _count_up(planes: list[int], paths: int) -> None:
    """Add 1 to the bit-sliced counts of the paths in mask ``paths``."""
    for b, plane in enumerate(planes):
        planes[b] = plane ^ paths
        paths &= plane
        if not paths:
            return
    planes.append(paths)


def _count_down(planes: list[int], paths: int) -> None:
    """Take 1 off the bit-sliced counts of the paths in mask ``paths``, none
    of which is 0."""
    for b, plane in enumerate(planes):
        planes[b] = plane ^ paths
        paths &= ~plane
        if not paths:
            return


def _no_candidate() -> None:
    raise SurvPathError(
        "greedy found no path surviving an uncovered fiber; the "
        "feasibility precheck should have caught this instance"
    )


def _substitution_sweep(
    mat: SurvivalMatrix, selected: list[int], covered: int, newest: int, rng: Random
) -> int:
    """Retire at most one earlier selection dominated by ``newest`` + a random
    peer; returns it, or 0.

    A previous selection k is dominated when every fiber it survives is already
    survived by the newest path together with the drawn peer; removing it from
    ``selected`` keeps the coverage ``covered`` (checked) and can only shrink
    the fiber footprint.
    """
    survive = mat.survive_masks
    previous = [k for k in selected if k != newest]
    peer = previous[rng.randrange(len(previous))]
    dominated_by = survive[newest - 1] | survive[peer - 1]
    victims = [k for k in previous if k != peer and not survive[k - 1] & ~dominated_by]
    if not victims:
        return 0
    victim = min(victims)
    selected.remove(victim)
    after = 0
    for k in selected:
        after |= survive[k - 1]
    if after != covered:
        raise SurvPathError(f"substitution sweep lost coverage retiring path {victim}")
    return victim


def msp_greedy(mat: SurvivalMatrix) -> SolveReport:
    """Greedy MSP: repeatedly take the path surviving the most uncovered fibers.

    Ties break to the smallest path id.  On infeasible instances raises
    :class:`~survpath.model.InfeasibleInstanceError` naming an uncoverable
    fiber.  The per-step (path, gain) trace is reported under
    ``extra["selections"]`` so the greedy dominance property can be audited.
    """
    started = perf_counter()
    require_feasible(mat)
    chosen, trace, _ = _greedy(mat)
    return _report(
        mat, "msp_greedy", chosen, started, len(chosen),
        selections=[[j, gain] for j, _, gain in trace],
    )


# ---------------------------------------------------------------------------
# Exact
# ---------------------------------------------------------------------------


def _min_cover_size(
    mat: SurvivalMatrix,
    covered: int,
    eligible: int,
    best: int,
    budget: _Budget,
    floor: int = 0,
    union: int = 0,
    fiber_weight: int = 0,
) -> int:
    """Least further cost of covering every fiber ``covered`` leaves open with
    paths from ``eligible`` (a path mask), when that is below ``best``;
    otherwise ``best``.  The search stops as soon as it reaches ``floor``, a
    known lower bound on that cost.

    Each further path costs 1, and each fiber it adds to the footprint
    ``union`` costs ``fiber_weight``.  Weight 0 counts paths (MSP); weight
    n+1 orders by fibers, then paths (MFSP), since no selection holds more than
    n paths.

    Branch-and-bound that branches on an uncovered fiber with the fewest
    eligible survivors (ties to the lowest fiber); each candidate is excluded
    from later siblings, which partitions the subset space and visits every
    survivable set at most once.  A node with ``cost + 2 >= best`` has room
    for one more path at most, since every path costs at least 1: it ANDs
    the open fibers' survivor rows into ``eligible``, stops once that is
    empty, and otherwise takes the cheapest survivor of them all as the
    completion, without visiting a child.

    The search is one loop over an explicit stack of ``(cost, covered, union,
    eligible)`` nodes, so its depth costs no interpreter frames.  A node
    pushes its children from its highest branch survivor down, so they pop
    lowest first, each after the subtrees of its elder siblings: the
    depth-first order of a recursive search, node for node.  A child is
    visited only if it is still cheaper than ``best`` when it pops.
    """
    full = mat.all_fibers_mask
    survive = mat.survive_masks
    used = mat.used_masks
    rows = mat.survive_rows
    stack = [(0, covered, union, eligible)]
    while stack:
        cost, covered, union, eligible = stack.pop()
        if cost:
            # A child, pushed while cheaper than ``best``: the subtrees of its
            # elder siblings may since have reached ``floor`` or ``best``.
            # The root (cost 0) is always visited.
            if best <= floor:
                break
            if cost >= best:
                continue
        budget.tick()
        if covered == full:
            best = min(best, cost)
            continue
        if cost + 1 >= best:
            continue
        uncovered = full & ~covered
        if cost + 2 >= best:
            # Room for one more path only: it must survive every open fiber.
            last = eligible
            probe = uncovered
            while probe and last:
                low = probe & -probe
                last &= rows[low.bit_length() - 1]
                probe ^= low
            if not last:
                continue
            if not fiber_weight:
                best = cost + 1
                continue
            while last:
                low = last & -last
                new = (used[low.bit_length() - 1] & ~union).bit_count()
                best = min(best, cost + 1 + fiber_weight * new)
                last ^= low
            continue
        # An uncovered fiber with no eligible survivor makes this a dead end.
        branch_row = 0
        fewest = eligible.bit_count() + 1
        probe = uncovered
        while probe:
            low = probe & -probe
            row = rows[low.bit_length() - 1] & eligible
            count = row.bit_count()
            if count < fewest:
                fewest = count
                branch_row = row
                if not count:
                    break
            probe ^= low
        if not fewest:
            continue
        bound = cost
        if fiber_weight:
            # Every completion takes a survivor of the branch fiber, so it
            # adds at least the fewest new fibers among them.
            min_new = mat.num_fibers
            probe = branch_row
            while probe:
                low = probe & -probe
                new = (used[low.bit_length() - 1] & ~union).bit_count()
                if new < min_new:
                    min_new = new
                probe ^= low
            bound += fiber_weight * min_new
            if bound + 1 >= best:
                continue
        # Admissible bound: with each further path covering at most max_gain
        # open fibers, the node is pruned when bound + ceil(open / max_gain)
        # >= best, that is, unless some eligible path covers at least
        # ``enough`` of them.  The probe stops at the first that does.
        enough = -(-uncovered.bit_count() // (best - bound - 1))
        probe = eligible
        while probe:
            low = probe & -probe
            if (survive[low.bit_length() - 1] & uncovered).bit_count() >= enough:
                break
            probe ^= low
        else:
            continue
        # Child j may not take the branch survivors below it, which partitions
        # the subsets.  Pushed from the highest survivor down, the lowest pops
        # first.  A child no cheaper than ``best`` is pruned unpushed.
        while branch_row:
            j = branch_row.bit_length() - 1
            siblings = eligible & ~branch_row
            branch_row ^= 1 << j
            new = used[j] & ~union
            child = cost + 1 + fiber_weight * new.bit_count()
            if child < best:
                stack.append((child, covered | survive[j], union | new, siblings))
    return best


def _lex_smallest_cover(
    mat: SurvivalMatrix, cost: int, budget: _Budget, fiber_weight: int = 0
) -> list[int]:
    """Lexicographically smallest survivable set of the given (optimal) cost,
    counted as in :func:`_min_cover_size`.

    Fills one place at a time with the smallest remaining id whose prefix an
    exact :func:`_min_cover_size` search can complete to ``cost`` from higher
    ids.  Ids adding no uncovered fiber are skipped: an optimum is
    inclusion-minimal, so each of its paths adds a fiber.
    """
    full = mat.all_fibers_mask
    survive = mat.survive_masks
    used = mat.used_masks
    covered = union = spent = 0
    eligible = mat.all_paths_mask
    witness = []
    while covered != full:
        while eligible:
            low = eligible & -eligible
            eligible ^= low
            j = low.bit_length() - 1
            if not survive[j] & ~covered:
                continue
            new = used[j] & ~union
            left = cost - spent - 1 - fiber_weight * new.bit_count()
            # ``cost`` is optimal, so no completion costs less than ``left``.
            if left >= 0 and _min_cover_size(
                mat, covered | survive[j], eligible, left + 1, budget, left,
                union | new, fiber_weight,
            ) == left:
                break
        else:
            raise SurvPathError(
                f"no survivable set of {_cost_words(cost, fiber_weight)}, "
                "the cost the search proved optimal"
            )
        witness.append(j + 1)
        covered |= survive[j]
        union |= new
        spent = cost - left
    return witness


def _cost_words(cost: int, fiber_weight: int) -> str:
    """The selection a search cost stands for: its paths, and for MFSP its fibers."""
    if not fiber_weight:
        return f"{cost} paths"
    fibers, paths = divmod(cost, fiber_weight)
    return f"{paths} paths on {fibers} fibers"


def _exact(
    mat: SurvivalMatrix, limits: Limits | None, node_limit: int | None, algorithm: str,
    fiber_weight: int,
) -> SolveReport:
    """Exact MSP (``fiber_weight`` 0) or MFSP (n+1): :func:`_min_cover_size`
    proves the optimal cost, starting from the unit-cost greedy's, then
    :func:`_lex_smallest_cover` finds the witness, checked before it is
    reported."""
    started = perf_counter()
    budget = _Budget(node_limit)
    require_feasible(mat)
    limits = _validated_limits(mat, limits)
    incumbent, _, _ = _greedy(mat)
    start = fiber_weight * len(mat.fibers_used_by(incumbent)) + len(incumbent)
    cost = _min_cover_size(mat, 0, mat.all_paths_mask, start, budget, 0, 0, fiber_weight)
    witness = _lex_smallest_cover(mat, cost, budget, fiber_weight)
    report = _report(
        mat, algorithm, witness, started, budget.nodes, size_bound=_size_bound(mat, limits)
    )
    solution = report.solution
    if not solution.survivable or fiber_weight * solution.num_fibers_used + solution.size != cost:
        raise SurvPathError(
            f"exact witness {witness} is not a survivable set of "
            f"{_cost_words(cost, fiber_weight)}"
        )
    return report


def msp_exact(
    mat: SurvivalMatrix,
    limits: Limits | None = None,
    *,
    node_limit: int | None = None,
) -> SolveReport:
    """Optimal MSP via bounded branch-and-bound.

    Returns the minimum-cardinality survivable set; among optima, the
    lexicographically smallest id tuple.  One search, :func:`_min_cover_size`,
    proves the optimal size, then decides each place of the witness.  Declared
    limits must hold for the matrix (raising
    :class:`~survpath.model.PreconditionError` otherwise); an optimum has at
    most K+1 / W+1 paths (``extra["size_bound"]``).  ``node_limit`` (>= 0,
    checked first) caps search nodes over all runs, raising
    :class:`~survpath.model.SearchBudgetExceeded` beyond it.
    """
    return _exact(mat, limits, node_limit, "msp_exact", 0)


# ---------------------------------------------------------------------------
# Epsilon-net sampling
# ---------------------------------------------------------------------------


@dataclass
class EpsNetState:
    """Mutable state of one multiplicative-weight sampling run.

    ``weights[j-1]`` is the integer weight of path j (a power of two: weights
    start at 1 and only double).  ``unsurvived`` holds the fiber ids the last
    sample failed to cover.  The sampling distribution assigns path j
    probability ``weights[j-1] / sum(weights)``.
    """

    weights: list[int]
    sample_size: int
    unsurvived: tuple[int, ...] = ()
    rounds: int = field(default=0)

    def distribution(self) -> list[float]:
        total = sum(self.weights)
        return [w / total for w in self.weights]

    def sample(self, rng: Random) -> list[int]:
        """Draw ``sample_size`` paths with replacement, deduplicated, ascending.

        Sampling uses exact integer arithmetic on the (arbitrarily large)
        weights: a uniform draw below the total weight is located in the
        cumulative-weight table.
        """
        cumulative = list(accumulate(self.weights))
        total = cumulative[-1]
        picked: set[int] = set()
        for _ in range(self.sample_size):
            r = rng.randrange(total)
            picked.add(bisect_right(cumulative, r) + 1)
        return sorted(picked)

    def double_survivors(self, mat: SurvivalMatrix, uncovered_mask: int) -> None:
        """Double the weight of every path surviving some uncovered fiber."""
        for j, survives in enumerate(mat.survive_masks):
            if survives & uncovered_mask:
                self.weights[j] *= 2


def _prune_to_minimal(mat: SurvivalMatrix, ids: list[int]) -> list[int]:
    """Drop redundant paths while the set stays survivable.

    Candidates are tried costliest first (ties: smaller id) so that cheap
    paths — in particular zero-cost ones, which can never hurt — are the ones
    retained when either of two paths would be redundant.
    """
    kept = list(ids)
    for j in sorted(ids, key=lambda x: (-mat.path_cost(x), x)):
        if len(kept) == 1:
            break
        trial = [x for x in kept if x != j]
        if mat.is_survivable(trial):
            kept = trial
    return kept


def epsnet_round(state: EpsNetState, mat: SurvivalMatrix, rng: Random) -> list[int] | None:
    """Run one sampling round; return the pruned survivable set, or None.

    On failure the weights of all paths surviving some missed fiber are doubled
    and ``state.unsurvived`` records the missed fibers.
    """
    state.rounds += 1
    sample = state.sample(rng)
    covered = mat.survived_fibers_mask(sample)
    full = mat.all_fibers_mask
    if covered == full:
        state.unsurvived = ()
        return _prune_to_minimal(mat, sample)
    uncovered_mask = full & ~covered
    state.unsurvived = tuple(_bit_ids(uncovered_mask))
    state.double_survivors(mat, uncovered_mask)
    return None


def _vc_dimension_proxy(mat: SurvivalMatrix, limits: Limits | None) -> float:
    """Sample-complexity driver D for the fiber-row range space.

    With a per-path fiber cap K every row is hit by all but at most K sampled
    paths, giving D = log2(K) + 1; with a per-fiber load cap W, D = W.  When
    both are declared the smaller bound applies; when neither is, the
    instance's own maximum path cost serves as its (trivially valid) cap.
    """
    candidates = []
    if limits is not None and limits.max_fibers_per_path is not None:
        candidates.append(math.log2(limits.max_fibers_per_path) + 1.0)
    if limits is not None and limits.max_paths_per_fiber is not None:
        candidates.append(float(limits.max_paths_per_fiber))
    if not candidates:
        candidates.append(math.log2(effective_fiber_cap(mat, None)) + 1.0)
    return max(min(candidates), 1.0)


def msp_epsnet(
    mat: SurvivalMatrix,
    limits: Limits | None = None,
    seed: int = 0,
    *,
    c: float = 10.0,
) -> SolveReport:
    """Randomized MSP via epsilon-net sampling with multiplicative weights.

    Doubles a guess g for the optimum size (1, 2, 4, ... up to n); for each
    guess runs up to ``ceil(4 g log2(m/g)) + 1`` rounds of weighted sampling
    with epsilon = 1/(2g) and sample size ``ceil(c (D/eps) log2(D/eps))``.
    A successful sample is pruned to a minimal survivable set.  Exhausting all
    guesses raises :class:`~survpath.model.RandomizedFailureError` carrying the
    seed.  Weights restart at 1 for every guess.
    """
    started = perf_counter()
    require_feasible(mat)
    limits = _validated_limits(mat, limits)
    if c <= 0:
        raise PreconditionError("sampling constant c must be positive")
    rng = Random(seed)
    n = mat.num_paths
    m = mat.num_fibers
    if m == 0:
        return _report(mat, "msp_epsnet", (), started, 0, seed)
    dimension = _vc_dimension_proxy(mat, limits)

    total_rounds = 0
    guess = 1
    while guess <= n:
        epsilon = 1.0 / (2.0 * guess)
        ratio = dimension / epsilon
        size = c * ratio * math.log2(max(ratio, 2.0))
        if not math.isfinite(size):
            raise PreconditionError(f"sampling constant c={c} gives no finite sample size")
        sample_size = max(1, math.ceil(size))
        if m > guess:
            round_cap = math.ceil(4.0 * guess * math.log2(m / guess)) + 1
        else:
            round_cap = 1
        state = EpsNetState(weights=[1] * n, sample_size=sample_size)
        for _ in range(round_cap):
            found = epsnet_round(state, mat, rng)
            if found is not None:
                total_rounds += state.rounds
                return _report(
                    mat, "msp_epsnet", found, started, total_rounds, seed, guess=guess,
                    epsilon=epsilon, sample_size=sample_size,
                    rounds_in_final_guess=state.rounds,
                )
        total_rounds += state.rounds
        guess *= 2

    raise RandomizedFailureError(
        seed,
        f"no survivable sample after {total_rounds} rounds across all size guesses",
    )
