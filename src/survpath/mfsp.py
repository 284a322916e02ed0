"""Minimum-fiber survivable path set (MFSP): select paths surviving every
single-fiber failure while touching the fewest distinct fibers.

Solvers:

* :func:`mfsp_exact` — the MSP branch-and-bound with a fiber weight: each lit
  fiber costs n+1 and each path 1, so the cost orders selections by fiber
  count, then path count; the witness is the lex-smallest optimum.
* :func:`mfsp_acg` / :func:`mfsp_nacg` — amortized-cost greedies.  Each step
  selects the path minimizing cost / newly-survived-fibers, where cost is the
  path's full fiber count (static, ACG) or only the fibers it would newly add
  to the selection's footprint (dynamic, NACG, rewarding fiber re-use).  Both
  run the set-cover greedy of :mod:`survpath.msp` with fiber costs.
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
from dataclasses import dataclass
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
from .msp import _exact, _greedy, _report, msp_epsnet

__all__ = [
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


def _greedy_run(
    mat: SurvivalMatrix, algorithm: str, *, dynamic: bool, seed: int | None = None
) -> SolveReport:
    """One of the amortized-cost greedies, reported under ``algorithm``; a
    ``seed`` adds RSG's substitution sweeps."""
    clock = _Stopwatch()
    require_feasible(mat)
    rng = Random(seed) if seed is not None else None
    selected, trace, removed = _greedy(mat, mat.used_masks, dynamic=dynamic, rng=rng)
    extra: dict = {"selections": trace}
    if rng is not None:
        extra["removed"] = removed
    report = _report(mat, algorithm, selected, clock, len(trace), seed, **extra)
    if not report.solution.survivable:
        raise SurvPathError(
            f"greedy selection {list(report.solution.selected)} is not survivable"
        )
    return report


def mfsp_acg(mat: SurvivalMatrix) -> SolveReport:
    """Amortized-cost greedy with static costs (a path always charges its full
    fiber count, even for fibers the selection already uses)."""
    return _greedy_run(mat, "mfsp_acg", dynamic=False)


def mfsp_nacg(mat: SurvivalMatrix) -> SolveReport:
    """Amortized-cost greedy with dynamic costs: fibers already in the
    selection's footprint are free, so re-using lit fibers is rewarded."""
    return _greedy_run(mat, "mfsp_nacg", dynamic=True)


def mfsp_rsg(mat: SurvivalMatrix, seed: int = 0) -> SolveReport:
    """Randomized substitution greedy.

    Identical to :func:`mfsp_nacg` for the first two selections; afterwards
    each selection is followed by one substitution sweep (see
    :func:`~survpath.msp._substitution_sweep`).  A removed path survives no
    uncovered fiber, so it is never selected again; coverage grows
    monotonically, so the run terminates.
    """
    return _greedy_run(mat, "mfsp_rsg", dynamic=True, seed=seed)


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
    return _exact(mat, limits, node_limit, "mfsp_exact", mat.num_paths + 1)


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
        _, trace, _ = _greedy(mat, start=chosen)
        added = [j for j, _, _ in trace]
        chosen.update(added)
        extra["repair_added"] = added
    return _report(mat, "mfsp_rounding", chosen, clock, rounds, config.seed, **extra)


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
    selected = inner.solution.selected
    return _report(
        mat, "mfsp_epsnet", selected, clock, inner.iterations, seed,
        **inner.extra, msp_size=len(selected),
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
