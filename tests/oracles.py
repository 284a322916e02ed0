"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: exhaustive subset enumeration with a
subset-DP for unions (still visits every subset), plain set arithmetic, and
none of the solvers' data structures or pruning.  Tests compare solver output
against these, never the other way around.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from random import Random

from survpath import SurvivalMatrix
from survpath.lp import FractionalSolution, _certify
from survpath.model import SurvPathError, _bit_ids, require_feasible


def _ids_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _subset_tables(mat: SurvivalMatrix):
    """cover[mask], fibers[mask], addcost[mask] for every path subset."""
    n = mat.num_paths
    survive = [mat.survive_mask(j) for j in range(1, n + 1)]
    used = [mat.used_mask(j) for j in range(1, n + 1)]
    costs = [u.bit_count() for u in used]
    size = 1 << n
    cover = [0] * size
    union = [0] * size
    addcost = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        prev = mask ^ low
        j = low.bit_length() - 1
        cover[mask] = cover[prev] | survive[j]
        union[mask] = union[prev] | used[j]
        addcost[mask] = addcost[prev] + costs[j]
    return cover, union, addcost


def brute_msp(mat: SurvivalMatrix) -> tuple[int, tuple[int, ...]] | None:
    """Minimum survivable set size with the lexicographically smallest witness.

    Iterates sizes ascending and id-combinations in lexicographic order, so
    the first hit is the canonical answer.  Returns None when infeasible.
    """
    n = mat.num_paths
    for r in range(0, n + 1):
        for combo in combinations(range(1, n + 1), r):
            if mat.is_survivable(combo):
                return r, combo
    return None


def brute_completion_cost(
    mat: SurvivalMatrix, covered: int, union: int, eligible: int, fiber_weight: int
) -> int | None:
    """Least further cost of a survivable completion of a partial selection.

    The selection has survived the fibers of mask ``covered`` and used those
    of mask ``union``; the completion adds a subset of the paths in mask
    ``eligible`` (bit j-1 is path j).  Each added path costs 1, and each fiber
    it adds to ``union`` costs ``fiber_weight``.  Tries every subset; returns
    None when no subset survives every fiber.
    """
    full = mat.all_fibers_mask
    ids = [j for j in range(1, mat.num_paths + 1) if eligible >> (j - 1) & 1]
    best = None
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            cover, fibers = covered, union
            for j in combo:
                cover |= mat.survive_mask(j)
                fibers |= mat.used_mask(j)
            if cover == full:
                cost = r + fiber_weight * (fibers & ~union).bit_count()
                if best is None or cost < best:
                    best = cost
    return best


def brute_mfsp(mat: SurvivalMatrix) -> tuple[int, tuple[int, ...]] | None:
    """Minimum distinct-fiber survivable set; ties by set size then lex ids."""
    full = mat.all_fibers_mask
    cover, union, _ = _subset_tables(mat)
    best: tuple[int, int, tuple[int, ...]] | None = None
    for mask in range(1 << mat.num_paths):
        if cover[mask] == full:
            key = (union[mask].bit_count(), mask.bit_count(), _ids_of(mask))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[0], best[2]


def brute_min_additive(mat: SurvivalMatrix) -> tuple[int, tuple[int, ...]] | None:
    """Survivable set minimizing the *sum* of member fiber counts."""
    full = mat.all_fibers_mask
    cover, _, addcost = _subset_tables(mat)
    best: tuple[int, int, tuple[int, ...]] | None = None
    for mask in range(1 << mat.num_paths):
        if cover[mask] == full:
            key = (addcost[mask], mask.bit_count(), _ids_of(mask))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[0], best[2]


def brute_min_cover(ground_size: int, subsets) -> int | None:
    """Exhaustive minimum set-cover size."""
    universe = set(range(1, ground_size + 1))
    subsets = [set(s) for s in subsets]
    for r in range(0, len(subsets) + 1):
        for combo in combinations(range(len(subsets)), r):
            covered = set()
            for idx in combo:
                covered |= subsets[idx]
            if covered >= universe:
                return r
    return None


def random_feasible_matrix(
    rng: Random,
    *,
    max_paths: int = 12,
    max_fibers: int = 12,
    min_paths: int = 2,
    min_fibers: int = 1,
) -> SurvivalMatrix:
    """Uniform-ish random parallel instance, regenerated until feasible."""
    while True:
        n = rng.randint(min_paths, max_paths)
        m = rng.randint(min_fibers, max_fibers)
        sets = []
        for _ in range(n):
            size = rng.randint(1, m)
            sets.append(rng.sample(range(1, m + 1), size))
        mat = SurvivalMatrix.from_fiber_sets(m, sets)
        if not mat.infeasible_fibers():
            return mat


def random_setcover_subsets(
    rng: Random, elements: int, density: float, num_subsets: int | None = None
) -> list[set[int]]:
    """Random subsets of 1..elements, shaped like the setcover-msp benchmark.

    Each subset holds each element with probability ``density``; an empty
    subset gets one random element, and each element that no subset holds is
    added to a random subset, so the subsets always cover the ground set.
    ``num_subsets`` defaults to ``elements``.
    """
    ground = range(1, elements + 1)
    count = elements if num_subsets is None else num_subsets
    subsets = [{e for e in ground if rng.random() < density} for _ in range(count)]
    for subset in subsets:
        if not subset:
            subset.add(rng.choice(ground))
    for e in sorted(set(ground) - set().union(*subsets)):
        rng.choice(subsets).add(e)
    return subsets


def random_parallel_layered(rng: Random):
    """Random layered network whose logical layer is parallel s-t links.

    The physical layer is a chain plus random chords; every logical link is
    routed over an independently drawn simple physical s-t path.  Because each
    logical path is a single link, matrix survivability and residual-graph
    survivability must agree exactly, which makes these nets a clean
    cross-check corpus.
    """
    from survpath import (
        LayeredNetwork,
        LightpathRouting,
        LogicalTopology,
        PhysicalTopology,
    )

    node_count = rng.randint(3, 6)
    nodes = tuple(f"n{i}" for i in range(node_count))
    s, t = nodes[0], nodes[-1]
    fibers = [(nodes[i], nodes[i + 1]) for i in range(node_count - 1)]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(node_count), 2)
        fibers.append((nodes[u], nodes[v]))

    adjacency: dict[str, list[tuple[int, str]]] = {}
    for fid, (u, v) in enumerate(fibers, start=1):
        adjacency.setdefault(u, []).append((fid, v))
        adjacency.setdefault(v, []).append((fid, u))

    def random_route() -> tuple[int, ...]:
        walk: list[int] = []

        def dfs(node: str, visited: frozenset[str]) -> bool:
            if node == t:
                return True
            neighbors = list(adjacency.get(node, []))
            rng.shuffle(neighbors)
            for fid, nxt in neighbors:
                if nxt in visited:
                    continue
                walk.append(fid)
                if dfs(nxt, visited | {nxt}):
                    return True
                walk.pop()
            return False

        # Call outside the assert: ``python -O`` strips the whole statement.
        reached = dfs(s, frozenset({s}))
        assert reached
        return tuple(walk)

    num_links = rng.randint(1, 4)
    logical = LogicalTopology(
        nodes=(s, t),
        links=tuple((s, t) for _ in range(num_links)),
        source=s,
        sink=t,
    )
    routing = LightpathRouting(routes=tuple(random_route() for _ in range(num_links)))
    physical = PhysicalTopology(nodes=nodes, fibers=tuple(fibers))
    return LayeredNetwork(physical=physical, logical=logical, routing=routing)


def naive_is_survivable(mat: SurvivalMatrix, ids) -> bool:
    """Set-arithmetic survivability: every fiber avoided by some member."""
    ids = list(ids)
    return all(
        any(fiber not in mat.path_fibers(j) for j in ids)
        for fiber in range(1, mat.num_fibers + 1)
    )


def scan_greedy(mat: SurvivalMatrix, cost_masks=None, *, dynamic=False, start=(), rng=None):
    """Chvátal's greedy as a plain full scan at every step, in set arithmetic:
    the reference for ``msp._greedy``, with its arguments and its
    ``(selection, trace, removed)`` result.

    Path j costs the fibers (bits) of ``cost_masks[j-1]``, 1 each without
    masks; in ``dynamic`` mode those of selected paths are free.  Each step
    takes the least cost per newly survived fiber, then the least cost, then
    the least id.  With ``rng``, each step after the second retires at most
    one earlier path whose survived fibers the newest path and a drawn peer
    already survive.
    """
    n = mat.num_paths
    fibers = set(range(1, mat.num_fibers + 1))
    survives = {j: fibers - mat.path_fibers(j) for j in range(1, n + 1)}
    charges = {
        j: {1} if cost_masks is None else set(_ids_of(cost_masks[j - 1]))
        for j in range(1, n + 1)
    }
    selected = list(start)
    covered = set().union(*(survives[j] for j in selected))
    trace, removed = [], []
    while covered != fibers:
        paid = set().union(*(charges[j] for j in selected)) if dynamic else set()
        keys = []
        for j in range(1, n + 1):
            gain = len(survives[j] - covered)
            if gain:
                cost = len(charges[j] - paid)
                keys.append((Fraction(cost, gain), cost, j, gain))
        if not keys:
            raise ValueError("no path survives an uncovered fiber")
        _, cost, best, gain = min(keys)
        selected.append(best)
        covered |= survives[best]
        trace.append([best, cost, gain])
        if rng is not None and len(trace) > 2 and len(selected) > 1:
            previous = [k for k in selected if k != best]
            peer = previous[rng.randrange(len(previous))]
            pair = survives[best] | survives[peer]
            victims = [k for k in previous if k != peer and survives[k] <= pair]
            if victims:
                selected.remove(min(victims))
                removed.append(min(victims))
    return selected, trace, removed


# The exact LP as it stood before its tableau was condensed: every variable
# keeps a column, basic ones as explicit unit vectors, and the artificial
# columns are deleted after phase 1.


class FullTableau:
    """Simplex tableau with integer rows, one column per variable.

    Row ``r`` stands for ``rows[r][j] / dens[r]`` with Python-int numerators
    and a positive int denominator; the rhs sits in the last cell.  The z row
    is kept the same way in ``z`` / ``zden``.  The arithmetic is exact without
    :class:`fractions.Fraction` objects in the inner loop.  A row's
    denominator changes only when a pivot element other than 1 rescales it,
    and that rescale is followed by a gcd reduction, so numerators stay
    bounded even though rows updated in place are not reduced.  Ratios and
    signs, the only things the pivot rules read, do not depend on a row's
    scale.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.basis = basis
        self.z: list[int] = []
        self.zden = 1

    def set_cost(self, cost: list[int]) -> None:
        """Set the z row for the given cost vector; rhs cell = -objective."""
        zden = math.lcm(*(d for r, d in enumerate(self.dens) if cost[self.basis[r]]))
        z = [c * zden for c in cost] + [0]
        for r, row in enumerate(self.rows):
            cb = cost[self.basis[r]]
            if cb:
                scale = cb * zden // self.dens[r]
                for j, v in enumerate(row):
                    if v:
                        z[j] -= scale * v
        self.z, self.zden = _reduced(z, zden)

    def pivot(self, r: int, col: int) -> None:
        """Make ``col`` basic in row ``r``.

        The pivot row is scaled so its entry at ``col`` is its denominator
        ``piv``; every other row with a nonzero at ``col`` (the z row
        included, appended for the duration) then loses ``factor / piv``
        times it, touching only the pivot row's nonzeros.  With ``piv == 1``
        that is an in-place integer update; otherwise the row is rescaled by
        ``piv`` first and gcd-reduced after.
        """
        rows, dens = self.rows, self.dens
        row = rows[r]
        piv = row[col]
        if piv < 0:
            row = [-v for v in row]
            piv = -piv
        row, piv = _reduced(row, piv)
        rows[r], dens[r] = row, piv
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        rows.append(self.z)
        dens.append(self.zden)
        for rr, other in enumerate(rows):
            factor = other[col]
            if factor and rr != r:
                if piv != 1:
                    other = [v * piv for v in other]
                for j, v in nonzero:
                    other[j] -= factor * v
                if piv != 1:
                    rows[rr], dens[rr] = _reduced(other, dens[rr] * piv)
        self.z, self.zden = rows.pop(), dens.pop()
        self.basis[r] = col

    def optimize(self, allowed: int) -> None:
        """Bland's rule: smallest negative-reduced-cost column enters; the
        leaving row takes the min ratio, ties to the smallest basic index."""
        while True:
            z = self.z
            enter = -1
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            # Ratios rhs/coeff compared by cross-multiplying; coefficients
            # are positive and the row denominators cancel.
            best_rhs = best_coeff = 0
            for r, row in enumerate(self.rows):
                coeff = row[enter]
                if coeff > 0:
                    lhs = row[-1] * best_coeff
                    rhs = best_rhs * coeff
                    if leave < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[r] < self.basis[leave]
                    ):
                        best_rhs, best_coeff = row[-1], coeff
                        leave = r
            if leave < 0:
                raise SurvPathError(
                    "relaxation appears unbounded; the model guarantees a bounded "
                    "optimum, so the instance data is inconsistent"
                )
            self.pivot(leave, enter)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def full_tableau_relaxation(mat: SurvivalMatrix) -> FractionalSolution:
    """The relaxation on :class:`FullTableau`: the reference for
    ``lp.solve_mfsp_relaxation``, which must make the same pivots and so
    return the same vertex.

    Raises :class:`~survpath.model.InfeasibleInstanceError` when some fiber is
    used by every path (the cover row would be empty).  The returned solution
    satisfies every constraint exactly; the float views are within 1e-9 of
    feasibility by construction.
    """
    require_feasible(mat)
    n = mat.num_paths
    m = mat.num_fibers

    links = [
        (i, j)
        for j, used in enumerate(mat.used_masks, start=1)
        for i in _bit_ids(used)
    ]
    n_link = len(links)
    # Column layout: p (n) | f (m) | cover surplus (m) | link slack (n_link)
    #                | upper-bound slack (n) | artificial (m).
    col_f = n
    col_surp = col_f + m
    col_link = col_surp + m
    col_ub = col_link + n_link
    col_art = col_ub + n
    ncols = col_art + m

    rows: list[list[int]] = []
    basis: list[int] = []

    for i, survivors in enumerate(mat.survive_rows, start=1):
        row = [0] * (ncols + 1)
        for j in _bit_ids(survivors):
            row[j - 1] = 1
        row[col_surp + i - 1] = -1
        row[col_art + i - 1] = 1
        row[-1] = 1
        rows.append(row)
        basis.append(col_art + i - 1)

    for idx, (i, j) in enumerate(links):
        row = [0] * (ncols + 1)
        row[j - 1] = 1
        row[col_f + i - 1] = -1
        row[col_link + idx] = 1
        rows.append(row)
        basis.append(col_link + idx)

    for j in range(1, n + 1):
        row = [0] * (ncols + 1)
        row[j - 1] = 1
        row[col_ub + j - 1] = 1
        row[-1] = 1
        rows.append(row)
        basis.append(col_ub + j - 1)

    tab = FullTableau(rows, basis)

    # Phase 1: drive the artificial variables to zero.
    tab.set_cost([0] * col_art + [1] * m)
    tab.optimize(allowed=col_art)
    if tab.z[-1] != 0:
        raise SurvPathError(
            "relaxation phase 1 ended positive; feasibility precheck should have "
            "caught this instance"
        )
    # Pivot lingering zero-level artificials out of the basis.  Every row owns
    # a surplus or slack column, so the constraints have full row rank and the
    # row of such an artificial has a nonzero outside the artificial block.
    for r in range(len(tab.rows) - 1, -1, -1):
        if tab.basis[r] >= col_art:
            tab.pivot(r, next(c for c in range(col_art) if tab.rows[r][c]))
    for row in tab.rows:
        del row[col_art:-1]

    # Phase 2: minimize total fiber usage.
    cost2 = [0] * col_art
    for c in range(col_f, col_f + m):
        cost2[c] = 1
    tab.set_cost(cost2)
    tab.optimize(allowed=col_art)

    # Only the p and f columns are reported; slacks and surpluses stay ints.
    zero = Fraction(0)
    values = [zero] * col_surp
    for r, b in enumerate(tab.basis):
        if b < col_surp:
            values[b] = Fraction(tab.rows[r][-1], tab.dens[r])
    p_exact = tuple(values[:n])
    f_exact = tuple(values[col_f:])
    _certify(mat, p_exact, f_exact)

    objective = float(sum(f_exact, zero))
    return FractionalSolution(
        path_values=tuple(float(v) for v in p_exact),
        fiber_values=tuple(float(v) for v in f_exact),
        objective=objective,
        path_exact=p_exact,
        fiber_exact=f_exact,
    )
