"""Fractional relaxation of the minimum-fiber survivable path set problem.

The relaxation assigns each path an intensity ``p_j`` in [0, 1] and each fiber
a usage level ``f_i``, minimizing ``sum(f)`` subject to

* every fiber row keeps surviving mass at least 1: ``sum_{j survives i} p_j >= 1``;
* a fiber is at least as used as any path routed over it: ``f_i >= p_j``
  whenever path j uses fiber i.

The optimum lower-bounds the integral optimum (weak duality), and its ``p``
vector drives the randomized-rounding solver.

The solver is a deterministic two-phase simplex with Bland's rule, so it never
cycles.  Its tableau is condensed (a dictionary, after Chvátal 1983): only
nonbasic variables have columns, and an artificial's column is dropped when it
leaves the basis, since it never re-enters.  Rows are Python-int numerators
over one positive int denominator each (after Bareiss 1968); a pivot updates
only the rows with a nonzero in the entering column, at the pivot row's
nonzeros, in place when the pivot element divides the row's factor, as on
most pivots.  The arithmetic is exact; the optimum is certified with integer
sums (a feasible point, and a feasible dual with the same objective), and
values become :class:`fractions.Fraction` only at the output.  It is intended
for the desk-scale instances this package targets, not industrial LPs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .model import SurvPathError, SurvivalMatrix, _bit_ids, require_feasible

__all__ = ["FractionalSolution", "solve_mfsp_relaxation"]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal basic feasible solution of the fiber relaxation.

    ``path_values`` and ``fiber_values`` are float views of the exact rational
    optimum kept in ``path_exact`` / ``fiber_exact``; ``objective`` is
    ``sum(fiber_values)``.
    """

    path_values: tuple[float, ...]
    fiber_values: tuple[float, ...]
    objective: float
    path_exact: tuple[Fraction, ...]
    fiber_exact: tuple[Fraction, ...]

    @property
    def objective_exact(self) -> Fraction:
        return sum(self.fiber_exact, Fraction(0))


class _Tableau:
    """Condensed simplex tableau with integer rows.

    Row ``r`` solves for ``basis[r]``: cell ``pos`` is the coefficient of
    ``nonbasic[pos]`` (at first, variable ``pos``) as ``rows[r][pos] /
    dens[r]``, a Python-int numerator over a positive int denominator, and
    the rhs sits in the last cell.  The z row is kept the same way in ``z`` /
    ``zden``.  A row's denominator changes only when a pivot rescales it, and
    that rescale is followed by a gcd reduction, so numerators stay bounded
    even though rows updated in place are not reduced.  Ratios and signs, the
    only things the pivot rules read, do not depend on a row's scale.
    Variables from ``first_artificial`` on are artificial; none gets a column.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], first_artificial: int):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.basis = basis
        self.nonbasic = list(range(len(rows[0]) - 1))
        self.first_artificial = first_artificial
        self.z: list[int] = []
        self.zden = 1

    def set_cost(self, cost: list[int]) -> None:
        """Set the z row for a cost vector by variable; rhs cell = -objective."""
        zden = math.lcm(*(d for r, d in enumerate(self.dens) if cost[self.basis[r]]))
        z = [cost[v] * zden for v in self.nonbasic] + [0]
        for r, row in enumerate(self.rows):
            cb = cost[self.basis[r]]
            if cb:
                scale = cb * zden // self.dens[r]
                for j, v in enumerate(row):
                    if v:
                        z[j] -= scale * v
        self.z, self.zden = _reduced(z, zden)

    def pivot(self, r: int, pos: int) -> None:
        """Exchange ``nonbasic[pos]`` and ``basis[r]``.

        The pivot row keeps its cells, with cell ``pos`` set to its old
        denominator (the leaving variable's column), over the pivot element
        ``piv``.  Every other row with a nonzero ``factor`` at ``pos`` (the z
        row included) has that cell zeroed, then loses ``factor / piv`` times
        the pivot row at its nonzeros: in place when ``piv`` divides
        ``factor``, else rescaled by ``piv // gcd(factor, piv)`` and
        gcd-reduced.  A leaving artificial's column is dropped.
        """
        rows, dens = self.rows, self.dens
        dropped = self.basis[r] >= self.first_artificial
        row, piv = rows[r], rows[r][pos]
        row[pos] = 0 if dropped else dens[r]
        if piv < 0:
            row, piv = [-v for v in row], -piv
        row, piv = _reduced(row, piv)
        rows[r], dens[r] = row, piv
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        rows.append(self.z)
        dens.append(self.zden)
        for rr, other in enumerate(rows):
            factor = other[pos]
            if factor and rr != r:
                other[pos] = 0
                scale = 1
                if piv != 1:
                    g = math.gcd(factor, piv)
                    scale, factor = piv // g, factor // g
                if scale != 1:
                    other = [v * scale for v in other]
                for j, v in nonzero:
                    other[j] -= factor * v
                if scale != 1:
                    rows[rr], dens[rr] = _reduced(other, dens[rr] * scale)
        self.basis[r], self.nonbasic[pos] = self.nonbasic[pos], self.basis[r]
        if dropped:
            for other in (*rows, self.nonbasic):
                del other[pos]
        self.z, self.zden = rows.pop(), dens.pop()

    def optimize(self) -> None:
        """Bland's rule: the least variable of negative reduced cost enters;
        the leaving row takes the min ratio, ties to the least basic index."""
        nonbasic = self.nonbasic
        while True:
            enter = min((v for v, c in zip(nonbasic, self.z) if c < 0), default=-1)
            if enter < 0:
                return
            pos = nonbasic.index(enter)
            leave = -1
            # Ratios rhs/coeff by cross-multiplying; the row denominators cancel.
            best_rhs = best_coeff = 0
            for r, row in enumerate(self.rows):
                coeff = row[pos]
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
            self.pivot(leave, pos)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _certify(
    mat: SurvivalMatrix, p: Sequence[Fraction], f: Sequence[Fraction]
) -> None:
    """Raise :class:`SurvPathError` unless ``(p, f)`` satisfies every
    constraint of the relaxation exactly.

    The cover and link rows are checked on integer numerators over one
    common denominator ``den``, so no :class:`Fraction` is summed."""
    for j, pj in enumerate(p, start=1):
        if not 0 <= pj <= 1:
            raise SurvPathError(f"path value p_{j} = {pj} out of [0,1]")
    den = math.lcm(*(v.denominator for v in p), *(v.denominator for v in f))
    p_num = [v.numerator * (den // v.denominator) for v in p]
    f_num = [v.numerator * (den // v.denominator) for v in f]
    for i, survivors in enumerate(mat.survive_rows, start=1):
        if sum(p_num[j - 1] for j in _bit_ids(survivors)) < den:
            raise SurvPathError(f"cover row {i} violated at the claimed optimum")
    for j, pj in enumerate(p_num, start=1):
        for i in mat.path_fibers(j):
            if f_num[i - 1] < pj:
                raise SurvPathError(f"link row f_{i} >= p_{j} violated")


def _certify_dual(
    mat: SurvivalMatrix, objective: Fraction, y: Sequence[int], den: int
) -> None:
    """Raise :class:`SurvPathError` unless ``y / den`` is a feasible dual
    point whose value is ``objective``, which proves that no feasible point
    has a smaller ``sum(f)`` (weak duality).

    ``y`` holds one int numerator per constraint in row order: the m cover
    rows, one link row per fiber i that path j uses (paths ascending, then
    fibers ascending), and the n bound rows ``p_j <= 1``; ``den`` is
    positive.  A cover dual must be >= 0 and a link or bound dual <= 0;
    every p column must sum to <= 0 and every f column to <= 1."""
    m, n = mat.num_fibers, mat.num_paths
    for k, v in enumerate(y):
        if (v < 0) if k < m else (v > 0):
            raise SurvPathError(f"dual of row {k + 1} has the wrong sign")
    p_col = list(y[len(y) - n:])
    f_col = [0] * m
    k = m
    for j, used in enumerate(mat.used_masks):
        for i in _bit_ids(used):
            p_col[j] += y[k]
            f_col[i - 1] -= y[k]
            k += 1
    for i, survivors in enumerate(mat.survive_rows):
        if y[i]:
            for j in _bit_ids(survivors):
                p_col[j - 1] += y[i]
    for j, v in enumerate(p_col, start=1):
        if v > 0:
            raise SurvPathError(f"dual column p_{j} sums above 0")
    for i, v in enumerate(f_col, start=1):
        if v > den:
            raise SurvPathError(f"dual column f_{i} sums above 1")
    value = sum(y[:m]) + sum(y[len(y) - n:])
    if value * objective.denominator != objective.numerator * den:
        raise SurvPathError(
            f"dual objective {Fraction(value, den)} differs from the primal {objective}"
        )


def solve_mfsp_relaxation(mat: SurvivalMatrix) -> FractionalSolution:
    """Solve the fiber relaxation to proven optimality.

    Raises :class:`~survpath.model.InfeasibleInstanceError` when some fiber is
    used by every path (the cover row would be empty).  The returned solution
    satisfies every constraint exactly and a dual point proves it optimal; the
    float views are within 1e-9 of feasibility by construction.
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
    # Variables: p (n) | f (m) | cover surplus (m), at first nonbasic, then
    # link slack (n_link) | upper-bound slack (n) | artificial (m), at first basic.
    col_f = n
    col_surp = col_f + m
    col_link = col_surp + m
    col_ub = col_link + n_link
    col_art = col_ub + n

    rows: list[list[int]] = []

    for i, survivors in enumerate(mat.survive_rows, start=1):
        row = [0] * (col_link + 1)
        for j in _bit_ids(survivors):
            row[j - 1] = 1
        row[col_surp + i - 1] = -1
        row[-1] = 1
        rows.append(row)

    for i, j in links:
        row = [0] * (col_link + 1)
        row[j - 1] = 1
        row[col_f + i - 1] = -1
        rows.append(row)

    for j in range(1, n + 1):
        row = [0] * (col_link + 1)
        row[j - 1] = 1
        row[-1] = 1
        rows.append(row)

    # Each row starts on its artificial, link slack or upper-bound slack.
    basis = [*range(col_art, col_art + m), *range(col_link, col_art)]
    tab = _Tableau(rows, basis, col_art)

    # Phase 1: drive the artificial variables to zero.
    tab.set_cost([0] * col_art + [1] * m)
    tab.optimize()
    if tab.z[-1] != 0:
        raise SurvPathError(
            "relaxation phase 1 ended positive; feasibility precheck should have "
            "caught this instance"
        )
    # Pivot lingering zero-level artificials out of the basis.  Every row owns
    # a surplus or slack column, so the constraints have full row rank and the
    # row of such an artificial has a nonzero in some column.
    for r in range(len(tab.rows) - 1, -1, -1):
        if tab.basis[r] >= col_art:
            enter = min(v for v, c in zip(tab.nonbasic, tab.rows[r]) if c)
            tab.pivot(r, tab.nonbasic.index(enter))

    # Phase 2: minimize total fiber usage.
    cost2 = [0] * col_art
    for c in range(col_f, col_f + m):
        cost2[c] = 1
    tab.set_cost(cost2)
    tab.optimize()

    # Only the p and f columns are reported; slacks and surpluses stay ints.
    zero = Fraction(0)
    values = [zero] * col_surp
    for r, b in enumerate(tab.basis):
        if b < col_surp:
            values[b] = Fraction(tab.rows[r][-1], tab.dens[r])
    p_exact = tuple(values[:n])
    f_exact = tuple(values[col_f:])
    _certify(mat, p_exact, f_exact)
    # Row k's dual is the reduced cost of its surplus or slack, col_surp + k,
    # negated for a slack (0 while basic).
    y = [0] * len(tab.rows)
    for v, c in zip(tab.nonbasic, tab.z):
        if v >= col_surp:
            y[v - col_surp] = c if v < col_link else -c
    objective = sum(f_exact, zero)
    _certify_dual(mat, objective, y, tab.zden)

    return FractionalSolution(
        path_values=tuple(float(v) for v in p_exact),
        fiber_values=tuple(float(v) for v in f_exact),
        objective=float(objective),
        path_exact=p_exact,
        fiber_exact=f_exact,
    )
