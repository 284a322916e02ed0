"""Fractional relaxation of the minimum-fiber survivable path set problem.

The relaxation assigns each path an intensity ``p_j`` in [0, 1] and each fiber
a usage level ``f_i``, minimizing ``sum(f)`` subject to

* every fiber row keeps surviving mass at least 1: ``sum_{j survives i} p_j >= 1``;
* a fiber is at least as used as any path routed over it: ``f_i >= p_j``
  whenever path j uses fiber i.

The optimum lower-bounds the integral optimum (weak duality), and its ``p``
vector drives the randomized-rounding solver.

The solver is a deterministic two-phase simplex with Bland's rule, so it never
cycles.  Its tableau keeps each row as Python-int numerators over one positive
int denominator (integer-preserving elimination, after Bareiss 1968): a pivot
updates only the rows with a nonzero in the entering column, and only at the
pivot row's nonzeros.  When the gcd-reduced pivot element is 1, as it is on
most pivots, that update is done in place with no rescale; otherwise each
updated row is rescaled by the pivot element and divided by its gcd.  The
arithmetic is exact, so the result carries no floating-point noise; the
optimum is certified with integer sums, and values become
:class:`fractions.Fraction` only at the output.  It is intended for the
desk-scale instances this package targets, not industrial LPs.
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
    """Simplex tableau with integer rows.

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


def solve_mfsp_relaxation(mat: SurvivalMatrix) -> FractionalSolution:
    """Solve the fiber relaxation to proven optimality.

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

    tab = _Tableau(rows, basis)

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
