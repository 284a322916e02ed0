"""The relaxation's dual certificate: a feasible dual point with the primal's
objective proves the optimum, and the check holds without ``assert``."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import survpath
from survpath import (
    RandomEnsembleConfig,
    SurvPathError,
    gen_random_parallel,
    solve_mfsp_relaxation,
)
from survpath import lp
from survpath.lp import _certify_dual

# pairwise3: path 1 uses fibers 1,2; path 2 uses 2,3; path 3 uses 1,3.  Each
# fiber is survived by one path alone, so p = f = 1 and sum(f) = 3.  Over
# den = 2: each cover dual is 1, each of the six link duals (path 1: f1, f2;
# path 2: f2, f3; path 3: f1, f3) is -1/2, and the bound duals are 0.
COVER = [2, 2, 2]
LINKS = [-1] * 6
BOUNDS = [0, 0, 0]
THREE = Fraction(3)


def test_certify_dual_accepts_a_tight_dual(pairwise3):
    _certify_dual(pairwise3, THREE, COVER + LINKS + BOUNDS, 2)


@pytest.mark.parametrize(
    "y, message",
    [
        # The link dual of (path 1, fiber 1) raised to 0: path 1's column
        # sums to 2 - 1 = 1 over 2.
        (COVER + [0] + LINKS[1:] + BOUNDS, "dual column p_1 sums above 0"),
        # The link dual of (path 1, fiber 1) lowered to -3: fiber 1's column
        # sums to 3 + 1 = 4 over 2, and path 1's stays below 0.
        (COVER + [-3] + LINKS[1:] + BOUNDS, "dual column f_1 sums above 1"),
        ([-2, 2, 2] + LINKS + BOUNDS, "dual of row 1 has the wrong sign"),
        (COVER + LINKS + [0, 1, 0], "dual of row 11 has the wrong sign"),
    ],
    ids=["p-column", "f-column", "cover-sign", "bound-sign"],
)
def test_certify_dual_rejects_an_infeasible_dual(pairwise3, y, message):
    with pytest.raises(SurvPathError, match=message):
        _certify_dual(pairwise3, THREE, y, 2)


def test_certify_dual_rejects_an_objective_gap(pairwise3):
    # Halving the cover duals keeps every column feasible (paths sum to 0),
    # but proves only sum(f) >= 3/2.
    with pytest.raises(SurvPathError, match="^dual objective 3/2 differs from the primal 3$"):
        _certify_dual(pairwise3, THREE, [1, 1, 1] + LINKS + BOUNDS, 2)


@pytest.mark.parametrize("w, seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_the_solver_dual_proves_its_objective_and_no_other(monkeypatch, w, seed):
    (mat,) = gen_random_parallel(
        RandomEnsembleConfig(num_paths=12, num_fibers=16, max_paths_per_fiber=w, seed=seed)
    )
    calls = []
    check = lp._certify_dual
    monkeypatch.setattr(lp, "_certify_dual", lambda *args: calls.append(args) or check(*args))
    sol = solve_mfsp_relaxation(mat)
    ((got_mat, objective, y, den),) = calls
    assert got_mat is mat and objective == sol.objective_exact
    step = Fraction(1, den)
    for wrong in (objective - step, objective + step):
        with pytest.raises(SurvPathError, match="dual objective"):
            _certify_dual(mat, wrong, y, den)


def test_certify_dual_still_raises_under_python_O():
    code = (
        "from fractions import Fraction\n"
        "from survpath import SurvPathError, SurvivalMatrix\n"
        "from survpath.lp import _certify_dual\n"
        "assert False, 'asserts must be stripped here'\n"
        "mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [2, 3], [1, 3]])\n"
        "try:\n"
        "    _certify_dual(mat, Fraction(3), [1, 1, 1] + [-1] * 6 + [0, 0, 0], 2)\n"
        "except SurvPathError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    env = dict(os.environ)
    src = str(Path(survpath.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: dual objective 3/2")
