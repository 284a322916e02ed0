"""The relaxation's optimality certificate must hold without ``assert``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import survpath
from survpath import SurvivalMatrix, SurvPathError, solve_mfsp_relaxation
from survpath.lp import _certify

ONE = Fraction(1)
HALF = Fraction(1, 2)


def test_certify_accepts_the_optimum(pairwise3):
    sol = solve_mfsp_relaxation(pairwise3)
    _certify(pairwise3, sol.path_exact, sol.fiber_exact)


@pytest.mark.parametrize(
    "p, f, message",
    [
        ((Fraction(3, 2), ONE, ONE), (ONE, ONE, ONE), "out of"),
        ((ONE, HALF, ONE), (ONE, ONE, ONE), "cover row 1"),
        ((ONE, ONE, ONE), (ONE, ONE, HALF), "link row f_3"),
    ],
    ids=["path-above-one", "cover-short", "link-violated"],
)
def test_certify_rejects_infeasible_point(pairwise3, p, f, message):
    # pairwise3: path 1 uses fibers 1,2; path 2 uses 2,3; path 3 uses 1,3.
    with pytest.raises(SurvPathError, match=message):
        _certify(pairwise3, p, f)


@pytest.mark.parametrize(
    "fiber_sets, p, f, message",
    [
        # Fiber 1 survives paths 1-3 only: 1/2 + 1/3 + 1/7 = 41/42.
        (
            [[2], [2], [2], [1]],
            (HALF, Fraction(1, 3), Fraction(1, 7), ONE),
            (ONE, ONE),
            "cover row 1 violated at the claimed optimum",
        ),
        # Path 1 uses fiber 1: f_1 = 1/3 falls 1/6 short of p_1 = 1/2.
        (
            [[1], [], []],
            (HALF, HALF, HALF),
            (Fraction(1, 3), ONE),
            "link row f_1 >= p_1 violated",
        ),
    ],
    ids=["cover-short-by-1/42", "link-short-by-1/6"],
)
def test_certify_message_is_exact(fiber_sets, p, f, message):
    mat = SurvivalMatrix.from_fiber_sets(len(f), fiber_sets)
    with pytest.raises(SurvPathError, match=f"^{re.escape(message)}$"):
        _certify(mat, p, f)


def test_certify_accepts_point_on_its_bounds():
    # Cover row 1 sums to exactly 1/2 + 1/3 + 1/6; p_4 = 1 and p_5 = 0 sit on
    # their bounds; f_1 = p_4 and f_2 = p_1 hold with equality.
    mat = SurvivalMatrix.from_fiber_sets(2, [[2], [], [], [1], [1]])
    p = (HALF, Fraction(1, 3), Fraction(1, 6), ONE, Fraction(0))
    _certify(mat, p, (ONE, HALF))


def test_certify_still_raises_under_python_O():
    code = (
        "from fractions import Fraction\n"
        "from survpath import SurvPathError, SurvivalMatrix\n"
        "from survpath.lp import _certify\n"
        "assert False, 'asserts must be stripped here'\n"
        "mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [2, 3], [1, 3]])\n"
        "one = Fraction(1)\n"
        "try:\n"
        "    _certify(mat, (one, Fraction(1, 2), one), (one, one, one))\n"
        "except SurvPathError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    env = dict(os.environ)
    src = str(Path(survpath.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: cover row 1")
