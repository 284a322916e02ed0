"""The exact solvers' witness checks and the greedy's progress check must
raise, not ``assert``, so that they hold under ``python -O`` too."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import survpath
import survpath.mfsp
import survpath.msp
from survpath import PathSet, SurvPathError, mfsp_exact, msp_exact
from survpath.msp import _greedy_selection


def test_msp_exact_rejects_a_size_with_no_witness(pairwise3, monkeypatch):
    # pairwise3 needs all three paths; claim that two suffice.
    monkeypatch.setattr(survpath.msp, "_min_cover_size", lambda *args: 2)
    with pytest.raises(SurvPathError, match="no survivable set of 2 paths"):
        msp_exact(pairwise3)


def test_msp_exact_rejects_an_unsurvivable_witness(pairwise3, monkeypatch):
    monkeypatch.setattr(survpath.msp, "_lex_smallest_cover", lambda *args: [1, 2])
    with pytest.raises(SurvPathError, match=r"witness \[1, 2\] is not a survivable"):
        msp_exact(pairwise3)


def test_mfsp_exact_rejects_an_unsurvivable_witness(pairwise3, monkeypatch):
    # An unsurvivable incumbent on two fibers undercuts every real selection
    # (all need three), so the search keeps it as its witness.
    bad = replace(
        survpath.mfsp.mfsp_nacg(pairwise3), solution=PathSet.from_ids(pairwise3, [1])
    )
    monkeypatch.setattr(survpath.mfsp, "mfsp_nacg", lambda mat: bad)
    with pytest.raises(SurvPathError, match=r"witness \[1\] is not a survivable"):
        mfsp_exact(pairwise3)


def test_greedy_without_progress_raises(uncoverable):
    with pytest.raises(SurvPathError, match="no path surviving an uncovered fiber"):
        _greedy_selection(uncoverable)


def test_witness_check_still_raises_under_python_O():
    code = (
        "import survpath.msp\n"
        "from survpath import SurvPathError, SurvivalMatrix, msp_exact\n"
        "assert False, 'asserts must be stripped here'\n"
        "mat = SurvivalMatrix.from_fiber_sets(3, [[1, 2], [2, 3], [1, 3]])\n"
        "survpath.msp._lex_smallest_cover = lambda *args: [1, 2]\n"
        "try:\n"
        "    msp_exact(mat)\n"
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
    assert proc.stdout.startswith("rejected: exact witness [1, 2]")
