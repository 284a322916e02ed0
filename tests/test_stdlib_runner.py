"""``tests/stdlib_runner.py``, the runner for interpreters without pytest, on
a file that uses every stand-in it provides."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).with_name("stdlib_runner.py")

SAMPLE = '''
import pytest


@pytest.mark.parametrize("a", (1, 2))
@pytest.mark.parametrize(("b", "c"), [(3, 4), (5, 6)], ids=["low", "high"])
def test_grid(a, b, c):
    assert c == b + 1


@pytest.mark.parametrize("word", ["x", "y, z"])
def test_raises(word):
    with pytest.raises(ValueError, match="bad") as info:
        raise ValueError(f"bad {word}")
    assert str(info.value) == f"bad {word}"


def test_raises_needs_the_exception():
    with pytest.raises(AssertionError, match="DID NOT RAISE"):
        with pytest.raises(KeyError):
            pass


@pytest.mark.skipif(True, reason="never here")
def test_skipped():
    raise AssertionError


def test_fixture(tmp_path):
    raise AssertionError


def test_fails():
    assert 1 == 2


pytest.importorskip("no_such_module_anywhere")


def test_after_the_skip():
    raise AssertionError
'''


def test_the_runner_runs_the_grid_and_skips_what_it_cannot_run(tmp_path):
    sample = tmp_path / "test_sample.py"
    sample.write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(sample)], capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    version = ".".join(map(str, sys.version_info[:3]))
    assert lines[-1] == f"7 passed, 1 failed, 2 skipped (Python {version})"
    assert f"{sample}::test_fails FAILED" in lines
    assert f"{sample}::test_skipped SKIPPED (never here)" in lines
    assert f"{sample}::test_fixture SKIPPED (needs fixture tmp_path)" in lines
    assert (
        f"{sample}: the rest of the file is skipped: no module 'no_such_module_anywhere'"
        in lines
    )
    assert "test_after_the_skip" not in proc.stdout


def test_the_runner_exits_0_when_every_test_passes(tmp_path):
    sample = tmp_path / "test_green.py"
    sample.write_text("def test_one():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(sample)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("1 passed, 0 failed, 0 skipped")
