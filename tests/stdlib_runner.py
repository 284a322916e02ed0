"""Run test files on an interpreter that has no pytest.

    PYTHONPATH=src python3.10 tests/stdlib_runner.py tests/test_greedy_first_pick.py

Puts a stand-in ``pytest`` module in ``sys.modules`` with what the tests that
take no fixture use: ``raises`` (with ``match``), ``mark.parametrize`` (with
``ids``, which are ignored), ``mark.skipif`` and ``importorskip``.  It then
runs every ``test_*`` function of each file, once per combination of its
parameters, in the order the file defines them.

- A test with an argument that no ``parametrize`` supplies needs a fixture,
  and is skipped.
- A module-level ``importorskip`` of a missing module ends that file there:
  the tests defined above it still run.

Prints one traceback per failure and a summary line, and exits with 1 when a
test failed or a file did not load.  Standard library only.
"""

from __future__ import annotations

import inspect
import itertools
import os
import re
import sys
import traceback
import types


class Skipped(Exception):
    """A test, or the rest of a file, cannot run here."""


class _Raises:
    def __init__(self, expected, *, match: str | None = None) -> None:
        self.expected = expected
        self.match = match
        self.type = self.value = None

    def __enter__(self) -> "_Raises":
        return self

    def __exit__(self, kind, value, tb) -> bool:
        if kind is None:
            raise AssertionError(f"DID NOT RAISE {self.expected!r}")
        if not issubclass(kind, self.expected):
            return False
        if self.match is not None and not re.search(self.match, str(value)):
            raise AssertionError(f"{str(value)!r} does not match {self.match!r}")
        self.type, self.value = kind, value
        return True


def _parametrize(names, values, *, ids=None):
    if isinstance(names, str):
        names = [name.strip() for name in names.split(",")]
    names = list(names)
    rows = [dict(zip(names, value if len(names) > 1 else (value,))) for value in values]

    def mark(func):
        # Decorators apply bottom up; the order of the grid does not matter.
        func.__dict__.setdefault("_stdlib_grid", []).append(rows)
        return func

    return mark


def _skipif(condition, *, reason: str = ""):
    def mark(func):
        if condition:
            func._stdlib_skip = reason or "skipif"
        return func

    return mark


def _importorskip(name: str):
    try:
        return __import__(name)
    except ImportError:
        raise Skipped(f"no module {name!r}") from None


def _stand_in() -> types.ModuleType:
    module = types.ModuleType("pytest")
    module.raises = _Raises
    module.importorskip = _importorskip
    module.mark = types.SimpleNamespace(parametrize=_parametrize, skipif=_skipif)
    return module


def _cases(func):
    """(label, kwargs) per parameter combination, or a skip reason."""
    skip = getattr(func, "_stdlib_skip", None)
    if skip is not None:
        yield func.__name__, skip
        return
    wanted = set(inspect.signature(func).parameters)
    for combo in itertools.product(*getattr(func, "_stdlib_grid", [])):
        kwargs: dict = {}
        for row in combo:
            kwargs.update(row)
        label = func.__name__
        if kwargs:
            label += "[" + "-".join(f"{value!r}"[:30] for value in kwargs.values()) + "]"
        missing = sorted(wanted - set(kwargs))
        yield label, kwargs if not missing else f"needs fixture {', '.join(missing)}"


def run_file(path: str, tally: dict[str, int]) -> None:
    name = os.path.splitext(os.path.basename(path))[0]
    sys.path.insert(0, os.path.dirname(os.path.abspath(path)))
    module = types.ModuleType(name)
    module.__file__ = path
    sys.modules[name] = module
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    try:
        exec(code, module.__dict__)
    except Skipped as exc:
        print(f"{path}: the rest of the file is skipped: {exc}")
    except Exception:
        tally["failed"] += 1
        print(f"{path}: does not load\n{traceback.format_exc()}")
        return
    tests = [
        value for key, value in list(module.__dict__.items())
        if key.startswith("test") and inspect.isfunction(value)
    ]
    for func in tests:
        for label, kwargs in _cases(func):
            if isinstance(kwargs, str):
                tally["skipped"] += 1
                print(f"{path}::{label} SKIPPED ({kwargs})")
                continue
            try:
                func(**kwargs)
            except Skipped as exc:
                tally["skipped"] += 1
                print(f"{path}::{label} SKIPPED ({exc})")
            except Exception:
                tally["failed"] += 1
                print(f"{path}::{label} FAILED\n{traceback.format_exc()}")
            else:
                tally["passed"] += 1


def main(paths: list[str]) -> int:
    sys.modules["pytest"] = _stand_in()
    tally = {"passed": 0, "failed": 0, "skipped": 0}
    for path in paths:
        run_file(path, tally)
    version = ".".join(map(str, sys.version_info[:3]))
    print(", ".join(f"{count} {state}" for state, count in tally.items()) + f" (Python {version})")
    return 1 if tally["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
