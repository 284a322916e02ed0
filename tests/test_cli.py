"""End-to-end tests driving the command line through subprocesses."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import survpath.bench
from survpath import gen_from_setcover, matrix_to_instance, packaged_instance, write_spn
from survpath.cli import main

PAIRWISE3 = str(packaged_instance("pairwise3.spn"))
UNCOVERABLE = str(packaged_instance("uncoverable.spn"))

SQUARE_LNET = (
    "lnet 1\n"
    "pnodes s a t b\n"
    "pfibers\n"
    "1 s a\n"
    "2 a t\n"
    "3 t b\n"
    "4 b s\n"
    "lnodes s a t b\n"
    "llinks\n"
    "1 s a: 1\n"
    "2 a t: 2\n"
    "3 t b: 3\n"
    "4 b s: 4\n"
    "st s t\n"
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "survpath", *args],
        capture_output=True,
        text=True,
    )


def test_solve_msp_exact_json():
    proc = run_cli("solve", "msp", "--alg", "exact", "--in", PAIRWISE3)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["objective"] == 3
    assert payload["selected_paths"] == [1, 2, 3]
    assert payload["fibers_used"] == [1, 2, 3]
    assert payload["survivable"] is True
    assert payload["problem"] == "msp"
    assert payload["alg"] == "exact"
    assert payload["seed"] is None
    assert payload["elapsed_us"] == 0


def test_solve_csv_output():
    proc = run_cli("solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--out", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "alg,problem,W,K,trial,seed,objective,survivable,iterations,elapsed_us"
    )
    assert len(lines) == 2
    assert lines[1].startswith("exact,msp,,,1,,3,1,")
    assert lines[1].endswith(",0")


def test_seeded_randomized_solve_is_reproducible():
    args = (
        "solve", "mfsp", "--alg", "rr", "--in", PAIRWISE3,
        "--q", "0.9", "--seed", "42",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["seed"] == 42
    assert payload["objective"] == 3
    assert payload["extra"]["lp_objective"] == pytest.approx(3.0)


def test_infeasible_instance_exits_2():
    proc = run_cli("solve", "msp", "--alg", "greedy", "--in", UNCOVERABLE)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "infeasible" in proc.stderr
    assert "fiber 1" in proc.stderr


def test_randomized_failure_exits_3():
    proc = run_cli(
        "solve", "msp", "--alg", "epsnet", "--in", PAIRWISE3,
        "--seed", "0", "--c", "0.05",
    )
    assert proc.returncode == 3
    assert "randomized search failed (seed=0)" in proc.stderr


def test_measure_time_populates_elapsed():
    proc = run_cli(
        "solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--measure-time"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["elapsed_us"] > 0


def test_verify_survivable_set():
    proc = run_cli("verify", "--in", PAIRWISE3, "--paths", "1,2,3")
    assert proc.returncode == 0
    assert "survivable" in proc.stdout
    assert "3 paths cover all 3 fibers" in proc.stdout


def test_verify_unsurvivable_set_reports_uncovered_fiber():
    proc = run_cli("verify", "--in", PAIRWISE3, "--paths", "1,2")
    assert proc.returncode == 2
    assert "not survivable" in proc.stdout
    assert "uncovered fibers: 2" in proc.stdout


def test_verify_unknown_path_id_is_usage_error():
    proc = run_cli("verify", "--in", PAIRWISE3, "--paths", "1,9")
    assert proc.returncode == 64
    assert "unknown path id 9" in proc.stderr


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("solve", "msp", "--alg", "nope", "--in", PAIRWISE3), "not a msp solver"),
        (("solve", "msp", "--alg", "exact"), "--in"),
        (("solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--w", "0"),
         "max_paths_per_fiber"),
        (("solve", "msp", "--alg", "acg", "--in", PAIRWISE3), "not a msp solver"),
        (("solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--repair"),
         "--repair only applies"),
    ],
)
def test_usage_errors_exit_64(args, fragment):
    proc = run_cli(*args)
    assert proc.returncode == 64
    assert fragment in proc.stderr


def test_solve_from_layered_network_file(tmp_path):
    infile = tmp_path / "square.lnet"
    infile.write_text(SQUARE_LNET)
    proc = run_cli("solve", "msp", "--alg", "exact", "--in", str(infile))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # The square offers two fiber-disjoint routes, so two paths suffice.
    assert payload["objective"] == 2
    assert payload["selected_paths"] == [1, 2]
    assert payload["fibers_used"] == [1, 2, 3, 4]


BENCH_ARGS = (
    "bench", "--problem", "mfsp", "--paths", "8", "--fibers", "12",
    "--w-range", "2..3", "--trials", "2", "--algs", "acg,rsg", "--seed", "11",
)


def test_bench_cli_schema_and_determinism():
    first = run_cli(*BENCH_ARGS)
    second = run_cli(*BENCH_ARGS)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == (
        "alg,problem,W,K,trial,seed,objective,survivable,iterations,elapsed_us"
    )
    # 2 algs x 2 load caps x 2 trials, plus mean and std rows per (alg, W).
    assert len(lines) == 1 + 8 + 8
    assert sum(",mean," in l for l in lines) == 4
    assert sum(",std," in l for l in lines) == 4


def test_bench_cli_rejects_unknown_algorithm():
    proc = run_cli(
        "bench", "--problem", "msp", "--paths", "6", "--fibers", "8",
        "--w-range", "2..2", "--trials", "1", "--algs", "bogus",
    )
    assert proc.returncode == 64
    assert "not a msp solver" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "msp", "--alg", "exact", "--in", PAIRWISE3),
        ("solve", "mfsp", "--alg", "exact", "--in", PAIRWISE3),
        ("bench", "--problem", "msp", "--paths", "6", "--fibers", "8",
         "--w-range", "2..2", "--trials", "1", "--algs", "exact"),
        # The limit is checked before the feasibility check, and by bench
        # even when its grid runs no exact search.
        ("solve", "msp", "--alg", "exact", "--in", UNCOVERABLE),
        ("solve", "mfsp", "--alg", "exact", "--in", UNCOVERABLE),
        ("bench", "--problem", "msp", "--paths", "6", "--fibers", "8",
         "--w-range", "2..2", "--trials", "1"),
    ],
)
def test_negative_node_limit_exits_64(args):
    proc = run_cli(*args, "--node-limit", "-3")
    assert proc.returncode == 64, proc.stderr
    assert "node_limit" in proc.stderr


BAD_SPN = "spn 1\nfibers 2\npath 1: f1 f9\n"
BENCH_SMALL = ("bench", "--paths", "6", "--fibers", "8", "--trials", "1")

# Every error path's exact stderr and exit code: (argv, exit code, stderr,
# stdout).  ``{missing}`` and ``{bad}`` stand for a missing file and a file
# that fails to parse, ``{deep}`` for 1,100 singleton subsets embedded as
# paths, whose only cover takes every path.
ERROR_TABLE = [
    (
        ("solve", "msp", "--alg", "greedy", "--in", UNCOVERABLE), 2,
        "survpath solve: infeasible: instance is infeasible: fiber 1 is used by "
        "every path, so no path set survives its failure\n", "",
    ),
    (
        ("solve", "msp", "--alg", "epsnet", "--in", PAIRWISE3, "--seed", "0", "--c", "0.05"), 3,
        "survpath solve: randomized search failed (seed=0): no survivable sample "
        "after 14 rounds across all size guesses\n", "",
    ),
    # A sampling constant whose sample size is no finite number is a usage
    # error, as a non-positive one is.
    (
        ("solve", "msp", "--alg", "epsnet", "--in", PAIRWISE3, "--c", "nan"), 64,
        "survpath solve: error: sampling constant c=nan gives no finite sample size\n", "",
    ),
    (
        ("solve", "msp", "--alg", "epsnet", "--in", PAIRWISE3, "--c", "inf"), 64,
        "survpath solve: error: sampling constant c=inf gives no finite sample size\n", "",
    ),
    (
        ("solve", "msp", "--alg", "epsnet", "--in", PAIRWISE3, "--c", "1e308"), 64,
        "survpath solve: error: sampling constant c=1e+308 gives no finite sample size\n", "",
    ),
    (
        ("solve", "mfsp", "--alg", "epsnet", "--in", PAIRWISE3, "--w", "2", "--c", "nan"), 64,
        "survpath solve: error: sampling constant c=nan gives no finite sample size\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "2..2", "--algs", "epsnet", "--c", "inf"), 64,
        "survpath bench: error: sampling constant c=inf gives no finite sample size\n", "",
    ),
    (
        ("solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--node-limit", "0"), 3,
        "survpath solve: exact search exceeded its node budget after 1 nodes\n", "",
    ),
    (
        ("solve", "mfsp", "--alg", "exact", "--in", PAIRWISE3, "--node-limit", "2"), 3,
        "survpath solve: exact search exceeded its node budget after 3 nodes\n", "",
    ),
    (
        ("solve", "msp", "--alg", "exact", "--in", "{deep}", "--node-limit", "5000"), 3,
        "survpath solve: exact search exceeded its node budget after 5001 nodes\n", "",
    ),
    (
        ("solve", "msp", "--alg", "exact", "--in", "{missing}"), 64,
        "survpath solve: cannot read instance: [Errno 2] No such file or "
        "directory: '{missing}'\n", "",
    ),
    (
        ("solve", "msp", "--alg", "exact", "--in", "{bad}"), 64,
        "survpath solve: error: bad.spn:3: fiber 9 outside 1..2\n", "",
    ),
    (
        ("solve", "msp", "--alg", "nope", "--in", PAIRWISE3), 64,
        "survpath solve: error: algorithm 'nope' is not a msp solver "
        "(choose from exact, greedy, epsnet)\n", "",
    ),
    (
        ("solve", "msp", "--alg", "exact", "--in", PAIRWISE3, "--repair"), 64,
        "survpath solve: error: --repair only applies to 'mfsp --alg rr'\n", "",
    ),
    (
        ("verify", "--in", PAIRWISE3, "--paths", "1,x"), 64,
        "survpath verify: error: cannot parse --paths '1,x'\n", "",
    ),
    (
        ("verify", "--in", PAIRWISE3, "--paths", "1,9"), 64,
        "survpath verify: error: unknown path id 9\n", "",
    ),
    (
        ("verify", "--in", PAIRWISE3, "--paths", "1,2"), 2,
        "", "not survivable: uncovered fibers: 2\n",
    ),
    (
        ("verify", "--in", "{missing}", "--paths", "1"), 64,
        "survpath verify: cannot read instance: [Errno 2] No such file or "
        "directory: '{missing}'\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "3..2"), 64,
        "survpath bench: error: bad --w-range '3..2': need 1 <= A <= B\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "x"), 64,
        "survpath bench: error: cannot parse --w-range 'x'; expected A..B\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "2..2", "--algs", ","), 64,
        "survpath bench: error: --algs must name at least one algorithm\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "2..2", "--algs", "bogus"), 64,
        "survpath bench: error: algorithm 'bogus' is not a mfsp solver "
        "(choose from exact, acg, nacg, rsg, rr, epsnet)\n", "",
    ),
    # bench maps errors as solve and verify do: an infeasible ensemble exits
    # 2, and every message names the command.
    (
        ("bench", "--paths", "2", "--fibers", "3", "--w-range", "2..2", "--trials", "5"), 2,
        "survpath bench: infeasible: instance is infeasible: fiber 1 is used by "
        "every path, so no path set survives its failure\n", "",
    ),
    (
        (*BENCH_SMALL, "--w-range", "2..2", "--node-limit", "-3"), 64,
        "survpath bench: error: node_limit must be >= 0, got -3\n", "",
    ),
]


@pytest.mark.parametrize("args, code, stderr, stdout", ERROR_TABLE)
def test_error_paths_print_exact_messages_and_exit_codes(tmp_path, args, code, stderr, stdout):
    bad = tmp_path / "bad.spn"
    bad.write_text(BAD_SPN)
    deep = tmp_path / "deep.spn"
    if "{deep}" in args:
        singletons = gen_from_setcover(1100, [[i] for i in range(1, 1101)])
        write_spn(matrix_to_instance(singletons), deep)
    names = {"missing": str(tmp_path / "missing.spn"), "bad": str(bad), "deep": str(deep)}
    proc = run_cli(*(arg.format(**names) for arg in args))
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        code, stderr.format(**names), stdout
    )


class _BrokenStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--in", PAIRWISE3, "--paths", "1,2,3"],
        ["solve", "msp", "--alg", "exact", "--in", PAIRWISE3],
    ],
)
def test_failed_output_write_is_not_an_unreadable_instance(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(argv)
    assert capsys.readouterr().err == ""


def test_bench_os_error_is_not_an_unreadable_instance(monkeypatch, capsys):
    # bench reads no file: an OSError there, such as a platform without
    # process-pool support, propagates instead of blaming an instance.
    def no_pool(**kwargs):
        raise OSError(38, "Function not implemented")

    monkeypatch.setattr(survpath.bench, "run_experiment", no_pool)
    with pytest.raises(OSError, match="Function not implemented"):
        main([*BENCH_SMALL, "--w-range", "2..2"])
    assert capsys.readouterr().err == ""
