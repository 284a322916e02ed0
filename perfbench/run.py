"""Seeded benchmark of survpath: one workload, one seed, one closed-loop client.

Run from the root of a survpath checkout (the package is imported from
``src/`` there; nothing needs installing)::

    python3 perfbench/run.py --workload setcover-msp --seed 1 --seconds 20 --trace 0

Set-up draws the workload's instances from ``--seed``, writes them as
``.spn``/``.lnet`` files under ``.perfbench/`` and warms up.  The run then
plays one job per instance, in a fixed order, one at a time, repeating the list
until ``--seconds`` have passed (the list always completes once).  Every
output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics and times the workload's CLI
command in fresh ``python -m survpath`` subprocesses.  ``--trace 1`` plays each
job traced and untraced in turn, reports per-layer self times, work counts and
the tracing overhead, times the CLI's parts (interpreter start, import,
in-process ``main``), and writes its spans to ``.perfbench/``.  Both print a
table and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from random import Random
from time import perf_counter

from calibrate import Calibration
from spans import NullTracer, Tracer

SETUP_REPS = 3
# Between jobs the reference kernel runs at most this often (about 3% of a run).
CALIBRATE_EVERY = 0.05
COUNTS = (
    ("formats.bytes_read", "bytes"),
    ("pathing.paths", "count"),
    ("model.matrix_cells", "cells"),
    ("model.nnz", "count"),
    ("lp.tableau_cells", "cells-computed"),
    ("msp.exact_nodes", "count"),
    ("msp.exact_dnf", "count"),
    ("msp.greedy_steps", "count"),
    ("msp.epsnet_rounds", "count"),
    ("msp.epsnet_failed", "count"),
    ("mfsp.exact_nodes", "count"),
    ("mfsp.exact_dnf", "count"),
    ("mfsp.greedy_steps", "count"),
    ("mfsp.rsg_removals", "count"),
    ("mfsp.rr_repair_added", "count"),
)
SPANS = (
    "formats.read", "pathing.enumerate", "model.matrix", "lp.relaxation",
    "msp.exact", "msp.greedy", "msp.epsnet",
    "mfsp.exact", "mfsp.greedy", "mfsp.rsg", "mfsp.rr", "model.report", "job",
)
LAYERS = ("formats", "pathing", "model", "lp", "msp", "mfsp")
ITERATION_COUNTS = {
    "msp.exact": "msp.exact_nodes",
    "msp.greedy": "msp.greedy_steps",
    "msp.epsnet": "msp.epsnet_rounds",
    "mfsp.exact": "mfsp.exact_nodes",
    "mfsp.greedy": "mfsp.greedy_steps",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tally(counts: Counter, inst, out) -> None:
    """Add one first-pass job's work counts; they repeat exactly per seed."""
    counts["formats.bytes_read"] += len(inst.text.encode())
    m, n = out.matrix.num_fibers, out.matrix.num_paths
    nnz = sum(mask.bit_count() for mask in out.matrix.used_masks)
    if out.enumerated:
        counts["pathing.paths"] += n
    counts["model.matrix_cells"] += m * n
    counts["model.nnz"] += nnz
    if out.relaxation is not None:
        # Initial dense tableau of lp.solve_mfsp_relaxation: one row per cover,
        # link and upper-bound constraint; columns p, f, surplus, link slack,
        # bound slack, artificial, right-hand side.
        counts["lp.tableau_cells"] += (m + nnz + n) * (4 * m + 2 * n + nnz + 1)
    for label, report in out.reports:
        if label in ITERATION_COUNTS:
            counts[ITERATION_COUNTS[label]] += report.iterations
        elif label == "mfsp.rsg":
            counts["mfsp.rsg_removals"] += len(report.extra["removed"])
        elif label == "mfsp.rr":
            counts["mfsp.rr_repair_added"] += len(report.extra.get("repair_added", ()))
        if not label.endswith(".exact"):
            counts["objective_sum"] += report.objective


class Play:
    """Outcome of playing the job list: latencies, failures, counts, digest."""

    def __init__(self, size: int) -> None:
        self.latencies: list[float] = []
        self.traced: list[float] = []
        self.pairs: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.digests: list[str | None] = [None] * size
        self.reports: dict[int, list] = {}

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        for d in self.digests:
            h.update((d or "failed").encode())
        return h.hexdigest()

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"job {index}: {message}")


def play(wl, jobs, seconds: float, tracer, calib: Calibration) -> Play:
    """Play the job list in order, in whole passes, at least once and then
    again while the next pass should still end within ``seconds``.  Whole
    passes keep the instance mix the same whatever the machine's speed.

    With a tracer every job runs traced, and every fourth job also runs
    untraced, before or after its traced run in turn, to measure the tracing
    overhead.  The reports of every feasible instance are kept for the CLI
    checks.  ``calib`` times the reference kernel between jobs.
    """
    from survpath import SurvPathError
    from workloads import CheckFailed, SolverGaveUp

    null = NullTracer()
    size = len(jobs)
    result = Play(size)
    start = pass_start = perf_counter()
    i = 0
    while True:
        index = i % size
        if i and not index:
            now = perf_counter()
            if 2 * now - start - pass_start > seconds:
                break
            pass_start = now
        inst, path = jobs[index]
        if tracer is None:
            sides = (null,)
        elif index % 4:
            sides = (tracer,)
        else:
            sides = (tracer, null) if index % 8 else (null, tracer)
        timed = {}
        for tr in sides:
            result.attempted += 1
            tr.job = i
            t0 = perf_counter()
            try:
                with tr.span("job"):
                    out = wl.run(inst, path, tr)
            except SolverGaveUp as exc:
                if i < size and tr is sides[0]:
                    result.counts[exc.counter] += 1
                result.fail(index, str(exc))
                continue
            except Exception:  # noqa: BLE001 - keep playing, report the traceback
                result.fail(index, traceback.format_exc(limit=3))
                continue
            timed[tr is tracer] = perf_counter() - t0
            digest = hashlib.blake2b("\n".join(out.texts).encode(), digest_size=16).hexdigest()
            if result.digests[index] is None:
                try:
                    wl.check(inst, out, index)
                except (CheckFailed, SurvPathError) as exc:
                    result.fail(index, str(exc))
                    continue
                result.digests[index] = digest
                _tally(result.counts, inst, out)
                if out.infeasible is None:
                    result.reports[index] = out.reports
            elif digest != result.digests[index]:
                result.fail(index, "output differs from the first run of the same instance")
        if True in timed:
            result.traced.append(timed[True])
        if False in timed:
            result.latencies.append(timed[False])
        if len(timed) == 2:
            result.pairs.append((timed[True], timed[False]))
        calib.sample(CALIBRATE_EVERY)
        i += 1
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_cli(args, env, cwd):
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    return perf_counter() - t0, proc


def cli_jobs(wl, result: Play) -> list[int]:
    """The feasible instances whose solver work (summed iteration counts, which
    repeat exactly per seed) lies closest to the median: typical instances, so
    that the CLI's median wall time does not hinge on a few outliers."""
    work = {i: sum(r.iterations for _, r in reports) for i, reports in result.reports.items()}
    mid = _median(list(work.values()))
    return sorted(sorted(work, key=lambda i: (abs(work[i] - mid), i))[: wl.cli_runs])


def cli_end_to_end(wl, jobs, result: Play, env, cwd) -> tuple[list[float], list[str]]:
    """Wall time of the workload's CLI command, one fresh subprocess at a time."""
    from workloads import CheckFailed

    times, problems = [], []
    for index in cli_jobs(wl, result):
        inst, path = jobs[index]
        elapsed, proc = _run_cli(["-m", "survpath", *wl.cli_args(inst, path)], env, cwd)
        times.append(elapsed)
        try:
            if proc.returncode != 0:
                raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
            wl.check_cli(proc.stdout, result.reports[index])
        except (CheckFailed, ValueError, KeyError) as exc:
            problems.append(f"cli on job {index}: {exc}")
    return times, problems


def cli_parts(wl, jobs, result: Play, env, cwd):
    """Interpreter start, package import and in-process ``main`` of the CLI."""
    import survpath.cli
    from workloads import CheckFailed

    interp, imported, main_times, problems = [], [], [], []
    bench = {}
    for index in cli_jobs(wl, result):
        inst, path = jobs[index]
        interp.append(_run_cli(["-c", "pass"], env, cwd)[0])
        imported.append(_run_cli(["-c", "import survpath.cli"], env, cwd)[0])
        args = wl.cli_args(inst, path)
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = survpath.cli.main(args)
        main_times.append(perf_counter() - t0)
        try:
            if code != 0:
                raise CheckFailed(f"in-process main exited {code}")
            wl.check_cli(buf.getvalue(), result.reports[index])
            if hasattr(wl, "bench_args") and not bench:
                bench = bench_in_process(wl, inst.solver_seed, buf.getvalue())
        except (CheckFailed, ValueError, KeyError) as exc:
            problems.append(f"cli main on job {index}: {exc}")
    metrics = {
        "cli.interp_s": (_median(interp), "s"),
        "cli.import_s": (_median(imported) - _median(interp), "s"),
        "cli.main_s": (_median(main_times), "s"),
    }
    return metrics, bench, problems


def bench_in_process(wl, seed: int, cli_csv: str) -> dict:
    """``run_experiment`` with the workload's ``bench`` arguments; its CSV
    must match what the CLI printed for the same arguments."""
    from survpath import run_experiment
    from workloads import NODE_LIMIT, CheckFailed

    t0 = perf_counter()
    result = run_experiment(
        problem="mfsp", algs=("rr", "nacg", "exact"), num_paths=wl.paths,
        num_fibers=wl.fibers, w_values=(2, 3), trials=2, seed=seed,
        node_limit=NODE_LIMIT, workers=int(os.environ["SURVPATH_THREADS"]),
    )
    elapsed = perf_counter() - t0
    if result.to_csv() != cli_csv:
        raise CheckFailed("run_experiment CSV differs from the bench command's")
    return {"bench.experiment_s": elapsed, "bench.rows": len(result.rows)}


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<24} {shown:>14} {unit:<15} {note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "survpath", "__init__.py")):
        print("perfbench: run from the root of a survpath checkout (no src/survpath here)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # The bench command's process pool gets no more workers than CPUs.
    os.environ["SURVPATH_THREADS"] = env["SURVPATH_THREADS"] = str(min(2, os.cpu_count() or 1))

    t0 = perf_counter()
    import survpath.cli  # noqa: F401 - timed as part of set-up
    from workloads import WORKLOADS

    import_s = perf_counter() - t0
    if not os.path.abspath(survpath.__file__).startswith(src + os.sep):
        print(f"perfbench: imported survpath from {survpath.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=workdir) as instdir:
        # Set-up: draw, serialise and write the instances, then warm up on the
        # first one.  Repeated, so set-up time is a median; every repetition
        # must write the same files.
        setup_times, text_digests = [], set()
        for _ in range(SETUP_REPS):
            instances = jobs = None
            t0 = perf_counter()
            instances = wl.generate(Random(f"{wl.name}:{args.seed}"), wl.instances_per_list)
            jobs = []
            for n, inst in enumerate(instances):
                path = os.path.join(instdir, f"{n:04d}{wl.suffix}")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(inst.text)
                jobs.append((inst, path))
            try:
                wl.run(*jobs[0], NullTracer())
            except Exception:  # noqa: BLE001 - the measured run reports it as a failed job
                pass
            setup_times.append(perf_counter() - t0)
            text_digests.add(hashlib.blake2b("".join(i.text for i in instances).encode()).hexdigest())
        setup_s = import_s + statistics.median(setup_times)
        # Keep the collector from rescanning the benchmark's own set-up data
        # inside every timed job.
        gc.collect()
        gc.freeze()

        tracer = Tracer() if args.trace else None
        calib = Calibration()
        result = play(wl, jobs, args.seconds, tracer, calib)
        scale = calib.scale()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = list(result.problems)
        if len(text_digests) != 1:
            problems.append("set-up drew different instances from the same seed")
        if tracer is None:
            cli_times, cli_problems = cli_end_to_end(wl, jobs, result, env, root)
        else:
            cli_metrics, bench, cli_problems = cli_parts(wl, jobs, result, env, root)
        problems += cli_problems
        if len(result.reports) < wl.cli_runs:
            problems.append(f"only {len(result.reports)} feasible jobs for {wl.cli_runs} CLI runs")

    correct = not problems and result.failed == 0
    header = (
        f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"jobs in list={len(jobs)} client=1 closed loop"
    )
    print(header)
    print(f"  output digest            blake2b:{result.digest()}")
    lat = result.latencies
    if tracer is None:
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else _median(lat)
        beyond = sum(1 for x in lat if x > p90)
        busy = sum(lat)
        metrics = {
            "instances_per_s": (len(lat) / (busy * scale) if lat else 0.0, "jobs/s"),
            "instance_p50_s": (_median(lat) * scale, "s"),
            "instance_p90_s": (p90 * scale, "s"),
            "cli_s": (_median(cli_times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "objective_sum": (float(result.counts["objective_sum"]), "paths/fibers"),
        }
        notes = {
            "instances_per_s": f"raw {len(lat) / busy:.4g}: {len(lat)} jobs / {busy:.3f} s busy",
            "instance_p50_s": f"raw {_median(lat):.4g}, n={len(lat)}",
            "instance_p90_s": f"raw {p90:.4g}, n={len(lat)}, {beyond} beyond",
            "cli_s": f"n={len(cli_times)} subprocesses: "
                     f"{' '.join(wl.cli_args(jobs[0][0], 'FILE')[:4])} ...",
            "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPS} draws+writes+warm-up",
            "peak_rss_mb": "ru_maxrss of this process",
            "objective_sum": "non-exact solvers, first pass of the list",
        }
        rows = [(k, v, u, notes[k]) for k, (v, u) in metrics.items()]
        rows.append(("failed_frac", result.failed / max(result.attempted, 1), "ratio",
                     f"{result.failed} failed / {result.attempted} attempted"))
        _print_table(f"end-to-end, untraced; job times in reference seconds (scale {scale:.3f})", rows)
    else:
        st = tracer.self_times()
        traced = len(result.traced)
        job_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == "job")
        per_job = {name: st.get(name, 0.0) * scale / max(traced, 1) for name in SPANS}
        paired_traced = sum(t for t, _ in result.pairs)
        paired_plain = sum(u for _, u in result.pairs)
        overhead = paired_traced / paired_plain - 1.0 if result.pairs else 0.0
        metrics = {
            "formats.read_s": (per_job["formats.read"], "s"),
            "model.matrix_s": (per_job["model.matrix"], "s"),
            "model.report_s": (per_job["model.report"], "s"),
            **cli_metrics,
        }
        for layer in LAYERS:
            own = sum(v for k, v in st.items() if k.split(".")[0] == layer)
            metrics[f"{layer}.self_share"] = (own / job_total if job_total else 0.0, "ratio")
        for name, unit in COUNTS:
            metrics[name] = (result.counts[name], unit)
        cells = result.counts["model.matrix_cells"]
        metrics["model.fill"] = (result.counts["model.nnz"] / cells if cells else 0.0, "ratio")
        metrics["bench.rows"] = (bench.get("bench.rows", 0), "count")
        metrics["trace.overhead"] = (overhead, "ratio")
        _print_table(
            f"per-layer self time per traced job, in reference seconds (n={traced}; "
            f"spans around library calls; scale {scale:.3f})",
            [(f"{name}_s", per_job[name], "s", "") for name in SPANS]
            + [("bench.experiment_s", bench.get("bench.experiment_s", 0.0), "s",
                "in-process run_experiment, bench arguments")],
        )
        _print_table("per-layer metrics", [(k, v, u, "") for k, (v, u) in metrics.items()])
        print(f"  tracing overhead: traced {paired_traced:.3f} s vs untraced "
              f"{paired_plain:.3f} s over the same {len(result.pairs)} jobs")
        tracer.write_jsonl(os.path.join(workdir, f"spans-{wl.name}-seed{args.seed}.jsonl"))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
