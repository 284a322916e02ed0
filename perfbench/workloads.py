"""The benchmark's four workloads.

Each workload draws its instances from the run's seed, serialises them as
``.spn`` / ``.lnet`` text (the library sees nothing else), defines the job one
instance runs through the library, and checks every output with the
benchmark's own set arithmetic, outside the timed region.

Why these four: each stresses a different layer, and on each the layers it
does not stress are predicted not to move.

* ``setcover-msp``: set-cover embeddings, where the MSP branch-and-bound does
  most of the work and epsilon-net sampling at a small ``c`` draws fewer paths
  than the instance has, so its multiplicative-weights loop really reweights.
* ``gadget-mfsp``: 3-set-cover gadgets, the paper's MFSP hardness structure,
  where the MFSP branch-and-bound dominates and the heuristics' footprints
  are far from optimal; the optimum decodes to a checkable cover size.
* ``lnet-scale``: random layered networks with K-restricted enumeration, where
  parsing, enumeration and the O(m*n) survival-matrix build do almost all the
  work on few, large matrices.
* ``ensemble-rr``: the W-capped random parallel ensemble, the only workload
  that runs the exact-rational LP and the process-parallel ``bench`` command.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from random import Random

from survpath import (
    InfeasibleInstanceError,
    Limits,
    RandomEnsembleConfig,
    RandomizedFailureError,
    SearchBudgetExceeded,
    decode_gadget_objective,
    enumerate_paths_k_restricted,
    enumerate_paths_unrestricted,
    gen_mfsp_3setcover_gadget,
    gen_random_parallel,
    read_lnet,
    read_spn,
    residual_survivability_check,
    solve_mfsp_relaxation,
    solve_named,
    write_lnet,
)
from survpath.bench import CSV_COLUMNS

# Exact searches stop here; every instance these generators draw stays far
# below it, so a search that reaches it is a regression and fails its job.
NODE_LIMIT = 2_000_000


class CheckFailed(Exception):
    """An output of the library disagrees with the benchmark's own check."""


class SolverGaveUp(Exception):
    """An exact search ran out of nodes or a sampler exhausted its schedule."""

    def __init__(self, counter: str, cause: Exception) -> None:
        super().__init__(f"{counter}: {cause}")
        self.counter = counter


@dataclass(frozen=True)
class Instance:
    """One generated instance and what the benchmark knows about it.

    ``candidates`` are the candidate paths' fiber sets in path-id order, as
    masks with bit f set when the path uses fiber f.  The benchmark derives
    them itself (from its own draw or its own path enumeration), never from
    the library.
    """

    text: str
    num_fibers: int
    candidates: tuple[int, ...]
    solver_seed: int
    k: int | None = None
    cover: int | None = None
    elements: int = 0
    chain: int = 0
    triples: tuple[tuple[int, int, int], ...] = ()


@dataclass
class Output:
    """What one job produced: the library's catalog and matrix, each solver's
    report with its serialised JSON, and the relaxation when one was solved."""

    catalog: object = None
    matrix: object = None
    net: object = None
    enumerated: bool = False
    reports: list = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    relaxation: object = None
    infeasible: InfeasibleInstanceError | None = None


def _solve(out: Output, tr, span: str, problem: str, alg: str, mat, limits, **kw) -> None:
    with tr.span(span):
        try:
            report = solve_named(problem, alg, mat, limits, **kw)
        except SearchBudgetExceeded as exc:
            raise SolverGaveUp(f"{span}_dnf", exc) from exc
        except RandomizedFailureError as exc:
            raise SolverGaveUp(f"{span}_failed", exc) from exc
    out.reports.append((span, report))


def _serialise(out: Output, tr) -> None:
    with tr.span("model.report"):
        out.texts = [json.dumps(r.to_dict(), sort_keys=True) for _, r in out.reports]


# ---------------------------------------------------------------------------
# Instance text and the benchmark's own path enumeration
# ---------------------------------------------------------------------------


def spn_text(num_fibers: int, fiber_sets, w: int | None = None) -> str:
    lines = ["spn 1", f"fibers {num_fibers}"]
    if w is not None:
        lines.append(f"w {w}")
    for j, fibers in enumerate(fiber_sets, start=1):
        lines.append(f"path {j}: " + " ".join(f"f{f}" for f in sorted(fibers)))
    return "\n".join(lines) + "\n"


def candidate_paths(links, routes, source, sink, directed, cap=None):
    """Every simple source-sink path over ``links`` whose fiber union has at
    most ``cap`` fibers, as (link ids, fiber mask) in link-sequence order."""
    adjacency: dict[str, list[tuple[int, str]]] = {}
    for k, (u, v) in enumerate(links, start=1):
        adjacency.setdefault(u, []).append((k, v))
        if not directed:
            adjacency.setdefault(v, []).append((k, u))
    route_masks = [fiber_mask(route) for route in routes]
    found = []
    nodes, ks, masks = [source], [], [0]
    pending = [iter(adjacency.get(source, ()))]
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            nodes.pop()
            masks.pop()
            if ks:
                ks.pop()
            continue
        k, nxt = step
        if nxt in nodes:
            continue
        merged = masks[-1] | route_masks[k - 1]
        if cap is not None and merged.bit_count() > cap:
            continue
        if nxt == sink:
            found.append((tuple(ks) + (k,), merged))
            continue
        nodes.append(nxt)
        ks.append(k)
        masks.append(merged)
        pending.append(iter(adjacency.get(nxt, ())))
    found.sort()
    return found


def fiber_mask(fibers) -> int:
    """The benchmark's own set encoding: bit f stands for fiber f."""
    return sum(1 << f for f in set(fibers))


# ---------------------------------------------------------------------------
# Checks shared by every workload
# ---------------------------------------------------------------------------


def _check_catalog(inst: Instance, out: Output) -> None:
    got = tuple(fiber_mask(p.fibers_used) for p in out.catalog.paths)
    if got != inst.candidates:
        raise CheckFailed(
            f"library has {len(got)} candidate paths, the benchmark derived "
            f"{len(inst.candidates)} (or their fiber sets differ)"
        )
    if out.matrix.num_paths != len(got) or out.matrix.num_fibers != inst.num_fibers:
        raise CheckFailed("survival matrix dimensions do not match the instance")


def _check_report(inst: Instance, label: str, report) -> None:
    """Recompute survivability and the objective from the candidates' fiber sets."""
    selected = report.solution.selected
    if not selected or list(selected) != sorted(set(selected)):
        raise CheckFailed(f"{label}: selection {selected!r} is empty or not sorted")
    if not all(1 <= j <= len(inst.candidates) for j in selected):
        raise CheckFailed(f"{label}: selection names an unknown path")
    common, footprint = -1, 0
    for j in selected:
        common &= inst.candidates[j - 1]
        footprint |= inst.candidates[j - 1]
    # A fiber kills the whole selection exactly when every selected path uses it.
    if common:
        raise CheckFailed(f"{label}: selection does not survive every fiber failure")
    if fiber_mask(report.solution.fibers_used) != footprint:
        raise CheckFailed(f"{label}: reported fiber footprint is wrong")
    expected = len(selected) if report.problem == "msp" else footprint.bit_count()
    if report.objective != expected or not report.solution.survivable:
        raise CheckFailed(f"{label}: objective {report.objective}, recomputed {expected}")


def _check_exact_first(out: Output) -> None:
    exact = [r.objective for label, r in out.reports if label.endswith(".exact")]
    if exact:
        worse = [label for label, r in out.reports if r.objective < exact[0]]
        if worse:
            raise CheckFailed(f"{worse[0]} beat the exact optimum {exact[0]}")


def _check_infeasible(inst: Instance, out: Output) -> None:
    fiber = out.infeasible.fiber
    if not inst.candidates or not all(c >> fiber & 1 for c in inst.candidates):
        raise CheckFailed(f"library called fiber {fiber} infeasible, but some path avoids it")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named instance family, the job each instance runs, and its checks."""

    name = ""
    suffix = ".spn"
    instances_per_list = 0
    cli_runs = 9

    def generate(self, rng: Random, count: int) -> list[Instance]:
        raise NotImplementedError

    def run(self, inst: Instance, path: str, tr) -> Output:
        raise NotImplementedError

    def check(self, inst: Instance, out: Output, index: int) -> None:
        """Check the first run of job ``index``; raises :class:`CheckFailed`."""
        _check_catalog(inst, out)
        if out.infeasible is not None:
            _check_infeasible(inst, out)
            return
        for label, report in out.reports:
            _check_report(inst, label, report)
        _check_exact_first(out)

    def cli_args(self, inst: Instance, path: str) -> list[str]:
        raise NotImplementedError

    def check_cli(self, stdout: str, reports) -> None:
        """The CLI's JSON must equal the job's report for the same solver."""
        payload = json.loads(stdout)
        alg = payload.pop("alg")
        wanted = [r for _, r in reports if r.algorithm.endswith("_" + alg)]
        if not wanted or payload != json.loads(json.dumps(wanted[0].to_dict())):
            raise CheckFailed(f"CLI output for {alg} differs from the library's report")


def _read_spn(path: str, tr, out: Output):
    with tr.span("formats.read"):
        inst = read_spn(path)
    with tr.span("model.matrix"):
        out.matrix = inst.matrix()
    out.catalog = inst.catalog
    return inst.limits


class SetCoverMSP(Workload):
    """Random set-cover embeddings: path j survives fiber i iff subset j holds
    element i, so minimum survivable path sets are minimum covers."""

    name = "setcover-msp"
    instances_per_list = 600
    elements = 34
    density = 0.25
    epsnet_c = 0.1

    def generate(self, rng: Random, count: int) -> list[Instance]:
        out = []
        ground = range(1, self.elements + 1)
        for _ in range(count):
            subsets = [{e for e in ground if rng.random() < self.density} for _ in ground]
            for subset in subsets:
                if not subset:
                    subset.add(rng.choice(ground))
            for e in sorted(set(ground) - set().union(*subsets)):
                rng.choice(subsets).add(e)
            fiber_sets = [set(ground) - s for s in subsets]
            out.append(
                Instance(
                    text=spn_text(self.elements, fiber_sets),
                    num_fibers=self.elements,
                    candidates=tuple(map(fiber_mask, fiber_sets)),
                    solver_seed=rng.randrange(2**31),
                )
            )
        return out

    def run(self, inst: Instance, path: str, tr) -> Output:
        out = Output()
        limits = _read_spn(path, tr, out)
        mat = out.matrix
        _solve(out, tr, "msp.exact", "msp", "exact", mat, limits, node_limit=NODE_LIMIT)
        _solve(out, tr, "msp.greedy", "msp", "greedy", mat, limits)
        _solve(out, tr, "msp.epsnet", "msp", "epsnet", mat, limits,
               seed=inst.solver_seed, c=self.epsnet_c)
        _serialise(out, tr)
        return out

    def cli_args(self, inst, path):
        return ["solve", "msp", "--alg", "exact", "--in", path, "--node-limit", str(NODE_LIMIT)]


def min_cover_size(elements: int, triples) -> int:
    """Brute-force minimum number of triples covering 1..elements."""
    full = (1 << elements) - 1
    masks = sorted({sum(1 << (e - 1) for e in t) for t in triples})
    for size in range(1, len(masks) + 1):
        for combo in combinations(masks, size):
            union = 0
            for mask in combo:
                union |= mask
            if union == full:
                return size
    raise ValueError("triples do not cover the ground set")


class GadgetMFSP(Workload):
    """3-set-cover gadgets whose minimum fiber count encodes a minimum cover."""

    name = "gadget-mfsp"
    suffix = ".lnet"
    instances_per_list = 130
    elements = 12
    triples = 15

    def generate(self, rng: Random, count: int) -> list[Instance]:
        out = []
        m, n = self.elements, self.triples
        chain = 3 * m + 3 * n
        for _ in range(count):
            while True:
                triples = tuple(tuple(sorted(rng.sample(range(1, m + 1), 3))) for _ in range(n))
                if len({e for t in triples for e in t}) == m:
                    break
            net, _ = gen_mfsp_3setcover_gadget(m, triples, chain)
            buf = io.StringIO()
            write_lnet(net, buf)
            paths = candidate_paths(
                net.logical.links, net.routing.routes, net.logical.source,
                net.logical.sink, net.logical.directed,
            )
            out.append(
                Instance(
                    text=buf.getvalue(),
                    num_fibers=net.num_fibers,
                    candidates=tuple(mask for _, mask in paths),
                    solver_seed=rng.randrange(2**31),
                    cover=min_cover_size(m, triples),
                    elements=m,
                    chain=chain,
                    triples=triples,
                )
            )
        return out

    def run(self, inst: Instance, path: str, tr) -> Output:
        out = Output(enumerated=True)
        with tr.span("formats.read"):
            net = read_lnet(path)
        with tr.span("pathing.enumerate"):
            out.catalog = enumerate_paths_unrestricted(net)
        with tr.span("model.matrix"):
            out.matrix = mat = out.catalog.matrix(net.num_fibers)
        limits = Limits()
        _solve(out, tr, "mfsp.exact", "mfsp", "exact", mat, limits, node_limit=NODE_LIMIT)
        _solve(out, tr, "mfsp.greedy", "mfsp", "acg", mat, limits)
        _solve(out, tr, "mfsp.greedy", "mfsp", "nacg", mat, limits)
        _solve(out, tr, "mfsp.rsg", "mfsp", "rsg", mat, limits, seed=inst.solver_seed)
        _serialise(out, tr)
        return out

    def check(self, inst: Instance, out: Output, index: int) -> None:
        super().check(inst, out, index)
        optimum = out.reports[0][1].objective
        decoded = decode_gadget_objective(optimum, inst.elements, inst.chain, inst.triples)
        if decoded != inst.cover:
            raise CheckFailed(f"gadget optimum {optimum} decodes to {decoded}, brute force says {inst.cover}")

    def cli_args(self, inst, path):
        return ["solve", "mfsp", "--alg", "exact", "--in", path, "--node-limit", str(NODE_LIMIT)]


def layered_network(rng: Random, *, pnodes: int, fibers: int, layers: int, width: int, degree: int):
    """Random connected physical graph plus a layered logical demand.

    The physical graph is a random spanning tree plus random extra fibers.
    Logical nodes are distinct physical nodes: a source, ``layers`` layers of
    ``width`` nodes and a sink.  The source links to every first-layer node,
    every node links to ``degree`` random nodes of the next layer, and every
    last-layer node links to the sink, so there are exactly
    ``width * degree ** (layers - 1)`` source-sink paths before the fiber cap.
    Each logical link is routed over a shortest fiber walk (ties to the lower
    fiber id).  Returns (lnet text, fibers, links, routes, source, sink).
    """
    order = list(range(pnodes))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, pnodes)]
    present = {frozenset(e) for e in edges}
    while len(edges) < fibers:
        u, v = rng.sample(range(pnodes), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    adjacency: dict[int, list[tuple[int, int]]] = {p: [] for p in range(pnodes)}
    for fid, (u, v) in enumerate(edges, start=1):
        adjacency[u].append((fid, v))
        adjacency[v].append((fid, u))

    trees: dict[int, dict] = {}

    def shortest_walk(a: int, b: int) -> tuple[int, ...]:
        if a not in trees:
            back = trees[a] = {a: None}
            frontier = [a]
            while frontier:
                nxt = []
                for node in frontier:
                    for fid, peer in adjacency[node]:
                        if peer not in back:
                            back[peer] = (fid, node)
                            nxt.append(peer)
                frontier = nxt
        back = trees[a]
        walk = []
        node = b
        while back[node] is not None:
            fid, node = back[node]
            walk.append(fid)
        return tuple(reversed(walk))

    picks = rng.sample(range(pnodes), 2 + layers * width)
    source, sink = picks[0], picks[1]
    tiers = [picks[2 + i * width : 2 + (i + 1) * width] for i in range(layers)]
    links = [(source, v) for v in tiers[0]]
    for here, there in zip(tiers, tiers[1:]):
        for u in here:
            links.extend((u, v) for v in sorted(rng.sample(there, degree)))
    links.extend((u, sink) for u in tiers[-1])
    routes = [shortest_walk(u, v) for u, v in links]

    def name(p: int) -> str:
        return f"n{p}"

    lines = ["lnet 1 directed", "pnodes " + " ".join(name(p) for p in range(pnodes)), "pfibers"]
    lines += [f"{fid} {name(u)} {name(v)}" for fid, (u, v) in enumerate(edges, start=1)]
    lnodes = [source] + [p for tier in tiers for p in tier] + [sink]
    lines += ["lnodes " + " ".join(name(p) for p in lnodes), "llinks"]
    lines += [
        f"{k} {name(u)} {name(v)}: " + " ".join(map(str, route))
        for k, ((u, v), route) in enumerate(zip(links, routes), start=1)
    ]
    lines.append(f"st {name(source)} {name(sink)}")
    named = [(name(u), name(v)) for u, v in links]
    return "\n".join(lines) + "\n", len(edges), named, routes, name(source), name(sink)


class LayeredScale(Workload):
    """Random layered networks: few, large survival matrices."""

    name = "lnet-scale"
    suffix = ".lnet"
    instances_per_list = 110
    shape = dict(pnodes=120, fibers=300, layers=6, width=7, degree=3)
    # The per-instance fiber cap K keeps this share of the candidate paths.
    keep = 0.8
    residual_sample = 3

    def generate(self, rng: Random, count: int) -> list[Instance]:
        out = []
        for _ in range(count):
            text, m, links, routes, s, t = layered_network(rng, **self.shape)
            paths = candidate_paths(links, routes, s, t, True)
            costs = sorted(mask.bit_count() for _, mask in paths)
            k = costs[int(self.keep * (len(costs) - 1))]
            out.append(
                Instance(
                    text=text,
                    num_fibers=m,
                    candidates=tuple(mask for _, mask in paths if mask.bit_count() <= k),
                    solver_seed=rng.randrange(2**31),
                    k=k,
                )
            )
        return out

    def run(self, inst: Instance, path: str, tr) -> Output:
        out = Output(enumerated=True)
        with tr.span("formats.read"):
            out.net = net = read_lnet(path)
        with tr.span("pathing.enumerate"):
            out.catalog = enumerate_paths_k_restricted(net, inst.k)
        with tr.span("model.matrix"):
            out.matrix = mat = out.catalog.matrix(net.num_fibers)
        limits = Limits(max_fibers_per_path=inst.k)
        try:
            _solve(out, tr, "msp.greedy", "msp", "greedy", mat, limits)
        except InfeasibleInstanceError as exc:
            out.infeasible = exc
            return out
        _solve(out, tr, "mfsp.greedy", "mfsp", "nacg", mat, limits)
        _solve(out, tr, "mfsp.rsg", "mfsp", "rsg", mat, limits, seed=inst.solver_seed)
        _serialise(out, tr)
        return out

    def check(self, inst: Instance, out: Output, index: int) -> None:
        super().check(inst, out, index)
        if index < self.residual_sample and out.infeasible is None:
            # Survivability on the logical graph itself, one failure at a time.
            paths = out.catalog.paths
            for label, report in out.reports:
                selected = report.solution.selected
                for fiber in range(1, inst.num_fibers + 1):
                    if not residual_survivability_check(out.net, paths, selected, fiber):
                        raise CheckFailed(f"{label}: residual graph loses s-t after fiber {fiber}")

    def cli_args(self, inst, path):
        return ["solve", "msp", "--alg", "greedy", "--k", str(inst.k), "--in", path]


class EnsembleRR(Workload):
    """The W-capped random parallel ensemble behind ``survpath bench``."""

    name = "ensemble-rr"
    instances_per_list = 90
    paths = 6
    fibers = 8
    rr_seeds = 4
    cli_runs = 5

    def generate(self, rng: Random, count: int) -> list[Instance]:
        out = []
        for index in range(count):
            w = 3 if index % 3 == 2 else 2
            cfg = RandomEnsembleConfig(
                num_paths=self.paths, num_fibers=self.fibers,
                max_paths_per_fiber=w, seed=rng.randrange(2**31),
            )
            (mat,) = gen_random_parallel(cfg)
            fiber_sets = [mat.path_fibers(j) for j in range(1, mat.num_paths + 1)]
            out.append(
                Instance(
                    text=spn_text(self.fibers, fiber_sets, w),
                    num_fibers=self.fibers,
                    candidates=tuple(map(fiber_mask, fiber_sets)),
                    solver_seed=rng.randrange(2**31),
                )
            )
        return out

    def run(self, inst: Instance, path: str, tr) -> Output:
        out = Output()
        limits = _read_spn(path, tr, out)
        mat = out.matrix
        with tr.span("lp.relaxation"):
            out.relaxation = lp = solve_mfsp_relaxation(mat)
        for r in range(self.rr_seeds):
            _solve(out, tr, "mfsp.rr", "mfsp", "rr", mat, limits,
                   seed=inst.solver_seed + r, repair=True, relaxation=lp)
        _solve(out, tr, "mfsp.exact", "mfsp", "exact", mat, limits, node_limit=NODE_LIMIT)
        _serialise(out, tr)
        return out

    def check(self, inst: Instance, out: Output, index: int) -> None:
        super().check(inst, out, index)
        exact = out.reports[-1][1].objective
        if exact < math.ceil(out.relaxation.objective_exact):
            raise CheckFailed(f"exact optimum {exact} is below the LP bound")

    def bench_args(self, seed: int) -> list[str]:
        return [
            "bench", "--problem", "mfsp", "--algs", "rr,nacg,exact",
            "--paths", str(self.paths), "--fibers", str(self.fibers),
            "--w-range", "2..3", "--trials", "2", "--seed", str(seed),
            "--node-limit", str(NODE_LIMIT),
        ]

    def cli_args(self, inst, path):
        return self.bench_args(inst.solver_seed)

    def check_cli(self, stdout: str, reports=None) -> None:
        """Check a ``bench`` CSV: its header, its rows, and exact <= heuristics."""
        lines = stdout.splitlines()
        if not lines or lines[0] != ",".join(CSV_COLUMNS):
            raise CheckFailed("bench CSV header changed")
        rows = [line.split(",") for line in lines[1:]]
        trials = [r for r in rows if r[4] not in ("mean", "std")]
        if len(trials) != 3 * 2 * 2:
            raise CheckFailed(f"bench printed {len(trials)} trial rows, expected 12")
        by_cell: dict[tuple[str, str], dict[str, list[str]]] = {}
        for r in trials:
            by_cell.setdefault((r[2], r[4]), {})[r[0]] = r
        for cell in by_cell.values():
            exact = cell["exact"]
            if exact[7] != "1" or cell["nacg"][7] != "1":
                raise CheckFailed("bench exact or nacg row is not survivable")
            for alg in ("nacg", "rr"):
                if cell[alg][7] == "1" and int(cell[alg][6]) < int(exact[6]):
                    raise CheckFailed(f"bench {alg} beat the exact optimum")


WORKLOADS = {w.name: w for w in (SetCoverMSP(), GadgetMFSP(), LayeredScale(), EnsembleRR())}
