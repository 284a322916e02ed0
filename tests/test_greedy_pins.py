"""Pin every greedy's full report on a seeded corpus.

The greedies (``msp_greedy``, ``mfsp_acg``, ``mfsp_nacg``, ``mfsp_rsg``) and
the greedy completion of randomized rounding (``mfsp_randomized_rounding``
with ``repair=True``) are all the same set-cover greedy with a different path
cost.  This file fixes what each returns, ``to_dict()`` with timing zeroed
(selection, objective, iteration count and the per-step trace in ``extra``),
so a rewrite of the greedy cannot change a single pick or tie-break.

The corpus is the two feasible packaged ``.spn`` files followed by 100
``random_feasible_matrix`` instances drawn from one seeded stream.  A second,
wide corpus holds only matrices with more paths than fibers: random ones,
deep ones whose paths each survive one to three fibers (so the greedy takes
many steps), and the K-restricted catalogs of small random layered networks.
Each solver's reports on each corpus are pinned as the SHA-256 of their JSON
list (``json.dumps(reports, sort_keys=True)``).
"""

from __future__ import annotations

import hashlib
import json
from random import Random

import pytest

from survpath import (
    InfeasibleInstanceError,
    RoundingConfig,
    SurvivalMatrix,
    enumerate_paths_k_restricted,
    mfsp_acg,
    mfsp_nacg,
    mfsp_randomized_rounding,
    mfsp_rsg,
    msp_greedy,
    packaged_instance,
    read_spn,
)
from survpath.lp import solve_mfsp_relaxation

from oracles import random_feasible_matrix
from test_matrix_derived import random_layered

# A low target: few rounds, so some rounded selections miss a fiber and the
# greedy repair completes them.
ROUNDING_Q = 0.1


def _corpus():
    names = ("pairwise3.spn", "nonadditive.spn")
    mats = [read_spn(packaged_instance(name)).matrix() for name in names]
    rng = Random("greedy-pins")
    mats += [random_feasible_matrix(rng, max_paths=10, max_fibers=10) for _ in range(100)]
    return mats


def _deep_wide_matrix(rng: Random) -> SurvivalMatrix:
    """More paths than fibers, each path surviving one to three fibers."""
    while True:
        m = rng.randint(6, 12)
        n = rng.randint(m + 1, 2 * m + 4)
        full = (1 << m) - 1
        masks = tuple(
            full ^ sum(1 << i for i in rng.sample(range(m), rng.randint(1, 3)))
            for _ in range(n)
        )
        mat = SurvivalMatrix(m, n, masks)
        if not mat.infeasible_fibers():
            return mat


def _wide_corpus():
    rng = Random("greedy-pins-wide")
    mats = [
        random_feasible_matrix(rng, min_paths=13, max_paths=40, max_fibers=12)
        for _ in range(40)
    ]
    mats += [_deep_wide_matrix(rng) for _ in range(30)]
    nets = 0
    while nets < 8:
        net = random_layered(rng)
        mat = enumerate_paths_k_restricted(net, rng.randint(2, 5)).matrix(net.num_fibers)
        if mat.num_paths > mat.num_fibers and not mat.infeasible_fibers():
            mats.append(mat)
            nets += 1
    return mats


def _rounding(seed):
    def solve(mat, relaxation):
        return mfsp_randomized_rounding(
            mat, RoundingConfig(ROUNDING_Q, seed), repair=True, relaxation=relaxation
        )

    return solve


SOLVERS = {
    "msp_greedy": lambda mat, _: msp_greedy(mat),
    "mfsp_acg": lambda mat, _: mfsp_acg(mat),
    "mfsp_nacg": lambda mat, _: mfsp_nacg(mat),
    "mfsp_rsg/0": lambda mat, _: mfsp_rsg(mat, 0),
    "mfsp_rsg/1": lambda mat, _: mfsp_rsg(mat, 1),
    "mfsp_rounding/0": _rounding(0),
    "mfsp_rounding/1": _rounding(1),
}

DIGESTS = {
    "msp_greedy": "a858e4e031e6fe686adafe29a4665a42e941ea1aa621b61d0ad6e50f98c3c752",
    "mfsp_acg": "fed7ea8a5ed9d2074ac72d1f43e6e849c68b74103e471ae2ffd84f5145ee7a36",
    "mfsp_nacg": "7e032c1c6f4521b008b0acce3f13ab6ec1a3f4191f86b114f7f980eaec33be8f",
    "mfsp_rsg/0": "e347c360fe5dab0d348b520c1fd3b810ae7e1249a83828df22b16c5296c09d1b",
    "mfsp_rsg/1": "8bd64d06f92c52c17f8aafeae5b4dea416041fa10609347b062e5d17ccf28ff5",
    "mfsp_rounding/0": "0a7acaa6b395404c9ad961bbb8cb4878afe50f631d47f991c5449382313b7790",
    "mfsp_rounding/1": "c4be5bc62fd1f61b3d50157289116d6d32da5b0f31946fb8c9b00fc1a651f62e",
}


WIDE_DIGESTS = {
    "msp_greedy": "842a08c96c4ea0bf1853961bcd425144e80c7b5f4d4eb3ed158bc3918b2dcfe3",
    "mfsp_acg": "81c716e23fb575d9c1314e6d4970fa5314ba01d372bdef9b49fc7e2597e21b94",
    "mfsp_nacg": "2189eebb3215c5d7130d0877eaa0e80611e163a08ad61c9ad0d64eb8c5c49e3f",
    "mfsp_rsg/0": "42b99a536b983358acd2ff8aa4861f2702428b8dc5b0451dce97b6b5f90d10b2",
    "mfsp_rsg/1": "6f5bc9f39f1bce012639ed12ccc9625388e51d649daf9fd4ab4f19a1c08ac4d0",
    "mfsp_rounding/0": "a4b3b09b13a1b009a2ba0a86e8bc4b972ce224420a0402176d933a3a153feb0b",
    "mfsp_rounding/1": "7e85bc107b4768d860d2446bfb5e2beacc5cbb5bb7fd3f366e6f13cb73b339c7",
}


def _reports(mats):
    out = {name: [] for name in SOLVERS}
    for mat in mats:
        relaxation = solve_mfsp_relaxation(mat)
        for name, solve in SOLVERS.items():
            out[name].append(solve(mat, relaxation).to_dict())
    return out


@pytest.fixture(scope="module")
def reports():
    return _reports(_corpus())


@pytest.fixture(scope="module")
def wide_reports():
    return _reports(_wide_corpus())


def _digest(dicts) -> str:
    return hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_greedy_reports_are_pinned(reports, name):
    assert _digest(reports[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_wide_greedy_reports_are_pinned(wide_reports, name):
    assert _digest(wide_reports[name]) == WIDE_DIGESTS[name]


def test_the_repair_runs_on_part_of_the_corpus(reports):
    for name in ("mfsp_rounding/0", "mfsp_rounding/1"):
        repaired = sum("repair_added" in r["extra"] for r in reports[name])
        assert repaired >= 5, (name, repaired)


def test_the_wide_corpus_takes_deep_greedies_repairs_and_sweeps(wide_reports):
    steps = [len(r["extra"]["selections"]) for r in wide_reports["msp_greedy"]]
    removed = sum(len(r["extra"]["removed"]) for r in wide_reports["mfsp_rsg/0"])
    repaired = sum("repair_added" in r["extra"] for r in wide_reports["mfsp_rounding/0"])
    assert max(steps) >= 6 and removed >= 5 and repaired >= 5, (max(steps), removed, repaired)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_greedy_rejects_the_uncoverable_instance(uncoverable, name):
    with pytest.raises(InfeasibleInstanceError):
        SOLVERS[name](uncoverable, None)
