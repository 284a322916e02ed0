"""Pin the optimum and witness ``msp_exact`` returns on set-cover embeddings.

The corpus has the setcover-msp benchmark's shape: 34 subsets of 34 elements,
density 0.25, embedded with ``gen_from_setcover``.  Among optima the solver
returns the lexicographically smallest id tuple, so a pruning rule may change
how many nodes a search visits (``iterations``, deliberately not pinned) but
never an objective or a witness here.  Small instances of the same shape are
also checked against the brute-force oracle.
"""

from __future__ import annotations

from random import Random

from survpath import gen_from_setcover, msp_exact

from oracles import brute_msp, random_setcover_subsets

# (objective, witness) for 24 instances drawn from one seeded stream.
SETCOVER_PINS = [
    (5, (2, 4, 6, 7, 17)),
    (5, (1, 2, 12, 14, 15)),
    (5, (1, 7, 10, 11, 24)),
    (5, (2, 12, 15, 29, 32)),
    (5, (4, 15, 23, 27, 34)),
    (6, (1, 2, 6, 7, 10, 30)),
    (5, (2, 5, 18, 22, 28)),
    (4, (1, 11, 13, 25)),
    (5, (1, 2, 12, 14, 16)),
    (5, (1, 4, 7, 10, 20)),
    (5, (1, 6, 13, 15, 16)),
    (5, (4, 12, 22, 29, 34)),
    (6, (1, 3, 12, 14, 15, 33)),
    (4, (13, 14, 15, 24)),
    (6, (1, 5, 7, 20, 23, 32)),
    (5, (1, 3, 15, 22, 26)),
    (5, (1, 2, 6, 8, 26)),
    (5, (7, 15, 21, 25, 30)),
    (5, (1, 3, 5, 26, 29)),
    (5, (3, 7, 23, 26, 27)),
    (5, (4, 6, 8, 27, 29)),
    (5, (1, 7, 13, 20, 34)),
    (5, (1, 10, 13, 14, 28)),
    (5, (4, 6, 28, 32, 33)),
]


def test_exact_witnesses_on_the_setcover_corpus_are_pinned():
    rng = Random("msp-setcover-witness-pins")
    found = []
    for _ in SETCOVER_PINS:
        mat = gen_from_setcover(34, random_setcover_subsets(rng, 34, 0.25))
        report = msp_exact(mat)
        assert report.solution.survivable
        found.append((report.objective, report.solution.selected))
    assert found == SETCOVER_PINS


def test_exact_matches_brute_force_on_small_setcover_instances():
    rng = Random("msp-setcover-vs-brute")
    for _ in range(80):
        elements = rng.randint(4, 14)
        paths = rng.randint(4, 14)
        mat = gen_from_setcover(elements, random_setcover_subsets(rng, elements, 0.25, paths))
        size, ids = brute_msp(mat)
        report = msp_exact(mat)
        assert (report.objective, report.solution.selected) == (size, ids)
