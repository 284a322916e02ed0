"""Pin the optimum and witness ``mfsp_exact`` returns on gadgets and ensembles.

Two corpora, each drawn from one seeded stream:

* 3-set-cover gadgets with the gadget-mfsp benchmark's shape: 12 elements,
  15 random triples, chain length 81 (45 paths over 1311 fibers);
* W-capped random parallel ensembles with the ensemble-rr benchmark's shape:
  6 paths over 8 fibers, W = 2 or 3, solved under the declared W.

Among optima (fewest fibers, then fewest paths) the solver returns the
lexicographically smallest id tuple, so a change to the search may change how
many nodes it visits (``iterations``, deliberately not pinned) but never an
objective or a witness here.
"""

from __future__ import annotations

from random import Random

from survpath import Limits, gen_mfsp_3setcover_gadget, gen_random_parallel, mfsp_exact
from survpath.instances import RandomEnsembleConfig

# (objective, witness) for 8 gadgets drawn from one seeded stream.
GADGET_PINS = [
    (376, (1, 2, 3, 13, 14, 15, 37, 38, 39, 43, 44, 45)),
    (458, (1, 2, 3, 4, 5, 6, 7, 9, 23, 24, 29, 30)),
    (458, (1, 2, 3, 4, 6, 16, 17, 37, 38, 39, 41, 42)),
    (458, (1, 2, 3, 10, 11, 12, 31, 33, 39, 40, 41, 42)),
    (458, (4, 5, 6, 7, 9, 13, 22, 23, 24, 31, 32, 33)),
    (458, (1, 2, 3, 10, 11, 12, 22, 23, 24, 31, 33, 40)),
    (376, (16, 17, 18, 31, 32, 33, 34, 35, 36, 37, 38, 39)),
    (458, (1, 2, 3, 4, 6, 13, 14, 15, 18, 19, 20, 21)),
]

# (objective, witness) for 20 ensembles; every third one has W = 3, the rest W = 2.
ENSEMBLE_PINS = [
    (2, (1, 5)),
    (2, (3, 4)),
    (3, (4, 6)),
    (2, (2, 4)),
    (2, (4, 5)),
    (4, (1, 6)),
    (2, (3, 4)),
    (2, (3, 4)),
    (2, (2, 6)),
    (2, (5, 6)),
    (2, (4, 5)),
    (3, (1, 6)),
    (2, (3, 4)),
    (2, (1, 5)),
    (3, (5, 6)),
    (2, (3, 6)),
    (2, (2, 4)),
    (3, (5, 6)),
    (2, (3, 4)),
    (2, (4, 5)),
]


def test_exact_witnesses_on_the_gadget_corpus_are_pinned():
    rng = Random("mfsp-gadget-witness-pins")
    elements, count = 12, 15
    found = []
    for _ in GADGET_PINS:
        while True:
            triples = [sorted(rng.sample(range(1, elements + 1), 3)) for _ in range(count)]
            if len({e for t in triples for e in t}) == elements:
                break
        net, catalog = gen_mfsp_3setcover_gadget(elements, triples, 81)
        report = mfsp_exact(catalog.matrix(net.num_fibers))
        assert report.solution.survivable
        found.append((report.objective, report.solution.selected))
    assert found == GADGET_PINS


def test_exact_witnesses_on_the_ensemble_corpus_are_pinned():
    rng = Random("mfsp-ensemble-witness-pins")
    found = []
    for index, _ in enumerate(ENSEMBLE_PINS):
        w = 3 if index % 3 == 2 else 2
        cfg = RandomEnsembleConfig(
            num_paths=6, num_fibers=8, max_paths_per_fiber=w, seed=rng.randrange(2**31)
        )
        (mat,) = gen_random_parallel(cfg)
        report = mfsp_exact(mat, Limits(max_paths_per_fiber=w))
        assert report.solution.survivable
        found.append((report.objective, report.solution.selected))
    assert found == ENSEMBLE_PINS
