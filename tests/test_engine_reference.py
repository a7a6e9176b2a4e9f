"""The batch engine against a reference copy of the step loop it replaced.

``_simulate_block`` skips its float64 overflow screen while the largest
committed total shows that the screen cannot fire, skips its freeze test while
no total exceeds the cap, and stops once every replicate has frozen.  The
reference below is the loop without those shortcuts: it screens and tests
every replicate at every step to the horizon.  With the same block seeds every
field of every block must be equal, over laws of one to four atoms, caps that
freeze no replicate, some or all of them, and litter laws whose totals trip
the screen.
"""

from __future__ import annotations

import numpy as np
import pytest

from cmjfluct import make_law
from cmjfluct import simulate as sim

_R = 350  # two blocks, the last one cut
_CAPS = (50, 10**6, 4 * 10**8, 1 << 62)
_HORIZONS = (0, 1, 5, 24, 70)
_SEEDS = (3, 41, 2027)

_LAWS = {
    "one_atom": [(1.0, (1, 0, 1))],
    "law_i": [(0.5, (1, 1)), (0.5, (3, 1))],
    "three_atoms_k10": [
        (0.3, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (0.5, (2, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
        (0.2, (3, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ],
    "four_atoms": [(0.4, (1,)), (0.3, (0, 1)), (0.2, (2, 0, 1)), (0.1, (0, 5))],
}
#: Litter laws whose totals cross 1.5 * 2^62 in one step from below the cap; in the second the smallest and largest
#: litters differ by a factor 3000.
_SCREEN_LAWS = ([(0.5, (1000,)), (0.5, (3000,))], [(0.5, (1,)), (0.5, (3000,))])


def _reference_block(rng, probs, litters, horizon, cap, cohorts, rows):
    """The engine's block with both tests at every step and no early stop; also reports whether the screen fired."""
    size = sim._BLOCK_SIZE
    k_top = litters.shape[1] - 1
    by_age = np.ascontiguousarray(litters.T)
    litter_sums = np.cumsum(litters.astype(float), axis=1)
    sched = np.zeros((horizon + 1, size), dtype=np.int64)
    sched[0] = 1
    Bnk = np.zeros((horizon + 1, k_top + 1, size), dtype=np.int64) if cohorts else None
    committed = np.ones(size, dtype=np.int64)
    capped = np.zeros(size, dtype=bool)
    screened = False
    for n in range(horizon):
        counts = rng.multinomial(sched[n], probs)
        top = min(k_top, horizon - n)
        over = committed + counts @ litter_sums[:, top] >= sim._SCREEN_FLOAT
        if over.any():
            screened = True
            counts[over] = 0
        row = by_age[1 : top + 1] @ counts.T
        committed += row.sum(axis=0)
        frozen = over | (committed > cap)
        if frozen.any():
            row[:, frozen] = 0
            sched[n + 1 :, frozen] = 0
            capped |= frozen
            committed[frozen] = 0
        sched[n + 1 : n + top + 1] += row
        if cohorts:
            Bnk[n, 1 : top + 1] = row
    B = sched.T[:rows]
    batch = sim._Batch(B=B, Z=np.cumsum(B, axis=1), capped=capped[:rows], Bnk=None if Bnk is None else np.moveaxis(Bnk, -1, 0)[:rows])
    return batch, screened


def _reference_blocks(law, horizon, replicates, master_seed, domain, cap, cohorts):
    probs = np.array([atom.prob for atom in law.atoms])
    litters = np.array([atom.births for atom in law.atoms], dtype=np.int64)
    return [
        _reference_block(
            np.random.default_rng((master_seed, domain, start // sim._BLOCK_SIZE, sim._BLOCK_TAG)),
            probs, litters, horizon, cap, cohorts, min(sim._BLOCK_SIZE, replicates - start),
        )
        for start in range(0, replicates, sim._BLOCK_SIZE)
    ]


def _assert_same(law, horizon, seed, cap, cohorts):
    """Compare every block field; return (all capped, screen fired) over the reference blocks."""
    got = list(sim._simulate_blocks(law, horizon, _R, seed, 0, cap, cohorts=cohorts))
    want = _reference_blocks(law, horizon, _R, seed, 0, cap, cohorts)
    assert len(got) == len(want) == 2
    for g, (w, _) in zip(got, want):
        for name in ("B", "Z", "capped"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, horizon, seed, cap, cohorts)
        if cohorts:
            assert g.Bnk.dtype == w.Bnk.dtype and np.array_equal(g.Bnk, w.Bnk), (horizon, seed, cap)
        else:
            assert g.Bnk is None and w.Bnk is None
    assert sum(len(g.capped) for g in got) == _R
    return all(w.capped.all() for w, _ in want), any(s for _, s in want)


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_engine_matches_reference_block_for_block(name):
    law = make_law(_LAWS[name])
    all_capped = 0
    for cap in _CAPS:
        for horizon in _HORIZONS:
            for cohorts in (False, True):
                for seed in _SEEDS:
                    every, _ = _assert_same(law, horizon, seed, cap, cohorts)
                    all_capped += every
    assert all_capped  # some case freezes every replicate, so the early stop is exercised


@pytest.mark.parametrize("atoms", _SCREEN_LAWS, ids=("1000_3000", "1_3000"))
def test_engine_matches_reference_where_the_screen_fires(atoms):
    law = make_law(atoms)
    fired = 0
    for horizon in _HORIZONS:
        for cohorts in (False, True):
            for seed in _SEEDS:
                _, screened = _assert_same(law, horizon, seed, 1 << 62, cohorts)
                fired += screened
    assert fired  # the float64 screen froze replicates below the cap
