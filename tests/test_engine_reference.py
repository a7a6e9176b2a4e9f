"""The batch engine against a reference copy of the step loop it replaced.

``_simulate_block`` skips its float64 overflow screen while the largest
committed total shows that the screen cannot fire, skips its freeze test while
no total exceeds the cap, and stops once every replicate has frozen.  The
reference below is the loop without those shortcuts: it screens and tests
every replicate at every step to the horizon.  With the same block seeds every
field of every block must be equal, over laws of one to four atoms, caps that
freeze no replicate, some or all of them, and litter laws whose totals trip
the screen.

The reference also keeps the cohort matrix ``Bnk`` the engine no longer forms.
It is the oracle for the campaign's innovations: on every kept replicate the
births ``B_n`` equal, exactly, the births ``sum_k B_{n-k,k}`` its cohorts bear
at time ``n``, so ``W_n = sum_k W_{n-k,k}`` holds and ``W`` is fixed by the
births alone.  ``harness._counts`` forms ``W`` from births, and it must equal,
bit for bit, ``_births_innovations`` of the reference's births.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from cmjfluct import harness, make_law, moments
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


def _reference_block(rng, probs, litters, horizon, cap, rows):
    """The engine's block with both tests at every step, no early stop and the cohort matrix ``Bnk[i, n, k]``;
    also reports whether the screen fired."""
    size = sim._BLOCK_SIZE
    k_top = litters.shape[1] - 1
    by_age = np.ascontiguousarray(litters.T)
    litter_sums = np.cumsum(litters.astype(float), axis=1)
    sched = np.zeros((horizon + 1, size), dtype=np.int64)
    sched[0] = 1
    Bnk = np.zeros((horizon + 1, k_top + 1, size), dtype=np.int64)
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
        Bnk[n, 1 : top + 1] = row
    B = sched.T[:rows]
    batch = SimpleNamespace(B=B, Z=np.cumsum(B, axis=1), capped=capped[:rows], Bnk=np.moveaxis(Bnk, -1, 0)[:rows])
    return batch, screened


def _reference_blocks(law, horizon, replicates, master_seed, domain, cap):
    probs = np.array([atom.prob for atom in law.atoms])
    litters = np.array([atom.births for atom in law.atoms], dtype=np.int64)
    return [
        _reference_block(
            np.random.default_rng((master_seed, domain, start // sim._BLOCK_SIZE, sim._BLOCK_TAG)),
            probs, litters, horizon, cap, min(sim._BLOCK_SIZE, replicates - start),
        )
        for start in range(0, replicates, sim._BLOCK_SIZE)
    ]


def _assert_same(law, horizon, seed, cap):
    """Compare every block field and the campaign's ``Z`` and ``W``; return (all capped, screen fired) over the
    reference blocks."""
    got = list(sim._simulate_blocks(law, horizon, _R, seed, 0, cap))
    want = _reference_blocks(law, horizon, _R, seed, 0, cap)
    assert len(got) == len(want) == 2
    for g, (w, _) in zip(got, want):
        for name in ("B", "Z", "capped"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, horizon, seed, cap)
    assert sum(len(g.capped) for g in got) == _R
    _assert_campaign_counts(law, horizon, seed, cap, [w for w, _ in want])
    return all(w.capped.all() for w, _ in want), any(s for _, s in want)


def _assert_campaign_counts(law, horizon, seed, cap, want):
    """The reference's kept births equal those its cohort matrix bears, and the campaign's ``Z`` and births-only
    ``W`` equal the reference's."""
    mu = moments(law).mu
    kept = [~w.capped for w in want]
    for w, k in zip(want, kept):
        B, Bnk = w.B[k], w.Bnk[k]
        born = np.zeros_like(B)
        for age in range(1, Bnk.shape[2]):
            born[:, age:] += Bnk[:, :-age, age]
        assert np.array_equal(B[:, 1:], born[:, 1:]), (horizon, seed, cap)
    want_Z = np.concatenate([w.Z[k].astype(float) for w, k in zip(want, kept)])
    want_W = np.concatenate([sim._births_innovations(w.B[k].astype(float), mu) for w, k in zip(want, kept)])
    config = harness.ExperimentConfig(law, max(horizon, 2 * law.max_age), _R, seed, cap=cap)
    if len(want_Z) < 2:
        with pytest.raises(RuntimeError, match="replicates below the cap"):
            harness._counts(config, 0, horizon, "compare", mu=mu)
        return
    Z, W = harness._counts(config, 0, horizon, "compare", mu=mu)
    assert Z.tobytes() == want_Z.tobytes(), (horizon, seed, cap)
    assert W.tobytes() == want_W.tobytes(), (horizon, seed, cap)


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_engine_matches_reference_block_for_block(name):
    law = make_law(_LAWS[name])
    all_capped = 0
    for cap in _CAPS:
        for horizon in _HORIZONS:
            for seed in _SEEDS:
                every, _ = _assert_same(law, horizon, seed, cap)
                all_capped += every
    assert all_capped  # some case freezes every replicate, so the early stop is exercised


@pytest.mark.parametrize("atoms", _SCREEN_LAWS, ids=("1000_3000", "1_3000"))
def test_engine_matches_reference_where_the_screen_fires(atoms):
    law = make_law(atoms)
    fired = 0
    for horizon in _HORIZONS:
        for seed in _SEEDS:
            _, screened = _assert_same(law, horizon, seed, 1 << 62)
            fired += screened
    assert fired  # the float64 screen froze replicates below the cap
